//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints a provenance header, one `# metric` line
//! per metric, and as its last line the result object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics untraced, the per-layer metrics with `--trace 1`. Exits
//! non-zero on a wrong answer, and without a result when the run is
//! invalid.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::analytics::{child_median, CHILD_FLAG};
use perfbench::report::{provenance, result_line};
use perfbench::{run, trace, Config, Workload};

struct Args {
    cfg: Config,
    child: bool,
}

fn parse() -> Result<Args, String> {
    let mut cfg = Config::new(Workload::AnalyticsSssp, 1, 10.0, false);
    let (mut child, mut workload) = (false, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == CHILD_FLAG {
            child = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => cfg.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => cfg.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => cfg.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            "--scale" => cfg.scale_denom = value.parse().map_err(|_| bad())?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if cfg.seconds.is_nan() || cfg.seconds <= 0.0 || cfg.scale_denom == 0 {
        return Err("--seconds and --scale must be positive".into());
    }
    match (workload, child) {
        (Some(w), _) => cfg.workload = w,
        (None, false) => return Err("--workload is required".into()),
        (None, true) => {}
    }
    Ok(Args { cfg, child })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.child {
        println!("{}", child_median(&args.cfg));
        return ExitCode::SUCCESS;
    }
    let cfg = args.cfg;
    let out = run(&cfg);
    println!("# provenance {}", provenance(&out.provenance));
    let aliases: Vec<String> = out.aliases.iter().map(|(m, a)| format!("{m}={a}")).collect();
    println!("# aliases {}", aliases.join(" "));
    print!("{}", out.extra.lines("metric"));
    if cfg.trace {
        if let Err(e) = trace::validate(&out.spans) {
            eprintln!("perfbench: malformed span tree: {e}");
            return ExitCode::from(4);
        }
        let dir = std::env::var_os("CARGO_TARGET_DIR")
            .map_or(PathBuf::from(".bench_build"), PathBuf::from);
        let path =
            dir.join("perfbench").join(format!("spans-{}-{}.jsonl", cfg.workload.name(), cfg.seed));
        match trace::write(&out.spans, &path) {
            Ok(()) => println!("# spans {} written to {}", out.spans.len(), path.display()),
            Err(e) => eprintln!("perfbench: could not write spans to {}: {e}", path.display()),
        }
        print!("{}", out.layers.lines("layer"));
    }
    if let Some(reason) = &out.invalid {
        eprintln!("perfbench: invalid run, no result: {reason}");
        return ExitCode::from(3);
    }
    let t = &out.tally;
    let metrics = if cfg.trace { &out.layers } else { &out.e2e };
    println!("{}", result_line(t.correct(), t.attempted, t.failed(), metrics));
    if let Some(e) = &t.first_error {
        eprintln!(
            "perfbench: {} wrong answers, {} theorem violations; first: {e}",
            t.wrong, t.theorem_violations
        );
    }
    if t.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

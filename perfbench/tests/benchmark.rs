//! Tests of the benchmark itself, at a scale that runs in seconds: every
//! workload reports every metric `BENCHMARK.json` names, with its unit;
//! the traced run's span tree is well formed; and the correctness gate
//! catches a corrupted distance.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::process::Command;

use perfbench::reference::{self, Expected};
use perfbench::report::{result_line, Metrics};
use perfbench::trace::{self, Span};
use perfbench::{Tally, Workload};
use rs_baselines::solver::BuildSolver;
use rs_core::{PreprocessConfig, Query, QueryResponse, SolverBuilder, SolverScratch, SsspResult};
use rs_graph::{gen, weights, CsrGraph, WeightModel};

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text.find(&format!("\"{list}\"")).expect("list present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("list closes")];
    body.lines()
        .filter_map(|l| {
            let field = |key: &str| {
                let at = l.find(&format!("\"{key}\": \""))? + key.len() + 5;
                Some(l[at..at + l[at..].find('"')?].to_string())
            };
            Some((field("name")?, field("unit")?))
        })
        .collect()
}

/// Runs the benchmark binary at test scale; returns its standard output
/// and the directory it wrote spans into.
fn run_tiny(workload: Workload, trace: bool) -> (String, PathBuf) {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "{}-{}",
        workload.name(),
        u8::from(trace)
    ));
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload.name(), "--seed", "5", "--seconds", "0.6"])
        .args(["--trace", if trace { "1" } else { "0" }, "--scale", "4096"])
        .env("CARGO_TARGET_DIR", &dir)
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{} failed: {}\n{stdout}",
        workload.name(),
        String::from_utf8_lossy(&out.stderr)
    );
    (stdout, dir)
}

/// `name -> unit` from the `metrics` object of the result line.
fn reported(stdout: &str) -> HashMap<String, String> {
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with(r#"{"correct": true, "attempted": "#), "{last}");
    let metrics = &last[last.find(r#""metrics": {"#).expect("metrics object") + 12..];
    metrics
        .split(r#""}, ""#)
        .map(|entry| {
            let entry = entry.trim_start_matches('"');
            let name = entry[..entry.find('"').expect("quoted name")].to_string();
            let unit = entry[entry.find(r#""unit": ""#).expect("unit") + 9..]
                .trim_end_matches(['"', '}'])
                .to_string();
            (name, unit)
        })
        .collect()
}

fn assert_reports_all(list: &str, trace: bool) {
    let expect = declared(list);
    assert!(!expect.is_empty());
    for w in Workload::ALL {
        let got = reported(&run_tiny(w, trace).0);
        assert_eq!(got.len(), expect.len(), "{}: {got:?}", w.name());
        for (name, unit) in &expect {
            assert_eq!(got.get(name), Some(unit), "{} reports {name} in {unit}", w.name());
        }
    }
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    assert_reports_all("end_to_end", false);
}

#[test]
fn every_workload_reports_every_per_layer_metric() {
    assert_reports_all("per_layer", true);
}

/// Parses the span lines `trace::write` produces.
fn read_spans(path: &Path) -> Vec<Span> {
    let names: HashMap<String, &'static str> = [
        "setup",
        "graph.gen",
        "solver.build",
        "preprocess.build",
        "preprocess.edges",
        "preprocess.landmarks",
        "graph.transpose",
        "scratch.warm",
        "engine.execute",
        "p2p.execute",
        "request",
        "serve.submit",
        "serve.stats",
        "serve.invalidate",
        "baselines.dijkstra",
        "baselines.delta_stepping",
        "par.child",
    ]
    .into_iter()
    .map(|n| (n.to_string(), n))
    .collect();
    let text = std::fs::read_to_string(path).expect("span file");
    text.lines()
        .map(|l| {
            let field = |key: &str| {
                let at = l.find(&format!("\"{key}\":")).expect(key) + key.len() + 3;
                l[at..].split([',', '}']).next().expect("value").trim_matches('"').to_string()
            };
            let num = |key: &str| field(key).parse::<u64>().expect("number");
            Span {
                id: num("id"),
                parent: field("parent").parse().ok(),
                request: num("request"),
                name: names.get(&field("name")).copied().unwrap_or_else(|| panic!("span {l}")),
                start_ns: num("start_ns"),
                end_ns: num("end_ns"),
            }
        })
        .collect()
}

#[test]
fn traced_runs_write_a_well_formed_span_tree() {
    for w in Workload::ALL {
        let (_, dir) = run_tiny(w, true);
        let spans = read_spans(&dir.join("perfbench").join(format!("spans-{}-5.jsonl", w.name())));
        trace::validate(&spans).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        assert!(trace::self_times(&spans).iter().all(|&(id, ns)| {
            let s = spans.iter().find(|s| s.id == id).expect("span");
            ns <= s.end_ns - s.start_ns
        }));
        let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
        let setup = spans.iter().find(|s| s.name == "setup").expect("a setup span");
        let children: HashSet<&str> =
            spans.iter().filter(|s| s.parent == Some(setup.id)).map(|s| s.name).collect();
        for child in [
            "graph.gen",
            "solver.build",
            "preprocess.build",
            "preprocess.edges",
            "preprocess.landmarks",
            "graph.transpose",
            "scratch.warm",
        ] {
            assert!(children.contains(child), "{}: setup lacks {child}", w.name());
        }
        let submits: Vec<&Span> = spans.iter().filter(|s| s.name == "serve.submit").collect();
        assert!(!submits.is_empty(), "{}: no submit spans", w.name());
        for s in submits {
            let parent = by_id[&s.parent.expect("a submit has a request")];
            assert_eq!(parent.name, "request");
            assert_eq!(parent.request, s.request, "a request's spans share its id");
            assert_eq!(parent.id, s.request);
        }
        assert!(spans.iter().any(|s| s.name == "engine.execute"), "{}", w.name());
    }
}

fn tiny_graph() -> CsrGraph {
    weights::reweight(&gen::grid2d(12, 12), WeightModel::paper_weighted(), 3)
}

/// `response` with the distance to `v` in row 0 increased by one.
fn corrupt(response: QueryResponse, v: usize) -> QueryResponse {
    let query = response.query.clone();
    let mut result: SsspResult = response.into_result();
    result.dist[v] += 1;
    QueryResponse::single(query, result)
}

#[test]
fn the_gate_catches_a_corrupted_distance() {
    let g = tiny_graph();
    let solver = SolverBuilder::new(&g).preprocess(PreprocessConfig::new(1, 8)).build();
    let mut scratch = SolverScratch::new();
    let queries =
        [Query::single_source(7), Query::point_to_point(7, 140), Query::one_to_many(7, [3, 140])];
    let expected = Expected::for_queries(&g, &queries);
    for query in queries {
        let response = solver.execute(&query, &mut scratch);
        assert_eq!(reference::wrong_cells(&expected, &response), 0, "{query:?}");
        let bad = corrupt(response, 140);
        assert_eq!(reference::wrong_cells(&expected, &bad), 1, "{query:?}");

        let mut tally = Tally::default();
        tally.attempted += 1;
        tally.check(|| format!("{query:?}"), reference::wrong_cells(&expected, &bad), 0);
        assert!(!tally.correct());
        assert_eq!(tally.failed(), 1);
        let line =
            result_line(tally.correct(), tally.attempted, tally.failed(), &Metrics::default());
        assert!(line.starts_with(r#"{"correct": false, "attempted": 1, "failed": 1"#), "{line}");
    }
}

#[test]
fn the_gate_enforces_the_substep_bound() {
    let mut tally = Tally::default();
    tally.check(String::new, 0, perfbench::K as usize + 2);
    assert!(tally.correct());
    tally.check(String::new, 0, perfbench::K as usize + 3);
    assert!(!tally.correct(), "Theorem 3.2: at most k + 2 substeps per step");
}

#[test]
fn a_table_answer_is_checked_cell_by_cell() {
    let g = tiny_graph();
    let solver = SolverBuilder::new(&g).preprocess(PreprocessConfig::new(1, 8)).build();
    let query = Query::many_to_many(vec![0, 50], vec![143, 20, 99]);
    let expected = Expected::for_queries(&g, [&query]);
    let response = solver.execute(&query, &mut SolverScratch::new());
    assert_eq!(reference::wrong_cells(&expected, &response), 0);
    assert!(reference::answers(&query, &response.query));
    assert!(!reference::answers(&Query::many_to_many(vec![0, 50], vec![143]), &response.query));
}

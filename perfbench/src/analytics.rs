//! `analytics-sssp`: the paper's own experiment. One caller runs full
//! single-source solves back to back (closed loop), each on the whole
//! pool; `serve`, the cache and the p2p kernels are not on this path.
//! Also the side measurements every traced run makes on these sources:
//! the baselines and `par.speedup`.

use std::time::{Duration, Instant};

use rs_baselines::{delta_stepping, dijkstra_default};
use rs_core::{BatchStats, Query, SolverScratch};
use rs_graph::{Dist, VertexId};

use crate::inputs::Rng;
use crate::reference::{self, Expected};
use crate::report::{median, percentile, ratio};
use crate::serving::{self, Kind, Req};
use crate::{engine_layer, overhead_frac, timed_solve, Config, Ctx, Outcome, Tally, SAMPLE};

/// Latency limit of a full solve, for `slo_frac`: about twice the
/// seed-era p90 (≈ 40 ms at nproc = 2).
const SSSP_LIMIT_MS: f64 = 80.0;

/// Bucket width of the ∆-stepping control (weights are in `[1, 10^4]`).
const DELTA: Dist = 2_000;

/// The analytics source stream of a seed.
fn source_stream(cfg: &Config) -> Rng {
    Rng::new(cfg.seed, 1)
}

/// The first `count` analytics sources of a seed.
pub(crate) fn sources(cfg: &Config, n: usize, count: usize) -> Vec<VertexId> {
    let mut rng = source_stream(cfg);
    (0..count).map(|_| rng.vertex(n)).collect()
}

pub(crate) fn run(ctx: &Ctx, scratch: &mut SolverScratch, out: &mut Outcome) {
    let n = ctx.g.num_vertices();
    let mut rng = source_stream(ctx.cfg);
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.cfg.seconds);
    let (mut all, mut traced, mut untraced) = (Vec::new(), Vec::new(), Vec::new());
    let mut ledger = BatchStats::default();
    while all.is_empty() || Instant::now() < deadline {
        let source = rng.vertex(n);
        let query = Query::single_source(source);
        // A traced run traces every other solve; the rest measure the
        // tracing overhead.
        let trace_this = ctx.tracer.on() && all.len().is_multiple_of(2);
        let (response, ms) = timed_solve(ctx, scratch, &query, trace_this, &mut ledger);
        all.push(ms);
        if trace_this {
            traced.push(ms)
        } else {
            untraced.push(ms)
        }
        // The gate runs outside the timed call.
        let expect = reference::dijkstra(ctx.g, source).dist;
        out.tally.attempted += 1;
        out.tally.check(
            || format!("single-source from {source}"),
            reference::wrong_entries(&expect, response.dist()),
            response.stats().max_substeps_in_step,
        );
    }
    let count = all.len();
    let solve_s: f64 = all.iter().sum::<f64>() / 1e3;
    let within = all.iter().filter(|&&ms| ms <= SSSP_LIMIT_MS).count();
    let (p50, p90) = (percentile(&all, 0.5), percentile(&all, 0.9));
    out.e2e.set_n("latency_ms_p50", p50, "ms", count);
    out.e2e.set_n("latency_ms_tail", p90, "ms", count);
    out.e2e.set_n("slo_frac", ratio(within as f64, count as f64), "frac", count);
    // One caller, so this is 1000 / the mean of the same latency samples.
    out.e2e.set_n("capacity_qps", ratio(count as f64, solve_s), "1/s", count);
    out.aliases.extend([("latency_ms_p50", "sssp_ms_p50"), ("latency_ms_tail", "sssp_ms_p90")]);
    if ctx.tracer.on() {
        engine_layer(&mut out.layers, &all, &ledger);
        solver_layer_direct(out, &ledger);
        out.layers.set("trace.overhead_frac", overhead_frac(&traced, &untraced), "frac");
        serve_pass(ctx, scratch, out);
    }
}

/// `solver.*` for direct solves: one execution per request, nothing
/// deduplicated.
fn solver_layer_direct(out: &mut Outcome, ledger: &BatchStats) {
    out.layers.set(
        "solver.executed_per_request",
        ratio(ledger.executed_solves as f64, ledger.solves as f64),
        "ratio",
    );
    out.layers.set("solver.dedup_saved", (ledger.solves - ledger.unique_solves) as f64, "count");
    out.layers.set("solver.cold_solves", ledger.cold_solves as f64, "count");
}

/// The `serve` layer on analytics traffic: a few of the analytics
/// sources as single-source requests through `rs_serve`, one client in
/// a closed loop, each paired with its isolated solve time.
fn serve_pass(ctx: &Ctx, scratch: &mut SolverScratch, out: &mut Outcome) {
    let srcs = sources(ctx.cfg, ctx.g.num_vertices(), SAMPLE);
    let reqs: Vec<Req> =
        srcs.iter().map(|&s| Req { query: Query::single_source(s), kind: Kind::Sssp }).collect();
    let expected = Expected::for_queries(ctx.g, reqs.iter().map(|r| &r.query));
    serving::serve_layer_closed(ctx, scratch, &expected, &reqs, out);
}

/// Baselines and `par.speedup` on the analytics sources.
pub(crate) fn side_measurements(ctx: &Ctx, scratch: &mut SolverScratch, out: &mut Outcome) {
    let srcs = sources(ctx.cfg, ctx.g.num_vertices(), SAMPLE);
    let (mut dij, mut delta) = (Vec::new(), Vec::new());
    for &s in &srcs {
        let expect = reference::dijkstra(ctx.g, s).dist;
        let (d, secs) = ctx
            .tracer
            .time("baselines.dijkstra", None, ctx.tracer.id(), || dijkstra_default(ctx.g, s));
        dij.push(secs * 1e3);
        out.tally.attempted += 1;
        out.tally.check(|| format!("dijkstra from {s}"), reference::wrong_entries(&expect, &d), 0);
        let (r, secs) = ctx.tracer.time("baselines.delta_stepping", None, ctx.tracer.id(), || {
            delta_stepping(ctx.g, s, DELTA)
        });
        delta.push(secs * 1e3);
        out.tally.attempted += 1;
        out.tally.check(
            || format!("delta-stepping from {s}"),
            reference::wrong_entries(&expect, &r.dist),
            0,
        );
    }
    out.layers.set_n("baselines.dijkstra_ms_p50", median(&dij), "ms", dij.len());
    out.layers.set_n("baselines.delta_stepping_ms_p50", median(&delta), "ms", delta.len());

    let here = nproc_median(ctx, scratch, &srcs, &mut out.tally);
    let (one, _) =
        ctx.tracer.time("par.child", None, ctx.tracer.id(), || one_thread_median(ctx.cfg));
    out.layers.set("par.threads", rs_par::num_threads() as f64, "count");
    out.layers.set("par.speedup", ratio(one, here), "ratio");
}

/// Median full-solve time over `srcs` on this process's pool; every
/// answer is checked after its timed call.
fn nproc_median(
    ctx: &Ctx,
    scratch: &mut SolverScratch,
    srcs: &[VertexId],
    tally: &mut Tally,
) -> f64 {
    let mut ledger = BatchStats::default();
    let mut times = Vec::with_capacity(srcs.len());
    for &s in srcs {
        let (response, ms) = timed_solve(ctx, scratch, &Query::single_source(s), true, &mut ledger);
        times.push(ms);
        tally.attempted += 1;
        tally.check(
            || format!("single-source from {s}"),
            reference::wrong_entries(&reference::dijkstra(ctx.g, s).dist, response.dist()),
            response.stats().max_substeps_in_step,
        );
    }
    median(&times)
}

/// Flag that makes the binary run [`nproc_median`] on a fresh set-up and
/// print it, for the parent to run under `RS_NUM_THREADS=1`.
pub const CHILD_FLAG: &str = "--speedup-child";

/// The same median in a child process at one pool thread.
fn one_thread_median(cfg: &Config) -> f64 {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let output = std::process::Command::new(exe)
        .args([CHILD_FLAG, "--seed", &cfg.seed.to_string()])
        .args(["--scale", &cfg.scale_denom.to_string()])
        .env("RS_NUM_THREADS", "1")
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("start the one-thread child");
    assert!(output.status.success(), "one-thread child failed");
    let text = String::from_utf8_lossy(&output.stdout);
    text.trim().parse().expect("the child prints one median")
}

/// The child side of `par.speedup`: a fresh untraced set-up, then
/// [`nproc_median`] over the first [`SAMPLE`] analytics sources.
/// Panics on a wrong answer, which fails the parent run.
pub fn child_median(cfg: &Config) -> f64 {
    let tracer = crate::trace::Tracer::new(false);
    let mut layers = crate::report::Metrics::default();
    let g = crate::setup::generate(cfg, &tracer, 0, &mut layers);
    let mut ready = crate::setup::ready(&g, 1, &tracer, &mut layers, 0, Instant::now());
    let ctx = Ctx { cfg, g: &g, solver: &*ready.solver, tracer: &tracer };
    let srcs = sources(cfg, g.num_vertices(), SAMPLE);
    let mut tally = Tally::default();
    let median = nproc_median(&ctx, &mut ready.scratch, &srcs, &mut tally);
    assert!(tally.correct(), "{}", tally.first_error.unwrap_or_default());
    median
}

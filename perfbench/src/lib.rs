//! Benchmark of the radius-stepping workspace.
//!
//! Three workloads drive the public API (`SolverBuilder`, `SsspSolver`,
//! `rs_serve`) on the Penn road stand-in; every answer is checked against
//! the benchmark's own reference Dijkstra. An untraced run reports the
//! end-to-end metrics; a traced run (`--trace 1`) records spans around
//! every call into the workspace and reports the per-layer metrics.
//! See `README.md` for the workloads, the metrics and what each layer
//! metric is predicted to move.

pub mod analytics;
mod inputs;
pub mod reference;
pub mod report;
mod serving;
mod setup;
pub mod trace;

use std::time::Instant;

use rs_core::{BatchStats, Query, QueryResponse, SolverScratch, SsspSolver};
use rs_graph::CsrGraph;

use report::{median, ratio, Metrics};
use trace::Tracer;

/// Shortcut parameters of every workload: `PreprocessConfig::new(K, RHO)`.
pub const K: u32 = 1;
pub const RHO: usize = 32;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    AnalyticsSssp,
    ServeP2pUnique,
    ServeMixedHot,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::AnalyticsSssp, Workload::ServeP2pUnique, Workload::ServeMixedHot];

    pub fn name(self) -> &'static str {
        match self {
            Workload::AnalyticsSssp => "analytics-sssp",
            Workload::ServeP2pUnique => "serve-p2p-unique",
            Workload::ServeMixedHot => "serve-mixed-hot",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Everything a run depends on besides the code under test.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Measured time of the workload's traffic phases.
    pub seconds: f64,
    pub trace: bool,
    /// Divisor of the paper's vertex count for the Penn stand-in.
    pub scale_denom: usize,
}

/// Queries behind the traced run's side measurements (baselines,
/// `par.speedup`, the direct `p2p` solves, isolated re-executions).
pub const SAMPLE: usize = 16;

impl Config {
    /// The configuration the benchmark runs at.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Config {
        Config { workload, seed, seconds, trace, scale_denom: 16 }
    }
}

/// What the workloads share: the graph, the ready solver, the tracer.
pub(crate) struct Ctx<'a> {
    pub cfg: &'a Config,
    pub g: &'a CsrGraph,
    pub solver: &'a dyn SsspSolver,
    pub tracer: &'a Tracer,
}

/// Offered requests and how they ended.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub attempted: u64,
    pub rejected: u64,
    pub unanswered: u64,
    /// Requests with at least one wrong distance.
    pub wrong: u64,
    /// Solves with more than `k + 2` substeps in a step (Theorem 3.2).
    pub theorem_violations: u64,
    pub first_error: Option<String>,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.rejected + self.unanswered + self.wrong
    }

    /// No wrong answer and no theorem violation.
    pub fn correct(&self) -> bool {
        self.wrong == 0 && self.theorem_violations == 0
    }

    /// Books one answer's check: wrong cells and its largest substep
    /// count.
    pub fn check(&mut self, what: impl Fn() -> String, wrong_cells: u64, max_substeps: usize) {
        if wrong_cells > 0 {
            self.wrong += 1;
            self.first_error.get_or_insert_with(|| format!("{} wrong: {}", wrong_cells, what()));
        }
        if max_substeps > K as usize + 2 {
            self.theorem_violations += 1;
            self.first_error.get_or_insert_with(|| {
                format!("{max_substeps} substeps in a step > k + 2: {}", what())
            });
        }
    }
}

/// A run's results: end-to-end metrics (under the benchmark's names),
/// the per-layer metrics of a traced run, and the figures printed as
/// report lines only.
#[derive(Default)]
pub struct Outcome {
    pub tally: Tally,
    /// Why the run's figures must not be reported, if they must not.
    pub invalid: Option<String>,
    pub e2e: Metrics,
    /// Figures the workload reports beside the end-to-end metrics
    /// (per-shape latencies, hit rate, generator lag, `failed_frac`).
    pub extra: Metrics,
    /// `(end-to-end metric, the name it has on this workload)`.
    pub aliases: Vec<(&'static str, &'static str)>,
    pub layers: Metrics,
    pub provenance: Vec<(&'static str, String)>,
    pub spans: Vec<trace::Span>,
}

/// Runs one workload.
pub fn run(cfg: &Config) -> Outcome {
    let tracer = Tracer::new(cfg.trace);
    let mut out = Outcome::default();
    let setup_id = tracer.id();
    let setup_start = Instant::now();
    let g = setup::generate(cfg, &tracer, setup_id, &mut out.layers);
    let repeats = if cfg.trace { 1 } else { setup::SETUP_REPEATS };
    let mut ready = setup::ready(&g, repeats, &tracer, &mut out.layers, setup_id, setup_start);
    let ctx = Ctx { cfg, g: &g, solver: &*ready.solver, tracer: &tracer };
    match cfg.workload {
        Workload::AnalyticsSssp => analytics::run(&ctx, &mut ready.scratch, &mut out),
        Workload::ServeP2pUnique => serving::run_unique(&ctx, &mut ready.scratch, &mut out),
        Workload::ServeMixedHot => serving::run_mixed(&ctx, &mut ready.scratch, &mut out),
    }
    if cfg.trace {
        analytics::side_measurements(&ctx, &mut ready.scratch, &mut out);
        serving::p2p_layer(&ctx, &mut ready.scratch, &mut out);
    }
    out.e2e.set("setup_s", ready.setup_s, "s");
    out.e2e.set("peak_rss_mb", report::peak_rss_mb(), "MB");
    out.extra.set(
        "failed_frac",
        ratio(out.tally.failed() as f64, out.tally.attempted as f64),
        "frac",
    );
    out.provenance = vec![
        ("workload", report::string(cfg.workload.name())),
        ("seed", cfg.seed.to_string()),
        ("seconds", report::num(cfg.seconds)),
        ("graph", report::string(&format!("Penn/{}", cfg.scale_denom))),
        ("n", g.num_vertices().to_string()),
        ("m", g.num_edges().to_string()),
        ("k", K.to_string()),
        ("rho", RHO.to_string()),
    ];
    drop(ready);
    let spans = tracer.into_spans();
    if cfg.trace {
        trace_summary(&spans, &mut out.layers);
    }
    out.spans = spans;
    out
}

/// Self time per layer and the span count.
fn trace_summary(spans: &[trace::Span], layers: &mut Metrics) {
    let by_layer = trace::self_ms_by_layer(spans);
    for layer in TRACE_LAYERS {
        layers.set(
            format!("trace.self_ms.{layer}"),
            by_layer.get(layer).copied().unwrap_or(0.0),
            "ms",
        );
    }
    layers.set("trace.spans", spans.len() as f64, "count");
}

/// Layers (first component of span names) whose self time is reported.
const TRACE_LAYERS: [&str; 11] = [
    "setup",
    "graph",
    "solver",
    "preprocess",
    "scratch",
    "engine",
    "p2p",
    "par",
    "request",
    "serve",
    "baselines",
];

/// Engine-layer metrics over a set of solves: their times and their
/// pooled counters.
pub(crate) fn engine_layer(layers: &mut Metrics, solve_ms: &[f64], ledger: &BatchStats) {
    let solves = ledger.executed_solves.max(1) as f64;
    let total_ns = solve_ms.iter().sum::<f64>() * 1e6;
    layers.set_n("engine.solve_ms_p50", median(solve_ms), "ms", solve_ms.len());
    layers.set("engine.steps", ledger.steps as f64 / solves, "count");
    layers.set("engine.substeps", ledger.substeps as f64 / solves, "count");
    layers.set("engine.max_substeps_in_step", ledger.max_substeps_in_step as f64, "count");
    layers.set("engine.relaxations", ledger.relaxations as f64 / solves, "count");
    layers.set("engine.settled", ledger.settled as f64 / solves, "count");
    layers.set(
        "engine.relaxations_per_settled",
        ratio(ledger.relaxations as f64, ledger.settled as f64),
        "ratio",
    );
    layers.set("engine.ns_per_relaxation", ratio(total_ns, ledger.relaxations as f64), "ns");
    layers.set("engine.us_per_substep", ratio(total_ns / 1e3, ledger.substeps as f64), "us");
}

/// Times one direct solve, books it in `ledger`, and records it as an
/// `engine.execute` span when `traced`.
pub(crate) fn timed_solve(
    ctx: &Ctx,
    scratch: &mut SolverScratch,
    query: &Query,
    traced: bool,
    ledger: &mut BatchStats,
) -> (QueryResponse, f64) {
    let start = Instant::now();
    let response = ctx.solver.execute(query, scratch);
    let end = Instant::now();
    if traced {
        let id = ctx.tracer.id();
        ctx.tracer.record(id, None, id, "engine.execute", start, end);
    }
    ledger.solves += 1;
    ledger.unique_solves += 1;
    ledger.absorb_unique(&response);
    ledger.absorb_delivered(&response);
    (response, (end - start).as_secs_f64() * 1e3)
}

/// `(traced − untraced) / untraced` of two medians.
pub(crate) fn overhead_frac(traced_ms: &[f64], untraced_ms: &[f64]) -> f64 {
    let base = median(untraced_ms);
    ratio(median(traced_ms) - base, base)
}

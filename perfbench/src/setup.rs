//! Graph generation and solver set-up: the `graph` and `preprocess`
//! layers, and `setup_s`.

use std::time::Instant;

use rs_baselines::solver::BuildSolver;
use rs_core::preprocess::preprocess_edges;
use rs_core::{
    Landmarks, PreprocessConfig, Preprocessed, SolverBuilder, SolverScratch, SsspSolver,
    DEFAULT_LANDMARKS,
};
use rs_graph::CsrGraph;

use crate::report::{median, Metrics};
use crate::trace::Tracer;
use crate::{Config, K, RHO};

/// The Penn road stand-in, weighted as in the paper's §5.1.
pub fn generate(cfg: &Config, tracer: &Tracer, setup_id: u64, layers: &mut Metrics) -> CsrGraph {
    let (g, secs) = tracer.time("graph.gen", Some(setup_id), 0, || {
        rs_bench::suite::build_graph("Penn", cfg.scale_denom).weighted()
    });
    layers.set("graph.gen_s", secs, "s");
    layers.set("graph.arcs", g.num_arcs() as f64, "count");
    g
}

/// A solver ready for its first query, with the warmed scratch the
/// direct (non-served) solves run on.
pub struct Ready<'g> {
    pub solver: Box<dyn SsspSolver + 'g>,
    pub scratch: SolverScratch,
    /// Median set-up time: build, first transpose, scratch warm-up.
    pub setup_s: f64,
}

/// One set-up: `SolverBuilder::build` with the workloads' preprocessing
/// and otherwise builder defaults, the first `transpose()` of the
/// augmented graph, and a scratch warm-up.
fn build<'g>(g: &'g CsrGraph, tracer: &Tracer, parent: u64, layers: &mut Metrics) -> Ready<'g> {
    let start = Instant::now();
    let (solver, _) = tracer.time("solver.build", Some(parent), 0, || {
        SolverBuilder::new(g).preprocess(PreprocessConfig::new(K, RHO)).build()
    });
    let (_, transpose_s) =
        tracer.time("graph.transpose", Some(parent), 0, || solver.graph().transpose().num_arcs());
    let mut scratch = SolverScratch::new();
    tracer.time("scratch.warm", Some(parent), 0, || solver.warm_scratch(&mut scratch));
    layers.set("graph.transpose_s", transpose_s, "s");
    Ready { solver, scratch, setup_s: start.elapsed().as_secs_f64() }
}

/// Set-ups timed per untraced run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Sets up the solver `repeats` times and keeps the last. A traced run
/// (one set-up) then also times the
/// preprocessing stages on their own (`Preprocessed::build`,
/// `preprocess_edges`, `Landmarks::build`) to attribute the set-up time.
pub fn ready<'g>(
    g: &'g CsrGraph,
    repeats: usize,
    tracer: &Tracer,
    layers: &mut Metrics,
    setup_id: u64,
    setup_start: Instant,
) -> Ready<'g> {
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats {
        drop(last.take());
        let r = build(g, tracer, setup_id, layers);
        times.push(r.setup_s);
        last = Some(r);
    }
    let mut ready = last.expect("at least one set-up");
    ready.setup_s = median(&times);
    if tracer.on() {
        let pc = PreprocessConfig::new(K, RHO);
        let (pre, build_s) =
            tracer.time("preprocess.build", Some(setup_id), 0, || Preprocessed::build(g, &pc));
        let (_, edges_s) =
            tracer.time("preprocess.edges", Some(setup_id), 0, || preprocess_edges(g, &pc));
        let (_, landmarks_s) = tracer.time("preprocess.landmarks", Some(setup_id), 0, || {
            Landmarks::build(&pre.graph, DEFAULT_LANDMARKS)
        });
        layers.set("preprocess.build_s", build_s, "s");
        layers.set("preprocess.edges_s", edges_s, "s");
        layers.set("preprocess.landmarks_s", landmarks_s, "s");
        layers.set("preprocess.added_edge_factor", pre.stats.added_edge_factor(), "ratio");
        layers.set("preprocess.explored_edges", pre.stats.explored_edges as f64, "count");
        layers.set("preprocess.augmented_arcs", pre.graph.num_arcs() as f64, "count");
        tracer.record(setup_id, None, 0, "setup", setup_start, Instant::now());
    }
    ready
}

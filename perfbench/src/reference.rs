//! The correctness gate: a plain `BinaryHeap` Dijkstra kept in the
//! benchmark itself, so the gate does not depend on any solver or heap
//! the workspace may later change or delete.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};

use rs_core::{Query, QueryResponse};
use rs_graph::{CsrGraph, Dist, VertexId, INF};

/// Exact distances from one source plus the order vertices settled in
/// (the "Dijkstra rank" used to pick goals at controlled distances).
#[derive(Debug, Clone)]
pub struct Tree {
    pub dist: Vec<Dist>,
    pub order: Vec<VertexId>,
}

/// Textbook Dijkstra with lazy deletion.
pub fn dijkstra(g: &CsrGraph, source: VertexId) -> Tree {
    let mut dist = vec![INF; g.num_vertices()];
    let mut order = Vec::with_capacity(g.num_vertices());
    let mut heap = BinaryHeap::new();
    dist[source as usize] = 0;
    heap.push(Reverse((0, source)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u as usize] {
            continue;
        }
        order.push(u);
        for (v, w) in g.edges(u) {
            let nd = d + w as Dist;
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                heap.push(Reverse((nd, v)));
            }
        }
    }
    Tree { dist, order }
}

/// Settle orders by source, computed once per source outside every
/// timed region and kept only while requests are generated.
#[derive(Debug, Default)]
pub struct References {
    orders: HashMap<VertexId, Vec<VertexId>>,
}

impl References {
    /// Computes `source`'s settle order if it is not known yet.
    pub fn compute(&mut self, g: &CsrGraph, source: VertexId) {
        self.orders.entry(source).or_insert_with(|| dijkstra(g, source).order);
    }

    /// The settle order of a source already computed.
    pub fn order(&self, source: VertexId) -> &[VertexId] {
        self.orders.get(&source).expect("reference computed before the timed phase")
    }
}

/// Exact answers for the queries a run offers: full rows where a reply
/// carries every distance, single cells elsewhere.
#[derive(Debug, Default)]
pub struct Expected {
    rows: HashMap<VertexId, Vec<Dist>>,
    cells: HashMap<(VertexId, VertexId), Dist>,
}

impl Expected {
    /// The answers to `queries`: the full distance array of each
    /// single-source query's source and the (source, goal) cells of the
    /// rest. One reference solve per source, each dropped once its cells
    /// are taken, so only what the gate needs stays in memory.
    pub fn for_queries<'q>(g: &CsrGraph, queries: impl IntoIterator<Item = &'q Query>) -> Self {
        let mut wanted: BTreeMap<VertexId, (bool, Vec<VertexId>)> = BTreeMap::new();
        for query in queries {
            for &source in query.sources() {
                let (full, goals) = wanted.entry(source).or_default();
                *full |= query.goals().is_empty();
                goals.extend_from_slice(query.goals());
            }
        }
        let mut expected = Expected::default();
        for (source, (full, goals)) in wanted {
            let dist = dijkstra(g, source).dist;
            for goal in goals {
                expected.cells.insert((source, goal), dist[goal as usize]);
            }
            if full {
                expected.rows.insert(source, dist);
            }
        }
        expected
    }

    fn row(&self, source: VertexId) -> &[Dist] {
        self.rows.get(&source).expect("reference row computed before the timed phase")
    }

    fn cell(&self, source: VertexId, goal: VertexId) -> Dist {
        self.cells.get(&(source, goal)).copied().unwrap_or_else(|| self.row(source)[goal as usize])
    }
}

/// Wrong cells in a response, checked against the references: every
/// distance of a single-source row, and every (source, goal) cell of the
/// goal-bounded shapes. Each row is checked against the source the
/// response itself names, so cache hits (which carry the canonical query)
/// are checked as they are delivered.
pub fn wrong_cells(expected: &Expected, response: &QueryResponse) -> u64 {
    let query = &response.query;
    let mut wrong = 0;
    if query.goals().is_empty() {
        return wrong_entries(expected.row(query.source()), response.dist());
    }
    for (row, &source) in query.sources().iter().enumerate() {
        for (&goal, got) in query.goals().iter().zip(response.goal_distances_in_row(row)) {
            let want = Some(expected.cell(source, goal)).filter(|&d| d != INF);
            wrong += (got != want) as u64;
        }
    }
    wrong
}

/// True when `response` answers `asked`: the same cells, up to the
/// canonical goal order the cache may deliver.
pub fn answers(asked: &Query, answered: &Query) -> bool {
    asked.canonical() == answered.canonical()
}

/// The most substeps any step of any row of `response` took (Theorem
/// 3.2 bounds it by k + 2).
pub fn max_substeps(response: &QueryResponse) -> usize {
    response.rows().iter().map(|r| r.stats.max_substeps_in_step).max().unwrap_or(0)
}

/// Wrong entries of a full distance array.
pub fn wrong_entries(expect: &[Dist], got: &[Dist]) -> u64 {
    got.iter().zip(expect).filter(|(a, b)| a != b).count() as u64
        + (got.len() != expect.len()) as u64
}

//! Traced-mode wrappers that time each hop from outside the program.
//!
//! [`TracedCursor`] wraps the mapped store's cursor and splits every hop
//! into *fetch* (from the call until the neighbor slice is handed over: LRU
//! lookup plus on-demand varint decode) and *score* (the argmax callback
//! over that slice). [`TracedKernel`] wraps an in-RAM kernel and times its
//! whole `best_neighbor` sweep, where fetch and score cannot be told apart.
//! Both count candidates exactly from the slice length or the degree.

use std::cell::{Cell, RefCell};
use std::time::{Duration, Instant};

use smallworld_core::ScoreKernel;
use smallworld_graph::{AdjacencyView, Graph, NodeId};
use smallworld_store::MappedCursor;

fn add(cell: &Cell<u64>, value: u64) {
    cell.set(cell.get() + value);
}

fn nanos(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// Per-hop and per-route tallies of the traced rounds.
#[derive(Default)]
pub struct HopTrace {
    routes: Cell<u64>,
    prepare_ns: Cell<u64>,
    route_ns: Cell<u64>,
    fetch_ns: Cell<u64>,
    score_ns: Cell<u64>,
    candidates: Cell<u64>,
    decoded_ids: Cell<u64>,
    /// Candidate count of every scan, for the p99.
    per_scan: RefCell<Vec<u32>>,
}

impl HopTrace {
    /// Records one routed pair: target prepare and the greedy loop.
    pub fn route(&self, prepare: Duration, route: Duration) {
        add(&self.routes, 1);
        add(&self.prepare_ns, nanos(prepare));
        add(&self.route_ns, nanos(route));
    }

    /// Records one argmax scan over `candidates` neighbors.
    fn scan(&self, candidates: usize, fetch: Duration, score: Duration) {
        add(&self.fetch_ns, nanos(fetch));
        add(&self.score_ns, nanos(score));
        add(&self.candidates, candidates as u64);
        self.per_scan.borrow_mut().push(candidates as u32);
    }

    pub fn routes(&self) -> u64 {
        self.routes.get()
    }

    pub fn prepare_ns(&self) -> f64 {
        self.prepare_ns.get() as f64
    }

    pub fn route_ns(&self) -> f64 {
        self.route_ns.get() as f64
    }

    pub fn fetch_ns(&self) -> f64 {
        self.fetch_ns.get() as f64
    }

    pub fn score_ns(&self) -> f64 {
        self.score_ns.get() as f64
    }

    pub fn candidates(&self) -> f64 {
        self.candidates.get() as f64
    }

    pub fn decoded_ids(&self) -> f64 {
        self.decoded_ids.get() as f64
    }

    /// Candidate counts of every scan, ascending.
    pub fn sorted_scans(&self) -> Vec<u32> {
        let mut scans = self.per_scan.borrow().clone();
        scans.sort_unstable();
        scans
    }
}

/// A [`MappedCursor`] whose every `with_neighbors` call is split into fetch
/// and score time.
pub struct TracedCursor<'c, 'a> {
    pub inner: &'c mut MappedCursor<'a>,
    pub trace: &'c HopTrace,
}

impl AdjacencyView for TracedCursor<'_, '_> {
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn with_neighbors<R>(&mut self, v: NodeId, f: impl FnOnce(&[NodeId]) -> R) -> R {
        let misses = self.inner.misses();
        let start = Instant::now();
        let mut handed = start;
        let mut len = 0;
        let result = self.inner.with_neighbors(v, |ns| {
            handed = Instant::now();
            len = ns.len();
            f(ns)
        });
        let done = Instant::now();
        self.trace.scan(len, handed - start, done - handed);
        if self.inner.misses() > misses {
            add(&self.trace.decoded_ids, len as u64);
        }
        result
    }
}

/// A prepared kernel whose `best_neighbor` sweeps are timed and counted.
pub struct TracedKernel<'t, K> {
    pub inner: &'t K,
    pub trace: &'t HopTrace,
}

impl<K: ScoreKernel> ScoreKernel for TracedKernel<'_, K> {
    fn target(&self) -> NodeId {
        self.inner.target()
    }

    fn score(&self, v: NodeId) -> f64 {
        self.inner.score(v)
    }

    fn score_block(&self, vs: &[NodeId], out: &mut [f64]) {
        self.inner.score_block(vs, out);
    }

    fn best_neighbor(&self, graph: &Graph, v: NodeId) -> Option<(f64, NodeId)> {
        let start = Instant::now();
        let best = self.inner.best_neighbor(graph, v);
        self.trace
            .scan(graph.degree(v), Duration::ZERO, start.elapsed());
        best
    }
}

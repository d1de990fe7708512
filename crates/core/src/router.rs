//! The routing-protocol abstraction shared by every router in this crate.
//!
//! The paper studies one *protocol family*: move the packet according to
//! local information and an objective function. Plain greedy (Algorithm 1),
//! one-hop lookahead, and the §5 patching protocols all fit one signature,
//! captured here as the [`Router`] trait. Harnesses that compare protocols
//! (the `exp_*` binaries, the contract tests) program against the trait and
//! never name a concrete router in their routing loops.
//!
//! The single required routing method is [`Router::route_prepared`], which
//! routes towards the target of an already-prepared [`ScoreKernel`],
//! reports per-hop events to a [`RouteObserver`] and draws its buffers
//! from a caller-owned [`RouteScratch`]. [`Router::route_with`] (prepares
//! the kernel from an [`Objective`]), [`Router::route`] (fresh scratch) and
//! [`Router::route_quiet`] (additionally plugs in [`NoopObserver`]) are
//! provided conveniences, so the uninstrumented protocol pays nothing for
//! the indirection and batch harnesses can prepare targets up front and
//! recycle allocations across trials.

use smallworld_graph::{Graph, NodeId};

use crate::greedy::{GreedyRouter, RouteRecord};
use crate::lookahead::LookaheadRouter;
use crate::objective::{Objective, ScoreKernel};
use crate::observe::{NoopObserver, RouteObserver};
use crate::patching::{GravityPressureRouter, HistoryRouter, PhiDfsRouter};

/// Reusable per-worker routing buffers.
///
/// Routers take the path `Vec` from here instead of allocating one per
/// route, and the lookahead router uses the epoch-stamped score cache so
/// each candidate vertex is scored once per hop instead of once per parent.
/// A batch harness keeps one `RouteScratch` per worker and, when it does
/// not need to keep the returned path, hands it back via
/// [`RouteScratch::recycle`] — steady-state routing then allocates nothing.
#[derive(Debug, Default)]
pub struct RouteScratch {
    path: Vec<NodeId>,
    scores: Vec<f64>,
    epochs: Vec<u64>,
    epoch: u64,
}

impl RouteScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        RouteScratch::default()
    }

    /// Scratch whose path buffer starts with the given capacity (e.g. the
    /// expected hop count of the workload).
    pub fn with_path_capacity(capacity: usize) -> Self {
        RouteScratch {
            path: Vec::with_capacity(capacity),
            ..RouteScratch::default()
        }
    }

    /// Takes the stored path buffer, cleared, for the route being started.
    pub(crate) fn take_path(&mut self) -> Vec<NodeId> {
        let mut path = std::mem::take(&mut self.path);
        path.clear();
        path
    }

    /// Returns a path buffer (typically from a consumed
    /// [`RouteRecord`]) so the next route reuses its
    /// allocation. Keeps whichever buffer has the larger capacity.
    pub fn recycle(&mut self, path: Vec<NodeId>) {
        if path.capacity() > self.path.capacity() {
            self.path = path;
        }
    }

    /// Starts a new score-cache epoch covering `node_count` vertices;
    /// previous cached scores become stale without clearing memory.
    pub(crate) fn begin_hop(&mut self, node_count: usize) {
        if self.scores.len() < node_count {
            self.scores.resize(node_count, 0.0);
            self.epochs.resize(node_count, 0);
        }
        self.epoch += 1;
    }

    /// The kernel score of `v`, computed at most once per epoch.
    #[inline]
    pub(crate) fn cached_score<K: ScoreKernel>(&mut self, kernel: &K, v: NodeId) -> f64 {
        let i = v.index();
        if self.epochs[i] == self.epoch {
            self.scores[i]
        } else {
            let score = kernel.score(v);
            self.epochs[i] = self.epoch;
            self.scores[i] = score;
            score
        }
    }
}

/// A routing protocol: plain greedy, lookahead, or a patching variant.
pub trait Router {
    /// A short identifier for tables and logs (e.g. `"phi-dfs"`).
    fn name(&self) -> &'static str;

    /// Routes a packet from `s` to `kernel.target()` with an
    /// already-prepared [`ScoreKernel`], reporting per-hop events to `obs`
    /// and drawing buffers from `scratch`.
    ///
    /// This is the single implementation point; [`Router::route_with`]
    /// prepares the kernel and delegates here, [`Router::route`] adds fresh
    /// scratch and [`Router::route_quiet`] additionally plugs in
    /// [`NoopObserver`], which monomorphizes the probes away. Scratch reuse
    /// must be invisible: for a fixed input, the returned record is
    /// identical whatever state `scratch` carries.
    ///
    /// # Panics
    ///
    /// Implementations panic if `s` or the kernel's target is out of range
    /// for `graph`.
    fn route_prepared<K: ScoreKernel, Obs: RouteObserver>(
        &self,
        graph: &Graph,
        kernel: &K,
        s: NodeId,
        obs: &mut Obs,
        scratch: &mut RouteScratch,
    ) -> RouteRecord;

    /// Routes a packet from `s` to `t`, reporting per-hop events to `obs`
    /// and drawing buffers from `scratch`: [`Router::route_prepared`] with
    /// `objective.prepare(t)`.
    ///
    /// # Panics
    ///
    /// Panics if `s` or `t` is out of range for `graph`.
    fn route_with<O: Objective, Obs: RouteObserver>(
        &self,
        graph: &Graph,
        objective: &O,
        s: NodeId,
        t: NodeId,
        obs: &mut Obs,
        scratch: &mut RouteScratch,
    ) -> RouteRecord {
        self.route_prepared(graph, &objective.prepare(t), s, obs, scratch)
    }

    /// Routes a packet from `s` to `t`, reporting per-hop events to `obs`.
    ///
    /// # Panics
    ///
    /// Implementations panic if `s` or `t` is out of range for `graph`.
    fn route<O: Objective, Obs: RouteObserver>(
        &self,
        graph: &Graph,
        objective: &O,
        s: NodeId,
        t: NodeId,
        obs: &mut Obs,
    ) -> RouteRecord {
        self.route_with(graph, objective, s, t, obs, &mut RouteScratch::new())
    }

    /// Routes a packet from `s` to `t` without instrumentation.
    ///
    /// # Panics
    ///
    /// Implementations panic if `s` or `t` is out of range for `graph`.
    fn route_quiet<O: Objective>(
        &self,
        graph: &Graph,
        objective: &O,
        s: NodeId,
        t: NodeId,
    ) -> RouteRecord {
        self.route(graph, objective, s, t, &mut NoopObserver)
    }
}

/// A heterogeneous router, for harnesses that compare several protocols.
#[derive(Clone, Copy, Debug)]
pub enum RouterKind {
    /// Plain greedy (Algorithm 1).
    Greedy(GreedyRouter),
    /// One-hop lookahead.
    Lookahead(LookaheadRouter),
    /// The paper's Algorithm 2.
    PhiDfs(PhiDfsRouter),
    /// Message-history backtracking.
    History(HistoryRouter),
    /// The gravity–pressure baseline.
    GravityPressure(GravityPressureRouter),
}

impl Router for RouterKind {
    fn name(&self) -> &'static str {
        match self {
            RouterKind::Greedy(r) => r.name(),
            RouterKind::Lookahead(r) => r.name(),
            RouterKind::PhiDfs(r) => r.name(),
            RouterKind::History(r) => r.name(),
            RouterKind::GravityPressure(r) => r.name(),
        }
    }

    fn route_prepared<K: ScoreKernel, Obs: RouteObserver>(
        &self,
        graph: &Graph,
        kernel: &K,
        s: NodeId,
        obs: &mut Obs,
        scratch: &mut RouteScratch,
    ) -> RouteRecord {
        match self {
            RouterKind::Greedy(r) => r.route_prepared(graph, kernel, s, obs, scratch),
            RouterKind::Lookahead(r) => r.route_prepared(graph, kernel, s, obs, scratch),
            RouterKind::PhiDfs(r) => r.route_prepared(graph, kernel, s, obs, scratch),
            RouterKind::History(r) => r.route_prepared(graph, kernel, s, obs, scratch),
            RouterKind::GravityPressure(r) => r.route_prepared(graph, kernel, s, obs, scratch),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patching::test_support::ID_DISTANCE;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_graph(rng: &mut StdRng, n: usize, p: f64) -> Graph {
        let mut edges = Vec::new();
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                if rng.gen::<f64>() < p {
                    edges.push((u, v));
                }
            }
        }
        Graph::from_edges(n, edges).expect("valid")
    }

    #[test]
    fn router_kind_dispatches_names() {
        assert_eq!(RouterKind::Greedy(GreedyRouter::new()).name(), "greedy");
        assert_eq!(
            RouterKind::Lookahead(LookaheadRouter::new()).name(),
            "lookahead"
        );
        assert_eq!(RouterKind::PhiDfs(PhiDfsRouter::new()).name(), "phi-dfs");
        assert_eq!(RouterKind::History(HistoryRouter::new()).name(), "history");
        assert_eq!(
            RouterKind::GravityPressure(GravityPressureRouter::new()).name(),
            "gravity-pressure"
        );
    }

    #[test]
    fn router_kind_routes_like_inner() {
        let mut rng = StdRng::seed_from_u64(5);
        let graph = random_graph(&mut rng, 14, 0.2);
        let inner = PhiDfsRouter::new();
        let kind = RouterKind::PhiDfs(inner);
        for s in 0..14u32 {
            for t in 0..14u32 {
                let (s, t) = (NodeId::new(s), NodeId::new(t));
                assert_eq!(
                    kind.route_quiet(&graph, &ID_DISTANCE, s, t),
                    inner.route_quiet(&graph, &ID_DISTANCE, s, t)
                );
            }
        }
    }

    /// A warm scratch (previous paths, stale score-cache epochs) must not
    /// change any record relative to fresh scratch, for every router.
    #[test]
    fn scratch_reuse_is_invisible() {
        let mut rng = StdRng::seed_from_u64(9);
        let graph = random_graph(&mut rng, 12, 0.25);
        for kind in [
            RouterKind::Greedy(GreedyRouter::new()),
            RouterKind::Lookahead(LookaheadRouter::new()),
            RouterKind::PhiDfs(PhiDfsRouter::new()),
            RouterKind::History(HistoryRouter::new()),
            RouterKind::GravityPressure(GravityPressureRouter::new()),
        ] {
            let mut scratch = RouteScratch::with_path_capacity(4);
            for s in 0..12u32 {
                for t in 0..12u32 {
                    let (s, t) = (NodeId::new(s), NodeId::new(t));
                    let fresh = kind.route_quiet(&graph, &ID_DISTANCE, s, t);
                    let reused = kind.route_with(
                        &graph,
                        &ID_DISTANCE,
                        s,
                        t,
                        &mut NoopObserver,
                        &mut scratch,
                    );
                    assert_eq!(fresh, reused, "{}: {s}->{t}", kind.name());
                    scratch.recycle(reused.path);
                }
            }
        }
    }

    #[test]
    fn route_quiet_matches_route_with_noop() {
        let mut rng = StdRng::seed_from_u64(7);
        let graph = random_graph(&mut rng, 12, 0.25);
        for kind in [
            RouterKind::Greedy(GreedyRouter::new()),
            RouterKind::Lookahead(LookaheadRouter::new()),
            RouterKind::PhiDfs(PhiDfsRouter::new()),
            RouterKind::History(HistoryRouter::new()),
            RouterKind::GravityPressure(GravityPressureRouter::new()),
        ] {
            for s in 0..12u32 {
                for t in 0..12u32 {
                    let (s, t) = (NodeId::new(s), NodeId::new(t));
                    let quiet = kind.route_quiet(&graph, &ID_DISTANCE, s, t);
                    let observed = kind.route(&graph, &ID_DISTANCE, s, t, &mut NoopObserver);
                    assert_eq!(quiet, observed, "{}: {s}->{t}", kind.name());
                }
            }
        }
    }
}

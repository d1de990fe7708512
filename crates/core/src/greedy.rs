//! Algorithm 1: the basic greedy routing protocol.
//!
//! From the current vertex the packet moves to the neighbor with the best
//! objective — but only if that strictly improves on the current vertex;
//! otherwise the packet is dropped (a *dead end*, the failure mode that the
//! patching protocols of [`crate::patching`] repair). Every vertex uses only
//! the addresses `(x_u, w_u)` of its direct neighbors plus the target
//! address carried by the message, exactly the locality the paper insists
//! on.

use smallworld_graph::{AdjacencyView, Graph, NodeId, RunFold, GROUP_RUNS, RUN_IDS};

use crate::objective::ScoreKernel;
use crate::observe::{NoopObserver, RouteObserver};
use crate::router::{RouteScratch, Router};

/// Default cap on routing steps; greedy paths are `Θ(log log n)` so this is
/// effectively unlimited while still preventing runaway loops with
/// ill-behaved custom objectives.
///
/// It is `smallworld-net`'s default TTL, so a packet that expires in the
/// traffic simulator is exactly a route that exceeds this cap.
pub const DEFAULT_MAX_STEPS: usize = smallworld_net::DEFAULT_TTL as usize;

/// How a routing attempt ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RouteOutcome {
    /// The packet reached the target.
    Delivered,
    /// The current vertex had no neighbor with a strictly better objective
    /// (a local optimum); the packet was dropped.
    DeadEnd,
    /// The step budget was exhausted.
    MaxStepsExceeded,
}

impl RouteOutcome {
    /// Whether the packet was delivered.
    pub fn is_success(self) -> bool {
        self == RouteOutcome::Delivered
    }
}

/// The result of one routing attempt.
#[derive(Clone, Debug, PartialEq)]
pub struct RouteRecord {
    /// How the attempt ended.
    pub outcome: RouteOutcome,
    /// Every vertex the packet visited, in order, starting at the source.
    /// For backtracking protocols a vertex may appear several times.
    pub path: Vec<NodeId>,
}

impl RouteRecord {
    /// Number of hops (edges traversed), i.e. `path.len() − 1`.
    pub fn hops(&self) -> usize {
        self.path.len().saturating_sub(1)
    }

    /// Whether the packet was delivered.
    pub fn is_success(&self) -> bool {
        self.outcome.is_success()
    }

    /// The source vertex.
    ///
    /// # Panics
    ///
    /// Panics if the path is empty (never produced by this crate's routers).
    pub fn source(&self) -> NodeId {
        *self.path.first().expect("route has a source")
    }

    /// The final vertex reached (the target iff delivered).
    ///
    /// # Panics
    ///
    /// Panics if the path is empty (never produced by this crate's routers).
    pub fn last(&self) -> NodeId {
        *self.path.last().expect("route has a last vertex")
    }
}

/// The plain greedy protocol (Algorithm 1) as a [`crate::router::Router`].
///
/// # Examples
///
/// ```
/// use smallworld_core::{FnObjective, GreedyRouter, RouteOutcome, Router};
/// use smallworld_graph::{Graph, NodeId};
///
/// // a path graph with scores increasing towards the target
/// let line = FnObjective(|v: NodeId, t: NodeId| {
///     if v == t { f64::INFINITY } else { v.index() as f64 }
/// });
/// let g = Graph::from_edges(4, [(0u32, 1u32), (1, 2), (2, 3)])?;
/// let r = GreedyRouter::new().route_quiet(&g, &line, NodeId::new(0), NodeId::new(3));
/// assert_eq!(r.outcome, RouteOutcome::Delivered);
/// assert_eq!(r.hops(), 3);
/// # Ok::<(), smallworld_graph::GraphError>(())
/// ```
#[derive(Clone, Copy, Debug)]
pub struct GreedyRouter {
    max_steps: usize,
}

impl GreedyRouter {
    /// Creates the router with the default step cap.
    pub fn new() -> Self {
        GreedyRouter {
            max_steps: DEFAULT_MAX_STEPS,
        }
    }

    /// Creates the router with an explicit step cap.
    pub fn with_max_steps(max_steps: usize) -> Self {
        GreedyRouter { max_steps }
    }
}

impl Default for GreedyRouter {
    fn default() -> Self {
        GreedyRouter::new()
    }
}

impl GreedyRouter {
    /// Algorithm 1, written once: from `s`, hop to the first-best neighbor
    /// while its score strictly beats the current vertex's, until the
    /// kernel's target is reached, the step cap is hit, or a local optimum
    /// drops the packet. It reads any [`AdjacencyView`]: a decoded
    /// [`Graph`] ([`Router::route_prepared`] is this over `&Graph`), a
    /// shard partition, or a cursor decoding neighbor lists on demand from a
    /// memory-mapped store, so no CSR is ever materialized.
    ///
    /// The per-hop argmax is [`ScoreKernel::best_above`] with the current
    /// score as floor: by default the blocked fold [`first_best_by_blocks`]
    /// over [`ScoreKernel::score_block`], which is bitwise the scalar
    /// first-best fold, and for bounded kernels a pruned scan with the same
    /// result whenever a hop is taken. Over any view of the same adjacency
    /// the record is the same.
    ///
    /// A kernel that [bounds runs](ScoreKernel::bounds_runs) folds each
    /// list through [`AdjacencyView::fold_runs`] instead, the target's run
    /// first, where φ peaks, then the others in ascending order. A run's
    /// bar is `max(floor, incumbent)` when the incumbent lies in an earlier
    /// run and `max(floor, incumbent.next_down())` when it lies in a later
    /// one; a run is wanted only if its
    /// [`run_bound`](ScoreKernel::run_bound) is not `≤ bar`, a wanted run's
    /// [`best_above`](ScoreKernel::best_above) against its bar replaces the
    /// incumbent only under strict `>`, and a view that fetches runs alone
    /// never reads the unwanted ones: the store cursor decodes only wanted
    /// runs, and over `&Graph` a list of at least
    /// [`DIRECTORY_MIN_IDS`](smallworld_graph::view::DIRECTORY_MIN_IDS) ids
    /// walks the graph's run directory (built by the first such hop, shared
    /// by every thread routing over the graph) instead of searching the list
    /// for its runs. After each run the incumbent is the
    /// first-best of the runs folded so far: a run's first-best replaces it
    /// exactly when it scores higher, or equal at a smaller id. So after
    /// the last run it is the whole list's first-best, in any run order,
    /// and the hop is the same.
    ///
    /// Above runs, the ascending pass asks each run group once, before its
    /// runs: the [`group_bound`](ScoreKernel::group_bound) of a group of
    /// [`GROUP_RUNS`] runs is tested against the bar of the group's first
    /// run, the lowest bar of any run in it, and a group found beaten is
    /// passed over, none of its runs asked. A run's bar only rises within a
    /// hop (the incumbent's score never falls, and it moves to an earlier
    /// run only at an equal score), so the verdict holds for every run of
    /// the group.
    ///
    /// Bounds exist only over spatially ordered ids (see
    /// [`PhiBounds`](crate::PhiBounds)): over a decoded GIRG in sampling
    /// order, a bounded objective builds none and every hop takes the
    /// unbounded blocked fold.
    ///
    /// [`first_best_by_blocks`]: smallworld_graph::view::first_best_by_blocks
    pub fn route_view<V, K, Obs>(
        &self,
        view: &mut V,
        kernel: &K,
        s: NodeId,
        obs: &mut Obs,
        scratch: &mut RouteScratch,
    ) -> RouteRecord
    where
        V: AdjacencyView,
        K: ScoreKernel,
        Obs: RouteObserver,
    {
        let t = kernel.target();
        obs.on_start(s, t);
        let mut path = scratch.take_path();
        path.push(s);
        let mut current = s;
        let mut current_score = kernel.score(s);
        let outcome = loop {
            if current == t {
                break RouteOutcome::Delivered;
            }
            if path.len() > self.max_steps {
                break RouteOutcome::MaxStepsExceeded;
            }
            match hop(view, kernel, current, current_score) {
                Some((score, u)) if score > current_score => {
                    obs.on_hop(u, score);
                    path.push(u);
                    current = u;
                    current_score = score;
                }
                _ => {
                    obs.on_dead_end(current);
                    break RouteOutcome::DeadEnd;
                }
            }
        };
        obs.on_finish(outcome, path.len() - 1);
        RouteRecord { outcome, path }
    }

    /// [`GreedyRouter::route_view`] with no observer and fresh scratch.
    pub fn route_view_quiet<V, K>(&self, view: &mut V, kernel: &K, s: NodeId) -> RouteRecord
    where
        V: AdjacencyView,
        K: ScoreKernel,
    {
        self.route_view(view, kernel, s, &mut NoopObserver, &mut RouteScratch::new())
    }
}

/// One hop of [`GreedyRouter::route_view`] out of `v`: the first-best
/// neighbor whenever its score beats `floor`, and anything not beating it
/// otherwise ([`ScoreKernel::best_above`]'s contract).
fn hop<V: AdjacencyView, K: ScoreKernel>(
    view: &mut V,
    kernel: &K,
    v: NodeId,
    floor: f64,
) -> Option<(f64, NodeId)> {
    if !kernel.bounds_runs() {
        return view.with_neighbors(v, |ns| kernel.best_above(ns, floor));
    }
    let mut fold = HopFold::new(kernel, floor);
    view.fold_runs(v, &mut fold);
    fold.best
}

/// One hop of [`GreedyRouter::route_view`] as a [`RunFold`]: the first-best
/// above `floor`, run by run, the target's run first.
struct HopFold<'k, K> {
    kernel: &'k K,
    floor: f64,
    best: Option<(f64, NodeId)>,
    /// The target's run, offered before any other.
    lead: usize,
}

impl<'k, K: ScoreKernel> HopFold<'k, K> {
    fn new(kernel: &'k K, floor: f64) -> Self {
        HopFold {
            kernel,
            floor,
            best: None,
            lead: kernel.target().index() / RUN_IDS,
        }
    }
}

impl<K> HopFold<'_, K> {
    /// What a score in run `run` must beat to change the hop: `max(floor,
    /// incumbent)` when the incumbent lies in an earlier run, and just
    /// below the incumbent when it lies in a later one (the lead), whose
    /// ids an equal score at a smaller id precedes.
    fn bar(&self, run: usize) -> f64 {
        self.best.map_or(self.floor, |(b, u)| {
            let b = if u.index() / RUN_IDS > run {
                b.next_down()
            } else {
                b
            };
            b.max(self.floor)
        })
    }
}

impl<K: ScoreKernel> RunFold for HopFold<'_, K> {
    /// The target's run: its bound box holds the target, so the bound is
    /// `+∞` and the run is always wanted, and φ peaks near the target.
    fn lead(&self) -> Option<usize> {
        Some(self.lead)
    }

    /// Tested against the bar of the group's first run, the lowest bar of
    /// any of its runs.
    fn wants_group(&mut self, group: usize) -> bool {
        // a NaN bound compares neither way and is never beaten
        let beaten = self.kernel.group_bound(group) <= self.bar(group * GROUP_RUNS);
        !beaten
    }

    fn wants(&mut self, run: usize) -> bool {
        let beaten = self.kernel.run_bound(run) <= self.bar(run);
        !beaten
    }

    fn fold(&mut self, ids: &[NodeId]) {
        let bar = self.bar(ids[0].index() / RUN_IDS);
        if let Some((score, u)) = self.kernel.best_above(ids, bar) {
            if score > bar {
                self.best = Some((score, u));
            }
        }
    }
}

impl Router for GreedyRouter {
    fn name(&self) -> &'static str {
        "greedy"
    }

    fn route_prepared<K: ScoreKernel, Obs: RouteObserver>(
        &self,
        graph: &Graph,
        kernel: &K,
        s: NodeId,
        obs: &mut Obs,
        scratch: &mut RouteScratch,
    ) -> RouteRecord {
        self.route_view(&mut &*graph, kernel, s, obs, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::{GirgObjective, Objective, BY_ID};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use crate::router::Router;
    use smallworld_geometry::Point;
    use smallworld_graph::Graph;
    use smallworld_models::girg::GirgBuilder;

    #[test]
    fn source_equals_target() {
        let g = Graph::from_edges(2, [(0u32, 1u32)]).unwrap();
        let r = GreedyRouter::new().route_quiet(&g, &BY_ID, NodeId::new(1), NodeId::new(1));
        assert_eq!(r.outcome, RouteOutcome::Delivered);
        assert_eq!(r.hops(), 0);
        assert_eq!(r.path, vec![NodeId::new(1)]);
        assert_eq!(r.source(), NodeId::new(1));
        assert_eq!(r.last(), NodeId::new(1));
    }

    #[test]
    fn direct_edge_to_target_is_taken() {
        // t maximizes the objective, so an adjacent source sends directly
        let g = Graph::from_edges(3, [(0u32, 2u32), (0, 1)]).unwrap();
        let r = GreedyRouter::new().route_quiet(&g, &BY_ID, NodeId::new(0), NodeId::new(2));
        assert_eq!(r.outcome, RouteOutcome::Delivered);
        assert_eq!(r.hops(), 1);
    }

    #[test]
    fn isolated_source_is_dead_end() {
        let g = Graph::from_edges(3, [(1u32, 2u32)]).unwrap();
        let r = GreedyRouter::new().route_quiet(&g, &BY_ID, NodeId::new(0), NodeId::new(2));
        assert_eq!(r.outcome, RouteOutcome::DeadEnd);
        assert_eq!(r.hops(), 0);
    }

    #[test]
    fn local_optimum_is_dead_end() {
        // star around 3 (high id), target 4 is not adjacent to 3 via better ids
        // 0-3, 3-1, 1-4: from 0 greedy goes to 3; 3's best neighbor is 1 < 3
        let g = Graph::from_edges(5, [(0u32, 3u32), (3, 1), (1, 4)]).unwrap();
        let r = GreedyRouter::new().route_quiet(&g, &BY_ID, NodeId::new(0), NodeId::new(4));
        assert_eq!(r.outcome, RouteOutcome::DeadEnd);
        assert_eq!(r.last(), NodeId::new(3));
    }

    #[test]
    fn max_steps_is_respected() {
        // long path, tight budget
        let g = Graph::from_edges(10, (0u32..9).map(|i| (i, i + 1))).unwrap();
        let r =
            GreedyRouter::with_max_steps(3).route_quiet(&g, &BY_ID, NodeId::new(0), NodeId::new(9));
        assert_eq!(r.outcome, RouteOutcome::MaxStepsExceeded);
        assert!(r.hops() <= 4);
    }

    #[test]
    fn path_is_strictly_improving() {
        let mut rng = StdRng::seed_from_u64(1);
        let girg = GirgBuilder::<2>::new(1_500).sample(&mut rng).unwrap();
        let obj = GirgObjective::new(&girg);
        for _ in 0..30 {
            let s = girg.random_vertex(&mut rng);
            let t = girg.random_vertex(&mut rng);
            let r = GreedyRouter::new().route_quiet(girg.graph(), &obj, s, t);
            for w in r.path.windows(2) {
                assert!(obj.score(w[1], t) > obj.score(w[0], t));
                assert!(girg.graph().has_edge(w[0], w[1]));
            }
        }
    }

    #[test]
    fn planted_adjacent_pair_delivers() {
        // plant s and t within the saturated-probability radius => the edge
        // {s, t} exists surely and greedy takes it directly
        let mut rng = StdRng::seed_from_u64(2);
        let girg = GirgBuilder::<2>::new(100)
            .plant(Point::new([0.3, 0.3]), 1.0)
            .plant(Point::new([0.3, 0.3001]), 1.0)
            .sample(&mut rng)
            .unwrap();
        let obj = GirgObjective::new(&girg);
        let r = GreedyRouter::new().route_quiet(girg.graph(), &obj, NodeId::new(0), NodeId::new(1));
        assert_eq!(r.outcome, RouteOutcome::Delivered);
        assert_eq!(r.hops(), 1);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        /// On arbitrary graphs and the id objective, greedy either delivers
        /// with a strictly increasing simple path or ends in a certified
        /// local optimum.
        #[test]
        fn prop_greedy_contract(
            edges in proptest::collection::vec((0u32..25, 0u32..25), 0..80),
            s in 0u32..25,
            t in 0u32..25,
        ) {
            let edges: Vec<(u32, u32)> = edges.into_iter().filter(|(u, v)| u != v).collect();
            let g = Graph::from_edges(25, edges).unwrap();
            let r = GreedyRouter::new().route_quiet(&g, &BY_ID, NodeId::new(s), NodeId::new(t));
            // simple & strictly improving
            let mut seen = std::collections::BTreeSet::new();
            for &v in &r.path {
                proptest::prop_assert!(seen.insert(v));
            }
            for w in r.path.windows(2) {
                proptest::prop_assert!(g.has_edge(w[0], w[1]));
                proptest::prop_assert!(BY_ID.score(w[1], NodeId::new(t)) > BY_ID.score(w[0], NodeId::new(t)));
            }
            match r.outcome {
                RouteOutcome::Delivered => proptest::prop_assert_eq!(r.last(), NodeId::new(t)),
                RouteOutcome::DeadEnd => {
                    // certificate: no neighbor of the last vertex beats it
                    let last = r.last();
                    let own = BY_ID.score(last, NodeId::new(t));
                    for &u in g.neighbors(last) {
                        proptest::prop_assert!(BY_ID.score(u, NodeId::new(t)) <= own);
                    }
                }
                RouteOutcome::MaxStepsExceeded => {
                    proptest::prop_assert!(false, "cannot exceed budget on 25 vertices");
                }
            }
        }
    }

    /// A kernel over a score table whose run and group bounds are set per
    /// test (each `≥` its members' scores), logging what the fold asks.
    struct LadderKernel {
        target: NodeId,
        scores: Vec<f64>,
        run_bounds: Vec<f64>,
        group_bounds: Vec<f64>,
        groups_asked: std::cell::RefCell<Vec<usize>>,
        runs_folded: std::cell::RefCell<Vec<usize>>,
    }

    impl LadderKernel {
        /// Scores `0.0` everywhere but at `scored`, tight run and group
        /// bounds, and `+∞` at the target.
        fn new(groups: usize, target: usize, scored: &[(usize, f64)]) -> Self {
            let mut scores = vec![0.0; groups * GROUP_RUNS * RUN_IDS];
            for &(v, score) in scored {
                scores[v] = score;
            }
            scores[target] = f64::INFINITY;
            let max_of = |ids: usize| -> Vec<f64> {
                scores
                    .chunks(ids)
                    .map(|c| c.iter().copied().fold(0.0, f64::max))
                    .collect()
            };
            LadderKernel {
                target: NodeId::new(target as u32),
                run_bounds: max_of(RUN_IDS),
                group_bounds: max_of(GROUP_RUNS * RUN_IDS),
                scores,
                groups_asked: Default::default(),
                runs_folded: Default::default(),
            }
        }

        /// One hop out of a vertex adjacent to `ns` (sorted), the way
        /// `route_view` folds it.
        fn hop(&self, ns: &[usize], floor: f64) -> Option<(f64, NodeId)> {
            let ns: Vec<NodeId> = ns.iter().map(|&v| NodeId::new(v as u32)).collect();
            let mut fold = HopFold::new(self, floor);
            smallworld_graph::view::fold_sorted_runs(&ns, &mut fold);
            fold.best
        }
    }

    impl ScoreKernel for LadderKernel {
        fn target(&self) -> NodeId {
            self.target
        }

        fn score(&self, v: NodeId) -> f64 {
            self.scores[v.index()]
        }

        fn best_above(&self, ns: &[NodeId], _floor: f64) -> Option<(f64, NodeId)> {
            self.runs_folded.borrow_mut().push(ns[0].index() / RUN_IDS);
            smallworld_graph::view::first_best_by_blocks(ns, |c, out| self.score_block(c, out))
        }

        fn bounds_runs(&self) -> bool {
            true
        }

        fn run_bound(&self, run: usize) -> f64 {
            self.run_bounds[run]
        }

        fn group_bound(&self, group: usize) -> f64 {
            self.groups_asked.borrow_mut().push(group);
            self.group_bounds[group]
        }
    }

    const GROUP_IDS: usize = GROUP_RUNS * RUN_IDS;

    #[test]
    fn group_verdict_is_recomputed_on_entering_each_group() {
        // the target's run (the lead) is the third run of group 1; the
        // list has two runs before it in that group and runs in groups 0
        // and 2, so the ascending pass enters group 0, then the lead's
        // group afresh, then group 2
        let lead = GROUP_IDS + 2 * RUN_IDS;
        let kernel = LadderKernel::new(3, lead + 9, &[(7, 5.0), (GROUP_IDS + 3, 2.0)]);
        let ns = [
            7,
            RUN_IDS + 1,
            GROUP_IDS + 3,
            GROUP_IDS + RUN_IDS,
            lead + 4,
            lead + RUN_IDS,
            2 * GROUP_IDS + 5,
            2 * GROUP_IDS + 3 * RUN_IDS,
        ];
        let best = kernel.hop(&ns, 1.0);
        assert_eq!(best, Some((5.0, NodeId::new(7))));
        assert_eq!(*kernel.groups_asked.borrow(), [0, 1, 2]);
        // the lead scores 0.0 at floor 1.0 and run 0 sets the incumbent 5.0;
        // group 1 holds the target, so it is not beaten, but each of its
        // runs is, and group 2 (bound 0.0) is beaten whole
        assert_eq!(*kernel.runs_folded.borrow(), [lead / RUN_IDS, 0]);
    }

    #[test]
    fn group_verdict_keeps_an_equal_score_at_a_smaller_id() {
        // equal twins: the later one in the lead run, the earlier one in
        // group 0, whose bound is exactly their score; the group is tested
        // against the float just below the incumbent, so it is not beaten
        let lead_twin = GROUP_IDS + 5;
        let kernel = LadderKernel::new(2, GROUP_IDS + 9, &[(100, 3.0), (lead_twin, 3.0)]);
        assert_eq!(kernel.group_bounds[0], 3.0);
        let best = kernel.hop(&[100, 200, lead_twin], 0.5);
        assert_eq!(best, Some((3.0, NodeId::new(100))));
    }

    #[test]
    fn group_verdict_holds_for_every_run_of_the_group() {
        // the incumbent is the target, in the lead run, which is not the
        // first run of its group; the ascending pass enters that group at a
        // later run. The group is tested against the bar of its first run
        // (just below the incumbent), not of the asked run (the incumbent
        // itself), so it is not beaten and the later run, whose NaN bound
        // never skips, is folded.
        let lead = GROUP_IDS + 3 * RUN_IDS;
        let mut kernel = LadderKernel::new(2, lead + 1, &[]);
        let later = lead + RUN_IDS;
        kernel.run_bounds[later / RUN_IDS] = f64::NAN;
        let best = kernel.hop(&[lead + 1, later], 1.0);
        assert_eq!(best, Some((f64::INFINITY, NodeId::new((lead + 1) as u32))));
        assert_eq!(*kernel.groups_asked.borrow(), [1]);
        assert_eq!(
            *kernel.runs_folded.borrow(),
            [lead / RUN_IDS, later / RUN_IDS]
        );
    }

    #[test]
    fn observed_route_matches_quiet_route() {
        use crate::observe::NoopObserver;
        let g = Graph::from_edges(4, [(0u32, 1u32), (1, 2), (2, 3)]).unwrap();
        let router = GreedyRouter::new();
        let a = router.route(
            &g,
            &BY_ID,
            NodeId::new(0),
            NodeId::new(3),
            &mut NoopObserver,
        );
        let b = router.route_quiet(&g, &BY_ID, NodeId::new(0), NodeId::new(3));
        assert_eq!(a, b);
        assert_eq!(router.name(), "greedy");
    }
}

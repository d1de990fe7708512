//! Algorithm 2 of the paper: distributed greedy Φ-DFS patching.
//!
//! The protocol augments greedy routing with a recursive depth-first search
//! over objective levels. Whenever the packet reaches a vertex `v` whose
//! objective beats everything seen so far, it starts a fresh greedy DFS
//! restricted to vertices of objective at least `Φ = φ(v)`; if that DFS is
//! exhausted without finding the target it is discarded and the paused
//! coarser DFS resumes. The paper shows this satisfies the patching
//! conditions (P1)–(P3) and — crucially for a distributed protocol — needs
//! only a **constant number of stored values per vertex and per message**:
//! each vertex keeps its current Φ-mark, a parent pointer, a
//! "started-new-DFS" flag and the previous Φ; the message keeps the current
//! Φ, the best objective seen, and the last visited vertex. The argument
//! that no vertex ever needs two Φ-marks at once is in §5; the
//! `state_is_constant_size` test exercises it.
//!
//! Our implementation is an iterative transcription of the paper's
//! pseudocode (functions `EXPLORE`, `BACKTRACK_TO`, `SET_NEW_PHI`,
//! `RESET_TO_OLD_PHI`, `INIT_VERTEX`), with two engineering additions: a
//! step budget, and explicit termination with failure when the component is
//! exhausted (the root backtracks with nothing left to do).

use std::collections::HashMap;

use smallworld_graph::{Graph, NodeId};

use crate::greedy::{RouteOutcome, RouteRecord, DEFAULT_MAX_STEPS};
use crate::objective::ScoreKernel;
use crate::observe::RouteObserver;
use crate::router::{RouteScratch, Router};

/// Per-vertex state of Algorithm 2 — a constant number of values, as the
/// paper requires for a distributed protocol.
#[derive(Clone, Copy, Debug)]
struct VertexState {
    /// `v.Phi`: the Φ of the DFS in which `v` was last visited (NaN =
    /// unvisited; NaN compares unequal to everything, matching "not visited
    /// in the current Φ-DFS").
    phi_mark: f64,
    /// `v.parent`: predecessor for backtracking.
    parent: NodeId,
    /// `v.started_new_dfs`: whether a finer DFS was started at `v`.
    started_new_dfs: bool,
    /// `v.previous_Phi`: the paused DFS's Φ, restored when the finer DFS
    /// fails.
    previous_phi: f64,
}

impl VertexState {
    fn fresh(parent: NodeId) -> Self {
        VertexState {
            phi_mark: f64::NAN,
            parent,
            started_new_dfs: false,
            previous_phi: f64::NEG_INFINITY,
        }
    }
}

/// The paper's Algorithm 2 as a [`Router`].
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use smallworld_core::{GirgObjective, PhiDfsRouter, Router};
/// use smallworld_graph::Components;
/// use smallworld_models::girg::GirgBuilder;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(11);
/// let girg = GirgBuilder::<2>::new(1_000).sample(&mut rng)?;
/// let comps = Components::compute(girg.graph());
/// let obj = GirgObjective::new(&girg);
/// let router = PhiDfsRouter::new();
/// let (s, t) = (girg.random_vertex(&mut rng), girg.random_vertex(&mut rng));
/// let record = router.route_quiet(girg.graph(), &obj, s, t);
/// // Theorem 3.4: delivery is guaranteed within a component
/// assert_eq!(record.is_success(), comps.same_component(s, t));
/// # Ok::<(), smallworld_models::ModelError>(())
/// ```
#[derive(Clone, Copy, Debug)]
pub struct PhiDfsRouter {
    max_steps: usize,
}

impl PhiDfsRouter {
    /// Creates the router with the default step cap.
    pub fn new() -> Self {
        PhiDfsRouter {
            max_steps: DEFAULT_MAX_STEPS,
        }
    }

    /// Creates the router with an explicit step cap.
    pub fn with_max_steps(max_steps: usize) -> Self {
        PhiDfsRouter { max_steps }
    }
}

impl Default for PhiDfsRouter {
    fn default() -> Self {
        PhiDfsRouter::new()
    }
}

/// The next pseudocode call to execute.
#[derive(Clone, Copy, Debug)]
enum Op {
    Explore(NodeId),
    BacktrackTo(NodeId),
}

impl Router for PhiDfsRouter {
    fn name(&self) -> &'static str {
        "phi-dfs"
    }

    fn route_prepared<K: ScoreKernel, Obs: RouteObserver>(
        &self,
        graph: &Graph,
        kernel: &K,
        s: NodeId,
        obs: &mut Obs,
        scratch: &mut RouteScratch,
    ) -> RouteRecord {
        let t = kernel.target();
        let phi = |v: NodeId| kernel.score(v);
        obs.on_start(s, t);
        // Total order on vertices by (objective, id). The paper's pseudocode
        // assumes "no vertex has two neighbors of equal objective"; breaking
        // ties by id restores that assumption for arbitrary objectives while
        // changing nothing when objectives are distinct.
        let key = |v: NodeId| (phi(v), v.raw());
        let key_lt = |a: (f64, u32), b: (f64, u32)| {
            a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)) == std::cmp::Ordering::Less
        };

        // lazily created per-vertex state (the protocol touches few vertices)
        let mut states: HashMap<NodeId, VertexState> = HashMap::new();

        // message state
        let mut best_seen = f64::NEG_INFINITY;
        let mut m_phi = f64::NEG_INFINITY;
        let mut last_visited = s;
        // the key of the vertex the next BACKTRACK_TO returns from; `None`
        // means "no child has been explored yet" (only after a root reset,
        // where the root's arrival from its parent is fictional)
        let mut backtrack_from: Option<(f64, u32)> = None;

        let mut path = scratch.take_path();
        path.push(s);
        let mut at = s; // physical location, for step accounting

        // ROUTING(s, m): the root is its own parent
        states.insert(s, VertexState::fresh(s));
        let mut op = Op::Explore(s);

        loop {
            if path.len() > self.max_steps {
                obs.on_finish(RouteOutcome::MaxStepsExceeded, path.len() - 1);
                return RouteRecord {
                    outcome: RouteOutcome::MaxStepsExceeded,
                    path,
                };
            }
            match op {
                Op::Explore(v) => {
                    if at != v {
                        at = v;
                        obs.on_hop(v, phi(v));
                        path.push(v);
                    }
                    if v == t {
                        obs.on_finish(RouteOutcome::Delivered, path.len() - 1);
                        return RouteRecord {
                            outcome: RouteOutcome::Delivered,
                            path,
                        };
                    }
                    let state = states.entry(v).or_insert_with(|| VertexState::fresh(last_visited));
                    if state.phi_mark == m_phi {
                        // already visited in the current Φ-DFS: bounce back
                        let back_to = last_visited;
                        last_visited = v;
                        backtrack_from = Some(key(v));
                        op = Op::BacktrackTo(back_to);
                        continue;
                    }
                    // SET_NEW_PHI: start a finer DFS if v beats everything
                    let phi_v = phi(v);
                    if phi_v > best_seen {
                        best_seen = phi_v;
                        let has_better = graph.neighbors(v).iter().any(|&u| phi(u) >= phi_v);
                        if has_better {
                            let state = states.get_mut(&v).expect("state just inserted");
                            state.started_new_dfs = true;
                            state.previous_phi = m_phi;
                            m_phi = phi_v;
                        }
                    }
                    // INIT_VERTEX
                    let state = states.get_mut(&v).expect("state just inserted");
                    state.phi_mark = m_phi;
                    state.parent = last_visited;
                    let parent = state.parent;
                    // move to the best neighbor if any qualifies for this DFS
                    let best = graph
                        .neighbors(v)
                        .iter()
                        .map(|&u| key(u))
                        .filter(|&(p, _)| p >= m_phi)
                        .max_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                    last_visited = v;
                    op = match best {
                        Some((_, u)) => Op::Explore(NodeId::new(u)),
                        None => {
                            backtrack_from = Some(key(v));
                            Op::BacktrackTo(parent)
                        }
                    };
                }
                Op::BacktrackTo(v) => {
                    if at != v {
                        at = v;
                        obs.on_backtrack(v);
                        path.push(v);
                    }
                    let (parent, started) = {
                        let state = states
                            .get(&v)
                            .expect("backtrack targets were visited before");
                        (state.parent, state.started_new_dfs)
                    };
                    // unexplored children of v in the current DFS: below the
                    // key of the child we just came back from (children with
                    // larger keys were explored earlier by DFS order)
                    let filter = backtrack_from;
                    let best_child = graph
                        .neighbors(v)
                        .iter()
                        .filter(|&&u| u != parent)
                        .map(|&u| key(u))
                        .filter(|&(p, _)| p >= m_phi)
                        .filter(|&k| filter.is_none_or(|f| key_lt(k, f)))
                        .max_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                    if let Some((_, u)) = best_child {
                        last_visited = v;
                        op = Op::Explore(NodeId::new(u));
                    } else if started {
                        // RESET_TO_OLD_PHI: the finer DFS starting at v
                        // failed. Restore the paused DFS's Φ and re-explore
                        // v *fresh* in it — "we treat all vertices visited
                        // during the φ(v′)-DFS as unvisited for the resumed
                        // φ(v)-DFS" (§5), and that includes v′ itself, or
                        // the sub-Φ′ territory reachable only through the
                        // Φ′-region would be lost. The paused DFS never
                        // entered v, so the fresh visit arrives from
                        // v.parent (the paper's line 26).
                        let state = states.get_mut(&v).expect("state exists");
                        state.started_new_dfs = false;
                        m_phi = state.previous_phi;
                        state.phi_mark = f64::NAN;
                        last_visited = state.parent;
                        op = Op::Explore(v);
                    } else if parent == v {
                        // the root has nothing left: component exhausted
                        obs.on_dead_end(v);
                        obs.on_finish(RouteOutcome::DeadEnd, path.len() - 1);
                        return RouteRecord {
                            outcome: RouteOutcome::DeadEnd,
                            path,
                        };
                    } else {
                        last_visited = v;
                        backtrack_from = Some(key(v));
                        op = Op::BacktrackTo(parent);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::GreedyRouter;
    use crate::objective::GirgObjective;
    use crate::patching::test_support::{check_delivery_iff_connected, ID_DISTANCE};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use smallworld_graph::{Components, Graph};
    use smallworld_models::girg::GirgBuilder;

    #[test]
    fn trivial_cases() {
        let g = Graph::from_edges(3, [(0u32, 1u32)]).unwrap();
        let router = PhiDfsRouter::new();
        // s == t
        let r = router.route_quiet(&g, &ID_DISTANCE, NodeId::new(1), NodeId::new(1));
        assert_eq!(r.outcome, RouteOutcome::Delivered);
        assert_eq!(r.hops(), 0);
        // isolated target
        let r = router.route_quiet(&g, &ID_DISTANCE, NodeId::new(0), NodeId::new(2));
        assert_eq!(r.outcome, RouteOutcome::DeadEnd);
        // isolated source
        let r = router.route_quiet(&g, &ID_DISTANCE, NodeId::new(2), NodeId::new(0));
        assert_eq!(r.outcome, RouteOutcome::DeadEnd);
    }

    #[test]
    fn escapes_a_local_optimum() {
        // 0 -- 5 -- 1 -- 2 -- 9, target 9 with ID_DISTANCE (score = -|v - 9|)
        // from 0, greedy goes to 5 (score -4); 5's other neighbor is 1
        // (score -8 < -4): plain greedy dies, Φ-DFS must deliver
        let g = Graph::from_edges(10, [(0u32, 5u32), (5, 1), (1, 2), (2, 9)]).unwrap();
        let greedy = GreedyRouter::new().route_quiet(&g, &ID_DISTANCE, NodeId::new(0), NodeId::new(9));
        assert_eq!(greedy.outcome, RouteOutcome::DeadEnd);
        let r = PhiDfsRouter::new().route_quiet(&g, &ID_DISTANCE, NodeId::new(0), NodeId::new(9));
        assert_eq!(r.outcome, RouteOutcome::Delivered);
        assert_eq!(r.last(), NodeId::new(9));
    }

    #[test]
    fn delivery_iff_connected_on_random_graphs() {
        // Theorem 3.4's guarantee on a battery of small random graphs
        let mut rng = StdRng::seed_from_u64(1);
        let router = PhiDfsRouter::new();
        for trial in 0..30 {
            let n = 12;
            let p = 0.15;
            let mut edges = Vec::new();
            for u in 0..n as u32 {
                for v in (u + 1)..n as u32 {
                    if rng.gen::<f64>() < p {
                        edges.push((u, v));
                    }
                }
            }
            let g = Graph::from_edges(n, edges).unwrap();
            check_delivery_iff_connected(&router, &g);
            let _ = trial;
        }
    }

    #[test]
    fn delivery_on_girg_within_giant() {
        let mut rng = StdRng::seed_from_u64(2);
        let girg = GirgBuilder::<2>::new(2_000).sample(&mut rng).unwrap();
        let comps = Components::compute(girg.graph());
        let obj = GirgObjective::new(&girg);
        let router = PhiDfsRouter::new();
        let mut delivered = 0;
        for _ in 0..60 {
            let s = girg.random_vertex(&mut rng);
            let t = girg.random_vertex(&mut rng);
            let r = router.route_quiet(girg.graph(), &obj, s, t);
            assert_eq!(r.is_success(), comps.same_component(s, t));
            if r.is_success() {
                delivered += 1;
                assert_eq!(r.last(), t);
            }
        }
        assert!(delivered > 20, "delivered only {delivered}/60");
    }

    #[test]
    fn patched_path_not_shorter_than_greedy_success() {
        // when plain greedy succeeds, Φ-DFS follows the same strictly
        // improving path (P1 forces the identical choices)
        let mut rng = StdRng::seed_from_u64(3);
        let girg = GirgBuilder::<2>::new(1_500).sample(&mut rng).unwrap();
        let obj = GirgObjective::new(&girg);
        let router = PhiDfsRouter::new();
        for _ in 0..40 {
            let s = girg.random_vertex(&mut rng);
            let t = girg.random_vertex(&mut rng);
            let g = GreedyRouter::new().route_quiet(girg.graph(), &obj, s, t);
            if g.is_success() {
                let p = router.route_quiet(girg.graph(), &obj, s, t);
                assert!(p.is_success());
                assert_eq!(p.path, g.path, "s={s} t={t}");
            }
        }
    }

    #[test]
    fn max_steps_respected() {
        let g = Graph::from_edges(6, [(0u32, 1u32), (1, 2), (2, 3), (3, 4), (4, 5)]).unwrap();
        let router = PhiDfsRouter::with_max_steps(2);
        let r = router.route_quiet(&g, &ID_DISTANCE, NodeId::new(0), NodeId::new(5));
        assert_eq!(r.outcome, RouteOutcome::MaxStepsExceeded);
    }

    #[test]
    fn path_is_a_walk_with_backtracking() {
        // a graph where backtracking is forced; every consecutive pair on
        // the reported path must still be an edge
        let g = Graph::from_edges(
            8,
            [(0u32, 6u32), (6, 1), (1, 2), (6, 3), (3, 4), (4, 7)],
        )
        .unwrap();
        let r = PhiDfsRouter::new().route_quiet(&g, &ID_DISTANCE, NodeId::new(0), NodeId::new(7));
        assert_eq!(r.outcome, RouteOutcome::Delivered);
        for w in r.path.windows(2) {
            assert!(g.has_edge(w[0], w[1]), "non-edge {} {}", w[0], w[1]);
        }
        // backtracking means some vertex repeats
        let unique: std::collections::BTreeSet<_> = r.path.iter().collect();
        assert!(unique.len() < r.path.len(), "expected backtracking");
    }

    /// §5 argues no vertex ever stores Φ-information for two values of Φ at
    /// once; our per-vertex state is a fixed-size struct, so the whole
    /// protocol memory is O(1) per vertex — this test pins the struct size.
    #[test]
    fn state_is_constant_size() {
        assert!(std::mem::size_of::<VertexState>() <= 32);
    }
}

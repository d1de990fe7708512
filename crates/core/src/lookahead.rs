//! Greedy routing with one-hop lookahead.
//!
//! Manku, Naor and Wieder ("Know thy neighbor's neighbor", cited by the
//! paper among the Kleinberg-model refinements) showed lookahead speeds up
//! greedy routing on homogeneous small worlds. The variant here scores each
//! neighbor `u` by the best objective reachable within one extra hop,
//! `max(φ(u), max_{w ∈ Γ(u)} φ(w))`, and still only moves one hop at a
//! time. On GIRGs the plain protocol is already near-optimal (Theorem 3.3:
//! stretch `1 + o(1)`), so the interesting measurement — run by
//! `exp_geometric` part B — is how much lookahead *fails to help*, and how
//! much it rescues the degree-agnostic distance objective.
//!
//! Lookahead needs two-hop information, so it is *less local* than the
//! paper's protocol: each node must know its neighbors' neighborhoods (or
//! query them, at messaging cost). The implementation is exact and
//! deterministic; ties break towards the neighbor's own objective, then the
//! lowest id.

use smallworld_graph::{Graph, NodeId};

use crate::greedy::{RouteOutcome, RouteRecord, DEFAULT_MAX_STEPS};
use crate::objective::ScoreKernel;
use crate::observe::RouteObserver;
use crate::router::{RouteScratch, Router};

/// Greedy routing that ranks neighbors by the best objective within one
/// extra hop.
///
/// # Examples
///
/// ```
/// use smallworld_core::{FnObjective, LookaheadRouter, Router};
/// use smallworld_graph::{Graph, NodeId};
///
/// // score = id; plain greedy from 0 dies at 5 (its only other neighbor
/// // is 1 < 5), but lookahead sees 9 behind 1 and routes through it
/// let by_id = FnObjective(|v: NodeId, t: NodeId| {
///     if v == t { f64::INFINITY } else { v.index() as f64 }
/// });
/// let g = Graph::from_edges(10, [(0u32, 5u32), (0, 1), (1, 9)])?;
/// let r = LookaheadRouter::new().route_quiet(&g, &by_id, NodeId::new(0), NodeId::new(9));
/// assert!(r.is_success());
/// assert_eq!(r.hops(), 2);
/// # Ok::<(), smallworld_graph::GraphError>(())
/// ```
#[derive(Clone, Copy, Debug)]
pub struct LookaheadRouter {
    max_steps: usize,
}

impl LookaheadRouter {
    /// Creates the router with the default step cap.
    pub fn new() -> Self {
        LookaheadRouter {
            max_steps: DEFAULT_MAX_STEPS,
        }
    }

    /// Creates the router with an explicit step cap.
    pub fn with_max_steps(max_steps: usize) -> Self {
        LookaheadRouter { max_steps }
    }
}

impl Default for LookaheadRouter {
    fn default() -> Self {
        LookaheadRouter::new()
    }
}

impl Router for LookaheadRouter {
    fn name(&self) -> &'static str {
        "lookahead"
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
        obs.on_start(s, t);
        let mut path = scratch.take_path();
        path.push(s);
        let mut current = s;
        loop {
            if current == t {
                obs.on_finish(RouteOutcome::Delivered, path.len() - 1);
                return RouteRecord {
                    outcome: RouteOutcome::Delivered,
                    path,
                };
            }
            if path.len() > self.max_steps {
                obs.on_finish(RouteOutcome::MaxStepsExceeded, path.len() - 1);
                return RouteRecord {
                    outcome: RouteOutcome::MaxStepsExceeded,
                    path,
                };
            }
            // The two-level scan revisits each second-hop vertex once per
            // first-hop parent; the per-hop score cache makes every vertex
            // scored at most once per hop (O(Σ deg) instead of O(deg²)),
            // returning the identical bits a fresh evaluation would.
            scratch.begin_hop(graph.node_count());
            let current_score = scratch.cached_score(kernel, current);
            // rank neighbors by (reachable-in-one-more-hop, own score, -id)
            let mut best: Option<(f64, f64, NodeId)> = None;
            for &u in graph.neighbors(current) {
                let own = scratch.cached_score(kernel, u);
                let reachable = graph
                    .neighbors(u)
                    .iter()
                    .map(|&w| scratch.cached_score(kernel, w))
                    .fold(own, f64::max);
                let candidate = (reachable, own, u);
                let better = match best {
                    None => true,
                    Some((r, o, id)) => {
                        reachable > r
                            || (reachable == r && own > o)
                            || (reachable == r && own == o && u < id)
                    }
                };
                if better {
                    best = Some(candidate);
                }
            }
            match best {
                // Move only if progress is possible: either the neighbor
                // itself improves, or something behind it does. The
                // reachable level is non-decreasing along the walk and
                // strictly increases within two hops (the witness vertex is
                // adjacent to wherever we move), so the walk terminates.
                Some((reachable, own, u)) if reachable > current_score => {
                    obs.on_hop(u, own);
                    path.push(u);
                    current = u;
                }
                _ => {
                    obs.on_dead_end(current);
                    obs.on_finish(RouteOutcome::DeadEnd, path.len() - 1);
                    return RouteRecord {
                        outcome: RouteOutcome::DeadEnd,
                        path,
                    };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::GreedyRouter;
    use crate::objective::{DistanceObjective, GirgObjective, BY_ID};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use smallworld_graph::Components;
    use smallworld_models::girg::GirgBuilder;

    #[test]
    fn trivial_cases() {
        let g = Graph::from_edges(3, [(0u32, 1u32)]).unwrap();
        let router = LookaheadRouter::new();
        let r = router.route_quiet(&g, &BY_ID, NodeId::new(1), NodeId::new(1));
        assert_eq!(r.outcome, RouteOutcome::Delivered);
        let r = router.route_quiet(&g, &BY_ID, NodeId::new(0), NodeId::new(2));
        assert_eq!(r.outcome, RouteOutcome::DeadEnd);
    }

    #[test]
    fn sees_over_one_valley() {
        // 0 - 3 - 1 - 9: plain greedy stops at 3 (next hop 1 is worse);
        // lookahead sees 9 behind 1
        let g = Graph::from_edges(10, [(0u32, 3u32), (3, 1), (1, 9)]).unwrap();
        let greedy = GreedyRouter::new().route_quiet(&g, &BY_ID, NodeId::new(0), NodeId::new(9));
        assert_eq!(greedy.outcome, RouteOutcome::DeadEnd);
        let r = LookaheadRouter::new().route_quiet(&g, &BY_ID, NodeId::new(0), NodeId::new(9));
        assert_eq!(r.outcome, RouteOutcome::Delivered);
        assert_eq!(r.hops(), 3);
    }

    #[test]
    fn cannot_see_over_two_valleys() {
        // 0 - 5 - 1 - 2 - 9: the target is two bad hops away from 5; one-hop
        // lookahead at 5 sees max(1, 2) < 5 and stops
        let g = Graph::from_edges(10, [(0u32, 5u32), (5, 1), (1, 2), (2, 9)]).unwrap();
        let r = LookaheadRouter::new().route_quiet(&g, &BY_ID, NodeId::new(0), NodeId::new(9));
        assert_eq!(r.outcome, RouteOutcome::DeadEnd);
    }

    #[test]
    fn never_loses_to_plain_greedy_on_girgs() {
        let mut rng = StdRng::seed_from_u64(1);
        let girg = GirgBuilder::<2>::new(5_000)
            .beta(2.5)
            .lambda(0.02)
            .sample(&mut rng)
            .unwrap();
        let comps = Components::compute(girg.graph());
        let obj = GirgObjective::new(&girg);
        let router = LookaheadRouter::new();
        let mut plain_ok = 0;
        let mut lookahead_ok = 0;
        let mut pairs = 0;
        for _ in 0..150 {
            let s = girg.random_vertex(&mut rng);
            let t = girg.random_vertex(&mut rng);
            if s == t || !comps.same_component(s, t) {
                continue;
            }
            pairs += 1;
            if GreedyRouter::new().route_quiet(girg.graph(), &obj, s, t).is_success() {
                plain_ok += 1;
            }
            if router.route_quiet(girg.graph(), &obj, s, t).is_success() {
                lookahead_ok += 1;
            }
        }
        assert!(pairs > 50);
        assert!(
            lookahead_ok >= plain_ok,
            "lookahead {lookahead_ok} < plain {plain_ok} of {pairs}"
        );
    }

    #[test]
    fn helps_distance_only_routing() {
        // the paper's §4 story: distance-only routing fails often; lookahead
        // recovers a chunk of those failures
        let mut rng = StdRng::seed_from_u64(2);
        let girg = GirgBuilder::<2>::new(8_000)
            .beta(2.5)
            .lambda(0.02)
            .sample(&mut rng)
            .unwrap();
        let comps = Components::compute(girg.graph());
        let obj = DistanceObjective::for_girg(&girg);
        let router = LookaheadRouter::new();
        let mut plain_ok = 0;
        let mut lookahead_ok = 0;
        let mut pairs = 0;
        for _ in 0..200 {
            let s = girg.random_vertex(&mut rng);
            let t = girg.random_vertex(&mut rng);
            if s == t || !comps.same_component(s, t) {
                continue;
            }
            pairs += 1;
            if GreedyRouter::new().route_quiet(girg.graph(), &obj, s, t).is_success() {
                plain_ok += 1;
            }
            if router.route_quiet(girg.graph(), &obj, s, t).is_success() {
                lookahead_ok += 1;
            }
        }
        assert!(pairs > 80);
        assert!(
            lookahead_ok > plain_ok,
            "lookahead {lookahead_ok} should beat distance-greedy {plain_ok}"
        );
    }

    #[test]
    fn paths_are_walks() {
        let mut rng = StdRng::seed_from_u64(3);
        let girg = GirgBuilder::<2>::new(2_000)
            .lambda(0.02)
            .sample(&mut rng)
            .unwrap();
        let obj = GirgObjective::new(&girg);
        let router = LookaheadRouter::new();
        for _ in 0..40 {
            let s = girg.random_vertex(&mut rng);
            let t = girg.random_vertex(&mut rng);
            let r = router.route_quiet(girg.graph(), &obj, s, t);
            for w in r.path.windows(2) {
                assert!(girg.graph().has_edge(w[0], w[1]));
            }
        }
    }

    #[test]
    fn respects_step_cap() {
        let g = Graph::from_edges(6, [(0u32, 1u32), (1, 2), (2, 3), (3, 4), (4, 5)]).unwrap();
        let r = LookaheadRouter::with_max_steps(2).route_quiet(&g, &BY_ID, NodeId::new(0), NodeId::new(5));
        assert_eq!(r.outcome, RouteOutcome::MaxStepsExceeded);
    }
}

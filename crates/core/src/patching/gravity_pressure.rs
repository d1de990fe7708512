//! The gravity–pressure routing heuristic — a (P3)-violating baseline.
//!
//! Following the description the paper gives in §5 of the algorithm from
//! Cvetkovski–Crovella and Papadopoulos et al.: the packet alternates
//! between two modes.
//!
//! * **Gravity**: plain greedy — move to the best neighbor as long as that
//!   improves the objective.
//! * **Pressure**: entered at a local optimum. The packet remembers the
//!   objective at which it got stuck, keeps a per-vertex visit counter, and
//!   repeatedly moves to the neighbor with the fewest visits (ties broken
//!   by objective). As soon as it reaches a vertex with a better objective
//!   than the one it got stuck at, it returns to gravity mode.
//!
//! Because the packet always moves to *some* neighbor, even one of much
//! worse objective, the protocol does not satisfy (P3): the paper explains
//! how this can make it explore large parts of the giant before returning
//! to the right branch, especially in sparse networks. The experiments of
//! `exp_patching` reproduce that step-count blow-up.

use std::collections::HashMap;

use smallworld_graph::{Graph, NodeId};

use crate::greedy::{RouteOutcome, RouteRecord, DEFAULT_MAX_STEPS};
use crate::objective::ScoreKernel;
use crate::observe::RouteObserver;
use crate::router::{RouteScratch, Router};

/// The gravity–pressure heuristic as a [`Router`].
#[derive(Clone, Copy, Debug)]
pub struct GravityPressureRouter {
    max_steps: usize,
}

impl GravityPressureRouter {
    /// Creates the router with the default step cap.
    pub fn new() -> Self {
        GravityPressureRouter {
            max_steps: DEFAULT_MAX_STEPS,
        }
    }

    /// Creates the router with an explicit step cap.
    pub fn with_max_steps(max_steps: usize) -> Self {
        GravityPressureRouter { max_steps }
    }
}

impl Default for GravityPressureRouter {
    fn default() -> Self {
        GravityPressureRouter::new()
    }
}

impl Router for GravityPressureRouter {
    fn name(&self) -> &'static str {
        "gravity-pressure"
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
        let mut path = scratch.take_path();
        path.push(s);
        let mut current = s;
        let mut visits: HashMap<NodeId, u32> = HashMap::new();
        // Some(threshold) while in pressure mode
        let mut pressure_threshold: Option<f64> = None;

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
            let neighbors = graph.neighbors(current);
            if neighbors.is_empty() {
                obs.on_dead_end(current);
                obs.on_finish(RouteOutcome::DeadEnd, path.len() - 1);
                return RouteRecord {
                    outcome: RouteOutcome::DeadEnd,
                    path,
                };
            }
            let current_phi = phi(current);

            match pressure_threshold {
                None => {
                    // gravity mode
                    let (best_phi, best) = neighbors
                        .iter()
                        .map(|&u| (phi(u), u))
                        .max_by(|a, b| a.0.total_cmp(&b.0))
                        .expect("non-empty neighborhood");
                    if best_phi > current_phi {
                        obs.on_hop(best, best_phi);
                        path.push(best);
                        current = best;
                    } else {
                        // stuck: enter pressure mode at this vertex
                        pressure_threshold = Some(current_phi);
                        *visits.entry(current).or_insert(0) += 1;
                    }
                }
                Some(threshold) => {
                    // pressure mode: fewest visits, ties by objective
                    let (_, next_phi, next) = neighbors
                        .iter()
                        .map(|&u| (visits.get(&u).copied().unwrap_or(0), phi(u), u))
                        .min_by(|a, b| a.0.cmp(&b.0).then_with(|| b.1.total_cmp(&a.1)))
                        .expect("non-empty neighborhood");
                    // pressure moves may revisit vertices: count them as
                    // backtracks unless they make greedy progress
                    if next_phi > current_phi {
                        obs.on_hop(next, next_phi);
                    } else {
                        obs.on_backtrack(next);
                    }
                    *visits.entry(next).or_insert(0) += 1;
                    path.push(next);
                    current = next;
                    if phi(current) > threshold {
                        pressure_threshold = None;
                        visits.clear();
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
    use crate::patching::test_support::ID_DISTANCE;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use smallworld_graph::{Components, Graph};
    use smallworld_models::girg::GirgBuilder;

    #[test]
    fn trivial_cases() {
        let g = Graph::from_edges(3, [(0u32, 1u32)]).unwrap();
        let router = GravityPressureRouter::new();
        let r = router.route_quiet(&g, &ID_DISTANCE, NodeId::new(2), NodeId::new(2));
        assert_eq!(r.outcome, RouteOutcome::Delivered);
        // isolated source: no neighbor to move to at all
        let r = router.route_quiet(&g, &ID_DISTANCE, NodeId::new(2), NodeId::new(0));
        assert_eq!(r.outcome, RouteOutcome::DeadEnd);
    }

    #[test]
    fn different_component_exceeds_budget() {
        // gravity-pressure never *learns* the component is wrong; it walks
        // until the budget runs out (exactly the (P3) violation)
        let g = Graph::from_edges(4, [(0u32, 1u32), (2, 3)]).unwrap();
        let router = GravityPressureRouter::with_max_steps(100);
        let r = router.route_quiet(&g, &ID_DISTANCE, NodeId::new(0), NodeId::new(3));
        assert_eq!(r.outcome, RouteOutcome::MaxStepsExceeded);
    }

    #[test]
    fn escapes_local_optimum() {
        let g = Graph::from_edges(10, [(0u32, 5u32), (5, 1), (1, 2), (2, 9)]).unwrap();
        let greedy = GreedyRouter::new().route_quiet(&g, &ID_DISTANCE, NodeId::new(0), NodeId::new(9));
        assert_eq!(greedy.outcome, RouteOutcome::DeadEnd);
        let r =
            GravityPressureRouter::new().route_quiet(&g, &ID_DISTANCE, NodeId::new(0), NodeId::new(9));
        assert_eq!(r.outcome, RouteOutcome::Delivered);
    }

    #[test]
    fn matches_greedy_when_greedy_succeeds() {
        let mut rng = StdRng::seed_from_u64(1);
        let girg = GirgBuilder::<2>::new(1_500).sample(&mut rng).unwrap();
        let obj = GirgObjective::new(&girg);
        let router = GravityPressureRouter::new();
        for _ in 0..30 {
            let s = girg.random_vertex(&mut rng);
            let t = girg.random_vertex(&mut rng);
            let g = GreedyRouter::new().route_quiet(girg.graph(), &obj, s, t);
            if g.is_success() {
                let r = router.route_quiet(girg.graph(), &obj, s, t);
                assert!(r.is_success());
                assert_eq!(r.path, g.path);
            }
        }
    }

    #[test]
    fn usually_delivers_within_giant_component() {
        let mut rng = StdRng::seed_from_u64(2);
        let girg = GirgBuilder::<2>::new(2_000).sample(&mut rng).unwrap();
        let comps = Components::compute(girg.graph());
        let obj = GirgObjective::new(&girg);
        let router = GravityPressureRouter::new();
        let mut attempts = 0;
        let mut delivered = 0;
        for _ in 0..60 {
            let s = girg.random_vertex(&mut rng);
            let t = girg.random_vertex(&mut rng);
            if !comps.same_component(s, t) {
                continue;
            }
            attempts += 1;
            if router.route_quiet(girg.graph(), &obj, s, t).is_success() {
                delivered += 1;
            }
        }
        // with a generous budget the heuristic should deliver essentially
        // always on a giant component
        assert!(attempts > 0);
        assert_eq!(delivered, attempts);
    }

    #[test]
    fn path_is_a_walk() {
        let g = Graph::from_edges(8, [(0u32, 6u32), (6, 1), (1, 2), (6, 3), (3, 4), (4, 7)])
            .unwrap();
        let r = GravityPressureRouter::new().route_quiet(&g, &ID_DISTANCE, NodeId::new(0), NodeId::new(7));
        assert_eq!(r.outcome, RouteOutcome::Delivered);
        for w in r.path.windows(2) {
            assert!(g.has_edge(w[0], w[1]));
        }
    }
}

//! Patching protocols: greedy routing that never gives up (§5, Theorem 3.4).
//!
//! Plain greedy routing drops the packet in a local optimum, which happens
//! with constant probability. The paper proves (Theorem 3.4) that *any*
//! protocol satisfying three local conditions — (P1) greedy choices, (P2)
//! poly-time exploration, (P3) poly-time exhaustive search — delivers with
//! probability 1 whenever source and target share a component, and still
//! needs only `(2+o(1))/|log(β−2)| · log log n` steps a.a.s.
//!
//! Implementations here:
//!
//! * [`PhiDfsRouter`] — the paper's own Algorithm 2, a distributed greedy
//!   Φ-DFS using a constant number of pointers per vertex and per message;
//!   satisfies (P1)–(P3).
//! * [`HistoryRouter`] — the other §5 example: the message carries the
//!   visited set plus, per visited vertex, its best unexplored edge (an
//!   SMTP-style header); satisfies (P1)–(P3).
//! * [`GravityPressureRouter`] — the gravity–pressure heuristic of
//!   Cvetkovski–Crovella / Papadopoulos et al., which the paper discusses as
//!   a protocol *violating* (P3); included as the baseline whose step count
//!   can blow up on sparse graphs.

mod gravity_pressure;
mod history;
mod phi_dfs;

pub use gravity_pressure::GravityPressureRouter;
pub use history::HistoryRouter;
pub use phi_dfs::PhiDfsRouter;

#[cfg(test)]
mod tests {
    use super::test_support::ID_DISTANCE;
    use super::*;
    use crate::objective::FnObjective;
    use crate::router::{Router, RouterKind};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use smallworld_graph::{Components, Graph, NodeId};

    /// An adversarial objective full of ties and non-monotone structure.
    const SCRAMBLED: FnObjective<fn(NodeId, NodeId) -> f64> = FnObjective(|v, t| {
        if v == t {
            f64::INFINITY
        } else {
            ((v.raw().wrapping_mul(2_654_435_761) ^ t.raw()) % 7) as f64
        }
    });

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

    /// The full Theorem 3.4 contract sweep: both (P1)-(P3) patchers deliver
    /// iff connected, across many random graphs and two pathological
    /// objectives. (A much larger external sweep — half a million routes —
    /// was run during development; this is the in-tree regression version.)
    #[test]
    fn patchers_deliver_iff_connected_under_adversarial_objectives() {
        let mut rng = StdRng::seed_from_u64(99);
        let routers: Vec<RouterKind> = vec![
            RouterKind::PhiDfs(PhiDfsRouter::new()),
            RouterKind::History(HistoryRouter::new()),
        ];
        for trial in 0..60 {
            let n = 5 + (trial % 16);
            let p = 0.05 + 0.25 * rng.gen::<f64>();
            let graph = random_graph(&mut rng, n, p);
            let comps = Components::compute(&graph);
            for s in 0..n as u32 {
                for t in 0..n as u32 {
                    let (s, t) = (NodeId::new(s), NodeId::new(t));
                    let should = comps.same_component(s, t);
                    for router in &routers {
                        for record in [
                            router.route_quiet(&graph, &ID_DISTANCE, s, t),
                            router.route_quiet(&graph, &SCRAMBLED, s, t),
                        ] {
                            assert_eq!(
                                record.is_success(),
                                should,
                                "{} broke the contract on {s}->{t} (trial {trial})",
                                router.name()
                            );
                            for w in record.path.windows(2) {
                                assert!(graph.has_edge(w[0], w[1]));
                            }
                            if record.is_success() {
                                assert_eq!(record.last(), t);
                            }
                        }
                    }
                }
            }
        }
    }

}

#[cfg(test)]
pub(crate) mod test_support {
    use crate::greedy::RouteOutcome;
    use crate::objective::FnObjective;
    use crate::router::Router;
    use smallworld_graph::{Graph, NodeId};
    use smallworld_graph::Components;

    /// Score = negated id distance to the target; any
    /// strictly-monotone-to-target objective works for these graph tests.
    pub const ID_DISTANCE: FnObjective<fn(NodeId, NodeId) -> f64> = FnObjective(|v, t| {
        if v == t {
            f64::INFINITY
        } else {
            -((v.raw() as f64) - (t.raw() as f64)).abs()
        }
    });

    /// Checks the Theorem 3.4 contract on an arbitrary graph: delivery
    /// succeeds iff `s` and `t` share a component.
    pub fn check_delivery_iff_connected<R: Router>(router: &R, graph: &Graph) {
        let comps = Components::compute(graph);
        let n = graph.node_count() as u32;
        for s in 0..n {
            for t in 0..n {
                let (s, t) = (NodeId::new(s), NodeId::new(t));
                let r = router.route_quiet(graph, &ID_DISTANCE, s, t);
                if comps.same_component(s, t) {
                    assert_eq!(
                        r.outcome,
                        RouteOutcome::Delivered,
                        "{}: {s}->{t} should deliver",
                        router.name()
                    );
                    assert_eq!(r.last(), t);
                    // the path must be a walk in the graph
                    for w in r.path.windows(2) {
                        assert!(
                            graph.has_edge(w[0], w[1]),
                            "{}: non-edge {} {} on path",
                            router.name(),
                            w[0],
                            w[1]
                        );
                    }
                } else {
                    assert_ne!(
                        r.outcome,
                        RouteOutcome::Delivered,
                        "{}: {s}->{t} crosses components",
                        router.name()
                    );
                }
            }
        }
    }
}

//! Message-history patching: the first §5 example.
//!
//! The message carries the list of visited vertices and, for each of them,
//! the objective of its best unexplored incident edge (one extra value per
//! visited node compared to an SMTP-style header). The protocol is then:
//! run plain greedy whenever possible; in a local optimum, physically walk
//! back along the visitation tree to the visited vertex owning the globally
//! best unexplored edge and continue from there. This satisfies the
//! patching conditions (P1)–(P3): choices are greedy, an unexplored vertex
//! is reached after at most a tree walk (polynomial in the explored set),
//! and the best-first order performs the exhaustive search of (P3).

use std::collections::{BinaryHeap, HashMap};

use smallworld_graph::{Graph, NodeId};

use crate::greedy::{RouteOutcome, RouteRecord, DEFAULT_MAX_STEPS};
use crate::objective::ScoreKernel;
use crate::observe::RouteObserver;
use crate::router::{RouteScratch, Router};

/// Max-heap entry ordered by objective score.
#[derive(PartialEq)]
struct Candidate {
    score: f64,
    /// Visited endpoint that owns the unexplored edge.
    owner: NodeId,
    /// Unexplored endpoint.
    node: NodeId,
}

impl Eq for Candidate {}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.score
            .total_cmp(&other.score)
            .then_with(|| self.node.cmp(&other.node))
    }
}

/// Message-history backtracking as a [`Router`].
///
/// Hop counting includes the physical walk back through the visitation tree
/// when the protocol leaves a local optimum — the message has to travel.
#[derive(Clone, Copy, Debug)]
pub struct HistoryRouter {
    max_steps: usize,
}

impl HistoryRouter {
    /// Creates the router with the default step cap.
    pub fn new() -> Self {
        HistoryRouter {
            max_steps: DEFAULT_MAX_STEPS,
        }
    }

    /// Creates the router with an explicit step cap.
    pub fn with_max_steps(max_steps: usize) -> Self {
        HistoryRouter { max_steps }
    }
}

impl Default for HistoryRouter {
    fn default() -> Self {
        HistoryRouter::new()
    }
}

/// Tree bookkeeping for walking between visited vertices.
struct Tree {
    parent: HashMap<NodeId, NodeId>,
    depth: HashMap<NodeId, u32>,
}

impl Tree {
    fn new(root: NodeId) -> Self {
        let mut parent = HashMap::new();
        let mut depth = HashMap::new();
        parent.insert(root, root);
        depth.insert(root, 0);
        Tree { parent, depth }
    }

    fn insert(&mut self, node: NodeId, parent: NodeId) {
        let d = self.depth[&parent] + 1;
        self.parent.insert(node, parent);
        self.depth.insert(node, d);
    }

    fn contains(&self, node: NodeId) -> bool {
        self.parent.contains_key(&node)
    }

    /// The tree path from `a` to `b` (inclusive of both, via their LCA).
    fn walk(&self, a: NodeId, b: NodeId) -> Vec<NodeId> {
        let (mut x, mut y) = (a, b);
        let mut up_a = vec![x];
        let mut up_b = vec![y];
        let (mut dx, mut dy) = (self.depth[&x], self.depth[&y]);
        while dx > dy {
            x = self.parent[&x];
            dx -= 1;
            up_a.push(x);
        }
        while dy > dx {
            y = self.parent[&y];
            dy -= 1;
            up_b.push(y);
        }
        while x != y {
            x = self.parent[&x];
            y = self.parent[&y];
            up_a.push(x);
            up_b.push(y);
        }
        // up_a ends at the LCA; up_b ends at the LCA too
        up_b.pop();
        up_a.extend(up_b.into_iter().rev());
        up_a
    }
}

impl Router for HistoryRouter {
    fn name(&self) -> &'static str {
        "history"
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
        let mut tree = Tree::new(s);
        let mut frontier: BinaryHeap<Candidate> = BinaryHeap::new();
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

            // register the current vertex's unexplored edges
            for &u in graph.neighbors(current) {
                if !tree.contains(u) {
                    frontier.push(Candidate {
                        score: phi(u),
                        owner: current,
                        node: u,
                    });
                }
            }

            // (P1) greedy choice: if the best unexplored neighbor of the
            // current vertex improves on it, move there directly
            let local_best = graph
                .neighbors(current)
                .iter()
                .filter(|&&u| !tree.contains(u))
                .map(|&u| (phi(u), u))
                .max_by(|a, b| a.0.total_cmp(&b.0));
            if let Some((score, u)) = local_best {
                if score > phi(current) {
                    obs.on_hop(u, score);
                    tree.insert(u, current);
                    path.push(u);
                    current = u;
                    continue;
                }
            }

            // local optimum: pull the globally best unexplored edge
            let candidate = loop {
                match frontier.pop() {
                    Some(c) if !tree.contains(c.node) => break Some(c),
                    Some(_) => continue, // became explored meanwhile
                    None => break None,
                }
            };
            let Some(c) = candidate else {
                // component exhausted
                obs.on_dead_end(current);
                obs.on_finish(RouteOutcome::DeadEnd, path.len() - 1);
                return RouteRecord {
                    outcome: RouteOutcome::DeadEnd,
                    path,
                };
            };
            // physically walk back to the owner, then step to the new vertex
            let walk = tree.walk(current, c.owner);
            for &v in walk.iter().skip(1) {
                obs.on_backtrack(v);
            }
            path.extend(walk.into_iter().skip(1));
            obs.on_hop(c.node, c.score);
            tree.insert(c.node, c.owner);
            path.push(c.node);
            current = c.node;
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
        let router = HistoryRouter::new();
        let r = router.route_quiet(&g, &ID_DISTANCE, NodeId::new(0), NodeId::new(0));
        assert_eq!(r.outcome, RouteOutcome::Delivered);
        let r = router.route_quiet(&g, &ID_DISTANCE, NodeId::new(0), NodeId::new(2));
        assert_eq!(r.outcome, RouteOutcome::DeadEnd);
    }

    #[test]
    fn follows_greedy_path_when_it_works() {
        let mut rng = StdRng::seed_from_u64(1);
        let girg = GirgBuilder::<2>::new(1_500).sample(&mut rng).unwrap();
        let obj = GirgObjective::new(&girg);
        let router = HistoryRouter::new();
        for _ in 0..40 {
            let s = girg.random_vertex(&mut rng);
            let t = girg.random_vertex(&mut rng);
            let g = GreedyRouter::new().route_quiet(girg.graph(), &obj, s, t);
            if g.is_success() {
                let h = router.route_quiet(girg.graph(), &obj, s, t);
                assert!(h.is_success());
                assert_eq!(h.path, g.path);
            }
        }
    }

    #[test]
    fn delivery_iff_connected_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(2);
        let router = HistoryRouter::new();
        for _ in 0..30 {
            let n = 12;
            let mut edges = Vec::new();
            for u in 0..n as u32 {
                for v in (u + 1)..n as u32 {
                    if rng.gen::<f64>() < 0.15 {
                        edges.push((u, v));
                    }
                }
            }
            let g = Graph::from_edges(n, edges).unwrap();
            check_delivery_iff_connected(&router, &g);
        }
    }

    #[test]
    fn walk_costs_are_counted() {
        // 0-1, 1-2 (dead end detour), 1-3, 3-9: with ID_DISTANCE towards 9,
        // greedy from 0 goes 1 -> 3 -> 9 directly; make 3 a trap instead:
        // 0-4, 4-2, 2-1, 4-5, 5-9 with target 9: from 0 -> 4 (score -5);
        // best neighbor of 4 is 5 (-4): 5's only other neighbor is 9: deliver.
        // Construct a forced backtrack: 0-6, 6-7, 0-2, 2-9; target 9.
        let g = Graph::from_edges(10, [(0u32, 6u32), (6, 7), (0, 2), (2, 9)]).unwrap();
        let r = HistoryRouter::new().route_quiet(&g, &ID_DISTANCE, NodeId::new(0), NodeId::new(9));
        assert_eq!(r.outcome, RouteOutcome::Delivered);
        // path must be a contiguous walk
        for w in r.path.windows(2) {
            assert!(g.has_edge(w[0], w[1]));
        }
        // greedy goes 0 -> 6 (-3) -> 7 (-2) -> dead end; must walk back
        // through 6 and 0 before reaching 2 and 9: at least 6 hops
        assert!(r.hops() >= 6, "hops {}", r.hops());
    }

    #[test]
    fn delivery_on_girg_within_giant() {
        let mut rng = StdRng::seed_from_u64(3);
        let girg = GirgBuilder::<2>::new(2_000).sample(&mut rng).unwrap();
        let comps = Components::compute(girg.graph());
        let obj = GirgObjective::new(&girg);
        let router = HistoryRouter::new();
        for _ in 0..60 {
            let s = girg.random_vertex(&mut rng);
            let t = girg.random_vertex(&mut rng);
            let r = router.route_quiet(girg.graph(), &obj, s, t);
            assert_eq!(r.is_success(), comps.same_component(s, t));
        }
    }

    #[test]
    fn tree_walk_endpoints() {
        let mut tree = Tree::new(NodeId::new(0));
        tree.insert(NodeId::new(1), NodeId::new(0));
        tree.insert(NodeId::new(2), NodeId::new(1));
        tree.insert(NodeId::new(3), NodeId::new(0));
        let walk = tree.walk(NodeId::new(2), NodeId::new(3));
        assert_eq!(
            walk,
            vec![NodeId::new(2), NodeId::new(1), NodeId::new(0), NodeId::new(3)]
        );
        // degenerate walk
        assert_eq!(tree.walk(NodeId::new(2), NodeId::new(2)), vec![NodeId::new(2)]);
    }
}

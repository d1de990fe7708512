//! An opt-in routing index for decoded GIRGs: the [`PhiBounds`] ladder
//! over the graph's own position and weight lanes.
//!
//! Greedy paths climb through hubs, so most of a route's time goes into
//! scanning a few long neighbor lists. [`RoutingIndex`] holds the φ upper
//! bounds over aligned id ranges that let a hop skip whole groups, runs,
//! tiles and blocks of such a list that cannot beat the current vertex —
//! the same ladder [`PackedGirgObjective`](crate::PackedGirgObjective)
//! builds over a store's lanes — so [`IndexedGirgObjective`] hands out the
//! bounded [`GirgHopKernel`] and every router over the decoded [`Graph`]
//! takes the pruned scan of
//! [`GreedyRouter::route_view`](crate::GreedyRouter::route_view). Routes
//! are bitwise those of [`GirgObjective`] (enforced by the
//! `kernel_equivalence` suite).
//!
//! The ladder takes about 20 B per 64 vertices, nothing per edge slot. It
//! only pays when consecutive ids are spatially close: over Morton-ordered
//! ids — what every `.swg` writer produces, and what
//! `Girg::morton_permutation` gives — it prunes; over ids in sampling order
//! the guard of [`PhiBounds::new`] builds no bounds, and routes take the
//! unbounded blocked scan.

use smallworld_geometry::Point;
use smallworld_graph::{Graph, NodeId};
use smallworld_models::girg::Girg;

use crate::objective::{GirgHopKernel, GirgObjective, Objective, PhiBounds};

/// The φ-bound routing index; see the [module docs](self).
///
/// Built once per graph with [`RoutingIndex::build`] (or
/// [`RoutingIndex::for_girg`]) and shared immutably by any number of
/// concurrent routing workers.
#[derive(Clone, Debug)]
pub struct RoutingIndex<const D: usize> {
    /// The bound ladder, or `None` when the guard declined to build it.
    bounds: Option<PhiBounds<D>>,
    node_count: usize,
    /// Directed edge slots of the graph, `2 · edges`.
    entry_count: usize,
}

impl<const D: usize> RoutingIndex<D> {
    /// Builds the [`PhiBounds`] ladder over `positions` and `weights` for
    /// routing over `graph`.
    ///
    /// # Panics
    ///
    /// Panics if `positions` or `weights` does not have exactly one entry
    /// per graph vertex.
    pub fn build(graph: &Graph, positions: &[Point<D>], weights: &[f64]) -> Self {
        let node_count = graph.node_count();
        assert_eq!(positions.len(), node_count, "one position per vertex");
        assert_eq!(weights.len(), node_count, "one weight per vertex");
        RoutingIndex {
            bounds: PhiBounds::new(Point::flatten(positions), weights),
            node_count,
            entry_count: graph.edge_count() * 2,
        }
    }

    /// Convenience: [`build`](RoutingIndex::build) from a GIRG.
    pub fn for_girg(girg: &Girg<D>) -> Self {
        RoutingIndex::build(girg.graph(), girg.positions(), girg.weights())
    }

    /// Number of vertices the index covers.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of directed edge slots of the graph the index serves.
    pub fn entry_count(&self) -> usize {
        self.entry_count
    }

    /// Heap memory held by the index, in bytes: the bound ladder, 0 when
    /// the guard built none.
    pub fn bytes(&self) -> usize {
        self.bounds.as_ref().map_or(0, PhiBounds::bytes)
    }

    /// The hop-scan bounds, or `None` when the guard declined to build them
    /// (ids not spatially ordered).
    pub fn bounds(&self) -> Option<&PhiBounds<D>> {
        self.bounds.as_ref()
    }
}

/// [`GirgObjective`] with the bounds of a [`RoutingIndex`].
///
/// Scores are bitwise the base objective's; its kernels are the base's
/// [`GirgHopKernel`] carrying the index's bounds, so hop scans skip what
/// cannot beat the current vertex.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use smallworld_core::index::{IndexedGirgObjective, RoutingIndex};
/// use smallworld_core::{GirgObjective, GreedyRouter, Router};
/// use smallworld_models::girg::GirgBuilder;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let girg = GirgBuilder::<2>::new(2_000).sample(&mut rng)?;
/// // the bounds prune only over spatially ordered ids
/// let girg = girg.relabel(&girg.morton_permutation());
/// let index = RoutingIndex::for_girg(&girg);
/// assert!(index.bounds().is_some());
/// let plain = GirgObjective::new(&girg);
/// let fast = IndexedGirgObjective::new(plain, &index);
/// let (s, t) = (girg.random_vertex(&mut rng), girg.random_vertex(&mut rng));
/// let router = GreedyRouter::new();
/// assert_eq!(
///     router.route_quiet(girg.graph(), &fast, s, t),
///     router.route_quiet(girg.graph(), &plain, s, t),
/// );
/// # Ok::<(), smallworld_models::ModelError>(())
/// ```
#[derive(Clone, Copy, Debug)]
pub struct IndexedGirgObjective<'a, const D: usize> {
    base: GirgObjective<'a, D>,
    index: &'a RoutingIndex<D>,
}

impl<'a, const D: usize> IndexedGirgObjective<'a, D> {
    /// Pairs a GIRG objective with an index built over the same graph.
    ///
    /// # Panics
    ///
    /// Panics if the index covers a different number of vertices than the
    /// objective.
    pub fn new(base: GirgObjective<'a, D>, index: &'a RoutingIndex<D>) -> Self {
        assert_eq!(
            base.node_count(),
            index.node_count(),
            "index and objective must cover the same graph"
        );
        IndexedGirgObjective { base, index }
    }
}

impl<const D: usize> Objective for IndexedGirgObjective<'_, D> {
    type Kernel<'k>
        = GirgHopKernel<'k, D>
    where
        Self: 'k;

    fn prepare(&self, target: NodeId) -> Self::Kernel<'_> {
        self.base.prepare(target).with_bounds(self.index.bounds())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::GreedyRouter;
    use crate::lookahead::LookaheadRouter;
    use crate::router::Router;
    use crate::ScoreKernel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use smallworld_models::girg::GirgBuilder;

    fn girg() -> Girg<2> {
        let mut rng = StdRng::seed_from_u64(11);
        GirgBuilder::<2>::new(2_000)
            .beta(2.5)
            .lambda(0.05)
            .sample(&mut rng)
            .unwrap()
    }

    /// The index covers the graph, bounds Morton-ordered ids, and holds
    /// nothing for ids in sampling order.
    #[test]
    fn index_shape_matches_graph() {
        let g = girg();
        let plain = RoutingIndex::for_girg(&g);
        assert_eq!(plain.node_count(), g.graph().node_count());
        assert_eq!(plain.entry_count(), g.graph().edge_count() * 2);
        assert!(plain.bounds().is_none());
        assert_eq!(plain.bytes(), 0);
        let sorted = g.relabel(&g.morton_permutation());
        let index = RoutingIndex::for_girg(&sorted);
        assert!(index.bounds().is_some());
        // a 20 B box per 64 ids, and the coarser levels above them
        assert!(index.bytes() >= g.node_count().div_ceil(64) * 20);
    }

    /// The bounded scan of every neighborhood is bitwise the scalar
    /// first-best fold, towards targets all over the id range.
    #[test]
    fn indexed_sweeps_match_default_scan_bitwise() {
        let g = girg();
        let g = g.relabel(&g.morton_permutation());
        let index = RoutingIndex::for_girg(&g);
        let girg_obj = GirgObjective::new(&g);
        let idx_girg = IndexedGirgObjective::new(girg_obj, &index);
        let n = g.graph().node_count() as u32;
        for t in [0, 7 % n, n / 2, n - 1] {
            let t = NodeId::new(t);
            let base_g = girg_obj.prepare(t);
            let fast_g = idx_girg.prepare(t);
            assert!(fast_g.bounds_runs());
            for v in g.graph().nodes() {
                let ns = g.graph().neighbors(v);
                assert_eq!(
                    fast_g
                        .best_above(ns, f64::NEG_INFINITY)
                        .map(|(s, u)| (s.to_bits(), u)),
                    base_g
                        .best_neighbor(g.graph(), v)
                        .map(|(s, u)| (s.to_bits(), u)),
                    "girg sweep diverges at v={v}, t={t}"
                );
            }
        }
    }

    #[test]
    fn indexed_routes_are_identical_records() {
        let g = girg();
        let g = g.relabel(&g.morton_permutation());
        let index = RoutingIndex::for_girg(&g);
        let plain = GirgObjective::new(&g);
        let fast = IndexedGirgObjective::new(plain, &index);
        assert!(fast.prepare(NodeId::new(0)).bounds_runs());
        let mut rng = StdRng::seed_from_u64(12);
        let greedy = GreedyRouter::new();
        let lookahead = LookaheadRouter::new();
        for _ in 0..60 {
            let s = g.random_vertex(&mut rng);
            let t = g.random_vertex(&mut rng);
            assert_eq!(
                greedy.route_quiet(g.graph(), &fast, s, t),
                greedy.route_quiet(g.graph(), &plain, s, t),
            );
            assert_eq!(
                lookahead.route_quiet(g.graph(), &fast, s, t),
                lookahead.route_quiet(g.graph(), &plain, s, t),
            );
        }
    }

    #[test]
    #[should_panic(expected = "same graph")]
    fn mismatched_index_is_rejected() {
        let g = girg();
        let mut rng = StdRng::seed_from_u64(13);
        let other = GirgBuilder::<2>::new(100).sample(&mut rng).unwrap();
        let index = RoutingIndex::for_girg(&other);
        let _ = IndexedGirgObjective::new(GirgObjective::new(&g), &index);
    }
}

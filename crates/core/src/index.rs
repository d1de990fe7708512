//! An opt-in structure-of-arrays routing index: the hot-path layout for
//! greedy hops.
//!
//! Greedy routing spends essentially all of its time in one loop: scan the
//! neighbors of the current vertex and score each against the target. With
//! the columnar layout ([`Graph`] adjacency + separate position/weight
//! arrays) every neighbor costs *two random gathers* — `positions[u]` and
//! `weights[u]` — whose addresses depend on the adjacency list, so the
//! prefetcher cannot help and most of the hop is spent waiting on cache
//! misses.
//!
//! [`RoutingIndex`] trades memory for locality *and* vectorizability: it is
//! built once per graph and stores, in CSR slot order, one contiguous f64
//! lane per position dimension, a weight lane, and a neighbor-id lane. The
//! per-hop scan then sweeps [`BLOCK_WIDTH`](crate::block)-slot blocks of
//! each lane with the straight-line kernels of [`crate::block`] —
//! sequential loads LLVM auto-vectorizes, plus software prefetch of the
//! next block. Cost: 28 bytes per *directed* edge slot for `D = 2`,
//! reported exactly by [`RoutingIndex::bytes`].
//!
//! The index plugs in through the same [`Objective`]/[`ScoreKernel`] pair as
//! everything else: [`IndexedGirgObjective`] wraps [`GirgObjective`] and
//! returns a kernel whose [`ScoreKernel::best_neighbor`] override sweeps the
//! packed lanes. Because each slot holds bit-copies of the same coordinates
//! and weights the base objective reads, the blocked kernels perform the
//! identical per-slot φ chain (see [`crate::block`]), and the argmax fold
//! preserves the first-best-in-adjacency-order tie-break, the override is
//! bitwise-faithful: routers produce byte-identical `RouteRecord`s with the
//! index on or off (enforced by the `kernel_equivalence` suite).

use std::ops::Range;

use smallworld_geometry::Point;
use smallworld_graph::{Graph, NodeId};
use smallworld_models::girg::Girg;

use crate::block;
use crate::objective::{GirgHopKernel, GirgObjective, Objective, ScoreKernel};

/// The structure-of-arrays routing index; see the [module docs](self).
///
/// Built once per graph with [`RoutingIndex::build`] (or
/// [`RoutingIndex::for_girg`]) and shared immutably by any number of
/// concurrent routing workers.
#[derive(Clone, Debug)]
pub struct RoutingIndex<const D: usize> {
    /// CSR offsets: slots of vertex `v` are `offsets[v]..offsets[v + 1]`.
    offsets: Vec<usize>,
    /// One lane per position dimension; `lanes[k][s]` is coordinate `k` of
    /// the neighbor in slot `s`.
    lanes: [Vec<f64>; D],
    /// Neighbor weights.
    weights: Vec<f64>,
    /// Neighbor ids, for reporting the argmax.
    nodes: Vec<NodeId>,
}

impl<const D: usize> RoutingIndex<D> {
    /// Packs `graph`'s adjacency into per-axis coordinate lanes, a weight
    /// lane, and an id lane.
    ///
    /// Slots for each vertex appear in the same order as
    /// [`Graph::neighbors`], which is what keeps the sweep's first-best
    /// argmax identical to the unindexed scan.
    ///
    /// # Panics
    ///
    /// Panics if `positions` or `weights` does not have exactly one entry
    /// per graph vertex.
    pub fn build(graph: &Graph, positions: &[Point<D>], weights: &[f64]) -> Self {
        let n = graph.node_count();
        assert_eq!(positions.len(), n, "one position per vertex");
        assert_eq!(weights.len(), n, "one weight per vertex");
        let slot_count = graph.edge_count() * 2;
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut lanes: [Vec<f64>; D] = std::array::from_fn(|_| Vec::with_capacity(slot_count));
        let mut weight_lane = Vec::with_capacity(slot_count);
        let mut nodes = Vec::with_capacity(slot_count);
        for v in graph.nodes() {
            for &u in graph.neighbors(v) {
                let coords = positions[u.index()].coords();
                for (k, lane) in lanes.iter_mut().enumerate() {
                    lane.push(coords[k]);
                }
                weight_lane.push(weights[u.index()]);
                nodes.push(u);
            }
            offsets.push(nodes.len());
        }
        RoutingIndex {
            offsets,
            lanes,
            weights: weight_lane,
            nodes,
        }
    }

    /// Convenience: [`build`](RoutingIndex::build) from a GIRG.
    pub fn for_girg(girg: &Girg<D>) -> Self {
        RoutingIndex::build(girg.graph(), girg.positions(), girg.weights())
    }

    /// Number of vertices the index covers.
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of packed directed edge slots.
    pub fn entry_count(&self) -> usize {
        self.nodes.len()
    }

    /// Heap memory held by the index, in bytes — the figure to quote when
    /// deciding whether the opt-in is worth it for a given graph.
    pub fn bytes(&self) -> usize {
        let slots = self.nodes.len();
        slots * (D + 1) * std::mem::size_of::<f64>()
            + slots * std::mem::size_of::<NodeId>()
            + self.offsets.len() * std::mem::size_of::<usize>()
    }

    /// The slot range of `v`'s packed neighborhood, in adjacency order.
    #[inline]
    fn slot_range(&self, v: NodeId) -> Range<usize> {
        self.offsets[v.index()]..self.offsets[v.index() + 1]
    }

    /// Per-axis views of the given slot range.
    #[inline]
    fn lane_views(&self, range: Range<usize>) -> [&[f64]; D] {
        std::array::from_fn(|k| &self.lanes[k][range.clone()])
    }

    /// The neighbor ids packed for `v`, in adjacency order.
    #[cfg(test)]
    fn nodes_of(&self, v: NodeId) -> &[NodeId] {
        &self.nodes[self.slot_range(v)]
    }
}

/// [`GirgObjective`] accelerated by a [`RoutingIndex`].
///
/// Scores are bitwise-identical to the base objective; only
/// [`ScoreKernel::best_neighbor`] changes, from a gather-per-neighbor scan
/// to a blocked sweep of the SoA lanes.
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
/// let girg = GirgBuilder::<2>::new(500).sample(&mut rng)?;
/// let index = RoutingIndex::for_girg(&girg);
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
        = IndexedGirgHopKernel<'k, D>
    where
        Self: 'k;

    fn prepare(&self, target: NodeId) -> Self::Kernel<'_> {
        IndexedGirgHopKernel {
            base: self.base.prepare(target),
            index: self.index,
        }
    }
}

/// Prepared kernel of [`IndexedGirgObjective`]: scores via the base
/// [`GirgHopKernel`], block-sweeps the SoA lanes for the argmax.
#[derive(Clone, Copy, Debug)]
pub struct IndexedGirgHopKernel<'k, const D: usize> {
    base: GirgHopKernel<'k, D>,
    index: &'k RoutingIndex<D>,
}

impl<const D: usize> ScoreKernel for IndexedGirgHopKernel<'_, D> {
    fn target(&self) -> NodeId {
        self.base.target()
    }

    #[inline]
    fn score(&self, v: NodeId) -> f64 {
        self.base.score(v)
    }

    #[inline]
    fn score_block(&self, vs: &[NodeId], out: &mut [f64]) {
        self.base.score_block(vs, out);
    }

    #[inline]
    fn best_neighbor(&self, graph: &Graph, v: NodeId) -> Option<(f64, NodeId)> {
        debug_assert_eq!(graph.node_count(), self.index.node_count());
        let range = self.index.slot_range(v);
        let lanes = self.index.lane_views(range.clone());
        let weights = &self.index.weights[range.clone()];
        let nodes = &self.index.nodes[range];
        // No target branch needed: the target's slot bit-copies its own
        // position, the torus distance of a point to itself is exactly 0,
        // and φ at distance 0 is +∞, matching ScoreKernel::score.
        block::girg_best_neighbor::<D>(
            &lanes,
            weights,
            nodes,
            &self.base.target_pos,
            self.base.norm,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::GreedyRouter;
    use crate::lookahead::LookaheadRouter;
    use crate::router::Router;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use smallworld_models::girg::GirgBuilder;

    fn girg() -> Girg<2> {
        let mut rng = StdRng::seed_from_u64(11);
        GirgBuilder::<2>::new(600)
            .beta(2.5)
            .lambda(0.05)
            .sample(&mut rng)
            .unwrap()
    }

    #[test]
    fn index_shape_matches_graph() {
        let g = girg();
        let index = RoutingIndex::for_girg(&g);
        assert_eq!(index.node_count(), g.graph().node_count());
        assert_eq!(index.entry_count(), g.graph().edge_count() * 2);
        // weighted D=2: two coordinate lanes + weight lane + id lane = 28 B/slot
        assert!(index.bytes() >= index.entry_count() * 28);
        for v in g.graph().nodes() {
            assert_eq!(index.nodes_of(v), g.graph().neighbors(v));
        }
    }

    #[test]
    fn indexed_sweeps_match_default_scan_bitwise() {
        let g = girg();
        let index = RoutingIndex::for_girg(&g);
        let girg_obj = GirgObjective::new(&g);
        let idx_girg = IndexedGirgObjective::new(girg_obj, &index);
        let n = g.graph().node_count() as u32;
        for t in [0, 7 % n, n / 2, n - 1] {
            let t = NodeId::new(t);
            let base_g = girg_obj.prepare(t);
            let fast_g = idx_girg.prepare(t);
            for v in g.graph().nodes() {
                assert_eq!(
                    fast_g.best_neighbor(g.graph(), v).map(|(s, u)| (s.to_bits(), u)),
                    base_g.best_neighbor(g.graph(), v).map(|(s, u)| (s.to_bits(), u)),
                    "girg sweep diverges at v={v}, t={t}"
                );
            }
        }
    }

    #[test]
    fn indexed_routes_are_identical_records() {
        let g = girg();
        let index = RoutingIndex::for_girg(&g);
        let plain = GirgObjective::new(&g);
        let fast = IndexedGirgObjective::new(plain, &index);
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

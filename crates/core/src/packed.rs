//! The store-path φ objective: [`GirgObjective`] over flat lanes plus the
//! [`PhiBounds`] that prune its hop scans.
//!
//! The on-disk store (`smallworld-store`) keeps vertex positions as one flat
//! little-endian `f64` array of length `n · d` and weights as a plain `f64`
//! array — the natural zero-copy view of a memory-mapped file — with ids in
//! Morton order. [`PackedGirgObjective::new`] borrows those sections through
//! [`GirgObjective::from_lanes`] and builds the ladder of φ upper bounds
//! over aligned id ranges in one O(n) pass (or none, when the ids are not spatially ordered), so
//! the kernels it hands out skip hub-neighbor runs that cannot beat the
//! current vertex. Scores and routes are bitwise those of [`GirgObjective`];
//! the bounds live in memory only, so the `.swg` format is unchanged.

use smallworld_graph::NodeId;

use crate::objective::{GirgHopKernel, GirgObjective, Objective, PhiBounds};

/// [`GirgObjective`] over a mapped `.swg` store's packed position and
/// weight sections — a flat `f64` position array (`n · d` entries,
/// vertex-major) and a weight array — with [`PhiBounds`] over its aligned
/// id ranges, so [`GreedyRouter::route_view`](crate::GreedyRouter::route_view)
/// prunes hub scans.
///
/// # Examples
///
/// ```
/// use smallworld_core::{Objective, PackedGirgObjective};
/// use smallworld_graph::NodeId;
///
/// // two vertices on the unit torus, packed vertex-major
/// let positions = [0.25, 0.25, 0.75, 0.75];
/// let weights = [1.0, 2.0];
/// let obj = PackedGirgObjective::<2>::new(&positions, &weights, 2.0);
/// assert!(obj.score(NodeId::new(1), NodeId::new(1)).is_infinite());
/// assert!(obj.score(NodeId::new(0), NodeId::new(1)) > 0.0);
/// // too few vertices for a full id block: no bounds, plain scans
/// assert!(obj.bounds().is_none());
/// ```
#[derive(Clone, Debug)]
pub struct PackedGirgObjective<'a, const D: usize> {
    objective: GirgObjective<'a, D>,
    bounds: Option<PhiBounds<D>>,
}

impl<'a, const D: usize> PackedGirgObjective<'a, D> {
    /// [`GirgObjective::from_lanes`] plus [`PhiBounds::new`] over the same
    /// lanes.
    ///
    /// # Panics
    ///
    /// Panics if `positions.len() != weights.len() * D` or the
    /// normalization is not positive.
    pub fn new(positions: &'a [f64], weights: &'a [f64], wmin_times_n: f64) -> Self {
        PackedGirgObjective {
            objective: GirgObjective::from_lanes(positions, weights, wmin_times_n),
            bounds: PhiBounds::new(positions, weights),
        }
    }

    /// The hop-scan bounds, or `None` when the guard declined to build them.
    pub fn bounds(&self) -> Option<&PhiBounds<D>> {
        self.bounds.as_ref()
    }
}

impl<const D: usize> Objective for PackedGirgObjective<'_, D> {
    type Kernel<'k>
        = GirgHopKernel<'k, D>
    where
        Self: 'k;

    fn prepare(&self, target: NodeId) -> Self::Kernel<'_> {
        self.objective
            .prepare(target)
            .with_bounds(self.bounds.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScoreKernel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use smallworld_geometry::Point;
    use smallworld_models::girg::{Girg, GirgBuilder};

    /// The packed lanes score bitwise like the scalar `Point` chain
    /// (`w / (w_min · n · distance_pow_d)`, `+∞` at distance 0), through
    /// `score`, the prepared kernel and `score_block`. Vertices planted at
    /// coordinate `0.0` and at the largest `f64` below `1.0` sit one ulp
    /// apart across the torus seam, as vertex and as target.
    fn check_against_point_chain<const D: usize>(seed: u64) {
        let below_one = 1.0f64.next_down();
        let mixed = std::array::from_fn(|k| if k == 0 { 0.0 } else { below_one });
        let mut rng = StdRng::seed_from_u64(seed);
        let girg: Girg<D> = GirgBuilder::new(300)
            .plant(Point::new([0.0; D]), 2.0)
            .plant(Point::new([below_one; D]), 3.0)
            .plant(Point::new(mixed), 1.5)
            .sample(&mut rng)
            .unwrap();
        assert_eq!(girg.positions()[1].coords(), &[below_one; D]);
        let flat: Vec<f64> = girg.positions().iter().flat_map(|p| *p.coords()).collect();
        let p = girg.params();
        let norm = p.wmin * p.intensity;
        let packed = PackedGirgObjective::<D>::new(&flat, girg.weights(), norm);
        let n = girg.node_count();
        let all: Vec<NodeId> = (0..n as u32).map(NodeId::new).collect();
        let mut block = vec![0.0; n];
        let targets = [0, 1, 2].into_iter().chain((3..n).step_by(17));
        for t in targets.map(|t| NodeId::new(t as u32)) {
            let kernel = packed.prepare(t);
            kernel.score_block(&all, &mut block);
            for &v in &all {
                let dist_pow_d = girg.position(v).distance_pow_d(&girg.position(t));
                let reference = if v == t || dist_pow_d == 0.0 {
                    f64::INFINITY
                } else {
                    girg.weight(v) / (norm * dist_pow_d)
                };
                for (path, got) in [
                    ("score", packed.score(v, t)),
                    ("kernel", kernel.score(v)),
                    ("block", block[v.index()]),
                ] {
                    assert_eq!(
                        got.to_bits(),
                        reference.to_bits(),
                        "D={D} {path} at v={v:?} t={t:?}: {got} vs {reference}"
                    );
                }
            }
        }
    }

    #[test]
    fn scores_match_point_based_objective_bitwise() {
        check_against_point_chain::<1>(3);
        check_against_point_chain::<2>(11);
        check_against_point_chain::<3>(5);
    }

    /// The guard decides from the data: bounds over Morton-sorted lanes,
    /// none over the same vertices in sampling (random) order, and none
    /// for lanes outside the soundness argument.
    #[test]
    fn guard_builds_no_bounds_for_shuffled_ids() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(8);
        let shuffled: Vec<Point<2>> = (0..5_000)
            .map(|_| Point::new([rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)]))
            .collect();
        let weights: Vec<f64> = (0..5_000).map(|_| rng.gen_range(1.0..10.0)).collect();
        let mut sorted = shuffled.clone();
        sorted.sort_by_key(smallworld_geometry::morton::point_code);
        let bounded = |points: &[Point<2>], weights: &[f64]| {
            PackedGirgObjective::<2>::new(Point::flatten(points), weights, 1.0)
                .bounds()
                .is_some()
        };
        assert!(bounded(&sorted, &weights));
        assert!(!bounded(&shuffled, &weights));

        let mut negative = weights.clone();
        negative[4_321] = -1.0;
        assert!(!bounded(&sorted, &negative));
        let mut nan = weights;
        nan[7] = f64::NAN;
        assert!(!bounded(&sorted, &nan));
    }

    #[test]
    #[should_panic(expected = "positions must hold D coordinates")]
    fn mismatched_lengths_panic() {
        let _ = PackedGirgObjective::<2>::new(&[0.0; 5], &[1.0; 2], 1.0);
    }
}

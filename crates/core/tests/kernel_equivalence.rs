//! Cross-cutting equivalence suite for the routing hot path.
//!
//! The prepared score kernels, the edge-packed [`RoutingIndex`], and
//! Morton-order relabeling are all *mechanism*, never policy: each must
//! produce `RouteRecord`s bitwise-identical to the naive per-candidate
//! [`Objective::score`] path. These properties hold by construction —
//! kernels hoist exactly the target-dependent factors, the index stores
//! bit-copies of positions and weights in `Graph::neighbors` order — and
//! this suite enforces them over randomized graphs, objectives, routers,
//! and source/target pairs.

use proptest::prelude::ProptestConfig;
use proptest::proptest;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smallworld_core::block::{girg_phi_block, BLOCK_WIDTH};
use smallworld_core::{
    DistanceObjective, GirgObjective, GravityPressureRouter, GreedyRouter, HistoryRouter,
    HyperbolicObjective, IndexedGirgObjective, KleinbergObjective, LookaheadRouter,
    NaiveObjective, Objective, PhiDfsRouter, Router, RouterKind, RoutingIndex,
};
use smallworld_geometry::Point;
use smallworld_graph::{Graph, NodeId};
use smallworld_models::girg::GirgBuilder;
use smallworld_models::{HrgBuilder, KleinbergLattice};

/// Random canonical (`[0, 1)`) points, their SoA lanes, and a target.
fn random_soa<const D: usize>(rng: &mut StdRng, count: usize) -> (Vec<Point<D>>, Vec<Vec<f64>>, Point<D>) {
    let points: Vec<Point<D>> = (0..count)
        .map(|_| Point::new(std::array::from_fn(|_| rng.gen_range(0.0..1.0))))
        .collect();
    let lanes: Vec<Vec<f64>> = (0..D)
        .map(|k| points.iter().map(|p| p.coords()[k]).collect())
        .collect();
    let target = Point::new(std::array::from_fn(|_| rng.gen_range(0.0..1.0)));
    (points, lanes, target)
}

/// Pins [`girg_phi_block`] bitwise to the scalar φ chain
/// (`w / (norm_const · dist^D)` with the zero-distance guard) for edge
/// weights `±0.0` and `+∞` and a zero-distance slot.
fn check_phi_blocks<const D: usize>(rng: &mut StdRng) {
    let count = BLOCK_WIDTH + rng.gen_range(1..BLOCK_WIDTH);
    let (mut points, mut lanes, target) = random_soa::<D>(rng, count);
    // force one slot onto the target: distance exactly 0, φ exactly +∞
    let zero_slot = rng.gen_range(0..count);
    points[zero_slot] = target;
    for (k, lane) in lanes.iter_mut().enumerate() {
        lane[zero_slot] = target.coords()[k];
    }
    let weights: Vec<f64> = (0..count)
        .map(|_| match rng.gen_range(0..5) {
            0 => 0.0,
            1 => -0.0,
            2 => f64::INFINITY,
            _ => rng.gen_range(0.5..50.0),
        })
        .collect();
    let norm_const = rng.gen_range(0.1..1e6);
    let views: [&[f64]; D] = std::array::from_fn(|k| lanes[k].as_slice());
    let mut out = [0.0; BLOCK_WIDTH];
    let mut base = 0;
    while base < count {
        let len = (count - base).min(BLOCK_WIDTH);
        girg_phi_block::<D>(&views, &weights, target.coords(), norm_const, base, &mut out[..len]);
        for (j, o) in out[..len].iter().enumerate() {
            let slot = base + j;
            let dist_pow_d = points[slot].distance_pow_d(&target);
            let scalar = if dist_pow_d == 0.0 {
                f64::INFINITY
            } else {
                weights[slot] / (norm_const * dist_pow_d)
            };
            assert_eq!(
                o.to_bits(),
                scalar.to_bits(),
                "φ D={D} slot {slot} w={}: {o} vs {scalar}",
                weights[slot]
            );
        }
        base += len;
    }
}

fn routers() -> [RouterKind; 5] {
    [
        RouterKind::Greedy(GreedyRouter::new()),
        RouterKind::Lookahead(LookaheadRouter::new()),
        RouterKind::PhiDfs(PhiDfsRouter::new()),
        RouterKind::History(HistoryRouter::new()),
        RouterKind::GravityPressure(GravityPressureRouter::new()),
    ]
}

fn random_pairs(n: u32, count: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
    assert!(n >= 2);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| loop {
            let s = rng.gen_range(0..n);
            let t = rng.gen_range(0..n);
            if s != t {
                break (NodeId::new(s), NodeId::new(t));
            }
        })
        .collect()
}

/// Routes the same random pairs under `fast` and `slow` with every router
/// and demands record-for-record equality (outcome *and* full path).
fn assert_identical_records<A, B>(graph: &Graph, fast: &A, slow: &B, pairs: usize, seed: u64)
where
    A: Objective,
    B: Objective,
{
    for router in routers() {
        for &(s, t) in &random_pairs(graph.node_count() as u32, pairs, seed) {
            let a = router.route_quiet(graph, fast, s, t);
            let b = router.route_quiet(graph, slow, s, t);
            assert_eq!(a, b, "router {} diverged on {s} -> {t}", router.name());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Specialized GIRG and distance kernels vs the naive score path on
    /// randomized GIRGs.
    #[test]
    fn prop_girg_kernels_match_naive(seed in 0u64..1 << 32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let girg = GirgBuilder::<2>::new(400).beta(2.5).sample(&mut rng).unwrap();
        if girg.node_count() >= 2 {
            assert_identical_records(
                girg.graph(),
                &GirgObjective::new(&girg),
                &NaiveObjective(GirgObjective::new(&girg)),
                6,
                seed ^ 0xA5A5,
            );
            assert_identical_records(
                girg.graph(),
                &DistanceObjective::for_girg(&girg),
                &NaiveObjective(DistanceObjective::for_girg(&girg)),
                6,
                seed ^ 0x5A5A,
            );
        }
    }

    /// Hyperbolic and Kleinberg kernels vs the naive score path.
    #[test]
    fn prop_hrg_and_kleinberg_kernels_match_naive(seed in 0u64..1 << 32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let hrg = HrgBuilder::new(200).sample(&mut rng).unwrap();
        assert_identical_records(
            hrg.graph(),
            &HyperbolicObjective::new(&hrg),
            &NaiveObjective(HyperbolicObjective::new(&hrg)),
            6,
            seed ^ 0xC3C3,
        );
        let kl = KleinbergLattice::sample(10, 2.0, 1, &mut rng).unwrap();
        assert_identical_records(
            kl.graph(),
            &KleinbergObjective::new(&kl),
            &NaiveObjective(KleinbergObjective::new(&kl)),
            6,
            seed ^ 0x3C3C,
        );
    }

    /// The edge-packed index is pure mechanism: indexed sweeps route
    /// identically to the default gather scan.
    #[test]
    fn prop_indexed_routes_match_unindexed(seed in 0u64..1 << 32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let girg = GirgBuilder::<2>::new(400).beta(2.5).sample(&mut rng).unwrap();
        if girg.node_count() >= 2 {
            let index = RoutingIndex::for_girg(&girg);
            assert_identical_records(
                girg.graph(),
                &IndexedGirgObjective::new(GirgObjective::new(&girg), &index),
                &GirgObjective::new(&girg),
                6,
                seed ^ 0x1111,
            );
        }
    }

    /// The blocked φ kernel is bitwise the scalar φ chain even for ±0.0
    /// and infinite edge weights and a zero-distance (target) slot.
    #[test]
    fn prop_phi_block_matches_scalar_with_edge_weights(seed in 0u64..1 << 32) {
        let mut rng = StdRng::seed_from_u64(seed);
        check_phi_blocks::<1>(&mut rng);
        check_phi_blocks::<2>(&mut rng);
        check_phi_blocks::<3>(&mut rng);
    }

    /// Morton relabeling is invisible through the permutation: routing the
    /// relabeled graph between forward-mapped endpoints and mapping the
    /// path back yields the original-id route exactly. (Argmax routers on
    /// a sampled GIRG — continuous positions make score ties measure-zero,
    /// so neighbor-order changes cannot redirect the packet.)
    #[test]
    fn prop_morton_relabeled_paths_map_back(seed in 0u64..1 << 32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let girg = GirgBuilder::<2>::new(400).beta(2.5).sample(&mut rng).unwrap();
        if girg.node_count() >= 2 {
            let perm = girg.morton_permutation();
            let relabeled = girg.relabel(&perm);
            let obj = GirgObjective::new(&girg);
            let obj_re = GirgObjective::new(&relabeled);
            let argmax_routers = [
                RouterKind::Greedy(GreedyRouter::new()),
                RouterKind::Lookahead(LookaheadRouter::new()),
            ];
            for router in argmax_routers {
                for &(s, t) in &random_pairs(girg.node_count() as u32, 6, seed ^ 0x4444) {
                    let original = router.route_quiet(girg.graph(), &obj, s, t);
                    let mapped = router.route_quiet(
                        relabeled.graph(),
                        &obj_re,
                        perm.forward(s),
                        perm.forward(t),
                    );
                    assert_eq!(original.outcome, mapped.outcome);
                    assert_eq!(original.path, perm.path_to_original(&mapped.path));
                }
            }
        }
    }
}

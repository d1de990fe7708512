//! Cross-cutting equivalence suite for the routing hot path.
//!
//! Prepared kernels reused across a route, their blocked scores and
//! pruned argmaxes, the φ-bound [`RoutingIndex`], and Morton-order
//! relabeling are all *mechanism*, never policy: each must produce
//! `RouteRecord`s bitwise-identical to the naive per-candidate
//! [`Objective::score`] path ([`NaiveObjective`]: the kernel re-prepared
//! for every score). These properties hold by construction — each
//! objective's score formula lives once, in its kernel, and a bound is
//! `≥` every score it covers — and this suite enforces them over
//! randomized graphs, objectives, routers, and source/target pairs.

use proptest::prelude::ProptestConfig;
use proptest::proptest;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smallworld_core::{
    DistanceObjective, GirgObjective, GravityPressureRouter, GreedyRouter, HistoryRouter,
    HyperbolicObjective, IndexedGirgObjective, KleinbergObjective, LookaheadRouter, NaiveObjective,
    Objective, PackedGirgObjective, PhiBounds, PhiDfsRouter, Router, RouterKind, RoutingIndex,
    ScoreKernel,
};
use smallworld_geometry::Point;
use smallworld_graph::view::first_best_by_blocks;
use smallworld_graph::{Graph, NodeId};
use smallworld_models::girg::GirgBuilder;
use smallworld_models::{HrgBuilder, KleinbergLattice};

fn routers() -> [RouterKind; 5] {
    routers_with_gravity(GravityPressureRouter::new())
}

/// The five routers, with `gravity` as the gravity-pressure one.
fn routers_with_gravity(gravity: GravityPressureRouter) -> [RouterKind; 5] {
    [
        RouterKind::Greedy(GreedyRouter::new()),
        RouterKind::Lookahead(LookaheadRouter::new()),
        RouterKind::PhiDfs(PhiDfsRouter::new()),
        RouterKind::History(HistoryRouter::new()),
        RouterKind::GravityPressure(gravity),
    ]
}

/// Step cap of the gravity-pressure walks on the 200-vertex HRGs. Those
/// graphs have many components, and a walk towards a target in another
/// component only ends at its cap: at the default of 10⁶ steps one such
/// pair took up to a second per objective. 50 steps per vertex still
/// lets the walks revisit every vertex many times, and the capped walks
/// are compared step for step like every other route.
const HRG_GRAVITY_STEPS: usize = 10_000;

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
    assert_identical_records_under(&routers(), graph, fast, slow, pairs, seed);
}

/// [`assert_identical_records`] under the given routers.
fn assert_identical_records_under<A, B>(
    routers: &[RouterKind],
    graph: &Graph,
    fast: &A,
    slow: &B,
    pairs: usize,
    seed: u64,
) where
    A: Objective,
    B: Objective,
{
    for router in routers {
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
        assert_identical_records_under(
            &routers_with_gravity(GravityPressureRouter::with_max_steps(HRG_GRAVITY_STEPS)),
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

    /// The routing index is pure mechanism: over Morton ids, where it
    /// holds bounds, its pruned scans route identically to the plain
    /// objective under every router; over ids in sampling order it holds
    /// none.
    #[test]
    fn prop_indexed_routes_match_unindexed(seed in 0u64..1 << 32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let girg = GirgBuilder::<2>::new(2_000).beta(2.5).sample(&mut rng).unwrap();
        if girg.node_count() >= 2 {
            assert!(RoutingIndex::for_girg(&girg).bounds().is_none());
            let girg = girg.relabel(&girg.morton_permutation());
            let index = RoutingIndex::for_girg(&girg);
            assert!(index.bounds().is_some(), "Morton ids build bounds");
            assert_identical_records(
                girg.graph(),
                &IndexedGirgObjective::new(GirgObjective::new(&girg), &index),
                &GirgObjective::new(&girg),
                6,
                seed ^ 0x1111,
            );
        }
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

/// Vertices in the synthetic bounded-scan lanes: a multiple of no level
/// of [`PhiBounds`], so every level ends in a partial range — 1,094 blocks,
/// 137 tiles, 18 runs and 2 groups — and skips fire at each.
const LANE_VERTICES: usize = 70_000;

/// Synthetic store-like lanes: [`LANE_VERTICES`] uniform points in Morton
/// order with Pareto(β = 2.5) weights, plus the seam corners — all-`0.0`,
/// all-`1.0f64.next_down()` and a mixed point — which sort to the first,
/// last and some middle id. Returns the flat positions and the weights.
///
/// With `f32_exact`, coordinates and weights apart from the corners are
/// `f32` values, so the stored boxes are exact and a bound can equal a
/// member's φ: a bound off by one ulp fails [`check_bounds_dominate`].
/// Without it they are arbitrary `f64`s, which the boxes round outward.
fn morton_lanes<const D: usize>(rng: &mut StdRng, f32_exact: bool) -> (Vec<f64>, Vec<f64>) {
    let below_one = 1.0f64.next_down();
    let grid = f64::from(1u32 << 24);
    let snap = |x: f64| {
        if f32_exact {
            (x * grid).floor() / grid
        } else {
            x
        }
    };
    let mut vertices: Vec<(Point<D>, f64)> = (0..LANE_VERTICES - 3)
        .map(|_| {
            let p = Point::new(std::array::from_fn(|_| snap(rng.gen_range(0.0..1.0))));
            let w = (1.0 - rng.gen_range(0.0..1.0f64)).powf(-1.0 / 1.5);
            (p, if f32_exact { f64::from(w as f32) } else { w })
        })
        .collect();
    let mixed = std::array::from_fn(|k| if k % 2 == 0 { 0.0 } else { below_one });
    vertices.push((Point::new([0.0; D]), 3.0));
    vertices.push((Point::new([below_one; D]), 3.0));
    vertices.push((Point::new(mixed), 3.0));
    // a 2^10-per-side Morton key (`morton::point_code` needs D >= 2)
    let side = 1u32 << 10;
    vertices.sort_by_key(|(p, _)| {
        let cell =
            std::array::from_fn(|k| ((p.coords()[k] * f64::from(side)) as u32).min(side - 1));
        smallworld_geometry::morton::encode::<D>(cell, 10)
    });
    assert_eq!(vertices.last().unwrap().0.coords(), &[below_one; D]);
    let positions = vertices.iter().flat_map(|(p, _)| *p.coords()).collect();
    let weights = vertices.iter().map(|&(_, w)| w).collect();
    (positions, weights)
}

/// Targets for the bound checks: both seam corners, the mixed corner, and
/// random vertices.
fn lane_targets(positions: &[f64], rng: &mut StdRng, d: usize) -> Vec<NodeId> {
    let n = positions.len() / d;
    let mixed = (0..n)
        .find(|&v| {
            (0..d)
                .all(|k| positions[v * d + k] == if k % 2 == 0 { 0.0 } else { 1.0f64.next_down() })
        })
        .expect("mixed corner planted");
    let mut targets = vec![0, n - 1, mixed];
    targets.extend((0..5).map(|_| rng.gen_range(0..n)));
    targets.into_iter().map(|t| NodeId::new(t as u32)).collect()
}

/// Every bound of every level of the ladder is `>=` the φ of each of its
/// members, compared as floats with no margin, and `+∞` for the range
/// holding the target. Each level's last range is partial.
fn check_bounds_dominate<const D: usize>(seed: u64, f32_exact: bool) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (positions, weights) = morton_lanes::<D>(&mut rng, f32_exact);
    let norm = 1.0 * LANE_VERTICES as f64;
    let bounds = PhiBounds::<D>::new(&positions, &weights).expect("Morton lanes get bounds");
    let objective = GirgObjective::<D>::from_lanes(&positions, &weights, norm);
    let n = weights.len();
    for ids in PhiBounds::<D>::LEVEL_IDS {
        assert_ne!(n % ids, 0, "the last {ids}-id range must be partial");
    }
    for t in lane_targets(&positions, &mut rng, D) {
        let target: [f64; D] = std::array::from_fn(|k| positions[t.index() * D + k]);
        for (level, ids) in PhiBounds::<D>::LEVEL_IDS.into_iter().enumerate() {
            for range in 0..n.div_ceil(ids) {
                let b = bounds.bound(level, range, &target, norm);
                for v in range * ids..n.min((range + 1) * ids) {
                    let phi = objective.phi(NodeId::new(v as u32), t);
                    assert!(
                        b >= phi,
                        "D={D} t={t:?} range {range}/{ids}: bound {b} < φ(v{v}) {phi}"
                    );
                }
                if range == t.index() / ids {
                    assert_eq!(
                        b,
                        f64::INFINITY,
                        "D={D}: the target's own range is unbounded"
                    );
                }
            }
        }
    }
}

#[test]
fn phi_bounds_dominate_every_member_bitwise() {
    for f32_exact in [true, false] {
        check_bounds_dominate::<1>(61, f32_exact);
        check_bounds_dominate::<2>(62, f32_exact);
        check_bounds_dominate::<3>(63, f32_exact);
    }
}

/// Sorted neighbor-like id slices over `0..n`: the whole range (a hub
/// adjacent to everything), dense and sparse random subsets, short lists
/// around one id, and lists that cross a tile boundary — dense, or one id
/// on each side — including the group boundary at 65,536.
fn id_slices(n: usize, rng: &mut StdRng) -> Vec<Vec<NodeId>> {
    let mut slices = vec![(0..n).collect::<Vec<_>>()];
    for p in [0.5, 0.05, 0.002] {
        slices.push((0..n).filter(|_| rng.gen_bool(p)).collect());
    }
    for _ in 0..4 {
        let centre = rng.gen_range(0..n);
        let lo = centre.saturating_sub(300);
        slices.push(
            (lo..n.min(centre + 300))
                .filter(|_| rng.gen_bool(0.1))
                .collect(),
        );
    }
    let tile = PhiBounds::<1>::LEVEL_IDS[PhiBounds::<1>::TILE];
    let group = PhiBounds::<1>::LEVEL_IDS[PhiBounds::<1>::GROUP];
    let mut edges: Vec<usize> = (0..4).map(|_| rng.gen_range(1..n / tile) * tile).collect();
    edges.push(group);
    for edge in edges {
        slices.push((edge - 100..edge + 100).collect());
        slices.push(vec![edge - 1, edge]);
        slices.push(vec![edge - tile + 7, edge + 3, edge + tile + 1]);
    }
    slices
        .into_iter()
        .map(|s| s.into_iter().map(|v| NodeId::new(v as u32)).collect())
        .collect()
}

/// `best_above` against the full first-best fold for floors `−∞`,
/// mid-range (the slice's median score) and above every finite score:
/// equal whenever the fold's score beats the floor, never beating the
/// floor otherwise. Also checks that at every level some bound falls to
/// the fold's score, i.e. that skips fire on these inputs.
fn check_best_above<const D: usize>(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (positions, weights) = morton_lanes::<D>(&mut rng, false);
    let norm = LANE_VERTICES as f64;
    let objective = PackedGirgObjective::<D>::new(&positions, &weights, norm);
    let bounds = objective.bounds().expect("Morton lanes get bounds");
    let slices = id_slices(LANE_VERTICES, &mut rng);
    let mut skippable = [0; 4];
    for t in lane_targets(&positions, &mut rng, D) {
        let target: [f64; D] = std::array::from_fn(|k| positions[t.index() * D + k]);
        let kernel = objective.prepare(t);
        for ns in &slices {
            let full = first_best_by_blocks(ns, |chunk, out| kernel.score_block(chunk, out));
            let mut scores: Vec<f64> = ns.iter().map(|&v| kernel.score(v)).collect();
            scores.sort_by(f64::total_cmp);
            let mid = scores.get(scores.len() / 2).copied().unwrap_or(0.0);
            let top = scores
                .iter()
                .rev()
                .find(|s| s.is_finite())
                .map_or(1.0, |s| s * 2.0);
            for floor in [f64::NEG_INFINITY, mid, top] {
                let got = kernel.best_above(ns, floor);
                match full {
                    Some((s, v)) if s > floor => {
                        let (gs, gv) = got.expect("a neighbor beats the floor");
                        assert_eq!(
                            (gs.to_bits(), gv),
                            (s.to_bits(), v),
                            "D={D} t={t:?} floor {floor}"
                        );
                    }
                    _ => assert!(
                        got.is_none_or(|(s, _)| s.is_nan() || s <= floor),
                        "D={D} t={t:?} floor {floor}: {got:?} beats the floor, the fold does not"
                    ),
                }
            }
            if let Some((s, _)) = full {
                for (level, ids) in PhiBounds::<D>::LEVEL_IDS.into_iter().enumerate() {
                    skippable[level] += (0..LANE_VERTICES.div_ceil(ids))
                        .filter(|&r| bounds.bound(level, r, &target, norm) <= s)
                        .count();
                }
            }
        }
    }
    assert!(
        skippable.iter().all(|&k| k > 0),
        "D={D}: skips per level {skippable:?}"
    );
}

#[test]
fn best_above_matches_first_best_fold() {
    check_best_above::<1>(71);
    check_best_above::<2>(72);
    check_best_above::<3>(73);
}

/// Where [`check_equal_phi_twins`] plants its two equal-φ twins.
#[derive(Clone, Copy, Debug)]
enum Twins {
    /// A third and two thirds into the ids, the target anywhere.
    Apart,
    /// The later twin in the target's run, the run `route_view` folds
    /// first, and the earlier one half a run before that run.
    InLead,
    /// On either side of a tile boundary inside the target's run.
    AcrossTile,
    /// On either side of the first group boundary (and so of a tile and a
    /// run boundary), the later one in the target's run.
    AcrossGroup,
}

/// Two vertices with bitwise-equal φ in different id blocks: the first one
/// in slice order wins, whatever the floor, through `best_above` and
/// through `route_view`'s run fold.
///
/// [`Twins::AcrossGroup`] uses `f32`-exact lanes and puts the twins just
/// below the target on every axis. At D = 1 every range holding the
/// earlier twin then lies wholly between the id-0 corner and the twin, so
/// their bounds equal its φ bitwise: a skip against the incumbent's score
/// itself, rather than the float just below it, would lose it.
fn check_equal_phi_twins<const D: usize>(seed: u64, kind: Twins) {
    let mut rng = StdRng::seed_from_u64(seed);
    let f32_exact = matches!(kind, Twins::AcrossGroup);
    let (mut positions, mut weights) = morton_lanes::<D>(&mut rng, f32_exact);
    let norm = LANE_VERTICES as f64;
    let [tile, run, group] = [
        PhiBounds::<D>::TILE,
        PhiBounds::<D>::RUN,
        PhiBounds::<D>::GROUP,
    ]
    .map(|level| PhiBounds::<D>::LEVEL_IDS[level]);
    let t = match kind {
        Twins::Apart => rng.gen_range(0..LANE_VERTICES),
        Twins::InLead => rng.gen_range(run..LANE_VERTICES),
        // a full run, so that it holds tile boundaries
        Twins::AcrossTile => rng.gen_range(run..LANE_VERTICES / run * run),
        // far enough into the run that at D = 1 the twins, 2⁻⁷ below the
        // target, lie above every id before the group boundary
        Twins::AcrossGroup => rng.gen_range(group + 1024..group + 3072),
    };
    let base = t / run * run;
    let twins = match kind {
        Twins::Apart => [LANE_VERTICES / 3, 2 * LANE_VERTICES / 3],
        Twins::InLead => {
            let later = if t == base { base + 1 } else { base };
            [base - run / 2, later]
        }
        Twins::AcrossTile => {
            // a tile boundary inside the run, with neither twin the target
            let edge = (base + tile..base + run)
                .step_by(tile)
                .filter(|&e| e != t && e - 1 != t)
                .nth(rng.gen_range(0..3))
                .expect("the run holds tile boundaries");
            [edge - 1, edge]
        }
        Twins::AcrossGroup => [group - 1, group],
    };
    let t = NodeId::new(t as u32);
    let twin_pos: [f64; D] = std::array::from_fn(|k| {
        let c = positions[t.index() * D + k];
        let c = if f32_exact { c - 1.0 / 128.0 } else { c + 0.01 };
        c - c.floor()
    });
    for twin in twins {
        positions[twin * D..(twin + 1) * D].copy_from_slice(&twin_pos);
        weights[twin] = 1e9;
    }
    let objective = PackedGirgObjective::<D>::new(&positions, &weights, norm);
    let bounds = objective.bounds().expect("twins must not break the guard");
    let kernel = objective.prepare(t);
    let (a, b) = (NodeId::new(twins[0] as u32), NodeId::new(twins[1] as u32));
    assert_eq!(kernel.score(a).to_bits(), kernel.score(b).to_bits());
    let block = PhiBounds::<D>::LEVEL_IDS[PhiBounds::<D>::BLOCK];
    assert_ne!(twins[0] / block, twins[1] / block);
    if !matches!(kind, Twins::Apart) {
        assert_eq!(twins[1] / run, t.index() / run, "the later twin leads");
    }
    if f32_exact && D == 1 {
        let target: [f64; D] = std::array::from_fn(|k| positions[t.index() * D + k]);
        for (level, ids) in PhiBounds::<D>::LEVEL_IDS.into_iter().enumerate() {
            assert_eq!(
                bounds.bound(level, twins[0] / ids, &target, norm).to_bits(),
                kernel.score(a).to_bits(),
                "level {level}: the earlier twin's bound is its φ"
            );
        }
    }
    let ns: Vec<NodeId> = (0..LANE_VERTICES as u32)
        .filter(|&v| {
            v != t.raw() && (v % 7 == 0 || v as usize == twins[0] || v as usize == twins[1])
        })
        .map(NodeId::new)
        .collect();
    let full = first_best_by_blocks(&ns, |chunk, out| kernel.score_block(chunk, out));
    assert_eq!(
        full.map(|(_, v)| v),
        Some(a),
        "D={D}: the twins must be the best"
    );
    for floor in [f64::NEG_INFINITY, 0.0, kernel.score(a).next_down()] {
        assert_eq!(
            kernel.best_above(&ns, floor).map(|(_, v)| v),
            Some(a),
            "D={D} floor {floor}"
        );
    }
    // the view router's run fold, which skips whole groups and runs, takes
    // the first twin too: one hop out of a star centred on a vertex off `ns`
    let centre = (0..LANE_VERTICES as u32)
        .map(NodeId::new)
        .find(|&c| c != t && ns.binary_search(&c).is_err())
        .unwrap();
    let star =
        Graph::from_edges(LANE_VERTICES, ns.iter().map(|v| (centre.raw(), v.raw()))).unwrap();
    let hop = GreedyRouter::with_max_steps(1).route_view_quiet(&mut &star, &kernel, centre);
    assert_eq!(hop.path, [centre, a], "D={D}: route_view's first hop");
}

#[test]
fn equal_phi_twins_keep_first_best_order() {
    check_equal_phi_twins::<1>(81, Twins::Apart);
    check_equal_phi_twins::<2>(82, Twins::Apart);
    check_equal_phi_twins::<3>(83, Twins::Apart);
}

#[test]
fn equal_phi_twins_keep_first_best_order_when_the_later_leads() {
    for seed in 0..4 {
        check_equal_phi_twins::<1>(91 + seed, Twins::InLead);
        check_equal_phi_twins::<2>(95 + seed, Twins::InLead);
        check_equal_phi_twins::<3>(99 + seed, Twins::InLead);
    }
}

#[test]
fn equal_phi_twins_keep_first_best_order_across_tile_and_group_boundaries() {
    for seed in 0..3 {
        for twins in [Twins::AcrossTile, Twins::AcrossGroup] {
            check_equal_phi_twins::<1>(111 + seed, twins);
            check_equal_phi_twins::<2>(114 + seed, twins);
            check_equal_phi_twins::<3>(117 + seed, twins);
        }
    }
}

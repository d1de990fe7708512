//! One greedy loop, seven substrates: Algorithm 1 must take bitwise the
//! same route whether it reads a decoded CSR (with or without the routing
//! index's bounds pruning each hop's scan), a memory-mapped store decoded
//! on demand, a shard partition with handoff,
//! the traffic simulator's forwarding policy (over the plain objective and
//! over the store-path objective whose bounds prune each hop's scan), or
//! the locality-enforcing node-program simulator.
//!
//! Inputs are a small Morton-relabelled GIRG saved with four shards, and
//! two four-vertex graphs: one on which two neighbors tie for the best φ —
//! the case where a last-best argmax would route differently from the
//! first-best fold every substrate shares — and one on which their φ differ
//! by one ulp, so a substrate with its own φ rounding would route
//! differently from Algorithm 1.

use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use smallworld::core::distributed::GirgAddressing;
use smallworld::core::greedy::DEFAULT_MAX_STEPS;
use smallworld::core::{
    route_sharded, DistributedGreedy, GirgObjective, GreedyRouter, IndexedGirgObjective, Objective,
    PackedGirgObjective, RouteOutcome, RouteRecord, Router, RoutingIndex, ShardSlice, Simulator,
};
use smallworld::geometry::Point;
use smallworld::graph::view::DIRECTORY_MIN_IDS;
use smallworld::graph::{Components, Graph, NodeId};
use smallworld::models::girg::{Girg, GirgBuilder, GirgParams};
use smallworld::models::Alpha;
use smallworld::net::{GreedyPolicy, Injection, PacketOutcome, Simulation, SliceWorkload};
use smallworld::store::{load_girg, save_girg, GraphStore};
use smallworld_bench::TrialBatch;
use smallworld_par::Pool;

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "smallworld-greedy-substrates-{}-{name}.swg",
        std::process::id()
    ))
}

/// The route on every substrate but the reference, for comparison.
struct Substrates {
    indexed: Vec<RouteRecord>,
    mapped: Vec<RouteRecord>,
    sharded: Vec<RouteRecord>,
    net_policy: Vec<RouteRecord>,
    /// The traffic policy over the store-path objective, whose kernels
    /// prune hop scans with id-block bounds when it has them.
    net_policy_bounded: Vec<RouteRecord>,
    node_program: Vec<RouteRecord>,
    /// Whether the store-path objective and the routing index built their
    /// bounds (over the same lanes, they agree).
    bounded: bool,
}

/// Routes every pair through each substrate. `girg` is written to `path`
/// with `shards` shards so the store-backed substrates read it back.
fn route_everywhere(
    girg: &Girg<2>,
    path: &Path,
    shards: usize,
    pairs: &[(NodeId, NodeId)],
) -> Substrates {
    let graph = girg.graph();
    let objective = GirgObjective::new(girg);
    let router = GreedyRouter::new();

    let index = RoutingIndex::build(graph, girg.positions(), girg.weights());
    let indexed_objective = IndexedGirgObjective::new(GirgObjective::new(girg), &index);
    let indexed = pairs
        .iter()
        .map(|&(s, t)| router.route_quiet(graph, &indexed_objective, s, t))
        .collect();

    save_girg(girg, path, shards).expect("temp dir is writable");
    let store = GraphStore::open(path).expect("own file reopens");
    let positions = store.packed_positions().expect("positions stored");
    let weights = store.packed_weights().expect("weights stored");
    let (params, _) = store.params().expect("params stored");
    let packed =
        PackedGirgObjective::<2>::new(&positions, &weights, params.wmin * params.intensity);

    let mapped_graph = store.mapped_graph().expect("own file maps");
    let mut cursor = mapped_graph.cursor();
    let mapped = pairs
        .iter()
        .map(|&(s, t)| router.route_view_quiet(&mut cursor, &packed.prepare(t), s))
        .collect();

    let sharded_store = store.load_shards().expect("shards were written");
    let locals: Vec<Graph> = sharded_store
        .shards()
        .iter()
        .map(|s| s.local_graph().expect("shard decodes"))
        .collect();
    let mut slices: Vec<ShardSlice<'_, &Graph>> = sharded_store
        .shards()
        .iter()
        .zip(&locals)
        .map(|(s, local)| ShardSlice {
            start: s.spec().nodes.start,
            end: s.spec().nodes.end,
            local,
            boundary: s.boundary(),
        })
        .collect();
    let sharded = pairs
        .iter()
        .map(|&(s, t)| route_sharded(&mut slices, &packed.prepare(t), s, DEFAULT_MAX_STEPS).record)
        .collect();

    let net_policy = forward_everywhere(graph, objective, pairs);
    let net_policy_bounded = forward_everywhere(graph, &packed, pairs);

    let addressing = GirgAddressing::new(girg);
    let program = DistributedGreedy::for_girg(girg);
    let node_program = pairs
        .iter()
        .map(|&(s, t)| Simulator::new().route(graph, &addressing, &program, s, t).0)
        .collect();

    std::fs::remove_file(path).ok();
    assert_eq!(index.bounds().is_some(), packed.bounds().is_some());
    Substrates {
        indexed,
        mapped,
        sharded,
        net_policy,
        net_policy_bounded,
        node_program,
        bounded: packed.bounds().is_some(),
    }
}

/// Forwards every pair as one packet of a fault-free traffic simulation
/// under [`GreedyPolicy`] and reads the packets back as routes.
fn forward_everywhere<O: Objective + Sync>(
    graph: &Graph,
    objective: O,
    pairs: &[(NodeId, NodeId)],
) -> Vec<RouteRecord> {
    let injections: Vec<Injection> = pairs
        .iter()
        .map(|&(source, target)| Injection {
            source,
            target,
            at: 0,
        })
        .collect();
    let report =
        Simulation::new(graph, GreedyPolicy::new(objective)).run(SliceWorkload::new(&injections));
    report
        .packets
        .into_iter()
        .map(|packet| RouteRecord {
            outcome: match packet.outcome {
                PacketOutcome::Delivered => RouteOutcome::Delivered,
                PacketOutcome::DeadEnd => RouteOutcome::DeadEnd,
                PacketOutcome::Expired => RouteOutcome::MaxStepsExceeded,
                other => panic!("fault-free simulation ended a packet as {other:?}"),
            },
            path: packet.path,
        })
        .collect()
}

fn assert_all_equal(reference: &[RouteRecord], got: &Substrates) {
    for (name, routes) in [
        ("indexed", &got.indexed),
        ("mapped", &got.mapped),
        ("sharded", &got.sharded),
        ("net policy", &got.net_policy),
        ("bounded net policy", &got.net_policy_bounded),
        ("node program", &got.node_program),
    ] {
        assert_eq!(routes.len(), reference.len(), "{name}: route count");
        for (i, (route, expect)) in routes.iter().zip(reference).enumerate() {
            assert_eq!(route, expect, "{name}, pair {i}");
        }
    }
}

#[test]
fn every_substrate_routes_a_sharded_girg_identically() {
    let mut rng = StdRng::seed_from_u64(2017);
    let girg = GirgBuilder::<2>::new(3_000)
        .beta(2.5)
        .alpha(2.0)
        .sample(&mut rng)
        .expect("valid parameters");
    let girg = girg.relabel(&girg.morton_permutation());
    let comps = Components::compute(girg.graph());
    let n = girg.node_count();
    let pairs: Vec<(NodeId, NodeId)> = std::iter::repeat_with(|| {
        (
            NodeId::from_index(rng.gen_range(0..n)),
            NodeId::from_index(rng.gen_range(0..n)),
        )
    })
    .filter(|&(s, t)| s != t && comps.same_component(s, t))
    .take(200)
    .collect();

    let objective = GirgObjective::new(&girg);
    let reference: Vec<RouteRecord> = pairs
        .iter()
        .map(|&(s, t)| GreedyRouter::new().route_quiet(girg.graph(), &objective, s, t))
        .collect();
    let delivered = reference.iter().filter(|r| r.is_success()).count();
    let multi_hop = reference.iter().filter(|r| r.hops() >= 2).count();
    assert!(delivered > 100, "only {delivered} of 200 routes delivered");
    assert!(
        multi_hop > 50,
        "only {multi_hop} routes took two or more hops"
    );

    let got = route_everywhere(&girg, &temp_path("girg"), 4, &pairs);
    assert!(
        got.bounded,
        "Morton ids build bounds, so the pruned scans run"
    );
    assert_all_equal(&reference, &got);
}

#[test]
fn every_substrate_breaks_phi_ties_first_best() {
    // The diamond 0 – {1, 2} – 3 with w_min = 1, routed from 0 to 3.
    // "ties": 0 at (0.5, 0) sees 1 and 2 at equal distance from 3, with
    // equal weights, so their φ ties exactly and 1 comes first.
    // "near-ties": φ(2) exceeds φ(1) by one ulp once divided by
    // w_min · n = 3000, while the undivided w / ‖x − x_t‖² of both round to
    // the same value, so a substrate scoring without the normalization
    // would tie and take 1.
    let cases = [
        (
            "ties",
            [[0.5, 0.0], [0.25, 0.5], [0.75, 0.5], [0.5, 0.5]],
            [1.0; 4],
            4.0,
            [0, 1, 3],
        ),
        (
            "near-ties",
            [
                [0.5, 0.05],
                [0.591391841569948, 0.3793360969644826],
                [0.43613705142655435, 0.411556341922073],
                [0.5, 0.5],
            ],
            [1.0, 6.958758837880713, 3.738612396423514, 1.0],
            3000.0,
            [0, 2, 3],
        ),
    ];
    for (name, positions, weights, intensity, expect) in cases {
        let graph = Graph::from_edges(4, [(0u32, 1u32), (0, 2), (1, 3), (2, 3)]).unwrap();
        let params = GirgParams {
            intensity,
            beta: 2.5,
            wmin: 1.0,
            alpha: Alpha::Finite(2.0),
            lambda: 1.0,
        };
        let positions = positions.into_iter().map(Point::new).collect();
        let girg = Girg::from_parts(graph, positions, weights.to_vec(), params, 0);
        let pairs = [(NodeId::new(0), NodeId::new(3))];

        let reference = vec![GreedyRouter::new().route_quiet(
            girg.graph(),
            &GirgObjective::new(&girg),
            pairs[0].0,
            pairs[0].1,
        )];
        assert_eq!(reference[0].outcome, RouteOutcome::Delivered, "{name}");
        assert_eq!(reference[0].path, expect.map(NodeId::new), "{name}");

        let got = route_everywhere(&girg, &temp_path(name), 2, &pairs);
        assert!(!got.bounded, "{name}: four vertices fill no id block");
        assert_all_equal(&reference, &got);
    }
}

/// In-RAM hops over a loaded Morton store walk the graph's run directory,
/// which the first bounded hop over a long list builds and every thread
/// then shares: the bounded in-RAM routes (the routing index's objective
/// over `load_girg`), the mapped cursor's and the unbounded reference's
/// are the same records, and a `TrialBatch` over a fresh load gives the
/// same records at 1, 2 and 8 threads, whichever thread builds the
/// directory. Unbounded routes, and bounded objectives over ids in
/// sampling order (which build no bounds), never build one.
#[test]
fn loaded_morton_girg_routes_identically_through_its_run_directory() {
    let mut rng = StdRng::seed_from_u64(31);
    let sampled = GirgBuilder::<2>::new(20_000)
        .beta(2.5)
        .alpha(2.0)
        .sample(&mut rng)
        .expect("valid parameters");
    let morton = sampled.relabel(&sampled.morton_permutation());
    let path = temp_path("directory");
    save_girg(&morton, &path, 1).expect("temp dir is writable");
    let load = || load_girg::<2>(&path).expect("own file loads");
    let girg = load();
    let graph = girg.graph();
    let long = graph
        .nodes()
        .filter(|&v| graph.degree(v) >= DIRECTORY_MIN_IDS)
        .count();
    assert!(long > 0, "no list reaches {DIRECTORY_MIN_IDS} ids");
    let comps = Components::compute(graph);
    let n = girg.node_count();
    let pairs: Vec<(NodeId, NodeId)> = std::iter::repeat_with(|| {
        (
            NodeId::from_index(rng.gen_range(0..n)),
            NodeId::from_index(rng.gen_range(0..n)),
        )
    })
    .filter(|&(s, t)| s != t && comps.same_component(s, t))
    .take(300)
    .collect();
    let router = GreedyRouter::new();

    let objective = GirgObjective::new(&girg);
    let reference: Vec<RouteRecord> = pairs
        .iter()
        .map(|&(s, t)| router.route_quiet(graph, &objective, s, t))
        .collect();
    assert!(
        graph.run_directory().is_none(),
        "unbounded routes fold no runs"
    );

    let index = RoutingIndex::for_girg(&girg);
    assert!(index.bounds().is_some(), "Morton ids build bounds");
    let indexed_objective = IndexedGirgObjective::new(GirgObjective::new(&girg), &index);
    let indexed: Vec<RouteRecord> = pairs
        .iter()
        .map(|&(s, t)| router.route_quiet(graph, &indexed_objective, s, t))
        .collect();
    let dir = graph
        .run_directory()
        .expect("a bounded hop over a long list builds the directory");
    assert_eq!(dir.list_count(), long);

    let store = GraphStore::open(&path).expect("own file reopens");
    let positions = store.packed_positions().expect("positions stored");
    let weights = store.packed_weights().expect("weights stored");
    let (params, _) = store.params().expect("params stored");
    let packed =
        PackedGirgObjective::<2>::new(&positions, &weights, params.wmin * params.intensity);
    let mapped_graph = store.mapped_graph().expect("own file maps");
    let mut cursor = mapped_graph.cursor();
    let mapped: Vec<RouteRecord> = pairs
        .iter()
        .map(|&(s, t)| router.route_view_quiet(&mut cursor, &packed.prepare(t), s))
        .collect();
    for (i, expect) in reference.iter().enumerate() {
        assert_eq!(&indexed[i], expect, "indexed, pair {i}");
        assert_eq!(&mapped[i], expect, "mapped, pair {i}");
    }

    let batch = |threads: usize| {
        let girg = load();
        let index = RoutingIndex::for_girg(&girg);
        let objective = IndexedGirgObjective::new(GirgObjective::new(&girg), &index);
        assert!(girg.graph().run_directory().is_none());
        let records: Vec<RouteRecord> = TrialBatch::new(girg.graph(), &comps, 400)
            .connected_only(true)
            .run_recorded(&router, &objective, 7, &Pool::with_threads(threads))
            .into_iter()
            .map(|(_, record)| record)
            .collect();
        assert!(girg.graph().run_directory().is_some(), "{threads} threads");
        records
    };
    let one = batch(1);
    let unbounded: Vec<RouteRecord> = TrialBatch::new(graph, &comps, 400)
        .connected_only(true)
        .run_recorded(&router, &objective, 7, &Pool::with_threads(1))
        .into_iter()
        .map(|(_, record)| record)
        .collect();
    assert_eq!(one, unbounded, "bounded and unbounded batches");
    for threads in [2, 8] {
        assert_eq!(batch(threads), one, "{threads} threads");
    }
    std::fs::remove_file(&path).ok();

    let index = RoutingIndex::for_girg(&sampled);
    assert!(index.bounds().is_none(), "sampling order builds no bounds");
    let objective = IndexedGirgObjective::new(GirgObjective::new(&sampled), &index);
    for &(s, t) in &pairs {
        router.route_quiet(sampled.graph(), &objective, s, t);
    }
    assert!(sampled.graph().run_directory().is_none());
}

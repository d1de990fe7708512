//! Greedy routes on a store-loaded graph are bitwise those of the freshly
//! sampled graph — outcome and full hop path — across every scoring path:
//! the point-based objective, the packed objective scoring straight off the
//! store's flat geometry sections, and the routing index over a
//! Morton-relabeled copy, on both the whole loaded graph and the
//! shard-assembled one.
//!
//! This is the load-path extension of `smallworld-core`'s
//! `kernel_equivalence` suite: it pins that persistence is invisible to
//! the routing layer, which is what licenses `girg_gen --load` (and CI's
//! generate-once/load-twice determinism check) in the first place.

use rand::rngs::StdRng;
use rand::SeedableRng;
use smallworld_core::{
    GirgObjective, GreedyRouter, Objective, PackedGirgObjective, RouteRecord, RoutingIndex,
};
use smallworld_core::{IndexedGirgObjective, Router};
use smallworld_graph::{Graph, NodeId};
use smallworld_models::girg::{Girg, GirgBuilder};
use smallworld_store::GraphStore;

fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "smallworld-store-routes-{}-{name}.swg",
        std::process::id()
    ))
}

/// Deterministic s–t pairs spread over the vertex range.
fn trial_pairs(n: usize, count: usize) -> Vec<(NodeId, NodeId)> {
    (0..count)
        .map(|i| {
            let s = (i * 131) % n;
            let t = (i * 197 + n / 2) % n;
            (NodeId::new(s as u32), NodeId::new(t as u32))
        })
        .filter(|(s, t)| s != t)
        .collect()
}

fn routes<O: Objective>(graph: &Graph, objective: &O, pairs: &[(NodeId, NodeId)]) -> Vec<RouteRecord> {
    let router = GreedyRouter::new();
    pairs
        .iter()
        .map(|&(s, t)| router.route_quiet(graph, objective, s, t))
        .collect()
}

#[test]
fn store_loaded_routes_are_bitwise_identical() {
    let mut rng = StdRng::seed_from_u64(99);
    let girg: Girg<2> = GirgBuilder::new(2_000).sample(&mut rng).unwrap();
    let n = girg.node_count();
    let pairs = trial_pairs(n, 300);

    // reference: routes on the freshly sampled graph
    let reference = routes(girg.graph(), &GirgObjective::new(&girg), &pairs);
    let delivered = reference
        .iter()
        .filter(|r| r.outcome == smallworld_core::RouteOutcome::Delivered)
        .count();
    assert!(delivered > 0, "trial set must contain delivered routes");

    let path = temp_path("equiv");
    smallworld_store::save_girg(&girg, &path, 4).unwrap();
    let store = GraphStore::open(&path).unwrap();

    // 1. loaded GIRG, point-based objective
    let loaded: Girg<2> = store.load_girg().unwrap();
    assert_eq!(routes(loaded.graph(), &GirgObjective::new(&loaded), &pairs), reference);

    // 2. loaded graph + packed objective scoring off the store's flat
    //    geometry sections (no Point vectors materialized)
    let graph = store.load_graph().unwrap();
    let positions = store.packed_positions().unwrap();
    let weights = store.packed_weights().unwrap();
    let (params, _) = store.params().unwrap();
    let packed =
        PackedGirgObjective::<2>::new(&positions, &weights, params.wmin * params.intensity);
    assert_eq!(routes(&graph, &packed, &pairs), reference);

    // 3. the routing index: no bounds over the loaded ids (sampling
    //    order), and pruned scans over a Morton-relabeled copy, routed
    //    between mapped endpoints and mapped back
    assert!(RoutingIndex::for_girg(&loaded).bounds().is_none());
    let perm = loaded.morton_permutation();
    let sorted = loaded.relabel(&perm);
    let index = RoutingIndex::for_girg(&sorted);
    assert!(index.bounds().is_some(), "Morton ids build bounds");
    let indexed = IndexedGirgObjective::new(GirgObjective::new(&sorted), &index);
    let mapped: Vec<(NodeId, NodeId)> = pairs
        .iter()
        .map(|&(s, t)| (perm.forward(s), perm.forward(t)))
        .collect();
    let through_index: Vec<RouteRecord> = routes(sorted.graph(), &indexed, &mapped)
        .into_iter()
        .map(|r| RouteRecord {
            path: perm.path_to_original(&r.path),
            ..r
        })
        .collect();
    assert_eq!(through_index, reference);

    // 4. shard-assembled graph, both objectives
    let assembled = store.load_shards().unwrap().assemble().unwrap();
    assert_eq!(assembled, *girg.graph());
    assert_eq!(routes(&assembled, &GirgObjective::new(&loaded), &pairs), reference);
    assert_eq!(routes(&assembled, &packed, &pairs), reference);

    std::fs::remove_file(&path).ok();
}

#[test]
fn per_shard_local_routing_matches_the_global_subgraph() {
    // routes confined to one shard's local graph agree with the same walk
    // on the global graph as long as it never leaves the shard: the local
    // CSR is the induced subgraph, relabeled by a fixed offset
    let mut rng = StdRng::seed_from_u64(7);
    let girg: Girg<2> = GirgBuilder::new(1_200).sample(&mut rng).unwrap();
    let path = temp_path("local");
    smallworld_store::save_girg(&girg, &path, 3).unwrap();
    let store = GraphStore::open(&path).unwrap();
    let sharded = store.load_shards().unwrap();
    let mut nonempty = 0;
    for shard in sharded.shards() {
        if shard.is_empty() {
            continue;
        }
        nonempty += 1;
        let local = shard.local_graph().unwrap();
        let start = shard.spec().nodes.start;
        assert_eq!(local.node_count(), shard.len());
        for v in 0..local.node_count() {
            let global_v = NodeId::new(v as u32 + start);
            // local adjacency == global adjacency restricted to the shard
            let global_local: Vec<u32> = girg
                .graph()
                .neighbors(global_v)
                .iter()
                .map(|t| t.raw())
                .filter(|t| shard.spec().nodes.contains(t))
                .map(|t| t - start)
                .collect();
            let local_list: Vec<u32> = local
                .neighbors(NodeId::new(v as u32))
                .iter()
                .map(|t| t.raw())
                .collect();
            assert_eq!(local_list, global_local);
        }
    }
    assert!(nonempty >= 2, "partition must produce several shards");
    std::fs::remove_file(&path).ok();
}

//! Decode-free access is invisible: adjacency read through the mapped
//! view (on-demand per-vertex decode, with or without the LRU cursor, and
//! run by run through the cursor's run directory) equals the fully decoded
//! graph on arbitrary inputs, greedy routes over the mmap are bitwise those
//! of the in-memory `GreedyRouter`, shard-local routing with explicit
//! handoff reproduces the global walk at every shard count, and truncated
//! files can never reach the mapped path.
//!
//! This is what licenses `girg_gen --mapped` and `bench_store`'s
//! mapped-vs-decoded throughput comparison: the mapped numbers are
//! measurements of the *same* computation, not of an approximation.

use std::collections::BTreeSet;

use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smallworld_core::greedy::DEFAULT_MAX_STEPS;
use smallworld_core::{
    route_sharded, GirgObjective, GreedyRouter, Objective, PackedGirgObjective, RouteRecord,
    Router, ShardSlice, ViewRouter,
};
use smallworld_geometry::Point;
use smallworld_graph::view::DIRECTORY_MIN_IDS;
use smallworld_graph::{AdjacencyView, Graph, NodeId, RunFold, RUN_IDS};
use smallworld_models::girg::{Girg, GirgBuilder};
use smallworld_store::{write_graph_swg, GraphStore, MappedCursor, MappedGraph};

fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "smallworld-store-mapped-{}-{name}.swg",
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

/// Neighbor lists of `view` must equal the decoded graph's, vertex for
/// vertex, regardless of which decode path serves them.
fn assert_view_matches<V: AdjacencyView>(view: &mut V, graph: &Graph) {
    assert_eq!(view.node_count(), graph.node_count());
    for v in graph.nodes() {
        let from_view = view.with_neighbors(v, |ns| ns.to_vec());
        assert_eq!(from_view, graph.neighbors(v), "vertex {v:?}");
    }
}

fn check_mapped_decode_matches(tag: &str, n: usize, raw_edges: &[(u32, u32)]) {
    let edges: std::collections::BTreeSet<(u32, u32)> = raw_edges
        .iter()
        .map(|&(a, b)| (a % n as u32, b % n as u32))
        .filter(|&(a, b)| a != b)
        .map(|(a, b)| (a.min(b), a.max(b)))
        .collect();
    let graph = Graph::from_edges(n, edges).expect("sanitized edges");
    let path = temp_path(tag);
    write_graph_swg(&graph, &path, 1).expect("write");
    let store = GraphStore::open(&path).expect("reopen");
    let mapped: MappedGraph<'_> = store.mapped_graph().expect("own file maps");

    assert_eq!(mapped.node_count(), graph.node_count());
    assert_eq!(mapped.target_count(), 2 * graph.edge_count());
    assert_eq!(mapped.edge_count(), graph.edge_count());
    assert_eq!(mapped.decode().expect("own encoding decodes"), graph);

    // per-vertex on-demand decode, without any cursor cache
    let mut out = Vec::new();
    for v in 0..graph.node_count() {
        out.clear();
        mapped.decode_into(v, &mut out).expect("vertex decodes");
        let expect: Vec<u32> = graph
            .neighbors(NodeId::from_index(v))
            .iter()
            .map(|t| t.raw())
            .collect();
        assert_eq!(out, expect, "vertex {v}");
    }

    // the LRU cursor (revisit every vertex twice so the cache both fills
    // and serves hits)
    let mut cursor = mapped.cursor();
    assert_view_matches(&mut cursor, &graph);
    assert_view_matches(&mut cursor, &graph);
    assert_eq!(cursor.hits() + cursor.misses(), 2 * graph.node_count() as u64);

    std::fs::remove_file(&path).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// On-demand decode through every mapped access path equals the full
    /// decode on arbitrary graphs.
    #[test]
    fn prop_mapped_decode_matches_full_decode(
        n in 1usize..60,
        raw_edges in vec((0u32..60, 0u32..60), 0..240),
    ) {
        check_mapped_decode_matches("prop", n, &raw_edges);
    }
}

/// Dense and empty corners the proptest generator rarely lands on.
#[test]
fn mapped_decode_handles_degenerate_graphs() {
    check_mapped_decode_matches("empty", 5, &[]);
    let complete: Vec<(u32, u32)> = (0..8u32)
        .flat_map(|a| (0..8u32).map(move |b| (a, b)))
        .collect();
    check_mapped_decode_matches("complete", 8, &complete);
}

/// Routes 300 pairs over `girg`'s mapped store and demands each record
/// equal the in-memory `GreedyRouter`'s; `bounded` says whether the
/// store-path objective prunes with id-block bounds on this input. Returns
/// the runs the routing cursor skipped.
fn check_mapped_routes(tag: &str, girg: &Girg<2>, bounded: bool) -> u64 {
    let pairs = trial_pairs(girg.node_count(), 300);

    let reference: Vec<RouteRecord> = {
        let router = GreedyRouter::new();
        let objective = GirgObjective::new(girg);
        pairs
            .iter()
            .map(|&(s, t)| router.route_quiet(girg.graph(), &objective, s, t))
            .collect()
    };
    let delivered = reference
        .iter()
        .filter(|r| r.outcome == smallworld_core::RouteOutcome::Delivered)
        .count();
    assert!(delivered > 0, "trial set must contain delivered routes");

    let path = temp_path(tag);
    smallworld_store::save_girg(girg, &path, 1).unwrap();
    let store = GraphStore::open(&path).unwrap();
    let mapped = store.mapped_graph().unwrap();
    let positions = store.packed_positions().unwrap();
    let weights = store.packed_weights().unwrap();
    let (params, _) = store.params().unwrap();
    let packed =
        PackedGirgObjective::<2>::new(&positions, &weights, params.wmin * params.intensity);
    assert_eq!(packed.bounds().is_some(), bounded, "{tag}: bounds guard");
    let router = ViewRouter::new();

    // decode-free over the LRU cursor and — pinning the view router itself
    // against the reference loop — the decoded graph
    let mut lazy = mapped.cursor();
    let mut decoded_view = girg.graph();
    for (i, &(s, t)) in pairs.iter().enumerate() {
        let kernel = packed.prepare(t);
        let via_lazy = router.route_view_quiet(&mut lazy, &kernel, s);
        let via_decoded = router.route_view_quiet(&mut decoded_view, &kernel, s);
        assert_eq!(via_lazy, reference[i], "{tag}: lazy cursor, pair {i}");
        assert_eq!(via_decoded, reference[i], "{tag}: decoded view, pair {i}");
    }
    std::fs::remove_file(&path).ok();
    lazy.skipped_runs()
}

/// Three threads' cursors over one store share its record of verified NBR
/// chunks and each routes exactly as one cursor over a fresh store does,
/// whatever order they touch the chunks in; between them they verify the
/// chunks the one cursor verified, each counted once.
#[test]
fn three_threads_share_one_store_and_route_as_one_cursor() {
    let mut rng = StdRng::seed_from_u64(5);
    let sampled: Girg<2> = GirgBuilder::new(30_000).sample(&mut rng).unwrap();
    let girg = sampled.relabel(&sampled.morton_permutation());
    let pairs = trial_pairs(girg.node_count(), 400);
    let path = temp_path("threads");
    smallworld_store::save_girg(&girg, &path, 1).unwrap();
    let route_all = |store: &GraphStore, cursor: &mut MappedCursor<'_>, rotate: usize| {
        let positions = store.packed_positions().unwrap();
        let weights = store.packed_weights().unwrap();
        let (params, _) = store.params().unwrap();
        let packed =
            PackedGirgObjective::<2>::new(&positions, &weights, params.wmin * params.intensity);
        let router = ViewRouter::new();
        let mut records: Vec<(usize, RouteRecord)> = (0..pairs.len())
            .map(|k| (k + rotate) % pairs.len())
            .map(|i| {
                let (s, t) = pairs[i];
                (i, router.route_view_quiet(cursor, &packed.prepare(t), s))
            })
            .collect();
        records.sort_by_key(|&(i, _)| i);
        assert!(cursor.error().is_none(), "{:?}", cursor.error());
        records
    };

    let single = GraphStore::open(&path).unwrap();
    let one = route_all(&single, &mut single.mapped_graph().unwrap().cursor(), 0);
    let touched = single.first_touch();
    assert!(touched.total_chunks >= 4, "{touched:?}");
    assert!(touched.chunks > 0 && touched.chunks <= touched.total_chunks);

    let shared = GraphStore::open(&path).unwrap();
    assert_eq!(shared.first_touch().chunks, 0, "open reads no NBR chunk");
    let mapped = shared.mapped_graph().unwrap();
    // the three start routing together, so they race for the chunks
    let start = std::sync::Barrier::new(3);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..3)
            .map(|k| {
                let (shared, mapped, start) = (&shared, &mapped, &start);
                let rotate = k * pairs.len() / 3;
                scope.spawn(move || {
                    let mut cursor = mapped.cursor();
                    start.wait();
                    route_all(shared, &mut cursor, rotate)
                })
            })
            .collect();
        for (k, worker) in workers.into_iter().enumerate() {
            assert_eq!(worker.join().unwrap(), one, "thread {k}");
        }
    });
    let account = shared.first_touch();
    assert_eq!(
        (account.chunks, account.bytes),
        (touched.chunks, touched.bytes)
    );
    std::fs::remove_file(&path).ok();
}

/// Over a Morton-relabeled store the hop scans prune through id-block
/// bounds; over the as-sampled store (ids in sampling order) the guard
/// builds none and every neighbor is scored. Both route bitwise like the
/// in-memory router.
#[test]
fn mapped_routes_are_bitwise_identical() {
    let mut rng = StdRng::seed_from_u64(99);
    let sampled: Girg<2> = GirgBuilder::new(2_000).sample(&mut rng).unwrap();
    let relabeled = sampled.relabel(&sampled.morton_permutation());
    check_mapped_routes("routes", &relabeled, true);
    check_mapped_routes("routes-as-sampled", &sampled, false);
}

/// A Morton store of more than three runs of `RUN_IDS` ids whose hub's list
/// is long enough for a run directory and spans every run: it holds id 0
/// (run 0 starts at byte 0 with an absolute id) and every multiple of
/// `RUN_IDS` (runs entered exactly at their first id). Returns it with its
/// hub and the as-sampled GIRG it was relabeled from.
fn hub_store_girgs() -> (Girg<2>, NodeId, Girg<2>) {
    let mut rng = StdRng::seed_from_u64(41);
    let planted: Girg<2> = GirgBuilder::new(14_000)
        .plant(Point::new([0.5, 0.5]), 3_000.0)
        .sample(&mut rng)
        .unwrap();
    let sampled = Girg::from_parts(
        planted.graph().clone(),
        planted.positions().to_vec(),
        planted.weights().to_vec(),
        *planted.params(),
        0,
    );
    let perm = sampled.morton_permutation();
    let morton = sampled.relabel(&perm);
    let hub = perm.forward(NodeId::new(0));
    let graph = morton.graph();
    let n = graph.node_count();
    assert!(n > 3 * RUN_IDS, "{n} vertices");
    let mut edges: BTreeSet<(u32, u32)> = graph
        .nodes()
        .flat_map(|v| graph.neighbors(v).iter().map(move |&u| (v.raw(), u.raw())))
        .filter(|(v, u)| v < u)
        .collect();
    for u in (0..n as u32).step_by(RUN_IDS).filter(|&u| u != hub.raw()) {
        edges.insert((u.min(hub.raw()), u.max(hub.raw())));
    }
    let morton = Girg::from_parts(
        Graph::from_edges(n, edges).unwrap(),
        morton.positions().to_vec(),
        morton.weights().to_vec(),
        *morton.params(),
        0,
    );
    (morton, hub, sampled)
}

/// Rejects a seeded random subset of the runs it is asked about and keeps
/// the ids of the others, checking each run's ids lie in it.
struct SeededFold {
    rng: StdRng,
    asked: Vec<usize>,
    wanted: Vec<usize>,
    kept: Vec<NodeId>,
}

impl RunFold for SeededFold {
    fn wants(&mut self, run: usize) -> bool {
        self.asked.push(run);
        let wanted = self.rng.gen_bool(0.5);
        if wanted {
            self.wanted.push(run);
        }
        wanted
    }

    fn fold(&mut self, ids: &[NodeId]) {
        let run = *self.asked.last().unwrap();
        assert_eq!(self.wanted.last(), Some(&run), "folded an unwanted run");
        assert!(ids.iter().all(|v| v.index() / RUN_IDS == run));
        self.kept.extend_from_slice(ids);
    }
}

/// The cursor's run fold — a directory build on the first visit, a
/// directory walk after — hands a fold exactly the runs of
/// `with_neighbors`'s list it wants, in order, and skips the rest.
#[test]
fn run_fold_sees_exactly_the_wanted_runs() {
    let (girg, hub, _) = hub_store_girgs();
    let path = temp_path("hub-runs");
    smallworld_store::save_girg(&girg, &path, 1).unwrap();
    let store = GraphStore::open(&path).unwrap();
    let mapped = store.mapped_graph().unwrap();
    let mut cursor = mapped.cursor();
    let list = cursor.with_neighbors(hub, |ns| ns.to_vec());
    assert_eq!(list, girg.graph().neighbors(hub));
    let runs: Vec<usize> = list.iter().map(|v| v.index() / RUN_IDS).collect();
    let mut distinct = runs.clone();
    distinct.dedup();
    assert_eq!(
        distinct,
        (0..=girg.node_count() / RUN_IDS).collect::<Vec<_>>()
    );
    assert_eq!(list[0], NodeId::new(0));
    for seed in 0..24 {
        let mut fold = SeededFold {
            rng: StdRng::seed_from_u64(seed),
            asked: Vec::new(),
            wanted: Vec::new(),
            kept: Vec::new(),
        };
        let skipped = cursor.skipped_runs();
        cursor.fold_runs(hub, &mut fold);
        assert_eq!(fold.asked, distinct, "seed {seed}");
        let expect: Vec<NodeId> = list
            .iter()
            .zip(&runs)
            .filter(|(_, run)| fold.wanted.contains(run))
            .map(|(&v, _)| v)
            .collect();
        assert_eq!(fold.kept, expect, "seed {seed}");
        // the first visit builds the directory from one whole decode; every
        // later one skips the unwanted runs without decoding them
        let expect_skipped = if seed == 0 {
            0
        } else {
            distinct.len() - fold.wanted.len()
        };
        assert_eq!(
            cursor.skipped_runs() - skipped,
            expect_skipped as u64,
            "seed {seed}"
        );
    }
    assert_eq!(cursor.hits(), 23);
    assert!(cursor.skipped_runs() > 0);
    std::fs::remove_file(&path).ok();
}

/// Routes over the hub store equal the in-memory router's: the Morton
/// store's hub hops go through the run directory and skip runs, while the
/// as-sampled store (no bounds) takes the whole-list path and skips none.
#[test]
fn hub_routes_are_bitwise_identical_through_the_run_directory() {
    let (morton, _, sampled) = hub_store_girgs();
    let skipped = check_mapped_routes("hub-routes", &morton, true);
    assert!(skipped > 0, "the hub's runs were never skipped");
    let skipped = check_mapped_routes("hub-routes-as-sampled", &sampled, false);
    assert_eq!(skipped, 0);
}

/// A loaded graph's run directory is derived data: building it changes
/// neither equality with a fresh load of the same store nor the `Debug`
/// output, and neither a clone nor a relabeled copy inherits it.
#[test]
fn a_built_run_directory_leaves_the_graph_unchanged() {
    let (girg, hub, _) = hub_store_girgs();
    let path = temp_path("directory-identity");
    smallworld_store::save_girg(&girg, &path, 1).unwrap();
    let store = GraphStore::open(&path).unwrap();
    let graph = store.load_graph().unwrap();
    let before = format!("{graph:?}");
    assert!(
        graph.run_directory().is_none(),
        "loading builds no directory"
    );
    assert!(graph.degree(hub) >= DIRECTORY_MIN_IDS);
    let mut fold = SeededFold {
        rng: StdRng::seed_from_u64(5),
        asked: Vec::new(),
        wanted: Vec::new(),
        kept: Vec::new(),
    };
    (&graph).fold_runs(hub, &mut fold);
    let dir = graph
        .run_directory()
        .expect("a long list's run fold builds it");
    assert!(dir.list_count() > 0 && dir.entry_count() >= dir.list_count());
    assert!(dir.bytes() > 0);

    let fresh = store.load_graph().unwrap();
    assert!(fresh.run_directory().is_none());
    assert_eq!(graph, fresh);
    assert_eq!(format!("{graph:?}"), before);
    assert_eq!(format!("{fresh:?}"), before);
    assert!(
        graph.clone().run_directory().is_none(),
        "a clone starts without one"
    );
    let perm = girg.morton_permutation();
    assert!(
        graph.relabel(&perm).run_directory().is_none(),
        "a relabeled copy starts without one"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn sharded_handoff_routing_matches_global_at_every_shard_count() {
    let mut rng = StdRng::seed_from_u64(21);
    let girg: Girg<2> = GirgBuilder::new(1_600).sample(&mut rng).unwrap();
    let girg = girg.relabel(&girg.morton_permutation());
    let pairs = trial_pairs(girg.node_count(), 200);

    let reference: Vec<RouteRecord> = {
        let router = GreedyRouter::new();
        let objective = GirgObjective::new(&girg);
        pairs
            .iter()
            .map(|&(s, t)| router.route_quiet(girg.graph(), &objective, s, t))
            .collect()
    };

    for shard_count in [1usize, 2, 4, 8] {
        let path = temp_path(&format!("handoff-{shard_count}"));
        smallworld_store::save_girg(&girg, &path, shard_count).unwrap();
        let store = GraphStore::open(&path).unwrap();
        let positions = store.packed_positions().unwrap();
        let weights = store.packed_weights().unwrap();
        let (params, _) = store.params().unwrap();
        let packed =
            PackedGirgObjective::<2>::new(&positions, &weights, params.wmin * params.intensity);

        // single-shard stores carry no SHARDS section: the whole graph is
        // one slice with an empty boundary
        let whole;
        let sharded;
        let locals: Vec<Graph>;
        let mut slices: Vec<ShardSlice<'_, &Graph>> = if shard_count == 1 {
            whole = store.load_graph().unwrap();
            vec![ShardSlice {
                start: 0,
                end: whole.node_count() as u32,
                local: &whole,
                boundary: &[],
            }]
        } else {
            sharded = store.load_shards().unwrap();
            locals = sharded
                .shards()
                .iter()
                .map(|s| s.local_graph().unwrap())
                .collect();
            sharded
                .shards()
                .iter()
                .zip(&locals)
                .map(|(s, local)| ShardSlice {
                    start: s.spec().nodes.start,
                    end: s.spec().nodes.end,
                    local,
                    boundary: s.boundary(),
                })
                .collect()
        };

        let mut handoffs = 0u64;
        for (i, &(s, t)) in pairs.iter().enumerate() {
            let kernel = packed.prepare(t);
            let route = route_sharded(&mut slices, &kernel, s, DEFAULT_MAX_STEPS);
            assert_eq!(route.record, reference[i], "shards={shard_count}, pair {i}");
            handoffs += route.handoffs;
        }
        if shard_count == 1 {
            assert_eq!(handoffs, 0, "a single shard has no boundary to cross");
        } else {
            assert!(
                handoffs > 0,
                "shards={shard_count}: routes never crossed a boundary"
            );
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn truncated_files_never_reach_the_mapped_path() {
    let mut rng = StdRng::seed_from_u64(5);
    let girg: Girg<2> = GirgBuilder::new(300).sample(&mut rng).unwrap();
    let path = temp_path("truncate");
    smallworld_store::save_girg(&girg, &path, 2).unwrap();
    let bytes = std::fs::read(&path).unwrap();

    // a prefix must fail before a MappedGraph can be constructed — either
    // the open itself (header/section-table/checksum) or the mapped view's
    // offsets validation — unless it only sheds trailing zero padding, in
    // which case the decoded adjacency must still be exactly the original
    let cut = temp_path("truncate-cut");
    let mut lengths: Vec<usize> = (1..16).map(|k| bytes.len() * k / 16).collect();
    lengths.push(bytes.len() - 1);
    let mut rejected = 0;
    for len in lengths {
        std::fs::write(&cut, &bytes[..len]).unwrap();
        match GraphStore::open(&cut).and_then(|s| s.mapped_graph().and_then(|m| m.decode())) {
            Ok(graph) => assert_eq!(
                &graph,
                girg.graph(),
                "prefix of {len} bytes changed the mapped adjacency"
            ),
            Err(e) => {
                let _typed: smallworld_store::StoreError = e;
                rejected += 1;
            }
        }
    }
    assert!(rejected >= 14, "almost every prefix must be rejected outright");
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&cut).ok();
}

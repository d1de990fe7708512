//! Property suite for the store's codec and container layers.
//!
//! Three contracts:
//!
//! 1. **The varint/delta codec is lossless** on arbitrary value sets and on
//!    sorted lists with adversarial gap distributions (dense runs, gaps
//!    straddling every LEB128 length boundary, near-`u32::MAX` jumps).
//! 2. **A written store reproduces the graph bit for bit** — sampling a
//!    GIRG, writing `.swg`, reopening, and decoding yields the identical
//!    adjacency, geometry, and parameters, at any shard count.
//! 3. **Corruption never panics and is never silent** — flipping any
//!    byte of a written file either gives a typed error (at open, at load,
//!    or in the cursor of a route that reads it, since NBR is checked on
//!    first touch) or (for bytes in inter-section padding) leaves the
//!    loaded graph and every route identical.
//!
//! The vendored `proptest!` macro is a recursive muncher, so the checks
//! live in plain `fn`s (failures panic via `assert!`) and the macro
//! clauses stay one-liners.

mod common;

use std::sync::atomic::{AtomicUsize, Ordering};

use common::{rewrite_header_crc, rewrite_nbr_crcs, section_extent};

use proptest::collection::vec;
use proptest::prelude::ProptestConfig;
use proptest::proptest;
use rand::rngs::StdRng;
use rand::SeedableRng;
use smallworld_core::{
    GirgObjective, GreedyRouter, Objective, PackedGirgObjective, RouteRecord, Router,
};
use smallworld_graph::NodeId;
use smallworld_models::girg::{Girg, GirgBuilder};
use smallworld_store::{varint, CompressedCsr, GraphStore, SectionId, ShardedStore, StoreError};

fn temp_path(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "smallworld-store-props-{}-{tag}-{seq}.swg",
        std::process::id()
    ))
}

fn check_varint_roundtrip(values: &[u64]) {
    let mut buf = Vec::new();
    for &v in values {
        varint::write_u64(v, &mut buf);
    }
    let mut at = 0usize;
    for &v in values {
        let (decoded, used) = varint::read_u64(&buf[at..]).expect("valid stream");
        assert_eq!(decoded, v);
        assert!((1..=varint::MAX_LEN).contains(&used));
        at += used;
    }
    assert_eq!(at, buf.len(), "no trailing bytes");
}

/// Builds a strictly increasing list from raw draws: each draw contributes
/// a gap whose magnitude class cycles through dense (1–2), medium, and the
/// LEB128 length boundaries (127/128, 16383/16384, …), which is where an
/// off-by-one in the continuation bit would hide.
fn gaps_to_list(draws: &[u32]) -> Vec<u32> {
    let mut list = Vec::with_capacity(draws.len());
    let mut cur: u64 = u64::from(draws.first().copied().unwrap_or(0) % 4);
    for (i, &d) in draws.iter().enumerate() {
        let gap: u64 = match i % 5 {
            0 => 1 + u64::from(d % 2),
            1 => 1 + u64::from(d % 1_000),
            2 => 126 + u64::from(d % 5),    // straddle the 1/2-byte boundary
            3 => 16_382 + u64::from(d % 5), // straddle the 2/3-byte boundary
            _ => 1 + u64::from(d % (1 << 24)),
        };
        if i > 0 {
            cur += gap;
        }
        if cur > u64::from(u32::MAX) {
            break;
        }
        list.push(cur as u32);
    }
    list
}

fn check_sorted_codec_roundtrip(list: &[u32]) {
    let mut buf = Vec::new();
    varint::encode_sorted(list, &mut buf);
    let mut out = Vec::new();
    varint::decode_sorted(&buf, &mut out).expect("own encoding decodes");
    assert_eq!(out, list);
    if !list.is_empty() {
        // dropping the final byte either breaks a multi-byte varint (error)
        // or removes a complete 1-byte entry (the exact prefix) — it can
        // never decode to anything else
        let mut short = Vec::new();
        match varint::decode_sorted(&buf[..buf.len() - 1], &mut short) {
            Err(_) => {}
            Ok(()) => assert_eq!(short, list[..list.len() - 1]),
        }
    }
}

fn check_graph_roundtrip(n: usize, raw_edges: &[(u32, u32)]) {
    let edges: std::collections::BTreeSet<(u32, u32)> = raw_edges
        .iter()
        .map(|&(a, b)| (a % n as u32, b % n as u32))
        .filter(|&(a, b)| a != b)
        .map(|(a, b)| (a.min(b), a.max(b)))
        .collect();
    let graph = smallworld_graph::Graph::from_edges(n, edges).expect("sanitized edges");
    let compressed = CompressedCsr::from_graph(&graph);
    assert_eq!(compressed.decode().expect("own encoding decodes"), graph);
    for k in [1usize, 3] {
        let sharded = ShardedStore::partition(&graph, k);
        assert_eq!(sharded.assemble().expect("own shards assemble"), graph, "k={k}");
    }
}

fn check_girg_store_roundtrip(seed: u64, n: u64, shards: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let girg: Girg<2> = GirgBuilder::new(n).sample(&mut rng).expect("valid params");
    let path = temp_path("girg");
    smallworld_store::save_girg(&girg, &path, shards).expect("write");
    let store = GraphStore::open(&path).expect("reopen");
    let back: Girg<2> = store.load_girg().expect("load");
    assert_eq!(back.graph(), girg.graph());
    assert_eq!(back.weights(), girg.weights());
    assert_eq!(back.params(), girg.params());
    for (a, b) in back.positions().iter().zip(girg.positions()) {
        assert_eq!(a.coords(), b.coords());
    }
    if shards > 1 {
        let sharded = store.load_shards().expect("shards stored");
        assert_eq!(&sharded.assemble().expect("assemble"), girg.graph());
    }
    std::fs::remove_file(&path).ok();
}

/// Where a flip lands.
#[derive(Clone, Copy, PartialEq)]
enum Flip {
    /// Any byte of the file.
    Anywhere,
    /// A byte of NBR.
    Nbr,
    /// A byte of NBR, with the chunk CRCs (and the CRCs over them)
    /// written again, so the damage reaches the decoders.
    NbrRechecksummed,
}

/// Flips byte `flip_at` (modulo the file, or modulo NBR) of a written
/// store by `xor`.
fn check_corruption_is_detected_or_harmless(seed: u64, flip_at: usize, xor: u8, flip: Flip) {
    let mut rng = StdRng::seed_from_u64(seed);
    let girg: Girg<2> = GirgBuilder::new(120).sample(&mut rng).expect("valid params");
    let path = temp_path("flip");
    smallworld_store::save_girg(&girg, &path, 2).expect("write");
    let mut bytes = std::fs::read(&path).expect("read back");
    let (_, nbr, nbr_len) = section_extent(&bytes, SectionId::Nbr);
    let at = match flip {
        Flip::Anywhere => flip_at % bytes.len(),
        Flip::Nbr | Flip::NbrRechecksummed => nbr + flip_at % nbr_len,
    };
    bytes[at] ^= xor;
    if flip == Flip::NbrRechecksummed {
        rewrite_nbr_crcs(&mut bytes);
        rewrite_header_crc(&mut bytes);
    }
    std::fs::write(&path, &bytes).expect("rewrite");
    let loaded = GraphStore::open(&path).and_then(|s| s.load_girg::<2>());
    match &loaded {
        // only a flip inside zero padding can go unnoticed, and then the
        // content must be untouched
        Ok(back) if flip != Flip::NbrRechecksummed => {
            assert_eq!(back.graph(), girg.graph(), "flip at {at} changed the graph")
        }
        _ => {}
    }
    // the lazy route path: a fresh open, then routes through a cursor; a
    // rechecksummed flip may make another valid graph, which routes
    // differently but still without a panic or a hang
    if let Ok(store) = GraphStore::open(&path) {
        let routes = check_flipped_routes(&store, &girg);
        let harmless = loaded.is_ok_and(|back| back.graph() == girg.graph());
        if let (Ok(routes), true) = (routes, harmless) {
            for (i, (lazy, want)) in routes.iter().enumerate() {
                assert_eq!(lazy, want, "flip at {at}: pair {i} routed differently");
            }
        }
    }
    std::fs::remove_file(&path).ok();
}

/// Routes pairs over `store`'s mapped cursor and over the clean graph,
/// or gives the error the store or the cursor met.
fn check_flipped_routes(
    store: &GraphStore,
    girg: &Girg<2>,
) -> Result<Vec<(RouteRecord, RouteRecord)>, StoreError> {
    let mapped = store.mapped_graph()?;
    let (positions, weights) = (store.packed_positions()?, store.packed_weights()?);
    let (params, _) = store.params()?;
    let packed =
        PackedGirgObjective::<2>::new(&positions, &weights, params.wmin * params.intensity);
    let clean = GirgObjective::new(girg);
    let router = GreedyRouter::new();
    let mut cursor = mapped.cursor();
    let n = girg.node_count();
    let pairs = (0..60).map(|i| {
        (
            NodeId::from_index(i * 7 % n),
            NodeId::from_index((i * 13 + n / 2) % n),
        )
    });
    let routes: Vec<_> = pairs
        .map(|(s, t)| {
            let lazy = router.route_view_quiet(&mut cursor, &packed.prepare(t), s);
            (lazy, router.route_quiet(girg.graph(), &clean, s, t))
        })
        .collect();
    match cursor.take_error() {
        Some(e) => Err(e),
        None => Ok(routes),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn prop_varint_roundtrips_arbitrary_values(values in vec(0u64..=u64::MAX, 0..200)) {
        check_varint_roundtrip(&values);
    }

    #[test]
    fn prop_sorted_codec_roundtrips_adversarial_gaps(draws in vec(0u32..=u32::MAX, 0..300)) {
        check_sorted_codec_roundtrip(&gaps_to_list(&draws));
    }

    #[test]
    fn prop_compressed_csr_and_shards_roundtrip_random_graphs(
        n in 2usize..80,
        edges in vec((0u32..1000, 0u32..1000), 0..300),
    ) {
        check_graph_roundtrip(n, &edges);
    }

    #[test]
    fn prop_written_store_reproduces_the_girg(seed in 0u64..1 << 32, shards in 1usize..5) {
        check_girg_store_roundtrip(seed, 150, shards);
    }

    #[test]
    fn prop_byte_flips_are_detected_or_harmless(
        seed in 0u64..1 << 16,
        flip_at in 0usize..1 << 20,
        xor in 1u8..=255,
    ) {
        check_corruption_is_detected_or_harmless(seed, flip_at, xor, Flip::Anywhere);
    }

    #[test]
    fn prop_nbr_byte_flips_are_typed_errors_on_the_route_path(
        seed in 0u64..1 << 16,
        flip_at in 0usize..1 << 20,
        xor in 1u8..=255,
    ) {
        check_corruption_is_detected_or_harmless(seed, flip_at, xor, Flip::Nbr);
    }

    #[test]
    fn prop_rechecksummed_nbr_flips_never_panic_on_the_route_path(
        seed in 0u64..1 << 16,
        flip_at in 0usize..1 << 20,
        xor in 1u8..=255,
    ) {
        check_corruption_is_detected_or_harmless(seed, flip_at, xor, Flip::NbrRechecksummed);
    }
}

#[test]
fn varint_length_boundaries_are_exact() {
    // each LEB128 length step: 2^(7k) − 1 encodes in k bytes, 2^(7k) in k+1
    for k in 1..=9usize {
        let boundary = 1u64 << (7 * k);
        let mut buf = Vec::new();
        varint::write_u64(boundary - 1, &mut buf);
        assert_eq!(buf.len(), k, "2^{}-1", 7 * k);
        buf.clear();
        varint::write_u64(boundary, &mut buf);
        assert_eq!(buf.len(), k + 1, "2^{}", 7 * k);
    }
}

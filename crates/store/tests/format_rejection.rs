//! Adversarial-input suite for the `.swg` container: malformed, truncated,
//! and checksum-corrupted files must be rejected with typed errors — never
//! a panic, never a silently wrong graph (the on-disk mirror of
//! `smallworld-models`' `garbage_inputs_are_rejected` tests for the text
//! format).

mod common;

use common::{rewrite_header_crc, rewrite_nbr_crcs, section_extent};

use rand::rngs::StdRng;
use rand::SeedableRng;
use smallworld_graph::AdjacencyView;
use smallworld_models::girg::{Girg, GirgBuilder};
use smallworld_models::{GraphModel, KleinbergLatticeBuilder};
use smallworld_store::{
    crc32, write_graph_swg, CompressedCsr, GraphStore, SectionId, StoreError, MAGIC, VERIFY_CHUNK,
    VERSION,
};

fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "smallworld-store-reject-{}-{name}.swg",
        std::process::id()
    ))
}

fn sample_girg(seed: u64) -> Girg<2> {
    let mut rng = StdRng::seed_from_u64(seed);
    GirgBuilder::new(300)
        .beta(2.6)
        .lambda(0.5)
        .sample(&mut rng)
        .unwrap()
}

fn written_girg_bytes(seed: u64, shards: usize) -> (Girg<2>, Vec<u8>) {
    let girg = sample_girg(seed);
    let path = temp_path(&format!("girg-{seed}-{shards}"));
    smallworld_store::save_girg(&girg, &path, shards).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    (girg, bytes)
}

fn open_bytes(bytes: &[u8], name: &str) -> Result<GraphStore, StoreError> {
    let path = temp_path(name);
    std::fs::write(&path, bytes).unwrap();
    let result = GraphStore::open(&path);
    std::fs::remove_file(&path).ok();
    result
}

#[test]
fn kleinberg_graph_roundtrips_through_the_store() {
    // bare graphs (no geometry) use the same container with dim = 0
    let lattice = KleinbergLatticeBuilder::new(20).sample_seeded(5).unwrap();
    let path = temp_path("kleinberg");
    let stats = write_graph_swg(lattice.graph(), &path, 3).unwrap();
    assert!(stats.compressed_csr_bytes < stats.raw_csr_bytes);
    let store = GraphStore::open(&path).unwrap();
    assert_eq!(&store.load_graph().unwrap(), lattice.graph());
    assert!(!store.has_geometry());
    let sharded = store.load_shards().unwrap();
    assert_eq!(&sharded.assemble().unwrap(), lattice.graph());
    // a bare graph cannot be loaded as a GIRG
    assert!(matches!(
        store.load_girg::<2>(),
        Err(StoreError::DimensionMismatch { .. })
    ));
    std::fs::remove_file(&path).ok();
}

#[test]
fn garbage_inputs_are_rejected() {
    assert!(matches!(
        open_bytes(b"", "empty"),
        Err(StoreError::Truncated { .. })
    ));
    assert!(matches!(
        open_bytes(b"not a store file at all", "ascii"),
        Err(StoreError::BadMagic)
    ));
    assert!(matches!(
        open_bytes(&[0u8; 4096], "zeros"),
        Err(StoreError::BadMagic)
    ));
    // correct magic, garbage rest
    let mut bytes = vec![0u8; 4096];
    bytes[..8].copy_from_slice(&MAGIC);
    let result = open_bytes(&bytes, "magic-only");
    assert!(result.is_err(), "magic alone must not open");
}

#[test]
fn unsupported_version_is_rejected_by_number() {
    let (_, mut bytes) = written_girg_bytes(1, 1);
    // the version field sits right after the 8-byte magic
    bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
    match open_bytes(&bytes, "version") {
        Err(StoreError::UnsupportedVersion(v)) => assert_eq!(v, 99),
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

/// A version-1 store (whole-section NBR checksum) is refused by number,
/// and the message says how to write the store again.
#[test]
fn version_one_store_is_refused_with_a_regeneration_hint() {
    assert_eq!(VERSION, 2);
    let (_, mut bytes) = written_girg_bytes(1, 1);
    bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
    rewrite_header_crc(&mut bytes);
    match open_bytes(&bytes, "version-one") {
        Err(e @ StoreError::UnsupportedVersion(1)) => {
            let message = e.to_string();
            assert!(message.contains("version 1"), "{message}");
            assert!(message.contains("girg_gen --out"), "{message}");
        }
        other => panic!("expected UnsupportedVersion(1), got {other:?}"),
    }
}

#[test]
fn truncated_files_are_rejected() {
    let (_, bytes) = written_girg_bytes(2, 2);
    // every short prefix: dense coverage of the header and section table,
    // then page-boundary and mid-section cuts across the payload
    let mut cuts: Vec<usize> = (0..bytes.len().min(256)).collect();
    let mut at = 256;
    while at < bytes.len() {
        cuts.push(at);
        cuts.push(at + 97);
        at += 4096;
    }
    for cut in cuts {
        // cuts within a page of the end may only shave zero padding off the
        // tail, which leaves every section intact — skip those
        if cut + 4096 > bytes.len() {
            continue;
        }
        let result = open_bytes(&bytes[..cut], "trunc");
        assert!(result.is_err(), "prefix of {cut} bytes must be rejected");
    }
}

/// Flips one byte in each section payload region (past the first page).
/// A flip in an eager section fails open with its checksum; a flip in NBR
/// opens, and fails its chunk's checksum on first touch: in `load_girg`,
/// and in a cursor visiting every list, which presents the lists of that
/// chunk as empty. Only padding between sections goes unchecked.
#[test]
fn flipped_section_bytes_fail_their_checksum() {
    let (girg, bytes) = written_girg_bytes(3, 2);
    let (_, nbr_at, nbr_len) = section_extent(&bytes, SectionId::Nbr);
    let nbr_mismatch =
        |e: &StoreError| matches!(e, StoreError::ChecksumMismatch { section: "NBR" });
    let mut at = 4096 + 13;
    let (mut eager, mut lazy) = (0, 0);
    while at < bytes.len() {
        let mut corrupt = bytes.clone();
        corrupt[at] ^= 0x40;
        let path = temp_path("flip");
        std::fs::write(&path, &corrupt).unwrap();
        let in_nbr = (nbr_at..nbr_at + nbr_len).contains(&at);
        match GraphStore::open(&path) {
            Err(StoreError::ChecksumMismatch { section }) => {
                assert!(!in_nbr, "flip at {at}: open read NBR ({section})");
                eager += 1;
            }
            Err(other) => panic!("flip at {at}: expected ChecksumMismatch, got {other:?}"),
            Ok(store) if in_nbr => {
                let loaded = store.load_girg::<2>().map(|_| ());
                assert!(
                    loaded.as_ref().is_err_and(nbr_mismatch),
                    "flip at {at}: {loaded:?}"
                );
                let reopened = GraphStore::open(&path).unwrap();
                let mapped = reopened.mapped_graph().unwrap();
                let mut cursor = mapped.cursor();
                let mut empty = 0;
                for v in girg.graph().nodes() {
                    let len = cursor.with_neighbors(v, |ns| ns.len());
                    empty += usize::from(len == 0 && girg.graph().degree(v) > 0);
                }
                let error = cursor.take_error();
                assert!(
                    error.as_ref().is_some_and(nbr_mismatch),
                    "flip at {at}: {error:?}"
                );
                assert!(empty > 0, "flip at {at}: every list was presented");
                lazy += 1;
            }
            // padding bytes between sections are not covered by any CRC
            Ok(store) => assert_eq!(store.load_girg::<2>().unwrap().graph(), girg.graph()),
        }
        std::fs::remove_file(&path).ok();
        at += 2048;
    }
    assert!(eager > 0 && lazy > 0, "{eager} eager and {lazy} NBR flips");
}

#[test]
fn header_checksum_covers_the_section_table() {
    let (_, mut bytes) = written_girg_bytes(4, 1);
    // flip a byte inside the section table (starts at offset 64)
    bytes[64 + 9] ^= 0x01;
    assert!(matches!(
        open_bytes(&bytes, "table"),
        Err(StoreError::ChecksumMismatch { section: "header" })
    ));
}

/// Overwrites 8-byte word `word` of section `id`'s payload with `value`,
/// as [`poke_section_bytes`] does.
fn poke_section_word(bytes: &mut [u8], id: SectionId, word: usize, value: [u8; 8]) {
    poke_section_bytes(bytes, id, 8 * word, &value);
}

/// Overwrites section `id`'s payload from byte `at` with `value`, then
/// rewrites that section's CRC (for NBR, its chunk CRCs in NBR_CRC and
/// that section's CRC) and the header CRC so the file still opens and
/// decodes: the damage reaches the accessors instead of the checksums.
fn poke_section_bytes(bytes: &mut [u8], id: SectionId, at: usize, value: &[u8]) {
    let (entry, offset, len) = section_extent(bytes, id);
    bytes[offset + at..offset + at + value.len()].copy_from_slice(value);
    if id == SectionId::Nbr {
        rewrite_nbr_crcs(bytes);
    } else {
        let section_crc = crc32(&bytes[offset..offset + len]);
        bytes[entry + 4..entry + 8].copy_from_slice(&section_crc.to_le_bytes());
    }
    rewrite_header_crc(bytes);
}

/// [`poke_section_word`] on the first `f64` of the section.
fn poke_section_f64(bytes: &mut [u8], id: SectionId, value: f64) {
    poke_section_word(bytes, id, 0, value.to_le_bytes());
}

/// Section `id`'s payload as little-endian 8-byte words.
fn section_words(bytes: &[u8], id: SectionId) -> Vec<[u8; 8]> {
    let (_, offset, len) = section_extent(bytes, id);
    bytes[offset..offset + len].as_chunks::<8>().0.to_vec()
}

#[test]
fn non_finite_geometry_with_valid_checksums_is_a_typed_error() {
    let (_, clean) = written_girg_bytes(6, 1);
    for (id, value) in [
        (SectionId::Pos, f64::NAN),
        (SectionId::Pos, 1.0),
        (SectionId::Weight, f64::INFINITY),
    ] {
        let mut bytes = clean.clone();
        poke_section_f64(&mut bytes, id, value);
        let path = temp_path("poke");
        std::fs::write(&path, &bytes).unwrap();
        let store = GraphStore::open(&path).expect("checksums were rewritten");
        let lane = match id {
            SectionId::Pos => store.packed_positions(),
            _ => store.packed_weights(),
        };
        assert!(
            matches!(lane, Err(StoreError::Corrupt(_))),
            "{id:?} = {value}: expected Corrupt, got {lane:?}"
        );
        assert!(
            matches!(store.load_girg::<2>(), Err(StoreError::Corrupt(_))),
            "{id:?} = {value}: load_girg must reject it too"
        );
        drop(store);
        std::fs::remove_file(&path).ok();
    }
}

/// Asserts `load_graph` and `load_girg` give the `Result` of the
/// list-by-list reference decode of the store's adjacency, and returns it.
fn assert_loads_as_reference(store: &GraphStore, context: &str) -> common::Outcome {
    let want = common::outcome(
        store
            .mapped_graph()
            .and_then(|csr| common::reference_decode(&csr)),
    );
    assert_eq!(
        common::outcome(store.load_graph()),
        want,
        "{context}: load_graph"
    );
    let girg = store.load_girg::<2>().map(|girg| girg.graph().clone());
    assert_eq!(common::outcome(girg), want, "{context}: load_girg");
    want
}

/// Open checks OFFSETS, POS and WEIGHT one verify chunk at a time, right
/// after each chunk's CRC, and the accessors report what it found. A bad
/// value as the first or the last word of a chunk (and of the section)
/// must give the error a whole-section scan gives, from the same calls,
/// while the store still opens.
#[test]
fn bad_values_at_verify_chunk_edges_give_the_accessors_errors() {
    let mut rng = StdRng::seed_from_u64(8);
    let girg: Girg<2> = GirgBuilder::new(12_000)
        .beta(2.6)
        .lambda(0.02)
        .sample(&mut rng)
        .unwrap();
    let n = girg.graph().node_count();
    let path = temp_path("chunk-edges");
    smallworld_store::save_girg(&girg, &path, 1).unwrap();
    let clean = std::fs::read(&path).unwrap();
    let per_chunk = VERIFY_CHUNK / 8;
    assert!(2 * n > 2 * per_chunk, "POS spans three verify chunks");
    assert!(n > per_chunk, "OFFSETS and WEIGHT span two verify chunks");
    let edges = |words: usize| {
        let mut at = vec![0, per_chunk - 1, per_chunk, words - 1];
        if words > 2 * per_chunk {
            at.push(2 * per_chunk - 1);
        }
        at
    };
    // an outcome compares by variant and message
    let outcome = |result: Result<(), StoreError>| result.map_err(|e| format!("{e:?}"));
    let corrupt = |msg: &str| Err(format!("{:?}", StoreError::Corrupt(msg.into())));
    let reopen = |bytes: &[u8]| {
        std::fs::write(&path, bytes).unwrap();
        GraphStore::open(&path).expect("checksums were rewritten")
    };

    // OFFSETS: a whole-index `CompressedCsr::from_parts` is the reference
    // (a 0 at word 0 or a 1 right after a 0 changes nothing, and a huge
    // last word fails the cover check, not the scan)
    let offset_words = n + 1;
    let nbr_len = section_extent(&clean, SectionId::Nbr).2;
    let mut decreasing = 0;
    for word in edges(offset_words) {
        for value in [0, 1, u64::MAX] {
            let mut bytes = clean.clone();
            poke_section_word(&mut bytes, SectionId::Offsets, word, value.to_le_bytes());
            let offsets: Vec<u64> = section_words(&bytes, SectionId::Offsets)
                .into_iter()
                .map(u64::from_le_bytes)
                .collect();
            let nbr = vec![0u8; nbr_len];
            let target_count = girg.graph().edge_count() * 2;
            let want =
                outcome(CompressedCsr::from_parts(offsets, nbr, n, target_count).map(|_| ()));
            decreasing += usize::from(want == corrupt("compressed offsets decrease"));
            let store = reopen(&bytes);
            let got = [
                ("mapped_graph", store.mapped_graph().map(|_| ())),
                ("load_graph", store.load_graph().map(|_| ())),
                ("load_girg", store.load_girg::<2>().map(|_| ())),
            ];
            for (call, result) in got {
                assert_eq!(outcome(result), want, "OFFSETS[{word}] = {value}: {call}");
            }
            let _ = assert_loads_as_reference(&store, &format!("OFFSETS[{word}] = {value}"));
            assert!(store.packed_positions().is_ok() && store.packed_weights().is_ok());
        }
    }
    assert!(
        decreasing >= 6,
        "{decreasing} pokes made the offsets decrease"
    );

    // NBR: a whole-section list-by-list decode is the reference; bytes at
    // the ends of the section and of its verify chunks, and the first and
    // last byte of lists, set to end a varint, continue one, or make a
    // long one
    let nbr_offsets: Vec<u64> = section_words(&clean, SectionId::Offsets)
        .into_iter()
        .map(u64::from_le_bytes)
        .collect();
    let mut at = vec![0, VERIFY_CHUNK - 1, VERIFY_CHUNK, nbr_len - 1];
    for v in [1, n / 2, n - 1] {
        let (start, end) = (nbr_offsets[v] as usize, nbr_offsets[v + 1] as usize);
        if start < end {
            at.extend([start, end - 1]);
        }
    }
    let mut faults = 0;
    for &byte in at.iter().filter(|&&byte| byte < nbr_len) {
        for value in [0x00u8, 0x01, 0x7f, 0x80, 0xff] {
            let mut bytes = clean.clone();
            poke_section_bytes(&mut bytes, SectionId::Nbr, byte, &[value]);
            let store = reopen(&bytes);
            let context = format!("NBR[{byte}] = {value:#x}");
            faults += usize::from(assert_loads_as_reference(&store, &context).is_err());
        }
    }
    assert!(faults >= 10, "{faults} NBR pokes made the adjacency fail");

    // POS: the first coordinate outside [0, 1) names the error
    for word in edges(2 * n) {
        for value in [f64::NAN, 1.0, -0.5, f64::INFINITY] {
            let mut bytes = clean.clone();
            poke_section_word(&mut bytes, SectionId::Pos, word, value.to_le_bytes());
            let want = corrupt(&format!(
                "position coordinate {value} outside the canonical torus"
            ));
            let store = reopen(&bytes);
            assert_eq!(outcome(store.packed_positions().map(|_| ())), want);
            assert_eq!(outcome(store.load_girg::<2>().map(|_| ())), want);
            assert!(store.mapped_graph().is_ok() && store.packed_weights().is_ok());
        }
    }
    // two bad coordinates in different chunks: the earlier one is named
    let mut bytes = clean.clone();
    poke_section_word(&mut bytes, SectionId::Pos, 2 * n - 1, 2.0f64.to_le_bytes());
    poke_section_word(
        &mut bytes,
        SectionId::Pos,
        per_chunk - 1,
        3.0f64.to_le_bytes(),
    );
    let store = reopen(&bytes);
    assert_eq!(
        outcome(store.packed_positions().map(|_| ())),
        corrupt("position coordinate 3 outside the canonical torus")
    );

    // WEIGHT
    for word in edges(n) {
        for value in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut bytes = clean.clone();
            poke_section_word(&mut bytes, SectionId::Weight, word, value.to_le_bytes());
            let store = reopen(&bytes);
            let want = corrupt("non-finite vertex weight");
            assert_eq!(outcome(store.packed_weights().map(|_| ())), want);
            assert_eq!(outcome(store.load_girg::<2>().map(|_| ())), want);
            assert!(store.mapped_graph().is_ok() && store.packed_positions().is_ok());
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn absurd_header_counts_with_valid_checksums_are_a_typed_error() {
    const NODE_COUNT: usize = 24;
    const TARGET_COUNT: usize = 32;
    let (_, clean) = written_girg_bytes(7, 1);
    let n = u64::from_le_bytes(clean[NODE_COUNT..NODE_COUNT + 8].try_into().unwrap());
    for (field, value) in [
        (TARGET_COUNT, 1u64 << 62),
        (NODE_COUNT, u64::MAX),
        (NODE_COUNT, 1 << 61),
        // n · d wraps around to the true POS size unless the product is checked
        (NODE_COUNT, (1 << 63) + n),
    ] {
        let mut bytes = clean.clone();
        bytes[field..field + 8].copy_from_slice(&value.to_le_bytes());
        rewrite_header_crc(&mut bytes);
        let path = temp_path("counts");
        std::fs::write(&path, &bytes).unwrap();
        let store = GraphStore::open(&path).expect("the header checksum was rewritten");
        let results = [
            ("mapped_graph", store.mapped_graph().map(|_| ())),
            ("load_graph", store.load_graph().map(|_| ())),
            ("load_girg", store.load_girg::<2>().map(|_| ())),
            ("packed_positions", store.packed_positions().map(|_| ())),
        ];
        for (call, result) in results {
            // the POS size depends on the node count only
            if field == TARGET_COUNT && call == "packed_positions" {
                assert!(result.is_ok(), "{call}: {result:?}");
                continue;
            }
            assert!(
                matches!(result, Err(StoreError::Corrupt(_))),
                "header byte {field} = {value}: {call} gave {result:?}"
            );
        }
        drop(store);
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn wrong_dimension_is_a_typed_error() {
    let (_, bytes) = written_girg_bytes(5, 1);
    let path = temp_path("dim");
    std::fs::write(&path, &bytes).unwrap();
    let store = GraphStore::open(&path).unwrap();
    match store.load_girg::<3>() {
        Err(StoreError::DimensionMismatch { file, expected }) => {
            assert_eq!(file, 2);
            assert_eq!(expected, 3);
        }
        other => panic!("expected DimensionMismatch, got {other:?}"),
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn legacy_text_errors_carry_through_the_unified_error_type() {
    let path = std::env::temp_dir().join(format!(
        "smallworld-store-reject-{}-legacy.txt",
        std::process::id()
    ));
    std::fs::write(&path, "not a girg file\n").unwrap();
    assert!(matches!(
        smallworld_store::load_girg::<2>(&path),
        Err(StoreError::Legacy(_))
    ));
    std::fs::remove_file(&path).ok();
}

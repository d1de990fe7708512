//! Adversarial-input suite for the `.swg` container: malformed, truncated,
//! and checksum-corrupted files must be rejected with typed errors — never
//! a panic, never a silently wrong graph (the on-disk mirror of
//! `smallworld-models`' `garbage_inputs_are_rejected` tests for the text
//! format).

use rand::rngs::StdRng;
use rand::SeedableRng;
use smallworld_models::girg::{Girg, GirgBuilder};
use smallworld_models::{GraphModel, KleinbergLatticeBuilder};
use smallworld_store::{
    crc32, write_graph_swg, GraphStore, SectionId, StoreError, MAGIC,
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

#[test]
fn flipped_section_bytes_fail_their_checksum() {
    let (_, bytes) = written_girg_bytes(3, 2);
    // flip one byte in each section payload region (past the first page);
    // the per-section CRC must catch every one
    let mut at = 4096 + 13;
    let mut checked = 0;
    while at < bytes.len() {
        let mut corrupt = bytes.clone();
        corrupt[at] ^= 0x40;
        if corrupt[at] != bytes[at] {
            match open_bytes(&corrupt, "flip") {
                Err(StoreError::ChecksumMismatch { .. }) => checked += 1,
                // padding bytes between sections are not covered by any CRC
                Ok(_) => {}
                Err(other) => panic!("flip at {at}: expected ChecksumMismatch, got {other:?}"),
            }
        }
        at += 2048;
    }
    assert!(checked > 0, "at least one flip must land in a section");
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

/// Overwrites the first `f64` of section `id`'s payload with `value`, then
/// rewrites that section's CRC and the header CRC so the file still opens:
/// the damage reaches the geometry accessors instead of the checksums.
fn poke_section_f64(bytes: &mut [u8], id: SectionId, value: f64) {
    let count = u32::from_le_bytes(bytes[40..44].try_into().unwrap()) as usize;
    let table_end = 64 + count * 24;
    let entry = (64..table_end)
        .step_by(24)
        .find(|&at| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) == id as u32)
        .expect("section present");
    let field = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    let (offset, len) = (field(entry + 8), field(entry + 16));
    bytes[offset..offset + 8].copy_from_slice(&value.to_le_bytes());
    let section_crc = crc32(&bytes[offset..offset + len]);
    bytes[entry + 4..entry + 8].copy_from_slice(&section_crc.to_le_bytes());
    let header_crc = crc32(&[&bytes[..44], &bytes[64..table_end]].concat());
    bytes[44..48].copy_from_slice(&header_crc.to_le_bytes());
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

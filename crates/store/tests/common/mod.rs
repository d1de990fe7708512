//! The reference a whole-adjacency decode answers to: the list-by-list
//! decode the store used before its one checked pass; and the section
//! table helpers that damage a written store's bytes behind valid
//! checksums.

// each test crate uses a part of this module
#![allow(dead_code)]

use smallworld_graph::{Graph, NodeId};
use smallworld_store::{crc32, CompressedCsr, SectionId, StoreError, VERIFY_CHUNK};

/// A decode's outcome, its error compared by variant and message.
pub type Outcome = Result<Graph, String>;

/// The outcome of `result`.
pub fn outcome(result: Result<Graph, StoreError>) -> Outcome {
    result.map_err(|e| format!("{e:?}"))
}

/// Decodes `csr` vertex by vertex through `CompressedCsr::decode_into`,
/// checks the header's target count, and builds the graph with
/// `Graph::from_sorted_csr`, which checks every list again.
pub fn reference_decode(csr: &CompressedCsr<'_>) -> Result<Graph, StoreError> {
    let mut offsets = vec![0usize];
    let mut targets = Vec::new();
    let mut list = Vec::new();
    for v in 0..csr.node_count() {
        list.clear();
        csr.decode_into(v, &mut list)?;
        targets.extend(list.iter().map(|&id| NodeId::new(id)));
        offsets.push(targets.len());
    }
    if targets.len() != csr.target_count() {
        return Err(StoreError::Corrupt(format!(
            "decoded {} adjacency entries, header claims {}",
            targets.len(),
            csr.target_count()
        )));
    }
    Ok(Graph::from_sorted_csr(offsets, targets)?)
}

/// Asserts `CompressedCsr::decode` gives the reference's outcome on
/// `csr`, and returns it.
pub fn assert_decodes_as_reference(csr: &CompressedCsr<'_>) -> Outcome {
    let want = outcome(reference_decode(csr));
    assert_eq!(
        outcome(csr.decode()),
        want,
        "{} vertices, {} NBR bytes",
        csr.node_count(),
        csr.data().len()
    );
    want
}

/// The table entry offset, payload offset and payload length of section
/// `id` in a written store.
pub fn section_extent(bytes: &[u8], id: SectionId) -> (usize, usize, usize) {
    let count = u32::from_le_bytes(bytes[40..44].try_into().unwrap()) as usize;
    let table_end = 64 + count * 24;
    let entry = (64..table_end)
        .step_by(24)
        .find(|&at| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) == id as u32)
        .expect("section present");
    let field = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    (entry, field(entry + 8), field(entry + 16))
}

/// Writes NBR's chunk CRCs into NBR_CRC again, and that section's CRC, for
/// the NBR bytes as they now are.
pub fn rewrite_nbr_crcs(bytes: &mut [u8]) {
    let (_, offset, len) = section_extent(bytes, SectionId::Nbr);
    let crcs: Vec<u8> = bytes[offset..offset + len]
        .chunks(VERIFY_CHUNK)
        .flat_map(|chunk| crc32(chunk).to_le_bytes())
        .collect();
    let (entry, offset, len) = section_extent(bytes, SectionId::NbrCrc);
    assert_eq!(crcs.len(), len);
    bytes[offset..offset + len].copy_from_slice(&crcs);
    bytes[entry + 4..entry + 8].copy_from_slice(&crc32(&crcs).to_le_bytes());
}

/// Recomputes the header CRC over header bytes 0..44 and the section table.
pub fn rewrite_header_crc(bytes: &mut [u8]) {
    let count = u32::from_le_bytes(bytes[40..44].try_into().unwrap()) as usize;
    let table_end = 64 + count * 24;
    let header_crc = crc32(&[&bytes[..44], &bytes[64..table_end]].concat());
    bytes[44..48].copy_from_slice(&header_crc.to_le_bytes());
}

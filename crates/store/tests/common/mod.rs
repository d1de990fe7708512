//! The reference a whole-adjacency decode answers to: the list-by-list
//! decode the store used before its one checked pass.

// each test crate uses a part of this module
#![allow(dead_code)]

use smallworld_graph::{Graph, NodeId};
use smallworld_store::{CompressedCsr, StoreError};

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

//! Compressed CSR: delta+varint neighbor streams behind a fixed-width
//! byte-offset index — the store's one compressed-adjacency type.
//!
//! The layout mirrors an ordinary CSR — `offsets[v]..offsets[v+1]` delimits
//! vertex `v`'s data — except the per-vertex payload is the
//! [`varint`](crate::varint) delta stream of its sorted neighbor list
//! instead of raw `u32`s. Random access to any single vertex's neighbors
//! therefore stays O(degree), while a Morton-relabeled graph compresses to
//! a fraction of the raw 4 bytes per half-edge.
//!
//! A [`CompressedCsr`] either owns its arrays (built by
//! [`CompressedCsr::from_graph`] for the writers and the shard partition,
//! or parsed from a SHARDS section) or borrows them straight from a mapped
//! store ([`GraphStore::mapped_graph`](crate::GraphStore::mapped_graph)).
//! Both forms pass the same validation in [`CompressedCsr::from_parts`] and
//! share one decoder and one caching cursor
//! ([`CompressedCsr::cursor`]). A borrowed CSR also carries its store's
//! NBR chunk checksums: every decode checks the chunks it reads the first
//! time any decode of the store reads them.

use std::borrow::Cow;

use smallworld_graph::{Graph, NodeId};

use crate::chunks::NbrChunks;
use crate::mmap::huge_page_vec;
use crate::varint;
use crate::StoreError;

/// A compressed CSR adjacency: the OFFSETS and NBR sections of a `.swg`
/// store, owned or borrowed from the mapping. Two CSRs are equal when
/// their offsets, data and target counts are.
#[derive(Clone, Debug)]
pub struct CompressedCsr<'a> {
    /// `offsets[v]..offsets[v+1]` delimits `data` for vertex `v`;
    /// `offsets.len() == node_count + 1`.
    offsets: Cow<'a, [u64]>,
    /// Concatenated varint delta streams.
    data: Cow<'a, [u8]>,
    /// Total neighbor-list entries (`2m` for an undirected graph).
    target_count: usize,
    /// The store's NBR chunk checksums, when `data` is a store's NBR
    /// section; `None` for data this process encoded or verified whole.
    chunks: Option<&'a NbrChunks>,
}

impl PartialEq for CompressedCsr<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.offsets == other.offsets
            && self.data == other.data
            && self.target_count == other.target_count
    }
}

impl Eq for CompressedCsr<'_> {}

impl CompressedCsr<'static> {
    /// Compresses a graph's adjacency. The graph is not consumed; the
    /// result is independent of it.
    pub fn from_graph(graph: &Graph) -> CompressedCsr<'static> {
        // Morton-relabeled graphs average ~1–2 bytes per entry; reserve a
        // middle-ground estimate to avoid repeated regrowth.
        let data_capacity = graph.edge_count().saturating_mul(4);
        Self::encode(graph.node_count(), data_capacity, |v, list| {
            list.extend(
                graph
                    .neighbors(NodeId::from_index(v))
                    .iter()
                    .map(|t| t.raw()),
            );
        })
    }

    /// Compresses `node_count` neighbor lists into data reserved at
    /// `data_capacity` bytes: `fill(v, list)` appends vertex `v`'s strictly
    /// increasing list to the empty `list`.
    pub(crate) fn encode(
        node_count: usize,
        data_capacity: usize,
        mut fill: impl FnMut(usize, &mut Vec<u32>),
    ) -> CompressedCsr<'static> {
        let mut offsets = Vec::with_capacity(node_count + 1);
        let mut data = Vec::with_capacity(data_capacity);
        let mut target_count = 0usize;
        offsets.push(0);
        let mut list: Vec<u32> = Vec::new();
        for v in 0..node_count {
            list.clear();
            fill(v, &mut list);
            varint::encode_sorted(&list, &mut data);
            target_count += list.len();
            offsets.push(data.len() as u64);
        }
        CompressedCsr {
            offsets: Cow::Owned(offsets),
            data: Cow::Owned(data),
            target_count,
            chunks: None,
        }
    }
}

impl<'a> CompressedCsr<'a> {
    /// Assembles a compressed CSR of `node_count` vertices from its offset
    /// index and varint data, borrowed or owned, validating everything
    /// except the varint streams themselves (those are checked on decode).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Corrupt`] unless `offsets` holds
    /// `node_count + 1` entries that start at 0, never decrease and end at
    /// `data.len()`, and `target_count` is at most `data.len()` (every
    /// entry takes at least one byte) — so no count read from a file can
    /// make a decode allocate more than the data could hold.
    pub fn from_parts(
        offsets: impl Into<Cow<'a, [u64]>>,
        data: impl Into<Cow<'a, [u8]>>,
        node_count: usize,
        target_count: usize,
    ) -> Result<CompressedCsr<'a>, StoreError> {
        Self::from_scanned_parts(offsets, data, node_count, target_count, |offsets| {
            !offsets.windows(2).any(|w| w[0] > w[1])
        })
    }

    /// [`CompressedCsr::from_parts`] with the one linear check, that the
    /// offsets never decrease, answered by `nondecreasing` — for
    /// [`GraphStore::open`](crate::GraphStore::open), which ran it while
    /// it verified the section. The checks, and the error each gives, come
    /// in the same order.
    pub(crate) fn from_scanned_parts(
        offsets: impl Into<Cow<'a, [u64]>>,
        data: impl Into<Cow<'a, [u8]>>,
        node_count: usize,
        target_count: usize,
        nondecreasing: impl FnOnce(&[u64]) -> bool,
    ) -> Result<CompressedCsr<'a>, StoreError> {
        let (offsets, data) = (offsets.into(), data.into());
        if node_count.checked_add(1) != Some(offsets.len()) {
            return Err(StoreError::Corrupt(format!(
                "offset index has {} entries for {node_count} vertices",
                offsets.len()
            )));
        }
        if offsets[0] != 0 {
            return Err(StoreError::Corrupt(
                "compressed offsets must start at 0".into(),
            ));
        }
        if !nondecreasing(&offsets) {
            return Err(StoreError::Corrupt("compressed offsets decrease".into()));
        }
        if offsets[node_count] != data.len() as u64 {
            return Err(StoreError::Corrupt(
                "compressed offsets do not cover the data stream".into(),
            ));
        }
        if target_count > data.len() {
            return Err(StoreError::Corrupt(format!(
                "{target_count} adjacency entries cannot fit {} data bytes",
                data.len()
            )));
        }
        Ok(CompressedCsr {
            offsets,
            data,
            target_count,
            chunks: None,
        })
    }

    /// This CSR with its data checked against `chunks` on first touch.
    pub(crate) fn checked_by(self, chunks: &'a NbrChunks) -> CompressedCsr<'a> {
        CompressedCsr {
            chunks: Some(chunks),
            ..self
        }
    }

    /// Number of vertices.
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total neighbor-list entries across all vertices (`2m`).
    pub fn target_count(&self) -> usize {
        self.target_count
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.target_count / 2
    }

    /// The byte-offset index (length `node_count + 1`).
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// The concatenated varint streams.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Whether the offsets index is borrowed (straight from a store
    /// mapping) rather than owned.
    pub fn offsets_borrowed(&self) -> bool {
        matches!(self.offsets, Cow::Borrowed(_))
    }

    /// Total in-memory footprint of the compressed form: data bytes plus
    /// the 8-byte-per-vertex offset index.
    pub fn byte_len(&self) -> usize {
        self.data.len() + self.offsets.len() * 8
    }

    /// The raw (uncompressed) CSR footprint of the same adjacency:
    /// `usize` offsets plus `u32` targets — the baseline the compression
    /// ratio is measured against.
    pub fn raw_byte_len(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>() + self.target_count * 4
    }

    /// Vertex `v`'s varint delta stream, unchecked: for its length, or
    /// bytes a [`CompressedCsr::checked_stream`] of `v` already returned.
    pub(crate) fn stream(&self, v: usize) -> &[u8] {
        &self.data[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// Vertex `v`'s varint delta stream, once every NBR chunk it spans has
    /// matched its CRC.
    ///
    /// # Errors
    ///
    /// [`StoreError::ChecksumMismatch`] if a chunk does not.
    #[inline]
    pub(crate) fn checked_stream(&self, v: usize) -> Result<&[u8], StoreError> {
        let (start, end) = (self.offsets[v] as usize, self.offsets[v + 1] as usize);
        if let Some(chunks) = self.chunks {
            chunks.check(&self.data, start, end)?;
        }
        Ok(&self.data[start..end])
    }

    /// Decodes vertex `v`'s sorted neighbor list, appending to `out`
    /// (through [`varint::decode_sorted`]'s window decoder where the CPU
    /// has one), after checking the NBR chunks the list spans on first
    /// touch.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::ChecksumMismatch`] if a chunk the list spans
    /// does not match its CRC, and [`StoreError::Corrupt`] on a malformed
    /// varint stream (truncated varint, id overflow).
    ///
    /// # Panics
    ///
    /// Panics if `v >= node_count`.
    pub fn decode_into(&self, v: usize, out: &mut Vec<u32>) -> Result<(), StoreError> {
        varint::decode_sorted(self.checked_stream(v)?, out)
    }

    /// Decodes the full adjacency into a [`Graph`] in one checked pass —
    /// the eager path behind
    /// [`GraphStore::load_graph`](crate::GraphStore::load_graph),
    /// [`GraphStore::load_girg`](crate::GraphStore::load_girg) and
    /// [`StoreShard::local_graph`](crate::StoreShard::local_graph).
    ///
    /// A store's CSR first checks every NBR chunk no earlier decode has
    /// checked, in one pass. Then one call decodes every list
    /// (`varint::decode_lists`) into arrays of exact size on huge pages,
    /// checking each list as it goes: its last id must name a vertex and
    /// it must not hold its own vertex. Strict
    /// increase holds by the delta format, so no second pass over the
    /// targets runs. Only if a list is at fault do the arrays go through
    /// [`Graph::from_sorted_csr`], whose error names the fault. A borrowed
    /// CSR decodes straight out of the mapping: the only allocations are
    /// the decoded arrays themselves.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::ChecksumMismatch`] if an NBR chunk does not
    /// match its CRC, [`StoreError::Corrupt`] on malformed streams or a
    /// target-count mismatch, and [`StoreError::Graph`] if a list names an
    /// id out of range or its own vertex.
    pub fn decode(&self) -> Result<Graph, StoreError> {
        if let Some(chunks) = self.chunks {
            chunks.check(&self.data, 0, self.data.len())?;
        }
        let mut offsets: Vec<usize> = huge_page_vec(self.node_count() + 1);
        let mut targets: Vec<NodeId> = huge_page_vec(self.target_count + varint::DECODE_SLACK);
        offsets.push(0);
        let clean = NodeId::with_raw_ids(&mut targets, |raw| {
            varint::decode_lists(&self.data, &self.offsets, raw, &mut offsets)
        })?;
        if targets.len() != self.target_count {
            return Err(StoreError::Corrupt(format!(
                "decoded {} adjacency entries, header claims {}",
                targets.len(),
                self.target_count
            )));
        }
        if clean {
            Ok(Graph::from_verified_csr(offsets, targets))
        } else {
            Ok(Graph::from_sorted_csr(offsets, targets)?)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_graph() -> Graph {
        Graph::from_edges(
            8,
            [
                (0u32, 1u32),
                (0, 7),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (1, 6),
                (2, 5),
            ],
        )
        .unwrap()
    }

    #[test]
    fn roundtrip_preserves_graph() {
        let g = sample_graph();
        let c = CompressedCsr::from_graph(&g);
        assert_eq!(c.node_count(), g.node_count());
        assert_eq!(c.edge_count(), g.edge_count());
        assert_eq!(c.decode().unwrap(), g);
    }

    #[test]
    fn empty_and_isolated_graphs_roundtrip() {
        let empty = Graph::from_edges(0, Vec::<(u32, u32)>::new()).unwrap();
        assert_eq!(CompressedCsr::from_graph(&empty).decode().unwrap(), empty);
        let isolated = Graph::from_edges(5, [(1u32, 3u32)]).unwrap();
        let c = CompressedCsr::from_graph(&isolated);
        assert_eq!(c.decode().unwrap(), isolated);
        assert_eq!(c.target_count(), 2);
    }

    #[test]
    fn compresses_dense_id_neighborhoods() {
        // a path graph has gaps of at most 2: every entry fits one byte
        let n = 10_000u32;
        let g = Graph::from_edges(n as usize, (0..n - 1).map(|i| (i, i + 1))).unwrap();
        let c = CompressedCsr::from_graph(&g);
        // the varint streams shrink the 4-byte targets by >2× even before
        // accounting for the offset index…
        assert!(
            c.data().len() * 2 < c.target_count() * 4,
            "data {} targets raw {}",
            c.data().len(),
            c.target_count() * 4
        );
        // …and the total stays below raw even at this pathological average
        // degree of 2, where the fixed offset index dominates
        assert!(
            c.byte_len() < c.raw_byte_len(),
            "compressed {} raw {}",
            c.byte_len(),
            c.raw_byte_len()
        );
        assert_eq!(c.decode().unwrap(), g);
    }

    /// Asserts that `from_parts` rejects the arrays as corrupt, both when
    /// it owns them and when it borrows them.
    fn assert_corrupt(offsets: &[u64], data: &[u8], node_count: usize, target_count: usize) {
        let owned =
            CompressedCsr::from_parts(offsets.to_vec(), data.to_vec(), node_count, target_count);
        let borrowed = CompressedCsr::from_parts(offsets, data, node_count, target_count);
        for (form, result) in [("owned", owned), ("borrowed", borrowed)] {
            assert!(
                matches!(result, Err(StoreError::Corrupt(_))),
                "{form} {offsets:?} / {} bytes / n={node_count} / {target_count}: {result:?}",
                data.len()
            );
        }
    }

    #[test]
    fn from_parts_accepts_its_own_encoding() {
        let c = CompressedCsr::from_graph(&sample_graph());
        let borrowed =
            CompressedCsr::from_parts(c.offsets(), c.data(), c.node_count(), c.target_count())
                .unwrap();
        assert!(borrowed.offsets_borrowed());
        assert!(!c.offsets_borrowed());
        assert_eq!(borrowed, c);
        assert_eq!(borrowed.decode().unwrap(), sample_graph());
        let owned = CompressedCsr::from_parts(
            c.offsets().to_vec(),
            c.data().to_vec(),
            c.node_count(),
            c.target_count(),
        )
        .unwrap();
        assert_eq!(owned, c);
    }

    #[test]
    fn from_parts_rejects_offsets_not_starting_at_zero() {
        assert_corrupt(&[1, 1], &[0], 1, 1);
    }

    #[test]
    fn from_parts_rejects_decreasing_offsets() {
        assert_corrupt(&[0, 2, 1], &[0, 0], 2, 2);
    }

    #[test]
    fn from_parts_rejects_offsets_not_covering_the_data() {
        assert_corrupt(&[0, 1], &[0, 0], 1, 1);
        assert_corrupt(&[0, 3], &[0, 0], 1, 1);
    }

    #[test]
    fn from_parts_rejects_an_index_of_the_wrong_length() {
        assert_corrupt(&[], &[], 0, 0);
        assert_corrupt(&[0, 1], &[0], 2, 1);
        assert_corrupt(&[0, 0, 1], &[0], 1, 1);
        assert_corrupt(&[0, 1], &[0], usize::MAX, 1);
    }

    #[test]
    fn from_parts_rejects_more_targets_than_data_bytes() {
        assert_corrupt(&[0, 2], &[0, 0], 1, 3);
        assert_corrupt(&[0, 2], &[0, 0], 1, 1 << 62);
    }

    #[test]
    fn wrong_target_count_is_rejected() {
        let g = sample_graph();
        let c = CompressedCsr::from_graph(&g);
        let lying =
            CompressedCsr::from_parts(c.offsets(), c.data(), c.node_count(), c.target_count() - 1)
                .unwrap();
        assert!(lying.decode().is_err());
    }
}

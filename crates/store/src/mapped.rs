//! Decode-free adjacency access straight over a mapped `.swg` store.
//!
//! [`GraphStore::load_graph`] decodes the whole varint NBR stream into an
//! in-memory CSR before the first route starts — fine at 10⁶ vertices,
//! prohibitive at 10⁸. [`MappedGraph`] is the alternative: a thin view over
//! the mapped OFFSETS and NBR sections that decodes **one vertex's**
//! delta+LEB128 stream on demand (the offsets index gives O(1) seek into
//! the stream), so routing touches only the pages its path actually
//! crosses and RAM holds no adjacency beyond the OS page cache.
//!
//! [`MappedCursor`] adds a small set-associative LRU of hot decoded
//! neighbor lists on top (greedy routes revisit high-degree hubs
//! constantly) and presents adjacency through
//! `smallworld_graph::AdjacencyView`, so the same routing loop runs over an
//! in-memory [`Graph`] or over the file bytes, producing bitwise-identical
//! routes (pinned by `tests/mapped_routing.rs`).

use std::borrow::Cow;

use smallworld_graph::{AdjacencyView, Graph, NodeId};

use crate::format::{GraphStore, SectionId};
use crate::varint;
use crate::StoreError;

/// Cache geometry of [`MappedCursor`]: vertices map to one of
/// [`LRU_SETS`] sets by `v % LRU_SETS`, each holding [`LRU_WAYS`] decoded
/// lists evicted least-recently-used.
///
/// 64 × 4 slots keep the directory footprint trivial (a few KiB plus the
/// cached lists themselves) while covering the handful of hubs a greedy
/// route cycles through; routing throughput is insensitive to the exact
/// shape well past this size.
const LRU_SETS: usize = 64;
/// Associativity of the cursor cache (see [`LRU_SETS`]).
const LRU_WAYS: usize = 4;

/// A zero-decode view of a store's adjacency: borrowed OFFSETS index plus
/// the raw NBR varint bytes, validated structurally at construction.
///
/// Create one with [`GraphStore::mapped_graph`]; it borrows the store's
/// mapping, so no adjacency bytes are copied (on a little-endian target
/// even the offsets index is borrowed in place). Neighbor lists are
/// decoded per vertex via [`MappedGraph::decode_into`] or iterated through
/// a caching [`MappedCursor`].
#[derive(Debug)]
pub struct MappedGraph<'a> {
    /// Byte offsets into `nbr`, length `node_count + 1`.
    offsets: Cow<'a, [u64]>,
    /// Concatenated per-vertex varint delta streams.
    nbr: &'a [u8],
    /// Total neighbor-list entries (`2m`), from the store header.
    target_count: usize,
}

/// Reinterprets little-endian `u64` section bytes, borrowing in place when
/// the mapping is aligned (mmap'd sections are page-aligned, so the owned
/// fallback only triggers for big-endian targets or odd buffered reads).
fn u64_view(bytes: &[u8]) -> Cow<'_, [u64]> {
    #[cfg(target_endian = "little")]
    {
        // SAFETY: every bit pattern is a valid u64; align_to only
        // reinterprets, and the borrow is taken solely when the slice is
        // fully 8-aligned.
        let (pre, mid, post) = unsafe { bytes.align_to::<u64>() };
        if pre.is_empty() && post.is_empty() {
            return Cow::Borrowed(mid);
        }
    }
    Cow::Owned(
        bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect(),
    )
}

impl GraphStore {
    /// A decode-free adjacency view borrowing this store's OFFSETS and NBR
    /// sections. The offsets index is validated (monotone cover of the NBR
    /// bytes, correct length) before any neighbor list is touched.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] when either section is missing or the
    /// offsets index is malformed.
    pub fn mapped_graph(&self) -> Result<MappedGraph<'_>, StoreError> {
        let offsets_bytes = self.section(SectionId::Offsets)?;
        let expected = (self.node_count() + 1) * 8;
        if offsets_bytes.len() != expected {
            return Err(StoreError::Corrupt(format!(
                "OFFSETS section is {} bytes, expected {expected}",
                offsets_bytes.len()
            )));
        }
        let offsets = u64_view(offsets_bytes);
        let nbr = self.section(SectionId::Nbr)?;
        if offsets[0] != 0 {
            return Err(StoreError::Corrupt("compressed offsets must start at 0".into()));
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(StoreError::Corrupt("compressed offsets decrease".into()));
        }
        if *offsets.last().expect("validated non-empty") != nbr.len() as u64 {
            return Err(StoreError::Corrupt(
                "compressed offsets do not cover the data stream".into(),
            ));
        }
        Ok(MappedGraph {
            offsets,
            nbr,
            target_count: self.target_count(),
        })
    }
}

impl<'a> MappedGraph<'a> {
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

    /// Whether the offsets index is borrowed straight from the mapping
    /// (as opposed to parsed into an owned copy).
    pub fn offsets_borrowed(&self) -> bool {
        matches!(self.offsets, Cow::Borrowed(_))
    }

    /// Decodes vertex `v`'s sorted neighbor list from the mapped stream,
    /// appending to `out`.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Corrupt`] on a malformed varint stream
    /// (truncated varint, id overflow).
    ///
    /// # Panics
    ///
    /// Panics if `v >= node_count`.
    pub fn decode_into(&self, v: usize, out: &mut Vec<u32>) -> Result<(), StoreError> {
        varint::decode_sorted(self.stream(v), out)
    }

    /// Vertex `v`'s varint delta stream.
    fn stream(&self, v: usize) -> &'a [u8] {
        &self.nbr[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// Decodes the full adjacency into a [`Graph`], re-validating the CSR
    /// invariants — the eager path behind [`GraphStore::load_graph`].
    ///
    /// Unlike [`GraphStore::compressed`] this never copies the NBR bytes
    /// or the offsets index out of the mapping: the only allocations are
    /// the decoded CSR arrays themselves.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Corrupt`] on malformed streams or a
    /// target-count mismatch with the header, and [`StoreError::Graph`]
    /// if the decoded arrays violate the graph invariants.
    pub fn decode_full(&self) -> Result<Graph, StoreError> {
        let n = self.node_count();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets: Vec<u32> = Vec::with_capacity(self.target_count);
        offsets.push(0usize);
        for v in 0..n {
            self.decode_into(v, &mut targets)?;
            offsets.push(targets.len());
        }
        if targets.len() != self.target_count {
            return Err(StoreError::Corrupt(format!(
                "decoded {} adjacency entries, header claims {}",
                targets.len(),
                self.target_count
            )));
        }
        let targets: Vec<NodeId> = targets.into_iter().map(NodeId::new).collect();
        Ok(Graph::from_sorted_csr(offsets, targets)?)
    }

    /// An adjacency cursor decoding neighbor lists on demand through the
    /// set-associative LRU cache.
    pub fn cursor(&self) -> MappedCursor<'_> {
        MappedCursor {
            graph: self,
            slots: (0..LRU_SETS * LRU_WAYS).map(|_| CacheSlot::default()).collect(),
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }
}

/// One way of the cursor cache: a decoded neighbor list tagged with its
/// vertex and last-touch tick. `u32::MAX` marks an empty slot (vertex ids
/// are `< u32::MAX` because `NodeId::from_index` bounds them).
#[derive(Debug)]
struct CacheSlot {
    vertex: u32,
    tick: u64,
    list: Vec<NodeId>,
}

impl Default for CacheSlot {
    fn default() -> Self {
        CacheSlot {
            vertex: u32::MAX,
            tick: 0,
            list: Vec::new(),
        }
    }
}

/// A stateful adjacency reader over a [`MappedGraph`] that decodes on
/// demand through a small LRU of hot lists. Implements [`AdjacencyView`],
/// so routing loops are generic over it.
///
/// Cursors are cheap and thread-confined; parallel harnesses create one
/// per worker over the same shared [`MappedGraph`].
///
/// # Panics
///
/// [`AdjacencyView::with_neighbors`] panics on a corrupt varint stream.
/// Section checksums are verified when the store is opened, so a decode
/// failure here means the offsets index itself lies about stream
/// boundaries — unreachable for a store that passed validation.
#[derive(Debug)]
pub struct MappedCursor<'a> {
    graph: &'a MappedGraph<'a>,
    /// `LRU_SETS × LRU_WAYS` cache slots, set-major.
    slots: Vec<CacheSlot>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl<'a> MappedCursor<'a> {
    /// Cache hits since creation.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses (on-demand decodes) since creation.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

impl AdjacencyView for MappedCursor<'_> {
    fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    fn with_neighbors<R>(&mut self, v: NodeId, f: impl FnOnce(&[NodeId]) -> R) -> R {
        let set = v.index() % LRU_SETS;
        let ways = &mut self.slots[set * LRU_WAYS..(set + 1) * LRU_WAYS];
        self.tick += 1;
        if let Some(slot) = ways.iter_mut().find(|s| s.vertex == v.raw()) {
            slot.tick = self.tick;
            self.hits += 1;
            return f(&slot.list);
        }
        self.misses += 1;
        let victim = ways
            .iter_mut()
            .min_by_key(|s| s.tick)
            .expect("cache sets are non-empty");
        // untag first: a decode that panics midway leaves an empty slot,
        // never a half-decoded list cached under `v`
        victim.vertex = u32::MAX;
        victim.list.clear();
        varint::decode_sorted_with(self.graph.stream(v.index()), |t| {
            victim.list.push(NodeId::new(t))
        })
        .expect("validated store has decodable neighbor streams");
        victim.vertex = v.raw();
        victim.tick = self.tick;
        f(&victim.list)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::write_girg_swg;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use smallworld_models::girg::{Girg, GirgBuilder};

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("smallworld-mapped-{}-{name}", std::process::id()))
    }

    fn sample_store(name: &str) -> (Girg<2>, std::path::PathBuf) {
        let mut rng = StdRng::seed_from_u64(11);
        let girg: Girg<2> = GirgBuilder::new(600).sample(&mut rng).unwrap();
        let path = temp_path(name);
        write_girg_swg(&girg, &path, 1).unwrap();
        (girg, path)
    }

    #[test]
    fn decode_full_matches_compressed_decode() {
        let (girg, path) = sample_store("full.swg");
        let store = GraphStore::open(&path).unwrap();
        let mapped = store.mapped_graph().unwrap();
        assert_eq!(mapped.node_count(), girg.graph().node_count());
        assert_eq!(mapped.edge_count(), girg.graph().edge_count());
        assert_eq!(&mapped.decode_full().unwrap(), girg.graph());
        assert_eq!(&store.load_graph().unwrap(), girg.graph());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn on_demand_decode_matches_every_vertex() {
        let (girg, path) = sample_store("per-vertex.swg");
        let store = GraphStore::open(&path).unwrap();
        let mapped = store.mapped_graph().unwrap();
        let mut out = Vec::new();
        for v in girg.graph().nodes() {
            out.clear();
            mapped.decode_into(v.index(), &mut out).unwrap();
            let expect: Vec<u32> = girg.graph().neighbors(v).iter().map(|t| t.raw()).collect();
            assert_eq!(out, expect, "vertex {v}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn cursor_lazy_and_eager_agree_with_graph() {
        let (girg, path) = sample_store("cursor.swg");
        let store = GraphStore::open(&path).unwrap();
        let mapped = store.mapped_graph().unwrap();
        let mut lazy = mapped.cursor();
        // revisit each vertex immediately: a sequential full scan is the
        // LRU's worst case (everything evicts before a second pass), but a
        // back-to-back repeat must always hit
        for v in girg.graph().nodes() {
            for _visit in 0..2 {
                let from_lazy = lazy.with_neighbors(v, |ns| ns.to_vec());
                assert_eq!(from_lazy, girg.graph().neighbors(v), "lazy {v}");
            }
        }
        assert_eq!(lazy.hits(), girg.graph().node_count() as u64);
        assert!(lazy.misses() >= girg.graph().node_count() as u64);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn offsets_view_is_zero_copy_under_mmap() {
        let (_girg, path) = sample_store("zero-copy.swg");
        let store = GraphStore::open(&path).unwrap();
        let mapped = store.mapped_graph().unwrap();
        if store.is_zero_copy() && cfg!(target_endian = "little") {
            assert!(mapped.offsets_borrowed());
        }
        std::fs::remove_file(&path).ok();
    }
}

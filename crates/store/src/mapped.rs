//! Decode-free adjacency access straight over a mapped `.swg` store.
//!
//! [`GraphStore::load_graph`](crate::GraphStore::load_graph) decodes the
//! whole varint NBR stream into an in-memory CSR before the first route
//! starts — fine at 10⁶ vertices, prohibitive at 10⁸.
//! [`GraphStore::mapped_graph`](crate::GraphStore::mapped_graph) is the
//! alternative: it borrows the mapped OFFSETS and NBR sections as a
//! [`CompressedCsr`] (the same type the writers build; [`MappedGraph`]
//! names the borrowed form), which decodes **one vertex's** delta+LEB128
//! stream on demand (the offsets index gives O(1) seek into the stream),
//! so routing touches only the pages its path actually crosses and RAM
//! holds no adjacency beyond the OS page cache.
//!
//! [`MappedCursor`] adds a small set-associative LRU of hot decoded
//! neighbor lists on top (greedy routes revisit high-degree hubs
//! constantly) and presents adjacency through
//! `smallworld_graph::AdjacencyView`, so the same routing loop runs over an
//! in-memory `Graph` or over the file bytes, producing bitwise-identical
//! routes (pinned by `tests/mapped_routing.rs`).

use smallworld_graph::{AdjacencyView, NodeId};

use crate::csr::CompressedCsr;
use crate::varint;

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

/// A store's adjacency borrowed straight from its mapping: the
/// [`CompressedCsr`] that
/// [`GraphStore::mapped_graph`](crate::GraphStore::mapped_graph) returns.
pub type MappedGraph<'a> = CompressedCsr<'a>;

impl CompressedCsr<'_> {
    /// An adjacency cursor decoding neighbor lists on demand through the
    /// set-associative LRU cache.
    pub fn cursor(&self) -> MappedCursor<'_> {
        MappedCursor {
            graph: self,
            slots: (0..LRU_SETS * LRU_WAYS)
                .map(|_| CacheSlot::default())
                .collect(),
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

/// A stateful adjacency reader over a [`CompressedCsr`] that decodes on
/// demand through a small LRU of hot lists. Implements [`AdjacencyView`],
/// so routing loops are generic over it.
///
/// Cursors are cheap and thread-confined; parallel harnesses create one
/// per worker over the same shared [`CompressedCsr`].
///
/// # Panics
///
/// [`AdjacencyView::with_neighbors`] panics on a malformed varint stream
/// (a truncated varint or an id past `u32`). Opening a store proves only
/// that its bytes are the ones that were written — the section checksums
/// match — and [`CompressedCsr::from_parts`] checks only the offsets
/// index, so a store written with a malformed stream reaches this panic.
/// Making the view fallible is the ROADMAP's store-v2 "fallible view"
/// item; until then, [`CompressedCsr::decode`] is the path that returns a
/// typed error instead.
#[derive(Debug)]
pub struct MappedCursor<'a> {
    graph: &'a CompressedCsr<'a>,
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
    use crate::format::{write_girg_swg, GraphStore};
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
    fn mapped_decode_matches_the_written_graph() {
        let (girg, path) = sample_store("full.swg");
        let store = GraphStore::open(&path).unwrap();
        let mapped = store.mapped_graph().unwrap();
        assert_eq!(mapped.node_count(), girg.graph().node_count());
        assert_eq!(mapped.edge_count(), girg.graph().edge_count());
        assert_eq!(&mapped.decode().unwrap(), girg.graph());
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
        let (girg, path) = sample_store("zero-copy.swg");
        let store = GraphStore::open(&path).unwrap();
        let mapped = store.mapped_graph().unwrap();
        if store.is_zero_copy() && cfg!(target_endian = "little") {
            assert!(mapped.offsets_borrowed());
        }
        // the read-into-memory fallback must decode every vertex exactly as
        // the mapping does, whether or not its OFFSETS words were borrowed
        let buffered = GraphStore::open_buffered(&path).unwrap();
        assert!(!buffered.is_zero_copy());
        let copied = buffered.mapped_graph().unwrap();
        assert_eq!(copied, mapped);
        let (mut from_map, mut from_buffer) = (Vec::new(), Vec::new());
        for v in 0..girg.graph().node_count() {
            from_map.clear();
            from_buffer.clear();
            mapped.decode_into(v, &mut from_map).unwrap();
            copied.decode_into(v, &mut from_buffer).unwrap();
            assert_eq!(from_buffer, from_map, "vertex {v}");
        }
        std::fs::remove_file(&path).ok();
    }
}

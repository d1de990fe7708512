//! Geometric shard partition: contiguous Morton-id ranges → self-contained
//! per-shard compressed CSRs plus explicit cross-shard boundary-edge
//! tables.
//!
//! After a Morton relabeling, contiguous vertex-id ranges are geometric
//! regions of the torus, so partitioning `0..n` into `k` ranges of
//! near-equal adjacency mass yields shards whose internal edges dominate
//! and whose cross-shard edges connect geometric neighbors across region
//! seams. Each shard stores:
//!
//! - its **local adjacency**: edges with both endpoints in the shard,
//!   re-indexed to local ids `0..len` and compressed like the global CSR;
//! - its **boundary table**: every half-edge `(local source, global
//!   target)` whose target lives in another shard, sorted — the handoff
//!   list a shard-local router needs to forward packets across the seam.
//!
//! [`ShardedStore::assemble`] merges the shards back into the exact global
//! [`Graph`], which is how the tests pin lossless-ness, and the routing
//! equivalence suite shows greedy routes on an assembled graph are bitwise
//! those of the original.

use std::ops::Range;

use smallworld_geometry::{morton, Point};
use smallworld_graph::view::merge_shard_neighbors;
use smallworld_graph::{Graph, NodeId};

use crate::csr::CompressedCsr;
use crate::StoreError;

/// Identity of one shard: which global ids it owns and, when geometry is
/// available, which Morton-code range those ids cover.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    /// Contiguous global vertex ids owned by this shard.
    pub nodes: Range<u32>,
    /// Inclusive range `[lo, hi]` of Morton codes of the owned vertices'
    /// positions; `None` for bare (geometry-free) stores.
    pub morton: Option<(u64, u64)>,
}

/// One shard: spec, local compressed adjacency, boundary half-edges.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoreShard {
    spec: ShardSpec,
    local: CompressedCsr<'static>,
    /// `(local source id, global target id)`, sorted; targets always lie
    /// outside `spec.nodes`.
    boundary: Vec<(u32, u32)>,
}

impl StoreShard {
    /// This shard's identity.
    pub fn spec(&self) -> &ShardSpec {
        &self.spec
    }

    /// Number of vertices owned by the shard.
    pub fn len(&self) -> usize {
        self.spec.nodes.len()
    }

    /// Whether the shard owns no vertices.
    pub fn is_empty(&self) -> bool {
        self.spec.nodes.is_empty()
    }

    /// The shard-internal adjacency in compressed form (local ids).
    pub fn local_csr(&self) -> &CompressedCsr<'static> {
        &self.local
    }

    /// The cross-shard half-edges, sorted by `(local source, global
    /// target)`.
    pub fn boundary(&self) -> &[(u32, u32)] {
        &self.boundary
    }

    /// Decodes the shard-internal adjacency as a self-contained local
    /// graph over `0..len` ids.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] if the compressed stream is malformed.
    pub fn local_graph(&self) -> Result<Graph, StoreError> {
        self.local.decode()
    }
}

/// A complete shard partition of one graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardedStore {
    node_count: usize,
    shards: Vec<StoreShard>,
}

impl ShardedStore {
    /// Partitions `graph` into at most `shard_count` contiguous id ranges
    /// of near-equal adjacency mass (fewer when the graph is small).
    ///
    /// Meaningful shards require a Morton-relabeled graph — ids are split
    /// positionally. For a graph with positions use
    /// [`ShardedStore::partition_with_positions`], which also records each
    /// shard's Morton-code range.
    ///
    /// # Panics
    ///
    /// Panics if `shard_count == 0`.
    pub fn partition(graph: &Graph, shard_count: usize) -> ShardedStore {
        Self::build(graph, shard_count, |_| None)
    }

    /// Like [`ShardedStore::partition`], recording the Morton-code range
    /// each shard covers (the cell-range → shard map of the format docs).
    ///
    /// # Panics
    ///
    /// Panics if `shard_count == 0` or `positions.len()` mismatches the
    /// vertex count.
    pub fn partition_with_positions<const D: usize>(
        graph: &Graph,
        positions: &[Point<D>],
        shard_count: usize,
    ) -> ShardedStore {
        assert_eq!(
            positions.len(),
            graph.node_count(),
            "positions length must match node count"
        );
        Self::build(graph, shard_count, |nodes: &Range<u32>| {
            let codes = positions[nodes.start as usize..nodes.end as usize]
                .iter()
                .map(morton::point_code);
            let mut lo = u64::MAX;
            let mut hi = 0u64;
            for c in codes {
                lo = lo.min(c);
                hi = hi.max(c);
            }
            Some((lo, hi))
        })
    }

    fn build(
        graph: &Graph,
        shard_count: usize,
        morton_of: impl Fn(&Range<u32>) -> Option<(u64, u64)>,
    ) -> ShardedStore {
        assert!(shard_count > 0, "shard_count must be positive");
        let n = graph.node_count();
        let ranges = balanced_ranges(graph, shard_count);
        let mut shards = Vec::with_capacity(ranges.len());
        for nodes in ranges {
            let start = nodes.start;
            let morton = if nodes.is_empty() { None } else { morton_of(&nodes) };
            // split each vertex's sorted neighbor list into its local part
            // (encoded in place, still sorted) and its boundary rows, which
            // come out sorted by (local source, global target)
            let mut boundary: Vec<(u32, u32)> = Vec::new();
            let local = CompressedCsr::encode(nodes.len(), 0, |l, list| {
                let l = l as u32;
                for &t in graph.neighbors(NodeId::new(start + l)) {
                    let t = t.raw();
                    if nodes.contains(&t) {
                        list.push(t - start);
                    } else {
                        boundary.push((l, t));
                    }
                }
            });
            shards.push(StoreShard {
                spec: ShardSpec { nodes, morton },
                local,
                boundary,
            });
        }
        ShardedStore {
            node_count: n,
            shards,
        }
    }

    /// Number of vertices of the partitioned graph.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// The shards, in ascending id-range order.
    pub fn shards(&self) -> &[StoreShard] {
        &self.shards
    }

    /// Number of undirected cross-shard edges (each appears in exactly two
    /// boundary tables).
    pub fn boundary_edge_count(&self) -> usize {
        self.shards.iter().map(|s| s.boundary.len()).sum::<usize>() / 2
    }

    /// Reassembles the exact global graph from the shards: local edges are
    /// translated back to global ids and boundary half-edges merged in.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] if a shard's compressed stream is malformed
    /// or the merged adjacency violates the CSR invariants.
    pub fn assemble(&self) -> Result<Graph, StoreError> {
        let mut offsets = Vec::with_capacity(self.node_count + 1);
        let mut targets: Vec<NodeId> = Vec::new();
        offsets.push(0usize);
        let mut local_list: Vec<u32> = Vec::new();
        for shard in &self.shards {
            for l in 0..shard.len() {
                local_list.clear();
                shard.local.decode_into(l, &mut local_list)?;
                // lists decode sorted, so the last id bounds them all
                if local_list
                    .last()
                    .is_some_and(|&last| last as usize >= shard.len())
                {
                    return Err(StoreError::Corrupt(
                        "shard-local neighbor id outside the shard".into(),
                    ));
                }
                merge_shard_neighbors(
                    local_list.iter().copied(),
                    shard.spec.nodes.start,
                    l as u32,
                    &shard.boundary,
                    &mut targets,
                );
                offsets.push(targets.len());
            }
        }
        if offsets.len() != self.node_count + 1 {
            return Err(StoreError::Corrupt(
                "shard ranges do not cover the vertex set".into(),
            ));
        }
        Ok(Graph::from_sorted_csr(offsets, targets)?)
    }

    /// Serializes the partition into the SHARDS section payload.
    ///
    /// Layout: `shard_count u32`, `node_count u64`, then per shard a fixed
    /// descriptor (`node_start u32, node_end u32, has_morton u32,
    /// morton_lo u64, morton_hi u64, offsets_len u64, data_len u64,
    /// boundary_len u64`) followed by its offsets (u64 LE each), varint
    /// data, and boundary pairs (2 × u32 LE each).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.shards.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.node_count as u64).to_le_bytes());
        for shard in &self.shards {
            out.extend_from_slice(&shard.spec.nodes.start.to_le_bytes());
            out.extend_from_slice(&shard.spec.nodes.end.to_le_bytes());
            let (has, lo, hi) = match shard.spec.morton {
                Some((lo, hi)) => (1u32, lo, hi),
                None => (0u32, 0, 0),
            };
            out.extend_from_slice(&has.to_le_bytes());
            out.extend_from_slice(&lo.to_le_bytes());
            out.extend_from_slice(&hi.to_le_bytes());
            out.extend_from_slice(&(shard.local.offsets().len() as u64).to_le_bytes());
            out.extend_from_slice(&(shard.local.data().len() as u64).to_le_bytes());
            out.extend_from_slice(&(shard.boundary.len() as u64).to_le_bytes());
            for &o in shard.local.offsets() {
                out.extend_from_slice(&o.to_le_bytes());
            }
            out.extend_from_slice(shard.local.data());
            for &(src, tgt) in &shard.boundary {
                out.extend_from_slice(&src.to_le_bytes());
                out.extend_from_slice(&tgt.to_le_bytes());
            }
        }
        out
    }

    /// Deserializes a SHARDS payload written by [`ShardedStore::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Corrupt`] on truncated or inconsistent
    /// payloads (ranges that don't tile `0..node_count`, unsorted boundary
    /// tables, boundary targets inside the owning shard, …).
    pub fn from_bytes(bytes: &[u8], node_count: usize) -> Result<ShardedStore, StoreError> {
        let mut cur = Cursor { bytes, at: 0 };
        let shard_count = cur.u32()? as usize;
        let stored_n = cur.u64()? as usize;
        if stored_n != node_count {
            return Err(StoreError::Corrupt(format!(
                "shard section stores {stored_n} vertices, header says {node_count}"
            )));
        }
        let mut shards = Vec::new();
        let mut expected_start = 0u32;
        for _ in 0..shard_count {
            let start = cur.u32()?;
            let end = cur.u32()?;
            if start != expected_start || end < start || end as usize > node_count {
                return Err(StoreError::Corrupt(
                    "shard ranges must tile 0..node_count in order".into(),
                ));
            }
            expected_start = end;
            let has_morton = cur.u32()?;
            let lo = cur.u64()?;
            let hi = cur.u64()?;
            let morton = if has_morton != 0 { Some((lo, hi)) } else { None };
            let offsets_len = cur.u64()?;
            let data_len = cur.u64()?;
            let boundary_len = cur.u64()?;
            // every length is checked against the bytes left before it
            // sizes an allocation
            let offsets: Vec<u64> = cur
                .take_words(offsets_len)?
                .map(|w| u64::from_le_bytes(w.try_into().expect("8")))
                .collect();
            let data = cur.take(data_len)?.to_vec();
            // the SHARDS layout stores no entry count; count_entries
            // recovers it from the data
            let target_count = count_entries(&data);
            let local =
                CompressedCsr::from_parts(offsets, data, (end - start) as usize, target_count)?;
            let mut boundary = Vec::new();
            let mut prev: Option<(u32, u32)> = None;
            for pair in cur.take_words(boundary_len)? {
                let src = u32::from_le_bytes(pair[..4].try_into().expect("4"));
                let tgt = u32::from_le_bytes(pair[4..].try_into().expect("4"));
                if src >= end - start {
                    return Err(StoreError::Corrupt(
                        "boundary source outside the shard".into(),
                    ));
                }
                if (start..end).contains(&tgt) || tgt as usize >= node_count {
                    return Err(StoreError::Corrupt(
                        "boundary target must lie in another shard".into(),
                    ));
                }
                if let Some(p) = prev {
                    if p >= (src, tgt) {
                        return Err(StoreError::Corrupt(
                            "boundary table must be strictly sorted".into(),
                        ));
                    }
                }
                prev = Some((src, tgt));
                boundary.push((src, tgt));
            }
            shards.push(StoreShard {
                spec: ShardSpec {
                    nodes: start..end,
                    morton,
                },
                local,
                boundary,
            });
        }
        if expected_start as usize != node_count {
            return Err(StoreError::Corrupt(
                "shard ranges do not cover the vertex set".into(),
            ));
        }
        if cur.at != bytes.len() {
            return Err(StoreError::Corrupt("trailing bytes after shard table".into()));
        }
        Ok(ShardedStore {
            node_count,
            shards,
        })
    }
}

/// The number of varints in `data`: each ends in the one byte whose
/// continuation bit is clear. When every per-vertex stream decodes, that
/// is exactly the neighbor-list entry count; a malformed stream fails its
/// decode before the count matters.
fn count_entries(data: &[u8]) -> usize {
    data.iter().filter(|&&b| b & 0x80 == 0).count()
}

struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, len: u64) -> Result<&'a [u8], StoreError> {
        let end = usize::try_from(len)
            .ok()
            .and_then(|len| self.at.checked_add(len))
            .filter(|&e| e <= self.bytes.len())
            .ok_or(StoreError::Truncated {
                what: "shard section",
            })?;
        let slice = &self.bytes[self.at..end];
        self.at = end;
        Ok(slice)
    }

    /// The next `count` 8-byte words.
    fn take_words(&mut self, count: u64) -> Result<std::slice::ChunksExact<'a, u8>, StoreError> {
        let len = count.checked_mul(8).ok_or(StoreError::Truncated {
            what: "shard section",
        })?;
        Ok(self.take(len)?.chunks_exact(8))
    }

    fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }
}

/// Splits `0..n` into at most `parts` contiguous ranges of near-equal
/// adjacency mass (mirrors the balancing the parallel CSR builder uses for
/// its sort workers).
fn balanced_ranges(graph: &Graph, parts: usize) -> Vec<Range<u32>> {
    let n = graph.node_count();
    if n == 0 {
        return Vec::new();
    }
    let total: usize = 2 * graph.edge_count() + n; // +n so isolated vertices spread too
    let target = (total / parts.max(1)).max(1);
    let mut ranges = Vec::new();
    let mut start = 0u32;
    let mut mass = 0usize;
    for v in 0..n as u32 {
        mass += graph.degree(NodeId::new(v)) + 1;
        let remaining_parts = parts - ranges.len();
        let is_last = remaining_parts == 1;
        if !is_last && mass >= target {
            ranges.push(start..v + 1);
            start = v + 1;
            mass = 0;
        }
    }
    if (start as usize) < n || ranges.is_empty() {
        ranges.push(start..n as u32);
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_graph(side: u32) -> Graph {
        // 2D grid: a stand-in for geometric locality
        let idx = |x: u32, y: u32| x * side + y;
        let mut edges = Vec::new();
        for x in 0..side {
            for y in 0..side {
                if x + 1 < side {
                    edges.push((idx(x, y), idx(x + 1, y)));
                }
                if y + 1 < side {
                    edges.push((idx(x, y), idx(x, y + 1)));
                }
            }
        }
        Graph::from_edges((side * side) as usize, edges).unwrap()
    }

    #[test]
    fn partition_covers_and_reassembles() {
        let g = grid_graph(12);
        for k in [1, 2, 3, 5, 8] {
            let sharded = ShardedStore::partition(&g, k);
            assert!(sharded.shards().len() <= k);
            let covered: usize = sharded.shards().iter().map(StoreShard::len).sum();
            assert_eq!(covered, g.node_count(), "k={k}");
            assert_eq!(sharded.assemble().unwrap(), g, "k={k}");
        }
    }

    #[test]
    fn more_shards_than_vertices_still_works() {
        let g = Graph::from_edges(3, [(0u32, 1u32), (1, 2)]).unwrap();
        let sharded = ShardedStore::partition(&g, 10);
        assert_eq!(sharded.assemble().unwrap(), g);
    }

    #[test]
    fn boundary_tables_are_cross_shard_only() {
        let g = grid_graph(10);
        let sharded = ShardedStore::partition(&g, 4);
        let mut boundary_total = 0usize;
        for shard in sharded.shards() {
            let nodes = &shard.spec().nodes;
            for &(src, tgt) in shard.boundary() {
                assert!((src as usize) < shard.len());
                assert!(!nodes.contains(&tgt));
            }
            boundary_total += shard.boundary().len();
        }
        assert_eq!(boundary_total, 2 * sharded.boundary_edge_count());
        assert!(sharded.boundary_edge_count() > 0);
        // internal + cross edges account for every edge exactly once
        let internal: usize = sharded
            .shards()
            .iter()
            .map(|s| s.local_csr().edge_count())
            .sum();
        assert_eq!(internal + sharded.boundary_edge_count(), g.edge_count());
    }

    #[test]
    fn serialization_roundtrips() {
        let g = grid_graph(9);
        for k in [1, 3, 7] {
            let sharded = ShardedStore::partition(&g, k);
            let bytes = sharded.to_bytes();
            let back = ShardedStore::from_bytes(&bytes, g.node_count()).unwrap();
            assert_eq!(back, sharded, "k={k}");
            assert_eq!(back.assemble().unwrap(), g);
        }
    }

    #[test]
    fn corrupted_shard_payloads_are_rejected() {
        let g = grid_graph(6);
        let sharded = ShardedStore::partition(&g, 3);
        let bytes = sharded.to_bytes();
        // wrong node count
        assert!(ShardedStore::from_bytes(&bytes, g.node_count() + 1).is_err());
        // truncations at every prefix must error, never panic
        for cut in 0..bytes.len().min(200) {
            assert!(ShardedStore::from_bytes(&bytes[..cut], g.node_count()).is_err());
        }
        // trailing garbage
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(ShardedStore::from_bytes(&extended, g.node_count()).is_err());
    }

    #[test]
    fn out_of_shard_local_ids_are_a_typed_error() {
        let g = grid_graph(4);
        let mut sharded = ShardedStore::partition(&g, 2);
        let shard = &mut sharded.shards[1];
        // well-formed varints naming a local id past the shard's end: the
        // payload parses, assembly must reject it rather than overflow
        shard.local = CompressedCsr::encode(shard.len(), 0, |l, list| {
            if l == 0 {
                list.push(u32::MAX);
            }
        });
        let back = ShardedStore::from_bytes(&sharded.to_bytes(), g.node_count()).unwrap();
        for store in [&sharded, &back] {
            assert!(matches!(store.assemble(), Err(StoreError::Corrupt(_))));
        }
    }

    #[test]
    fn empty_graph_partitions_to_nothing() {
        let g = Graph::from_edges(0, Vec::<(u32, u32)>::new()).unwrap();
        let sharded = ShardedStore::partition(&g, 4);
        assert!(sharded.shards().is_empty());
        assert_eq!(sharded.assemble().unwrap(), g);
    }
}

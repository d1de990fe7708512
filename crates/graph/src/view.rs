//! Adjacency access abstracted over the storage substrate.
//!
//! A routing loop only ever needs two things from a graph: the vertex count
//! and, for one vertex at a time, a borrowed view of its sorted neighbor
//! list. [`AdjacencyView`] captures exactly that, so the same loop can run
//! over an in-memory [`Graph`] *or* over a cursor that decodes neighbor
//! lists on demand from a memory-mapped compressed store (and therefore
//! needs `&mut self` to manage its decode cache).
//!
//! The callback shape (`with_neighbors` instead of returning a slice)
//! exists for those caching cursors: the decoded list lives in a buffer the
//! cursor owns and may recycle on the next call, so the borrow cannot
//! outlive the call.
//!
//! The tie order that makes routes comparable across substrates lives here
//! too: [`fold_first_best`] and [`first_best_by_blocks`] are the one greedy
//! argmax every router, forwarding policy and node program folds through,
//! and [`merge_shard_neighbors`] is the one rule that gives a shard
//! partition's vertices their global neighbor order.

use crate::csr::{Graph, NodeId};

/// Read access to a graph's adjacency, one vertex at a time.
///
/// Implementations must present each vertex's neighbor list **sorted
/// ascending by node id**, exactly as [`Graph::neighbors`] does —
/// protocols compare routes bitwise across substrates, and the argmax
/// tie-breaking of greedy routing ([`fold_first_best`]) depends on the
/// iteration order.
pub trait AdjacencyView {
    /// Number of vertices; valid ids are `0..node_count`.
    fn node_count(&self) -> usize;

    /// Calls `f` with the sorted neighbor list of `v` and returns `f`'s
    /// result.
    ///
    /// Takes `&mut self` so implementations may decode into (and cache in)
    /// owned buffers.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    fn with_neighbors<R>(&mut self, v: NodeId, f: impl FnOnce(&[NodeId]) -> R) -> R;
}

impl AdjacencyView for &Graph {
    fn node_count(&self) -> usize {
        Graph::node_count(self)
    }

    fn with_neighbors<R>(&mut self, v: NodeId, f: impl FnOnce(&[NodeId]) -> R) -> R {
        f(self.neighbors(v))
    }
}

/// Folds a scored block into the running first-best-in-order argmax.
///
/// A slot replaces the running best only under strict `>`, scanned in
/// slot order, so among equal scores the first one wins and a NaN never
/// wins. A vectorizable `any(s > best)` pass runs first as a branch-light
/// fast path — when no slot beats the running best, the in-order scan is
/// skipped entirely. The rejection is semantics-preserving even for NaN
/// scores: a NaN fails the strict `>` in both the any-pass and the
/// per-slot scan, so a rejected block could never have updated `best`
/// anyway.
#[inline(always)]
pub fn fold_first_best(best: &mut Option<(f64, NodeId)>, scores: &[f64], nodes: &[NodeId]) {
    debug_assert!(nodes.len() >= scores.len());
    if let Some((b, _)) = *best {
        let mut any = false;
        for &s in scores {
            any |= s > b;
        }
        if !any {
            return;
        }
    }
    for (&s, &v) in scores.iter().zip(nodes) {
        if best.is_none_or(|(b, _)| s > b) {
            *best = Some((s, v));
        }
    }
}

/// Slots per [`first_best_by_blocks`] scorer call.
const SCORE_BLOCK: usize = 8;

/// The first-best argmax of `nodes`: scores them in order, in blocks of up
/// to eight, and folds each block through [`fold_first_best`].
///
/// `score_block(chunk, out)` must fill `out[..chunk.len()]` (`out` holds
/// eight slots); blocked scorers that are bitwise their scalar form give
/// bitwise the scalar argmax.
#[inline(always)]
pub fn first_best_by_blocks(
    nodes: &[NodeId],
    mut score_block: impl FnMut(&[NodeId], &mut [f64]),
) -> Option<(f64, NodeId)> {
    let mut best = None;
    let mut scores = [0.0f64; SCORE_BLOCK];
    for chunk in nodes.chunks(SCORE_BLOCK) {
        score_block(chunk, &mut scores);
        fold_first_best(&mut best, &scores[..chunk.len()], chunk);
    }
    best
}

/// Appends the global neighbor list of a shard's local vertex `l` to
/// `out`, in ascending global id order.
///
/// The shard owns the contiguous ids `start..`; `local` is `l`'s sorted
/// shard-local neighbor list (local ids, so `start` is added), and `table`
/// is the shard's boundary table of `(local source, global target)` rows,
/// sorted, every target outside the shard. `l`'s rows are merged with its
/// local neighbors, so the result is exactly `l`'s list in the unsharded
/// graph — the order the store's shard assembly and sharded routing both
/// rely on. Callers must keep every local id below the shard's length, so
/// that adding `start` cannot overflow.
pub fn merge_shard_neighbors(
    local: impl IntoIterator<Item = u32>,
    start: u32,
    l: u32,
    table: &[(u32, u32)],
    out: &mut Vec<NodeId>,
) {
    let from = table.partition_point(|&(src, _)| src < l);
    let to = table.partition_point(|&(src, _)| src <= l);
    let boundary = &table[from..to];
    let local = local.into_iter();
    out.reserve(local.size_hint().0 + boundary.len());
    let mut j = 0;
    for u in local {
        let g = u + start;
        // a boundary target is never a local id, so < is exact
        while j < boundary.len() && boundary[j].1 < g {
            out.push(NodeId::new(boundary[j].1));
            j += 1;
        }
        out.push(NodeId::new(g));
    }
    out.extend(boundary[j..].iter().map(|&(_, t)| NodeId::new(t)));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_view_matches_neighbors() {
        let g = Graph::from_edges(4, vec![(0, 1), (1, 2), (0, 3)]).unwrap();
        let mut view = &g;
        assert_eq!(AdjacencyView::node_count(&view), 4);
        for v in g.nodes() {
            let from_view = view.with_neighbors(v, |ns| ns.to_vec());
            assert_eq!(from_view, g.neighbors(v));
        }
    }
}

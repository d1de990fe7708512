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
//! A view may also hand a list over run by run ([`AdjacencyView::fold_runs`]):
//! a fold that can bound a whole aligned run of [`RUN_IDS`] ids says which
//! runs it wants before their ids are fetched, so a view that can fetch one
//! run alone never decodes the others.
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

    /// Folds the sorted neighbor list of `v` run by run: for each non-empty
    /// aligned run of [`RUN_IDS`] ids — the fold's [lead](RunFold::lead)
    /// first, if the list has it, then the others in ascending order — asks
    /// [`RunFold::wants`] and hands the run's ids to [`RunFold::fold`] only
    /// if it does.
    ///
    /// The default fetches the whole list through [`Self::with_neighbors`]
    /// and splits it with [`fold_sorted_runs`]. Views that can fetch one
    /// run alone override it so that unwanted runs are never fetched; the
    /// fold sees the same runs either way.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    fn fold_runs(&mut self, v: NodeId, fold: &mut impl RunFold) {
        self.with_neighbors(v, |ns| fold_sorted_runs(ns, fold));
    }
}

/// Ids per run of [`AdjacencyView::fold_runs`]: run `r` holds the ids
/// `r · RUN_IDS .. (r + 1) · RUN_IDS`.
pub const RUN_IDS: usize = 4096;

/// A fold over one vertex's sorted neighbor list, run by run (see
/// [`AdjacencyView::fold_runs`]).
pub trait RunFold {
    /// The run to offer first, if the list has it; `None` (the default)
    /// offers every run in ascending order. Asked before the first run.
    fn lead(&self) -> Option<usize> {
        None
    }

    /// Whether the fold needs the ids of run `run`. Asked once per
    /// non-empty run before its ids are fetched: first the
    /// [lead](Self::lead), if the list has it, then the other runs in
    /// ascending order.
    fn wants(&mut self, run: usize) -> bool;

    /// Folds the ids of the last run [`Self::wants`] accepted: a
    /// non-empty, strictly increasing slice, all in that run.
    fn fold(&mut self, ids: &[NodeId]);
}

/// Splits a sorted neighbor list into its aligned runs of [`RUN_IDS`] ids
/// and hands each run the fold wants to [`RunFold::fold`]: the
/// [lead](RunFold::lead) first, if the list has it, then the others in
/// ascending order — the default [`AdjacencyView::fold_runs`] over an
/// in-memory list.
pub fn fold_sorted_runs(ns: &[NodeId], fold: &mut impl RunFold) {
    let Some(lead) = fold.lead() else {
        return fold_ascending(ns, fold);
    };
    let from = ns.partition_point(|v| v.index() / RUN_IDS < lead);
    let to = from + ns[from..].partition_point(|v| v.index() / RUN_IDS == lead);
    if from < to && fold.wants(lead) {
        fold.fold(&ns[from..to]);
    }
    fold_ascending(&ns[..from], fold);
    fold_ascending(&ns[to..], fold);
}

/// [`fold_sorted_runs`] with no lead: every run in ascending order.
fn fold_ascending(ns: &[NodeId], fold: &mut impl RunFold) {
    for (run, ids) in aligned_ranges(ns, RUN_IDS) {
        if fold.wants(run) {
            fold.fold(ids);
        }
    }
}

/// Splits a slice of distinct ascending ids into its non-empty aligned
/// ranges of `ids` ids, as `(range, members)` pairs in ascending order:
/// range `r` holds the ids `r · ids .. (r + 1) · ids`.
pub fn aligned_ranges(ns: &[NodeId], ids: usize) -> impl Iterator<Item = (usize, &[NodeId])> {
    let mut rest = ns;
    std::iter::from_fn(move || {
        let range = rest.first()?.index() / ids;
        // distinct sorted ids: a range holds at most `ids` of them
        let window = &rest[..rest.len().min(ids)];
        let (members, tail) = rest.split_at(window.partition_point(|v| v.index() / ids == range));
        rest = tail;
        Some((range, members))
    })
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

    /// Records every run it is asked about and keeps the ids of the runs
    /// it accepts, rejecting the runs in `reject`.
    struct Recorder {
        lead: Option<usize>,
        reject: Vec<usize>,
        asked: Vec<usize>,
        kept: Vec<NodeId>,
    }

    impl RunFold for Recorder {
        fn lead(&self) -> Option<usize> {
            self.lead
        }

        fn wants(&mut self, run: usize) -> bool {
            self.asked.push(run);
            !self.reject.contains(&run)
        }

        fn fold(&mut self, ids: &[NodeId]) {
            let run = *self.asked.last().unwrap();
            assert!(ids.iter().all(|v| v.index() / RUN_IDS == run));
            self.kept.extend_from_slice(ids);
        }
    }

    #[test]
    fn default_fold_runs_splits_at_run_boundaries() {
        let hub = 3 * RUN_IDS as u32 + 5;
        let spokes = [0u32, 1, 4095, 4096, 4097, 3 * 4096, 3 * 4096 + 1];
        let n = hub as usize + 1;
        let g = Graph::from_edges(n, spokes.iter().map(|&u| (u, hub))).unwrap();
        let mut view = &g;
        // the lead is asked first when the list has it; run 2 and run 9
        // are absent, so they change nothing
        let leads: [(Option<usize>, [usize; 3]); 6] = [
            (None, [0, 1, 3]),
            (Some(0), [0, 1, 3]),
            (Some(1), [1, 0, 3]),
            (Some(3), [3, 0, 1]),
            (Some(2), [0, 1, 3]),
            (Some(9), [0, 1, 3]),
        ];
        for (lead, order) in leads {
            for reject in [vec![], vec![0], vec![1], vec![0, 3], vec![0, 1, 3]] {
                let mut fold = Recorder {
                    lead,
                    reject: reject.clone(),
                    asked: Vec::new(),
                    kept: Vec::new(),
                };
                view.fold_runs(NodeId::new(hub), &mut fold);
                assert_eq!(fold.asked, order, "lead {lead:?} reject {reject:?}");
                let expect: Vec<NodeId> = order
                    .iter()
                    .flat_map(|&run| spokes.iter().filter(move |&&u| u as usize / RUN_IDS == run))
                    .filter(|&&u| !reject.contains(&(u as usize / RUN_IDS)))
                    .map(|&u| NodeId::new(u))
                    .collect();
                assert_eq!(fold.kept, expect, "lead {lead:?} reject {reject:?}");
            }
        }
    }
}

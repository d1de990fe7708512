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
//! a fold that can bound a whole aligned run of [`RUN_IDS`] ids, or a group
//! of [`GROUP_RUNS`] runs, says which it wants before their ids are fetched,
//! so a view that can fetch one run alone never decodes the others.
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
    /// if it does. The ascending pass goes group by group: it asks
    /// [`RunFold::wants_group`] once for each group of [`GROUP_RUNS`] runs
    /// that holds a run besides the lead, and asks none of a declined
    /// group's runs.
    ///
    /// The default fetches the whole list through [`Self::with_neighbors`]
    /// and splits it with [`fold_sorted_runs`]. Views that can fetch one
    /// run alone override it so that unwanted runs are never fetched; the
    /// fold sees the same questions and runs either way.
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

/// Runs per run group of [`AdjacencyView::fold_runs`]: group `g` holds the
/// runs `g · GROUP_RUNS .. (g + 1) · GROUP_RUNS`, 65,536 ids in all.
pub const GROUP_RUNS: usize = 16;

/// A fold over one vertex's sorted neighbor list, run by run (see
/// [`AdjacencyView::fold_runs`]).
pub trait RunFold {
    /// The run to offer first, if the list has it; `None` (the default)
    /// offers every run in ascending order. Asked before the first run.
    fn lead(&self) -> Option<usize> {
        None
    }

    /// Whether the fold may need any run of group `group` (the runs
    /// `group · GROUP_RUNS ..`). Asked once per list for each group that
    /// holds a non-empty run besides the [lead](Self::lead), in ascending
    /// order after the lead is folded, before any of the group's runs; if
    /// it declines, none of them is asked or fetched. The default wants
    /// every group.
    fn wants_group(&mut self, group: usize) -> bool {
        let _ = group;
        true
    }

    /// Whether the fold needs the ids of run `run`. Asked once per
    /// non-empty run before its ids are fetched: first the
    /// [lead](Self::lead), if the list has it, then the runs of each
    /// wanted group in ascending order.
    fn wants(&mut self, run: usize) -> bool;

    /// Folds the ids of the last run [`Self::wants`] accepted: a
    /// non-empty, strictly increasing slice, all in that run.
    fn fold(&mut self, ids: &[NodeId]);
}

/// Splits a sorted neighbor list into its aligned runs of [`RUN_IDS`] ids
/// and hands each run the fold wants to [`RunFold::fold`]: the
/// [lead](RunFold::lead) first, if the list has it, then the others group
/// by group in ascending order, a group declined by
/// [`RunFold::wants_group`] passed over with one search — the default
/// [`AdjacencyView::fold_runs`] over an in-memory list.
pub fn fold_sorted_runs(ns: &[NodeId], fold: &mut impl RunFold) {
    let Some(lead) = fold.lead() else {
        return fold_groups(ns, &[], fold);
    };
    let from = ns.partition_point(|v| v.index() / RUN_IDS < lead);
    let to = from + ns[from..].partition_point(|v| v.index() / RUN_IDS == lead);
    if from < to && fold.wants(lead) {
        fold.fold(&ns[from..to]);
    }
    fold_groups(&ns[..from], &ns[to..], fold);
}

/// The ascending pass of [`fold_sorted_runs`] over a list whose lead run is
/// cut out: `before` and `after` hold the ids below and above it. Each
/// group is asked once, the lead's group too, although its ids may lie on
/// both sides of the cut.
fn fold_groups(mut before: &[NodeId], mut after: &[NodeId], fold: &mut impl RunFold) {
    const GROUP_IDS: usize = GROUP_RUNS * RUN_IDS;
    while let Some(first) = before.first().or(after.first()) {
        let group = first.index() / GROUP_IDS;
        let (low, rest) = split_range(before, group, GROUP_IDS);
        // every id of `after` lies above `before`, so `after` starts in
        // this group only once `before` is used up
        let (high, rest_after) = if rest.is_empty() {
            split_range(after, group, GROUP_IDS)
        } else {
            (&[][..], after)
        };
        if fold.wants_group(group) {
            fold_ascending(low, fold);
            fold_ascending(high, fold);
        }
        (before, after) = (rest, rest_after);
    }
}

/// Every run of `ns` in ascending order.
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
#[inline]
pub fn aligned_ranges(ns: &[NodeId], ids: usize) -> impl Iterator<Item = (usize, &[NodeId])> {
    let mut rest = ns;
    std::iter::from_fn(move || {
        let range = rest.first()?.index() / ids;
        let members;
        (members, rest) = split_range(rest, range, ids);
        Some((range, members))
    })
}

/// Splits distinct ascending ids, none below range `range` of `ids` ids,
/// into the range's members and the ids above it.
#[inline]
fn split_range(ns: &[NodeId], range: usize, ids: usize) -> (&[NodeId], &[NodeId]) {
    let end = (range + 1) * ids;
    // distinct ids from the range's start on: at most `ids` of them are in it
    let window = &ns[..ns.len().min(ids)];
    ns.split_at(window.partition_point(|v| v.index() < end))
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

/// Slots per [`first_best_by_blocks`] scorer call, and per
/// [`ScoreKernel::score_block`](crate::ScoreKernel::score_block) call of the
/// bounded scans built on it.
///
/// Eight f64 lanes fill one AVX-512 register (two AVX2 or four SSE2 ones)
/// and keep the remainder short.
pub const BLOCK_WIDTH: usize = 8;

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
    let mut scores = [0.0f64; BLOCK_WIDTH];
    for chunk in nodes.chunks(BLOCK_WIDTH) {
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

    #[test]
    fn fold_first_best_keeps_first_winner() {
        let nodes: Vec<NodeId> = (0..6).map(NodeId::new).collect();
        let scores = [1.0, 3.0, 3.0, 2.0, 3.0, 0.5];
        let mut best = None;
        fold_first_best(&mut best, &scores[..3], &nodes[..3]);
        fold_first_best(&mut best, &scores[3..], &nodes[3..]);
        assert_eq!(best, Some((3.0, NodeId::new(1))));
    }

    #[test]
    fn fold_first_best_rejects_unbeatable_blocks() {
        let nodes: Vec<NodeId> = (0..4).map(NodeId::new).collect();
        let mut best = Some((5.0, NodeId::new(9)));
        fold_first_best(&mut best, &[4.0, 5.0, f64::NAN, 1.0], &nodes);
        assert_eq!(best, Some((5.0, NodeId::new(9))));
        // beatable block: the in-order scan runs and lands on the last
        // strict improvement, just like the scalar sweep would
        fold_first_best(&mut best, &[4.0, 5.5, 6.0, 1.0], &nodes);
        assert_eq!(best, Some((6.0, NodeId::new(2))));
    }

    /// Records every group and run it is asked about and keeps the ids of
    /// the runs it accepts, declining the groups in `reject_groups` and the
    /// runs in `reject`.
    #[derive(Default)]
    struct Recorder {
        lead: Option<usize>,
        reject_groups: Vec<usize>,
        reject: Vec<usize>,
        groups: Vec<usize>,
        asked: Vec<usize>,
        kept: Vec<NodeId>,
    }

    impl RunFold for Recorder {
        fn lead(&self) -> Option<usize> {
            self.lead
        }

        fn wants_group(&mut self, group: usize) -> bool {
            self.groups.push(group);
            !self.reject_groups.contains(&group)
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
                    ..Recorder::default()
                };
                view.fold_runs(NodeId::new(hub), &mut fold);
                assert_eq!(fold.groups, [0], "lead {lead:?} reject {reject:?}");
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

    /// Each group holding a run besides the lead is asked once, in
    /// ascending order after the lead, the lead's group included when its
    /// runs lie on both sides of the lead; no run of a declined group is
    /// asked, and the runs folded are the list's, filtered by group and
    /// run.
    #[test]
    fn default_fold_runs_asks_each_group_once() {
        const G: u32 = (GROUP_RUNS * RUN_IDS) as u32;
        const R: u32 = RUN_IDS as u32;
        // runs 0 and 1 in group 0, 16, 18 and 21 in group 1, 32 in group
        // 2 and 48 in group 3
        let spokes = [
            0,
            5,
            R + 1,
            G + 3,
            G + 2 * R,
            G + 5 * R + 7,
            2 * G + 1,
            3 * G + 4,
        ];
        let hub = 3 * G + R;
        let g = Graph::from_edges(hub as usize + 1, spokes.iter().map(|&u| (u, hub))).unwrap();
        let mut view = &g;
        let run_of = |u: u32| u as usize / RUN_IDS;
        let group_of = |run: usize| run / GROUP_RUNS;
        let runs: Vec<usize> = spokes.iter().map(|&u| run_of(u)).collect();
        // leads in a group with runs on both sides, first in a group,
        // alone in its group, and absent from the list
        for lead in [None, Some(18), Some(0), Some(48), Some(2)] {
            let present = lead.filter(|l| runs.contains(l));
            for reject_groups in [vec![], vec![1], vec![0, 2], vec![1, 3]] {
                for reject in [vec![], vec![18], vec![1, 21, 32]] {
                    let mut fold = Recorder {
                        lead,
                        reject_groups: reject_groups.clone(),
                        reject: reject.clone(),
                        ..Recorder::default()
                    };
                    view.fold_runs(NodeId::new(hub), &mut fold);
                    let context = format!("lead {lead:?} groups {reject_groups:?} runs {reject:?}");
                    let mut groups: Vec<usize> = runs
                        .iter()
                        .filter(|&&r| Some(r) != present)
                        .map(|&r| group_of(r))
                        .collect();
                    groups.dedup();
                    assert_eq!(fold.groups, groups, "{context}");
                    let mut asked: Vec<usize> = present.into_iter().collect();
                    asked.extend(
                        runs.iter()
                            .filter(|&&r| Some(r) != present)
                            .filter(|&&r| !reject_groups.contains(&group_of(r))),
                    );
                    asked.dedup();
                    assert_eq!(fold.asked, asked, "{context}");
                    let kept: Vec<NodeId> = asked
                        .iter()
                        .filter(|r| !reject.contains(r))
                        .flat_map(|&r| spokes.iter().filter(move |&&u| run_of(u) == r))
                        .map(|&u| NodeId::new(u))
                        .collect();
                    assert_eq!(fold.kept, kept, "{context}");
                }
            }
        }
    }
}

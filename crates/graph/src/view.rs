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
//! so a view that can fetch one run alone never reads the others. A *run
//! directory* — where each non-empty run of a long list starts — lets a
//! view do that; [`fold_directory`] is the one walk over one, shared by
//! `&Graph` ([`RunDirectory`]) and the store's cursor.
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
    /// and splits it with [`fold_sorted_runs`], which searches the list for
    /// the lead run and for each group and run boundary. Views that can
    /// find a run without searching override it so that unwanted runs are
    /// never read: `&Graph` walks its [`RunDirectory`] for lists of at least
    /// [`DIRECTORY_MIN_IDS`] ids, and the store's cursor a directory of its
    /// own, each through [`fold_directory`]. The fold sees the same
    /// questions and runs either way.
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
/// [`AdjacencyView::fold_runs`] over an in-memory list, and `&Graph`'s for
/// lists shorter than [`DIRECTORY_MIN_IDS`].
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

/// Folds a list through its *run directory*, `entries`: one entry per
/// non-empty run of the list, in ascending run order, `run_of` reading an
/// entry's run number. The fold sees exactly the questions and runs that
/// [`fold_sorted_runs`] gives it from the whole list, in the same order:
/// the [lead](RunFold::lead), found by binary search over the directory,
/// then each group of [`GROUP_RUNS`] runs that holds an entry besides the
/// lead, asked once through [`RunFold::wants_group`], and the runs of each
/// wanted group in ascending order. `fold_entry(i, fold)` fetches the ids
/// of entry `i` and hands them to [`RunFold::fold`]; it is called only for
/// runs [`RunFold::wants`] accepted, so a declined run is never fetched.
///
/// Both run directories walk their lists through it: `&Graph`'s, whose
/// entries index a slice, and the store cursor's, whose entries point into
/// a varint stream.
pub fn fold_directory<E, F: RunFold>(
    entries: &[E],
    run_of: impl Fn(&E) -> usize,
    fold: &mut F,
    mut fold_entry: impl FnMut(usize, &mut F),
) {
    let mut visit = |i: usize, fold: &mut F| {
        if fold.wants(run_of(&entries[i])) {
            fold_entry(i, fold);
        }
    };
    let lead = fold
        .lead()
        .and_then(|lead| entries.binary_search_by_key(&lead, &run_of).ok());
    if let Some(i) = lead {
        visit(i, fold);
    }
    // the ascending pass, group by group, the lead left out
    let mut i = 0;
    while i < entries.len() {
        let group = run_of(&entries[i]) / GROUP_RUNS;
        let end = (group + 1) * GROUP_RUNS;
        // distinct runs from the group's first on: at most `GROUP_RUNS` in it
        let window = &entries[i..entries.len().min(i + GROUP_RUNS)];
        let to = i + window.partition_point(|e| run_of(e) < end);
        let mut members = (i..to).filter(|&k| Some(k) != lead).peekable();
        if members.peek().is_some() && fold.wants_group(group) {
            members.for_each(|k| visit(k, fold));
        }
        i = to;
    }
}

/// Lists of at least this many ids walk [`Graph`]'s [`RunDirectory`] in
/// `&Graph`'s [`AdjacencyView::fold_runs`]; shorter ones are split by
/// [`fold_sorted_runs`].
///
/// Swept on perfbench indexed-1m (10⁶ vertices, λ = 0.02, Morton order,
/// seed 1; three rounds of alternating 10 s runs on a shared 2-core x86-64
/// host). Searching every list, as [`fold_sorted_runs`] does, ran
/// 54.1–56.1k routes/s at 115.6–115.8 MiB peak RSS. A directory for lists
/// of at least 128 ids ran 66.4–80.8k (116.4–116.5 MiB), 256 ids
/// 69.7–80.8k (116.1–116.2 MiB), 512 ids 69.7–78.3k (116.0–116.1 MiB) and
/// 1024 ids 68.1–72.4k (115.8–115.9 MiB). No threshold from 128 to 512 won
/// beyond the runs' spread, and peak RSS grows as the threshold falls, so
/// 256 it is: 1,542 of the 10⁶ lists, 54,648 entries, 0.43 MiB, built in
/// 3.7–4.5 ms.
pub const DIRECTORY_MIN_IDS: usize = 256;

/// Where each non-empty run of a [`Graph`]'s long lists starts: the
/// *run directory* `&Graph`'s [`AdjacencyView::fold_runs`] walks through
/// [`fold_directory`], so that a hop over a long list touches only the runs
/// it folds, not the list lines that searching for the run boundaries
/// would.
///
/// It covers every list of at least [`DIRECTORY_MIN_IDS`] ids, with one
/// 8-byte entry per non-empty run and 12 bytes per list: a list of `d` ids
/// in a graph of `n` vertices takes at most `min(d, ⌈n / RUN_IDS⌉)`
/// entries, so the directory holds at most about twice the bytes of the
/// ids it indexes, and far less in practice: 0.43 MiB for the 1,542 long
/// lists (1.07 million ids, 4.1 MiB) of a 10⁶-vertex λ = 0.02 GIRG in
/// Morton order.
///
/// A [`Graph`] builds it on the first run fold over a long list, and
/// never before: only kernels that bound runs fold lists run by run, and
/// over ids in sampling order no φ bounds are built, so unbounded routes
/// and graphs in sampling order never build one. See
/// [`Graph::run_directory`].
#[derive(Debug, Default)]
pub struct RunDirectory {
    /// The vertices whose lists have a directory, ascending.
    lists: Vec<u32>,
    /// `spans[k] .. spans[k + 1]` indexes `entries` for `lists[k]`.
    spans: Vec<usize>,
    entries: Vec<RunEntry>,
}

/// One non-empty run of a list in a [`RunDirectory`].
#[derive(Clone, Copy, Debug)]
struct RunEntry {
    /// The run number: every id of the run is in `run · RUN_IDS ..`.
    run: u32,
    /// Index of the run's first id within the list.
    start: u32,
}

impl RunDirectory {
    /// The directory of every list of `graph` with at least
    /// [`DIRECTORY_MIN_IDS`] ids.
    pub(crate) fn build(graph: &Graph) -> Self {
        let mut dir = RunDirectory {
            spans: vec![0],
            ..RunDirectory::default()
        };
        for v in graph.nodes() {
            let ns = graph.neighbors(v);
            if ns.len() < DIRECTORY_MIN_IDS {
                continue;
            }
            let mut start = 0;
            for (run, ids) in aligned_ranges(ns, RUN_IDS) {
                dir.entries.push(RunEntry {
                    run: run as u32,
                    start: u32::try_from(start).expect("a list holds fewer than n ≤ 2³² ids"),
                });
                start += ids.len();
            }
            dir.lists.push(v.raw());
            dir.spans.push(dir.entries.len());
        }
        dir
    }

    /// The entries of `v`'s list.
    ///
    /// # Panics
    ///
    /// Panics if `v`'s list has no directory (it is shorter than
    /// [`DIRECTORY_MIN_IDS`]).
    fn entries(&self, v: NodeId) -> &[RunEntry] {
        let k = self
            .lists
            .binary_search(&v.raw())
            .expect("every list of at least DIRECTORY_MIN_IDS ids has a directory");
        &self.entries[self.spans[k]..self.spans[k + 1]]
    }

    /// Lists with a directory.
    pub fn list_count(&self) -> usize {
        self.lists.len()
    }

    /// Directory entries, one per non-empty run of those lists.
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// Heap bytes of the directory.
    pub fn bytes(&self) -> usize {
        self.lists.len() * std::mem::size_of::<u32>()
            + self.spans.len() * std::mem::size_of::<usize>()
            + self.entries.len() * std::mem::size_of::<RunEntry>()
    }
}

impl AdjacencyView for &Graph {
    fn node_count(&self) -> usize {
        Graph::node_count(self)
    }

    fn with_neighbors<R>(&mut self, v: NodeId, f: impl FnOnce(&[NodeId]) -> R) -> R {
        f(self.neighbors(v))
    }

    /// A list shorter than [`DIRECTORY_MIN_IDS`] is split by
    /// [`fold_sorted_runs`]; a longer one walks the graph's
    /// [`RunDirectory`] (built on the first such call), so that only the
    /// runs the fold wants are read.
    fn fold_runs(&mut self, v: NodeId, fold: &mut impl RunFold) {
        let ns = self.neighbors(v);
        if ns.len() < DIRECTORY_MIN_IDS {
            return fold_sorted_runs(ns, fold);
        }
        let entries = self.directory().entries(v);
        fold_directory(
            entries,
            |e| e.run as usize,
            fold,
            |i, fold| {
                let end = entries.get(i + 1).map_or(ns.len(), |e| e.start as usize);
                fold.fold(&ns[entries[i].start as usize..end]);
            },
        );
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

    /// One question a fold was asked, or one run it was handed.
    #[derive(Clone, Debug, PartialEq)]
    enum Asked {
        Lead,
        Group(usize),
        Run(usize),
        Fold(Vec<NodeId>),
    }

    /// Logs every question and run in order, declining the groups and runs
    /// in its reject sets.
    struct Log {
        lead: Option<usize>,
        reject_groups: Vec<usize>,
        reject: Vec<usize>,
        log: std::cell::RefCell<Vec<Asked>>,
    }

    impl RunFold for Log {
        fn lead(&self) -> Option<usize> {
            self.log.borrow_mut().push(Asked::Lead);
            self.lead
        }

        fn wants_group(&mut self, group: usize) -> bool {
            self.log.get_mut().push(Asked::Group(group));
            !self.reject_groups.contains(&group)
        }

        fn wants(&mut self, run: usize) -> bool {
            self.log.get_mut().push(Asked::Run(run));
            !self.reject.contains(&run)
        }

        fn fold(&mut self, ids: &[NodeId]) {
            self.log.get_mut().push(Asked::Fold(ids.to_vec()));
        }
    }

    /// `&Graph`'s directory walk asks a fold exactly what `fold_sorted_runs`
    /// asks it over the whole list, in the same order, and hands it the same
    /// run slices: on random sorted lists across 65,536-id group boundaries,
    /// just below and at `DIRECTORY_MIN_IDS` ids (and longer), with the lead
    /// absent, first, last (also alone in its group) or inside, and random
    /// reject sets.
    #[test]
    fn directory_walk_matches_fold_sorted_runs() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        const GROUP_IDS: usize = GROUP_RUNS * RUN_IDS;
        let groups = 5;
        let n = groups * GROUP_IDS;
        let mut rng = StdRng::seed_from_u64(31);
        let lengths = [
            DIRECTORY_MIN_IDS - 1,
            DIRECTORY_MIN_IDS,
            3 * DIRECTORY_MIN_IDS,
        ];
        // hub `k` gets a list of `lengths[k % 3]` ids, all above the hubs:
        // spread over the whole range, packed around group boundaries, or
        // spread below the last group, which holds only one run of it
        let hubs = 18;
        let lone_run = (groups - 1) * GROUP_RUNS + 5;
        let mut lists = Vec::new();
        for k in 0..hubs {
            let len = lengths[k % lengths.len()];
            let mut ids = std::collections::BTreeSet::new();
            if k / 3 % 3 == 2 {
                ids.extend((0..3).map(|i| (lone_run * RUN_IDS + 7 * i) as u32));
            }
            while ids.len() < len {
                let u = match k / 3 % 3 {
                    0 => rng.gen_range(hubs..n),
                    1 => {
                        let edge = rng.gen_range(1..groups) * GROUP_IDS;
                        rng.gen_range(edge - 2 * RUN_IDS..edge + 2 * RUN_IDS)
                    }
                    _ => rng.gen_range(hubs..(groups - 1) * GROUP_IDS),
                };
                ids.insert(u as u32);
            }
            lists.push(ids);
        }
        let edges = lists
            .iter()
            .enumerate()
            .flat_map(|(k, ids)| ids.iter().map(move |&u| (k as u32, u)));
        let g = Graph::from_edges(n, edges).unwrap();
        assert!(g.run_directory().is_none(), "no fold has run yet");
        for k in 0..hubs {
            let hub = NodeId::from_index(k);
            let ns = g.neighbors(hub);
            let mut runs: Vec<usize> = ns.iter().map(|u| u.index() / RUN_IDS).collect();
            runs.dedup();
            let (first, last) = (runs[0], *runs.last().unwrap());
            // inside the list's span if a run there is empty
            let absent = (first..last)
                .find(|r| !runs.contains(r))
                .unwrap_or(n / RUN_IDS);
            let inside = runs[rng.gen_range(0..runs.len())];
            for lead in [None, Some(absent), Some(first), Some(last), Some(inside)] {
                for _ in 0..8 {
                    let reject: Vec<usize> =
                        runs.iter().copied().filter(|_| rng.gen_bool(0.5)).collect();
                    let reject_groups: Vec<usize> =
                        (0..groups).filter(|_| rng.gen_bool(0.3)).collect();
                    let fold = || Log {
                        lead,
                        reject_groups: reject_groups.clone(),
                        reject: reject.clone(),
                        log: Default::default(),
                    };
                    let mut expect = fold();
                    fold_sorted_runs(ns, &mut expect);
                    let mut walked = fold();
                    (&g).fold_runs(hub, &mut walked);
                    assert_eq!(
                        walked.log.into_inner(),
                        expect.log.into_inner(),
                        "hub {k} ({} ids), lead {lead:?}, groups {reject_groups:?}, runs {reject:?}",
                        ns.len()
                    );
                }
            }
        }
        let dir = g.run_directory().expect("a long list was folded");
        let long: Vec<&[NodeId]> = g
            .nodes()
            .map(|v| g.neighbors(v))
            .filter(|ns| ns.len() >= DIRECTORY_MIN_IDS)
            .collect();
        assert_eq!(dir.list_count(), long.len());
        let runs: usize = long
            .iter()
            .map(|ns| aligned_ranges(ns, RUN_IDS).count())
            .sum();
        assert_eq!(dir.entry_count(), runs);
    }
}

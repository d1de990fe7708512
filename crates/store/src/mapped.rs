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
//! [`MappedCursor`] presents that adjacency through
//! `smallworld_graph::AdjacencyView`, so the same routing loop runs over an
//! in-memory `Graph` or over the file bytes, producing bitwise-identical
//! routes (pinned by `tests/mapped_routing.rs`). Greedy routes revisit
//! high-degree hubs constantly, and a hop needs only the runs of a hub's
//! list whose φ bound can beat it: for a long list the cursor keeps a *run
//! directory* — where each aligned run of `RUN_IDS` ids starts in the
//! stream — so [`AdjacencyView::fold_runs`] decodes only the runs the fold
//! wants. It walks the directory through
//! [`fold_directory`](smallworld_graph::view::fold_directory), the walk a
//! decoded `&Graph` uses over its own directory: it finds the fold's
//! [lead](RunFold::lead) run (the target's, for a greedy hop) by binary
//! search and decodes it first, so the fold's bar is high before it weighs
//! the other runs, then asks about each group of `GROUP_RUNS` runs once and
//! passes over a declined group's directory entries without a question.
//!
//! Whole lists and wanted runs decode through
//! [`varint::decode_sorted_after`], which takes eight stream bytes per step
//! on CPUs with AVX2 and returns exactly what the checked scalar decoder
//! does (DESIGN.md §4h), straight into the cursor's `NodeId` buffers
//! ([`NodeId::with_raw_ids`]). Only a directory build keeps the scalar
//! decoder: it needs each varint's byte offset, and it runs once per
//! cached hub. Before a whole list decodes, the NBR chunks it spans are
//! checked if no decode of the store has checked them yet; a bad chunk or
//! a malformed stream becomes the cursor's [`StoreError`], never a panic.

use smallworld_graph::view::{fold_directory, fold_sorted_runs};
use smallworld_graph::{AdjacencyView, NodeId, RunFold, RUN_IDS};

use crate::csr::CompressedCsr;
use crate::{varint, StoreError};

/// Geometry of [`MappedCursor`]'s cache of decoded lists: vertices map to
/// one of [`LRU_SETS`] sets by `v % LRU_SETS`, each holding [`LRU_WAYS`]
/// lists evicted least-recently-used.
///
/// It serves [`AdjacencyView::with_neighbors`], which unbounded kernels and
/// short lists use. First swept at about 2.7 ns per decoded id with
/// `girg_gen --mapped` (3000 routes on one thread over a 2·10⁵-vertex
/// λ = 1 store in sampling order, where no kernel bounds runs): 16 × 4 and
/// 64 × 4 took 1.27–1.35 s, 256 × 4 and 64 × 16 1.26–1.78 s with 4.5 MiB
/// more peak RSS, and no cache 1.65–2.90 s (59.6k decoded ids per route
/// against 2.6k at 64 × 4).
///
/// Re-swept with the window decoder (shared 2-core x86-64 host, one
/// thread). The same kind of store routing 20,000 distinct pairs, three
/// runs each: 4 × 1 took 2.47–2.57 s (29.1k decoded ids per route, 41 MB
/// peak RSS), 16 × 4 2.18–2.27 s (5.8k, 60 MB), 64 × 4 2.20–2.50 s (2.4k,
/// 76 MB), 256 × 4 2.33–2.36 s (0.9k, 88 MB), 64 × 8 2.28–2.31 s (1.3k,
/// 89 MB). perfbench mapped-1m (seed 1, 10 s runs, six each): 16 × 4 ran
/// 57.0–62.8k routes/s at 116.2 MiB, 64 × 4 59.2–63.8k at 118.6 MiB, 64 × 8
/// 56.4–65.1k at 121.8 MiB (256 × 4: 58.0k, 63.2k at 121.9 MiB). No
/// geometry won on throughput beyond noise, so 64 × 4 stays.
const LRU_SETS: usize = 64;
/// Associativity of the decoded-list cache (see [`LRU_SETS`]).
const LRU_WAYS: usize = 4;

/// A decoded-list way keeps its buffer for the next list only while the
/// buffer holds at most `LIST_SLACK` times the ids the next stream can
/// hold (one per byte, at least [`LIST_KEEP_IDS`]); a larger one is freed,
/// so the cache's memory follows the lists it holds, not the longest hub
/// each way ever held.
const LIST_SLACK: usize = 4;
/// The stream length below which [`LIST_SLACK`] counts as this many ids, so
/// that short lists reuse small buffers instead of reallocating them.
const LIST_KEEP_IDS: usize = 1024;

/// Lists of at least this many bytes get a run directory in
/// [`AdjacencyView::fold_runs`]; shorter ones are folded from the
/// decoded-list cache.
///
/// Swept on perfbench mapped-1m (10⁶ vertices, λ = 1, seed 1, 10 s runs on
/// a shared 2-core x86-64 host) at about 2.7 ns per decoded id, when
/// whole-list decode through the list cache alone ran 12–15k routes/s: 1,
/// 2 and 4 KiB all ran 25–29k routes/s, 16 KiB 21k. Re-swept with the
/// window decoder: 1 KiB ran 55.2k and 57.7k routes/s, 2 KiB 56.9k and
/// 60.1k, 4 KiB 59.2–63.8k (six runs), 8 KiB 54.2k and 55.7k, 16 KiB 47.9k
/// and 51.6k, with peak RSS from 116.4 MiB at 1 KiB through 118.6 at 4 KiB
/// to 124.7 at 16 KiB; 4 KiB stays. At 4 KiB, 529 of the 10⁶ lists get a
/// directory, 1.2 MiB for all of them.
///
/// Re-swept once the hop fold took the target's run first (shared 2-core
/// x86-64 host, four rounds of alternating 10 s runs per seed, seeds 1
/// and 2): 2 KiB ran 46.3–49.2k
/// routes/s, 4 KiB 45.4–49.4k and 8 KiB 41.7–42.5k (seed 1 only). 2 KiB
/// led in 7 of 8 pairs by 1–8%, within the runs' spread across seeds, and
/// its p99 was higher in all 8, by 0.3–2.9 µs (38.3–41.8 µs against
/// 36.1–39.2); peak RSS was 117.1–117.6 MiB throughout. No gain beyond
/// noise, so 4 KiB stays.
const DIRECTORY_MIN_BYTES: usize = 4096;

/// Run-directory cache geometry: vertices map to one of [`DIR_SETS`] sets
/// by `v % DIR_SETS`, each holding [`DIR_WAYS`] directories evicted
/// least-recently-used.
///
/// In the first sweep above, 64 × 4 ran 22–24k routes/s, 256 × 4 25–28k, and
/// neither 256 × 8 nor 1024 × 4 did better. A directory holds at most
/// `⌈n / RUN_IDS⌉` runs of 12 bytes, so the cache holds at most
/// 1024 × 12 B × `⌈n / RUN_IDS⌉`: 2.9 MiB at 10⁶ vertices, 286 MiB at 10⁸.
const DIR_SETS: usize = 256;
/// Associativity of the run-directory cache (see [`DIR_SETS`]).
const DIR_WAYS: usize = 4;

/// A store's adjacency borrowed straight from its mapping: the
/// [`CompressedCsr`] that
/// [`GraphStore::mapped_graph`](crate::GraphStore::mapped_graph) returns.
pub type MappedGraph<'a> = CompressedCsr<'a>;

impl CompressedCsr<'_> {
    /// An adjacency cursor decoding neighbor lists on demand, with a
    /// set-associative LRU of decoded lists and one of run directories.
    pub fn cursor(&self) -> MappedCursor<'_> {
        MappedCursor {
            graph: self,
            lists: (0..LRU_SETS * LRU_WAYS).map(|_| Way::default()).collect(),
            directories: (0..DIR_SETS * DIR_WAYS).map(|_| Way::default()).collect(),
            ids: Vec::new(),
            error: None,
            tick: 0,
            hits: 0,
            misses: 0,
            decoded_ids: 0,
            skipped_runs: 0,
        }
    }
}

/// Whether a list of `len` stream bytes gets a run directory: long enough
/// to pay for one, and short enough that every byte offset within it fits
/// [`RunStart::offset`]. A longer list takes the whole-list path; no offset
/// is ever truncated.
fn takes_directory(len: usize) -> bool {
    len >= DIRECTORY_MIN_BYTES && u32::try_from(len).is_ok()
}

/// Where one non-empty run of a list starts in its stream (12 bytes).
#[derive(Clone, Copy, Debug)]
struct RunStart {
    /// The run number: every id of the run is in `run · RUN_IDS ..`.
    run: u32,
    /// Byte offset of the run's first varint within the list's stream; 0
    /// only for the first run, whose first id is stored absolute.
    offset: u32,
    /// The id before the run's first id, which its first gap continues
    /// (unused at offset 0).
    prev: u32,
}

/// One way of a set-associative cache: a value tagged with its vertex and
/// last-touch tick. `u32::MAX` marks an empty way (vertex ids are
/// `< u32::MAX` because `NodeId::from_index` bounds them).
#[derive(Debug)]
struct Way<T> {
    vertex: u32,
    tick: u64,
    value: T,
}

impl<T: Default> Default for Way<T> {
    fn default() -> Self {
        Way {
            vertex: u32::MAX,
            tick: 0,
            value: T::default(),
        }
    }
}

/// Finds `v` in its set of a set-major cache of `ways`-way sets, touching
/// the way at `tick`: `Ok` with the way holding `v`, or `Err` with the
/// set's least-recently-used way, untagged — so a fill that panics midway
/// leaves an empty way, never a partial value cached under `v`. The caller
/// tags a filled way with `v`.
fn lookup<T>(
    cache: &mut [Way<T>],
    ways: usize,
    v: NodeId,
    tick: u64,
) -> Result<&mut Way<T>, &mut Way<T>> {
    let set = v.index() % (cache.len() / ways);
    let set = &mut cache[set * ways..(set + 1) * ways];
    let hit = set.iter().position(|w| w.vertex == v.raw());
    let i = hit.unwrap_or_else(|| {
        (0..ways)
            .min_by_key(|&i| set[i].tick)
            .expect("cache sets are non-empty")
    });
    let way = &mut set[i];
    way.tick = tick;
    if hit.is_some() {
        Ok(way)
    } else {
        way.vertex = u32::MAX;
        Err(way)
    }
}

/// Decodes `stream` (after `after`, see [`varint::decode_sorted_after`])
/// into `ids` in place of its contents. `ids` first reserves exactly the
/// room the decoder can use — one id per stream byte plus its
/// [`varint::DECODE_SLACK`] — so it never grows by doubling: its capacity
/// ends at most at that room or where it was.
fn decode(stream: &[u8], after: Option<u32>, ids: &mut Vec<NodeId>) -> Result<(), StoreError> {
    NodeId::with_raw_ids(ids, |raw| {
        raw.clear();
        raw.reserve_exact(stream.len() + varint::DECODE_SLACK);
        varint::decode_sorted_after(stream, after, raw)
    })
}

/// Checks that a decoded whole list names only vertices of a graph of
/// `node_count`: the list increases, so its last id is its largest.
fn in_range(ids: &[NodeId], node_count: usize) -> Result<(), StoreError> {
    match ids.last() {
        Some(last) if last.index() >= node_count => Err(StoreError::Corrupt(format!(
            "neighbor id {} out of range for {node_count} vertices",
            last.raw()
        ))),
        _ => Ok(()),
    }
}

/// A stateful adjacency reader over a [`CompressedCsr`] that decodes on
/// demand. Implements [`AdjacencyView`], so routing loops are generic over
/// it.
///
/// [`AdjacencyView::with_neighbors`] decodes the whole list, through a
/// small LRU of decoded lists (greedy routes revisit hubs constantly).
/// [`AdjacencyView::fold_runs`] does the same for a short list, but a list
/// of at least `DIRECTORY_MIN_BYTES` bytes gets a *run directory* on its
/// first visit, built during that visit's one checked decode: the run
/// number, byte offset and preceding id of each non-empty run. Directories
/// live in an LRU of their own, and a later visit (walked by
/// [`fold_directory`]) decodes only the runs the fold wants — the
/// [lead](RunFold::lead) first, then the others group by
/// group in ascending order, each group asked once through
/// [`RunFold::wants_group`] and a declined one's runs neither asked nor
/// decoded — each with the same checks as the whole list, so the fold
/// sees exactly the questions, runs and ids, in the same order, that
/// `fold_sorted_runs` hands it from the whole list.
///
/// Cursors are cheap and thread-confined; parallel harnesses create one
/// per worker over the same shared [`CompressedCsr`]. A store's NBR chunks
/// are checked on the first whole-list decode that reads them, by whichever
/// cursor gets there first; the record of verified chunks is the store's.
///
/// # Errors
///
/// [`AdjacencyView`] cannot fail, so the cursor keeps the first
/// [`StoreError`] it meets, for [`MappedCursor::error`] and
/// [`MappedCursor::take_error`]: [`StoreError::ChecksumMismatch`] when an
/// NBR chunk a list spans does not match its CRC, and
/// [`StoreError::Corrupt`] on a malformed varint stream (a truncated varint
/// or an id past `u32`) or a list naming an id out of range, which a store
/// written with one reaches, since its checksums match.
/// [`AdjacencyView::with_neighbors`] and [`AdjacencyView::fold_runs`] then
/// present that vertex's list as empty, so a route dead-ends there, on the
/// first visit and every later one: a list or directory is cached only
/// once its list decoded cleanly. Callers check the error once they are
/// done routing.
#[derive(Debug)]
pub struct MappedCursor<'a> {
    graph: &'a CompressedCsr<'a>,
    /// `LRU_SETS × LRU_WAYS` decoded lists, set-major.
    lists: Vec<Way<Vec<NodeId>>>,
    /// `DIR_SETS × DIR_WAYS` run directories, set-major.
    directories: Vec<Way<Vec<RunStart>>>,
    /// The list or run the directory path decoded last.
    ids: Vec<NodeId>,
    /// The first error met (see [`MappedCursor`]'s `# Errors`).
    error: Option<StoreError>,
    tick: u64,
    hits: u64,
    misses: u64,
    decoded_ids: u64,
    skipped_runs: u64,
}

impl<'a> MappedCursor<'a> {
    /// Visits served from a cached decoded list or run directory.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Visits that decoded a whole list: decoded-list cache misses and
    /// directory builds.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Neighbor ids decoded since creation.
    pub fn decoded_ids(&self) -> u64 {
        self.decoded_ids
    }

    /// Runs a fold did not want, one by one or with their whole group, and
    /// a cached directory let the cursor skip without decoding them.
    pub fn skipped_runs(&self) -> u64 {
        self.skipped_runs
    }

    /// The first error a visit met, if any: the lists it made empty were
    /// not the store's.
    pub fn error(&self) -> Option<&StoreError> {
        self.error.as_ref()
    }

    /// Takes the first error a visit met, leaving none.
    pub fn take_error(&mut self) -> Option<StoreError> {
        self.error.take()
    }
}

/// Keeps `result`'s error in `slot` unless one is kept already, and
/// returns whether `result` was `Ok`.
fn keep_first(slot: &mut Option<StoreError>, result: Result<(), StoreError>) -> bool {
    match result {
        Ok(()) => true,
        Err(e) => {
            slot.get_or_insert(e);
            false
        }
    }
}

impl AdjacencyView for MappedCursor<'_> {
    fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    fn with_neighbors<R>(&mut self, v: NodeId, f: impl FnOnce(&[NodeId]) -> R) -> R {
        self.tick += 1;
        let list = match lookup(&mut self.lists, LRU_WAYS, v, self.tick) {
            Ok(hit) => {
                self.hits += 1;
                hit
            }
            Err(victim) => {
                self.misses += 1;
                let decoded = self.graph.checked_stream(v.index()).and_then(|stream| {
                    // a stream holds at most one id per byte: a hub's
                    // buffer is given back rather than kept by a short
                    // list's way
                    if victim.value.capacity() > LIST_SLACK * stream.len().max(LIST_KEEP_IDS) {
                        victim.value = Vec::new();
                    }
                    decode(stream, None, &mut victim.value)?;
                    in_range(&victim.value, self.graph.node_count())
                });
                if !keep_first(&mut self.error, decoded) {
                    return f(&[]);
                }
                self.decoded_ids += victim.value.len() as u64;
                victim.vertex = v.raw();
                victim
            }
        };
        f(&list.value)
    }

    fn fold_runs(&mut self, v: NodeId, fold: &mut impl RunFold) {
        let graph = self.graph;
        let stream = graph.stream(v.index());
        if !takes_directory(stream.len()) {
            return self.with_neighbors(v, |ns| fold_sorted_runs(ns, fold));
        }
        self.tick += 1;
        let (ids, error) = (&mut self.ids, &mut self.error);
        match lookup(&mut self.directories, DIR_WAYS, v, self.tick) {
            Ok(dir) => {
                self.hits += 1;
                // the build checked the list's chunks and decoded it whole
                let runs = &dir.value;
                let (mut folded, mut decoded) = (0, 0);
                fold_directory(
                    runs,
                    |r| r.run as usize,
                    fold,
                    |i, fold| {
                        let start = runs[i];
                        let end = runs
                            .get(i + 1)
                            .map_or(stream.len(), |next| next.offset as usize);
                        let after = (start.offset != 0).then_some(start.prev);
                        let run = decode(&stream[start.offset as usize..end], after, ids);
                        if keep_first(error, run) {
                            fold.fold(ids);
                            folded += 1;
                            decoded += ids.len();
                        }
                    },
                );
                // every run not folded was skipped, alone or with its group
                self.decoded_ids += decoded as u64;
                self.skipped_runs += (runs.len() - folded) as u64;
            }
            Err(victim) => {
                self.misses += 1;
                let runs = &mut victim.value;
                runs.clear();
                ids.clear();
                // the build needs each varint's offset: the scalar decoder
                let built = graph.checked_stream(v.index()).and_then(|stream| {
                    varint::decode_sorted_from(stream, None, |offset, id| {
                        let run = id / RUN_IDS as u32;
                        if runs.last().is_none_or(|r| r.run != run) {
                            runs.push(RunStart {
                                run,
                                offset: u32::try_from(offset)
                                    .expect("offsets of a list with a directory fit u32"),
                                prev: ids.last().map_or(0, |u| u.raw()),
                            });
                        }
                        ids.push(NodeId::new(id));
                    })?;
                    in_range(ids, graph.node_count())
                });
                if !keep_first(error, built) {
                    return;
                }
                victim.vertex = v.raw();
                self.decoded_ids += ids.len() as u64;
                fold_sorted_runs(ids, fold);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{write_girg_swg, GraphStore};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use smallworld_graph::GROUP_RUNS;
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

    /// A fold that wants every run and keeps its ids.
    struct KeepAll(Vec<NodeId>);

    impl RunFold for KeepAll {
        fn wants(&mut self, _run: usize) -> bool {
            true
        }

        fn fold(&mut self, ids: &[NodeId]) {
            self.0.extend_from_slice(ids);
        }
    }

    /// Records the groups and runs a fold is asked about, in order, and the
    /// ids of the runs it accepts, declining the groups in `reject_groups`
    /// and the runs in `reject`.
    struct Recorder {
        lead: Option<usize>,
        reject_groups: Vec<usize>,
        reject: Vec<usize>,
        groups: Vec<usize>,
        asked: Vec<usize>,
        kept: Vec<(usize, Vec<NodeId>)>,
    }

    impl Recorder {
        fn new(lead: Option<usize>, reject: &[usize]) -> Self {
            Recorder {
                lead,
                reject_groups: Vec::new(),
                reject: reject.to_vec(),
                groups: Vec::new(),
                asked: Vec::new(),
                kept: Vec::new(),
            }
        }
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
            self.kept.push((*self.asked.last().unwrap(), ids.to_vec()));
        }
    }

    /// A hub list long enough for a run directory is folded lead first,
    /// then every other run once in ascending order — on the visit that
    /// builds the directory and on the ones that reuse it — exactly as
    /// `fold_sorted_runs` folds the decoded list; an absent lead changes
    /// nothing.
    #[test]
    fn directory_folds_the_lead_run_first() {
        let n = 6 * RUN_IDS;
        // runs 0, 1, 3, 4 and 5; run 2 is empty
        let hub: Vec<u32> = (1..n as u32)
            .filter(|&u| u % 3 == 0 && u as usize / RUN_IDS != 2)
            .collect();
        let csr = CompressedCsr::encode(n, 2 * hub.len(), |v, list| {
            if v == 0 {
                list.extend_from_slice(&hub);
            }
        });
        assert!(takes_directory(csr.stream(0).len()));
        let mut decoded = Vec::new();
        csr.decode_into(0, &mut decoded).unwrap();
        let list: Vec<NodeId> = decoded.into_iter().map(NodeId::new).collect();
        let present = [0, 1, 3, 4, 5];
        for lead in [None, Some(0), Some(3), Some(5), Some(2), Some(100)] {
            let order: Vec<usize> = lead
                .filter(|l| present.contains(l))
                .into_iter()
                .chain(present.iter().copied().filter(|&r| Some(r) != lead))
                .collect();
            let mut cursor = csr.cursor();
            for reject in [&[][..], &[0, 4], &[1, 3, 5]] {
                let mut expect = Recorder::new(lead, reject);
                fold_sorted_runs(&list, &mut expect);
                assert_eq!(expect.asked, order, "lead {lead:?}");
                for visit in ["miss", "hit"] {
                    let mut fold = Recorder::new(lead, reject);
                    let (hits, skipped) = (cursor.hits(), cursor.skipped_runs());
                    cursor.fold_runs(NodeId::new(0), &mut fold);
                    let context = format!("lead {lead:?} reject {reject:?} {visit}");
                    assert_eq!(fold.asked, order, "{context}");
                    assert_eq!(fold.kept, expect.kept, "{context}");
                    if cursor.hits() > hits {
                        assert_eq!(cursor.skipped_runs() - skipped, reject.len() as u64);
                    }
                }
            }
            assert_eq!(cursor.misses(), 1, "lead {lead:?}: one directory build");
        }
    }

    /// On a directory hit, a group the fold declines is passed over whole:
    /// none of its runs is asked or decoded, each counts in
    /// `skipped_runs`, and the fold sees the questions and ids that
    /// `fold_sorted_runs` gives it from the decoded list — also when the
    /// lead is alone in its group, which is then not asked.
    #[test]
    fn directory_skips_declined_groups_unasked() {
        let full_groups = 3;
        // groups 0–2 hold every run; group 3 holds only run `lone`
        let lone = full_groups * GROUP_RUNS + 2;
        let hub: Vec<u32> = (1..(full_groups * GROUP_RUNS * RUN_IDS) as u32)
            .filter(|&u| u % 3 == 0)
            .chain([1, 5, 9].map(|k| (lone * RUN_IDS + k) as u32))
            .collect();
        let n = (full_groups + 1) * GROUP_RUNS * RUN_IDS;
        let csr = CompressedCsr::encode(n, 2 * hub.len(), |v, list| {
            if v == 0 {
                list.extend_from_slice(&hub);
            }
        });
        let list: Vec<NodeId> = hub.iter().map(|&u| NodeId::new(u)).collect();
        let runs = full_groups * GROUP_RUNS + 1;
        let mut cursor = csr.cursor();
        cursor.fold_runs(NodeId::new(0), &mut KeepAll(Vec::new()));
        assert_eq!(cursor.misses(), 1, "the first visit builds the directory");
        // a lead inside group 1, one alone in its group, and an absent one
        for lead in [None, Some(GROUP_RUNS + 4), Some(lone), Some(lone + 5)] {
            for reject_groups in [vec![], vec![1], vec![0, 2], vec![3]] {
                for reject in [&[][..], &[3, 2 * GROUP_RUNS + 8]] {
                    let context = format!("lead {lead:?} groups {reject_groups:?} runs {reject:?}");
                    let mut expect = Recorder::new(lead, reject);
                    expect.reject_groups = reject_groups.clone();
                    fold_sorted_runs(&list, &mut expect);
                    let mut fold = Recorder::new(lead, reject);
                    fold.reject_groups = reject_groups.clone();
                    let (hits, decoded, skipped) =
                        (cursor.hits(), cursor.decoded_ids(), cursor.skipped_runs());
                    cursor.fold_runs(NodeId::new(0), &mut fold);
                    assert_eq!(cursor.hits(), hits + 1, "{context}");
                    assert_eq!(fold.groups, expect.groups, "{context}");
                    assert_eq!(fold.asked, expect.asked, "{context}");
                    assert_eq!(fold.kept, expect.kept, "{context}");
                    assert!(
                        fold.asked
                            .iter()
                            .all(|&r| Some(r) == lead || !reject_groups.contains(&(r / GROUP_RUNS))),
                        "{context}: a declined group's run was asked"
                    );
                    let folded_ids: usize = fold.kept.iter().map(|(_, ids)| ids.len()).sum();
                    assert_eq!(
                        cursor.decoded_ids() - decoded,
                        folded_ids as u64,
                        "{context}"
                    );
                    assert_eq!(
                        cursor.skipped_runs() - skipped,
                        (runs - fold.kept.len()) as u64,
                        "{context}"
                    );
                }
            }
        }
    }

    /// A way that held a hub's list does not keep its buffer for the short
    /// list that evicts it.
    #[test]
    fn evicting_a_hub_frees_its_buffer() {
        let n = 40_000;
        let hub_len = 20_000u32;
        // the hub and four leaves in cache set 0
        let leaves = (1..=LRU_WAYS).map(|k| k * LRU_SETS);
        let csr = CompressedCsr::encode(n, 2 * hub_len as usize, |v, list| {
            if v == 0 {
                list.extend(1..=hub_len);
            } else if v % LRU_SETS == 0 && v <= LRU_WAYS * LRU_SETS {
                list.push(v as u32 + 1);
            }
        });
        let mut cursor = csr.cursor();
        cursor.with_neighbors(NodeId::new(0), |ns| assert_eq!(ns.len(), hub_len as usize));
        for leaf in leaves {
            cursor.with_neighbors(NodeId::from_index(leaf), |ns| assert_eq!(ns.len(), 1));
        }
        assert!(
            cursor.lists[..LRU_WAYS].iter().all(|w| w.vertex != 0),
            "hub evicted"
        );
        let largest = cursor
            .lists
            .iter()
            .map(|w| w.value.capacity())
            .max()
            .unwrap();
        assert!(
            largest <= LIST_SLACK * LIST_KEEP_IDS,
            "a way kept {largest} ids of capacity"
        );
    }

    #[test]
    fn only_lists_whose_offsets_fit_get_a_directory() {
        assert!(!takes_directory(0));
        assert!(!takes_directory(DIRECTORY_MIN_BYTES - 1));
        assert!(takes_directory(DIRECTORY_MIN_BYTES));
        assert!(takes_directory(u32::MAX as usize));
        // a longer list would wrap a `u32` offset: it is decoded whole
        if let Some(too_long) = (u32::MAX as usize).checked_add(1) {
            assert!(!takes_directory(too_long));
        }
    }

    /// A malformed varint at the end of a hub list is the cursor's typed
    /// error on the first visit, which builds the directory, and on every
    /// later one, through the run fold as through `with_neighbors`: the list
    /// is presented empty, no partial directory is ever cached, and the
    /// other lists still decode.
    #[test]
    fn malformed_hub_list_is_a_typed_error_on_every_visit() {
        let n = 3 * RUN_IDS + 10;
        let hub: Vec<u32> = (1..=2 * DIRECTORY_MIN_BYTES as u32)
            .map(|u| 3 * u)
            .collect();
        let mut data = Vec::new();
        varint::encode_sorted(&hub, &mut data);
        data.push(0x80); // a varint cut short
        let mut offsets = vec![data.len() as u64; n + 1];
        offsets[0] = 0;
        let csr = CompressedCsr::from_parts(offsets, data, n, hub.len()).unwrap();
        assert!(takes_directory(csr.stream(0).len()));
        let mut cursor = csr.cursor();
        assert!(cursor.error().is_none());
        let hub = NodeId::new(0);
        for visit in 0..3 {
            let mut fold = KeepAll(Vec::new());
            cursor.fold_runs(hub, &mut fold);
            assert!(fold.0.is_empty(), "visit {visit}: the fold saw ids");
            assert!(
                matches!(cursor.take_error(), Some(StoreError::Corrupt(_))),
                "visit {visit}: fold_runs"
            );
            assert_eq!(cursor.with_neighbors(hub, |ns| ns.len()), 0);
            assert!(
                matches!(cursor.take_error(), Some(StoreError::Corrupt(_))),
                "visit {visit}: with_neighbors"
            );
        }
        assert_eq!(cursor.hits(), 0, "no list or directory was cached");
        // the first error is kept while later visits fail again
        cursor.with_neighbors(hub, |_| ());
        let first = format!("{:?}", cursor.error());
        cursor.fold_runs(hub, &mut KeepAll(Vec::new()));
        assert_eq!(format!("{:?}", cursor.error()), first);
        assert!(cursor.take_error().is_some() && cursor.error().is_none());
        assert_eq!(cursor.with_neighbors(NodeId::new(1), |ns| ns.len()), 0);
        assert!(cursor.error().is_none(), "an empty list is not an error");
    }

    /// A refilled way reserves exactly the room its stream can decode to,
    /// so its capacity stays at most the larger of that room and what it
    /// held: it never doubles past a list.
    #[test]
    fn refilled_way_capacity_is_bounded_by_its_stream() {
        let n = 3 * LIST_KEEP_IDS;
        // vertex v holds v + 1 ids, so each stream is longer than the last
        let csr = CompressedCsr::encode(n, 0, |v, list| {
            if v % LRU_SETS == 0 && v < LRU_SETS * 40 {
                list.extend((0..=v as u32).filter(|&u| u as usize != v));
                list.push(n as u32 - 1);
            }
        });
        let mut cursor = csr.cursor();
        for v in (0..LRU_SETS * 40).step_by(LRU_SETS) {
            // the way this list evicts into: the set's least recently used
            let before: Vec<usize> = cursor.lists[..LRU_WAYS]
                .iter()
                .map(|w| w.value.capacity())
                .collect();
            let len = cursor.with_neighbors(NodeId::from_index(v), |ns| ns.len());
            let room = csr.stream(v).len() + varint::DECODE_SLACK;
            let way = cursor.lists[..LRU_WAYS]
                .iter()
                .position(|w| w.vertex == v as u32)
                .expect("cached in set 0");
            let capacity = cursor.lists[way].value.capacity();
            assert!(len <= csr.stream(v).len());
            assert!(
                capacity <= room.max(before[way]),
                "vertex {v}: capacity {capacity}, stream room {room}, before {}",
                before[way]
            );
        }
        assert!(cursor.error().is_none());
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

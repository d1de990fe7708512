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
//! wants.
//!
//! Whole lists and wanted runs decode through
//! [`varint::decode_sorted_after`], which takes eight stream bytes per step
//! on CPUs with AVX2 and returns exactly what the checked scalar decoder
//! does (DESIGN.md §4h), straight into the cursor's `NodeId` buffers
//! ([`NodeId::with_raw_ids`]). Only a directory build keeps the scalar
//! decoder: it needs each varint's byte offset, and it runs once per
//! cached hub.

use smallworld_graph::view::fold_sorted_runs;
use smallworld_graph::{AdjacencyView, NodeId, RunFold, RUN_IDS};

use crate::csr::CompressedCsr;
use crate::varint;

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

/// What a malformed stream panics with (see [`MappedCursor`]).
const UNDECODABLE: &str = "validated store has decodable neighbor streams";

/// Decodes `stream` (after `after`, see [`varint::decode_sorted_after`])
/// into `ids` in place of its contents, panicking as [`MappedCursor`]
/// documents on a malformed stream.
fn decode(stream: &[u8], after: Option<u32>, ids: &mut Vec<NodeId>) {
    NodeId::with_raw_ids(ids, |raw| {
        raw.clear();
        varint::decode_sorted_after(stream, after, raw)
    })
    .expect(UNDECODABLE);
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
/// live in an LRU of their own, and a later visit decodes only the runs the
/// fold wants, each with the same checks as the whole list, so the fold
/// sees exactly the runs and ids of the whole list.
///
/// Cursors are cheap and thread-confined; parallel harnesses create one
/// per worker over the same shared [`CompressedCsr`].
///
/// # Panics
///
/// [`AdjacencyView::with_neighbors`] and [`AdjacencyView::fold_runs`]
/// panic on a malformed varint stream (a truncated varint or an id past
/// `u32`) on the first visit, since that visit decodes the whole list; a
/// list or directory is cached only once its list decoded cleanly. Opening
/// a store proves only that its bytes are the ones that were written — the
/// section checksums match — and [`CompressedCsr::from_parts`] checks only
/// the offsets index, so a store written with a malformed stream reaches
/// this panic. Making the view fallible is the ROADMAP's store-v2
/// "fallible view" item; until then, [`CompressedCsr::decode`] is the path
/// that returns a typed error instead.
#[derive(Debug)]
pub struct MappedCursor<'a> {
    graph: &'a CompressedCsr<'a>,
    /// `LRU_SETS × LRU_WAYS` decoded lists, set-major.
    lists: Vec<Way<Vec<NodeId>>>,
    /// `DIR_SETS × DIR_WAYS` run directories, set-major.
    directories: Vec<Way<Vec<RunStart>>>,
    /// The list or run the directory path decoded last.
    ids: Vec<NodeId>,
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

    /// Runs a fold did not want and a cached directory let the cursor skip
    /// without decoding them.
    pub fn skipped_runs(&self) -> u64 {
        self.skipped_runs
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
                decode(self.graph.stream(v.index()), None, &mut victim.value);
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
        let ids = &mut self.ids;
        match lookup(&mut self.directories, DIR_WAYS, v, self.tick) {
            Ok(dir) => {
                self.hits += 1;
                let runs = &dir.value;
                for (i, start) in runs.iter().enumerate() {
                    if !fold.wants(start.run as usize) {
                        self.skipped_runs += 1;
                        continue;
                    }
                    let end = runs
                        .get(i + 1)
                        .map_or(stream.len(), |next| next.offset as usize);
                    let after = (start.offset != 0).then_some(start.prev);
                    decode(&stream[start.offset as usize..end], after, ids);
                    self.decoded_ids += ids.len() as u64;
                    fold.fold(ids);
                }
            }
            Err(victim) => {
                self.misses += 1;
                let runs = &mut victim.value;
                runs.clear();
                ids.clear();
                // the build needs each varint's offset: the scalar decoder
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
                })
                .expect(UNDECODABLE);
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

    /// A malformed varint at the end of a hub list panics on the first
    /// visit, which builds the directory, and on every later one, through
    /// the run fold as through `with_neighbors`: no partial directory is
    /// ever cached.
    #[test]
    fn malformed_hub_list_panics_on_every_visit() {
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
        let expect = UNDECODABLE;
        for visit in 0..3 {
            let folded = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                cursor.fold_runs(NodeId::new(0), &mut KeepAll(Vec::new()))
            }));
            let listed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                cursor.with_neighbors(NodeId::new(0), |ns| ns.len())
            }));
            for (path, result) in [
                ("fold_runs", folded.err()),
                ("with_neighbors", listed.err()),
            ] {
                let message = result
                    .unwrap_or_else(|| panic!("visit {visit}: {path} decoded a malformed list"))
                    .downcast::<String>()
                    .unwrap();
                assert!(message.contains(expect), "visit {visit}: {path}: {message}");
            }
        }
        assert_eq!(cursor.hits(), 0, "no directory was cached");
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

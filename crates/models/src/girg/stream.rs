//! Out-of-core GIRG sampling: spill Morton-sorted edge runs to disk and
//! k-way merge them, so the full edge list never lives in memory.
//!
//! [`GirgBuilder::sample`] materializes every sampled edge in one `Vec`
//! and then builds an in-memory CSR — at 10⁸ vertices that is tens of
//! gigabytes before the store writer even starts. The streamed path keeps
//! the identical sampling mathematics (same RNG draws in the same order,
//! same per-task seed splitting) but changes only where edges *go*:
//!
//! 1. vertices are drawn exactly as in `sample`, then the Morton
//!    relabeling permutation is computed from the positions;
//! 2. the cell sampler's deterministic task list is executed in
//!    index-range batches ([`super::cells::CellPlan`]); each batch's edges
//!    are relabeled on the fly and appended as two half-edges
//!    `(src, tgt)` packed into `u64` keys to a run buffer;
//! 3. full run buffers are sorted and spilled to a single append-only
//!    spill file as delta-varint runs;
//! 4. [`StreamedGirg::half_edges`] k-way merges the runs back into one
//!    strictly increasing half-edge stream for the store writer: a binary
//!    min-heap over the run heads, whose top is replaced in place (one
//!    sift per key), fed by varints decoded straight from each run's read
//!    buffer.
//!
//! Peak memory is `O(vertices + run buffer)`: positions, weights, the
//! permutation, one run buffer, and one batch's edge output. The merged
//! stream is byte-for-byte the adjacency `sample` + Morton relabel would
//! produce — `smallworld-store` pins this by comparing whole `.swg` files.

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::error::Error;
use std::fmt;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use rand::Rng;

use smallworld_geometry::Point;
use smallworld_graph::{NodeId, Permutation};

use crate::kernel::GirgKernel;
use crate::poisson::sample_poisson;
use crate::weights::PowerLaw;
use crate::{check_param, ModelError};

use super::{cells, naive, use_cells, GirgBuilder, GirgParams, SamplerCounts};

/// Half-edge run-buffer capacity in keys (8 bytes each): large enough
/// that run count stays small at full scale, small enough that the buffer
/// is negligible next to the position/weight lanes.
const MAX_RUN_KEYS: usize = 1 << 23;
/// Floor on the run buffer so tiny instances still batch sensibly.
const MIN_RUN_KEYS: usize = 1 << 16;
/// Target number of task batches per sampling run: bounds one batch's
/// in-flight edge Vec to roughly `edges / 256`.
const TARGET_BATCHES: usize = 256;

/// Error from the streamed sampling pipeline: either the model parameters
/// were invalid (as in [`GirgBuilder::sample`]) or spill-file I/O failed.
#[derive(Debug)]
pub enum StreamError {
    /// Invalid model parameters or an unsupported configuration.
    Model(ModelError),
    /// Spill-file I/O failure.
    Io(io::Error),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Model(e) => write!(f, "streamed sampling: {e}"),
            StreamError::Io(e) => write!(f, "streamed sampling spill i/o: {e}"),
        }
    }
}

impl Error for StreamError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StreamError::Model(e) => Some(e),
            StreamError::Io(e) => Some(e),
        }
    }
}

impl From<ModelError> for StreamError {
    fn from(e: ModelError) -> Self {
        StreamError::Model(e)
    }
}

impl From<io::Error> for StreamError {
    fn from(e: io::Error) -> Self {
        StreamError::Io(e)
    }
}

/// One spilled run: `count` delta-varint-encoded keys starting at byte
/// `offset` of the spill file.
#[derive(Clone, Copy, Debug)]
struct RunMeta {
    offset: u64,
    count: u64,
}

/// Appends an LEB128 varint (7 data bits per byte, continuation bit 0x80,
/// least-significant group first).
#[inline]
fn write_var(mut value: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads one LEB128 varint straight out of `r`'s buffer, refilling it
/// only when the varint straddles the buffer's end.
///
/// # Errors
///
/// `UnexpectedEof` if the input ends inside the varint, `InvalidData` if
/// it overflows `u64`.
#[inline]
fn read_var<R: BufRead>(r: &mut R) -> io::Result<u64> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let buf = r.fill_buf()?;
        if buf.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "spill run ends inside a varint",
            ));
        }
        let mut done = false;
        let mut used = 0;
        for &byte in buf {
            used += 1;
            let group = (byte & 0x7f) as u64;
            if shift >= 64 || (shift == 63 && group > 1) {
                return Err(io::Error::new(io::ErrorKind::InvalidData, "spill varint overflow"));
            }
            value |= group << shift;
            if byte & 0x80 == 0 {
                done = true;
                break;
            }
            shift += 7;
        }
        r.consume(used);
        if done {
            return Ok(value);
        }
    }
}

/// Bits per digit of [`radix_sort`]: 2¹¹ counters fit in L1 next to the
/// keys being scattered.
const RADIX_BITS: u32 = 11;

/// Sorts `keys` ascending: an LSD radix sort over the bits of each 32-bit
/// half that some key sets, with `scratch` as the second buffer (resized
/// to `keys.len()` and kept for the next call).
///
/// A half-edge key `(src << 32) | tgt` has about `⌈log₂ n⌉` significant
/// bits per half, so a run of a 2·10⁵-vertex graph takes 4 passes where a
/// comparison sort takes ~17 compare levels. Each half is split into
/// equal digits of at most [`RADIX_BITS`] bits; a digit on which every
/// key agrees is skipped. The result equals `sort_unstable`'s.
fn radix_sort(keys: &mut Vec<u64>, scratch: &mut Vec<u64>) {
    let set = keys.iter().fold(0u64, |acc, &k| acc | k);
    let mut digits = Vec::new();
    for half in [0u32, 32] {
        let bits = 32 - ((set >> half) as u32).leading_zeros();
        let passes = bits.div_ceil(RADIX_BITS);
        if passes > 0 {
            let width = bits.div_ceil(passes);
            digits.extend((0..passes).map(|p| (half + p * width, width)));
        }
    }
    // one pass over the keys counts every digit
    let mut counts = vec![[0usize; 1 << RADIX_BITS]; digits.len()];
    for &k in keys.iter() {
        for (count, &(shift, width)) in counts.iter_mut().zip(&digits) {
            count[((k >> shift) & ((1 << width) - 1)) as usize] += 1;
        }
    }
    scratch.resize(keys.len(), 0);
    for (count, &(shift, width)) in counts.iter_mut().zip(&digits) {
        if count.contains(&keys.len()) {
            continue;
        }
        let mut start = 0;
        for c in count.iter_mut() {
            (*c, start) = (start, start + *c);
        }
        for &k in keys.iter() {
            let slot = &mut count[((k >> shift) & ((1 << width) - 1)) as usize];
            scratch[*slot] = k;
            *slot += 1;
        }
        std::mem::swap(keys, scratch);
    }
}

/// The spill-side of the pipeline: buffers half-edge keys, sorts full
/// buffers, and appends them to the spill file as delta-varint runs.
struct SpillWriter {
    writer: BufWriter<File>,
    buf: Vec<u64>,
    /// The radix sort's second buffer, kept across runs.
    sort_scratch: Vec<u64>,
    capacity: usize,
    runs: Vec<RunMeta>,
    offset: u64,
    scratch: Vec<u8>,
    /// Time spent sorting run buffers.
    sort_time: Duration,
    /// Time spent encoding and writing runs.
    write_time: Duration,
}

impl SpillWriter {
    fn create(path: &Path, capacity: usize) -> io::Result<SpillWriter> {
        Ok(SpillWriter {
            writer: BufWriter::new(File::create(path)?),
            buf: Vec::with_capacity(capacity),
            sort_scratch: Vec::new(),
            capacity,
            runs: Vec::new(),
            offset: 0,
            scratch: Vec::new(),
            sort_time: Duration::ZERO,
            write_time: Duration::ZERO,
        })
    }

    fn push(&mut self, key: u64) -> io::Result<()> {
        self.buf.push(key);
        if self.buf.len() >= self.capacity {
            self.flush_run()?;
        }
        Ok(())
    }

    fn flush_run(&mut self) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let start = Instant::now();
        radix_sort(&mut self.buf, &mut self.sort_scratch);
        let sorted = Instant::now();
        self.sort_time += sorted - start;
        self.scratch.clear();
        let mut prev = 0u64;
        for (i, &key) in self.buf.iter().enumerate() {
            if i == 0 {
                write_var(key, &mut self.scratch);
            } else {
                debug_assert!(key > prev, "duplicate half-edge in one run");
                write_var(key - prev - 1, &mut self.scratch);
            }
            prev = key;
        }
        self.writer.write_all(&self.scratch)?;
        self.runs.push(RunMeta {
            offset: self.offset,
            count: self.buf.len() as u64,
        });
        self.offset += self.scratch.len() as u64;
        self.buf.clear();
        self.write_time += sorted.elapsed();
        Ok(())
    }

    /// Spills the last run and flushes the file: the runs, the spill
    /// size in bytes, and the sort and write times.
    fn finish(mut self) -> io::Result<(Vec<RunMeta>, u64, Duration, Duration)> {
        self.flush_run()?;
        let start = Instant::now();
        self.writer.flush()?;
        self.write_time += start.elapsed();
        Ok((self.runs, self.offset, self.sort_time, self.write_time))
    }
}

/// Reads one run's keys back, decoding the delta-varints sequentially.
#[derive(Debug)]
struct RunReader {
    reader: BufReader<File>,
    remaining: u64,
    prev: u64,
    started: bool,
}

impl RunReader {
    fn open(path: &Path, meta: RunMeta) -> io::Result<RunReader> {
        let mut file = File::open(path)?;
        file.seek(SeekFrom::Start(meta.offset))?;
        Ok(RunReader {
            reader: BufReader::with_capacity(1 << 16, file),
            remaining: meta.count,
            prev: 0,
            started: false,
        })
    }

    fn next_key(&mut self) -> io::Result<Option<u64>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.remaining -= 1;
        let raw = read_var(&mut self.reader)?;
        let key = if self.started {
            self.prev
                .checked_add(raw)
                .and_then(|k| k.checked_add(1))
                .ok_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidData, "spill delta overflows")
                })?
        } else {
            self.started = true;
            raw
        };
        self.prev = key;
        Ok(Some(key))
    }
}

/// A strictly increasing stream of half-edges `(src, tgt)`, k-way merged
/// from the spill runs of a [`StreamedGirg`].
///
/// Each undirected edge `{u, v}` appears exactly twice, once per
/// direction, so consuming the stream grouped by `src` reconstructs every
/// vertex's sorted neighbor list in vertex order.
#[derive(Debug)]
pub struct HalfEdges {
    runs: Vec<RunReader>,
    /// Min-heap of `(next key, run index)`.
    heap: BinaryHeap<Reverse<(u64, usize)>>,
    last: Option<u64>,
}

impl HalfEdges {
    /// Opens a reader per run of the spill file at `path` and seeds the
    /// heap with each run's first key.
    fn open(path: &Path, metas: &[RunMeta]) -> io::Result<HalfEdges> {
        let mut runs = Vec::with_capacity(metas.len());
        let mut heap = BinaryHeap::with_capacity(metas.len());
        for (i, &meta) in metas.iter().enumerate() {
            let mut reader = RunReader::open(path, meta)?;
            if let Some(first) = reader.next_key()? {
                heap.push(Reverse((first, i)));
            }
            runs.push(reader);
        }
        Ok(HalfEdges {
            runs,
            heap,
            last: None,
        })
    }
}

impl Iterator for HalfEdges {
    type Item = io::Result<(u32, u32)>;

    fn next(&mut self) -> Option<Self::Item> {
        let mut top = self.heap.peek_mut()?;
        let Reverse((key, run)) = *top;
        // replacing the top sifts it down once when `top` drops; only an
        // exhausted (or failed) run leaves the heap
        match self.runs[run].next_key() {
            Ok(Some(next)) => *top = Reverse((next, run)),
            Ok(None) => {
                PeekMut::pop(top);
            }
            Err(e) => {
                PeekMut::pop(top);
                return Some(Err(e));
            }
        }
        if self.last.is_some_and(|l| key <= l) {
            return Some(Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "merged half-edge stream is not strictly increasing",
            )));
        }
        self.last = Some(key);
        Some(Ok(((key >> 32) as u32, key as u32)))
    }
}

/// A GIRG sampled out-of-core: vertex data in memory (already in Morton
/// order), adjacency staged on disk as sorted half-edge runs.
///
/// Produced by [`GirgBuilder::sample_streamed`]; consumed by the store's
/// streamed `.swg` writer, which merges the runs straight into the varint
/// NBR section. The spill file is deleted when this value drops.
#[derive(Debug)]
pub struct StreamedGirg<const D: usize> {
    positions: Vec<Point<D>>,
    weights: Vec<f64>,
    params: GirgParams,
    spill_path: PathBuf,
    runs: Vec<RunMeta>,
    spill_bytes: u64,
    edge_count: usize,
    counts: SamplerCounts,
    cell_time: Duration,
    spill_sort: Duration,
    spill_write: Duration,
}

impl<const D: usize> StreamedGirg<D> {
    /// Number of vertices.
    pub fn node_count(&self) -> usize {
        self.weights.len()
    }

    /// Number of undirected edges sampled.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Total neighbor-list entries the adjacency will decode to (`2m`).
    pub fn target_count(&self) -> usize {
        self.edge_count * 2
    }

    /// Vertex positions in Morton order, indexed by final node id.
    pub fn positions(&self) -> &[Point<D>] {
        &self.positions
    }

    /// Vertex weights in Morton order, indexed by final node id.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The model parameters the instance was sampled with.
    pub fn params(&self) -> &GirgParams {
        &self.params
    }

    /// Number of spilled runs awaiting the merge.
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Bytes occupied by the spill file.
    pub fn spill_bytes(&self) -> u64 {
        self.spill_bytes
    }

    /// The edge sampler's work counters, summed over every batch.
    pub fn sampler_counts(&self) -> SamplerCounts {
        self.counts
    }

    /// Time spent sampling edges: the cell sampler's task batches (or the
    /// naive sampler below its size threshold), without the spill.
    ///
    /// With [`spill_sort_time`](Self::spill_sort_time) and
    /// [`spill_write_time`](Self::spill_write_time) it splits the streamed
    /// sample; the rest is the vertex draw, the relabeling and the
    /// half-edge keying.
    pub fn cell_time(&self) -> Duration {
        self.cell_time
    }

    /// Time spent sorting run buffers before they were spilled.
    pub fn spill_sort_time(&self) -> Duration {
        self.spill_sort
    }

    /// Time spent encoding and writing the sorted runs to the spill file.
    pub fn spill_write_time(&self) -> Duration {
        self.spill_write
    }

    /// Opens the k-way merge over all spilled runs.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the spill file cannot be reopened.
    pub fn half_edges(&self) -> io::Result<HalfEdges> {
        HalfEdges::open(&self.spill_path, &self.runs)
    }
}

impl<const D: usize> Drop for StreamedGirg<D> {
    fn drop(&mut self) {
        std::fs::remove_file(&self.spill_path).ok();
    }
}

/// Monotone counter making concurrent spill files in one process unique.
static SPILL_COUNTER: AtomicU64 = AtomicU64::new(0);

impl<const D: usize> GirgBuilder<D> {
    /// Samples a GIRG out-of-core: identical vertex and edge distribution
    /// to [`GirgBuilder::sample`] — in fact the **identical RNG draws in
    /// the identical order**, so for a fixed seed the merged adjacency is
    /// bitwise what `sample` + Morton relabel would produce — but edges
    /// are spilled to `spill_dir` in sorted runs instead of accumulating
    /// in memory.
    ///
    /// The result is already in Morton order (the streamed pipeline
    /// relabels on the fly); peak RSS is `O(vertices + run buffer)`.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::Model`] for invalid parameters or when
    /// planted vertices are configured (their first-ids contract is
    /// incompatible with the Morton relabeling, exactly as in
    /// [`super::Girg::relabel`]), and [`StreamError::Io`] on spill-file
    /// failure.
    pub fn sample_streamed<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        spill_dir: &Path,
    ) -> Result<StreamedGirg<D>, StreamError> {
        check_param(
            "beta",
            self.beta,
            self.beta > 2.0 && self.beta < 3.0,
            "must lie in (2, 3)",
        )?;
        check_param(
            "intensity",
            self.intensity,
            self.intensity > 0.0,
            "must be positive",
        )?;
        let kernel = GirgKernel::new(self.alpha, self.lambda, self.wmin, self.intensity, D as u32)?;
        let weights_dist = PowerLaw::new(self.beta, self.wmin)?;
        check_param(
            "planted",
            self.planted.len() as f64,
            self.planted.is_empty(),
            "streamed sampling relabels vertices and cannot preserve planted ids",
        )?;

        // identical draw order to `sample`: count, then position/weight per
        // vertex, then (cell path) one master seed for the edge tasks
        let random_count = match self.fixed_count {
            Some(c) => c,
            None => sample_poisson(rng, self.intensity) as usize,
        };
        let total = random_count;
        let mut positions: Vec<Point<D>> = Vec::with_capacity(total);
        let mut weights = Vec::with_capacity(total);
        for _ in 0..random_count {
            positions.push(Point::random(rng));
            weights.push(weights_dist.sample(rng));
        }

        let keys: Vec<u64> = positions
            .iter()
            .map(smallworld_geometry::morton::point_code)
            .collect();
        let perm = Permutation::from_sort_keys(&keys);
        drop(keys);

        let spill_path = spill_dir.join(format!(
            "swstream-{}-{}.spill",
            std::process::id(),
            SPILL_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let capacity = (total / 2).clamp(MIN_RUN_KEYS, MAX_RUN_KEYS);
        let mut spill = SpillWriter::create(&spill_path, capacity)?;
        let mut edge_count = 0usize;
        let mut counts = SamplerCounts::default();
        let mut cell_time = Duration::ZERO;

        let spill_edges = |edges: &[(u32, u32)], spill: &mut SpillWriter| -> io::Result<()> {
            for &(u, v) in edges {
                let a = perm.forward(NodeId::new(u)).raw() as u64;
                let b = perm.forward(NodeId::new(v)).raw() as u64;
                spill.push((a << 32) | b)?;
                spill.push((b << 32) | a)?;
            }
            Ok(())
        };

        let pool = smallworld_par::Pool::from_env();
        if use_cells(self.algorithm, total) {
            let master_seed = rng.next_u64();
            let plan = cells::plan(&positions, &weights, &kernel);
            let batch_len = plan.task_count().div_ceil(TARGET_BATCHES).max(1);
            let mut start = 0;
            while start < plan.task_count() {
                let end = (start + batch_len).min(plan.task_count());
                let batch_start = Instant::now();
                let (edges, batch_counts) = plan.run_batch(start..end, master_seed, &pool);
                cell_time += batch_start.elapsed();
                edge_count += edges.len();
                counts += batch_counts;
                spill_edges(&edges, &mut spill)?;
                start = end;
            }
        } else {
            let naive_start = Instant::now();
            let (edges, naive_counts) = naive::sample_edges(&positions, &weights, &kernel, rng);
            cell_time = naive_start.elapsed();
            edge_count += edges.len();
            counts = naive_counts;
            spill_edges(&edges, &mut spill)?;
        }

        let (runs, spill_bytes, spill_sort, spill_write) = spill.finish()?;
        Ok(StreamedGirg {
            positions: perm.apply_slice(&positions),
            weights: perm.apply_slice(&weights),
            params: GirgParams {
                intensity: self.intensity,
                beta: self.beta,
                wmin: self.wmin,
                alpha: self.alpha,
                lambda: self.lambda,
            },
            spill_path,
            runs,
            spill_bytes,
            edge_count,
            counts,
            cell_time,
            spill_sort,
            spill_write,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn streamed_matches_in_ram_sample_after_relabel() {
        for (n, algo) in [
            (400u64, super::super::SamplerAlgorithm::Auto), // naive path
            (4_000, super::super::SamplerAlgorithm::Auto),  // cell path
        ] {
            let builder = GirgBuilder::<2>::new(n).beta(2.5).alpha(2.0);
            let mut rng_a = StdRng::seed_from_u64(99);
            let mut rng_b = StdRng::seed_from_u64(99);
            let girg = builder.sample(&mut rng_a).unwrap();
            let relabeled = girg.relabel(&girg.morton_permutation());
            let streamed = builder
                .algorithm(algo)
                .sample_streamed(&mut rng_b, &std::env::temp_dir())
                .unwrap();
            assert_eq!(streamed.node_count(), relabeled.node_count());
            assert_eq!(streamed.edge_count(), relabeled.graph().edge_count());
            assert_eq!(streamed.weights(), relabeled.weights());
            assert_eq!(streamed.positions(), relabeled.positions());
            // half-edge merge reproduces every sorted neighbor list
            let mut iter = streamed.half_edges().unwrap();
            for v in relabeled.graph().nodes() {
                for &t in relabeled.graph().neighbors(v) {
                    let (src, tgt) = iter.next().expect("stream long enough").unwrap();
                    assert_eq!((src, tgt), (v.raw(), t.raw()), "n={n}");
                }
            }
            assert!(iter.next().is_none(), "stream has trailing edges");
        }
    }

    #[test]
    fn planted_vertices_are_rejected() {
        let mut rng = StdRng::seed_from_u64(1);
        let r = GirgBuilder::<2>::new(100)
            .plant(Point::origin(), 2.0)
            .sample_streamed(&mut rng, &std::env::temp_dir());
        assert!(matches!(r, Err(StreamError::Model(_))));
    }

    #[test]
    fn spill_file_is_cleaned_up() {
        let mut rng = StdRng::seed_from_u64(2);
        let streamed = GirgBuilder::<2>::new(300)
            .sample_streamed(&mut rng, &std::env::temp_dir())
            .unwrap();
        let path = streamed.spill_path.clone();
        assert!(path.exists());
        drop(streamed);
        assert!(!path.exists());
    }

    #[test]
    fn multiple_runs_merge_correctly() {
        // tiny run capacity path: force many runs via a larger instance
        let mut rng = StdRng::seed_from_u64(3);
        let streamed = GirgBuilder::<2>::new(5_000)
            .sample_streamed(&mut rng, &std::env::temp_dir())
            .unwrap();
        let mut prev: Option<(u32, u32)> = None;
        let mut count = 0usize;
        for item in streamed.half_edges().unwrap() {
            let he = item.unwrap();
            if let Some(p) = prev {
                assert!(he > p, "merge not strictly increasing");
            }
            prev = Some(he);
            count += 1;
        }
        assert_eq!(count, streamed.target_count());
    }

    fn assert_radix_sorts(keys: &[u64], scratch: &mut Vec<u64>) {
        let mut radix = keys.to_vec();
        radix_sort(&mut radix, scratch);
        let mut reference = keys.to_vec();
        reference.sort_unstable();
        assert_eq!(radix, reference, "{} keys", keys.len());
    }

    proptest::proptest! {
        /// The radix sort equals `sort_unstable` on keys that set bits
        /// anywhere in the word, only in one half, or only a few low bits
        /// per half (the half-edge shape), at lengths around the edges.
        #[test]
        fn prop_radix_sort_equals_sort_unstable(
            keys in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..300usize),
            shape in 0u32..4,
        ) {
            let mask = match shape {
                0 => u64::MAX,
                1 => u64::from(u32::MAX),
                2 => u64::from(u32::MAX) << 32,
                _ => 0x3_ffff_0003_ffff,
            };
            let keys: Vec<u64> = keys.iter().map(|&k| k & mask).collect();
            assert_radix_sorts(&keys, &mut Vec::new());
        }
    }

    #[test]
    fn radix_sort_handles_short_and_degenerate_runs() {
        // one scratch buffer across calls of every length, as the spill
        // writer keeps it
        let mut scratch = Vec::new();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for len in [0usize, 1, 2, 63, 64, 1_000, 5] {
            let full: Vec<u64> = (0..len).map(|_| next()).collect();
            assert_radix_sorts(&full, &mut scratch);
            let low: Vec<u64> = full.iter().map(|&k| k & u64::from(u32::MAX)).collect();
            assert_radix_sorts(&low, &mut scratch);
            let high: Vec<u64> = full.iter().map(|&k| k << 32).collect();
            assert_radix_sorts(&high, &mut scratch);
        }
        // equal keys, all-zero keys, the extremes, and already sorted or
        // reversed input
        assert_radix_sorts(&[7; 40], &mut scratch);
        assert_radix_sorts(&[0; 3], &mut scratch);
        assert_radix_sorts(&[u64::MAX, 0, u64::MAX, 1 << 63, 1], &mut scratch);
        let ascending: Vec<u64> = (0..500).map(|i| i * 0x1_0000_0001).collect();
        assert_radix_sorts(&ascending, &mut scratch);
        let descending: Vec<u64> = ascending.iter().rev().copied().collect();
        assert_radix_sorts(&descending, &mut scratch);
    }

    #[test]
    fn varints_roundtrip() {
        let values = [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX];
        let mut buf = Vec::new();
        for v in values {
            buf.clear();
            write_var(v, &mut buf);
            let mut cursor = io::Cursor::new(&buf);
            assert_eq!(read_var(&mut cursor).unwrap(), v);
        }
        // every varint straddles refills of a tiny read buffer
        buf.clear();
        for v in values {
            write_var(v, &mut buf);
        }
        for capacity in [1, 2, 3] {
            let mut reader = BufReader::with_capacity(capacity, &buf[..]);
            for v in values {
                assert_eq!(read_var(&mut reader).unwrap(), v, "capacity {capacity}");
            }
            assert_eq!(
                read_var(&mut reader).unwrap_err().kind(),
                io::ErrorKind::UnexpectedEof
            );
        }
    }

    #[test]
    fn malformed_varints_are_typed_errors() {
        let kind = |bytes: &[u8]| {
            read_var(&mut BufReader::with_capacity(4, bytes))
                .unwrap_err()
                .kind()
        };
        // the input ends inside a varint
        assert_eq!(kind(&[0x80, 0x80]), io::ErrorKind::UnexpectedEof);
        assert_eq!(kind(&[]), io::ErrorKind::UnexpectedEof);
        // ten groups whose last carries more than u64's top bit
        assert_eq!(kind(&[0xff; 10]), io::ErrorKind::InvalidData);
        // an eleventh group
        let mut long = [0x80u8; 11];
        long[10] = 0x00;
        assert_eq!(kind(&long), io::ErrorKind::InvalidData);
    }

    /// A scratch spill file holding the given runs, each written by the
    /// spill writer (sorted, delta-varint encoded).
    struct ScratchSpill {
        path: PathBuf,
        runs: Vec<RunMeta>,
    }

    impl ScratchSpill {
        fn new(name: &str, runs: &[&[u64]]) -> ScratchSpill {
            let path = std::env::temp_dir().join(format!(
                "swstream-test-{}-{name}.spill",
                std::process::id()
            ));
            let mut spill = SpillWriter::create(&path, 64).unwrap();
            for run in runs {
                for &key in *run {
                    spill.push(key).unwrap();
                }
                spill.flush_run().unwrap();
            }
            let (runs, ..) = spill.finish().unwrap();
            ScratchSpill { path, runs }
        }

        fn merge(&self) -> Vec<io::Result<(u32, u32)>> {
            HalfEdges::open(&self.path, &self.runs).unwrap().collect()
        }
    }

    impl Drop for ScratchSpill {
        fn drop(&mut self) {
            std::fs::remove_file(&self.path).ok();
        }
    }

    #[test]
    fn merge_of_runs_that_end_at_different_times_is_strictly_increasing() {
        let key = |src: u64, tgt: u64| (src << 32) | tgt;
        let spill = ScratchSpill::new(
            "uneven",
            &[
                &[key(0, 1), key(5, 2), key(9, 9), key(9, 10), key(12, 0)],
                &[key(0, 2)],
                &[key(1, 0), key(5, 1), key(u32::MAX as u64, u32::MAX as u64)],
                &[],
                &[key(9, 8)],
            ],
        );
        let merged: Vec<(u32, u32)> = spill.merge().into_iter().map(Result::unwrap).collect();
        assert_eq!(
            merged,
            [
                (0, 1),
                (0, 2),
                (1, 0),
                (5, 1),
                (5, 2),
                (9, 8),
                (9, 9),
                (9, 10),
                (12, 0),
                (u32::MAX, u32::MAX)
            ]
        );
    }

    #[test]
    fn a_key_in_two_runs_breaks_the_merge() {
        let spill = ScratchSpill::new("duplicate", &[&[3, 7], &[7, 9]]);
        let merged = spill.merge();
        let err = merged.iter().find_map(|r| r.as_ref().err()).expect("duplicate detected");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn a_truncated_run_is_unexpected_eof() {
        let mut spill = ScratchSpill::new("truncated", &[&[1, 2, 300]]);
        // claim one key more than the run holds: the decoder hits the end
        spill.runs[0].count += 1;
        let merged = spill.merge();
        let err = merged.last().unwrap().as_ref().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // a run cut inside its last varint: 300 needs two bytes
        let bytes = std::fs::read(&spill.path).unwrap();
        std::fs::write(&spill.path, &bytes[..bytes.len() - 1]).unwrap();
        spill.runs[0].count -= 1;
        let merged = spill.merge();
        assert_eq!(merged.len(), 2, "the error surfaces on advancing past key 2");
        assert_eq!(merged[1].as_ref().unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn an_overflowing_delta_is_invalid_data() {
        // first key u64::MAX, then a delta of 0: the next key overflows
        let mut spill = ScratchSpill::new("overflow", &[]);
        let mut bytes = Vec::new();
        write_var(u64::MAX, &mut bytes);
        write_var(0, &mut bytes);
        std::fs::write(&spill.path, &bytes).unwrap();
        spill.runs = vec![RunMeta { offset: 0, count: 2 }];
        let merged = spill.merge();
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].as_ref().unwrap_err().kind(), io::ErrorKind::InvalidData);
    }
}

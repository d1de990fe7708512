//! Expected-linear-time GIRG edge sampler.
//!
//! Implements the weight-layer / geometric-cell technique of Bringmann,
//! Keusch and Lengler ("Sampling Geometric Inhomogeneous Random Graphs in
//! Linear Time", ESA 2017), generalized over a [`ConnectionKernel`]:
//!
//! * Vertices are bucketed into **weight layers** `i` with
//!   `w ∈ [w₀·2^i, w₀·2^{i+1})`.
//! * Each layer's vertices are sorted by the Morton code of their grid cell
//!   at a maximum refinement level `L`, so "layer-i vertices inside cell C"
//!   is one binary search (cells are Morton-prefix ranges).
//! * For each layer pair `(i, j)` a **comparison level** `ℓ(i,j)` is chosen
//!   so that cells at that level have volume about
//!   `w̄_i w̄_j / (w₀ · N)` — the scale below which the connection
//!   probability saturates.
//! * A recursion over unordered cell pairs, descending only through
//!   *adjacent* pairs, emits each vertex pair exactly once:
//!   - **type I** (adjacent cells at level `ℓ(i,j)`): every pair is examined
//!     with its exact probability;
//!   - **type II** (the first level at which a cell pair becomes
//!     non-adjacent): pairs are drawn by geometric jumps under the kernel's
//!     rigorous [`upper_bound`](ConnectionKernel::upper_bound) and thinned to
//!     the exact probability, so the output distribution is unbiased.
//!
//! Correctness does not depend on the choice of `ℓ(i,j)` (only efficiency
//! does); correctness *does* depend on `upper_bound` dominating the
//! probability on each box, which the kernel tests verify.
//!
//! Several things keep the pair tests cheap without changing an edge. The
//! sampler copies the vertices' positions and weights into lanes grouped
//! by layer and Morton-sorted within it, so the type-I loops and type-II
//! candidates read contiguous memory instead of gathering by vertex id
//! (+24 B per vertex at d = 2).
//! Every accept test first asks the kernel's
//! [`bracket`](ConnectionKernel::bracket): the exact probability is
//! evaluated only when the uniform draw lands inside the bracket's band,
//! so each decision — and every RNG draw — is the one the exact test
//! would have made. A cell pair looks up each layer's lane range once
//! (`PairLanes`), however many layer pairs use it. And a type-II jump
//! draws a chunk of candidates before it tests them, since a candidate's
//! draws never depend on a decision.

use std::fmt;
use std::ops::{AddAssign, Range};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use smallworld_geometry::{morton, Grid, MortonCell, Point};
use smallworld_par::Pool;

use crate::kernel::ConnectionKernel;

/// Hard cap on the grid depth so `cells_per_side` fits in `u32`.
const MAX_DEPTH: u32 = 31;

/// Target cell count of the parallel task decomposition: the recursion is
/// split at the level with about this many cells per axis^D, giving a few
/// hundred independent tasks regardless of the machine — the decomposition
/// must NOT depend on the thread count, or per-task seeds (and therefore
/// the sampled edges) would differ between pool sizes.
const SPLIT_TARGET_CELLS_LOG2: u32 = 6;

/// Type-II candidates drawn ahead of their accept tests (see
/// [`CellSampler::jump_sample`]).
const JUMP_CHUNK: usize = 64;

/// Work counters of one sampling run: how many vertex pairs the sampler
/// examined to emit its edges.
///
/// Examined pairs per emitted edge is the efficiency ratio of the
/// Bringmann–Keusch–Lengler analysis. Each task counts into its own
/// plain counters; they are summed per batch. The naive sampler examines
/// every pair exactly and reports them as type-I pairs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SamplerCounts {
    /// Pairs examined with their exact probability (type-I cell pairs).
    pub type_one_pairs: u64,
    /// Candidate pairs examined in type-II cell pairs: drawn by geometric
    /// jumps, or every pair where the kernel's bound saturates at 1.
    pub type_two_candidates: u64,
    /// Edges emitted.
    pub edges: u64,
    /// Examined pairs the kernel's [`bracket`](ConnectionKernel::bracket)
    /// left undecided, so the exact probability was evaluated on top.
    pub exact_fallbacks: u64,
}

impl SamplerCounts {
    /// Pairs examined per emitted edge (0 without edges).
    pub fn examined_per_edge(&self) -> f64 {
        if self.edges == 0 {
            return 0.0;
        }
        (self.type_one_pairs + self.type_two_candidates) as f64 / self.edges as f64
    }
}

impl fmt::Display for SamplerCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} type-I pairs + {} type-II candidates examined for {} edges \
             ({:.2} per edge), {} exact-probability fallbacks",
            self.type_one_pairs,
            self.type_two_candidates,
            self.edges,
            self.examined_per_edge(),
            self.exact_fallbacks
        )
    }
}

impl AddAssign for SamplerCounts {
    fn add_assign(&mut self, other: SamplerCounts) {
        self.type_one_pairs += other.type_one_pairs;
        self.type_two_candidates += other.type_two_candidates;
        self.edges += other.edges;
        self.exact_fallbacks += other.exact_fallbacks;
    }
}

/// Samples the edge set in expected linear time. See the module docs.
///
/// Internally draws one master seed from `rng` and runs the deterministic
/// parallel engine with the ambient pool (`SMALLWORLD_THREADS`); see
/// [`sample_edges_pooled`] for the thread-count-invariance contract.
pub fn sample_edges<const D: usize, K, R>(
    positions: &[Point<D>],
    weights: &[f64],
    kernel: &K,
    rng: &mut R,
) -> (Vec<(u32, u32)>, SamplerCounts)
where
    K: ConnectionKernel + Sync,
    R: Rng + ?Sized,
{
    sample_edges_pooled(positions, weights, kernel, rng.next_u64(), &Pool::from_env())
}

/// Samples the edge set with an explicit master seed and thread pool.
///
/// The recursion over cell pairs is decomposed into an ordered task list
/// whose shape depends only on the input; task `i` samples with its own
/// RNG seeded by `split_seed(master_seed, i)` and results are concatenated
/// in task order. The returned edge list is therefore **bitwise-identical
/// for any pool size**, including a single thread.
pub fn sample_edges_pooled<const D: usize, K>(
    positions: &[Point<D>],
    weights: &[f64],
    kernel: &K,
    master_seed: u64,
    pool: &Pool,
) -> (Vec<(u32, u32)>, SamplerCounts)
where
    K: ConnectionKernel + Sync,
{
    let plan = plan(positions, weights, kernel);
    plan.run_batch(0..plan.task_count(), master_seed, pool)
}

/// A prepared cell-sampling run: the deterministic ordered task list of
/// [`sample_edges_pooled`], exposed so out-of-core callers (the streamed
/// sampler) can execute it in index-range batches without holding every
/// task's output at once.
///
/// Task `i` always samples with `split_seed(master_seed, i)` — the seed
/// depends on the *global* task index, never on the batch boundaries or
/// pool size — so concatenating `run_batch` outputs over a partition of
/// `0..task_count()` is bitwise-identical to one full
/// [`sample_edges_pooled`] call.
pub(crate) struct CellPlan<'a, const D: usize, K> {
    /// `None` for degenerate inputs (fewer than two vertices).
    sampler: Option<CellSampler<'a, D, K>>,
    tasks: Vec<Task>,
}

/// Prepares the task decomposition for the given instance (see
/// [`CellPlan`]). The plan copies what it needs of `positions` and
/// `weights` into its layers and keeps no borrow of them.
pub(crate) fn plan<'a, const D: usize, K>(
    positions: &[Point<D>],
    weights: &[f64],
    kernel: &'a K,
) -> CellPlan<'a, D, K>
where
    K: ConnectionKernel + Sync,
{
    if positions.len() < 2 {
        return CellPlan {
            sampler: None,
            tasks: Vec::new(),
        };
    }
    let sampler = CellSampler::new(positions, weights, kernel);
    let split_level = sampler.split_level();
    let mut tasks = Vec::new();
    sampler.collect_tasks(MortonCell::root(), MortonCell::root(), split_level, &mut tasks);
    CellPlan {
        sampler: Some(sampler),
        tasks,
    }
}

impl<const D: usize, K: ConnectionKernel + Sync> CellPlan<'_, D, K> {
    /// Number of tasks in the decomposition.
    pub(crate) fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Runs the tasks with indices in `range` and returns their edges
    /// concatenated in task order, with the batch's summed counters.
    ///
    /// # Panics
    ///
    /// Panics if `range` exceeds `0..task_count()`.
    pub(crate) fn run_batch(
        &self,
        range: Range<usize>,
        master_seed: u64,
        pool: &Pool,
    ) -> (Vec<(u32, u32)>, SamplerCounts) {
        let Some(sampler) = &self.sampler else {
            return (Vec::new(), SamplerCounts::default());
        };
        assert!(range.end <= self.tasks.len(), "task range out of bounds");
        let start = range.start;
        let per_task = pool.map(range.len(), |off| {
            let i = start + off;
            let mut rng =
                StdRng::seed_from_u64(smallworld_par::split_seed(master_seed, i as u64));
            let mut edges = Vec::new();
            let mut counts = SamplerCounts::default();
            sampler.run_task(&self.tasks[i], &mut rng, &mut edges, &mut counts);
            counts.edges = edges.len() as u64;
            (edges, counts)
        });
        let mut edges = Vec::with_capacity(per_task.iter().map(|(e, _)| e.len()).sum());
        let mut counts = SamplerCounts::default();
        for (task_edges, task_counts) in per_task {
            edges.extend(task_edges);
            counts += task_counts;
        }
        (edges, counts)
    }
}

/// One unit of parallel sampling work over a cell pair.
#[derive(Clone, Copy, Debug)]
struct Task {
    a: MortonCell,
    b: MortonCell,
    kind: TaskKind,
}

#[derive(Clone, Copy, Debug)]
enum TaskKind {
    /// Run the full recursion rooted at `(a, b)` (type I + type II + all
    /// descendants).
    Full,
    /// Run only the type-I comparisons of `(a, b)` at its own level; the
    /// descendants were split into separate tasks.
    Local,
}

/// The vertices' lanes, grouped by weight layer and sorted within each
/// layer by `(max-level Morton code, id)`: positions and weights are copied
/// into that order, so the pair tests of a cell read contiguous memory.
struct Lanes<const D: usize> {
    codes: Vec<u64>,
    ids: Vec<u32>,
    positions: Vec<Point<D>>,
    weights: Vec<f64>,
}

/// Each layer's lane range inside the two cells of one cell pair, looked
/// up by [`CellSampler::range`] on first use and kept for the pair.
///
/// A pair's type-I or type-II pass asks for a layer's range in a cell once
/// for every layer pair that layer belongs to; the memo makes that one
/// lookup. One memo serves a whole task: a pair makes all its lookups
/// before its recursion resets the memo for a child pair.
struct PairLanes {
    /// The pair `(a, b)`; side 0 is `a`, side 1 is `b`.
    cells: [MortonCell; 2],
    /// `ranges[side][i]`: layer `i` inside `cells[side]`, once looked up.
    ranges: [Vec<Option<Range<usize>>>; 2],
}

impl PairLanes {
    fn new(layers: usize) -> Self {
        PairLanes {
            cells: [MortonCell::root(); 2],
            ranges: [vec![None; layers], vec![None; layers]],
        }
    }

    /// Forgets every range and takes the pair `(a, b)`.
    fn reset(&mut self, a: MortonCell, b: MortonCell) {
        self.cells = [a, b];
        for side in &mut self.ranges {
            side.fill(None);
        }
    }
}

/// One weight layer: its index range in the [`Lanes`].
struct Layer {
    span: Range<usize>,
    /// Maximum weight present in this layer (for upper bounds).
    max_weight: f64,
}

struct CellSampler<'a, const D: usize, K> {
    kernel: &'a K,
    lanes: Lanes<D>,
    layers: Vec<Layer>,
    /// All vertices' max-level codes, sorted — for occupancy pruning.
    all_codes: Vec<u64>,
    /// Deepest grid level.
    max_level: u32,
    /// `pairs_at_level[ℓ]` = unordered layer pairs with comparison level ℓ.
    pairs_at_level: Vec<Vec<(usize, usize)>>,
    /// `pairs_from_level[ℓ]` = unordered layer pairs with comparison level ≥ ℓ.
    pairs_from_level: Vec<Vec<(usize, usize)>>,
}

impl<'a, const D: usize, K: ConnectionKernel> CellSampler<'a, D, K> {
    fn new(positions: &[Point<D>], weights: &[f64], kernel: &'a K) -> Self {
        assert!(
            (1..=3).contains(&D),
            "cell sampler supports dimensions 1..=3"
        );
        let n = positions.len();

        // Deepest level: about one vertex per cell on average.
        let max_level = (((n as f64).log2() / D as f64).floor() as u32)
            .clamp(1, morton::max_level(D).min(MAX_DEPTH));
        let grid: Grid<D> = Grid::new(max_level);

        // Weight layers relative to the smallest weight present.
        let w0 = weights.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(w0 > 0.0, "weights must be positive");
        let layer_of = |w: f64| -> usize {
            // floor(log2(w / w0)), robust to w == w0
            ((w / w0).log2().floor() as i64).max(0) as usize
        };
        let num_layers = weights.iter().map(|&w| layer_of(w)).max().unwrap_or(0) + 1;

        // (layer, code, vertex) in lane order
        let mut order: Vec<(u32, u64, u32)> = (0..n)
            .map(|v| {
                let code = grid.cell_of(&positions[v]).code();
                (layer_of(weights[v]) as u32, code, v as u32)
            })
            .collect();
        order.sort_unstable();
        let ids: Vec<u32> = order.iter().map(|&(_, _, v)| v).collect();
        let lanes = Lanes {
            codes: order.iter().map(|&(_, c, _)| c).collect(),
            positions: ids.iter().map(|&v| positions[v as usize]).collect(),
            weights: ids.iter().map(|&v| weights[v as usize]).collect(),
            ids,
        };
        let layers: Vec<Layer> = (0..num_layers as u32)
            .map(|i| {
                let span = order.partition_point(|&(l, ..)| l < i)
                    ..order.partition_point(|&(l, ..)| l <= i);
                let max_weight = lanes.weights[span.clone()].iter().copied().fold(0.0, f64::max);
                Layer { span, max_weight }
            })
            .collect();
        drop(order);
        let mut all_codes = lanes.codes.clone();
        all_codes.sort_unstable();

        // Comparison level per unordered layer pair: the deepest level whose
        // cell volume is at least  w̄_i w̄_j / (w0 · N).
        let mut pairs_at_level: Vec<Vec<(usize, usize)>> =
            (0..=max_level).map(|_| Vec::new()).collect();
        for i in 0..num_layers {
            if layers[i].span.is_empty() {
                continue;
            }
            for j in i..num_layers {
                if layers[j].span.is_empty() {
                    continue;
                }
                let vol = (layers[i].max_weight * layers[j].max_weight / (w0 * n as f64)).min(1.0);
                // want 2^{-ℓD} >= vol  =>  ℓ <= log2(1/vol) / D
                let level = if vol >= 1.0 {
                    0
                } else {
                    (((1.0 / vol).log2() / D as f64).floor() as u32).min(max_level)
                };
                pairs_at_level[level as usize].push((i, j));
            }
        }
        let mut pairs_from_level: Vec<Vec<(usize, usize)>> =
            (0..=max_level).map(|_| Vec::new()).collect();
        let mut acc: Vec<(usize, usize)> = Vec::new();
        for level in (0..=max_level as usize).rev() {
            acc.extend(pairs_at_level[level].iter().copied());
            pairs_from_level[level] = acc.clone();
        }

        CellSampler {
            kernel,
            lanes,
            layers,
            all_codes,
            max_level,
            pairs_at_level,
            pairs_from_level,
        }
    }

    /// The lane indices of layer `i`'s vertices inside `cell`.
    fn range(&self, i: usize, cell: &MortonCell) -> Range<usize> {
        let cell_codes = cell.descendant_range::<D>(self.max_level);
        let span = self.layers[i].span.clone();
        let codes = &self.lanes.codes[span.clone()];
        let lo = codes.partition_point(|&c| c < cell_codes.start);
        let hi = lo + codes[lo..].partition_point(|&c| c < cell_codes.end);
        span.start + lo..span.start + hi
    }

    /// The lane indices of layer `i`'s vertices inside the memo's cell
    /// `side` (0 for `a`, 1 for `b`): [`range`](Self::range), looked up once
    /// per cell pair.
    fn lane_range(&self, memo: &mut PairLanes, side: usize, i: usize) -> Range<usize> {
        let cell = memo.cells[side];
        memo.ranges[side][i].get_or_insert_with(|| self.range(i, &cell)).clone()
    }

    fn cell_occupied(&self, cell: &MortonCell) -> bool {
        let range = cell.descendant_range::<D>(self.max_level);
        let lo = self.all_codes.partition_point(|&c| c < range.start);
        lo < self.all_codes.len() && self.all_codes[lo] < range.end
    }

    /// The grid level at which the recursion is cut into parallel tasks:
    /// about `2^SPLIT_TARGET_CELLS_LOG2` cells total, independent of the
    /// machine (see [`SPLIT_TARGET_CELLS_LOG2`]).
    fn split_level(&self) -> u32 {
        SPLIT_TARGET_CELLS_LOG2.div_ceil(D as u32).min(self.max_level)
    }

    /// Decomposes the recursion rooted at `(a, b)` into an ordered task
    /// list. The decomposition mirrors [`CellSampler::process_pair`]: a
    /// non-adjacent pair is one self-contained type-II task; an adjacent
    /// pair above the split level contributes a [`TaskKind::Local`] task
    /// for its own type-I comparisons and recurses into its children; at
    /// (or below) the split level the whole subtree becomes one
    /// [`TaskKind::Full`] task.
    fn collect_tasks(
        &self,
        a: MortonCell,
        b: MortonCell,
        split_level: u32,
        out: &mut Vec<Task>,
    ) {
        if !self.cell_occupied(&a) || (a != b && !self.cell_occupied(&b)) {
            return;
        }
        let level = a.level();
        if !a.is_adjacent::<D>(&b) {
            if !self.pairs_from_level[level as usize].is_empty() {
                out.push(Task { a, b, kind: TaskKind::Full });
            }
            return;
        }
        let deeper =
            level < self.max_level && !self.pairs_from_level[level as usize + 1].is_empty();
        if level >= split_level || !deeper {
            out.push(Task { a, b, kind: TaskKind::Full });
            return;
        }
        if !self.pairs_at_level[level as usize].is_empty() {
            out.push(Task { a, b, kind: TaskKind::Local });
        }
        if a == b {
            let children: Vec<MortonCell> = a.children::<D>().collect();
            for (ci, &ca) in children.iter().enumerate() {
                for &cb in &children[ci..] {
                    self.collect_tasks(ca, cb, split_level, out);
                }
            }
        } else {
            for ca in a.children::<D>() {
                for cb in b.children::<D>() {
                    self.collect_tasks(ca, cb, split_level, out);
                }
            }
        }
    }

    /// Runs one task of the parallel decomposition.
    fn run_task<R: Rng + ?Sized>(
        &self,
        task: &Task,
        rng: &mut R,
        edges: &mut Vec<(u32, u32)>,
        counts: &mut SamplerCounts,
    ) {
        let mut memo = PairLanes::new(self.layers.len());
        match task.kind {
            TaskKind::Full => self.process_pair(task.a, task.b, &mut memo, rng, edges, counts),
            TaskKind::Local => {
                memo.reset(task.a, task.b);
                for &(i, j) in &self.pairs_at_level[task.a.level() as usize] {
                    self.type_one(&mut memo, i, j, rng, edges, counts);
                }
            }
        }
    }

    /// Recursion over unordered cell pairs (including `a == b`); `memo`
    /// is the task's range memo, reset here for each pair.
    fn process_pair<R: Rng + ?Sized>(
        &self,
        a: MortonCell,
        b: MortonCell,
        memo: &mut PairLanes,
        rng: &mut R,
        edges: &mut Vec<(u32, u32)>,
        counts: &mut SamplerCounts,
    ) {
        if !self.cell_occupied(&a) || (a != b && !self.cell_occupied(&b)) {
            return;
        }
        let level = a.level();
        memo.reset(a, b);
        if a.is_adjacent::<D>(&b) {
            for &(i, j) in &self.pairs_at_level[level as usize] {
                self.type_one(memo, i, j, rng, edges, counts);
            }
            if level < self.max_level && !self.pairs_from_level[level as usize + 1].is_empty() {
                if a == b {
                    let children: Vec<MortonCell> = a.children::<D>().collect();
                    for (ci, &ca) in children.iter().enumerate() {
                        for &cb in &children[ci..] {
                            self.process_pair(ca, cb, memo, rng, edges, counts);
                        }
                    }
                } else {
                    for ca in a.children::<D>() {
                        for cb in b.children::<D>() {
                            self.process_pair(ca, cb, memo, rng, edges, counts);
                        }
                    }
                }
            }
        } else {
            let min_dist = a.min_distance::<D>(&b);
            for &(i, j) in &self.pairs_from_level[level as usize] {
                self.type_two(memo, i, j, min_dist, rng, edges, counts);
            }
        }
    }

    /// Exact examination of all pairs between the adjacent cells of
    /// `memo` for layer pair `(i, j)`.
    fn type_one<R: Rng + ?Sized>(
        &self,
        memo: &mut PairLanes,
        i: usize,
        j: usize,
        rng: &mut R,
        edges: &mut Vec<(u32, u32)>,
        counts: &mut SamplerCounts,
    ) {
        if memo.cells[0] == memo.cells[1] {
            let ai = self.lane_range(memo, 0, i);
            if i == j {
                let len = ai.len() as u64;
                counts.type_one_pairs += len * len.saturating_sub(1) / 2;
                for k in ai.clone() {
                    self.row(k, k + 1..ai.end, rng, edges, &mut counts.exact_fallbacks);
                }
            } else {
                let aj = self.lane_range(memo, 0, j);
                counts.type_one_pairs += ai.len() as u64 * aj.len() as u64;
                self.all_pairs(ai, aj, rng, edges, &mut counts.exact_fallbacks);
            }
        } else {
            self.cross_exact(memo, i, j, rng, edges, counts);
            if i != j {
                self.cross_exact(memo, j, i, rng, edges, counts);
            }
        }
    }

    /// All pairs between layer `i` of cell `a` and layer `j` of cell `b`
    /// (disjoint vertex sets), exact probabilities.
    fn cross_exact<R: Rng + ?Sized>(
        &self,
        memo: &mut PairLanes,
        i: usize,
        j: usize,
        rng: &mut R,
        edges: &mut Vec<(u32, u32)>,
        counts: &mut SamplerCounts,
    ) {
        let (ai, bj) = (self.lane_range(memo, 0, i), self.lane_range(memo, 1, j));
        counts.type_one_pairs += ai.len() as u64 * bj.len() as u64;
        self.all_pairs(ai, bj, rng, edges, &mut counts.exact_fallbacks);
    }

    /// Geometric-jump sampling between the non-adjacent cells of `memo`
    /// for layer pair `(i, j)`: candidates under the upper bound, thinned
    /// to exact.
    #[allow(clippy::too_many_arguments)]
    fn type_two<R: Rng + ?Sized>(
        &self,
        memo: &mut PairLanes,
        i: usize,
        j: usize,
        min_dist: f64,
        rng: &mut R,
        edges: &mut Vec<(u32, u32)>,
        counts: &mut SamplerCounts,
    ) {
        debug_assert!(memo.cells[0] != memo.cells[1]);
        self.jump_sample(memo, i, j, min_dist, rng, edges, counts);
        if i != j {
            self.jump_sample(memo, j, i, min_dist, rng, edges, counts);
        }
    }

    /// Type-II candidates between layer `i` of cell `a` and layer `j` of
    /// cell `b`.
    #[allow(clippy::too_many_arguments)]
    fn jump_sample<R: Rng + ?Sized>(
        &self,
        memo: &mut PairLanes,
        i: usize,
        j: usize,
        min_dist: f64,
        rng: &mut R,
        edges: &mut Vec<(u32, u32)>,
        counts: &mut SamplerCounts,
    ) {
        let (wi, wj) = (self.layers[i].max_weight, self.layers[j].max_weight);
        let bound = self.kernel.upper_bound(wi, wj, min_dist);
        if bound <= 0.0 {
            return;
        }
        let (ai, bj) = (self.lane_range(memo, 0, i), self.lane_range(memo, 1, j));
        if ai.is_empty() || bj.is_empty() {
            return;
        }
        if bound >= 1.0 {
            // no skipping possible; examine all pairs exactly
            counts.type_two_candidates += ai.len() as u64 * bj.len() as u64;
            self.all_pairs(ai, bj, rng, edges, &mut counts.exact_fallbacks);
            return;
        }
        // candidate k of the row-major ai × bj grid is (row, col) =
        // (k / len, k % len), carried across skips without dividing
        let (rows, len) = (ai.len() as u64, bj.len() as u64);
        let lanes = &self.lanes;
        // below about 2⁻⁵⁴, `1 − bound` rounds to 1 and its `ln` to 0, which
        // would make every skip 0 and every pair a candidate thinned by
        // `p / bound` instead of `p`: take the logarithm from `ln_1p` there
        let log_one_minus = if 1.0 - bound == 1.0 {
            (-bound).ln_1p()
        } else {
            (1.0 - bound).ln()
        };
        let first = geometric_skip(rng, log_one_minus);
        let (mut row, mut col) = (first / len, first % len);
        // a candidate's draws do not depend on its decision: draw and
        // advance over a chunk of candidates first, then decide them, so
        // the skip's `ln` chain and the accept tests overlap
        let mut chunk = [(0usize, 0usize, 0.0f64); JUMP_CHUNK];
        while row < rows {
            let mut drawn = 0;
            while row < rows && drawn < JUMP_CHUNK {
                let x = rng.gen::<f64>() * bound;
                chunk[drawn] = (ai.start + row as usize, bj.start + col as usize, x);
                drawn += 1;
                // saturating: a skip of u64::MAX (possible for tiny bounds)
                // must terminate the loop, not wrap around
                let step = geometric_skip(rng, log_one_minus).saturating_add(1);
                (row, col) = advance(row, col, len, step);
            }
            counts.type_two_candidates += drawn as u64;
            for &(u, v, x) in &chunk[..drawn] {
                let (wu, wv) = (lanes.weights[u], lanes.weights[v]);
                let dist = lanes.positions[u].distance(&lanes.positions[v]);
                let exact = || self.kernel.probability(wu, wv, dist);
                #[cfg(debug_assertions)]
                {
                    let p = exact();
                    debug_assert!(
                        p <= bound + 1e-9,
                        "kernel upper bound violated: p={p} bound={bound}"
                    );
                }
                let bracket = self.kernel.bracket(wu, wv, dist);
                if below(x, bracket, exact, &mut counts.exact_fallbacks) {
                    edges.push(ordered(lanes.ids[u], lanes.ids[v]));
                }
            }
        }
    }

    /// Every pair of lane range `ai` with lane range `bj`, row by row, each
    /// with the exact accept test.
    fn all_pairs<R: Rng + ?Sized>(
        &self,
        ai: Range<usize>,
        bj: Range<usize>,
        rng: &mut R,
        edges: &mut Vec<(u32, u32)>,
        fallbacks: &mut u64,
    ) {
        for k in ai {
            self.row(k, bj.clone(), rng, edges, fallbacks);
        }
    }

    /// The exact accept test of lane entry `k` against each entry of lane
    /// range `bj`, in lane order: emits each edge with the kernel's
    /// probability.
    #[inline]
    fn row<R: Rng + ?Sized>(
        &self,
        k: usize,
        bj: Range<usize>,
        rng: &mut R,
        edges: &mut Vec<(u32, u32)>,
        fallbacks: &mut u64,
    ) {
        let lanes = &self.lanes;
        let (pu, wu, u) = (&lanes.positions[k], lanes.weights[k], lanes.ids[k]);
        let row = lanes.positions[bj.clone()].iter().zip(&lanes.weights[bj.clone()]);
        for ((pv, &wv), &v) in row.zip(&lanes.ids[bj]) {
            let dist = pu.distance(pv);
            let accepted = accept(
                self.kernel.bracket(wu, wv, dist),
                || self.kernel.probability(wu, wv, dist),
                || rng.gen::<f64>(),
                fallbacks,
            );
            if accepted {
                edges.push(ordered(u, v));
            }
        }
    }
}

/// The type-I accept test `p >= 1 || (p > 0 && u < p)`, decided from a
/// bracket `lo ≤ p ≤ hi` with `p = exact()` and `u = draw()`.
///
/// Draws exactly when the reference expression would (`0 < p < 1`), and
/// evaluates `exact` only when the bracket straddles 0 or 1 or the draw
/// lands inside `[lo, hi)` — each such evaluation counts in `fallbacks`.
#[inline]
fn accept(
    (lo, hi): (f64, f64),
    exact: impl FnOnce() -> f64,
    draw: impl FnOnce() -> f64,
    fallbacks: &mut u64,
) -> bool {
    if lo >= 1.0 {
        return true;
    }
    if lo > 0.0 && hi < 1.0 {
        return below(draw(), (lo, hi), exact, fallbacks);
    }
    let p = if lo == hi {
        lo
    } else {
        *fallbacks += 1;
        exact()
    };
    p >= 1.0 || (p > 0.0 && draw() < p)
}

/// `x < p`, decided from a bracket `lo ≤ p ≤ hi` with `p = exact()`:
/// evaluates `exact` (and counts it in `fallbacks`) only when
/// `lo ≤ x < hi`.
#[inline]
fn below(x: f64, (lo, hi): (f64, f64), exact: impl FnOnce() -> f64, fallbacks: &mut u64) -> bool {
    if x < lo {
        return true;
    }
    if x >= hi {
        return false;
    }
    *fallbacks += 1;
    x < exact()
}

/// Moves the row-major cursor `(row, col)` over rows of `len` entries
/// forward by `step`: `(k / len, k % len)` of `k = row · len + col + step`,
/// dividing only when the step leaves the row. Saturates instead of
/// wrapping, so an overlong step lands past every row.
#[inline]
fn advance(row: u64, col: u64, len: u64, step: u64) -> (u64, u64) {
    let col = col.saturating_add(step);
    if col < len {
        return (row, col);
    }
    (row.saturating_add(col / len), col % len)
}

#[inline]
fn ordered(u: u32, v: u32) -> (u32, u32) {
    if u < v {
        (u, v)
    } else {
        (v, u)
    }
}

/// Number of failures before the next success of a Bernoulli(`p`) sequence,
/// where `log_one_minus = ln(1 − p)` is precomputed.
#[inline]
fn geometric_skip<R: Rng + ?Sized>(rng: &mut R, log_one_minus: f64) -> u64 {
    // U ∈ (0, 1]; skip = floor(ln U / ln(1−p))
    let u = 1.0 - rng.gen::<f64>();
    skip_of(u.ln() / log_one_minus)
}

/// `floor(x)` as a `u64`, saturating at `u64::MAX` (and 0 for NaN or
/// negatives): Rust's float-to-int cast, which truncates and saturates.
/// Equal to `floor` followed by a `>= u64::MAX as f64` test for every
/// `f64`, without `floor`'s library call on baseline x86-64.
#[inline]
fn skip_of(x: f64) -> u64 {
    x as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::girg::naive;
    use crate::kernel::{Alpha, GirgKernel};
    use crate::weights::PowerLaw;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::BTreeSet;

    fn random_instance<const D: usize>(
        n: usize,
        beta: f64,
        seed: u64,
    ) -> (Vec<Point<D>>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pl = PowerLaw::new(beta, 1.0).unwrap();
        let positions = (0..n).map(|_| Point::random(&mut rng)).collect();
        let weights = (0..n).map(|_| pl.sample(&mut rng)).collect();
        (positions, weights)
    }

    fn edge_set(edges: &[(u32, u32)]) -> BTreeSet<(u32, u32)> {
        edges.iter().copied().collect()
    }

    #[test]
    fn trivial_inputs() {
        let k = GirgKernel::new(Alpha::Finite(2.0), 1.0, 1.0, 10.0, 2).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        assert!(sample_edges::<2, _, _>(&[], &[], &k, &mut rng).0.is_empty());
        assert!(sample_edges(&[Point::<2>::origin()], &[1.0], &k, &mut rng).0.is_empty());
    }

    #[test]
    fn no_duplicate_edges_or_self_loops() {
        let (pos, w) = random_instance::<2>(800, 2.5, 1);
        let k = GirgKernel::new(Alpha::Finite(2.0), 1.0, 1.0, 800.0, 2).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let edges = sample_edges(&pos, &w, &k, &mut rng).0;
        let set = edge_set(&edges);
        assert_eq!(set.len(), edges.len(), "duplicate edges emitted");
        assert!(edges.iter().all(|&(u, v)| u < v));
    }

    /// With the threshold kernel the edge set is a deterministic function of
    /// positions and weights, so the cell sampler must match the naive
    /// sampler *exactly*.
    #[test]
    fn threshold_kernel_matches_naive_exactly() {
        for (dim_seed, beta) in [(10u64, 2.2), (11, 2.5), (12, 2.9)] {
            let (pos, w) = random_instance::<2>(600, beta, dim_seed);
            let k = GirgKernel::new(Alpha::Threshold, 1.3, 1.0, 600.0, 2).unwrap();
            let mut rng1 = StdRng::seed_from_u64(100);
            let mut rng2 = StdRng::seed_from_u64(200);
            let fast = edge_set(&sample_edges(&pos, &w, &k, &mut rng1).0);
            let slow = edge_set(&naive::sample_edges(&pos, &w, &k, &mut rng2).0);
            assert_eq!(fast, slow, "beta={beta}");
        }
    }

    #[test]
    fn threshold_exact_in_one_and_three_dimensions() {
        let (pos, w) = random_instance::<1>(500, 2.4, 21);
        let k = GirgKernel::new(Alpha::Threshold, 1.0, 1.0, 500.0, 1).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let fast = edge_set(&sample_edges(&pos, &w, &k, &mut rng).0);
        let slow = edge_set(&naive::sample_edges(&pos, &w, &k, &mut rng).0);
        assert_eq!(fast, slow);

        let (pos, w) = random_instance::<3>(400, 2.6, 22);
        let k = GirgKernel::new(Alpha::Threshold, 1.0, 1.0, 400.0, 3).unwrap();
        let fast = edge_set(&sample_edges(&pos, &w, &k, &mut rng).0);
        let slow = edge_set(&naive::sample_edges(&pos, &w, &k, &mut rng).0);
        assert_eq!(fast, slow);
    }

    /// For finite α the samplers are random, so compare edge-count statistics
    /// over repetitions of the *same* positions/weights.
    #[test]
    fn finite_alpha_edge_counts_match_naive() {
        let (pos, w) = random_instance::<2>(300, 2.5, 30);
        let k = GirgKernel::new(Alpha::Finite(2.0), 1.0, 1.0, 300.0, 2).unwrap();
        let reps = 60;
        let mut rng = StdRng::seed_from_u64(31);
        let fast_mean: f64 = (0..reps)
            .map(|_| sample_edges(&pos, &w, &k, &mut rng).0.len() as f64)
            .sum::<f64>()
            / reps as f64;
        let slow_mean: f64 = (0..reps)
            .map(|_| naive::sample_edges(&pos, &w, &k, &mut rng).0.len() as f64)
            .sum::<f64>()
            / reps as f64;
        // means should agree within a few standard errors; edge count ~ few
        // hundred with sd ~ sqrt(mean)
        let tol = 6.0 * (fast_mean.max(slow_mean) / reps as f64).sqrt().max(1.0);
        assert!(
            (fast_mean - slow_mean).abs() < tol,
            "fast={fast_mean} slow={slow_mean} tol={tol}"
        );
    }

    #[test]
    fn per_vertex_degree_distribution_matches() {
        // compare the degree of one planted heavy vertex across samplers
        let (mut pos, mut w) = random_instance::<2>(400, 2.5, 40);
        pos.push(Point::new([0.5, 0.5]));
        w.push(60.0);
        let hub = (pos.len() - 1) as u32;
        let k = GirgKernel::new(Alpha::Finite(1.5), 1.0, 1.0, 400.0, 2).unwrap();
        let reps = 40;
        let mut rng = StdRng::seed_from_u64(41);
        let deg_of = |edges: &[(u32, u32)]| {
            edges.iter().filter(|&&(u, v)| u == hub || v == hub).count() as f64
        };
        let fast: f64 = (0..reps)
            .map(|_| deg_of(&sample_edges(&pos, &w, &k, &mut rng).0))
            .sum::<f64>()
            / reps as f64;
        let slow: f64 = (0..reps)
            .map(|_| deg_of(&naive::sample_edges(&pos, &w, &k, &mut rng).0))
            .sum::<f64>()
            / reps as f64;
        let tol = 6.0 * (fast.max(slow) / reps as f64).sqrt().max(1.0);
        assert!((fast - slow).abs() < tol, "fast={fast} slow={slow} tol={tol}");
    }

    #[test]
    fn identical_weights_single_layer() {
        // exercises the single-layer path (all weights equal)
        let mut rng = StdRng::seed_from_u64(50);
        let pos: Vec<Point<2>> = (0..500).map(|_| Point::random(&mut rng)).collect();
        let w = vec![1.0; 500];
        let k = GirgKernel::new(Alpha::Threshold, 2.0, 1.0, 500.0, 2).unwrap();
        let fast = edge_set(&sample_edges(&pos, &w, &k, &mut rng).0);
        let slow = edge_set(&naive::sample_edges(&pos, &w, &k, &mut rng).0);
        assert_eq!(fast, slow);
    }

    #[test]
    fn clustered_positions_are_handled() {
        // all points inside one tiny ball: everything is type I in one cell
        let mut rng = StdRng::seed_from_u64(60);
        let pos: Vec<Point<2>> = (0..200)
            .map(|_| {
                let p: Point<2> = Point::random(&mut rng);
                Point::new([0.4 + 0.001 * p.coord(0), 0.4 + 0.001 * p.coord(1)])
            })
            .collect();
        let w = vec![1.0; 200];
        let k = GirgKernel::new(Alpha::Threshold, 1.0, 1.0, 200.0, 2).unwrap();
        let fast = edge_set(&sample_edges(&pos, &w, &k, &mut rng).0);
        let slow = edge_set(&naive::sample_edges(&pos, &w, &k, &mut rng).0);
        assert_eq!(fast, slow);
    }

    #[test]
    fn extreme_weight_contrast() {
        // one vertex of weight ~ n connects to everything; threshold kernel
        let mut rng = StdRng::seed_from_u64(70);
        let mut pos: Vec<Point<2>> = (0..300).map(|_| Point::random(&mut rng)).collect();
        let mut w = vec![1.0; 300];
        pos.push(Point::new([0.1, 0.9]));
        w.push(4000.0);
        let k = GirgKernel::new(Alpha::Threshold, 1.0, 1.0, 300.0, 2).unwrap();
        let fast = edge_set(&sample_edges(&pos, &w, &k, &mut rng).0);
        let slow = edge_set(&naive::sample_edges(&pos, &w, &k, &mut rng).0);
        assert_eq!(fast, slow);
        // the hub reaches every vertex: wu·wv/(wmin n) = 4000/300 > (1/2)^2
        let hub_degree = fast.iter().filter(|&&(u, v)| u == 300 || v == 300).count();
        assert_eq!(hub_degree, 300);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]
        /// Exactness sweep: for arbitrary parameters of the *threshold*
        /// kernel the cell sampler must reproduce the naive edge set
        /// exactly (the graph is a deterministic function of coordinates).
        #[test]
        fn prop_threshold_exactness(
            seed in 0u64..10_000,
            beta in 2.05..2.95f64,
            lambda in 0.05..2.0f64,
            n in 50usize..250,
        ) {
            let (pos, w) = random_instance::<2>(n, beta, seed);
            let k = GirgKernel::new(Alpha::Threshold, lambda, 1.0, n as f64, 2).unwrap();
            let mut rng = StdRng::seed_from_u64(seed ^ 0xFF);
            let fast = edge_set(&sample_edges(&pos, &w, &k, &mut rng).0);
            let slow = edge_set(&naive::sample_edges(&pos, &w, &k, &mut rng).0);
            proptest::prop_assert_eq!(fast, slow);
        }

        /// The finite-α sampler never emits self-loops, duplicates, or
        /// unordered pairs, for arbitrary α and λ.
        #[test]
        fn prop_output_well_formed(
            seed in 0u64..10_000,
            alpha in 1.05..6.0f64,
            lambda in 0.01..1.5f64,
        ) {
            let (pos, w) = random_instance::<2>(150, 2.5, seed);
            let k = GirgKernel::new(Alpha::Finite(alpha), lambda, 1.0, 150.0, 2).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let edges = sample_edges(&pos, &w, &k, &mut rng).0;
            let set = edge_set(&edges);
            proptest::prop_assert_eq!(set.len(), edges.len());
            proptest::prop_assert!(edges.iter().all(|&(u, v)| u < v && (v as usize) < 150));
        }
    }

    /// Bitwise thread-count invariance: same master seed, any pool size →
    /// byte-for-byte identical edge lists (not just equal sets) and equal
    /// work counters.
    #[test]
    fn parallel_sampling_is_bitwise_identical_across_thread_counts() {
        let k1 = GirgKernel::new(Alpha::Finite(1.8), 0.8, 1.0, 700.0, 1).unwrap();
        let k2 = GirgKernel::new(Alpha::Finite(2.0), 1.0, 1.0, 700.0, 2).unwrap();
        let k3 = GirgKernel::new(Alpha::Threshold, 1.2, 1.0, 700.0, 3).unwrap();
        let (p1, w1) = random_instance::<1>(700, 2.4, 1);
        let (p2, w2) = random_instance::<2>(700, 2.5, 2);
        let (p3, w3) = random_instance::<3>(700, 2.7, 3);
        for master in [0u64, 42, u64::MAX] {
            let base1 = sample_edges_pooled(&p1, &w1, &k1, master, &Pool::with_threads(1));
            let base2 = sample_edges_pooled(&p2, &w2, &k2, master, &Pool::with_threads(1));
            let base3 = sample_edges_pooled(&p3, &w3, &k3, master, &Pool::with_threads(1));
            for threads in [2, 3, 8] {
                let pool = Pool::with_threads(threads);
                assert_eq!(base1, sample_edges_pooled(&p1, &w1, &k1, master, &pool));
                assert_eq!(base2, sample_edges_pooled(&p2, &w2, &k2, master, &pool));
                assert_eq!(base3, sample_edges_pooled(&p3, &w3, &k3, master, &pool));
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]
        /// Parallel edge sampling equals its own sequential (1-thread)
        /// execution bitwise, for arbitrary seeds, sizes, and kernels.
        #[test]
        fn prop_parallel_bitwise_identical_to_sequential(
            seed in 0u64..10_000,
            master in 0u64..u64::MAX,
            alpha in 1.1..5.0f64,
            n in 50usize..400,
            threads in 2usize..7,
        ) {
            let (pos, w) = random_instance::<2>(n, 2.5, seed);
            let k = GirgKernel::new(Alpha::Finite(alpha), 0.5, 1.0, n as f64, 2).unwrap();
            let sequential = sample_edges_pooled(&pos, &w, &k, master, &Pool::with_threads(1));
            let parallel = sample_edges_pooled(&pos, &w, &k, master, &Pool::with_threads(threads));
            proptest::prop_assert_eq!(sequential, parallel);
        }
    }

    /// The reference type-I decision `p >= 1 || (p > 0 && u < p)`, and
    /// whether it draws `u`.
    fn reference_accept(p: f64, u: f64) -> (bool, bool) {
        if p >= 1.0 {
            (true, false)
        } else if p > 0.0 {
            (u < p, true)
        } else {
            (false, false)
        }
    }

    /// Checks both bracket decisions against the reference expressions at
    /// the draws where they could part: the band's ends and `p` itself.
    fn check_decisions(lo: f64, p: f64, hi: f64) {
        assert!(lo <= p && p <= hi, "not a bracket: {lo} {p} {hi}");
        for u in [lo, hi, p, p.next_up(), p.next_down()] {
            let mut fallbacks = 0;
            let mut drew = false;
            let got = accept(
                (lo, hi),
                || p,
                || {
                    drew = true;
                    u
                },
                &mut fallbacks,
            );
            let expected = reference_accept(p, u);
            assert_eq!((got, drew), expected, "type I: {lo} {p} {hi} u={u}");
            // type II tests `u · bound < p`; `x` stands for the product
            let x = u;
            let got = below(x, (lo, hi), || p, &mut fallbacks);
            assert_eq!(got, x < p, "type II: {lo} {p} {hi} x={x}");
        }
    }

    #[test]
    fn bracket_decisions_equal_the_exact_tests() {
        // synthetic brackets: strict bands, exact points, bands touching or
        // straddling 0 and 1
        for (lo, p, hi) in [
            (0.25, 0.3, 0.35),
            (0.3, 0.3, 0.3),
            (0.0, 0.0, 0.0),
            (1.0, 1.0, 1.0),
            (0.999, 1.0, 1.0),
            (0.999, 0.9995, 1.0),
            (0.0, 1e-300, 1e-290),
            (0.0, 0.0, 0.5),
            (f64::MIN_POSITIVE, f64::MIN_POSITIVE, 1e-300),
        ] {
            check_decisions(lo, p, hi);
        }
        // the kernel's own brackets, integer and non-integer α
        for alpha in [2.0, 3.0, 2.5] {
            let k = GirgKernel::new(Alpha::Finite(alpha), 1.0, 1.0, 1e5, 2).unwrap();
            for (wu, wv, dist) in [
                (1.0, 1.0, 0.01),
                (3.0, 7.0, 0.002),
                (50.0, 80.0, 0.0001),
                (1.0, 1.0, 0.0),
                (1.0, 1.0, 0.4),
                (1.0, 1.0, 1e90),
            ] {
                let (lo, hi) = k.bracket(wu, wv, dist);
                check_decisions(lo, k.probability(wu, wv, dist), hi);
            }
        }
    }

    #[test]
    fn a_draw_outside_the_band_needs_no_exact_probability() {
        let mut fallbacks = 0;
        let never = || -> f64 { panic!("exact probability evaluated") };
        assert!(accept((0.2, 0.3), never, || 0.1, &mut fallbacks));
        assert!(!accept((0.2, 0.3), never, || 0.3, &mut fallbacks));
        assert!(accept((1.0, 1.0), never, || panic!("drew"), &mut fallbacks));
        assert!(!accept((0.0, 0.0), never, || panic!("drew"), &mut fallbacks));
        assert!(below(0.1, (0.2, 0.3), never, &mut fallbacks));
        assert!(!below(0.3, (0.2, 0.3), never, &mut fallbacks));
        assert_eq!(fallbacks, 0);
        // inside the band the exact value decides, and counts
        assert!(accept((0.2, 0.3), || 0.26, || 0.25, &mut fallbacks));
        assert!(!below(0.27, (0.2, 0.3), || 0.26, &mut fallbacks));
        assert_eq!(fallbacks, 2);
    }

    /// `GirgKernel` without its own bracket: every decision evaluates the
    /// exact probability.
    struct ExactOnly(GirgKernel);

    impl ConnectionKernel for ExactOnly {
        fn probability(&self, wu: f64, wv: f64, dist: f64) -> f64 {
            self.0.probability(wu, wv, dist)
        }

        fn upper_bound(&self, wu_max: f64, wv_max: f64, min_dist: f64) -> f64 {
            self.0.upper_bound(wu_max, wv_max, min_dist)
        }
    }

    /// The bracket changes no edge: bitwise the same sample as the exact
    /// kernel, over seeds, dimensions and α (integer ones take the `powi`
    /// band, the others the exact default).
    #[test]
    fn bracketed_sampling_equals_exact_sampling_bitwise() {
        let pool = Pool::with_threads(2);
        let cases = [(1u64, 2.0, 1.0), (2, 3.0, 0.3), (3, 4.0, 2.0), (4, 2.5, 1.0)];
        for (seed, alpha, lambda) in cases {
            let (p1, w1) = random_instance::<1>(3_000, 2.5, seed);
            let k1 = GirgKernel::new(Alpha::Finite(alpha), lambda, 1.0, 3_000.0, 1).unwrap();
            let (p2, w2) = random_instance::<2>(3_000, 2.5, seed);
            let k2 = GirgKernel::new(Alpha::Finite(alpha), lambda, 1.0, 3_000.0, 2).unwrap();
            for (fast, exact) in [
                (
                    sample_edges_pooled(&p1, &w1, &k1, seed, &pool),
                    sample_edges_pooled(&p1, &w1, &ExactOnly(k1), seed, &pool),
                ),
                (
                    sample_edges_pooled(&p2, &w2, &k2, seed, &pool),
                    sample_edges_pooled(&p2, &w2, &ExactOnly(k2), seed, &pool),
                ),
            ] {
                assert_eq!(fast.0, exact.0, "seed={seed} alpha={alpha}");
                let examined = |c: SamplerCounts| (c.type_one_pairs, c.type_two_candidates);
                assert_eq!(examined(fast.1), examined(exact.1));
                if alpha.fract() == 0.0 {
                    assert!(fast.1.exact_fallbacks * 1000 < fast.1.type_one_pairs);
                }
            }
        }
    }

    #[test]
    fn counts_add_up() {
        let (pos, w) = random_instance::<2>(4_000, 2.5, 9);
        let k = GirgKernel::new(Alpha::Finite(2.0), 1.0, 1.0, 4_000.0, 2).unwrap();
        let (edges, counts) = sample_edges_pooled(&pos, &w, &k, 9, &Pool::with_threads(1));
        assert_eq!(counts.edges, edges.len() as u64);
        assert!(counts.type_one_pairs > 0 && counts.type_two_candidates > 0);
        assert!(counts.type_one_pairs + counts.type_two_candidates >= counts.edges);
        assert!(counts.examined_per_edge() >= 1.0);
        let (naive_edges, naive_counts) =
            naive::sample_edges(&pos[..100], &w[..100], &k, &mut StdRng::seed_from_u64(1));
        assert_eq!(naive_counts.type_one_pairs, 100 * 99 / 2);
        assert_eq!(naive_counts.edges, naive_edges.len() as u64);
    }

    /// The jump cursor carried across skips lands where the division of the
    /// linear index would put it: inside a row, across one row, across many
    /// rows, and past every row on a saturated skip.
    #[test]
    fn advance_matches_division() {
        for len in [1u64, 2, 3, 7, 64, 1_000] {
            for k in [0u64, 1, len - 1, len, 5 * len + len / 2] {
                let (row, col) = (k / len, k % len);
                for step in [1u64, 2, len - 1, len, len + 1, 17 * len + 5, 1_000 * len] {
                    let t = k + step;
                    let expected = (t / len, t % len);
                    assert_eq!(advance(row, col, len, step), expected, "len={len} k={k} +{step}");
                }
                // any grid has at most u64::MAX / len rows
                let (past, _) = advance(row, col, len, u64::MAX);
                assert!(past >= u64::MAX / len, "len={len} k={k}");
            }
        }
    }

    /// The cast in `skip_of` equals the `floor`-then-saturate expression
    /// it replaced, for every class of `f64`.
    #[test]
    fn skip_cast_equals_floor_then_saturate() {
        let reference = |x: f64| {
            let skip = x.floor();
            if skip >= u64::MAX as f64 {
                u64::MAX
            } else {
                skip as u64
            }
        };
        let max = u64::MAX as f64;
        for x in [
            f64::NAN,
            -f64::NAN,
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.5,
            -1.0,
            -1e300,
            f64::MIN_POSITIVE,
            0.999_999,
            1.0,
            1.5,
            4_503_599_627_370_495.5,
            max.next_down(),
            max,
            max.next_up(),
            f64::MAX,
        ] {
            assert_eq!(skip_of(x), reference(x), "x = {x:e}");
        }
    }

    /// The per-pair memo hands out exactly [`CellSampler::range`]'s lane
    /// ranges for every cell pair of every level, whatever the lookup
    /// order and however often a range is asked for.
    #[test]
    fn memoized_lane_ranges_equal_range() {
        fn check<const D: usize>(n: usize, seed: u64) {
            let (pos, w) = random_instance::<D>(n, 2.5, seed);
            let k = GirgKernel::new(Alpha::Finite(2.0), 1.0, 1.0, n as f64, D as u32).unwrap();
            let sampler = CellSampler::new(&pos, &w, &k);
            let layers = sampler.layers.len();
            assert!(layers > 2, "d={D}: a few layers");
            let mut memo = PairLanes::new(layers);
            let mut cells = vec![MortonCell::root()];
            for _ in 0..=sampler.max_level {
                for (x, &a) in cells.iter().enumerate() {
                    for &b in &cells[x..] {
                        memo.reset(a, b);
                        for i in (0..layers).rev().chain(0..layers) {
                            for (side, cell) in [(0, a), (1, b)] {
                                let got = sampler.lane_range(&mut memo, side, i);
                                assert_eq!(got, sampler.range(i, &cell), "d={D} {a:?} {b:?}");
                            }
                        }
                    }
                }
                cells = cells.iter().flat_map(|c| c.children::<D>()).collect();
            }
        }
        check::<1>(100, 1);
        check::<2>(300, 2);
        check::<3>(400, 3);
    }

    /// At λ = 10⁻²⁰ most type-II bounds lie below 2⁻⁵⁴, where `1 − bound`
    /// rounds to 1: the skips must still come from `ln(1 − bound)`, or
    /// every pair becomes a candidate accepted with probability
    /// `p / bound`. Both samplers must match the exact expected edge
    /// count (about 0), in each dimension.
    #[test]
    fn vanishing_bounds_sample_like_naive() {
        fn check<const D: usize>() {
            let n = 2_000;
            let (pos, w) = random_instance::<D>(n, 2.5, 7);
            let k = GirgKernel::new(Alpha::Finite(2.0), 1e-20, 1.0, n as f64, D as u32).unwrap();
            let mut expected = 0.0;
            for u in 0..n {
                for v in u + 1..n {
                    expected += k.probability(w[u], w[v], pos[u].distance(&pos[v]));
                }
            }
            let cells = sample_edges_pooled(&pos, &w, &k, 7, &Pool::with_threads(1)).0.len();
            let slow = naive::sample_edges(&pos, &w, &k, &mut StdRng::seed_from_u64(7)).0.len();
            let tol = 6.0 * expected.sqrt() + 3.0;
            for (name, count) in [("cells", cells), ("naive", slow)] {
                assert!(
                    (count as f64 - expected).abs() <= tol,
                    "d={D} {name}: {count} edges, expected {expected:.3e}"
                );
            }
        }
        check::<1>();
        check::<2>();
        check::<3>();
    }

    #[test]
    fn geometric_skip_has_right_mean() {
        // mean number of failures before success is (1-p)/p
        let mut rng = StdRng::seed_from_u64(80);
        let p: f64 = 0.05;
        let reps = 50_000;
        let sum: u64 = (0..reps)
            .map(|_| geometric_skip(&mut rng, (1.0 - p).ln()))
            .sum();
        let mean = sum as f64 / reps as f64;
        let expected = (1.0 - p) / p;
        assert!((mean - expected).abs() < 0.3, "mean={mean} expected={expected}");
    }
}

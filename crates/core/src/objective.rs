//! Objective functions for greedy routing.
//!
//! A greedy router forwards the packet to the neighbor maximizing an
//! [`Objective`]. The paper's canonical choice (§2.2) is
//!
//! ```text
//! φ(v) = w_v / (w_min · n · ‖x_v − x_t‖^d),
//! ```
//!
//! the natural reading of Milgram's instruction "forward to the acquaintance
//! most likely to know the target": for finite α, maximizing φ is equivalent
//! to maximizing the connection probability p_{vt}. Because greedy routing
//! only *compares* objective values, any strictly monotone transform induces
//! the same protocol; implementations are free to exploit this (e.g. the
//! hyperbolic objective returns `−d_H` instead of the paper's
//! `1/√(cosh d_H)` form).
//!
//! # One score formula per objective
//!
//! Routing scores every neighbor of every hop against a *fixed* target, so
//! each objective writes its score once, in the per-target [`ScoreKernel`]
//! that [`Objective::prepare`] compiles with the target's position (and any
//! normalization) hoisted; the same monotone-transform argument that
//! licenses `−d_H` licenses this compilation. Routers
//! ([`Router::route_prepared`](crate::router::Router::route_prepared)) and
//! `smallworld-net`'s forwarding policies both score through these kernels.
//! The traits live in [`smallworld_graph::score`] and are re-exported here.

use std::hash::{Hash, Hasher};

use smallworld_geometry::point::{axis_distance, max_distance};
use smallworld_geometry::Point;
use smallworld_graph::view::{aligned_ranges, first_best_by_blocks, fold_first_best, BLOCK_WIDTH};
use smallworld_graph::{NodeId, GROUP_RUNS, RUN_IDS};
use smallworld_models::girg::Girg;
use smallworld_models::hyperbolic::{hyperbolic_distance, Hrg};
use smallworld_models::kleinberg::{ContinuumKleinberg, KleinbergLattice};

pub use smallworld_graph::score::{
    FnObjective, NaiveKernel, NaiveObjective, Objective, ScoreKernel,
};

/// The paper's objective `φ(v) = w_v / (w_min · n · ‖x_v − x_t‖^d)` (§2.2).
///
/// Returns `+∞` for the target itself (distance 0).
///
/// Geometry is read from flat vertex-major lanes — `n · D` canonical
/// coordinates plus `n` weights — borrowed either from a sampled [`Girg`]
/// ([`GirgObjective::new`]) or straight from a memory-mapped store's
/// position and weight sections ([`GirgObjective::from_lanes`]). Both give
/// the same scores bit for bit, through the one scalar φ chain that the
/// prepared [`GirgHopKernel`] shares.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use smallworld_core::{GirgObjective, Objective};
/// use smallworld_models::girg::GirgBuilder;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let girg = GirgBuilder::<2>::new(300).sample(&mut rng)?;
/// let obj = GirgObjective::new(&girg);
/// let t = girg.random_vertex(&mut rng);
/// assert!(obj.score(t, t).is_infinite());
/// # Ok::<(), smallworld_models::ModelError>(())
/// ```
#[derive(Clone, Copy, Debug)]
pub struct GirgObjective<'a, const D: usize> {
    /// The flat position lane viewed `D` coordinates at a time.
    positions: &'a [[f64; D]],
    weights: &'a [f64],
    norm: f64,
}

/// φ for one vertex against a target position: the max-norm torus distance
/// ([`max_distance`], the fold of [`Point::distance`]), `powi(D)`, the
/// zero-distance guard, and one divide. Every GIRG score in the crate runs
/// this chain.
#[inline]
pub(crate) fn phi_chain<const D: usize>(x: &[f64; D], target: &[f64; D], w: f64, norm: f64) -> f64 {
    phi_at_distance::<D>(max_distance(x, target), w, norm)
}

/// The tail of [`phi_chain`] after the distance fold, shared with the
/// [`PhiBounds`] bound so that both run the same `powi`, guard and divide.
#[inline]
fn phi_at_distance<const D: usize>(dist: f64, w: f64, norm: f64) -> f64 {
    let dist_pow_d = dist.powi(D as i32);
    if dist_pow_d == 0.0 {
        f64::INFINITY
    } else {
        w / (norm * dist_pow_d)
    }
}

/// Bounding box and largest weight of one aligned id range of
/// [`PhiBounds`], rounded outward to `f32` (half the memory of `f64`; the
/// box still holds every member, which is all the bound relies on).
#[derive(Clone, Copy, Debug)]
struct IdBox<const D: usize> {
    lo: [f32; D],
    hi: [f32; D],
    w_max: f32,
}

/// The largest `f32` that is `≤ x`.
fn f32_down(x: f64) -> f32 {
    let f = x as f32;
    if f64::from(f) > x {
        f.next_down()
    } else {
        f
    }
}

/// The smallest `f32` that is `≥ x`.
fn f32_up(x: f64) -> f32 {
    let f = x as f32;
    if f64::from(f) < x {
        f.next_up()
    } else {
        f
    }
}

impl<const D: usize> IdBox<D> {
    /// The box of `xs` with the largest of `ws`, or `None` if a vertex
    /// falls outside the soundness argument (a non-finite coordinate, a
    /// negative or NaN weight).
    ///
    /// Branch-free, so that it vectorizes: [`IdBox::LANES`] interleaved
    /// accumulators take the minima, maxima and validity tests, which are
    /// folded together once at the end. Minima and maxima are exact, so
    /// the box does not depend on the order they are taken in; a NaN,
    /// which the selects would skip, fails the validity test instead.
    fn of(xs: &[[f64; D]], ws: &[f64]) -> Option<Self> {
        const LANES: usize = IdBox::<1>::LANES;
        let mut lo = [[f64::INFINITY; D]; LANES];
        let mut hi = [[f64::NEG_INFINITY; D]; LANES];
        let mut w_max = [0.0f64; LANES];
        let mut invalid = [0u64; LANES];
        let (xs_lanes, xs_rest) = xs.as_chunks::<LANES>();
        let (ws_lanes, ws_rest) = ws.as_chunks::<LANES>();
        let mut take = |j: usize, x: &[f64; D], w: f64| {
            invalid[j] |= u64::from(w.is_nan() | (w < 0.0));
            for k in 0..D {
                invalid[j] |= u64::from(!x[k].is_finite());
                lo[j][k] = if x[k] < lo[j][k] { x[k] } else { lo[j][k] };
                hi[j][k] = if x[k] > hi[j][k] { x[k] } else { hi[j][k] };
            }
            w_max[j] = if w > w_max[j] { w } else { w_max[j] };
        };
        for (x, w) in xs_lanes.iter().zip(ws_lanes) {
            for j in 0..LANES {
                take(j, &x[j], w[j]);
            }
        }
        for (j, (x, &w)) in xs_rest.iter().zip(ws_rest).enumerate() {
            take(j, x, w);
        }
        if invalid.iter().any(|&bad| bad != 0) {
            return None;
        }
        let (mut lo_all, mut hi_all) = (lo[0], hi[0]);
        for j in 1..LANES {
            for k in 0..D {
                lo_all[k] = lo_all[k].min(lo[j][k]);
                hi_all[k] = hi_all[k].max(hi[j][k]);
            }
        }
        Some(IdBox {
            lo: lo_all.map(f32_down),
            hi: hi_all.map(f32_up),
            w_max: f32_up(w_max.into_iter().fold(0.0, f64::max)),
        })
    }

    /// Interleaved accumulators of [`IdBox::of`]: vertex `i` of a block
    /// goes to lane `i % LANES`.
    const LANES: usize = 8;

    /// The smallest box holding all of `boxes`.
    fn union(boxes: &[IdBox<D>]) -> Self {
        let mut u = boxes[0];
        for b in &boxes[1..] {
            for k in 0..D {
                u.lo[k] = u.lo[k].min(b.lo[k]);
                u.hi[k] = u.hi[k].max(b.hi[k]);
            }
            u.w_max = u.w_max.max(b.w_max);
        }
        u
    }

    /// Widest per-axis extent `hi − lo`.
    fn extent(&self) -> f32 {
        (0..D).map(|k| self.hi[k] - self.lo[k]).fold(0.0, f32::max)
    }

    /// [`phi_chain`] with `w_max` for the weight and, per axis, a lower
    /// bound on the member's [`axis_distance`] for the distance: 0 when
    /// the target coordinate lies in `[lo, hi]`, else the nearer of the
    /// two box faces. Folded with the strict `>` max of [`max_distance`].
    #[inline]
    fn phi_bound(&self, target: &[f64; D], norm: f64) -> f64 {
        let mut dist = 0.0f64;
        for (k, &t) in target.iter().enumerate() {
            let (lo, hi) = (f64::from(self.lo[k]), f64::from(self.hi[k]));
            let d = if t >= lo && t <= hi {
                0.0
            } else {
                axis_distance(lo, t).min(axis_distance(hi, t))
            };
            if d > dist {
                dist = d;
            }
        }
        phi_at_distance::<D>(dist, f64::from(self.w_max), norm)
    }
}

/// Upper bounds on φ over aligned id ranges, as a ladder of four levels:
/// 64-id blocks, 512-id tiles, runs of [`RUN_IDS`] ids and groups of
/// [`GROUP_RUNS`] runs (65,536 ids). For each range it keeps the per-axis
/// coordinate box and the largest weight of its vertices, rounded outward
/// to `f32`; each level's box is the union of the boxes below it.
///
/// A range's bound runs the op chain of [`GirgObjective::phi`] on `w_max`
/// and a lower bound of the distance, and is **bitwise ≥** the φ of every member — no
/// safety margin is needed, because every op of the chain rounds
/// monotonically:
///
/// * Per axis, for a target coordinate `t` below the box, `x − t` grows
///   with `x`, and round-to-nearest is monotone, so `fl(x − t)` lies
///   between `fl(lo − t)` and `fl(hi − t)`, and `fl(1 − d)` moves the other
///   way. Hence `min(d, fl(1 − d))` for a member is at least
///   `min(axis_distance(lo, t), axis_distance(hi, t))`. Above the box the
///   same holds with `lo` and `hi` swapped; inside it the bound is 0.
/// * The strict-`>` max fold, `powi(D)` (a product of non-negative
///   factors), `norm · d` and `w / (norm · d)` are each monotone in their
///   inputs, with `w_max ≥ w ≥ 0`. A zero bound distance gives `+∞`.
///
/// The argument only uses `lo ≤ x ≤ hi` and `w ≤ w_max` for the members,
/// which the outward `f32` rounding and the unions keep. At d = 2 a box
/// takes 20 B: 0.31 MiB of blocks per 10⁶ vertices, and 39 KB of tiles,
/// 4.9 KB of runs and 320 B of groups above them.
///
/// So a range whose bound is `≤` the incumbent score holds no vertex that
/// could replace it under the strict `>` of the first-best fold. The run
/// fold of [`GreedyRouter::route_view`](crate::GreedyRouter::route_view)
/// skips groups and runs (through [`ScoreKernel::group_bound`] and
/// [`ScoreKernel::run_bound`]) and [`GirgHopKernel::best_above`] tiles and
/// blocks, with routes unchanged; a NaN bound never skips.
///
/// Bounds only pay when consecutive ids are spatially close, as after a
/// Morton relabeling. [`PhiBounds::new`] decides from the data: it builds
/// nothing when most full blocks span half the torus or more on some axis
/// (ids in sampling or random order), and nothing for lanes the argument
/// does not cover (non-finite coordinates, negative or NaN weights).
#[derive(Clone, Debug)]
pub struct PhiBounds<const D: usize> {
    /// `levels[l][i]` is the box of the ids `i · LEVEL_IDS[l] ..`.
    levels: [Vec<IdBox<D>>; 4],
}

impl<const D: usize> PhiBounds<D> {
    /// Ids per range of each level, finest first; range `i` of level `l`
    /// holds the ids `i · LEVEL_IDS[l] .. (i + 1) · LEVEL_IDS[l]`.
    pub const LEVEL_IDS: [usize; 4] = [64, 512, RUN_IDS, GROUP_RUNS * RUN_IDS];
    /// The level of 64-id blocks, [`GirgHopKernel::best_above`]'s unit of
    /// scoring.
    pub const BLOCK: usize = 0;
    /// The level of 512-id tiles, which `best_above` checks before their
    /// blocks.
    pub const TILE: usize = 1;
    /// The level of runs of
    /// [`AdjacencyView::fold_runs`](smallworld_graph::AdjacencyView::fold_runs):
    /// [`GirgHopKernel`]'s [`run_bound`](ScoreKernel::run_bound).
    pub const RUN: usize = 2;
    /// The level of run groups: [`GirgHopKernel`]'s
    /// [`group_bound`](ScoreKernel::group_bound).
    pub const GROUP: usize = 3;

    /// Builds the bounds from flat vertex-major lanes (the layout of
    /// [`GirgObjective::from_lanes`]) in one pass, or `None` when the id
    /// order is not spatially coherent or the lanes fall outside the
    /// soundness argument (see the type docs).
    ///
    /// # Panics
    ///
    /// Panics if `positions.len() != weights.len() · D`.
    pub fn new(positions: &[f64], weights: &[f64]) -> Option<Self> {
        assert_eq!(
            positions.len(),
            weights.len() * D,
            "positions must hold D coordinates per vertex"
        );
        let points = positions.as_chunks::<D>().0;
        let block_ids = Self::LEVEL_IDS[Self::BLOCK];
        let blocks: Vec<IdBox<D>> = points
            .chunks(block_ids)
            .zip(weights.chunks(block_ids))
            .map(|(xs, ws)| IdBox::of(xs, ws))
            .collect::<Option<_>>()?;
        let full = weights.len() / block_ids;
        let narrow = blocks[..full].iter().filter(|b| b.extent() < 0.5).count();
        if 2 * narrow <= full {
            return None;
        }
        let mut levels = [blocks, Vec::new(), Vec::new(), Vec::new()];
        for l in 1..levels.len() {
            let per = Self::LEVEL_IDS[l] / Self::LEVEL_IDS[l - 1];
            levels[l] = levels[l - 1].chunks(per).map(IdBox::union).collect();
        }
        Some(PhiBounds { levels })
    }

    /// Upper bound on φ, towards a target at `target` with normalization
    /// `norm`, of every vertex in range `range` of level `level`.
    ///
    /// # Panics
    ///
    /// Panics if the level does not exist or the range holds no id.
    #[inline]
    pub fn bound(&self, level: usize, range: usize, target: &[f64; D], norm: f64) -> f64 {
        self.levels[level][range].phi_bound(target, norm)
    }

    /// Heap memory held by the ladder, in bytes.
    pub fn bytes(&self) -> usize {
        self.levels.iter().map(Vec::len).sum::<usize>() * std::mem::size_of::<IdBox<D>>()
    }
}

impl<'a, const D: usize> GirgObjective<'a, D> {
    /// Creates the objective for a sampled GIRG, borrowing its positions
    /// as one flat lane ([`Point::flatten`]).
    pub fn new(girg: &'a Girg<D>) -> Self {
        let params = girg.params();
        GirgObjective::from_lanes(
            Point::flatten(girg.positions()),
            girg.weights(),
            params.wmin * params.intensity,
        )
    }

    /// Creates the objective over flat lanes: `positions` holds `D`
    /// canonical (`[0, 1)`) coordinates per vertex, vertex-major, and
    /// `weights` one weight per vertex — the layout of a `.swg` store's
    /// position and weight sections. `wmin_times_n` is the normalization
    /// `w_min · n`.
    ///
    /// # Panics
    ///
    /// Panics if `positions.len() != weights.len() · D` or the
    /// normalization is not positive.
    pub fn from_lanes(positions: &'a [f64], weights: &'a [f64], wmin_times_n: f64) -> Self {
        assert_eq!(
            positions.len(),
            weights.len() * D,
            "positions must hold D coordinates per vertex"
        );
        assert!(wmin_times_n > 0.0, "normalization must be positive");
        GirgObjective {
            positions: positions.as_chunks::<D>().0,
            weights,
            norm: wmin_times_n,
        }
    }

    /// Number of vertices the objective covers.
    pub fn node_count(&self) -> usize {
        self.weights.len()
    }

    /// The raw φ value (same as [`Objective::score`], provided for
    /// phase/trajectory analysis).
    pub fn phi(&self, v: NodeId, target: NodeId) -> f64 {
        phi_chain(
            &self.positions[v.index()],
            &self.positions[target.index()],
            self.weights[v.index()],
            self.norm,
        )
    }
}

impl<const D: usize> Objective for GirgObjective<'_, D> {
    type Kernel<'k>
        = GirgHopKernel<'k, D>
    where
        Self: 'k;

    fn prepare(&self, target: NodeId) -> Self::Kernel<'_> {
        GirgHopKernel {
            positions: self.positions,
            weights: self.weights,
            norm: self.norm,
            target,
            target_pos: self.positions[target.index()],
            bounds: None,
        }
    }
}

/// Prepared kernel of [`GirgObjective`]: the target position is a register
/// copy, so each hop performs one position gather and one weight gather per
/// neighbor instead of reloading the target every call.
///
/// A kernel handed out by [`PackedGirgObjective`](crate::PackedGirgObjective)
/// or [`IndexedGirgObjective`](crate::IndexedGirgObjective) also carries
/// their [`PhiBounds`]: its [`group_bound`](ScoreKernel::group_bound)
/// and [`run_bound`](ScoreKernel::run_bound) bound run groups and runs, and
/// its [`best_above`](ScoreKernel::best_above) skips tiles and blocks, so
/// no range that cannot beat the incumbent is scored; one from
/// [`GirgObjective`] scans every neighbor.
///
/// (`*HopKernel`, to avoid colliding with the models' edge-probability
/// kernels such as `smallworld_models::GirgKernel`.)
#[derive(Clone, Copy, Debug)]
pub struct GirgHopKernel<'k, const D: usize> {
    positions: &'k [[f64; D]],
    weights: &'k [f64],
    norm: f64,
    target: NodeId,
    target_pos: [f64; D],
    bounds: Option<&'k PhiBounds<D>>,
}

impl<'k, const D: usize> GirgHopKernel<'k, D> {
    /// The same kernel, pruning its hop scans with `bounds` (built over the
    /// kernel's own lanes).
    pub(crate) fn with_bounds(self, bounds: Option<&'k PhiBounds<D>>) -> Self {
        GirgHopKernel { bounds, ..self }
    }

    /// φ without the `v == target` short-circuit; the same [`phi_chain`]
    /// as [`GirgObjective::phi`], so results agree bitwise.
    #[inline]
    pub(crate) fn phi(&self, v: NodeId) -> f64 {
        phi_chain(
            &self.positions[v.index()],
            &self.target_pos,
            self.weights[v.index()],
            self.norm,
        )
    }
}

impl<const D: usize> ScoreKernel for GirgHopKernel<'_, D> {
    fn target(&self) -> NodeId {
        self.target
    }

    #[inline]
    fn score(&self, v: NodeId) -> f64 {
        if v == self.target {
            return f64::INFINITY;
        }
        self.phi(v)
    }

    #[inline]
    fn score_block(&self, vs: &[NodeId], out: &mut [f64]) {
        debug_assert!(out.len() >= vs.len());
        // Same per-slot chain as `score`, written branch-light (the target
        // check becomes a select) so the position/weight gathers and the
        // divides pipeline across slots.
        for (o, &v) in out.iter_mut().zip(vs) {
            let s = self.phi(v);
            *o = if v == self.target { f64::INFINITY } else { s };
        }
    }

    /// Branch-and-bound over the sorted slice, tile by tile: a tile whose
    /// [`PhiBounds`] bound is `≤ max(floor, incumbent)` is skipped whole;
    /// inside every other tile, so is each such block, and the remaining
    /// blocks are scored and folded in order. Every member of a skipped
    /// range scores `≤` that bar and comes after the incumbent, so the
    /// first-best is the full fold's (see [`PhiBounds`]). Run groups and
    /// runs are skipped above this, by the run fold of
    /// [`GreedyRouter::route_view`](crate::GreedyRouter::route_view).
    fn best_above(&self, ns: &[NodeId], floor: f64) -> Option<(f64, NodeId)> {
        let Some(bounds) = self.bounds else {
            return first_best_by_blocks(ns, |chunk, out| self.score_block(chunk, out));
        };
        let ids = PhiBounds::<D>::LEVEL_IDS;
        let beaten = |level, range, best: Option<(f64, NodeId)>| {
            let bar = best.map_or(floor, |(b, _)| b.max(floor));
            // a NaN bound compares neither way and is never skipped
            bounds.bound(level, range, &self.target_pos, self.norm) <= bar
        };
        let mut best: Option<(f64, NodeId)> = None;
        let mut scores = [0.0; BLOCK_WIDTH];
        for (tile, members) in aligned_ranges(ns, ids[PhiBounds::<D>::TILE]) {
            if beaten(PhiBounds::<D>::TILE, tile, best) {
                continue;
            }
            for (blk, members) in aligned_ranges(members, ids[PhiBounds::<D>::BLOCK]) {
                if beaten(PhiBounds::<D>::BLOCK, blk, best) {
                    continue;
                }
                for chunk in members.chunks(scores.len()) {
                    self.score_block(chunk, &mut scores);
                    fold_first_best(&mut best, &scores[..chunk.len()], chunk);
                }
            }
        }
        best
    }

    fn bounds_runs(&self) -> bool {
        self.bounds.is_some()
    }

    /// [`PhiBounds::bound`] at the [run](PhiBounds::RUN) level.
    fn run_bound(&self, run: usize) -> f64 {
        self.bounds.map_or(f64::INFINITY, |b| {
            b.bound(PhiBounds::<D>::RUN, run, &self.target_pos, self.norm)
        })
    }

    /// [`PhiBounds::bound`] at the [group](PhiBounds::GROUP) level.
    fn group_bound(&self, group: usize) -> f64 {
        self.bounds.map_or(f64::INFINITY, |b| {
            b.bound(PhiBounds::<D>::GROUP, group, &self.target_pos, self.norm)
        })
    }
}

/// Degree-agnostic *geometric* routing (§4): score is the negated torus
/// distance to the target, ignoring weights entirely.
///
/// The paper cites experiments showing this is far less efficient and robust
/// than weight-aware greedy routing; experiment `exp_geometric` reproduces
/// the comparison.
#[derive(Clone, Copy, Debug)]
pub struct DistanceObjective<'a, const D: usize> {
    positions: &'a [Point<D>],
}

impl<'a, const D: usize> DistanceObjective<'a, D> {
    /// Creates the objective from vertex positions.
    pub fn new(positions: &'a [Point<D>]) -> Self {
        DistanceObjective { positions }
    }

    /// Creates the objective for a sampled GIRG (using positions only).
    pub fn for_girg(girg: &'a Girg<D>) -> Self {
        DistanceObjective {
            positions: girg.positions(),
        }
    }

    /// Number of vertices the objective covers.
    pub fn node_count(&self) -> usize {
        self.positions.len()
    }
}

impl<'a> DistanceObjective<'a, 2> {
    /// Creates the objective for the continuum Kleinberg model, whose
    /// positions live on `T²`.
    pub fn for_continuum(model: &'a ContinuumKleinberg) -> Self {
        DistanceObjective {
            positions: model.positions(),
        }
    }
}

impl<const D: usize> Objective for DistanceObjective<'_, D> {
    type Kernel<'k>
        = DistanceHopKernel<'k, D>
    where
        Self: 'k;

    fn prepare(&self, target: NodeId) -> Self::Kernel<'_> {
        DistanceHopKernel {
            positions: self.positions,
            target,
            target_pos: self.positions[target.index()],
        }
    }
}

/// Prepared kernel of [`DistanceObjective`] with the target position
/// hoisted.
#[derive(Clone, Copy, Debug)]
pub struct DistanceHopKernel<'k, const D: usize> {
    positions: &'k [Point<D>],
    target: NodeId,
    target_pos: Point<D>,
}

impl<const D: usize> ScoreKernel for DistanceHopKernel<'_, D> {
    fn target(&self) -> NodeId {
        self.target
    }

    #[inline]
    fn score(&self, v: NodeId) -> f64 {
        if v == self.target {
            return f64::INFINITY;
        }
        -self.positions[v.index()].distance(&self.target_pos)
    }

    #[inline]
    fn score_block(&self, vs: &[NodeId], out: &mut [f64]) {
        debug_assert!(out.len() >= vs.len());
        for (o, &v) in out.iter_mut().zip(vs) {
            let s = -self.positions[v.index()].distance(&self.target_pos);
            *o = if v == self.target { f64::INFINITY } else { s };
        }
    }
}

/// Geometric greedy routing on hyperbolic random graphs (§11): score is the
/// negated hyperbolic distance to the target.
///
/// This is a strictly monotone transform of the paper's
/// `φ_H(v) = n / (w_t w_min √(cosh d_H(v,t)))`, hence induces the identical
/// protocol, and by Corollary 3.6 inherits all the paper's guarantees.
#[derive(Clone, Copy, Debug)]
pub struct HyperbolicObjective<'a> {
    hrg: &'a Hrg,
}

impl<'a> HyperbolicObjective<'a> {
    /// Creates the objective for a sampled hyperbolic random graph.
    pub fn new(hrg: &'a Hrg) -> Self {
        HyperbolicObjective { hrg }
    }
}

impl HyperbolicObjective<'_> {
    /// The paper's exact form
    /// `φ_H(v) = n / (w_t · w_min · √(cosh d_H(v, t)))` (§11).
    ///
    /// This is a strictly decreasing function of `d_H`, so routing by
    /// [`Objective::score`] (which returns `−d_H`) takes exactly the same
    /// decisions — asserted by a property test. Exposed for analyses that
    /// want φ_H on the GIRG scale (it plugs into the Theorem 3.5 class).
    pub fn phi_h(&self, v: NodeId, target: NodeId) -> f64 {
        let params = self.hrg.params();
        let n = params.n as f64;
        let wmin = (-params.c / 2.0).exp();
        let w_t = self.hrg.girg_weight(target);
        n / (w_t * wmin * self.hrg.distance(v, target).cosh().sqrt())
    }
}

impl Objective for HyperbolicObjective<'_> {
    type Kernel<'k>
        = HyperbolicHopKernel<'k>
    where
        Self: 'k;

    fn prepare(&self, target: NodeId) -> Self::Kernel<'_> {
        HyperbolicHopKernel {
            radii: self.hrg.radii(),
            angles: self.hrg.angles(),
            target,
            target_radius: self.hrg.radii()[target.index()],
            target_angle: self.hrg.angles()[target.index()],
        }
    }
}

/// Prepared kernel of [`HyperbolicObjective`]: the target's polar
/// coordinates are hoisted and the distance computed directly via
/// [`hyperbolic_distance`] — the same function (and argument order)
/// `Hrg::distance` uses, so a score is bitwise `−Hrg::distance`.
#[derive(Clone, Copy, Debug)]
pub struct HyperbolicHopKernel<'k> {
    radii: &'k [f64],
    angles: &'k [f64],
    target: NodeId,
    target_radius: f64,
    target_angle: f64,
}

impl ScoreKernel for HyperbolicHopKernel<'_> {
    fn target(&self) -> NodeId {
        self.target
    }

    #[inline]
    fn score(&self, v: NodeId) -> f64 {
        if v == self.target {
            return f64::INFINITY;
        }
        -hyperbolic_distance(
            self.radii[v.index()],
            self.angles[v.index()],
            self.target_radius,
            self.target_angle,
        )
    }
}

/// Kleinberg's lattice objective: negated torus Manhattan distance.
#[derive(Clone, Copy, Debug)]
pub struct KleinbergObjective<'a> {
    lattice: &'a KleinbergLattice,
}

impl<'a> KleinbergObjective<'a> {
    /// Creates the objective for a sampled Kleinberg lattice.
    pub fn new(lattice: &'a KleinbergLattice) -> Self {
        KleinbergObjective { lattice }
    }
}

impl Objective for KleinbergObjective<'_> {
    type Kernel<'k>
        = KleinbergHopKernel<'k>
    where
        Self: 'k;

    fn prepare(&self, target: NodeId) -> Self::Kernel<'_> {
        KleinbergHopKernel {
            lattice: self.lattice,
            target,
        }
    }
}

/// Prepared kernel of [`KleinbergObjective`]. Lattice distances are exact
/// integer arithmetic, so the kernel only fixes the target.
#[derive(Clone, Copy, Debug)]
pub struct KleinbergHopKernel<'k> {
    lattice: &'k KleinbergLattice,
    target: NodeId,
}

impl ScoreKernel for KleinbergHopKernel<'_> {
    fn target(&self) -> NodeId {
        self.target
    }

    #[inline]
    fn score(&self, v: NodeId) -> f64 {
        if v == self.target {
            return f64::INFINITY;
        }
        -(self.lattice.lattice_distance(v, self.target) as f64)
    }
}

/// The relaxed objective φ̃ of Theorem 3.5: a *fixed* multiplicative
/// perturbation of a base objective.
///
/// For each vertex `v` a deterministic pseudo-random factor
/// `exp(ε · u_v · ln M_v)` is applied, where `u_v ∈ [−1, 1]` is derived by
/// hashing `(seed, v)` and `M_v = max(min(w_v, 1/φ(v)), e)`. This realizes
/// exactly the admissible perturbation class
/// `φ̃(v) = Θ(φ(v) · min(w_v, φ(v)^{−1})^{±ε})` of condition (2): the routing
/// sees a noisy-but-consistent view of its neighbors' quality, as Milgram's
/// participants did.
///
/// The perturbation is a function of the vertex only (not re-randomized per
/// query), as the theorem requires, and the target keeps score `+∞`.
#[derive(Clone, Copy, Debug)]
pub struct RelaxedObjective<'a, const D: usize> {
    base: GirgObjective<'a, D>,
    epsilon: f64,
    seed: u64,
}

impl<'a, const D: usize> RelaxedObjective<'a, D> {
    /// Wraps a GIRG objective with noise strength `epsilon ≥ 0` (`0` is the
    /// exact objective).
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is negative or not finite.
    pub fn new(base: GirgObjective<'a, D>, epsilon: f64, seed: u64) -> Self {
        assert!(
            epsilon >= 0.0 && epsilon.is_finite(),
            "epsilon must be a finite non-negative number"
        );
        RelaxedObjective {
            base,
            epsilon,
            seed,
        }
    }

    /// The noise factor applied at vertex `v` (useful for tests).
    pub fn noise_exponent(&self, v: NodeId) -> f64 {
        relaxed_noise_exponent(self.seed, v)
    }
}

/// The deterministic `u_v ∈ [−1, 1]` of [`RelaxedObjective`], shared by
/// [`RelaxedObjective::noise_exponent`] and the kernel.
fn relaxed_noise_exponent(seed: u64, v: NodeId) -> f64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    seed.hash(&mut h);
    v.raw().hash(&mut h);
    let bits = h.finish();
    let unit = (bits >> 11) as f64 / (1u64 << 53) as f64; // [0,1)
    2.0 * unit - 1.0
}

impl<const D: usize> Objective for RelaxedObjective<'_, D> {
    type Kernel<'k>
        = RelaxedHopKernel<'k, D>
    where
        Self: 'k;

    fn prepare(&self, target: NodeId) -> Self::Kernel<'_> {
        RelaxedHopKernel {
            base: self.base.prepare(target),
            epsilon: self.epsilon,
            seed: self.seed,
        }
    }
}

/// Prepared kernel of [`RelaxedObjective`]: wraps the prepared GIRG kernel
/// and replays the same per-vertex perturbation.
#[derive(Clone, Copy, Debug)]
pub struct RelaxedHopKernel<'k, const D: usize> {
    base: GirgHopKernel<'k, D>,
    epsilon: f64,
    seed: u64,
}

impl<const D: usize> ScoreKernel for RelaxedHopKernel<'_, D> {
    fn target(&self) -> NodeId {
        self.base.target
    }

    #[inline]
    fn score(&self, v: NodeId) -> f64 {
        if v == self.base.target {
            return f64::INFINITY;
        }
        let phi = self.base.phi(v);
        if self.epsilon == 0.0 {
            return phi;
        }
        let w = self.base.weights[v.index()];
        let m = w.min(phi.recip()).max(std::f64::consts::E);
        phi * (self.epsilon * relaxed_noise_exponent(self.seed, v) * m.ln()).exp()
    }
}

/// A coarsely quantized objective: φ rounded to a fixed number of levels
/// per decade (base-e).
///
/// The abstract's claim that "rough approximations suffice" (Theorem 3.5)
/// is exercised in its most practical form here: a node comparing
/// neighbors only needs `levels_per_e_factor` distinguishable grades per
/// factor of `e` in φ. Quantization is a multiplicative perturbation by at
/// most `e^{1/(2k)}`, a Θ-factor, hence inside the admissible class of
/// condition (2). Ties between same-grade neighbors are broken by the
/// router's deterministic argmax.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use smallworld_core::{GirgObjective, Objective, QuantizedObjective};
/// use smallworld_models::girg::GirgBuilder;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let girg = GirgBuilder::<2>::new(200).sample(&mut rng)?;
/// let coarse = QuantizedObjective::new(GirgObjective::new(&girg), 2.0);
/// let t = girg.random_vertex(&mut rng);
/// assert!(coarse.score(t, t).is_infinite());
/// # Ok::<(), smallworld_models::ModelError>(())
/// ```
#[derive(Clone, Copy, Debug)]
pub struct QuantizedObjective<'a, const D: usize> {
    base: GirgObjective<'a, D>,
    levels_per_e_factor: f64,
}

impl<'a, const D: usize> QuantizedObjective<'a, D> {
    /// Wraps a GIRG objective; `levels_per_e_factor` is the resolution `k`
    /// (scores are `round(k · ln φ)`).
    ///
    /// # Panics
    ///
    /// Panics unless `levels_per_e_factor` is positive and finite.
    pub fn new(base: GirgObjective<'a, D>, levels_per_e_factor: f64) -> Self {
        assert!(
            levels_per_e_factor > 0.0 && levels_per_e_factor.is_finite(),
            "resolution must be positive and finite"
        );
        QuantizedObjective {
            base,
            levels_per_e_factor,
        }
    }
}

impl<const D: usize> Objective for QuantizedObjective<'_, D> {
    type Kernel<'k>
        = QuantizedHopKernel<'k, D>
    where
        Self: 'k;

    fn prepare(&self, target: NodeId) -> Self::Kernel<'_> {
        QuantizedHopKernel {
            base: self.base.prepare(target),
            levels_per_e_factor: self.levels_per_e_factor,
        }
    }
}

/// Prepared kernel of [`QuantizedObjective`]: quantizes the prepared GIRG
/// kernel's φ with the same rounding.
#[derive(Clone, Copy, Debug)]
pub struct QuantizedHopKernel<'k, const D: usize> {
    base: GirgHopKernel<'k, D>,
    levels_per_e_factor: f64,
}

impl<const D: usize> ScoreKernel for QuantizedHopKernel<'_, D> {
    fn target(&self) -> NodeId {
        self.base.target
    }

    #[inline]
    fn score(&self, v: NodeId) -> f64 {
        if v == self.base.target {
            return f64::INFINITY;
        }
        (self.levels_per_e_factor * self.base.phi(v).ln()).round()
    }
}

/// The id-score double shared by the crate's unit tests: score = vertex
/// id, the target infinitely attractive.
#[cfg(test)]
pub(crate) const BY_ID: FnObjective<fn(NodeId, NodeId) -> f64> = FnObjective(|v, t| {
    if v == t {
        f64::INFINITY
    } else {
        v.index() as f64
    }
});

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use smallworld_models::girg::GirgBuilder;
    use smallworld_models::HrgBuilder;

    fn girg() -> Girg<2> {
        let mut rng = StdRng::seed_from_u64(1);
        GirgBuilder::<2>::new(300)
            .plant(Point::new([0.0, 0.0]), 2.0)
            .plant(Point::new([0.25, 0.0]), 8.0)
            .plant(Point::new([0.5, 0.0]), 2.0)
            .sample(&mut rng)
            .unwrap()
    }

    #[test]
    fn girg_objective_values() {
        let g = girg();
        let obj = GirgObjective::new(&g);
        let (s, mid, t) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
        // φ(s) = 2 / (1 · 300 · 0.5²), φ(mid) = 8 / (300 · 0.25²)
        assert!((obj.score(s, t) - 2.0 / (300.0 * 0.25)).abs() < 1e-12);
        assert!((obj.score(mid, t) - 8.0 / (300.0 * 0.0625)).abs() < 1e-12);
        assert!(obj.score(mid, t) > obj.score(s, t));
        assert!(obj.score(t, t).is_infinite());
    }

    #[test]
    fn girg_objective_prefers_weight_at_equal_distance() {
        let g = girg();
        let obj = GirgObjective::new(&g);
        let t = NodeId::new(2);
        // same position, different weight => higher weight wins
        // (vertices 0 and 1 differ in both; construct φ directly)
        let phi_light = obj.phi(NodeId::new(0), t);
        assert!(phi_light > 0.0);
    }

    #[test]
    fn distance_objective_ignores_weight() {
        let g = girg();
        let obj = DistanceObjective::for_girg(&g);
        let t = NodeId::new(2);
        // vertex 1 (distance .25) beats vertex 0 (distance .5) regardless of weight
        assert!(obj.score(NodeId::new(1), t) > obj.score(NodeId::new(0), t));
        assert!(obj.score(t, t).is_infinite());
        assert_eq!(obj.score(NodeId::new(0), t), -0.5);
    }

    #[test]
    fn hyperbolic_objective_orders_by_distance() {
        let mut rng = StdRng::seed_from_u64(2);
        let hrg = HrgBuilder::new(100).sample(&mut rng).unwrap();
        let obj = HyperbolicObjective::new(&hrg);
        let t = NodeId::new(0);
        assert!(obj.score(t, t).is_infinite());
        for v in 1..100u32 {
            let v = NodeId::new(v);
            assert!((obj.score(v, t) + hrg.distance(v, t)).abs() < 1e-12);
        }
    }

    #[test]
    fn phi_h_and_distance_induce_same_protocol() {
        // φ_H is a strictly decreasing function of d_H, so the argmax over
        // any neighborhood agrees with the −d_H score
        let mut rng = StdRng::seed_from_u64(8);
        let hrg = HrgBuilder::new(300).sample(&mut rng).unwrap();
        let obj = HyperbolicObjective::new(&hrg);
        let t = NodeId::new(0);
        let mut by_score: Vec<u32> = (1..300).collect();
        let mut by_phi_h = by_score.clone();
        by_score.sort_by(|&a, &b| {
            obj.score(NodeId::new(a), t)
                .total_cmp(&obj.score(NodeId::new(b), t))
        });
        by_phi_h.sort_by(|&a, &b| {
            obj.phi_h(NodeId::new(a), t)
                .total_cmp(&obj.phi_h(NodeId::new(b), t))
        });
        assert_eq!(by_score, by_phi_h);
    }

    #[test]
    fn kleinberg_objective_is_negated_lattice_distance() {
        let mut rng = StdRng::seed_from_u64(3);
        let kl = KleinbergLattice::sample(8, 2.0, 0, &mut rng).unwrap();
        let obj = KleinbergObjective::new(&kl);
        let t = kl.node_at(0, 0);
        let v = kl.node_at(3, 2);
        assert_eq!(obj.score(v, t), -5.0);
        assert!(obj.score(t, t).is_infinite());
    }

    #[test]
    fn relaxed_objective_with_zero_noise_is_exact() {
        let g = girg();
        let base = GirgObjective::new(&g);
        let relaxed = RelaxedObjective::new(base, 0.0, 99);
        let t = NodeId::new(2);
        for v in 0..10u32 {
            let v = NodeId::new(v);
            assert_eq!(relaxed.score(v, t), base.score(v, t));
        }
    }

    #[test]
    fn relaxed_objective_is_deterministic_per_vertex() {
        let g = girg();
        let base = GirgObjective::new(&g);
        let relaxed = RelaxedObjective::new(base, 0.3, 7);
        let t = NodeId::new(2);
        let v = NodeId::new(5);
        assert_eq!(relaxed.score(v, t), relaxed.score(v, t));
        // different seeds give different noise
        let other = RelaxedObjective::new(base, 0.3, 8);
        assert_ne!(relaxed.noise_exponent(v), other.noise_exponent(v));
    }

    #[test]
    fn relaxed_objective_bounded_perturbation() {
        let g = girg();
        let base = GirgObjective::new(&g);
        let eps = 0.2;
        let relaxed = RelaxedObjective::new(base, eps, 1);
        let t = NodeId::new(2);
        for v in g.graph().nodes() {
            if v == t {
                continue;
            }
            let phi = base.phi(v, t);
            let m = g.weight(v).min(phi.recip()).max(std::f64::consts::E);
            let ratio = relaxed.score(v, t) / phi;
            assert!(ratio <= m.powf(eps) + 1e-9);
            assert!(ratio >= m.powf(-eps) - 1e-9);
        }
    }

    #[test]
    fn relaxed_keeps_target_maximal() {
        let g = girg();
        let relaxed = RelaxedObjective::new(GirgObjective::new(&g), 0.5, 2);
        let t = NodeId::new(1);
        assert!(relaxed.score(t, t).is_infinite());
    }

    #[test]
    fn noise_exponent_in_range() {
        let g = girg();
        let relaxed = RelaxedObjective::new(GirgObjective::new(&g), 0.5, 3);
        for v in 0..200u32 {
            let u = relaxed.noise_exponent(NodeId::new(v));
            assert!((-1.0..=1.0).contains(&u));
        }
    }

    #[test]
    fn quantized_objective_preserves_coarse_order() {
        let g = girg();
        let base = GirgObjective::new(&g);
        let coarse = QuantizedObjective::new(base, 1.0);
        let t = NodeId::new(2);
        // vertices an e^2-factor apart in φ keep their order at resolution 1
        let (s, mid) = (NodeId::new(0), NodeId::new(1));
        let ratio = base.phi(mid, t) / base.phi(s, t);
        assert!(ratio > std::f64::consts::E * std::f64::consts::E);
        assert!(coarse.score(mid, t) > coarse.score(s, t));
    }

    #[test]
    fn quantized_objective_collapses_close_scores() {
        let g = girg();
        let coarse = QuantizedObjective::new(GirgObjective::new(&g), 0.5);
        let t = NodeId::new(2);
        // at half a level per e-factor, many vertices share a grade
        let grades: std::collections::BTreeSet<i64> = g
            .graph()
            .nodes()
            .filter(|&v| v != t)
            .map(|v| coarse.score(v, t) as i64)
            .collect();
        assert!(grades.len() < g.graph().node_count() / 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn quantized_rejects_bad_resolution() {
        let g = girg();
        let _ = QuantizedObjective::new(GirgObjective::new(&g), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn relaxed_rejects_negative_epsilon() {
        let g = girg();
        let _ = RelaxedObjective::new(GirgObjective::new(&g), -0.1, 0);
    }

    /// Every kernel's blocked scores are its scalar scores, slot by slot
    /// and bitwise, the target's own slot included, and every kernel
    /// reports the target it was prepared for.
    #[test]
    fn score_block_matches_scalar_score_bitwise() {
        fn check<O: Objective>(obj: &O, n: usize, label: &str) {
            let all: Vec<NodeId> = (0..n as u32).map(NodeId::new).collect();
            let mut block = vec![f64::NAN; n];
            for t in (0..n).step_by(7).chain([n - 1]) {
                let t = NodeId::from_index(t);
                let kernel = obj.prepare(t);
                assert_eq!(kernel.target(), t, "{label}");
                kernel.score_block(&all, &mut block);
                for (&v, got) in all.iter().zip(&block) {
                    assert_eq!(
                        got.to_bits(),
                        kernel.score(v).to_bits(),
                        "{label}: block diverges at v={v}, t={t}"
                    );
                }
            }
        }
        let g = girg();
        let n = g.node_count();
        check(&GirgObjective::new(&g), n, "girg");
        check(&DistanceObjective::for_girg(&g), n, "distance");
        check(&RelaxedObjective::new(GirgObjective::new(&g), 0.3, 7), n, "relaxed");
        check(&RelaxedObjective::new(GirgObjective::new(&g), 0.0, 7), n, "relaxed-eps0");
        check(&QuantizedObjective::new(GirgObjective::new(&g), 2.0), n, "quantized");
        let index = crate::RoutingIndex::build(g.graph(), g.positions(), g.weights());
        let indexed = crate::IndexedGirgObjective::new(GirgObjective::new(&g), &index);
        check(&indexed, n, "indexed");
        let mut rng = StdRng::seed_from_u64(4);
        let unplanted = GirgBuilder::<2>::new(3_000).sample(&mut rng).unwrap();
        let sorted = unplanted.relabel(&unplanted.morton_permutation());
        let p = sorted.params();
        let packed = crate::PackedGirgObjective::<2>::new(
            Point::flatten(sorted.positions()),
            sorted.weights(),
            p.wmin * p.intensity,
        );
        assert!(packed.bounds().is_some(), "Morton ids build bounds");
        check(&packed, sorted.node_count(), "packed");
        let hrg = HrgBuilder::new(60).sample(&mut rng).unwrap();
        check(&HyperbolicObjective::new(&hrg), 60, "hyperbolic");
        let kl = KleinbergLattice::sample(6, 2.0, 0, &mut rng).unwrap();
        check(&KleinbergObjective::new(&kl), 36, "kleinberg");
    }

    /// The default argmax matches a hand-rolled first-best scan.
    #[test]
    fn best_neighbor_is_first_best_in_adjacency_order() {
        let g = girg();
        let obj = GirgObjective::new(&g);
        for t in [NodeId::new(0), NodeId::new(2), NodeId::new(17)] {
            let kernel = obj.prepare(t);
            for v in g.graph().nodes() {
                let mut expected: Option<(f64, NodeId)> = None;
                for &u in g.graph().neighbors(v) {
                    let s = obj.score(u, t);
                    if expected.is_none_or(|(b, _)| s > b) {
                        expected = Some((s, u));
                    }
                }
                let got = kernel.best_neighbor(g.graph(), v);
                assert_eq!(
                    got.map(|(s, u)| (s.to_bits(), u)),
                    expected.map(|(s, u)| (s.to_bits(), u))
                );
            }
        }
    }

    /// The box fold as a plain loop that stops at the first invalid
    /// vertex: the reference for [`IdBox::of`].
    fn sequential_box<const D: usize>(xs: &[[f64; D]], ws: &[f64]) -> Option<IdBox<D>> {
        let (mut lo, mut hi, mut w_max) = ([f64::INFINITY; D], [f64::NEG_INFINITY; D], 0.0f64);
        for (x, &w) in xs.iter().zip(ws) {
            if w.is_nan() || w < 0.0 || x.iter().any(|c| !c.is_finite()) {
                return None;
            }
            for k in 0..D {
                lo[k] = lo[k].min(x[k]);
                hi[k] = hi[k].max(x[k]);
            }
            w_max = w_max.max(w);
        }
        Some(IdBox {
            lo: lo.map(f32_down),
            hi: hi.map(f32_up),
            w_max: f32_up(w_max),
        })
    }

    /// The branch-free [`IdBox::of`] gives the sequential fold's boxes
    /// bitwise, and `None` for the same lanes, at every block length and
    /// with each kind of invalid value at any vertex. (Signed zeros are
    /// left out: `f64::min` leaves the sign of `min(0, -0)` unspecified.)
    #[test]
    fn id_box_matches_the_sequential_fold_bitwise() {
        use rand::Rng;
        fn bits<const D: usize>(b: Option<IdBox<D>>) -> Option<(Vec<u32>, Vec<u32>, u32)> {
            b.map(|b| {
                let lane = |v: [f32; D]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                (lane(b.lo), lane(b.hi), b.w_max.to_bits())
            })
        }
        let mut rng = StdRng::seed_from_u64(9);
        let poison = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        let mut none = 0;
        for case in 0..4000 {
            let len = 1 + case % 64;
            let mut xs: Vec<[f64; 3]> = (0..len)
                .map(|_| [(); 3].map(|_| rng.gen::<f64>() * 2.0 - 0.5))
                .collect();
            let mut ws: Vec<f64> = (0..len).map(|_| rng.gen::<f64>() * 10.0).collect();
            match case % 8 {
                0 => {
                    let (i, k): (usize, usize) = (rng.gen_range(0..len), rng.gen_range(0..3));
                    xs[i][k] = poison[case / 8 % 3];
                }
                1 => {
                    let i: usize = rng.gen_range(0..len);
                    ws[i] = [f64::NAN, -1e-300, f64::INFINITY][case / 8 % 3];
                }
                2 => ws.iter_mut().for_each(|w| *w = 0.0),
                _ => {}
            }
            let want = sequential_box(&xs, &ws);
            none += usize::from(want.is_none());
            assert_eq!(bits(IdBox::of(&xs, &ws)), bits(want), "case {case}");
            let flat: Vec<[f64; 1]> = xs.iter().map(|x| [x[0]]).collect();
            assert_eq!(
                bits(IdBox::of(&flat, &ws)),
                bits(sequential_box(&flat, &ws)),
                "d = 1, case {case}"
            );
        }
        assert!(none > 500 && none < 1000, "{none} invalid blocks");
    }

    /// `NaiveObjective` produces the same scores through both paths.
    #[test]
    fn naive_objective_wrapper_is_transparent() {
        let g = girg();
        let wrapped = NaiveObjective(GirgObjective::new(&g));
        let t = NodeId::new(2);
        let kernel = wrapped.prepare(t);
        for v in 0..30u32 {
            let v = NodeId::new(v);
            assert_eq!(
                kernel.score(v).to_bits(),
                GirgObjective::new(&g).score(v, t).to_bits()
            );
        }
        assert!(format!("{kernel:?}").contains("NaiveKernel"));
    }
}

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
//! # Prepared kernels
//!
//! Routing scores every neighbor of every hop against a *fixed* target, so
//! [`Objective::prepare`] compiles a per-target [`ScoreKernel`] with the
//! target's position (and any normalization) hoisted out of the loop. The
//! same monotone-transform argument that licenses `−d_H` licenses this
//! compilation — and the contract here is stronger: a prepared kernel must
//! return **bitwise-identical** scores to [`Objective::score`], so routers
//! produce identical `RouteRecord`s on either path (enforced by the
//! `kernel_equivalence` test suite).

use std::fmt;
use std::hash::{Hash, Hasher};

use smallworld_geometry::point::max_distance;
use smallworld_geometry::Point;
use smallworld_graph::{Graph, NodeId};
use smallworld_models::girg::Girg;
use smallworld_models::hyperbolic::{hyperbolic_distance, Hrg};
use smallworld_models::kleinberg::{ContinuumKleinberg, KleinbergLattice};

/// A routing objective: vertices with larger score are "closer" to `target`.
///
/// Implementations must score the target itself strictly above every other
/// vertex (the paper requires φ to be globally maximized at `t`).
pub trait Objective {
    /// Score of vertex `v` when routing towards `target`.
    fn score(&self, v: NodeId, target: NodeId) -> f64;

    /// The prepared per-target kernel type returned by [`Self::prepare`].
    type Kernel<'k>: ScoreKernel
    where
        Self: 'k;

    /// Compiles a hop kernel for routing towards `target`.
    ///
    /// The kernel must satisfy `prepare(t).score(v) == self.score(v, t)`
    /// *bitwise* for every vertex `v`, and is typically specialized per norm
    /// and dimension with the target's position, weight, and normalization
    /// loaded once. Implementations with no precomputation to exploit can
    /// use [`NaiveKernel`] via [`crate::impl_naive_kernel!`].
    fn prepare(&self, target: NodeId) -> Self::Kernel<'_>;

    /// Compiles kernels for a whole batch of targets in one pass.
    ///
    /// Trial harnesses route many `(source, target)` pairs back to back;
    /// preparing every target up front amortizes the per-target hoisting
    /// (position/weight gathers, normalization) across the batch instead of
    /// interleaving it with routing. `batch.kernel(i)` is the kernel for
    /// the `i`-th yielded target, each bitwise-identical to
    /// [`prepare`](Objective::prepare)`(target_i)`.
    fn prepare_batch<I>(&self, targets: I) -> PreparedBatch<'_, Self>
    where
        Self: Sized,
        I: IntoIterator<Item = NodeId>,
    {
        PreparedBatch {
            kernels: targets.into_iter().map(|t| self.prepare(t)).collect(),
        }
    }
}

/// A batch of prepared per-target kernels — see
/// [`Objective::prepare_batch`].
pub struct PreparedBatch<'a, O: Objective + ?Sized + 'a> {
    kernels: Vec<O::Kernel<'a>>,
}

impl<'a, O: Objective + ?Sized + 'a> PreparedBatch<'a, O> {
    /// The kernel prepared for the `i`-th target of the batch.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn kernel(&self, i: usize) -> &O::Kernel<'a> {
        &self.kernels[i]
    }

    /// Number of prepared targets.
    pub fn len(&self) -> usize {
        self.kernels.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.kernels.is_empty()
    }
}

impl<'a, O: Objective + ?Sized + 'a> fmt::Debug for PreparedBatch<'a, O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PreparedBatch")
            .field("len", &self.kernels.len())
            .finish_non_exhaustive()
    }
}

/// Views an already-prepared [`ScoreKernel`] as an [`Objective`], so the
/// [`Router`](crate::router::Router) machinery can route with a kernel from
/// a [`PreparedBatch`] without re-preparing per trial.
///
/// [`prepare`](Objective::prepare) hands out a zero-cost forwarding kernel
/// and must be called with the wrapped kernel's own target.
pub struct KernelObjective<'a, K>(&'a K);

impl<'a, K: ScoreKernel> KernelObjective<'a, K> {
    /// Wraps a prepared kernel.
    pub fn new(kernel: &'a K) -> Self {
        KernelObjective(kernel)
    }
}

impl<K> Clone for KernelObjective<'_, K> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<K> Copy for KernelObjective<'_, K> {}

impl<K: ScoreKernel> fmt::Debug for KernelObjective<'_, K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KernelObjective")
            .field("target", &self.0.target())
            .finish_non_exhaustive()
    }
}

impl<K: ScoreKernel> Objective for KernelObjective<'_, K> {
    fn score(&self, v: NodeId, target: NodeId) -> f64 {
        debug_assert_eq!(
            target,
            self.0.target(),
            "kernel was prepared for a different target"
        );
        self.0.score(v)
    }

    type Kernel<'k>
        = ForwardKernel<'k, K>
    where
        Self: 'k;

    fn prepare(&self, target: NodeId) -> Self::Kernel<'_> {
        assert_eq!(
            target,
            self.0.target(),
            "kernel was prepared for a different target"
        );
        ForwardKernel(self.0)
    }
}

/// Kernel of [`KernelObjective`]: forwards every call — including the
/// blocked and argmax fast paths — to the wrapped kernel.
pub struct ForwardKernel<'k, K>(&'k K);

impl<K> Clone for ForwardKernel<'_, K> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<K> Copy for ForwardKernel<'_, K> {}

impl<K: ScoreKernel> fmt::Debug for ForwardKernel<'_, K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ForwardKernel")
            .field("target", &self.0.target())
            .finish_non_exhaustive()
    }
}

impl<K: ScoreKernel> ScoreKernel for ForwardKernel<'_, K> {
    fn target(&self) -> NodeId {
        self.0.target()
    }

    #[inline]
    fn score(&self, v: NodeId) -> f64 {
        self.0.score(v)
    }

    #[inline]
    fn score_block(&self, vs: &[NodeId], out: &mut [f64]) {
        self.0.score_block(vs, out);
    }

    #[inline]
    fn best_neighbor(&self, graph: &Graph, v: NodeId) -> Option<(f64, NodeId)> {
        self.0.best_neighbor(graph, v)
    }
}

/// A routing objective specialized to one target: the hop-loop view of an
/// [`Objective`] with all per-target state hoisted.
pub trait ScoreKernel {
    /// The target this kernel was prepared for.
    fn target(&self) -> NodeId;

    /// Score of vertex `v`; bitwise-identical to the originating
    /// [`Objective::score`]`(v, target)`.
    fn score(&self, v: NodeId) -> f64;

    /// Scores a block of vertices: `out[j] = self.score(vs[j])` for every
    /// `j < vs.len()`, **bitwise-identical** to calling [`Self::score`]
    /// slot by slot.
    ///
    /// The default is the scalar loop. Kernels whose score is a short
    /// branch-light f64 chain override it with loops the compiler can
    /// unroll and vectorize across slots (see [`crate::block`] for the
    /// SoA-lane variants the indexed kernels use). `out` must be at least
    /// as long as `vs`; slots past `vs.len()` are left untouched.
    #[inline]
    fn score_block(&self, vs: &[NodeId], out: &mut [f64]) {
        debug_assert!(out.len() >= vs.len());
        for (o, &v) in out.iter_mut().zip(vs) {
            *o = self.score(v);
        }
    }

    /// The greedy argmax over `v`'s neighborhood: the first neighbor (in
    /// adjacency order) attaining the strictly largest score, or `None` for
    /// an isolated vertex.
    ///
    /// The default implementation scans [`Graph::neighbors`]; kernels backed
    /// by an edge-packed index (see `crate::index`) override it with a
    /// sequential sweep that performs no random gathers. Overrides must
    /// preserve first-best-in-adjacency-order semantics bitwise.
    #[inline]
    fn best_neighbor(&self, graph: &Graph, v: NodeId) -> Option<(f64, NodeId)> {
        let mut best: Option<(f64, NodeId)> = None;
        for &u in graph.neighbors(v) {
            let score = self.score(u);
            if best.is_none_or(|(b, _)| score > b) {
                best = Some((score, u));
            }
        }
        best
    }
}

/// The trivial [`ScoreKernel`]: defers every call to [`Objective::score`]
/// with no per-target preparation.
///
/// This is both the adapter for objectives with nothing to hoist (see
/// [`crate::impl_naive_kernel!`]) and — via [`NaiveObjective`] — the
/// baseline that equivalence tests and the routing benchmark compare
/// prepared kernels against.
pub struct NaiveKernel<'k, O: ?Sized> {
    objective: &'k O,
    target: NodeId,
}

impl<'k, O: ?Sized> NaiveKernel<'k, O> {
    /// Wraps an objective for scoring towards `target`.
    pub fn new(objective: &'k O, target: NodeId) -> Self {
        NaiveKernel { objective, target }
    }
}

impl<O: ?Sized> Clone for NaiveKernel<'_, O> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<O: ?Sized> Copy for NaiveKernel<'_, O> {}

impl<O: ?Sized> fmt::Debug for NaiveKernel<'_, O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NaiveKernel")
            .field("target", &self.target)
            .finish_non_exhaustive()
    }
}

impl<O: Objective + ?Sized> ScoreKernel for NaiveKernel<'_, O> {
    fn target(&self) -> NodeId {
        self.target
    }

    #[inline]
    fn score(&self, v: NodeId) -> f64 {
        self.objective.score(v, self.target)
    }
}

/// Implements the kernel items of [`Objective`] with [`NaiveKernel`], for
/// objectives that have no per-target state worth hoisting (test doubles,
/// table lookups, …). Expand inside an `impl Objective for …` block, after
/// defining `score`:
///
/// ```
/// use smallworld_core::{Objective, ScoreKernel};
/// use smallworld_graph::NodeId;
///
/// struct ById;
/// impl Objective for ById {
///     fn score(&self, v: NodeId, target: NodeId) -> f64 {
///         if v == target { f64::INFINITY } else { -f64::from(v.raw()) }
///     }
///     smallworld_core::impl_naive_kernel!();
/// }
///
/// let kernel = ById.prepare(NodeId::new(0));
/// assert!(kernel.score(NodeId::new(0)).is_infinite());
/// ```
#[macro_export]
macro_rules! impl_naive_kernel {
    () => {
        type Kernel<'k>
            = $crate::NaiveKernel<'k, Self>
        where
            Self: 'k;

        fn prepare(&self, target: ::smallworld_graph::NodeId) -> Self::Kernel<'_> {
            $crate::NaiveKernel::new(self, target)
        }
    };
}

/// Forces the unprepared scoring path: `prepare` returns a [`NaiveKernel`]
/// that re-evaluates [`Objective::score`] per call, exactly as a router
/// without kernel support would. Equivalence tests and the routing
/// benchmark use this as the "naive" baseline.
#[derive(Clone, Copy, Debug)]
pub struct NaiveObjective<O>(pub O);

impl<O: Objective> Objective for NaiveObjective<O> {
    fn score(&self, v: NodeId, target: NodeId) -> f64 {
        self.0.score(v, target)
    }

    type Kernel<'k>
        = NaiveKernel<'k, Self>
    where
        Self: 'k;

    fn prepare(&self, target: NodeId) -> Self::Kernel<'_> {
        NaiveKernel::new(self, target)
    }
}

/// Adapts any [`Objective`] into `smallworld-net`'s
/// [`HopScore`](smallworld_net::HopScore), so the network simulator's
/// forwarding policies score candidates through the prepared kernel
/// instead of re-resolving the target every call.
///
/// Per the `HopScore` contract the prepared closure is bitwise-identical
/// to the two-argument score, which the kernel contract already
/// guarantees — traffic simulations produce identical reports whether a
/// policy is built from a plain closure or from this adapter.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use smallworld_core::{GirgObjective, PreparedObjective};
/// use smallworld_models::girg::GirgBuilder;
/// use smallworld_net::GreedyPolicy;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let girg = GirgBuilder::<2>::new(200).sample(&mut rng)?;
/// let objective = GirgObjective::new(&girg);
/// let policy = GreedyPolicy::new(PreparedObjective::new(&objective));
/// # let _ = policy;
/// # Ok::<(), smallworld_models::ModelError>(())
/// ```
#[derive(Clone, Copy, Debug)]
pub struct PreparedObjective<'a, O>(&'a O);

impl<'a, O: Objective> PreparedObjective<'a, O> {
    /// Wraps an objective for use as a forwarding-policy score.
    pub fn new(objective: &'a O) -> Self {
        PreparedObjective(objective)
    }
}

impl<O: Objective> smallworld_net::HopScore for PreparedObjective<'_, O> {
    #[inline]
    fn score(&self, candidate: NodeId, target: NodeId) -> f64 {
        self.0.score(candidate, target)
    }

    #[inline]
    fn prepare(&self, target: NodeId) -> impl Fn(NodeId) -> f64 + '_ {
        let kernel = self.0.prepare(target);
        move |v| kernel.score(v)
    }

    #[inline]
    fn score_block(&self, target: NodeId, candidates: &[NodeId], out: &mut [f64]) {
        self.0.prepare(target).score_block(candidates, out);
    }
}

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
/// zero-distance guard, and one divide. Every scalar GIRG score in the
/// crate runs this chain; the blocked lanes of [`crate::block`] replay it
/// slot by slot.
#[inline]
fn phi_chain<const D: usize>(x: &[f64; D], target: &[f64; D], w: f64, norm: f64) -> f64 {
    let dist_pow_d = max_distance(x, target).powi(D as i32);
    if dist_pow_d == 0.0 {
        f64::INFINITY
    } else {
        w / (norm * dist_pow_d)
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
    fn score(&self, v: NodeId, target: NodeId) -> f64 {
        if v == target {
            return f64::INFINITY;
        }
        self.phi(v, target)
    }

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
        }
    }
}

/// Prepared kernel of [`GirgObjective`]: the target position is a register
/// copy, so each hop performs one position gather and one weight gather per
/// neighbor instead of reloading the target every call.
///
/// (`*HopKernel`, to avoid colliding with the models' edge-probability
/// kernels such as `smallworld_models::GirgKernel`.)
#[derive(Clone, Copy, Debug)]
pub struct GirgHopKernel<'k, const D: usize> {
    positions: &'k [[f64; D]],
    weights: &'k [f64],
    pub(crate) norm: f64,
    target: NodeId,
    pub(crate) target_pos: [f64; D],
}

impl<const D: usize> GirgHopKernel<'_, D> {
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
    fn score(&self, v: NodeId, target: NodeId) -> f64 {
        if v == target {
            return f64::INFINITY;
        }
        -self.positions[v.index()].distance(&self.positions[target.index()])
    }

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
    fn score(&self, v: NodeId, target: NodeId) -> f64 {
        if v == target {
            return f64::INFINITY;
        }
        -self.hrg.distance(v, target)
    }

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
/// `Hrg::distance` uses, so scores agree bitwise.
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
    fn score(&self, v: NodeId, target: NodeId) -> f64 {
        if v == target {
            return f64::INFINITY;
        }
        -(self.lattice.lattice_distance(v, target) as f64)
    }

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
/// integer arithmetic, so delegation is already bitwise-faithful; the
/// kernel only fixes the target.
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

/// The deterministic `u_v ∈ [−1, 1]` of [`RelaxedObjective`], shared with
/// its prepared kernel so both paths hash identically.
fn relaxed_noise_exponent(seed: u64, v: NodeId) -> f64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    seed.hash(&mut h);
    v.raw().hash(&mut h);
    let bits = h.finish();
    let unit = (bits >> 11) as f64 / (1u64 << 53) as f64; // [0,1)
    2.0 * unit - 1.0
}

impl<const D: usize> Objective for RelaxedObjective<'_, D> {
    fn score(&self, v: NodeId, target: NodeId) -> f64 {
        if v == target {
            return f64::INFINITY;
        }
        let phi = self.base.phi(v, target);
        if self.epsilon == 0.0 {
            return phi;
        }
        let w = self.base.weights[v.index()];
        let m = w.min(phi.recip()).max(std::f64::consts::E);
        phi * (self.epsilon * self.noise_exponent(v) * m.ln()).exp()
    }

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
    fn score(&self, v: NodeId, target: NodeId) -> f64 {
        if v == target {
            return f64::INFINITY;
        }
        (self.levels_per_e_factor * self.base.phi(v, target).ln()).round()
    }

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

    /// Every specialized kernel scores bitwise-identically to its
    /// objective's naive path, across all vertices of the fixture.
    #[test]
    fn prepared_kernels_match_naive_scores_bitwise() {
        fn check<O: Objective>(obj: &O, n: usize, label: &str) {
            for t in 0..n as u32 {
                let t = NodeId::new(t);
                let kernel = obj.prepare(t);
                assert_eq!(kernel.target(), t);
                for v in 0..n as u32 {
                    let v = NodeId::new(v);
                    assert_eq!(
                        kernel.score(v).to_bits(),
                        obj.score(v, t).to_bits(),
                        "{label}: kernel diverges at v={v}, t={t}"
                    );
                }
            }
        }
        let g = girg();
        let n = 40.min(g.node_count());
        check(&GirgObjective::new(&g), n, "girg");
        check(&DistanceObjective::for_girg(&g), n, "distance");
        check(&RelaxedObjective::new(GirgObjective::new(&g), 0.3, 7), n, "relaxed");
        check(&RelaxedObjective::new(GirgObjective::new(&g), 0.0, 7), n, "relaxed-eps0");
        check(&QuantizedObjective::new(GirgObjective::new(&g), 2.0), n, "quantized");
        let mut rng = StdRng::seed_from_u64(4);
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

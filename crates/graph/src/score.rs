//! The scoring interface of greedy routing.
//!
//! Algorithm 1 asks its objective one question per neighbor: φ of that
//! neighbor towards the target. Routing scores every neighbor of every hop
//! against a *fixed* target, so an [`Objective`] answers through a
//! per-target [`ScoreKernel`] — [`Objective::prepare`] hoists the target's
//! position (and any normalization) out of the hop loop once — and each
//! objective writes its score formula exactly once, in its kernel.
//! [`Objective::score`] is that kernel's score, prepared for one call.
//!
//! The traits live here, next to [`AdjacencyView`](crate::AdjacencyView)
//! and the first-best fold, because they name nothing else: the routers of
//! `smallworld-core` and the forwarding policies of `smallworld-net` both
//! score through them, so an objective written once serves both.

use std::fmt;

use crate::csr::{Graph, NodeId};
use crate::view::first_best_by_blocks;

/// A routing objective: vertices with larger score are "closer" to the
/// target.
///
/// Implementations must score the target itself strictly above every other
/// vertex (the paper requires φ to be globally maximized at `t`).
pub trait Objective {
    /// The prepared per-target kernel type returned by [`Self::prepare`].
    type Kernel<'k>: ScoreKernel
    where
        Self: 'k;

    /// Compiles a hop kernel for routing towards `target`, typically
    /// specialized per norm and dimension with the target's position,
    /// weight and normalization loaded once. The kernel holds the
    /// objective's score formula.
    fn prepare(&self, target: NodeId) -> Self::Kernel<'_>;

    /// Score of vertex `v` when routing towards `target`:
    /// `self.prepare(target).score(v)`.
    ///
    /// An override must agree with that **bitwise** for every `v` and
    /// `target`, so a caller cannot tell which path scored a vertex.
    #[inline]
    fn score(&self, v: NodeId, target: NodeId) -> f64 {
        self.prepare(target).score(v)
    }
}

impl<O: Objective + ?Sized> Objective for &O {
    type Kernel<'k>
        = O::Kernel<'k>
    where
        Self: 'k;

    #[inline]
    fn prepare(&self, target: NodeId) -> Self::Kernel<'_> {
        (**self).prepare(target)
    }

    #[inline]
    fn score(&self, v: NodeId, target: NodeId) -> f64 {
        (**self).score(v, target)
    }
}

/// A routing objective specialized to one target: the hop-loop view of an
/// [`Objective`] with all per-target state hoisted.
pub trait ScoreKernel {
    /// The target this kernel was prepared for.
    fn target(&self) -> NodeId;

    /// Score of vertex `v` towards [`Self::target`].
    fn score(&self, v: NodeId) -> f64;

    /// Scores a block of vertices: `out[j] = self.score(vs[j])` for every
    /// `j < vs.len()`, **bitwise-identical** to calling [`Self::score`]
    /// slot by slot.
    ///
    /// The default is the scalar loop. Kernels whose score is a short
    /// branch-light f64 chain override it with loops the compiler can
    /// unroll and vectorize across slots. `out` must be at least as long
    /// as `vs`; slots past `vs.len()` are left untouched.
    #[inline]
    fn score_block(&self, vs: &[NodeId], out: &mut [f64]) {
        debug_assert!(out.len() >= vs.len());
        for (o, &v) in out.iter_mut().zip(vs) {
            *o = self.score(v);
        }
    }

    /// The greedy argmax over `v`'s neighborhood: the first neighbor (in
    /// adjacency order) attaining the strictly largest score, or `None` for
    /// an isolated vertex — the plain scalar fold over [`Graph::neighbors`].
    ///
    /// No router calls it: every greedy hop, over a decoded graph or any
    /// [`AdjacencyView`](crate::AdjacencyView), takes [`Self::best_above`],
    /// run by run for kernels that [bound runs](Self::bounds_runs). It
    /// stays as the scalar reference those scans are tested against.
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

    /// The greedy argmax of one hop over a slice sorted by ascending id,
    /// needed only when it beats `floor` (the current vertex's score).
    ///
    /// Returns exactly the first-best of `ns` — what
    /// [`first_best_by_blocks`] over [`Self::score_block`] returns — when
    /// that score is `> floor`. Otherwise it may return `None` or any pair
    /// whose score is not `> floor`, so a greedy step that requires a
    /// strict improvement takes the same hop either way.
    ///
    /// The default is the full blocked fold. Kernels that can bound the
    /// score of whole id blocks override it to skip blocks that cannot beat
    /// `floor` or the running best; that is why `ns` must be sorted.
    #[inline]
    fn best_above(&self, ns: &[NodeId], floor: f64) -> Option<(f64, NodeId)> {
        let _ = floor;
        first_best_by_blocks(ns, |chunk, out| self.score_block(chunk, out))
    }

    /// Whether [`Self::run_bound`] and [`Self::group_bound`] bound
    /// anything. When they do, a router over an
    /// [`AdjacencyView`](crate::AdjacencyView) folds each neighbor list run
    /// by run and skips groups and runs that cannot beat the hop's bar
    /// before the view fetches them; when they do not, every hop takes the
    /// whole list. The default is `false`.
    #[inline]
    fn bounds_runs(&self) -> bool {
        false
    }

    /// An upper bound on the score of every vertex in run `run` (the ids
    /// `run · RUN_IDS ..`, see
    /// [`AdjacencyView::fold_runs`](crate::AdjacencyView::fold_runs));
    /// `+∞` by default. It must be `≥` every member's score, or NaN (which
    /// never skips a run).
    #[inline]
    fn run_bound(&self, run: usize) -> f64 {
        let _ = run;
        f64::INFINITY
    }

    /// An upper bound on the score of every vertex in run group `group`
    /// (the runs `group · GROUP_RUNS ..`, see
    /// [`GROUP_RUNS`](crate::GROUP_RUNS)); `+∞` by default. As
    /// [`Self::run_bound`], it must be `≥` every member's score, or NaN.
    #[inline]
    fn group_bound(&self, group: usize) -> f64 {
        let _ = group;
        f64::INFINITY
    }
}

/// The trivial [`ScoreKernel`]: defers every call to the two-argument
/// [`Objective::score`] with no per-target preparation.
///
/// It is the kernel of the objectives that score by overriding
/// [`Objective::score`] — [`FnObjective`] and [`NaiveObjective`] — and,
/// through the latter, the baseline that equivalence tests and the routing
/// benchmark compare prepared kernels against.
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

/// Forces the unprepared scoring path: `prepare` returns a [`NaiveKernel`]
/// whose every score re-prepares the wrapped objective for one call, as a
/// router without kernel support would. Equivalence tests and the routing
/// benchmark use this as the "naive" baseline.
#[derive(Clone, Copy, Debug)]
pub struct NaiveObjective<O>(pub O);

impl<O: Objective> Objective for NaiveObjective<O> {
    type Kernel<'k>
        = NaiveKernel<'k, Self>
    where
        Self: 'k;

    fn prepare(&self, target: NodeId) -> Self::Kernel<'_> {
        NaiveKernel::new(self, target)
    }

    fn score(&self, v: NodeId, target: NodeId) -> f64 {
        self.0.score(v, target)
    }
}

/// An objective given by a plain function of `(vertex, target)`: for
/// objectives with no per-target state worth hoisting (test doubles,
/// table lookups, …). Its kernel is a [`NaiveKernel`].
///
/// ```
/// use smallworld_graph::score::{FnObjective, Objective, ScoreKernel};
/// use smallworld_graph::NodeId;
///
/// let by_id = FnObjective(|v: NodeId, t: NodeId| {
///     if v == t { f64::INFINITY } else { -f64::from(v.raw()) }
/// });
/// let kernel = by_id.prepare(NodeId::new(0));
/// assert!(kernel.score(NodeId::new(0)).is_infinite());
/// assert_eq!(by_id.score(NodeId::new(3), NodeId::new(0)), -3.0);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct FnObjective<F>(pub F);

impl<F: Fn(NodeId, NodeId) -> f64> Objective for FnObjective<F> {
    type Kernel<'k>
        = NaiveKernel<'k, Self>
    where
        Self: 'k;

    fn prepare(&self, target: NodeId) -> Self::Kernel<'_> {
        NaiveKernel::new(self, target)
    }

    #[inline]
    fn score(&self, v: NodeId, target: NodeId) -> f64 {
        (self.0)(v, target)
    }
}

//! Blocked, SIMD-friendly φ primitives over structure-of-arrays lanes.
//!
//! The routing hot path scores every neighbor slot of the current vertex
//! against a fixed target. With the slots laid out as per-axis coordinate
//! lanes (see [`crate::index::RoutingIndex`]), the max-norm distance and φ
//! loops in this module evaluate up to [`BLOCK_WIDTH`] slots per call as
//! straight-line f64 code that LLVM auto-vectorizes: no per-slot branches,
//! no gathers, constant trip counts after the specialization on `D`.
//!
//! Every function here is **bitwise identical** to the scalar φ chain of
//! [`GirgHopKernel`](crate::GirgHopKernel) (the max-norm fold of
//! [`smallworld_geometry::point::max_distance`], `powi(D)`, the zero guard,
//! one divide): the per-slot operation chains are the same IEEE-754 ops in
//! the same order (Rust never contracts separate mul/add into FMA), only
//! the loop *across* slots is widened. The proptests in
//! `tests/kernel_equivalence.rs` pin this for dimensions 1–3, ±0.0
//! distances, infinite weights, and remainder blocks.

use smallworld_geometry::point::axis_distance;
use smallworld_graph::NodeId;

/// Number of neighbor slots scored per blocked-kernel call.
///
/// Eight f64 lanes fill one AVX-512 register (two SSE2 / one AVX2 pass on
/// narrower machines) and keep the remainder loop short.
pub const BLOCK_WIDTH: usize = 8;

/// Hints the CPU to pull the cache line holding `slice[i]` into L1.
///
/// Bounds-guarded and side-effect free: out-of-range indices and
/// non-x86_64 targets compile to nothing. The routing sweeps use this to
/// fetch the *next* neighbor block while the current one is being scored.
#[inline(always)]
pub fn prefetch<T>(slice: &[T], i: usize) {
    #[cfg(target_arch = "x86_64")]
    if i < slice.len() {
        // SAFETY: `i` is in bounds and `_mm_prefetch` performs no memory
        // access, it only hints the hardware prefetcher.
        unsafe {
            core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(
                slice.as_ptr().add(i).cast::<i8>(),
            );
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (slice, i);
    }
}

/// Max-norm torus distances from slots `base..base + out.len()` to `target`.
///
/// `lanes[k][base + j]` is coordinate `k` of slot `base + j`. Matches
/// [`smallworld_geometry::point::max_distance`] bitwise: the axis fold
/// starts at `+0.0` and takes a strict `>` max, and `axis_distance` never
/// returns a negative zero, so the unrolled `d = 1` and `d = 2` forms below
/// are the same chain with the dead fold steps removed.
#[inline(always)]
pub fn max_distance_block<const D: usize>(
    lanes: &[&[f64]; D],
    target: &[f64; D],
    base: usize,
    out: &mut [f64],
) {
    // Lanes are pre-sliced to exactly `out.len()` so the loops below carry
    // no per-element bounds checks — a panic side exit would block
    // auto-vectorization.
    let len = out.len();
    match D {
        1 => {
            let (lane, t) = (&lanes[0][base..base + len], target[0]);
            for (o, &a) in out.iter_mut().zip(lane) {
                // fold over one axis: max(0.0, d) = d since d >= +0.0
                *o = axis_distance(a, t);
            }
        }
        2 => {
            let l0 = &lanes[0][base..base + len];
            let l1 = &lanes[1][base..base + len];
            let (t0, t1) = (target[0], target[1]);
            for ((o, &a), &b) in out.iter_mut().zip(l0).zip(l1) {
                let d0 = axis_distance(a, t0);
                let d1 = axis_distance(b, t1);
                let mut m = 0.0;
                if d0 > m {
                    m = d0;
                }
                if d1 > m {
                    m = d1;
                }
                *o = m;
            }
        }
        _ => {
            // lane-major traversal: each slot still folds its axes in
            // ascending `k` order, so the per-slot op chain is unchanged
            out.fill(0.0);
            for k in 0..D {
                let (lane, t) = (&lanes[k][base..base + len], target[k]);
                for (o, &a) in out.iter_mut().zip(lane) {
                    let d = axis_distance(a, t);
                    if d > *o {
                        *o = d;
                    }
                }
            }
        }
    }
}

/// GIRG objective φ for a block of slots:
/// `out[j] = weights[base + j] / (norm_const · dist^D)`, `+∞` at distance 0.
///
/// Same per-slot chain as `GirgHopKernel::phi` (max-norm distance,
/// `powi(D)`, zero guard, one divide); the guard if-converts to a select so
/// the divide vectorizes across the block.
#[inline(always)]
pub fn girg_phi_block<const D: usize>(
    lanes: &[&[f64]; D],
    weights: &[f64],
    target: &[f64; D],
    norm_const: f64,
    base: usize,
    out: &mut [f64],
) {
    max_distance_block::<D>(lanes, target, base, out);
    let w = &weights[base..base + out.len()];
    for (o, &wj) in out.iter_mut().zip(w) {
        let dist_pow_d = o.powi(D as i32);
        // the divide runs unconditionally so it vectorizes (IEEE-754
        // division never traps; a zero-distance lane computes ±∞ or NaN
        // that the select immediately discards for the scalar path's +∞)
        let q = wj / (norm_const * dist_pow_d);
        *o = if dist_pow_d == 0.0 { f64::INFINITY } else { q };
    }
}

/// The first-best-in-slot-order argmax fold, shared with every other greedy
/// argmax in the workspace (defined next to `AdjacencyView`'s tie-order
/// contract).
pub use smallworld_graph::view::fold_first_best;

/// Argmax sweep of the GIRG φ kernel over a packed neighborhood: scores
/// every slot blockwise and returns the first-best `(φ, node)`.
///
/// On x86-64 the sweep is compiled twice — once for the baseline target
/// and once with AVX2 enabled — and dispatched by runtime feature
/// detection. Both versions execute the identical IEEE-754 op chain per
/// slot (vector width never changes *what* is computed, only how many
/// slots run per instruction), so results are bitwise independent of the
/// dispatch.
#[inline]
pub fn girg_best_neighbor<const D: usize>(
    lanes: &[&[f64]; D],
    weights: &[f64],
    nodes: &[NodeId],
    target: &[f64; D],
    norm_const: f64,
) -> Option<(f64, NodeId)> {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: dispatch is guarded by the runtime AVX2 check above.
        return unsafe { girg_sweep_avx2::<D>(lanes, weights, nodes, target, norm_const) };
    }
    girg_sweep::<D>(lanes, weights, nodes, target, norm_const)
}

/// AVX2 clone of [`girg_sweep`]: `#[target_feature]` recompiles the
/// `#[inline(always)]` body (and everything it inlines) with 256-bit
/// vectors available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn girg_sweep_avx2<const D: usize>(
    lanes: &[&[f64]; D],
    weights: &[f64],
    nodes: &[NodeId],
    target: &[f64; D],
    norm_const: f64,
) -> Option<(f64, NodeId)> {
    girg_sweep::<D>(lanes, weights, nodes, target, norm_const)
}

/// Relative margin of the divide-free block rejection in [`girg_sweep`].
///
/// The rejection compares `w > (b · denom) · MARGIN` instead of
/// `w / denom > b`. For *normal, positive* thresholds the margin of
/// `1e-6` dwarfs the worst-case relative rounding error of the two extra
/// multiplies (a few units in 2⁻⁵²), so a slot whose true quotient beats
/// `b` can never fail the test; every non-normal threshold (zero,
/// subnormal, infinite, NaN) accepts unconditionally. False *accepts*
/// merely fall through to the exact divide path.
const REJECT_MARGIN: f64 = 1.0 - 1e-6;

/// Portable body of [`girg_best_neighbor`]: full blocks score as
/// straight-line [`BLOCK_WIDTH`]-wide f64 code (the slice length is a
/// compile-time constant after inlining), the remainder runs once at the
/// tail, and the fold keeps first-best-in-slot order.
///
/// Division is the throughput floor of the φ sweep, and in an argmax scan
/// almost every block loses — so each full block first runs a divide-free
/// conservative test against the running best. Only blocks that might
/// contain a winner take the [`girg_phi_block`] divide path, whose scores
/// (and therefore the argmax and its value) stay bitwise identical to the
/// scalar sweep:
///
/// - rejection happens only when `b` is normal-positive and finite, every
///   slot has nonzero distance, and `w ≤ (b · denom) · MARGIN` with a
///   normal threshold — which implies `fl(w / denom) ≤ b` (see
///   [`REJECT_MARGIN`]), i.e. the slot could not have replaced the best
///   under the strict `>` of [`fold_first_best`];
/// - a running best of `+∞` rejects outright: no score compares strictly
///   greater than `+∞`, NaN included.
#[inline(always)]
fn girg_sweep<const D: usize>(
    lanes: &[&[f64]; D],
    weights: &[f64],
    nodes: &[NodeId],
    target: &[f64; D],
    norm_const: f64,
) -> Option<(f64, NodeId)> {
    let mut best: Option<(f64, NodeId)> = None;
    let mut scores = [0.0; BLOCK_WIDTH];
    let mut dist_pows = [0.0; BLOCK_WIDTH];
    let mut base = 0;
    while base + BLOCK_WIDTH <= nodes.len() {
        let next = base + BLOCK_WIDTH;
        for lane in lanes {
            prefetch(lane, next);
        }
        prefetch(weights, next);
        let w = &weights[base..next];
        max_distance_block::<D>(lanes, target, base, &mut dist_pows);
        for d in dist_pows.iter_mut() {
            *d = d.powi(D as i32);
        }
        let run_exact = match best {
            Some((b, _)) if b == f64::INFINITY => false,
            Some((b, _)) if b > 0.0 => {
                let mut any = false;
                for (&d, &wj) in dist_pows.iter().zip(w) {
                    // `norm_const * d` is bitwise the φ denominator; the
                    // threshold is conservative for normal values and
                    // auto-accepts non-normal ones
                    let thr = (b * (norm_const * d)) * REJECT_MARGIN;
                    let normal = (f64::MIN_POSITIVE..=f64::MAX).contains(&thr);
                    any |= wj > thr || d == 0.0 || !normal;
                }
                any
            }
            _ => true,
        };
        if run_exact {
            for ((o, &d), &wj) in scores.iter_mut().zip(&dist_pows).zip(w) {
                let q = wj / (norm_const * d);
                *o = if d == 0.0 { f64::INFINITY } else { q };
            }
            fold_first_best(&mut best, &scores, &nodes[base..next]);
        }
        base = next;
    }
    if base < nodes.len() {
        let len = nodes.len() - base;
        girg_phi_block::<D>(lanes, weights, target, norm_const, base, &mut scores[..len]);
        fold_first_best(&mut best, &scores[..len], &nodes[base..]);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use smallworld_geometry::Point;

    fn lanes_of<const D: usize>(points: &[Point<D>]) -> [Vec<f64>; D] {
        let mut lanes: [Vec<f64>; D] = std::array::from_fn(|_| Vec::new());
        for p in points {
            for (k, lane) in lanes.iter_mut().enumerate() {
                lane.push(p.coords()[k]);
            }
        }
        lanes
    }

    #[test]
    fn blocked_distances_match_scalar_bitwise() {
        let points: Vec<Point<3>> = (0..13)
            .map(|i| {
                Point::new([
                    (i as f64) * 0.077,
                    1.0 - (i as f64) * 0.061,
                    (i as f64 * i as f64) * 0.013,
                ])
            })
            .collect();
        let target = Point::new([0.25, 0.5, 0.9]);
        let lanes = lanes_of(&points);
        let views: [&[f64]; 3] = std::array::from_fn(|k| lanes[k].as_slice());
        let mut out = [0.0; BLOCK_WIDTH];
        let mut base = 0;
        while base < points.len() {
            let len = (points.len() - base).min(BLOCK_WIDTH);
            max_distance_block::<3>(&views, target.coords(), base, &mut out[..len]);
            for j in 0..len {
                let scalar = points[base + j].distance(&target);
                assert_eq!(out[j].to_bits(), scalar.to_bits(), "slot {}", base + j);
            }
            base += len;
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

    #[test]
    fn prefetch_is_bounds_safe() {
        let data = [1u8, 2, 3];
        prefetch(&data, 0);
        prefetch(&data, 2);
        prefetch(&data, 3);
        prefetch::<u8>(&[], 0);
    }
}

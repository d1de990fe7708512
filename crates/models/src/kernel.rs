//! Connection-probability kernels: the (EP1)/(EP2) edge probabilities.
//!
//! A [`ConnectionKernel`] maps a pair of weights and a torus distance to an
//! edge probability. The GIRG samplers are generic over the kernel, so the
//! power-law kernel of (EP1), the threshold kernel of (EP2) and the
//! hyperbolic kernel of §11 all share one sampling engine.
//!
//! For the expected-linear-time sampler the kernel must also provide a
//! *rigorous* upper bound over a box of weights and distances
//! ([`ConnectionKernel::upper_bound`]); correctness of the sampler's
//! rejection step depends on it.

use crate::{check_param, ModelError};

/// The decay parameter `α > 1` of the GIRG model, including the threshold
/// limit `α = ∞` of (EP2).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Alpha {
    /// Finite decay `α ∈ (1, ∞)`: long-range edges exist, probability decays
    /// as `distance^{−αd}` — condition (EP1).
    Finite(f64),
    /// The threshold case `α = ∞`: the edge probability drops to zero beyond
    /// the threshold distance — condition (EP2).
    Threshold,
}

impl Alpha {
    /// Validates the parameter (`α > 1` in the finite case).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] if a finite `α ≤ 1` or
    /// non-finite value is given.
    pub fn validated(self) -> Result<Self, ModelError> {
        if let Alpha::Finite(a) = self {
            check_param("alpha", a, a > 1.0 && a.is_finite(), "must be > 1 (or Threshold)")?;
        }
        Ok(self)
    }

    /// Whether this is the threshold case `α = ∞`.
    pub fn is_threshold(&self) -> bool {
        matches!(self, Alpha::Threshold)
    }
}

impl From<f64> for Alpha {
    /// Converts a float, mapping `f64::INFINITY` to [`Alpha::Threshold`].
    fn from(a: f64) -> Self {
        if a.is_infinite() {
            Alpha::Threshold
        } else {
            Alpha::Finite(a)
        }
    }
}

/// An edge-probability kernel `p(w_u, w_v, ‖x_u − x_v‖)`.
///
/// Implementations must be symmetric in the weights, non-increasing in the
/// distance and non-decreasing in each weight *in the sense required by*
/// [`ConnectionKernel::upper_bound`]: the bound must dominate the
/// probability over the whole box `w_u ≤ wu_max`, `w_v ≤ wv_max`,
/// `dist ≥ min_dist`.
pub trait ConnectionKernel {
    /// Probability that two vertices with weights `wu`, `wv` at torus
    /// distance `dist` are adjacent.
    fn probability(&self, wu: f64, wv: f64, dist: f64) -> f64;

    /// An upper bound on [`probability`](Self::probability) valid for all
    /// `w_u ≤ wu_max`, `w_v ≤ wv_max` and `dist ≥ min_dist`.
    ///
    /// Used by the cell sampler's geometric-jump (type II) step; it must
    /// *never* under-estimate, or the sampled graph is biased. It should be
    /// as tight as cheaply possible, or the sampler wastes rejections.
    fn upper_bound(&self, wu_max: f64, wv_max: f64, min_dist: f64) -> f64;

    /// Cheap bounds `(lo, hi)` with `lo ≤ probability(wu, wv, dist) ≤ hi`.
    ///
    /// The cell sampler decides a pair from the bracket alone whenever its
    /// uniform draw falls outside `[lo, hi)`, and calls
    /// [`probability`](Self::probability) only when the draw lands inside
    /// the band — so a tight, cheap bracket saves the exact evaluation
    /// without changing a single decision or draw. The default is the exact
    /// `(p, p)`.
    #[inline]
    fn bracket(&self, wu: f64, wv: f64, dist: f64) -> (f64, f64) {
        let p = self.probability(wu, wv, dist);
        (p, p)
    }
}

/// Relative half-width `2⁻⁴⁰` of [`GirgKernel`]'s `powi` bracket.
///
/// `λ·x.powi(α)` and the exact `λ·x.powf(α)` differ by about `α + 2` ULPs
/// at most (`powi` rounds once per multiplication, each squaring doubling
/// the error before it; libm's `pow` is documented within one ULP): a
/// relative `2⁻⁵⁰` at α ≤ 6 and under `2⁻⁴⁶` at α = 64. `2⁻⁴⁰` leaves a
/// margin of a thousand, or 64 at worst, while a uniform draw lands inside
/// the band only once in `~10¹²` pairs.
const BRACKET_EPS: f64 = 1.0 / (1u64 << 40) as f64;

/// Largest integer α the bracket evaluates by `powi`: its error grows with
/// the number of multiplications, so larger exponents keep the exact
/// default.
const BRACKET_MAX_POWI: u32 = 64;

/// `x.powi(n)` without the library call: compiler-builtins' `__powidf2`
/// square-and-multiply, written out so it inlines.
///
/// It makes the same multiplications in the same order, so the result is
/// bitwise `f64::powi`'s. With a runtime exponent, `f64::powi` compiles to
/// a call of `__powidf2`, which the cell sampler made twice per examined
/// pair (`dist^d` and `x^α`).
#[inline]
fn powi(mut x: f64, mut n: u32) -> f64 {
    let mut acc = 1.0;
    loop {
        if n & 1 != 0 {
            acc *= x;
        }
        n >>= 1;
        if n == 0 {
            return acc;
        }
        x *= x;
    }
}

/// The GIRG kernel: condition (EP1) for finite `α`, (EP2) for `α = ∞`.
///
/// With `x = w_u w_v / (w_min n ‖x_u−x_v‖^d)`:
///
/// * finite `α`:  `p = min(1, λ · x^α)`,
/// * threshold:   `p = 1` if `λ·x ≥ 1`, else `0` (i.e. `c₁ = c₂ = λ`).
///
/// Any fixed `λ > 0` realizes valid (EP1)/(EP2) constants. For `λ ≥ 1` the
/// finite-α kernel also satisfies (EP3) with `c₁ = 1`: vertices with
/// `‖x_u−x_v‖^d ≤ w_u w_v/(w_min n)` connect with probability 1, which is the
/// extra assumption of Theorem 3.2.
///
/// # Examples
///
/// ```
/// use smallworld_models::{Alpha, ConnectionKernel, GirgKernel};
///
/// let k = GirgKernel::new(Alpha::Finite(2.0), 1.0, 1.0, 1000.0, 2)?;
/// assert_eq!(k.probability(1.0, 1.0, 0.0), 1.0);       // coincident points
/// assert!(k.probability(1.0, 1.0, 0.5) < 1e-4);        // far apart
/// assert!(k.probability(1.0, 1000.0, 0.5) > k.probability(1.0, 1.0, 0.5));
/// # Ok::<(), smallworld_models::ModelError>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GirgKernel {
    alpha: Alpha,
    lambda: f64,
    wmin: f64,
    intensity: f64,
    dim: u32,
    /// α when it is an integer ≤ [`BRACKET_MAX_POWI`]: the exponent of the
    /// `powi` bracket.
    powi_alpha: Option<u32>,
}

impl GirgKernel {
    /// Creates a GIRG kernel.
    ///
    /// `intensity` is the expected number of vertices `n`; `dim` the torus
    /// dimension `d`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] if `α ≤ 1`, `λ ≤ 0`,
    /// `w_min ≤ 0`, `intensity ≤ 0` or `dim == 0`.
    pub fn new(
        alpha: Alpha,
        lambda: f64,
        wmin: f64,
        intensity: f64,
        dim: u32,
    ) -> Result<Self, ModelError> {
        let alpha = alpha.validated()?;
        check_param("lambda", lambda, lambda > 0.0 && lambda.is_finite(), "must be > 0")?;
        check_param("wmin", wmin, wmin > 0.0 && wmin.is_finite(), "must be > 0")?;
        check_param(
            "intensity",
            intensity,
            intensity > 0.0 && intensity.is_finite(),
            "must be > 0",
        )?;
        check_param("dim", dim as f64, dim > 0, "must be >= 1")?;
        let powi_alpha = match alpha {
            Alpha::Finite(a) if a.fract() == 0.0 && a <= f64::from(BRACKET_MAX_POWI) => {
                Some(a as u32)
            }
            _ => None,
        };
        Ok(GirgKernel {
            alpha,
            lambda,
            wmin,
            intensity,
            dim,
            powi_alpha,
        })
    }

    /// The decay parameter.
    pub fn alpha(&self) -> Alpha {
        self.alpha
    }

    /// The probability constant λ.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// The ratio `x = w_u w_v / (w_min n dist^d)` at the heart of (EP1).
    #[inline]
    fn ratio(&self, wu: f64, wv: f64, dist: f64) -> f64 {
        let dist_pow_d = powi(dist, self.dim);
        if dist_pow_d == 0.0 {
            return f64::INFINITY;
        }
        (wu * wv) / (self.wmin * self.intensity * dist_pow_d)
    }
}

impl ConnectionKernel for GirgKernel {
    #[inline]
    fn probability(&self, wu: f64, wv: f64, dist: f64) -> f64 {
        let x = self.ratio(wu, wv, dist);
        match self.alpha {
            Alpha::Finite(a) => {
                if x.is_infinite() {
                    1.0
                } else {
                    (self.lambda * x.powf(a)).min(1.0)
                }
            }
            Alpha::Threshold => {
                if self.lambda * x >= 1.0 {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    #[inline]
    fn upper_bound(&self, wu_max: f64, wv_max: f64, min_dist: f64) -> f64 {
        // monotone: increasing in weights, decreasing in distance
        self.probability(wu_max, wv_max, min_dist)
    }

    /// For integer `α ≤ 64`, `λ·x.powi(α)` widened by a relative `2⁻⁴⁰`
    /// either way (and capped at 1, as `probability` is): no `powf`. Sound
    /// because `x` is the same `ratio` `probability` uses and both powers
    /// are within a few ULPs of the true `x^α` — as long as every value is
    /// a normal double, which is checked; outside that range (and for
    /// non-integer α or the threshold kernel) the bracket is the exact
    /// `(p, p)`.
    #[inline]
    fn bracket(&self, wu: f64, wv: f64, dist: f64) -> (f64, f64) {
        if let Some(a) = self.powi_alpha {
            let x = self.ratio(wu, wv, dist);
            let x_pow = powi(x, a);
            let q = self.lambda * x_pow;
            if x.is_normal() && x_pow.is_normal() && q.is_normal() {
                return (
                    (q * (1.0 - BRACKET_EPS)).min(1.0),
                    (q * (1.0 + BRACKET_EPS)).min(1.0),
                );
            }
        }
        let p = self.probability(wu, wv, dist);
        (p, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn kernel(alpha: Alpha) -> GirgKernel {
        GirgKernel::new(alpha, 1.0, 1.0, 1_000.0, 2).unwrap()
    }

    #[test]
    fn rejects_invalid_parameters() {
        assert!(Alpha::Finite(1.0).validated().is_err());
        assert!(Alpha::Finite(0.9).validated().is_err());
        assert!(Alpha::Threshold.validated().is_ok());
        assert!(GirgKernel::new(Alpha::Finite(2.0), 0.0, 1.0, 10.0, 2).is_err());
        assert!(GirgKernel::new(Alpha::Finite(2.0), 1.0, -1.0, 10.0, 2).is_err());
        assert!(GirgKernel::new(Alpha::Finite(2.0), 1.0, 1.0, 0.0, 2).is_err());
        assert!(GirgKernel::new(Alpha::Finite(2.0), 1.0, 1.0, 10.0, 0).is_err());
    }

    #[test]
    fn alpha_from_f64() {
        assert_eq!(Alpha::from(2.5), Alpha::Finite(2.5));
        assert!(Alpha::from(f64::INFINITY).is_threshold());
    }

    #[test]
    fn finite_alpha_probability_values() {
        let k = kernel(Alpha::Finite(2.0));
        // x = wuwv/(n d^2); choose values where λx^α = (1/(1000 · 0.01))^2 = 0.01
        let p = k.probability(1.0, 1.0, 0.1);
        assert!((p - 0.01).abs() < 1e-12, "p={p}");
        // saturates at 1
        assert_eq!(k.probability(1000.0, 1000.0, 0.01), 1.0);
    }

    #[test]
    fn threshold_kernel_is_zero_one() {
        let k = kernel(Alpha::Threshold);
        // threshold: dist^2 <= wuwv/1000
        assert_eq!(k.probability(10.0, 10.0, 0.3), 1.0); // 0.09 <= 0.1
        assert_eq!(k.probability(10.0, 10.0, 0.4), 0.0); // 0.16 > 0.1
    }

    #[test]
    fn ep3_holds_for_lambda_one() {
        // dist^d <= wuwv/(wmin n) => p == 1 (condition EP3, Theorem 3.2)
        let k = kernel(Alpha::Finite(3.0));
        let wu = 2.0;
        let wv = 5.0;
        let dist = (wu * wv / 1_000.0f64).sqrt() * 0.999;
        assert_eq!(k.probability(wu, wv, dist), 1.0);
    }

    #[test]
    fn zero_distance_always_connects() {
        assert_eq!(kernel(Alpha::Finite(2.0)).probability(1.0, 1.0, 0.0), 1.0);
        assert_eq!(kernel(Alpha::Threshold).probability(1.0, 1.0, 0.0), 1.0);
    }

    proptest! {
        #[test]
        fn prop_probability_in_unit_interval(
            a in 1.1..5.0f64, wu in 1.0..1e4f64, wv in 1.0..1e4f64, d in 0.0..0.5f64,
        ) {
            let k = kernel(Alpha::Finite(a));
            let p = k.probability(wu, wv, d);
            prop_assert!((0.0..=1.0).contains(&p));
        }

        #[test]
        fn prop_symmetric_in_weights(
            wu in 1.0..1e4f64, wv in 1.0..1e4f64, d in 1e-6..0.5f64,
        ) {
            let k = kernel(Alpha::Finite(2.0));
            prop_assert_eq!(k.probability(wu, wv, d), k.probability(wv, wu, d));
        }

        #[test]
        fn prop_monotone_in_distance(
            wu in 1.0..100.0f64, wv in 1.0..100.0f64, d1 in 1e-6..0.5f64, d2 in 1e-6..0.5f64,
        ) {
            let k = kernel(Alpha::Finite(1.5));
            let (lo, hi) = if d1 < d2 { (d1, d2) } else { (d2, d1) };
            prop_assert!(k.probability(wu, wv, lo) >= k.probability(wu, wv, hi));
        }

        #[test]
        fn prop_upper_bound_dominates(
            wu in 1.0..100.0f64, wv in 1.0..100.0f64,
            frac_u in 0.01..1.0f64, frac_v in 0.01..1.0f64,
            dmin in 1e-6..0.4f64, extra in 0.0..0.1f64,
            threshold in proptest::bool::ANY,
        ) {
            let alpha = if threshold { Alpha::Threshold } else { Alpha::Finite(2.0) };
            let k = kernel(alpha);
            let bound = k.upper_bound(wu, wv, dmin);
            let p = k.probability(wu * frac_u, wv * frac_v, dmin + extra);
            prop_assert!(p <= bound + 1e-12);
        }

        /// The bracket holds the exact probability for any weights,
        /// distances (0 included) and λ across twelve decades, at integer
        /// α (the `powi` band) and non-integer α (the exact default).
        #[test]
        fn prop_bracket_contains_probability(
            wu in 1.0..1e4f64, wv in 1.0..1e4f64,
            d in 0.0..0.5f64, coincident in proptest::bool::ANY,
            log_lambda in -6.0..6.0f64,
            int_alpha in 2u32..8, frac_alpha in 1.05..6.0f64,
            dim in 1u32..4,
        ) {
            let dist = if coincident { 0.0 } else { d };
            let lambda = 10f64.powf(log_lambda);
            for alpha in [f64::from(int_alpha), frac_alpha] {
                let k = GirgKernel::new(Alpha::Finite(alpha), lambda, 1.0, 1e5, dim).unwrap();
                let p = k.probability(wu, wv, dist);
                let (lo, hi) = k.bracket(wu, wv, dist);
                prop_assert!(lo <= p && p <= hi, "alpha={alpha}: {lo} <= {p} <= {hi}");
                if alpha.fract() != 0.0 {
                    prop_assert_eq!((lo, hi), (p, p));
                }
            }
        }
    }

    /// `f64::powi` with its operands hidden from the optimizer, so it runs
    /// the library routine rather than a constant-folded expansion.
    fn library_powi(x: f64, n: u32) -> f64 {
        std::hint::black_box(x).powi(std::hint::black_box(n as i32))
    }

    fn assert_powi_bitwise(x: f64) {
        for n in 1..=BRACKET_MAX_POWI {
            assert_eq!(
                powi(x, n).to_bits(),
                library_powi(x, n).to_bits(),
                "{x:e}^{n}"
            );
        }
    }

    proptest! {
        /// The inlined power is bitwise `f64::powi` for every exponent the
        /// kernel uses: random bit patterns (any class, mostly extreme
        /// exponents) and values of either sign whose powers stay finite
        /// for a while.
        #[test]
        fn prop_powi_is_bitwise_f64_powi(
            bits in any::<u64>(), mantissa in 0.5..2.0f64, exp in -80i32..80,
        ) {
            let scaled = mantissa * 2f64.powi(exp);
            for x in [f64::from_bits(bits), scaled, -scaled] {
                assert_powi_bitwise(x);
            }
        }
    }

    #[test]
    fn powi_is_bitwise_f64_powi_at_special_values() {
        let subnormal = f64::MIN_POSITIVE / 3.0;
        assert!(subnormal.is_subnormal());
        for x in [
            0.0,
            -0.0,
            1.0,
            -1.0,
            1.0 + f64::EPSILON,
            1.0 - f64::EPSILON / 2.0,
            f64::MIN_POSITIVE,
            subnormal,
            -subnormal,
            f64::from_bits(1),
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ] {
            assert_powi_bitwise(x);
        }
    }

    #[test]
    fn bracket_is_exact_outside_the_normal_range() {
        let k = GirgKernel::new(Alpha::Finite(3.0), 1.0, 1.0, 1e5, 2).unwrap();
        // coincident points: ratio is infinite
        assert_eq!(k.bracket(1.0, 1.0, 0.0), (1.0, 1.0));
        // x^α underflows below the normal range
        let tiny = k.bracket(1.0, 1.0, 1e90);
        assert_eq!(tiny, (k.probability(1.0, 1.0, 1e90), k.probability(1.0, 1.0, 1e90)));
        // a band strictly inside (0, 1) for an ordinary pair
        let (lo, hi) = k.bracket(1.0, 1.0, 0.01);
        assert!(0.0 < lo && lo < hi && hi < 1.0, "{lo} {hi}");
        // the threshold kernel keeps the exact default
        let t = GirgKernel::new(Alpha::Threshold, 1.0, 1.0, 1e5, 2).unwrap();
        assert_eq!(t.bracket(1.0, 1.0, 0.5), (0.0, 0.0));
    }
}

//! Points on the torus `T^d` and torus distances.

use std::fmt;

use rand::Rng;

/// A norm used to measure torus distances.
///
/// The paper uses the maximum norm (§2.1) but remarks that any norm yields
/// the same model up to the Θ-constants of (EP1)/(EP2). [`Norm::Max`] is the
/// default and the one used on all hot paths.
///
/// # Examples
///
/// ```
/// use smallworld_geometry::{Norm, Point};
///
/// let a = Point::new([0.0, 0.0]);
/// let b = Point::new([0.3, 0.4]);
/// assert!((Norm::Max.distance(&a, &b) - 0.4).abs() < 1e-12);
/// assert!((Norm::L1.distance(&a, &b) - 0.7).abs() < 1e-12);
/// assert!((Norm::L2.distance(&a, &b) - 0.5).abs() < 1e-12);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Norm {
    /// The `∞`-norm `max_i |x_i - y_i|` (torus-wrapped). The paper's choice.
    #[default]
    Max,
    /// The `1`-norm (Manhattan distance, torus-wrapped).
    L1,
    /// The Euclidean norm (torus-wrapped).
    L2,
}

impl Norm {
    /// Torus distance between two points under this norm.
    pub fn distance<const D: usize>(self, a: &Point<D>, b: &Point<D>) -> f64 {
        match self {
            Norm::Max => a.distance(b),
            Norm::L1 => {
                let mut sum = 0.0;
                for i in 0..D {
                    sum += axis_distance(a.coords[i], b.coords[i]);
                }
                sum
            }
            Norm::L2 => {
                let mut sum = 0.0;
                for i in 0..D {
                    let d = axis_distance(a.coords[i], b.coords[i]);
                    sum += d * d;
                }
                sum.sqrt()
            }
        }
    }
}

/// Distance of two coordinates on the circle `R / Z`.
#[inline]
pub fn axis_distance(a: f64, b: f64) -> f64 {
    let d = (a - b).abs();
    d.min(1.0 - d)
}

/// Max-norm torus distance of two canonical coordinate arrays — the one
/// fold behind [`Point::distance`]: per-axis [`axis_distance`], folded
/// from `+0.0` with a strict `>` max in ascending axis order.
///
/// Kernels that read positions out of flat vertex-major lanes call this
/// directly, so they evaluate the identical op chain as `Point`.
#[inline]
pub fn max_distance<const D: usize>(a: &[f64; D], b: &[f64; D]) -> f64 {
    let mut max = 0.0f64;
    for i in 0..D {
        let d = axis_distance(a[i], b[i]);
        if d > max {
            max = d;
        }
    }
    max
}

/// A point on the `D`-dimensional torus `T^D = [0,1)^D` with opposite faces
/// identified.
///
/// Coordinates are always kept canonical in `[0,1)`; the constructor wraps
/// out-of-range values. All distances are torus distances.
///
/// # Examples
///
/// ```
/// use smallworld_geometry::Point;
///
/// // constructor wraps into [0,1)
/// let p = Point::new([1.25, -0.25]);
/// assert_eq!(p.coords(), &[0.25, 0.75]);
///
/// // the farthest any two points can be (max norm) is 1/2 per axis
/// let q = Point::new([0.75, 0.25]);
/// assert!((p.distance(&q) - 0.5).abs() < 1e-12);
/// ```
#[derive(Clone, Copy, PartialEq)]
#[repr(transparent)]
pub struct Point<const D: usize> {
    coords: [f64; D],
}

impl<const D: usize> Default for Point<D> {
    /// The origin.
    fn default() -> Self {
        Point::origin()
    }
}

impl<const D: usize> Point<D> {
    /// Creates a point, wrapping each coordinate into `[0,1)`.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is not finite.
    pub fn new(coords: [f64; D]) -> Self {
        let mut wrapped = [0.0; D];
        for (w, &c) in wrapped.iter_mut().zip(coords.iter()) {
            assert!(c.is_finite(), "torus coordinate must be finite, got {c}");
            *w = wrap(c);
        }
        Point { coords: wrapped }
    }

    /// The origin `(0, …, 0)`.
    pub const fn origin() -> Self {
        Point { coords: [0.0; D] }
    }

    /// Samples a point uniformly at random on the torus.
    ///
    /// # Examples
    ///
    /// ```
    /// use rand::SeedableRng;
    /// use smallworld_geometry::Point;
    ///
    /// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    /// let p: Point<3> = Point::random(&mut rng);
    /// assert!(p.coords().iter().all(|&c| (0.0..1.0).contains(&c)));
    /// ```
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let mut coords = [0.0; D];
        for c in &mut coords {
            *c = rng.gen::<f64>();
        }
        Point { coords }
    }

    /// Borrow the canonical coordinates.
    pub fn coords(&self) -> &[f64; D] {
        &self.coords
    }

    /// The `i`-th coordinate.
    ///
    /// # Panics
    ///
    /// Panics if `i >= D`.
    pub fn coord(&self, i: usize) -> f64 {
        self.coords[i]
    }

    /// Torus distance in the maximum norm — the paper's `‖x_u − x_v‖`.
    #[inline]
    pub fn distance(&self, other: &Point<D>) -> f64 {
        max_distance(&self.coords, &other.coords)
    }

    /// `‖x_u − x_v‖^D`, the volume scale appearing throughout the paper
    /// (e.g. in the edge probability (EP1) and the objective φ).
    #[inline]
    pub fn distance_pow_d(&self, other: &Point<D>) -> f64 {
        self.distance(other).powi(D as i32)
    }

    /// Views a slice of points as one flat vertex-major coordinate lane:
    /// `points.len() · D` values, point `i`'s coordinates at
    /// `[i · D, (i + 1) · D)` — the layout of a `.swg` store's position
    /// section, so objectives can read in-RAM and mapped geometry alike.
    ///
    /// # Examples
    ///
    /// ```
    /// use smallworld_geometry::Point;
    ///
    /// let points = [Point::new([0.25, 0.5]), Point::new([0.75, 0.0])];
    /// assert_eq!(Point::flatten(&points), &[0.25, 0.5, 0.75, 0.0]);
    /// ```
    pub fn flatten(points: &[Point<D>]) -> &[f64] {
        // SAFETY: `Point<D>` is `#[repr(transparent)]` over `[f64; D]`, so
        // `points` is `points.len() · D` contiguous, initialized, aligned
        // `f64`s, borrowed for the same lifetime.
        unsafe { std::slice::from_raw_parts(points.as_ptr().cast::<f64>(), points.len() * D) }
    }

    /// The point shifted by `delta` (component-wise, wrapped back onto the
    /// torus). Useful for planting vertices at controlled distances.
    ///
    /// # Examples
    ///
    /// ```
    /// use smallworld_geometry::Point;
    ///
    /// let p = Point::new([0.9]);
    /// let q = p.translate(&[0.2]);
    /// assert!((q.coord(0) - 0.1).abs() < 1e-12);
    /// ```
    pub fn translate(&self, delta: &[f64; D]) -> Point<D> {
        let mut coords = [0.0; D];
        for i in 0..D {
            coords[i] = wrap(self.coords[i] + delta[i]);
        }
        Point { coords }
    }
}

/// Wraps a finite coordinate into `[0,1)`.
#[inline]
fn wrap(c: f64) -> f64 {
    let f = c - c.floor();
    // `c.floor()` can round such that f == 1.0 for tiny negative c.
    if f >= 1.0 {
        0.0
    } else {
        f
    }
}

impl<const D: usize> fmt::Debug for Point<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Point(")?;
        for (i, c) in self.coords.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c:.6}")?;
        }
        write!(f, ")")
    }
}

impl<const D: usize> fmt::Display for Point<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl<const D: usize> From<[f64; D]> for Point<D> {
    fn from(coords: [f64; D]) -> Self {
        Point::new(coords)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    #[test]
    fn wrap_canonicalizes() {
        assert_eq!(Point::new([1.5]).coord(0), 0.5);
        assert_eq!(Point::new([-0.25]).coord(0), 0.75);
        assert_eq!(Point::new([0.0]).coord(0), 0.0);
        assert_eq!(Point::new([2.0]).coord(0), 0.0);
        assert_eq!(Point::new([-3.0]).coord(0), 0.0);
    }

    #[test]
    fn wrap_handles_tiny_negative() {
        let p = Point::new([-1e-20]);
        assert!((0.0..1.0).contains(&p.coord(0)));
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_coordinate_panics() {
        let _ = Point::new([f64::NAN]);
    }

    #[test]
    fn distance_is_wraparound_aware() {
        let a = Point::new([0.05, 0.5]);
        let b = Point::new([0.95, 0.5]);
        assert!((a.distance(&b) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn distance_max_norm_picks_largest_axis() {
        let a = Point::new([0.0, 0.0, 0.0]);
        let b = Point::new([0.1, 0.3, 0.2]);
        assert!((a.distance(&b) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn distance_pow_d_matches_powi() {
        let a = Point::new([0.1, 0.2]);
        let b = Point::new([0.4, 0.9]);
        let d = a.distance(&b);
        assert!((a.distance_pow_d(&b) - d * d).abs() < 1e-15);
    }

    #[test]
    fn norms_agree_in_one_dimension() {
        let a = Point::new([0.2]);
        let b = Point::new([0.7]);
        let dm = Norm::Max.distance(&a, &b);
        let d1 = Norm::L1.distance(&a, &b);
        let d2 = Norm::L2.distance(&a, &b);
        assert!((dm - 0.5).abs() < 1e-12);
        assert!((dm - d1).abs() < 1e-12);
        assert!((dm - d2).abs() < 1e-12);
    }

    #[test]
    fn translate_round_trips() {
        let p = Point::new([0.3, 0.8]);
        let q = p.translate(&[0.5, 0.5]).translate(&[0.5, 0.5]);
        assert!(p.distance(&q) < 1e-12);
    }

    #[test]
    fn random_points_are_in_range() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let p: Point<4> = Point::random(&mut rng);
            assert!(p.coords().iter().all(|&c| (0.0..1.0).contains(&c)));
        }
    }

    #[test]
    fn debug_is_nonempty() {
        let p: Point<2> = Point::origin();
        assert!(!format!("{p:?}").is_empty());
    }

    fn coord_strategy() -> impl Strategy<Value = f64> {
        // include out-of-range values to exercise wrapping
        prop_oneof![-2.0..2.0f64, 0.0..1.0f64]
    }

    proptest! {
        #[test]
        fn prop_distance_symmetric(a in [coord_strategy(), coord_strategy()],
                                   b in [coord_strategy(), coord_strategy()]) {
            let p = Point::new(a);
            let q = Point::new(b);
            prop_assert!((p.distance(&q) - q.distance(&p)).abs() < 1e-12);
        }

        #[test]
        fn prop_distance_bounded_by_half(a in prop::array::uniform3(coord_strategy()), b in prop::array::uniform3(coord_strategy())) {
            let p = Point::new(a);
            let q = Point::new(b);
            let d = p.distance(&q);
            prop_assert!((0.0..=0.5).contains(&d));
        }

        #[test]
        fn prop_identity_of_indiscernibles(a in prop::array::uniform2(0.0..1.0f64)) {
            let p = Point::new(a);
            prop_assert_eq!(p.distance(&p), 0.0);
        }

        #[test]
        fn prop_triangle_inequality(a in prop::array::uniform2(coord_strategy()),
                                    b in prop::array::uniform2(coord_strategy()),
                                    c in prop::array::uniform2(coord_strategy())) {
            let (p, q, r) = (Point::new(a), Point::new(b), Point::new(c));
            prop_assert!(p.distance(&r) <= p.distance(&q) + q.distance(&r) + 1e-12);
        }

        #[test]
        fn prop_translation_invariance(a in prop::array::uniform2(0.0..1.0f64),
                                       b in prop::array::uniform2(0.0..1.0f64),
                                       t in prop::array::uniform2(-1.0..1.0f64)) {
            let p = Point::new(a);
            let q = Point::new(b);
            let d0 = p.distance(&q);
            let d1 = p.translate(&t).distance(&q.translate(&t));
            prop_assert!((d0 - d1).abs() < 1e-9);
        }

        #[test]
        fn prop_norm_ordering(a in prop::array::uniform3(coord_strategy()), b in prop::array::uniform3(coord_strategy())) {
            // max-norm <= L2 <= L1 always
            let p = Point::new(a);
            let q = Point::new(b);
            let dm = Norm::Max.distance(&p, &q);
            let d2 = Norm::L2.distance(&p, &q);
            let d1 = Norm::L1.distance(&p, &q);
            prop_assert!(dm <= d2 + 1e-12);
            prop_assert!(d2 <= d1 + 1e-12);
        }
    }
}

//! Morton (z-order) codes for grid cells on the torus.
//!
//! The expected-linear-time GIRG sampler stores each weight layer's vertices
//! sorted by the Morton code of their grid cell at a maximum refinement
//! level. A coarser cell then corresponds to a *contiguous range* of Morton
//! codes, so "all layer-`i` vertices inside cell `C`" is a binary search.
//!
//! Codes are built MSB-first so that the code of a cell at level `ℓ` is a
//! prefix of the codes of all its descendants:
//!
//! ```text
//! level-ℓ code  c  covers max-level codes [ c << D(L−ℓ), (c+1) << D(L−ℓ) )
//! ```

use crate::point::Point;

/// Maximum grid refinement level such that `D * level` bits fit into `u64`
/// for the given dimension and every cell coordinate fits into a `u32`
/// (which caps d = 1 at level 32).
pub const fn max_level(dim: usize) -> u32 {
    let level = 63 / dim;
    if level < 32 {
        level as u32
    } else {
        32
    }
}

/// The Morton code of the finest grid cell containing `point`, at
/// [`max_level`]`(D)` refinement.
///
/// Points that are close on the torus receive nearby codes (up to the
/// z-order seams), so sorting vertices by this key clusters geometric
/// neighborhoods into contiguous id ranges — the sort key behind
/// Morton-order vertex relabeling in `smallworld-graph`.
///
/// # Examples
///
/// ```
/// use smallworld_geometry::morton::point_code;
/// use smallworld_geometry::Point;
///
/// let origin = point_code(&Point::new([0.0, 0.0]));
/// let nearby = point_code(&Point::new([1e-12, 1e-12]));
/// let far = point_code(&Point::new([0.5, 0.5]));
/// assert_eq!(origin, nearby);
/// assert!(far > origin);
/// ```
pub fn point_code<const D: usize>(point: &Point<D>) -> u64 {
    let level = max_level(D);
    let cells = 1u64 << level;
    let mut coords = [0u32; D];
    for (i, c) in coords.iter_mut().enumerate() {
        // canonical coordinates lie in [0, 1); the min guards against a
        // product rounding up to the cell count
        *c = ((point.coord(i) * cells as f64) as u64).min(cells - 1) as u32;
    }
    encode(coords, level)
}

/// Interleaves the low `level` bits of each coordinate, MSB first.
///
/// The resulting code has `D * level` significant bits. Axis 0 contributes
/// the most significant bit within each group of `D`.
///
/// # Panics
///
/// Panics if `D == 0`, or `D * level > 63`, or any coordinate does not fit
/// into `level` bits.
///
/// # Examples
///
/// ```
/// use smallworld_geometry::morton::{decode, encode};
///
/// let code = encode([0b10u32, 0b11u32], 2);
/// assert_eq!(code, 0b1_1_0_1); // bits interleaved MSB-first: x1 y1 x0 y0
/// assert_eq!(decode::<2>(code, 2), [0b10, 0b11]);
/// ```
pub fn encode<const D: usize>(coords: [u32; D], level: u32) -> u64 {
    assert!(D > 0, "dimension must be positive");
    assert!(
        (D as u32) * level <= 63,
        "morton code of dimension {D} and level {level} does not fit in u64"
    );
    for &c in &coords {
        assert!(
            level == 32 || c < (1u32 << level),
            "coordinate {c} does not fit into {level} bits"
        );
    }
    let mut code = 0u64;
    for b in (0..level).rev() {
        for &c in &coords {
            code = (code << 1) | u64::from((c >> b) & 1);
        }
    }
    code
}

/// Inverse of [`encode`]: recovers the integer coordinates of a cell.
///
/// # Panics
///
/// Panics if `D == 0` or `D * level > 63`.
pub fn decode<const D: usize>(code: u64, level: u32) -> [u32; D] {
    assert!(D > 0, "dimension must be positive");
    assert!(
        (D as u32) * level <= 63,
        "morton code of dimension {D} and level {level} does not fit in u64"
    );
    let mut coords = [0u32; D];
    let mut code = code;
    for b in 0..level {
        for j in (0..D).rev() {
            coords[j] |= ((code & 1) as u32) << b;
            code >>= 1;
        }
    }
    coords
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn encode_zero_is_zero() {
        assert_eq!(encode([0u32, 0u32], 10), 0);
    }

    #[test]
    fn encode_level_zero_is_zero() {
        assert_eq!(encode([0u32; 3], 0), 0);
    }

    #[test]
    fn known_small_values_2d() {
        // 2x2 grid: z-order is (0,0) (0,1) (1,0) (1,1) with axis 0 as MSB
        assert_eq!(encode([0u32, 0u32], 1), 0);
        assert_eq!(encode([0u32, 1u32], 1), 1);
        assert_eq!(encode([1u32, 0u32], 1), 2);
        assert_eq!(encode([1u32, 1u32], 1), 3);
    }

    #[test]
    fn prefix_property() {
        // a child's code starts with its parent's code
        let parent = encode([0b1u32, 0b0u32], 1);
        for child_suffix in 0..4u64 {
            let child = (parent << 2) | child_suffix;
            let coords = decode::<2>(child, 2);
            assert_eq!(coords[0] >> 1, 0b1);
            assert_eq!(coords[1] >> 1, 0b0);
        }
    }

    #[test]
    fn max_level_fits() {
        assert_eq!(max_level(1), 32);
        assert_eq!(max_level(2), 31);
        assert_eq!(max_level(3), 21);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_coordinate_panics() {
        let _ = encode([4u32], 2);
    }

    #[test]
    #[should_panic(expected = "fit in u64")]
    fn oversized_level_panics() {
        let _ = encode([0u32; 2], 32);
    }

    #[test]
    fn point_code_is_deterministic_and_in_range() {
        let p = Point::new([0.3, 0.7]);
        let code = point_code(&p);
        assert_eq!(code, point_code(&p));
        assert!(code < 1u64 << (2 * max_level(2)));
    }

    #[test]
    fn point_code_matches_explicit_cell() {
        let level = max_level(2);
        let p = Point::new([0.25, 0.5]);
        let cells = (1u64 << level) as f64;
        let expected = encode(
            [(0.25 * cells) as u32, (0.5 * cells) as u32],
            level,
        );
        assert_eq!(point_code(&p), expected);
    }

    #[test]
    fn point_code_is_monotone_in_x_for_d1() {
        // d = 1 codes are the cell index itself, so they must sort like x
        let xs = [0.0, 1e-12, 0.1, 0.25, 0.5, 0.9, 1.0f64.next_down()];
        let codes: Vec<u64> = xs.iter().map(|&x| point_code(&Point::new([x]))).collect();
        assert!(codes.windows(2).all(|w| w[0] <= w[1]), "{codes:?}");
        assert!(codes[2] < codes[3] && codes[5] < codes[6], "{codes:?}");
        assert_eq!(point_code(&Point::new([0.5])), 1u64 << 31);
    }

    proptest! {
        #[test]
        fn prop_point_code_in_range(x in 0.0f64..1.0, y in 0.0f64..1.0) {
            let code = point_code(&Point::new([x, y]));
            prop_assert!(code < 1u64 << (2 * max_level(2)));
        }

        #[test]
        fn prop_point_code_sorts_axis0_halves(x in 0.0f64..0.49, y in 0.0f64..1.0) {
            // axis 0 contributes the most significant bit, so any point in
            // the lower half sorts before any point in the upper half
            let lo = point_code(&Point::new([x, y]));
            let hi = point_code(&Point::new([x + 0.5, y]));
            prop_assert!(lo < hi);
        }

        #[test]
        fn prop_roundtrip_1d(c in 0u32..1 << 20) {
            prop_assert_eq!(decode::<1>(encode([c], 20), 20), [c]);
        }

        #[test]
        fn prop_roundtrip_2d(a in 0u32..1 << 15, b in 0u32..1 << 15) {
            prop_assert_eq!(decode::<2>(encode([a, b], 15), 15), [a, b]);
        }

        #[test]
        fn prop_roundtrip_3d(a in 0u32..1 << 10, b in 0u32..1 << 10, c in 0u32..1 << 10) {
            prop_assert_eq!(decode::<3>(encode([a, b, c], 10), 10), [a, b, c]);
        }

        #[test]
        fn prop_monotone_in_axis0_prefix(a in 0u32..1 << 10, b in 0u32..1 << 10) {
            // increasing the most significant axis-0 bit strictly increases the code
            prop_assume!(a < 1 << 9);
            let lo = encode([a, b], 10);
            let hi = encode([a | (1 << 9), b], 10);
            prop_assert!(hi > lo);
        }

        #[test]
        fn prop_parent_prefix(a in 0u32..1 << 12, b in 0u32..1 << 12) {
            let child = encode([a, b], 12);
            let parent = encode([a >> 1, b >> 1], 11);
            prop_assert_eq!(child >> 2, parent);
        }
    }
}

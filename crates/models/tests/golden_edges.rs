//! Golden digests of the cell sampler's edge lists.
//!
//! The finite-α sampler is random, so the statistical tests in
//! `girg/cells.rs` cannot tell a moved edge from a correct one. These
//! tests pin the *exact* edge list of fixed instances instead: an FNV-1a
//! hash over every `(u, v)` in emission order, at one and two threads,
//! for d ∈ {1, 2, 3} and α ∈ {2, 3, 2.5, ∞}, plus one hyperbolic sample.
//! Any change to the sampler that moves, adds, drops or reorders a single
//! edge changes a digest; a change that only makes it faster must not.

use rand::rngs::StdRng;
use rand::SeedableRng;

use smallworld_geometry::Point;
use smallworld_models::girg::{sample_edges_pooled, SamplerAlgorithm};
use smallworld_models::{Alpha, GirgKernel, HrgBuilder, PowerLaw};
use smallworld_par::Pool;

/// Vertices per instance: large enough that the cell sampler runs type-I
/// and type-II cell pairs at several levels.
const N: usize = 20_000;

/// Master seed of every edge sample.
const MASTER: u64 = 0x5ee_d0fe_d6e5;

/// 64-bit FNV-1a over the edge list, each endpoint as 4 little-endian bytes.
fn fnv1a(edges: impl IntoIterator<Item = (u32, u32)>) -> (usize, u64) {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut count = 0;
    for (u, v) in edges {
        for byte in u.to_le_bytes().into_iter().chain(v.to_le_bytes()) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        count += 1;
    }
    (count, hash)
}

fn instance<const D: usize>(seed: u64) -> (Vec<Point<D>>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let weights = PowerLaw::new(2.5, 1.0).unwrap();
    let positions = (0..N).map(|_| Point::random(&mut rng)).collect();
    let weights = (0..N).map(|_| weights.sample(&mut rng)).collect();
    (positions, weights)
}

/// Edge count and digest of one instance, asserted equal at 1 and 2 threads.
fn digest<const D: usize>(alpha: Alpha, lambda: f64) -> (usize, u64) {
    let (positions, weights) = instance::<D>(D as u64);
    let kernel = GirgKernel::new(alpha, lambda, 1.0, N as f64, D as u32).unwrap();
    let run = |threads| {
        fnv1a(sample_edges_pooled(
            &positions,
            &weights,
            &kernel,
            SamplerAlgorithm::CellBased,
            MASTER,
            &Pool::with_threads(threads),
        ))
    };
    let one = run(1);
    assert_eq!(one, run(2), "d={D} alpha={alpha:?}: thread counts disagree");
    one
}

/// `(alpha, lambda, expected (edge count, digest))` per dimension.
type Golden = [(Alpha, f64, (usize, u64)); 4];

fn check<const D: usize>(golden: &Golden) {
    for &(alpha, lambda, expected) in golden {
        let got = digest::<D>(alpha, lambda);
        assert_eq!(got, expected, "d={D} alpha={alpha:?}: got {got:#x?}");
    }
}

#[test]
fn golden_edges_d1() {
    check::<1>(&[
        (Alpha::Finite(2.0), 0.5, (249_701, 0x169e_c88b_84f7_7d5b)),
        (Alpha::Finite(3.0), 0.5, (212_792, 0x5bbd_f593_bf88_7bde)),
        (Alpha::Finite(2.5), 0.5, (224_834, 0x228d_5695_d709_d574)),
        (Alpha::Threshold, 0.5, (90_535, 0x973d_20db_93b8_a9b9)),
    ]);
}

#[test]
fn golden_edges_d2() {
    check::<2>(&[
        (Alpha::Finite(2.0), 0.2, (310_275, 0xd0da_84ab_ed5b_2de3)),
        (Alpha::Finite(3.0), 0.2, (307_843, 0xf762_2c86_4717_632b)),
        (Alpha::Finite(2.5), 0.2, (306_473, 0x6f1e_261a_1d27_91e8)),
        (Alpha::Threshold, 0.2, (76_935, 0x5926_9610_1503_0296)),
    ]);
}

#[test]
fn golden_edges_d3() {
    check::<3>(&[
        (Alpha::Finite(2.0), 0.1, (434_395, 0xb455_7ba5_823b_4bad)),
        (Alpha::Finite(3.0), 0.1, (483_432, 0xd2c2_776d_48ed_372c)),
        (Alpha::Finite(2.5), 0.1, (460_619, 0xc2e0_6303_4c81_b89a)),
        (Alpha::Threshold, 0.1, (72_506, 0x7932_c8cf_4c13_7d68)),
    ]);
}

/// The hyperbolic kernel keeps the default (exact) bracket; its sample
/// through the public builder must not move either.
#[test]
fn golden_edges_hyperbolic() {
    let hrg = HrgBuilder::new(N)
        .temperature(0.5)
        .sample(&mut StdRng::seed_from_u64(11))
        .unwrap();
    let graph = hrg.graph();
    let got = fnv1a(graph.edges().map(|(u, v)| (u.raw(), v.raw())));
    assert_eq!(
        got,
        (86_570, 0x01d1_1900_9d07_1a0f),
        "hyperbolic: got {got:#x?}"
    );
}

//! Naive quadratic edge sampler: the distributional reference.

use rand::Rng;

use smallworld_geometry::Point;

use super::SamplerCounts;
use crate::kernel::ConnectionKernel;

/// Flips one independent coin per vertex pair — exactly the model of §2.1.
/// Every pair counts as an exactly examined (type-I) pair.
pub fn sample_edges<const D: usize, K, R>(
    positions: &[Point<D>],
    weights: &[f64],
    kernel: &K,
    rng: &mut R,
) -> (Vec<(u32, u32)>, SamplerCounts)
where
    K: ConnectionKernel,
    R: Rng + ?Sized,
{
    let n = positions.len();
    let mut edges = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            let dist = positions[u].distance(&positions[v]);
            let p = kernel.probability(weights[u], weights[v], dist);
            if p >= 1.0 || (p > 0.0 && rng.gen::<f64>() < p) {
                edges.push((u as u32, v as u32));
            }
        }
    }
    let counts = SamplerCounts {
        type_one_pairs: (n as u64) * (n as u64).saturating_sub(1) / 2,
        edges: edges.len() as u64,
        ..SamplerCounts::default()
    };
    (edges, counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{Alpha, GirgKernel};
    use rand::SeedableRng;

    #[test]
    fn empty_and_singleton_inputs() {
        let k = GirgKernel::new(Alpha::Finite(2.0), 1.0, 1.0, 10.0, 2).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        assert!(sample_edges::<2, _, _>(&[], &[], &k, &mut rng).0.is_empty());
        let (edges, _) = sample_edges(&[Point::<2>::origin()], &[1.0], &k, &mut rng);
        assert!(edges.is_empty());
    }

    #[test]
    fn certain_edges_always_present() {
        // two coincident points connect with probability 1
        let k = GirgKernel::new(Alpha::Finite(2.0), 1.0, 1.0, 10.0, 2).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let pts = [Point::new([0.2, 0.2]), Point::new([0.2, 0.2])];
        let (edges, _) = sample_edges(&pts, &[1.0, 1.0], &k, &mut rng);
        assert_eq!(edges, vec![(0, 1)]);
    }

    #[test]
    fn impossible_edges_never_present() {
        // threshold kernel, points too far apart
        let k = GirgKernel::new(Alpha::Threshold, 1.0, 1.0, 1e6, 2).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let pts = [Point::new([0.0, 0.0]), Point::new([0.5, 0.5])];
        for _ in 0..20 {
            assert!(sample_edges(&pts, &[1.0, 1.0], &k, &mut rng).0.is_empty());
        }
    }

    #[test]
    fn edge_frequency_matches_probability() {
        let k = GirgKernel::new(Alpha::Finite(2.0), 1.0, 1.0, 1_000.0, 2).unwrap();
        let pts = [Point::new([0.0, 0.0]), Point::new([0.0, 0.1])];
        let w = [2.0, 3.0];
        let p = crate::kernel::ConnectionKernel::probability(&k, 2.0, 3.0, 0.1);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let reps = 20_000;
        let hits = (0..reps)
            .filter(|_| !sample_edges(&pts, &w, &k, &mut rng).0.is_empty())
            .count();
        let f = hits as f64 / reps as f64;
        assert!((f - p).abs() < 0.02, "frequency {f} vs probability {p}");
    }
}

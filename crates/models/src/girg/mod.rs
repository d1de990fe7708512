//! Geometric Inhomogeneous Random Graphs (§2.1).
//!
//! A GIRG is sampled in three steps:
//!
//! 1. the vertex set is a Poisson point process of intensity `n` on the torus
//!    `T^d` (optionally plus *planted* vertices with adversarially chosen
//!    positions and weights, matching the paper's "fixed s and t" setup),
//! 2. each vertex draws an i.i.d. power-law weight with exponent `β ∈ (2,3)`,
//! 3. each pair is independently an edge with the (EP1)/(EP2) probability.
//!
//! Two edge samplers are provided: a naive `O(n²)` reference
//! ([`SamplerAlgorithm::Naive`]) and an expected-linear-time cell-based
//! sampler ([`SamplerAlgorithm::CellBased`]) following the layered-grid
//! technique of Bringmann, Keusch and Lengler. Both sample *exactly* the same
//! distribution; the test-suite checks this (and for the threshold kernel,
//! where the graph is a deterministic function of positions and weights, it
//! checks exact equality of the edge sets).

mod cells;
mod naive;
mod stream;

pub use cells::SamplerCounts;
pub use stream::{HalfEdges, StreamError, StreamedGirg};

use std::time::{Duration, Instant};

use rand::Rng;

use smallworld_geometry::Point;
use smallworld_graph::{Graph, NodeId, Permutation};

use crate::kernel::{Alpha, ConnectionKernel, GirgKernel};
use crate::poisson::sample_poisson;
use crate::weights::PowerLaw;
use crate::{check_param, ModelError};

/// Which edge-sampling algorithm to run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SamplerAlgorithm {
    /// Examine all `n(n−1)/2` pairs. Distributionally exact reference.
    Naive,
    /// Weight-layered Morton-cell sampler, expected linear time.
    CellBased,
    /// [`CellBased`](Self::CellBased) above 3000 vertices, otherwise
    /// [`Naive`](Self::Naive).
    #[default]
    Auto,
}

/// Model parameters of a sampled GIRG (see §2.1 of the paper).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GirgParams {
    /// Intensity `n` of the Poisson point process (expected vertex count).
    pub intensity: f64,
    /// Power-law exponent `β ∈ (2, 3)`.
    pub beta: f64,
    /// Minimum weight `w_min > 0`.
    pub wmin: f64,
    /// Decay parameter `α > 1`, or `∞` (threshold case).
    pub alpha: Alpha,
    /// Probability constant λ of the kernel (the Θ-constant in (EP1)/(EP2)).
    pub lambda: f64,
}

/// A sampled geometric inhomogeneous random graph.
///
/// Holds the graph together with every vertex's position and weight — the
/// "address" `(x_v, w_v)` that greedy routing is allowed to read (§2.2).
#[derive(Clone, Debug)]
pub struct Girg<const D: usize> {
    graph: Graph,
    positions: Vec<Point<D>>,
    weights: Vec<f64>,
    params: GirgParams,
    planted: usize,
}

impl<const D: usize> Girg<D> {
    /// Reassembles a GIRG from its parts, e.g. when loading a saved
    /// instance (see [`crate::io`]).
    ///
    /// # Panics
    ///
    /// Panics if positions, weights and graph disagree on the vertex count
    /// or `planted` exceeds it.
    pub fn from_parts(
        graph: Graph,
        positions: Vec<Point<D>>,
        weights: Vec<f64>,
        params: GirgParams,
        planted: usize,
    ) -> Self {
        assert_eq!(graph.node_count(), positions.len(), "positions length mismatch");
        assert_eq!(graph.node_count(), weights.len(), "weights length mismatch");
        assert!(planted <= graph.node_count(), "planted count exceeds vertices");
        Girg {
            graph,
            positions,
            weights,
            params,
            planted,
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of planted vertices (they hold the first ids).
    pub fn planted_count(&self) -> usize {
        self.planted
    }

    /// Positions of all vertices, indexed by [`NodeId::index`].
    pub fn positions(&self) -> &[Point<D>] {
        &self.positions
    }

    /// Weights of all vertices, indexed by [`NodeId::index`].
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Position of one vertex.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn position(&self, v: NodeId) -> Point<D> {
        self.positions[v.index()]
    }

    /// Weight of one vertex.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn weight(&self, v: NodeId) -> f64 {
        self.weights[v.index()]
    }

    /// The model parameters this graph was sampled with.
    pub fn params(&self) -> &GirgParams {
        &self.params
    }

    /// The kernel the edges were sampled with.
    pub fn kernel(&self) -> GirgKernel {
        GirgKernel::new(
            self.params.alpha,
            self.params.lambda,
            self.params.wmin,
            self.params.intensity,
            D as u32,
        )
        .expect("parameters were validated at sampling time")
    }

    /// Number of vertices.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// The planted vertices, in the order they were planted (ids `0..k`).
    pub fn planted(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.planted as u32).map(NodeId::new)
    }

    /// A uniformly random vertex.
    ///
    /// # Panics
    ///
    /// Panics if the graph has no vertices (possible, with probability
    /// `e^{-n}`, when the Poisson draw is 0 and nothing was planted).
    pub fn random_vertex<R: Rng + ?Sized>(&self, rng: &mut R) -> NodeId {
        let n = self.node_count();
        assert!(n > 0, "sampled GIRG has no vertices");
        NodeId::from_index(rng.gen_range(0..n))
    }

    /// The permutation sorting the vertices into Morton (z-order) order of
    /// their torus positions, ties broken by original id.
    ///
    /// Relabeling by this permutation ([`Girg::relabel`]) makes vertex ids
    /// spatially coherent: greedy routes move through geometrically close
    /// vertices, so consecutive hops touch nearby ids and the
    /// position/weight (or routing-index) reads stay in cache.
    pub fn morton_permutation(&self) -> Permutation {
        let keys: Vec<u64> = self
            .positions
            .iter()
            .map(smallworld_geometry::morton::point_code)
            .collect();
        Permutation::from_sort_keys(&keys)
    }

    /// This GIRG with vertices relabeled by `perm` (typically
    /// [`Girg::morton_permutation`]): the graph, positions, and weights are
    /// permuted consistently, so vertex `perm.forward(v)` of the result is
    /// vertex `v` of `self` under a different name.
    ///
    /// # Panics
    ///
    /// Panics if the permutation length mismatches the vertex count, or if
    /// this GIRG has planted vertices — their contract is to hold the
    /// *first* ids, which an arbitrary relabeling would break.
    pub fn relabel(&self, perm: &Permutation) -> Girg<D> {
        assert_eq!(
            self.planted, 0,
            "relabeling a GIRG with planted vertices would scramble their ids"
        );
        Girg::from_parts(
            self.graph.relabel(perm),
            perm.apply_slice(&self.positions),
            perm.apply_slice(&self.weights),
            self.params,
            0,
        )
    }
}

/// Builder for [`Girg`]; see the [module docs](self) for the model.
///
/// # Examples
///
/// Plant a source and a target with chosen weights at torus distance 1/2,
/// as in the paper's adversarial setup for Theorems 3.1–3.3:
///
/// ```
/// use rand::SeedableRng;
/// use smallworld_geometry::Point;
/// use smallworld_models::girg::GirgBuilder;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// let girg = GirgBuilder::<2>::new(500)
///     .beta(2.7)
///     .alpha(f64::INFINITY) // threshold kernel (EP2)
///     .plant(Point::new([0.0, 0.0]), 1.0)  // source: id 0
///     .plant(Point::new([0.5, 0.5]), 4.0)  // target: id 1
///     .sample(&mut rng)?;
/// let s = girg.planted().next().unwrap();
/// assert_eq!(girg.weight(s), 1.0);
/// # Ok::<(), smallworld_models::ModelError>(())
/// ```
#[derive(Clone, Debug)]
pub struct GirgBuilder<const D: usize = 2> {
    intensity: f64,
    beta: f64,
    wmin: f64,
    alpha: Alpha,
    lambda: f64,
    algorithm: SamplerAlgorithm,
    fixed_count: Option<usize>,
    planted: Vec<(Point<D>, f64)>,
}

impl<const D: usize> GirgBuilder<D> {
    /// Starts a builder for a GIRG with expected `n` vertices.
    ///
    /// Defaults: `β = 2.5`, `w_min = 1`, `α = 2`, `λ = 1`,
    /// algorithm [`SamplerAlgorithm::Auto`].
    pub fn new(n: u64) -> Self {
        GirgBuilder {
            intensity: n as f64,
            beta: 2.5,
            wmin: 1.0,
            alpha: Alpha::Finite(2.0),
            lambda: 1.0,
            algorithm: SamplerAlgorithm::Auto,
            fixed_count: None,
            planted: Vec::new(),
        }
    }

    /// Sets the power-law exponent `β ∈ (2, 3)`.
    pub fn beta(mut self, beta: f64) -> Self {
        self.beta = beta;
        self
    }

    /// Sets the minimum weight `w_min > 0`.
    pub fn wmin(mut self, wmin: f64) -> Self {
        self.wmin = wmin;
        self
    }

    /// Sets the decay parameter `α > 1`; pass `f64::INFINITY` (or
    /// [`Alpha::Threshold`]) for the threshold case.
    pub fn alpha(mut self, alpha: impl Into<Alpha>) -> Self {
        self.alpha = alpha.into();
        self
    }

    /// Sets the probability constant λ of the kernel.
    pub fn lambda(mut self, lambda: f64) -> Self {
        self.lambda = lambda;
        self
    }

    /// Selects the edge-sampling algorithm.
    pub fn algorithm(mut self, algorithm: SamplerAlgorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Uses exactly `count` random vertices instead of a Poisson draw.
    ///
    /// The paper prefers the Poisson point process for its independence over
    /// disjoint regions (§2.1, footnote 6); the fixed-size variant is the
    /// model of the paper's reference \[16\] and is used by the hyperbolic
    /// mapping and in tests.
    pub fn vertex_count(mut self, count: usize) -> Self {
        self.fixed_count = Some(count);
        self
    }

    /// Plants a vertex with a fixed position and weight.
    ///
    /// Planted vertices receive the first node ids, in planting order. This
    /// realizes the paper's setup where an adversary fixes the weights and
    /// positions of `s` and `t` while the rest of the graph stays random.
    pub fn plant(mut self, position: Point<D>, weight: f64) -> Self {
        self.planted.push((position, weight));
        self
    }

    /// Samples a GIRG.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] if `β ∉ (2,3)`, `α ≤ 1`,
    /// `w_min ≤ 0`, `λ ≤ 0`, the intensity is zero, or a planted weight is
    /// below `w_min`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<Girg<D>, ModelError> {
        self.sample_counted(rng).map(|(girg, ..)| girg)
    }

    /// [`sample`](Self::sample), also returning the edge sampler's work
    /// counters (pairs examined per emitted edge, exact-probability
    /// fallbacks) and the time the edge sampler took (the cell sampler, or
    /// the naive one below its size threshold; without the vertex draw
    /// and the CSR build). Same draws, same graph.
    ///
    /// # Errors
    ///
    /// As [`sample`](Self::sample).
    pub fn sample_counted<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
    ) -> Result<(Girg<D>, SamplerCounts, Duration), ModelError> {
        check_param(
            "beta",
            self.beta,
            self.beta > 2.0 && self.beta < 3.0,
            "must lie in (2, 3)",
        )?;
        check_param(
            "intensity",
            self.intensity,
            self.intensity > 0.0,
            "must be positive",
        )?;
        let kernel = GirgKernel::new(self.alpha, self.lambda, self.wmin, self.intensity, D as u32)?;
        let weights_dist = PowerLaw::new(self.beta, self.wmin)?;
        for &(_, w) in &self.planted {
            check_param("planted weight", w, w >= self.wmin, "must be >= wmin")?;
        }

        let random_count = match self.fixed_count {
            Some(c) => c,
            None => sample_poisson(rng, self.intensity) as usize,
        };
        let total = self.planted.len() + random_count;

        let mut positions = Vec::with_capacity(total);
        let mut weights = Vec::with_capacity(total);
        for &(p, w) in &self.planted {
            positions.push(p);
            weights.push(w);
        }
        for _ in 0..random_count {
            positions.push(Point::random(rng));
            weights.push(weights_dist.sample(rng));
        }

        let pool = smallworld_par::Pool::from_env();
        let edge_start = Instant::now();
        let (edges, counts) =
            sample_edges_counted(&positions, &weights, &kernel, self.algorithm, rng);
        let edge_time = edge_start.elapsed();
        let graph = Graph::from_edges_parallel(total, &edges, &pool)
            .expect("sampler produces valid simple edges");

        let girg = Girg {
            graph,
            positions,
            weights,
            params: GirgParams {
                intensity: self.intensity,
                beta: self.beta,
                wmin: self.wmin,
                alpha: self.alpha,
                lambda: self.lambda,
            },
            planted: self.planted.len(),
        };
        Ok((girg, counts, edge_time))
    }
}

/// Samples the edge set for given positions and weights under an arbitrary
/// [`ConnectionKernel`].
///
/// This is the engine behind [`GirgBuilder::sample`]; it is public so that
/// other models (notably hyperbolic random graphs, whose kernel is the §11
/// mapping) can reuse it.
pub fn sample_edges<const D: usize, K, R>(
    positions: &[Point<D>],
    weights: &[f64],
    kernel: &K,
    algorithm: SamplerAlgorithm,
    rng: &mut R,
) -> Vec<(u32, u32)>
where
    K: ConnectionKernel + Sync,
    R: Rng + ?Sized,
{
    sample_edges_counted(positions, weights, kernel, algorithm, rng).0
}

/// [`sample_edges`] with the sampler's work counters.
fn sample_edges_counted<const D: usize, K, R>(
    positions: &[Point<D>],
    weights: &[f64],
    kernel: &K,
    algorithm: SamplerAlgorithm,
    rng: &mut R,
) -> (Vec<(u32, u32)>, SamplerCounts)
where
    K: ConnectionKernel + Sync,
    R: Rng + ?Sized,
{
    assert_eq!(
        positions.len(),
        weights.len(),
        "positions and weights must have equal length"
    );
    if use_cells(algorithm, positions.len()) {
        cells::sample_edges(positions, weights, kernel, rng)
    } else {
        naive::sample_edges(positions, weights, kernel, rng)
    }
}

/// Like [`sample_edges`], but with an explicit master seed and thread pool
/// instead of an ambient RNG.
///
/// For the cell-based sampler the output is **bitwise-identical for any
/// pool size** (per-cell-pair seed-splitting; see `crates/par`); the naive
/// sampler is sequential and simply seeds its RNG from `master_seed`.
pub fn sample_edges_pooled<const D: usize, K>(
    positions: &[Point<D>],
    weights: &[f64],
    kernel: &K,
    algorithm: SamplerAlgorithm,
    master_seed: u64,
    pool: &smallworld_par::Pool,
) -> Vec<(u32, u32)>
where
    K: ConnectionKernel + Sync,
{
    assert_eq!(
        positions.len(),
        weights.len(),
        "positions and weights must have equal length"
    );
    let (edges, _) = if use_cells(algorithm, positions.len()) {
        cells::sample_edges_pooled(positions, weights, kernel, master_seed, pool)
    } else {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(master_seed);
        naive::sample_edges(positions, weights, kernel, &mut rng)
    };
    edges
}

fn use_cells(algorithm: SamplerAlgorithm, n: usize) -> bool {
    match algorithm {
        SamplerAlgorithm::Naive => false,
        SamplerAlgorithm::CellBased => true,
        SamplerAlgorithm::Auto => n >= 3_000,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn builder_rejects_bad_beta() {
        assert!(GirgBuilder::<2>::new(100).beta(2.0).sample(&mut rng(0)).is_err());
        assert!(GirgBuilder::<2>::new(100).beta(3.0).sample(&mut rng(0)).is_err());
        assert!(GirgBuilder::<2>::new(100).beta(1.5).sample(&mut rng(0)).is_err());
    }

    #[test]
    fn builder_rejects_low_planted_weight() {
        let r = GirgBuilder::<2>::new(100)
            .wmin(2.0)
            .plant(Point::origin(), 1.0)
            .sample(&mut rng(0));
        assert!(r.is_err());
    }

    #[test]
    fn vertex_count_is_poisson_like() {
        let girg = GirgBuilder::<2>::new(1_000).sample(&mut rng(1)).unwrap();
        let n = girg.node_count() as f64;
        assert!((n - 1_000.0).abs() < 10.0 * 1_000.0f64.sqrt());
        assert_eq!(girg.positions().len(), girg.node_count());
        assert_eq!(girg.weights().len(), girg.node_count());
    }

    #[test]
    fn fixed_count_is_exact() {
        let girg = GirgBuilder::<1>::new(100)
            .vertex_count(137)
            .sample(&mut rng(2))
            .unwrap();
        assert_eq!(girg.node_count(), 137);
    }

    #[test]
    fn planted_vertices_come_first() {
        let girg = GirgBuilder::<2>::new(50)
            .plant(Point::new([0.25, 0.25]), 3.0)
            .plant(Point::new([0.75, 0.75]), 7.0)
            .sample(&mut rng(3))
            .unwrap();
        let planted: Vec<NodeId> = girg.planted().collect();
        assert_eq!(planted.len(), 2);
        assert_eq!(girg.weight(planted[0]), 3.0);
        assert_eq!(girg.weight(planted[1]), 7.0);
        assert!(girg.position(planted[0]).distance(&Point::new([0.25, 0.25])) < 1e-12);
    }

    #[test]
    fn all_weights_at_least_wmin() {
        let girg = GirgBuilder::<2>::new(500)
            .wmin(1.5)
            .sample(&mut rng(4))
            .unwrap();
        assert!(girg.weights().iter().all(|&w| w >= 1.5));
    }

    #[test]
    fn average_degree_is_reasonable() {
        // expected degree of a weight-w vertex is Θ(w); integrating the λ=1,
        // α=2, d=2 kernel over the torus gives ≈ 8·w·E[W] = 24w, so the
        // average degree should be ≈ 24·E[W] = 72 (up to power-law noise)
        let girg = GirgBuilder::<2>::new(4_000).sample(&mut rng(5)).unwrap();
        let avg = girg.graph().average_degree();
        assert!(avg > 20.0 && avg < 150.0, "avg degree {avg}");
    }

    #[test]
    fn kernel_reconstruction_matches_params() {
        let girg = GirgBuilder::<2>::new(100)
            .alpha(3.0)
            .lambda(0.5)
            .sample(&mut rng(6))
            .unwrap();
        let k = girg.kernel();
        assert_eq!(k.alpha(), Alpha::Finite(3.0));
        assert_eq!(k.lambda(), 0.5);
    }

    #[test]
    fn random_vertex_in_range() {
        let girg = GirgBuilder::<2>::new(200).sample(&mut rng(7)).unwrap();
        let mut r = rng(8);
        for _ in 0..50 {
            let v = girg.random_vertex(&mut r);
            assert!(v.index() < girg.node_count());
        }
    }

    #[test]
    fn heavy_planted_vertex_has_high_degree() {
        // a vertex of weight ~ n^{0.8} should connect to a large share
        let girg = GirgBuilder::<2>::new(2_000)
            .plant(Point::origin(), 400.0)
            .sample(&mut rng(9))
            .unwrap();
        let hub = girg.planted().next().unwrap();
        let deg = girg.graph().degree(hub);
        assert!(deg > 50, "hub degree {deg}");
    }

    #[test]
    fn morton_relabel_is_an_isomorphism() {
        let girg = GirgBuilder::<2>::new(500).sample(&mut rng(10)).unwrap();
        let perm = girg.morton_permutation();
        let relabeled = girg.relabel(&perm);
        assert_eq!(relabeled.node_count(), girg.node_count());
        assert_eq!(
            relabeled.graph().edge_count(),
            girg.graph().edge_count()
        );
        for v in girg.graph().nodes() {
            let new = perm.forward(v);
            // the address (x_v, w_v) travels with the vertex
            assert_eq!(relabeled.weight(new), girg.weight(v));
            assert_eq!(
                relabeled.position(new).coord(0),
                girg.position(v).coord(0)
            );
            // adjacency is preserved under the rename
            let mut expected: Vec<NodeId> =
                girg.graph().neighbors(v).iter().map(|&u| perm.forward(u)).collect();
            expected.sort_unstable();
            assert_eq!(relabeled.graph().neighbors(new), &expected[..]);
        }
    }

    #[test]
    fn morton_permutation_orders_by_z_curve() {
        let girg = GirgBuilder::<2>::new(300).sample(&mut rng(11)).unwrap();
        let perm = girg.morton_permutation();
        let relabeled = girg.relabel(&perm);
        let codes: Vec<u64> = relabeled
            .positions()
            .iter()
            .map(smallworld_geometry::morton::point_code)
            .collect();
        assert!(codes.windows(2).all(|w| w[0] <= w[1]), "not z-sorted");
    }

    #[test]
    #[should_panic(expected = "planted")]
    fn relabel_rejects_planted_girgs() {
        let girg = GirgBuilder::<2>::new(200)
            .plant(Point::origin(), 5.0)
            .sample(&mut rng(12))
            .unwrap();
        let perm = girg.morton_permutation();
        let _ = girg.relabel(&perm);
    }
}

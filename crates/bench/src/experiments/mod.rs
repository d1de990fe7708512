//! One module per experiment of the `DESIGN.md` index (E1–E15).
//!
//! Every module exposes `run(scale) -> Vec<Table>`: it prints its tables to
//! stdout (the "regenerated table/figure") and returns them so tests can
//! assert on the numbers. All experiments are deterministic given the
//! built-in master seeds.

pub mod failure_wmin;
pub mod geometric;
pub mod hyperbolic;
pub mod kleinberg;
pub mod patching;
pub mod path_length;
pub mod relaxation;
pub mod robustness;
pub mod stretch;
pub mod structure;
pub mod success;
pub mod traffic;
pub mod trajectory;

use rand::rngs::StdRng;
use rand::SeedableRng;

use smallworld_core::{
    DistanceObjective, GirgObjective, QuantizedObjective, RelaxedObjective, RouteObserver, Router,
};
use smallworld_graph::Components;
use smallworld_models::girg::{Girg, GirgBuilder};
use smallworld_models::Alpha;
use smallworld_core::MetricsRouteObserver;

use crate::harness::{parallel_map, route_random_pairs_observed, TrialOutcome};

/// Parameters of one GIRG sampling configuration (dimension fixed to 2;
/// [`robustness`] instantiates other dimensions explicitly).
#[derive(Clone, Copy, Debug)]
pub struct GirgConfig {
    /// Expected number of vertices.
    pub n: u64,
    /// Power-law exponent `β ∈ (2, 3)`.
    pub beta: f64,
    /// Decay `α > 1`, `f64::INFINITY` for the threshold kernel.
    pub alpha: f64,
    /// Minimum weight.
    pub wmin: f64,
    /// Kernel constant λ.
    pub lambda: f64,
}

impl Default for GirgConfig {
    fn default() -> Self {
        GirgConfig {
            n: 10_000,
            beta: 2.5,
            alpha: 2.0,
            wmin: 1.0,
            // calibrated to an average degree near 10 (8·√λ·E[W]² for the
            // α=2, d=2 kernel at β=2.5), the regime of the experimental
            // greedy-routing literature; λ=1 would give degree ≈ 70
            lambda: 0.02,
        }
    }
}

impl GirgConfig {
    /// A configuration calibrated to a target average degree via
    /// [`smallworld_core::theory::lambda_for_average_degree`], so sweeps
    /// across α or β compare graphs of comparable density.
    pub fn with_degree(n: u64, beta: f64, alpha: f64, target_degree: f64) -> Self {
        GirgConfig {
            n,
            beta,
            alpha,
            wmin: 1.0,
            lambda: smallworld_core::theory::lambda_for_average_degree(
                target_degree,
                alpha,
                2,
                beta,
                1.0,
            ),
        }
    }

    /// Samples a GIRG with these parameters.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are invalid (experiment configs are
    /// hard-coded and valid by construction).
    pub fn sample(&self, rng: &mut StdRng) -> Girg<2> {
        GirgBuilder::<2>::new(self.n)
            .beta(self.beta)
            .alpha(Alpha::from(self.alpha))
            .wmin(self.wmin)
            .lambda(self.lambda)
            .sample(rng)
            .expect("experiment configurations are valid")
    }
}

/// Connected components for a graph sampled *inside* a [`parallel_map`]
/// worker.
///
/// Rep workers already saturate the [`smallworld_par::Pool`], so this stays
/// on the serial union–find kernel — fanning out
/// [`smallworld_graph::analytics::par_components`] here would oversubscribe
/// the machine (threads²) without speedup. Top-level call sites that analyse
/// one big graph on an idle pool (e.g. [`structure`]) call `par_components`
/// instead; the two produce identical labels by construction.
pub(crate) fn worker_components(graph: &smallworld_graph::Graph) -> Components {
    Components::compute(graph)
}

/// Which objective the router maximizes in a GIRG experiment.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ObjectiveChoice {
    /// The paper's φ (§2.2).
    Girg,
    /// Degree-agnostic geometric routing (§4).
    Distance,
    /// The relaxed φ̃ of Theorem 3.5 with the given noise strength ε.
    Relaxed(f64),
    /// φ quantized to `k` levels per factor of e — the "rough
    /// approximations suffice" reading of Theorem 3.5.
    Quantized(f64),
}

/// Samples `reps` independent GIRGs in parallel and routes `pairs` random
/// source/target pairs on each; returns all trial outcomes.
///
/// Every route reports to a fresh [`MetricsRouteObserver`], so the global
/// metrics registry (`route.hops`, `route.dead_ends`, …) reflects all
/// routing done by the experiments. The trial outcomes themselves are
/// independent of the observer — see
/// [`run_girg_trials_observed`] and the neutrality test.
pub fn run_girg_trials<R>(
    config: GirgConfig,
    objective: ObjectiveChoice,
    router: &R,
    reps: usize,
    pairs: usize,
    measure_stretch: bool,
    master_seed: u64,
) -> Vec<TrialOutcome>
where
    R: Router + Sync,
{
    run_girg_trials_observed(
        config,
        objective,
        router,
        reps,
        pairs,
        measure_stretch,
        master_seed,
        MetricsRouteObserver::new,
    )
}

/// Like [`run_girg_trials`], but each repetition observes its routes with a
/// fresh observer produced by `make_obs` (one observer per rep, called on
/// the worker thread).
///
/// Observers must not influence the trials: for any two factories, the
/// returned outcomes are identical given the same `master_seed`.
#[allow(clippy::too_many_arguments)]
pub fn run_girg_trials_observed<R, Obs, F>(
    config: GirgConfig,
    objective: ObjectiveChoice,
    router: &R,
    reps: usize,
    pairs: usize,
    measure_stretch: bool,
    master_seed: u64,
    make_obs: F,
) -> Vec<TrialOutcome>
where
    R: Router + Sync,
    Obs: RouteObserver,
    F: Fn() -> Obs + Sync,
{
    let per_rep = parallel_map(reps, master_seed, |_, seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        let girg = {
            let _span = smallworld_obs::Span::enter("sample_girg");
            config.sample(&mut rng)
        };
        if girg.node_count() < 2 {
            return Vec::new();
        }
        let comps = {
            let _span = smallworld_obs::Span::enter("components");
            worker_components(girg.graph())
        };
        let mut obs = make_obs();
        let o = &mut obs;
        let _span = smallworld_obs::Span::enter("route_pairs");
        match objective {
            ObjectiveChoice::Girg => {
                let obj = GirgObjective::new(&girg);
                route_random_pairs_observed(
                    girg.graph(), &obj, router, &comps, pairs, measure_stretch, &mut rng, o,
                )
            }
            ObjectiveChoice::Distance => {
                let obj = DistanceObjective::for_girg(&girg);
                route_random_pairs_observed(
                    girg.graph(), &obj, router, &comps, pairs, measure_stretch, &mut rng, o,
                )
            }
            ObjectiveChoice::Relaxed(eps) => {
                let obj = RelaxedObjective::new(GirgObjective::new(&girg), eps, seed);
                route_random_pairs_observed(
                    girg.graph(), &obj, router, &comps, pairs, measure_stretch, &mut rng, o,
                )
            }
            ObjectiveChoice::Quantized(levels) => {
                let obj = QuantizedObjective::new(GirgObjective::new(&girg), levels);
                route_random_pairs_observed(
                    girg.graph(), &obj, router, &comps, pairs, measure_stretch, &mut rng, o,
                )
            }
        }
    });
    per_rep.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The λ calibration of Lemma 7.1's marginal actually lands near the
    /// requested average degree on sampled graphs, across α including the
    /// threshold kernel.
    #[test]
    fn with_degree_calibration_is_accurate() {
        for &alpha in &[1.5f64, 2.0, 4.0, f64::INFINITY] {
            let config = GirgConfig::with_degree(30_000, 2.5, alpha, 10.0);
            let mut rng = StdRng::seed_from_u64(42 ^ alpha.to_bits());
            let girg = config.sample(&mut rng);
            let avg = girg.graph().average_degree();
            // the calibration ignores min(·,1) saturation, so it overshoots
            // the kernel mass and the sampled degree comes out below target;
            // it should still land within a factor ~1.7
            assert!(
                (6.0..=14.0).contains(&avg),
                "alpha={alpha}: degree {avg} far from target 10"
            );
        }
    }

    #[test]
    fn run_girg_trials_is_deterministic() {
        let config = GirgConfig {
            n: 1_500,
            ..GirgConfig::default()
        };
        let router = smallworld_core::GreedyRouter::new();
        let a = run_girg_trials(config, ObjectiveChoice::Girg, &router, 2, 40, false, 7);
        let b = run_girg_trials(config, ObjectiveChoice::Girg, &router, 2, 40, false, 7);
        assert_eq!(a, b);
    }

    /// Instrumentation must be invisible to the science: the same seed
    /// yields bitwise-identical trial outcomes whether routes run with the
    /// no-op observer, an event-counting observer, or the metrics-registry
    /// observer used by the experiment battery.
    #[test]
    fn observers_do_not_change_trial_outcomes() {
        let config = GirgConfig {
            n: 1_200,
            ..GirgConfig::default()
        };
        let router = smallworld_core::HistoryRouter::new();
        let objective = ObjectiveChoice::Girg;
        let baseline = run_girg_trials_observed(
            config,
            objective,
            &router,
            2,
            30,
            true,
            13,
            || smallworld_core::NoopObserver,
        );
        let counted = run_girg_trials_observed(
            config,
            objective,
            &router,
            2,
            30,
            true,
            13,
            smallworld_core::CountingObserver::default,
        );
        let metered = run_girg_trials(config, objective, &router, 2, 30, true, 13);
        assert_eq!(baseline, counted);
        assert_eq!(baseline, metered);
        assert!(!baseline.is_empty());
    }
}

//! E12 — §1.1: Kleinberg's model and its shortcomings.
//!
//! Part A reproduces the fragile-exponent phenomenon on the lattice model:
//! greedy routing needs `O(log² n)` steps exactly at `r = d = 2` and
//! polynomially many steps otherwise. The shape to check: at `r = 2` the
//! ratio `steps / log² n` is flat in `n`; at `r = 1.5` and `r = 2.5` it
//! grows.
//!
//! Part B reproduces the perfect-lattice shortcoming: replacing the lattice
//! by noisy (random) positions makes distance-greedy routing fail with high
//! probability — while GIRG greedy routing at the same scale succeeds with
//! constant probability. This is the paper's §1.1 argument for why
//! Kleinberg's result needs its unrealistic substrate.

use rand::rngs::StdRng;
use rand::SeedableRng;

use smallworld_analysis::table::fmt_f64;
use smallworld_analysis::Table;
use smallworld_core::{DistanceObjective, GreedyRouter, KleinbergObjective};
use smallworld_models::{ContinuumKleinberg, KleinbergLattice};

use crate::experiments::{run_girg_trials, GirgConfig, ObjectiveChoice};
use crate::harness::{
    parallel_map, route_random_pairs_observed, PairDraw, RoutingAggregate, Scale,
};

/// Runs E12 (parts A and B); prints/returns both tables.
pub fn run(scale: Scale) -> Vec<Table> {
    vec![part_a(scale), part_b(scale)]
}

fn part_a(scale: Scale) -> Table {
    let sides: Vec<u32> = scale.pick(vec![32, 64], vec![32, 64, 128, 256, 512]);
    let exponents: Vec<f64> = scale.pick(vec![2.0, 2.5], vec![1.5, 2.0, 2.5]);
    let reps = scale.pick(3, 6);
    let pairs = scale.pick(60, 200);

    let mut table = Table::new(["r", "m (side)", "n", "succ", "mean steps", "steps/ln^2 n"])
        .title("E12a (§1.1): Kleinberg lattice — navigable only at r = d = 2");
    for &r in &exponents {
        for &side in &sides {
            let n = side as usize * side as usize;
            let outcomes = parallel_map(reps, 0xE12 ^ side as u64 ^ (r * 10.0) as u64, |_, seed| {
                let mut rng = StdRng::seed_from_u64(seed);
                let kl = {
                    let _span = smallworld_obs::Span::enter("sample_kleinberg");
                    KleinbergLattice::sample(side, r, 1, &mut rng).expect("valid lattice")
                };
                let comps = super::worker_components(kl.graph());
                let obj = KleinbergObjective::new(&kl);
                let _span = smallworld_obs::Span::enter("route_pairs");
                route_random_pairs_observed(
                    kl.graph(),
                    &obj,
                    &GreedyRouter::new(),
                    &comps,
                    PairDraw::Any,
                    pairs,
                    false,
                    &mut rng,
                    &mut smallworld_core::MetricsRouteObserver::new(),
                )
            });
            let trials: Vec<_> = outcomes.into_iter().flatten().collect();
            let agg = RoutingAggregate::from_trials(&trials);
            let ln2 = (n as f64).ln().powi(2);
            table.row([
                fmt_f64(r, 1),
                side.to_string(),
                n.to_string(),
                fmt_f64(agg.success_connected.rate(), 3),
                fmt_f64(agg.hops.mean(), 1),
                fmt_f64(agg.hops.mean() / ln2, 4),
            ]);
        }
    }
    println!("{table}");
    table
}

fn part_b(scale: Scale) -> Table {
    let ns: Vec<u64> = scale.pick(vec![2_000], vec![4_000, 16_000, 64_000]);
    let reps = scale.pick(3, 6);
    let pairs = scale.pick(80, 300);

    let mut table = Table::new([
        "n",
        "noisy-Kleinberg succ|conn",
        "GIRG greedy succ|conn",
    ])
    .title("E12b (§1.1): noisy positions break Kleinberg greedy; GIRG greedy is robust");
    for &n in &ns {
        // continuum Kleinberg with distance-only greedy
        let outcomes = parallel_map(reps, 0xB12 ^ n, |_, seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let ck = {
                let _span = smallworld_obs::Span::enter("sample_kleinberg");
                ContinuumKleinberg::sample(n, 1.0, 1, 4.0, &mut rng).expect("valid model")
            };
            let comps = super::worker_components(ck.graph());
            let obj = DistanceObjective::for_continuum(&ck);
            let _span = smallworld_obs::Span::enter("route_pairs");
            route_random_pairs_observed(
                ck.graph(),
                &obj,
                &GreedyRouter::new(),
                &comps,
                PairDraw::Any,
                pairs,
                false,
                &mut rng,
                &mut smallworld_core::MetricsRouteObserver::new(),
            )
        });
        let noisy: Vec<_> = outcomes.into_iter().flatten().collect();
        let noisy_agg = RoutingAggregate::from_trials(&noisy);

        // GIRG greedy at the same scale
        let girg_trials = run_girg_trials(
            GirgConfig {
                n,
                ..GirgConfig::default()
            },
            ObjectiveChoice::Girg,
            &GreedyRouter::new(),
            reps,
            pairs,
            false,
            0xC12 ^ n,
        );
        let girg_agg = RoutingAggregate::from_trials(&girg_trials);

        table.row([
            n.to_string(),
            fmt_f64(noisy_agg.success_connected.rate(), 3),
            fmt_f64(girg_agg.success_connected.rate(), 3),
        ]);
    }
    println!("{table}");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_both_parts() {
        let tables = run(Scale::Quick);
        assert_eq!(tables.len(), 2);
        assert!(tables[0].row_count() >= 4);
        assert!(tables[1].row_count() >= 1);
    }
}

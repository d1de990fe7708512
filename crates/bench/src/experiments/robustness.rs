//! E13 — §1.1 "our results are robust in the model parameters".
//!
//! Sweeps the whole parameter cube: decay α ∈ {1.2, 2, 5, ∞}, power law
//! β ∈ {2.2, 2.5, 2.8}, dimension d ∈ {1, 2, 3}. The shape to check:
//! success probability stays bounded away from zero on every cell — no
//! fragile exponents anywhere, in contrast to Kleinberg's model (E12).

use rand::rngs::StdRng;
use rand::SeedableRng;

use smallworld_analysis::table::fmt_f64;
use smallworld_analysis::Table;
use smallworld_core::{GirgObjective, GreedyRouter};
use smallworld_graph::Components;
use smallworld_models::girg::GirgBuilder;
use smallworld_models::Alpha;

use crate::harness::{
    parallel_map, route_random_pairs_observed, PairDraw, RoutingAggregate, Scale,
};

/// Samples and routes in dimension `D`.
fn run_cell<const D: usize>(
    n: u64,
    beta: f64,
    alpha: f64,
    reps: usize,
    pairs: usize,
    seed: u64,
) -> RoutingAggregate {
    // calibrate λ per (α, β, d) so every cell has average degree ≈ 10
    let lambda =
        smallworld_core::theory::lambda_for_average_degree(10.0, alpha, D as u32, beta, 1.0);
    let outcomes = parallel_map(reps, seed, |_, seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        let girg = {
            let _span = smallworld_obs::Span::enter("sample_girg");
            GirgBuilder::<D>::new(n)
                .beta(beta)
                .alpha(Alpha::from(alpha))
                .lambda(lambda)
                .sample(&mut rng)
                .expect("valid parameters")
        };
        if girg.node_count() < 2 {
            return Vec::new();
        }
        let comps = super::worker_components(girg.graph());
        let obj = GirgObjective::new(&girg);
        let _span = smallworld_obs::Span::enter("route_pairs");
        route_random_pairs_observed(
            girg.graph(),
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
    RoutingAggregate::from_trials(&trials)
}

/// Runs E13 (parameter grid + edge-failure sweep); prints/returns both
/// tables.
pub fn run(scale: Scale) -> Vec<Table> {
    let grid = parameter_grid(scale);
    let failures = edge_failures(scale);
    vec![grid, failures]
}

fn parameter_grid(scale: Scale) -> Table {
    let n = scale.pick(3_000, 30_000);
    let reps = scale.pick(3, 6);
    let pairs = scale.pick(80, 300);
    let alphas: Vec<f64> = scale.pick(vec![2.0, f64::INFINITY], vec![1.2, 2.0, 5.0, f64::INFINITY]);
    let betas: Vec<f64> = scale.pick(vec![2.5], vec![2.2, 2.5, 2.8]);
    let dims: Vec<u32> = scale.pick(vec![2], vec![1, 2, 3]);

    let mut table = Table::new(["d", "beta", "alpha", "succ|conn", "mean hops"])
        .title("E13 (§1.1): robustness across alpha, beta and dimension");
    for &d in &dims {
        for &beta in &betas {
            for &alpha in &alphas {
                let seed = 0xE13 ^ (d as u64) << 8 ^ (beta * 100.0) as u64 ^ alpha.to_bits();
                let agg = match d {
                    1 => run_cell::<1>(n, beta, alpha, reps, pairs, seed),
                    2 => run_cell::<2>(n, beta, alpha, reps, pairs, seed),
                    3 => run_cell::<3>(n, beta, alpha, reps, pairs, seed),
                    _ => unreachable!("dims fixed above"),
                };
                table.row([
                    d.to_string(),
                    fmt_f64(beta, 1),
                    if alpha.is_infinite() {
                        "inf".to_string()
                    } else {
                        fmt_f64(alpha, 1)
                    },
                    fmt_f64(agg.success_connected.rate(), 3),
                    fmt_f64(agg.hops.mean(), 2),
                ]);
            }
        }
    }
    println!("{table}");
    table
}

/// Probability that a uniformly random ordered pair of distinct vertices
/// lies in different components — the share of demand no router can serve.
fn disconnected_pair_fraction(comps: &Components, n: usize) -> f64 {
    if n < 2 {
        return 0.0;
    }
    let mut same = 0.0;
    for label in 0..comps.count() as u32 {
        let c = comps.size(label) as f64;
        same += c * (c - 1.0);
    }
    1.0 - same / (n as f64 * (n as f64 - 1.0))
}

/// Part B: bond percolation (edge failures) on a standard GIRG — the
/// Theorem 3.5 discussion's robustness claim. Pairs are drawn from the
/// giant component of the *percolated* graph, so "disconnected" (no path
/// exists — exact pair fraction from the component sizes) and "stuck"
/// (a path exists but greedy dead-ends) are separate columns instead of
/// being conflated into one success rate. Both should degrade smoothly,
/// not collapse, as edges fail.
fn edge_failures(scale: Scale) -> Table {
    use smallworld_graph::percolate;
    let n = scale.pick(5_000, 40_000);
    let reps = scale.pick(3, 6);
    let pairs = scale.pick(80, 300);
    let keeps: Vec<f64> = scale.pick(vec![1.0, 0.7], vec![1.0, 0.9, 0.8, 0.7, 0.5, 0.3]);

    let mut table = Table::new([
        "edges kept",
        "giant frac",
        "disconnected",
        "stuck",
        "succ|giant",
        "mean hops",
    ])
    .title("E13b: greedy routing under random edge failures (pairs from the giant)");
    for &keep in &keeps {
        let outcomes = parallel_map(reps, 0xB13 ^ (keep * 100.0) as u64, |_, seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let girg = {
                let _span = smallworld_obs::Span::enter("sample_girg");
                GirgBuilder::<2>::new(n)
                    .beta(2.5)
                    .lambda(0.02)
                    .sample(&mut rng)
                    .expect("valid")
            };
            let failed = percolate(girg.graph(), keep, &mut rng);
            let comps = super::worker_components(&failed);
            let obj = GirgObjective::new(&girg);
            let _span = smallworld_obs::Span::enter("route_pairs");
            let trials = route_random_pairs_observed(
                &failed,
                &obj,
                &GreedyRouter::new(),
                &comps,
                PairDraw::Giant,
                pairs,
                false,
                &mut rng,
                &mut smallworld_core::MetricsRouteObserver::new(),
            );
            let disconnected = disconnected_pair_fraction(&comps, failed.node_count());
            (trials, comps.giant_fraction(), disconnected)
        });
        let mut trials = Vec::new();
        let mut giant_frac = 0.0;
        let mut disconnected = 0.0;
        let rep_count = outcomes.len().max(1) as f64;
        for (t, g, d) in outcomes {
            trials.extend(t);
            giant_frac += g / rep_count;
            disconnected += d / rep_count;
        }
        let agg = RoutingAggregate::from_trials(&trials);
        let succ = agg.success_connected.rate();
        table.row([
            fmt_f64(keep, 1),
            fmt_f64(giant_frac, 3),
            fmt_f64(disconnected, 3),
            fmt_f64(1.0 - succ, 3),
            fmt_f64(succ, 3),
            fmt_f64(agg.hops.mean(), 2),
        ]);
    }
    println!("{table}");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_covers_grid() {
        let tables = run(Scale::Quick);
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].row_count(), 2);
        assert_eq!(tables[1].row_count(), 2);
    }
}

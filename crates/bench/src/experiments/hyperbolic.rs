//! E10 — Corollary 3.6: geometric routing on hyperbolic random graphs.
//!
//! Sweeps `n`, `α_H` (i.e. β = 2α_H + 1) and the temperature. Routing is
//! purely geometric (forward to the neighbor of smallest hyperbolic
//! distance to the target, §11). The shapes to check: success rates bounded
//! away from zero and high at moderate average degree — the experimental
//! papers [11, 52, 61] report >90% with stretch ≈ 1 — plus 100% delivery
//! with Φ-DFS patching (Corollary 3.6's extension of Theorem 3.4).

use rand::rngs::StdRng;
use rand::SeedableRng;

use smallworld_analysis::table::fmt_f64;
use smallworld_analysis::Table;
use smallworld_core::{GreedyRouter, HyperbolicObjective, PhiDfsRouter};
use smallworld_models::HrgBuilder;

use crate::harness::{
    parallel_map, route_random_pairs_observed, PairDraw, RoutingAggregate, Scale,
};

/// Runs E10 and prints/returns its table.
pub fn run(scale: Scale) -> Vec<Table> {
    let ns: Vec<usize> = scale.pick(vec![2_000], vec![5_000, 20_000, 80_000]);
    let alphas: Vec<f64> = scale.pick(vec![0.75], vec![0.65, 0.75, 0.9]);
    let temps: Vec<f64> = scale.pick(vec![0.0], vec![0.0, 0.5]);
    let reps = scale.pick(3, 6);
    let pairs = scale.pick(80, 300);

    let mut table = Table::new([
        "n", "alpha_H", "beta", "T", "succ|conn", "mean hops", "mean stretch", "patched succ",
    ])
    .title("E10 (Corollary 3.6): geometric routing on hyperbolic random graphs");
    for &n in &ns {
        for &alpha_h in &alphas {
            for &t in &temps {
                let outcomes = parallel_map(reps, 0xE10 ^ n as u64 ^ t.to_bits(), |_, seed| {
                    let mut rng = StdRng::seed_from_u64(seed ^ (alpha_h * 100.0) as u64);
                    let hrg = {
                        let _span = smallworld_obs::Span::enter("sample_hrg");
                        HrgBuilder::new(n)
                            .alpha_h(alpha_h)
                            .temperature(t)
                            .radius_offset(-1.0) // denser disk: average degree ~10
                            .sample(&mut rng)
                            .expect("valid HRG parameters")
                    };
                    let comps = super::worker_components(hrg.graph());
                    let obj = HyperbolicObjective::new(&hrg);
                    let _span = smallworld_obs::Span::enter("route_pairs");
                    let mut obs = smallworld_core::MetricsRouteObserver::new();
                    let greedy = route_random_pairs_observed(
                        hrg.graph(),
                        &obj,
                        &GreedyRouter::new(),
                        &comps,
                        PairDraw::Any,
                        pairs,
                        true,
                        &mut rng,
                        &mut obs,
                    );
                    // connected pairs only: Φ-DFS would otherwise exhaust the
                    // giant on every cross-component pair
                    let patched = route_random_pairs_observed(
                        hrg.graph(),
                        &obj,
                        &PhiDfsRouter::new(),
                        &comps,
                        PairDraw::Connected,
                        pairs / 4,
                        false,
                        &mut rng,
                        &mut obs,
                    );
                    (greedy, patched)
                });
                let mut greedy_all = Vec::new();
                let mut patched_all = Vec::new();
                for (g, p) in outcomes {
                    greedy_all.extend(g);
                    patched_all.extend(p);
                }
                let agg = RoutingAggregate::from_trials(&greedy_all);
                let patched = RoutingAggregate::from_trials(&patched_all);
                table.row([
                    n.to_string(),
                    fmt_f64(alpha_h, 2),
                    fmt_f64(2.0 * alpha_h + 1.0, 1),
                    fmt_f64(t, 1),
                    fmt_f64(agg.success_connected.rate(), 3),
                    fmt_f64(agg.hops.mean(), 2),
                    fmt_f64(agg.stretch.mean(), 3),
                    fmt_f64(patched.success_connected.rate(), 3),
                ]);
            }
        }
    }
    println!("{table}");
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_has_rows() {
        let tables = run(Scale::Quick);
        assert!(tables[0].row_count() >= 1);
    }
}

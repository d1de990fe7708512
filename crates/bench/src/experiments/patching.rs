//! E7/E8 — Theorem 3.4 and §5: patching protocols.
//!
//! Part A compares four routers on the same graphs: plain greedy, the
//! paper's Algorithm 2 (Φ-DFS), the message-history protocol, and the
//! gravity–pressure heuristic. The shapes to check: both (P1)–(P3)
//! protocols deliver **100%** of same-component pairs while plain greedy
//! delivers a constant fraction, and their mean hop counts stay close to
//! greedy's (the `1 + o(1)` stretch of Theorem 3.4).
//!
//! Part B stresses sparse graphs (small λ), where the paper predicts the
//! gravity–pressure heuristic — which violates (P3) — can wander; the tail
//! (p99 / max steps) blows up relative to Φ-DFS.

use rand::rngs::StdRng;
use rand::SeedableRng;

use smallworld_analysis::table::fmt_f64;
use smallworld_analysis::Table;
use smallworld_core::{
    GravityPressureRouter, GreedyRouter, HistoryRouter, PhiDfsRouter, Router, RouterKind,
};
use smallworld_core::GirgObjective;

use crate::experiments::GirgConfig;
use crate::harness::{
    parallel_map, route_random_pairs_observed, PairDraw, RoutingAggregate, Scale, TrialOutcome,
};

fn routers() -> Vec<RouterKind> {
    vec![
        RouterKind::Greedy(GreedyRouter::new()),
        RouterKind::PhiDfs(PhiDfsRouter::new()),
        RouterKind::History(HistoryRouter::new()),
        RouterKind::GravityPressure(GravityPressureRouter::new()),
    ]
}

/// Runs E7 (part A) and E8 (part B); prints/returns both tables.
pub fn run(scale: Scale) -> Vec<Table> {
    vec![part_a(scale), part_b(scale)]
}

/// Routes the same random pairs with every router on freshly sampled graphs.
fn compare_routers(
    config: GirgConfig,
    reps: usize,
    pairs: usize,
    seed: u64,
) -> Vec<(String, Vec<TrialOutcome>)> {
    let kinds = routers();
    let per_rep: Vec<Vec<Vec<TrialOutcome>>> = parallel_map(reps, seed, |_, seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        let girg = {
            let _span = smallworld_obs::Span::enter("sample_girg");
            config.sample(&mut rng)
        };
        let comps = super::worker_components(girg.graph());
        let obj = GirgObjective::new(&girg);
        let _span = smallworld_obs::Span::enter("route_pairs");
        kinds
            .iter()
            .map(|router| {
                // reseed per router so every router sees the same pairs;
                // connected pairs only — Theorem 3.4 is conditional on a
                // shared component, and backtrackers would otherwise spend
                // the whole budget exhaustively failing cross-component pairs
                let mut pair_rng = StdRng::seed_from_u64(seed ^ 0xABCD);
                let mut obs = smallworld_core::MetricsRouteObserver::new();
                route_random_pairs_observed(
                    girg.graph(),
                    &obj,
                    router,
                    &comps,
                    PairDraw::Connected,
                    pairs,
                    false,
                    &mut pair_rng,
                    &mut obs,
                )
            })
            .collect()
    });
    let mut out: Vec<(String, Vec<TrialOutcome>)> = kinds
        .iter()
        .map(|k| (k.name().to_string(), Vec::new()))
        .collect();
    for rep in per_rep {
        for (i, trials) in rep.into_iter().enumerate() {
            out[i].1.extend(trials);
        }
    }
    out
}

fn hop_percentile(trials: &[TrialOutcome], q: f64) -> f64 {
    let hops: Vec<f64> = trials
        .iter()
        .filter(|t| t.success)
        .map(|t| t.hops as f64)
        .collect();
    smallworld_analysis::quantile(&hops, q).unwrap_or(f64::NAN)
}

fn part_a(scale: Scale) -> Table {
    let config = GirgConfig {
        n: scale.pick(4_000, 50_000),
        ..GirgConfig::default()
    };
    let reps = scale.pick(4, 8);
    let pairs = scale.pick(100, 400);

    let mut table = Table::new([
        "router", "succ|conn", "mean hops", "p95 hops", "max hops",
    ])
    .title("E7 (Theorem 3.4): (P1)-(P3) patching delivers 100% at ~greedy cost");
    for (name, trials) in compare_routers(config, reps, pairs, 0xE7) {
        let agg = RoutingAggregate::from_trials(&trials);
        let max = trials
            .iter()
            .filter(|t| t.success)
            .map(|t| t.hops)
            .max()
            .unwrap_or(0);
        table.row([
            name,
            fmt_f64(agg.success_connected.rate(), 4),
            fmt_f64(agg.hops.mean(), 2),
            fmt_f64(hop_percentile(&trials, 0.95), 0),
            max.to_string(),
        ]);
    }
    println!("{table}");
    table
}

fn part_b(scale: Scale) -> Table {
    // sparse regime: a quarter of the default λ (average degree ≈ 5),
    // where dead ends are common and backtrackers have to work
    let config = GirgConfig {
        n: scale.pick(3_000, 20_000),
        lambda: 0.005,
        ..GirgConfig::default()
    };
    let reps = scale.pick(4, 8);
    let pairs = scale.pick(80, 300);

    let mut table = Table::new([
        "router", "succ|conn", "mean hops", "p99 hops", "max hops",
    ])
    .title("E8 (§5): sparse graphs — gravity-pressure (violates P3) grows heavy tails");
    for (name, trials) in compare_routers(config, reps, pairs, 0xE8) {
        let agg = RoutingAggregate::from_trials(&trials);
        let max = trials
            .iter()
            .filter(|t| t.success)
            .map(|t| t.hops)
            .max()
            .unwrap_or(0);
        table.row([
            name,
            fmt_f64(agg.success_connected.rate(), 4),
            fmt_f64(agg.hops.mean(), 2),
            fmt_f64(hop_percentile(&trials, 0.99), 0),
            max.to_string(),
        ]);
    }
    println!("{table}");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_reports_all_routers() {
        let tables = run(Scale::Quick);
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].row_count(), 4);
        assert_eq!(tables[1].row_count(), 4);
    }
}

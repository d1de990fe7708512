//! E15 — live traffic on geometric networks (`smallworld-net`).
//!
//! The paper's §4 robustness discussion treats greedy routing as a live
//! protocol, not a single quiescent trajectory. This experiment runs many
//! concurrent packets through the discrete-event simulator and measures
//! what the theorems cannot see: delivery rate, hop stretch, and
//! virtual-time latency as functions of offered load (queueing) and of
//! failure rate (fault plans), plus a cross-model comparison
//! (GIRG / HRG / Kleinberg lattice) under identical traffic.
//!
//! Shapes to check:
//! * **E15a (load)** — with bounded queues, delivery stays near 1 below
//!   the service capacity and collapses via overflow beyond it, while
//!   virtual-time latency grows with load *before* the collapse.
//! * **E15b (faults)** — delivery degrades gracefully (no cliff) in the
//!   permanent-failure rate, and the patching policy dominates plain
//!   greedy at every rate on the *same* fault plan.
//! * **E15c (models)** — all three geometries carry the same offered load
//!   with comparable delivery; hop counts reflect each model's routing
//!   efficiency.
//!
//! Everything is bitwise reproducible at any `SMALLWORLD_THREADS`: reps
//! fan out through the deterministic pool, and the simulator itself is a
//! pure function of its seeds (see `smallworld-net`).

use rand::rngs::StdRng;
use rand::SeedableRng;

use smallworld_analysis::table::fmt_f64;
use smallworld_analysis::Table;
use smallworld_core::{GirgObjective, HyperbolicObjective, KleinbergObjective, Objective};
use smallworld_graph::Graph;
use smallworld_models::{HrgBuilder, KleinbergLatticeBuilder};
use smallworld_net::{
    nodes_from_mask, FaultPlan, FaultSpec, GreedyPolicy, PacketOutcome, PatchingPolicy,
    SimBuilder, SimConfig, SimReport, SimSummary, TimelineSample, UniformPairs,
};
use smallworld_obs::{HdrHistogram, HdrSnapshot};
use smallworld_par::{split_seed, Pool};

use crate::artifact::{push_record, timeline_record};
use crate::experiments::GirgConfig;
use crate::harness::Scale;

/// Virtual-time sampling interval for the E15a congestion timelines.
const TIMELINE_INTERVAL: smallworld_net::Time = 16;

/// Which forwarding policy a traffic run uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Policy {
    Greedy,
    Patching,
}

impl Policy {
    fn label(self) -> &'static str {
        match self {
            Policy::Greedy => "greedy",
            Policy::Patching => "patching",
        }
    }
}

/// Aggregated outcome counts over the reps of one table cell.
#[derive(Clone, Debug, Default, PartialEq)]
struct Agg {
    injected: u64,
    delivered: u64,
    dead_end: u64,
    expired: u64,
    lost: u64,
    overflow: u64,
    hops_sum: u64,
    latency_sum: u64,
    eligible: u64,
    nodes: u64,
    /// Per-packet delivered latency, merged bucket-wise across reps —
    /// quantile extraction stays bitwise thread-count-invariant because
    /// the merge is commutative bucket addition over a deterministic
    /// sample multiset.
    latency_hdr: HdrSnapshot,
    /// Congestion timeline of the cell's *first* rep (reps fold in task
    /// order, so this is deterministic). Empty unless the rep's
    /// [`SimConfig::timeline_interval`] was set.
    timeline: Vec<TimelineSample>,
}

impl Agg {
    fn absorb(&mut self, report: &SimReport, eligible: usize, nodes: usize) {
        self.injected += report.packets.len() as u64;
        self.delivered += report.delivered() as u64;
        self.dead_end += report.count(PacketOutcome::DeadEnd) as u64;
        self.expired += report.count(PacketOutcome::Expired) as u64;
        self.lost += (report.count(PacketOutcome::LostLink)
            + report.count(PacketOutcome::LostNode)) as u64;
        self.overflow += report.count(PacketOutcome::Overflow) as u64;
        let latencies = HdrHistogram::new();
        for p in report.packets.iter().filter(|p| p.is_success()) {
            self.hops_sum += p.hops() as u64;
            self.latency_sum += p.latency();
            latencies.record(p.latency());
        }
        self.latency_hdr = self.latency_hdr.merge(&latencies.snapshot());
        if self.timeline.is_empty() {
            self.timeline = report.timeline.clone();
        }
        self.eligible += eligible as u64;
        self.nodes += nodes as u64;
    }

    fn merge(mut self, other: &Agg) -> Agg {
        self.injected += other.injected;
        self.delivered += other.delivered;
        self.dead_end += other.dead_end;
        self.expired += other.expired;
        self.lost += other.lost;
        self.overflow += other.overflow;
        self.hops_sum += other.hops_sum;
        self.latency_sum += other.latency_sum;
        self.eligible += other.eligible;
        self.nodes += other.nodes;
        self.latency_hdr = self.latency_hdr.merge(&other.latency_hdr);
        if self.timeline.is_empty() {
            self.timeline.clone_from(&other.timeline);
        }
        self
    }

    /// A delivered-latency quantile in virtual-time ticks (0 when nothing
    /// was delivered).
    fn latency_quantile(&self, q: f64) -> u64 {
        self.latency_hdr.quantile(q).unwrap_or(0)
    }

    fn rate(&self, count: u64) -> f64 {
        if self.injected == 0 {
            0.0
        } else {
            count as f64 / self.injected as f64
        }
    }

    fn mean_hops(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.hops_sum as f64 / self.delivered as f64
        }
    }

    fn mean_latency(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.latency_sum as f64 / self.delivered as f64
        }
    }

    fn survivor_frac(&self) -> f64 {
        if self.nodes == 0 {
            0.0
        } else {
            self.eligible as f64 / self.nodes as f64
        }
    }
}

/// Runs one traffic simulation on `graph` under `objective`: compiles the
/// fault plan from `seed` stream 0, draws the workload (restricted to the
/// plan's survivor giant) from stream 1, and absorbs the report into an
/// [`Agg`]. The fault plan depends only on seed stream 0, so greedy and
/// patching runs with the same `seed` face identical failures.
#[allow(clippy::too_many_arguments)]
fn traffic_rep<O: Objective>(
    graph: &Graph,
    objective: &O,
    policy: Policy,
    spec: FaultSpec,
    config: SimConfig,
    packets: usize,
    load: f64,
    seed: u64,
) -> Agg {
    let plan = FaultPlan::new(spec, split_seed(seed, 0));
    let eligible = nodes_from_mask(&plan.survivor_mask(graph));
    let mut agg = Agg::default();
    if eligible.len() < 2 {
        agg.nodes += graph.node_count() as u64;
        return agg;
    }
    let workload = UniformPairs::new(packets, load, split_seed(seed, 1));
    // prepared-kernel hop scoring: the policies call `prepare(target)`
    // once per forwarding decision instead of re-deriving the target's
    // geometry for every candidate neighbor
    let _span = smallworld_obs::Span::enter("traffic_sim");
    // reps already fan out across the pool, so each rep runs serially
    // (run_local also drops the Sync bound the generic objective lacks)
    let report = match policy {
        Policy::Greedy => SimBuilder::new(graph, GreedyPolicy::new(objective))
            .faults(plan)
            .config(config)
            .shards(1)
            .build()
            .expect("traffic sim config is valid")
            .run_local(workload.over(&eligible)),
        Policy::Patching => SimBuilder::new(graph, PatchingPolicy::new(objective))
            .faults(plan)
            .config(config)
            .shards(1)
            .build()
            .expect("traffic sim config is valid")
            .run_local(workload.over(&eligible)),
    };
    agg.absorb(&report, eligible.len(), graph.node_count());
    agg
}

/// GIRG cell: samples `reps` graphs on the pool and runs one traffic
/// simulation per graph.
#[allow(clippy::too_many_arguments)]
fn girg_traffic(
    pool: &Pool,
    config: GirgConfig,
    policy: Policy,
    spec: FaultSpec,
    sim: SimConfig,
    reps: usize,
    packets: usize,
    load: f64,
    master_seed: u64,
) -> Agg {
    pool.map_seeded(reps, master_seed, |_, seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        let girg = {
            let _span = smallworld_obs::Span::enter("sample_girg");
            config.sample(&mut rng)
        };
        if girg.node_count() < 2 {
            return Agg::default();
        }
        let obj = GirgObjective::new(&girg);
        traffic_rep(girg.graph(), &obj, policy, spec, sim, packets, load, seed)
    })
    .iter()
    .fold(Agg::default(), Agg::merge)
}

/// Runs E15 (load sweep, fault sweep, model comparison) on the
/// environment-selected pool; prints/returns all three tables.
pub fn run(scale: Scale) -> Vec<Table> {
    run_with_pool(scale, &Pool::from_env())
}

/// [`run`] on an explicit pool — the thread-invariance tests call this
/// with one- and many-thread pools and assert bitwise-equal tables.
pub fn run_with_pool(scale: Scale, pool: &Pool) -> Vec<Table> {
    vec![
        load_sweep(scale, pool),
        fault_sweep(scale, pool),
        model_comparison(scale, pool),
        shard_equivalence(scale),
    ]
}

/// E15a: offered load vs delivery/latency with bounded queues.
fn load_sweep(scale: Scale, pool: &Pool) -> Table {
    let config = GirgConfig {
        n: scale.pick(2_000, 20_000),
        ..GirgConfig::default()
    };
    let reps = scale.pick(2, 4);
    let packets = scale.pick(300, 3_000);
    let loads: Vec<f64> = scale.pick(vec![0.5, 4.0], vec![0.25, 1.0, 4.0, 16.0, 64.0]);
    let queue_cap = 8;

    let mut table = Table::new([
        "load",
        "queue cap",
        "delivered",
        "overflow",
        "dead end",
        "mean hops",
        "mean vtime",
        "p50 vtime",
        "p99 vtime",
        "p999 vtime",
    ])
    .title("E15a: delivery and virtual-time latency vs offered load (GIRG, bounded queues)");
    for &load in &loads {
        let sim = SimConfig {
            queue_capacity: Some(queue_cap),
            timeline_interval: Some(TIMELINE_INTERVAL),
            ..SimConfig::default()
        };
        let agg = girg_traffic(
            pool,
            config,
            Policy::Greedy,
            FaultSpec::none(),
            sim,
            reps,
            packets,
            load,
            0xE15A ^ load.to_bits(),
        );
        push_record(timeline_record(
            "E15_traffic",
            &format!("load={}", fmt_f64(load, 2)),
            TIMELINE_INTERVAL,
            &agg.timeline,
        ));
        table.row([
            fmt_f64(load, 2),
            queue_cap.to_string(),
            fmt_f64(agg.rate(agg.delivered), 3),
            fmt_f64(agg.rate(agg.overflow), 3),
            fmt_f64(agg.rate(agg.dead_end), 3),
            fmt_f64(agg.mean_hops(), 2),
            fmt_f64(agg.mean_latency(), 2),
            agg.latency_quantile(0.50).to_string(),
            agg.latency_quantile(0.99).to_string(),
            agg.latency_quantile(0.999).to_string(),
        ]);
    }
    println!("{table}");
    table
}

/// E15b: permanent-failure sweep, greedy vs patching on the same plans.
fn fault_sweep(scale: Scale, pool: &Pool) -> Table {
    let config = GirgConfig {
        n: scale.pick(2_000, 20_000),
        ..GirgConfig::default()
    };
    let reps = scale.pick(2, 4);
    let packets = scale.pick(200, 2_000);
    let rates: Vec<f64> = scale.pick(vec![0.0, 0.15], vec![0.0, 0.05, 0.1, 0.2, 0.3]);
    // patching explores; give it room without letting loops run away
    let sim = SimConfig {
        ttl: 10_000,
        ..SimConfig::default()
    };

    let mut table = Table::new([
        "node fail",
        "policy",
        "survivor frac",
        "delivered",
        "dead end",
        "lost",
        "mean hops",
    ])
    .title("E15b: delivery under permanent node failures — greedy vs patching, same plans");
    for &rate in &rates {
        let spec = FaultSpec {
            node_fail_rate: rate,
            fail_window: 0,
            repair_after: None,
            ..FaultSpec::none()
        };
        for policy in [Policy::Greedy, Policy::Patching] {
            let agg = girg_traffic(
                pool,
                config,
                policy,
                spec,
                sim,
                reps,
                packets,
                1.0,
                0xE15B ^ (rate * 1000.0) as u64, // same seed for both policies
            );
            table.row([
                fmt_f64(rate, 2),
                policy.label().to_string(),
                fmt_f64(agg.survivor_frac(), 3),
                fmt_f64(agg.rate(agg.delivered), 3),
                fmt_f64(agg.rate(agg.dead_end), 3),
                fmt_f64(agg.rate(agg.lost), 3),
                fmt_f64(agg.mean_hops(), 2),
            ]);
        }
    }
    println!("{table}");
    table
}

/// E15c: the same traffic (load 1, mild transient faults + loss) across
/// GIRG, HRG, and the Kleinberg lattice.
fn model_comparison(scale: Scale, pool: &Pool) -> Table {
    let reps = scale.pick(2, 4);
    let packets = scale.pick(200, 2_000);
    let spec = FaultSpec {
        loss_rate: 0.05,
        node_fail_rate: 0.1,
        fail_window: 100,
        repair_after: Some(50),
        ..FaultSpec::none()
    };
    let sim = SimConfig {
        max_retries: 3,
        ..SimConfig::default()
    };

    let mut table = Table::new([
        "model",
        "n",
        "delivered",
        "lost",
        "mean hops",
        "mean vtime",
        "p50 vtime",
        "p99 vtime",
        "p999 vtime",
    ])
    .title("E15c: identical traffic across models (load 1, 5% loss, 10% transient outages)");

    // GIRG
    let girg_n = scale.pick(2_000, 20_000);
    let agg = girg_traffic(
        pool,
        GirgConfig {
            n: girg_n,
            ..GirgConfig::default()
        },
        Policy::Greedy,
        spec,
        sim,
        reps,
        packets,
        1.0,
        0xE15C,
    );
    push_model_row(&mut table, "girg", girg_n as usize, &agg);

    // HRG
    let hrg_n = scale.pick(2_000, 20_000);
    let agg = pool
        .map_seeded(reps, 0xE15C ^ 1, |_, seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let hrg = {
                let _span = smallworld_obs::Span::enter("sample_hrg");
                HrgBuilder::new(hrg_n)
                    .radius_offset(-1.0)
                    .sample(&mut rng)
                    .expect("valid HRG parameters")
            };
            let obj = HyperbolicObjective::new(&hrg);
            traffic_rep(hrg.graph(), &obj, Policy::Greedy, spec, sim, packets, 1.0, seed)
        })
        .iter()
        .fold(Agg::default(), Agg::merge);
    push_model_row(&mut table, "hrg", hrg_n, &agg);

    // Kleinberg lattice at r = d = 2 (its navigable point)
    let side = scale.pick(45, 140);
    let agg = pool
        .map_seeded(reps, 0xE15C ^ 2, |_, seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let lattice = {
                let _span = smallworld_obs::Span::enter("sample_kleinberg");
                KleinbergLatticeBuilder::new(side)
                    .sample(&mut rng)
                    .expect("valid lattice parameters")
            };
            let obj = KleinbergObjective::new(&lattice);
            traffic_rep(
                lattice.graph(),
                &obj,
                Policy::Greedy,
                spec,
                sim,
                packets,
                1.0,
                seed,
            )
        })
        .iter()
        .fold(Agg::default(), Agg::merge);
    push_model_row(&mut table, "kleinberg", (side * side) as usize, &agg);

    println!("{table}");
    table
}

/// E15d: shard-count invariance of the sharded event loop itself — one
/// GIRG, one lossy-fault workload, run at 1/2/4 shards through the
/// conservative-window engine. Every column is an exact integer or an
/// exact ratio of integers, and the rows must agree *bitwise*: the table
/// is identical at any `SMALLWORLD_THREADS`, which is exactly what the
/// CI thread-invariance job diffs.
fn shard_equivalence(scale: Scale) -> Table {
    let config = GirgConfig {
        n: scale.pick(2_000, 20_000),
        ..GirgConfig::default()
    };
    let packets = scale.pick(500, 5_000);
    let spec = FaultSpec {
        loss_rate: 0.05,
        node_fail_rate: 0.1,
        fail_window: 100,
        repair_after: Some(50),
        ..FaultSpec::none()
    };
    let sim_cfg = SimConfig {
        max_retries: 3,
        queue_capacity: Some(8),
        ..SimConfig::default()
    };
    let seed = 0xE15D;
    let mut rng = StdRng::seed_from_u64(seed);
    let girg = {
        let _span = smallworld_obs::Span::enter("sample_girg");
        config.sample(&mut rng)
    };
    let obj = GirgObjective::new(&girg);
    let plan = FaultPlan::new(spec, split_seed(seed, 0));
    let eligible = nodes_from_mask(&plan.survivor_mask(girg.graph()));
    let workload = UniformPairs::new(packets, 1.0, split_seed(seed, 1));

    // "delivered pkts": raw counts, not a rate — artifact_check holds any
    // traffic-suite column literally named "delivered" to [0, 1]
    let mut table = Table::new([
        "shards",
        "delivered pkts",
        "dropped pkts",
        "retries",
        "mean hops",
        "p99 vtime",
        "events",
        "final vtime",
        "matches serial",
    ])
    .title("E15d: sharded engine invariance — identical results at every shard count");
    let mut baseline: Option<SimSummary> = None;
    for shards in [1usize, 2, 4] {
        let summary = SimBuilder::new(girg.graph(), GreedyPolicy::new(&obj))
            .faults(plan)
            .config(sim_cfg)
            .shards(shards)
            .build()
            .expect("shard-equivalence sim config is valid")
            .run_summary(workload.over(&eligible));
        let matches = baseline.as_ref().is_none_or(|b| *b == summary);
        table.row([
            shards.to_string(),
            summary.delivered.to_string(),
            summary.dropped().to_string(),
            summary.retries.to_string(),
            fmt_f64(summary.mean_delivered_hops().unwrap_or(0.0), 2),
            summary.latency_hdr.quantile(0.99).unwrap_or(0).to_string(),
            summary.events.to_string(),
            summary.final_time.to_string(),
            if matches { "yes" } else { "NO" }.to_string(),
        ]);
        baseline.get_or_insert(summary);
    }
    println!("{table}");
    table
}

fn push_model_row(table: &mut Table, model: &str, n: usize, agg: &Agg) {
    table.row([
        model.to_string(),
        n.to_string(),
        fmt_f64(agg.rate(agg.delivered), 3),
        fmt_f64(agg.rate(agg.lost), 3),
        fmt_f64(agg.mean_hops(), 2),
        fmt_f64(agg.mean_latency(), 2),
        agg.latency_quantile(0.50).to_string(),
        agg.latency_quantile(0.99).to_string(),
        agg.latency_quantile(0.999).to_string(),
    ]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use smallworld_core::{GreedyRouter, RouteOutcome, Router};
    use smallworld_graph::NodeId;
    use smallworld_net::{Simulation, SliceWorkload};

    #[test]
    fn quick_run_covers_all_tables() {
        let tables = run(Scale::Quick);
        assert_eq!(tables.len(), 4);
        assert_eq!(tables[0].row_count(), 2, "load sweep rows");
        assert_eq!(tables[1].row_count(), 4, "fault sweep rows (2 rates x 2 policies)");
        assert_eq!(tables[2].row_count(), 3, "one row per model");
        assert_eq!(tables[3].row_count(), 3, "shard equivalence rows (1/2/4 shards)");
    }

    /// Acceptance: with zero faults, load 1, unbounded queues, the
    /// simulator's per-packet records match `GreedyRouter::route` exactly
    /// — same path, same outcome — for every packet.
    #[test]
    fn zero_fault_traffic_matches_greedy_router() {
        let config = GirgConfig {
            n: 1_500,
            ..GirgConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(0xE15);
        let girg = config.sample(&mut rng);
        let obj = GirgObjective::new(&girg);
        let eligible: Vec<NodeId> = girg.graph().nodes().collect();
        let injections = UniformPairs::new(60, 1.0, 99).injections(&eligible);
        let sim = Simulation::new(girg.graph(), GreedyPolicy::new(&obj));
        let report = sim.run(SliceWorkload::new(&injections));
        let router = GreedyRouter::new();
        for (inj, packet) in injections.iter().zip(&report.packets) {
            let record = router.route_quiet(girg.graph(), &obj, inj.source, inj.target);
            assert_eq!(packet.path, record.path, "{} -> {}", inj.source, inj.target);
            let expected = match record.outcome {
                RouteOutcome::Delivered => PacketOutcome::Delivered,
                RouteOutcome::DeadEnd => PacketOutcome::DeadEnd,
                RouteOutcome::MaxStepsExceeded => PacketOutcome::Expired,
            };
            assert_eq!(packet.outcome, expected);
        }
        assert!(report.delivery_rate() > 0.3, "sanity: some packets deliver");
    }

    /// Acceptance: on the same fault plans, the patching policy delivers
    /// at least as much as plain greedy at every rate, and strictly more
    /// in total.
    #[test]
    fn patching_beats_greedy_on_same_fault_plans() {
        let pool = Pool::with_threads(2);
        let config = GirgConfig {
            n: 1_500,
            ..GirgConfig::default()
        };
        let sim = SimConfig {
            ttl: 10_000,
            ..SimConfig::default()
        };
        let mut greedy_total = 0;
        let mut patching_total = 0;
        for &rate in &[0.1, 0.2] {
            let spec = FaultSpec {
                node_fail_rate: rate,
                fail_window: 0,
                repair_after: None,
                ..FaultSpec::none()
            };
            let seed = 0xBEEF ^ (rate * 100.0) as u64;
            let greedy = girg_traffic(
                &pool, config, Policy::Greedy, spec, sim, 2, 150, 1.0, seed,
            );
            let patching = girg_traffic(
                &pool, config, Policy::Patching, spec, sim, 2, 150, 1.0, seed,
            );
            assert_eq!(greedy.injected, patching.injected, "same workloads");
            assert!(
                patching.delivered >= greedy.delivered,
                "rate {rate}: patching {} < greedy {}",
                patching.delivered,
                greedy.delivered
            );
            greedy_total += greedy.delivered;
            patching_total += patching.delivered;
        }
        assert!(
            patching_total > greedy_total,
            "patching should strictly beat greedy overall ({patching_total} vs {greedy_total})"
        );
    }

    /// Delivery degrades gracefully: more permanent failures never help,
    /// and moderate failure rates do not collapse delivery to zero.
    #[test]
    fn delivery_degrades_gracefully_with_failures() {
        let pool = Pool::with_threads(2);
        let config = GirgConfig {
            n: 1_500,
            ..GirgConfig::default()
        };
        let mut rates = Vec::new();
        for &rate in &[0.0, 0.15, 0.4] {
            let spec = FaultSpec {
                node_fail_rate: rate,
                fail_window: 0,
                repair_after: None,
                ..FaultSpec::none()
            };
            let agg = girg_traffic(
                &pool,
                config,
                Policy::Patching,
                spec,
                SimConfig {
                    ttl: 10_000,
                    ..SimConfig::default()
                },
                2,
                150,
                1.0,
                0xD15,
            );
            rates.push(agg.rate(agg.delivered));
        }
        assert!(rates[0] > 0.9, "fault-free patching delivers: {rates:?}");
        assert!(rates[2] > 0.0, "no collapse at 40% failures: {rates:?}");
        assert!(
            rates[0] >= rates[1] && rates[1] >= rates[2],
            "delivery should be monotone in failure rate: {rates:?}"
        );
    }

    /// Acceptance: the whole experiment is bitwise identical at one
    /// thread and at many — the CI job asserts the same property on the
    /// emitted artifacts.
    #[test]
    fn tables_are_thread_invariant() {
        let one = run_with_pool(Scale::Quick, &Pool::with_threads(1));
        let many = run_with_pool(Scale::Quick, &Pool::with_threads(4));
        assert_eq!(one, many);
    }

    /// Congestion is real: the same packet batch injected faster spends
    /// more virtual time in queues.
    #[test]
    fn latency_grows_with_offered_load() {
        let config = GirgConfig {
            n: 1_500,
            ..GirgConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(3);
        let girg = config.sample(&mut rng);
        let obj = GirgObjective::new(&girg);
        let eligible: Vec<NodeId> = girg.graph().nodes().collect();
        let latency_at = |load: f64| {
            let workload = UniformPairs::new(400, load, 5);
            let report =
                Simulation::new(girg.graph(), GreedyPolicy::new(&obj))
                    .run(workload.over(&eligible));
            report.mean_delivered_latency().unwrap_or(0.0)
        };
        let slow = latency_at(0.5);
        let fast = latency_at(100.0);
        assert!(fast > slow, "burst load should queue: {fast} <= {slow}");
    }
}

//! Traffic-simulator throughput benchmark: packets per second of
//! wall-clock through the sharded discrete-event engine at fixed load
//! and fault settings.
//!
//! ```console
//! cargo run --release -p smallworld-bench --bin bench_traffic -- \
//!     --json artifacts/BENCH_traffic.json          # full: 20k vertices
//! cargo run --release -p smallworld-bench --bin bench_traffic -- --quick
//! ```
//!
//! Scenarios on the *same* pre-sampled GIRG and the same offered load:
//! fault-free greedy (the event-loop fast path), greedy under 5% loss
//! with transient outages (retry + drop machinery engaged), and patching
//! under the same faults (exploration overhead) — each at 1, 2, and 4
//! shards of the conservative virtual-time engine — plus a `firehose`
//! row that streams ≥10M packets (full scale) through summary mode to
//! measure sustained event-loop throughput with O(in-flight) memory.
//!
//! Simulation results are a pure function of the seeds *and independent
//! of the shard count*: the `delivered` column must agree exactly across
//! the shard rows of one scenario (`artifact_check` gates on this), and
//! only the wall-clock columns move between machines or thread settings.
//! `swreport --diff` against the committed baseline surfaces both kinds
//! of drift.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use smallworld_analysis::table::fmt_f64;
use smallworld_analysis::Table;
use smallworld_bench::{push_record, Artifact, Scale};
use smallworld_core::GirgObjective;
use smallworld_models::girg::{Girg, GirgBuilder};
use smallworld_net::{
    nodes_from_mask, FaultPlan, FaultSpec, GreedyPolicy, PatchingPolicy, SimBuilder, SimConfig,
    SimSummary, UniformPairs,
};
use smallworld_obs::JsonValue;

/// Shard counts every scenario is measured at. The results must be
/// bitwise identical across them; only wall-clock may differ.
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

struct Measurement {
    scenario: &'static str,
    policy: &'static str,
    shards: usize,
    packets: usize,
    delivered_frac: f64,
    wall_secs: f64,
}

impl Measurement {
    fn packets_per_sec(&self) -> f64 {
        self.packets as f64 / self.wall_secs
    }
}

/// Runs one scenario once for warmup and once for measurement (the
/// `firehose` caller skips warmup by passing `warmup = false`). The
/// fault plan and workload derive from `seed` exactly as in E15, so the
/// delivered fraction matches what the experiment would report. Summary
/// mode keeps memory O(in-flight) no matter the packet count.
#[allow(clippy::too_many_arguments)]
fn measure(
    girg: &Girg<2>,
    scenario: &'static str,
    policy: &'static str,
    shards: usize,
    spec: FaultSpec,
    config: SimConfig,
    packets: usize,
    load: f64,
    seed: u64,
    warmup: bool,
) -> Measurement {
    let run = || -> SimSummary {
        let plan = FaultPlan::new(spec, smallworld_par::split_seed(seed, 0));
        let eligible = nodes_from_mask(&plan.survivor_mask(girg.graph()));
        let workload = UniformPairs::new(packets, load, smallworld_par::split_seed(seed, 1));
        let obj = GirgObjective::new(girg);
        match policy {
            "greedy" => SimBuilder::new(girg.graph(), GreedyPolicy::new(&obj))
                .faults(plan)
                .config(config)
                .shards(shards)
                .build()
                .expect("valid benchmark sim")
                .run_summary(workload.over(&eligible)),
            "patching" => SimBuilder::new(girg.graph(), PatchingPolicy::new(&obj))
                .faults(plan)
                .config(config)
                .shards(shards)
                .build()
                .expect("valid benchmark sim")
                .run_summary(workload.over(&eligible)),
            other => unreachable!("unknown policy {other:?}"),
        }
    };
    if warmup {
        std::hint::black_box(run());
    }
    let start = Instant::now();
    let summary = run();
    let wall_secs = start.elapsed().as_secs_f64();
    let delivered_frac = summary.delivery_rate();
    eprintln!(
        "{scenario}/{policy} x{shards}: {packets} packets in {wall_secs:.3}s \
         ({:.0} packets/s, {delivered_frac:.3} delivered)",
        packets as f64 / wall_secs
    );
    Measurement {
        scenario,
        policy,
        shards,
        packets,
        delivered_frac,
        wall_secs,
    }
}

fn throughput_table(girg: &Girg<2>, packets: usize, firehose_packets: usize, seed: u64) -> Vec<Table> {
    let lossy = FaultSpec {
        loss_rate: 0.05,
        node_fail_rate: 0.1,
        fail_window: 100,
        repair_after: Some(50),
        ..FaultSpec::none()
    };
    let bounded = SimConfig {
        queue_capacity: Some(8),
        ..SimConfig::default()
    };
    let retrying = SimConfig {
        max_retries: 3,
        ..SimConfig::default()
    };
    let mut measurements = Vec::new();
    for shards in SHARD_COUNTS {
        measurements.push(measure(
            girg,
            "fault_free",
            "greedy",
            shards,
            FaultSpec::none(),
            bounded,
            packets,
            1.0,
            seed,
            true,
        ));
    }
    for shards in SHARD_COUNTS {
        measurements.push(measure(
            girg, "lossy", "greedy", shards, lossy, retrying, packets, 1.0, seed, true,
        ));
    }
    for shards in SHARD_COUNTS {
        measurements.push(measure(
            girg, "lossy", "patching", shards, lossy, retrying, packets, 1.0, seed, true,
        ));
    }
    // the sustained-throughput row: tens of millions of packets streamed
    // through summary mode, injected fast enough to keep queues busy.
    // One timed run, no warmup — at this size the event loop dwarfs any
    // cache-warming effect.
    measurements.push(measure(
        girg,
        "firehose",
        "greedy",
        1,
        FaultSpec::none(),
        SimConfig::default(),
        firehose_packets,
        32.0,
        seed ^ 0xF1DE,
        false,
    ));

    // every (scenario, policy) must deliver the same fraction at every
    // shard count — the bench doubles as an invariance check
    for m in &measurements {
        let base = measurements
            .iter()
            .find(|b| b.scenario == m.scenario && b.policy == m.policy)
            .expect("at least itself");
        assert!(
            (base.delivered_frac - m.delivered_frac).abs() < f64::EPSILON,
            "{}/{}: delivered fraction differs across shard counts",
            m.scenario,
            m.policy
        );
    }

    push_record(JsonValue::object([
        ("type", JsonValue::from("net.shards")),
        ("suite", JsonValue::from("bench_traffic")),
        (
            "threads",
            JsonValue::from(smallworld_par::thread_count() as u64),
        ),
        (
            "shards",
            JsonValue::array(SHARD_COUNTS.map(|s| JsonValue::from(s as u64))),
        ),
    ]));

    let mut table = Table::new([
        "scenario",
        "policy",
        "shards",
        "packets",
        "delivered",
        "wall secs",
        "packets/sec",
    ])
    .title("traffic simulator throughput (sharded virtual-time engine)");
    for m in &measurements {
        table.row([
            m.scenario.to_string(),
            m.policy.to_string(),
            m.shards.to_string(),
            m.packets.to_string(),
            fmt_f64(m.delivered_frac, 3),
            format!("{:.4}", m.wall_secs),
            format!("{:.0}", m.packets_per_sec()),
        ]);
    }
    vec![table]
}

fn main() {
    let scale = Scale::from_env();
    let (n, packets, firehose) = scale.pick((5_000, 1_000, 50_000), (20_000, 10_000, 10_000_000));
    let artifact = Artifact::open("bench_traffic", scale);
    let (_, _) = artifact.run_suite("bench_traffic", scale, |_| {
        let mut rng = StdRng::seed_from_u64(2);
        let girg = {
            let _span = smallworld_obs::Span::enter("sample_girg");
            GirgBuilder::<2>::new(n)
                .beta(2.5)
                .alpha(2.0)
                .sample(&mut rng)
                .expect("valid benchmark configuration")
        };
        eprintln!(
            "sampled GIRG: {} vertices, {} edges",
            girg.node_count(),
            girg.graph().edge_count()
        );
        let _span = smallworld_obs::Span::enter("bench_traffic");
        let tables = throughput_table(&girg, packets, firehose, 0xBE7F);
        for t in &tables {
            println!("{t}");
        }
        tables
    });
    artifact.finish();
}

//! Event-loop throughput of the `smallworld-net` simulator: 10k concurrent
//! packets over a pre-sampled 20k-vertex GIRG, fault-free and faulty,
//! serial and sharded.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;

use smallworld_core::GirgObjective;
use smallworld_graph::NodeId;
use smallworld_models::girg::{Girg, GirgBuilder};
use smallworld_net::{
    FaultPlan, FaultSpec, GreedyPolicy, Injection, SimBuilder, SimConfig, SliceWorkload,
    UniformPairs,
};

const PACKETS: usize = 10_000;

fn sample() -> Girg<2> {
    let mut rng = StdRng::seed_from_u64(1);
    GirgBuilder::<2>::new(20_000)
        .beta(2.5)
        .alpha(2.0)
        .lambda(0.02)
        .sample(&mut rng)
        .expect("valid")
}

fn injections(girg: &Girg<2>, load: f64) -> Vec<Injection> {
    let eligible: Vec<NodeId> = girg.graph().nodes().collect();
    UniformPairs::new(PACKETS, load, 2).injections(&eligible)
}

fn bench_traffic(c: &mut Criterion) {
    let girg = sample();
    let obj = GirgObjective::new(&girg);
    let mut group = c.benchmark_group("traffic_10k_packets");
    group.sample_size(10);
    group.throughput(Throughput::Elements(PACKETS as u64));

    group.bench_function("greedy_fault_free", |b| {
        let batch = injections(&girg, 8.0);
        let sim = SimBuilder::new(girg.graph(), GreedyPolicy::new(&obj))
            .shards(1)
            .build()
            .expect("valid");
        b.iter(|| sim.run(SliceWorkload::new(&batch)));
    });

    group.bench_function("greedy_fault_free_4_shards", |b| {
        let batch = injections(&girg, 8.0);
        let sim = SimBuilder::new(girg.graph(), GreedyPolicy::new(&obj))
            .shards(4)
            .build()
            .expect("valid");
        b.iter(|| sim.run(SliceWorkload::new(&batch)));
    });

    group.bench_function("greedy_fault_free_summary", |b| {
        let batch = injections(&girg, 8.0);
        let sim = SimBuilder::new(girg.graph(), GreedyPolicy::new(&obj))
            .shards(1)
            .build()
            .expect("valid");
        b.iter(|| sim.run_summary(SliceWorkload::new(&batch)));
    });

    group.bench_function("greedy_bounded_queues", |b| {
        let batch = injections(&girg, 64.0);
        let sim = SimBuilder::new(girg.graph(), GreedyPolicy::new(&obj))
            .config(SimConfig {
                queue_capacity: Some(8),
                ..SimConfig::default()
            })
            .shards(1)
            .build()
            .expect("valid");
        b.iter(|| sim.run(SliceWorkload::new(&batch)));
    });

    group.bench_function("greedy_faulty", |b| {
        let batch = injections(&girg, 8.0);
        let spec = FaultSpec {
            loss_rate: 0.05,
            node_fail_rate: 0.1,
            fail_window: 100,
            repair_after: Some(50),
            ..FaultSpec::none()
        };
        let sim = SimBuilder::new(girg.graph(), GreedyPolicy::new(&obj))
            .faults(FaultPlan::new(spec, 3))
            .config(SimConfig {
                max_retries: 3,
                ..SimConfig::default()
            })
            .shards(1)
            .build()
            .expect("valid");
        b.iter(|| sim.run(SliceWorkload::new(&batch)));
    });

    group.finish();
}

criterion_group!(benches, bench_traffic);
criterion_main!(benches);

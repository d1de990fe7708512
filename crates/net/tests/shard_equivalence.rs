//! Thread-count invariance of the sharded virtual-time engine.
//!
//! The same contract `analytics_equivalence.rs` pins for the graph
//! engine, pinned here for the simulator: for ANY graph, fault plan,
//! latency model, policy, and workload, running the conservative-window
//! sharded engine at 2/3/4 shards produces results **bitwise identical**
//! to the serial event loop — per-packet records (outcome, path, hops,
//! injection/finish times, retries), event counts, final virtual time,
//! and congestion timelines. Shard count must be a pure performance
//! knob, never a semantics knob.
//!
//! The vendored `proptest!` macro is a recursive muncher, so the checks
//! live in plain `fn`s (failures panic via `assert!`) and the macro
//! clauses stay one-liners.

use proptest::collection::vec;
use proptest::prelude::{ProptestConfig, Strategy};
use proptest::proptest;

use smallworld_graph::{FnObjective, Graph, NodeId};
use smallworld_net::{
    FaultPlan, FaultSpec, GreedyPolicy, Injection, PatchingPolicy, SeededLatency, SimBuilder,
    SimConfig, SimReport, SliceWorkload, Time, UniformPairs,
};

/// Score towards larger ids; the target is infinitely attractive.
const ID_SCORE: FnObjective<fn(NodeId, NodeId) -> f64> = FnObjective(|v, t| {
    if v == t {
        f64::INFINITY
    } else {
        v.index() as f64
    }
});

/// A connected-backbone graph: a path over all nodes plus arbitrary
/// extra edges (mapped into range, self-loops skipped).
fn build_graph(n: usize, extra: &[(u32, u32)]) -> Graph {
    let mut edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
    for &(a, b) in extra {
        let (u, v) = (a % n as u32, b % n as u32);
        if u != v {
            edges.push((u, v));
        }
    }
    Graph::from_edges(n, edges).expect("in-range edges")
}

/// One generated scenario: everything a simulation run depends on.
#[derive(Clone, Debug)]
struct Scenario {
    n: usize,
    extra_edges: Vec<(u32, u32)>,
    injections: Vec<Injection>,
    spec: FaultSpec,
    fault_seed: u64,
    latency: (Time, Time, u64),
    max_retries: u32,
    queue_capacity: Option<usize>,
    timeline_interval: Option<Time>,
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    // the vendored proptest has no Option strategy: encode None as the
    // upper half of a doubled integer range
    let spec = (0.0f64..0.4, 0.0f64..0.3, 0.0f64..0.2, 0u64..40, 0u64..60).prop_map(
        |(loss_rate, node_fail_rate, edge_fail_rate, fail_window, repair_raw)| FaultSpec {
            loss_rate,
            node_fail_rate,
            edge_fail_rate,
            fail_window,
            repair_after: (repair_raw < 30).then_some(repair_raw + 1),
        },
    );
    (
        (
            4usize..40,
            vec((0u32..1000, 0u32..1000), 0..60),
            vec((0u32..1000, 0u32..1000, 0u64..25), 1..60),
        ),
        (spec, 0u64..1000, (1u64..4, 0u64..4, 0u64..100)),
        (0u32..3, 0usize..10, 0u64..24),
    )
        .prop_map(
            |(
                (n, extra_edges, raw_inj),
                (spec, fault_seed, latency),
                (max_retries, queue_raw, interval_raw),
            )| {
                let mut injections: Vec<Injection> = raw_inj
                    .into_iter()
                    .map(|(s, t, at)| Injection {
                        source: NodeId::new(s % n as u32),
                        target: NodeId::new(t % n as u32),
                        at,
                    })
                    .collect();
                injections.sort_by_key(|i| i.at);
                Scenario {
                    n,
                    extra_edges,
                    injections,
                    spec,
                    fault_seed,
                    latency,
                    max_retries,
                    queue_capacity: (queue_raw < 5).then_some(queue_raw + 1),
                    timeline_interval: (interval_raw < 12).then_some(interval_raw + 1),
                }
            },
        )
}

fn run_at<P: smallworld_net::HopPolicy + Sync>(
    sc: &Scenario,
    graph: &Graph,
    policy: P,
    shards: usize,
) -> SimReport
where
    P::State: Send,
{
    let (base, spread, lseed) = sc.latency;
    let sim = SimBuilder::new(graph, policy)
        .latency(SeededLatency::new(base, spread, lseed))
        .faults(FaultPlan::new(sc.spec, sc.fault_seed))
        .config(SimConfig {
            ttl: 50_000,
            max_retries: sc.max_retries,
            queue_capacity: sc.queue_capacity,
            timeline_interval: sc.timeline_interval,
            ..SimConfig::default()
        })
        .shards(shards)
        .build()
        .expect("generated scenario is valid");
    sim.run(SliceWorkload::new(&sc.injections))
}

fn assert_reports_equal(serial: &SimReport, sharded: &SimReport, label: &str) {
    assert_eq!(
        serial.packets, sharded.packets,
        "{label}: per-packet records diverged"
    );
    assert_eq!(serial.events, sharded.events, "{label}: event counts diverged");
    assert_eq!(
        serial.final_time, sharded.final_time,
        "{label}: final virtual time diverged"
    );
    assert_eq!(
        serial.timeline, sharded.timeline,
        "{label}: congestion timelines diverged"
    );
}

/// The core check: serial vs 2/3/4-shard runs, greedy and patching, on
/// one generated scenario.
fn check_shards_are_invisible(sc: &Scenario) {
    let graph = build_graph(sc.n, &sc.extra_edges);
    let serial_greedy = run_at(sc, &graph, GreedyPolicy::new(ID_SCORE), 1);
    let serial_patching = run_at(sc, &graph, PatchingPolicy::new(ID_SCORE), 1);
    for shards in [2usize, 3, 4] {
        let g = run_at(sc, &graph, GreedyPolicy::new(ID_SCORE), shards);
        assert_reports_equal(&serial_greedy, &g, &format!("greedy x{shards}"));
        let p = run_at(sc, &graph, PatchingPolicy::new(ID_SCORE), shards);
        assert_reports_equal(&serial_patching, &p, &format!("patching x{shards}"));
    }
}

/// Streaming a workload must equal running its collected batch — at any
/// shard count.
fn check_streaming_equals_batch(nodes: u16, count: u8, rate_q: u8, seed: u64) {
    let n = usize::from(nodes) % 30 + 4;
    let graph = build_graph(n, &[]);
    let eligible: Vec<NodeId> = (0..n as u32).map(NodeId::new).collect();
    let rate = f64::from(rate_q % 40 + 1) / 4.0;
    let pairs = UniformPairs::new(usize::from(count) % 50 + 1, rate, seed);
    let batch = pairs.injections(&eligible);
    for shards in [1usize, 3] {
        let sim = SimBuilder::new(&graph, GreedyPolicy::new(ID_SCORE))
            .shards(shards)
            .build()
            .expect("valid");
        let streamed = sim.run(pairs.over(&eligible));
        let batched = sim.run(SliceWorkload::new(&batch));
        assert_eq!(
            streamed.packets, batched.packets,
            "x{shards}: streaming diverged from batch"
        );
        assert_eq!(streamed.events, batched.events);
        assert_eq!(streamed.final_time, batched.final_time);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn shard_count_never_changes_results(sc in scenario_strategy()) {
        check_shards_are_invisible(&sc);
    }

    #[test]
    fn streaming_workloads_match_collected_batches(
        nodes in 0u16..200,
        count in 0u8..200,
        rate_q in 0u8..200,
        seed in 0u64..10_000,
    ) {
        check_streaming_equals_batch(nodes, count, rate_q, seed);
    }
}

//! Golden digests of E15-style traffic under faults.
//!
//! The simulator's shard-equivalence tests compare one build against
//! itself across shard counts, so they cannot see a forwarding policy that
//! takes a different hop than it used to. These tests pin the *exact*
//! packet records of fixed runs instead: an FNV-1a hash over every
//! [`PacketRecord`] field — id, endpoints, outcome, path, injection and
//! finish ticks, retries — for greedy and patching forwarding over a GIRG
//! and greedy forwarding over a hyperbolic random graph and a Kleinberg
//! lattice, each about 2,000 vertices, with packet loss, retransmissions,
//! bounded queues and transient node and edge outages, at one and two
//! shards. A change that moves one hop, tick or outcome changes a digest;
//! a change to how policies score candidates must not.

use rand::rngs::StdRng;
use rand::SeedableRng;

use smallworld::core::{GirgObjective, HyperbolicObjective, KleinbergObjective};
use smallworld::graph::{Graph, NodeId};
use smallworld::models::girg::GirgBuilder;
use smallworld::models::{HrgBuilder, KleinbergLatticeBuilder};
use smallworld::net::{
    FaultPlan, FaultSpec, GreedyPolicy, HopPolicy, PacketOutcome, PacketRecord, PatchingPolicy,
    SimBuilder, SimConfig, SliceWorkload, UniformPairs,
};

/// Packets per run.
const PACKETS: usize = 2_000;

/// 5% loss per transmission, 10% of nodes and 5% of edges down for 60
/// ticks at a time, starting within the first 200 ticks.
const FAULTS: FaultSpec = FaultSpec {
    loss_rate: 0.05,
    node_fail_rate: 0.1,
    edge_fail_rate: 0.05,
    fail_window: 200,
    repair_after: Some(60),
};

const CONFIG: SimConfig = SimConfig {
    ttl: smallworld::net::DEFAULT_TTL,
    queue_capacity: Some(8),
    service_time: 1,
    max_retries: 1,
    retry_backoff: 1,
    timeline_interval: None,
};

/// 64-bit FNV-1a over every field of every record, integers as
/// little-endian bytes and the path prefixed by its length.
fn fnv1a(records: &[PacketRecord]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &byte in bytes {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in records {
        let outcome: u8 = match r.outcome {
            PacketOutcome::Delivered => 0,
            PacketOutcome::DeadEnd => 1,
            PacketOutcome::Expired => 2,
            PacketOutcome::LostLink => 3,
            PacketOutcome::LostNode => 4,
            PacketOutcome::Overflow => 5,
        };
        eat(&r.id.to_le_bytes());
        eat(&r.source.raw().to_le_bytes());
        eat(&r.target.raw().to_le_bytes());
        eat(&[outcome]);
        eat(&(r.path.len() as u64).to_le_bytes());
        for v in &r.path {
            eat(&v.raw().to_le_bytes());
        }
        eat(&r.injected_at.to_le_bytes());
        eat(&r.finished_at.to_le_bytes());
        eat(&r.retries.to_le_bytes());
    }
    hash
}

/// Runs the fixed workload under `policy` at one and two shards, asserts
/// both give the same records, and returns their digest. Also asserts the
/// run exercised delivery, retransmissions and losses, so the digest covers
/// forwarding decisions made around faults.
fn digest<P>(graph: &Graph, policy: P, seed: u64) -> u64
where
    P: HopPolicy + Sync,
    P::State: Send,
{
    let nodes: Vec<NodeId> = graph.nodes().collect();
    let injections = UniformPairs::new(PACKETS, 2.0, seed).injections(&nodes);
    let run = |shards| {
        SimBuilder::new(graph, &policy)
            .faults(FaultPlan::new(FAULTS, seed ^ 0xFA17))
            .config(CONFIG)
            .shards(shards)
            .build()
            .expect("valid simulation")
            .run(SliceWorkload::new(&injections))
            .packets
    };
    let serial = run(1);
    assert_eq!(serial, run(2), "records differ across shard counts");
    let count = |o| serial.iter().filter(|r| r.outcome == o).count();
    assert!(
        count(PacketOutcome::Delivered) > PACKETS / 4,
        "too few delivered"
    );
    assert!(count(PacketOutcome::LostLink) > 0, "no packet was lost");
    assert!(serial.iter().any(|r| r.retries > 0), "no retransmission");
    fnv1a(&serial)
}

#[test]
fn girg_traffic_digests() {
    let mut rng = StdRng::seed_from_u64(15);
    let girg = GirgBuilder::<2>::new(2_000)
        .beta(2.5)
        .alpha(2.0)
        .sample(&mut rng)
        .expect("valid parameters");
    let objective = GirgObjective::new(&girg);
    let got = [
        digest(girg.graph(), GreedyPolicy::new(&objective), 1),
        digest(girg.graph(), PatchingPolicy::new(&objective), 1),
    ];
    assert_eq!(
        got,
        [0x18bd_e2aa_10db_d98b, 0xd041_85bb_8e48_e060],
        "{got:#018x?}"
    );
}

#[test]
fn hyperbolic_traffic_digest() {
    let mut rng = StdRng::seed_from_u64(16);
    let hrg = HrgBuilder::new(2_000)
        .radius_offset(-1.0)
        .sample(&mut rng)
        .expect("valid parameters");
    let got = digest(
        hrg.graph(),
        GreedyPolicy::new(HyperbolicObjective::new(&hrg)),
        2,
    );
    assert_eq!(got, 0x5655_e9b1_c2f1_cd73, "{got:#018x}");
}

#[test]
fn kleinberg_traffic_digest() {
    let mut rng = StdRng::seed_from_u64(17);
    let lattice = KleinbergLatticeBuilder::new(45)
        .sample(&mut rng)
        .expect("valid parameters");
    let got = digest(
        lattice.graph(),
        GreedyPolicy::new(KleinbergObjective::new(&lattice)),
        3,
    );
    assert_eq!(got, 0xecf6_4a28_6982_f159, "{got:#018x}");
}

//! The discrete-event simulator: many concurrent packets over one graph.
//!
//! A [`Simulation`] binds a graph, a [`HopPolicy`], a [`LatencyModel`],
//! a [`FaultPlan`] and a [`SimConfig`] — assembled and validated by
//! [`SimBuilder`] — then runs a streaming [`Workload`] of
//! [`Injection`]s to completion. Everything is virtual time under a
//! canonical event order (arrivals by packet id before services by node
//! id at each tick): the result is a pure function of
//! `(graph, policy, latency, faults, config, workload)` — no wall
//! clock, no thread scheduling, no `HashMap` iteration order, and no
//! dependence on the shard count ([`Simulation::run`] partitions nodes
//! across conservative virtual-time shards — see the `shard` module —
//! with bitwise-identical results at any shard/thread count).
//!
//! # Node model
//!
//! Each node is a single server with a FIFO queue. An arriving packet is
//! delivered (if the node is the target), dropped on overflow (if the
//! queue is at capacity), or enqueued. The node serves one packet every
//! [`SimConfig::service_time`] ticks: it asks the policy for a next hop
//! among the *currently live* neighbors, then transmits with the link's
//! latency. Lost transmissions (per [`FaultPlan`]) are retried up to
//! [`SimConfig::max_retries`] times with a fixed per-attempt backoff. A
//! transiently-down node stalls its queue until repair; a permanently
//! dead node loses everything it holds.
//!
//! # Choosing a run entry point
//!
//! * [`Simulation::run`] — full per-packet records, sharded when the
//!   simulation was built with more than one shard.
//! * [`Simulation::run_summary`] — aggregate counters plus an HDR
//!   latency distribution, O(in-flight) memory; the only sane mode at
//!   tens of millions of packets.
//! * [`Simulation::run_local`] — strictly serial records, with no
//!   `Sync`/`Send` bounds on the policy; for single-packet wrappers
//!   around non-thread-safe policies.

use smallworld_graph::{Graph, NodeId};
use smallworld_obs::{HdrSnapshot, Span};
use smallworld_par::thread_count;

use crate::event::Time;
use crate::fault::FaultPlan;
use crate::link::{LatencyModel, UnitLatency};
use crate::policy::HopPolicy;
use crate::shard::{run_serial, run_sharded, EngineConfig, EngineOutput};
use crate::workload::Workload;

/// Default TTL. `smallworld-core`'s `DEFAULT_MAX_STEPS` is defined from
/// it, so the single-packet wrapper is equivalence-preserving out of the
/// box.
pub const DEFAULT_TTL: u32 = 1_000_000;

/// Knobs of the node/link machinery (the protocol itself lives in the
/// [`HopPolicy`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimConfig {
    /// Maximum hops before a packet expires. Compared as
    /// `hops >= ttl` right before a forwarding decision, which makes a
    /// TTL of `n` equivalent to `GreedyRouter::with_max_steps(n)`.
    pub ttl: u32,
    /// Per-node queue capacity; `None` is unbounded. A packet arriving at
    /// a full queue is dropped ([`PacketOutcome::Overflow`]).
    pub queue_capacity: Option<usize>,
    /// Ticks a node spends forwarding one packet. Zero lets a node drain
    /// its whole queue within a tick (no congestion); one tick is the
    /// natural unit for load experiments.
    pub service_time: Time,
    /// Retransmissions attempted after a lost transmission before the
    /// packet counts as [`PacketOutcome::LostLink`].
    pub max_retries: u32,
    /// Extra ticks added per failed attempt before the retransmission.
    pub retry_backoff: Time,
    /// Virtual-time sampling interval for the congestion timeline
    /// ([`SimReport::timeline`]); `None` disables recording. A sample at
    /// tick `T` reflects the state *before* any event at `T` runs, so the
    /// timeline is a pure function of the inputs like everything else.
    pub timeline_interval: Option<Time>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            ttl: DEFAULT_TTL,
            queue_capacity: None,
            service_time: 1,
            max_retries: 0,
            retry_backoff: 1,
            timeline_interval: None,
        }
    }
}

/// One packet to inject: appear at `source` at virtual time `at`, try to
/// reach `target`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Injection {
    /// Where the packet enters the network.
    pub source: NodeId,
    /// Its destination.
    pub target: NodeId,
    /// Injection tick.
    pub at: Time,
}

/// How a packet's life ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PacketOutcome {
    /// Reached its target.
    Delivered,
    /// The policy gave up (greedy local optimum, exhausted patching).
    DeadEnd,
    /// Hop budget exhausted.
    Expired,
    /// Every transmission attempt on some link was lost.
    LostLink,
    /// Held by (or sent to) a permanently failed node.
    LostNode,
    /// Arrived at a node whose queue was full.
    Overflow,
}

impl PacketOutcome {
    /// Whether the packet was delivered.
    pub fn is_success(self) -> bool {
        self == PacketOutcome::Delivered
    }
}

/// The full life of one packet.
#[derive(Clone, Debug, PartialEq)]
pub struct PacketRecord {
    /// The packet's id — its position in the workload stream (for a
    /// time-sorted batch, its batch index).
    pub id: u64,
    /// Where it entered.
    pub source: NodeId,
    /// Where it was headed.
    pub target: NodeId,
    /// How it ended.
    pub outcome: PacketOutcome,
    /// Every node that held the packet, in order, starting at the source.
    /// Backtracking policies may repeat nodes.
    pub path: Vec<NodeId>,
    /// Injection tick.
    pub injected_at: Time,
    /// Tick of the final event (delivery, drop, or loss).
    pub finished_at: Time,
    /// Retransmissions that were needed along the way.
    pub retries: u32,
}

impl PacketRecord {
    /// Edges traversed (`path.len() - 1`).
    pub fn hops(&self) -> usize {
        self.path.len().saturating_sub(1)
    }

    /// Virtual ticks from injection to the final event.
    pub fn latency(&self) -> Time {
        self.finished_at - self.injected_at
    }

    /// Whether the packet was delivered.
    pub fn is_success(&self) -> bool {
        self.outcome.is_success()
    }
}

/// One point of the virtual-time congestion timeline.
///
/// All fields are exact integers (rates are derived on demand), so
/// timelines are bitwise thread-count-invariant like the rest of a
/// [`SimReport`]. `delivered`/`dropped` are cumulative since tick 0.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimelineSample {
    /// Virtual time of the sample. State reflects every event strictly
    /// before this tick.
    pub at: Time,
    /// Packets sitting in node FIFO queues.
    pub queued: u64,
    /// Packets injected but not yet finished (in queues or on links).
    pub in_flight: u64,
    /// Cumulative delivered packets.
    pub delivered: u64,
    /// Cumulative finished-but-not-delivered packets (drops, losses,
    /// expiries).
    pub dropped: u64,
}

impl TimelineSample {
    /// Delivered fraction of the packets finished so far (0 before any
    /// packet finishes).
    pub fn delivery_rate(&self) -> f64 {
        let finished = self.delivered + self.dropped;
        if finished == 0 {
            0.0
        } else {
            self.delivered as f64 / finished as f64
        }
    }
}

/// Incremental progress counters behind the timeline (and the final
/// outcome tally). Updated O(1) per event; per-shard instances sum to
/// the global state because every delta is applied on exactly one shard.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Progress {
    pub(crate) started: u64,
    pub(crate) queued: u64,
    pub(crate) delivered: u64,
    pub(crate) dropped: u64,
}

impl Progress {
    pub(crate) fn finish(&mut self, outcome: PacketOutcome) {
        if outcome.is_success() {
            self.delivered += 1;
        } else {
            self.dropped += 1;
        }
    }

    pub(crate) fn add(&mut self, other: &Progress) {
        self.started += other.started;
        self.queued += other.queued;
        self.delivered += other.delivered;
        self.dropped += other.dropped;
    }

    pub(crate) fn sample(&self, at: Time) -> TimelineSample {
        TimelineSample {
            at,
            queued: self.queued,
            in_flight: self.started - self.delivered - self.dropped,
            delivered: self.delivered,
            dropped: self.dropped,
        }
    }
}

/// Everything a [`Simulation::run`] produced.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// One record per injection, in packet-id (= workload stream) order.
    pub packets: Vec<PacketRecord>,
    /// Events the loop processed (arrivals + service slots).
    pub events: u64,
    /// The largest event timestamp processed.
    pub final_time: Time,
    /// Congestion timeline, when [`SimConfig::timeline_interval`] was
    /// set; empty otherwise.
    pub timeline: Vec<TimelineSample>,
}

impl SimReport {
    /// Packets that reached their target.
    pub fn delivered(&self) -> usize {
        self.packets.iter().filter(|p| p.is_success()).count()
    }

    /// Count of packets with the given outcome.
    pub fn count(&self, outcome: PacketOutcome) -> usize {
        self.packets.iter().filter(|p| p.outcome == outcome).count()
    }

    /// Delivered fraction of all injected packets (0 when empty).
    pub fn delivery_rate(&self) -> f64 {
        if self.packets.is_empty() {
            0.0
        } else {
            self.delivered() as f64 / self.packets.len() as f64
        }
    }

    /// Mean hop count over delivered packets (`None` if none delivered).
    pub fn mean_delivered_hops(&self) -> Option<f64> {
        let (n, sum) = self
            .packets
            .iter()
            .filter(|p| p.is_success())
            .fold((0u64, 0u64), |(n, s), p| (n + 1, s + p.hops() as u64));
        (n > 0).then(|| sum as f64 / n as f64)
    }

    /// Mean virtual-time latency over delivered packets.
    pub fn mean_delivered_latency(&self) -> Option<f64> {
        let (n, sum) = self
            .packets
            .iter()
            .filter(|p| p.is_success())
            .fold((0u64, 0u64), |(n, s), p| (n + 1, s + p.latency()));
        (n > 0).then(|| sum as f64 / n as f64)
    }
}

/// Aggregate results of a run — everything a capacity experiment needs,
/// in O(1) memory per packet class instead of O(packets). Produced by
/// [`Simulation::run_summary`]; bitwise identical across shard counts
/// like a full [`SimReport`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimSummary {
    /// Packets the workload injected.
    pub injected: u64,
    /// Packets that reached their target.
    pub delivered: u64,
    /// Packets the policy gave up on.
    pub dead_end: u64,
    /// Packets whose hop budget ran out.
    pub expired: u64,
    /// Packets lost to unrecoverable link loss.
    pub lost_link: u64,
    /// Packets lost to permanently failed nodes.
    pub lost_node: u64,
    /// Packets dropped at full queues.
    pub overflow: u64,
    /// Hop-count sum over delivered packets.
    pub hops_sum: u64,
    /// Virtual-latency sum over delivered packets.
    pub latency_sum: u64,
    /// Retransmissions across all packets.
    pub retries: u64,
    /// HDR distribution of delivered-packet virtual latencies
    /// (p50/p99/p999 via [`HdrSnapshot::quantile`]).
    pub latency_hdr: HdrSnapshot,
    /// Events processed (arrivals + service slots).
    pub events: u64,
    /// The largest event timestamp processed.
    pub final_time: Time,
    /// Congestion timeline, when [`SimConfig::timeline_interval`] was
    /// set; empty otherwise.
    pub timeline: Vec<TimelineSample>,
}

impl SimSummary {
    /// Finished-but-not-delivered packets.
    pub fn dropped(&self) -> u64 {
        self.dead_end + self.expired + self.lost_link + self.lost_node + self.overflow
    }

    /// Delivered fraction of all injected packets (0 when empty).
    pub fn delivery_rate(&self) -> f64 {
        if self.injected == 0 {
            0.0
        } else {
            self.delivered as f64 / self.injected as f64
        }
    }

    /// Mean hop count over delivered packets (`None` if none delivered).
    pub fn mean_delivered_hops(&self) -> Option<f64> {
        (self.delivered > 0).then(|| self.hops_sum as f64 / self.delivered as f64)
    }

    /// Mean virtual-time latency over delivered packets.
    pub fn mean_delivered_latency(&self) -> Option<f64> {
        (self.delivered > 0).then(|| self.latency_sum as f64 / self.delivered as f64)
    }
}

/// Why a [`SimBuilder::build`] was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimBuildError {
    /// `timeline_interval` was `Some(0)` — a zero-width sampling interval
    /// would loop forever on the first event.
    ZeroTimelineInterval,
    /// The latency model's [`LatencyModel::min_latency`] is zero, which
    /// breaks both causality and the sharded lookahead window.
    ZeroMinLatency,
    /// An explicit shard count of zero.
    ZeroShards,
    /// The fault plan schedules outage starts past the declared injection
    /// horizon: most of the fault window would hit an idle network,
    /// which is almost always a mis-derived spec.
    FaultsBeyondHorizon {
        /// The plan's outage-start window.
        fail_window: Time,
        /// The horizon declared via [`SimBuilder::horizon`].
        horizon: Time,
    },
}

impl std::fmt::Display for SimBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimBuildError::ZeroTimelineInterval => {
                write!(f, "timeline_interval must be at least one tick (got 0)")
            }
            SimBuildError::ZeroMinLatency => {
                write!(f, "latency model reports min_latency 0; links need at least one tick")
            }
            SimBuildError::ZeroShards => write!(f, "shard count must be at least 1"),
            SimBuildError::FaultsBeyondHorizon { fail_window, horizon } => write!(
                f,
                "fault plan starts outages across {fail_window} ticks but injections \
                 end at tick {horizon}; widen the workload or shrink the fault window"
            ),
        }
    }
}

impl std::error::Error for SimBuildError {}

/// Assembles and validates a [`Simulation`].
///
/// The builder is the single validation point for a simulation's moving
/// parts — every constraint is checked once, in [`build`](Self::build),
/// instead of panicking mid-run:
///
/// ```
/// use smallworld_graph::{FnObjective, Graph, NodeId};
/// use smallworld_net::{GreedyPolicy, SimBuilder, SimConfig};
///
/// let g = Graph::from_edges(3, [(0u32, 1u32), (1, 2)])?;
/// let policy = GreedyPolicy::new(FnObjective(|v: NodeId, t: NodeId| {
///     if v == t { f64::INFINITY } else { v.index() as f64 }
/// }));
/// let sim = SimBuilder::new(&g, policy)
///     .config(SimConfig { max_retries: 2, ..SimConfig::default() })
///     .shards(2)
///     .build()
///     .expect("valid configuration");
/// assert_eq!(sim.shard_count(), 2);
/// # Ok::<(), smallworld_graph::GraphError>(())
/// ```
#[derive(Debug)]
pub struct SimBuilder<'g, P, L = UnitLatency> {
    graph: &'g Graph,
    policy: P,
    latency: L,
    faults: FaultPlan,
    config: SimConfig,
    shards: Option<usize>,
    horizon: Option<Time>,
}

impl<'g, P: HopPolicy> SimBuilder<'g, P, UnitLatency> {
    /// Starts from `policy` on `graph` with unit latencies, no faults,
    /// the default [`SimConfig`], and `SMALLWORLD_THREADS`-driven
    /// sharding.
    pub fn new(graph: &'g Graph, policy: P) -> Self {
        SimBuilder {
            graph,
            policy,
            latency: UnitLatency,
            faults: FaultPlan::none(),
            config: SimConfig::default(),
            shards: None,
            horizon: None,
        }
    }
}

impl<'g, P: HopPolicy, L: LatencyModel> SimBuilder<'g, P, L> {
    /// Replaces the latency model.
    pub fn latency<L2: LatencyModel>(self, latency: L2) -> SimBuilder<'g, P, L2> {
        SimBuilder {
            graph: self.graph,
            policy: self.policy,
            latency,
            faults: self.faults,
            config: self.config,
            shards: self.shards,
            horizon: self.horizon,
        }
    }

    /// Replaces the fault plan.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Replaces the configuration.
    pub fn config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Fixes the shard count (1 forces a serial run). Without this, the
    /// count follows `SMALLWORLD_THREADS` / available parallelism.
    /// Results never depend on the choice — only wall clock does.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = Some(shards);
        self
    }

    /// Declares the virtual time of the last injection the workload will
    /// produce, enabling the fault-horizon cross-check in
    /// [`build`](Self::build). Optional — streaming workloads often
    /// don't know their horizon.
    pub fn horizon(mut self, last_injection_at: Time) -> Self {
        self.horizon = Some(last_injection_at);
        self
    }

    /// Validates the assembled parts and produces the [`Simulation`].
    pub fn build(self) -> Result<Simulation<'g, P, L>, SimBuildError> {
        if self.config.timeline_interval == Some(0) {
            return Err(SimBuildError::ZeroTimelineInterval);
        }
        if self.latency.min_latency() == 0 {
            return Err(SimBuildError::ZeroMinLatency);
        }
        if self.shards == Some(0) {
            return Err(SimBuildError::ZeroShards);
        }
        if let Some(horizon) = self.horizon {
            let fail_window = self.faults.spec().fail_window;
            if fail_window > 0 && fail_window > horizon.saturating_add(1) {
                return Err(SimBuildError::FaultsBeyondHorizon { fail_window, horizon });
            }
        }
        Ok(Simulation {
            graph: self.graph,
            policy: self.policy,
            latency: self.latency,
            faults: self.faults,
            config: self.config,
            shards: self.shards,
        })
    }
}

/// A configured simulator, ready to run streaming [`Workload`]s.
/// Generic over the policy and latency model; the graph is borrowed so
/// one graph can serve many simulations. Build with [`SimBuilder`].
pub struct Simulation<'g, P, L = UnitLatency> {
    graph: &'g Graph,
    policy: P,
    latency: L,
    faults: FaultPlan,
    config: SimConfig,
    /// `None`: follow `SMALLWORLD_THREADS` at run time.
    shards: Option<usize>,
}

impl<P: std::fmt::Debug, L: std::fmt::Debug> std::fmt::Debug for Simulation<'_, P, L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("nodes", &self.graph.node_count())
            .field("policy", &self.policy)
            .field("latency", &self.latency)
            .field("faults", &self.faults)
            .field("config", &self.config)
            .field("shards", &self.shards)
            .finish()
    }
}

impl<'g, P: HopPolicy> Simulation<'g, P, UnitLatency> {
    /// A *serial* simulation of `policy` on `graph` with unit latencies,
    /// no faults, and the default [`SimConfig`] — the zero-ceremony
    /// constructor for tests and single-packet wrappers. Use
    /// [`SimBuilder`] to configure anything else (including sharding).
    pub fn new(graph: &'g Graph, policy: P) -> Self {
        Simulation {
            graph,
            policy,
            latency: UnitLatency,
            faults: FaultPlan::none(),
            config: SimConfig::default(),
            shards: Some(1),
        }
    }
}

impl<'g, P: HopPolicy, L: LatencyModel> Simulation<'g, P, L> {
    /// The configuration in effect.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The shard count [`run`](Self::run) will use: the explicit
    /// [`SimBuilder::shards`] value, otherwise `SMALLWORLD_THREADS` /
    /// available parallelism (capped by the node count either way).
    pub fn shard_count(&self) -> usize {
        self.shards
            .unwrap_or_else(thread_count)
            .clamp(1, self.graph.node_count().max(1))
    }

    fn engine(&self) -> EngineConfig<'_, P, L> {
        EngineConfig {
            graph: self.graph,
            policy: &self.policy,
            latency: &self.latency,
            faults: &self.faults,
            config: &self.config,
        }
    }

    fn report(out: EngineOutput) -> SimReport {
        SimReport {
            packets: out.records,
            events: out.events,
            final_time: out.final_time,
            timeline: out.timeline,
        }
    }

    fn summary(out: EngineOutput) -> SimSummary {
        let t = out.totals;
        SimSummary {
            injected: t.injected,
            delivered: t.delivered,
            dead_end: t.dead_end,
            expired: t.expired,
            lost_link: t.lost_link,
            lost_node: t.lost_node,
            overflow: t.overflow,
            hops_sum: t.hops_sum,
            latency_sum: t.latency_sum,
            retries: t.retries,
            latency_hdr: t.latency_hdr,
            events: out.events,
            final_time: out.final_time,
            timeline: out.timeline,
        }
    }

    /// Runs `workload` to completion and returns one record per packet,
    /// in packet-id (stream) order. Uses [`shard_count`](Self::shard_count)
    /// shards; results are bitwise identical at any shard count.
    ///
    /// # Panics
    ///
    /// Panics with a "locality violation" message if the policy forwards
    /// to a node that was not offered as a candidate, and if the
    /// workload yields injections with decreasing times.
    pub fn run<W: Workload + Send>(&self, workload: W) -> SimReport
    where
        P: Sync,
        P::State: Send,
        L: Sync,
    {
        let _span = Span::enter("net.run");
        let shards = self.shard_count();
        if shards <= 1 {
            Self::report(run_serial(&self.engine(), workload, true))
        } else {
            Self::report(run_sharded(&self.engine(), workload, shards, true))
        }
    }

    /// Like [`run`](Self::run), but returns only aggregates (outcome
    /// counters, hop/latency sums, an HDR latency distribution, the
    /// timeline) — memory stays proportional to the in-flight packet
    /// count, so 10M+ packet runs are cheap.
    pub fn run_summary<W: Workload + Send>(&self, workload: W) -> SimSummary
    where
        P: Sync,
        P::State: Send,
        L: Sync,
    {
        let _span = Span::enter("net.run");
        let shards = self.shard_count();
        if shards <= 1 {
            Self::summary(run_serial(&self.engine(), workload, false))
        } else {
            Self::summary(run_sharded(&self.engine(), workload, shards, false))
        }
    }

    /// Strictly serial [`run`](Self::run) with no thread-safety bounds:
    /// the escape hatch for policies with interior mutability (e.g.
    /// `Cell`-based instrumentation) that cannot cross threads. Produces
    /// exactly what `run` produces for the same inputs.
    pub fn run_local<W: Workload>(&self, workload: W) -> SimReport {
        let _span = Span::enter("net.run");
        Self::report(run_serial(&self.engine(), workload, true))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultSpec;
    use crate::link::SeededLatency;
    use crate::policy::{GreedyPolicy, HopChoice, HopView, PatchingPolicy};
    use crate::workload::SliceWorkload;
    use smallworld_graph::FnObjective;

    /// Score towards larger ids; the target is infinitely attractive.
    const ID_SCORE: FnObjective<fn(NodeId, NodeId) -> f64> = FnObjective(|v, t| {
        if v == t {
            f64::INFINITY
        } else {
            v.index() as f64
        }
    });

    fn path_graph(n: usize) -> Graph {
        Graph::from_edges(n, (0..n as u32 - 1).map(|i| (i, i + 1))).unwrap()
    }

    fn inject(source: u32, target: u32, at: Time) -> Injection {
        Injection {
            source: NodeId::new(source),
            target: NodeId::new(target),
            at,
        }
    }

    #[test]
    fn single_packet_walks_the_path() {
        let g = path_graph(5);
        let sim = Simulation::new(&g, GreedyPolicy::new(ID_SCORE));
        let report = sim.run(SliceWorkload::new(&[inject(0, 4, 0)]));
        let p = &report.packets[0];
        assert_eq!(p.outcome, PacketOutcome::Delivered);
        assert_eq!(
            p.path,
            (0..5).map(NodeId::from_index).collect::<Vec<_>>()
        );
        assert_eq!(p.hops(), 4);
        // service 1 tick + unit link per hop => latency 2 * hops
        assert_eq!(p.latency(), 8);
        assert_eq!(report.delivery_rate(), 1.0);
        assert_eq!(report.mean_delivered_hops(), Some(4.0));
    }

    #[test]
    fn source_equals_target_is_immediate_delivery() {
        let g = path_graph(3);
        let sim = Simulation::new(&g, GreedyPolicy::new(ID_SCORE));
        let report = sim.run(SliceWorkload::new(&[inject(1, 1, 7)]));
        let p = &report.packets[0];
        assert_eq!(p.outcome, PacketOutcome::Delivered);
        assert_eq!(p.path, vec![NodeId::new(1)]);
        assert_eq!(p.latency(), 0);
        assert_eq!(p.injected_at, 7);
    }

    #[test]
    fn greedy_dead_end_is_recorded() {
        // from 2, target 0: id-score only increases, so greedy is stuck
        let g = path_graph(5);
        let sim = Simulation::new(&g, GreedyPolicy::new(ID_SCORE));
        let report = sim.run(SliceWorkload::new(&[inject(2, 0, 0)]));
        assert_eq!(report.packets[0].outcome, PacketOutcome::DeadEnd);
        assert_eq!(report.count(PacketOutcome::DeadEnd), 1);
    }

    #[test]
    fn ttl_expires_long_routes() {
        let g = path_graph(10);
        let cfg = SimConfig {
            ttl: 3,
            ..SimConfig::default()
        };
        let sim = SimBuilder::new(&g, GreedyPolicy::new(ID_SCORE))
            .config(cfg)
            .shards(1)
            .build()
            .unwrap();
        let report = sim.run(SliceWorkload::new(&[inject(0, 9, 0)]));
        assert_eq!(report.packets[0].outcome, PacketOutcome::Expired);
        assert_eq!(report.packets[0].hops(), 3);
    }

    #[test]
    fn bounded_queue_overflows_under_burst() {
        // all packets funnel through node 1 on a path; capacity 1 drops
        // most of a simultaneous burst
        let g = path_graph(4);
        let cfg = SimConfig {
            queue_capacity: Some(1),
            ..SimConfig::default()
        };
        let sim = SimBuilder::new(&g, GreedyPolicy::new(ID_SCORE))
            .config(cfg)
            .shards(1)
            .build()
            .unwrap();
        // five simultaneous packets from 0 to 3: they all arrive at 1
        // in one burst; capacity 1 drops most of them
        let inj: Vec<Injection> = (0..5).map(|_| inject(0, 3, 0)).collect();
        let report = sim.run(SliceWorkload::new(&inj));
        assert!(report.count(PacketOutcome::Overflow) >= 3, "burst should overflow");
        assert!(report.delivered() >= 1, "head of line still delivers");
    }

    #[test]
    fn unbounded_queue_delivers_everything() {
        let g = path_graph(4);
        let inj: Vec<Injection> = (0..50).map(|_| inject(0, 3, 0)).collect();
        let sim = Simulation::new(&g, GreedyPolicy::new(ID_SCORE));
        let report = sim.run(SliceWorkload::new(&inj));
        assert_eq!(report.delivered(), 50);
        // congestion is visible in latency: later packets wait for service
        let lat: Vec<Time> = report.packets.iter().map(|p| p.latency()).collect();
        assert!(lat.iter().max() > lat.iter().min());
    }

    #[test]
    fn unsorted_batches_stream_in_time_order() {
        // SliceWorkload sorts by time; packet ids follow *stream* order,
        // so the report comes back time-sorted, not slice-sorted
        let g = path_graph(4);
        let sim = Simulation::new(&g, GreedyPolicy::new(ID_SCORE));
        let inj = [inject(0, 3, 5), inject(1, 3, 0), inject(2, 3, 9)];
        let report = sim.run(SliceWorkload::new(&inj));
        assert_eq!(report.packets.len(), 3);
        let stream_order = [inj[1], inj[0], inj[2]];
        for (i, p) in report.packets.iter().enumerate() {
            assert_eq!(p.id, i as u64);
            assert_eq!(p.source, stream_order[i].source);
            assert_eq!(p.injected_at, stream_order[i].at);
        }
    }

    #[test]
    fn full_loss_without_retries_kills_the_packet() {
        let g = path_graph(3);
        let spec = FaultSpec {
            loss_rate: 1.0,
            ..FaultSpec::none()
        };
        let sim = SimBuilder::new(&g, GreedyPolicy::new(ID_SCORE))
            .faults(FaultPlan::new(spec, 1))
            .shards(1)
            .build()
            .unwrap();
        let report = sim.run(SliceWorkload::new(&[inject(0, 2, 0)]));
        assert_eq!(report.packets[0].outcome, PacketOutcome::LostLink);
    }

    #[test]
    fn retries_ride_through_moderate_loss() {
        let g = path_graph(6);
        let spec = FaultSpec {
            loss_rate: 0.4,
            ..FaultSpec::none()
        };
        let cfg = SimConfig {
            max_retries: 20,
            ..SimConfig::default()
        };
        let sim = SimBuilder::new(&g, GreedyPolicy::new(ID_SCORE))
            .faults(FaultPlan::new(spec, 1))
            .config(cfg)
            .shards(1)
            .build()
            .unwrap();
        let report = sim.run(SliceWorkload::new(&[inject(0, 5, 0)]));
        let p = &report.packets[0];
        assert_eq!(p.outcome, PacketOutcome::Delivered);
        assert!(p.retries > 0, "a 40% loss rate over 5 hops should retry");
    }

    #[test]
    fn permanently_dead_target_side_loses_packets() {
        let g = path_graph(4);
        let spec = FaultSpec {
            node_fail_rate: 1.0,
            fail_window: 0,
            repair_after: None,
            ..FaultSpec::none()
        };
        let sim = SimBuilder::new(&g, GreedyPolicy::new(ID_SCORE))
            .faults(FaultPlan::new(spec, 1))
            .shards(1)
            .build()
            .unwrap();
        let report = sim.run(SliceWorkload::new(&[inject(0, 3, 0)]));
        // the source itself is permanently dead: the packet is lost there
        assert_eq!(report.packets[0].outcome, PacketOutcome::LostNode);
    }

    #[test]
    fn transient_outage_stalls_then_recovers() {
        let g = path_graph(3);
        let spec = FaultSpec {
            node_fail_rate: 1.0,
            fail_window: 1, // all outages start at tick 0
            repair_after: Some(50),
            ..FaultSpec::none()
        };
        let sim = SimBuilder::new(&g, GreedyPolicy::new(ID_SCORE))
            .faults(FaultPlan::new(spec, 1))
            .shards(1)
            .build()
            .unwrap();
        let report = sim.run(SliceWorkload::new(&[inject(0, 2, 0)]));
        let p = &report.packets[0];
        assert_eq!(p.outcome, PacketOutcome::Delivered);
        assert!(
            p.latency() >= 50,
            "delivery must wait out the outage, got {}",
            p.latency()
        );
    }

    #[test]
    fn patching_survives_what_kills_greedy() {
        // greedy trap: 0-3-2-4 requires going *down* from 3 to 2 —
        // greedy refuses, patching detours
        let g = Graph::from_edges(5, [(0u32, 3u32), (3, 2), (2, 4)]).unwrap();
        let greedy = Simulation::new(&g, GreedyPolicy::new(ID_SCORE));
        let patching = Simulation::new(&g, PatchingPolicy::new(ID_SCORE));
        let inj = [inject(0, 4, 0)];
        assert_eq!(
            greedy.run(SliceWorkload::new(&inj)).packets[0].outcome,
            PacketOutcome::DeadEnd
        );
        let p = patching.run(SliceWorkload::new(&inj));
        assert_eq!(p.packets[0].outcome, PacketOutcome::Delivered);
    }

    #[test]
    fn seeded_latency_shows_up_in_virtual_time() {
        let g = path_graph(3);
        let sim = SimBuilder::new(&g, GreedyPolicy::new(ID_SCORE))
            .latency(SeededLatency::new(10, 0, 0))
            .shards(1)
            .build()
            .unwrap();
        let report = sim.run(SliceWorkload::new(&[inject(0, 2, 0)]));
        let p = &report.packets[0];
        assert_eq!(p.outcome, PacketOutcome::Delivered);
        // 2 hops * (1 service + 10 link)
        assert_eq!(p.latency(), 22);
    }

    #[test]
    fn runs_are_bitwise_repeatable() {
        let g = path_graph(20);
        let spec = FaultSpec {
            loss_rate: 0.2,
            node_fail_rate: 0.1,
            edge_fail_rate: 0.1,
            fail_window: 30,
            repair_after: Some(10),
        };
        let cfg = SimConfig {
            max_retries: 3,
            queue_capacity: Some(4),
            ..SimConfig::default()
        };
        let inj: Vec<Injection> = (0..40)
            .map(|i| inject(i % 20, (i * 7 + 3) % 20, (i / 4) as Time))
            .collect();
        let run = || {
            SimBuilder::new(&g, PatchingPolicy::new(ID_SCORE))
                .faults(FaultPlan::new(spec, 11))
                .config(cfg)
                .shards(1)
                .build()
                .unwrap()
                .run(SliceWorkload::new(&inj))
        };
        let a = run();
        let b = run();
        assert_eq!(a.packets, b.packets);
        assert_eq!(a.events, b.events);
        assert_eq!(a.final_time, b.final_time);
    }

    #[test]
    fn timeline_tracks_congestion_and_balances() {
        let g = path_graph(4);
        let cfg = SimConfig {
            timeline_interval: Some(2),
            ..SimConfig::default()
        };
        let inj: Vec<Injection> = (0..20).map(|_| inject(0, 3, 0)).collect();
        let sim = SimBuilder::new(&g, GreedyPolicy::new(ID_SCORE))
            .config(cfg)
            .shards(1)
            .build()
            .unwrap();
        let report = sim.run(SliceWorkload::new(&inj));
        let tl = &report.timeline;
        assert!(!tl.is_empty());
        // strictly increasing sample times
        for w in tl.windows(2) {
            assert!(w[0].at < w[1].at, "{tl:?}");
        }
        // cumulative counters never decrease; queued never exceeds in-flight
        for w in tl.windows(2) {
            assert!(w[1].delivered >= w[0].delivered);
            assert!(w[1].dropped >= w[0].dropped);
        }
        for s in tl {
            assert!(s.queued <= s.in_flight, "{s:?}");
        }
        // final sample closes the run: everything finished, nothing queued
        let last = tl.last().unwrap();
        assert_eq!(last.at, report.final_time);
        assert_eq!(last.queued, 0);
        assert_eq!(last.in_flight, 0);
        assert_eq!(last.delivered + last.dropped, 20);
        assert_eq!(last.delivered, report.delivered() as u64);
        assert!((last.delivery_rate() - 1.0).abs() < 1e-12);
        // congestion was visible at some point: 20 packets funnel through
        // one path, so some sample catches a non-empty queue
        assert!(tl.iter().any(|s| s.queued > 0), "{tl:?}");
    }

    #[test]
    fn timeline_is_deterministic_and_off_by_default() {
        let g = path_graph(8);
        let inj: Vec<Injection> = (0..30)
            .map(|i| inject(i % 7, 7, (i % 5) as Time))
            .collect();
        let base = Simulation::new(&g, GreedyPolicy::new(ID_SCORE));
        assert!(base.run(SliceWorkload::new(&inj)).timeline.is_empty());
        let cfg = SimConfig {
            timeline_interval: Some(3),
            queue_capacity: Some(2),
            ..SimConfig::default()
        };
        let run = || {
            SimBuilder::new(&g, GreedyPolicy::new(ID_SCORE))
                .config(cfg)
                .shards(1)
                .build()
                .unwrap()
                .run(SliceWorkload::new(&inj))
        };
        let (a, b) = (run(), run());
        assert_eq!(a.timeline, b.timeline);
        assert!(!a.timeline.is_empty());
        // the timeline does not perturb packet outcomes
        let plain = SimBuilder::new(&g, GreedyPolicy::new(ID_SCORE))
            .config(SimConfig {
                timeline_interval: None,
                ..cfg
            })
            .shards(1)
            .build()
            .unwrap()
            .run(SliceWorkload::new(&inj));
        assert_eq!(plain.packets, a.packets);
    }

    #[test]
    #[should_panic(expected = "locality violation")]
    fn teleporting_policy_is_rejected() {
        struct Teleport;
        impl HopPolicy for Teleport {
            type State = ();
            fn name(&self) -> &'static str {
                "teleport"
            }
            fn next_hop(&self, view: &HopView<'_>, _state: &mut ()) -> HopChoice {
                HopChoice::Forward(view.target)
            }
        }
        let g = path_graph(5);
        Simulation::new(&g, Teleport).run(SliceWorkload::new(&[inject(0, 4, 0)]));
    }

    #[test]
    #[should_panic(expected = "nondecreasing time order")]
    fn time_travelling_workloads_are_rejected() {
        let g = path_graph(3);
        // bypass SliceWorkload's sort with a raw iterator workload
        let inj = [inject(0, 2, 9), inject(0, 2, 0)];
        Simulation::new(&g, GreedyPolicy::new(ID_SCORE)).run(inj.into_iter());
    }

    #[test]
    fn builder_rejects_bad_configurations() {
        let g = path_graph(3);
        let mk = || SimBuilder::new(&g, GreedyPolicy::new(ID_SCORE));
        assert_eq!(
            mk().config(SimConfig {
                timeline_interval: Some(0),
                ..SimConfig::default()
            })
            .build()
            .err(),
            Some(SimBuildError::ZeroTimelineInterval)
        );
        assert_eq!(mk().shards(0).build().err(), Some(SimBuildError::ZeroShards));
        let plan = FaultPlan::new(
            FaultSpec {
                node_fail_rate: 0.5,
                fail_window: 1000,
                ..FaultSpec::none()
            },
            7,
        );
        assert_eq!(
            mk().faults(plan).horizon(10).build().err(),
            Some(SimBuildError::FaultsBeyondHorizon {
                fail_window: 1000,
                horizon: 10
            })
        );
        // a matching horizon is fine
        let plan = FaultPlan::new(
            FaultSpec {
                node_fail_rate: 0.5,
                fail_window: 1000,
                ..FaultSpec::none()
            },
            7,
        );
        assert!(mk().faults(plan).horizon(2000).build().is_ok());

        struct ZeroLatency;
        impl LatencyModel for ZeroLatency {
            fn latency(&self, _u: NodeId, _v: NodeId) -> Time {
                0
            }
            fn min_latency(&self) -> Time {
                0
            }
        }
        assert_eq!(
            mk().latency(ZeroLatency).build().err(),
            Some(SimBuildError::ZeroMinLatency)
        );
    }

    #[test]
    fn run_local_matches_run() {
        let g = path_graph(12);
        let spec = FaultSpec {
            loss_rate: 0.1,
            node_fail_rate: 0.1,
            fail_window: 20,
            repair_after: Some(5),
            ..FaultSpec::none()
        };
        let inj: Vec<Injection> = (0..30)
            .map(|i| inject(i % 12, (i * 5 + 1) % 12, (i / 3) as Time))
            .collect();
        let build = |shards| {
            SimBuilder::new(&g, PatchingPolicy::new(ID_SCORE))
                .faults(FaultPlan::new(spec, 3))
                .config(SimConfig {
                    max_retries: 2,
                    ..SimConfig::default()
                })
                .shards(shards)
                .build()
                .unwrap()
        };
        let serial = build(1).run_local(SliceWorkload::new(&inj));
        let threaded = build(3).run(SliceWorkload::new(&inj));
        assert_eq!(serial.packets, threaded.packets);
        assert_eq!(serial.events, threaded.events);
        assert_eq!(serial.final_time, threaded.final_time);
    }

    #[test]
    fn summary_agrees_with_report() {
        let g = path_graph(10);
        let spec = FaultSpec {
            loss_rate: 0.2,
            node_fail_rate: 0.2,
            fail_window: 15,
            repair_after: None,
            ..FaultSpec::none()
        };
        let inj: Vec<Injection> = (0..60)
            .map(|i| inject(i % 10, (i * 3 + 1) % 10, (i / 6) as Time))
            .collect();
        let build = |shards| {
            SimBuilder::new(&g, GreedyPolicy::new(ID_SCORE))
                .faults(FaultPlan::new(spec, 9))
                .config(SimConfig {
                    max_retries: 1,
                    timeline_interval: Some(4),
                    ..SimConfig::default()
                })
                .shards(shards)
                .build()
                .unwrap()
        };
        let report = build(1).run(SliceWorkload::new(&inj));
        for shards in [1usize, 2, 4] {
            let s = build(shards).run_summary(SliceWorkload::new(&inj));
            assert_eq!(s.injected, 60, "shards={shards}");
            assert_eq!(s.delivered as usize, report.delivered());
            assert_eq!(s.dead_end as usize, report.count(PacketOutcome::DeadEnd));
            assert_eq!(s.expired as usize, report.count(PacketOutcome::Expired));
            assert_eq!(s.lost_link as usize, report.count(PacketOutcome::LostLink));
            assert_eq!(s.lost_node as usize, report.count(PacketOutcome::LostNode));
            assert_eq!(s.overflow as usize, report.count(PacketOutcome::Overflow));
            assert_eq!(s.events, report.events);
            assert_eq!(s.final_time, report.final_time);
            assert_eq!(s.timeline, report.timeline);
            let hops: u64 = report
                .packets
                .iter()
                .filter(|p| p.is_success())
                .map(|p| p.hops() as u64)
                .sum();
            let lat: u64 = report
                .packets
                .iter()
                .filter(|p| p.is_success())
                .map(|p| p.latency())
                .sum();
            let retries: u64 = report.packets.iter().map(|p| p.retries as u64).sum();
            assert_eq!(s.hops_sum, hops);
            assert_eq!(s.latency_sum, lat);
            assert_eq!(s.retries, retries);
            assert_eq!(s.latency_hdr.count, s.delivered);
        }
    }

    #[test]
    fn sharded_runs_match_serial_exactly() {
        let g = path_graph(16);
        let spec = FaultSpec {
            loss_rate: 0.15,
            node_fail_rate: 0.1,
            edge_fail_rate: 0.05,
            fail_window: 25,
            repair_after: Some(8),
        };
        let inj: Vec<Injection> = (0..80)
            .map(|i| inject(i % 16, (i * 7 + 2) % 16, (i / 5) as Time))
            .collect();
        let run = |shards| {
            SimBuilder::new(&g, PatchingPolicy::new(ID_SCORE))
                .faults(FaultPlan::new(spec, 21))
                .config(SimConfig {
                    max_retries: 2,
                    queue_capacity: Some(3),
                    timeline_interval: Some(5),
                    ..SimConfig::default()
                })
                .shards(shards)
                .build()
                .unwrap()
                .run(SliceWorkload::new(&inj))
        };
        let serial = run(1);
        for shards in [2usize, 3, 4, 7] {
            let sharded = run(shards);
            assert_eq!(serial.packets, sharded.packets, "shards={shards}");
            assert_eq!(serial.events, sharded.events, "shards={shards}");
            assert_eq!(serial.final_time, sharded.final_time, "shards={shards}");
            assert_eq!(serial.timeline, sharded.timeline, "shards={shards}");
        }
    }
}

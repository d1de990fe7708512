//! The sharded conservative virtual-time engine.
//!
//! Nodes are partitioned into contiguous-id shards (after PR 4's Morton
//! relabeling, contiguous id ranges are geometric neighborhoods, so most
//! hops stay shard-local). Each shard owns a private [`OrderedQueue`] of
//! its nodes' events and advances independently inside a **window**
//! `[T, T + W)`, where `T` is the global minimum pending time and the
//! lookahead `W` is [`LatencyModel::min_latency`]: any event processed at
//! `t ≥ T` can only send a cross-shard arrival at `t + W ≥ T + W`, i.e.
//! into a strictly later window. Cross-shard packets are exchanged
//! through mailboxes at barrier-synchronized window boundaries, so every
//! shard sees the complete set of its sub-window events before running
//! them.
//!
//! # Why results are bitwise shard-count-invariant
//!
//! Determinism rests on three facts:
//!
//! 1. **Conservative windows.** When a window `[T, T+W)` opens, every
//!    event with time `< T+W` that will ever exist is already in its
//!    owner's queue: same-shard causes run earlier in the same queue,
//!    and cross-shard causes ran at `t' ≤ t − W < T`, i.e. in an earlier
//!    window (everything below `T` is complete by definition of `T`),
//!    whose messages were flushed before this window's barrier.
//! 2. **A content-keyed total order.** Events pop by
//!    `(time, rank, seq)` where the rank encodes identity — arrivals
//!    (by packet id) before services (by node id). Simultaneous events
//!    on one shard therefore run in an order that is a pure function of
//!    the simulation state, not of push order; simultaneous events on
//!    different shards touch disjoint state (a packet lives on exactly
//!    one shard, a node on exactly one shard) and commute. The `seq`
//!    tie-break is only reachable for a zero-service-time node re-arming
//!    itself, which is shard-local and pushed in deterministic order.
//! 3. **Deterministic identity.** Packet ids are assigned in workload
//!    stream order by the single coordinator, fault/latency/loss draws
//!    are pure hashes of ids and times, and all shared metrics
//!    (registry counters, sharded histograms) merge commutatively.
//!
//! Together these make the sharded execution a reordering of the serial
//! canonical execution that preserves every per-packet observable —
//! the property pinned by `tests/shard_equivalence.rs`.

use std::collections::{HashMap, VecDeque};
use std::mem;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};

use smallworld_graph::NodeId;
use smallworld_obs::hdr::HdrHistogram;
use smallworld_obs::{metrics, HdrSnapshot};
use smallworld_par::{chunk_ranges, Pool};

use crate::event::{OrderedQueue, Time};
use crate::fault::FaultPlan;
use crate::link::LatencyModel;
use crate::policy::{HopChoice, HopPolicy, HopView};
use crate::sim::{
    Injection, PacketOutcome, PacketRecord, Progress, SimConfig, TimelineSample,
};
use crate::workload::Workload;

/// Rank-space bit separating services from arrivals: all arrivals
/// (rank = packet id `< 2^32`) sort before all services at one tick.
const SERVE_RANK_BIT: u64 = 1 << 40;

fn arrive_rank(packet: u32) -> u64 {
    packet as u64
}

fn serve_rank(node: NodeId) -> u64 {
    SERVE_RANK_BIT | node.raw() as u64
}

/// Contiguous-range node partition. With a Morton-relabeled graph the
/// ranges are geometric cells, keeping most forwards shard-local.
#[derive(Clone, Debug)]
pub(crate) struct ShardMap {
    /// `starts[s]..starts[s+1]` is shard `s`'s node-id range.
    starts: Vec<u32>,
}

impl ShardMap {
    /// Partitions `0..n_nodes` into at most `shards` near-equal ranges
    /// (never more shards than nodes; at least one shard, possibly
    /// empty, so a zero-node graph still runs).
    pub(crate) fn new(n_nodes: usize, shards: usize) -> ShardMap {
        assert!(
            u32::try_from(n_nodes).is_ok(),
            "node ids must fit in u32 (graph invariant)"
        );
        let ranges = chunk_ranges(n_nodes, shards);
        let mut starts = Vec::with_capacity(ranges.len() + 1);
        starts.push(0u32);
        for r in &ranges {
            starts.push(r.end as u32);
        }
        if starts.len() == 1 {
            starts.push(0); // empty graph: one empty shard
        }
        ShardMap { starts }
    }

    /// Number of shards (always at least 1).
    pub(crate) fn shards(&self) -> usize {
        self.starts.len() - 1
    }

    /// The node-index range owned by shard `s`.
    pub(crate) fn range(&self, s: usize) -> Range<usize> {
        self.starts[s] as usize..self.starts[s + 1] as usize
    }

    /// The shard owning `node`.
    #[inline]
    pub(crate) fn shard_of(&self, node: NodeId) -> usize {
        // number of shard boundaries at or below the id
        self.starts[1..self.starts.len() - 1].partition_point(|&s| s <= node.raw())
    }
}

/// Shard-internal event payloads.
enum Ev {
    Arrive { packet: u32, node: NodeId },
    Serve { node: NodeId },
}

/// Per-node mutable state (owned by the node's shard).
struct NodeState {
    queue: VecDeque<u32>,
    busy: bool,
}

/// Per-packet mutable state. Travels between shards inside [`Msg`]s —
/// a packet's state lives on exactly the shard currently holding it.
struct PkState<St> {
    source: NodeId,
    target: NodeId,
    injected_at: Time,
    /// Arrivals minus one; maintained even when paths aren't collected.
    hops: u32,
    started: bool,
    retries: u32,
    /// Full node trail; only filled when records are collected.
    path: Vec<NodeId>,
    policy: St,
}

/// A cross-shard handoff: packet `packet` (with its full state) arrives
/// at `node` at time `at`. Also how the coordinator injects new packets.
struct Msg<St> {
    at: Time,
    packet: u32,
    node: NodeId,
    state: PkState<St>,
}

/// Aggregate per-run totals — the backing data of a `SimSummary`, and a
/// cheap byproduct of every run. Merged across shards by addition
/// (all fields are sums or commutative histogram merges).
#[derive(Debug)]
pub(crate) struct SummaryTotals {
    pub(crate) injected: u64,
    pub(crate) delivered: u64,
    pub(crate) dead_end: u64,
    pub(crate) expired: u64,
    pub(crate) lost_link: u64,
    pub(crate) lost_node: u64,
    pub(crate) overflow: u64,
    /// Hop-count sum over delivered packets.
    pub(crate) hops_sum: u64,
    /// Virtual-latency sum over delivered packets.
    pub(crate) latency_sum: u64,
    /// Retransmissions across all packets.
    pub(crate) retries: u64,
    /// Delivered-latency HDR distribution.
    pub(crate) latency_hdr: HdrSnapshot,
}

/// Everything an engine run produces; `sim.rs` shapes it into a
/// `SimReport` or `SimSummary`.
pub(crate) struct EngineOutput {
    /// Per-packet records in id (= stream) order; empty in summary mode.
    pub(crate) records: Vec<PacketRecord>,
    pub(crate) totals: SummaryTotals,
    pub(crate) events: u64,
    pub(crate) final_time: Time,
    pub(crate) timeline: Vec<TimelineSample>,
}

/// Shared global-metric handles, interned once per run.
struct MetricHandles {
    queue_depth: std::sync::Arc<smallworld_obs::HdrHistogram>,
    hop_latency: std::sync::Arc<smallworld_obs::HdrHistogram>,
    delivered: std::sync::Arc<smallworld_obs::Counter>,
    dead_end: std::sync::Arc<smallworld_obs::Counter>,
    expired: std::sync::Arc<smallworld_obs::Counter>,
    lost: std::sync::Arc<smallworld_obs::Counter>,
    overflow: std::sync::Arc<smallworld_obs::Counter>,
    packet_latency: std::sync::Arc<smallworld_obs::HdrHistogram>,
}

impl MetricHandles {
    /// Interns every handle up front so artifacts always carry the full
    /// `net.*` schema, even when a run has no drops.
    fn intern() -> MetricHandles {
        MetricHandles {
            queue_depth: metrics::hdr("net.queue_depth"),
            hop_latency: metrics::hdr("net.hop_latency"),
            delivered: metrics::counter("net.delivered"),
            dead_end: metrics::counter("net.dead_end"),
            expired: metrics::counter("net.expired"),
            lost: metrics::counter("net.lost"),
            overflow: metrics::counter("net.overflow"),
            packet_latency: metrics::hdr("net.packet_latency"),
        }
    }
}

/// The immutable per-run inputs every shard reads.
pub(crate) struct EngineConfig<'a, P, L> {
    pub(crate) graph: &'a smallworld_graph::Graph,
    pub(crate) policy: &'a P,
    pub(crate) latency: &'a L,
    pub(crate) faults: &'a FaultPlan,
    pub(crate) config: &'a SimConfig,
}

/// One shard's private world: its nodes, its event queue, the packets
/// currently on it, and its slice of every per-run aggregate.
struct Runner<St> {
    shard: usize,
    node_lo: u32,
    nodes: Vec<NodeState>,
    queue: OrderedQueue<Ev>,
    packets: HashMap<u32, PkState<St>>,
    /// Completion-order records (sorted by id at merge); empty in
    /// summary mode.
    finished: Vec<PacketRecord>,
    collect: bool,
    progress: Progress,
    /// Sparse timeline snapshots: `(boundary index, state before that
    /// boundary)`, pushed only when the state changed.
    snaps: Vec<(u64, Progress)>,
    next_k: u64,
    interval: Option<Time>,
    events: u64,
    final_time: Time,
    /// Sums and HDR data for summary mode (maintained in both modes —
    /// it is cheap and keeps the two modes on one code path).
    delivered: u64,
    dead_end: u64,
    expired: u64,
    lost_link: u64,
    lost_node: u64,
    overflow: u64,
    hops_sum: u64,
    latency_sum: u64,
    retries: u64,
    latency_hdr: HdrHistogram,
    candidates: Vec<NodeId>,
    /// Cross-shard sends buffered during a window, flushed at its end.
    outbox: Vec<Vec<Msg<St>>>,
}

impl<St: Default> Runner<St> {
    fn new(shard: usize, range: Range<usize>, shards: usize, collect: bool, interval: Option<Time>) -> Runner<St> {
        Runner {
            shard,
            node_lo: range.start as u32,
            nodes: range
                .map(|_| NodeState {
                    queue: VecDeque::new(),
                    busy: false,
                })
                .collect(),
            queue: OrderedQueue::new(),
            packets: HashMap::new(),
            finished: Vec::new(),
            collect,
            progress: Progress::default(),
            snaps: Vec::new(),
            next_k: 0,
            interval,
            events: 0,
            final_time: 0,
            delivered: 0,
            dead_end: 0,
            expired: 0,
            lost_link: 0,
            lost_node: 0,
            overflow: 0,
            hops_sum: 0,
            latency_sum: 0,
            retries: 0,
            latency_hdr: HdrHistogram::new(),
            candidates: Vec::new(),
            outbox: (0..shards).map(|_| Vec::new()).collect(),
        }
    }

    #[inline]
    fn node(&mut self, node: NodeId) -> &mut NodeState {
        &mut self.nodes[(node.raw() - self.node_lo) as usize]
    }

    /// Installs an incoming packet (injection or cross-shard handoff).
    fn accept(&mut self, msg: Msg<St>) {
        self.queue.push(
            msg.at,
            arrive_rank(msg.packet),
            Ev::Arrive {
                packet: msg.packet,
                node: msg.node,
            },
        );
        let prev = self.packets.insert(msg.packet, msg.state);
        debug_assert!(prev.is_none(), "a packet lives on exactly one shard");
    }

    /// Emits timeline boundary snapshots for every interval boundary at
    /// or before `now` (state = everything processed strictly before the
    /// boundary, since this runs before the event at `now`).
    #[inline]
    fn observe(&mut self, now: Time) {
        let Some(interval) = self.interval else {
            return;
        };
        while self
            .next_k
            .checked_mul(interval)
            .is_some_and(|boundary| boundary <= now)
        {
            let changed = self.snaps.last().map(|(_, p)| p) != Some(&self.progress);
            if changed || self.snaps.is_empty() {
                self.snaps.push((self.next_k, self.progress));
            }
            self.next_k += 1;
        }
    }

    /// Ends a packet's life: removes its state, updates aggregates, and
    /// (in record mode) emits its `PacketRecord`.
    fn finish(&mut self, packet: u32, outcome: PacketOutcome, finished_at: Time, m: &MetricHandles) {
        let pk = self
            .packets
            .remove(&packet)
            .expect("finishing a packet not on this shard");
        self.progress.finish(outcome);
        self.retries += pk.retries as u64;
        match outcome {
            PacketOutcome::Delivered => {
                self.delivered += 1;
                self.hops_sum += pk.hops as u64;
                let lat = finished_at - pk.injected_at;
                self.latency_sum += lat;
                self.latency_hdr.record(lat);
                m.delivered.add(1);
                m.packet_latency.record(lat);
            }
            PacketOutcome::DeadEnd => {
                self.dead_end += 1;
                m.dead_end.add(1);
            }
            PacketOutcome::Expired => {
                self.expired += 1;
                m.expired.add(1);
            }
            PacketOutcome::LostLink => {
                self.lost_link += 1;
                m.lost.add(1);
            }
            PacketOutcome::LostNode => {
                self.lost_node += 1;
                m.lost.add(1);
            }
            PacketOutcome::Overflow => {
                self.overflow += 1;
                m.overflow.add(1);
            }
        }
        if self.collect {
            self.finished.push(PacketRecord {
                id: packet as u64,
                source: pk.source,
                target: pk.target,
                outcome,
                path: pk.path,
                injected_at: pk.injected_at,
                finished_at,
                retries: pk.retries,
            });
        }
    }

    /// Runs every local event with time `< horizon` (cross-shard sends
    /// buffer in the outbox).
    fn run_until<P: HopPolicy<State = St>, L: LatencyModel>(
        &mut self,
        eng: &EngineConfig<'_, P, L>,
        map: &ShardMap,
        m: &MetricHandles,
        horizon: Time,
    ) {
        while self.queue.peek_time().is_some_and(|t| t < horizon) {
            let (now, ev) = self.queue.pop().expect("peeked event");
            self.step(now, ev, eng, map, m);
        }
    }

    /// Processes one event. The caller guarantees events arrive in
    /// nondecreasing `now` order (queue discipline + window protocol).
    fn step<P: HopPolicy<State = St>, L: LatencyModel>(
        &mut self,
        now: Time,
        ev: Ev,
        eng: &EngineConfig<'_, P, L>,
        map: &ShardMap,
        m: &MetricHandles,
    ) {
        self.events += 1;
        self.final_time = now;
        self.observe(now);
        match ev {
            Ev::Arrive { packet, node } => {
                let pk = self
                    .packets
                    .get_mut(&packet)
                    .expect("arrival for a packet not on this shard");
                if pk.started {
                    pk.hops += 1;
                } else {
                    pk.started = true;
                    self.progress.started += 1;
                }
                if self.collect {
                    pk.path.push(node);
                }
                if node == pk.target {
                    self.finish(packet, PacketOutcome::Delivered, now, m);
                    return;
                }
                // a permanently dead node swallows what it receives;
                // a transiently dead one holds it until repair
                if eng.faults.down_until(node, now) == Some(Time::MAX) {
                    self.finish(packet, PacketOutcome::LostNode, now, m);
                    return;
                }
                let cap = eng.config.queue_capacity;
                let st = self.node(node);
                if cap.is_some_and(|cap| st.queue.len() >= cap) {
                    self.finish(packet, PacketOutcome::Overflow, now, m);
                    return;
                }
                st.queue.push_back(packet);
                let depth = st.queue.len() as u64;
                let arm = if !st.busy {
                    st.busy = true;
                    true
                } else {
                    false
                };
                self.progress.queued += 1;
                m.queue_depth.record(depth);
                if arm {
                    self.queue.push(
                        now + eng.config.service_time,
                        serve_rank(node),
                        Ev::Serve { node },
                    );
                }
            }
            Ev::Serve { node } => {
                if let Some(repair) = eng.faults.down_until(node, now) {
                    if repair == Time::MAX {
                        // drain: everything queued here is lost
                        while let Some(p) = self.node(node).queue.pop_front() {
                            self.progress.queued -= 1;
                            self.finish(p, PacketOutcome::LostNode, now, m);
                        }
                        self.node(node).busy = false;
                    } else {
                        // stall until repair
                        self.queue.push(repair, serve_rank(node), Ev::Serve { node });
                    }
                    return;
                }
                let Some(packet) = self.node(node).queue.pop_front() else {
                    self.node(node).busy = false;
                    return;
                };
                self.progress.queued -= 1;
                self.serve_packet(packet, node, now, eng, map, m);
                let service = eng.config.service_time;
                let st = self.node(node);
                if st.queue.is_empty() {
                    st.busy = false;
                } else {
                    self.queue.push(now + service, serve_rank(node), Ev::Serve { node });
                }
            }
        }
    }

    /// Forwards one packet sitting at `node`: TTL check, candidate
    /// filtering, policy decision, loss/retry resolution, and the arrival
    /// (local push or cross-shard handoff) for the chosen neighbor.
    fn serve_packet<P: HopPolicy<State = St>, L: LatencyModel>(
        &mut self,
        packet: u32,
        node: NodeId,
        now: Time,
        eng: &EngineConfig<'_, P, L>,
        map: &ShardMap,
        m: &MetricHandles,
    ) {
        let pk = self
            .packets
            .get_mut(&packet)
            .expect("serving a packet not on this shard");
        let hops = pk.hops;
        if hops >= eng.config.ttl {
            self.finish(packet, PacketOutcome::Expired, now, m);
            return;
        }
        let candidates = &mut self.candidates;
        candidates.clear();
        candidates.extend(
            eng.graph
                .neighbors(node)
                .iter()
                .copied()
                .filter(|&v| eng.faults.node_up(v, now) && eng.faults.edge_up(node, v, now)),
        );
        let view = HopView {
            current: node,
            target: pk.target,
            candidates: candidates.as_slice(),
            now,
            hops,
        };
        match eng.policy.next_hop(&view, &mut pk.policy) {
            HopChoice::Drop => {
                self.finish(packet, PacketOutcome::DeadEnd, now, m);
            }
            HopChoice::Forward(next) => {
                assert!(
                    self.candidates.contains(&next),
                    "locality violation: {next} is not a live neighbor of {node}"
                );
                // resolve loss and retries now — the outcome is a pure
                // function of (packet, hop, attempt), not of event order
                let mut delay = 0;
                let mut attempt = 0u32;
                loop {
                    if !eng.faults.lose_transmission(packet as u64, hops, attempt) {
                        break;
                    }
                    if attempt >= eng.config.max_retries {
                        let pk = self.packets.get_mut(&packet).expect("still held");
                        pk.retries += attempt;
                        self.finish(packet, PacketOutcome::LostLink, now + delay, m);
                        return;
                    }
                    attempt += 1;
                    delay += eng.config.retry_backoff;
                }
                let lat = eng.latency.latency(node, next);
                assert!(
                    lat >= eng.latency.min_latency().max(1),
                    "latency model violated its min_latency bound"
                );
                m.hop_latency.record(lat);
                let at = now + delay + lat;
                let pk = self.packets.get_mut(&packet).expect("still held");
                pk.retries += attempt;
                let dest = map.shard_of(next);
                if dest == self.shard {
                    self.queue.push(
                        at,
                        arrive_rank(packet),
                        Ev::Arrive { packet, node: next },
                    );
                } else {
                    let state = self.packets.remove(&packet).expect("still held");
                    self.outbox[dest].push(Msg {
                        at,
                        packet,
                        node: next,
                        state,
                    });
                }
            }
        }
    }
}

/// Builds the fresh state for a newly injected packet.
fn fresh_state<St: Default>(inj: &Injection) -> PkState<St> {
    PkState {
        source: inj.source,
        target: inj.target,
        injected_at: inj.at,
        hops: 0,
        started: false,
        retries: 0,
        path: Vec::new(),
        policy: St::default(),
    }
}

/// Streaming-injection bookkeeping, owned by whoever pulls the workload
/// (the serial loop, or shard 0 as coordinator).
struct Intake<W> {
    workload: W,
    pending: Option<Injection>,
    next_id: u64,
    last_at: Time,
}

impl<W: Workload> Intake<W> {
    fn new(workload: W) -> Intake<W> {
        Intake {
            workload,
            pending: None,
            next_id: 0,
            last_at: 0,
        }
    }

    /// Injection time of the next packet, if any.
    fn peek_at(&mut self) -> Option<Time> {
        if self.pending.is_none() {
            self.pending = self.workload.next_injection();
        }
        self.pending.as_ref().map(|inj| inj.at)
    }

    /// Takes the next injection, assigning its packet id in stream order.
    fn take<St: Default>(&mut self) -> Option<Msg<St>> {
        self.peek_at()?;
        let inj = self.pending.take().expect("peeked");
        assert!(
            inj.at >= self.last_at,
            "workload must stream injections in nondecreasing time order \
             (got {} after {})",
            inj.at,
            self.last_at
        );
        self.last_at = inj.at;
        assert!(
            self.next_id <= u32::MAX as u64,
            "at most u32::MAX packets per run"
        );
        let id = self.next_id as u32;
        self.next_id += 1;
        Some(Msg {
            at: inj.at,
            packet: id,
            node: inj.source,
            state: fresh_state(&inj),
        })
    }
}

/// One shard's contribution to the merged timeline: its sparse boundary
/// snapshots, the next boundary it has not crossed, and its final state.
type ShardView<'a> = (&'a [(u64, Progress)], u64, Progress);

/// Merges per-shard sparse timeline snapshots into the global timeline:
/// boundary `k`'s global state is the sum of each shard's state before
/// `k·interval` (carry-forward of its last snapshot at or before `k`,
/// or its final state once past its last crossed boundary), deduplicated
/// exactly like the serial recorder, closed with a final sample.
fn merge_timeline(
    shards: &[ShardView<'_>],
    interval: Option<Time>,
    final_time: Time,
) -> Vec<TimelineSample> {
    let Some(interval) = interval else {
        return Vec::new();
    };
    let k_max = final_time / interval;
    let mut cursors: Vec<usize> = vec![0; shards.len()];
    let mut current: Vec<Progress> = vec![Progress::default(); shards.len()];
    let mut samples: Vec<TimelineSample> = Vec::new();
    for k in 0..=k_max {
        let mut total = Progress::default();
        for (s, &(snaps, next_k, ref fin)) in shards.iter().enumerate() {
            if k >= next_k {
                // past this shard's last crossed boundary: its state is final
                total.add(fin);
                continue;
            }
            while cursors[s] < snaps.len() && snaps[cursors[s]].0 <= k {
                current[s] = snaps[cursors[s]].1;
                cursors[s] += 1;
            }
            total.add(&current[s]);
        }
        let sample = total.sample(k * interval);
        let same_state = samples.last().is_some_and(|last| {
            (last.queued, last.in_flight, last.delivered, last.dropped)
                == (sample.queued, sample.in_flight, sample.delivered, sample.dropped)
        });
        if !same_state {
            samples.push(sample);
        }
    }
    let mut fin_total = Progress::default();
    for (_, _, fin) in shards {
        fin_total.add(fin);
    }
    let final_sample = fin_total.sample(final_time);
    if samples.last() != Some(&final_sample) {
        samples.push(final_sample);
    }
    samples
}

/// Folds finished runners into the engine output.
fn merge_runners<St>(
    runners: Vec<Runner<St>>,
    injected: u64,
    interval: Option<Time>,
) -> EngineOutput {
    for r in &runners {
        assert!(
            r.packets.is_empty(),
            "event loop drained with an unfinished packet"
        );
        for ob in &r.outbox {
            debug_assert!(ob.is_empty(), "unflushed cross-shard messages");
        }
    }
    let events = runners.iter().map(|r| r.events).sum();
    let final_time = runners.iter().map(|r| r.final_time).max().unwrap_or(0);
    let shard_views: Vec<ShardView<'_>> = runners
        .iter()
        .map(|r| (r.snaps.as_slice(), r.next_k, r.progress))
        .collect();
    let timeline = merge_timeline(&shard_views, interval, final_time);
    let mut totals = SummaryTotals {
        injected,
        delivered: 0,
        dead_end: 0,
        expired: 0,
        lost_link: 0,
        lost_node: 0,
        overflow: 0,
        hops_sum: 0,
        latency_sum: 0,
        retries: 0,
        latency_hdr: HdrSnapshot::default(),
    };
    let mut records = Vec::new();
    for r in runners {
        totals.delivered += r.delivered;
        totals.dead_end += r.dead_end;
        totals.expired += r.expired;
        totals.lost_link += r.lost_link;
        totals.lost_node += r.lost_node;
        totals.overflow += r.overflow;
        totals.hops_sum += r.hops_sum;
        totals.latency_sum += r.latency_sum;
        totals.retries += r.retries;
        totals.latency_hdr = totals.latency_hdr.merge(&r.latency_hdr.snapshot());
        records.extend(r.finished);
    }
    records.sort_unstable_by_key(|r| r.id);
    EngineOutput {
        records,
        totals,
        events,
        final_time,
        timeline,
    }
}

/// The serial reference driver: one shard over all nodes, injections
/// interleaved with the event loop (an injection at tick `t` enters the
/// queue before any event at `t` pops, so ranks order the whole tick).
pub(crate) fn run_serial<P, L, W>(
    eng: &EngineConfig<'_, P, L>,
    workload: W,
    collect: bool,
) -> EngineOutput
where
    P: HopPolicy,
    L: LatencyModel,
    W: Workload,
{
    let m = MetricHandles::intern();
    let map = ShardMap::new(eng.graph.node_count(), 1);
    let mut runner: Runner<P::State> =
        Runner::new(0, map.range(0), 1, collect, eng.config.timeline_interval);
    let mut intake = Intake::new(workload);
    loop {
        while let Some(at) = intake.peek_at() {
            if runner.queue.peek_time().is_some_and(|t| at > t) {
                break;
            }
            let msg = intake.take().expect("peeked injection");
            runner.accept(msg);
        }
        let Some((now, ev)) = runner.queue.pop() else {
            break;
        };
        runner.step(now, ev, eng, &map, &m);
    }
    metrics::counter("net.injected").add(intake.next_id);
    merge_runners(vec![runner], intake.next_id, eng.config.timeline_interval)
}

/// The sharded driver: `shards` barrier-phased workers advancing in
/// conservative windows of width [`LatencyModel::min_latency`].
///
/// Worker 0 doubles as the window coordinator: between the two barriers
/// of each round — while every other worker is parked — it alone reads
/// all published next-event times, scans the (quiescent) mailboxes,
/// pulls due injections from the workload, and publishes the window end
/// (or the done flag). Results are bitwise identical to
/// [`run_serial`]'s for any shard count.
pub(crate) fn run_sharded<P, L, W>(
    eng: &EngineConfig<'_, P, L>,
    workload: W,
    shards: usize,
    collect: bool,
) -> EngineOutput
where
    P: HopPolicy + Sync,
    P::State: Send,
    L: LatencyModel + Sync,
    W: Workload + Send,
{
    let map = ShardMap::new(eng.graph.node_count(), shards);
    let s = map.shards();
    if s <= 1 {
        return run_serial(eng, workload, collect);
    }
    let lookahead = eng.latency.min_latency().max(1);
    let m = MetricHandles::intern();
    let interval = eng.config.timeline_interval;

    let runners: Vec<Mutex<Runner<P::State>>> = (0..s)
        .map(|i| Mutex::new(Runner::new(i, map.range(i), s, collect, interval)))
        .collect();
    let mailboxes: Vec<Mutex<Vec<Msg<P::State>>>> = (0..s).map(|_| Mutex::new(Vec::new())).collect();
    let next_times: Vec<AtomicU64> = (0..s).map(|_| AtomicU64::new(u64::MAX)).collect();
    let window_end = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let intake = Mutex::new(Intake::new(workload));
    let barrier = Barrier::new(s);

    Pool::with_threads(s).run_workers(|wi| {
        let mut runner = runners[wi].lock().expect("runner lock");
        loop {
            next_times[wi].store(
                runner.queue.peek_time().unwrap_or(u64::MAX),
                Ordering::Release,
            );
            barrier.wait();
            if wi == 0 {
                // coordinator phase: exclusive access between barriers —
                // every other worker is parked at the second barrier
                let mut t = next_times
                    .iter()
                    .map(|nt| nt.load(Ordering::Acquire))
                    .min()
                    .expect("at least one shard");
                for mb in &mailboxes {
                    for msg in mb.lock().expect("mailbox lock").iter() {
                        t = t.min(msg.at);
                    }
                }
                let mut intake = intake.lock().expect("intake lock");
                if let Some(at) = intake.peek_at() {
                    t = t.min(at);
                }
                if t == u64::MAX {
                    done.store(true, Ordering::Release);
                } else {
                    let end = t.saturating_add(lookahead);
                    window_end.store(end, Ordering::Release);
                    while intake.peek_at().is_some_and(|at| at < end) {
                        let msg: Msg<P::State> = intake.take().expect("peeked injection");
                        let dest = map.shard_of(msg.node);
                        mailboxes[dest].lock().expect("mailbox lock").push(msg);
                    }
                }
            }
            barrier.wait();
            if done.load(Ordering::Acquire) {
                break;
            }
            let end = window_end.load(Ordering::Acquire);
            {
                let mut mb = mailboxes[wi].lock().expect("mailbox lock");
                for msg in mb.drain(..) {
                    runner.accept(msg);
                }
            }
            runner.run_until(eng, &map, &m, end);
            for (dest, ob) in runner.outbox.iter_mut().enumerate() {
                if ob.is_empty() {
                    continue;
                }
                let msgs = mem::take(ob);
                mailboxes[dest]
                    .lock()
                    .expect("mailbox lock")
                    .extend(msgs);
            }
        }
    });

    let runners: Vec<Runner<P::State>> = runners
        .into_iter()
        .map(|mx| mx.into_inner().expect("runner lock"))
        .collect();
    let intake = intake.into_inner().expect("intake lock");
    metrics::counter("net.injected").add(intake.next_id);
    merge_runners(runners, intake.next_id, interval)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_map_partitions_contiguously() {
        let map = ShardMap::new(10, 3);
        assert_eq!(map.shards(), 3);
        let mut covered = 0;
        for s in 0..map.shards() {
            let r = map.range(s);
            assert_eq!(r.start, covered);
            covered = r.end;
            for i in r {
                assert_eq!(map.shard_of(NodeId::from_index(i)), s, "node {i}");
            }
        }
        assert_eq!(covered, 10);
    }

    #[test]
    fn shard_map_clamps_to_node_count() {
        let map = ShardMap::new(2, 8);
        assert_eq!(map.shards(), 2);
        let empty = ShardMap::new(0, 4);
        assert_eq!(empty.shards(), 1);
        assert_eq!(empty.range(0), 0..0);
    }

    #[test]
    fn ranks_put_arrivals_before_services() {
        assert!(arrive_rank(u32::MAX) < serve_rank(NodeId::new(0)));
        assert!(arrive_rank(3) < arrive_rank(4));
        assert!(serve_rank(NodeId::new(3)) < serve_rank(NodeId::new(4)));
    }
}

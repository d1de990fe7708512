//! `smallworld-net`: a deterministic discrete-event network simulator.
//!
//! The paper treats greedy routing as a live, purely distributed
//! protocol; this crate runs it that way — **many concurrent packets**
//! over any [`smallworld_graph::Graph`], with per-link latencies, bounded
//! per-node FIFO queues, and seeded fault injection — while keeping every
//! run a pure function of its inputs:
//!
//! * all timing is **virtual** ([`event::Time`] ticks); events pop in a
//!   canonical `(time, rank)` order (packet arrivals by id before node
//!   service slots), so no wall clock, heap internals, or thread
//!   scheduling leaks into results;
//! * the event loop is **sharded**: nodes partition across
//!   per-shard queues that advance in conservative lookahead windows
//!   derived from [`link::LatencyModel::min_latency`], exchanging
//!   cross-shard packets at deterministic barriers — results are bitwise
//!   identical at any shard/thread count;
//! * faults ([`fault::FaultPlan`]) and workloads ([`workload::Workload`])
//!   are derived from master seeds via `smallworld-par`'s SplitMix64
//!   splitting, so runs are bitwise reproducible at any
//!   `SMALLWORLD_THREADS`;
//! * protocols are [`policy::HopPolicy`] implementations that see only a
//!   local [`policy::HopView`] (their live neighbors plus the packet's
//!   target) — the simulator panics on any locality violation; the
//!   greedy and patching policies score through `smallworld-graph`'s
//!   [`Objective`](smallworld_graph::Objective), the interface
//!   `smallworld-core`'s routers use;
//! * delivery/drop/expiry counters and queue-depth / hop-latency
//!   histograms flow into `smallworld-obs`'s global metrics registry.
//!
//! # Example
//!
//! ```
//! use smallworld_graph::{FnObjective, Graph, NodeId};
//! use smallworld_net::{
//!     GreedyPolicy, Injection, PacketOutcome, SimBuilder, SliceWorkload,
//! };
//!
//! let g = Graph::from_edges(4, [(0u32, 1u32), (1, 2), (2, 3)])?;
//! // score: prefer larger ids, target is infinitely attractive
//! let policy = GreedyPolicy::new(FnObjective(|v: NodeId, t: NodeId| {
//!     if v == t { f64::INFINITY } else { v.index() as f64 }
//! }));
//! let sim = SimBuilder::new(&g, policy).build().expect("valid sim");
//! let report = sim.run(SliceWorkload::new(&[Injection {
//!     source: NodeId::new(0),
//!     target: NodeId::new(3),
//!     at: 0,
//! }]));
//! assert_eq!(report.packets[0].outcome, PacketOutcome::Delivered);
//! assert_eq!(report.packets[0].hops(), 3);
//! # Ok::<(), smallworld_graph::GraphError>(())
//! ```

#![warn(missing_docs)]
// The proptest! blocks in event.rs expand past the default limit.
#![recursion_limit = "256"]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod event;
pub mod fault;
pub mod link;
pub mod policy;
pub(crate) mod shard;
pub mod sim;
pub mod workload;

pub use event::{EventQueue, Time};
pub use fault::{FaultPlan, FaultSpec, Outage};
pub use link::{LatencyModel, SeededLatency, UnitLatency};
pub use policy::{GreedyPolicy, HopChoice, HopPolicy, HopView, PatchState, PatchingPolicy};
pub use sim::{
    Injection, PacketOutcome, PacketRecord, SimBuildError, SimBuilder, SimConfig, SimReport,
    SimSummary, Simulation, TimelineSample, DEFAULT_TTL,
};
pub use workload::{nodes_from_mask, SliceWorkload, UniformPairs, UniformPairsIter, Workload};

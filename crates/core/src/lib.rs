//! Greedy routing and patching on geometric inhomogeneous random graphs —
//! the primary contribution of *Greedy Routing and the Algorithmic
//! Small-World Phenomenon* (PODC 2017).
//!
//! * [`objective`] — the objective functions greedy routing maximizes: the
//!   paper's φ (§2.2), the hyperbolic-distance objective of §11, the
//!   degree-agnostic geometric objective of §4, Kleinberg's lattice
//!   objective, and the relaxed/approximate objectives of Theorem 3.5 —
//!   each written once, as a per-target [`ScoreKernel`] (the
//!   [`Objective`]/[`ScoreKernel`] traits come from `smallworld-graph`, so
//!   `smallworld-net`'s forwarding policies score through them too).
//! * [`greedy`] — Algorithm 1: forward the packet to the neighbor with the
//!   best objective, fail in local optima. One loop serves a decoded
//!   [`Graph`](smallworld_graph::Graph) and any adjacency view (e.g. a
//!   memory-mapped store decoded on demand), and one hop rule: the run
//!   fold, which skips id groups, runs, tiles and blocks that a bounded
//!   kernel proves cannot beat the current vertex.
//! * [`router`] — the [`Router`] trait every protocol implements through
//!   one routing method, [`Router::route_prepared`] over a prepared
//!   [`ScoreKernel`], plus [`RouterKind`] for heterogeneous harnesses.
//! * [`distributed`] — the same protocol run as per-node programs against
//!   a locality-enforcing interface: the §3 "purely distributed, one node
//!   awake at a time" claim, made structural. Its node program scores
//!   through φ's one scalar chain, so its routes are bitwise Algorithm 1's.
//! * [`lookahead`] — the one-hop "know thy neighbor's neighbor" variant
//!   cited among the Kleinberg-model refinements.
//! * [`index`] — the opt-in routing index for decoded GIRGs: the
//!   [`PhiBounds`] ladder over the graph's own lanes, so in-RAM hops prune
//!   like the store path's (over Morton-ordered ids; bitwise-identical
//!   routes, enforced).
//! * [`packed`] — [`PackedGirgObjective`], the store-path objective:
//!   [`GirgObjective`] over flat lanes borrowed from a memory-mapped
//!   `smallworld-store` file ([`GirgObjective::from_lanes`]) plus the
//!   [`PhiBounds`] that let its kernels skip whole Morton id runs of a
//!   hub's neighbor list (exact branch-and-bound; routes unchanged).
//! * [`view_route`] — shard-local routing with explicit cross-shard
//!   handoff through the same greedy loop, bitwise-identical to the
//!   decoded route.
//! * [`observe`] — per-hop routing probes: every router reports hops,
//!   objective values, backtracks and dead ends to a [`RouteObserver`];
//!   the no-op default monomorphizes to zero cost.
//! * [`patching`] — routing protocols that never give up: the paper's
//!   Algorithm 2 (distributed Φ-DFS, satisfies (P1)–(P3)), a message-history
//!   protocol (the other §5 example), and the gravity–pressure heuristic the
//!   paper discusses as a (P3)-violating baseline.
//! * [`trajectory`] — instrumentation reproducing Figure 1: weight and
//!   objective profiles, the V₁/V₂ phase split of §7.3.
//! * [`stretch`](mod@stretch) — greedy-path length versus BFS shortest path.
//! * [`theory`] — the paper's closed-form predictions, e.g.
//!   `(2+o(1))/|log(β−2)| · log log n`.
//!
//! # Examples
//!
//! ```
//! use rand::SeedableRng;
//! use smallworld_core::{GirgObjective, GreedyRouter, RouteOutcome, Router};
//! use smallworld_models::girg::GirgBuilder;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let girg = GirgBuilder::<2>::new(2_000).beta(2.5).sample(&mut rng)?;
//! let objective = GirgObjective::new(&girg);
//! let s = girg.random_vertex(&mut rng);
//! let t = girg.random_vertex(&mut rng);
//! let record = GreedyRouter::new().route_quiet(girg.graph(), &objective, s, t);
//! if record.outcome == RouteOutcome::Delivered {
//!     println!("{} hops", record.hops());
//! }
//! # Ok::<(), smallworld_models::ModelError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod distributed;
pub mod greedy;
pub mod index;
pub mod lookahead;
pub mod objective;
pub mod observe;
pub mod observers;
pub mod packed;
pub mod patching;
pub mod router;
pub mod stretch;
pub mod theory;
pub mod trajectory;
pub mod view_route;

pub use distributed::{DistributedGreedy, Simulator};
pub use greedy::{GreedyRouter, RouteOutcome, RouteRecord};
pub use index::{IndexedGirgObjective, RoutingIndex};
pub use lookahead::LookaheadRouter;
pub use observe::{NoopObserver, RouteObserver};
pub use observers::{CountingObserver, MetricsRouteObserver};
pub use objective::{
    DistanceHopKernel, DistanceObjective, FnObjective, GirgHopKernel, GirgObjective,
    HyperbolicHopKernel, HyperbolicObjective, KleinbergHopKernel, KleinbergObjective, NaiveKernel,
    NaiveObjective, Objective, PhiBounds, QuantizedHopKernel, QuantizedObjective,
    RelaxedHopKernel, RelaxedObjective, ScoreKernel,
};
pub use packed::PackedGirgObjective;
pub use patching::{GravityPressureRouter, HistoryRouter, PhiDfsRouter};
pub use router::{RouteScratch, Router, RouterKind};
pub use stretch::{stretch, stretch_many};
pub use trajectory::{Layer, Phase, Trajectory};
pub use view_route::{route_sharded, ShardSlice, ShardedRoute, ViewRouter};

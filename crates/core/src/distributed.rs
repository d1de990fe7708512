//! Distributed execution of greedy routing, with locality enforced by
//! construction.
//!
//! The paper stresses (§1, §3) that its protocol is *purely distributed*:
//! "each vertex only needs to know the positions and weights of its direct
//! neighbors, and the geometric position of t (which we assume to be part
//! of the message)", and "only one node needs to be awake at a time". The
//! functions in [`crate::greedy`] compute the same routes, but nothing
//! *stops* an objective from peeking at global state.
//!
//! This module makes the locality claim structural. A [`NodeProgram`] runs
//! at one node per step and receives only a [`LocalView`] — the node's own
//! address, its neighbors' addresses, and the packet (which carries the
//! target's address). There is no way to express a non-local protocol
//! against this interface, and the [`Simulator`] additionally rejects
//! forwarding to a non-neighbor. [`DistributedGreedy`] re-implements
//! Algorithm 1 against the interface; a test asserts its routes are
//! identical to [`crate::greedy::GreedyRouter`]'s.

use std::cell::Cell;

use smallworld_geometry::Point;
use smallworld_graph::view::fold_first_best;
use smallworld_graph::{Graph, NodeId};
use smallworld_models::girg::Girg;
use smallworld_net::{
    HopChoice, HopPolicy, HopView, Injection, PacketOutcome, SimBuilder, SimConfig, SliceWorkload,
};

use crate::greedy::{RouteOutcome, RouteRecord, DEFAULT_MAX_STEPS};

/// Supplies the address of a vertex — the only per-vertex information a
/// distributed protocol may read.
pub trait Addressing {
    /// An address: what a node shares with its neighbors (for GIRGs, the
    /// pair `(x_v, w_v)` of §2.2).
    type Address: Clone + PartialEq;

    /// The address of `v`.
    fn address_of(&self, v: NodeId) -> Self::Address;
}

/// GIRG addressing: the `(position, weight)` pair of §2.2.
#[derive(Clone, Copy, Debug)]
pub struct GirgAddressing<'a, const D: usize> {
    girg: &'a Girg<D>,
}

impl<'a, const D: usize> GirgAddressing<'a, D> {
    /// Creates the addressing for a sampled GIRG.
    pub fn new(girg: &'a Girg<D>) -> Self {
        GirgAddressing { girg }
    }
}

impl<const D: usize> Addressing for GirgAddressing<'_, D> {
    type Address = (Point<D>, f64);

    fn address_of(&self, v: NodeId) -> Self::Address {
        (self.girg.position(v), self.girg.weight(v))
    }
}

/// The message travelling through the network: the target's address plus a
/// hop counter. Constant size — nothing else travels.
#[derive(Clone, Debug, PartialEq)]
pub struct Packet<A> {
    /// The address of the destination (Milgram's "name and address of the
    /// target person").
    pub target_address: A,
    /// Hops taken so far.
    pub hops: usize,
}

/// Everything the node currently holding the packet is allowed to see.
#[derive(Debug)]
pub struct LocalView<'a, A> {
    node: NodeId,
    own_address: A,
    neighbors: &'a [NodeId],
    neighbor_addresses: Vec<A>,
}

impl<A> LocalView<'_, A> {
    /// The node holding the packet.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// This node's own address.
    pub fn own_address(&self) -> &A {
        &self.own_address
    }

    /// The neighbors and their addresses — the §2.2 "local information".
    pub fn neighbors(&self) -> impl Iterator<Item = (NodeId, &A)> {
        self.neighbors
            .iter()
            .copied()
            .zip(self.neighbor_addresses.iter())
    }

    /// Number of neighbors.
    pub fn degree(&self) -> usize {
        self.neighbors.len()
    }
}

/// A node's decision after inspecting its [`LocalView`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decision {
    /// Hand the packet to this neighbor.
    Forward(NodeId),
    /// Give up (Algorithm 1's local-optimum failure).
    Drop,
}

/// A routing protocol expressed as a per-node program. The only inputs are
/// the local view and the packet: non-local protocols are unrepresentable.
pub trait NodeProgram<A> {
    /// Runs at the node currently holding the packet.
    fn step(&self, view: &LocalView<'_, A>, packet: &Packet<A>) -> Decision;
}

/// Algorithm 1 as a node program over GIRG addresses: forward to the
/// neighbor most likely to know the target, i.e. maximizing
/// `w_u / ‖x_u − x_t‖^d` (the normalization constants of φ are shared by
/// all candidates and cancel). Ties go to the first neighbor in adjacency
/// order, through the same [`fold_first_best`] as every other greedy
/// argmax.
#[derive(Clone, Copy, Debug, Default)]
pub struct DistributedGreedy;

impl DistributedGreedy {
    fn score<const D: usize>(address: &(Point<D>, f64), target: &Point<D>) -> f64 {
        let dist_pow_d = address.0.distance_pow_d(target);
        if dist_pow_d == 0.0 {
            f64::INFINITY
        } else {
            address.1 / dist_pow_d
        }
    }
}

impl<const D: usize> NodeProgram<(Point<D>, f64)> for DistributedGreedy {
    fn step(
        &self,
        view: &LocalView<'_, (Point<D>, f64)>,
        packet: &Packet<(Point<D>, f64)>,
    ) -> Decision {
        let target = &packet.target_address.0;
        let own = Self::score(view.own_address(), target);
        let scores: Vec<f64> = view
            .neighbor_addresses
            .iter()
            .map(|addr| Self::score(addr, target))
            .collect();
        let mut best = None;
        fold_first_best(&mut best, &scores, view.neighbors);
        match best {
            Some((score, u)) if score > own => Decision::Forward(u),
            _ => Decision::Drop,
        }
    }
}

/// Statistics of a distributed run, substantiating the §3 efficiency
/// claims.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Nodes woken over the whole run — exactly one per step.
    pub activations: usize,
    /// The largest neighborhood any awakened node had to inspect.
    pub max_degree_seen: usize,
}

/// Adapts a [`NodeProgram`] (plus its [`Addressing`]) to
/// `smallworld-net`'s [`HopPolicy`], so the single-packet [`Simulator`]
/// rides the same event loop as the traffic simulator. The adapter builds
/// the [`LocalView`] from the hop view's candidate list — the program
/// still sees only local information — and tallies [`SimStats`] through a
/// `Cell` since one adapter serves exactly one route call.
struct ProgramPolicy<'a, B: Addressing, P> {
    addressing: &'a B,
    program: &'a P,
    target_address: B::Address,
    stats: Cell<SimStats>,
}

impl<B, P> HopPolicy for ProgramPolicy<'_, B, P>
where
    B: Addressing,
    P: NodeProgram<B::Address>,
{
    type State = ();

    fn name(&self) -> &'static str {
        "node-program"
    }

    fn next_hop(&self, view: &HopView<'_>, _state: &mut ()) -> HopChoice {
        let local = LocalView {
            node: view.current,
            own_address: self.addressing.address_of(view.current),
            neighbors: view.candidates,
            neighbor_addresses: view
                .candidates
                .iter()
                .map(|&u| self.addressing.address_of(u))
                .collect(),
        };
        let packet = Packet {
            target_address: self.target_address.clone(),
            hops: view.hops as usize,
        };
        let mut stats = self.stats.get();
        stats.activations += 1;
        stats.max_degree_seen = stats.max_degree_seen.max(view.candidates.len());
        self.stats.set(stats);
        match self.program.step(&local, &packet) {
            Decision::Forward(u) => HopChoice::Forward(u),
            Decision::Drop => HopChoice::Drop,
        }
    }
}

/// Drives a [`NodeProgram`] over a graph, one node awake at a time,
/// enforcing that every forward goes to a direct neighbor.
///
/// Since the `smallworld-net` migration this is a thin wrapper: the
/// packet rides the deterministic discrete-event loop of
/// [`smallworld_net::Simulation`] (fault-free, unbounded queues), and
/// with a single injected packet the event order reduces to exactly the
/// old one-node-awake-at-a-time stepping.
#[derive(Clone, Copy, Debug)]
pub struct Simulator {
    max_steps: usize,
}

impl Simulator {
    /// Creates a simulator with the default step cap.
    pub fn new() -> Self {
        Simulator {
            max_steps: DEFAULT_MAX_STEPS,
        }
    }

    /// Creates a simulator with an explicit step cap.
    pub fn with_max_steps(max_steps: usize) -> Self {
        Simulator { max_steps }
    }

    /// Routes a packet from `s` towards `t`; the packet carries
    /// `addressing.address_of(t)` and is delivered on reaching `t`
    /// (addresses are almost surely unique in the models here, so this
    /// coincides with address equality).
    ///
    /// # Panics
    ///
    /// Panics if the program forwards to a non-neighbor — the locality
    /// violation this module exists to rule out — or if an id is out of
    /// range.
    pub fn route<B, P>(
        &self,
        graph: &Graph,
        addressing: &B,
        program: &P,
        s: NodeId,
        t: NodeId,
    ) -> (RouteRecord, SimStats)
    where
        B: Addressing,
        P: NodeProgram<B::Address>,
    {
        let policy = ProgramPolicy {
            addressing,
            program,
            target_address: addressing.address_of(t),
            stats: Cell::new(SimStats::default()),
        };
        let config = SimConfig {
            ttl: u32::try_from(self.max_steps).unwrap_or(u32::MAX),
            ..SimConfig::default()
        };
        // run_local: ProgramPolicy carries Cell-based stats, so it must
        // stay on one thread (results are identical either way).
        let report = SimBuilder::new(graph, &policy)
            .config(config)
            .shards(1)
            .build()
            .expect("single-packet simulation config is always valid")
            .run_local(SliceWorkload::new(&[Injection {
                source: s,
                target: t,
                at: 0,
            }]));
        let packet = report
            .packets
            .into_iter()
            .next()
            .expect("one injection yields one record");
        let outcome = match packet.outcome {
            PacketOutcome::Delivered => RouteOutcome::Delivered,
            PacketOutcome::DeadEnd => RouteOutcome::DeadEnd,
            PacketOutcome::Expired => RouteOutcome::MaxStepsExceeded,
            other => unreachable!("fault-free single-packet run cannot end as {other:?}"),
        };
        (
            RouteRecord {
                outcome,
                path: packet.path,
            },
            policy.stats.get(),
        )
    }
}

impl Default for Simulator {
    fn default() -> Self {
        Simulator::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::GreedyRouter;
    use crate::objective::GirgObjective;
    use crate::router::Router;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use smallworld_models::girg::GirgBuilder;

    fn girg(seed: u64) -> Girg<2> {
        let mut rng = StdRng::seed_from_u64(seed);
        GirgBuilder::<2>::new(3_000)
            .beta(2.5)
            .lambda(0.02)
            .sample(&mut rng)
            .unwrap()
    }

    /// The distributed protocol — which can only see local views — takes
    /// exactly the same routes as the centralized Algorithm 1.
    #[test]
    fn distributed_greedy_matches_centralized() {
        let girg = girg(1);
        let addressing = GirgAddressing::new(&girg);
        let objective = GirgObjective::new(&girg);
        let sim = Simulator::new();
        let mut rng = StdRng::seed_from_u64(2);
        let mut delivered = 0;
        for _ in 0..200 {
            let s = girg.random_vertex(&mut rng);
            let t = girg.random_vertex(&mut rng);
            let central = GreedyRouter::new().route_quiet(girg.graph(), &objective, s, t);
            let (distributed, _) = sim.route(girg.graph(), &addressing, &DistributedGreedy, s, t);
            assert_eq!(distributed.path, central.path, "{s}->{t}");
            assert_eq!(distributed.outcome, central.outcome);
            if distributed.is_success() {
                delivered += 1;
            }
        }
        assert!(delivered > 50);
    }

    /// Addresses read from a position/weight table.
    struct TableAddressing(Vec<(Point<2>, f64)>);

    impl Addressing for TableAddressing {
        type Address = (Point<2>, f64);

        fn address_of(&self, v: NodeId) -> Self::Address {
            self.0[v.index()]
        }
    }

    /// Neighbors 1 and 2 tie for the best φ from 0: the node program must
    /// keep the first in adjacency order, exactly as `GreedyRouter` does.
    #[test]
    fn ties_break_first_best_like_greedy_router() {
        let graph = Graph::from_edges(4, [(0u32, 1u32), (0, 2), (1, 3), (2, 3)]).unwrap();
        let positions = [
            Point::new([0.5, 0.0]),
            Point::new([0.25, 0.5]),
            Point::new([0.75, 0.5]),
            Point::new([0.5, 0.5]),
        ];
        let weights = [1.0; 4];
        let objective = GirgObjective::<2>::from_lanes(Point::flatten(&positions), &weights, 4.0);
        let addressing = TableAddressing(positions.iter().map(|&p| (p, 1.0)).collect());
        let (s, t) = (NodeId::new(0), NodeId::new(3));
        let central = GreedyRouter::new().route_quiet(&graph, &objective, s, t);
        let (distributed, _) =
            Simulator::new().route(&graph, &addressing, &DistributedGreedy, s, t);
        assert_eq!(central.path, [0, 1, 3].map(NodeId::new));
        assert_eq!(distributed, central);
    }

    /// §3's energy claim: one activation per hop (plus the final delivery
    /// check, which needs no neighbor queries).
    #[test]
    fn one_activation_per_step() {
        let girg = girg(3);
        let addressing = GirgAddressing::new(&girg);
        let sim = Simulator::new();
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..50 {
            let s = girg.random_vertex(&mut rng);
            let t = girg.random_vertex(&mut rng);
            let (record, stats) = sim.route(girg.graph(), &addressing, &DistributedGreedy, s, t);
            match record.outcome {
                RouteOutcome::Delivered => assert_eq!(stats.activations, record.hops()),
                RouteOutcome::DeadEnd => assert_eq!(stats.activations, record.hops() + 1),
                RouteOutcome::MaxStepsExceeded => {}
            }
        }
    }

    /// A malicious program that tries to teleport is caught by the
    /// simulator's locality check.
    #[test]
    #[should_panic(expected = "locality violation")]
    fn teleporting_program_is_rejected() {
        struct Teleport;
        impl<A> NodeProgram<A> for Teleport {
            fn step(&self, view: &LocalView<'_, A>, _packet: &Packet<A>) -> Decision {
                // forward to a node that is (almost surely) not a neighbor
                Decision::Forward(NodeId::new(view.node().raw().wrapping_add(1_000)))
            }
        }
        let girg = girg(5);
        let addressing = GirgAddressing::new(&girg);
        let sim = Simulator::new();
        let mut rng = StdRng::seed_from_u64(6);
        // find a source with at least one neighbor so the step runs
        let s = loop {
            let v = girg.random_vertex(&mut rng);
            if girg.graph().degree(v) > 0 {
                break v;
            }
        };
        let t = girg.random_vertex(&mut rng);
        let _ = sim.route(girg.graph(), &addressing, &Teleport, s, t);
    }

    #[test]
    fn local_view_accessors() {
        let girg = girg(7);
        let addressing = GirgAddressing::new(&girg);
        // build a view by hand through a trivial program
        struct Inspect;
        impl<const D: usize> NodeProgram<(Point<D>, f64)> for Inspect {
            fn step(
                &self,
                view: &LocalView<'_, (Point<D>, f64)>,
                _packet: &Packet<(Point<D>, f64)>,
            ) -> Decision {
                assert_eq!(view.degree(), view.neighbors().count());
                Decision::Drop
            }
        }
        let sim = Simulator::new();
        let mut rng = StdRng::seed_from_u64(8);
        let s = girg.random_vertex(&mut rng);
        let t = girg.random_vertex(&mut rng);
        if s != t {
            let (record, _) = sim.route(girg.graph(), &addressing, &Inspect, s, t);
            assert_eq!(record.outcome, RouteOutcome::DeadEnd);
        }
    }
}

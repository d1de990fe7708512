//! [`RouteObserver`] implementations that feed the metrics registry.
//!
//! [`crate::observe`] defines the observer protocol; this module provides
//! the two implementations the experiment harness uses (moved here from
//! `smallworld-obs` so the observability crate stays free of routing
//! dependencies):
//!
//! * [`MetricsRouteObserver`] — folds every event into the global
//!   [registry](smallworld_obs::metrics): the `route.*` counters and the
//!   `route.hops_per_route` HDR histogram that end up in JSONL artifacts.
//! * [`CountingObserver`] — a plain local tally, mainly for tests that
//!   assert routers emit the events they should without touching global
//!   state.

use std::sync::Arc;

use smallworld_graph::NodeId;
use smallworld_obs::metrics::{counter, hdr, Counter};
use smallworld_obs::HdrHistogram;

use crate::greedy::RouteOutcome;
use crate::observe::RouteObserver;

/// Metric names emitted by [`MetricsRouteObserver`], in one place so the
/// artifact docs and the observer cannot drift apart.
pub mod names {
    /// Routes started.
    pub const STARTED: &str = "route.started";
    /// Forward hops taken (new territory).
    pub const HOPS: &str = "route.hops";
    /// Backtracking moves through visited territory.
    pub const BACKTRACKS: &str = "route.backtracks";
    /// Routes that failed in a local optimum / exhausted component.
    pub const DEAD_ENDS: &str = "route.dead_ends";
    /// Routes delivered to the target.
    pub const DELIVERED: &str = "route.delivered";
    /// Routes that ran out of step budget.
    pub const MAX_STEPS: &str = "route.max_steps_exceeded";
    /// HDR histogram of total moves (forward hops + backtracks) per
    /// finished route, whatever its outcome.
    pub const HOPS_PER_ROUTE: &str = "route.hops_per_route";
}

/// Streams routing events into the global metrics registry.
///
/// Counter and histogram handles are interned once at construction, so a
/// hop or backtrack costs a single relaxed atomic add. `on_finish` also
/// records the route's total moves in the `route.hops_per_route` HDR
/// histogram (a few relaxed atomics; the first record on a thread's shard
/// allocates that shard's buckets). Every finished route lands there,
/// delivered or not, backtracks included, so its quantiles describe the
/// observed routes, not only the delivered ones. The observer can be
/// created per route or reused, and is cheap either way.
#[derive(Clone, Debug)]
pub struct MetricsRouteObserver {
    started: Arc<Counter>,
    hops: Arc<Counter>,
    backtracks: Arc<Counter>,
    dead_ends: Arc<Counter>,
    delivered: Arc<Counter>,
    max_steps: Arc<Counter>,
    hops_per_route: Arc<HdrHistogram>,
}

impl MetricsRouteObserver {
    /// Creates an observer bound to the global registry's `route.*` metrics.
    pub fn new() -> Self {
        MetricsRouteObserver {
            started: counter(names::STARTED),
            hops: counter(names::HOPS),
            backtracks: counter(names::BACKTRACKS),
            dead_ends: counter(names::DEAD_ENDS),
            delivered: counter(names::DELIVERED),
            max_steps: counter(names::MAX_STEPS),
            hops_per_route: hdr(names::HOPS_PER_ROUTE),
        }
    }
}

impl Default for MetricsRouteObserver {
    fn default() -> Self {
        MetricsRouteObserver::new()
    }
}

impl RouteObserver for MetricsRouteObserver {
    #[inline]
    fn on_start(&mut self, _source: NodeId, _target: NodeId) {
        self.started.inc();
    }

    #[inline]
    fn on_hop(&mut self, _vertex: NodeId, _score: f64) {
        self.hops.inc();
    }

    #[inline]
    fn on_backtrack(&mut self, _vertex: NodeId) {
        self.backtracks.inc();
    }

    #[inline]
    fn on_dead_end(&mut self, _vertex: NodeId) {
        self.dead_ends.inc();
    }

    #[inline]
    fn on_finish(&mut self, outcome: RouteOutcome, hops: usize) {
        match outcome {
            RouteOutcome::Delivered => self.delivered.inc(),
            RouteOutcome::DeadEnd => {} // already counted by on_dead_end
            RouteOutcome::MaxStepsExceeded => self.max_steps.inc(),
        }
        self.hops_per_route.record(hops as u64);
    }
}

/// A local, allocation-free tally of routing events.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CountingObserver {
    /// `on_start` events seen.
    pub started: u64,
    /// `on_hop` events seen.
    pub hops: u64,
    /// `on_backtrack` events seen.
    pub backtracks: u64,
    /// `on_dead_end` events seen.
    pub dead_ends: u64,
    /// Finished routes by outcome: `[delivered, dead_end, max_steps]`.
    pub finished: [u64; 3],
}

impl CountingObserver {
    /// A fresh, all-zero tally.
    pub fn new() -> Self {
        CountingObserver::default()
    }

    /// Total finished routes.
    pub fn finished_total(&self) -> u64 {
        self.finished.iter().sum()
    }
}

impl RouteObserver for CountingObserver {
    fn on_start(&mut self, _source: NodeId, _target: NodeId) {
        self.started += 1;
    }

    fn on_hop(&mut self, _vertex: NodeId, _score: f64) {
        self.hops += 1;
    }

    fn on_backtrack(&mut self, _vertex: NodeId) {
        self.backtracks += 1;
    }

    fn on_dead_end(&mut self, _vertex: NodeId) {
        self.dead_ends += 1;
    }

    fn on_finish(&mut self, outcome: RouteOutcome, _hops: usize) {
        let slot = match outcome {
            RouteOutcome::Delivered => 0,
            RouteOutcome::DeadEnd => 1,
            RouteOutcome::MaxStepsExceeded => 2,
        };
        self.finished[slot] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::BY_ID;
    use crate::patching::PhiDfsRouter;
    use crate::router::Router;
    use crate::GreedyRouter;
    use smallworld_graph::Graph;

    #[test]
    fn counting_observer_sees_greedy_hops() {
        let g = Graph::from_edges(4, [(0u32, 1u32), (1, 2), (2, 3)]).unwrap();
        let mut obs = CountingObserver::new();
        let r = GreedyRouter::new().route(&g, &BY_ID, NodeId::new(0), NodeId::new(3), &mut obs);
        assert!(r.is_success());
        assert_eq!(obs.started, 1);
        assert_eq!(obs.hops, 3);
        assert_eq!(obs.backtracks, 0);
        assert_eq!(obs.dead_ends, 0);
        assert_eq!(obs.finished, [1, 0, 0]);
    }

    #[test]
    fn counting_observer_sees_dead_end() {
        // 0-3, 3-1: from 0 greedy climbs to 3, where the only other
        // neighbor 1 is worse -> dead end at 3 after one hop
        let g = Graph::from_edges(5, [(0u32, 3u32), (3, 1)]).unwrap();
        let mut obs = CountingObserver::new();
        let r = GreedyRouter::new().route(&g, &BY_ID, NodeId::new(0), NodeId::new(4), &mut obs);
        assert!(!r.is_success());
        assert_eq!(obs.hops, 1);
        assert_eq!(obs.dead_ends, 1);
        assert_eq!(obs.finished, [0, 1, 0]);
    }

    #[test]
    fn phi_dfs_emits_backtracks_and_hops_cover_the_path() {
        // forces backtracking: greedy from 0 runs into the 6-1-2 branch,
        // must come back through 6 to reach 3-4-7
        let g =
            Graph::from_edges(8, [(0u32, 6u32), (6, 1), (1, 2), (6, 3), (3, 4), (4, 7)]).unwrap();
        let mut obs = CountingObserver::new();
        let r = PhiDfsRouter::new().route(&g, &BY_ID, NodeId::new(0), NodeId::new(7), &mut obs);
        assert!(r.is_success());
        assert!(obs.backtracks > 0, "this instance requires backtracking");
        // every traversed edge is either a hop or a backtrack
        assert_eq!(obs.hops + obs.backtracks, r.hops() as u64);
    }

    #[test]
    fn metrics_observer_feeds_the_registry() {
        let registry = smallworld_obs::metrics::Registry::global();
        let before = registry.snapshot();
        let g = Graph::from_edges(4, [(0u32, 1u32), (1, 2), (2, 3)]).unwrap();
        let mut obs = MetricsRouteObserver::new();
        let r = GreedyRouter::new().route(&g, &BY_ID, NodeId::new(0), NodeId::new(3), &mut obs);
        assert!(r.is_success());
        let delta = registry.snapshot().since(&before);
        assert!(delta.counters.get(names::HOPS).copied().unwrap_or(0) >= 3);
        assert!(delta.counters.get(names::DELIVERED).copied().unwrap_or(0) >= 1);
        let h = delta
            .hdr
            .get(names::HOPS_PER_ROUTE)
            .expect("hops histogram moved");
        assert!(h.count >= 1);
    }
}

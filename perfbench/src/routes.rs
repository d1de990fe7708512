//! The measurement loop shared by the routing workloads: equal rounds over
//! the seed's pair list, every route checked against its reference digest.
//!
//! A shared host only ever adds time: co-tenants slow memory access by up
//! to 2x for seconds to minutes at a time, on the CPU, not in the run
//! queue. Every round routes the same pairs in the same order, so each
//! route's latency is its fastest repeat over the run's rounds, the cost
//! with the interference removed; the route metrics are taken over those
//! per-route bests. In traced mode every round is followed by a traced
//! round (hop wrappers on) and a round with the no-op observer, and the
//! overhead shares are medians over those triples.

use std::time::{Duration, Instant};

use smallworld_core::{RouteRecord, RouteScratch};
use smallworld_graph::NodeId;

use crate::host;
use crate::inputs::{route_digest, RouteRefs};
use crate::stats::{median, ns, quantile, ratio};
use crate::trace::HopTrace;

/// Routes routed before timing starts, so the LRU and page cache are warm.
const WARMUP_ROUTES: usize = 200;
/// Rounds a run makes at least, whatever `--seconds` says.
const MIN_ROUNDS: usize = 3;

/// One workload's way of routing a pair, in the three round kinds.
pub trait RoutePath {
    /// Routes `s → t` as the workload serves it, with its metrics observer.
    fn route(&mut self, s: NodeId, t: NodeId, scratch: &mut RouteScratch) -> RouteRecord;

    /// As [`RoutePath::route`], with the no-op observer.
    fn route_noop(&mut self, s: NodeId, t: NodeId, scratch: &mut RouteScratch) -> RouteRecord;

    /// As [`RoutePath::route`], timing prepare, route and every hop into
    /// `trace`.
    fn route_traced(
        &mut self,
        s: NodeId,
        t: NodeId,
        scratch: &mut RouteScratch,
        trace: &HopTrace,
    ) -> RouteRecord;

    /// Adjacency cache `(hits, misses)` so far; `(0, 0)` without a cache.
    fn lru(&self) -> (u64, u64) {
        (0, 0)
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Plain,
    Traced,
    Noop,
}

/// One round over the whole pair list.
struct Round {
    wall: Duration,
    failed: u64,
    delivered: u64,
    hops: u64,
}

/// Everything the rounds of one run measured.
pub struct Routed {
    pairs: usize,
    /// Each route's fastest plain-round latency, in pair order.
    best_ns: Vec<u64>,
    plain: Vec<Round>,
    traced: Vec<Round>,
    noop: Vec<Round>,
    trace: HopTrace,
    lru: (u64, u64),
    faults: (u64, u64),
}

/// Routes the pair list once; a plain round lowers `best_ns` to each
/// route's latency where that is faster.
fn round<P: RoutePath>(
    path: &mut P,
    mode: Mode,
    refs: &RouteRefs,
    trace: &HopTrace,
    scratch: &mut RouteScratch,
    best_ns: &mut [u64],
) -> Round {
    let (mut failed, mut delivered, mut hops) = (0, 0, 0);
    let start = Instant::now();
    for (i, (&(s, t), &expected)) in refs.pairs.iter().zip(&refs.digests).enumerate() {
        let t0 = Instant::now();
        let record = match mode {
            Mode::Plain => path.route(s, t, scratch),
            Mode::Traced => path.route_traced(s, t, scratch, trace),
            Mode::Noop => path.route_noop(s, t, scratch),
        };
        if mode == Mode::Plain {
            best_ns[i] = best_ns[i].min(t0.elapsed().as_nanos() as u64);
        }
        failed += u64::from(route_digest(&record) != expected);
        delivered += u64::from(record.is_success());
        hops += record.hops() as u64;
        scratch.recycle(record.path);
    }
    Round {
        wall: start.elapsed(),
        failed,
        delivered,
        hops,
    }
}

/// Routes `refs`' pair list in rounds until `seconds` have passed (and at
/// least [`MIN_ROUNDS`] rounds are done), after an untimed warm-up.
pub fn measure<P: RoutePath>(path: &mut P, refs: &RouteRefs, seconds: f64, traced: bool) -> Routed {
    let mut scratch = RouteScratch::with_path_capacity(64);
    for &(s, t) in refs.pairs.iter().take(WARMUP_ROUTES) {
        let record = path.route(s, t, &mut scratch);
        scratch.recycle(record.path);
    }
    let mut out = Routed {
        pairs: refs.pairs.len(),
        best_ns: vec![u64::MAX; refs.pairs.len()],
        plain: Vec::new(),
        traced: Vec::new(),
        noop: Vec::new(),
        trace: HopTrace::default(),
        lru: (0, 0),
        faults: (0, 0),
    };
    let start = Instant::now();
    loop {
        let r = round(
            path,
            Mode::Plain,
            refs,
            &out.trace,
            &mut scratch,
            &mut out.best_ns,
        );
        out.plain.push(r);
        if traced {
            let (faults, lru) = (host::faults(), path.lru());
            let r = round(
                path,
                Mode::Traced,
                refs,
                &out.trace,
                &mut scratch,
                &mut out.best_ns,
            );
            out.traced.push(r);
            let (faults_after, lru_after) = (host::faults(), path.lru());
            out.faults.0 += faults_after.0 - faults.0;
            out.faults.1 += faults_after.1 - faults.1;
            out.lru.0 += lru_after.0 - lru.0;
            out.lru.1 += lru_after.1 - lru.1;
            let r = round(
                path,
                Mode::Noop,
                refs,
                &out.trace,
                &mut scratch,
                &mut out.best_ns,
            );
            out.noop.push(r);
        }
        if out.plain.len() >= MIN_ROUNDS && start.elapsed().as_secs_f64() >= seconds {
            return out;
        }
    }
}

impl Routed {
    /// Routes attempted over every round.
    pub fn attempted(&self) -> u64 {
        (self.pairs * (self.plain.len() + self.traced.len() + self.noop.len())) as u64
    }

    /// Routes whose digest differs from the reference, over every round.
    pub fn failed(&self) -> u64 {
        self.plain
            .iter()
            .chain(&self.traced)
            .chain(&self.noop)
            .map(|r| r.failed)
            .sum()
    }

    /// The end-to-end route metrics (over the per-route bests) and, in
    /// traced mode, the per-route and per-hop layer metrics.
    pub fn values(&self) -> Vec<(&'static str, f64)> {
        let first = &self.plain[0];
        let rates: Vec<String> = self
            .plain
            .iter()
            .map(|r| format!("{:.0}", self.pairs as f64 / r.wall.as_secs_f64()))
            .collect();
        eprintln!(
            "perfbench routes: {} pairs x {} rounds, delivered_frac {:.6}, mean_hops {:.6}, \
             routes/s by round [{}]",
            self.pairs,
            self.plain.len(),
            first.delivered as f64 / self.pairs as f64,
            first.hops as f64 / self.pairs as f64,
            rates.join(" "),
        );
        let mut best = self.best_ns.clone();
        best.sort_unstable();
        let best_s: f64 = best.iter().map(|&b| b as f64 / 1e9).sum();
        let mut values = vec![
            ("throughput_per_s", self.pairs as f64 / best_s),
            ("op_p50_us", quantile(&best, 0.5) as f64 / 1e3),
            ("op_p99_us", quantile(&best, 0.99) as f64 / 1e3),
        ];
        if self.traced.is_empty() {
            return values;
        }
        let t = &self.trace;
        let routes = t.routes() as f64;
        let scans = t.sorted_scans();
        let wall: f64 = self.traced.iter().map(|r| ns(r.wall)).sum();
        let hops: u64 = self.traced.iter().map(|r| r.hops).sum();
        let share = |slow: &[Round], base: &[Round]| {
            median(
                slow.iter()
                    .zip(base)
                    .map(|(a, b)| ns(a.wall) / ns(b.wall) - 1.0)
                    .collect(),
            )
        };
        values.extend([
            ("core.prepare_ns_per_route", ratio(t.prepare_ns(), routes)),
            ("core.route_ns_per_route", ratio(t.route_ns(), routes)),
            (
                "store.fetch_ns_per_hop",
                ratio(t.fetch_ns(), scans.len() as f64),
            ),
            (
                "core.score_ns_per_hop",
                ratio(t.score_ns(), scans.len() as f64),
            ),
            (
                "core.candidates_per_hop",
                ratio(t.candidates(), scans.len() as f64),
            ),
            (
                "core.candidates_per_hop_p99",
                scans
                    .last()
                    .map_or(0.0, |_| f64::from(quantile(&scans, 0.99))),
            ),
            ("core.ns_per_candidate", ratio(t.score_ns(), t.candidates())),
            ("core.hops_per_route", ratio(hops as f64, routes)),
            (
                "store.lru_hit_frac",
                ratio(self.lru.0 as f64, (self.lru.0 + self.lru.1) as f64),
            ),
            (
                "store.decoded_ids_per_route",
                ratio(t.decoded_ids(), routes),
            ),
            (
                "store.minor_faults_per_route",
                ratio(self.faults.0 as f64, routes),
            ),
            ("store.major_faults", self.faults.1 as f64),
            ("obs.observer_overhead_frac", share(&self.plain, &self.noop)),
            ("trace.overhead_frac", share(&self.traced, &self.plain)),
            // the route span holds the fetch and score spans, so prepare +
            // route is the sum of every layer's self time
            (
                "trace.unattributed_frac",
                1.0 - ratio(t.prepare_ns() + t.route_ns(), wall),
            ),
        ]);
        values
    }
}

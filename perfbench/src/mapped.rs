//! mapped-1m: greedy routing straight off the memory-mapped store.
//!
//! Every call this workload makes into the store and core layers is in
//! this file: [`ready`] (open, `mapped_graph`, packed lanes, params, φ
//! objective) and [`MappedPath`] (`ViewRouter::route_view` over a
//! `MappedCursor`). gen-200k reuses [`ready`] for its reopen, so both
//! workloads define "set-up" the same way.

use std::path::Path;
use std::time::Instant;

use smallworld_core::{
    MetricsRouteObserver, NoopObserver, Objective, PackedGirgObjective, RouteRecord, RouteScratch,
    ViewRouter,
};
use smallworld_graph::NodeId;
use smallworld_store::{GraphStore, MappedCursor, MappedGraph};

use crate::inputs::{self, Spec};
use crate::routes::{self, RoutePath};
use crate::stats::fastest;
use crate::trace::{HopTrace, TracedCursor};
use crate::{host, Measured, RunOpts};

/// Set-ups per run, half before the routes and half after so that they
/// span the run; `setup_s` is the fastest.
pub const SETUPS: usize = 6;

/// Seconds spent in each set-up, split into open and view.
#[derive(Default)]
pub struct SetupTimes {
    pub open: Vec<f64>,
    pub view: Vec<f64>,
}

impl SetupTimes {
    pub fn fastest_total(&self) -> f64 {
        let totals: Vec<f64> = self
            .open
            .iter()
            .zip(&self.view)
            .map(|(o, v)| o + v)
            .collect();
        fastest(&totals)
    }
}

/// Opens the store at `path` and makes it ready to route — `open`, then
/// `mapped_graph`, the packed position and weight lanes, the params and
/// the φ objective — recording the time, then hands the parts to `f`.
pub fn ready<R>(
    path: &Path,
    times: &mut SetupTimes,
    f: impl FnOnce(&GraphStore, &MappedGraph<'_>, &PackedGirgObjective<'_, 2>) -> R,
) -> Result<R, String> {
    let t0 = Instant::now();
    let store = GraphStore::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    let t1 = Instant::now();
    let mapped = store.mapped_graph().map_err(|e| format!("map: {e}"))?;
    let positions = store
        .packed_positions()
        .map_err(|e| format!("positions: {e}"))?;
    let weights = store
        .packed_weights()
        .map_err(|e| format!("weights: {e}"))?;
    let (params, _) = store.params().map_err(|e| format!("params: {e}"))?;
    let objective =
        PackedGirgObjective::<2>::new(&positions, &weights, params.wmin * params.intensity);
    let t2 = Instant::now();
    times.open.push((t1 - t0).as_secs_f64());
    times.view.push((t2 - t1).as_secs_f64());
    Ok(f(&store, &mapped, &objective))
}

struct MappedPath<'m, 'a> {
    objective: &'m PackedGirgObjective<'a, 2>,
    cursor: MappedCursor<'m>,
    router: ViewRouter,
    obs: MetricsRouteObserver,
}

impl RoutePath for MappedPath<'_, '_> {
    fn route(&mut self, s: NodeId, t: NodeId, scratch: &mut RouteScratch) -> RouteRecord {
        let kernel = self.objective.prepare(t);
        self.router
            .route_view(&mut self.cursor, &kernel, s, &mut self.obs, scratch)
    }

    fn route_noop(&mut self, s: NodeId, t: NodeId, scratch: &mut RouteScratch) -> RouteRecord {
        let kernel = self.objective.prepare(t);
        self.router
            .route_view(&mut self.cursor, &kernel, s, &mut NoopObserver, scratch)
    }

    fn route_traced(
        &mut self,
        s: NodeId,
        t: NodeId,
        scratch: &mut RouteScratch,
        trace: &HopTrace,
    ) -> RouteRecord {
        let t0 = Instant::now();
        let kernel = self.objective.prepare(t);
        let t1 = Instant::now();
        let mut view = TracedCursor {
            inner: &mut self.cursor,
            trace,
        };
        let record = self
            .router
            .route_view(&mut view, &kernel, s, &mut self.obs, scratch);
        trace.route(t1 - t0, t1.elapsed());
        record
    }

    fn lru(&self) -> (u64, u64) {
        (self.cursor.hits(), self.cursor.misses())
    }
}

pub fn run(spec: &Spec, opts: &RunOpts) -> Result<Measured, String> {
    let refs = inputs::load_route_refs(spec, opts.seed, &opts.work)?;
    let path = spec.graph_path(&opts.work);
    let mut times = SetupTimes::default();
    for _ in 1..SETUPS / 2 {
        ready(&path, &mut times, |_, _, _| ())?;
    }
    let (routed, edges) = ready(&path, &mut times, |store, mapped, objective| {
        let mut route_path = MappedPath {
            objective,
            cursor: mapped.cursor(),
            router: ViewRouter::new(),
            obs: MetricsRouteObserver::new(),
        };
        let routed = routes::measure(&mut route_path, &refs, opts.seconds, opts.trace);
        (routed, store.edge_count())
    })?;
    while times.open.len() < SETUPS {
        ready(&path, &mut times, |_, _, _| ())?;
    }
    let file_bytes = std::fs::metadata(&path)
        .map_err(|e| format!("stat: {e}"))?
        .len();
    let mut values = routed.values();
    values.extend([
        ("setup_s", times.fastest_total()),
        ("peak_rss_mib", host::peak_rss_mib()),
        ("store.open_ms", fastest(&times.open) * 1e3),
        ("store.view_ms", fastest(&times.view) * 1e3),
        ("store.bytes_per_edge", file_bytes as f64 / edges as f64),
    ]);
    let attempted = routed.attempted();
    let failed = if refs.committed_ok {
        routed.failed()
    } else {
        attempted
    };
    Measured::new(attempted, failed, opts.trace, values)
}

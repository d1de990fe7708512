//! indexed-1m: greedy routing over the decoded graph and the in-RAM SoA
//! routing index.
//!
//! Every call this workload makes into the store and core layers is in
//! this file: [`ready`] (open, `load_girg`, `RoutingIndex::for_girg`,
//! `IndexedGirgObjective`) and [`IndexedPath`]
//! (`GreedyRouter::route_prepared` over the decoded CSR).

use std::path::Path;
use std::time::Instant;

use smallworld_core::{
    GirgObjective, GreedyRouter, IndexedGirgObjective, MetricsRouteObserver, NoopObserver,
    Objective, RouteRecord, RouteScratch, Router, RoutingIndex,
};
use smallworld_graph::{Graph, NodeId};
use smallworld_models::girg::Girg;
use smallworld_store::GraphStore;

use crate::inputs::{self, Spec};
use crate::mapped::SETUPS;
use crate::routes::{self, RoutePath};
use crate::stats::fastest;
use crate::trace::{HopTrace, TracedKernel};
use crate::{host, Measured, RunOpts};

/// Seconds spent in each set-up: open, full decode, index build.
#[derive(Default)]
struct SetupTimes {
    open: Vec<f64>,
    load: Vec<f64>,
    index: Vec<f64>,
}

/// Opens the store at `path`, decodes it (`load_girg`), and builds the
/// routing index and indexed φ objective, recording the time, then hands
/// the parts to `f`. The store is closed once decoded.
fn ready<R>(
    path: &Path,
    times: &mut SetupTimes,
    f: impl FnOnce(&Girg<2>, &RoutingIndex<2>, &IndexedGirgObjective<'_, 2>) -> R,
) -> Result<R, String> {
    let t0 = Instant::now();
    let store = GraphStore::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    let t1 = Instant::now();
    let girg = store.load_girg::<2>().map_err(|e| format!("load: {e}"))?;
    drop(store);
    let t2 = Instant::now();
    let index = RoutingIndex::for_girg(&girg);
    let objective = IndexedGirgObjective::new(GirgObjective::new(&girg), &index);
    let t3 = Instant::now();
    times.open.push((t1 - t0).as_secs_f64());
    times.load.push((t2 - t1).as_secs_f64());
    times.index.push((t3 - t2).as_secs_f64());
    Ok(f(&girg, &index, &objective))
}

struct IndexedPath<'m, 'a> {
    graph: &'m Graph,
    objective: &'m IndexedGirgObjective<'a, 2>,
    router: GreedyRouter,
    obs: MetricsRouteObserver,
}

impl RoutePath for IndexedPath<'_, '_> {
    fn route(&mut self, s: NodeId, t: NodeId, scratch: &mut RouteScratch) -> RouteRecord {
        let kernel = self.objective.prepare(t);
        self.router
            .route_prepared(self.graph, &kernel, s, &mut self.obs, scratch)
    }

    fn route_noop(&mut self, s: NodeId, t: NodeId, scratch: &mut RouteScratch) -> RouteRecord {
        let kernel = self.objective.prepare(t);
        self.router
            .route_prepared(self.graph, &kernel, s, &mut NoopObserver, scratch)
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
        let traced = TracedKernel {
            inner: &kernel,
            trace,
        };
        let record = self
            .router
            .route_prepared(self.graph, &traced, s, &mut self.obs, scratch);
        trace.route(t1 - t0, t1.elapsed());
        record
    }
}

pub fn run(spec: &Spec, opts: &RunOpts) -> Result<Measured, String> {
    let refs = inputs::load_route_refs(spec, opts.seed, &opts.work)?;
    let path = spec.graph_path(&opts.work);
    let mut times = SetupTimes::default();
    for _ in 1..SETUPS / 2 {
        ready(&path, &mut times, |_, _, _| ())?;
    }
    let (routed, edges, index_bytes_per_slot) =
        ready(&path, &mut times, |girg, index, objective| {
            let mut route_path = IndexedPath {
                graph: girg.graph(),
                objective,
                router: GreedyRouter::new(),
                obs: MetricsRouteObserver::new(),
            };
            let routed = routes::measure(&mut route_path, &refs, opts.seconds, opts.trace);
            let per_slot = index.bytes() as f64 / index.entry_count() as f64;
            (routed, girg.graph().edge_count(), per_slot)
        })?;
    while times.open.len() < SETUPS {
        ready(&path, &mut times, |_, _, _| ())?;
    }
    let file_bytes = std::fs::metadata(&path)
        .map_err(|e| format!("stat: {e}"))?
        .len();
    let total: Vec<f64> = (0..times.open.len())
        .map(|i| times.open[i] + times.load[i] + times.index[i])
        .collect();
    let mut values = routed.values();
    values.extend([
        ("setup_s", fastest(&total)),
        ("peak_rss_mib", host::peak_rss_mib()),
        ("store.open_ms", fastest(&times.open) * 1e3),
        ("store.load_ms", fastest(&times.load) * 1e3),
        ("store.bytes_per_edge", file_bytes as f64 / edges as f64),
        ("core.index_build_ms", fastest(&times.index) * 1e3),
        ("core.index_bytes_per_slot", index_bytes_per_slot),
    ]);
    let attempted = routed.attempted();
    let failed = if refs.committed_ok {
        routed.failed()
    } else {
        attempted
    };
    Measured::new(attempted, failed, opts.trace, values)
}

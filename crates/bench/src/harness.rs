//! Deterministic seeding, parallel Monte-Carlo, and routing aggregates.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use smallworld_analysis::{Proportion, Summary};
use smallworld_core::{
    MetricsRouteObserver, Objective, RouteObserver, RouteRecord, RouteScratch, Router,
};
use smallworld_graph::analytics::{pair_distances_with, MsBfsScratch};
use smallworld_graph::{Components, Graph, NodeId, Permutation};
use smallworld_par::{chunk_ranges, Pool};

/// Experiment size: `Quick` for smoke tests / CI, `Full` for the numbers
/// recorded in `EXPERIMENTS.md`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-scale runs with reduced `n` and repetition counts.
    Quick,
    /// The full parameter grid.
    #[default]
    Full,
}

impl Scale {
    /// Parses a scale name, case-insensitively: `"quick"` or `"full"`.
    pub fn parse(value: &str) -> Option<Scale> {
        match value.to_ascii_lowercase().as_str() {
            "quick" => Some(Scale::Quick),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }

    /// Reads the scale from the process environment and CLI arguments
    /// (`--quick` / `--full` take precedence over `SMALLWORLD_SCALE`).
    ///
    /// An unrecognized `SMALLWORLD_SCALE` value falls back to
    /// [`Scale::Full`] with a warning on stderr, instead of being silently
    /// treated as the full battery.
    pub fn from_env() -> Scale {
        let args: Vec<String> = std::env::args().collect();
        if args.iter().any(|a| a == "--quick") {
            return Scale::Quick;
        }
        if args.iter().any(|a| a == "--full") {
            return Scale::Full;
        }
        match std::env::var("SMALLWORLD_SCALE") {
            Ok(value) => Scale::parse(&value).unwrap_or_else(|| {
                eprintln!(
                    "warning: unrecognized SMALLWORLD_SCALE={value:?} \
                     (expected \"quick\" or \"full\"); running at full scale"
                );
                Scale::Full
            }),
            Err(_) => Scale::Full,
        }
    }

    /// Picks `quick` or `full` value.
    pub fn pick<T>(self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

pub use smallworld_par::split_seed;

/// Runs `tasks` independent jobs on the ambient thread pool and collects
/// the results in task order. Each job receives its index and a seed
/// derived deterministically from `master_seed` via [`split_seed`], so runs
/// are bitwise-reproducible regardless of thread scheduling — and of the
/// thread count: `SMALLWORLD_THREADS=1` produces the same results as the
/// default pool (see [`smallworld_par::Pool`]).
///
/// Each task's wall-clock time is recorded in the `harness.task_ns` metrics
/// histogram (with a matching `harness.tasks` counter), so artifacts show
/// the Monte-Carlo load distribution for free.
pub fn parallel_map<T, F>(tasks: usize, master_seed: u64, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, u64) -> T + Sync,
{
    let task_counter = smallworld_obs::metrics::counter("harness.tasks");
    let task_timings = smallworld_obs::metrics::histogram("harness.task_ns");
    Pool::from_env().map_seeded(tasks, master_seed, |i, seed| {
        let started = std::time::Instant::now();
        let out = f(i, seed);
        task_counter.inc();
        task_timings.record_duration(started.elapsed());
        out
    })
}

/// The outcome of one routing trial.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrialOutcome {
    /// Whether the packet was delivered.
    pub success: bool,
    /// Hops taken (only meaningful on success for failure-free analysis,
    /// but recorded either way).
    pub hops: usize,
    /// Stretch versus the BFS shortest path, when measured and delivered.
    pub stretch: Option<f64>,
    /// Whether source and target shared a connected component.
    pub same_component: bool,
}

/// Routes `pairs` uniformly random source/target pairs, records outcomes,
/// and reports every routing event to `obs` (pass
/// [`NoopObserver`](smallworld_core::NoopObserver) to route unobserved).
///
/// Pairs with `s == t` are redrawn. When `measure_stretch` is set, each
/// successful route also runs a bidirectional BFS. The observer receives
/// the concatenated event streams of all `pairs` routes, in trial order;
/// trial outcomes do not depend on the observer.
#[allow(clippy::too_many_arguments)]
pub fn route_random_pairs_observed<R, O, Obs>(
    graph: &Graph,
    objective: &O,
    router: &R,
    components: &Components,
    pairs: usize,
    measure_stretch: bool,
    rng: &mut StdRng,
    obs: &mut Obs,
) -> Vec<TrialOutcome>
where
    R: Router,
    O: Objective,
    Obs: RouteObserver,
{
    route_pairs_impl(graph, objective, router, components, pairs, measure_stretch, false, rng, obs)
}

/// Like [`route_random_pairs_observed`], but only pairs within one
/// component are drawn (redrawing until one is found).
///
/// Use this for backtracking patchers: on a cross-component pair they
/// correctly — but expensively — exhaust the source's component before
/// failing, which measures nothing the theorems speak about (Theorem 3.4 is
/// conditional on a shared component).
///
/// # Panics
///
/// Panics if no two vertices share a component.
#[allow(clippy::too_many_arguments)]
pub fn route_random_connected_pairs_observed<R, O, Obs>(
    graph: &Graph,
    objective: &O,
    router: &R,
    components: &Components,
    pairs: usize,
    measure_stretch: bool,
    rng: &mut StdRng,
    obs: &mut Obs,
) -> Vec<TrialOutcome>
where
    R: Router,
    O: Objective,
    Obs: RouteObserver,
{
    assert!(
        components.largest_size() >= 2,
        "no two vertices share a component"
    );
    route_pairs_impl(graph, objective, router, components, pairs, measure_stretch, true, rng, obs)
}

/// Like [`route_random_pairs_observed`], but both endpoints are drawn
/// uniformly from the **largest** connected component. Every drawn pair is
/// connected by construction, so a failed trial means the router got stuck
/// — disconnection is factored out entirely (report it separately, e.g. via
/// [`Components::giant_fraction`]).
///
/// # Panics
///
/// Panics if the largest component has fewer than two vertices.
#[allow(clippy::too_many_arguments)]
pub fn route_random_giant_pairs_observed<R, O, Obs>(
    graph: &Graph,
    objective: &O,
    router: &R,
    components: &Components,
    pairs: usize,
    measure_stretch: bool,
    rng: &mut StdRng,
    obs: &mut Obs,
) -> Vec<TrialOutcome>
where
    R: Router,
    O: Objective,
    Obs: RouteObserver,
{
    let giant: Vec<NodeId> = graph.nodes().filter(|&v| components.in_largest(v)).collect();
    assert!(
        giant.len() >= 2,
        "largest component has fewer than two vertices"
    );
    let mut out = Vec::with_capacity(pairs);
    let mut stretches = StretchBatch::new(measure_stretch);
    for _ in 0..pairs {
        let (s, t) = loop {
            let s = giant[rng.gen_range(0..giant.len())];
            let t = giant[rng.gen_range(0..giant.len())];
            if s != t {
                break (s, t);
            }
        };
        let record = router.route(graph, objective, s, t, obs);
        stretches.push(out.len(), &record);
        out.push(TrialOutcome {
            success: record.is_success(),
            hops: record.hops(),
            stretch: None,
            same_component: true,
        });
    }
    stretches.resolve(graph, &mut out);
    out
}

/// Deferred stretch measurement: successful routes queue their endpoints
/// here, and one [`pair_distances_with`] sweep resolves the whole batch
/// after routing. Distances are exact, so each filled-in stretch is
/// bitwise-identical to what a per-route [`stretch`] call would produce —
/// batch boundaries cannot change values.
struct StretchBatch {
    enabled: bool,
    /// `(outcome slot, hops)` aligned with `pairs`.
    slots: Vec<(usize, usize)>,
    pairs: Vec<(NodeId, NodeId)>,
}

impl StretchBatch {
    fn new(enabled: bool) -> Self {
        StretchBatch {
            enabled,
            slots: Vec::new(),
            pairs: Vec::new(),
        }
    }

    /// Queues `record`'s endpoints for measurement, remembering which
    /// outcome slot the result belongs to. No-op when disabled or when the
    /// route has no defined stretch (failed or zero-hop).
    fn push(&mut self, slot: usize, record: &RouteRecord) {
        if self.enabled && record.is_success() && record.hops() > 0 {
            self.slots.push((slot, record.hops()));
            self.pairs.push((record.source(), record.last()));
        }
    }

    /// Resolves all queued distances in one MS-BFS pass and writes the
    /// stretches into `out`.
    fn resolve(self, graph: &Graph, out: &mut [TrialOutcome]) {
        let mut scratch = MsBfsScratch::new();
        self.resolve_each(graph, &mut scratch, |slot, st| out[slot].stretch = Some(st));
    }

    /// Resolves all queued distances and hands each `(slot, stretch)` to
    /// `apply`.
    fn resolve_each(
        self,
        graph: &Graph,
        scratch: &mut MsBfsScratch,
        mut apply: impl FnMut(usize, f64),
    ) {
        if self.pairs.is_empty() {
            return;
        }
        let dists = pair_distances_with(graph, &self.pairs, scratch);
        for (k, &(slot, hops)) in self.slots.iter().enumerate() {
            if let Some(d) = dists[k] {
                debug_assert!(d > 0, "distinct endpoints have positive distance");
                apply(slot, hops as f64 / d as f64);
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn route_pairs_impl<R, O, Obs>(
    graph: &Graph,
    objective: &O,
    router: &R,
    components: &Components,
    pairs: usize,
    measure_stretch: bool,
    connected_only: bool,
    rng: &mut StdRng,
    obs: &mut Obs,
) -> Vec<TrialOutcome>
where
    R: Router,
    O: Objective,
    Obs: RouteObserver,
{
    let n = graph.node_count();
    assert!(n >= 2, "need at least two vertices to route");
    let mut out = Vec::with_capacity(pairs);
    let mut stretches = StretchBatch::new(measure_stretch);
    for _ in 0..pairs {
        let (s, t) = loop {
            let s = smallworld_graph::NodeId::from_index(rng.gen_range(0..n));
            let t = smallworld_graph::NodeId::from_index(rng.gen_range(0..n));
            if t == s {
                continue;
            }
            if connected_only && !components.same_component(s, t) {
                continue;
            }
            break (s, t);
        };
        let record = router.route(graph, objective, s, t, obs);
        stretches.push(out.len(), &record);
        out.push(TrialOutcome {
            success: record.is_success(),
            hops: record.hops(),
            stretch: None,
            same_component: components.same_component(s, t),
        });
    }
    stretches.resolve(graph, &mut out);
    out
}

/// The endpoint pairs of trials `range` among `n` vertices: trial `i`
/// draws from its own RNG seeded by [`split_seed`]`(master_seed, i)`,
/// redrawing `s == t` and — with `connected_only` — pairs in different
/// components. Pairs are drawn in original-id space and mapped forward
/// through `id_map` when given, so a relabeled run draws the same trial
/// sequence as an unrelabeled one.
///
/// Each pair is a pure function of `(n, master_seed, i)` and the filters,
/// which is what makes every trial runner's results independent of thread
/// count and chunking, and equal across runners.
pub fn draw_endpoints(
    range: std::ops::Range<usize>,
    n: usize,
    master_seed: u64,
    components: &Components,
    connected_only: bool,
    id_map: Option<&Permutation>,
) -> Vec<(NodeId, NodeId)> {
    range
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(split_seed(master_seed, i as u64));
            loop {
                let s = NodeId::from_index(rng.gen_range(0..n));
                let t = NodeId::from_index(rng.gen_range(0..n));
                if t == s {
                    continue;
                }
                let (s, t) = match id_map {
                    Some(perm) => (perm.forward(s), perm.forward(t)),
                    None => (s, t),
                };
                if connected_only && !components.same_component(s, t) {
                    continue;
                }
                break (s, t);
            }
        })
        .collect()
}

/// A batched Monte-Carlo routing experiment fanned out over a thread pool.
///
/// Where [`route_random_pairs_observed`] walks one RNG through all trials
/// sequentially, a batch derives an independent RNG per trial from the
/// master seed via [`split_seed`]: the drawn pair and the routing outcome of
/// trial `i` are a pure function of `(configuration, master_seed, i)`. The
/// result vector is therefore **bitwise-identical at any thread count** —
/// `SMALLWORLD_THREADS=1` reproduces the default pool exactly.
///
/// Per-hop probe counters land in the sharded global metrics registry
/// ([`smallworld_obs::metrics`]), so worker threads never contend on a
/// shared observer.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use smallworld_bench::TrialBatch;
/// use smallworld_core::{GirgObjective, GreedyRouter};
/// use smallworld_graph::Components;
/// use smallworld_models::girg::GirgBuilder;
/// use smallworld_par::Pool;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let girg = GirgBuilder::<2>::new(500).sample(&mut rng)?;
/// let comps = Components::compute(girg.graph());
/// let trials = TrialBatch::new(girg.graph(), &comps, 50)
///     .run(&GreedyRouter::new(), &GirgObjective::new(&girg), 7, &Pool::from_env());
/// assert_eq!(trials.len(), 50);
/// # Ok::<(), smallworld_models::ModelError>(())
/// ```
#[derive(Clone, Copy, Debug)]
pub struct TrialBatch<'a> {
    graph: &'a Graph,
    components: &'a Components,
    pairs: usize,
    measure_stretch: bool,
    connected_only: bool,
    id_map: Option<&'a Permutation>,
}

impl<'a> TrialBatch<'a> {
    /// Configures a batch of `pairs` routing trials on `graph`.
    pub fn new(graph: &'a Graph, components: &'a Components, pairs: usize) -> Self {
        TrialBatch {
            graph,
            components,
            pairs,
            measure_stretch: false,
            connected_only: false,
            id_map: None,
        }
    }

    /// Also measure stretch (runs a BFS per successful route).
    pub fn measure_stretch(mut self, yes: bool) -> Self {
        self.measure_stretch = yes;
        self
    }

    /// Only draw pairs that share a connected component.
    pub fn connected_only(mut self, yes: bool) -> Self {
        self.connected_only = yes;
        self
    }

    /// Declares that `graph` (and the objective) live in a *relabeled* id
    /// space — typically `Girg::morton_permutation` — while reported results
    /// stay in the original one: pairs are drawn in original-id space (so
    /// the trial sequence matches an unrelabeled run seed-for-seed), mapped
    /// forward for routing, and every returned [`RouteRecord`] path is
    /// mapped back to original ids.
    ///
    /// # Panics
    ///
    /// Panics if the permutation length mismatches the graph.
    pub fn with_id_map(mut self, perm: &'a Permutation) -> Self {
        assert_eq!(
            perm.len(),
            self.graph.node_count(),
            "permutation length must match node count"
        );
        self.id_map = Some(perm);
        self
    }

    /// Runs the batch on `pool`, collecting outcomes in trial order.
    ///
    /// Routing paths are recycled through per-worker [`RouteScratch`]
    /// buffers — steady state allocates nothing per trial. Use
    /// [`TrialBatch::run_recorded`] when the paths themselves are needed.
    ///
    /// # Panics
    ///
    /// Panics if the graph has fewer than two vertices, or if
    /// `connected_only` is set and no two vertices share a component.
    pub fn run<R, O>(
        &self,
        router: &R,
        objective: &O,
        master_seed: u64,
        pool: &Pool,
    ) -> Vec<TrialOutcome>
    where
        R: Router + Sync,
        O: Objective + Sync,
    {
        self.run_chunked(router, objective, master_seed, pool, false)
            .into_iter()
            .map(|(outcome, _)| outcome)
            .collect()
    }

    /// Like [`TrialBatch::run`], but also returns every full
    /// [`RouteRecord`] — the basis of the thread-count determinism tests.
    ///
    /// # Panics
    ///
    /// Panics as [`TrialBatch::run`] does.
    pub fn run_recorded<R, O>(
        &self,
        router: &R,
        objective: &O,
        master_seed: u64,
        pool: &Pool,
    ) -> Vec<(TrialOutcome, RouteRecord)>
    where
        R: Router + Sync,
        O: Objective + Sync,
    {
        self.run_chunked(router, objective, master_seed, pool, true)
            .into_iter()
            .map(|(outcome, record)| (outcome, record.expect("records were kept")))
            .collect()
    }

    /// Shared driver: trials are fanned out in contiguous chunks so each
    /// worker reuses one [`RouteScratch`] and one interned metrics observer
    /// across its whole chunk. Trial `i`'s RNG is still seeded from
    /// `(master_seed, i)` alone, so results are independent of both the
    /// thread count and the chunking.
    ///
    /// Each chunk draws all of its endpoint pairs up front and prepares the
    /// targets in one [`Objective::prepare_batch`] call; the routing loop
    /// then runs over the prepared kernels via [`Router::route_prepared`],
    /// amortizing per-target setup without touching the trial RNG stream.
    fn run_chunked<R, O>(
        &self,
        router: &R,
        objective: &O,
        master_seed: u64,
        pool: &Pool,
        keep_records: bool,
    ) -> Vec<(TrialOutcome, Option<RouteRecord>)>
    where
        R: Router + Sync,
        O: Objective + Sync,
    {
        let n = self.graph.node_count();
        assert!(n >= 2, "need at least two vertices to route");
        if self.connected_only {
            assert!(
                self.components.largest_size() >= 2,
                "no two vertices share a component"
            );
        }
        let chunks = chunk_ranges(self.pairs, pool.threads().saturating_mul(4));
        let per_chunk = pool.map_items(chunks, |_, range| {
            let mut scratch = RouteScratch::with_path_capacity(32);
            let mut msbfs = MsBfsScratch::new();
            let mut obs = MetricsRouteObserver::new();
            // interned once per chunk; successful hop counts feed the
            // artifact's p50/p90/p99/p999 quantiles
            let hop_hdr = smallworld_obs::metrics::hdr("route.hops");
            let mut out = Vec::with_capacity(range.len());
            let mut stretches = StretchBatch::new(self.measure_stretch);
            // phase 1: draw every trial's endpoints
            let endpoints = draw_endpoints(
                range.clone(),
                n,
                master_seed,
                self.components,
                self.connected_only,
                self.id_map,
            );
            // phase 2: prepare all targets at once, then route each trial
            // against its prepared kernel
            let prepared = objective.prepare_batch(endpoints.iter().map(|&(_, t)| t));
            for (k, &(s, t)) in endpoints.iter().enumerate() {
                let record =
                    router.route_prepared(self.graph, prepared.kernel(k), s, &mut obs, &mut scratch);
                if record.is_success() {
                    hop_hdr.record(record.hops() as u64);
                }
                // stretch resolves after the chunk in one MS-BFS pass; the
                // endpoints queue in routed-id space so distances come from
                // the same graph the route walked
                stretches.push(out.len(), &record);
                let outcome = TrialOutcome {
                    success: record.is_success(),
                    hops: record.hops(),
                    stretch: None,
                    same_component: self.components.same_component(s, t),
                };
                let record = if keep_records {
                    Some(match self.id_map {
                        Some(perm) => {
                            let path = perm.path_to_original(&record.path);
                            scratch.recycle(record.path);
                            RouteRecord {
                                outcome: record.outcome,
                                path,
                            }
                        }
                        None => record,
                    })
                } else {
                    scratch.recycle(record.path);
                    None
                };
                out.push((outcome, record));
            }
            stretches.resolve_each(self.graph, &mut msbfs, |slot, st| {
                out[slot].0.stretch = Some(st);
            });
            out
        });
        per_chunk.into_iter().flatten().collect()
    }
}

/// Aggregate statistics over a set of [`TrialOutcome`]s.
#[derive(Clone, Debug, Default)]
pub struct RoutingAggregate {
    /// Delivery rate over all pairs.
    pub success: Proportion,
    /// Delivery rate conditioned on `s` and `t` sharing a component — the
    /// quantity the theorems bound.
    pub success_connected: Proportion,
    /// Hop counts of successful routes.
    pub hops: Summary,
    /// Stretch of successful routes (where measured).
    pub stretch: Summary,
}

impl RoutingAggregate {
    /// Aggregates trial outcomes.
    pub fn from_trials<'a>(trials: impl IntoIterator<Item = &'a TrialOutcome>) -> Self {
        let mut agg = RoutingAggregate::default();
        for t in trials {
            agg.success.push(t.success);
            if t.same_component {
                agg.success_connected.push(t.success);
            }
            if t.success {
                agg.hops.push(t.hops as f64);
                if let Some(s) = t.stretch {
                    agg.stretch.push(s);
                }
            }
        }
        agg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smallworld_core::{GirgObjective, GreedyRouter};
    use smallworld_models::girg::GirgBuilder;

    #[test]
    fn split_seed_is_deterministic_and_spread() {
        let seeds: Vec<u64> = (0..100).map(|i| split_seed(7, i)).collect();
        let unique: std::collections::BTreeSet<_> = seeds.iter().collect();
        assert_eq!(unique.len(), 100);
        assert_eq!(seeds[3], split_seed(7, 3));
    }

    #[test]
    fn parallel_map_orders_results() {
        let out = parallel_map(50, 1, |i, seed| (i, seed));
        for (i, (idx, seed)) in out.iter().enumerate() {
            assert_eq!(i, *idx);
            assert_eq!(*seed, split_seed(1, i as u64));
        }
    }

    #[test]
    fn parallel_map_zero_tasks() {
        let out: Vec<u64> = parallel_map(0, 1, |_, s| s);
        assert!(out.is_empty());
    }

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Quick.pick(1, 2), 1);
        assert_eq!(Scale::Full.pick(1, 2), 2);
    }

    #[test]
    fn scale_parse_accepts_both_names_case_insensitively() {
        assert_eq!(Scale::parse("quick"), Some(Scale::Quick));
        assert_eq!(Scale::parse("QUICK"), Some(Scale::Quick));
        assert_eq!(Scale::parse("full"), Some(Scale::Full));
        assert_eq!(Scale::parse("Full"), Some(Scale::Full));
    }

    #[test]
    fn scale_parse_rejects_junk() {
        assert_eq!(Scale::parse(""), None);
        assert_eq!(Scale::parse("fast"), None);
        assert_eq!(Scale::parse("quick "), None);
        assert_eq!(Scale::parse("1"), None);
    }

    #[test]
    fn parallel_map_workers_share_metric_counters() {
        // every worker thread increments the same interned counter; the
        // sharded registry must not lose any increment
        let counter = smallworld_obs::metrics::counter("harness.test.parallel_incs");
        let before = counter.value();
        let tasks = 64;
        let per_task = 100u64;
        let c = &counter;
        parallel_map(tasks, 9, |_, _| {
            for _ in 0..per_task {
                c.inc();
            }
        });
        assert_eq!(counter.value() - before, tasks as u64 * per_task);
    }

    #[test]
    fn routing_trials_aggregate() {
        let mut rng = StdRng::seed_from_u64(5);
        let girg = GirgBuilder::<2>::new(1_000).sample(&mut rng).unwrap();
        let comps = Components::compute(girg.graph());
        let obj = GirgObjective::new(&girg);
        let trials = route_random_pairs_observed(
            girg.graph(),
            &obj,
            &GreedyRouter::new(),
            &comps,
            100,
            true,
            &mut rng,
            &mut smallworld_core::NoopObserver,
        );
        assert_eq!(trials.len(), 100);
        let agg = RoutingAggregate::from_trials(&trials);
        assert_eq!(agg.success.trials(), 100);
        assert!(agg.success_connected.trials() <= 100);
        // any successful multi-hop route has stretch >= 1
        assert!(agg.stretch.is_empty() || agg.stretch.min() >= 1.0);
    }

    /// The tentpole determinism guarantee: one master seed produces
    /// bitwise-identical `RouteRecord`s at 1 thread and at N threads.
    #[test]
    fn trial_batch_is_thread_count_invariant() {
        let mut rng = StdRng::seed_from_u64(5);
        let girg = GirgBuilder::<2>::new(1_000).sample(&mut rng).unwrap();
        let comps = Components::compute(girg.graph());
        let obj = GirgObjective::new(&girg);
        let batch = TrialBatch::new(girg.graph(), &comps, 120)
            .measure_stretch(true)
            .connected_only(true);
        let router = GreedyRouter::new();
        let sequential = batch.run_recorded(&router, &obj, 0xD15C, &Pool::with_threads(1));
        let parallel = batch.run_recorded(&router, &obj, 0xD15C, &Pool::with_threads(4));
        assert_eq!(sequential.len(), 120);
        assert_eq!(sequential, parallel);
        // and a different master seed gives a different trial sequence
        let other = batch.run_recorded(&router, &obj, 0xD15D, &Pool::with_threads(4));
        assert_ne!(sequential, other);
    }

    /// Morton-relabeled routing, viewed through `with_id_map`, must be
    /// observationally identical to routing the original graph: same trial
    /// outcomes and the *same original-id paths*, record for record.
    #[test]
    fn trial_batch_id_map_reports_original_ids() {
        let mut rng = StdRng::seed_from_u64(11);
        let girg = GirgBuilder::<2>::new(800).sample(&mut rng).unwrap();
        let perm = girg.morton_permutation();
        let relabeled = girg.relabel(&perm);

        let comps = Components::compute(girg.graph());
        let comps_re = Components::compute(relabeled.graph());
        let obj = GirgObjective::new(&girg);
        let obj_re = GirgObjective::new(&relabeled);
        let router = GreedyRouter::new();
        let pool = Pool::with_threads(3);

        let plain = TrialBatch::new(girg.graph(), &comps, 80)
            .measure_stretch(true)
            .run_recorded(&router, &obj, 0xA40, &pool);
        let mapped = TrialBatch::new(relabeled.graph(), &comps_re, 80)
            .measure_stretch(true)
            .with_id_map(&perm)
            .run_recorded(&router, &obj_re, 0xA40, &pool);
        assert_eq!(plain, mapped);
    }

    /// The routing index is pure mechanism: identical records with the
    /// index on or off, at any thread count.
    #[test]
    fn trial_batch_with_index_is_invariant() {
        use smallworld_core::{IndexedGirgObjective, RoutingIndex};
        let mut rng = StdRng::seed_from_u64(13);
        let girg = GirgBuilder::<2>::new(800).sample(&mut rng).unwrap();
        let comps = Components::compute(girg.graph());
        let obj = GirgObjective::new(&girg);
        let index = RoutingIndex::for_girg(&girg);
        let indexed = IndexedGirgObjective::new(GirgObjective::new(&girg), &index);
        let batch = TrialBatch::new(girg.graph(), &comps, 80).connected_only(true);
        let router = GreedyRouter::new();
        let plain = batch.run_recorded(&router, &obj, 0x1D5, &Pool::with_threads(1));
        let fast = batch.run_recorded(&router, &indexed, 0x1D5, &Pool::with_threads(4));
        assert_eq!(plain, fast);
    }

    /// The batched prepare-then-route path is thread-count invariant over
    /// the blocked SoA sweep: 1, 2, and 8 worker threads must produce
    /// bitwise-identical records (the per-trial RNG seeding makes the pair
    /// sequence independent of chunking).
    #[test]
    fn trial_batch_batched_path_is_invariant_at_1_2_and_8_threads() {
        use smallworld_core::{IndexedGirgObjective, RoutingIndex};
        let mut rng = StdRng::seed_from_u64(29);
        let girg = GirgBuilder::<2>::new(900).sample(&mut rng).unwrap();
        let comps = Components::compute(girg.graph());
        let index = RoutingIndex::for_girg(&girg);
        let indexed = IndexedGirgObjective::new(GirgObjective::new(&girg), &index);
        let batch = TrialBatch::new(girg.graph(), &comps, 96)
            .measure_stretch(true)
            .connected_only(true);
        let router = GreedyRouter::new();
        let one = batch.run_recorded(&router, &indexed, 0xBA7C, &Pool::with_threads(1));
        let two = batch.run_recorded(&router, &indexed, 0xBA7C, &Pool::with_threads(2));
        let eight = batch.run_recorded(&router, &indexed, 0xBA7C, &Pool::with_threads(8));
        assert_eq!(one.len(), 96);
        assert_eq!(one, two);
        assert_eq!(one, eight);
    }

    /// Successful trials land their hop counts in the global `route.hops`
    /// HDR histogram, so run reports carry hop quantiles.
    #[test]
    fn trial_batch_records_hop_quantiles() {
        let mut rng = StdRng::seed_from_u64(7);
        let girg = GirgBuilder::<2>::new(500).sample(&mut rng).unwrap();
        let comps = Components::compute(girg.graph());
        let obj = GirgObjective::new(&girg);
        let batch = TrialBatch::new(girg.graph(), &comps, 60).connected_only(true);
        let before = smallworld_obs::metrics::hdr("route.hops").snapshot();
        let outcomes = batch.run(&GreedyRouter::new(), &obj, 21, &Pool::with_threads(2));
        let delta = smallworld_obs::metrics::hdr("route.hops")
            .snapshot()
            .since(&before);
        let successes = outcomes.iter().filter(|o| o.success).count() as u64;
        assert!(successes > 0, "seeded batch should deliver something");
        // other tests share the global histogram, so only a lower bound holds
        assert!(delta.count >= successes);
        assert!(delta.quantile(0.99) >= delta.quantile(0.50));
    }

    #[test]
    fn trial_batch_matches_its_recorded_variant() {
        let mut rng = StdRng::seed_from_u64(6);
        let girg = GirgBuilder::<2>::new(500).sample(&mut rng).unwrap();
        let comps = Components::compute(girg.graph());
        let obj = GirgObjective::new(&girg);
        let batch = TrialBatch::new(girg.graph(), &comps, 40);
        let router = GreedyRouter::new();
        let pool = Pool::with_threads(3);
        let outcomes = batch.run(&router, &obj, 9, &pool);
        let recorded = batch.run_recorded(&router, &obj, 9, &pool);
        assert_eq!(
            outcomes,
            recorded.iter().map(|(o, _)| *o).collect::<Vec<_>>()
        );
        for (outcome, record) in &recorded {
            assert_eq!(outcome.success, record.is_success());
            assert_eq!(outcome.hops, record.hops());
            assert!(outcome.same_component || !outcome.success);
        }
        let agg = RoutingAggregate::from_trials(outcomes.iter());
        assert_eq!(agg.success.trials(), 40);
    }
}

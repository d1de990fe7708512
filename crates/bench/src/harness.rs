//! Deterministic seeding, parallel Monte-Carlo, and routing aggregates.
//!
//! Every routing trial runs through one private trial body; its callers
//! differ only in how they draw endpoint pairs and what they route over:
//! [`route_random_pairs_observed`] draws from the caller's RNG by a
//! [`PairDraw`] rule, while [`TrialBatch`] draws per-trial-seeded pairs
//! ([`draw_endpoints`]) over a pool and routes a decoded [`Graph`]
//! ([`TrialBatch::run`]) or per-worker [`AdjacencyView`]s such as a mapped
//! store's LRU cursor ([`TrialBatch::run_views`]).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use smallworld_analysis::{Proportion, Summary};
use smallworld_core::{
    GreedyRouter, MetricsRouteObserver, Objective, RouteObserver, RouteRecord, RouteScratch, Router,
};
use smallworld_graph::analytics::pair_distances;
use smallworld_graph::view::AdjacencyView;
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
    let task_timings = smallworld_obs::metrics::hdr("harness.task_ns");
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

/// How [`route_random_pairs_observed`] draws its endpoint pairs from the
/// caller's RNG.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PairDraw {
    /// Both endpoints uniform over all vertices; pairs with `s == t` are
    /// redrawn.
    Any,
    /// As [`PairDraw::Any`], also redrawing pairs in different components.
    ///
    /// Use this for backtracking patchers: on a cross-component pair they
    /// correctly — but expensively — exhaust the source's component before
    /// failing, which measures nothing the theorems speak about (Theorem
    /// 3.4 is conditional on a shared component).
    Connected,
    /// Both endpoints uniform over the **largest** component, redrawing
    /// `s == t`. Every pair is connected by construction, so a failed trial
    /// means the router got stuck — disconnection is factored out entirely
    /// (report it separately, e.g. via [`Components::giant_fraction`]).
    Giant,
}

impl PairDraw {
    /// Draws `pairs` endpoint pairs from `rng`, one pair after another.
    fn draw(
        self,
        graph: &Graph,
        components: &Components,
        pairs: usize,
        rng: &mut StdRng,
    ) -> Vec<(NodeId, NodeId)> {
        let candidates = match self {
            PairDraw::Any => graph.node_count(),
            PairDraw::Connected | PairDraw::Giant => components.largest_size(),
        };
        assert!(candidates >= 2, "no two vertices to pair up");
        let giant: Option<Vec<NodeId>> = (self == PairDraw::Giant).then(|| {
            graph
                .nodes()
                .filter(|&v| components.in_largest(v))
                .collect()
        });
        let mut pick = || match &giant {
            Some(giant) => giant[rng.gen_range(0..giant.len())],
            None => NodeId::from_index(rng.gen_range(0..graph.node_count())),
        };
        (0..pairs)
            .map(|_| loop {
                let (s, t) = (pick(), pick());
                if s != t && (self != PairDraw::Connected || components.same_component(s, t)) {
                    break (s, t);
                }
            })
            .collect()
    }
}

/// Routes `pairs` random source/target pairs drawn from `rng` by `draw`,
/// records outcomes, and reports every routing event to `obs` (pass
/// [`NoopObserver`](smallworld_core::NoopObserver) to route unobserved).
///
/// All pairs are drawn before the first route. Routing never reads `rng`,
/// so this is the pair stream — and the final `rng` state — of a loop that
/// draws one pair and routes it before drawing the next, which is what
/// keeps `EXPERIMENTS.md`'s numbers reproducible. When `measure_stretch`
/// is set, every successful multi-hop route's stretch is resolved after
/// routing. The observer receives the concatenated event streams of all
/// `pairs` routes, in trial order; trial outcomes do not depend on the
/// observer.
///
/// # Panics
///
/// Panics if the graph has fewer than two vertices, or — for
/// [`PairDraw::Connected`] and [`PairDraw::Giant`] — if no two vertices
/// share a component.
#[allow(clippy::too_many_arguments)]
pub fn route_random_pairs_observed<R, O, Obs>(
    graph: &Graph,
    objective: &O,
    router: &R,
    components: &Components,
    draw: PairDraw,
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
    let endpoints = draw.draw(graph, components, pairs, rng);
    let stretch_graph = measure_stretch.then_some(graph);
    let route =
        |kernel: &_, s, scratch: &mut _| router.route_prepared(graph, kernel, s, obs, scratch);
    route_trials(
        &endpoints,
        objective,
        components,
        stretch_graph,
        None,
        false,
        route,
    )
    .into_iter()
    .map(|(outcome, _)| outcome)
    .collect()
}

/// The one routing-trial body every runner shares.
///
/// Prepares the targets of `endpoints` up front with [`Objective::prepare`],
/// then routes pair `k` as `route(kernel_k, s_k, scratch)`. Each
/// successful route's hop count lands in the `route.hops` HDR histogram
/// (the artifact's hop quantiles). With `stretch_graph`, stretch resolves
/// after routing in one [`pair_distances`] sweep over that graph, queued
/// in routed-id space so distances come from the graph the routes walked;
/// distances are exact, so each value is bitwise what a per-route
/// [`stretch`](smallworld_core::stretch) call gives. With `keep_records`
/// each record is returned, its path mapped back to original ids through
/// `id_map`; otherwise its path buffer is recycled into the next route.
fn route_trials<'o, O, F>(
    endpoints: &[(NodeId, NodeId)],
    objective: &'o O,
    components: &Components,
    stretch_graph: Option<&Graph>,
    id_map: Option<&Permutation>,
    keep_records: bool,
    mut route: F,
) -> Vec<(TrialOutcome, Option<RouteRecord>)>
where
    O: Objective,
    F: FnMut(&O::Kernel<'o>, NodeId, &mut RouteScratch) -> RouteRecord,
{
    let hop_hdr = smallworld_obs::metrics::hdr("route.hops");
    let kernels: Vec<_> = endpoints
        .iter()
        .map(|&(_, t)| objective.prepare(t))
        .collect();
    let mut scratch = RouteScratch::with_path_capacity(32);
    // (trial, hops) of every route with a defined stretch, and its pair
    let (mut stretch_slots, mut stretch_pairs) = (Vec::new(), Vec::new());
    let mut out = Vec::with_capacity(endpoints.len());
    for (k, &(s, t)) in endpoints.iter().enumerate() {
        let mut record = route(&kernels[k], s, &mut scratch);
        if record.is_success() {
            hop_hdr.record(record.hops() as u64);
            if stretch_graph.is_some() && record.hops() > 0 {
                stretch_slots.push((k, record.hops()));
                stretch_pairs.push((s, record.last()));
            }
        }
        let outcome = TrialOutcome {
            success: record.is_success(),
            hops: record.hops(),
            stretch: None,
            same_component: components.same_component(s, t),
        };
        if !keep_records {
            scratch.recycle(record.path);
            out.push((outcome, None));
            continue;
        }
        if let Some(perm) = id_map {
            let path = perm.path_to_original(&record.path);
            scratch.recycle(std::mem::replace(&mut record.path, path));
        }
        out.push((outcome, Some(record)));
    }
    if let Some(graph) = stretch_graph.filter(|_| !stretch_pairs.is_empty()) {
        let dists = pair_distances(graph, &stretch_pairs);
        for (&(slot, hops), d) in stretch_slots.iter().zip(dists) {
            if let Some(d) = d {
                debug_assert!(d > 0, "distinct endpoints have positive distance");
                out[slot].0.stretch = Some(hops as f64 / d as f64);
            }
        }
    }
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
/// which is what makes every [`TrialBatch`] run's results independent of
/// thread count and chunking, and equal across substrates.
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
/// `G` is the substrate: a decoded [`Graph`] ([`TrialBatch::new`], routed
/// by any [`Router`]) or `()` for a batch over per-worker adjacency views
/// ([`TrialBatch::for_views`], routed by [`GreedyRouter::route_view`]).
/// Only a decoded batch can measure stretch, which needs BFS distances.
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
pub struct TrialBatch<'a, G = &'a Graph> {
    graph: G,
    node_count: usize,
    components: &'a Components,
    pairs: usize,
    measure_stretch: bool,
    connected_only: bool,
    id_map: Option<&'a Permutation>,
}

impl<'a> TrialBatch<'a> {
    /// Configures a batch of `pairs` routing trials on `graph`.
    pub fn new(graph: &'a Graph, components: &'a Components, pairs: usize) -> Self {
        TrialBatch::over(graph, graph.node_count(), components, pairs)
    }

    /// Also measure stretch (resolved per chunk in one MS-BFS sweep).
    pub fn measure_stretch(mut self, yes: bool) -> Self {
        self.measure_stretch = yes;
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
        self.run_decoded(router, objective, master_seed, pool, false)
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
        self.run_decoded(router, objective, master_seed, pool, true)
            .into_iter()
            .map(|(outcome, record)| (outcome, record.expect("records were kept")))
            .collect()
    }

    /// Routes every chunk over the decoded graph via
    /// [`Router::route_prepared`], one interned metrics observer per chunk.
    fn run_decoded<R, O>(
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
        let stretch_graph = self.measure_stretch.then_some(self.graph);
        self.fan_out(master_seed, pool, |endpoints| {
            let mut obs = MetricsRouteObserver::new();
            route_trials(
                endpoints,
                objective,
                self.components,
                stretch_graph,
                self.id_map,
                keep_records,
                |kernel, s, scratch| {
                    router.route_prepared(self.graph, kernel, s, &mut obs, scratch)
                },
            )
        })
        .into_iter()
        .flatten()
        .collect()
    }
}

impl<'a> TrialBatch<'a, ()> {
    /// Configures a batch of `pairs` greedy trials among `node_count`
    /// vertices, routed by [`TrialBatch::run_views`] over adjacency views —
    /// no decoded [`Graph`] is needed, and so no stretch can be asked for.
    pub fn for_views(node_count: usize, components: &'a Components, pairs: usize) -> Self {
        TrialBatch::over((), node_count, components, pairs)
    }

    /// Runs the batch on `pool` with [`GreedyRouter::route_view`], each
    /// worker chunk over its own view from `make_view` — e.g. a mapped
    /// store's LRU cursor, so neighbor lists decode on demand and the
    /// adjacency never leaves the mmap.
    ///
    /// Trial `i`'s pair is the one [`TrialBatch::run`] draws, so over a
    /// view of the same adjacency the outcomes equal a decoded run's with
    /// the same router, element for element. The views come back in chunk
    /// order, so callers can read their cache counters.
    ///
    /// # Panics
    ///
    /// Panics if `node_count < 2`, or if `connected_only` is set and no two
    /// vertices share a component.
    pub fn run_views<V, O>(
        &self,
        router: &GreedyRouter,
        objective: &O,
        make_view: impl Fn() -> V + Sync,
        master_seed: u64,
        pool: &Pool,
    ) -> (Vec<TrialOutcome>, Vec<V>)
    where
        V: AdjacencyView + Send,
        O: Objective + Sync,
    {
        let per_chunk = self.fan_out(master_seed, pool, |endpoints| {
            let mut view = make_view();
            let mut obs = MetricsRouteObserver::new();
            let trials = route_trials(
                endpoints,
                objective,
                self.components,
                None,
                self.id_map,
                false,
                |kernel, s, scratch| router.route_view(&mut view, kernel, s, &mut obs, scratch),
            );
            (trials, view)
        });
        let (trials, views): (Vec<_>, Vec<V>) = per_chunk.into_iter().unzip();
        let outcomes = trials
            .into_iter()
            .flatten()
            .map(|(outcome, _)| outcome)
            .collect();
        (outcomes, views)
    }
}

impl<'a, G> TrialBatch<'a, G> {
    fn over(graph: G, node_count: usize, components: &'a Components, pairs: usize) -> Self {
        TrialBatch {
            graph,
            node_count,
            components,
            pairs,
            measure_stretch: false,
            connected_only: false,
            id_map: None,
        }
    }

    /// Only draw pairs that share a connected component.
    pub fn connected_only(mut self, yes: bool) -> Self {
        self.connected_only = yes;
        self
    }

    /// Declares that the graph (and the objective) live in a *relabeled*
    /// id space — typically `Girg::morton_permutation` — while reported
    /// results stay in the original one: pairs are drawn in original-id
    /// space (so the trial sequence matches an unrelabeled run
    /// seed-for-seed), mapped forward for routing, and every returned
    /// [`RouteRecord`] path is mapped back to original ids.
    ///
    /// # Panics
    ///
    /// Panics if the permutation length mismatches the node count.
    pub fn with_id_map(mut self, perm: &'a Permutation) -> Self {
        assert_eq!(
            perm.len(),
            self.node_count,
            "permutation length must match node count"
        );
        self.id_map = Some(perm);
        self
    }

    /// Fans the trials out over `pool` in contiguous chunks, so each worker
    /// reuses one scratch buffer and one observer across its whole chunk:
    /// every chunk draws its endpoint pairs up front ([`draw_endpoints`])
    /// and hands them to `chunk`. Trial `i`'s pair depends on
    /// `(master_seed, i)` alone, so results are independent of both the
    /// thread count and the chunking. Results come back in chunk order.
    fn fan_out<T: Send>(
        &self,
        master_seed: u64,
        pool: &Pool,
        chunk: impl Fn(&[(NodeId, NodeId)]) -> T + Sync,
    ) -> Vec<T> {
        let (n, components, connected_only, id_map) = (
            self.node_count,
            self.components,
            self.connected_only,
            self.id_map,
        );
        assert!(n >= 2, "need at least two vertices to route");
        if connected_only {
            assert!(
                components.largest_size() >= 2,
                "no two vertices share a component"
            );
        }
        let chunks = chunk_ranges(self.pairs, pool.threads().saturating_mul(4));
        pool.map_items(chunks, |_, range| {
            chunk(&draw_endpoints(
                range,
                n,
                master_seed,
                components,
                connected_only,
                id_map,
            ))
        })
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
            PairDraw::Any,
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

    /// The routing index is pure mechanism: over the Morton copy, the only
    /// order it bounds, routing through `with_id_map` gives the plain
    /// objective's records on the original graph, at any thread count.
    #[test]
    fn trial_batch_with_index_is_invariant() {
        use smallworld_core::{IndexedGirgObjective, RoutingIndex};
        let mut rng = StdRng::seed_from_u64(13);
        let girg = GirgBuilder::<2>::new(800).sample(&mut rng).unwrap();
        let comps = Components::compute(girg.graph());
        let obj = GirgObjective::new(&girg);
        let perm = girg.morton_permutation();
        let relabeled = girg.relabel(&perm);
        let comps_re = Components::compute(relabeled.graph());
        let index = RoutingIndex::for_girg(&relabeled);
        assert!(index.bounds().is_some(), "Morton ids build bounds");
        let indexed = IndexedGirgObjective::new(GirgObjective::new(&relabeled), &index);
        let router = GreedyRouter::new();
        let plain = TrialBatch::new(girg.graph(), &comps, 80)
            .connected_only(true)
            .run_recorded(&router, &obj, 0x1D5, &Pool::with_threads(1));
        let fast = TrialBatch::new(relabeled.graph(), &comps_re, 80)
            .connected_only(true)
            .with_id_map(&perm)
            .run_recorded(&router, &indexed, 0x1D5, &Pool::with_threads(4));
        assert_eq!(plain, fast);
    }

    /// The batched prepare-then-route path is thread-count invariant over
    /// the bounded scans: 1, 2, and 8 worker threads must produce
    /// bitwise-identical records (the per-trial RNG seeding makes the pair
    /// sequence independent of chunking), those of the plain objective.
    #[test]
    fn trial_batch_batched_path_is_invariant_at_1_2_and_8_threads() {
        use smallworld_core::{IndexedGirgObjective, RoutingIndex};
        let mut rng = StdRng::seed_from_u64(29);
        let girg = GirgBuilder::<2>::new(900).sample(&mut rng).unwrap();
        let girg = girg.relabel(&girg.morton_permutation());
        let comps = Components::compute(girg.graph());
        let index = RoutingIndex::for_girg(&girg);
        assert!(index.bounds().is_some(), "Morton ids build bounds");
        let indexed = IndexedGirgObjective::new(GirgObjective::new(&girg), &index);
        let batch = TrialBatch::new(girg.graph(), &comps, 96)
            .measure_stretch(true)
            .connected_only(true);
        let router = GreedyRouter::new();
        let plain = batch.run_recorded(
            &router,
            &GirgObjective::new(&girg),
            0xBA7C,
            &Pool::with_threads(1),
        );
        let one = batch.run_recorded(&router, &indexed, 0xBA7C, &Pool::with_threads(1));
        let two = batch.run_recorded(&router, &indexed, 0xBA7C, &Pool::with_threads(2));
        let eight = batch.run_recorded(&router, &indexed, 0xBA7C, &Pool::with_threads(8));
        assert_eq!(one.len(), 96);
        assert_eq!(one, plain);
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

    /// The per-pair loop the sequential runner replaced: draw one pair from
    /// `rng` by `draw`'s rule, route it with [`Router::route`], measure its
    /// stretch by BFS, repeat.
    #[allow(clippy::too_many_arguments)]
    fn reference_loop<R: Router, O: Objective>(
        graph: &Graph,
        objective: &O,
        router: &R,
        comps: &Components,
        draw: PairDraw,
        pairs: usize,
        rng: &mut StdRng,
        obs: &mut smallworld_core::CountingObserver,
    ) -> Vec<TrialOutcome> {
        let n = graph.node_count();
        let giant: Vec<NodeId> = graph.nodes().filter(|&v| comps.in_largest(v)).collect();
        (0..pairs)
            .map(|_| {
                let (s, t) = loop {
                    let (s, t) = match draw {
                        PairDraw::Giant => (
                            giant[rng.gen_range(0..giant.len())],
                            giant[rng.gen_range(0..giant.len())],
                        ),
                        PairDraw::Any | PairDraw::Connected => (
                            NodeId::from_index(rng.gen_range(0..n)),
                            NodeId::from_index(rng.gen_range(0..n)),
                        ),
                    };
                    if s != t && (draw != PairDraw::Connected || comps.same_component(s, t)) {
                        break (s, t);
                    }
                };
                let record = router.route(graph, objective, s, t, obs);
                TrialOutcome {
                    success: record.is_success(),
                    hops: record.hops(),
                    stretch: smallworld_core::stretch(graph, &record),
                    same_component: comps.same_component(s, t),
                }
            })
            .collect()
    }

    /// The sequential runner's contract, which keeps `EXPERIMENTS.md`
    /// reproducible: for every draw rule and router, its outcomes, observer
    /// events and final RNG state equal the per-pair reference loop's.
    #[test]
    fn sequential_runner_matches_per_pair_reference_loop() {
        use smallworld_core::{CountingObserver, PhiDfsRouter, RouterKind};
        let mut rng = StdRng::seed_from_u64(17);
        let girg = GirgBuilder::<2>::new(400)
            .lambda(0.01)
            .sample(&mut rng)
            .unwrap();
        let comps = Components::compute(girg.graph());
        assert!(comps.giant_fraction() < 1.0, "the draw rules must differ");
        let obj = GirgObjective::new(&girg);
        let routers = [
            RouterKind::Greedy(GreedyRouter::new()),
            RouterKind::PhiDfs(PhiDfsRouter::new()),
        ];
        for router in &routers {
            for draw in [PairDraw::Any, PairDraw::Connected, PairDraw::Giant] {
                let label = format!("{} {draw:?}", router.name());
                let mut want_rng = StdRng::seed_from_u64(99);
                let mut want_obs = CountingObserver::default();
                let want = reference_loop(
                    girg.graph(),
                    &obj,
                    router,
                    &comps,
                    draw,
                    60,
                    &mut want_rng,
                    &mut want_obs,
                );
                let mut got_rng = StdRng::seed_from_u64(99);
                let mut got_obs = CountingObserver::default();
                let got = route_random_pairs_observed(
                    girg.graph(),
                    &obj,
                    router,
                    &comps,
                    draw,
                    60,
                    true,
                    &mut got_rng,
                    &mut got_obs,
                );
                assert_eq!(got, want, "{label}");
                assert_eq!(got_obs, want_obs, "{label}");
                assert_eq!(got_rng.gen::<u64>(), want_rng.gen::<u64>(), "{label}");
                assert!(got.iter().any(|o| o.stretch.is_some()), "{label}");
            }
        }
    }

    /// A view run over a mapped store's LRU cursors equals the decoded
    /// `TrialBatch` run element for element, at 1 and 3 threads — over a
    /// Morton-relabeled store (bounded hop scans) and over an as-sampled
    /// one, for which the φ-bounds guard builds no bounds.
    #[test]
    fn view_run_matches_decoded_trial_batch() {
        use smallworld_core::PackedGirgObjective;
        use smallworld_store::GraphStore;
        let mut rng = StdRng::seed_from_u64(41);
        let sampled = GirgBuilder::<2>::new(1_500).sample(&mut rng).unwrap();
        let morton = sampled.relabel(&sampled.morton_permutation());
        for (label, girg, bounded) in [("morton", &morton, true), ("as-sampled", &sampled, false)] {
            let path = std::env::temp_dir().join(format!(
                "smallworld-bench-view-run-{label}-{}.swg",
                std::process::id()
            ));
            smallworld_store::save_girg(girg, &path, 1).unwrap();
            let store = GraphStore::open(&path).unwrap();
            let mapped = store.mapped_graph().unwrap();
            let positions = store.packed_positions().unwrap();
            let weights = store.packed_weights().unwrap();
            let (params, _) = store.params().unwrap();
            let packed =
                PackedGirgObjective::<2>::new(&positions, &weights, params.wmin * params.intensity);
            assert_eq!(packed.bounds().is_some(), bounded, "{label}");

            let comps = Components::compute(girg.graph());
            let decoded = TrialBatch::new(girg.graph(), &comps, 80)
                .connected_only(true)
                .run(
                    &GreedyRouter::new(),
                    &GirgObjective::new(girg),
                    13,
                    &Pool::with_threads(1),
                );
            for threads in [1, 3] {
                let (got, cursors) = TrialBatch::for_views(mapped.node_count(), &comps, 80)
                    .connected_only(true)
                    .run_views(
                        &GreedyRouter::new(),
                        &packed,
                        || mapped.cursor(),
                        13,
                        &Pool::with_threads(threads),
                    );
                assert_eq!(got, decoded, "{label}, threads={threads}");
                let hits: u64 = cursors.iter().map(|c| c.hits()).sum();
                let misses: u64 = cursors.iter().map(|c| c.misses()).sum();
                assert!(
                    hits > 0 && misses > 0,
                    "{label}, threads={threads}: {hits}/{misses}"
                );
            }
            std::fs::remove_file(&path).ok();
        }
    }
}

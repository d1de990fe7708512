//! Command-line graph generator: sample any model behind
//! [`smallworld_models::GraphModel`] and print summary statistics, with
//! optional greedy-routing trials and (for GIRGs) a saved graph.
//!
//! ```console
//! cargo run --release -p smallworld-bench --bin girg_gen -- \
//!     --n 100000 --beta 2.5 --alpha 2.0 --degree 10 --seed 42 --out girg.swg
//! cargo run --release -p smallworld-bench --bin girg_gen -- \
//!     --load girg.swg --seed 42 --route 200 --json reload.json
//! ```
//!
//! `--model` picks the generator (`girg`, `hrg`, `kleinberg`, `chung-lu`);
//! every model is driven through the same `GraphModel::sample_seeded` entry
//! point, so adding a model here is one match arm. A GIRG is sampled with
//! the same seeding through `GirgBuilder::sample_counted`, and the edge
//! sampler's work counters (pairs examined per edge, exact-probability
//! fallbacks) and time go to stderr. `--route <pairs>` runs
//! that many greedy Monte-Carlo trials on the shared thread pool
//! (`SMALLWORLD_THREADS` workers) — deterministic in `--seed` at any thread
//! count. Omit `--out` to print statistics only. `--degree` calibrates λ via
//! the Lemma 7.1 marginal; pass `--lambda` instead for a raw kernel constant.
//!
//! `--out` saves a sampled GIRG through `smallworld-store`: a `.swg` path
//! writes the compressed binary store (add `--shards <k>` to embed a
//! geometric shard partition), any other extension writes the legacy text
//! format. `--load` replaces sampling with a store read — the loaded graph,
//! geometry, params, and greedy routes are bitwise those of the generating
//! run, so the report tables match modulo the wall-clock columns (`swreport
//! --diff --ignore "sample secs,route secs"` verifies this in CI).
//! GIRG trials score through `PackedGirgObjective` over the decoded lanes,
//! so a loaded Morton-ordered store prunes hub scans with φ bounds.
//! `--mapped` goes one step further: it routes and analyzes **without
//! decoding the adjacency at all** — components and greedy trials stream
//! per-vertex neighbor lists on demand through the mapped store's LRU
//! cursor, scoring straight off the flat geometry lanes. Every path routes
//! through one `route_phase` and the same `TrialBatch` trials (`run` over
//! a decoded graph, `run_views` over the store's cursors), so `--mapped`
//! tables are cell-for-cell those of `--load` (CI diffs all three runs).
//! It prints the peak RSS, the decode-free open time and the cursors'
//! cache hits / misses, skipped hub runs and decoded ids per route to
//! stderr, then the NBR chunks the cursors checked on first touch (open
//! reads no adjacency byte), and refuses a store whose dimension is not 2.
//! A chunk that fails its checksum, or a malformed list, fails the run with
//! the cursor's error (exit status 1). `--load --route`
//! prints the size of the run directory the decoded graph's routes built
//! (lists, entries, bytes) to stderr instead. Both `--mapped` and a
//! `--load` of a `.swg` store print one `set-up:` line accounting for
//! making the store ready to route: the bytes open verified eagerly (every
//! section but the adjacency), at what rate and with which CRC kernel, the
//! accessors' checks, the φ-ladder build and the decode, which checks the
//! adjacency's chunks first, with its nanoseconds per decoded id and the
//! minor page faults it took.

use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use smallworld_analysis::Table;
use smallworld_bench::{Artifact, RoutingAggregate, Scale, TrialBatch, TrialOutcome};
use smallworld_core::theory::lambda_for_average_degree;
use smallworld_core::{
    GreedyRouter, HyperbolicObjective, KleinbergObjective, Objective, PackedGirgObjective,
};
use smallworld_geometry::Point;
use smallworld_graph::analytics::par_components;
use smallworld_graph::{Components, Graph};
use smallworld_models::girg::{Girg, GirgBuilder, SamplerCounts};
use smallworld_models::hyperbolic::HrgBuilder;
use smallworld_models::{Alpha, ChungLuBuilder, GraphInstance, GraphModel, KleinbergLatticeBuilder};
use smallworld_obs::Span;
use smallworld_par::Pool;
use smallworld_store::{CrcKernel, FirstTouch, GraphStore, MappedCursor, StoreError};

struct Options {
    model: String,
    n: u64,
    beta: f64,
    alpha: f64,
    lambda: Option<f64>,
    degree: Option<f64>,
    wmin: f64,
    seed: u64,
    route: usize,
    out: Option<String>,
    load: Option<String>,
    mapped: Option<String>,
    shards: usize,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        model: "girg".into(),
        n: 10_000,
        beta: 2.5,
        alpha: 2.0,
        lambda: None,
        degree: None,
        wmin: 1.0,
        seed: 1,
        route: 0,
        out: None,
        load: None,
        mapped: None,
        shards: 1,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--help" || flag == "-h" {
            return Err(String::new());
        }
        if flag.starts_with("--json=") {
            // consumed by the artifact sink (smallworld_obs::sink)
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = |e: &str| format!("bad value for {flag}: {e}");
        match flag {
            "--model" => opts.model = value.clone(),
            "--n" => opts.n = value.parse().map_err(|_| bad(value))?,
            "--beta" => opts.beta = value.parse().map_err(|_| bad(value))?,
            "--alpha" => {
                opts.alpha = if value == "inf" {
                    f64::INFINITY
                } else {
                    value.parse().map_err(|_| bad(value))?
                }
            }
            "--lambda" => opts.lambda = Some(value.parse().map_err(|_| bad(value))?),
            "--degree" => opts.degree = Some(value.parse().map_err(|_| bad(value))?),
            "--wmin" => opts.wmin = value.parse().map_err(|_| bad(value))?,
            "--seed" => opts.seed = value.parse().map_err(|_| bad(value))?,
            "--route" => opts.route = value.parse().map_err(|_| bad(value))?,
            "--out" => opts.out = Some(value.clone()),
            "--load" => opts.load = Some(value.clone()),
            "--mapped" => opts.mapped = Some(value.clone()),
            "--shards" => {
                opts.shards = value.parse().map_err(|_| bad(value))?;
                if opts.shards == 0 {
                    return Err(bad("shard count must be positive"));
                }
            }
            "--json" => {} // consumed by the artifact sink (smallworld_obs::sink)
            other => return Err(format!("unknown flag {other}")),
        }
        i += 2;
    }
    if opts.lambda.is_some() && opts.degree.is_some() {
        return Err("--lambda and --degree are mutually exclusive".into());
    }
    if !matches!(opts.model.as_str(), "girg" | "hrg" | "kleinberg" | "chung-lu") {
        return Err(format!(
            "unknown model {:?} (choose girg, hrg, kleinberg, chung-lu)",
            opts.model
        ));
    }
    if opts.out.is_some() && opts.model != "girg" {
        return Err("--out is only supported for --model girg".into());
    }
    if opts.load.is_some() {
        if opts.model != "girg" {
            return Err("--load is only supported for --model girg".into());
        }
        if opts.out.is_some() {
            return Err("--load and --out are mutually exclusive".into());
        }
    }
    if opts.mapped.is_some() {
        if opts.model != "girg" {
            return Err("--mapped is only supported for --model girg".into());
        }
        if opts.out.is_some() || opts.load.is_some() {
            return Err("--mapped is mutually exclusive with --out and --load".into());
        }
    }
    if opts.route > 0 && opts.model == "chung-lu" {
        return Err("--route needs a geometric objective; chung-lu has none".into());
    }
    Ok(opts)
}

fn usage() {
    eprintln!(
        "girg_gen: sample a random graph model and report statistics\n\
         flags: [--model girg|hrg|kleinberg|chung-lu] --n <u64> \
         --beta <f64 in (2,3)> --alpha <f64 or inf> \
         [--lambda <f64> | --degree <f64>] [--wmin <f64>] [--seed <u64>] \
         [--route <pairs>] [--out <path>] [--load <path>] [--mapped <path>] \
         [--shards <k>] [--json <path>]\n\
         `.swg` paths use the smallworld-store binary format; other \
         extensions use the legacy text format"
    );
}

/// The GIRG parameter label shared by the sample and load paths: the loaded
/// run rebuilds it from the stored `GirgParams`, and `f64` `Display` prints
/// whole numbers without a decimal point and infinity as `inf`, so a reload
/// reproduces the generating run's label character for character.
fn girg_params_label(n: f64, beta: f64, alpha: f64, lambda: f64) -> String {
    format!("n={n} beta={beta} alpha={alpha} lambda={lambda}")
}

/// Builds the model-agnostic statistics table every generator (and the
/// store load and mapped paths) shares. Takes plain values rather than a
/// [`Graph`] so the decode-free mapped path — which never materializes a
/// CSR — fills the same cells from the store header.
#[allow(clippy::too_many_arguments)]
fn summary_table(
    name: &str,
    params: &str,
    seed: u64,
    vertices: usize,
    edges: usize,
    avg_degree: f64,
    giant_fraction: f64,
    elapsed: f64,
) -> Table {
    let mut table = Table::new([
        "model",
        "params",
        "seed",
        "vertices",
        "edges",
        "avg degree",
        "giant frac",
        "sample secs",
    ])
    .title("girg_gen: sampled graph");
    table.row([
        name.to_string(),
        params.to_string(),
        seed.to_string(),
        vertices.to_string(),
        edges.to_string(),
        format!("{avg_degree:.3}"),
        format!("{giant_fraction:.4}"),
        format!("{elapsed:.3}"),
    ]);
    table
}

/// Samples one instance of model `name` through `sample` and summarizes it.
fn sample_and_summarize<I: GraphInstance>(
    name: &str,
    params: &str,
    seed: u64,
    sample: impl FnOnce() -> Result<I, smallworld_models::ModelError>,
) -> Result<(I, Components, Table), smallworld_models::ModelError> {
    let start = std::time::Instant::now();
    let instance = {
        let _span = Span::enter("sample_graph");
        sample()?
    };
    let elapsed = start.elapsed().as_secs_f64();
    let graph = instance.graph();
    // top-level, idle pool: the parallel union–find kernel is safe to fan
    // out and produces the same labels as the serial path at any thread count
    let comps = par_components(graph, &Pool::from_env());
    eprintln!(
        "sampled {name} ({params}): {} vertices, {} edges in {elapsed:.2}s \
         (avg degree {:.2}, giant {:.1}%)",
        graph.node_count(),
        graph.edge_count(),
        graph.average_degree(),
        100.0 * comps.giant_fraction()
    );
    let table = summary_table(
        name,
        params,
        seed,
        graph.node_count(),
        graph.edge_count(),
        graph.average_degree(),
        comps.giant_fraction(),
        elapsed,
    );
    Ok((instance, comps, table))
}

/// What making a `.swg` store ready to route cost, step by step; printed
/// as one stderr line by `--mapped` and by `--load` of a `.swg` store.
struct SetupAccount {
    /// Bytes the CRCs of [`GraphStore::open`] covered: every section but
    /// NBR, whose chunks are checked on first touch.
    verified_bytes: usize,
    /// Seconds `open` took: the CRC pass with the structural checks it
    /// runs on each hot chunk.
    open_secs: f64,
    /// The CRC kernel open ran.
    kernel: CrcKernel,
    /// Seconds of `mapped_graph`, `packed_positions` and `packed_weights`,
    /// which report what open's checks found.
    checks_secs: f64,
    /// Seconds of the φ objective's ladder build and whether it built
    /// bounds; `None` until a route phase builds the objective.
    ladder: Option<(f64, bool)>,
    /// The full decode; `None` on the decode-free path.
    decode: Option<DecodeAccount>,
}

/// What the full decode (`load_girg`) of a `--load` cost.
struct DecodeAccount {
    /// Seconds it took.
    secs: f64,
    /// Neighbor ids it decoded (`2m`).
    ids: usize,
    /// Minor page faults it took (the first touches of the decoded
    /// arrays), where the platform counts them.
    minor_faults: Option<u64>,
}

impl DecodeAccount {
    /// Decodes `store` through `load_girg`, counting its time and faults.
    fn load(store: &GraphStore) -> Result<(Girg<2>, DecodeAccount), StoreError> {
        let faults = smallworld_obs::minor_faults();
        let start = Instant::now();
        let girg = store.load_girg()?;
        let secs = start.elapsed().as_secs_f64();
        let minor_faults = faults
            .zip(smallworld_obs::minor_faults())
            .map(|(before, after)| after - before);
        let ids = 2 * store.edge_count();
        Ok((
            girg,
            DecodeAccount {
                secs,
                ids,
                minor_faults,
            },
        ))
    }
}

impl SetupAccount {
    /// Opens the store at `path`, timing the open.
    fn open(path: &str) -> Result<(GraphStore, SetupAccount), StoreError> {
        let start = Instant::now();
        let store = {
            let _span = Span::enter("open_swg");
            GraphStore::open(Path::new(path))?
        };
        let account = SetupAccount {
            verified_bytes: store.verified_bytes(),
            open_secs: start.elapsed().as_secs_f64(),
            kernel: CrcKernel::detect(),
            checks_secs: 0.0,
            ladder: None,
            decode: None,
        };
        Ok((store, account))
    }

    /// Runs `check`, adding its time to the accessor checks.
    fn check<T>(&mut self, check: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = check();
        self.checks_secs += start.elapsed().as_secs_f64();
        out
    }

    /// Builds the packed φ objective over the lanes, timing its ladder.
    fn objective<'a>(
        &mut self,
        positions: &'a [f64],
        weights: &'a [f64],
        norm: f64,
    ) -> PackedGirgObjective<'a, 2> {
        let start = Instant::now();
        let objective = PackedGirgObjective::<2>::new(positions, weights, norm);
        self.ladder = Some((start.elapsed().as_secs_f64(), objective.bounds().is_some()));
        objective
    }

    /// The stderr line.
    fn line(&self) -> String {
        const MIB: f64 = (1 << 20) as f64;
        let ms = |secs: f64| format!("{:.1} ms", secs * 1e3);
        let ladder = match self.ladder {
            Some((secs, true)) => ms(secs),
            Some((secs, false)) => format!("{} (no bounds)", ms(secs)),
            None => "none (no routes)".into(),
        };
        let decode = self.decode.as_ref().map_or_else(
            || "none (decode-free)".into(),
            |d| {
                let ns_per_id = d.secs * 1e9 / d.ids.max(1) as f64;
                match d.minor_faults {
                    Some(faults) => {
                        format!(
                            "{} ({ns_per_id:.1} ns/id, {faults} minor faults)",
                            ms(d.secs)
                        )
                    }
                    None => format!("{} ({ns_per_id:.1} ns/id)", ms(d.secs)),
                }
            },
        );
        format!(
            "set-up: verified {:.1} MiB eager in {} ({:.1} GiB/s, {} CRC); accessor checks {}; \
             ladder build {ladder}; decode {decode}",
            self.verified_bytes as f64 / MIB,
            ms(self.open_secs),
            self.verified_bytes as f64 / MIB / 1024.0 / self.open_secs,
            self.kernel.name(),
            ms(self.checks_secs),
        )
    }
}

/// Loads a GIRG from a store file and summarizes it with the load time in
/// the `sample secs` column; the params label is rebuilt from the stored
/// parameters so the table matches the generating run's. A `.swg` store
/// comes with its [`SetupAccount`] (the ladder still to be built).
fn load_and_summarize(
    path: &str,
    seed: u64,
) -> Result<(Girg<2>, Components, Table, Option<SetupAccount>), String> {
    let start = Instant::now();
    let (girg, account): (Girg<2>, _) = {
        let _span = Span::enter("load_graph");
        let loading = |e: StoreError| format!("loading {path}: {e}");
        if smallworld_store::is_swg_path(Path::new(path)) {
            let (store, mut account) = SetupAccount::open(path).map_err(loading)?;
            let (girg, decode) = DecodeAccount::load(&store).map_err(loading)?;
            account.decode = Some(decode);
            // decoded: the accessors cannot fail, and report open's checks
            account.check(|| {
                store.mapped_graph().is_ok()
                    && store.packed_positions().is_ok()
                    && store.packed_weights().is_ok()
            });
            (girg, Some(account))
        } else {
            (
                smallworld_store::load_girg(Path::new(path)).map_err(loading)?,
                None,
            )
        }
    };
    let elapsed = start.elapsed().as_secs_f64();
    let graph = girg.graph();
    let comps = par_components(graph, &Pool::from_env());
    let p = girg.params();
    let alpha = match p.alpha {
        Alpha::Finite(a) => a,
        Alpha::Threshold => f64::INFINITY,
    };
    let params = girg_params_label(p.intensity, p.beta, alpha, p.lambda);
    eprintln!(
        "loaded girg ({params}) from {path}: {} vertices, {} edges in {elapsed:.3}s",
        graph.node_count(),
        graph.edge_count()
    );
    let table = summary_table(
        "girg",
        &params,
        seed,
        graph.node_count(),
        graph.edge_count(),
        graph.average_degree(),
        comps.giant_fraction(),
        elapsed,
    );
    Ok((girg, comps, table, account))
}

/// Runs `pairs` connected greedy trials through `trials` on the shared
/// pool — a decoded [`TrialBatch::run`] for sampled and `--load`ed graphs,
/// a [`TrialBatch::run_views`] over the mapped store for `--mapped` — and
/// tabulates the result. Deterministic in the seed regardless of
/// `SMALLWORLD_THREADS`, and the cells format identically for every
/// substrate, so a `--mapped` rerun diffs cleanly against the generating
/// run under `swreport --diff`.
fn route_phase(pairs: usize, trials: impl FnOnce(&Pool) -> Vec<TrialOutcome>) -> Table {
    let pool = Pool::from_env();
    let start = std::time::Instant::now();
    let trials = {
        let _span = Span::enter("route_pairs");
        trials(&pool)
    };
    let elapsed = start.elapsed().as_secs_f64();
    let agg = RoutingAggregate::from_trials(&trials);
    eprintln!(
        "routed {pairs} connected pairs on {} thread(s) in {elapsed:.2}s \
         (success {:.1}%, mean hops {:.2})",
        pool.threads(),
        100.0 * agg.success.rate(),
        agg.hops.mean()
    );
    let mut table = Table::new([
        "pairs",
        "threads",
        "success rate",
        "mean hops",
        "route secs",
    ])
    .title("girg_gen: greedy routing trials");
    table.row([
        pairs.to_string(),
        pool.threads().to_string(),
        format!("{:.4}", agg.success.rate()),
        format!("{:.3}", agg.hops.mean()),
        format!("{elapsed:.3}"),
    ]);
    table
}

/// [`route_phase`] over a decoded graph.
fn route_decoded<O: Objective + Sync>(
    graph: &Graph,
    comps: &Components,
    objective: &O,
    pairs: usize,
    seed: u64,
) -> Table {
    route_phase(pairs, |pool| {
        TrialBatch::new(graph, comps, pairs)
            .connected_only(true)
            .run(&GreedyRouter::new(), objective, seed, pool)
    })
}

/// The stderr line on the in-RAM run directory that `--load`'s bounded
/// routes walk: its list count, entry count and bytes, or that none was
/// built (no list reached the threshold, or the ids built no bounds).
fn run_directory_line(graph: &Graph) -> String {
    match graph.run_directory() {
        Some(dir) => format!(
            "in-RAM run directory: {} lists, {} entries, {} bytes",
            dir.list_count(),
            dir.entry_count(),
            dir.bytes()
        ),
        None => "in-RAM run directory: none built".into(),
    }
}

/// The stderr line on the NBR chunks the cursors checked on first touch.
fn first_touch_line(touched: &FirstTouch) -> String {
    format!(
        "NBR verified on first touch: {} of {} chunks, {:.1} MiB in {:.1} ms",
        touched.chunks,
        touched.total_chunks,
        touched.bytes as f64 / (1 << 20) as f64,
        touched.secs * 1e3
    )
}

/// The first error any of `cursors` kept, as the run's error message.
fn cursor_error<'c, 'a: 'c>(
    path: &str,
    cursors: impl IntoIterator<Item = &'c mut MappedCursor<'a>>,
) -> Result<(), String> {
    match cursors.into_iter().find_map(|c| c.take_error()) {
        Some(e) => Err(format!("reading {path}: {e}")),
        None => Ok(()),
    }
}

/// The `--mapped` path: open the store, route and analyze **without
/// decoding the adjacency** — components stream one vertex at a time
/// through the mapped cursor, and routing scores straight off the flat
/// POS/WEIGHT lanes. The tables match a `--load` run cell for cell modulo
/// the wall-clock columns (`swreport --diff --ignore "sample secs,route
/// secs"`), which CI pins.
fn run_mapped(path: &str, route: usize, seed: u64) -> Result<Vec<Table>, String> {
    let start = Instant::now();
    let (store, mut account) =
        SetupAccount::open(path).map_err(|e| format!("opening {path}: {e}"))?;
    // the objective reads d = 2 lanes; refuse other stores as `--load` does
    if store.dim() != 2 {
        let e = StoreError::DimensionMismatch {
            file: store.dim(),
            expected: 2,
        };
        return Err(format!("opening {path}: {e}"));
    }
    let mapped = account
        .check(|| store.mapped_graph())
        .map_err(|e| format!("mapping {path}: {e}"))?;
    let open_secs = start.elapsed().as_secs_f64();
    let comps = {
        let _span = Span::enter("components_view");
        let mut cursor = mapped.cursor();
        let comps = Components::compute_view(&mut cursor);
        cursor_error(path, [&mut cursor])?;
        comps
    };
    let (p, _) = store
        .params()
        .map_err(|e| format!("reading params from {path}: {e}"))?;
    let alpha = match p.alpha {
        Alpha::Finite(a) => a,
        Alpha::Threshold => f64::INFINITY,
    };
    let params = girg_params_label(p.intensity, p.beta, alpha, p.lambda);
    let (rss, rss_source) = smallworld_obs::peak_rss();
    eprintln!(
        "mapped girg ({params}) from {path}: {} vertices, {} edges, open {open_secs:.3}s \
         decode-free (peak RSS {} via {})",
        mapped.node_count(),
        mapped.edge_count(),
        rss.map(|b| format!("{:.1} MiB", b as f64 / (1024.0 * 1024.0)))
            .unwrap_or_else(|| "?".into()),
        rss_source.as_str(),
    );
    let avg_degree = if mapped.node_count() == 0 {
        0.0
    } else {
        mapped.target_count() as f64 / mapped.node_count() as f64
    };
    let table = summary_table(
        "girg",
        &params,
        seed,
        mapped.node_count(),
        mapped.edge_count(),
        avg_degree,
        comps.giant_fraction(),
        open_secs,
    );
    let mut tables = vec![table];
    if route > 0 {
        let positions = account
            .check(|| store.packed_positions())
            .map_err(|e| format!("reading positions from {path}: {e}"))?;
        let weights = account
            .check(|| store.packed_weights())
            .map_err(|e| format!("reading weights from {path}: {e}"))?;
        let packed = account.objective(&positions, &weights, p.wmin * p.intensity);
        let mut read = Ok(());
        tables.push(route_phase(route, |pool| {
            let (trials, mut cursors) = TrialBatch::for_views(mapped.node_count(), &comps, route)
                .connected_only(true)
                .run_views(
                    &GreedyRouter::new(),
                    &packed,
                    || mapped.cursor(),
                    seed,
                    pool,
                );
            eprintln!(
                "decode-free: cache {} hits / {} misses, {} runs skipped, \
                 {:.0} decoded ids per route",
                cursors.iter().map(|c| c.hits()).sum::<u64>(),
                cursors.iter().map(|c| c.misses()).sum::<u64>(),
                cursors.iter().map(|c| c.skipped_runs()).sum::<u64>(),
                cursors.iter().map(|c| c.decoded_ids()).sum::<u64>() as f64
                    / trials.len().max(1) as f64
            );
            read = cursor_error(path, &mut cursors);
            trials
        }));
        read?;
    }
    eprintln!("{}", first_touch_line(&store.first_touch()));
    eprintln!("{}", account.line());
    Ok(tables)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}\n");
            }
            usage();
            return ExitCode::FAILURE;
        }
    };

    let lambda = opts.lambda.unwrap_or_else(|| {
        let degree = opts.degree.unwrap_or(10.0);
        lambda_for_average_degree(degree, opts.alpha, 2, opts.beta, opts.wmin)
    });

    let artifact = Artifact::open("girg_gen", Scale::Full);
    let mut exit = ExitCode::SUCCESS;
    let (_, _) = artifact.run_suite("girg_gen", Scale::Full, |_| {
        macro_rules! try_sample {
            ($model:expr, $params:expr) => {
                try_sample!($model, $params, || $model.sample_seeded(opts.seed))
            };
            ($model:expr, $params:expr, $sample:expr) => {
                match sample_and_summarize($model.name(), &$params, opts.seed, $sample) {
                    Ok(parts) => parts,
                    Err(e) => {
                        eprintln!("error: {e}");
                        exit = ExitCode::FAILURE;
                        return Vec::new();
                    }
                }
            };
        }
        match opts.model.as_str() {
            "girg" => {
                if let Some(path) = &opts.mapped {
                    return match run_mapped(path, opts.route, opts.seed) {
                        Ok(tables) => tables,
                        Err(e) => {
                            eprintln!("error: {e}");
                            exit = ExitCode::FAILURE;
                            Vec::new()
                        }
                    };
                }
                let (girg, comps, table, mut account) = if let Some(path) = &opts.load {
                    match load_and_summarize(path, opts.seed) {
                        Ok(parts) => parts,
                        Err(e) => {
                            eprintln!("error: {e}");
                            exit = ExitCode::FAILURE;
                            return Vec::new();
                        }
                    }
                } else {
                    let model = GirgBuilder::<2>::new(opts.n)
                        .beta(opts.beta)
                        .alpha(Alpha::from(opts.alpha))
                        .wmin(opts.wmin)
                        .lambda(lambda);
                    let params =
                        girg_params_label(opts.n as f64, opts.beta, opts.alpha, lambda);
                    let mut counts = SamplerCounts::default();
                    let mut edge_time = Duration::ZERO;
                    let parts = try_sample!(model, params, || {
                        // the draws of `GraphModel::sample_seeded`, plus the
                        // edge sampler's work counters and time
                        let mut rng = StdRng::seed_from_u64(opts.seed);
                        let (girg, sampled, took) = model.sample_counted(&mut rng)?;
                        (counts, edge_time) = (sampled, took);
                        Ok(girg)
                    });
                    eprintln!(
                        "sampler: {counts}; edge sampling {:.3} s",
                        edge_time.as_secs_f64()
                    );
                    let (girg, comps, table) = parts;
                    (girg, comps, table, None)
                };
                let mut tables = vec![table];
                if opts.route > 0 {
                    // the store-path objective over the decoded lanes: a
                    // loaded (Morton-ordered) store prunes hub scans as
                    // `--mapped` does; sampled ids get no bounds
                    let p = girg.params();
                    let (positions, weights) = (Point::flatten(girg.positions()), girg.weights());
                    let norm = p.wmin * p.intensity;
                    let obj = match &mut account {
                        Some(account) => account.objective(positions, weights, norm),
                        None => PackedGirgObjective::<2>::new(positions, weights, norm),
                    };
                    tables.push(route_decoded(
                        girg.graph(),
                        &comps,
                        &obj,
                        opts.route,
                        opts.seed,
                    ));
                    if opts.load.is_some() {
                        eprintln!("{}", run_directory_line(girg.graph()));
                    }
                }
                if let Some(account) = &account {
                    eprintln!("{}", account.line());
                }
                if let Some(path) = &opts.out {
                    let _span = Span::enter("write_girg");
                    match smallworld_store::save_girg(&girg, Path::new(path), opts.shards) {
                        Ok(Some(stats)) => eprintln!(
                            "wrote {path}: {} bytes ({} compressed / {} raw CSR bytes)",
                            stats.file_bytes, stats.compressed_csr_bytes, stats.raw_csr_bytes
                        ),
                        Ok(None) => eprintln!("wrote {path} (legacy text format)"),
                        Err(e) => {
                            eprintln!("error: writing {path}: {e}");
                            exit = ExitCode::FAILURE;
                        }
                    }
                }
                tables
            }
            "hrg" => {
                let model = HrgBuilder::new(opts.n as usize);
                let params = format!("n={}", opts.n);
                let (hrg, comps, table) = try_sample!(model, params);
                let mut tables = vec![table];
                if opts.route > 0 {
                    let obj = HyperbolicObjective::new(&hrg);
                    tables.push(route_decoded(
                        hrg.graph(),
                        &comps,
                        &obj,
                        opts.route,
                        opts.seed,
                    ));
                }
                tables
            }
            "kleinberg" => {
                // --n means vertices for every model; the lattice is square
                let side = (opts.n as f64).sqrt().ceil().max(3.0) as u32;
                let model = KleinbergLatticeBuilder::new(side);
                let params = format!("side={side} r=2");
                let (lattice, comps, table) = try_sample!(model, params);
                let mut tables = vec![table];
                if opts.route > 0 {
                    let obj = KleinbergObjective::new(&lattice);
                    tables.push(route_decoded(
                        lattice.graph(),
                        &comps,
                        &obj,
                        opts.route,
                        opts.seed,
                    ));
                }
                tables
            }
            "chung-lu" => {
                let model = ChungLuBuilder::new(opts.n as usize)
                    .beta(opts.beta)
                    .wmin(opts.wmin);
                let params = format!("n={} beta={} wmin={}", opts.n, opts.beta, opts.wmin);
                let (_cl, _comps, table) = try_sample!(model, params);
                vec![table]
            }
            _ => unreachable!("parse_args validates the model name"),
        }
    });
    artifact.finish();
    exit
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// The mapped path reads d = 2 lanes, so a store of any other dimension
    /// is refused when it opens — with or without routing — instead of
    /// panicking in the objective.
    #[test]
    fn run_mapped_rejects_a_store_of_another_dimension() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let girg = GirgBuilder::<3>::new(300).sample(&mut rng).unwrap();
        let path = std::env::temp_dir().join(format!(
            "smallworld-girg-gen-dim3-{}.swg",
            std::process::id()
        ));
        smallworld_store::save_girg(&girg, &path, 1).unwrap();
        let file = path.to_str().unwrap();
        for route in [0, 50] {
            let err = run_mapped(file, route, 1).expect_err("a d = 3 store must be refused");
            assert!(err.contains("store has dimension 3, expected 2"), "{err}");
        }
        std::fs::remove_file(&path).ok();
    }

    /// A flipped adjacency byte opens (open reads no NBR byte) and then
    /// fails the mapped run with its chunk's checksum, with or without
    /// routes; a clean store reports the chunks its cursors checked.
    #[test]
    fn run_mapped_fails_with_a_bad_nbr_chunk() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let girg = GirgBuilder::<2>::new(2_000).sample(&mut rng).unwrap();
        let path = std::env::temp_dir().join(format!(
            "smallworld-girg-gen-nbr-{}.swg",
            std::process::id()
        ));
        smallworld_store::save_girg(&girg, &path, 1).unwrap();
        let file = path.to_str().unwrap();
        assert!(run_mapped(file, 20, 1).is_ok());
        let store = GraphStore::open(&path).unwrap();
        assert_eq!(store.first_touch().chunks, 0);
        store.load_graph().unwrap();
        let all = store.first_touch();
        assert_eq!(all.chunks, all.total_chunks);
        drop(store);

        let mut bytes = std::fs::read(&path).unwrap();
        let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
        let nbr = (64..64 + 24 * bytes[40] as usize)
            .step_by(24)
            .find(|&entry| bytes[entry] == smallworld_store::SectionId::Nbr as u8)
            .unwrap();
        let middle = word(nbr + 8) + word(nbr + 16) / 2;
        bytes[middle] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        for route in [0, 20] {
            let err = run_mapped(file, route, 1).expect_err("a bad chunk must fail the run");
            assert!(err.contains("checksum mismatch in section NBR"), "{err}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn first_touch_line_counts_chunks_bytes_and_time() {
        let touched = FirstTouch {
            chunks: 3,
            total_chunks: 1280,
            bytes: 3 << 16,
            secs: 0.000_025,
        };
        assert_eq!(
            first_touch_line(&touched),
            "NBR verified on first touch: 3 of 1280 chunks, 0.2 MiB in 0.0 ms"
        );
    }

    /// The set-up line accounts for each step: the eagerly verified bytes
    /// with their rate and the CRC kernel, the accessor checks, the ladder
    /// build (or that none was built yet, or that it declined bounds) and
    /// the decode (or that there was none) with its nanoseconds per id
    /// and minor faults (where the platform counts them).
    #[test]
    fn setup_line_accounts_for_each_step() {
        let mut account = SetupAccount {
            verified_bytes: 3 << 29,
            open_secs: 0.125,
            kernel: CrcKernel::Fold,
            checks_secs: 0.000_04,
            ladder: None,
            decode: None,
        };
        assert_eq!(
            account.line(),
            "set-up: verified 1536.0 MiB eager in 125.0 ms (12.0 GiB/s, pclmulqdq-128 CRC); \
             accessor checks 0.0 ms; ladder build none (no routes); decode none (decode-free)"
        );
        account.ladder = Some((0.0031, true));
        account.decode = Some(DecodeAccount {
            secs: 0.25,
            ids: 50_000_000,
            minor_faults: Some(1234),
        });
        assert!(account
            .line()
            .ends_with("; ladder build 3.1 ms; decode 250.0 ms (5.0 ns/id, 1234 minor faults)"));
        account.decode.as_mut().unwrap().minor_faults = None;
        assert!(account.line().ends_with("; decode 250.0 ms (5.0 ns/id)"));
        account.ladder = Some((0.0004, false));
        assert!(account
            .line()
            .contains("; ladder build 0.4 ms (no bounds);"));

        // a real open fills in the bytes its CRCs covered and the kernel
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let girg = GirgBuilder::<2>::new(500).sample(&mut rng).unwrap();
        let path = std::env::temp_dir().join(format!(
            "smallworld-girg-gen-setup-{}.swg",
            std::process::id()
        ));
        smallworld_store::save_girg(&girg, &path, 1).unwrap();
        let (store, account) = SetupAccount::open(path.to_str().unwrap()).unwrap();
        assert_eq!(account.verified_bytes, store.verified_bytes());
        assert_eq!(account.kernel, CrcKernel::detect());
        assert!(account.line().contains(CrcKernel::detect().name()));
        // …and a real decode its ids and, where counted, its faults
        let (loaded, decode) = DecodeAccount::load(&store).unwrap();
        assert_eq!(loaded.graph(), girg.graph());
        assert_eq!(decode.ids, 2 * girg.graph().edge_count());
        assert_eq!(
            decode.minor_faults.is_some(),
            smallworld_obs::minor_faults().is_some()
        );
        std::fs::remove_file(&path).ok();
    }

    /// The `--load` stderr line names the directory's size once a run fold
    /// over a long list has built it, and says so while none is built.
    #[test]
    fn run_directory_line_reports_the_built_directory() {
        use smallworld_graph::view::DIRECTORY_MIN_IDS;
        use smallworld_graph::{AdjacencyView, NodeId, RunFold};

        struct Skip;
        impl RunFold for Skip {
            fn wants(&mut self, _run: usize) -> bool {
                false
            }
            fn fold(&mut self, _ids: &[NodeId]) {}
        }

        let hub = DIRECTORY_MIN_IDS as u32;
        let graph = Graph::from_edges(hub as usize + 1, (0..hub).map(|u| (u, hub))).unwrap();
        assert_eq!(
            run_directory_line(&graph),
            "in-RAM run directory: none built"
        );
        (&graph).fold_runs(NodeId::new(hub), &mut Skip);
        let dir = graph.run_directory().expect("built");
        assert_eq!(
            run_directory_line(&graph),
            format!(
                "in-RAM run directory: 1 lists, 1 entries, {} bytes",
                dir.bytes()
            )
        );
    }
}

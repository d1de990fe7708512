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
//! point, so adding a model here is one match arm. `--route <pairs>` runs
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
//! `--mapped` goes one step further: it routes and analyzes **without
//! decoding the adjacency at all** — components and greedy trials stream
//! per-vertex neighbor lists on demand through the mapped store's LRU
//! cursor, scoring straight off the flat geometry lanes. Its tables are
//! cell-for-cell those of `--load` (CI diffs all three runs), and it prints
//! the peak RSS plus the decode-free open time to stderr.

use std::path::Path;
use std::process::ExitCode;

use smallworld_analysis::Table;
use smallworld_bench::{mapped_trials, Artifact, RoutingAggregate, Scale, TrialBatch};
use smallworld_core::theory::lambda_for_average_degree;
use smallworld_core::{
    GirgObjective, GreedyRouter, HyperbolicObjective, KleinbergObjective, Objective,
};
use smallworld_graph::analytics::par_components;
use smallworld_graph::{Components, Graph};
use smallworld_models::girg::{Girg, GirgBuilder};
use smallworld_models::hyperbolic::HrgBuilder;
use smallworld_models::{Alpha, ChungLuBuilder, GraphInstance, GraphModel, KleinbergLatticeBuilder};
use smallworld_obs::Span;
use smallworld_par::Pool;
use smallworld_store::{GraphStore, MappedGraph};

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

/// Samples `model` through the [`GraphModel`] trait and summarizes it.
fn sample_and_summarize<M: GraphModel>(
    model: &M,
    params: &str,
    seed: u64,
) -> Result<(M::Instance, Components, Table), smallworld_models::ModelError> {
    let start = std::time::Instant::now();
    let instance = {
        let _span = Span::enter("sample_graph");
        model.sample_seeded(seed)?
    };
    let elapsed = start.elapsed().as_secs_f64();
    let graph = instance.graph();
    // top-level, idle pool: the parallel union–find kernel is safe to fan
    // out and produces the same labels as the serial path at any thread count
    let comps = par_components(graph, &Pool::from_env());
    eprintln!(
        "sampled {} ({params}): {} vertices, {} edges in {elapsed:.2}s \
         (avg degree {:.2}, giant {:.1}%)",
        model.name(),
        graph.node_count(),
        graph.edge_count(),
        graph.average_degree(),
        100.0 * comps.giant_fraction()
    );
    let table = summary_table(
        model.name(),
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

/// Loads a GIRG from a store file and summarizes it with the load time in
/// the `sample secs` column; the params label is rebuilt from the stored
/// parameters so the table matches the generating run's.
fn load_and_summarize(path: &str, seed: u64) -> Result<(Girg<2>, Components, Table), String> {
    let start = std::time::Instant::now();
    let girg: Girg<2> = {
        let _span = Span::enter("load_graph");
        smallworld_store::load_girg(Path::new(path)).map_err(|e| format!("loading {path}: {e}"))?
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
    Ok((girg, comps, table))
}

/// Builds the routing-trial table both the decoded and mapped route phases
/// share; the cells must format identically so a `--mapped` rerun diffs
/// cleanly against the generating run under `swreport --diff`.
fn route_table(pairs: usize, threads: usize, agg: &RoutingAggregate, elapsed: f64) -> Table {
    let mut table = Table::new(["pairs", "threads", "success rate", "mean hops", "route secs"])
        .title("girg_gen: greedy routing trials");
    table.row([
        pairs.to_string(),
        threads.to_string(),
        format!("{:.4}", agg.success.rate()),
        format!("{:.3}", agg.hops.mean()),
        format!("{elapsed:.3}"),
    ]);
    table
}

/// Runs `pairs` greedy trials on the shared pool and tabulates the result;
/// deterministic in `seed` regardless of `SMALLWORLD_THREADS`.
fn route_phase<O: Objective + Sync>(
    graph: &Graph,
    comps: &Components,
    objective: &O,
    pairs: usize,
    seed: u64,
) -> Table {
    let pool = Pool::from_env();
    let start = std::time::Instant::now();
    let trials = {
        let _span = Span::enter("route_pairs");
        TrialBatch::new(graph, comps, pairs)
            .connected_only(true)
            .run(&GreedyRouter::new(), objective, seed, &pool)
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
    route_table(pairs, pool.threads(), &agg, elapsed)
}

/// Routes `pairs` trials straight off the mapped store via
/// [`smallworld_bench::mapped_trials`] — outcome-for-outcome the decoded
/// [`route_phase`] run — and tabulates the result in its exact shape.
fn route_phase_mapped<const D: usize>(
    mapped: &MappedGraph<'_>,
    comps: &Components,
    objective: &GirgObjective<'_, D>,
    pairs: usize,
    seed: u64,
) -> Table {
    let pool = Pool::from_env();
    let start = std::time::Instant::now();
    let trials = {
        let _span = Span::enter("route_pairs");
        mapped_trials(mapped, comps, objective, pairs, seed, &pool)
    };
    let elapsed = start.elapsed().as_secs_f64();
    let agg = RoutingAggregate::from_trials(&trials.outcomes);
    eprintln!(
        "routed {pairs} connected pairs decode-free on {} thread(s) in {elapsed:.2}s \
         (success {:.1}%, mean hops {:.2}, LRU {} hits / {} misses)",
        pool.threads(),
        100.0 * agg.success.rate(),
        agg.hops.mean(),
        trials.lru_hits,
        trials.lru_misses
    );
    route_table(pairs, pool.threads(), &agg, elapsed)
}

/// The `--mapped` path: open the store, route and analyze **without
/// decoding the adjacency** — components stream one vertex at a time
/// through the mapped cursor, and routing scores straight off the flat
/// POS/WEIGHT lanes. The tables match a `--load` run cell for cell modulo
/// the wall-clock columns (`swreport --diff --ignore "sample secs,route
/// secs"`), which CI pins.
fn run_mapped(path: &str, route: usize, seed: u64) -> Result<Vec<Table>, String> {
    let start = std::time::Instant::now();
    let store = {
        let _span = Span::enter("open_swg");
        GraphStore::open(Path::new(path)).map_err(|e| format!("opening {path}: {e}"))?
    };
    let mapped = store
        .mapped_graph()
        .map_err(|e| format!("mapping {path}: {e}"))?;
    let open_secs = start.elapsed().as_secs_f64();
    let comps = {
        let _span = Span::enter("components_view");
        let mut cursor = mapped.cursor();
        Components::compute_view(&mut cursor)
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
        let positions = store
            .packed_positions()
            .map_err(|e| format!("reading positions from {path}: {e}"))?;
        let weights = store
            .packed_weights()
            .map_err(|e| format!("reading weights from {path}: {e}"))?;
        let packed = GirgObjective::<2>::from_lanes(&positions, &weights, p.wmin * p.intensity);
        tables.push(route_phase_mapped(&mapped, &comps, &packed, route, seed));
    }
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
                match sample_and_summarize(&$model, &$params, opts.seed) {
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
                let (girg, comps, table) = if let Some(path) = &opts.load {
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
                    try_sample!(model, params)
                };
                let mut tables = vec![table];
                if opts.route > 0 {
                    let obj = GirgObjective::new(&girg);
                    tables.push(route_phase(girg.graph(), &comps, &obj, opts.route, opts.seed));
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
                    tables.push(route_phase(hrg.graph(), &comps, &obj, opts.route, opts.seed));
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
                    tables.push(route_phase(
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

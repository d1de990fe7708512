//! On-disk store benchmark: compression ratio, write throughput,
//! load-vs-resample wall time, decode-free routing throughput, and the
//! out-of-core sampling ladder of the `.swg` graph store.
//!
//! ```console
//! cargo run --release -p smallworld-bench --bin bench_store -- \
//!     --json artifacts/BENCH_store.json             # full: 1M vertices
//! SMALLWORLD_SCALE=quick cargo run --release -p smallworld-bench --bin bench_store
//! SMALLWORLD_FULLSCALE=1 cargo run --release -p smallworld-bench --bin bench_store
//! ```
//!
//! Three suites in one artifact:
//!
//! 1. **Compression** (unchanged): one GIRG is sampled (that wall time is
//!    the resample baseline), Morton-relabeled, written at each shard
//!    count, reopened both ways, and fully decoded back — asserting
//!    equality with the original so the numbers can never come from a
//!    short-circuited load.
//! 2. **Mapped vs decoded routing**: the same Monte-Carlo trial sequence is
//!    routed three ways — decoded CSR (`TrialBatch::run`), decode-free over
//!    per-worker LRU cursors on the mapped store (`TrialBatch::run_views`),
//!    and shard-local with explicit handoff (its own loop: `route_sharded`
//!    takes no observer or scratch) — asserting the outcomes are
//!    element-for-element identical before reporting throughput, and that
//!    the mapped cursors skipped hub runs through their run directories
//!    (so the identity covers that path). The
//!    `vs decoded` column is the throughput fraction relative to the
//!    decoded baseline; `artifact_check` gates the mapped row at >= 0.5x
//!    at full scale.
//! 3. **Out-of-core sampling ladder**: each rung re-executes this binary
//!    as a `--ladder-child` subprocess (peak RSS via `VmHWM` is a
//!    process-wide high-water mark, so each measurement needs its own
//!    process) sampling the same seeded GIRG streamed (spill-and-merge,
//!    `sample_streamed` + `write_girg_swg_streamed`) and in-RAM
//!    (`sample` + relabel + `write_girg_swg`). Both children write
//!    byte-identical stores; the parent asserts the file sizes and edge
//!    counts agree, and reports the RSS ratio, the streamed peak in bytes
//!    per vertex, and the streamed child's sampler account (pairs examined
//!    per edge, exact-probability fallbacks, and its seconds in the cell
//!    sampler, the spill sort and the spill write).
//!    Full scale climbs
//!    10⁶ → 10⁷, and `SMALLWORLD_FULLSCALE=1` adds the 10⁸ rung (streamed
//!    only — the in-RAM comparison would not fit the point of the
//!    exercise). `artifact_check` gates every rung's streamed peak RSS
//!    against the `O(vertices)` ceiling and, at full scale, the RSS
//!    fraction at <= 0.35.

use std::process::Command;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use smallworld_analysis::Table;
use smallworld_bench::{
    draw_endpoints, Artifact, RoutingAggregate, Scale, TrialBatch, TrialOutcome,
};
use smallworld_core::greedy::DEFAULT_MAX_STEPS;
use smallworld_core::{
    route_sharded, GirgObjective, GreedyRouter, Objective, PackedGirgObjective, ShardSlice,
};
use smallworld_graph::{Components, Graph};
use smallworld_models::girg::{Girg, GirgBuilder};
use smallworld_obs::{JsonValue, Span};
use smallworld_par::Pool;
use smallworld_store::GraphStore;

/// Shard counts each store is written at: the plain single-shard layout
/// and a partitioned one, to price the boundary tables in.
const SHARD_COUNTS: [usize; 2] = [1, 8];

/// Repetitions per load measurement; the minimum is reported, since the
/// store exists to amortize one write across many loads.
const LOAD_REPS: usize = 3;

/// Shard count of the store the routing comparison runs against (the
/// sharded variant needs a partition to hand off across).
const ROUTE_SHARDS: usize = 8;

/// Sampling seed shared by every phase, so the ladder children reproduce
/// the exact graph the compression phase measured.
const SEED: u64 = 4;

/// Streamed-sampler RSS ceiling: per-vertex state (positions, weights,
/// Morton permutation, offsets index, plus transient copies) with a flat
/// allowance for the bounded run buffer, I/O buffering, and the runtime.
fn rss_ceiling_bytes(n: u64) -> u64 {
    120 * n + 192 * 1024 * 1024
}

struct Measurement {
    shards: usize,
    edges: usize,
    raw_bytes: usize,
    compressed_bytes: usize,
    file_bytes: u64,
    write_secs: f64,
    open_secs: f64,
    load_secs: f64,
    buffered_load_secs: f64,
    zero_copy: bool,
    boundary_edges: usize,
}

fn measure(girg: &Girg<2>, shards: usize, dir: &std::path::Path) -> Measurement {
    let path = dir.join(format!("bench-store-{shards}.swg"));

    let start = Instant::now();
    let stats = {
        let _span = Span::enter("write_swg");
        smallworld_store::save_girg(girg, &path, shards)
            .expect("writable temp dir")
            .expect(".swg path takes the binary format")
    };
    let write_secs = start.elapsed().as_secs_f64();

    // mmap open + full decode, min over a few repetitions: the target
    // workload is generate-once/load-MANY, so steady state is the number
    // that matters (the first iteration pays one-time page-fault and
    // allocator warm-up that every later load skips)
    let mut open_secs = f64::INFINITY;
    let mut load_secs = f64::INFINITY;
    let mut zero_copy = false;
    let mut boundary_edges = 0;
    for _ in 0..LOAD_REPS {
        let start = Instant::now();
        let store = {
            let _span = Span::enter("open_swg");
            GraphStore::open(&path).expect("own file reopens")
        };
        let this_open = start.elapsed().as_secs_f64();
        zero_copy = store.is_zero_copy();

        let start = Instant::now();
        let loaded: Girg<2> = {
            let _span = Span::enter("load_girg");
            store.load_girg().expect("own file loads")
        };
        let this_load = this_open + start.elapsed().as_secs_f64();
        assert_eq!(loaded.graph(), girg.graph(), "loaded adjacency must match");
        assert_eq!(loaded.weights(), girg.weights(), "loaded weights must match");
        if this_load < load_secs {
            (open_secs, load_secs) = (this_open, this_load);
        }

        boundary_edges = if shards > 1 {
            let sharded = store.load_shards().expect("shards were written");
            sharded.boundary_edge_count()
        } else {
            0
        };
    }

    // the portable fallback: full read into an owned buffer, same checks
    let mut buffered_load_secs = f64::INFINITY;
    for _ in 0..LOAD_REPS {
        let start = Instant::now();
        let buffered: Girg<2> = GraphStore::open_buffered(&path)
            .expect("own file reopens buffered")
            .load_girg()
            .expect("own file loads buffered");
        buffered_load_secs = buffered_load_secs.min(start.elapsed().as_secs_f64());
        assert_eq!(buffered.graph(), girg.graph());
    }

    std::fs::remove_file(&path).ok();
    Measurement {
        shards,
        edges: girg.graph().edge_count(),
        raw_bytes: stats.raw_csr_bytes,
        compressed_bytes: stats.compressed_csr_bytes,
        file_bytes: stats.file_bytes,
        write_secs,
        open_secs,
        load_secs,
        buffered_load_secs,
        zero_copy,
        boundary_edges,
    }
}

/// Routes one trial sequence three ways — decoded, mapped (LRU cursor),
/// and shard-local with handoff — asserting the outcomes identical, and
/// reports throughput for each.
fn routing_table(girg: &Girg<2>, comps: &Components, scale: Scale, dir: &std::path::Path) -> Table {
    let path = dir.join("bench-store-routing.swg");
    smallworld_store::save_girg(girg, &path, ROUTE_SHARDS)
        .expect("writable temp dir")
        .expect(".swg path takes the binary format");
    let store = GraphStore::open(&path).expect("own file reopens");
    let mapped = store.mapped_graph().expect("own file maps");
    let positions = store.packed_positions().expect("geometry present");
    let weights = store.packed_weights().expect("weights present");
    let (params, _) = store.params().expect("params present");
    let packed =
        PackedGirgObjective::<2>::new(&positions, &weights, params.wmin * params.intensity);

    let pairs = scale.pick(2_000, 10_000);
    let seed = 11;
    let pool = Pool::from_env();

    let start = Instant::now();
    let decoded = {
        let _span = Span::enter("route_decoded");
        TrialBatch::new(girg.graph(), comps, pairs)
            .connected_only(true)
            .run(&GreedyRouter::new(), &GirgObjective::new(girg), seed, &pool)
    };
    let decoded_secs = start.elapsed().as_secs_f64();

    let mut variants: Vec<(&str, Vec<TrialOutcome>, f64, u64)> =
        vec![("decoded", decoded.clone(), decoded_secs, 0)];

    let start = Instant::now();
    let (outcomes, cursors) = {
        let _span = Span::enter("route_mapped");
        TrialBatch::for_views(mapped.node_count(), comps, pairs)
            .connected_only(true)
            .run_views(
                &GreedyRouter::new(),
                &packed,
                || mapped.cursor(),
                seed,
                &pool,
            )
    };
    let secs = start.elapsed().as_secs_f64();
    if let Some(e) = cursors.iter().find_map(|c| c.error()) {
        panic!("mapped routing could not read its store: {e}");
    }
    assert_eq!(
        outcomes, decoded,
        "mapped routing diverged from the decoded baseline"
    );
    let skipped_runs: u64 = cursors.iter().map(|c| c.skipped_runs()).sum();
    eprintln!(
        "mapped: cache {} hits / {} misses, {skipped_runs} runs skipped, \
         {:.0} decoded ids per route",
        cursors.iter().map(|c| c.hits()).sum::<u64>(),
        cursors.iter().map(|c| c.misses()).sum::<u64>(),
        cursors.iter().map(|c| c.decoded_ids()).sum::<u64>() as f64 / outcomes.len() as f64
    );
    assert!(
        skipped_runs > 0,
        "mapped routing never skipped a hub run through the run directory"
    );
    variants.push(("mapped", outcomes, secs, 0));

    // shard-local routing with explicit cross-shard handoff, over the
    // store's own partition
    let sharded_store = store.load_shards().expect("shards were written");
    let locals: Vec<Graph> = sharded_store
        .shards()
        .iter()
        .map(|s| s.local_graph().expect("shard decodes"))
        .collect();
    let mut slices: Vec<ShardSlice<'_, &Graph>> = sharded_store
        .shards()
        .iter()
        .zip(&locals)
        .map(|(s, local)| ShardSlice {
            start: s.spec().nodes.start,
            end: s.spec().nodes.end,
            local,
            boundary: s.boundary(),
        })
        .collect();
    let endpoints = draw_endpoints(0..pairs, girg.node_count(), seed, comps, true, None);
    let start = Instant::now();
    let mut handoffs = 0u64;
    let sharded: Vec<TrialOutcome> = {
        let _span = Span::enter("route_sharded");
        endpoints
            .iter()
            .map(|&(s, t)| {
                let kernel = packed.prepare(t);
                let route = route_sharded(&mut slices, &kernel, s, DEFAULT_MAX_STEPS);
                handoffs += route.handoffs;
                TrialOutcome {
                    success: route.record.is_success(),
                    hops: route.record.hops(),
                    stretch: None,
                    same_component: true,
                }
            })
            .collect()
    };
    let sharded_secs = start.elapsed().as_secs_f64();
    assert_eq!(
        sharded, decoded,
        "sharded routing diverged from the decoded baseline"
    );
    variants.push((
        "sharded x8",
        sharded,
        sharded_secs,
        handoffs,
    ));

    std::fs::remove_file(&path).ok();

    let mut table = Table::new([
        "variant",
        "pairs",
        "success rate",
        "mean hops",
        "route secs",
        "routes/s",
        "vs decoded",
        "handoffs",
    ])
    .title("bench_store: mapped vs decoded routing");
    for (label, outcomes, secs, handoffs) in &variants {
        let agg = RoutingAggregate::from_trials(outcomes.iter());
        let frac = decoded_secs / secs;
        eprintln!(
            "{label}: {pairs} pairs in {secs:.3}s ({:.0} routes/s, {frac:.2}x decoded, \
             {handoffs} handoffs)",
            pairs as f64 / secs,
        );
        table.row([
            label.to_string(),
            pairs.to_string(),
            format!("{:.4}", agg.success.rate()),
            format!("{:.3}", agg.hops.mean()),
            format!("{secs:.4}"),
            format!("{:.0}", pairs as f64 / secs),
            format!("{frac:.3}"),
            handoffs.to_string(),
        ]);
    }
    table
}

/// One ladder child's measurements, parsed from its JSON line.
struct ChildStats {
    secs: f64,
    peak_rss: u64,
    file_bytes: u64,
    spill_bytes: u64,
    edges: u64,
    /// Pairs the edge sampler examined (type-I pairs + type-II candidates).
    examined: u64,
    exact_fallbacks: u64,
    /// Time in the edge sampler (cell batches), without the spill.
    cell_secs: f64,
    spill_sort_secs: f64,
    spill_write_secs: f64,
}

fn run_ladder_child(mode: &str, n: u64) -> ChildStats {
    let exe = std::env::current_exe().expect("own executable path");
    let out = Command::new(exe)
        .args(["--ladder-child", mode, &n.to_string(), &SEED.to_string()])
        .output()
        .expect("ladder child spawns");
    assert!(
        out.status.success(),
        "ladder child {mode} n={n} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.trim();
    let v = JsonValue::parse(line).unwrap_or_else(|e| {
        panic!("ladder child {mode} n={n} printed invalid JSON {line:?}: {e}")
    });
    let field = |name: &str| {
        v.get(name)
            .and_then(JsonValue::as_f64)
            .unwrap_or_else(|| panic!("ladder child output missing {name:?}"))
    };
    ChildStats {
        secs: field("secs"),
        peak_rss: field("peak_rss_bytes") as u64,
        file_bytes: field("file_bytes") as u64,
        spill_bytes: field("spill_bytes") as u64,
        edges: field("edges") as u64,
        examined: field("examined") as u64,
        exact_fallbacks: field("exact_fallbacks") as u64,
        cell_secs: field("cell_secs"),
        spill_sort_secs: field("spill_sort_secs"),
        spill_write_secs: field("spill_write_secs"),
    }
}

/// The subprocess body behind `--ladder-child <mode> <n> <seed>`: samples
/// and persists one GIRG, prints one JSON line of measurements to stdout,
/// and exits. Runs in its own process so `VmHWM` reflects exactly one
/// sampling strategy.
fn ladder_child(args: &[String]) -> ! {
    let usage = "usage: bench_store --ladder-child <streamed|inram> <n> <seed>";
    let (mode, n, seed) = match args {
        [mode, n, seed] => (
            mode.as_str(),
            n.parse::<u64>().expect(usage),
            seed.parse::<u64>().expect(usage),
        ),
        _ => {
            eprintln!("{usage}");
            std::process::exit(2);
        }
    };
    let dir = std::env::temp_dir();
    let path = dir.join(format!(
        "swladder-{}-{mode}-{n}.swg",
        std::process::id()
    ));
    let start = Instant::now();
    // the in-RAM child has no spill to time
    let mut spill_secs = (0.0, 0.0);
    let cell_secs;
    let (file_bytes, spill_bytes, edges, counts) = match mode {
        "streamed" => {
            let mut rng = StdRng::seed_from_u64(seed);
            let sample = GirgBuilder::<2>::new(n)
                .beta(2.5)
                .alpha(2.0)
                .sample_streamed(&mut rng, &dir)
                .expect("valid ladder configuration");
            let spill_bytes = sample.spill_bytes();
            let edges = sample.edge_count() as u64;
            spill_secs = (
                sample.spill_sort_time().as_secs_f64(),
                sample.spill_write_time().as_secs_f64(),
            );
            cell_secs = sample.cell_time().as_secs_f64();
            let stats = smallworld_store::write_girg_swg_streamed(&sample, &path)
                .expect("writable temp dir");
            (stats.file_bytes, spill_bytes, edges, sample.sampler_counts())
        }
        "inram" => {
            let mut rng = StdRng::seed_from_u64(seed);
            let (girg, counts, edge_time) = GirgBuilder::<2>::new(n)
                .beta(2.5)
                .alpha(2.0)
                .sample_counted(&mut rng)
                .expect("valid ladder configuration");
            cell_secs = edge_time.as_secs_f64();
            let girg = girg.relabel(&girg.morton_permutation());
            let stats = smallworld_store::save_girg(&girg, &path, 1)
                .expect("writable temp dir")
                .expect(".swg path takes the binary format");
            (stats.file_bytes, 0, girg.graph().edge_count() as u64, counts)
        }
        other => {
            eprintln!("unknown ladder mode {other:?}; {usage}");
            std::process::exit(2);
        }
    };
    let secs = start.elapsed().as_secs_f64();
    std::fs::remove_file(&path).ok();
    let peak = smallworld_obs::peak_rss_bytes().unwrap_or(0);
    eprintln!("ladder child {mode} n={n}: sampler: {counts}");
    println!(
        "{}",
        JsonValue::object([
            ("mode", JsonValue::from(mode)),
            ("n", JsonValue::from(n)),
            ("secs", JsonValue::from(secs)),
            ("peak_rss_bytes", JsonValue::from(peak)),
            ("file_bytes", JsonValue::from(file_bytes)),
            ("spill_bytes", JsonValue::from(spill_bytes)),
            ("edges", JsonValue::from(edges)),
            (
                "examined",
                JsonValue::from(counts.type_one_pairs + counts.type_two_candidates),
            ),
            ("exact_fallbacks", JsonValue::from(counts.exact_fallbacks)),
            ("cell_secs", JsonValue::from(cell_secs)),
            ("spill_sort_secs", JsonValue::from(spill_secs.0)),
            ("spill_write_secs", JsonValue::from(spill_secs.1)),
        ])
    );
    std::process::exit(0);
}

/// The out-of-core sampling ladder: streamed vs in-RAM peak RSS per rung,
/// measured in subprocesses. `SMALLWORLD_FULLSCALE=1` appends the 10⁸
/// rung, streamed only.
fn ladder_table(scale: Scale) -> Table {
    let mib = |b: u64| b as f64 / (1024.0 * 1024.0);
    let mut rungs: Vec<(u64, bool)> = scale
        .pick(vec![100_000u64], vec![1_000_000, 10_000_000])
        .into_iter()
        .map(|n| (n, true))
        .collect();
    if std::env::var("SMALLWORLD_FULLSCALE").as_deref() == Ok("1") {
        rungs.push((100_000_000, false));
    }
    let mut table = Table::new([
        "vertices",
        "streamed secs",
        "streamed peak MiB",
        "in-RAM secs",
        "in-RAM peak MiB",
        "rss frac",
        "spill MiB",
        "file MiB",
        "ceiling MiB",
        "within ceiling",
        "streamed B/vertex",
        "examined/edge",
        "exact fallbacks",
        "cell secs",
        "spill sort secs",
        "spill write secs",
    ])
    .title("bench_store: out-of-core sampling ladder");
    for (n, compare_in_ram) in rungs {
        eprintln!("ladder rung n={n}: sampling streamed (subprocess)...");
        let streamed = {
            let _span = Span::enter("ladder_streamed");
            run_ladder_child("streamed", n)
        };
        let inram = if compare_in_ram {
            eprintln!("ladder rung n={n}: sampling in-RAM (subprocess)...");
            let inram = {
                let _span = Span::enter("ladder_inram");
                run_ladder_child("inram", n)
            };
            // both children persist the same sample; the streamed writer is
            // byte-identical to the in-RAM one, so sizes must agree exactly
            assert_eq!(
                streamed.file_bytes, inram.file_bytes,
                "streamed and in-RAM stores differ at n={n}"
            );
            assert_eq!(streamed.edges, inram.edges, "edge counts differ at n={n}");
            Some(inram)
        } else {
            None
        };
        let ceiling = rss_ceiling_bytes(n);
        let within = streamed.peak_rss <= ceiling;
        let frac = inram
            .as_ref()
            .map(|i| streamed.peak_rss as f64 / i.peak_rss as f64)
            .unwrap_or(0.0);
        eprintln!(
            "ladder rung n={n}: streamed {:.1} MiB peak in {:.1}s vs in-RAM {} \
             (frac {frac:.2}, spill {:.1} MiB, ceiling {:.0} MiB, within={within})",
            mib(streamed.peak_rss),
            streamed.secs,
            inram
                .as_ref()
                .map(|i| format!("{:.1} MiB in {:.1}s", mib(i.peak_rss), i.secs))
                .unwrap_or_else(|| "(skipped)".into()),
            mib(streamed.spill_bytes),
            mib(ceiling),
        );
        table.row([
            n.to_string(),
            format!("{:.3}", streamed.secs),
            format!("{:.1}", mib(streamed.peak_rss)),
            inram
                .as_ref()
                .map(|i| format!("{:.3}", i.secs))
                .unwrap_or_else(|| "0.000".into()),
            inram
                .as_ref()
                .map(|i| format!("{:.1}", mib(i.peak_rss)))
                .unwrap_or_else(|| "0.0".into()),
            format!("{frac:.4}"),
            format!("{:.1}", mib(streamed.spill_bytes)),
            format!("{:.1}", mib(streamed.file_bytes)),
            format!("{:.0}", mib(ceiling)),
            within.to_string(),
            format!("{:.1}", streamed.peak_rss as f64 / n as f64),
            format!("{:.2}", streamed.examined as f64 / streamed.edges.max(1) as f64),
            streamed.exact_fallbacks.to_string(),
            format!("{:.3}", streamed.cell_secs),
            format!("{:.3}", streamed.spill_sort_secs),
            format!("{:.3}", streamed.spill_write_secs),
        ]);
    }
    table
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--ladder-child") {
        ladder_child(&args[1..]);
    }

    let scale = Scale::from_env();
    let n = scale.pick(20_000, 1_000_000);
    let artifact = Artifact::open("bench_store", scale);
    let (_, _) = artifact.run_suite("bench_store", scale, |_| {
        let start = Instant::now();
        let girg = {
            let _span = Span::enter("sample_girg");
            let mut rng = StdRng::seed_from_u64(SEED);
            GirgBuilder::<2>::new(n)
                .beta(2.5)
                .alpha(2.0)
                .sample(&mut rng)
                .expect("valid benchmark configuration")
        };
        let sample_secs = start.elapsed().as_secs_f64();
        // Morton relabeling is what makes delta+varint adjacency small; it
        // is part of the write path's cost, not the resample baseline
        let girg = girg.relabel(&girg.morton_permutation());
        eprintln!(
            "sampled GIRG: {} vertices, {} edges in {sample_secs:.2}s",
            girg.node_count(),
            girg.graph().edge_count()
        );

        let dir = std::env::temp_dir();
        let mut table = Table::new([
            "shards",
            "raw B/edge",
            "swg B/edge",
            "file MiB",
            "write MB/s",
            "sample secs",
            "load secs",
            "buffered load secs",
            "speedup",
            "zero copy",
            "boundary frac",
        ])
        .title("bench_store: compressed store vs resample");
        for shards in SHARD_COUNTS {
            let m = measure(&girg, shards, &dir);
            let speedup = sample_secs / m.load_secs;
            eprintln!(
                "shards={}: {:.2} -> {:.2} B/edge, write {:.1} MB/s, \
                 load {:.3}s (open {:.3}s, buffered {:.3}s), speedup {speedup:.1}x",
                m.shards,
                m.raw_bytes as f64 / m.edges as f64,
                m.compressed_bytes as f64 / m.edges as f64,
                m.file_bytes as f64 / 1e6 / m.write_secs,
                m.load_secs,
                m.open_secs,
                m.buffered_load_secs,
            );
            table.row([
                m.shards.to_string(),
                format!("{:.3}", m.raw_bytes as f64 / m.edges as f64),
                format!("{:.3}", m.compressed_bytes as f64 / m.edges as f64),
                format!("{:.2}", m.file_bytes as f64 / (1024.0 * 1024.0)),
                format!("{:.1}", m.file_bytes as f64 / 1e6 / m.write_secs),
                format!("{sample_secs:.3}"),
                format!("{:.4}", m.load_secs),
                format!("{:.4}", m.buffered_load_secs),
                format!("{speedup:.2}"),
                m.zero_copy.to_string(),
                format!("{:.4}", m.boundary_edges as f64 / m.edges as f64),
            ]);
        }
        println!("{table}");

        let comps = Components::compute(girg.graph());
        let routing = routing_table(&girg, &comps, scale, &dir);
        println!("{routing}");

        let ladder = ladder_table(scale);
        println!("{ladder}");

        vec![table, routing, ladder]
    });
    artifact.finish();
}

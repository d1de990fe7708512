//! Graph-analytics engine benchmark: batched shortest-path queries,
//! single-source sweeps, connected components and diameter on a
//! pre-sampled GIRG, comparing the serial kernels against the engine's
//! bit-parallel and thread-parallel ones.
//!
//! ```console
//! cargo run --release -p smallworld-bench --bin bench_analytics -- \
//!     --json artifacts/BENCH_analytics.json         # full: 100k vertices
//! cargo run --release -p smallworld-bench --bin bench_analytics -- --quick
//! ```
//!
//! Every engine kernel is exact, so each variant pair must agree value for
//! value — distances, component labels, diameter — and only the wall-clock
//! may differ. The benchmark asserts exactly that before reporting. At full
//! scale it additionally asserts the headline acceptance bound: batched
//! multi-source BFS resolves pairs at ≥ 3× the per-pair bidirectional rate.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use smallworld_analysis::Table;
use smallworld_bench::{Artifact, Scale};
use smallworld_graph::analytics::{pair_distances, par_bfs_distances, par_components, par_double_sweep_diameter};
use smallworld_graph::{
    bfs_distance, bfs_distances, double_sweep_diameter, Components, Graph, NodeId,
};
use smallworld_models::girg::GirgBuilder;
use smallworld_obs::Span;
use smallworld_par::Pool;

/// Times `run` after one warmup pass, returning (result, wall seconds).
fn timed<T>(mut run: impl FnMut() -> T) -> (T, f64) {
    std::hint::black_box(run());
    let start = Instant::now();
    let out = run();
    (out, start.elapsed().as_secs_f64())
}

/// Draws `pairs` random distinct-endpoint pairs from the giant component.
fn giant_pairs(
    graph: &Graph,
    comps: &Components,
    pairs: usize,
    seed: u64,
) -> Vec<(NodeId, NodeId)> {
    let giant: Vec<NodeId> = graph.nodes().filter(|&v| comps.in_largest(v)).collect();
    assert!(giant.len() >= 2, "benchmark graph has no giant component");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(pairs);
    while out.len() < pairs {
        let s = giant[rng.gen_range(0..giant.len())];
        let t = giant[rng.gen_range(0..giant.len())];
        if s != t {
            out.push((s, t));
        }
    }
    out
}

/// Draws a distance-matrix workload from the giant component: `rows`
/// sources × `cols` targets, every (source, target) pair queried — the
/// all-targets-per-source shape MS-BFS lane sharing amortizes.
fn giant_matrix(
    graph: &Graph,
    comps: &Components,
    rows: usize,
    cols: usize,
    seed: u64,
) -> Vec<(NodeId, NodeId)> {
    let giant: Vec<NodeId> = graph.nodes().filter(|&v| comps.in_largest(v)).collect();
    assert!(giant.len() >= rows + cols, "giant too small for the matrix workload");
    let mut rng = StdRng::seed_from_u64(seed);
    let sources: Vec<NodeId> = (0..rows).map(|_| giant[rng.gen_range(0..giant.len())]).collect();
    let targets: Vec<NodeId> = (0..cols).map(|_| giant[rng.gen_range(0..giant.len())]).collect();
    sources
        .iter()
        .flat_map(|&s| targets.iter().map(move |&t| (s, t)))
        .collect()
}

/// Times the per-pair bidirectional baseline against one batched
/// [`pair_distances`] call over the same `queries`; asserts the distances
/// agree value for value before reporting throughput.
fn measure_pairs(graph: &Graph, queries: &[(NodeId, NodeId)]) -> (f64, f64, usize) {
    let (base, base_secs) = timed(|| {
        queries
            .iter()
            .map(|&(s, t)| bfs_distance(graph, s, t))
            .collect::<Vec<_>>()
    });
    let (batched, batched_secs) = timed(|| pair_distances(graph, queries));
    assert_eq!(base, batched, "batched distances diverge from per-pair bidirectional BFS");
    (base_secs, batched_secs, batched.iter().flatten().count())
}

/// Pair-distance throughput on the two workload shapes the adaptive
/// dispatcher distinguishes: a 64×N distance matrix (shared sweeps win)
/// and a same-size random pair set (per-pair bidirectional wins, and the
/// dispatcher must not regress it).
fn pair_distance_table(graph: &Graph, comps: &Components, pairs: usize, scale: Scale) -> Table {
    // 64 sources = one full lane word at full scale; quick keeps the
    // matrix small but still above the dispatcher's sweep threshold
    let rows = scale.pick(32, 64);
    let matrix = giant_matrix(graph, comps, rows, pairs / rows, 0xA11A);
    let random = giant_pairs(graph, comps, matrix.len(), 0xA11B);

    let mut table = Table::new([
        "workload", "variant", "pairs", "resolved", "wall secs", "pairs/sec", "speedup",
    ])
    .title("pair-distance throughput (single thread): batched vs per-pair");
    let mut matrix_speedup = 0.0;
    let matrix_label = format!("matrix {rows}x{}", pairs / rows);
    for (workload, queries) in [(matrix_label.as_str(), &matrix), ("random pairs", &random)] {
        let (base_secs, batched_secs, resolved) = measure_pairs(graph, queries);
        let base_rate = queries.len() as f64 / base_secs;
        let batched_rate = queries.len() as f64 / batched_secs;
        let speedup = batched_rate / base_rate;
        if workload.starts_with("matrix") {
            matrix_speedup = speedup;
        }
        eprintln!(
            "{workload}: bidir {base_rate:.0} pairs/s, batched {batched_rate:.0} pairs/s \
             ({speedup:.2}x)"
        );
        for (variant, secs, rate) in [
            ("bidir per-pair", base_secs, base_rate),
            ("batched", batched_secs, batched_rate),
        ] {
            table.row([
                workload.to_string(),
                variant.to_string(),
                queries.len().to_string(),
                resolved.to_string(),
                format!("{secs:.4}"),
                format!("{rate:.0}"),
                format!("{:.3}", rate / base_rate),
            ]);
        }
    }
    if scale == Scale::Full {
        assert!(
            matrix_speedup >= 3.0,
            "acceptance bound: batched MS-BFS must resolve matrix-workload pairs at \
             >= 3x the per-pair bidirectional rate at full scale, measured \
             {matrix_speedup:.2}x"
        );
    }
    table
}

/// Serial vs pool-parallel kernels: single-source sweeps, components,
/// double-sweep diameter. Each parallel result must equal its serial twin.
fn kernel_table(graph: &Graph, comps: &Components, sources: usize) -> Table {
    let pool = Pool::from_env();
    let sweep_sources: Vec<NodeId> = (0..sources)
        .map(|i| NodeId::from_index(i * graph.node_count() / sources))
        .collect();

    let (serial_sweeps, serial_secs) = timed(|| {
        sweep_sources
            .iter()
            .map(|&s| bfs_distances(graph, s))
            .collect::<Vec<_>>()
    });
    let (par_sweeps, par_secs) = timed(|| {
        sweep_sources
            .iter()
            .map(|&s| par_bfs_distances(graph, s, &pool))
            .collect::<Vec<_>>()
    });
    assert_eq!(serial_sweeps, par_sweeps, "parallel BFS distances diverge");

    let (serial_comps, comps_serial_secs) = timed(|| Components::compute(graph));
    let (par_comps, comps_par_secs) = timed(|| par_components(graph, &pool));
    assert_eq!(serial_comps.count(), par_comps.count());
    for v in graph.nodes() {
        assert_eq!(
            serial_comps.component_of(v),
            par_comps.component_of(v),
            "parallel component labels diverge at {v:?}"
        );
    }

    let start = graph
        .nodes()
        .find(|&v| comps.in_largest(v))
        .expect("giant component is non-empty");
    let (serial_diam, diam_serial_secs) = timed(|| double_sweep_diameter(graph, start));
    let (par_diam, diam_par_secs) = timed(|| par_double_sweep_diameter(graph, start, &pool));
    assert_eq!(serial_diam, par_diam, "parallel diameter estimate diverges");

    let mut table = Table::new(["kernel", "serial secs", "parallel secs", "speedup", "threads"])
        .title("serial vs pool-parallel analytics kernels");
    for (kernel, serial, parallel) in [
        ("sssp sweeps", serial_secs, par_secs),
        ("components", comps_serial_secs, comps_par_secs),
        ("diameter", diam_serial_secs, diam_par_secs),
    ] {
        table.row([
            kernel.to_string(),
            format!("{serial:.4}"),
            format!("{parallel:.4}"),
            format!("{:.3}", serial / parallel),
            pool.threads().to_string(),
        ]);
    }
    table
}

fn main() {
    let scale = Scale::from_env();
    let (n, pairs, sources) = scale.pick((20_000, 1_024, 4), (100_000, 8_192, 16));
    let artifact = Artifact::open("bench_analytics", scale);
    let (_, _) = artifact.run_suite("bench_analytics", scale, |_| {
        let girg = {
            let _span = Span::enter("sample_girg");
            let mut rng = StdRng::seed_from_u64(1);
            GirgBuilder::<2>::new(n)
                .beta(2.5)
                .alpha(2.0)
                .lambda(0.02)
                .sample(&mut rng)
                .expect("valid benchmark configuration")
        };
        let graph = girg.graph();
        eprintln!(
            "sampled GIRG: {} vertices, {} edges",
            graph.node_count(),
            graph.edge_count()
        );
        let comps = {
            let _span = Span::enter("components");
            Components::compute(graph)
        };
        let tables = vec![
            {
                let _span = Span::enter("pair_distances");
                pair_distance_table(graph, &comps, pairs, scale)
            },
            {
                let _span = Span::enter("kernels");
                kernel_table(graph, &comps, sources)
            },
        ];
        for t in &tables {
            println!("{t}");
        }
        tables
    });
    artifact.finish();
}

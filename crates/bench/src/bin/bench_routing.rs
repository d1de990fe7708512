//! Routing-throughput benchmark: hops per second on a pre-sampled GIRG,
//! comparing the naive per-candidate score path against the prepared-kernel
//! hot path and the φ-bound routing index (over a Morton-relabeled copy,
//! the only id order it bounds), plus a thread-scaling matrix over the
//! batched `TrialBatch` path.
//!
//! ```console
//! cargo run --release -p smallworld-bench --bin bench_routing -- \
//!     --json artifacts/BENCH_routing.json          # full: 100k vertices
//! cargo run --release -p smallworld-bench --bin bench_routing -- --quick
//! ```
//!
//! All three variants route the *same* source/target pairs (the indexed one
//! through `TrialBatch::with_id_map`, so it draws and reports original ids)
//! and, by the equivalence guarantees of `smallworld-core` (enforced in
//! `tests/kernel_equivalence.rs`), produce bitwise-identical routes — so
//! the hop totals must agree across variants and only the wall-clock may
//! differ. The benchmark asserts exactly that before reporting. The same
//! invariance holds across thread counts in the scaling table: trial RNG
//! is seeded per trial, so hops are identical at every row.
//!
//! Throughput trials run on one thread: the point there is per-hop cost,
//! and single-threaded wall-clock keeps the speedup column noise-free.
//! The scaling table then holds the fastest variant fixed and sweeps the
//! pool width.

use std::time::Instant;

use smallworld_analysis::Table;
use smallworld_bench::{Artifact, Scale, TrialBatch};
use smallworld_core::{
    GirgObjective, GreedyRouter, IndexedGirgObjective, NaiveObjective, Objective, RoutingIndex,
};
use smallworld_graph::Components;
use smallworld_models::girg::{Girg, GirgBuilder};
use smallworld_obs::Span;
use smallworld_par::Pool;

/// One measured variant: total hops routed and the wall-clock they took.
struct Measurement {
    variant: &'static str,
    hops: u64,
    wall_secs: f64,
}

impl Measurement {
    fn hops_per_sec(&self) -> f64 {
        self.hops as f64 / self.wall_secs
    }
}

/// Routes the batch once for warmup and once for measurement, summing the
/// hop counts of every trial (delivered or not — all hops are work done).
fn measure<O: Objective + Sync>(
    variant: &'static str,
    batch: &TrialBatch<'_>,
    objective: &O,
    seed: u64,
    pool: &Pool,
) -> Measurement {
    let _span = Span::enter(variant);
    let router = GreedyRouter::new();
    let warmup = batch.run(&router, objective, seed, pool);
    std::hint::black_box(&warmup);
    let start = Instant::now();
    let trials = batch.run(&router, objective, seed, pool);
    let wall_secs = start.elapsed().as_secs_f64();
    let hops: u64 = trials.iter().map(|t| t.hops as u64).sum();
    eprintln!("{variant}: {hops} hops in {wall_secs:.3}s ({:.0} hops/s)", hops as f64 / wall_secs);
    Measurement {
        variant,
        hops,
        wall_secs,
    }
}

fn throughput_table(girg: &Girg<2>, pairs: usize, seed: u64) -> Vec<Table> {
    let pool = Pool::with_threads(1);
    let comps = Components::compute(girg.graph());
    let batch = TrialBatch::new(girg.graph(), &comps, pairs).connected_only(true);

    let perm = girg.morton_permutation();
    let relabeled = girg.relabel(&perm);
    let comps_re = Components::compute(relabeled.graph());
    let index = RoutingIndex::for_girg(&relabeled);
    assert!(index.bounds().is_some(), "Morton ids build bounds");
    let indexed = IndexedGirgObjective::new(GirgObjective::new(&relabeled), &index);
    let batch_re = TrialBatch::new(relabeled.graph(), &comps_re, pairs)
        .connected_only(true)
        .with_id_map(&perm);

    let measurements = [
        measure(
            "naive",
            &batch,
            &NaiveObjective(GirgObjective::new(girg)),
            seed,
            &pool,
        ),
        measure("kernel", &batch, &GirgObjective::new(girg), seed, &pool),
        // the name `artifact_check` gates; the index is the φ-bound ladder
        measure("kernel+soa-index", &batch_re, &indexed, seed, &pool),
    ];
    // every variant routes the same pairs through the same protocol; a hop
    // mismatch means an equivalence bug, not a benchmark artifact
    for m in &measurements[1..] {
        assert_eq!(
            m.hops, measurements[0].hops,
            "variant {:?} routed different hops than naive",
            m.variant
        );
    }

    let naive_rate = measurements[0].hops_per_sec();
    let mut table = Table::new(["variant", "pairs", "hops", "wall secs", "hops/sec", "speedup"])
        .title("greedy routing throughput (single thread)");
    for m in &measurements {
        table.row([
            m.variant.to_string(),
            pairs.to_string(),
            m.hops.to_string(),
            format!("{:.4}", m.wall_secs),
            format!("{:.0}", m.hops_per_sec()),
            format!("{:.3}", m.hops_per_sec() / naive_rate),
        ]);
    }

    // the scaling matrix holds the indexed variant fixed and sweeps pool
    // width over the batched TrialBatch path; trial seeding makes the hop
    // totals thread-count invariant, so only wall-clock may move
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut scaled = Vec::new();
    let scaling_span = Span::enter("scaling");
    for threads in [1usize, 2, 4, 8] {
        let pool = Pool::with_threads(threads);
        let m = measure("kernel+soa-index", &batch_re, &indexed, seed, &pool);
        assert_eq!(
            m.hops, measurements[0].hops,
            "thread count {threads} changed the routed hops"
        );
        scaled.push((threads, m));
    }
    drop(scaling_span);
    let base_rate = scaled[0].1.hops_per_sec();
    let mut scaling = Table::new([
        "threads",
        "pairs",
        "hops",
        "wall secs",
        "hops/sec",
        "speedup",
        "efficiency",
        "host cores",
    ])
    .title("batched trial scaling (kernel+soa-index)");
    for (threads, m) in &scaled {
        let speedup = m.hops_per_sec() / base_rate;
        scaling.row([
            threads.to_string(),
            pairs.to_string(),
            m.hops.to_string(),
            format!("{:.4}", m.wall_secs),
            format!("{:.0}", m.hops_per_sec()),
            format!("{:.3}", speedup),
            format!("{:.3}", speedup / *threads as f64),
            host_cores.to_string(),
        ]);
    }

    let mut memory = Table::new(["layout", "vertices", "edge slots", "index bytes", "bytes/slot"])
        .title("routing index memory");
    memory.row([
        "phi-bound ladder (morton ids)".to_string(),
        index.node_count().to_string(),
        index.entry_count().to_string(),
        index.bytes().to_string(),
        format!("{:.3}", index.bytes() as f64 / index.entry_count().max(1) as f64),
    ]);

    vec![table, scaling, memory]
}

fn main() {
    let scale = Scale::from_env();
    let (n, pairs) = scale.pick((20_000, 2_000), (100_000, 20_000));
    let artifact = Artifact::open("bench_routing", scale);
    let (_, _) = artifact.run_suite("bench_routing", scale, |_| {
        let girg = {
            let _span = Span::enter("sample_girg");
            let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
            GirgBuilder::<2>::new(n)
                .beta(2.5)
                .alpha(2.0)
                .lambda(0.02)
                .sample(&mut rng)
                .expect("valid benchmark configuration")
        };
        eprintln!(
            "sampled GIRG: {} vertices, {} edges",
            girg.node_count(),
            girg.graph().edge_count()
        );
        let tables = throughput_table(&girg, pairs, 0xBE7C);
        for t in &tables {
            println!("{t}");
        }
        tables
    });
    artifact.finish();
}

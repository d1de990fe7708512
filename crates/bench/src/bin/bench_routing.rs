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
//! Every row is the fastest of three timed passes after a warm-up pass,
//! and the rows of a table are timed in interleaved rounds.
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

/// Timed passes per variant; the fastest is reported. Interference on a
/// shared host only ever adds time, and a ratio of two single passes (the
/// speedup column) follows whichever pass was slowed.
const PASSES: usize = 3;

/// One routed pass of a variant: the hops of every trial of its batch
/// (delivered or not — all hops are work done).
type Pass<'a> = Box<dyn Fn() -> u64 + 'a>;

/// A pass of `batch` under `objective` on `pool`, seeded with `seed`.
fn pass<'a, O: Objective + Sync>(
    batch: &'a TrialBatch<'a>,
    objective: &'a O,
    seed: u64,
    pool: &'a Pool,
) -> Pass<'a> {
    Box::new(move || {
        let trials = batch.run(&GreedyRouter::new(), objective, seed, pool);
        trials.iter().map(|t| t.hops as u64).sum()
    })
}

/// Runs every variant once for warm-up, then times [`PASSES`] rounds in
/// which each variant routes once, so that a slow spell of the host falls
/// on all variants alike rather than on one row. Reports each variant's
/// fastest pass; every pass must repeat the warm-up's hops.
fn measure(variants: Vec<(&'static str, Pass<'_>)>) -> Vec<Measurement> {
    let hops: Vec<u64> = variants
        .iter()
        .map(|(variant, pass)| {
            let _span = Span::enter(variant);
            pass()
        })
        .collect();
    let mut fastest = vec![f64::INFINITY; variants.len()];
    for _ in 0..PASSES {
        for (i, (variant, pass)) in variants.iter().enumerate() {
            let _span = Span::enter(variant);
            let start = Instant::now();
            let repeated = pass();
            fastest[i] = fastest[i].min(start.elapsed().as_secs_f64());
            assert_eq!(repeated, hops[i], "{variant}: a pass routed different hops");
        }
    }
    variants
        .iter()
        .zip(hops)
        .zip(fastest)
        .map(|(((variant, _), hops), wall_secs)| {
            eprintln!(
                "{variant}: {hops} hops in {wall_secs:.3}s, fastest of {PASSES} ({:.0} hops/s)",
                hops as f64 / wall_secs
            );
            Measurement {
                variant,
                hops,
                wall_secs,
            }
        })
        .collect()
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

    let (naive, kernel) = (
        NaiveObjective(GirgObjective::new(girg)),
        GirgObjective::new(girg),
    );
    let measurements = measure(vec![
        ("naive", pass(&batch, &naive, seed, &pool)),
        ("kernel", pass(&batch, &kernel, seed, &pool)),
        // the name `artifact_check` gates; the index is the φ-bound ladder
        ("kernel+soa-index", pass(&batch_re, &indexed, seed, &pool)),
    ]);
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
    let widths = [1usize, 2, 4, 8];
    let pools = widths.map(Pool::with_threads);
    let scaling_span = Span::enter("scaling");
    let scaled: Vec<(usize, Measurement)> = widths
        .into_iter()
        .zip(measure(
            pools
                .iter()
                .map(|pool| ("kernel+soa-index", pass(&batch_re, &indexed, seed, pool)))
                .collect(),
        ))
        .collect();
    drop(scaling_span);
    for (threads, m) in &scaled {
        assert_eq!(
            m.hops, measurements[0].hops,
            "thread count {threads} changed the routed hops"
        );
    }
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

//! gen-200k: the write path — streamed sampling, streamed store write, and
//! the reopen that makes the new store ready to route.
//!
//! Every call this workload makes into the models and store layers is in
//! [`one_store`]; the reopen goes through [`crate::mapped::ready`].
//!
//! A run generates the seed's store over and over, so it has one distinct
//! operation. As for routes, its latency is the fastest repeat with host
//! interference removed, here phase by phase: the fastest sample plus the
//! fastest write plus the fastest reopen.

use std::fs;
use std::path::Path;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::inputs::{self, GenRef, Spec};
use crate::mapped::{self, SetupTimes, SETUPS};
use crate::stats::{fastest, median, ratio};
use crate::{host, Measured, RunOpts};

/// Stores a run generates at least, whatever `--seconds` says.
const MIN_STORES: usize = 2;

/// One generated store: phase times, sizes, and whether it matched.
struct Store {
    sample: Duration,
    write: Duration,
    reopen: Duration,
    /// One extra drain of the merged half-edge stream (traced stores only;
    /// outside `total`).
    merge: Option<Duration>,
    total: Duration,
    edges: u64,
    file_bytes: u64,
    spill_bytes: u64,
    spill_runs: usize,
    correct: bool,
}

impl Store {
    fn edges_per_s(&self) -> f64 {
        self.edges as f64 / self.total.as_secs_f64()
    }
}

/// Samples the seed's graph out of core, writes it to `out`, reopens it
/// ready to route, and checks counts and file digest against `reference`.
fn one_store(
    spec: &Spec,
    seed: u64,
    tmp: &Path,
    out: &Path,
    reference: &GenRef,
    traced: bool,
    times: &mut SetupTimes,
) -> Result<Store, String> {
    let t0 = Instant::now();
    let mut rng = StdRng::seed_from_u64(seed);
    let sample = spec
        .builder()
        .sample_streamed(&mut rng, tmp)
        .map_err(|e| format!("sample: {e}"))?;
    let t1 = Instant::now();
    let stats = smallworld_store::write_girg_swg_streamed(&sample, out)
        .map_err(|e| format!("write: {e}"))?;
    let t2 = Instant::now();
    let (nodes, edges) = mapped::ready(out, times, |store, _, _| {
        (store.node_count(), store.edge_count())
    })?;
    let t3 = Instant::now();
    let merge = if traced {
        let start = Instant::now();
        let mut count = 0usize;
        for half_edge in sample.half_edges().map_err(|e| format!("merge: {e}"))? {
            half_edge.map_err(|e| format!("merge: {e}"))?;
            count += 1;
        }
        if count != sample.target_count() {
            return Err(format!(
                "merge yielded {count} half-edges, expected {}",
                sample.target_count()
            ));
        }
        Some(start.elapsed())
    } else {
        None
    };
    let counts_ok = nodes == sample.node_count() && edges == sample.edge_count();
    let (spill_bytes, spill_runs) = (sample.spill_bytes(), sample.run_count());
    drop(sample);
    let digest = inputs::file_digest(out)?;
    for _ in 1..SETUPS {
        mapped::ready(out, times, |_, _, _| ())?;
    }
    Ok(Store {
        sample: t1 - t0,
        write: t2 - t1,
        reopen: t3 - t2,
        merge,
        total: t3 - t0,
        edges: edges as u64,
        file_bytes: stats.file_bytes,
        spill_bytes,
        spill_runs,
        correct: counts_ok
            && reference.committed_ok
            && (nodes as u64, edges as u64, digest)
                == (reference.nodes, reference.edges, reference.file_digest),
    })
}

pub fn run(spec: &Spec, opts: &RunOpts) -> Result<Measured, String> {
    let reference = inputs::load_gen_ref(spec, opts.seed, &opts.work)?;
    let tmp = opts.work.join("tmp");
    fs::create_dir_all(&tmp).map_err(|e| format!("create {}: {e}", tmp.display()))?;
    let out = tmp.join(format!("gen-{}.swg", std::process::id()));
    let mut times = SetupTimes::default();
    let mut stores: Vec<Store> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let start = Instant::now();
    while stores.len() < MIN_STORES || start.elapsed().as_secs_f64() < opts.seconds {
        // in traced mode the first store runs untraced, as the baseline of
        // trace.overhead_frac
        let traced = opts.trace && !stores.is_empty();
        let result = one_store(spec, opts.seed, &tmp, &out, &reference, traced, &mut times);
        fs::remove_file(&out).ok();
        attempted += 1;
        match result {
            Ok(store) => {
                failed += u64::from(!store.correct);
                stores.push(store);
            }
            Err(e) => {
                eprintln!("perfbench gen: {e}");
                failed += 1;
                if attempted >= MIN_STORES as u64 && stores.is_empty() {
                    return Err("every store failed".into());
                }
            }
        }
    }
    let phase = |f: &dyn Fn(&Store) -> Duration| {
        let secs: Vec<f64> = stores.iter().map(|s| f(s).as_secs_f64()).collect();
        fastest(&secs)
    };
    let best_s = phase(&|s| s.sample) + phase(&|s| s.write) + phase(&|s| s.reopen);
    // one distinct operation, so its best latency is every percentile
    let mut values = vec![
        ("setup_s", times.fastest_total()),
        ("throughput_per_s", stores[0].edges as f64 / best_s),
        ("op_p50_us", best_s * 1e6),
        ("op_p99_us", best_s * 1e6),
        ("peak_rss_mib", host::peak_rss_mib()),
    ];
    let traced: Vec<&Store> = stores.iter().filter(|s| s.merge.is_some()).collect();
    if let (Some(base), false) = (stores.first(), traced.is_empty()) {
        let ms = |f: &dyn Fn(&Store) -> Duration| {
            let secs: Vec<f64> = traced.iter().map(|s| f(s).as_secs_f64()).collect();
            fastest(&secs) * 1e3
        };
        let per_edge = |f: &dyn Fn(&Store) -> u64| {
            median(
                traced
                    .iter()
                    .map(|s| f(s) as f64 / s.edges as f64)
                    .collect(),
            )
        };
        let sum = |f: &dyn Fn(&Store) -> Duration| -> f64 {
            traced.iter().map(|s| f(s).as_secs_f64()).sum()
        };
        let traced_rate = median(traced.iter().map(|s| s.edges_per_s()).collect());
        values.extend([
            ("models.sample_ms", ms(&|s| s.sample)),
            ("store.write_ms", ms(&|s| s.write)),
            ("store.reopen_ms", ms(&|s| s.reopen)),
            ("store.merge_ms", ms(&|s| s.merge.unwrap_or_default())),
            ("store.open_ms", fastest(&times.open) * 1e3),
            ("store.view_ms", fastest(&times.view) * 1e3),
            ("store.bytes_per_edge", per_edge(&|s| s.file_bytes)),
            ("models.spill_bytes_per_edge", per_edge(&|s| s.spill_bytes)),
            (
                "models.spill_runs",
                median(traced.iter().map(|s| s.spill_runs as f64).collect()),
            ),
            (
                "trace.unattributed_frac",
                1.0 - ratio(sum(&|s| s.sample + s.write + s.reopen), sum(&|s| s.total)),
            ),
            (
                "trace.overhead_frac",
                base.edges_per_s() / traced_rate - 1.0,
            ),
        ]);
    }
    Measured::new(attempted, failed, opts.trace, values)
}

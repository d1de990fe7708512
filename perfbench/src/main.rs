//! Store-path benchmark for the smallworld workspace.
//!
//! ```console
//! perfbench prepare --workload mapped-1m --seed 1 --work perfbench/.work
//! perfbench run --workload mapped-1m --seed 1 --seconds 15 --trace 0 --work perfbench/.work
//! ```
//!
//! `prepare` builds one workload's seeded inputs (store file, connected
//! pair list, reference digests) once and caches them under the work
//! directory; it is never timed. `run` measures the workload in its own
//! process, checks every output against the references, appends host
//! diagnostics to `<work>/runs.jsonl`, and prints one JSON result line.
//! `run.py` drives both; README.md maps every metric to its layer.

mod gen;
mod host;
mod indexed;
mod inputs;
mod mapped;
mod routes;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use inputs::{Kind, Spec};

/// The end-to-end metrics every untraced run prints, with their units.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
    ("peak_rss_mib", "MiB"),
];

/// The per-layer metrics every traced run prints, with their units. A
/// workload that never calls a layer reports its metrics as 0.
const PER_LAYER: [(&str, &str); 27] = [
    ("store.open_ms", "ms"),
    ("store.view_ms", "ms"),
    ("store.load_ms", "ms"),
    ("store.fetch_ns_per_hop", "ns"),
    ("store.lru_hit_frac", "frac"),
    ("store.decoded_ids_per_route", "count"),
    ("store.minor_faults_per_route", "count"),
    ("store.major_faults", "count"),
    ("store.write_ms", "ms"),
    ("store.merge_ms", "ms"),
    ("store.reopen_ms", "ms"),
    ("store.bytes_per_edge", "B"),
    ("models.sample_ms", "ms"),
    ("models.spill_bytes_per_edge", "B"),
    ("models.spill_runs", "count"),
    ("core.prepare_ns_per_route", "ns"),
    ("core.route_ns_per_route", "ns"),
    ("core.score_ns_per_hop", "ns"),
    ("core.candidates_per_hop", "count"),
    ("core.candidates_per_hop_p99", "count"),
    ("core.ns_per_candidate", "ns"),
    ("core.hops_per_route", "count"),
    ("core.index_build_ms", "ms"),
    ("core.index_bytes_per_slot", "B"),
    ("obs.observer_overhead_frac", "frac"),
    ("trace.unattributed_frac", "frac"),
    ("trace.overhead_frac", "frac"),
];

/// One measured run's result: operations attempted and failed, and the
/// metrics as `(name, value, unit)`.
pub struct Measured {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Measured {
    /// Lays `values` out as the full end-to-end list (untraced) or the full
    /// per-layer list (traced), so every workload prints the same names.
    ///
    /// # Errors
    ///
    /// Returns an error for a value named in neither list.
    pub fn new(
        attempted: u64,
        failed: u64,
        traced: bool,
        values: Vec<(&'static str, f64)>,
    ) -> Result<Measured, String> {
        let known = |name: &str| END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name);
        if let Some((name, _)) = values.iter().find(|(name, _)| !known(name)) {
            return Err(format!("unknown metric {name}"));
        }
        let list: &[(&'static str, &'static str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let metrics = list
            .iter()
            .map(|&(name, unit)| {
                let value = values
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |&(_, v)| v);
                (name, value, unit)
            })
            .collect();
        Ok(Measured {
            attempted,
            failed,
            metrics,
        })
    }
}

/// Options shared by every workload's run.
pub struct RunOpts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub work: PathBuf,
}

struct Args {
    command: String,
    spec: Spec,
    opts: RunOpts,
}

const USAGE: &str = "usage: perfbench <prepare|run> --workload <mapped-1m|indexed-1m|gen-200k> \
                     --seed <n> --work <dir> [--seconds <s>] [--trace 0|1] [--small]";

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let command = args.next().ok_or(USAGE)?;
    let (mut workload, mut seed, mut seconds, mut trace, mut work, mut small) =
        (None, None, 10.0, false, None, false);
    while let Some(flag) = args.next() {
        if flag == "--small" {
            small = true;
            continue;
        }
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value; {USAGE}"))?;
        let bad = |what: &str| format!("bad {what} {value:?}; {USAGE}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("seed"))?),
            "--seconds" => {
                seconds = value.parse::<f64>().map_err(|_| bad("seconds"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err(bad("seconds"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                }
            }
            "--work" => work = Some(PathBuf::from(&value)),
            _ => return Err(format!("unknown flag {flag}; {USAGE}")),
        }
    }
    let name = workload.ok_or(USAGE)?;
    let spec =
        Spec::lookup(&name, small).ok_or_else(|| format!("unknown workload {name:?}; {USAGE}"))?;
    Ok(Args {
        command,
        spec,
        opts: RunOpts {
            seed: seed.ok_or(USAGE)?,
            seconds,
            trace,
            work: work.ok_or(USAGE)?,
        },
    })
}

fn run(args: &Args) -> Result<Measured, String> {
    let before = host::Snapshot::take();
    let measured = match args.spec.kind {
        Kind::Mapped => mapped::run(&args.spec, &args.opts),
        Kind::Indexed => indexed::run(&args.spec, &args.opts),
        Kind::Gen => gen::run(&args.spec, &args.opts),
    }?;
    let after = host::Snapshot::take();
    host::record(
        &args.opts.work,
        args.spec.name,
        &args.opts,
        &before,
        &after,
        &measured,
    );
    Ok(measured)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.command.as_str() {
        "prepare" => inputs::prepare(&args.spec, args.opts.seed, &args.opts.work),
        "run" => run(&args).map(|m| println!("{}", stats::result_json(&m))),
        other => Err(format!("unknown command {other:?}; {USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench {}: {e}", args.spec.name);
            ExitCode::FAILURE
        }
    }
}

//! Host diagnostics read from procfs: page faults, peak RSS, CPU steal,
//! run-queue wait, and a fixed calibration loop. None of these is an
//! end-to-end metric; they are recorded beside each run so that an outlier
//! run can be explained (a slow calibration loop or a high steal share
//! means the host, not the program, was slow).

use std::fs::OpenOptions;
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use crate::{Measured, RunOpts};

/// Steps of the calibration loop: about 50 ms on an undisturbed core of a
/// 2-vCPU Xeon virtual machine.
const CALIBRATION_STEPS: u64 = 20_000_000;

/// `(minor, major)` page faults of this process so far.
pub fn faults() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // fields after the parenthesised command name start at field 3 (state);
    // minflt is field 10 and majflt field 12
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<u64> = rest
        .split_whitespace()
        .map(|w| w.parse().unwrap_or(0))
        .collect();
    (
        f.get(7).copied().unwrap_or(0),
        f.get(9).copied().unwrap_or(0),
    )
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// `(steal, total)` CPU jiffies over all cores since boot.
fn cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let line = stat.lines().next().unwrap_or("");
    let f: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|w| w.parse().unwrap_or(0))
        .collect();
    // user nice system idle iowait irq softirq steal (guest time is
    // already included in user)
    (f.get(7).copied().unwrap_or(0), f.iter().take(8).sum())
}

/// Nanoseconds this thread has waited on a run queue.
fn runqueue_wait_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1).and_then(|w| w.parse().ok()))
        .unwrap_or(0)
}

/// Milliseconds the fixed calibration loop takes right now.
fn calibrate_ms() -> f64 {
    let start = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..CALIBRATION_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = black_box(x);
    }
    black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// Host counters at one instant.
pub struct Snapshot {
    faults: (u64, u64),
    jiffies: (u64, u64),
    runqueue_wait_ns: u64,
    calibration_ms: f64,
}

impl Snapshot {
    pub fn take() -> Snapshot {
        let calibration_ms = calibrate_ms();
        Snapshot {
            faults: faults(),
            jiffies: cpu_jiffies(),
            runqueue_wait_ns: runqueue_wait_ns(),
            calibration_ms,
        }
    }
}

/// Appends one diagnostics line for this run to `<work>/runs.jsonl` and
/// echoes it to stderr.
pub fn record(
    work: &Path,
    workload: &str,
    opts: &RunOpts,
    a: &Snapshot,
    b: &Snapshot,
    m: &Measured,
) {
    let steal = b.jiffies.0.saturating_sub(a.jiffies.0) as f64;
    let total = b.jiffies.1.saturating_sub(a.jiffies.1) as f64;
    let unix_s = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let line = format!(
        "{{\"workload\": \"{workload}\", \"seed\": {}, \"trace\": {}, \"unix_s\": {unix_s}, \
         \"attempted\": {}, \"failed\": {}, \"steal_frac\": {:.5}, \"runqueue_wait_ms\": {:.3}, \
         \"minor_faults\": {}, \"major_faults\": {}, \"calibration_before_ms\": {:.3}, \
         \"calibration_after_ms\": {:.3}}}",
        opts.seed,
        u8::from(opts.trace),
        m.attempted,
        m.failed,
        crate::stats::ratio(steal, total),
        b.runqueue_wait_ns.saturating_sub(a.runqueue_wait_ns) as f64 / 1e6,
        b.faults.0.saturating_sub(a.faults.0),
        b.faults.1.saturating_sub(a.faults.1),
        a.calibration_ms,
        b.calibration_ms,
    );
    eprintln!("perfbench host: {line}");
    let appended = OpenOptions::new()
        .create(true)
        .append(true)
        .open(work.join("runs.jsonl"))
        .and_then(|mut f| writeln!(f, "{line}"));
    if let Err(e) = appended {
        eprintln!("perfbench: cannot record host diagnostics: {e}");
    }
}

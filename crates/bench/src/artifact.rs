//! Machine-readable experiment artifacts.
//!
//! [`Artifact`] wraps one binary invocation's JSONL output: it opens the
//! sink selected by `--json <path>` / `SMALLWORLD_JSON` (doing nothing at
//! all when neither is given), stamps a `meta` record, and then records
//! each experiment suite — its tables, wall-clock time, and the metrics
//! and span deltas it produced — followed by a `report` with the phase
//! tree and a final `summary` with total runtime, peak RSS and the final
//! metrics snapshot. The schema is documented in `EXPERIMENTS.md` and
//! validated by the `artifact_check` binary.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use smallworld_analysis::Table;
use smallworld_net::{Time, TimelineSample};
use smallworld_obs::metrics::Registry;
use smallworld_obs::sink::{
    meta_record, report_record, resolve_profile_target, suite_record, summary_record, table_record,
};
use smallworld_obs::span::SpanStats;
use smallworld_obs::{peak_rss_bytes, JsonValue, JsonlSink};

use crate::harness::Scale;

/// Extra records experiment suites queue for the artifact (e.g. the
/// `net.timeline` sections from E15). A suite runs as a plain
/// `Fn(Scale) -> Vec<Table>`, so this side channel is how non-table data
/// reaches the sink; [`Artifact::run_suite`] drains it after the suite's
/// tables, preserving push order.
static EXTRA: Mutex<Vec<JsonValue>> = Mutex::new(Vec::new());

/// Queues one extra record for the current suite. See [`Artifact::run_suite`].
pub fn push_record(record: JsonValue) {
    EXTRA.lock().expect("extra records poisoned").push(record);
}

fn drain_extra() -> Vec<JsonValue> {
    std::mem::take(&mut *EXTRA.lock().expect("extra records poisoned"))
}

/// Builds a `net.timeline` record: the congestion timeline of one traffic
/// simulation, as `[at, queued, in_flight, delivered, dropped]` sample
/// rows in virtual time.
pub fn timeline_record(
    suite: &str,
    label: &str,
    interval: Time,
    samples: &[TimelineSample],
) -> JsonValue {
    JsonValue::object([
        ("type", JsonValue::from("net.timeline")),
        ("suite", JsonValue::from(suite)),
        ("label", JsonValue::from(label)),
        ("interval", JsonValue::from(interval)),
        (
            "headers",
            JsonValue::array(
                ["at", "queued", "in_flight", "delivered", "dropped"].map(JsonValue::from),
            ),
        ),
        (
            "samples",
            JsonValue::array(samples.iter().map(|s| {
                JsonValue::array([
                    JsonValue::from(s.at),
                    JsonValue::from(s.queued),
                    JsonValue::from(s.in_flight),
                    JsonValue::from(s.delivered),
                    JsonValue::from(s.dropped),
                ])
            })),
        ),
    ])
}

fn scale_name(scale: Scale) -> &'static str {
    scale.pick("quick", "full")
}

/// One binary invocation's artifact session.
///
/// Construct with [`Artifact::open`], funnel every suite through
/// [`Artifact::run_suite`], and end with [`Artifact::finish`]. All sink
/// I/O errors are reported to stderr and otherwise ignored: artifact
/// trouble must never abort an hour-long experiment run.
#[derive(Debug)]
pub struct Artifact {
    sink: Option<JsonlSink>,
    started: Instant,
    /// Span stats accumulated across every suite (the global span table
    /// resets per suite), feeding the final `report` phase tree and the
    /// optional `--profile` folded-stack output.
    spans: Mutex<BTreeMap<String, SpanStats>>,
}

impl Artifact {
    /// Opens the artifact selected by the invocation (if any) and writes
    /// the `meta` record. Also resets the global metrics registry and span
    /// table so the artifact accounts only for this run.
    pub fn open(binary: &str, scale: Scale) -> Artifact {
        Registry::global().reset();
        smallworld_obs::span::reset();
        drain_extra();
        let sink = match JsonlSink::from_invocation() {
            Ok(sink) => sink,
            Err(err) => {
                eprintln!("warning: cannot open JSON artifact: {err}");
                None
            }
        };
        let artifact = Artifact {
            sink,
            started: Instant::now(),
            spans: Mutex::new(BTreeMap::new()),
        };
        let threads = smallworld_par::thread_count() as u64;
        artifact.write(&meta_record(binary, scale_name(scale), threads));
        artifact
    }

    /// Where the artifact is written, when one was requested.
    pub fn path(&self) -> Option<&std::path::Path> {
        self.sink.as_ref().map(JsonlSink::path)
    }

    /// Runs one experiment suite and records it: one `table` record per
    /// returned table, any records the suite queued via [`push_record`]
    /// (e.g. `net.timeline` sections), then a `suite` record with the
    /// wall-clock seconds and the metric/span activity the suite
    /// generated. Returns the tables and the elapsed seconds.
    pub fn run_suite(
        &self,
        name: &str,
        scale: Scale,
        run: impl FnOnce(Scale) -> Vec<Table>,
    ) -> (Vec<Table>, f64) {
        smallworld_obs::span::reset();
        drain_extra();
        let before = Registry::global().snapshot();
        let start = Instant::now();
        let tables = run(scale);
        let wall_secs = start.elapsed().as_secs_f64();
        let delta = Registry::global().snapshot().since(&before);
        let spans = smallworld_obs::span::snapshot();
        {
            let mut acc = self.spans.lock().expect("span accumulator poisoned");
            for (path, s) in &spans {
                let entry = acc.entry(path.clone()).or_default();
                entry.count += s.count;
                entry.total_ns += s.total_ns;
                entry.self_ns += s.self_ns;
            }
        }
        for table in &tables {
            self.write(&table_record(name, table));
        }
        for record in drain_extra() {
            self.write(&record);
        }
        self.write(&suite_record(name, wall_secs, &delta, &spans));
        (tables, wall_secs)
    }

    /// Writes the final `report` record (phase tree, peak-RSS source) and
    /// the `summary` record (total wall-clock, peak RSS, merged registry
    /// with HDR quantiles). When `--profile <path>` /
    /// `SMALLWORLD_PROFILE` is set, also writes the accumulated span table
    /// in folded-stack format to that path.
    pub fn finish(self) {
        let wall_secs = self.started.elapsed().as_secs_f64();
        let metrics = Registry::global().snapshot();
        let spans = std::mem::take(&mut *self.spans.lock().expect("span accumulator poisoned"));
        self.write(&report_record(&spans));
        self.write(&summary_record(wall_secs, peak_rss_bytes(), &metrics));
        if let Some(path) = resolve_profile_target(std::env::args().skip(1)) {
            let folded = smallworld_obs::span::to_folded(&spans);
            if let Err(err) = std::fs::write(&path, folded) {
                eprintln!("warning: cannot write profile {}: {err}", path.display());
            } else {
                eprintln!("profile: folded stacks written to {}", path.display());
            }
        }
    }

    fn write(&self, record: &smallworld_obs::JsonValue) {
        if let Some(sink) = &self.sink {
            if let Err(err) = sink.write(record) {
                eprintln!("warning: cannot write JSON artifact record: {err}");
            }
        }
    }
}

/// Runs a single-suite binary (the `exp_*` wrappers) end to end: open the
/// artifact, run the suite, summarize. This keeps every wrapper to one
/// line while giving it the same `--json` support as `run_all`.
pub fn run_single_suite(
    binary: &str,
    suite: &str,
    run: impl FnOnce(Scale) -> Vec<Table>,
) -> Vec<Table> {
    let scale = Scale::from_env();
    let artifact = Artifact::open(binary, scale);
    let (tables, _) = artifact.run_suite(suite, scale, run);
    artifact.finish();
    tables
}

#[cfg(test)]
mod tests {
    use super::*;
    use smallworld_obs::JsonValue;

    /// Artifact with no sink configured is inert (and must not panic).
    #[test]
    fn artifact_without_sink_is_silent() {
        // from_invocation sees the test binary's args, which have no
        // --json flag; SMALLWORLD_JSON is not set in the test environment
        let artifact = Artifact {
            sink: None,
            started: Instant::now(),
            spans: Mutex::new(BTreeMap::new()),
        };
        let (tables, wall) = artifact.run_suite("S", Scale::Quick, |_| {
            vec![Table::new(["a"]).title("t")]
        });
        assert_eq!(tables.len(), 1);
        assert!(wall >= 0.0);
        artifact.finish();
    }

    /// A full session against an explicit file produces the documented
    /// record sequence, every line parseable.
    #[test]
    fn artifact_emits_meta_tables_suite_summary() {
        let path = std::env::temp_dir().join("smallworld-bench-artifact-test.jsonl");
        let artifact = Artifact {
            sink: Some(JsonlSink::create(&path).unwrap()),
            started: Instant::now(),
            spans: Mutex::new(BTreeMap::new()),
        };
        artifact.write(&meta_record("test", "quick", 1));
        let (_, _) = artifact.run_suite("E0", Scale::Quick, |_| {
            smallworld_obs::metrics::counter("artifact.test.marker").inc();
            let mut t = Table::new(["x", "y"]).title("demo");
            t.row(["1", "2"]);
            vec![t]
        });
        artifact.finish();

        let contents = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let records: Vec<JsonValue> = contents
            .lines()
            .map(|l| JsonValue::parse(l).expect("line parses"))
            .collect();
        let types: Vec<&str> = records
            .iter()
            .map(|r| r.get("type").and_then(JsonValue::as_str).unwrap())
            .collect();
        assert_eq!(types, ["meta", "table", "suite", "report", "summary"]);
        // the final snapshot and peak RSS are written once, in the summary
        assert!(records[3].get("metrics").is_none());
        assert!(records[3].get("peak_rss_bytes").is_none());
        for record in [&records[2], &records[4]] {
            let JsonValue::Object(metrics) = record.get("metrics").expect("metrics") else {
                panic!("metrics is not an object");
            };
            assert_eq!(metrics.keys().collect::<Vec<_>>(), ["counters", "hdr"]);
        }
        // the suite delta picked up the counter bumped inside the suite
        let suite_counters = records[2]
            .get("metrics")
            .and_then(|m| m.get("counters"))
            .expect("suite metrics");
        assert_eq!(
            suite_counters
                .get("artifact.test.marker")
                .and_then(JsonValue::as_f64),
            Some(1.0)
        );
    }
}

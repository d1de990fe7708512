//! The JSONL artifact sink.
//!
//! Experiment binaries write one JSON object per line to a file chosen by
//! `--json <path>` (or `--json=<path>`) on the command line, falling back
//! to the `SMALLWORLD_JSON` environment variable. Every record carries a
//! `"type"` discriminant; the schema is documented in `EXPERIMENTS.md` and
//! validated by the `artifact_check` binary.
//!
//! Record types emitted by the stock binaries:
//!
//! * `meta` — one per run: binary name and scale.
//! * `table` — one per results table: suite, title, headers, rows.
//! * `suite` — one per experiment suite: wall-clock seconds plus the
//!   metrics and span deltas attributable to the suite.
//! * `report` — one per run, just before `summary`: the phase tree and
//!   the peak-RSS source.
//! * `summary` — one per run, last: total wall-clock, peak RSS, and the
//!   final merged registry snapshot.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use smallworld_analysis::Table;

use crate::hdr::HdrSnapshot;
use crate::json::JsonValue;
use crate::metrics::MetricsSnapshot;
use crate::span::SpanStats;

/// Resolves a `--<flag> <path>` / `--<flag>=<path>` pair from an argument
/// list, falling back to the `env` variable. The args are scanned, not
/// consumed, so binaries with their own parsers just need to *tolerate*
/// the flag.
pub fn resolve_flag<I, S>(args: I, flag: &str, env: &str) -> Option<PathBuf>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let long = format!("--{flag}");
    let prefixed = format!("--{flag}=");
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let arg = arg.as_ref();
        if arg == long {
            if let Some(path) = args.next() {
                return Some(PathBuf::from(path.as_ref()));
            }
        } else if let Some(path) = arg.strip_prefix(&prefixed) {
            return Some(PathBuf::from(path));
        }
    }
    std::env::var_os(env).map(PathBuf::from)
}

/// Resolves the artifact path from an argument list and the environment:
/// `--json <path>` / `--json=<path>` wins, then `SMALLWORLD_JSON`.
///
/// Pass `std::env::args().skip(1)`.
pub fn resolve_target<I, S>(args: I) -> Option<PathBuf>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    resolve_flag(args, "json", "SMALLWORLD_JSON")
}

/// Resolves the folded-stack profile path: `--profile <path>` /
/// `--profile=<path>`, then `SMALLWORLD_PROFILE`.
pub fn resolve_profile_target<I, S>(args: I) -> Option<PathBuf>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    resolve_flag(args, "profile", "SMALLWORLD_PROFILE")
}

/// A line-buffered JSONL writer; one [`JsonValue`] per line.
#[derive(Debug)]
pub struct JsonlSink {
    path: PathBuf,
    file: Mutex<BufWriter<File>>,
}

impl JsonlSink {
    /// Creates (truncating) the artifact file at `path`.
    pub fn create(path: impl AsRef<Path>) -> io::Result<JsonlSink> {
        let path = path.as_ref().to_path_buf();
        let file = File::create(&path)?;
        Ok(JsonlSink {
            path,
            file: Mutex::new(BufWriter::new(file)),
        })
    }

    /// Opens the sink selected by the invocation (see [`resolve_target`]);
    /// `Ok(None)` when no artifact was requested.
    pub fn from_invocation() -> io::Result<Option<JsonlSink>> {
        match resolve_target(std::env::args().skip(1)) {
            Some(path) => JsonlSink::create(path).map(Some),
            None => Ok(None),
        }
    }

    /// Where the artifact is being written.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record as a single line and flushes it.
    pub fn write(&self, record: &JsonValue) -> io::Result<()> {
        let mut file = self.file.lock().expect("jsonl sink poisoned");
        writeln!(file, "{record}")?;
        file.flush()
    }
}

/// A `meta` record: emitted once, first, by each binary.
///
/// `threads` records the worker count the run was configured with
/// (`SMALLWORLD_THREADS` or the detected parallelism), so artifacts from
/// differently-parallel runs can be told apart when diffing result tables.
pub fn meta_record(binary: &str, scale: &str, threads: u64) -> JsonValue {
    JsonValue::object([
        ("type", JsonValue::from("meta")),
        ("binary", JsonValue::from(binary)),
        ("scale", JsonValue::from(scale)),
        ("threads", JsonValue::from(threads)),
        (
            "rss_source",
            JsonValue::from(crate::rss::peak_rss().1.as_str()),
        ),
    ])
}

/// A `table` record for one results table of `suite`.
pub fn table_record(suite: &str, table: &Table) -> JsonValue {
    JsonValue::object([
        ("type", JsonValue::from("table")),
        ("suite", JsonValue::from(suite)),
        (
            "title",
            table.title_text().map_or(JsonValue::Null, JsonValue::from),
        ),
        (
            "headers",
            JsonValue::array(table.headers().iter().map(JsonValue::from)),
        ),
        (
            "rows",
            JsonValue::array(
                table
                    .rows()
                    .iter()
                    .map(|row| JsonValue::array(row.iter().map(JsonValue::from))),
            ),
        ),
    ])
}

/// A `suite` record: per-suite wall-clock plus metric/span deltas.
pub fn suite_record(
    suite: &str,
    wall_secs: f64,
    metrics: &MetricsSnapshot,
    spans: &BTreeMap<String, SpanStats>,
) -> JsonValue {
    JsonValue::object([
        ("type", JsonValue::from("suite")),
        ("suite", JsonValue::from(suite)),
        ("wall_secs", JsonValue::from(wall_secs)),
        ("metrics", metrics_to_json(metrics)),
        ("spans", spans_to_json(spans)),
    ])
}

/// A `summary` record: emitted once, last, by each binary.
pub fn summary_record(
    wall_secs: f64,
    peak_rss_bytes: Option<u64>,
    metrics: &MetricsSnapshot,
) -> JsonValue {
    JsonValue::object([
        ("type", JsonValue::from("summary")),
        ("wall_secs", JsonValue::from(wall_secs)),
        (
            "peak_rss_bytes",
            peak_rss_bytes.map_or(JsonValue::Null, JsonValue::from),
        ),
        ("metrics", metrics_to_json(metrics)),
    ])
}

/// Renders a metrics snapshot as `{"counters": {...}, "hdr": {...}}`.
///
/// Both keys are always present, even when empty. Each HDR histogram is
/// rendered by [`hdr_to_json`].
pub fn metrics_to_json(snapshot: &MetricsSnapshot) -> JsonValue {
    let counters = JsonValue::Object(
        snapshot
            .counters
            .iter()
            .map(|(k, &v)| (k.clone(), JsonValue::from(v)))
            .collect(),
    );
    let hdr = JsonValue::Object(
        snapshot
            .hdr
            .iter()
            .map(|(k, h)| (k.clone(), hdr_to_json(h)))
            .collect(),
    );
    JsonValue::object([("counters", counters), ("hdr", hdr)])
}

/// Renders one HDR snapshot: `count`/`sum`/`min`/`max`/`mean`, a
/// `quantiles` object with the standard report quantiles
/// (p50/p90/p99/p999), and the sparse `buckets` as `[index, count]`
/// pairs (indices into the fixed log-linear layout, see [`crate::hdr`]).
pub fn hdr_to_json(snapshot: &HdrSnapshot) -> JsonValue {
    let quantiles = JsonValue::object(crate::hdr::REPORT_QUANTILES.iter().map(|&(name, q)| {
        (
            name,
            snapshot.quantile(q).map_or(JsonValue::Null, JsonValue::from),
        )
    }));
    let buckets = JsonValue::array(
        snapshot
            .counts
            .iter()
            .map(|&(i, c)| JsonValue::array([JsonValue::from(u64::from(i)), JsonValue::from(c)])),
    );
    JsonValue::object([
        ("count", JsonValue::from(snapshot.count)),
        ("sum", JsonValue::from(snapshot.sum)),
        (
            "min",
            if snapshot.is_empty() {
                JsonValue::Null
            } else {
                JsonValue::from(snapshot.min)
            },
        ),
        (
            "max",
            if snapshot.is_empty() {
                JsonValue::Null
            } else {
                JsonValue::from(snapshot.max)
            },
        ),
        ("mean", JsonValue::from(snapshot.mean())),
        ("quantiles", quantiles),
        ("buckets", buckets),
    ])
}

/// A `report` record: the run's hierarchical phase tree and the source
/// its peak RSS is read from. Emitted once per run, just before
/// `summary`, which carries the final metric snapshot and the peak RSS.
pub fn report_record(spans: &BTreeMap<String, SpanStats>) -> JsonValue {
    JsonValue::object([
        ("type", JsonValue::from("report")),
        ("phases", span_tree_to_json(&crate::span::tree(spans))),
        (
            "rss_source",
            JsonValue::from(crate::rss::peak_rss().1.as_str()),
        ),
    ])
}

/// Renders a span forest (see [`crate::span::tree`]) as nested
/// `{name, path, count, total_ns, self_ns, children}` objects.
pub fn span_tree_to_json(nodes: &[crate::span::SpanNode]) -> JsonValue {
    JsonValue::array(nodes.iter().map(|n| {
        JsonValue::object([
            ("name", JsonValue::from(n.name.as_str())),
            ("path", JsonValue::from(n.path.as_str())),
            ("count", JsonValue::from(n.stats.count)),
            ("total_ns", JsonValue::from(n.stats.total_ns)),
            ("self_ns", JsonValue::from(n.stats.self_ns)),
            ("children", span_tree_to_json(&n.children)),
        ])
    }))
}

/// Renders a span table as `{path: {count, total_ns, self_ns}}`.
pub fn spans_to_json(spans: &BTreeMap<String, SpanStats>) -> JsonValue {
    JsonValue::Object(
        spans
            .iter()
            .map(|(path, s)| {
                let value = JsonValue::object([
                    ("count", JsonValue::from(s.count)),
                    ("total_ns", JsonValue::from(s.total_ns)),
                    ("self_ns", JsonValue::from(s.self_ns)),
                ]);
                (path.clone(), value)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_prefers_flag_over_env() {
        assert_eq!(
            resolve_target(["--quick", "--json", "/tmp/a.json"]),
            Some(PathBuf::from("/tmp/a.json"))
        );
        assert_eq!(
            resolve_target(["--json=/tmp/b.json"]),
            Some(PathBuf::from("/tmp/b.json"))
        );
        // trailing --json with no value falls through to the env lookup
        // (and tests cannot safely set env vars, so just check no panic)
        let _ = resolve_target(["--json"]);
    }

    #[test]
    fn sink_writes_parseable_lines() {
        let path = std::env::temp_dir().join("smallworld-obs-sink-test.jsonl");
        let sink = JsonlSink::create(&path).unwrap();
        let mut table = Table::new(["n", "val\"ue"]).title("T1");
        table.row(["1", "a\nb"]);
        sink.write(&meta_record("test", "quick", 4)).unwrap();
        sink.write(&table_record("S", &table)).unwrap();
        sink.write(&summary_record(1.5, Some(1024), &MetricsSnapshot::default()))
            .unwrap();
        drop(sink);

        let contents = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let lines: Vec<&str> = contents.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in &lines {
            JsonValue::parse(line).expect("every line parses");
        }
        let table_line = JsonValue::parse(lines[1]).unwrap();
        assert_eq!(table_line.get("type").and_then(JsonValue::as_str), Some("table"));
        assert_eq!(
            table_line
                .get("rows")
                .and_then(JsonValue::as_array)
                .map(<[JsonValue]>::len),
            Some(1)
        );
    }

    #[test]
    fn metrics_json_keeps_nonzero_buckets_only() {
        let empty = metrics_to_json(&MetricsSnapshot::default());
        assert!(
            matches!(empty.get("hdr"), Some(JsonValue::Object(m)) if m.is_empty()),
            "hdr present when empty"
        );
        let mut snapshot = MetricsSnapshot::default();
        snapshot.counters.insert("c".into(), 7);
        let h = crate::hdr::HdrHistogram::new();
        for v in [1, 4, 4] {
            h.record(v);
        }
        snapshot.hdr.insert("h".into(), h.snapshot());
        let v = metrics_to_json(&snapshot);
        assert_eq!(
            v.get("counters").and_then(|c| c.get("c")).and_then(JsonValue::as_f64),
            Some(7.0)
        );
        let buckets = v
            .get("hdr")
            .and_then(|h| h.get("h"))
            .and_then(|h| h.get("buckets"))
            .and_then(JsonValue::as_array)
            .expect("buckets array");
        assert_eq!(buckets.len(), 2);
    }
}

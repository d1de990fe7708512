//! Renders a JSONL experiment artifact as markdown, or diffs two of them.
//!
//! Usage:
//!
//! * `swreport <artifact.jsonl>` — write a markdown run report to stdout:
//!   the run header, every results table, timeline excerpts, the phase
//!   tree with wall-clock timings, and the summary with its HDR quantiles.
//! * `swreport --diff <a.jsonl> <b.jsonl> [--ignore "col1,col2"]` —
//!   compare two artifacts structurally (tables by suite/title, cell by
//!   cell; summary counters key by key) and print the differences.
//!   `--ignore` names table columns to exclude from the comparison —
//!   wall-clock columns like `sample secs` vary between runs of a
//!   deterministic experiment, so CI's generate-once/load-twice check
//!   passes `--ignore "sample secs,route secs"`. Exits 0 when equivalent,
//!   1 when they differ, 2 on malformed input — CI runs this non-gating
//!   against committed baselines to surface drift without blocking.
//!
//! Works on any artifact version: records with unknown types are listed
//! but not interpreted, so the tool never trails the schema.

use std::fmt::Write as _;
use std::process::ExitCode;

use smallworld_obs::JsonValue;

/// How many timeline samples to show before eliding the middle.
const TIMELINE_HEAD: usize = 24;

fn parse_artifact(contents: &str) -> Result<Vec<JsonValue>, String> {
    contents
        .lines()
        .enumerate()
        .map(|(i, line)| {
            JsonValue::parse(line).map_err(|e| format!("line {}: {e}", i + 1))
        })
        .collect()
}

fn record_type(record: &JsonValue) -> &str {
    record.get("type").and_then(JsonValue::as_str).unwrap_or("?")
}

fn str_of(record: &JsonValue, key: &str) -> String {
    record
        .get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or("?")
        .to_string()
}

fn num_of(record: &JsonValue, key: &str) -> Option<f64> {
    record.get(key).and_then(JsonValue::as_f64)
}

/// Formats a JSON number the way the artifact prints it (integers without
/// a decimal point), for cells that came in as numbers.
fn fmt_num(x: f64) -> String {
    if x == x.trunc() && x.abs() < 9e15 {
        format!("{}", x as i64)
    } else {
        format!("{x:.3}")
    }
}

fn fmt_cell(v: &JsonValue) -> String {
    match v {
        JsonValue::String(s) => s.clone(),
        JsonValue::Number(x) => fmt_num(*x),
        JsonValue::Null => "-".into(),
        other => other.to_string(),
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.1}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.1}µs", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

fn fmt_bytes(bytes: f64) -> String {
    if bytes >= 1024.0 * 1024.0 * 1024.0 {
        format!("{:.2} GiB", bytes / (1024.0 * 1024.0 * 1024.0))
    } else if bytes >= 1024.0 * 1024.0 {
        format!("{:.1} MiB", bytes / (1024.0 * 1024.0))
    } else {
        format!("{bytes:.0} B")
    }
}

/// Emits one markdown table: header row, separator, then rows.
fn markdown_table(out: &mut String, headers: &[String], rows: &[Vec<String>]) {
    let _ = writeln!(out, "| {} |", headers.join(" | "));
    let _ = writeln!(
        out,
        "|{}|",
        headers.iter().map(|_| " --- ").collect::<Vec<_>>().join("|")
    );
    for row in rows {
        let _ = writeln!(out, "| {} |", row.join(" | "));
    }
}

fn json_table(record: &JsonValue) -> (Vec<String>, Vec<Vec<String>>) {
    let headers: Vec<String> = record
        .get("headers")
        .and_then(JsonValue::as_array)
        .map(|h| h.iter().map(fmt_cell).collect())
        .unwrap_or_default();
    let rows: Vec<Vec<String>> = record
        .get("rows")
        .and_then(JsonValue::as_array)
        .map(|rows| {
            rows.iter()
                .map(|r| {
                    r.as_array()
                        .map(|cells| cells.iter().map(fmt_cell).collect())
                        .unwrap_or_default()
                })
                .collect()
        })
        .unwrap_or_default();
    (headers, rows)
}

fn render_table(out: &mut String, record: &JsonValue) {
    let suite = str_of(record, "suite");
    let title = record
        .get("title")
        .and_then(JsonValue::as_str)
        .unwrap_or("(untitled)");
    let _ = writeln!(out, "## {suite} — {title}\n");
    let (headers, rows) = json_table(record);
    markdown_table(out, &headers, &rows);
    let _ = writeln!(out);
}

fn render_timeline(out: &mut String, record: &JsonValue) {
    let suite = str_of(record, "suite");
    let label = str_of(record, "label");
    let interval = num_of(record, "interval").unwrap_or(0.0);
    let _ = writeln!(
        out,
        "## Timeline: {suite} [{label}] (every {} ticks)\n",
        fmt_num(interval)
    );
    let headers: Vec<String> = record
        .get("headers")
        .and_then(JsonValue::as_array)
        .map(|h| h.iter().map(fmt_cell).collect())
        .unwrap_or_default();
    let samples: Vec<Vec<String>> = record
        .get("samples")
        .and_then(JsonValue::as_array)
        .map(|rows| {
            rows.iter()
                .map(|r| {
                    r.as_array()
                        .map(|cells| cells.iter().map(fmt_cell).collect())
                        .unwrap_or_default()
                })
                .collect()
        })
        .unwrap_or_default();
    if samples.len() > TIMELINE_HEAD + 1 {
        // long runs: show the opening ramp and the final state
        let shown: Vec<Vec<String>> = samples[..TIMELINE_HEAD]
            .iter()
            .cloned()
            .chain([vec!["…".to_string(); headers.len()]])
            .chain([samples[samples.len() - 1].clone()])
            .collect();
        markdown_table(out, &headers, &shown);
        let _ = writeln!(
            out,
            "\n({} samples total, {} elided)\n",
            samples.len(),
            samples.len() - TIMELINE_HEAD - 1
        );
    } else {
        markdown_table(out, &headers, &samples);
        let _ = writeln!(out);
    }
}

fn render_phase_tree(out: &mut String, nodes: &[JsonValue], depth: usize) {
    for node in nodes {
        let name = str_of(node, "name");
        let count = num_of(node, "count").unwrap_or(0.0);
        let total = num_of(node, "total_ns").unwrap_or(0.0);
        let self_ns = num_of(node, "self_ns").unwrap_or(0.0);
        let indent = "  ".repeat(depth);
        let _ = writeln!(
            out,
            "{indent}- **{name}** ×{} — total {}, self {}",
            fmt_num(count),
            fmt_ns(total),
            fmt_ns(self_ns)
        );
        if let Some(children) = node.get("children").and_then(JsonValue::as_array) {
            render_phase_tree(out, children, depth + 1);
        }
    }
}

fn render_hdr_metrics(out: &mut String, hdr: &JsonValue) {
    let JsonValue::Object(map) = hdr else { return };
    if map.is_empty() {
        return;
    }
    let _ = writeln!(out, "### Quantiles\n");
    let headers: Vec<String> = ["metric", "count", "mean", "p50", "p90", "p99", "p999", "max"]
        .map(String::from)
        .to_vec();
    let rows: Vec<Vec<String>> = map
        .iter()
        .map(|(name, h)| {
            let q = |k: &str| {
                h.get("quantiles")
                    .and_then(|qs| qs.get(k))
                    .map(fmt_cell)
                    .unwrap_or_else(|| "-".into())
            };
            vec![
                name.clone(),
                num_of(h, "count").map(fmt_num).unwrap_or_else(|| "-".into()),
                num_of(h, "mean").map(|m| format!("{m:.1}")).unwrap_or_else(|| "-".into()),
                q("p50"),
                q("p90"),
                q("p99"),
                q("p999"),
                h.get("max").map(fmt_cell).unwrap_or_else(|| "-".into()),
            ]
        })
        .collect();
    markdown_table(out, &headers, &rows);
    let _ = writeln!(out);
}

fn render_report(out: &mut String, record: &JsonValue) {
    let _ = writeln!(out, "## Run report\n");
    if let Some(phases) = record.get("phases").and_then(JsonValue::as_array) {
        if phases.is_empty() {
            let _ = writeln!(out, "(no spans recorded)\n");
        } else {
            let _ = writeln!(out, "### Phases\n");
            render_phase_tree(out, phases, 0);
            let _ = writeln!(out);
        }
    }
    let _ = writeln!(out, "Peak RSS source: {}\n", str_of(record, "rss_source"));
}

fn render_summary(out: &mut String, record: &JsonValue) {
    let _ = writeln!(out, "## Summary\n");
    if let Some(wall) = num_of(record, "wall_secs") {
        let _ = writeln!(out, "- total wall-clock: {wall:.2}s");
    }
    if let Some(rss) = num_of(record, "peak_rss_bytes") {
        let _ = writeln!(out, "- peak RSS: {}", fmt_bytes(rss));
    }
    let counters = record
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .map(|c| match c {
            JsonValue::Object(map) => map.len(),
            _ => 0,
        })
        .unwrap_or(0);
    let _ = writeln!(out, "- metrics: {counters} counters\n");
    if let Some(hdr) = record.get("metrics").and_then(|m| m.get("hdr")) {
        render_hdr_metrics(out, hdr);
    }
}

fn render(records: &[JsonValue]) -> String {
    let mut out = String::new();
    for record in records {
        match record_type(record) {
            "meta" => {
                let _ = writeln!(
                    out,
                    "# {} — {} scale, {} thread(s)\n",
                    str_of(record, "binary"),
                    str_of(record, "scale"),
                    num_of(record, "threads").map(fmt_num).unwrap_or_else(|| "?".into()),
                );
            }
            "table" => render_table(&mut out, record),
            "net.timeline" => render_timeline(&mut out, record),
            "suite" => {
                let _ = writeln!(
                    out,
                    "*suite {} finished in {:.2}s*\n",
                    str_of(record, "suite"),
                    num_of(record, "wall_secs").unwrap_or(0.0)
                );
            }
            "report" => render_report(&mut out, record),
            "summary" => render_summary(&mut out, record),
            other => {
                let _ = writeln!(out, "*(unrecognized record type {other:?})*\n");
            }
        }
    }
    out
}

/// One table's identity inside an artifact: suite plus title. Artifacts
/// never repeat the pair, so this is a stable join key for diffing.
fn table_key(record: &JsonValue) -> String {
    format!(
        "{} — {}",
        str_of(record, "suite"),
        record
            .get("title")
            .and_then(JsonValue::as_str)
            .unwrap_or("(untitled)")
    )
}

fn tables_of(records: &[JsonValue]) -> Vec<(String, &JsonValue)> {
    records
        .iter()
        .filter(|r| record_type(r) == "table")
        .map(|r| (table_key(r), r))
        .collect()
}

/// Compares two artifacts; returns human-readable differences (empty when
/// equivalent). Tables are matched by suite+title and compared cell by
/// cell; summary counters key by key. Wall-clock fields and span timings
/// are machine-dependent and deliberately ignored, and columns named in
/// `ignore` are skipped cell-wise (headers must still agree).
fn diff(a: &[JsonValue], b: &[JsonValue], ignore: &[String]) -> Vec<String> {
    let mut out = Vec::new();
    let ta = tables_of(a);
    let tb = tables_of(b);
    for (key, _) in &ta {
        if !tb.iter().any(|(k, _)| k == key) {
            out.push(format!("table only in first artifact: {key}"));
        }
    }
    for (key, _) in &tb {
        if !ta.iter().any(|(k, _)| k == key) {
            out.push(format!("table only in second artifact: {key}"));
        }
    }
    for (key, ra) in &ta {
        let Some((_, rb)) = tb.iter().find(|(k, _)| k == key) else {
            continue;
        };
        let (ha, rows_a) = json_table(ra);
        let (hb, rows_b) = json_table(rb);
        if ha != hb {
            out.push(format!(
                "{key}: headers differ ({} vs {})",
                ha.join("/"),
                hb.join("/")
            ));
            continue;
        }
        if rows_a.len() != rows_b.len() {
            out.push(format!(
                "{key}: {} rows vs {} rows",
                rows_a.len(),
                rows_b.len()
            ));
            continue;
        }
        for (i, (row_a, row_b)) in rows_a.iter().zip(&rows_b).enumerate() {
            for (c, (cell_a, cell_b)) in row_a.iter().zip(row_b).enumerate() {
                let col = ha.get(c).map(String::as_str).unwrap_or("?");
                if ignore.iter().any(|ig| ig == col) {
                    continue;
                }
                if cell_a != cell_b {
                    out.push(format!(
                        "{key}: row {} column {col:?}: {cell_a:?} vs {cell_b:?}",
                        i + 1
                    ));
                }
            }
        }
    }

    let counters = |records: &[JsonValue]| -> Vec<(String, f64)> {
        records
            .iter()
            .rev()
            .find(|r| record_type(r) == "summary")
            .and_then(|s| s.get("metrics"))
            .and_then(|m| m.get("counters"))
            .and_then(|c| match c {
                JsonValue::Object(map) => Some(
                    map.iter()
                        .filter_map(|(k, v)| v.as_f64().map(|v| (k.clone(), v)))
                        .collect(),
                ),
                _ => None,
            })
            .unwrap_or_default()
    };
    let ca = counters(a);
    let cb = counters(b);
    for (k, va) in &ca {
        match cb.iter().find(|(kb, _)| kb == k) {
            Some((_, vb)) if va != vb => {
                out.push(format!("counter {k}: {va} vs {vb}"));
            }
            Some(_) => {}
            None => out.push(format!("counter only in first artifact: {k}")),
        }
    }
    for (k, _) in &cb {
        if !ca.iter().any(|(ka, _)| ka == k) {
            out.push(format!("counter only in second artifact: {k}"));
        }
    }
    out
}

fn load(path: &str) -> Result<Vec<JsonValue>, String> {
    let contents =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_artifact(&contents).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [path] => match load(path) {
            Ok(records) => {
                print!("{}", render(&records));
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        },
        [flag, rest @ ..] if flag == "--diff" => {
            let (paths, ignore): (&[String], Vec<String>) = match rest {
                [_, _] => (rest, Vec::new()),
                [_, _, ig_flag, cols] if ig_flag == "--ignore" => (
                    &rest[..2],
                    cols.split(',')
                        .map(|c| c.trim().to_string())
                        .filter(|c| !c.is_empty())
                        .collect(),
                ),
                _ => {
                    eprintln!(
                        "usage: swreport --diff <a.jsonl> <b.jsonl> [--ignore \"col1,col2\"]"
                    );
                    return ExitCode::from(2);
                }
            };
            let (ra, rb) = match (load(&paths[0]), load(&paths[1])) {
                (Ok(ra), Ok(rb)) => (ra, rb),
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            };
            let (a, b) = (&paths[0], &paths[1]);
            let differences = diff(&ra, &rb, &ignore);
            if differences.is_empty() {
                println!("{a} and {b}: equivalent (tables and counters match)");
                ExitCode::SUCCESS
            } else {
                println!("{a} vs {b}: {} difference(s)", differences.len());
                for d in &differences {
                    println!("  - {d}");
                }
                ExitCode::FAILURE
            }
        }
        _ => {
            eprintln!("usage: swreport <artifact.jsonl>");
            eprintln!("       swreport --diff <a.jsonl> <b.jsonl> [--ignore \"col1,col2\"]");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_artifact(delivered: &str) -> Vec<JsonValue> {
        let lines = [
            r#"{"type":"meta","binary":"exp_traffic","scale":"quick","threads":4,"rss_source":"procfs"}"#.to_string(),
            format!(
                r#"{{"type":"table","suite":"E15 traffic","title":"T","headers":["load","delivered"],"rows":[["0.50","{delivered}"]]}}"#
            ),
            r#"{"type":"net.timeline","suite":"E15 traffic","label":"load=0.50","interval":16,"headers":["at","queued","in_flight","delivered","dropped"],"samples":[[16,1,2,0,0],[32,0,0,3,0]]}"#.to_string(),
            r#"{"type":"suite","suite":"E15 traffic","wall_secs":0.5,"metrics":{"counters":{}},"spans":{}}"#.to_string(),
            r#"{"type":"report","phases":[{"name":"run","path":"run","count":1,"total_ns":5000000,"self_ns":1000000,"children":[]}],"rss_source":"procfs"}"#.to_string(),
            r#"{"type":"summary","wall_secs":0.6,"peak_rss_bytes":1048576,"metrics":{"counters":{"net.injected":6},"hdr":{"route.hops":{"count":2,"sum":10,"min":4,"max":6,"mean":5.0,"quantiles":{"p50":4,"p90":6,"p99":6,"p999":6},"buckets":[[4,1],[6,1]]}}}}"#.to_string(),
        ];
        lines
            .iter()
            .map(|l| JsonValue::parse(l).expect("sample line parses"))
            .collect()
    }

    #[test]
    fn render_covers_every_record_type() {
        let md = render(&sample_artifact("0.900"));
        assert!(md.contains("# exp_traffic — quick scale, 4 thread(s)"));
        assert!(md.contains("## E15 traffic — T"));
        assert!(md.contains("| 0.50 | 0.900 |"));
        assert!(md.contains("## Timeline: E15 traffic [load=0.50]"));
        assert!(md.contains("| 16 | 1 | 2 | 0 | 0 |"));
        assert!(md.contains("### Phases"));
        assert!(md.contains("**run** ×1 — total 5.0ms, self 1.0ms"));
        assert!(md.contains("| route.hops | 2 | 5.0 | 4 | 6 | 6 | 6 | 6 |"));
        assert!(md.contains("Peak RSS source: procfs"));
        assert!(md.contains("- peak RSS: 1.0 MiB"));
        assert!(md.contains("## Summary"));
    }

    #[test]
    fn diff_reports_cell_and_counter_changes() {
        let a = sample_artifact("0.900");
        let b = sample_artifact("0.950");
        assert!(diff(&a, &a, &[]).is_empty());
        let differences = diff(&a, &b, &[]);
        assert_eq!(differences.len(), 1);
        assert!(differences[0].contains("\"delivered\""));
        assert!(differences[0].contains("\"0.900\" vs \"0.950\""));
    }

    #[test]
    fn ignored_columns_are_skipped() {
        let a = sample_artifact("0.900");
        let b = sample_artifact("0.950");
        let ignore = vec!["delivered".to_string()];
        assert!(diff(&a, &b, &ignore).is_empty());
        // ignoring an unrelated column still reports the difference
        let other = vec!["load".to_string()];
        assert_eq!(diff(&a, &b, &other).len(), 1);
    }

    #[test]
    fn diff_reports_missing_tables() {
        let a = sample_artifact("0.900");
        let mut b = a.clone();
        b.retain(|r| record_type(r) != "table");
        let differences = diff(&a, &b, &[]);
        assert!(differences
            .iter()
            .any(|d| d.contains("only in first artifact")));
    }

    #[test]
    fn long_timelines_are_elided() {
        let samples: Vec<String> = (1..=40)
            .map(|i| format!("[{},0,0,{i},0]", i * 16))
            .collect();
        let line = format!(
            r#"{{"type":"net.timeline","suite":"S","label":"L","interval":16,"headers":["at","queued","in_flight","delivered","dropped"],"samples":[{}]}}"#,
            samples.join(",")
        );
        let record = JsonValue::parse(&line).unwrap();
        let mut out = String::new();
        render_timeline(&mut out, &record);
        assert!(out.contains("40 samples total"));
        assert!(out.contains("| … |"));
        // the final sample always survives elision
        assert!(out.contains("| 640 | 0 | 0 | 40 | 0 |"));
    }
}

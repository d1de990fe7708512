//! Validates a JSONL experiment artifact produced by `run_all` or any
//! `exp_*` binary.
//!
//! Usage: `cargo run -p smallworld-bench --bin artifact_check -- <path>`
//!
//! Checks that every line parses as JSON, that the record sequence is
//! well-formed (a `meta` record first, at least one `table` and one
//! `suite` record, exactly one `summary` record last), and that the
//! summary carries total wall-clock, peak RSS, and a metrics snapshot
//! with routing counters. Exits non-zero with a message on the first
//! violation, so CI can gate on it.
//!
//! Artifacts whose `meta` record carries `rss_source` are **v2** and are
//! held to the stricter telemetry schema additionally: exactly one
//! `report` record (phase tree + RSS source) immediately before the
//! summary, and well-formed `net.timeline` records (strictly increasing
//! sample times). Artifacts from before the telemetry schema have no
//! `rss_source` and skip only those v2 checks. Every HDR quantile object
//! a metrics snapshot carries must be internally consistent; older v2
//! artifacts that also wrote the final snapshot into `report.metrics`
//! have it checked there too.

use std::process::ExitCode;

use smallworld_obs::JsonValue;

const RSS_SOURCES: [&str; 3] = ["procfs", "rusage", "unavailable"];

/// Validates every HDR entry in a metrics snapshot: quantiles must exist
/// and be monotone (p50 <= p90 <= p99 <= p999 <= max) whenever the
/// histogram is non-empty.
fn check_hdr_metrics(line: usize, metrics: &JsonValue) -> Result<(), String> {
    let Some(JsonValue::Object(hdr)) = metrics.get("hdr") else {
        return Ok(());
    };
    for (name, h) in hdr {
        let count = h
            .get("count")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("line {line}: hdr metric {name:?} missing \"count\""))?;
        let quantiles = h
            .get("quantiles")
            .ok_or_else(|| format!("line {line}: hdr metric {name:?} missing \"quantiles\""))?;
        if count == 0.0 {
            continue;
        }
        let q = |key: &str| {
            quantiles.get(key).and_then(JsonValue::as_f64).ok_or_else(|| {
                format!("line {line}: hdr metric {name:?} quantile {key:?} not numeric")
            })
        };
        let (p50, p90, p99, p999) = (q("p50")?, q("p90")?, q("p99")?, q("p999")?);
        let max = h
            .get("max")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("line {line}: hdr metric {name:?} missing numeric \"max\""))?;
        if !(p50 <= p90 && p90 <= p99 && p99 <= p999 && p999 <= max) {
            return Err(format!(
                "line {line}: hdr metric {name:?} quantiles not monotone: \
                 p50={p50} p90={p90} p99={p99} p999={p999} max={max}"
            ));
        }
    }
    Ok(())
}

fn check(contents: &str) -> Result<String, String> {
    let mut records = Vec::new();
    for (i, line) in contents.lines().enumerate() {
        let record = JsonValue::parse(line)
            .map_err(|e| format!("line {}: does not parse as JSON: {e:?}", i + 1))?;
        let kind = record
            .get("type")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("line {}: record has no \"type\" string", i + 1))?
            .to_string();
        records.push((kind, record));
    }
    if records.is_empty() {
        return Err("artifact is empty".into());
    }
    if records[0].0 != "meta" {
        return Err(format!(
            "first record must be \"meta\", found {:?}",
            records[0].0
        ));
    }
    let (last_kind, last) = &records[records.len() - 1];
    if last_kind != "summary" {
        return Err(format!("last record must be \"summary\", found {last_kind:?}"));
    }

    // v2 artifacts (telemetry schema) stamp the RSS source into meta;
    // older committed baselines predate it and skip the v2-only checks
    let is_v2 = records[0].1.get("rss_source").is_some();

    let mut tables = 0usize;
    let mut suites = 0usize;
    let mut summaries = 0usize;
    let mut reports = 0usize;
    let mut timelines = 0usize;
    let mut timeline_samples = 0usize;
    let mut shard_records = 0usize;
    for (i, (kind, record)) in records.iter().enumerate() {
        let line = i + 1;
        match kind.as_str() {
            "meta" => {
                for key in ["binary", "scale"] {
                    if record.get(key).and_then(JsonValue::as_str).is_none() {
                        return Err(format!("line {line}: meta record missing {key:?}"));
                    }
                }
                if record.get("threads").and_then(JsonValue::as_f64).is_none() {
                    return Err(format!("line {line}: meta record missing numeric \"threads\""));
                }
                if is_v2 {
                    let source = record
                        .get("rss_source")
                        .and_then(JsonValue::as_str)
                        .unwrap_or("");
                    if !RSS_SOURCES.contains(&source) {
                        return Err(format!(
                            "line {line}: meta rss_source {source:?} not one of {RSS_SOURCES:?}"
                        ));
                    }
                }
            }
            "table" => {
                tables += 1;
                for key in ["suite", "headers", "rows"] {
                    if record.get(key).is_none() {
                        return Err(format!("line {line}: table record missing {key:?}"));
                    }
                }
                let headers = record
                    .get("headers")
                    .and_then(JsonValue::as_array)
                    .ok_or_else(|| format!("line {line}: table headers is not an array"))?;
                let rows = record
                    .get("rows")
                    .and_then(JsonValue::as_array)
                    .ok_or_else(|| format!("line {line}: table rows is not an array"))?;
                for row in rows {
                    let row = row
                        .as_array()
                        .ok_or_else(|| format!("line {line}: table row is not an array"))?;
                    if row.len() != headers.len() {
                        return Err(format!(
                            "line {line}: row has {} cells but table has {} headers",
                            row.len(),
                            headers.len()
                        ));
                    }
                }
                // traffic tables report rates in named columns; every cell
                // under one of them must be a number in [0, 1]
                let suite = record
                    .get("suite")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("");
                if suite.contains("traffic") {
                    const RATE_COLUMNS: [&str; 5] =
                        ["delivered", "overflow", "dead end", "lost", "survivor frac"];
                    for (c, header) in headers.iter().enumerate() {
                        let Some(h) = header.as_str() else { continue };
                        if !RATE_COLUMNS.contains(&h) {
                            continue;
                        }
                        for row in rows {
                            let cell = row.as_array().and_then(|r| r[c].as_str()).ok_or_else(
                                || format!("line {line}: rate cell in {h:?} is not a string"),
                            )?;
                            let value: f64 = cell.parse().map_err(|_| {
                                format!("line {line}: rate cell {cell:?} in {h:?} is not numeric")
                            })?;
                            if !(0.0..=1.0).contains(&value) {
                                return Err(format!(
                                    "line {line}: rate {value} in column {h:?} outside [0, 1]"
                                ));
                            }
                        }
                    }
                }
            }
            "suite" => {
                suites += 1;
                if record.get("suite").and_then(JsonValue::as_str).is_none() {
                    return Err(format!("line {line}: suite record missing \"suite\""));
                }
                if record.get("wall_secs").and_then(JsonValue::as_f64).is_none() {
                    return Err(format!("line {line}: suite record missing \"wall_secs\""));
                }
                for key in ["metrics", "spans"] {
                    if record.get(key).is_none() {
                        return Err(format!("line {line}: suite record missing {key:?}"));
                    }
                }
                if let Some(metrics) = record.get("metrics") {
                    check_hdr_metrics(line, metrics)?;
                }
            }
            "net.timeline" => {
                timelines += 1;
                for key in ["suite", "label"] {
                    if record.get(key).and_then(JsonValue::as_str).is_none() {
                        return Err(format!("line {line}: timeline record missing {key:?}"));
                    }
                }
                if record.get("interval").and_then(JsonValue::as_f64).map(|v| v > 0.0)
                    != Some(true)
                {
                    return Err(format!("line {line}: timeline interval not positive"));
                }
                let headers = record
                    .get("headers")
                    .and_then(JsonValue::as_array)
                    .ok_or_else(|| format!("line {line}: timeline headers is not an array"))?;
                let samples = record
                    .get("samples")
                    .and_then(JsonValue::as_array)
                    .ok_or_else(|| format!("line {line}: timeline samples is not an array"))?;
                let mut last_at = f64::NEG_INFINITY;
                for sample in samples {
                    let sample = sample
                        .as_array()
                        .ok_or_else(|| format!("line {line}: timeline sample is not an array"))?;
                    if sample.len() != headers.len() {
                        return Err(format!(
                            "line {line}: timeline sample has {} fields but {} headers",
                            sample.len(),
                            headers.len()
                        ));
                    }
                    let mut numbers = sample.iter().map(JsonValue::as_f64);
                    let at = numbers
                        .next()
                        .flatten()
                        .ok_or_else(|| format!("line {line}: timeline \"at\" is not numeric"))?;
                    if numbers.any(|v| v.is_none()) {
                        return Err(format!("line {line}: timeline sample has a non-number"));
                    }
                    if at <= last_at {
                        return Err(format!(
                            "line {line}: timeline sample times not strictly increasing \
                             ({at} after {last_at})"
                        ));
                    }
                    last_at = at;
                }
                timeline_samples += samples.len();
            }
            "net.shards" => {
                shard_records += 1;
                if record.get("suite").and_then(JsonValue::as_str).is_none() {
                    return Err(format!("line {line}: net.shards record missing \"suite\""));
                }
                if record
                    .get("threads")
                    .and_then(JsonValue::as_f64)
                    .map(|v| v >= 1.0)
                    != Some(true)
                {
                    return Err(format!(
                        "line {line}: net.shards record missing positive \"threads\""
                    ));
                }
                let shards = record
                    .get("shards")
                    .and_then(JsonValue::as_array)
                    .ok_or_else(|| format!("line {line}: net.shards \"shards\" is not an array"))?;
                if shards.is_empty() {
                    return Err(format!("line {line}: net.shards \"shards\" is empty"));
                }
                for s in shards {
                    if s.as_f64().map(|v| v >= 1.0) != Some(true) {
                        return Err(format!(
                            "line {line}: net.shards entry {s} is not a positive count"
                        ));
                    }
                }
            }
            "report" => {
                reports += 1;
                for key in ["phases", "rss_source"] {
                    if record.get(key).is_none() {
                        return Err(format!("line {line}: report record missing {key:?}"));
                    }
                }
                let source = record
                    .get("rss_source")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("");
                if !RSS_SOURCES.contains(&source) {
                    return Err(format!(
                        "line {line}: report rss_source {source:?} not one of {RSS_SOURCES:?}"
                    ));
                }
                if record.get("phases").and_then(JsonValue::as_array).is_none() {
                    return Err(format!("line {line}: report phases is not an array"));
                }
                if let Some(metrics) = record.get("metrics") {
                    check_hdr_metrics(line, metrics)?;
                }
            }
            "summary" => {
                summaries += 1;
                if let Some(metrics) = record.get("metrics") {
                    check_hdr_metrics(line, metrics)?;
                }
            }
            other => return Err(format!("line {line}: unknown record type {other:?}")),
        }
    }
    if is_v2 {
        if reports != 1 {
            return Err(format!(
                "v2 artifact must have exactly one report record, found {reports}"
            ));
        }
        if records[records.len() - 2].0 != "report" {
            return Err("v2 artifact's report record must immediately precede the summary".into());
        }
    }
    if tables == 0 {
        return Err("artifact has no table records".into());
    }
    if suites == 0 {
        return Err("artifact has no suite records".into());
    }
    if summaries != 1 {
        return Err(format!("expected exactly one summary record, found {summaries}"));
    }

    if last.get("wall_secs").and_then(JsonValue::as_f64).is_none() {
        return Err("summary record missing \"wall_secs\"".into());
    }
    // peak_rss_bytes may legitimately be null off-Linux, but the key must
    // exist; on Linux (the CI platform) it must be a positive number
    let rss = last
        .get("peak_rss_bytes")
        .ok_or("summary record missing \"peak_rss_bytes\"")?;
    if cfg!(target_os = "linux") && rss.as_f64().map(|v| v > 0.0) != Some(true) {
        return Err(format!("summary peak_rss_bytes not positive: {rss}"));
    }
    let counters = last
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .ok_or("summary record missing metrics.counters")?;
    // the full battery must have routed packets; a single-suite artifact
    // may legitimately do no routing (e.g. pure structure measurements)
    let is_battery = records[0]
        .1
        .get("binary")
        .and_then(JsonValue::as_str)
        .map(|b| b == "run_all")
        .unwrap_or(false);
    if is_battery {
        for key in ["route.started", "route.hops"] {
            if counters.get(key).and_then(JsonValue::as_f64).map(|v| v > 0.0) != Some(true) {
                return Err(format!("summary counter {key:?} missing or zero"));
            }
        }
    }
    // a routing-throughput artifact must carry the throughput table with
    // positive rates, and a speedup column anchored at 1.000 for the
    // naive baseline row
    let is_bench_routing = records[0]
        .1
        .get("binary")
        .and_then(JsonValue::as_str)
        .map(|b| b == "bench_routing")
        .unwrap_or(false);
    if is_bench_routing {
        let throughput = records
            .iter()
            .find(|(kind, record)| {
                kind == "table"
                    && record
                        .get("headers")
                        .and_then(JsonValue::as_array)
                        .is_some_and(|h| {
                            h.iter().any(|c| c.as_str() == Some("hops/sec"))
                                && h.iter().any(|c| c.as_str() == Some("variant"))
                        })
            })
            .ok_or("bench_routing artifact has no throughput table")?;
        let headers = throughput.1.get("headers").and_then(JsonValue::as_array);
        let rows = throughput.1.get("rows").and_then(JsonValue::as_array);
        let (Some(headers), Some(rows)) = (headers, rows) else {
            return Err("throughput table malformed".into());
        };
        let column = |name: &str| {
            headers
                .iter()
                .position(|h| h.as_str() == Some(name))
                .ok_or_else(|| format!("throughput table missing column {name:?}"))
        };
        let cell = |row: &JsonValue, c: usize| -> Result<String, String> {
            row.as_array()
                .and_then(|r| r.get(c))
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| "throughput cell is not a string".to_string())
        };
        let numeric = |v: &str| -> Result<f64, String> {
            v.parse()
                .map_err(|_| format!("throughput cell {v:?} is not numeric"))
        };
        for column_name in ["hops/sec", "speedup"] {
            let c = column(column_name)?;
            for row in rows {
                let value = numeric(&cell(row, c)?)?;
                if value <= 0.0 {
                    return Err(format!("throughput {column_name:?} value {value} not positive"));
                }
            }
        }
        let full_scale = records[0].1.get("scale").and_then(JsonValue::as_str) == Some("full");
        // the SoA-index variant is the tentpole: it must be present, and
        // at full scale it must clear the 5x acceptance bound over naive
        let (variant_c, speedup_c) = (column("variant")?, column("speedup")?);
        let mut soa_speedup = None;
        for row in rows {
            if cell(row, variant_c)? == "kernel+soa-index" {
                soa_speedup = Some(numeric(&cell(row, speedup_c)?)?);
            }
        }
        let soa_speedup =
            soa_speedup.ok_or("throughput table has no \"kernel+soa-index\" row")?;
        if full_scale && soa_speedup < 5.0 {
            return Err(format!(
                "kernel+soa-index speedup {soa_speedup} below the 5x acceptance bound"
            ));
        }
        // the thread-scaling table pins the batched path: identical hops
        // at every thread count, a unit baseline row, and (at full scale,
        // for thread counts the host can actually run in parallel) >= 0.7
        // parallel efficiency
        let scaling = records
            .iter()
            .find(|(kind, record)| {
                kind == "table"
                    && record
                        .get("headers")
                        .and_then(JsonValue::as_array)
                        .is_some_and(|h| h.iter().any(|c| c.as_str() == Some("efficiency")))
            })
            .ok_or("bench_routing artifact has no thread-scaling table (no \"efficiency\" column)")?;
        let sheaders = scaling.1.get("headers").and_then(JsonValue::as_array);
        let srows = scaling.1.get("rows").and_then(JsonValue::as_array);
        let (Some(sheaders), Some(srows)) = (sheaders, srows) else {
            return Err("thread-scaling table malformed".into());
        };
        let scolumn = |name: &str| {
            sheaders
                .iter()
                .position(|h| h.as_str() == Some(name))
                .ok_or_else(|| format!("thread-scaling table missing column {name:?}"))
        };
        let scell = |row: &JsonValue, c: usize| -> Result<String, String> {
            row.as_array()
                .and_then(|r| r.get(c))
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| "thread-scaling cell is not a string".to_string())
        };
        let threads_c = scolumn("threads")?;
        let hops_c = scolumn("hops")?;
        let sspeedup_c = scolumn("speedup")?;
        let efficiency_c = scolumn("efficiency")?;
        let cores_c = scolumn("host cores")?;
        if srows.is_empty() {
            return Err("thread-scaling table has no rows".into());
        }
        let reference_hops = scell(&srows[0], hops_c)?;
        for row in srows {
            let hops = scell(row, hops_c)?;
            if hops != reference_hops {
                return Err(format!(
                    "thread-scaling hops {hops} differ from {reference_hops}: the batched path is not thread-count invariant"
                ));
            }
            let threads: f64 = numeric(&scell(row, threads_c)?)?;
            let speedup: f64 = numeric(&scell(row, sspeedup_c)?)?;
            let cores: f64 = numeric(&scell(row, cores_c)?)?;
            if threads == 1.0 && speedup != 1.0 {
                return Err(format!(
                    "thread-scaling baseline row has speedup {speedup}, expected exactly 1.000"
                ));
            }
            if full_scale && threads > 1.0 && threads <= cores {
                let efficiency: f64 = numeric(&scell(row, efficiency_c)?)?;
                if efficiency < 0.7 {
                    return Err(format!(
                        "parallel efficiency {efficiency} at {threads} threads below the 0.7 acceptance bound"
                    ));
                }
            }
        }
        if counters
            .get("route.started")
            .and_then(JsonValue::as_f64)
            .map(|v| v > 0.0)
            != Some(true)
        {
            return Err("bench_routing artifact routed nothing (route.started is zero)".into());
        }
    }

    // an analytics-engine artifact must carry the pair-distance table with
    // positive throughput, and at full scale the batched matrix-workload
    // row must meet the >= 3x acceptance bound over the per-pair baseline
    let is_bench_analytics = records[0]
        .1
        .get("binary")
        .and_then(JsonValue::as_str)
        .map(|b| b == "bench_analytics")
        .unwrap_or(false);
    if is_bench_analytics {
        let throughput = records
            .iter()
            .find(|(kind, record)| {
                kind == "table"
                    && record
                        .get("headers")
                        .and_then(JsonValue::as_array)
                        .is_some_and(|h| h.iter().any(|c| c.as_str() == Some("pairs/sec")))
            })
            .ok_or("bench_analytics artifact has no pair-distance table")?;
        let headers = throughput.1.get("headers").and_then(JsonValue::as_array);
        let rows = throughput.1.get("rows").and_then(JsonValue::as_array);
        let (Some(headers), Some(rows)) = (headers, rows) else {
            return Err("pair-distance table malformed".into());
        };
        let column = |name: &str| {
            headers
                .iter()
                .position(|h| h.as_str() == Some(name))
                .ok_or_else(|| format!("pair-distance table missing column {name:?}"))
        };
        let (workload_c, variant_c) = (column("workload")?, column("variant")?);
        let (rate_c, speedup_c) = (column("pairs/sec")?, column("speedup")?);
        let cell = |row: &JsonValue, c: usize| -> Result<String, String> {
            row.as_array()
                .and_then(|r| r.get(c))
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| "pair-distance cell is not a string".to_string())
        };
        let mut matrix_batched_speedup = None;
        for row in rows {
            for c in [rate_c, speedup_c] {
                let v = cell(row, c)?;
                let value: f64 = v
                    .parse()
                    .map_err(|_| format!("pair-distance cell {v:?} is not numeric"))?;
                if value <= 0.0 {
                    return Err(format!("pair-distance value {value} not positive"));
                }
            }
            if cell(row, workload_c)?.starts_with("matrix") && cell(row, variant_c)? == "batched" {
                matrix_batched_speedup = cell(row, speedup_c)?.parse::<f64>().ok();
            }
        }
        let speedup =
            matrix_batched_speedup.ok_or("pair-distance table has no batched matrix row")?;
        let full_scale = records[0].1.get("scale").and_then(JsonValue::as_str) == Some("full");
        if full_scale && speedup < 3.0 {
            return Err(format!(
                "batched matrix-workload speedup {speedup} below the 3x acceptance bound"
            ));
        }
    }

    // a store-benchmark artifact must carry the compression table; every
    // row must compress below the raw CSR footprint, and at full scale the
    // mmap reload must clear the 10x acceptance bound over resampling
    let is_bench_store = records[0]
        .1
        .get("binary")
        .and_then(JsonValue::as_str)
        .map(|b| b == "bench_store")
        .unwrap_or(false);
    if is_bench_store {
        let store_table = records
            .iter()
            .find(|(kind, record)| {
                kind == "table"
                    && record
                        .get("headers")
                        .and_then(JsonValue::as_array)
                        .is_some_and(|h| h.iter().any(|c| c.as_str() == Some("swg B/edge")))
            })
            .ok_or("bench_store artifact has no compression table")?;
        let headers = store_table.1.get("headers").and_then(JsonValue::as_array);
        let rows = store_table.1.get("rows").and_then(JsonValue::as_array);
        let (Some(headers), Some(rows)) = (headers, rows) else {
            return Err("store compression table malformed".into());
        };
        if rows.is_empty() {
            return Err("store compression table has no rows".into());
        }
        let column = |name: &str| {
            headers
                .iter()
                .position(|h| h.as_str() == Some(name))
                .ok_or_else(|| format!("store table missing column {name:?}"))
        };
        let (raw_c, swg_c) = (column("raw B/edge")?, column("swg B/edge")?);
        let speedup_c = column("speedup")?;
        let number = |row: &JsonValue, c: usize| -> Result<f64, String> {
            let cell = row
                .as_array()
                .and_then(|r| r.get(c))
                .and_then(JsonValue::as_str)
                .ok_or_else(|| "store table cell is not a string".to_string())?;
            cell.parse()
                .map_err(|_| format!("store table cell {cell:?} is not numeric"))
        };
        let full_scale = records[0].1.get("scale").and_then(JsonValue::as_str) == Some("full");
        for row in rows {
            let (raw, swg) = (number(row, raw_c)?, number(row, swg_c)?);
            if !(swg > 0.0 && raw > 0.0 && swg < raw) {
                return Err(format!(
                    "store row compresses to {swg} B/edge, not below the raw {raw} B/edge"
                ));
            }
            let speedup = number(row, speedup_c)?;
            if speedup <= 0.0 {
                return Err(format!("store reload speedup {speedup} not positive"));
            }
            if full_scale && speedup < 10.0 {
                return Err(format!(
                    "store reload speedup {speedup} below the 10x acceptance bound"
                ));
            }
        }

        // the decode-free routing comparison must be present; every variant
        // must route, at full scale the mapped row must clear the
        // 0.5x-of-decoded throughput bound, and the sharded row must have
        // actually handed routes across shard boundaries
        let routing_table = records
            .iter()
            .find(|(kind, record)| {
                kind == "table"
                    && record
                        .get("headers")
                        .and_then(JsonValue::as_array)
                        .is_some_and(|h| h.iter().any(|c| c.as_str() == Some("vs decoded")))
            })
            .ok_or("bench_store artifact has no mapped-vs-decoded routing table")?;
        let headers = routing_table.1.get("headers").and_then(JsonValue::as_array);
        let rows = routing_table.1.get("rows").and_then(JsonValue::as_array);
        let (Some(headers), Some(rows)) = (headers, rows) else {
            return Err("mapped-vs-decoded routing table malformed".into());
        };
        let column = |name: &str| {
            headers
                .iter()
                .position(|h| h.as_str() == Some(name))
                .ok_or_else(|| format!("routing table missing column {name:?}"))
        };
        let (variant_c, frac_c) = (column("variant")?, column("vs decoded")?);
        let (success_c, handoffs_c) = (column("success rate")?, column("handoffs")?);
        let cell = |row: &JsonValue, c: usize| -> Result<String, String> {
            row.as_array()
                .and_then(|r| r.get(c))
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| "routing table cell is not a string".to_string())
        };
        let number = |row: &JsonValue, c: usize| -> Result<f64, String> {
            let cell = cell(row, c)?;
            cell.parse()
                .map_err(|_| format!("routing table cell {cell:?} is not numeric"))
        };
        let (mut saw_mapped, mut saw_sharded) = (false, false);
        for row in rows {
            let variant = cell(row, variant_c)?;
            let frac = number(row, frac_c)?;
            if number(row, success_c)? <= 0.0 {
                return Err(format!("routing variant {variant:?} delivered nothing"));
            }
            if frac <= 0.0 {
                return Err(format!("routing variant {variant:?} throughput not positive"));
            }
            if variant == "mapped" {
                saw_mapped = true;
                if full_scale && frac < 0.5 {
                    return Err(format!(
                        "mapped routing at {frac}x decoded, below the 0.5x acceptance bound"
                    ));
                }
            }
            if variant.starts_with("sharded") {
                saw_sharded = true;
                if full_scale && number(row, handoffs_c)? <= 0.0 {
                    return Err("sharded routing never crossed a shard boundary".into());
                }
            }
        }
        if !(saw_mapped && saw_sharded) {
            return Err("routing table is missing the mapped or sharded variant".into());
        }

        // the out-of-core ladder must keep every rung's streamed peak RSS
        // under the O(vertices) ceiling, and at full scale the streamed
        // sampler must peak at no more than 35% of the in-RAM sampler
        let ladder_table = records
            .iter()
            .find(|(kind, record)| {
                kind == "table"
                    && record
                        .get("headers")
                        .and_then(JsonValue::as_array)
                        .is_some_and(|h| h.iter().any(|c| c.as_str() == Some("within ceiling")))
            })
            .ok_or("bench_store artifact has no out-of-core sampling ladder")?;
        let headers = ladder_table.1.get("headers").and_then(JsonValue::as_array);
        let rows = ladder_table.1.get("rows").and_then(JsonValue::as_array);
        let (Some(headers), Some(rows)) = (headers, rows) else {
            return Err("out-of-core ladder table malformed".into());
        };
        if rows.is_empty() {
            return Err("out-of-core ladder table has no rows".into());
        }
        let column = |name: &str| {
            headers
                .iter()
                .position(|h| h.as_str() == Some(name))
                .ok_or_else(|| format!("ladder table missing column {name:?}"))
        };
        let (n_c, within_c, frac_c) = (
            column("vertices")?,
            column("within ceiling")?,
            column("rss frac")?,
        );
        for row in rows {
            let n = cell(row, n_c)?;
            if cell(row, within_c)? != "true" {
                return Err(format!(
                    "streamed sampling at n={n} exceeded its peak-RSS ceiling"
                ));
            }
            let frac = number(row, frac_c)?;
            if full_scale && frac > 0.35 {
                return Err(format!(
                    "streamed sampling at n={n} peaked at {frac} of in-RAM RSS, \
                     above the 0.35 acceptance bound"
                ));
            }
        }
    }

    // any artifact that ran a traffic suite must carry the simulator's
    // delivery/drop counters, with at least one packet injected
    let ran_traffic = records.iter().any(|(kind, record)| {
        kind == "suite"
            && record
                .get("suite")
                .and_then(JsonValue::as_str)
                .is_some_and(|s| s.contains("traffic"))
    });
    if ran_traffic {
        for key in [
            "net.injected",
            "net.delivered",
            "net.dead_end",
            "net.expired",
            "net.lost",
            "net.overflow",
        ] {
            if counters.get(key).and_then(JsonValue::as_f64).is_none() {
                return Err(format!(
                    "summary counter {key:?} missing after a traffic suite"
                ));
            }
        }
        if counters
            .get("net.injected")
            .and_then(JsonValue::as_f64)
            .map(|v| v > 0.0)
            != Some(true)
        {
            return Err("traffic suite ran but net.injected is zero".into());
        }
    }

    // a v2 artifact that ran the E15 experiment must carry its congestion
    // timelines with at least one sample (bench_traffic records no
    // timelines — it measures wall-clock, not congestion)
    let ran_e15 = records.iter().any(|(kind, record)| {
        kind == "suite"
            && record
                .get("suite")
                .and_then(JsonValue::as_str)
                .is_some_and(|s| s.contains("E15"))
    });
    if is_v2 && ran_e15 {
        if timelines == 0 {
            return Err("E15 traffic suite ran but artifact has no net.timeline records".into());
        }
        if timeline_samples == 0 {
            return Err("net.timeline records carry no samples".into());
        }
    }

    // a traffic-throughput artifact must carry the packets/sec table with
    // positive rates
    let is_bench_traffic = records[0]
        .1
        .get("binary")
        .and_then(JsonValue::as_str)
        .map(|b| b == "bench_traffic")
        .unwrap_or(false);
    if is_bench_traffic {
        let throughput = records
            .iter()
            .find(|(kind, record)| {
                kind == "table"
                    && record
                        .get("headers")
                        .and_then(JsonValue::as_array)
                        .is_some_and(|h| h.iter().any(|c| c.as_str() == Some("packets/sec")))
            })
            .ok_or("bench_traffic artifact has no throughput table")?;
        let headers = throughput.1.get("headers").and_then(JsonValue::as_array);
        let rows = throughput.1.get("rows").and_then(JsonValue::as_array);
        let (Some(headers), Some(rows)) = (headers, rows) else {
            return Err("traffic throughput table malformed".into());
        };
        let c = headers
            .iter()
            .position(|h| h.as_str() == Some("packets/sec"))
            .expect("column located above");
        if rows.is_empty() {
            return Err("traffic throughput table has no rows".into());
        }
        for row in rows {
            let cell = row
                .as_array()
                .and_then(|r| r[c].as_str())
                .ok_or("traffic throughput cell is not a string")?;
            let value: f64 = cell
                .parse()
                .map_err(|_| format!("traffic throughput cell {cell:?} is not numeric"))?;
            if value <= 0.0 {
                return Err(format!("traffic throughput {value} not positive"));
            }
        }
        // sharded-engine artifacts (those carrying a "shards" column)
        // must declare their shard counts in a net.shards record, use
        // positive counts, and — the determinism gate — report the SAME
        // delivered fraction for one scenario at every shard count
        if let Some(shards_c) = headers.iter().position(|h| h.as_str() == Some("shards")) {
            if shard_records == 0 {
                return Err("sharded bench_traffic artifact has no net.shards record".into());
            }
            let column = |name: &str| {
                headers
                    .iter()
                    .position(|h| h.as_str() == Some(name))
                    .ok_or_else(|| format!("traffic table missing column {name:?}"))
            };
            let (scenario_c, policy_c) = (column("scenario")?, column("policy")?);
            let delivered_c = column("delivered")?;
            let cell = |row: &JsonValue, c: usize| -> Result<String, String> {
                row.as_array()
                    .and_then(|r| r.get(c))
                    .and_then(JsonValue::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| "traffic table cell is not a string".to_string())
            };
            let mut delivered_by_key: Vec<((String, String), String)> = Vec::new();
            for row in rows {
                let shards: f64 = cell(row, shards_c)?
                    .parse()
                    .map_err(|_| "traffic shards cell is not numeric".to_string())?;
                if shards < 1.0 {
                    return Err(format!("traffic shard count {shards} not positive"));
                }
                let key = (cell(row, scenario_c)?, cell(row, policy_c)?);
                let delivered = cell(row, delivered_c)?;
                match delivered_by_key.iter().find(|(k, _)| *k == key) {
                    Some((_, first)) if *first != delivered => {
                        return Err(format!(
                            "scenario {}/{} delivered {} at one shard count but {} at \
                             another — the sharded engine broke determinism",
                            key.0, key.1, first, delivered
                        ));
                    }
                    Some(_) => {}
                    None => delivered_by_key.push((key, delivered)),
                }
            }
        }
    }

    Ok(format!(
        "ok: {} records ({} tables, {} suites, {} timelines)",
        records.len(),
        tables,
        suites,
        timelines
    ))
}

fn main() -> ExitCode {
    let Some(path) = std::env::args().nth(1) else {
        eprintln!("usage: artifact_check <artifact.jsonl>");
        return ExitCode::FAILURE;
    };
    let contents = match std::fs::read_to_string(&path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match check(&contents) {
        Ok(report) => {
            println!("{path}: {report}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("error: {path}: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::check;

    const META_V1: &str = r#"{"type":"meta","binary":"exp_success","scale":"quick","threads":1}"#;
    const META_V2: &str = r#"{"type":"meta","binary":"exp_success","scale":"quick","threads":1,"rss_source":"procfs"}"#;
    const TABLE: &str =
        r#"{"type":"table","suite":"E1","title":"T","headers":["n"],"rows":[["1"]]}"#;
    const HDR: &str = r#"{"route.hops":{"count":2,"sum":10,"min":4,"max":6,"mean":5.0,"quantiles":{"p50":4,"p90":6,"p99":6,"p999":6},"buckets":[[4,1],[6,1]]}}"#;
    const LOG2: &str = r#"{"route.hops_per_route":{"count":2,"sum":5,"max":4,"mean":2.5,"buckets":[[1,1],[4,1]]}}"#;

    fn suite(metrics: &str) -> String {
        format!(
            r#"{{"type":"suite","suite":"E1","wall_secs":0.1,"metrics":{metrics},"spans":{{}}}}"#
        )
    }

    fn summary(metrics: &str) -> String {
        format!(
            r#"{{"type":"summary","wall_secs":0.2,"peak_rss_bytes":1048576,"metrics":{metrics}}}"#
        )
    }

    fn report(extra: &str) -> String {
        format!(r#"{{"type":"report","phases":[],{extra}"rss_source":"procfs"}}"#)
    }

    fn artifact(lines: &[&str]) -> String {
        lines.join("\n")
    }

    #[test]
    fn new_schema_v2_artifact_passes() {
        let metrics = format!(r#"{{"counters":{{"route.started":1}},"hdr":{HDR}}}"#);
        let text = artifact(&[
            META_V2,
            TABLE,
            &suite(&metrics),
            &report(""),
            &summary(&metrics),
        ]);
        check(&text).expect("report without metrics, summary with {counters, hdr}");
    }

    #[test]
    fn committed_baseline_shapes_pass() {
        // v1: a log2 histograms block and no report record
        let v1 = format!(r#"{{"counters":{{"route.started":1}},"histograms":{LOG2}}}"#);
        let text = artifact(&[META_V1, TABLE, &suite(&v1), &summary(&v1)]);
        check(&text).expect("v1 baseline shape");
        // v2 before the final snapshot moved out of the report record
        let v2 = format!(r#"{{"counters":{{"route.started":1}},"histograms":{LOG2},"hdr":{HDR}}}"#);
        let old_report = report(&format!(r#""metrics":{v2},"peak_rss_bytes":1048576,"#));
        let text = artifact(&[META_V2, TABLE, &suite(&v2), &old_report, &summary(&v2)]);
        check(&text).expect("v2 baseline shape with report.metrics");
    }

    #[test]
    fn summary_without_counters_fails() {
        let metrics = r#"{"counters":{},"hdr":{}}"#;
        let text = artifact(&[
            META_V2,
            TABLE,
            &suite(metrics),
            &report(""),
            &summary(r#"{"hdr":{}}"#),
        ]);
        let err = check(&text).unwrap_err();
        assert!(err.contains("metrics.counters"), "{err}");
    }

    #[test]
    fn v2_report_must_precede_summary() {
        let metrics = r#"{"counters":{},"hdr":{}}"#;
        let text = artifact(&[
            META_V2,
            TABLE,
            &report(""),
            &suite(metrics),
            &summary(metrics),
        ]);
        let err = check(&text).unwrap_err();
        assert!(err.contains("immediately precede"), "{err}");
    }

    #[test]
    fn non_monotone_hdr_quantiles_fail() {
        let bad = HDR.replace(r#""p90":6"#, r#""p90":3"#);
        let metrics = format!(r#"{{"counters":{{}},"hdr":{bad}}}"#);
        let text = artifact(&[
            META_V2,
            TABLE,
            &suite(r#"{"counters":{},"hdr":{}}"#),
            &report(""),
            &summary(&metrics),
        ]);
        let err = check(&text).unwrap_err();
        assert!(err.contains("not monotone"), "{err}");
    }
}

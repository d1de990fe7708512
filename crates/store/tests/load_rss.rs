//! Regression pins for the peak RSS of a full load: loading through the
//! buffered fallback must not hold more than one copy of the file bytes,
//! and a mapped load must hold no more than the file bytes, the decoded
//! CSR and a fixed slack — so huge-page advice on the decoded arrays can
//! never round them up.
//!
//! `VmHWM` is a process-wide high-water mark, so each load strategy runs in
//! its own subprocess (this test binary re-executed with `--exact` on the
//! gated child test below). The assertion is differential: the buffered
//! child's peak RSS may exceed the mmap child's by allocator noise only —
//! both end up with one resident copy of the file (heap buffer vs touched
//! mapping) plus the decoded CSR — whereas the old `read` + copy-into-owned
//! path held two and would trip the gate by a full file size.

use std::process::Command;

use smallworld_graph::Graph;
use smallworld_store::{write_graph_swg, CompressedCsr, GraphStore};

const MODE_VAR: &str = "SMALLWORLD_LOAD_RSS_MODE";
const PATH_VAR: &str = "SMALLWORLD_LOAD_RSS_PATH";

/// Peak resident set of this process, from `/proc/self/status` (`VmHWM`),
/// or `None` where procfs is unavailable.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// A deterministic graph big enough that an extra copy of the file bytes
/// dwarfs allocator noise, cheap enough to build in a debug test run:
/// pseudo-random neighbor ids give multi-byte deltas, so the store stays
/// several MiB.
fn large_graph() -> Graph {
    let n: u32 = 100_000;
    let degree: u32 = 40;
    let edges: std::collections::BTreeSet<(u32, u32)> = (0..n)
        .flat_map(|v| {
            (1..=degree).map(move |k| {
                let w = (v.wrapping_mul(2_654_435_761).wrapping_add(k * 40_503)) % n;
                (v.min(w), v.max(w))
            })
        })
        .filter(|&(a, b)| a != b)
        .collect();
    Graph::from_edges(n as usize, edges).expect("sanitized edges")
}

/// The subprocess body: gated on [`MODE_VAR`], a no-op in normal runs.
/// Loads the store named by [`PATH_VAR`] with the requested strategy and
/// prints its peak RSS for the parent to parse.
#[test]
fn load_rss_child() {
    let Ok(mode) = std::env::var(MODE_VAR) else {
        return;
    };
    let path = std::env::var(PATH_VAR).expect("parent sets the store path");
    let store = match mode.as_str() {
        "buffered" => GraphStore::open_buffered(&path).expect("store opens buffered"),
        "mapped" => GraphStore::open(&path).expect("store opens mapped"),
        other => panic!("unknown load mode {other:?}"),
    };
    let graph = store.load_graph().expect("store decodes");
    assert!(graph.edge_count() > 0, "decoded graph must not be empty");
    println!("PEAK_RSS_BYTES={}", peak_rss_bytes().unwrap_or(0));
}

/// What a mapped load may hold beyond the file bytes and the decoded CSR:
/// the test binary and its allocator, 2.8–3.0 MB on Linux x86_64. What is
/// left, about 1.2 MB, is less than a huge page, so a decoded array whose
/// huge pages reached past its end would trip the pin whenever they
/// rounded it up by more than that.
const MAPPED_SLACK: u64 = 4 << 20;

fn run_child(mode: &str, path: &std::path::Path) -> u64 {
    let exe = std::env::current_exe().expect("own executable path");
    let out = Command::new(exe)
        .args(["--exact", "load_rss_child", "--nocapture"])
        .env(MODE_VAR, mode)
        .env(PATH_VAR, path)
        .output()
        .expect("child spawns");
    assert!(
        out.status.success(),
        "{mode} child failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // libtest writes its own "test ... " prefix on the same line, so look
    // for the marker anywhere
    stdout
        .lines()
        .find_map(|l| l.split("PEAK_RSS_BYTES=").nth(1))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("{mode} child printed no peak:\n{stdout}"))
}

#[test]
fn buffered_load_holds_a_single_copy_of_the_file() {
    if std::env::var(MODE_VAR).is_ok() {
        // we ARE a child: load_rss_child does the work in this process
        return;
    }
    if peak_rss_bytes().is_none() {
        eprintln!("skipping: no VmHWM on this platform");
        return;
    }
    let graph = large_graph();
    let path = std::env::temp_dir().join(format!(
        "smallworld-store-load-rss-{}.swg",
        std::process::id()
    ));
    write_graph_swg(&graph, &path, 1).expect("writable temp dir");
    let file_bytes = std::fs::metadata(&path).expect("own file").len();
    assert!(
        file_bytes > 4 * 1024 * 1024,
        "store must be large enough to dominate allocator noise, got {file_bytes} bytes"
    );

    let mapped_peak = run_child("mapped", &path);
    let buffered_peak = run_child("buffered", &path);
    std::fs::remove_file(&path).ok();
    if mapped_peak == 0 || buffered_peak == 0 {
        eprintln!("skipping: children could not report VmHWM");
        return;
    }

    // the mapped load: the touched mapping, the decoded CSR, and the test
    // process itself within a fixed slack
    let raw = CompressedCsr::from_graph(&graph).raw_byte_len() as u64;
    let mapped_bound = file_bytes + raw + MAPPED_SLACK;
    assert!(
        mapped_peak <= mapped_bound,
        "mapped load peaked at {mapped_peak} bytes, above the file's {file_bytes} \
         plus the decoded CSR's {raw} plus {MAPPED_SLACK} of slack: the decoded \
         arrays hold more than their size"
    );

    let slack = file_bytes * 35 / 100 + 3 * 1024 * 1024;
    let excess = buffered_peak.saturating_sub(mapped_peak);
    assert!(
        excess <= slack,
        "buffered load peaked {excess} bytes above the mmap load \
         (file is {file_bytes} bytes, allowance {slack}): a second copy of \
         the file bytes is being held"
    );
}

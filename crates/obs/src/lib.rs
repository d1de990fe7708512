//! Std-only observability for the smallworld workspace.
//!
//! Everything here is built on the standard library alone — the workspace
//! has no crates.io access, so there is no tracing/metrics/serde stack to
//! lean on. Four pieces:
//!
//! * [`metrics`] — a global, thread-sharded registry of atomic counters
//!   and HDR histograms, merged only at report time.
//! * [`hdr`] — the registry's histogram type: log-linear (HDR-style)
//!   buckets with ~1% relative-error quantiles (p50/p90/p99/p999),
//!   sharded recording, and a deterministic merge.
//! * [`span`] — scoped [`Span`] guards with monotonic timing,
//!   hierarchical (path-keyed) aggregation, cross-thread context
//!   adoption ([`span::adopt_parent`]), a tree view ([`span::tree`]),
//!   and folded-stack output ([`span::to_folded`]).
//! * [`sink`] + [`json`] — a hand-rolled JSON tree and the JSONL artifact
//!   writer the experiment binaries use for machine-readable results
//!   (tables, per-suite timings, metric snapshots, run reports, peak RSS
//!   from [`rss::peak_rss`]; [`rss::minor_faults`] counts page faults).
//!
//! # Examples
//!
//! ```
//! use smallworld_obs::{metrics, Span};
//!
//! {
//!     let _span = Span::enter("doc-example");
//!     metrics::counter("doc.example").add(3);
//! }
//! assert!(metrics::Registry::global().snapshot().counters["doc.example"] >= 3);
//! assert!(smallworld_obs::span::snapshot().contains_key("doc-example"));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod hdr;
pub mod json;
pub mod metrics;
pub mod rss;
pub mod sink;
pub mod span;

pub use hdr::{HdrHistogram, HdrSnapshot};
pub use json::JsonValue;
pub use metrics::{Counter, MetricsSnapshot, Registry};
pub use rss::{minor_faults, peak_rss, peak_rss_bytes, RssSource};
pub use sink::JsonlSink;
pub use span::{Span, SpanNode, SpanStats};

//! Experiment harness reproducing every table and figure of the paper.
//!
//! Each experiment of `DESIGN.md`'s index (E1–E14) lives in
//! [`experiments`] as a `run(scale)` function returning the tables it
//! prints; the `exp_*` binaries are thin wrappers, and `run_all` executes
//! the entire battery. [`harness`] provides deterministic seeding, a
//! `std::thread`-based parallel Monte-Carlo runner (no extra dependencies)
//! and the routing-trial runners — sequential, pooled over a decoded graph,
//! and pooled over adjacency views such as a mapped `.swg` store — which
//! all share one trial body.
//!
//! Scale is controlled by the `SMALLWORLD_SCALE` environment variable
//! (`quick` or `full`) or a `--quick`/`--full` CLI flag; `quick` keeps every
//! experiment under a few seconds for CI, `full` reproduces the numbers
//! recorded in `EXPERIMENTS.md`.
//!
//! Passing `--json <path>` (or setting `SMALLWORLD_JSON`) to `run_all` or
//! any `exp_*` binary additionally writes a machine-readable JSONL
//! artifact — tables, per-suite timings, routing metrics, spans, and peak
//! RSS — via [`artifact::Artifact`].

pub mod artifact;
pub mod experiments;
pub mod harness;

pub use artifact::{push_record, Artifact};
pub use harness::{
    draw_endpoints, parallel_map, split_seed, RoutingAggregate, Scale, TrialBatch, TrialOutcome,
};

//! Lightweight statistics for the experiment harness.
//!
//! Everything the experiments need to turn Monte-Carlo runs into the
//! paper-style tables of `EXPERIMENTS.md`, with no external dependencies:
//!
//! * [`Summary`] — mean / variance / standard error / 95% CI of a sample,
//! * [`Proportion`] — success rates with Wilson confidence intervals,
//! * [`LinearFit`] — least-squares fits (e.g. slope of failure-rate decay),
//! * [`hill_estimator`] — maximum-likelihood power-law exponents,
//! * [`Table`] — aligned plain-text table rendering.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod powerlaw;
pub mod regression;
pub mod summary;
pub mod table;

pub use powerlaw::hill_estimator;
pub use regression::LinearFit;
pub use summary::{quantile, Proportion, Summary};
pub use table::Table;

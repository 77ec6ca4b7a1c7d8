//! Benchmark harness regenerating every table and figure of the TicTac
//! paper's evaluation (§6) on the simulated substrate.
//!
//! The `repro` binary drives [`experiments`]; each experiment returns a
//! plain-text report with the same rows/series as the corresponding table
//! or figure. See `EXPERIMENTS.md` at the repository root for
//! paper-vs-measured comparisons.

pub mod experiments;
pub mod format;

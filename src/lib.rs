//! TicTac — communication scheduling for distributed deep learning.
//!
//! This crate is the top-level façade of the TicTac reproduction workspace.
//! It re-exports the high-level API from [`tictac_core`]; the substrate
//! crates (`tictac-graph`, `tictac-sim`, …) can be used directly for
//! lower-level experiments.
//!
//! See the repository `README.md` for a tour and `DESIGN.md` for the system
//! inventory.

#![forbid(unsafe_code)]

pub use tictac_core::*;

/// The README's Rust examples, compiled and run as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;

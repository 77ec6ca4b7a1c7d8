//! Virtual time and time oracles for the TicTac reproduction.
//!
//! The scheduling algorithms of the paper consume a *time oracle*
//! `Time(op)` — a prediction of each op's execution time assuming a
//! dedicated resource (§3.1). This crate provides:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution virtual time used
//!   by the discrete-event simulator.
//! * [`TimeOracle`] — the oracle trait.
//! * [`GeneralOracle`] — the *general time oracle* of Equation 5 (TIC):
//!   every `recv` costs one unit, everything else is free.
//! * [`CostOracle`] — a platform cost model translating op annotations
//!   (flops, bytes) into durations using calibrated hardware constants
//!   ([`Platform`]); this substitutes for measuring on the paper's Azure
//!   GPU (envG) and 1 GbE CPU (envC) testbeds.
//! * [`MeasuredProfile`] — a profile of measured durations (the paper's
//!   tracing-based oracle: minimum of 5 measured runs per op, §5).
//! * [`NoiseModel`] — multiplicative log-normal runtime noise plus
//!   occasional per-worker slowdowns, modelling the system-level variance
//!   the paper observes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod noise;
mod oracle;
mod platform;
mod retry;
mod time;

pub use noise::NoiseModel;
pub use oracle::{CostOracle, GeneralOracle, MeasuredProfile, TimeOracle};
pub use platform::Platform;
pub use retry::RetryPolicy;
pub use time::{SimDuration, SimTime, HORIZON_NS};

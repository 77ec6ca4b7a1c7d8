//! Statistics utilities for the TicTac evaluation harness.
//!
//! Small, dependency-free implementations of the analysis tools the paper's
//! figures need: summary statistics, percentiles and CDFs (Fig. 12b),
//! and ordinary least squares with `R²` (the regression of Fig. 12a).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cdf;
mod ols;
mod summary;

pub use cdf::Cdf;
pub use ols::{ols, OlsFit};
pub use summary::{percentile, Summary};

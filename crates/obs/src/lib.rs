//! Observability for the TicTac reproduction: a metrics registry, a
//! Perfetto/Chrome `trace_event` exporter, and trace-derived analyzers.
//!
//! TicTac's argument is entirely about *when* transfers happen relative to
//! compute (PAPER.md §3–4). This crate turns the raw [`ExecutionTrace`]
//! produced by the simulator into quantities one can inspect:
//!
//! - [`registry`] — counters, gauges, fixed-bucket histograms, and
//!   monotonic timers behind zero-cost-when-disabled handles. The sim
//!   engine, the schedulers, and the training session register into a
//!   shared [`Registry`]; with the registry disabled, the handles hold no
//!   allocation and the instrumented code paths are byte-identical in
//!   behaviour (the golden-trace fingerprints pin this).
//! - [`perfetto`] — renders a trace as Chrome `trace_event` JSON: one lane
//!   per device compute unit and per channel, compute/transfer slices,
//!   fault events as instants, and degraded-barrier deferrals as flow
//!   arrows. Open the output in <https://ui.perfetto.dev>.
//! - [`analyze`] — the derived reports: per-channel busy/idle and
//!   comm/compute overlap ([`analyze::overlap_report`]), the paper's
//!   scheduling-efficiency metric computed from *observed* durations
//!   ([`analyze::realized_efficiency`]), and a priority-inversion detector
//!   ([`analyze::priority_inversions`]) counting transfers that started
//!   while a higher-priority transfer was already runnable on the same
//!   channel.
//! - [`json`] — the workspace's hand-rolled JSON value/parser/writer
//!   (the build environment vendors no JSON crate), shared with the
//!   benchmark (`benchmark/`); the run store (`tictac-store`) builds its
//!   record codec from the same lexing primitives.
//!
//! Dependency discipline: this crate sees only `graph`, `timing`, and
//! `trace`. The schedulers and the simulator depend on *it*, so the
//! analyzers take plain closures (e.g. a priority function) instead of
//! scheduler types.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod json;
pub mod perfetto;
pub mod registry;

pub use analyze::{
    overlap_report, priority_inversions, realized_efficiency, ChannelUsage, DeviceUsage,
    InversionRecord, InversionReport, OverlapReport, RealizedEfficiency,
};
pub use json::{parse_json, quote, render_json, render_json_pretty, Json};
pub use perfetto::{perfetto_json, validate_perfetto, PerfettoStats};
pub use registry::{
    BucketHistogram, Counter, Gauge, HistogramStats, HistogramTally, MetricValue, Registry,
    Snapshot, Timer, TimerGuard, TimerStats,
};

use tictac_trace::ExecutionTrace;

/// Convenience re-export target so dependents can name the trace type the
/// analyzers and exporter consume without also importing `tictac-trace`.
pub type Trace = ExecutionTrace;

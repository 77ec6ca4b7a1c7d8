//! Observability for the TicTac reproduction: a metrics registry, a
//! Perfetto/Chrome `trace_event` exporter, and trace-derived analyzers.
//!
//! TicTac's argument is entirely about *when* transfers happen relative to
//! compute (PAPER.md §3–4). This crate turns the raw [`ExecutionTrace`]
//! produced by the simulator into quantities one can inspect:
//!
//! - [`registry`] — counters, gauges, fixed-bucket histograms, and
//!   monotonic timers behind zero-cost-when-disabled handles. The
//!   schedulers and the training session register into a shared
//!   [`Registry`], and the simulator's metrics are added to it from each
//!   run's trace ([`analyze::sim_metrics`]): counters and gauges from one
//!   linear pass, no histogram. With the registry disabled, the handles
//!   hold no allocation and nothing is derived.
//! - [`perfetto`] — renders a trace as Chrome `trace_event` JSON: one lane
//!   per device compute unit and per channel, compute/transfer slices,
//!   fault events as instants, and degraded-barrier deferrals as flow
//!   arrows. Open the output in <https://ui.perfetto.dev>.
//! - [`analyze`] — the derived reports: per-channel busy/idle and
//!   comm/compute overlap ([`analyze::overlap_report`]), a
//!   priority-inversion detector
//!   ([`analyze::priority_inversions`]) counting transfers that started
//!   while a higher-priority transfer was already runnable on the same
//!   channel, and the simulator's `sim.*` metrics of one run (per channel
//!   and device busy time, bytes and counts, channel idle time).
//! - [`json`] — the workspace's hand-rolled JSON value/parser/writer
//!   (the build environment vendors no JSON crate), shared with the
//!   benchmark (`benchmark/`); the run store (`tictac-store`) builds its
//!   record codec from the same lexing primitives.
//!
//! Dependency discipline: this crate sees only `graph` and `trace`. The
//! schedulers depend on *it*, so the analyzers take plain closures (e.g.
//! a priority function) instead of scheduler types.
//!
//! [`ExecutionTrace`]: tictac_trace::ExecutionTrace

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod json;
pub mod perfetto;
pub mod registry;

pub use analyze::{
    overlap_report, priority_inversions, sim_metrics, ChannelUsage, DeviceUsage, InversionRecord,
    InversionReport, OverlapReport,
};
pub use json::{parse_json, render_json, render_json_pretty, Json};
pub use perfetto::{perfetto_json, validate_perfetto, PerfettoStats};
pub use registry::{
    BucketHistogram, Counter, Gauge, HistogramStats, MetricValue, Registry, Snapshot, Timer,
    TimerGuard, TimerStats,
};

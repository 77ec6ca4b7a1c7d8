//! `tictac-store` — the versioned, append-only run store and its
//! cross-run analytics.
//!
//! The reproduction's experiments used to print their evidence into flat
//! `results/*.txt` files and forget it; this crate is where observations
//! go to *accumulate*. Every `Session` and `repro` experiment can emit a
//! schema-versioned [`RunRecord`] — the run's identity (model fingerprint, cluster shape, scheduler/backend, seed,
//! fault-spec fingerprint, provenance) joined with its observed evidence
//! (per-iteration makespans, realized efficiency, inversion counts,
//! fault counters, the metrics snapshot) — appended as one strict JSONL
//! line to a [`RunStore`].
//!
//! Three design rules keep the corpus trustworthy:
//!
//! 1. **Strict schema** ([`record`]): canonical field order, exact key
//!    sets, version tag first; decoding anything else is an error, and
//!    `encode(decode(x)) == x` byte-for-byte.
//! 2. **The sink seam** ([`RunSink`]): producers write through a trait,
//!    so recording is opt-in (a process-global store armed by
//!    `TICTAC_RUN_STORE` or `--store`) and tests capture records in
//!    memory without touching disk.
//! 3. **Determinism-aware analytics** ([`query`]): diffs and the
//!    [`regress`] gate compare virtual-time observations, which are
//!    machine-independent on the sim backend — a corpus committed from
//!    one machine gates CI on another. Threaded-backend sessions, which
//!    observe wall-clock time, are skipped.
//!
//! Dependency discipline: this crate sees only `tictac-obs` (the JSON
//! lexing and escaping primitives its codec is built from, and the
//! metrics `Snapshot`) and `tictac-trace`
//! ([`FaultCounters`](tictac_trace::FaultCounters)). `tictac-core`
//! depends on *it*, so records carry scheduler/backend names as plain
//! strings and fingerprints as `u64`s computed by the producer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod query;
pub mod record;
pub mod store;

pub use query::{
    diff_records, group_key, regress, GroupVerdict, MetricDelta, RegressPolicy, RegressReport,
    RunDiff, RunFilter, SessionSummary, Verdict,
};
pub use record::{IterationEvidence, Payload, ReportEvidence, RunRecord, SessionEvidence, SCHEMA};
pub use store::{
    arm_global_store, global_store, resolve_store_path, set_global_store, MemorySink, RunSink,
    RunStore,
};

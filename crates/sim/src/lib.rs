//! Discrete-event simulator of a Model-Replica + Parameter-Server cluster.
//!
//! This crate substitutes for the paper's execution substrate (TensorFlow's
//! runtime + gRPC + a real cluster). It reproduces the mechanisms the paper
//! analyses:
//!
//! * **Ready-queue policy** (§3.1): when a compute resource frees, it picks
//!   *uniformly at random* among the ready ops carrying the lowest priority
//!   number together with all unprioritized ready ops. With no schedule this
//!   yields the random parameter-transfer orders of §2.2; with a TIC/TAC
//!   schedule it enforces the chosen order.
//! * **gRPC channel semantics** (§5.1): one bidirectional channel per
//!   worker–PS pair; transfers on a channel are handed off in order and only
//!   one is in flight per channel. Device NICs serialize transfers too, so
//!   parameter-server network load grows with the number of workers — the
//!   effect behind the paper's scaling observations (§6.1).
//! * **Sender-side enforcement** (§5.1): per-channel counters; a
//!   prioritized transfer is handed to the channel only when the counter
//!   reaches its rank. An optional reorder-error probability emulates gRPC
//!   occasionally processing hand-offs out of order (0.4–0.5% in the
//!   paper's measurements).
//! * **Runtime variance**: multiplicative log-normal per-op noise and
//!   occasional whole-worker slowdowns ([`NoiseModel`]).
//!
//! * **A threaded runtime** ([`RunPlan::run_threaded`]): the same graph,
//!   schedule and [`SimConfig`] executed on real OS threads against the
//!   wall clock, reading the same transfer table, send gate and service
//!   times as the event engine (see the `threaded` module docs). It runs
//!   quiet plans: faults are simulated only, and [`ExecOptions::check`]
//!   states what else it refuses.
//!
//! * **One plan per deployment** ([`RunPlan`]): what both executors read
//!   and no iteration changes — the op routes, the transfer table, the
//!   service times, the indegrees, the configuration — derived and
//!   validated once (knob ranges, schedule coverage, the 2^53 ns time
//!   axis), then run from for as many iterations as the caller has.
//!   [`simulate`] is a plan for one run.
//!
//! * **Fault injection & fault-tolerant execution**: a seeded, fully
//!   deterministic [`FaultSpec`]/[`FaultPlan`] model (transient transfer
//!   drops, channel blackouts, worker crash/recover cycles, persistent
//!   stragglers, PS stalls) recovered by timeout-driven retransmits with
//!   exponential backoff and, optionally, a degraded-mode sync barrier
//!   that completes the iteration with the slowest workers' updates
//!   deferred, all in virtual time. Failures that cannot be absorbed
//!   surface as typed [`SimError`]s — one error type for both executors.
//!
//! The simulator consumes the partitioned [`Graph`] built by
//! `tictac-cluster`, a [`Schedule`] from `tictac-sched`, and produces an
//! [`ExecutionTrace`] per iteration plus [`IterationMetrics`].
//!
//! [`Graph`]: tictac_graph::Graph
//! [`IterationMetrics`]: tictac_trace::IterationMetrics
//! [`NoiseModel`]: tictac_trace::NoiseModel
//! [`Schedule`]: tictac_sched::Schedule
//! [`ExecutionTrace`]: tictac_trace::ExecutionTrace

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod engine;
mod error;
mod faults;
mod plan;
mod service;
mod threaded;

#[doc(hidden)]
pub use config::{selected_engine, EngineChoice};
pub use config::{SimConfig, DEFAULT_SEED};
pub use engine::simulate;
pub use error::SimError;
pub use faults::{Blackout, Crash, FaultPlan, FaultSpec, Stall};
pub use plan::{CheckedRun, RunPlan};
pub use service::noise_free_profile;
pub use threaded::ExecOptions;

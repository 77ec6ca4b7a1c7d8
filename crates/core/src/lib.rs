//! High-level API of the TicTac reproduction.
//!
//! A [`Session`] wires the whole pipeline together, mirroring the system
//! design of §5 of the paper:
//!
//! 1. build a model ([`Model`] zoo or a custom [`ModelGraph`]),
//! 2. deploy it on a simulated Model-Replica + Parameter-Server cluster
//!    ([`ClusterSpec`]),
//! 3. trace warm-up iterations and estimate the time oracle (min-of-5, §5),
//! 4. compute a transfer schedule ([`SchedulerKind`]: baseline, random,
//!    TIC or TAC) on the reference worker and replicate it,
//! 5. execute measured iterations on a [`BackendKind`] — the
//!    discrete-event simulator (default) or, through
//!    [`SessionBuilder::threaded`], the in-process multi-threaded runtime
//!    — and report throughput, scheduling efficiency (Equation 3) and
//!    straggler impact.
//!
//! # Example
//!
//! ```
//! use tictac_core::{ClusterSpec, Mode, Model, SchedulerKind, Session, SimConfig};
//!
//! let report = Session::builder(tictac_core::tiny_mlp(Mode::Training, 8))
//!     .cluster(ClusterSpec::new(2, 1))
//!     .config(SimConfig::cloud_gpu())
//!     .scheduler(SchedulerKind::Tic)
//!     .iterations(3)
//!     .build()?
//!     .run();
//! assert_eq!(report.iterations.len(), 3);
//! # Ok::<(), tictac_core::ScenarioBuildError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod experiments;
pub mod optimal;
pub mod scenario;
mod session;
mod stats;
pub mod training;
mod tune;

pub use cache::{CacheStats, DeployCache};
pub use experiments::{count_unique_recv_orders, parallel_map, speedup_pct};
pub use optimal::{makespan_of_order, optimal_order, OptimalSearch};
pub use scenario::{EnvPreset, ParseError as ScenarioParseError, Scenario};
pub use session::{
    simulate_with_plan_observed, IterationRecord, RunOptions, RunReport, ScenarioBuildError,
    Session, SessionBuilder,
};
pub use stats::{ols, percentile, Cdf, OlsFit, Summary};
pub use tune::{auto_tune_with, TuneOptions, TuneResult};

// Re-export the substrate so downstream users need only one dependency.
pub use tictac_cluster::{deploy, ClusterSpec, CommConfig, DeployError, DeployedModel, Sharding};
pub use tictac_graph::{
    tiny_mlp, Channel, ChannelId, CommParam, CommRole, Cost, Device, DeviceId, DeviceKind, Fnv1a,
    Graph, GraphBuilder, GraphError, Mode, Model, ModelGraph, ModelGraphBuilder, ModelOpId,
    ModelOpKind, NameId, OpId, OpKind, OpName, ParamId, Resource,
};
pub use tictac_obs::{
    overlap_report, perfetto_json, priority_inversions, validate_perfetto, BucketHistogram,
    ChannelUsage, Counter, DeviceUsage, Gauge, HistogramStats, InversionRecord, InversionReport,
    MetricValue, OverlapReport, PerfettoStats, Registry, Snapshot, Timer, TimerStats,
};
pub use tictac_sched::{
    efficiency::{self, realized_efficiency, RealizedEfficiency},
    no_ordering, random_order, tac, tac_observed, tac_order, tic, tic_observed, worst_case,
    OpProperties, PartitionGraph, Schedule, SchedulerKind,
};
pub use tictac_sim::{
    noise_free_profile, simulate, simulate_with_plan, try_simulate, Blackout, Crash, ExecOptions,
    FaultPlan, FaultSpec, RunPlan, SimConfig, SimError, Stall,
};
#[doc(hidden)]
pub use tictac_sim::{selected_engine, EngineChoice};
pub use tictac_store::{
    self as store, diff_records, group_key, regress, MemorySink, Payload, RegressPolicy,
    RegressReport, RunFilter, RunRecord, RunSink, RunStore, SessionSummary,
};
pub use tictac_trace::{
    analyze, estimate_profile, gantt, straggler_pct, BackendKind, CostOracle, ExecutionTrace,
    FaultCounters, FaultEvent, FaultEventKind, GeneralOracle, IterationMetrics, MeasuredProfile,
    NoiseModel, OpRecord, Platform, RetryPolicy, SimDuration, SimTime, TimeOracle, TraceBuilder,
};

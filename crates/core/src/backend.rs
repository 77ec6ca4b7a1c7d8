//! Pluggable execution backends behind the [`Session`] API.
//!
//! A backend turns one iteration of a deployed model plus a schedule into
//! an [`ExecutionTrace`], reading the session's [`RunPlan`] — the tables
//! and the [`SimConfig`](tictac_sim::SimConfig) derived once at build time
//! — so no backend carries a configuration of its own that could disagree
//! with the session's. Two implementations ship:
//!
//! * [`SimBackend`] — the discrete-event simulator. The default;
//!   deterministic, virtual-time, supports fault injection and noise.
//!   Traces are byte-identical to the pre-backend-API sessions.
//! * [`ThreadedBackend`] — `tictac-sim`'s threaded runtime: real OS
//!   threads per device and channel, prioritized queues with sender-side
//!   rank enforcement, wall-clock timestamps; fault-free runs only.
//!
//! Both emit the same trace type, so every downstream consumer — metrics,
//! `tictac-obs` analyzers, Perfetto export — works on either unchanged,
//! and fail with the same [`SimError`]. Select with
//! [`SessionBuilder::backend`].
//!
//! [`Session`]: crate::Session
//! [`SessionBuilder::backend`]: crate::SessionBuilder::backend

use std::fmt;

use tictac_cluster::DeployedModel;
use tictac_obs::Registry;
use tictac_sched::Schedule;
use tictac_sim::{ExecOptions, RunPlan, SimConfig, SimError};
use tictac_trace::ExecutionTrace;

/// The clock domain a backend's trace timestamps live in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimeDomain {
    /// Deterministic simulated time (event-engine ticks). Iteration `i`
    /// of a virtual-time backend is a pure function of `i`: nothing warms
    /// up, so a session skips its warm-up indices instead of executing
    /// them (see [`Session::run_with`](crate::Session::run_with)).
    Virtual,
    /// Real elapsed time (nanoseconds since iteration start). Caches,
    /// thread start-up and the allocator do warm up, so warm-up
    /// iterations are executed and discarded.
    WallClock,
}

/// An engine that executes one iteration and produces a trace.
///
/// Implementations must be deterministic *given their domain*: the
/// simulator reproduces byte-identical traces for identical inputs; the
/// threaded runtime reproduces identical *orderings* under enforcement
/// while timestamps carry real jitter.
pub trait ExecutionBackend: fmt::Debug + Send + Sync {
    /// Short lowercase backend name (e.g. `"sim"`), for display and trace
    /// labels.
    fn name(&self) -> &'static str;

    /// The clock domain of emitted timestamps.
    fn time_domain(&self) -> TimeDomain;

    /// Executes iteration `iteration` of `deployed` under `schedule`,
    /// from `plan` — built from exactly that graph and schedule, and the
    /// only source of the configuration to run under.
    ///
    /// `registry`, when enabled, receives backend-internal metrics;
    /// observation must never perturb the trace.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] for unrecoverable iterations.
    fn execute(
        &self,
        deployed: &DeployedModel,
        schedule: &Schedule,
        plan: &RunPlan,
        iteration: u64,
        registry: &Registry,
    ) -> Result<ExecutionTrace, SimError>;
}

/// The discrete-event simulator backend (the default): the event engine
/// under the plan's configuration (platform, noise, faults, seed).
#[derive(Debug, Clone, Copy)]
pub struct SimBackend;

impl ExecutionBackend for SimBackend {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn time_domain(&self) -> TimeDomain {
        TimeDomain::Virtual
    }

    fn execute(
        &self,
        deployed: &DeployedModel,
        schedule: &Schedule,
        plan: &RunPlan,
        iteration: u64,
        registry: &Registry,
    ) -> Result<ExecutionTrace, SimError> {
        let graph = deployed.graph();
        let faults = plan.sample_faults(graph, iteration);
        plan.simulate_observed(graph, schedule, iteration, &faults, registry)
    }
}

/// The multi-threaded runtime backend: OS threads, prioritized channel
/// queues with sender-side enforcement, wall-clock timestamps.
///
/// It exists to check §5.1 — sender-side enforcement holds when hand-offs
/// race on real threads — and runs quiet iterations only: faults are
/// simulated by [`SimBackend`]. Modeled noise and reorder errors are not
/// replayed either — a threaded run's variance is physical — and
/// [`ThreadedBackend::from_config`] rejects settings it cannot honor
/// rather than silently dropping them. Schedules (including TAC's
/// profiled one) are identical across backends, so sim and threaded runs
/// of one session are directly comparable.
#[derive(Debug, Clone)]
pub struct ThreadedBackend {
    /// The two values only a wall clock needs; platform, enforcement
    /// flag and bandwidth share are the plan's.
    opts: ExecOptions,
}

impl ThreadedBackend {
    /// A threaded backend for a session configured with `config`, with a
    /// 1:1 time scale and a 30 s watchdog: the busy-loops replay the
    /// durations the simulator models. `config` is checked, not kept: the
    /// backend runs under the session's configuration, through the plan,
    /// and [`execute`](ExecutionBackend::execute) refuses a plan whose
    /// configuration would not have passed here.
    ///
    /// # Errors
    ///
    /// [`SimError::UnsupportedConfig`] for knobs the wall clock
    /// cannot honor, instead of silently ignoring them:
    ///
    /// * `reorder_error > 0.01` — the runtime does not inject artificial
    ///   reorders; rates up to the paper's measured gRPC level (§5.1) are
    ///   adequately represented by physical hand-off jitter, larger ones
    ///   are not.
    /// * heavy [`NoiseModel`]s (`sigma > 0.1` or worker-slowdown
    ///   probability above 5%) — modeled noise cannot be replayed by
    ///   calibrated busy-loops; the presets' mild noise is subsumed by
    ///   physical jitter.
    /// * a [`FaultSpec`] that can inject a fault or sets a degraded
    ///   barrier — faults are simulated only.
    ///
    /// [`NoiseModel`]: tictac_trace::NoiseModel
    /// [`FaultSpec`]: tictac_sim::FaultSpec
    pub fn from_config(config: &SimConfig) -> Result<Self, SimError> {
        Self::check(config)?;
        Ok(Self {
            opts: ExecOptions::default(),
        })
    }

    fn check(config: &SimConfig) -> Result<(), SimError> {
        if config.reorder_error > 0.01 {
            return Err(SimError::UnsupportedConfig {
                knob: "reorder_error",
                reason: format!(
                    "injected reorder rate {} exceeds what physical hand-off jitter \
                     reproduces (max 0.01)",
                    config.reorder_error
                ),
            });
        }
        if config.noise.sigma() > 0.1 || config.noise.slowdown_prob() > 0.05 {
            return Err(SimError::UnsupportedConfig {
                knob: "noise",
                reason: format!(
                    "modeled noise (sigma {}, slowdown prob {}) is too heavy to be \
                     replayed by wall-clock busy-loops",
                    config.noise.sigma(),
                    config.noise.slowdown_prob()
                ),
            });
        }
        if !config.faults.is_quiet() || config.faults.barrier_timeout.is_some() {
            return Err(SimError::UnsupportedConfig {
                knob: "faults",
                reason: "faults are simulated only; run a faulty config on the sim backend"
                    .to_string(),
            });
        }
        Ok(())
    }

    /// Scales every modeled duration by `scale` (smaller = faster wall
    /// clock, larger relative scheduling overhead).
    #[must_use]
    pub fn with_time_scale(mut self, scale: f64) -> Self {
        self.opts.time_scale = scale;
        self
    }

    /// Sets the per-iteration stall watchdog.
    #[must_use]
    pub fn with_watchdog(mut self, watchdog: std::time::Duration) -> Self {
        self.opts.watchdog = watchdog;
        self
    }
}

impl ExecutionBackend for ThreadedBackend {
    fn name(&self) -> &'static str {
        "threaded"
    }

    fn time_domain(&self) -> TimeDomain {
        TimeDomain::WallClock
    }

    fn execute(
        &self,
        deployed: &DeployedModel,
        schedule: &Schedule,
        plan: &RunPlan,
        iteration: u64,
        registry: &Registry,
    ) -> Result<ExecutionTrace, SimError> {
        let started = std::time::Instant::now();
        Self::check(plan.config())?;
        let trace = plan.run_threaded(deployed.graph(), schedule, &self.opts, iteration)?;
        registry.counter("exec.iterations").inc();
        registry
            .histogram("exec.wall_us", &WALL_BUCKETS_US)
            .observe(started.elapsed().as_micros() as u64);
        Ok(trace)
    }
}

/// Wall-clock histogram bounds, decades from 100 µs to 1000 s.
const WALL_BUCKETS_US: [u64; 8] = [
    100,
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
];

#[cfg(test)]
mod tests {
    use super::*;
    use tictac_cluster::{deploy, ClusterSpec};
    use tictac_graph::{tiny_mlp, Mode};
    use tictac_sched::no_ordering;

    #[test]
    fn backends_emit_complete_traces_of_the_same_graph() {
        let model = tiny_mlp(Mode::Training, 8);
        let d = deploy(&model, &ClusterSpec::new(2, 1)).unwrap();
        let s = no_ordering(d.graph());
        let plan = RunPlan::new(d.graph(), &s, &SimConfig::cloud_gpu()).unwrap();
        let reg = Registry::disabled();

        let sim: Box<dyn ExecutionBackend> = Box::new(SimBackend);
        let thr: Box<dyn ExecutionBackend> = Box::new(
            ThreadedBackend::from_config(&SimConfig::cloud_gpu())
                .expect("preset config is supported")
                .with_time_scale(0.5),
        );
        assert_eq!(sim.time_domain(), TimeDomain::Virtual);
        assert_eq!(thr.time_domain(), TimeDomain::WallClock);
        for b in [&sim, &thr] {
            let trace = b.execute(&d, &s, &plan, 0, &reg).unwrap();
            assert_eq!(
                trace.executed_ops(),
                d.graph().len(),
                "backend {}",
                b.name()
            );
        }
    }

    #[test]
    fn threaded_backend_refuses_a_plan_it_could_not_have_been_built_for() {
        let model = tiny_mlp(Mode::Training, 8);
        let d = deploy(&model, &ClusterSpec::new(2, 1)).unwrap();
        let s = no_ordering(d.graph());
        let heavy = SimConfig::cloud_gpu().with_reorder_error(0.5);
        assert!(ThreadedBackend::from_config(&heavy).is_err());
        let plan = RunPlan::new(d.graph(), &s, &heavy).unwrap();
        let thr = ThreadedBackend::from_config(&SimConfig::cloud_gpu()).unwrap();
        match thr.execute(&d, &s, &plan, 0, &Registry::disabled()) {
            Err(SimError::UnsupportedConfig { knob, .. }) => {
                assert_eq!(knob, "reorder_error");
            }
            other => panic!("expected an unsupported config, got {other:?}"),
        }
    }

    /// Faults are simulated only: a spec that can inject one, or that
    /// sets a degraded barrier, is refused at construction and again at
    /// execution, never run quietly in its place.
    #[test]
    fn threaded_backend_refuses_a_faulty_config_at_both_doors() {
        use tictac_sim::FaultSpec;
        use tictac_trace::SimDuration;
        let model = tiny_mlp(Mode::Training, 8);
        let d = deploy(&model, &ClusterSpec::new(2, 1)).unwrap();
        let s = no_ordering(d.graph());
        let thr = ThreadedBackend::from_config(&SimConfig::cloud_gpu()).unwrap();
        let refused = |r: Result<_, SimError>| match r {
            Err(SimError::UnsupportedConfig { knob, .. }) => assert_eq!(knob, "faults"),
            other => panic!("expected an unsupported config, got {other:?}"),
        };
        for faults in [
            FaultSpec::none().with_drop_prob(0.01),
            FaultSpec::none().with_barrier_timeout(SimDuration::from_millis(5)),
        ] {
            let faulty = SimConfig::cloud_gpu().with_faults(faults);
            refused(ThreadedBackend::from_config(&faulty).map(|_| ()));
            let plan = RunPlan::new(d.graph(), &s, &faulty).unwrap();
            refused(
                thr.execute(&d, &s, &plan, 0, &Registry::disabled())
                    .map(|_| ()),
            );
        }
    }
}

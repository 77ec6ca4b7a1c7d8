//! The end-to-end session: model → cluster → schedule → measure.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Instant;
use tictac_cluster::{ClusterSpec, DeployError, DeployedModel};
use tictac_graph::{Graph, ModelGraph};
use tictac_obs::{sim_metrics, Registry};
use tictac_sched::{
    efficiency, no_ordering, random_order, tac_observed, tic_observed, Schedule, SchedulerKind,
};
use tictac_sim::{
    noise_free_profile, CheckedRun, ExecOptions, FaultPlan, FaultSpec, RunPlan, SimConfig, SimError,
};
use tictac_store::{IterationEvidence, Payload, RunRecord, RunSink, SessionEvidence};
use tictac_trace::{
    analyze, estimate_profile, BackendKind, ExecutionTrace, FaultCounters, MeasuredProfile,
    NoiseModel, SimDuration,
};

use crate::scenario::Scenario;

/// The declarative half of a session: every knob that determines *what*
/// runs — and therefore the run's recorded identity — separate from the
/// process-local attachments (metrics registry, threaded-runtime options,
/// record sink). [`SessionBuilder`] is a thin imperative layer over this struct,
/// and [`Session::from_scenario`] fills it from a parsed scenario file;
/// both construction paths flow through the same `build`.
#[derive(Debug, Clone)]
pub(crate) struct SessionConfig {
    /// Cluster shape, including heterogeneity factors.
    pub cluster: ClusterSpec,
    /// Simulation configuration: platform, noise, faults, seed.
    pub config: SimConfig,
    /// Transfer-scheduling policy.
    pub scheduler: SchedulerKind,
    /// Warm-up iterations: the first `warmup` iteration indices of a run
    /// are never measured. The threaded runtime executes and discards
    /// them; the simulator, where nothing warms up, skips them —
    /// measured iterations keep their indices (`warmup..`) either way, so
    /// reports and records do not depend on which happened.
    pub warmup: usize,
    /// Measured iterations.
    pub iterations: usize,
    /// `Scenario::fingerprint` of the driving scenario (0 when the
    /// session was assembled imperatively).
    pub scenario_fp: u64,
}

impl Default for SessionConfig {
    /// The paper's defaults: 2 workers / 1 PS, envG with noise, baseline
    /// scheduling, 2 warm-up + 10 measured iterations (§6).
    fn default() -> Self {
        Self {
            cluster: ClusterSpec::new(2, 1),
            config: SimConfig::cloud_gpu(),
            scheduler: SchedulerKind::Baseline,
            warmup: 2,
            iterations: 10,
            scenario_fp: 0,
        }
    }
}

/// Builder for [`Session`].
#[derive(Debug)]
pub struct SessionBuilder {
    model: ModelGraph,
    settings: SessionConfig,
    registry: Registry,
    threaded: Option<ExecOptions>,
    sink: Option<std::sync::Arc<dyn RunSink>>,
}

impl SessionBuilder {
    /// Replaces the whole declarative configuration at once.
    pub(crate) fn settings(mut self, settings: SessionConfig) -> Self {
        self.settings = settings;
        self
    }

    /// Sets the cluster shape (default: 2 workers, 1 PS).
    pub fn cluster(mut self, cluster: ClusterSpec) -> Self {
        self.settings.cluster = cluster;
        self
    }

    /// Sets the simulation configuration (default: envG with noise).
    pub fn config(mut self, config: SimConfig) -> Self {
        self.settings.config = config;
        self
    }

    /// Sets the scheduling policy (default: baseline).
    pub fn scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.settings.scheduler = scheduler;
        self
    }

    /// Number of warm-up iterations (default 2, as in §6): indices
    /// `0..warmup` are never measured — executed and discarded on the
    /// threaded runtime, skipped on the simulator; measured
    /// iterations keep their indices `warmup..` either way.
    pub fn warmup(mut self, warmup: usize) -> Self {
        self.settings.warmup = warmup;
        self
    }

    /// Number of measured iterations (default 10, as in §6).
    pub fn iterations(mut self, iterations: usize) -> Self {
        self.settings.iterations = iterations;
        self
    }

    /// Attaches a metrics registry (default: disabled). An enabled
    /// registry observes schedule derivation (`sched.*`), the simulator
    /// (`sim.*`) and the training loop (`session.*`) without perturbing
    /// any simulated outcome: traces and reports are byte-identical
    /// whether or not observation is on.
    pub fn observe(mut self, registry: Registry) -> Self {
        self.registry = registry;
        self
    }

    /// Executes iterations on the threaded runtime with `opts` (default:
    /// the discrete-event simulator): OS threads, prioritized channel
    /// queues with sender-side enforcement, wall-clock timestamps.
    ///
    /// It exists to check §5.1 — sender-side enforcement holds when
    /// hand-offs race on real threads — and runs quiet iterations only:
    /// [`build`](SessionBuilder::build) refuses a configuration it cannot
    /// honor. Schedules — including TAC's profiled one — are computed
    /// identically on both backends, so runs of one configuration differ
    /// only in how the iteration is *executed*.
    pub fn threaded(mut self, opts: ExecOptions) -> Self {
        self.threaded = Some(opts);
        self
    }

    /// Routes this session's finished runs into `sink` as
    /// [`RunRecord`]s, overriding the process-global store. Without this
    /// call, runs are recorded only when a global store is configured
    /// (`TICTAC_RUN_STORE` or [`tictac_store::set_global_store`]) — the
    /// default is no recording at all.
    pub fn record_to(mut self, sink: std::sync::Arc<dyn RunSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Deploys the model and computes the schedule, consulting the
    /// process-wide [`DeployCache`](crate::DeployCache): sessions sharing
    /// a `(model, cluster, scheduler, config)` configuration share one
    /// deployed graph and one schedule vector behind `Arc`s. Then derives
    /// the [`RunPlan`] every iteration of the session runs from, whose
    /// [`RunPlan::new`] checks the run.
    ///
    /// # Errors
    ///
    /// [`ScenarioBuildError::Backend`], before anything is deployed, with
    /// [`SimError::InvalidKnob`] if a config knob is out of range
    /// ([`SimConfig::check`]), or if the session is
    /// [`threaded`](SessionBuilder::threaded) and [`ExecOptions::check`]
    /// refuses its config; after deployment, with what [`RunPlan::new`]
    /// refuses (the session's own, before any schedule is looked up or
    /// derived, then TAC's profiling plan's), such as a cluster whose
    /// speed or bandwidth factors push an iteration past the 2^53 ns end
    /// of the time axis. [`ScenarioBuildError::Deploy`] if the
    /// cluster spec or model is invalid.
    pub fn build(self) -> Result<Session, ScenarioBuildError> {
        let started = Instant::now();
        let s = &self.settings;
        s.config.check()?;
        if let Some(opts) = &self.threaded {
            opts.check(&s.config)?;
        }
        let key = crate::cache::DeployKey::new(&self.model, &s.cluster);
        let model_fp = key.fingerprint;
        let cache = crate::DeployCache::global();
        let deployed = cache.deploy_at(key.clone(), &self.model)?;
        // Refused before a schedule is looked up or derived.
        let run = CheckedRun::new(deployed.graph(), &s.config)?;
        let schedule = cache.schedule_at(key, &deployed, s.scheduler, &s.config, &self.registry)?;
        let schedule_compute_time = started.elapsed();
        let plan = run.plan(deployed.graph(), &schedule)?;
        let sink = self
            .sink
            .or_else(|| tictac_store::global_store().map(|s| s as std::sync::Arc<dyn RunSink>));
        Ok(Session {
            model_name: self.model.name().to_string(),
            model_fp,
            batch: self.model.batch_size(),
            deployed,
            scheduler: s.scheduler,
            warmup: s.warmup,
            iterations: s.iterations,
            schedule,
            plan,
            schedule_compute_time,
            registry: self.registry,
            threaded: self.threaded,
            seed: s.config.seed,
            fault_fp: s.config.faults.fingerprint(),
            scenario_fp: s.scenario_fp,
            comm_fp: s.cluster.comm().fingerprint(),
            sink,
        })
    }
}

/// Error building a runnable [`Session`] — by [`SessionBuilder::build`],
/// from a [`Scenario`] — or deriving a schedule or a tuning evaluation
/// through the [`DeployCache`](crate::DeployCache): the deployment can be
/// invalid, or the executors can refuse the run.
#[derive(Debug)]
pub enum ScenarioBuildError {
    /// The model/cluster deployment failed.
    Deploy(DeployError),
    /// The executors refused the run: a knob out of range
    /// ([`SimError::InvalidKnob`]), one the threaded runtime cannot honor
    /// ([`SimError::UnsupportedConfig`]), or an iteration or retry budget
    /// past the end of the time axis ([`SimError::ServicePastHorizon`],
    /// [`SimError::RetryPastHorizon`]).
    Backend(SimError),
}

impl std::fmt::Display for ScenarioBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioBuildError::Deploy(e) => write!(f, "invalid deployment: {e}"),
            ScenarioBuildError::Backend(e) => write!(f, "refused config: {e}"),
        }
    }
}

impl std::error::Error for ScenarioBuildError {}

impl From<DeployError> for ScenarioBuildError {
    fn from(e: DeployError) -> Self {
        ScenarioBuildError::Deploy(e)
    }
}

impl From<SimError> for ScenarioBuildError {
    fn from(e: SimError) -> Self {
        ScenarioBuildError::Backend(e)
    }
}

/// One iteration under the explicit `plan` (replayable: the same plan
/// injects the same faults every time), [`RunPlan::run`] on a plan built
/// for the one run, plus, for an enabled `registry`, the run's `sim.*`
/// metrics derived from its trace, a failed run's too ([`sim_metrics`]).
///
/// # Errors
///
/// What [`RunPlan::new`] refuses, and what stopped the run: as
/// [`RunPlan::try_simulate`].
pub fn simulate_with_plan_observed(
    graph: &Graph,
    schedule: &Schedule,
    config: &SimConfig,
    iteration: u64,
    plan: &FaultPlan,
    registry: &Registry,
) -> Result<ExecutionTrace, SimError> {
    let run = RunPlan::new(graph, schedule, config)?;
    run_observed(&run, graph, schedule, iteration, plan, registry)
}

/// One engine run from `run`, then the analysis of its trace.
fn run_observed(
    run: &RunPlan,
    graph: &Graph,
    schedule: &Schedule,
    iteration: u64,
    faults: &FaultPlan,
    registry: &Registry,
) -> Result<ExecutionTrace, SimError> {
    let (trace, error) = run.run(graph, schedule, iteration, faults)?;
    if registry.is_enabled() {
        sim_metrics(registry, graph, &trace, error.is_none());
    }
    error.map_or(Ok(trace), Err)
}

/// Iteration-index offset for the TAC profiling runs, far from measured
/// iterations so their random streams do not collide.
const PROFILE_ITERATION_BASE: u64 = 1 << 40;

/// Tracing module + time-oracle estimator (§5): execute 5 unscheduled
/// iterations, keep the per-op minimum. Profiling always runs fault-free —
/// the paper profiles on a healthy cluster, and a crash-riddled profile
/// would poison the estimated op durations. It also always runs on the
/// *simulator*, whatever backend executes the session: schedules stay
/// identical across backends, so sim and threaded runs are comparable.
///
/// Without noise the five runs measure the same durations by construction
/// (see [`noise_free_profile`]), so the minimum is read off the engine's
/// service times and nothing is simulated.
///
/// # Errors
///
/// What the profiling plan's [`RunPlan::new`] refuses, and a profiling
/// run's failure.
fn profile_oracle(
    deployed: &DeployedModel,
    config: &SimConfig,
) -> Result<MeasuredProfile, SimError> {
    let graph = deployed.graph();
    let profile_config = config.clone().with_faults(FaultSpec::none());
    if profile_config.noise == NoiseModel::none() {
        return Ok(noise_free_profile(graph, &profile_config));
    }
    let unordered = no_ordering(graph);
    let plan = RunPlan::new(graph, &unordered, &profile_config)?;
    let traces = (0..5)
        .map(|i| plan.try_simulate(graph, &unordered, PROFILE_ITERATION_BASE + i))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(estimate_profile(&traces))
}

/// The replicated schedule `scheduler` derives for `deployed`.
///
/// # Errors
///
/// What TAC's [`profile_oracle`] returns.
pub(crate) fn compute_schedule(
    deployed: &DeployedModel,
    scheduler: SchedulerKind,
    config: &SimConfig,
    registry: &Registry,
) -> Result<Schedule, SimError> {
    let graph = deployed.graph();
    let reference = deployed.workers()[0];
    let schedule = match scheduler {
        SchedulerKind::Baseline => no_ordering(graph),
        SchedulerKind::Random => random_order(
            graph,
            reference,
            &mut SmallRng::seed_from_u64(config.seed ^ 0x5EED),
        ),
        SchedulerKind::Tic => tic_observed(graph, reference, registry),
        SchedulerKind::Tac => tac_observed(
            graph,
            reference,
            &profile_oracle(deployed, config)?,
            registry,
        ),
    };
    Ok(deployed.replicate_schedule(&schedule))
}

/// One measured iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationRecord {
    /// Iteration makespan.
    pub makespan: SimDuration,
    /// Throughput, samples/second (global batch over makespan).
    pub throughput: f64,
    /// Straggler time, % of the iteration (§6.3).
    pub straggler_pct: f64,
    /// Scheduling efficiency `E` of the iteration (Equation 3, clamped to
    /// [0, 1]): the minimum per-worker-partition efficiency — the slowest
    /// worker's schedule determines the synchronous step time.
    pub efficiency: f64,
    /// Speedup potential `S` on the reference worker's partition
    /// (Equation 4; partitions are identical replicas).
    pub speedup_potential: f64,
    /// Fault and recovery activity observed this iteration (all-zero when
    /// fault injection is quiet).
    pub faults: FaultCounters,
    /// Percentage of graph ops that executed this iteration — below 100
    /// only when a degraded barrier deferred work.
    pub goodput_pct: f64,
}

/// The result of [`Session::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Model name.
    pub model: String,
    /// Scheduling policy used.
    pub scheduler: SchedulerKind,
    /// Number of workers.
    pub workers: usize,
    /// Number of parameter servers.
    pub parameter_servers: usize,
    /// Per-worker batch size.
    pub batch: usize,
    /// One record per measured iteration.
    pub iterations: Vec<IterationRecord>,
    /// Wall-clock time spent computing the schedule (the paper reports
    /// ~10 s offline; ours is milliseconds because the substrate is
    /// smaller).
    pub schedule_compute_seconds: f64,
}

impl RunReport {
    /// Mean throughput across measured iterations (the paper's headline
    /// metric, §6).
    pub fn mean_throughput(&self) -> f64 {
        self.iterations.iter().map(|r| r.throughput).sum::<f64>() / self.iterations.len() as f64
    }

    /// Mean iteration makespan ([`SimDuration::ZERO`] for an empty report).
    pub fn mean_makespan(&self) -> SimDuration {
        let total: SimDuration = self.iterations.iter().map(|r| r.makespan).sum();
        total / self.iterations.len().max(1) as u64
    }

    /// Maximum straggler percentage across iterations (the paper reports
    /// the maximum, §6).
    pub fn max_straggler_pct(&self) -> f64 {
        self.iterations
            .iter()
            .map(|r| r.straggler_pct)
            .fold(0.0, f64::max)
    }

    /// Mean scheduling efficiency.
    pub fn mean_efficiency(&self) -> f64 {
        self.iterations.iter().map(|r| r.efficiency).sum::<f64>() / self.iterations.len() as f64
    }

    /// Fault and recovery activity accumulated over all measured
    /// iterations.
    pub fn total_faults(&self) -> FaultCounters {
        let mut total = FaultCounters::default();
        for r in &self.iterations {
            total.merge(&r.faults);
        }
        total
    }

    /// Mean goodput percentage across measured iterations (100 unless a
    /// degraded barrier deferred work).
    pub fn mean_goodput_pct(&self) -> f64 {
        self.iterations.iter().map(|r| r.goodput_pct).sum::<f64>() / self.iterations.len() as f64
    }
}

/// A fully-configured deployment ready to simulate.
///
/// Create with [`Session::builder`].
#[derive(Debug)]
pub struct Session {
    model_name: String,
    model_fp: u64,
    batch: usize,
    deployed: std::sync::Arc<DeployedModel>,
    scheduler: SchedulerKind,
    warmup: usize,
    iterations: usize,
    schedule: std::sync::Arc<Schedule>,
    /// The tables and configuration every iteration runs from: derived
    /// once from `deployed`, `schedule` and the session's config, none of
    /// which changes afterwards.
    plan: RunPlan,
    schedule_compute_time: std::time::Duration,
    registry: Registry,
    /// The threaded runtime's options on a threaded session, `None` on
    /// the simulator.
    threaded: Option<ExecOptions>,
    seed: u64,
    fault_fp: u64,
    scenario_fp: u64,
    comm_fp: u64,
    sink: Option<std::sync::Arc<dyn RunSink>>,
}

/// Options for [`Session::run_with`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunOptions {
    /// Iteration-index offset, so repeated runs observe fresh random
    /// streams (used for the 1000-run experiments of §6.2/6.3). Default 0.
    pub offset: u64,
    /// Overrides the session's measured-iteration count for this run
    /// (warm-up is unchanged). Default: the session's configured count.
    pub iterations: Option<usize>,
}

impl RunOptions {
    /// The defaults: offset 0, the session's configured iteration count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the iteration-index offset.
    #[must_use]
    pub fn offset(mut self, offset: u64) -> Self {
        self.offset = offset;
        self
    }

    /// Overrides the measured-iteration count for this run.
    #[must_use]
    pub fn iterations(mut self, iterations: usize) -> Self {
        self.iterations = Some(iterations);
        self
    }
}

/// Makespan histogram bounds, in microseconds: decades from 100 µs to
/// 1000 s.
const MAKESPAN_BUCKETS_US: [u64; 8] = [
    100,
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
];

impl Session {
    /// Starts building a session around a model graph.
    pub fn builder(model: ModelGraph) -> SessionBuilder {
        SessionBuilder {
            model,
            settings: SessionConfig::default(),
            registry: Registry::disabled(),
            threaded: None,
            sink: None,
        }
    }

    /// Assembles a runnable session from a parsed [`Scenario`] — the
    /// declarative counterpart of [`Session::builder`]. The scenario's
    /// fingerprint is carried into every [`RunRecord`] the session emits
    /// (`scenario_fp`), and a scenario-level `store:` target becomes the
    /// session's record sink.
    ///
    /// # Errors
    ///
    /// As [`SessionBuilder::build`].
    pub fn from_scenario(scenario: &Scenario) -> Result<Session, ScenarioBuildError> {
        let model = scenario
            .model
            .build_with_batch(scenario.mode, scenario.batch);
        let mut builder = Session::builder(model).settings(SessionConfig {
            cluster: scenario.cluster.clone(),
            config: scenario.sim_config(),
            scheduler: scenario.scheduler,
            warmup: scenario.warmup,
            iterations: scenario.iterations,
            scenario_fp: scenario.fingerprint(),
        });
        if scenario.backend == BackendKind::Threaded {
            let mut opts = ExecOptions::default();
            if let Some(scale) = scenario.time_scale {
                opts.time_scale = scale;
            }
            builder = builder.threaded(opts);
        }
        if let Some(path) = &scenario.store {
            builder = builder.record_to(std::sync::Arc::new(tictac_store::RunStore::at(path)));
        }
        builder.build()
    }

    /// The deployed model.
    pub fn deployed(&self) -> &DeployedModel {
        &self.deployed
    }

    /// The enforced schedule (empty for the baseline).
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// The backend that executes this session's iterations.
    fn backend(&self) -> BackendKind {
        match self.threaded {
            None => BackendKind::Sim,
            Some(_) => BackendKind::Threaded,
        }
    }

    /// Executes one iteration on the session's backend and returns its
    /// trace, exactly as [`try_run`](Session::try_run) executes it at the
    /// same iteration index. Indices count from the first warm-up
    /// iteration: `0..warmup` are the warm-ups — which a run on the
    /// simulator skips, but which are executed here like any other index
    /// when asked for — and `warmup` is the first measured one.
    ///
    /// An enabled registry receives the simulator's `sim.*` metrics
    /// derived from the trace, or, on the threaded runtime, one
    /// `exec.iterations` count.
    ///
    /// # Errors
    ///
    /// Returns the [`SimError`] of an unrecoverable iteration.
    pub fn trace_iteration(&self, iteration: u64) -> Result<ExecutionTrace, SimError> {
        let graph = self.deployed.graph();
        match &self.threaded {
            None => {
                let faults = self.plan.sample_faults(graph, iteration);
                run_observed(
                    &self.plan,
                    graph,
                    &self.schedule,
                    iteration,
                    &faults,
                    &self.registry,
                )
            }
            Some(opts) => {
                let trace = self
                    .plan
                    .run_threaded(graph, &self.schedule, opts, iteration)?;
                self.registry.counter("exec.iterations").inc();
                Ok(trace)
            }
        }
    }

    /// Renders one iteration as Chrome/Perfetto `trace_event` JSON (load
    /// it at `ui.perfetto.dev` or `chrome://tracing`): one lane per
    /// device and channel, fault instants, degraded-barrier flows.
    ///
    /// The export is backend-aware: timestamps are taken from the trace in
    /// the backend's own clock (virtual ticks for the simulator,
    /// wall-clock nanoseconds for the threaded runtime — never re-derived
    /// from sim ticks), and wall-clock traces are labeled with the backend
    /// name so the two clocks cannot be confused in a trace viewer.
    ///
    /// # Errors
    ///
    /// Returns the [`SimError`] of an unrecoverable iteration.
    pub fn perfetto_json(&self, iteration: u64) -> Result<String, SimError> {
        let trace = self.trace_iteration(iteration)?;
        let label = if self.backend() == BackendKind::Sim {
            format!("{}/{}/iter{}", self.model_name, self.scheduler, iteration)
        } else {
            format!(
                "{}/{}/{}/iter{} [wall-clock]",
                self.model_name,
                self.scheduler,
                self.backend(),
                iteration
            )
        };
        Ok(tictac_obs::perfetto_json(
            self.deployed.graph(),
            &trace,
            &label,
        ))
    }

    /// Runs the measured iterations (after any warm-up the backend needs)
    /// and reports metrics.
    ///
    /// This is the zero-config sugar for
    /// [`run_with`](Session::run_with)`(RunOptions::default())` — use
    /// [`try_run`](Session::try_run) when fault injection is configured
    /// and unrecoverable failures are expected outcomes.
    ///
    /// # Panics
    ///
    /// Panics if an iteration fails with a [`SimError`].
    pub fn run(&self) -> RunReport {
        self.run_with(RunOptions::default())
    }

    /// Like [`run`](Session::run), with explicit [`RunOptions`].
    ///
    /// # Panics
    ///
    /// Panics if an iteration fails with a [`SimError`].
    pub fn run_with(&self, options: RunOptions) -> RunReport {
        self.try_run_with(options).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs the measured iterations (after any warm-up the backend
    /// needs), surfacing execution failures (exhausted retry budgets with
    /// no degraded barrier, deadlocks, threaded-runtime stalls) as typed
    /// errors instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns the first [`SimError`] any iteration produces.
    pub fn try_run(&self) -> Result<RunReport, SimError> {
        self.try_run_with(RunOptions::default())
    }

    /// Like [`try_run`](Session::try_run), with explicit [`RunOptions`].
    ///
    /// Measured iterations are indices `offset + warmup ..`. On the
    /// threaded runtime the `warmup` indices before them are executed
    /// first and their traces dropped; on the simulator they are not
    /// executed at all — iteration `i` there is a pure function of
    /// `(seed, i)`, so the result is the same and an attached registry's
    /// engine counters cover the measured iterations only.
    ///
    /// # Errors
    ///
    /// Returns the first [`SimError`] any executed iteration produces.
    pub(crate) fn try_run_with(&self, options: RunOptions) -> Result<RunReport, SimError> {
        let offset = options.offset;
        let iterations = options.iterations.unwrap_or(self.iterations);
        let graph = self.deployed.graph();
        let first = if self.backend() == BackendKind::Sim {
            self.warmup
        } else {
            0
        };

        let m_iterations = self.registry.counter("session.iterations");
        let m_retries = self.registry.counter("session.retries");
        let g_goodput = self.registry.gauge("session.goodput_pct");
        let g_throughput = self.registry.gauge("session.throughput");
        let h_makespan = self
            .registry
            .histogram("session.makespan_us", &MAKESPAN_BUCKETS_US);

        let mut records = Vec::with_capacity(iterations);
        // Inversion detection walks the whole trace, so it runs only when
        // the run is being recorded into a store.
        let mut inversions = Vec::with_capacity(if self.sink.is_some() { iterations } else { 0 });
        for i in first..self.warmup + iterations {
            let trace = self.trace_iteration(offset + i as u64)?;
            if i < self.warmup {
                continue;
            }
            if self.sink.is_some() {
                let report =
                    tictac_obs::priority_inversions(graph, &trace, |op| self.schedule.priority(op));
                inversions.push(report.count() as u64);
            }
            let metrics = analyze(graph, self.deployed.workers(), &trace);
            // Scheduling efficiency per worker partition with measured
            // per-op durations (§3.2); the iteration's efficiency is the
            // slowest worker's.
            let realized = efficiency::realized_efficiency_with(
                graph,
                &trace,
                self.deployed.workers(),
                &metrics.worker_finish,
            );
            let throughput = metrics.throughput(self.batch, self.deployed.workers().len());
            m_iterations.inc();
            m_retries.add(metrics.faults.retransmits);
            g_goodput.set(metrics.goodput_pct);
            g_throughput.set(throughput);
            h_makespan.observe(metrics.makespan.as_nanos() / 1_000);
            records.push(IterationRecord {
                makespan: metrics.makespan,
                throughput,
                straggler_pct: metrics.straggler_pct,
                efficiency: realized.efficiency,
                speedup_potential: realized.speedup_potential,
                faults: metrics.faults,
                goodput_pct: metrics.goodput_pct,
            });
        }

        let report = RunReport {
            model: self.model_name.clone(),
            scheduler: self.scheduler,
            workers: self.deployed.workers().len(),
            parameter_servers: self.deployed.parameter_servers().len(),
            batch: self.batch,
            iterations: records,
            schedule_compute_seconds: self.schedule_compute_time.as_secs_f64(),
        };
        if let Some(sink) = &self.sink {
            sink.record(self.run_record(&report, &inversions));
        }
        Ok(report)
    }

    /// Assembles the [`RunRecord`] of one finished run. Everything in the
    /// payload derives from *simulated* observations (virtual time on the
    /// sim backend), so same-seed runs produce byte-identical payloads;
    /// the wall-clock `schedule_compute_seconds` is deliberately left
    /// out.
    fn run_record(&self, report: &RunReport, inversions: &[u64]) -> RunRecord {
        let evidence = SessionEvidence {
            iterations: report
                .iterations
                .iter()
                .zip(inversions)
                .map(|(r, &inv)| IterationEvidence {
                    makespan_ns: r.makespan.as_nanos(),
                    throughput: r.throughput,
                    straggler_pct: r.straggler_pct,
                    efficiency: r.efficiency,
                    speedup_potential: r.speedup_potential,
                    goodput_pct: r.goodput_pct,
                    inversions: inv,
                })
                .collect(),
            faults: report.total_faults(),
            snapshot: self.registry.snapshot(),
        };
        RunRecord {
            id: String::new(),
            time_ms: 0,
            source: "session".into(),
            workload: self.model_name.clone(),
            model_fp: self.model_fp,
            workers: report.workers as u32,
            ps: report.parameter_servers as u32,
            scheduler: self.scheduler.to_string(),
            backend: self.backend().name().to_string(),
            seed: self.seed,
            fault_fp: self.fault_fp,
            scenario_fp: self.scenario_fp,
            comm_fp: self.comm_fp,
            provenance: std::env::var("TICTAC_PROVENANCE").unwrap_or_default(),
            payload: Payload::Session(evidence),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tictac_graph::{tiny_mlp, Mode};

    fn session(kind: SchedulerKind) -> Session {
        Session::builder(tiny_mlp(Mode::Training, 8))
            .cluster(ClusterSpec::new(2, 1))
            .config(SimConfig::cloud_gpu())
            .scheduler(kind)
            .warmup(1)
            .iterations(4)
            .build()
            .unwrap()
    }

    #[test]
    fn run_produces_requested_iterations() {
        let report = session(SchedulerKind::Tic).run();
        assert_eq!(report.iterations.len(), 4);
        assert_eq!(report.workers, 2);
        assert_eq!(report.parameter_servers, 1);
        assert!(report.mean_throughput() > 0.0);
        assert!(report.mean_makespan() > SimDuration::ZERO);
        assert!(report.iterations.iter().all(|r| r.efficiency <= 1.0));
    }

    #[test]
    fn baseline_has_empty_schedule_tic_does_not() {
        assert!(session(SchedulerKind::Baseline).schedule().is_unordered());
        assert!(!session(SchedulerKind::Tic).schedule().is_unordered());
        assert!(!session(SchedulerKind::Tac).schedule().is_unordered());
        assert!(!session(SchedulerKind::Random).schedule().is_unordered());
    }

    #[test]
    fn runs_are_reproducible_and_offsets_differ() {
        let s = session(SchedulerKind::Baseline);
        let a = s.run();
        let b = s.run();
        assert_eq!(a, b);
        let c = s.run_with(RunOptions::new().offset(1_000));
        assert_ne!(a.iterations, c.iterations);
        // The offset shifts iteration indices, not the count.
        assert_eq!(a.iterations.len(), c.iterations.len());
        let short = s.run_with(RunOptions::new().iterations(2));
        assert_eq!(short.iterations.len(), 2);
        assert_eq!(short.iterations, a.iterations[..2]);
        // An empty report has a zero mean makespan, not a division by zero.
        let empty = s.run_with(RunOptions::new().iterations(0));
        assert!(empty.iterations.is_empty());
        assert_eq!(empty.mean_makespan(), SimDuration::ZERO);
    }

    #[test]
    fn faulty_sessions_report_counters_and_errors() {
        use tictac_trace::{RetryPolicy, SimDuration as D};
        // Recoverable drops: run succeeds and counters are non-zero.
        let s = Session::builder(tiny_mlp(Mode::Training, 8))
            .cluster(ClusterSpec::new(2, 1))
            .config(
                SimConfig::cloud_gpu().with_faults(
                    tictac_sim::FaultSpec::none()
                        .with_drop_prob(0.3)
                        .with_retry(RetryPolicy::fixed(D::from_micros(50), 40)),
                ),
            )
            .scheduler(SchedulerKind::Tac)
            .warmup(1)
            .iterations(4)
            .build()
            .unwrap();
        let report = s.try_run().expect("drops are recoverable");
        assert!(report.total_faults().drops > 0);
        assert_eq!(
            report.total_faults().retransmits,
            report.total_faults().drops,
            "every recovered drop retransmits exactly once per timeout"
        );
        assert_eq!(report.mean_goodput_pct(), 100.0);

        // Unrecoverable drops without a barrier: a typed error, and the
        // panicking wrapper panics with its message.
        let doomed = Session::builder(tiny_mlp(Mode::Training, 8))
            .cluster(ClusterSpec::new(2, 1))
            .config(
                SimConfig::cloud_gpu().with_faults(
                    tictac_sim::FaultSpec::none()
                        .with_drop_prob(1.0)
                        .with_retry(RetryPolicy::fixed(D::from_micros(50), 1)),
                ),
            )
            .warmup(0)
            .iterations(1)
            .build()
            .unwrap();
        match doomed.try_run() {
            Err(SimError::RetriesExhausted { .. }) => {}
            other => panic!("expected retry exhaustion, got {other:?}"),
        }

        // A fault knob out of range is refused at build, naming it, and
        // by the plan the executors run from: one row per knob, NaN, ±∞
        // and out-of-range values; each range's ends build.
        type Knob = fn(&mut FaultSpec) -> &mut f64;
        let probabilities: [(&str, Knob); 5] = [
            ("drop_prob", |f| &mut f.drop_prob),
            ("blackout_prob", |f| &mut f.blackout_prob),
            ("crash_prob", |f| &mut f.crash_prob),
            ("straggler_prob", |f| &mut f.straggler_prob),
            ("ps_stall_prob", |f| &mut f.ps_stall_prob),
        ];
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        let mut rows: Vec<(&str, Knob, Vec<f64>, Vec<f64>)> = probabilities
            .into_iter()
            .map(|(knob, field)| (knob, field, vec![nan, inf, -inf, -0.5, 1.5], vec![0.0, 1.0]))
            .collect();
        rows.push((
            "straggler_factor",
            |f| &mut f.straggler_factor,
            vec![nan, inf, -inf, 0.5, 0.0],
            vec![1.0, 1e3],
        ));
        rows.push((
            "retry.backoff",
            |f| &mut f.retry.backoff,
            vec![nan, -inf, -2.0, 0.5],
            vec![1.0, 100.0],
        ));
        let build = |faults: FaultSpec| {
            let config = SimConfig {
                faults,
                ..SimConfig::cloud_gpu()
            };
            let model = tiny_mlp(Mode::Training, 8);
            let built = Session::builder(model.clone())
                .config(config.clone())
                .build();
            let d = tictac_cluster::deploy(&model, &ClusterSpec::new(2, 1)).unwrap();
            let planned = RunPlan::new(d.graph(), &no_ordering(d.graph()), &config);
            (built.map(|_| ()), planned.map(|_| ()))
        };
        let mut zero_barrier = FaultSpec::none();
        zero_barrier.barrier_timeout = Some(D::ZERO);
        let mut refusals = vec![("barrier_timeout", zero_barrier)];
        for (knob, field, bad, good) in rows {
            for v in bad {
                let mut faults = FaultSpec::none();
                *field(&mut faults) = v;
                refusals.push((knob, faults));
            }
            for v in good {
                let mut faults = FaultSpec::none();
                *field(&mut faults) = v;
                let (built, planned) = build(faults);
                assert!(built.is_ok() && planned.is_ok(), "{knob} = {v} builds");
            }
        }
        for (knob, faults) in refusals {
            let value = format!("{faults:?}");
            match build(faults) {
                (
                    Err(ScenarioBuildError::Backend(SimError::InvalidKnob {
                        knob: at_build, ..
                    })),
                    Err(SimError::InvalidKnob { knob: in_plan, .. }),
                ) => assert_eq!((at_build, in_plan), (knob, knob), "{value}"),
                other => panic!("{knob} not refused by both doors: {other:?}"),
            }
        }
        let barrier = FaultSpec::none().with_barrier_timeout(D::from_nanos(1));
        let (built, planned) = build(barrier);
        assert!(built.is_ok() && planned.is_ok(), "a 1 ns barrier builds");
        // A backoff of 1e3 is in range, but its four retries add up past
        // the 2^53 ns time axis: both doors refuse the policy as such.
        let mut far = FaultSpec::none();
        far.retry.backoff = 1e3;
        match build(far) {
            (
                Err(ScenarioBuildError::Backend(SimError::RetryPastHorizon { .. })),
                Err(SimError::RetryPastHorizon { .. }),
            ) => {}
            other => panic!("a backoff of 1e3 not refused by both doors: {other:?}"),
        }

        // The defaults and every committed scenario still build.
        assert!(Session::builder(tiny_mlp(Mode::Training, 8))
            .build()
            .is_ok());
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/scenarios");
        for file in std::fs::read_dir(dir).unwrap() {
            let path = file.unwrap().path();
            let text = std::fs::read_to_string(&path).unwrap();
            for scenario in Scenario::parse_grid(&text).unwrap() {
                let built = Session::from_scenario(&scenario);
                assert!(built.is_ok(), "{}: {:?}", path.display(), built.err());
            }
        }
    }

    /// `SimConfig::check`'s ranges at both doors: a `reorder_error`
    /// outside `[0, 1]` or NaN, and a `disorder_window` of `Some(0)`, are
    /// refused by `SessionBuilder::build` and by `RunPlan::new`, naming
    /// the knob; each range's ends build.
    #[test]
    fn sim_config_knobs_out_of_range_are_refused_by_both_doors() {
        let model = tiny_mlp(Mode::Training, 8);
        let d = tictac_cluster::deploy(&model, &ClusterSpec::new(2, 1)).unwrap();
        let build = |config: SimConfig| {
            let built = Session::builder(model.clone())
                .config(config.clone())
                .build();
            let planned = RunPlan::new(d.graph(), &no_ordering(d.graph()), &config);
            (built.map(|_| ()), planned.map(|_| ()))
        };
        let reorder = |p| SimConfig {
            reorder_error: p,
            ..SimConfig::cloud_gpu()
        };
        let window = |w| SimConfig::cloud_gpu().with_disorder_window(w);
        let refused = [1.5, -0.5, f64::NAN]
            .map(|p| ("reorder_error", reorder(p)))
            .into_iter()
            .chain([("disorder_window", window(Some(0)))]);
        for (knob, config) in refused {
            let value = format!("{:?} / {:?}", config.reorder_error, config.disorder_window);
            match build(config) {
                (
                    Err(ScenarioBuildError::Backend(SimError::InvalidKnob {
                        knob: at_build, ..
                    })),
                    Err(SimError::InvalidKnob { knob: in_plan, .. }),
                ) => assert_eq!((at_build, in_plan), (knob, knob), "{value}"),
                other => panic!("{value} not refused by both doors: {other:?}"),
            }
        }
        let fine = [reorder(0.0), reorder(1.0), window(None), window(Some(1))];
        for config in fine {
            let value = format!("{:?} / {:?}", config.reorder_error, config.disorder_window);
            let (built, planned) = build(config);
            assert!(built.is_ok() && planned.is_ok(), "{value} builds");
        }
    }

    /// TAC under heavy faults computes the schedule it computes on a
    /// healthy cluster: profiling ignores the fault spec. The config is
    /// noisy, so the profile is simulated, and on inception_v1 a profile
    /// that kept the drops or the crash would change TAC's order. Each
    /// schedule is derived cold, on a cache of its own, the way
    /// `SessionBuilder::build` derives it: a shared cache strips the faults
    /// from its key too, so it would hand the second derivation the first
    /// one's schedule.
    #[test]
    fn tac_profiles_fault_free() {
        use tictac_graph::Model;
        use tictac_trace::{RetryPolicy, SimDuration as D};
        let model = Model::InceptionV1.build_with_batch(Mode::Training, 2);
        let cluster = ClusterSpec::new(2, 1);
        let tac = |faults: FaultSpec| {
            let config = SimConfig::cloud_gpu().with_faults(faults);
            let cache = crate::DeployCache::new();
            let (_, schedule) = cache
                .schedule(
                    &model,
                    &cluster,
                    SchedulerKind::Tac,
                    &config,
                    &Registry::disabled(),
                )
                .unwrap();
            schedule
        };
        let healthy = tac(FaultSpec::none());
        assert!(!healthy.is_unordered());
        let faulty = [
            FaultSpec::none()
                .with_drop_prob(0.3)
                .with_retry(RetryPolicy::fixed(D::from_micros(500), 60)),
            FaultSpec::none()
                .with_crashes(1.0, D::from_millis(5))
                .with_onset_window(D::from_millis(1)),
        ];
        for spec in faulty {
            assert_eq!(tac(spec.clone()), healthy, "{spec:?}");
        }
    }

    #[test]
    fn observed_runs_match_unobserved_and_populate_metrics() {
        use tictac_cluster::deploy;
        let model = tiny_mlp(Mode::Training, 8);
        let d = deploy(&model, &ClusterSpec::new(2, 1)).unwrap();
        let cfg = SimConfig::cloud_gpu();
        let s = no_ordering(d.graph());
        let plain = RunPlan::new(d.graph(), &s, &cfg)
            .and_then(|plan| plan.try_simulate(d.graph(), &s, 0))
            .unwrap();
        let registry = Registry::enabled();
        let quiet = FaultPlan::quiet();
        let observed =
            simulate_with_plan_observed(d.graph(), &s, &cfg, 0, &quiet, &registry).unwrap();
        assert_eq!(plain, observed, "observation must not perturb the run");

        let snap = registry.snapshot();
        assert!(snap.counter("sim.events").unwrap() > 0);
        assert_eq!(snap.counter("sim.retransmits"), Some(0));
        let compute_ops: u64 = (0..d.graph().devices().len())
            .map(|i| snap.counter(&format!("sim.dev{i}.ops")).unwrap())
            .sum();
        let transfers: u64 = (0..d.graph().channels().len())
            .map(|i| snap.counter(&format!("sim.chan{i}.transfers")).unwrap())
            .sum();
        let sends = d.graph().count_ops(|op| op.kind().is_send()) as u64;
        // Every op executes once: transfers cover send+recv pairs, compute
        // ops cover the rest.
        assert_eq!(transfers, sends);
        assert_eq!(compute_ops + 2 * transfers, d.graph().len() as u64);
        let bytes: u64 = (0..d.graph().channels().len())
            .map(|i| snap.counter(&format!("sim.chan{i}.bytes")).unwrap())
            .sum();
        assert!(bytes > 0);
        // Idle gauges exist and are bounded by the makespan.
        match snap.get("sim.chan0.idle_ns") {
            Some(tictac_obs::MetricValue::Gauge(idle)) => {
                assert!(*idle >= 0.0 && *idle <= plain.makespan().as_nanos() as f64);
            }
            other => panic!("expected idle gauge, got {other:?}"),
        }
        // A disabled registry records nothing.
        let disabled = Registry::disabled();
        let again = simulate_with_plan_observed(d.graph(), &s, &cfg, 0, &quiet, &disabled).unwrap();
        assert_eq!(plain, again);
        assert!(disabled.snapshot().entries.is_empty());
    }

    #[test]
    fn observed_session_matches_unobserved_and_records_metrics() {
        let plain = session(SchedulerKind::Tac).run();
        let registry = Registry::enabled();
        let observed = Session::builder(tiny_mlp(Mode::Training, 8))
            .cluster(ClusterSpec::new(2, 1))
            .config(SimConfig::cloud_gpu())
            .scheduler(SchedulerKind::Tac)
            .warmup(1)
            .iterations(4)
            .observe(registry.clone())
            .build()
            .unwrap();
        let report = observed.run();
        // Observation never perturbs results (schedule-compute wall time
        // legitimately differs).
        assert_eq!(report.iterations, plain.iterations);

        let snap = registry.snapshot();
        assert_eq!(snap.counter("session.iterations"), Some(4));
        assert_eq!(snap.counter("session.retries"), Some(0));
        assert!(snap.counter("sched.tac.merges").is_some());
        assert!(snap.counter("sim.events").unwrap() > 0);
        match snap.get("session.goodput_pct") {
            Some(tictac_obs::MetricValue::Gauge(v)) => assert_eq!(*v, 100.0),
            other => panic!("expected goodput gauge, got {other:?}"),
        }
    }

    /// Warm-ups are executed and discarded on the threaded runtime, which
    /// counts every iteration it executes, and skipped on the simulator,
    /// whose registry sees the measured iterations only. Both measure
    /// indices `2..5`: the last three of the threaded runtime's five, and
    /// on the simulator the three `trace_iteration` executes at them.
    #[test]
    fn warmups_are_executed_on_the_threaded_runtime_and_skipped_on_the_simulator() {
        let run = |threaded: Option<ExecOptions>| {
            let registry = Registry::enabled();
            let mut builder = Session::builder(tiny_mlp(Mode::Training, 8))
                .scheduler(SchedulerKind::Tic)
                .observe(registry.clone())
                .warmup(2)
                .iterations(3);
            if let Some(opts) = threaded {
                builder = builder.threaded(opts);
            }
            let session = builder.build().unwrap();
            let report = session.run();
            (session, report, registry.snapshot())
        };
        let (_, threaded, counted) = run(Some(fast()));
        assert_eq!(
            counted.counter("exec.iterations"),
            Some(5),
            "warm-ups executed"
        );
        assert_eq!(counted.counter("session.iterations"), Some(3));
        assert_eq!(threaded.iterations.len(), 3);

        let (sim, virtual_time, counted) = run(None);
        assert_eq!(counted.counter("session.iterations"), Some(3));
        assert!(
            counted
                .entries
                .iter()
                .all(|(name, _)| !name.starts_with("exec.")),
            "nothing executes on the threaded runtime"
        );
        let measured: Vec<_> = (2..5)
            .map(|i| sim.trace_iteration(i).unwrap().makespan())
            .collect();
        let reported: Vec<_> = virtual_time.iterations.iter().map(|r| r.makespan).collect();
        assert_eq!(reported, measured);
    }

    #[test]
    fn skipped_warmups_leave_reports_records_and_counters_as_if_run() {
        use tictac_store::MemorySink;
        let sink = std::sync::Arc::new(MemorySink::new());
        let build = |warmup, registry: Registry| {
            Session::builder(tiny_mlp(Mode::Training, 8))
                .cluster(ClusterSpec::new(2, 1))
                .scheduler(SchedulerKind::Tac)
                .warmup(warmup)
                .iterations(3)
                .observe(registry)
                .record_to(sink.clone())
                .build()
                .unwrap()
        };
        let warmed = build(2, Registry::disabled()).try_run().unwrap();
        let shifted = build(0, Registry::disabled())
            .try_run_with(RunOptions::new().offset(2))
            .unwrap();
        assert_eq!(warmed.iterations, shifted.iterations);
        let lines: Vec<String> = sink.take().iter().map(RunRecord::encode).collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], lines[1], "the stored bytes are the same");

        // An observed session's engine counters cover what was simulated:
        // the measured iterations 2, 3 and 4, each counted here on its own.
        let registry = Registry::enabled();
        let observed = build(2, registry.clone());
        assert_eq!(observed.try_run().unwrap().iterations, warmed.iterations);
        let events: u64 = (2..5)
            .map(|i| {
                let counted = Registry::enabled();
                crate::simulate_with_plan_observed(
                    observed.deployed().graph(),
                    observed.schedule(),
                    &SimConfig::cloud_gpu(),
                    i,
                    &tictac_sim::FaultPlan::quiet(),
                    &counted,
                )
                .unwrap();
                counted.snapshot().counter("sim.events").unwrap()
            })
            .sum();
        assert_eq!(registry.snapshot().counter("sim.events"), Some(events));
    }

    #[test]
    fn recorded_sessions_emit_deterministic_run_records() {
        use tictac_store::{diff_records, MemorySink, Payload};
        let sink = std::sync::Arc::new(MemorySink::new());
        let run = || {
            Session::builder(tiny_mlp(Mode::Training, 8))
                .cluster(ClusterSpec::new(2, 1))
                .config(SimConfig::cloud_gpu())
                .scheduler(SchedulerKind::Tac)
                .warmup(1)
                .iterations(4)
                .record_to(sink.clone())
                .build()
                .unwrap()
                .run()
        };
        let report = run();
        run();
        let mut records = sink.take();
        assert_eq!(records.len(), 2);
        let (a, b) = (records.remove(0), records.remove(0));
        assert_eq!(a.workload, "tiny_mlp");
        assert_eq!(a.scheduler, "tac");
        assert_eq!(a.backend, "sim");
        assert_eq!(a.seed, SimConfig::cloud_gpu().seed);
        assert_eq!(a.workers, 2);
        assert_eq!(a.ps, 1);
        assert_ne!(a.model_fp, 0);
        // Same seed, same config: payloads are byte-identical and the
        // diff reports zero drift.
        let (pa, pb) = match (&a.payload, &b.payload) {
            (Payload::Session(pa), Payload::Session(pb)) => (pa, pb),
            other => panic!("expected session payloads, got {other:?}"),
        };
        assert_eq!(pa, pb);
        assert!(diff_records(&a, &b).is_zero());
        // The payload mirrors the report the caller saw.
        assert_eq!(pa.iterations.len(), report.iterations.len());
        assert_eq!(
            pa.iterations[0].makespan_ns,
            report.iterations[0].makespan.as_nanos()
        );
        // An enforced TAC schedule on the in-order sim executes without
        // inversions.
        assert!(pa.iterations.iter().all(|i| i.inversions == 0));
    }

    #[test]
    fn session_exports_valid_perfetto_trace() {
        let s = session(SchedulerKind::Tic);
        let json = s.perfetto_json(0).unwrap();
        let stats = tictac_obs::validate_perfetto(&json).unwrap();
        assert!(stats.slices > 0);
        // Every device renders at least one slice.
        assert!(stats.slices_per_process.iter().all(|(_, n)| *n > 0));
        // The exported trace matches the iteration the run loop simulates.
        let trace = s.trace_iteration(0).unwrap();
        assert_eq!(
            json,
            tictac_obs::perfetto_json(s.deployed().graph(), &trace, "tiny_mlp/tic/iter0")
        );
    }

    #[test]
    fn from_scenario_builds_equivalent_sessions() {
        let doc = "\
model: alexnet_v2
cluster:
  workers: 2
  parameter_servers: 1
scheduler: tic
iterations: 3
warmup: 1
";
        let scenario = Scenario::parse(doc).unwrap();
        let from_scenario = Session::from_scenario(&scenario).unwrap();
        let by_hand = Session::builder(
            tictac_graph::Model::AlexNetV2.build_with_batch(Mode::Training, scenario.batch),
        )
        .cluster(ClusterSpec::new(2, 1))
        .config(SimConfig::cloud_gpu())
        .scheduler(SchedulerKind::Tic)
        .warmup(1)
        .iterations(3)
        .build()
        .unwrap();
        // Both construction paths produce the same schedule and the same
        // measured iterations.
        assert_eq!(from_scenario.schedule(), by_hand.schedule());
        assert_eq!(from_scenario.run().iterations, by_hand.run().iterations);
    }

    #[test]
    fn scenario_sessions_stamp_records_with_the_fingerprint() {
        use tictac_store::MemorySink;
        let doc = "\
model: alexnet_v2
cluster:
  workers: 2
  parameter_servers: 1
scheduler: tac
backend: threaded
time_scale: 0.5
iterations: 2
warmup: 0
";
        let scenario = Scenario::parse(doc).unwrap();
        let sink = std::sync::Arc::new(MemorySink::new());
        // `record_to` after from_scenario is not available (from_scenario
        // returns a Session), so go through the builder path with the
        // same settings to verify the fp lands in records.
        let session = Session::builder(
            scenario
                .model
                .build_with_batch(scenario.mode, scenario.batch),
        )
        .settings(SessionConfig {
            cluster: scenario.cluster.clone(),
            config: scenario.sim_config(),
            scheduler: scenario.scheduler,
            warmup: scenario.warmup,
            iterations: scenario.iterations,
            scenario_fp: scenario.fingerprint(),
        })
        .record_to(sink.clone())
        .build()
        .unwrap();
        session.run();
        let records = sink.take();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].scenario_fp, scenario.fingerprint());
        assert_ne!(records[0].scenario_fp, 0);
        // The threaded scenario builds too, and carries its own backend.
        let threaded = Session::from_scenario(&scenario).unwrap();
        assert_eq!(threaded.backend(), BackendKind::Threaded);
        assert_eq!(threaded.schedule(), session.schedule());
    }

    #[test]
    fn a_faulty_threaded_scenario_is_refused_at_build() {
        let doc = "\
model: alexnet_v2
cluster:
  workers: 2
  parameter_servers: 1
backend: [sim, threaded]
faults:
  drop_prob: 0.01
";
        let grid = Scenario::parse_grid(doc).unwrap();
        assert_eq!(grid.len(), 2);
        assert!(Session::from_scenario(&grid[0]).is_ok(), "sim runs faults");
        match Session::from_scenario(&grid[1]) {
            Err(ScenarioBuildError::Backend(SimError::UnsupportedConfig { knob, .. })) => {
                assert_eq!(knob, "faults");
            }
            other => panic!("expected a refused backend, got {:?}", other.err()),
        }
    }

    /// A threaded session's config is checked once, at `build`, where the
    /// backend and the config are both known: whichever of `.threaded`
    /// and `.config` comes first, a spec that can inject a fault or sets
    /// a degraded barrier is refused there (faults are simulated only),
    /// and so is a reorder error the wall clock cannot replay.
    #[test]
    fn a_threaded_session_is_checked_once_at_build_whatever_the_call_order() {
        use tictac_trace::SimDuration as D;
        let faulty = |faults| SimConfig::cloud_gpu().with_faults(faults);
        let refusals = [
            (faulty(FaultSpec::none().with_drop_prob(0.01)), "faults"),
            (
                faulty(FaultSpec::none().with_barrier_timeout(D::from_millis(5))),
                "faults",
            ),
            (
                SimConfig::cloud_gpu().with_reorder_error(0.5),
                "reorder_error",
            ),
        ];
        for (config, refused) in refusals {
            let builder = || Session::builder(tiny_mlp(Mode::Training, 8));
            for built in [
                builder().threaded(fast()).config(config.clone()).build(),
                builder().config(config.clone()).threaded(fast()).build(),
            ] {
                match built {
                    Err(ScenarioBuildError::Backend(SimError::UnsupportedConfig {
                        knob, ..
                    })) => assert_eq!(knob, refused),
                    other => panic!("expected {refused} refused, got {:?}", other.err()),
                }
            }
            assert!(builder().config(config).build().is_ok(), "the sim runs it");
        }
    }

    /// A threaded session whose reorder error is no rate in `[0, 0.01]`
    /// is refused at `build`: NaN and negative ones, which the `pub` field
    /// takes without `with_reorder_error`'s panic, as no probability at
    /// all ([`SimConfig::check`], on every backend), and a rate above 0.01
    /// as one the wall clock cannot honor. The range's ends build.
    #[test]
    fn a_threaded_session_with_a_reorder_error_outside_its_range_is_refused_at_build() {
        let threaded = |reorder_error| {
            let mut config = SimConfig::cloud_gpu();
            config.reorder_error = reorder_error;
            Session::builder(tiny_mlp(Mode::Training, 8))
                .config(config)
                .threaded(fast())
                .build()
        };
        for (reorder_error, message) in [
            (f64::NAN, "NaN is not a probability in [0, 1]"),
            (-0.5, "-0.5 is not a probability in [0, 1]"),
        ] {
            match threaded(reorder_error) {
                Err(ScenarioBuildError::Backend(SimError::InvalidKnob { knob, reason })) => {
                    assert_eq!((knob, reason.as_str()), ("reorder_error", message));
                }
                other => panic!("{reorder_error}: expected a refusal, got {:?}", other.err()),
            }
        }
        match threaded(0.5) {
            Err(ScenarioBuildError::Backend(SimError::UnsupportedConfig { knob, reason })) => {
                let message = "injected reorder rate 0.5 exceeds what physical hand-off \
                               jitter reproduces (max 0.01)";
                assert_eq!((knob, reason.as_str()), ("reorder_error", message));
            }
            other => panic!("0.5: expected a refusal, got {:?}", other.err()),
        }
        for fine in [0.0, 0.01] {
            assert!(threaded(fine).is_ok(), "{fine}");
        }
    }

    /// A threaded session whose `time_scale` no wall-clock duration can
    /// replay is refused at `build`, not by a panic in the first run.
    #[test]
    fn a_threaded_session_with_a_degenerate_time_scale_is_refused_at_build() {
        for time_scale in [0.0, -0.5, f64::NAN, f64::INFINITY] {
            let built = Session::builder(tiny_mlp(Mode::Training, 8))
                .threaded(ExecOptions {
                    time_scale,
                    ..ExecOptions::default()
                })
                .build();
            match built {
                Err(ScenarioBuildError::Backend(SimError::UnsupportedConfig { knob, .. })) => {
                    assert_eq!(knob, "time_scale");
                }
                other => panic!("{time_scale}: expected a refusal, got {:?}", other.err()),
            }
        }
        let fine = Session::builder(tiny_mlp(Mode::Training, 8)).threaded(fast());
        assert!(fine.build().is_ok());
    }

    #[test]
    fn each_kind_lowers_onto_its_free_function() {
        // Inception's branches give TAC an order that the profiled
        // oracle decides: under the general oracle it would differ.
        let config = SimConfig::deterministic(tictac_trace::Platform::cloud_gpu());
        for kind in SchedulerKind::ALL {
            let s = Session::builder(tictac_graph::Model::InceptionV1.build(Mode::Training))
                .cluster(ClusterSpec::new(2, 1))
                .config(config.clone())
                .scheduler(kind)
                .build()
                .unwrap();
            let (graph, w) = (s.deployed().graph(), s.deployed().workers()[0]);
            let direct = match kind {
                SchedulerKind::Baseline => no_ordering(graph),
                SchedulerKind::Random => {
                    random_order(graph, w, &mut SmallRng::seed_from_u64(config.seed ^ 0x5EED))
                }
                SchedulerKind::Tic => tictac_sched::tic(graph, w),
                SchedulerKind::Tac => {
                    tictac_sched::tac(graph, w, &noise_free_profile(graph, &config))
                }
            };
            assert_eq!(
                s.schedule(),
                &s.deployed().replicate_schedule(&direct),
                "{kind}"
            );
        }
    }

    #[test]
    fn scheduler_kinds_display() {
        assert_eq!(SchedulerKind::Tic.to_string(), "tic");
        assert_eq!(SchedulerKind::ALL.len(), 4);
    }

    /// The threaded runtime at half the modeled time.
    fn fast() -> ExecOptions {
        ExecOptions {
            time_scale: 0.5,
            ..ExecOptions::default()
        }
    }

    fn threaded_session(kind: SchedulerKind) -> Session {
        Session::builder(tiny_mlp(Mode::Training, 8))
            .cluster(ClusterSpec::new(2, 1))
            .config(SimConfig::cloud_gpu())
            .scheduler(kind)
            .threaded(fast())
            .warmup(1)
            .iterations(2)
            .build()
            .unwrap()
    }

    #[test]
    fn threaded_backend_runs_and_labels_wall_clock_traces() {
        let s = threaded_session(SchedulerKind::Tac);
        assert_eq!(s.backend(), BackendKind::Threaded);
        let report = s.run();
        assert_eq!(report.iterations.len(), 2);
        assert!(report.mean_throughput() > 0.0);
        assert!(report.mean_makespan() > SimDuration::ZERO);
        let json = s.perfetto_json(0).unwrap();
        assert!(
            json.contains("tiny_mlp/tac/threaded/iter0 [wall-clock]"),
            "wall-clock traces are labeled"
        );
        let stats = tictac_obs::validate_perfetto(&json).unwrap();
        assert!(stats.slices > 0);
    }

    #[test]
    fn backend_choice_never_changes_the_schedule() {
        for kind in SchedulerKind::ALL {
            assert_eq!(
                session(kind).schedule(),
                threaded_session(kind).schedule(),
                "{kind}: schedules must be identical across backends"
            );
        }
    }
}

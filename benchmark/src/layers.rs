//! The program under test, as the benchmark sees it.
//!
//! This is the only file that names an item of `tictac` (or of
//! `tictac_obs`, for the JSON value). Everything else in the benchmark
//! calls these wrappers and treats the handle types as opaque, so the
//! functions used here are the surface a later refactor must keep (as
//! thin wrappers if need be) or change together with this file. The
//! pinned surface is listed in `README.md`.
//!
//! Wrappers are deliberately thin: one program call each, no timing, no
//! spans. The harness decides what to time.

use std::collections::HashMap;
use std::sync::Arc;

use tictac::scenario::Scenario;
use tictac::store::RunStore;
use tictac::{
    analyze as trace_analyze, auto_tune_with, deploy as cluster_deploy, diff_records, efficiency,
    estimate_profile as trace_estimate_profile, no_ordering, overlap_report, perfetto_json,
    priority_inversions, realized_efficiency as obs_realized_efficiency, regress as store_regress,
    selected_engine, simulate as sim_simulate, simulate_with_plan_observed, tac_observed,
    tic_observed, validate_perfetto, ClusterSpec, DeployCache, DeployedModel, DeviceId,
    EngineChoice, ExecutionTrace, FaultCounters, FaultPlan, FaultSpec, Graph, MeasuredProfile,
    MemorySink, MetricValue, Mode, Model, ModelGraph, OpId, Payload, Platform, Registry,
    RegressPolicy, RunFilter, RunRecord, RunSink, Schedule, SchedulerKind, Session, SimConfig,
    SimDuration, SimTime, TuneOptions,
};

pub use tictac_obs::{parse_json, render_json, render_json_pretty, Json};

use crate::points::{Built, Env};

/// Iteration-index base of the TAC profiling runs (mirrors the session's
/// private constant, so staged profiles equal the session's).
const PROFILE_ITERATION_BASE: u64 = 1 << 40;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

// ---------------------------------------------------------------------------
// Specs: one fully-specified grid point
// ---------------------------------------------------------------------------

/// One grid point: either an expanded scenario or a builder-made session.
#[derive(Debug, Clone)]
pub struct Spec {
    scenario: Option<Scenario>,
    model: Model,
    batch: usize,
    cluster: ClusterSpec,
    config: SimConfig,
    scheduler: SchedulerKind,
    warmup: usize,
    iterations: usize,
}

/// `Scenario::parse_grid`: a scenario document to its grid of points.
pub fn parse_grid(text: &str) -> Result<Vec<Spec>, String> {
    Ok(Scenario::parse_grid(text)
        .map_err(err)?
        .into_iter()
        .map(|s| Spec {
            model: s.model,
            batch: s.batch,
            cluster: s.cluster.clone(),
            config: s.sim_config(),
            scheduler: s.scheduler,
            warmup: s.warmup,
            iterations: s.iterations,
            scenario: Some(s),
        })
        .collect())
}

impl Spec {
    /// A point assembled the way `Session::builder` callers do.
    pub fn built(b: &Built) -> Result<Spec, String> {
        let model =
            Model::from_name(b.model).ok_or_else(|| format!("unknown model {}", b.model))?;
        let scheduler = SchedulerKind::from_name(b.scheduler)
            .ok_or_else(|| format!("unknown scheduler {}", b.scheduler))?;
        let config = match b.env {
            Env::G => SimConfig::cloud_gpu(),
            Env::Deterministic => {
                SimConfig::deterministic(Platform::cloud_gpu()).with_disorder_window(Some(1))
            }
        };
        Ok(Spec {
            scenario: None,
            model,
            batch: b.batch.unwrap_or_else(|| model.default_batch()),
            cluster: ClusterSpec::try_new(b.workers, b.ps).map_err(err)?,
            config: config.with_seed(b.seed),
            scheduler,
            warmup: b.warmup,
            iterations: b.iterations,
        })
    }

    /// The same point with the engine choice forced: parallel whenever
    /// the configuration is eligible at all, or never.
    pub fn force_engine(&self, parallel: bool) -> Spec {
        let mut spec = self.clone();
        spec.config = spec
            .config
            .with_par_threshold(if parallel { Some(1) } else { None });
        spec
    }

    /// Drops the measured run: the point is only built, deployed and
    /// scheduled (what exporting a single iteration needs).
    pub fn no_iterations(&mut self) {
        self.warmup = 0;
        self.iterations = 0;
    }

    /// The same point on a fault-free cluster.
    pub fn without_faults(&self) -> Spec {
        let mut spec = self.clone();
        spec.config = spec.config.with_faults(FaultSpec::none());
        spec
    }

    pub fn model_name(&self) -> &'static str {
        self.model.name()
    }

    pub fn scheduler_name(&self) -> &'static str {
        self.scheduler.name()
    }

    pub fn warmup(&self) -> usize {
        self.warmup
    }

    pub fn iterations(&self) -> usize {
        self.iterations
    }

    pub fn batch(&self) -> usize {
        self.batch
    }

    pub fn has_comm_passes(&self) -> bool {
        !self.cluster.comm().is_default()
    }

    /// Whether priority inversions are impossible at this point: sender-side
    /// enforcement on in-order channels (no modelled reorder error) of a
    /// fault-free cluster.
    pub fn inversion_free(&self) -> bool {
        self.config.enforcement && self.config.reorder_error == 0.0 && self.config.faults.is_quiet()
    }

    /// Everything but the scheduler: points sharing a group differ only
    /// in policy, so their throughputs are comparable.
    pub fn group_key(&self) -> String {
        format!(
            "{}/b{}/{:?}/{}/seed{}/f{:x}",
            self.model.name(),
            self.batch,
            self.cluster,
            self.config.platform.name(),
            self.config.seed,
            self.config.faults.fingerprint()
        )
    }

    /// `Scenario::fingerprint` (0 for builder-made points).
    pub fn scenario_fingerprint(&self) -> u64 {
        self.scenario.as_ref().map_or(0, Scenario::fingerprint)
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// A metrics registry handle.
#[derive(Debug, Clone)]
pub struct RegistryH(Registry);

impl RegistryH {
    pub fn enabled() -> Self {
        RegistryH(Registry::enabled())
    }

    pub fn disabled() -> Self {
        RegistryH(Registry::disabled())
    }

    pub fn is_enabled(&self) -> bool {
        self.0.is_enabled()
    }

    /// Current value of counter `name` (0 when absent or disabled).
    pub fn counter(&self, name: &str) -> u64 {
        self.0.snapshot().counter(name).unwrap_or(0)
    }
}

/// `Registry::snapshot` rendered as one JSON object, metric by metric.
pub fn snapshot_json(registry: &RegistryH) -> String {
    let nums = |v: &[u64]| Json::Arr(v.iter().map(|&n| Json::Num(n as f64)).collect());
    let fields = registry
        .0
        .snapshot()
        .entries
        .into_iter()
        .map(|(name, value)| {
            let value = match value {
                MetricValue::Counter(v) => Json::Num(v as f64),
                MetricValue::Gauge(v) => Json::Num(v),
                MetricValue::Histogram(h) => Json::Obj(vec![
                    ("bounds".into(), nums(&h.bounds)),
                    ("buckets".into(), nums(&h.buckets)),
                    ("count".into(), Json::Num(h.count as f64)),
                    ("sum".into(), Json::Num(h.sum as f64)),
                    ("max".into(), Json::Num(h.max as f64)),
                ]),
                MetricValue::Timer(t) => Json::Obj(vec![
                    ("count".into(), Json::Num(t.count as f64)),
                    ("total_ns".into(), Json::Num(t.total_ns as f64)),
                    ("max_ns".into(), Json::Num(t.max_ns as f64)),
                ]),
            };
            (name, value)
        })
        .collect();
    render_json(&Json::Obj(fields))
}

// ---------------------------------------------------------------------------
// The black-box path: Session
// ---------------------------------------------------------------------------

/// A built `Session`.
#[derive(Debug)]
pub struct SessionH(Session);

/// What a finished run reports, as plain numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOut {
    pub makespans_ns: Vec<u64>,
    pub efficiencies: Vec<f64>,
    pub mean_throughput: f64,
    pub retransmits: u64,
    pub drops: u64,
}

/// An in-memory record sink (`MemorySink`).
#[derive(Debug, Clone, Default)]
pub struct SinkH(Arc<MemorySink>);

impl SinkH {
    pub fn take(&self) -> Vec<RecordH> {
        self.0.take().into_iter().map(RecordH).collect()
    }
}

/// `Session::from_scenario` for scenario points, `Session::builder` …
/// `.build()` for built ones. Scenario points carry their own store
/// target; `sink` routes a built point's record.
pub fn session_build(
    spec: &Spec,
    registry: &RegistryH,
    sink: Option<&SinkH>,
) -> Result<SessionH, String> {
    if let Some(scenario) = &spec.scenario {
        return Session::from_scenario(scenario).map(SessionH).map_err(err);
    }
    let mut builder = Session::builder(spec.model.build_with_batch(Mode::Training, spec.batch))
        .cluster(spec.cluster.clone())
        .config(spec.config.clone())
        .scheduler(spec.scheduler)
        .warmup(spec.warmup)
        .iterations(spec.iterations)
        .observe(registry.0.clone());
    if let Some(sink) = sink {
        builder = builder.record_to(sink.0.clone() as Arc<dyn RunSink>);
    }
    builder.build().map(SessionH).map_err(err)
}

/// `Session::try_run`.
pub fn session_run(session: &SessionH) -> Result<RunOut, String> {
    let report = session.0.try_run().map_err(err)?;
    let faults = report.total_faults();
    Ok(RunOut {
        makespans_ns: report
            .iterations
            .iter()
            .map(|r| r.makespan.as_nanos())
            .collect(),
        efficiencies: report.iterations.iter().map(|r| r.efficiency).collect(),
        mean_throughput: report.mean_throughput(),
        retransmits: faults.retransmits,
        drops: faults.drops,
    })
}

impl SessionH {
    /// `Session::trace_iteration`.
    pub fn trace_iteration(&self, iteration: u64) -> Result<TraceH, String> {
        self.0.trace_iteration(iteration).map(TraceH).map_err(err)
    }

    pub fn view(&self) -> View<'_> {
        View {
            graph: self.0.deployed().graph(),
            workers: self.0.deployed().workers(),
            schedule: self.0.schedule(),
        }
    }
}

// ---------------------------------------------------------------------------
// The staged path: the same pipeline, one public function at a time
// ---------------------------------------------------------------------------

#[derive(Debug)]
pub struct ModelH(ModelGraph);
#[derive(Debug, Clone)]
pub struct DeployedH(Arc<DeployedModel>);
#[derive(Debug)]
pub struct ScheduleH(Schedule);
#[derive(Debug, PartialEq, Eq)]
pub struct TraceH(ExecutionTrace);
#[derive(Debug)]
pub struct ProfileH(MeasuredProfile);
#[derive(Debug)]
pub struct PlanH(FaultPlan);

/// A deployed graph, its worker devices and the schedule enforced on it:
/// what every analyzer reads.
#[derive(Debug, Clone, Copy)]
pub struct View<'a> {
    graph: &'a Graph,
    workers: &'a [DeviceId],
    schedule: &'a Schedule,
}

pub fn view<'a>(deployed: &'a DeployedH, schedule: &'a ScheduleH) -> View<'a> {
    View {
        graph: deployed.0.graph(),
        workers: deployed.0.workers(),
        schedule: &schedule.0,
    }
}

impl View<'_> {
    pub fn graph_ops(&self) -> usize {
        self.graph.len()
    }

    /// Devices of the deployment (workers and parameter servers).
    pub fn devices(&self) -> usize {
        self.graph.devices().len()
    }

    /// Recv ops of the reference worker: what TIC/TAC rank.
    pub fn reference_recvs(&self) -> usize {
        self.graph.recv_ops_on(self.workers[0]).len()
    }
}

impl TraceH {
    pub fn makespan_ns(&self) -> u64 {
        self.0.makespan().as_nanos()
    }
}

/// `Model::build_with_batch`.
pub fn build_model(spec: &Spec) -> ModelH {
    ModelH(spec.model.build_with_batch(Mode::Training, spec.batch))
}

/// Deployments of one pass, keyed like the program's own `DeployCache`
/// (model fingerprint, cluster spec), so the staged path reuses what the
/// session path reuses.
#[derive(Debug, Default)]
pub struct DeployMemo(HashMap<(u64, ClusterSpec), DeployedH>);

impl DeployMemo {
    pub fn get(&self, model: &ModelH, spec: &Spec) -> Option<DeployedH> {
        self.0
            .get(&(model.0.fingerprint(), spec.cluster.clone()))
            .cloned()
    }

    pub fn put(&mut self, model: &ModelH, spec: &Spec, deployed: &DeployedH) {
        self.0.insert(
            (model.0.fingerprint(), spec.cluster.clone()),
            deployed.clone(),
        );
    }
}

/// `deploy` (with the partition/fusion passes when the spec asks).
pub fn deploy(model: &ModelH, spec: &Spec) -> Result<DeployedH, String> {
    cluster_deploy(&model.0, &spec.cluster)
        .map(|d| DeployedH(Arc::new(d)))
        .map_err(err)
}

/// The unordered schedule (`no_ordering`): the baseline's, and what TAC
/// profiles under.
pub fn unordered(deployed: &DeployedH) -> ScheduleH {
    ScheduleH(no_ordering(deployed.0.graph()))
}

/// One TAC profiling run: unordered, fault-free, at the session's
/// profiling iteration index. With a disabled registry this is exactly
/// the `simulate` call the session makes.
pub fn profile_simulate(
    deployed: &DeployedH,
    unordered: &ScheduleH,
    spec: &Spec,
    run: u64,
) -> TraceH {
    let config = spec.config.clone().with_faults(FaultSpec::none());
    TraceH(sim_simulate(
        deployed.0.graph(),
        &unordered.0,
        &config,
        PROFILE_ITERATION_BASE + run,
    ))
}

/// `estimate_profile`: min-of-runs time oracle.
pub fn estimate_profile(traces: Vec<TraceH>) -> ProfileH {
    let traces: Vec<ExecutionTrace> = traces.into_iter().map(|t| t.0).collect();
    ProfileH(trace_estimate_profile(&traces))
}

/// `tic` on the reference worker (`tic_observed` with the point's
/// registry, as the session calls it).
pub fn tic(deployed: &DeployedH, registry: &RegistryH) -> ScheduleH {
    ScheduleH(tic_observed(
        deployed.0.graph(),
        deployed.0.workers()[0],
        &registry.0,
    ))
}

/// `tac` on the reference worker under the profiled oracle.
pub fn tac(deployed: &DeployedH, profile: &ProfileH, registry: &RegistryH) -> ScheduleH {
    ScheduleH(tac_observed(
        deployed.0.graph(),
        deployed.0.workers()[0],
        &profile.0,
        &registry.0,
    ))
}

/// `DeployedModel::replicate_schedule`.
pub fn replicate(deployed: &DeployedH, reference: &ScheduleH) -> ScheduleH {
    ScheduleH(deployed.0.replicate_schedule(&reference.0))
}

/// `selected_engine`: whether `simulate*` would pick the parallel engine
/// for this point's measured iterations — or, with `profiling`, for its
/// fault-free TAC profiling runs.
pub fn engine_is_parallel(deployed: &DeployedH, spec: &Spec, profiling: bool) -> bool {
    let choice = if profiling && !spec.config.faults.is_quiet() {
        let quiet = spec.config.clone().with_faults(FaultSpec::none());
        selected_engine(deployed.0.graph(), &quiet)
    } else {
        selected_engine(deployed.0.graph(), &spec.config)
    };
    choice == EngineChoice::Parallel
}

/// `FaultPlan::sample` for one iteration.
pub fn sample_plan(deployed: &DeployedH, spec: &Spec, iteration: u64) -> PlanH {
    PlanH(FaultPlan::sample(
        &spec.config.faults,
        deployed.0.graph(),
        spec.config.seed,
        iteration,
    ))
}

/// `simulate_with_plan_observed`: one iteration under a sampled plan —
/// what `try_simulate_observed` does after sampling the plan itself.
pub fn simulate(
    deployed: &DeployedH,
    schedule: &ScheduleH,
    spec: &Spec,
    iteration: u64,
    plan: &PlanH,
    registry: &RegistryH,
) -> Result<TraceH, String> {
    simulate_with_plan_observed(
        deployed.0.graph(),
        &schedule.0,
        &spec.config,
        iteration,
        &plan.0,
        &registry.0,
    )
    .map(TraceH)
    .map_err(err)
}

/// One measured iteration, as the session records it.
#[derive(Debug, Clone, PartialEq)]
pub struct IterOut {
    pub makespan_ns: u64,
    pub throughput: f64,
    pub straggler_pct: f64,
    pub goodput_pct: f64,
    pub efficiency: f64,
    pub speedup_potential: f64,
    pub inversions: u64,
    faults: FaultCounters,
}

impl IterOut {
    pub fn retransmits(&self) -> u64 {
        self.faults.retransmits
    }

    pub fn drops(&self) -> u64 {
        self.faults.drops
    }
}

/// `analyze`: makespan, throughput, straggler share, fault counters.
pub fn analyze(view: View<'_>, trace: &TraceH, batch: usize) -> IterOut {
    let metrics = trace_analyze(view.graph, view.workers, &trace.0);
    IterOut {
        makespan_ns: metrics.makespan.as_nanos(),
        throughput: metrics.throughput(batch, view.workers.len()),
        straggler_pct: metrics.straggler_pct,
        goodput_pct: metrics.goodput_pct,
        efficiency: 1.0,
        speedup_potential: 0.0,
        inversions: 0,
        faults: metrics.faults,
    }
}

/// Ops of every worker partition, gathered once per session.
#[derive(Debug)]
pub struct WorkerOps(Vec<Vec<OpId>>);

pub fn worker_ops(view: View<'_>) -> WorkerOps {
    WorkerOps(
        view.workers
            .iter()
            .map(|&w| view.graph.ops_on(w).collect())
            .collect(),
    )
}

/// `efficiency::evaluate` per worker partition with measured durations:
/// (the slowest worker's clamped Eq. 3 efficiency, the last worker's
/// Eq. 4 potential), the session's bookkeeping.
pub fn efficiency_of(view: View<'_>, ops: &WorkerOps, trace: &TraceH) -> (f64, f64) {
    let mut min_e = 1.0_f64;
    let mut potential = 0.0;
    for (&w, ops) in view.workers.iter().zip(&ops.0) {
        let finish = trace
            .0
            .device_finish(view.graph, w)
            .map(|t| t.duration_since(SimTime::ZERO))
            .unwrap_or(SimDuration::ZERO);
        let report = efficiency::evaluate(view.graph, ops, |op| trace.0.duration(op), finish);
        min_e = min_e.min(report.efficiency_clamped());
        potential = report.speedup_potential;
    }
    (min_e, potential)
}

/// `priority_inversions` against the enforced schedule.
pub fn inversions(view: View<'_>, trace: &TraceH) -> u64 {
    priority_inversions(view.graph, &trace.0, |op| view.schedule.priority(op)).count() as u64
}

// ---------------------------------------------------------------------------
// Observability: analyzers and the Perfetto exporter
// ---------------------------------------------------------------------------

/// `overlap_report`: fraction of communication hidden under compute.
pub fn overlap_frac(view: View<'_>, trace: &TraceH) -> f64 {
    overlap_report(view.graph, &trace.0).overlap_frac()
}

/// `realized_efficiency`: Eq. 3 from observed durations.
pub fn realized_efficiency(view: View<'_>, trace: &TraceH) -> f64 {
    obs_realized_efficiency(view.graph, &trace.0).efficiency
}

/// `perfetto_json`.
pub fn perfetto_render(view: View<'_>, trace: &TraceH, label: &str) -> String {
    perfetto_json(view.graph, &trace.0, label)
}

/// What the validator saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneStats {
    pub slices: usize,
    /// Processes (devices) that rendered at least one slice.
    pub devices_with_slices: usize,
}

/// `validate_perfetto`.
pub fn perfetto_validate(json: &str) -> Result<LaneStats, String> {
    let stats = validate_perfetto(json)?;
    Ok(LaneStats {
        slices: stats.slices,
        devices_with_slices: stats
            .slices_per_process
            .iter()
            .filter(|(_, n)| *n > 0)
            .count(),
    })
}

// ---------------------------------------------------------------------------
// Run store
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
pub struct RecordH(RunRecord);
#[derive(Debug)]
pub struct StoreH(RunStore);

/// The `RunRecord` a session assembles for a finished run.
pub fn make_record(
    spec: &Spec,
    model: &ModelH,
    scenario_fp: u64,
    iterations: &[IterOut],
    registry: &RegistryH,
) -> RecordH {
    let mut faults = FaultCounters::default();
    for it in iterations {
        faults.merge(&it.faults);
    }
    let evidence = tictac::store::SessionEvidence {
        iterations: iterations
            .iter()
            .map(|it| tictac::store::IterationEvidence {
                makespan_ns: it.makespan_ns,
                throughput: it.throughput,
                straggler_pct: it.straggler_pct,
                efficiency: it.efficiency,
                speedup_potential: it.speedup_potential,
                goodput_pct: it.goodput_pct,
                inversions: it.inversions,
            })
            .collect(),
        faults,
        snapshot: registry.0.snapshot(),
    };
    RecordH(RunRecord {
        id: String::new(),
        time_ms: 0,
        source: "session".into(),
        workload: spec.model.name().to_string(),
        model_fp: model.0.fingerprint(),
        workers: spec.cluster.workers as u32,
        ps: spec.cluster.parameter_servers as u32,
        scheduler: spec.scheduler.to_string(),
        backend: "sim".into(),
        seed: spec.config.seed,
        fault_fp: spec.config.faults.fingerprint(),
        scenario_fp,
        comm_fp: spec.cluster.comm().fingerprint(),
        provenance: String::new(),
        payload: Payload::Session(evidence),
    })
}

/// What the harness checks in a stored record.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordView {
    pub workload: String,
    pub scheduler: String,
    pub faulty: bool,
    pub inversions: u64,
    pub makespans_ns: Vec<u64>,
}

impl RecordH {
    /// `RunRecord::encode`.
    pub fn encode(&self) -> String {
        self.0.encode()
    }

    /// `RunRecord::decode`.
    pub fn decode(line: &str) -> Result<RecordH, String> {
        RunRecord::decode(line).map(RecordH)
    }

    /// The same evidence under another seed: a fresh record ready to
    /// append.
    pub fn with_seed(&self, seed: u64) -> RecordH {
        let mut record = self.0.clone();
        record.seed = seed;
        RecordH(record)
    }

    pub fn view(&self) -> RecordView {
        record_view(&self.0)
    }
}

fn record_view(record: &RunRecord) -> RecordView {
    let (inversions, makespans_ns) = match &record.payload {
        Payload::Session(s) => (
            s.iterations.iter().map(|i| i.inversions).sum(),
            s.iterations.iter().map(|i| i.makespan_ns).collect(),
        ),
        _ => (0, Vec::new()),
    };
    RecordView {
        workload: record.workload.clone(),
        scheduler: record.scheduler.clone(),
        faulty: record.fault_fp != FaultSpec::none().fingerprint(),
        inversions,
        makespans_ns,
    }
}

impl StoreH {
    /// `RunStore::at`.
    pub fn at(path: &std::path::Path) -> StoreH {
        StoreH(RunStore::at(path))
    }

    /// `RunStore::append`.
    pub fn append(&self, record: RecordH) -> Result<(), String> {
        self.0.append(record.0).map(drop).map_err(err)
    }

    /// `RunStore::load`.
    pub fn load(&self) -> Result<Corpus, String> {
        self.0.load().map(Corpus).map_err(err)
    }
}

/// A loaded corpus, in append order.
#[derive(Debug)]
pub struct Corpus(Vec<RunRecord>);

impl Corpus {
    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn views(&self) -> Vec<RecordView> {
        self.0.iter().map(record_view).collect()
    }

    /// `RunFilter { workload }`: how many records match.
    pub fn filter_workload(&self, workload: &str) -> usize {
        let filter = RunFilter {
            workload: Some(workload.to_string()),
            ..RunFilter::default()
        };
        self.0.iter().filter(|r| filter.matches(r)).count()
    }

    /// `regress` under the default policy: (groups judged, whether any
    /// drifted).
    pub fn regress(&self) -> (usize, bool) {
        let report = store_regress(&self.0, &RegressPolicy::default());
        (report.groups.len(), report.failed())
    }

    /// `diff_records` on the last two records: whether every metric delta
    /// is zero (`None` with fewer than two records).
    pub fn diff_last_two_is_zero(&self) -> Option<bool> {
        match self.0.as_slice() {
            [.., a, b] => Some(diff_records(a, b).is_zero()),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Core: the deploy cache and the comm tuner
// ---------------------------------------------------------------------------

/// `DeployCache::global().clear()`: what makes a pass cold.
pub fn cache_clear() {
    DeployCache::global().clear();
}

/// `DeployCache::stats` of the global cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounts {
    pub deploy_hits: u64,
    pub deploy_misses: u64,
    pub schedule_hits: u64,
    pub schedule_misses: u64,
}

pub fn cache_counts() -> CacheCounts {
    let s = DeployCache::global().stats();
    CacheCounts {
        deploy_hits: s.deploy_hits,
        deploy_misses: s.deploy_misses,
        schedule_hits: s.schedule_hits,
        schedule_misses: s.schedule_misses,
    }
}

/// A private `DeployCache` for tuner runs (cold when new, warm on reuse).
#[derive(Debug, Default)]
pub struct TuneCacheH(DeployCache);

/// `auto_tune_with` under the default ladder; returns the number of
/// candidate evaluations.
pub fn auto_tune(cache: &TuneCacheH, spec: &Spec) -> Result<usize, String> {
    let model = spec.model.build_with_batch(Mode::Training, spec.batch);
    auto_tune_with(
        &cache.0,
        &model,
        &spec.cluster,
        spec.scheduler,
        &spec.config,
        &TuneOptions::default(),
    )
    .map(|r| r.evaluations)
    .map_err(err)
}

//! Chaos harness for the threaded runtime: randomized fault schedules
//! must never hang it, recovery must preserve DAG order, and — the
//! cross-backend contract — the same seed and [`FaultSpec`] must yield
//! identical [`FaultCounters`] on the simulator and on the wall clock
//! for every fault class whose accounting is timing-independent.
//!
//! Blackouts and crashes are excluded from the *exact-equality* suite by
//! design: the simulator kills in-flight transfers when a channel goes
//! dark (adding order-dependent drops), while the threaded runtime parks
//! the channel thread and lets the flight land. Those classes get their
//! own completion/accounting tests instead; see DESIGN.md §11.

use std::time::Duration;

use proptest::prelude::*;
use tictac::{
    deploy, no_ordering, run_iteration_injected, simulate, simulate_with_plan_observed,
    validate_perfetto, Blackout, ClusterSpec, Crash, DeployedModel, ExecOptions, ExecutionTrace,
    FaultCounters, FaultEventKind, FaultPlan, FaultSpec, Mode, Platform, Registry, RetryPolicy,
    SchedulerKind, Session, SimConfig, SimDuration, SimError, SimTime, Stall, ThreadedBackend,
};
use tictac_models::tiny_mlp;

/// The fault-free simulated makespan of a deployment — the yardstick all
/// fault instants and durations are expressed against, so specs scale
/// with the model instead of hard-coding microsecond constants.
fn clean_makespan(d: &DeployedModel) -> SimDuration {
    let s = no_ordering(d.graph());
    simulate(d.graph(), &s, &SimConfig::cloud_gpu(), 0).makespan()
}

/// A spec built from timing-independent fault classes only (drops,
/// stragglers, PS stalls), sized relative to the clean makespan `m`.
fn equivalence_spec(m: SimDuration, drops: bool, stragglers: bool, ps_stalls: bool) -> FaultSpec {
    let mut spec = FaultSpec::none()
        .with_onset_window(m.mul_f64(0.3))
        .with_retry(RetryPolicy::fixed(m.mul_f64(0.02), 60));
    if drops {
        spec = spec.with_drop_prob(0.15);
    }
    if stragglers {
        spec = spec.with_stragglers(0.5, 2.0);
    }
    if ps_stalls {
        spec = spec.with_ps_stalls(0.5, m.mul_f64(0.05));
    }
    spec
}

fn sessions_for(cfg: &SimConfig, scale: f64) -> (Session, Session) {
    let sim = Session::builder(tiny_mlp(Mode::Training, 8))
        .cluster(ClusterSpec::new(2, 1))
        .config(cfg.clone())
        .scheduler(SchedulerKind::Tac)
        .warmup(0)
        .iterations(1)
        .build()
        .expect("model deploys");
    let threaded = Session::builder(tiny_mlp(Mode::Training, 8))
        .cluster(ClusterSpec::new(2, 1))
        .config(cfg.clone())
        .scheduler(SchedulerKind::Tac)
        .backend(
            ThreadedBackend::from_config(cfg)
                .expect("preset config is supported")
                .with_time_scale(scale)
                .with_watchdog(Duration::from_secs(60)),
        )
        .warmup(0)
        .iterations(1)
        .build()
        .expect("model deploys");
    (sim, threaded)
}

/// Same seed, same spec → identical fault accounting on both backends,
/// and both complete every op, for every timing-independent fault combo.
#[test]
fn same_seed_gives_identical_fault_counters_on_both_backends() {
    let model = tiny_mlp(Mode::Training, 8);
    let d = deploy(&model, &ClusterSpec::new(2, 1)).unwrap();
    let m = clean_makespan(&d);
    let combos = [
        (true, false, false),
        (true, true, false),
        (false, true, true),
        (true, true, true),
    ];
    for (drops, stragglers, ps_stalls) in combos {
        let spec = equivalence_spec(m, drops, stragglers, ps_stalls);
        let cfg = SimConfig::cloud_gpu().with_seed(0xC0FFEE).with_faults(spec);
        let (sim, threaded) = sessions_for(&cfg, 0.05);
        let mut hit = false;
        for iteration in 0..4u64 {
            let a = sim.trace_iteration(iteration).expect("sim completes");
            let b = threaded
                .trace_iteration(iteration)
                .expect("threaded completes");
            let ca = FaultCounters::from_trace(&a);
            let cb = FaultCounters::from_trace(&b);
            assert_eq!(
                ca, cb,
                "combo (drops={drops}, stragglers={stragglers}, ps_stalls={ps_stalls}) \
                 iteration {iteration}: sim {ca} vs threaded {cb}"
            );
            assert_eq!(a.executed_ops(), d.graph().len());
            assert_eq!(b.executed_ops(), d.graph().len());
            hit |= !ca.is_clean();
        }
        assert!(
            hit,
            "no faults fired in 4 iterations for combo \
             (drops={drops}, stragglers={stragglers}, ps_stalls={ps_stalls})"
        );
    }
}

/// Blackouts and crashes don't tally identically across backends (see
/// the module docs), but recovery must still complete every op, and the
/// *plan-level* counts — how many windows fired — agree with the shared
/// sampler on both.
#[test]
fn blackouts_and_crashes_recover_and_match_the_sampled_plan() {
    let model = tiny_mlp(Mode::Training, 8);
    let d = deploy(&model, &ClusterSpec::new(2, 1)).unwrap();
    let m = clean_makespan(&d);
    let spec = FaultSpec::none()
        .with_blackouts(0.6, m.mul_f64(0.05))
        .with_crashes(0.6, m.mul_f64(0.05))
        .with_onset_window(m.mul_f64(0.3))
        .with_retry(RetryPolicy::fixed(m.mul_f64(0.02), 60));
    let cfg = SimConfig::cloud_gpu().with_seed(0xB1ACC).with_faults(spec);
    let (sim, threaded) = sessions_for(&cfg, 0.05);
    let mut windows = 0u64;
    for iteration in 0..4u64 {
        let plan = FaultPlan::sample(&cfg.faults, d.graph(), cfg.seed, iteration);
        let a = sim.trace_iteration(iteration).expect("sim recovers");
        let b = threaded
            .trace_iteration(iteration)
            .expect("threaded recovers");
        assert_eq!(a.executed_ops(), d.graph().len());
        assert_eq!(b.executed_ops(), d.graph().len());
        let cb = FaultCounters::from_trace(&b);
        assert_eq!(
            cb.blackouts,
            plan.blackouts.len() as u64,
            "iteration {iteration}: threaded blackout count must match the plan"
        );
        assert_eq!(
            cb.crashes,
            plan.crashes.len() as u64,
            "iteration {iteration}: threaded crash count must match the plan"
        );
        windows += cb.blackouts + cb.crashes;
    }
    assert!(windows > 0, "no blackout or crash fired in 4 iterations");
}

/// One agenda, two clocks, end to end: a hand-built plan with a blackout,
/// a crash, a PS stall, a straggler and a barrier that never fires, every
/// window inside the first tenth of the noise-free makespan so neither
/// run ends first. Both executors log the same transitions in the same
/// order, at the same instants once the wall clock's are divided by its
/// time scale.
#[test]
fn both_executors_log_the_plans_transitions_alike() {
    const TIME_SCALE: f64 = 0.5;
    let d = deploy(&tiny_mlp(Mode::Training, 8), &ClusterSpec::new(2, 1)).unwrap();
    let graph = d.graph();
    let (s, config) = (
        no_ordering(graph),
        SimConfig::deterministic(Platform::cloud_gpu()),
    );
    let m = simulate(graph, &s, &config, 0).makespan();
    // Per mille of the makespan, in whole microseconds: exact at any
    // power-of-two time scale.
    let at = |per_mille: u64| SimTime::from_nanos(m.as_nanos() * per_mille / 1_000_000 * 1_000);
    let mut plan = FaultPlan::quiet();
    plan.blackouts.push(Blackout {
        channel: graph.channels()[0].id(),
        at: at(10),
        until: at(50),
    });
    plan.crashes.push(Crash {
        device: d.workers()[1],
        at: at(20),
        until: at(70),
    });
    plan.stalls.push(Stall {
        device: d.parameter_servers()[0],
        at: at(30),
        until: at(90),
    });
    plan.stragglers.push((d.workers()[0], 1.5));
    plan.retry = RetryPolicy::fixed(m.mul_f64(0.02), 60);
    plan.barrier_timeout = Some(m * 1000);

    let engine = simulate_with_plan_observed(graph, &s, &config, 0, &plan, &Registry::disabled())
        .expect("engine recovers");
    let opts = ExecOptions {
        time_scale: TIME_SCALE,
        watchdog: Duration::from_secs(60),
    };
    let threads =
        run_iteration_injected(graph, &s, &config, &opts, 0, &plan).expect("threads recover");
    let transitions = |trace: &ExecutionTrace, scale: f64| -> Vec<(SimTime, FaultEventKind)> {
        assert_eq!(trace.executed_ops(), graph.len(), "the barrier never fires");
        trace
            .fault_events()
            .iter()
            .filter(|e| {
                use FaultEventKind::*;
                matches!(
                    e.kind,
                    BlackoutStart { .. }
                        | BlackoutEnd { .. }
                        | WorkerCrashed { .. }
                        | WorkerRecovered { .. }
                        | PsStallStart { .. }
                        | PsStallEnd { .. }
                        | StragglerApplied { .. }
                )
            })
            .map(|e| {
                let at = (e.at.as_nanos() as f64 / scale).round() as u64;
                (SimTime::from_nanos(at), e.kind)
            })
            .collect()
    };
    let logged = transitions(&engine, 1.0);
    assert_eq!(logged.len(), 7, "{logged:?}");
    assert_eq!(logged, transitions(&threads, TIME_SCALE));
}

/// A threaded `Session` that stalls (here: a blackout far longer than
/// the watchdog) reports *which* ops and channels wedged — and the same
/// session object then runs a clean iteration to completion. Each
/// iteration builds fresh runtime state, so one stall must not poison
/// the session.
#[test]
fn a_stalled_session_is_diagnosable_and_reusable() {
    let model = tiny_mlp(Mode::Training, 8);
    let d = deploy(&model, &ClusterSpec::new(2, 1)).unwrap();
    let spec = FaultSpec::none()
        .with_blackouts(0.6, SimDuration::from_secs_f64(1.0))
        .with_onset_window(SimDuration::from_micros(10));
    let seed = 0x5EED;
    // Locate a stalling and a clean iteration from the shared sampler —
    // the backend will draw exactly these plans.
    let (mut stalling, mut clean) = (None, None);
    for i in 0..64u64 {
        let plan = FaultPlan::sample(&spec, d.graph(), seed, i);
        if !plan.blackouts.is_empty() && stalling.is_none() {
            stalling = Some(i);
        }
        if plan.is_quiet() && clean.is_none() {
            clean = Some(i);
        }
        if stalling.is_some() && clean.is_some() {
            break;
        }
    }
    let stalling = stalling.expect("some iteration draws a blackout");
    let clean = clean.expect("some iteration draws a quiet plan");

    let cfg = SimConfig::cloud_gpu().with_seed(seed).with_faults(spec);
    let session = Session::builder(tiny_mlp(Mode::Training, 8))
        .cluster(ClusterSpec::new(2, 1))
        .config(cfg.clone())
        .scheduler(SchedulerKind::Tac)
        .backend(
            ThreadedBackend::from_config(&cfg)
                .expect("preset config is supported")
                .with_watchdog(Duration::from_millis(250)),
        )
        .warmup(0)
        .iterations(1)
        .build()
        .expect("model deploys");

    match session.trace_iteration(stalling) {
        Err(SimError::Stalled {
            remaining,
            outstanding,
            channel_depths,
            ..
        }) => {
            assert!(remaining > 0);
            assert!(
                !outstanding.is_empty(),
                "a stall must name its outstanding ops"
            );
            assert_eq!(channel_depths.len(), d.graph().channels().len());
        }
        other => panic!("expected a Stalled error, got {other:?}"),
    }

    let trace = session
        .trace_iteration(clean)
        .expect("the same session must run a clean iteration after a stall");
    assert_eq!(trace.executed_ops(), d.graph().len());
}

/// A hopeless transfer (every attempt dropped, shallow retry budget, no
/// barrier) surfaces through the Session as the typed
/// `RetriesExhausted` error.
#[test]
fn threaded_session_surfaces_retries_exhausted() {
    let model = tiny_mlp(Mode::Training, 8);
    let d = deploy(&model, &ClusterSpec::new(2, 1)).unwrap();
    let m = clean_makespan(&d);
    let spec = FaultSpec::none()
        .with_drop_prob(1.0)
        .with_retry(RetryPolicy::fixed(m.mul_f64(0.02), 2));
    let cfg = SimConfig::cloud_gpu().with_faults(spec);
    let session = Session::builder(tiny_mlp(Mode::Training, 8))
        .cluster(ClusterSpec::new(2, 1))
        .config(cfg.clone())
        .scheduler(SchedulerKind::Tac)
        .backend(
            ThreadedBackend::from_config(&cfg)
                .expect("preset config is supported")
                .with_time_scale(0.05)
                .with_watchdog(Duration::from_secs(60)),
        )
        .warmup(0)
        .iterations(1)
        .build()
        .expect("model deploys");
    match session.try_run() {
        Err(SimError::RetriesExhausted { attempts, .. }) => {
            assert_eq!(attempts, 3)
        }
        other => panic!("expected RetriesExhausted, got {other:?}"),
    }
}

/// The same hopeless load *with* a degraded barrier completes the run
/// with work deferred instead of erroring, and the report's goodput
/// reflects the deferral.
#[test]
fn threaded_session_degrades_at_the_barrier() {
    let model = tiny_mlp(Mode::Training, 8);
    let d = deploy(&model, &ClusterSpec::new(2, 1)).unwrap();
    let m = clean_makespan(&d);
    let spec = FaultSpec::none()
        .with_drop_prob(1.0)
        .with_retry(RetryPolicy::fixed(m.mul_f64(0.02), 1))
        .with_barrier_timeout(m.mul_f64(3.0));
    let cfg = SimConfig::cloud_gpu().with_faults(spec);
    let session = Session::builder(tiny_mlp(Mode::Training, 8))
        .cluster(ClusterSpec::new(2, 1))
        .config(cfg.clone())
        .scheduler(SchedulerKind::Tac)
        .backend(
            ThreadedBackend::from_config(&cfg)
                .expect("preset config is supported")
                .with_time_scale(0.05)
                .with_watchdog(Duration::from_secs(60)),
        )
        .warmup(0)
        .iterations(1)
        .build()
        .expect("model deploys");
    let report = session.try_run().expect("degraded run completes");
    let totals = report.total_faults();
    assert!(totals.degraded_barriers >= 1);
    assert!(totals.deferred_ops > 0);
    assert!(report.mean_goodput_pct() < 100.0);
}

/// Fault events from a threaded run survive the Perfetto export as
/// `cat:"fault"` instants, so chaos runs are inspectable in the UI.
#[test]
fn perfetto_export_carries_threaded_fault_instants() {
    let model = tiny_mlp(Mode::Training, 8);
    let d = deploy(&model, &ClusterSpec::new(2, 1)).unwrap();
    let m = clean_makespan(&d);
    let spec = FaultSpec::none()
        .with_drop_prob(0.5)
        .with_retry(RetryPolicy::fixed(m.mul_f64(0.02), 60));
    let cfg = SimConfig::cloud_gpu().with_seed(0xD20D5).with_faults(spec);
    let session = Session::builder(tiny_mlp(Mode::Training, 8))
        .cluster(ClusterSpec::new(2, 1))
        .config(cfg.clone())
        .scheduler(SchedulerKind::Tac)
        .backend(
            ThreadedBackend::from_config(&cfg)
                .expect("preset config is supported")
                .with_time_scale(0.05)
                .with_watchdog(Duration::from_secs(60)),
        )
        .warmup(0)
        .iterations(1)
        .build()
        .expect("model deploys");
    let json = session.perfetto_json(0).expect("faulty iteration exports");
    let stats = validate_perfetto(&json).expect("export is structurally valid");
    assert!(
        stats.fault_names.iter().any(|n| n == "TransferDropped"),
        "expected TransferDropped instants, got {:?}",
        stats.fault_names
    );
    assert!(
        stats.fault_names.iter().any(|n| n == "Retransmit"),
        "expected Retransmit instants, got {:?}",
        stats.fault_names
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized fault schedules across every class at once: the
    /// threaded runtime must always recover and complete (the retry
    /// budget is deep and every window is short), and the executed trace
    /// must still respect the DAG — retransmitted recvs and respawned
    /// workers may not start an op before its inputs finished.
    #[test]
    fn randomized_fault_schedules_never_hang_the_threaded_runtime(
        workers in 1usize..3,
        drop in 0.0f64..0.25,
        blackout_p in 0.0f64..0.5,
        crash_p in 0.0f64..0.5,
        straggler_p in 0.0f64..0.5,
        stall_p in 0.0f64..0.5,
        seed in any::<u64>(),
    ) {
        let model = tiny_mlp(Mode::Training, 8);
        let d = deploy(&model, &ClusterSpec::new(workers, 1)).unwrap();
        let m = clean_makespan(&d);
        let spec = FaultSpec::none()
            .with_drop_prob(drop)
            .with_blackouts(blackout_p, m.mul_f64(0.05))
            .with_crashes(crash_p, m.mul_f64(0.05))
            .with_stragglers(straggler_p, 2.0)
            .with_ps_stalls(stall_p, m.mul_f64(0.05))
            .with_onset_window(m.mul_f64(0.3))
            .with_retry(RetryPolicy::fixed(m.mul_f64(0.02), 60));
        let cfg = SimConfig::cloud_gpu().with_seed(seed).with_faults(spec);
        let session = Session::builder(tiny_mlp(Mode::Training, 8))
            .cluster(ClusterSpec::new(workers, 1))
            .config(cfg.clone())
            .scheduler(SchedulerKind::Tac)
            .backend(
                ThreadedBackend::from_config(&cfg)
                    .expect("preset config is supported")
                    .with_time_scale(0.05)
                    .with_watchdog(Duration::from_secs(60)),
            )
            .warmup(0)
            .iterations(1)
            .build()
            .expect("model deploys");
        let graph = session.deployed().graph();
        let trace = session
            .trace_iteration(1)
            .expect("recovery must complete the iteration");
        prop_assert_eq!(trace.executed_ops(), graph.len());
        for op in graph.op_ids() {
            let rec = trace.record(op).expect("op recorded");
            for &pred in graph.preds(op) {
                // Send records share their recv's wire interval by
                // design, so a recv legitimately "starts" with its send.
                if graph.op(pred).kind().is_send() {
                    continue;
                }
                let p = trace.record(pred).expect("pred recorded");
                prop_assert!(
                    p.end <= rec.start,
                    "{:?} started at {:?} before its input {:?} ended at {:?}",
                    graph.op_name(op),
                    rec.start,
                    graph.op_name(pred),
                    p.end,
                );
            }
        }
    }
}

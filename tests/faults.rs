//! Integration tests of the fault-injection and fault-tolerance subsystem:
//! determinism of injected faults, recovery machinery, degraded barriers,
//! and no-deadlock properties under combined reorder errors and
//! retransmits.

use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use tictac::{
    auto_tune_with, deploy, no_ordering, simulate, simulate_with_plan_observed, tic, tiny_mlp,
    ClusterSpec, Cost, DeployCache, ExecutionTrace, FaultCounters, FaultEventKind, FaultPlan,
    FaultSpec, Graph, GraphBuilder, Mode, OpKind, Platform, Registry, RetryPolicy, RunPlan,
    RunStore, Scenario, ScenarioBuildError, Schedule, SchedulerKind, Session, SimConfig,
    SimDuration, SimError, SimTime, TuneOptions,
};

/// One iteration from a plan built for it.
fn try_simulate(
    graph: &Graph,
    schedule: &Schedule,
    config: &SimConfig,
    iteration: u64,
) -> Result<ExecutionTrace, SimError> {
    RunPlan::new(graph, schedule, config)?.try_simulate(graph, schedule, iteration)
}

/// One iteration under the explicit `faults`, through the one-shot door.
fn run_with(
    graph: &Graph,
    schedule: &Schedule,
    config: &SimConfig,
    iteration: u64,
    faults: &FaultPlan,
) -> Result<ExecutionTrace, SimError> {
    let registry = Registry::disabled();
    simulate_with_plan_observed(graph, schedule, config, iteration, faults, &registry)
}

/// A fault spec exercising every fault class at once, with a retry budget
/// deep enough that recovery always succeeds.
fn stormy() -> FaultSpec {
    FaultSpec::none()
        .with_drop_prob(0.2)
        .with_blackouts(0.4, SimDuration::from_micros(40))
        .with_crashes(0.4, SimDuration::from_micros(60))
        .with_stragglers(0.4, 2.5)
        .with_ps_stalls(0.4, SimDuration::from_micros(50))
        .with_onset_window(SimDuration::from_micros(300))
        .with_retry(RetryPolicy::fixed(SimDuration::from_micros(30), 50))
}

#[test]
fn identical_seed_and_iteration_give_byte_identical_faulty_traces() {
    let model = tiny_mlp(Mode::Training, 8);
    let d = deploy(&model, &ClusterSpec::new(3, 2)).unwrap();
    let cfg = SimConfig::cloud_gpu().with_faults(stormy());
    let s = no_ordering(d.graph());
    for iteration in 0..4 {
        let a = try_simulate(d.graph(), &s, &cfg, iteration).unwrap();
        let b = try_simulate(d.graph(), &s, &cfg, iteration).unwrap();
        assert_eq!(a, b, "iteration {iteration} not reproducible");
    }
    // Distinct iterations draw distinct fault plans and noise.
    let a = try_simulate(d.graph(), &s, &cfg, 0).unwrap();
    let b = try_simulate(d.graph(), &s, &cfg, 1).unwrap();
    assert_ne!(a, b);
    // And a different base seed changes the plan too.
    let reseeded = cfg.clone().with_seed(cfg.seed ^ 0xF00D);
    let c = try_simulate(d.graph(), &s, &reseeded, 0).unwrap();
    assert_ne!(a, c);
}

#[test]
fn explicit_plans_replay_and_quiet_plans_change_nothing() {
    let model = tiny_mlp(Mode::Training, 8);
    let d = deploy(&model, &ClusterSpec::new(2, 1)).unwrap();
    let cfg = SimConfig::cloud_gpu().with_faults(stormy());
    let s = no_ordering(d.graph());

    // Replay: sampling the plan up front is exactly the plan's own run.
    let plan = FaultPlan::sample(&cfg.faults, d.graph(), cfg.seed, 2);
    let a = run_with(d.graph(), &s, &cfg, 2, &plan).unwrap();
    let b = try_simulate(d.graph(), &s, &cfg, 2).unwrap();
    assert_eq!(a, b);

    // Quiet: the fault subsystem leaves fault-free traces byte-identical.
    let quiet = SimConfig::cloud_gpu();
    assert!(quiet.faults.is_quiet());
    let clean = simulate(d.graph(), &s, &quiet, 2);
    let via_try = try_simulate(d.graph(), &s, &quiet, 2).unwrap();
    assert_eq!(clean, via_try);
    assert!(clean.fault_events().is_empty());
    assert_eq!(clean.executed_ops(), d.graph().len());
}

#[test]
fn recovery_completes_all_work_and_counters_add_up() {
    let model = tiny_mlp(Mode::Training, 8);
    let d = deploy(&model, &ClusterSpec::new(3, 2)).unwrap();
    let cfg = SimConfig::cloud_gpu().with_faults(stormy());
    let s = no_ordering(d.graph());
    let mut total = FaultCounters::default();
    for iteration in 0..6 {
        let trace = try_simulate(d.graph(), &s, &cfg, iteration).unwrap();
        assert_eq!(
            trace.executed_ops(),
            d.graph().len(),
            "iteration {iteration} left work behind without a barrier"
        );
        total.merge(&FaultCounters::from_trace(&trace));
    }
    assert!(!total.is_clean(), "the storm never hit in 6 iterations");
    // Every detected loss is either retransmitted or the run would have
    // errored; with this budget nothing is abandoned.
    assert_eq!(total.timeouts, total.retransmits);
    assert_eq!(total.deferred_ops, 0);
    assert_eq!(total.degraded_barriers, 0);
}

#[test]
fn degraded_barrier_defers_work_instead_of_erroring() {
    let model = tiny_mlp(Mode::Training, 8);
    let d = deploy(&model, &ClusterSpec::new(2, 1)).unwrap();
    let barrier = SimDuration::from_micros(400);
    let cfg = SimConfig::cloud_gpu().with_faults(
        FaultSpec::none()
            .with_drop_prob(1.0)
            .with_retry(RetryPolicy::fixed(SimDuration::from_micros(20), 2))
            .with_barrier_timeout(barrier),
    );
    let s = no_ordering(d.graph());
    let trace = try_simulate(d.graph(), &s, &cfg, 0).unwrap();
    assert!(trace.executed_ops() < d.graph().len());
    assert_eq!(trace.makespan(), barrier);
    let counters = FaultCounters::from_trace(&trace);
    assert_eq!(counters.degraded_barriers, 1);
    // Deferred ops are those not *done*; sends that handed off but whose
    // transfer never completed are done yet unrecorded, so the recorded
    // count bounds the deferrals from above.
    assert!(counters.deferred_ops > 0);
    assert!(counters.deferred_ops as usize <= d.graph().len() - trace.executed_ops());

    // The same fault load without the barrier is a typed error end-to-end,
    // surfaced through the Session as well.
    let doomed = Session::builder(tiny_mlp(Mode::Training, 8))
        .cluster(ClusterSpec::new(2, 1))
        .config(
            SimConfig::cloud_gpu().with_faults(
                FaultSpec::none()
                    .with_drop_prob(1.0)
                    .with_retry(RetryPolicy::fixed(SimDuration::from_micros(20), 2)),
            ),
        )
        .scheduler(SchedulerKind::Baseline)
        .warmup(0)
        .iterations(1)
        .build()
        .unwrap();
    match doomed.try_run() {
        Err(SimError::RetriesExhausted { attempts, .. }) => assert_eq!(attempts, 3),
        other => panic!("expected RetriesExhausted, got {other:?}"),
    }
}

/// A retry policy whose timeouts can add up to the 2^53 ns end of the time
/// axis is refused by `RunPlan::new`, before anything is simulated, in
/// debug and release builds alike. Its last timeout saturates at
/// `u64::MAX` ns, which used to overflow the clock (debug) or wrap it into
/// the past (release: the failure named an instant before the clock). One
/// nanosecond inside the horizon still runs, and fails as the loss ladder
/// says.
#[test]
fn a_retry_budget_reaching_the_horizon_is_a_typed_error() {
    let model = tiny_mlp(Mode::Training, 8);
    let d = deploy(&model, &ClusterSpec::new(2, 1)).unwrap();
    let s = no_ordering(d.graph());
    let faulty = |retry| {
        SimConfig::cloud_gpu().with_faults(FaultSpec::none().with_drop_prob(1.0).with_retry(retry))
    };
    let huge = RetryPolicy::grpc_default().with_backoff(1e6);
    let refused = |e: Option<SimError>| match e {
        Some(SimError::RetryPastHorizon { budget }) => budget,
        other => panic!("expected RetryPastHorizon, got {other:?}"),
    };
    assert_eq!(
        refused(try_simulate(d.graph(), &s, &faulty(huge), 0).err()),
        SimDuration::from_nanos(u64::MAX)
    );

    // A session is refused at build; a hand-built plan run under the
    // policy is refused the same way.
    let session = Session::builder(model)
        .cluster(ClusterSpec::new(2, 1))
        .config(faulty(huge))
        .scheduler(SchedulerKind::Baseline)
        .warmup(0)
        .iterations(1)
        .build();
    match session {
        Err(ScenarioBuildError::Backend(e)) => refused(Some(e)),
        other => panic!("expected a refused build, got {:?}", other.err()),
    };
    refused(run_with(d.graph(), &s, &faulty(huge), 0, &FaultPlan::quiet()).err());

    let horizon = SimDuration::from_nanos(1 << 53);
    let at_horizon = RetryPolicy::fixed(horizon, 0);
    assert_eq!(
        refused(try_simulate(d.graph(), &s, &faulty(at_horizon), 0).err()),
        horizon
    );
    let inside = RetryPolicy::fixed(SimDuration::from_nanos((1 << 53) - 1), 0);
    match try_simulate(d.graph(), &s, &faulty(inside), 0) {
        Err(SimError::RetriesExhausted { attempts, at, .. }) => {
            assert_eq!(attempts, 1);
            assert!(at >= SimTime::ZERO + SimDuration::from_nanos((1 << 53) - 1));
        }
        other => panic!("expected RetriesExhausted, got {other:?}"),
    }
}

/// A hand-built plan sets its `pub` fields directly, so every run checks
/// its straggler factors against `FaultSpec::check`'s slowdown rule before
/// the engine starts: a factor that is not finite and at least 1 is
/// refused naming the knob, NaN included. A NaN factor used to run the
/// straggler *faster* than a quiet run. The range's ends run. (The drop
/// rate, retry policy and barrier are the config's, checked once by
/// `RunPlan::new`.)
#[test]
fn a_hand_built_plan_out_of_range_is_a_typed_error() {
    let model = tiny_mlp(Mode::Training, 8);
    let d = deploy(&model, &ClusterSpec::new(2, 1)).unwrap();
    let s = no_ordering(d.graph());
    let cfg = SimConfig::cloud_gpu();
    let worker = d
        .graph()
        .devices()
        .iter()
        .find(|dev| dev.is_worker())
        .unwrap()
        .id();
    let plan = |edit: &dyn Fn(&mut FaultPlan)| {
        let mut plan = FaultPlan::quiet();
        edit(&mut plan);
        plan
    };
    let run = |plan: &FaultPlan| run_with(d.graph(), &s, &cfg, 0, plan);
    let (nan, inf) = (f64::NAN, f64::INFINITY);
    let mut refused = Vec::new();
    for v in [nan, inf, 0.5, 0.0, -2.0] {
        refused.push((
            "straggler_factor",
            plan(&|p| p.stragglers = vec![(worker, v)]),
        ));
    }
    for (knob, faults) in refused {
        match run(&faults) {
            Err(SimError::InvalidKnob { knob: named, .. }) => assert_eq!(named, knob),
            other => panic!("{knob}: expected InvalidKnob, got {:?}", other.err()),
        }
    }
    let quiet = run(&FaultPlan::quiet()).unwrap();
    let slowed = run(&plan(&|p| p.stragglers = vec![(worker, 2.0)])).unwrap();
    assert!(slowed.makespan() > quiet.makespan(), "a factor of 2 slows");
    let unit = run(&plan(&|p| p.stragglers = vec![(worker, 1.0)])).unwrap();
    assert_eq!(
        unit.makespan(),
        quiet.makespan(),
        "a factor of 1 slows nothing"
    );
}

/// A cluster whose speed or bandwidth factors push one iteration past the
/// 2^53 ns end of the time axis is refused by every door a run enters,
/// naming the horizon: `SessionBuilder::build` with and without a run-store
/// sink, `Session::from_scenario`, `RunPlan::new` and `auto_tune_with`
/// return the refusal, and `simulate` panics with its text. These used to
/// pass the builder door and fail later: in the record encoder (a makespan
/// past 2^53), or with an op ending before it started (a wrapped clock).
/// Noisy TAC profiles by simulation, so its profiling plan is the door
/// there. A factor of 1e-3 still runs through every door.
#[test]
fn a_cluster_past_the_time_axis_is_refused_at_every_door() {
    let store = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("door_matrix.jsonl");
    let _ = std::fs::remove_file(&store);
    for key in ["worker_speeds", "link_bandwidths"] {
        for factor in ["1e-9", "1e-14", "1e-20", "1e-3"] {
            for scheduler in ["tic", "tac"] {
                let row = format!("{key}: [1.0, {factor}] under {scheduler}");
                let doc = format!(
                    "model: alexnet_v2\ncluster:\n  workers: 2\n  parameter_servers: 1\n  \
                     {key}: [1.0, {factor}]\nenv: g\nscheduler: {scheduler}\n\
                     warmup: 0\niterations: 1\n"
                );
                let scenario = Scenario::parse(&doc).unwrap();
                let model = scenario
                    .model
                    .build_with_batch(scenario.mode, scenario.batch);
                let (cluster, config) = (&scenario.cluster, scenario.sim_config());
                let builder = || {
                    Session::builder(model.clone())
                        .cluster(cluster.clone())
                        .config(config.clone())
                        .scheduler(scenario.scheduler)
                        .warmup(0)
                        .iterations(1)
                };
                let sink = Arc::new(RunStore::at(&store));
                let sessions = [
                    builder().build(),
                    builder().record_to(sink).build(),
                    Session::from_scenario(&scenario),
                ];
                let d = deploy(&model, cluster).unwrap();
                let (g, s) = (d.graph(), no_ordering(d.graph()));
                let planned = RunPlan::new(g, &s, &config);
                let cache = DeployCache::new();
                let quick = TuneOptions::quick();
                let tuned =
                    auto_tune_with(&cache, &model, cluster, scenario.scheduler, &config, &quick);
                let simulated = catch_unwind(AssertUnwindSafe(|| simulate(g, &s, &config, 0)));
                if factor == "1e-3" {
                    for session in sessions {
                        session
                            .unwrap()
                            .try_run()
                            .unwrap_or_else(|e| panic!("{row}: {e}"));
                    }
                    assert!(
                        planned.is_ok() && tuned.is_ok() && simulated.is_ok(),
                        "{row}"
                    );
                    continue;
                }
                let refusal = match planned {
                    Err(e @ SimError::ServicePastHorizon { .. }) => e.to_string(),
                    other => panic!("{row}: RunPlan::new gave {:?}", other.err()),
                };
                assert!(refusal.contains("2^53 ns"), "{row}: {refusal}");
                for session in sessions {
                    match session {
                        Err(ScenarioBuildError::Backend(SimError::ServicePastHorizon {
                            ..
                        })) => {}
                        other => panic!("{row}: a session door gave {:?}", other.err()),
                    }
                }
                match tuned {
                    Err(e @ ScenarioBuildError::Backend(SimError::ServicePastHorizon { .. })) => {
                        assert!(e.to_string().contains("2^53 ns"), "{row}: {e}");
                    }
                    other => panic!("{row}: auto_tune_with gave {other:?}"),
                }
                let panicked = simulated.expect_err("simulate panics");
                let message = panicked
                    .downcast_ref::<String>()
                    .expect("a formatted panic");
                assert_eq!(message, &refusal, "{row}");
            }
        }
    }
}

/// The barrier's smallest cut: one op undone, and that op is op 0 (a long
/// root on the worker; the PS's short root finishes first). The barrier
/// defers it alone — one `DeferredOp`, then `BarrierDegraded {
/// remaining: 1 }` — and raises the makespan from the last recorded end
/// to the barrier instant.
#[test]
fn a_barrier_with_one_op_undone_defers_it_and_raises_the_makespan() {
    // One flop is one nanosecond; nothing else costs time.
    let (rate, free) = (1e9, SimDuration::ZERO);
    let platform = Platform::new("unit", rate, rate, rate, free, free);
    let mut b = GraphBuilder::new();
    let w = b.add_worker("w0");
    let ps = b.add_parameter_server("ps0");
    let slow = b.add_op("slow", w, OpKind::Compute, Cost::flops(100_000.0), &[]);
    let fast = b.add_op("fast", ps, OpKind::Compute, Cost::flops(10_000.0), &[]);
    let g = b.build().expect("valid graph");
    assert_eq!(slow.index(), 0);

    let barrier = SimDuration::from_micros(50);
    let cfg = SimConfig::deterministic(platform)
        .with_faults(FaultSpec::none().with_barrier_timeout(barrier));
    let trace = try_simulate(&g, &no_ordering(&g), &cfg, 0).expect("the barrier absorbs it");
    let at = SimTime::ZERO + barrier;
    let fast_end = trace.record(fast).map(|r| r.end);
    assert_eq!(fast_end, Some(SimTime::ZERO + SimDuration::from_micros(10)));
    assert_eq!(trace.record(slow), None);
    let events: Vec<_> = trace
        .fault_events()
        .iter()
        .map(|e| (e.at, e.kind))
        .collect();
    assert_eq!(
        events,
        [
            (at, FaultEventKind::DeferredOp { op: slow }),
            (at, FaultEventKind::BarrierDegraded { remaining: 1 }),
        ]
    );
    assert_eq!(trace.makespan(), barrier);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sender-side enforcement counters plus reorder errors plus
    /// timeout-driven retransmits must never deadlock: every run either
    /// completes all ops or degrades at a barrier — with this retry
    /// budget, it completes.
    #[test]
    fn enforcement_with_reorder_errors_and_drops_never_deadlocks(
        workers in 1usize..4,
        servers in 1usize..3,
        drop in 0.0f64..0.35,
        reorder in 0.0f64..0.5,
        seed in any::<u64>(),
    ) {
        let model = tiny_mlp(Mode::Training, 8);
        let d = deploy(&model, &ClusterSpec::new(workers, servers)).unwrap();
        let cfg = SimConfig::cloud_gpu()
            .with_seed(seed)
            .with_reorder_error(reorder)
            .with_faults(
                FaultSpec::none()
                    .with_drop_prob(drop)
                    .with_retry(RetryPolicy::fixed(SimDuration::from_micros(25), 60)),
            );
        // An enforced TIC schedule stresses the counters the hardest.
        let s = d.replicate_schedule(&tic(d.graph(), d.workers()[0]));
        let trace = try_simulate(d.graph(), &s, &cfg, 1).unwrap();
        prop_assert_eq!(trace.executed_ops(), d.graph().len());
    }

    /// Full-storm determinism: same (seed, iteration, spec) is always
    /// byte-identical, whatever combination of faults fires.
    #[test]
    fn faulty_simulation_is_deterministic(
        seed in any::<u64>(),
        iteration in 0u64..32,
    ) {
        let model = tiny_mlp(Mode::Training, 8);
        let d = deploy(&model, &ClusterSpec::new(2, 2)).unwrap();
        let cfg = SimConfig::cloud_gpu().with_seed(seed).with_faults(stormy());
        let s = no_ordering(d.graph());
        let a = try_simulate(d.graph(), &s, &cfg, iteration).unwrap();
        let b = try_simulate(d.graph(), &s, &cfg, iteration).unwrap();
        prop_assert_eq!(a, b);
    }
}

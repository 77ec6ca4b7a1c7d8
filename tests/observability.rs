//! Cross-crate observability contract tests.
//!
//! Three invariants gate this layer:
//!
//! 1. **Transparency** — attaching an (enabled or disabled) metrics
//!    registry never changes a simulated outcome: traces are equal op
//!    for op, byte for byte.
//! 2. **Fidelity** — analyzers recomputed from observed traces agree
//!    with the quantities the session already reports, and fault
//!    counters rebuilt from the Perfetto export equal the trace-derived
//!    ones for every `FaultEventKind` variant.
//! 3. **Paper semantics** — under TAC enforcement with in-order
//!    channels no transfer ever starts while a higher-priority transfer
//!    is runnable on the same channel, while the unscheduled baseline
//!    inverts on nearly every zoo model and every reorder error of an
//!    enforced run is counted.
//! 4. **One flush per run** — the engine tallies a run in plain integers
//!    and adds them to the registry when the run ends, however it ends:
//!    a failed run's counts still land, each run's idle gauges are its
//!    own, and registries sharing one `RunPlan` never see each other's
//!    runs.

use tictac::{
    priority_inversions, realized_efficiency, simulate, simulate_with_plan_observed, tic,
    ChannelId, ClusterSpec, DeployedModel, FaultCounters, FaultEventKind, FaultPlan, FaultSpec,
    MetricValue, Mode, Model, OpId, Registry, RetryPolicy, RunPlan, Schedule, SchedulerKind,
    Session, SimConfig, SimDuration, SimError, TraceBuilder,
};
use tictac_graph::tiny_mlp;
use tictac_trace::SimTime;

fn t(ns: u64) -> SimTime {
    SimTime::from_nanos(ns)
}

/// One fault event of every variant, with distinct multiplicities so a
/// transposed counter cannot cancel out: variant k appears k+1 times.
fn every_variant() -> Vec<FaultEventKind> {
    use tictac::{ChannelId, DeviceId};
    let op = OpId::from_index(0);
    let ch = ChannelId::from_index(0);
    let dev = DeviceId::from_index(0);
    let variants = [
        FaultEventKind::TransferDropped { op, attempt: 0 },
        FaultEventKind::TransferTimeout { op, attempt: 0 },
        FaultEventKind::Retransmit { op, attempt: 1 },
        FaultEventKind::BlackoutStart { channel: ch },
        FaultEventKind::BlackoutEnd { channel: ch },
        FaultEventKind::WorkerCrashed { device: dev },
        FaultEventKind::WorkerRecovered { device: dev },
        FaultEventKind::PsStallStart { device: dev },
        FaultEventKind::PsStallEnd { device: dev },
        FaultEventKind::StragglerApplied { device: dev },
        FaultEventKind::DeferredOp { op },
        FaultEventKind::BarrierDegraded { remaining: 3 },
    ];
    let mut events = Vec::new();
    for (k, v) in variants.iter().enumerate() {
        for _ in 0..=k {
            events.push(*v);
        }
    }
    events
}

#[test]
fn fault_counters_cover_every_variant() {
    let mut tb = TraceBuilder::new(0);
    for kind in every_variant() {
        tb.push_fault(t(1), kind);
    }
    let trace = tb.finish();
    let c = FaultCounters::from_trace(&trace);
    // Multiplicity k+1 per variant, in declaration order.
    assert_eq!(c.drops, 1);
    assert_eq!(c.timeouts, 2);
    assert_eq!(c.retransmits, 3);
    assert_eq!(c.blackouts, 4);
    // BlackoutEnd (5 events) must not increment anything.
    assert_eq!(c.crashes, 6);
    // WorkerRecovered (7 events) must not increment anything.
    assert_eq!(c.ps_stalls, 8);
    // PsStallEnd (9 events) must not increment anything.
    assert_eq!(c.stragglers, 10);
    assert_eq!(c.deferred_ops, 11);
    assert_eq!(c.degraded_barriers, 12);
    let total_counted: u64 = c.drops
        + c.timeouts
        + c.retransmits
        + c.blackouts
        + c.crashes
        + c.ps_stalls
        + c.stragglers
        + c.deferred_ops
        + c.degraded_barriers;
    // 78 events in all; the three End/Recovered variants (5 + 7 + 9)
    // are observed but never counted.
    assert_eq!(trace.fault_events().len(), 78);
    assert_eq!(total_counted, 78 - (5 + 7 + 9));
}

#[test]
fn perfetto_export_round_trips_fault_counters() {
    // A real graph so every instant resolves to a lane, with every
    // fault variant layered on top.
    let deployed = tictac::deploy(&tiny_mlp(Mode::Training, 4), &ClusterSpec::new(2, 1)).unwrap();
    let g = deployed.graph();
    let mut tb = TraceBuilder::new(g.len());
    for (id, _) in g.ops() {
        tb.record(id, t(0), t(100));
    }
    for (i, kind) in every_variant().into_iter().enumerate() {
        tb.push_fault(t(10 + i as u64), kind);
    }
    let trace = tb.finish();
    let json = tictac::perfetto_json(g, &trace, "round trip");
    let stats = tictac::validate_perfetto(&json).expect("valid trace_event JSON");
    assert_eq!(stats.instants, 78);
    let rebuilt = FaultCounters::from_event_names(stats.fault_names.iter().map(String::as_str));
    assert_eq!(rebuilt, FaultCounters::from_trace(&trace));
    assert!(!rebuilt.is_clean());
}

#[test]
fn observation_is_transparent_at_zoo_scale() {
    // Same trace with a disabled registry, an enabled registry, and the
    // plain entry point — including on a faulty, enforced run where
    // every engine hook fires.
    let deployed = tictac::deploy(
        &Model::AlexNetV2.build_with_batch(Mode::Training, 2),
        &ClusterSpec::new(2, 1),
    )
    .unwrap();
    let g = deployed.graph();
    let schedule = deployed.replicate_schedule(&tictac::tic(g, deployed.workers()[0]));
    for config in
        [
            SimConfig::cloud_gpu(),
            SimConfig::cloud_gpu().with_faults(
                tictac::FaultSpec::none().with_drop_prob(0.2).with_retry(
                    tictac::RetryPolicy::fixed(tictac::SimDuration::from_micros(50), 40),
                ),
            ),
        ]
    {
        let plain = simulate(g, &schedule, &config, 7);
        let registry = Registry::enabled();
        let plan = tictac::FaultPlan::sample(&config.faults, g, config.seed, 7);
        let run = |registry| {
            simulate_with_plan_observed(g, &schedule, &config, 7, &plan, registry).unwrap()
        };
        let (observed, disabled) = (run(&registry), run(&Registry::disabled()));
        assert_eq!(plain, observed);
        assert_eq!(plain, disabled);
        assert!(registry.snapshot().counter("sim.events").unwrap() > 0);
    }
}

#[test]
fn realized_efficiency_agrees_with_session_report() {
    for kind in [
        SchedulerKind::Baseline,
        SchedulerKind::Tic,
        SchedulerKind::Tac,
    ] {
        let session = Session::builder(tiny_mlp(Mode::Training, 8))
            .cluster(ClusterSpec::new(2, 1))
            .config(SimConfig::cloud_gpu())
            .scheduler(kind)
            .warmup(0)
            .iterations(1)
            .build()
            .unwrap();
        let report = session.run();
        let trace = session.trace_iteration(0).unwrap();
        let realized = realized_efficiency(session.deployed().graph(), &trace);
        assert_eq!(
            realized.efficiency, report.iterations[0].efficiency,
            "{kind}: analyzer disagrees with the session's Equation 3"
        );
        assert_eq!(
            realized.speedup_potential, report.iterations[0].speedup_potential,
            "{kind}: analyzer disagrees with the session's Equation 4"
        );
    }
}

#[test]
fn tac_enforcement_eliminates_priority_inversions_across_the_zoo() {
    // In-order channels (reorder_error = 0): under TAC enforcement no
    // transfer may start while a higher-ranked one is runnable on the
    // same channel. The unscheduled baseline, judged against the same
    // TAC ranks, must invert on at least 8 of the 10 zoo models.
    let config = SimConfig::cloud_gpu().with_reorder_error(0.0);
    let mut baseline_inverting = 0usize;
    for &model in Model::ALL.iter() {
        let tac_session = Session::builder(model.build_with_batch(Mode::Training, 2))
            .cluster(ClusterSpec::new(2, 1))
            .config(config.clone())
            .scheduler(SchedulerKind::Tac)
            .build()
            .unwrap();
        let g = tac_session.deployed().graph();
        let ranks = tac_session.schedule();
        let enforced = tac_session.trace_iteration(0).unwrap();
        assert_eq!(
            priority_inversions(g, &enforced, |op| ranks.priority(op)).count(),
            0,
            "{}: TAC enforcement produced a priority inversion",
            model.name()
        );

        let baseline = Session::builder(model.build_with_batch(Mode::Training, 2))
            .cluster(ClusterSpec::new(2, 1))
            .config(config.clone())
            .scheduler(SchedulerKind::Baseline)
            .build()
            .unwrap();
        // Deployment is deterministic, so TAC's ranks index the same ops.
        let unordered = baseline.trace_iteration(0).unwrap();
        if priority_inversions(g, &unordered, |op| ranks.priority(op)).count() > 0 {
            baseline_inverting += 1;
        }
    }
    assert!(
        baseline_inverting >= 8,
        "only {baseline_inverting}/10 zoo models invert under the unscheduled baseline"
    );
}

#[test]
fn reorder_errors_under_enforced_tic_are_counted_as_inversions() {
    // gRPC's occasional out-of-order pop (§5.1) starts a transfer ahead
    // of queued lower-ranked ones: each is an inversion against the TIC
    // ranks, and the seeded run has exactly this many.
    let session = Session::builder(Model::InceptionV3.build_with_batch(Mode::Training, 2))
        .cluster(ClusterSpec::new(4, 2))
        .config(SimConfig::cloud_gpu().with_reorder_error(0.05))
        .scheduler(SchedulerKind::Tic)
        .build()
        .unwrap();
    let g = session.deployed().graph();
    let ranks = session.schedule();
    let trace = session.trace_iteration(0).unwrap();
    let report = priority_inversions(g, &trace, |op| ranks.priority(op));
    assert_eq!(report.count(), 31);
    let on_channels: usize = (0..g.channels().len())
        .map(|c| report.on_channel(ChannelId::from_index(c)))
        .sum();
    assert_eq!(on_channels, report.count());
    for r in &report.records {
        assert!(ranks.priority(r.preempted) < ranks.priority(r.started));
        let waited = trace.record(r.preempted).unwrap().start;
        assert!(waited > r.at && r.at == trace.record(r.started).unwrap().start);
    }
}

#[test]
fn observed_efficiency_orders_schedulers() {
    // Realized efficiency from observed traces must reproduce the
    // paper's ordering on average: TAC >= TIC >= unscheduled.
    let config = SimConfig::cloud_gpu().with_reorder_error(0.0);
    let models = [Model::AlexNetV2, Model::InceptionV1, Model::Vgg16];
    let mean_of = |kind: SchedulerKind| -> f64 {
        let mut sum = 0.0;
        for &model in &models {
            let s = Session::builder(model.build_with_batch(Mode::Training, 2))
                .cluster(ClusterSpec::new(2, 1))
                .config(config.clone())
                .scheduler(kind)
                .build()
                .unwrap();
            let trace = s.trace_iteration(0).unwrap();
            sum += realized_efficiency(s.deployed().graph(), &trace).efficiency;
        }
        sum / models.len() as f64
    };
    let base = mean_of(SchedulerKind::Baseline);
    let tic = mean_of(SchedulerKind::Tic);
    let tac = mean_of(SchedulerKind::Tac);
    assert!(
        tac >= tic && tic >= base,
        "efficiency ordering violated: baseline {base:.3}, tic {tic:.3}, tac {tac:.3}"
    );
}

/// A TIC-enforced tiny MLP on 2 workers × 1 PS losing 30% of transfer
/// attempts with two retransmits each: iteration 3 exhausts a budget
/// midway, iterations 0, 1, 2 and 4 recover.
fn lossy_tiny_mlp() -> (DeployedModel, Schedule, SimConfig) {
    let d = tictac::deploy(&tiny_mlp(Mode::Training, 8), &ClusterSpec::new(2, 1)).unwrap();
    let s = d.replicate_schedule(&tic(d.graph(), d.workers()[0]));
    let retry = RetryPolicy::fixed(SimDuration::from_micros(50), 2);
    let faults = FaultSpec::none().with_drop_prob(0.3).with_retry(retry);
    (d, s, SimConfig::cloud_gpu().with_faults(faults))
}

#[test]
fn a_failed_run_still_flushes_its_tallies() {
    let (d, s, cfg) = lossy_tiny_mlp();
    let g = d.graph();
    let registry = Registry::enabled();
    let plan = FaultPlan::sample(&cfg.faults, g, cfg.seed, 3);
    let failed = simulate_with_plan_observed(g, &s, &cfg, 3, &plan, &registry);
    assert!(
        matches!(failed, Err(SimError::RetriesExhausted { .. })),
        "{failed:?}"
    );
    // What the engine's per-event atomic updates recorded for this run
    // before it tallied runs and flushed them once.
    let snap = registry.snapshot();
    assert_eq!(snap.counter("sim.events"), Some(52));
    assert_eq!(snap.counter("sim.retransmits"), Some(9));
    assert_eq!(snap.counter("sim.chan0.bytes"), Some(38_480));
    // A failed run has no makespan to set idle time against.
    assert_eq!(snap.get("sim.chan0.idle_ns"), None);
}

#[test]
fn idle_gauges_read_each_runs_own_idle_time() {
    let (d, s, cfg) = lossy_tiny_mlp();
    let g = d.graph();
    let registry = Registry::enabled();
    let channels = g.channels().len();
    let busy = |c: usize| registry.counter(&format!("sim.chan{c}.busy_ns")).get();
    for iteration in [0, 1, 2] {
        let before: Vec<u64> = (0..channels).map(busy).collect();
        let plan = FaultPlan::sample(&cfg.faults, g, cfg.seed, iteration);
        let trace = simulate_with_plan_observed(g, &s, &cfg, iteration, &plan, &registry).unwrap();
        for (c, before) in before.into_iter().enumerate() {
            let own_busy = busy(c) - before;
            assert!(own_busy > 0, "channel {c} carried nothing");
            let idle = trace.makespan().as_nanos() - own_busy;
            assert_eq!(
                registry.snapshot().get(&format!("sim.chan{c}.idle_ns")),
                Some(&MetricValue::Gauge(idle as f64)),
                "iteration {iteration}, channel {c}"
            );
        }
    }
}

#[test]
fn registries_alternating_on_one_plan_see_only_their_own_runs() {
    let (d, s, cfg) = lossy_tiny_mlp();
    let g = d.graph();
    let shared = RunPlan::new(g, &s, &cfg).unwrap();
    let (a, b) = (Registry::enabled(), Registry::enabled());
    for (iteration, registry) in [(0, &a), (1, &b), (2, &a), (4, &b)] {
        let faults = shared.sample_faults(g, iteration);
        shared
            .simulate_observed(g, &s, iteration, &faults, registry)
            .unwrap();
    }
    // The same runs, each registry on its own and each run from a fresh
    // plan.
    let alone = |iterations: [u64; 2]| {
        let registry = Registry::enabled();
        for iteration in iterations {
            let plan = FaultPlan::sample(&cfg.faults, g, cfg.seed, iteration);
            simulate_with_plan_observed(g, &s, &cfg, iteration, &plan, &registry).unwrap();
        }
        registry.snapshot()
    };
    assert!(a.snapshot().counter("sim.retransmits").unwrap() > 0);
    assert_eq!(a.snapshot(), alone([0, 2]));
    assert_eq!(b.snapshot(), alone([1, 4]));
    assert_ne!(a.snapshot(), b.snapshot());
}

//! Cross-crate observability contract tests.
//!
//! Four invariants gate this layer:
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
//! 4. **Derived after the run** — the engine keeps no metrics; an
//!    observed run's `sim.*` metrics are computed from the trace it left,
//!    however it ended: a failed run's counts still land, each run's idle
//!    gauges are its own, and registries sharing one `RunPlan` never see
//!    each other's runs. Every `sim.*` metric is one DESIGN.md §8
//!    defines, and none is a histogram.

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

/// `realized_efficiency_with`'s one walk over the graph reports, for
/// every device, what `efficiency::evaluate` reports over the ops placed
/// on it: the same bounds, efficiency and speedup potential, bit for bit.
/// Parameter servers included (their channel ends are their own), on
/// uneven clusters, with both comm passes and with a heterogeneous one.
#[test]
fn realized_efficiency_is_evaluate_per_partition() {
    let comm = tictac::CommConfig::default()
        .with_partition_bytes(Some(1 << 20))
        .with_fusion_bytes(Some(64 << 10));
    let hetero = ClusterSpec::builder()
        .workers(3)
        .parameter_servers(2)
        .worker_speeds(vec![1.0, 0.5, 1.0])
        .link_bandwidths(vec![1.0, 1.0, 0.25])
        .build()
        .unwrap();
    for model in [Model::AlexNetV2, Model::InceptionV1, Model::Vgg16] {
        for cluster in [
            ClusterSpec::new(3, 2),
            ClusterSpec::new(5, 1).with_comm(comm),
            hetero.clone(),
        ] {
            let session = Session::builder(model.build_with_batch(Mode::Training, 2))
                .cluster(cluster)
                .config(SimConfig::cloud_gpu())
                .scheduler(SchedulerKind::Tic)
                .build()
                .unwrap();
            let graph = session.deployed().graph();
            let trace = session.trace_iteration(0).unwrap();
            let devices: Vec<_> = graph.devices().iter().map(|d| d.id()).collect();
            let finishes = trace.device_finishes(graph);
            let finish: Vec<SimTime> = devices
                .iter()
                .map(|d| finishes[d.index()].unwrap_or(SimTime::ZERO))
                .collect();
            let realized =
                tictac::efficiency::realized_efficiency_with(graph, &trace, &devices, &finish);
            for (w, &device) in realized.per_worker.iter().zip(&devices) {
                let ops: Vec<OpId> = graph.ops_on(device).collect();
                let want = tictac::efficiency::evaluate(
                    graph,
                    &ops,
                    |op| trace.duration(op),
                    finish[device.index()].duration_since(SimTime::ZERO),
                );
                let what = format!("{} {device}", model.name());
                assert_eq!((w.upper, w.lower), (want.upper, want.lower), "{what}");
                assert_eq!(w.efficiency, want.efficiency_clamped(), "{what}");
                assert_eq!(
                    w.speedup_potential.to_bits(),
                    want.speedup_potential.to_bits(),
                    "{what}"
                );
            }
        }
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
    // A failed run's metrics come from the trace it left: what executed
    // before its retry budget ran out.
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
        let (trace, error) = shared.run(g, &s, iteration, &faults).unwrap();
        assert_eq!(error, None);
        tictac_obs::sim_metrics(registry, g, &trace, true);
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

/// The `sim.*` names DESIGN.md §8 writes in backticks, each `{a,b}`
/// expanded to its alternatives; `{c}` and `{d}` stand for a channel's
/// and a device's index.
fn sim_names_design_lists() -> Vec<String> {
    fn expand(name: &str, out: &mut Vec<String>) {
        let group = name.match_indices('{').find_map(|(open, _)| {
            let close = open + name[open..].find('}')?;
            name[open..close].contains(',').then_some((open, close))
        });
        match group {
            Some((open, close)) => {
                for alt in name[open + 1..close].split(',') {
                    expand(
                        &format!("{}{alt}{}", &name[..open], &name[close + 1..]),
                        out,
                    );
                }
            }
            None => out.push(name.to_string()),
        }
    }
    let design = include_str!("../DESIGN.md");
    let start = design.find("\n## 8. ").expect("DESIGN.md has a section 8");
    let end = start + design[start..].find("\n## 9. ").expect("and a section 9");
    let mut names = Vec::new();
    for span in design[start..end].split('`').skip(1).step_by(2) {
        let span: String = span.split_whitespace().collect();
        if span.starts_with("sim.") {
            expand(&span, &mut names);
        }
    }
    names
}

#[test]
fn every_sim_metric_is_one_design_defines_and_none_is_a_histogram() {
    let registry = Registry::enabled();
    let session = Session::builder(Model::InceptionV1.build_with_batch(Mode::Training, 2))
        .cluster(ClusterSpec::new(2, 1))
        .scheduler(SchedulerKind::Tac)
        .iterations(2)
        .observe(registry.clone())
        .build()
        .unwrap();
    session.run();
    // Each name with its index written as DESIGN.md writes it.
    let family = |name: &str| {
        for (lane, index) in [("sim.chan", "{c}"), ("sim.dev", "{d}")] {
            if let Some(rest) = name.strip_prefix(lane) {
                let digits =
                    rest.len() - rest.trim_start_matches(|c: char| c.is_ascii_digit()).len();
                if digits > 0 {
                    return format!("{lane}{index}{}", &rest[digits..]);
                }
            }
        }
        name.to_string()
    };
    let mut families = Vec::new();
    for (name, value) in &registry.snapshot().entries {
        if !name.starts_with("sim.") {
            continue;
        }
        assert!(
            !matches!(value, MetricValue::Histogram(_)),
            "{name} is a histogram"
        );
        families.push(family(name));
    }
    families.sort();
    families.dedup();
    assert_eq!(
        families,
        [
            "sim.chan{c}.busy_ns",
            "sim.chan{c}.bytes",
            "sim.chan{c}.idle_ns",
            "sim.chan{c}.transfers",
            "sim.dev{d}.busy_ns",
            "sim.dev{d}.ops",
            "sim.events",
            "sim.retransmits",
        ]
    );
    let listed = sim_names_design_lists();
    for family in &families {
        assert!(
            listed.contains(family),
            "{family} is not defined in DESIGN.md §8: {listed:?}"
        );
    }
}

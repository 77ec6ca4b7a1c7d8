//! Backend-equivalence suite: the threaded runtime must execute the same
//! deployments, under the same schedules, with the same ordering
//! guarantees the simulator models — while its timestamps live on the
//! real wall clock.
//!
//! Five families of checks:
//!
//! * **DAG-ordering invariants** (proptest): on a threaded trace no op
//!   starts before its predecessors end. Send predecessors are skipped:
//!   a send record deliberately shares its paired recv's wire interval
//!   (the simulator attributes transfers to both endpoints), so the recv
//!   legitimately "starts" when its send does.
//! * **Enforcement invariants**: under enforced TAC every zoo model runs
//!   to completion with zero priority inversions on every channel.
//! * **Cross-backend agreement**: where the simulator predicts a clear
//!   TAC-over-baseline win, the threaded runtime agrees within a jitter
//!   margin, and schedules are byte-identical across backends.
//! * **Service-time agreement off the uniform preset**: on a
//!   heterogeneous cluster, every threaded transfer takes at least the
//!   simulator's noise-free service time, and that service time carries
//!   the link factor exactly.
//! * **One plan, both executors**: iterations run from one `RunPlan`
//!   equal fresh one-shot calls trace for trace, the threaded runtime
//!   flies transfers in the rank order the engine reads from the same
//!   plan, a schedule that does not cover its graph is rejected by the
//!   plan's one check, a send feeding two recvs is recorded once by the
//!   one record step and, under an enforced order, completes on both,
//!   and a plan whose threaded run stalled (diagnosed) runs again to
//!   completion.

use proptest::prelude::*;
use tictac::{
    deploy, no_ordering, noise_free_profile, priority_inversions, simulate,
    simulate_with_plan_observed, ClusterSpec, Cost, ExecOptions, ExecutionTrace, FaultPlan,
    FaultSpec, Graph, GraphBuilder, Mode, Model, OpKind, Platform, Registry, RetryPolicy,
    RunOptions, RunPlan, Scenario, Schedule, SchedulerKind, Session, SimConfig, SimDuration,
    SimError, TimeOracle,
};
use tictac_graph::tiny_mlp;

fn threaded_session(
    model: tictac::ModelGraph,
    cluster: ClusterSpec,
    scheduler: SchedulerKind,
    iterations: usize,
) -> Session {
    Session::builder(model)
        .cluster(cluster)
        .config(SimConfig::cloud_gpu())
        .scheduler(scheduler)
        .threaded(ExecOptions {
            time_scale: 0.5,
            watchdog: std::time::Duration::from_secs(60),
        })
        .warmup(0)
        .iterations(iterations)
        .build()
        .expect("model deploys")
}

/// No op may start before a non-send predecessor ends. (Send records
/// share their recv's wire interval by design, so they are excluded.)
fn assert_dag_order(session: &Session) {
    let graph = session.deployed().graph();
    let trace = session.trace_iteration(0).expect("iteration completes");
    assert_eq!(trace.executed_ops(), graph.len(), "every op executed");
    for op in graph.op_ids() {
        let rec = trace.record(op).expect("op recorded");
        for pred in graph.preds(op) {
            if graph.op(pred).kind().is_send() {
                continue;
            }
            let p = trace.record(pred).expect("pred recorded");
            assert!(
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn threaded_traces_respect_the_dag(
        batch in 4usize..12,
        workers in 1usize..4,
        which in 0usize..4,
    ) {
        let scheduler = SchedulerKind::ALL[which];
        let s = threaded_session(
            tiny_mlp(Mode::Training, batch),
            ClusterSpec::new(workers, 1),
            scheduler,
            1,
        );
        assert_dag_order(&s);
    }
}

#[test]
fn every_zoo_model_completes_with_zero_inversions_under_enforced_tac() {
    for model in Model::ALL {
        let s = threaded_session(
            model.build_with_batch(Mode::Training, 2),
            ClusterSpec::new(2, 1),
            SchedulerKind::Tac,
            1,
        );
        let graph = s.deployed().graph();
        let schedule = s.schedule().clone();
        let trace = s.trace_iteration(0).expect("iteration completes");
        assert_eq!(
            trace.executed_ops(),
            graph.len(),
            "{}: threaded run must complete",
            model.name()
        );
        let report = priority_inversions(graph, &trace, |op| schedule.priority(op));
        assert_eq!(
            report.count(),
            0,
            "{}: enforced TAC must fly transfers in rank order, got {:?}",
            model.name(),
            report.records
        );
    }
}

#[test]
fn schedules_are_byte_identical_across_backends() {
    for model in Model::ALL {
        for scheduler in SchedulerKind::ALL {
            let sim = Session::builder(model.build_with_batch(Mode::Training, 2))
                .cluster(ClusterSpec::new(2, 1))
                .config(SimConfig::cloud_gpu())
                .scheduler(scheduler)
                .build()
                .expect("model deploys");
            let threaded = threaded_session(
                model.build_with_batch(Mode::Training, 2),
                ClusterSpec::new(2, 1),
                scheduler,
                1,
            );
            assert_eq!(
                sim.schedule(),
                threaded.schedule(),
                "{}/{scheduler}: schedule must not depend on the backend",
                model.name()
            );
        }
    }
}

/// Where the simulator predicts a decisive TAC win over the baseline
/// (>= 5% makespan reduction), the threaded runtime must agree on the
/// direction within a generous wall-clock jitter margin.
#[test]
fn decisive_sim_rankings_hold_on_the_wall_clock() {
    let cluster = ClusterSpec::new(4, 1);
    let mut decisive = 0usize;
    for model in [Model::AlexNetV2, Model::ResNet50V1, Model::Vgg16] {
        let mean = |scheduler: SchedulerKind, threaded: bool| -> f64 {
            let graph = model.build_with_batch(Mode::Training, model.default_batch());
            let builder = Session::builder(graph)
                .cluster(cluster.clone())
                .config(SimConfig::cloud_gpu())
                .scheduler(scheduler)
                .warmup(1)
                .iterations(3);
            let builder = if threaded {
                builder.threaded(ExecOptions {
                    watchdog: std::time::Duration::from_secs(60),
                    ..ExecOptions::default()
                })
            } else {
                builder
            };
            let report = builder
                .build()
                .expect("model deploys")
                .run_with(RunOptions::new());
            report.mean_makespan().as_secs_f64()
        };
        let sim_base = mean(SchedulerKind::Baseline, false);
        let sim_tac = mean(SchedulerKind::Tac, false);
        if sim_tac > sim_base * 0.95 {
            continue; // not decisive in the simulator; skip
        }
        decisive += 1;
        let wall_base = mean(SchedulerKind::Baseline, true);
        let wall_tac = mean(SchedulerKind::Tac, true);
        assert!(
            wall_tac < wall_base * 1.02,
            "{}: sim predicts TAC {:.1}% faster, but wall-clock TAC {:.3}ms vs baseline {:.3}ms",
            model.name(),
            (1.0 - sim_tac / sim_base) * 100.0,
            wall_tac * 1e3,
            wall_base * 1e3,
        );
    }
    assert!(
        decisive > 0,
        "at least one model must show a decisive sim win"
    );
}

/// The threaded busy-loops replay the simulator's service times off the
/// uniform preset too: on the `vgg19_hetero.yml` cluster (worker 3 at
/// 0.5x speed behind a 0.25x link) every recv lasts at least `time_scale`
/// x its noise-free service time, and that service time carries the link
/// factor exactly. Nothing compares
/// two wall times: preemption only ever lengthens one, so the one-sided
/// floor is what the wall clock can be held to, and for the 0.25x link it
/// already proves the factor reached the busy-loop.
#[test]
fn hetero_cluster_reaches_the_threaded_busy_loops() {
    const TIME_SCALE: f64 = 0.25;
    let text = std::fs::read_to_string("examples/scenarios/vgg19_hetero.yml").expect("scenario");
    let scenario = Scenario::parse_grid(&text)
        .expect("scenario parses")
        .remove(0);
    let config = SimConfig::cloud_gpu();
    let session = Session::builder(scenario.model.build_with_batch(Mode::Training, 2))
        .cluster(scenario.cluster.clone())
        .config(config.clone())
        .scheduler(SchedulerKind::Tac)
        .threaded(ExecOptions {
            time_scale: TIME_SCALE,
            watchdog: std::time::Duration::from_secs(120),
        })
        .warmup(0)
        .iterations(1)
        .build()
        .expect("model deploys");
    let deployed = session.deployed();
    let graph = deployed.graph();
    let profile = noise_free_profile(graph, &config);
    let trace = session.trace_iteration(0).expect("iteration completes");
    for recv in graph.recv_ops() {
        let r = trace.record(recv).expect("op recorded");
        let floor = profile.duration(graph, recv).mul_f64(TIME_SCALE);
        assert!(
            r.end - r.start >= floor,
            "{} flew in {} but is modeled at {floor}",
            graph.op_name(recv),
            r.end - r.start,
        );
    }
    // Per parameter, the wire time (service time past the fixed latency)
    // over the 0.25x link is 4x the one over any 1.0x link, to the
    // nanosecond each of the two is rounded to.
    for p in 0..graph.params().len() {
        let wire = |w: usize| {
            let recv = deployed
                .recv_op(w, tictac::ParamId::from_index(p))
                .expect("recv");
            (profile.duration(graph, recv) - config.platform.latency()).as_nanos()
        };
        assert!(
            (1..3).all(|w| wire(w) == wire(0)),
            "param {p}: fast links differ"
        );
        assert!(
            wire(3).abs_diff(4 * wire(0)) <= 2,
            "param {p}: {} ns over the 0.25x link vs {} ns over a 1.0x link",
            wire(3),
            wire(0),
        );
    }
}

/// The prioritized recvs of each channel in the order they started on the
/// wire (gradient pushes carry no rank and fill in between them).
fn wire_order(
    graph: &Graph,
    schedule: &Schedule,
    trace: &ExecutionTrace,
) -> Vec<Vec<tictac::OpId>> {
    let mut per_channel = vec![Vec::new(); graph.channels().len()];
    for (recv, _) in schedule.prioritized() {
        let channel = graph.op(recv).kind().channel().expect("a recv has one");
        let start = trace.record(recv).expect("recv recorded").start;
        per_channel[channel.index()].push((start, recv));
    }
    per_channel
        .into_iter()
        .map(|mut recvs| {
            recvs.sort_unstable();
            recvs.into_iter().map(|(_, recv)| recv).collect()
        })
        .collect()
}

/// Iterations `0..6` run from one plan (observed or not, through the sim
/// backend) are, trace for trace, six fresh `simulate_with_plan_observed`
/// calls — quiet or faulty, observed or not
/// — and are what the session built on the same triple executes. Under an
/// enforced schedule the threaded runtime, run from that plan too, flies
/// every channel's transfers in the schedule's rank order, as the engine
/// does once its modeled reorder error is off.
#[test]
fn one_plan_serves_every_iteration_and_both_executors() {
    let recoverable = FaultSpec::none()
        .with_drop_prob(0.2)
        .with_retry(RetryPolicy::fixed(SimDuration::from_micros(50), 40));
    let opts = ExecOptions {
        time_scale: 0.25,
        watchdog: std::time::Duration::from_secs(60),
    };
    for scheduler in [
        SchedulerKind::Baseline,
        SchedulerKind::Tic,
        SchedulerKind::Tac,
    ] {
        for faults in [FaultSpec::none(), recoverable.clone()] {
            let config = SimConfig::cloud_gpu().with_faults(faults);
            let session = Session::builder(Model::AlexNetV2.build_with_batch(Mode::Training, 2))
                .cluster(ClusterSpec::new(2, 1))
                .config(config.clone())
                .scheduler(scheduler)
                .build()
                .expect("model deploys");
            let (graph, schedule) = (session.deployed().graph(), session.schedule());
            let plan = RunPlan::new(graph, schedule, &config).expect("schedule covers graph");
            for i in 0..6 {
                let sampled = plan.sample_faults(graph, i);
                let fresh = RunPlan::new(graph, schedule, &config)
                    .and_then(|fresh| fresh.try_simulate(graph, schedule, i))
                    .expect("recoverable");
                for registry in [Registry::disabled(), Registry::enabled()] {
                    let (planned, error) = plan
                        .run(graph, schedule, i, &sampled)
                        .expect("a retry budget inside the horizon");
                    tictac_obs::sim_metrics(&registry, graph, &planned, error.is_none());
                    let one_shot = simulate_with_plan_observed(
                        graph, schedule, &config, i, &sampled, &registry,
                    );
                    assert_eq!(error, None, "{scheduler}, iteration {i}");
                    assert_eq!(planned, fresh, "{scheduler}, iteration {i}");
                    assert_eq!(one_shot.as_ref(), Ok(&fresh), "{scheduler}, iteration {i}");
                }
                assert_eq!(plan.try_simulate(graph, schedule, i).as_ref(), Ok(&fresh));
                assert_eq!(session.trace_iteration(i).ok().as_ref(), Some(&fresh));
            }

            if scheduler == SchedulerKind::Baseline || !config.faults.is_quiet() {
                continue;
            }
            let ranked = schedule.ordered_recvs_per_channel(graph);
            let exact = RunPlan::new(graph, schedule, &config.clone().with_reorder_error(0.0))
                .expect("schedule covers graph");
            let engine = exact.try_simulate(graph, schedule, 0).expect("quiet run");
            let threads = exact
                .run_threaded(graph, schedule, &opts, 0)
                .expect("quiet run");
            let flown = |trace| wire_order(graph, schedule, trace);
            assert_eq!(flown(&engine), ranked, "{scheduler}: engine");
            assert_eq!(flown(&threads), ranked, "{scheduler}: threads");
        }
    }

    // A schedule one op short never reaches an executor.
    let session = threaded_session(
        tiny_mlp(Mode::Training, 8),
        ClusterSpec::new(2, 1),
        SchedulerKind::Tic,
        1,
    );
    let graph = session.deployed().graph();
    let (config, short) = (SimConfig::cloud_gpu(), Schedule::empty(graph.len() - 1));
    let mismatch = SimError::ScheduleMismatch {
        schedule_len: graph.len() - 1,
        graph_len: graph.len(),
    };
    assert_eq!(
        RunPlan::new(graph, &short, &config).err(),
        Some(mismatch.clone())
    );
    let quiet = FaultPlan::quiet();
    let one_shot =
        simulate_with_plan_observed(graph, &short, &config, 0, &quiet, &Registry::disabled());
    assert_eq!(one_shot, Err(mismatch));
}

/// A run that outlives its watchdog reports *which* ops and channels were
/// left — and the same plan then runs an iteration to completion: each
/// run builds fresh runtime state, so one stall must not poison the plan.
/// The iteration models ~50 ms, fifty times the first run's watchdog.
#[test]
fn a_stalled_plan_is_diagnosable_and_reusable() {
    let model = Model::InceptionV1.build_with_batch(Mode::Training, 2);
    let d = deploy(&model, &ClusterSpec::new(2, 1)).unwrap();
    let (graph, s) = (d.graph(), no_ordering(d.graph()));
    let plan = RunPlan::new(graph, &s, &SimConfig::cloud_gpu()).expect("schedule covers graph");
    let doomed = ExecOptions {
        watchdog: std::time::Duration::from_millis(1),
        ..ExecOptions::default()
    };
    match plan.run_threaded(graph, &s, &doomed, 0) {
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
            assert_eq!(channel_depths.len(), graph.channels().len());
        }
        other => panic!("expected a Stalled error, got {other:?}"),
    }
    let trace = plan
        .run_threaded(graph, &s, &ExecOptions::default(), 0)
        .expect("the same plan must run an iteration after a stall");
    assert_eq!(trace.executed_ops(), graph.len());
}

/// Two parameters on one channel: `p`'s send (after its read) feeds two
/// recvs, `q`'s one; a compute op joins all three. Under the enforced
/// order `[pa, pb, q]` the shared send holds one rank, that of its first
/// recv. Returns the graph, the schedule and the recvs.
fn shared_send_under_an_enforced_order() -> (Graph, Schedule, [tictac::OpId; 3]) {
    let mut b = GraphBuilder::new();
    let w = b.add_worker("w0");
    let ps = b.add_parameter_server("ps0");
    let ch = b.add_channel(w, ps);
    let mut sends = Vec::new();
    for name in ["p", "q"] {
        let param = b.add_param(name, 4096);
        b.assign_param_to_ps(param, ps);
        let read = b.add_op(
            format!("read_{name}"),
            ps,
            OpKind::Read { param },
            Cost::flops(1.0),
            &[],
        );
        let send = OpKind::send(param, ch);
        sends.push((
            param,
            b.add_op(format!("send_{name}"), ps, send, Cost::bytes(4096), &[read]),
        ));
    }
    let recvs = [
        ("recv_pa", sends[0]),
        ("recv_pb", sends[0]),
        ("recv_q", sends[1]),
    ]
    .map(|(name, (param, send))| {
        b.add_op(name, w, OpKind::recv(param, ch), Cost::bytes(4096), &[send])
    });
    b.add_op("c", w, OpKind::Compute, Cost::flops(1e6), &recvs);
    let g = b.build().expect("valid graph");
    let mut s = Schedule::empty(g.len());
    for (priority, &recv) in recvs.iter().enumerate() {
        s.set(recv, priority as u64);
    }
    (g, s, recvs)
}

/// The engine completes the shared send's iteration: ranked at its last
/// recv, the send left the gate waiting for a rank no send held
/// (`Deadlock { completed: 2, remaining: 6 }`, the two reads done).
#[test]
fn an_enforced_send_feeding_two_recvs_completes_on_the_engine() {
    let (g, s, [pa, ..]) = shared_send_under_an_enforced_order();
    let config = SimConfig::deterministic(Platform::cloud_gpu());
    let trace = simulate(&g, &s, &config, 0);
    assert_eq!(trace.executed_ops(), g.len());
    let send = g.preds(pa).next().unwrap();
    assert_eq!(
        trace.record(send),
        trace.record(pa),
        "recorded at its first recv"
    );
}

/// The threaded runtime flies both recvs of the shared send at its one
/// rank, before the next send's recv, and completes the iteration
/// instead of stalling behind a rank no send holds.
#[test]
fn an_enforced_send_feeding_two_recvs_completes_on_the_threads() {
    let (g, s, recvs) = shared_send_under_an_enforced_order();
    let config = SimConfig::deterministic(Platform::cloud_gpu());
    let opts = ExecOptions {
        time_scale: 0.5,
        watchdog: std::time::Duration::from_secs(5),
    };
    let trace = RunPlan::new(&g, &s, &config)
        .and_then(|plan| plan.run_threaded(&g, &s, &opts, 0))
        .expect("threads complete");
    assert_eq!(trace.executed_ops(), g.len());
    let start = |op| trace.record(op).expect("recorded").start;
    assert!(start(recvs[0]).max(start(recvs[1])) <= start(recvs[2]));
}

/// One channel whose ranked transfers mix sendless recvs (roots, as a
/// hand-built graph may model them) and a send behind a PS read, under
/// the enforced priority order sendless, send, sendless. Returns the
/// graph, the schedule and the three recvs in priority order.
fn sendless_recvs_beside_a_send() -> (Graph, Schedule, [tictac::OpId; 3]) {
    let mut b = GraphBuilder::new();
    let w = b.add_worker("w0");
    let ps = b.add_parameter_server("ps0");
    let ch = b.add_channel(w, ps);
    let [pa, pb, pc] = ["pa", "pb", "pc"].map(|name| b.add_param(name, 4096));
    b.assign_param_to_ps(pb, ps);
    let read = b.add_op(
        "read_pb",
        ps,
        OpKind::Read { param: pb },
        Cost::flops(1.0),
        &[],
    );
    let send = b.add_op(
        "send_pb",
        ps,
        OpKind::send(pb, ch),
        Cost::bytes(4096),
        &[read],
    );
    let recvs = [
        ("recv_pa", pa, None),
        ("recv_pb", pb, Some(send)),
        ("recv_pc", pc, None),
    ]
    .map(|(name, param, send)| {
        let deps: Vec<_> = send.into_iter().collect();
        b.add_op(name, w, OpKind::recv(param, ch), Cost::bytes(4096), &deps)
    });
    b.add_op("c", w, OpKind::Compute, Cost::flops(1e6), &recvs);
    let g = b.build().expect("valid graph");
    let mut s = Schedule::empty(g.len());
    for (priority, &recv) in recvs.iter().enumerate() {
        s.set(recv, priority as u64);
    }
    (g, s, recvs)
}

/// The engine completes a channel that mixes sendless recvs and a send
/// under enforcement, in priority order: the send's gate rank counts the
/// channel's sends only. When the sendless recvs held ranks in the gate's
/// sequence, no hand-off advanced the gate past them and the send waited
/// for ever (`Deadlock`).
#[test]
fn an_enforced_channel_mixing_sendless_recvs_and_sends_completes_on_the_engine() {
    let (g, s, recvs) = sendless_recvs_beside_a_send();
    let config = SimConfig::deterministic(Platform::cloud_gpu());
    let trace = simulate(&g, &s, &config, 0);
    assert_eq!(trace.executed_ops(), g.len());
    let w = g.devices()[0].id();
    assert_eq!(trace.recv_completion_order(&g, w), recvs);
}

/// The threaded runtime reads the same gate ranks and flies the mixed
/// channel's transfers in priority order too.
#[test]
fn an_enforced_channel_mixing_sendless_recvs_and_sends_completes_on_the_threads() {
    let (g, s, recvs) = sendless_recvs_beside_a_send();
    let config = SimConfig::deterministic(Platform::cloud_gpu());
    let opts = ExecOptions {
        time_scale: 0.5,
        watchdog: std::time::Duration::from_secs(5),
    };
    let trace = RunPlan::new(&g, &s, &config)
        .and_then(|plan| plan.run_threaded(&g, &s, &opts, 0))
        .expect("threads complete");
    assert_eq!(trace.executed_ops(), g.len());
    let w = g.devices()[0].id();
    assert_eq!(trace.recv_completion_order(&g, w), recvs);
}

/// A hand-built graph may feed one send into several recvs. Both
/// executors run it to completion and record the send once, over the
/// interval of whichever recv finished first.
#[test]
fn a_send_feeding_two_recvs_is_recorded_once_on_both_executors() {
    let mut b = GraphBuilder::new();
    let w = b.add_worker("w0");
    let ps = b.add_parameter_server("ps0");
    let ch = b.add_channel(w, ps);
    let p = b.add_param("p", 4096);
    b.assign_param_to_ps(p, ps);
    let send = b.add_op("send", ps, OpKind::send(p, ch), Cost::bytes(4096), &[]);
    let recvs = ["recv_a", "recv_b"]
        .map(|name| b.add_op(name, w, OpKind::recv(p, ch), Cost::bytes(4096), &[send]));
    let g = b.build().expect("valid graph");
    let (s, config) = (no_ordering(&g), SimConfig::cloud_gpu());
    let opts = ExecOptions {
        time_scale: 0.5,
        watchdog: std::time::Duration::from_secs(60),
    };
    let engine = simulate(&g, &s, &config, 0);
    let threads = RunPlan::new(&g, &s, &config)
        .and_then(|plan| plan.run_threaded(&g, &s, &opts, 0))
        .expect("threads complete");
    for (executor, trace) in [("engine", engine), ("threads", threads)] {
        assert_eq!(trace.executed_ops(), g.len(), "{executor}");
        let first = recvs
            .map(|r| trace.record(r).expect("recv recorded"))
            .into_iter()
            .min_by_key(|r| r.end);
        assert_eq!(trace.record(send), first, "{executor}");
    }
}

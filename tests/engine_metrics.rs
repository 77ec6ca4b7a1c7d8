//! The engine metrics (`sim.*`) an observed run leaves in its registry,
//! over a fixed matrix of runs, against the lines the event engine
//! tallied itself before its metrics were derived from the trace
//! (`tests/snapshots/engine_metrics.txt`, recorded from that engine).
//!
//! The matrix crosses the three environments (noise-free, envG, envC)
//! with the three schedulers (baseline, TIC, enforced TAC) on a zoo
//! model, and adds the fault shapes that end a run in different ways:
//! drops recovered by retransmits, a crash overlapping a blackout and a
//! PS stall, a degraded barrier and a run that fails, plus one cluster
//! with more than 64 channels. Each case runs a few iterations into one
//! registry, so counters sum over them and gauges read the last.
//!
//! Every line must equal the engine's. The snapshot holds counters and
//! gauges only, the metrics DESIGN.md §8 defines: the engine's queue- and
//! ready-depth histograms are not derived from the trace, and their lines
//! are not in it.
//!
//! The same matrix, at its seed and three more, holds the readiness rule
//! (`derived_ready`): when an op became ready follows from the DAG, the
//! schedule's gate order and the recorded intervals, and no executed op
//! starts before it.

use tictac::{
    deploy, no_ordering, simulate_with_plan_observed, tic, ClusterSpec, DeployedModel, ExecOptions,
    ExecutionTrace, FaultPlan, FaultSpec, Graph, MetricValue, Mode, Model, ModelGraph, OpId,
    Platform, Registry, RetryPolicy, RunPlan, Schedule, SchedulerKind, Session, SimConfig,
    SimDuration, SimTime,
};
use tictac_graph::tiny_mlp;

/// The engine's lines: one `# case` header per case, then one line per
/// `sim.*` metric in name order.
const TALLIED: &str = include_str!("snapshots/engine_metrics.txt");

/// `(case header, line)` for every metric line of `text`.
fn by_case(text: &str) -> Vec<(&str, &str)> {
    let mut case = "";
    let mut lines = Vec::new();
    for line in text.lines() {
        if line.starts_with('#') {
            case = line;
        } else {
            lines.push((case, line));
        }
    }
    lines
}

/// The schedule `kind` gives `model` on `cluster` under `config`, as a
/// session derives it (TAC profiles under the config's noise).
fn schedule(
    model: &ModelGraph,
    cluster: &ClusterSpec,
    config: &SimConfig,
    kind: SchedulerKind,
) -> (DeployedModel, Schedule) {
    let d = deploy(model, cluster).unwrap();
    let s = match kind {
        SchedulerKind::Baseline => no_ordering(d.graph()),
        SchedulerKind::Tic => d.replicate_schedule(&tic(d.graph(), d.workers()[0])),
        _ => Session::builder(model.clone())
            .cluster(cluster.clone())
            .config(config.clone())
            .scheduler(kind)
            .build()
            .unwrap()
            .schedule()
            .clone(),
    };
    (d, s)
}

/// One `sim.*` metric as a line: counters and gauges by value, histograms
/// by every bucket and summary field.
fn line(name: &str, value: &MetricValue) -> String {
    match value {
        MetricValue::Counter(v) => format!("{name} counter {v}"),
        MetricValue::Gauge(v) => format!("{name} gauge {v}"),
        MetricValue::Histogram(h) => format!(
            "{name} histogram count {} sum {} max {} buckets {:?}",
            h.count, h.sum, h.max, h.buckets
        ),
        MetricValue::Timer(_) => format!("{name} timer"),
    }
}

/// One case of the matrix: a title, a deployment under a schedule, the
/// config it runs under and the iterations it runs.
struct Case {
    title: String,
    run: (DeployedModel, Schedule),
    config: SimConfig,
    iterations: std::ops::Range<u64>,
}

/// Runs `iterations` of one case into a fresh registry and renders its
/// `sim.*` metrics, a failed iteration's included.
fn render(out: &mut String, c: &Case) {
    let (d, s) = &c.run;
    let registry = Registry::enabled();
    let mut outcomes = Vec::new();
    for i in c.iterations.clone() {
        let plan = FaultPlan::sample(&c.config.faults, d.graph(), c.config.seed, i);
        let run = simulate_with_plan_observed(d.graph(), s, &c.config, i, &plan, &registry);
        outcomes.push(if run.is_ok() { "ok" } else { "failed" });
    }
    out.push_str(&format!("# {}: {}\n", c.title, outcomes.join(" ")));
    for (name, value) in &registry.snapshot().entries {
        if name.starts_with("sim.") {
            out.push_str(&line(name, value));
            out.push('\n');
        }
    }
}

/// The matrix, at the config seed `seed` if one is given.
fn cases(seed: Option<u64>) -> Vec<Case> {
    let mut cases = Vec::new();
    let mut push =
        |title: String, model: &ModelGraph, cluster, config: &SimConfig, kind, iterations| {
            let mut config = config.clone();
            config.seed = seed.unwrap_or(config.seed);
            let run = schedule(model, cluster, &config, kind);
            cases.push(Case {
                title,
                run,
                config,
                iterations,
            });
        };
    let alexnet = Model::AlexNetV2.build_with_batch(Mode::Training, 2);
    let two = ClusterSpec::new(2, 1);
    let envs = [
        ("quiet", SimConfig::deterministic(Platform::cloud_gpu())),
        ("envG", SimConfig::cloud_gpu()),
        ("envC", SimConfig::cpu_cluster()),
    ];
    let kinds = [
        ("baseline", SchedulerKind::Baseline),
        ("tic", SchedulerKind::Tic),
        ("tac", SchedulerKind::Tac),
    ];
    for (env, config) in &envs {
        for (name, kind) in kinds {
            let title = format!("alexnet 2x1 {env} {name}");
            push(title, &alexnet, &two, config, kind, 0..2);
        }
    }

    let retry = RetryPolicy::fixed(SimDuration::from_micros(50), 40);
    let faults = [
        (
            "drops",
            FaultSpec::none().with_drop_prob(0.2).with_retry(retry),
        ),
        (
            "crash+blackout+stall",
            FaultSpec::none()
                .with_crashes(1.0, SimDuration::from_millis(2))
                .with_blackouts(1.0, SimDuration::from_millis(3))
                .with_ps_stalls(1.0, SimDuration::from_millis(4))
                .with_onset_window(SimDuration::from_millis(5))
                .with_retry(retry),
        ),
        (
            "barrier",
            FaultSpec::none()
                .with_drop_prob(0.5)
                .with_retry(RetryPolicy::fixed(SimDuration::from_micros(50), 1))
                .with_barrier_timeout(SimDuration::from_millis(8)),
        ),
        (
            "failing",
            FaultSpec::none()
                .with_drop_prob(0.3)
                .with_retry(RetryPolicy::fixed(SimDuration::from_micros(50), 2)),
        ),
    ];
    for (fault, spec) in &faults {
        let config = SimConfig::cloud_gpu().with_faults(spec.clone());
        for (name, kind) in kinds {
            let title = format!("alexnet 2x1 envG {fault} {name}");
            push(title, &alexnet, &two, &config, kind, 0..3);
        }
    }

    let wide = ClusterSpec::new(40, 2);
    let tiny = tiny_mlp(Mode::Training, 8);
    for (env, config) in &envs[1..] {
        for (name, kind) in kinds {
            let title = format!("tiny_mlp 40x2 {env} {name}");
            push(title, &tiny, &wide, config, kind, 0..1);
        }
    }
    cases
}

fn matrix() -> String {
    let mut out = String::new();
    for c in cases(None) {
        render(&mut out, &c);
    }
    out
}

#[test]
fn engine_metrics_equal_the_engines_tallies() {
    let got = matrix();
    let headers = |text: &str| -> Vec<String> {
        text.lines()
            .filter(|l| l.starts_with('#'))
            .map(String::from)
            .collect()
    };
    assert_eq!(
        headers(&got),
        headers(TALLIED),
        "the cases and their outcomes"
    );
    let (got, tallied) = (by_case(&got), by_case(TALLIED));
    for (&(case, line), &(_, want)) in got.iter().zip(&tallied) {
        assert_eq!(line, want, "{case}: a metric moved");
    }
    assert_eq!(got.len(), tallied.len(), "the metrics registered");
}

/// The send feeding `recv`, if the graph models one.
fn paired_send(graph: &Graph, recv: OpId) -> Option<OpId> {
    graph.preds(recv).find(|&p| graph.op(p).kind().is_send())
}

/// When each op became ready, derived from the graph, the schedule and
/// the trace's records alone: an op is ready when its last predecessor
/// completes, or at 0 if it has none. A recv or compute op completes
/// where its record ends; a send completes when it is handed off, which
/// is when it is ready, except that under enforcement a ranked send waits
/// at its channel's gate for the send ranked just before it (§5.1). A
/// channel's ranked sends are its recvs' sends in the schedule's priority
/// order, each at its first recv. `None` for an op some predecessor of
/// which never completed.
fn derived_ready(
    graph: &Graph,
    schedule: &Schedule,
    enforcement: bool,
    trace: &ExecutionTrace,
) -> Vec<Option<SimTime>> {
    let n = graph.len();
    // The gate order as edges: each ranked send's neighbours in it.
    let (mut gate_next, mut gated_behind) = (vec![None; n], vec![None; n]);
    let mut indegree: Vec<usize> = graph.op_ids().map(|op| graph.preds(op).count()).collect();
    if enforcement && !schedule.is_unordered() {
        let mut ranked = vec![false; n];
        for recvs in schedule.ordered_recvs_per_channel(graph) {
            let mut last: Option<OpId> = None;
            for send in recvs.into_iter().filter_map(|r| paired_send(graph, r)) {
                if std::mem::replace(&mut ranked[send.index()], true) {
                    continue;
                }
                if let Some(prev) = last {
                    gate_next[prev.index()] = Some(send);
                    gated_behind[send.index()] = Some(prev);
                    indegree[send.index()] += 1;
                }
                last = Some(send);
            }
        }
    }
    // Kahn's order over the DAG's edges and the gates' together.
    let (mut ready, mut done) = (vec![None; n], vec![None; n]);
    let mut queue: Vec<OpId> = graph
        .op_ids()
        .filter(|op| indegree[op.index()] == 0)
        .collect();
    while let Some(op) = queue.pop() {
        let mut preds = graph.preds(op);
        let at = preds.try_fold(SimTime::ZERO, |at, p| done[p.index()].map(|d| at.max(d)));
        ready[op.index()] = at;
        done[op.index()] = if graph.op(op).kind().is_send() {
            match gated_behind[op.index()] {
                Some(prev) => at.zip(done[prev.index()]).map(|(a, d)| a.max(d)),
                None => at,
            }
        } else {
            trace.record(op).map(|r| r.end)
        };
        for next in graph.succs(op).chain(gate_next[op.index()]) {
            indegree[next.index()] -= 1;
            if indegree[next.index()] == 0 {
                queue.push(next);
            }
        }
    }
    ready
}

/// Checks that every executed op of `trace` was ready, by
/// [`derived_ready`], no later than it started; returns how many
/// executed.
fn check_ready_before_start(
    title: &str,
    (d, s): &(DeployedModel, Schedule),
    enforcement: bool,
    trace: &ExecutionTrace,
) -> usize {
    let g = d.graph();
    let ready = derived_ready(g, s, enforcement, trace);
    let mut executed = 0;
    for op in g.op_ids() {
        if let Some(record) = trace.record(op) {
            let derived = ready[op.index()].expect("an executed op was ready");
            assert!(
                derived <= record.start,
                "{title}: {op} starts before it is ready"
            );
            executed += 1;
        }
    }
    executed
}

/// No op starts before it is ready: on every case of the matrix, at its
/// seed and three more, faulty, degraded and failed runs included, every
/// executed op's derived ready instant is at or before its start. The
/// count pins what the check covers: 76 942 executed ops in 108 cases.
#[test]
fn no_op_starts_before_it_is_ready() {
    let mut executed = 0;
    for seed in [None, Some(1), Some(2), Some(3)] {
        for c in cases(seed) {
            let (d, s) = &c.run;
            let plan = RunPlan::new(d.graph(), s, &c.config).unwrap();
            for i in c.iterations.clone() {
                let faults = plan.sample_faults(d.graph(), i);
                let (trace, _) = plan.run(d.graph(), s, i, &faults).unwrap();
                executed +=
                    check_ready_before_start(&c.title, &c.run, c.config.enforcement, &trace);
            }
        }
    }
    assert_eq!(executed, 76_942, "the executed ops the matrix covers");
}

/// The same on the threaded runtime, for the matrix's noise-free cases:
/// its wall clock only runs on between a predecessor's end and its
/// successor's start.
#[test]
fn no_threaded_op_starts_before_it_is_ready() {
    let opts = ExecOptions {
        time_scale: 0.25,
        watchdog: std::time::Duration::from_secs(60),
    };
    for c in cases(None).iter().filter(|c| c.title.contains("quiet")) {
        let (d, s) = &c.run;
        let plan = RunPlan::new(d.graph(), s, &c.config).unwrap();
        for i in c.iterations.clone() {
            let trace = plan.run_threaded(d.graph(), s, &opts, i).unwrap();
            let executed = check_ready_before_start(&c.title, &c.run, c.config.enforcement, &trace);
            assert_eq!(
                executed,
                d.graph().len(),
                "{}: a quiet run executes every op",
                c.title
            );
        }
    }
}

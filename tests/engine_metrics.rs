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

use tictac::{
    deploy, no_ordering, simulate_with_plan_observed, tic, ClusterSpec, DeployedModel, FaultPlan,
    FaultSpec, MetricValue, Mode, Model, ModelGraph, Platform, Registry, RetryPolicy, Schedule,
    SchedulerKind, Session, SimConfig, SimDuration,
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

/// Runs `iterations` of one case into a fresh registry and renders its
/// `sim.*` metrics, a failed iteration's included.
fn case(
    out: &mut String,
    title: &str,
    (d, s): &(DeployedModel, Schedule),
    config: &SimConfig,
    iterations: std::ops::Range<u64>,
) {
    let registry = Registry::enabled();
    let mut outcomes = Vec::new();
    for i in iterations {
        let plan = FaultPlan::sample(&config.faults, d.graph(), config.seed, i);
        let run = simulate_with_plan_observed(d.graph(), s, config, i, &plan, &registry);
        outcomes.push(if run.is_ok() { "ok" } else { "failed" });
    }
    out.push_str(&format!("# {title}: {}\n", outcomes.join(" ")));
    for (name, value) in &registry.snapshot().entries {
        if name.starts_with("sim.") {
            out.push_str(&line(name, value));
            out.push('\n');
        }
    }
}

fn matrix() -> String {
    let mut out = String::new();
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
            let run = schedule(&alexnet, &two, config, kind);
            case(
                &mut out,
                &format!("alexnet 2x1 {env} {name}"),
                &run,
                config,
                0..2,
            );
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
            let run = schedule(&alexnet, &two, &config, kind);
            case(
                &mut out,
                &format!("alexnet 2x1 envG {fault} {name}"),
                &run,
                &config,
                0..3,
            );
        }
    }

    let wide = ClusterSpec::new(40, 2);
    let tiny = tiny_mlp(Mode::Training, 8);
    for (env, config) in &envs[1..] {
        for (name, kind) in kinds {
            let run = schedule(&tiny, &wide, config, kind);
            case(
                &mut out,
                &format!("tiny_mlp 40x2 {env} {name}"),
                &run,
                config,
                0..1,
            );
        }
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

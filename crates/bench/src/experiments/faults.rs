//! Fault sweep (robustness extension, not a paper figure): does TicTac's
//! scheduling advantage survive an unreliable substrate?
//!
//! Part (a) sweeps transient transfer-drop rates and compares baseline,
//! TIC and TAC throughput with timeout-driven retransmits recovering every
//! loss. Part (b) injects persistent stragglers under a degraded-mode
//! barrier and reports how much work each policy defers.

use super::{point, sweep};
use crate::format::Table;
use tictac_core::{
    BackendKind, ClusterSpec, EnvPreset, FaultSpec, Mode, Model, RetryPolicy, Scenario,
    SchedulerKind, Session, SimDuration,
};

const POLICIES: [SchedulerKind; 3] = [
    SchedulerKind::Baseline,
    SchedulerKind::Tic,
    SchedulerKind::Tac,
];

/// Wall-clock compression of part (c)'s threaded runs: an envC iteration
/// models up to 53 s (VGG-19) and the threaded backend's watchdog allows
/// 30 s. Their throughput is converted back to model time.
const WALL_SCALE: f64 = 0.25;

/// Runs the fault sweep; `quick` trims the model and iteration counts.
pub fn run(quick: bool) -> String {
    let (model, iterations) = if quick {
        (Model::InceptionV1, 2)
    } else {
        (Model::InceptionV2, 5)
    };
    // Detection well under the iteration time, exponential backoff, and a
    // budget deep enough that even a 10% drop rate always recovers.
    let retry = RetryPolicy::fixed(SimDuration::from_millis(20), 12).with_backoff(1.5);
    // envC training on 4 workers / 1 PS, one warm-up iteration.
    let scenario = |model, scheduler, faults, iterations| Scenario {
        env: EnvPreset::C,
        faults,
        warmup: 1,
        iterations,
        ..point(model, Mode::Training, ClusterSpec::new(4, 1), scheduler)
    };

    // (a) Drop-rate sweep: every loss recovered by retransmission. The
    // first run of reports is the clean one.
    let drops = [0.0, 0.005, 0.02, 0.05, 0.10];
    let reports = sweep(
        drops
            .iter()
            .flat_map(|&drop| {
                let spec = FaultSpec::none().with_drop_prob(drop).with_retry(retry);
                POLICIES.map(|policy| scenario(model, policy, spec.clone(), iterations))
            })
            .collect(),
    );
    let mut table_a = Table::new([
        "drop%",
        "policy",
        "samples/s",
        "vs clean",
        "drops",
        "rexmits",
        "timeouts",
    ]);
    let runs = reports.chunks_exact(POLICIES.len());
    for (drop, run) in drops.iter().zip(runs) {
        for ((policy, report), clean) in POLICIES.iter().zip(run).zip(&reports) {
            let throughput = report.mean_throughput();
            let faults = report.total_faults();
            table_a.row([
                format!("{:.1}", drop * 100.0),
                policy.to_string(),
                format!("{throughput:.1}"),
                format!("{:.3}", throughput / clean.mean_throughput()),
                faults.drops.to_string(),
                faults.retransmits.to_string(),
                faults.timeouts.to_string(),
            ]);
        }
    }

    // (b) Degraded barrier under persistent stragglers: barrier at 1.2x
    // the clean baseline step, stragglers 3x slower.
    let barrier = reports[0].mean_makespan().mul_f64(1.2);
    let spec = FaultSpec::none()
        .with_stragglers(0.5, 3.0)
        .with_retry(retry)
        .with_barrier_timeout(barrier);
    let reports = sweep(
        POLICIES
            .map(|p| scenario(model, p, spec.clone(), iterations))
            .to_vec(),
    );
    let mut degraded = Table::new([
        "policy",
        "goodput%",
        "deferred",
        "degraded iters",
        "samples/s",
    ]);
    for (policy, report) in POLICIES.iter().zip(&reports) {
        let faults = report.total_faults();
        degraded.row([
            policy.to_string(),
            format!("{:.2}", report.mean_goodput_pct()),
            faults.deferred_ops.to_string(),
            format!("{}/{}", faults.degraded_barriers, report.iterations.len()),
            format!("{:.1}", report.mean_throughput()),
        ]);
    }

    // (c) Cross-backend fault accounting: the same seed and spec on the
    // simulator and on the threaded runtime. Drops/stragglers/PS stalls
    // tally identically on both (the sampler and the keyed drop decisions
    // are backend-agnostic); goodput and retransmission load stay
    // comparable on the wall clock.
    let models = &super::pick_models(quick)[..if quick { 2 } else { 4 }];
    let clean_tac = |&m| scenario(m, SchedulerKind::Tac, FaultSpec::none(), 1);
    let clean = sweep(models.iter().map(clean_tac).collect());
    let mut backends = Table::new([
        "model",
        "backend",
        "samples/s",
        "goodput%",
        "drops",
        "rexmits",
        "faults",
        "json",
    ]);
    for (&model, clean) in models.iter().zip(&clean) {
        let clean = clean.mean_makespan();
        let spec = FaultSpec::none()
            .with_drop_prob(0.02)
            .with_stragglers(0.3, 2.0)
            .with_ps_stalls(0.3, clean.mul_f64(0.05))
            .with_onset_window(clean.mul_f64(0.3))
            .with_retry(RetryPolicy::fixed(clean.mul_f64(0.02), 60));
        for (backend, scale) in [(BackendKind::Sim, 1.0), (BackendKind::Threaded, WALL_SCALE)] {
            let report = Session::from_scenario(&Scenario {
                backend,
                warmup: 0,
                time_scale: Some(WALL_SCALE),
                ..scenario(model, SchedulerKind::Tac, spec.clone(), iterations)
            })
            .expect("valid cluster")
            .try_run()
            .expect("retry budget covers the sweep");
            let faults = report.total_faults();
            backends.row([
                model.name().to_string(),
                backend.to_string(),
                format!("{:.1}", report.mean_throughput() * scale),
                format!("{:.2}", report.mean_goodput_pct()),
                faults.drops.to_string(),
                faults.retransmits.to_string(),
                faults.to_string(),
                faults.to_json(),
            ]);
        }
    }

    format!(
        "Fault sweep (envC, {model} training, 4 workers x 1 PS, {iterations} iterations/cell)\n\n\
(a) Transient transfer drops, recovered by timeout + retransmit\n    (detection 20 ms, backoff 1.5x, <=12 retransmits):\n{}\n\
(b) Persistent 3x stragglers (p=0.5/worker) under a degraded barrier\n    at 1.2x the clean baseline step ({barrier}):\n{}\n\
    Goodput below 100% means the barrier released the iteration with\n    the stragglers' updates deferred to the next iteration.\n\n\
(c) Same seed, same spec, both backends (TAC; 2% drops + stragglers +\n    PS stalls; the threaded runtime replays model time 4x faster on the\n    wall clock, and its samples/s are converted back to model time):\n{}\n",
        table_a.render(),
        degraded.render(),
        backends.render(),
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn report_has_sweep_and_degraded_sections() {
        let out = super::run(true);
        assert!(out.contains("drop%"));
        assert!(out.contains("rexmits"));
        assert!(out.contains("goodput%"));
        assert!(out.contains("degraded"));
    }
}

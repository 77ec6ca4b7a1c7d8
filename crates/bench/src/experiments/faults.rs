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
    ClusterSpec, EnvPreset, FaultSpec, Mode, Model, RetryPolicy, Scenario, SchedulerKind,
    SimDuration,
};

const POLICIES: [SchedulerKind; 3] = [
    SchedulerKind::Baseline,
    SchedulerKind::Tic,
    SchedulerKind::Tac,
];

/// Runs the fault sweep; `quick` trims the model and iteration counts.
pub(crate) fn run(quick: bool) -> String {
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

    format!(
        "Fault sweep (envC, {model} training, 4 workers x 1 PS, {iterations} iterations/cell)\n\n\
(a) Transient transfer drops, recovered by timeout + retransmit\n    (detection 20 ms, backoff 1.5x, <=12 retransmits):\n{}\n\
(b) Persistent 3x stragglers (p=0.5/worker) under a degraded barrier\n    at 1.2x the clean baseline step ({barrier}):\n{}\n\
    Goodput below 100% means the barrier released the iteration with\n    the stragglers' updates deferred to the next iteration.\n",
        table_a.render(),
        degraded.render(),
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

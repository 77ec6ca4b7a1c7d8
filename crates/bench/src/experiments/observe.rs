//! Observability report: predicted vs realized scheduling efficiency,
//! comm/compute overlap and priority inversions per schedule.
//!
//! For every zoo model on a 2-worker / 1-PS cluster with in-order
//! channels (`reorder_error = 0`), each schedule (baseline / TIC / TAC)
//! is simulated twice: once noise-free — the *predicted* efficiency
//! under the cost oracle — and once under the usual runtime noise — the
//! *realized* efficiency of Equation 3 recomputed from the observed
//! trace by `tictac_obs::realized_efficiency`. Priority inversions are
//! counted against the TAC reference ranks: a transfer that started on
//! a channel while a higher-ranked (lower TAC rank) transfer was
//! already runnable there. Under TAC enforcement with in-order channels
//! the count is zero by construction; the unscheduled baseline inverts
//! freely.
//!
//! Everything printed is derived from the deterministic simulator —
//! no wall-clock values — so the report is stable across runs.

use crate::format::Table;
use tictac_core::{
    overlap_report, priority_inversions, realized_efficiency, ClusterSpec, Mode, Model, NoiseModel,
    Registry, RunOptions, SchedulerKind, Session, SimConfig,
};

const KINDS: [SchedulerKind; 3] = [
    SchedulerKind::Baseline,
    SchedulerKind::Tic,
    SchedulerKind::Tac,
];

fn build_session(model: Model, kind: SchedulerKind, cfg: &SimConfig, reg: &Registry) -> Session {
    Session::builder(model.build_with_batch(Mode::Training, 2))
        .cluster(ClusterSpec::new(2, 1))
        .config(cfg.clone())
        .scheduler(kind)
        .observe(reg.clone())
        .build()
        .expect("zoo model deploys")
}

/// Runs the observability sweep and renders the report.
pub fn run(quick: bool) -> String {
    let models = super::pick_models_zoo(quick);
    // In-order channels isolate scheduling effects: with reorder errors
    // enabled a TAC run could legitimately invert.
    let noisy = SimConfig::cloud_gpu().with_reorder_error(0.0);
    let clean = noisy.clone().with_noise(NoiseModel::none());

    let mut t = Table::new([
        "model",
        "E pred b/t/T",
        "E obs b/t/T",
        "inv vs TAC b/t/T",
        "overlap% b/T",
    ]);
    let mut mean_pred = [0.0f64; 3];
    let mut mean_obs = [0.0f64; 3];
    let mut excerpt = String::new();

    for &model in &models {
        // The TAC reference ranks every row's inversions are judged by.
        let registry = Registry::enabled();
        let tac_session = build_session(model, SchedulerKind::Tac, &noisy, &registry);

        let mut e_pred = [0.0f64; 3];
        let mut e_obs = [0.0f64; 3];
        let mut inv = [0usize; 3];
        let mut overlap = [0.0f64; 3];
        for (i, &kind) in KINDS.iter().enumerate() {
            let observed = if kind == SchedulerKind::Tac {
                tac_session.trace_iteration(0).expect("fault-free run")
            } else {
                build_session(model, kind, &noisy, &Registry::disabled())
                    .trace_iteration(0)
                    .expect("fault-free run")
            };
            let predicted = build_session(model, kind, &clean, &Registry::disabled())
                .trace_iteration(0)
                .expect("fault-free run");
            // Deployment is deterministic, so op ids line up across
            // sessions and the TAC ranks apply to every trace.
            let graph = tac_session.deployed().graph();
            e_pred[i] = realized_efficiency(graph, &predicted).efficiency;
            e_obs[i] = realized_efficiency(graph, &observed).efficiency;
            let tac_rank = |op| tac_session.schedule().priority(op);
            inv[i] = priority_inversions(graph, &observed, tac_rank).count();
            overlap[i] = 100.0 * overlap_report(graph, &observed).overlap_frac();
            mean_pred[i] += e_pred[i];
            mean_obs[i] += e_obs[i];
        }
        t.row([
            model.name().to_string(),
            format!("{:.3}/{:.3}/{:.3}", e_pred[0], e_pred[1], e_pred[2]),
            format!("{:.3}/{:.3}/{:.3}", e_obs[0], e_obs[1], e_obs[2]),
            format!("{}/{}/{}", inv[0], inv[1], inv[2]),
            format!("{:.1}/{:.1}", overlap[0], overlap[2]),
        ]);

        // Deterministic registry excerpt for the last model: scheduler
        // work counters and simulator event counts (never timers — those
        // are wall clock and would make the report unstable). A short
        // measured run fills the makespan histogram so the excerpt also
        // carries the p50/p95/p99 line `tictac runs show` prints from a
        // stored record — makespans are virtual time, so it is stable.
        tac_session.run_with(RunOptions::default().iterations(8));
        let snap = registry.snapshot();
        let makespan_line = snap
            .render()
            .lines()
            .find(|l| l.starts_with("session.makespan_us"))
            .map(str::to_string)
            .unwrap_or_default();
        excerpt = format!(
            "registry excerpt ({}, tac): sched.tac.merges={} sched.tac.rederived={} sim.events={}\n{}",
            model.name(),
            snap.counter("sched.tac.merges").unwrap_or(0),
            snap.counter("sched.tac.rederived").unwrap_or(0),
            snap.counter("sim.events").unwrap_or(0),
            makespan_line,
        );
    }

    let n = models.len() as f64;
    format!(
        "Observability: predicted vs realized efficiency, inversions and overlap\n\
         (2 workers, 1 PS, in-order channels; b/t/T = baseline/TIC/TAC;\n\
         inversions counted against the TAC reference ranks)\n\n{}\n\
         means: E obs {:.3} (baseline) -> {:.3} (tic) -> {:.3} (tac); E pred {:.3} -> {:.3} -> {:.3}\n{}\n",
        t.render(),
        mean_obs[0] / n,
        mean_obs[1] / n,
        mean_obs[2] / n,
        mean_pred[0] / n,
        mean_pred[1] / n,
        mean_pred[2] / n,
        excerpt,
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn report_is_deterministic_and_ordered() {
        let a = super::run(true);
        assert!(a.contains("alexnet_v2"));
        assert!(a.contains("inv vs TAC"));
        assert!(a.contains("registry excerpt"));
        assert!(a.contains("sched.tac.merges="));
        // The measured-run histogram surfaces its percentile summary.
        assert!(a.contains("session.makespan_us = count 8 / mean"));
        assert!(a.contains("/ p50 "));
        assert!(a.contains("/ p99 "));
        // No wall-clock values: two runs render byte-identically.
        assert_eq!(a, super::run(true));
    }
}

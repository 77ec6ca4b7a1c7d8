//! Backend comparison: the discrete-event simulator vs the in-process
//! multi-threaded runtime (`ThreadedBackend`), per zoo model, baseline vs TIC
//! vs TAC.
//!
//! For every model the same deployment and the same schedules run on both
//! backends (schedules are backend-invariant by construction), so the
//! comparison isolates *execution*: virtual event time vs real OS threads
//! with prioritized channel queues and wall-clock busy-loop compute. The
//! report checks two reproduction claims on the threaded runtime:
//!
//! * enforced TAC produces **zero priority inversions** on the wire
//!   (sender-side enforcement works under real concurrency), and
//! * TAC's wall-clock throughput beats the baseline's on most models —
//!   the paper's headline effect, reproduced outside the simulator.

use crate::format::Table;
use tictac_core::{
    priority_inversions, ClusterSpec, Mode, Model, RunReport, SchedulerKind, Session, SimConfig,
    ThreadedBackend,
};

/// Schedulers compared; baseline first so speedups read against column 1.
const SCHEDULERS: [SchedulerKind; 3] = [
    SchedulerKind::Baseline,
    SchedulerKind::Tic,
    SchedulerKind::Tac,
];

fn session(
    model: Model,
    scheduler: SchedulerKind,
    config: &SimConfig,
    iterations: usize,
    threaded: bool,
) -> Session {
    let graph = model.build_with_batch(Mode::Training, model.default_batch());
    let builder = Session::builder(graph)
        .cluster(ClusterSpec::new(4, 1))
        .config(config.clone())
        .scheduler(scheduler)
        .warmup(1)
        .iterations(iterations);
    let builder = if threaded {
        builder.backend(
            ThreadedBackend::from_config(config)
                .expect("bench configs are threaded-supported")
                .with_watchdog(std::time::Duration::from_secs(120)),
        )
    } else {
        builder
    };
    builder.build().expect("zoo model deploys")
}

/// Runs the sweep and renders the comparison table.
///
/// Threaded sessions run **sequentially**: each one already spawns a
/// thread per device and per channel, so fanning sessions out across a
/// pool would oversubscribe the machine and poison the wall-clock numbers.
pub fn run(quick: bool) -> String {
    let models = super::pick_models_zoo(quick);
    let iterations = if quick { 2 } else { 5 };
    let config = SimConfig::cloud_gpu();

    let mut t = Table::new([
        "model",
        "sim base",
        "sim tic",
        "sim tac",
        "wall base",
        "wall tic",
        "wall tac",
        "sim tac vs base",
        "wall tac vs base",
    ]);
    let mut tac_wins = 0usize;
    let mut rank_agreements = 0usize;
    let mut total_inversions = 0usize;

    for &model in &models {
        let mut sim_thr = [0.0f64; 3];
        let mut wall_thr = [0.0f64; 3];
        for (i, &scheduler) in SCHEDULERS.iter().enumerate() {
            let sim_report: RunReport = session(model, scheduler, &config, iterations, false).run();
            sim_thr[i] = sim_report.mean_throughput();

            let threaded = session(model, scheduler, &config, iterations, true);
            let wall_report = threaded.run();
            wall_thr[i] = wall_report.mean_throughput();

            if scheduler == SchedulerKind::Tac {
                // Enforcement claim: under enforced TAC, no transfer may
                // start while a lower-ranked runnable transfer waits.
                let schedule = threaded.schedule().clone();
                let trace = threaded.trace_iteration(0).expect("fault-free iteration");
                let report = priority_inversions(threaded.deployed().graph(), &trace, |op| {
                    schedule.priority(op)
                });
                total_inversions += report.count();
            }
        }
        if wall_thr[2] >= wall_thr[0] {
            tac_wins += 1;
        }
        // Do both backends order the three policies the same way?
        let rank = |thr: &[f64; 3]| {
            let mut idx = [0usize, 1, 2];
            idx.sort_by(|&a, &b| thr[a].total_cmp(&thr[b]));
            idx
        };
        if rank(&sim_thr) == rank(&wall_thr) {
            rank_agreements += 1;
        }
        let pct = |num: f64, den: f64| format!("{:+.1}%", (num / den - 1.0) * 100.0);
        t.row([
            model.name().to_string(),
            format!("{:.0}", sim_thr[0]),
            format!("{:.0}", sim_thr[1]),
            format!("{:.0}", sim_thr[2]),
            format!("{:.0}", wall_thr[0]),
            format!("{:.0}", wall_thr[1]),
            format!("{:.0}", wall_thr[2]),
            pct(sim_thr[2], sim_thr[0]),
            pct(wall_thr[2], wall_thr[0]),
        ]);
    }

    format!(
        "Backend comparison (envG, training, 4 workers / 1 PS, {} measured iterations)\n\
         throughput in samples/s; `sim` = event simulator (virtual time), `wall` = threaded\n\
         runtime (real OS threads, wall-clock); last two columns: TAC speedup over baseline\n\n{}\n\
         TAC wall-clock throughput >= baseline: {}/{} models\n\
         sim/threaded policy-ranking agreement: {}/{} models\n\
         priority inversions under enforced TAC (threaded): {}\n",
        iterations,
        t.render(),
        tac_wins,
        models.len(),
        rank_agreements,
        models.len(),
        total_inversions,
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn quick_report_compares_backends() {
        let out = super::run(true);
        assert!(out.contains("wall tac"));
        assert!(out.contains("priority inversions under enforced TAC (threaded): 0"));
    }
}

//! Backend comparison: the discrete-event simulator vs the in-process
//! multi-threaded runtime (`backend: threaded`), per zoo model, baseline vs
//! TIC vs TAC.
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

use super::{inversions, point, sweep};
use crate::format::Table;
use tictac_core::{
    speedup_pct, BackendKind, ClusterSpec, Mode, Model, Scenario, SchedulerKind, Session,
};

/// Schedulers compared; baseline first so speedups read against column 1.
const SCHEDULERS: [SchedulerKind; 3] = [
    SchedulerKind::Baseline,
    SchedulerKind::Tic,
    SchedulerKind::Tac,
];

/// Runs the sweep and renders the comparison table.
///
/// Threaded sessions run **sequentially**: each one already spawns a
/// thread per device and per channel, so fanning sessions out across a
/// pool would oversubscribe the machine and poison the wall-clock numbers.
pub fn run(quick: bool) -> String {
    let models = super::pick_models_zoo(quick);
    let iterations = if quick { 2 } else { 5 };
    let scenario = |model: Model, scheduler, backend| Scenario {
        backend,
        warmup: 1,
        iterations,
        ..point(model, Mode::Training, ClusterSpec::new(4, 1), scheduler)
    };
    let sim = sweep(
        models
            .iter()
            .flat_map(|&m| SCHEDULERS.map(|s| scenario(m, s, BackendKind::Sim)))
            .collect(),
    );

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

    for (&model, sim) in models.iter().zip(sim.chunks_exact(SCHEDULERS.len())) {
        let sim_thr: [f64; 3] = std::array::from_fn(|i| sim[i].mean_throughput());
        let wall_thr = SCHEDULERS.map(|scheduler| {
            let p = scenario(model, scheduler, BackendKind::Threaded);
            let threaded = Session::from_scenario(&p).expect("zoo model deploys");
            let throughput = threaded.run().mean_throughput();
            if scheduler == SchedulerKind::Tac {
                // Enforcement claim: under enforced TAC, no transfer may
                // start while a lower-ranked runnable transfer waits.
                total_inversions += inversions(&threaded);
            }
            throughput
        });
        tac_wins += usize::from(wall_thr[2] >= wall_thr[0]);
        // Do both backends order the three policies the same way?
        let rank = |thr: &[f64; 3]| {
            let mut idx = [0usize, 1, 2];
            idx.sort_by(|&a, &b| thr[a].total_cmp(&thr[b]));
            idx
        };
        rank_agreements += usize::from(rank(&sim_thr) == rank(&wall_thr));
        let throughputs = sim_thr.iter().chain(&wall_thr).map(|t| format!("{t:.0}"));
        let gains = [sim_thr, wall_thr].map(|thr| format!("{:+.1}%", speedup_pct(thr[0], thr[2])));
        t.row(
            std::iter::once(model.name().to_string())
                .chain(throughputs)
                .chain(gains),
        );
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

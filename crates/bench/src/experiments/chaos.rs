//! Chaos experiment (robustness extension): do TicTac's wall-clock wins
//! and its zero-inversion enforcement survive injected faults on the
//! *threaded* runtime?
//!
//! Every zoo model runs baseline vs enforced TAC on the threaded backend
//! under the **reference fault spec** — drops, blackouts, crashes and PS
//! stalls sized relative to the model's clean simulated makespan, so the
//! same relative fault pressure applies to every model. Both policies
//! draw the *same* per-iteration fault plans (the sampler keys on the
//! deployment graph and seed, not the schedule), so the comparison
//! isolates scheduling under identical misfortune.

use super::{inversions, point, sweep};
use crate::format::Table;
use tictac_core::{
    speedup_pct, BackendKind, ClusterSpec, FaultCounters, FaultSpec, Mode, RetryPolicy, Scenario,
    SchedulerKind, Session, SimDuration,
};

/// Seed for every chaos run; fixed so CI smoke runs are reproducible.
pub const CHAOS_SEED: u64 = 0xC1A05;

/// The reference fault spec, sized against the clean simulated makespan
/// `m` of the model under test: 2% transfer drops with detection at 2% of
/// the step and a deep retry budget, plus blackout/crash/PS-stall windows
/// of 5% of the step each, all landing in the first 30% of the iteration.
pub fn reference_spec(m: SimDuration) -> FaultSpec {
    FaultSpec::none()
        .with_drop_prob(0.02)
        .with_blackouts(0.25, m.mul_f64(0.05))
        .with_crashes(0.2, m.mul_f64(0.05))
        .with_ps_stalls(0.3, m.mul_f64(0.05))
        .with_onset_window(m.mul_f64(0.3))
        .with_retry(RetryPolicy::fixed(m.mul_f64(0.02), 60))
}

/// Runs the chaos sweep and renders the report.
///
/// Threaded sessions run sequentially (each spawns a thread per device
/// and channel); parallelizing them would poison the wall-clock numbers.
pub fn run(quick: bool) -> String {
    let models = super::pick_models_zoo(quick);
    let iterations = if quick { 2 } else { 3 };

    let mut t = Table::new([
        "model",
        "base samples/s",
        "tac samples/s",
        "tac vs base",
        "goodput%",
        "faults (tac)",
    ]);
    let mut tac_wins = 0usize;
    let mut total_inversions = 0usize;
    let mut totals = FaultCounters::default();

    let scenario = |model, scheduler, iterations| Scenario {
        warmup: 0,
        iterations,
        ..point(model, Mode::Training, ClusterSpec::new(2, 1), scheduler)
    };
    // The fault yardstick: each model's clean simulated step time.
    let baseline = |&model| scenario(model, SchedulerKind::Baseline, 1);
    let clean = sweep(models.iter().map(baseline).collect());

    for (&model, clean) in models.iter().zip(&clean) {
        let threaded = |scheduler| {
            let p = Scenario {
                backend: BackendKind::Threaded,
                seed: CHAOS_SEED,
                faults: reference_spec(clean.mean_makespan()),
                ..scenario(model, scheduler, iterations)
            };
            let session = Session::from_scenario(&p).expect("zoo model deploys");
            let report = session
                .try_run()
                .expect("retry budget absorbs the reference spec");
            (session, report)
        };
        let (_, base) = threaded(SchedulerKind::Baseline);
        let (tac_session, tac) = threaded(SchedulerKind::Tac);

        // Enforcement claim under fire: retransmits, parked channels and
        // respawned workers must not let a lower-ranked runnable transfer
        // be overtaken.
        total_inversions += inversions(&tac_session);

        let faults = tac.total_faults();
        totals.merge(&faults);
        let (base_thr, tac_thr) = (base.mean_throughput(), tac.mean_throughput());
        tac_wins += usize::from(tac_thr >= base_thr);
        t.row([
            model.name().to_string(),
            format!("{base_thr:.0}"),
            format!("{tac_thr:.0}"),
            format!("{:+.1}%", speedup_pct(base_thr, tac_thr)),
            format!("{:.2}", tac.mean_goodput_pct()),
            faults.to_string(),
        ]);
    }

    format!(
        "Chaos sweep (envG, training, 2 workers / 1 PS, threaded backend, seed {CHAOS_SEED:#x},\n\
         {iterations} measured iterations/policy; reference fault spec: 2% drops, blackout p=0.25,\n\
         crash p=0.2, PS-stall p=0.3, windows at 5% of the clean step, onset in the first 30%)\n\n{}\n\
         TAC wall-clock throughput >= baseline under faults: {}/{} models\n\
         priority inversions under enforced TAC with faults (threaded): {}\n\
         chaos fault totals (threaded, TAC): {}\n",
        t.render(),
        tac_wins,
        models.len(),
        total_inversions,
        totals.to_json(),
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn quick_report_survives_the_reference_spec() {
        let out = super::run(true);
        assert!(out.contains("tac vs base"));
        assert!(out.contains("priority inversions under enforced TAC with faults (threaded): 0"));
        assert!(out.contains("\"retransmits\":"));
    }
}

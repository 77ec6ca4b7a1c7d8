//! Ablations of the design choices DESIGN.md calls out (§5.1 of the
//! paper): enforcement location, gRPC reorder errors and parameter
//! sharding.

use super::{point, sweep};
use crate::format::Table;
use tictac_core::{
    parallel_map, speedup_pct, ClusterSpec, Mode, Model, RunReport, Scenario, SchedulerKind,
    Session, Sharding, SimConfig,
};

/// Runs `model` inference on 4 workers / 1 PS under each `(scheduler,
/// config)`: the swept knobs are `SimConfig` fields no scenario spells.
fn config_sweep(
    model: Model,
    iterations: usize,
    variants: Vec<(SchedulerKind, SimConfig)>,
) -> Vec<RunReport> {
    parallel_map(variants, |(scheduler, config)| {
        Session::builder(model.build(Mode::Inference))
            .cluster(ClusterSpec::new(4, 1))
            .config(config.clone())
            .scheduler(*scheduler)
            .iterations(iterations)
            .build()
            .expect("zoo model deploys")
            .run()
    })
}

/// Sensitivity of TIC's gain to the network's out-of-order probability.
///
/// The paper measures 0.4–0.5% reorder errors at the gRPC level; at 100%
/// the enforced hand-off order is destroyed at the channel and the gain
/// should collapse toward the baseline.
pub fn reorder(quick: bool) -> String {
    let probs = [0.0, 0.005, 0.05, 0.25, 1.0];
    let iterations = if quick { 4 } else { 10 };
    let variants = probs
        .iter()
        .flat_map(|&p| {
            [SchedulerKind::Baseline, SchedulerKind::Tic]
                .map(|s| (s, SimConfig::cloud_gpu().with_reorder_error(p)))
        })
        .collect();
    let reports = config_sweep(Model::ResNet50V1, iterations, variants);

    let mut t = Table::new(["reorder probability", "TIC speedup", "TIC efficiency E"]);
    for (prob, run) in probs.iter().zip(reports.chunks_exact(2)) {
        let gain = speedup_pct(run[0].mean_throughput(), run[1].mean_throughput());
        let efficiency = run[1].mean_efficiency();
        t.row([
            format!("{prob}"),
            format!("{gain:+.1}%"),
            format!("{efficiency:.3}"),
        ]);
    }
    format!(
        "Ablation: gRPC reorder-error sensitivity (ResNet-50 v1 inference, envG, 4 workers)\n\n{}",
        t.render()
    )
}

/// Enforcement-location ablation (§5.1): full sender-side counters vs
/// hand-off without counters (priorities only steer queue pops) vs no
/// ordering at all.
pub fn enforcement(quick: bool) -> String {
    let iterations = if quick { 4 } else { 10 };

    // (label, policy, sender-side counters, reorder probability). Without
    // counters the pop stays rank-aware, showing drift between hand-off
    // and wire order; reorder error 1.0 then randomizes the pops too.
    let (baseline, tic) = (SchedulerKind::Baseline, SchedulerKind::Tic);
    let variants = [
        ("baseline (no ordering)", baseline, true, 0.005),
        ("TIC, sender-side counters (TicTac)", tic, true, 0.005),
        (
            "TIC, no counters (activation order only)",
            tic,
            false,
            0.005,
        ),
        ("TIC, no counters + random pops", tic, false, 1.0),
    ];
    let config = |enforce, reorder| {
        SimConfig::cloud_gpu()
            .with_enforcement(enforce)
            .with_reorder_error(reorder)
    };
    let configs = variants.map(|(_, s, enforce, reorder)| (s, config(enforce, reorder)));
    let reports = config_sweep(Model::InceptionV3, iterations, configs.to_vec());

    let base = reports[0].mean_throughput();
    let mut t = Table::new(["variant", "throughput (samples/s)", "vs baseline", "E"]);
    for ((label, ..), report) in variants.iter().zip(&reports) {
        t.row([
            label.to_string(),
            format!("{:.1}", report.mean_throughput()),
            format!("{:+.1}%", speedup_pct(base, report.mean_throughput())),
            format!("{:.3}", report.mean_efficiency()),
        ]);
    }
    format!(
        "Ablation: enforcement location (Inception v3 inference, envG, 4 workers)\n\n{}",
        t.render()
    )
}

/// Parameter-sharding ablation: size-balanced (default) vs round-robin
/// placement across 4 parameter servers.
pub fn sharding(quick: bool) -> String {
    let iterations = if quick { 4 } else { 10 };
    let mut points = Vec::new();
    for model in [Model::Vgg16, Model::ResNet50V1] {
        for sharding in [Sharding::SizeBalanced, Sharding::RoundRobin] {
            let cluster = ClusterSpec::new(8, 4).with_sharding(sharding);
            let p = point(model, Mode::Training, cluster, SchedulerKind::Tic);
            points.push(Scenario { iterations, ..p });
        }
    }
    let reports = sweep(points.clone());

    let mut t = Table::new(["model", "sharding", "throughput (samples/s)"]);
    for (p, r) in points.iter().zip(&reports) {
        t.row([
            p.model.name().to_string(),
            format!("{:?}", p.cluster.sharding),
            format!("{:.1}", r.mean_throughput()),
        ]);
    }
    format!(
        "Ablation: parameter sharding across 4 PS (training, envG, 8 workers, TIC)\n\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn reorder_report_covers_probabilities() {
        let out = super::reorder(true);
        assert!(out.contains("0.005"));
        assert!(out.contains('1'));
    }

    #[test]
    fn enforcement_report_lists_variants() {
        let out = super::enforcement(true);
        assert!(out.contains("sender-side counters"));
        assert!(out.contains("activation order only"));
    }

    #[test]
    fn sharding_report_lists_policies() {
        let out = super::sharding(true);
        assert!(out.contains("SizeBalanced"));
        assert!(out.contains("RoundRobin"));
    }
}

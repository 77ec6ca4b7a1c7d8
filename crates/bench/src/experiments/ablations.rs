//! Ablations of the design choices DESIGN.md calls out (§5.1 of the
//! paper): enforcement location, gRPC reorder errors and parameter
//! sharding.

use crate::format::Table;
use crate::runner::Point;
use tictac_core::{parallel_map, speedup_pct, Mode, Model, SchedulerKind, Sharding, SimConfig};

/// Sensitivity of TIC's gain to the network's out-of-order probability.
///
/// The paper measures 0.4–0.5% reorder errors at the gRPC level; at 100%
/// the enforced hand-off order is destroyed at the channel and the gain
/// should collapse toward the baseline.
pub fn reorder(quick: bool) -> String {
    let probs = [0.0, 0.005, 0.05, 0.25, 1.0];
    let iterations = if quick { 4 } else { 10 };
    let model = Model::ResNet50V1;

    let mut points = Vec::new();
    for &p in &probs {
        for scheduler in [SchedulerKind::Baseline, SchedulerKind::Tic] {
            let mut pt = Point::new(
                model,
                Mode::Inference,
                4,
                1,
                scheduler,
                SimConfig::cloud_gpu().with_reorder_error(p),
            );
            pt.iterations = iterations;
            points.push(pt);
        }
    }
    let reports = parallel_map(points.clone(), |p| p.run());

    let mut t = Table::new(["reorder probability", "TIC speedup", "TIC efficiency E"]);
    for &prob in &probs {
        let find = |sched: SchedulerKind| {
            points
                .iter()
                .zip(&reports)
                .find(|(pt, _)| pt.scheduler == sched && pt.config.reorder_error == prob)
                .map(|(_, r)| r.clone())
                .expect("point was swept")
        };
        let base = find(SchedulerKind::Baseline);
        let tic = find(SchedulerKind::Tic);
        t.row([
            format!("{prob}"),
            format!(
                "{:+.1}%",
                speedup_pct(base.mean_throughput(), tic.mean_throughput())
            ),
            format!("{:.3}", tic.mean_efficiency()),
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
    let model = Model::InceptionV3;

    // With counters disabled, randomize pops fully (reorder error 1.0
    // would ignore ranks at the pop too); instead keep the pop rank-aware
    // but remove the gate, showing drift between hand-off and wire order.
    let variants: [(&str, SchedulerKind, bool, f64); 4] = [
        (
            "baseline (no ordering)",
            SchedulerKind::Baseline,
            true,
            0.005,
        ),
        (
            "TIC, sender-side counters (TicTac)",
            SchedulerKind::Tic,
            true,
            0.005,
        ),
        (
            "TIC, no counters (activation order only)",
            SchedulerKind::Tic,
            false,
            0.005,
        ),
        (
            "TIC, no counters + random pops",
            SchedulerKind::Tic,
            false,
            1.0,
        ),
    ];

    let mut points = Vec::new();
    for &(_, scheduler, enforce, reorder) in &variants {
        let mut p = Point::new(
            model,
            Mode::Inference,
            4,
            1,
            scheduler,
            SimConfig::cloud_gpu()
                .with_enforcement(enforce)
                .with_reorder_error(reorder),
        );
        p.iterations = iterations;
        points.push(p);
    }
    let reports = parallel_map(points, |p| p.run());

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
    let models = [Model::Vgg16, Model::ResNet50V1];

    let mut points = Vec::new();
    for &model in &models {
        for sharding in [Sharding::SizeBalanced, Sharding::RoundRobin] {
            let mut p = Point::new(
                model,
                Mode::Training,
                8,
                4,
                SchedulerKind::Tic,
                SimConfig::cloud_gpu(),
            );
            p.sharding = sharding;
            p.iterations = iterations;
            points.push(p);
        }
    }
    let reports = parallel_map(points.clone(), |p| p.run());

    let mut t = Table::new(["model", "sharding", "throughput (samples/s)"]);
    for (p, r) in points.iter().zip(&reports) {
        t.row([
            p.model.name().to_string(),
            format!("{:?}", p.sharding),
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

//! Figure 13 (Appendix B): TIC vs TAC throughput gains on envC.

use crate::format::Table;
use crate::runner::Point;
use tictac_core::{parallel_map, speedup_pct, Mode, Model, SchedulerKind, SimConfig};

/// Compares TIC and TAC against the baseline on envC for the three models
/// of Figure 13 (Inception v2, VGG-16, AlexNet v2), training and
/// inference.
pub fn run(quick: bool) -> String {
    let models = [Model::InceptionV2, Model::Vgg16, Model::AlexNetV2];
    let iterations = if quick { 4 } else { 10 };

    let mut points = Vec::new();
    for &model in &models {
        for mode in [Mode::Inference, Mode::Training] {
            for scheduler in [
                SchedulerKind::Baseline,
                SchedulerKind::Tic,
                SchedulerKind::Tac,
            ] {
                let mut p = Point::new(model, mode, 4, 1, scheduler, SimConfig::cpu_cluster());
                p.iterations = iterations;
                points.push(p);
            }
        }
    }
    let reports = parallel_map(points.clone(), |p| p.run());

    let mut out = String::from(
        "Figure 13: TIC and TAC speedup (%) over baseline (envC, 4 workers, 1 PS)\n\n",
    );
    for mode in [Mode::Inference, Mode::Training] {
        let mut t = Table::new(["model", "TIC", "TAC"]);
        for &model in &models {
            let find = |sched: SchedulerKind| {
                points
                    .iter()
                    .zip(&reports)
                    .find(|(p, _)| p.model == model && p.mode == mode && p.scheduler == sched)
                    .map(|(_, r)| r.mean_throughput())
                    .expect("point was swept")
            };
            let base = find(SchedulerKind::Baseline);
            t.row([
                model.name().to_string(),
                format!("{:+.1}%", speedup_pct(base, find(SchedulerKind::Tic))),
                format!("{:+.1}%", speedup_pct(base, find(SchedulerKind::Tac))),
            ]);
        }
        out.push_str(&format!(
            "task = {}\n{}\n",
            super::mode_label(mode),
            t.render()
        ));
    }
    out.push_str("(paper: TIC performance is comparable to TAC on current models)\n");
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn report_compares_tic_and_tac() {
        let out = super::run(true);
        assert!(out.contains("TIC"));
        assert!(out.contains("TAC"));
        assert!(out.contains("inception_v2"));
    }
}

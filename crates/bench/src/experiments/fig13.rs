//! Figure 13 (Appendix B): TIC vs TAC throughput gains on envC.

use super::{point, speedup_tables_per_task};
use tictac_core::{ClusterSpec, EnvPreset, Model, Scenario, SchedulerKind};

/// Compares TIC and TAC against the baseline on envC for the three models
/// of Figure 13 (Inception v2, VGG-16, AlexNet v2), training and
/// inference.
pub fn run(quick: bool) -> String {
    let models = [Model::InceptionV2, Model::Vgg16, Model::AlexNetV2];
    let iterations = if quick { 4 } else { 10 };
    let schedulers = [
        SchedulerKind::Baseline,
        SchedulerKind::Tic,
        SchedulerKind::Tac,
    ];
    let columns = ["TIC".to_string(), "TAC".to_string()];
    let tables = speedup_tables_per_task(&models, &columns, 3, |model, mode| {
        let row = schedulers.map(|s| point(model, mode, ClusterSpec::new(4, 1), s));
        row.map(|p| Scenario {
            env: EnvPreset::C,
            iterations,
            ..p
        })
        .to_vec()
    });
    format!(
        "Figure 13: TIC and TAC speedup (%) over baseline (envC, 4 workers, 1 PS)\n\n{tables}\
         (paper: TIC performance is comparable to TAC on current models)\n"
    )
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

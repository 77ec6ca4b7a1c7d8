//! Figure 10: throughput speedup vs computational load (batch-size
//! factors ×1/2, ×1, ×2; 4 workers, envG, inference).

use super::{pick_models, point, speedup_table, sweep};
use tictac_core::{ClusterSpec, Mode, Scenario, SchedulerKind};

/// Scales each model's Table-1 batch by {0.5, 1, 2} and reports TIC's
/// inference gain over the baseline.
pub(crate) fn run(quick: bool) -> String {
    let factors: &[(f64, &str)] = &[(0.5, "x1/2"), (1.0, "x1"), (2.0, "x2")];
    let models = pick_models(quick);
    let iterations = if quick { 4 } else { 10 };

    let mut points = Vec::new();
    for &model in &models {
        for &(factor, _) in factors {
            let batch = ((model.default_batch() as f64 * factor).round() as usize).max(1);
            for scheduler in [SchedulerKind::Baseline, SchedulerKind::Tic] {
                let p = point(model, Mode::Inference, ClusterSpec::new(4, 1), scheduler);
                points.push(Scenario {
                    batch,
                    iterations,
                    ..p
                });
            }
        }
    }
    let columns: Vec<String> = factors.iter().map(|(_, l)| l.to_string()).collect();
    format!(
        "Figure 10: inference speedup (%) of TIC over baseline vs batch-size factor\n(envG, 4 workers, 1 PS)\n\n{}",
        speedup_table(&models, &columns, &sweep(points), 2)
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn quick_sweep_covers_factors() {
        let out = super::run(true);
        assert!(out.contains("x1/2"));
        assert!(out.contains("x2"));
    }
}

//! Figure 10: throughput speedup vs computational load (batch-size
//! factors ×1/2, ×1, ×2; 4 workers, envG, inference).

use super::pick_models;
use crate::format::Table;
use crate::runner::Point;
use tictac_core::{parallel_map, speedup_pct, Mode, SchedulerKind, SimConfig};

/// Scales each model's Table-1 batch by {0.5, 1, 2} and reports TIC's
/// inference gain over the baseline.
pub fn run(quick: bool) -> String {
    let factors: &[(f64, &str)] = &[(0.5, "x1/2"), (1.0, "x1"), (2.0, "x2")];
    let models = pick_models(quick);
    let iterations = if quick { 4 } else { 10 };

    let mut points = Vec::new();
    for &(factor, _) in factors {
        for &model in &models {
            for scheduler in [SchedulerKind::Baseline, SchedulerKind::Tic] {
                let mut p = Point::new(
                    model,
                    Mode::Inference,
                    4,
                    1,
                    scheduler,
                    SimConfig::cloud_gpu(),
                );
                p.batch = ((model.default_batch() as f64 * factor).round() as usize).max(1);
                p.iterations = iterations;
                points.push(p);
            }
        }
    }
    let reports = parallel_map(points.clone(), |p| p.run());

    let mut t = Table::new(
        std::iter::once("model".to_string()).chain(factors.iter().map(|(_, l)| l.to_string())),
    );
    for &model in &models {
        let mut cells = vec![model.name().to_string()];
        for &(factor, _) in factors {
            let batch = ((model.default_batch() as f64 * factor).round() as usize).max(1);
            let find = |sched: SchedulerKind| {
                points
                    .iter()
                    .zip(&reports)
                    .find(|(p, _)| p.model == model && p.batch == batch && p.scheduler == sched)
                    .map(|(_, r)| r.mean_throughput())
                    .expect("point was swept")
            };
            cells.push(format!(
                "{:+.1}%",
                speedup_pct(find(SchedulerKind::Baseline), find(SchedulerKind::Tic))
            ));
        }
        t.row(cells);
    }
    format!(
        "Figure 10: inference speedup (%) of TIC over baseline vs batch-size factor\n(envG, 4 workers, 1 PS)\n\n{}",
        t.render()
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

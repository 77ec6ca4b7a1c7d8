//! Figure 9: throughput speedup vs number of parameter servers
//! (8 workers, envG).

use super::{mode_label, pick_models};
use crate::format::Table;
use crate::runner::Point;
use tictac_core::{parallel_map, speedup_pct, Mode, SchedulerKind, SimConfig};

/// Sweeps PS counts {1, 2, 4} at 8 workers on envG; reports TIC's gain
/// over the baseline per task.
pub fn run(quick: bool) -> String {
    let ps_counts: &[usize] = if quick { &[1, 2] } else { &[1, 2, 4] };
    let workers = if quick { 4 } else { 8 };
    let models = pick_models(quick);
    let iterations = if quick { 4 } else { 10 };

    let mut points = Vec::new();
    for &ps in ps_counts {
        for &model in &models {
            for mode in [Mode::Inference, Mode::Training] {
                for scheduler in [SchedulerKind::Baseline, SchedulerKind::Tic] {
                    let mut p =
                        Point::new(model, mode, workers, ps, scheduler, SimConfig::cloud_gpu());
                    p.iterations = iterations;
                    points.push(p);
                }
            }
        }
    }
    let reports = parallel_map(points.clone(), |p| p.run());

    let mut out = format!(
        "Figure 9: throughput speedup (%) of TIC over baseline vs #parameter servers\n(envG, {workers} workers)\n\n"
    );
    for mode in [Mode::Inference, Mode::Training] {
        let mut t = Table::new(
            std::iter::once("model".to_string()).chain(ps_counts.iter().map(|s| format!("{s} PS"))),
        );
        for &model in &models {
            let mut cells = vec![model.name().to_string()];
            for &ps in ps_counts {
                let find = |sched: SchedulerKind| {
                    points
                        .iter()
                        .zip(&reports)
                        .find(|(p, _)| {
                            p.model == model
                                && p.mode == mode
                                && p.parameter_servers == ps
                                && p.scheduler == sched
                        })
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
        out.push_str(&format!("task = {}\n{}\n", mode_label(mode), t.render()));
    }
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn quick_sweep_covers_ps_counts() {
        let out = super::run(true);
        assert!(out.contains("1 PS"));
        assert!(out.contains("2 PS"));
    }
}

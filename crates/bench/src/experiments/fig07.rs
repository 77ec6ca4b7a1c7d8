//! Figure 7: throughput speedup vs number of workers (PS:W = 1:4, envG).

use super::{mode_label, pick_models};
use crate::format::Table;
use crate::runner::Point;
use tictac_core::{parallel_map, speedup_pct, Mode, SchedulerKind, SimConfig};

/// Sweeps worker counts {1, 2, 4, 8, 16} with PS:W fixed at 1:4 on envG,
/// reporting TIC's throughput gain over the baseline for training and
/// inference (the paper uses TIC as its envG representative; Appendix B).
pub fn run(quick: bool) -> String {
    let worker_counts: &[usize] = if quick { &[1, 4] } else { &[1, 2, 4, 8, 16] };
    let models = pick_models(quick);
    let iterations = if quick { 4 } else { 10 };

    let mut points = Vec::new();
    for &workers in worker_counts {
        let ps = (workers / 4).max(1);
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

    let mut out = String::from(
        "Figure 7: throughput speedup (%) of TIC over baseline vs #workers\n(envG, PS:Workers = 1:4)\n\n",
    );
    for mode in [Mode::Inference, Mode::Training] {
        let mut t = Table::new(
            std::iter::once("model".to_string()).chain(
                worker_counts
                    .iter()
                    .map(|w| format!("{w}w/{}ps", (w / 4).max(1))),
            ),
        );
        for &model in &models {
            let mut cells = vec![model.name().to_string()];
            for &workers in worker_counts {
                let find = |sched: SchedulerKind| {
                    points
                        .iter()
                        .zip(&reports)
                        .find(|(p, _)| {
                            p.model == model
                                && p.mode == mode
                                && p.workers == workers
                                && p.scheduler == sched
                        })
                        .map(|(_, r)| r.mean_throughput())
                        .expect("point was swept")
                };
                let speedup = speedup_pct(find(SchedulerKind::Baseline), find(SchedulerKind::Tic));
                cells.push(format!("{speedup:+.1}%"));
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
    fn quick_sweep_produces_both_tasks() {
        let out = super::run(true);
        assert!(out.contains("task = inference"));
        assert!(out.contains("task = train"));
        assert!(out.contains("alexnet_v2"));
    }
}

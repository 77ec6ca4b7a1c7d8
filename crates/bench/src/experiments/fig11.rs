//! Figure 11: (a) scheduling-efficiency metric and (b) straggler time,
//! baseline vs TIC, against partition size (envG, training + inference).

use super::{mode_label, pick_models_zoo, point, sweep, TASKS};
use crate::format::Table;
use tictac_core::{ClusterSpec, DeployCache, Scenario, SchedulerKind};

/// `(ops_per_worker, model, task, [E_base, E_tic], [strag_base, strag_tic])`.
type Row = (usize, &'static str, &'static str, [f64; 2], [f64; 2]);

/// Runs every Table-1 model in both tasks under baseline and TIC and
/// reports the efficiency metric `E` and straggler time (%) against the
/// number of ops per worker (the paper's x-axis).
pub(crate) fn run(quick: bool) -> String {
    let models = pick_models_zoo(quick);
    let iterations = if quick { 4 } else { 10 };

    let mut points = Vec::new();
    for &model in &models {
        for mode in TASKS {
            for scheduler in [SchedulerKind::Baseline, SchedulerKind::Tic] {
                let p = point(model, mode, ClusterSpec::new(4, 1), scheduler);
                points.push(Scenario { iterations, ..p });
            }
        }
    }
    let reports = sweep(points.clone());

    // Rows sorted by partition size, like the figure's x-axis.
    let mut rows: Vec<Row> = points
        .chunks_exact(2)
        .zip(reports.chunks_exact(2))
        .map(|(p, r)| {
            let (model, mode) = (p[0].model, p[0].mode);
            let graph = model.build_with_batch(mode, 2);
            let deployed = DeployCache::global()
                .deploy(&graph, &p[0].cluster)
                .expect("valid cluster");
            (
                deployed.ops_per_worker(),
                model.name(),
                mode_label(mode),
                [r[0].mean_efficiency(), r[1].mean_efficiency()],
                [r[0].max_straggler_pct(), r[1].max_straggler_pct()],
            )
        })
        .collect();
    rows.sort_by_key(|r| r.0);

    let mut t = Table::new([
        "ops/worker",
        "model",
        "task",
        "E baseline",
        "E tic",
        "straggler% baseline",
        "straggler% tic",
    ]);
    for (ops, model, task, e, s) in &rows {
        t.row([
            ops.to_string(),
            model.to_string(),
            task.to_string(),
            format!("{:.3}", e[0]),
            format!("{:.3}", e[1]),
            format!("{:.1}", s[0]),
            format!("{:.1}", s[1]),
        ]);
    }
    let mean = |f: &dyn Fn(&Row) -> f64| rows.iter().map(f).sum::<f64>() / rows.len() as f64;
    format!(
        "Figure 11: scheduling efficiency (a) and straggler time (b), baseline vs TIC\n(envG, 4 workers, 1 PS)\n\n{}\nmeans: E {:.3} -> {:.3}; straggler {:.1}% -> {:.1}%\n",
        t.render(),
        mean(&|r| r.3[0]),
        mean(&|r| r.3[1]),
        mean(&|r| r.4[0]),
        mean(&|r| r.4[1]),
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn report_contains_both_metrics() {
        let out = super::run(true);
        assert!(out.contains("E baseline"));
        assert!(out.contains("straggler%"));
        assert!(out.contains("means:"));
    }
}

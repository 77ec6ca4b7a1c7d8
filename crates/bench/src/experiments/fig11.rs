//! Figure 11: (a) scheduling-efficiency metric and (b) straggler time,
//! baseline vs TIC, against partition size (envG, training + inference).

use crate::format::Table;
use crate::runner::Point;
use tictac_core::{parallel_map, ClusterSpec, DeployCache, Mode, Model, SchedulerKind, SimConfig};

/// `(ops_per_worker, model, task, [E_base, E_tic], [strag_base, strag_tic])`.
type Row = (usize, String, String, [f64; 2], [f64; 2]);

/// Runs every Table-1 model in both tasks under baseline and TIC and
/// reports the efficiency metric `E` and straggler time (%) against the
/// number of ops per worker (the paper's x-axis).
pub fn run(quick: bool) -> String {
    let models: Vec<Model> = if quick {
        vec![Model::AlexNetV2, Model::ResNet50V1]
    } else {
        Model::ALL.to_vec()
    };
    let iterations = if quick { 4 } else { 10 };

    let mut points = Vec::new();
    for &model in &models {
        for mode in [Mode::Inference, Mode::Training] {
            for scheduler in [SchedulerKind::Baseline, SchedulerKind::Tic] {
                let mut p = Point::new(model, mode, 4, 1, scheduler, SimConfig::cloud_gpu());
                p.iterations = iterations;
                points.push(p);
            }
        }
    }
    let reports = parallel_map(points.clone(), |p| p.run());

    // Rows sorted by partition size, like the figure's x-axis.
    let mut rows: Vec<Row> = Vec::new();
    for &model in &models {
        for mode in [Mode::Inference, Mode::Training] {
            let graph = model.build_with_batch(mode, 2);
            let deployed = DeployCache::global()
                .deploy(&graph, &ClusterSpec::new(4, 1))
                .expect("valid cluster");
            let ops = deployed.ops_per_worker();
            let get = |sched: SchedulerKind| {
                points
                    .iter()
                    .zip(&reports)
                    .find(|(p, _)| p.model == model && p.mode == mode && p.scheduler == sched)
                    .map(|(_, r)| (r.mean_efficiency(), r.max_straggler_pct()))
                    .expect("point was swept")
            };
            let (e_base, s_base) = get(SchedulerKind::Baseline);
            let (e_tic, s_tic) = get(SchedulerKind::Tic);
            rows.push((
                ops,
                model.name().to_string(),
                super::mode_label(mode).to_string(),
                [e_base, e_tic],
                [s_base, s_tic],
            ));
        }
    }
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
            model.clone(),
            task.clone(),
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

//! One module per table/figure of the paper's evaluation, plus ablations.
//!
//! Experiments describe session points as `Scenario`s run through
//! `Session::from_scenario`; only knobs the scenario grammar lacks (reorder
//! errors, enforcement, noise, a registry) go through `Session::builder`.

mod ablations;
mod autotune;
mod exec;
mod faults;
mod fig07;
mod fig08;
mod fig09;
mod fig10;
mod fig11;
mod fig12;
mod fig13;
mod observe;
mod orders;
mod scale;
mod sched_cost;
mod spread;
mod table1;

use crate::format::Table;
use tictac_core::{
    parallel_map, priority_inversions, speedup_pct, BackendKind, ClusterSpec, EnvPreset, FaultSpec,
    Mode, Model, RunReport, Scenario, SchedulerKind, Session, SimConfig,
};

/// An experiment entry point: takes a `quick` flag that trims run counts
/// for smoke testing and returns the rendered report.
pub type Runner = fn(bool) -> String;

/// All experiments, in paper order: `(name, runner)`.
pub const ALL: &[(&str, Runner)] = &[
    ("table1", table1::run),
    ("unique-orders", orders::run),
    ("fig7", fig07::run),
    ("fig8", fig08::run),
    ("fig9", fig09::run),
    ("fig10", fig10::run),
    ("fig11", fig11::run),
    ("fig12", fig12::run),
    ("fig13", fig13::run),
    ("sched-cost", sched_cost::run),
    ("scale", scale::run),
    ("ext-spread", spread::run),
    ("ablation-reorder", ablations::reorder),
    ("ablation-enforcement", ablations::enforcement),
    ("ablation-sharding", ablations::sharding),
    ("faults", faults::run),
    ("observe", observe::run),
    ("exec", exec::run),
    ("autotune", autotune::run),
];

/// Looks up an experiment runner by name.
pub fn find(name: &str) -> Option<Runner> {
    ALL.iter().find(|(n, _)| *n == name).map(|(_, f)| *f)
}

/// The nine models shown in Figures 7, 9 and 10 of the paper (all of
/// Table 1 except ResNet-101 v2).
pub const FIGURE_MODELS: [Model; 9] = [
    Model::InceptionV1,
    Model::Vgg19,
    Model::InceptionV2,
    Model::AlexNetV2,
    Model::Vgg16,
    Model::ResNet50V1,
    Model::ResNet50V2,
    Model::InceptionV3,
    Model::ResNet101V1,
];

/// The two tasks, in the order the figures print them.
const TASKS: [Mode; 2] = [Mode::Inference, Mode::Training];

/// Short human label for a task.
pub(crate) fn mode_label(mode: Mode) -> &'static str {
    match mode {
        Mode::Inference => "inference",
        Mode::Training => "train",
    }
}

/// Trims a model list in quick mode.
pub(crate) fn pick_models(quick: bool) -> Vec<Model> {
    if quick {
        vec![Model::AlexNetV2, Model::ResNet50V1]
    } else {
        FIGURE_MODELS.to_vec()
    }
}

/// Like [`pick_models`], but the full run covers the whole zoo.
pub(crate) fn pick_models_zoo(quick: bool) -> Vec<Model> {
    if quick {
        vec![Model::AlexNetV2, Model::ResNet50V1]
    } else {
        Model::ALL.to_vec()
    }
}

/// A sweep point with the paper's defaults (§6): Table-1 batch, envG, the
/// simulator, the default seed, 2 warm-up + 10 measured iterations and
/// no faults. Experiments override the rest with struct-update syntax.
pub(crate) fn point(
    model: Model,
    mode: Mode,
    cluster: ClusterSpec,
    scheduler: SchedulerKind,
) -> Scenario {
    Scenario {
        name: model.name().to_string(),
        model,
        mode,
        batch: model.default_batch(),
        cluster,
        env: EnvPreset::G,
        scheduler,
        backend: BackendKind::Sim,
        seed: SimConfig::cloud_gpu().seed,
        iterations: 10,
        warmup: 2,
        time_scale: None,
        faults: FaultSpec::none(),
        store: None,
    }
}

/// Runs simulator points across the `parallel_map` pool, reports in point
/// order. Threaded points run one at a time instead: each session spawns
/// a thread per device and channel, and a pool would skew the wall clock.
pub(crate) fn sweep(points: Vec<Scenario>) -> Vec<RunReport> {
    parallel_map(points, |p| {
        Session::from_scenario(p)
            .expect("sweep points deploy")
            .run()
    })
}

/// Priority inversions in iteration 0 of `session`, judged by its own
/// schedule's ranks.
pub(crate) fn inversions(session: &Session) -> usize {
    let trace = session.trace_iteration(0).expect("iteration 0 completes");
    let rank = |op| session.schedule().priority(op);
    priority_inversions(session.deployed().graph(), &trace, rank).count()
}

/// One speedup table: a row per model, whose reports come in runs of `k`
/// with the baseline first; each run adds one cell per other report, its
/// throughput gain over that baseline.
pub(crate) fn speedup_table(
    models: &[Model],
    columns: &[String],
    reports: &[RunReport],
    k: usize,
) -> String {
    let mut t = Table::new(std::iter::once("model".to_string()).chain(columns.iter().cloned()));
    let rows = reports.chunks_exact(reports.len() / models.len());
    for (model, row) in models.iter().zip(rows) {
        let cells = row.chunks_exact(k).flat_map(|run| {
            run[1..].iter().map(|r| {
                let gain = speedup_pct(run[0].mean_throughput(), r.mean_throughput());
                format!("{gain:+.1}%")
            })
        });
        t.row(std::iter::once(model.name().to_string()).chain(cells));
    }
    t.render()
}

/// Per task, inference first, a [`speedup_table`] over the sweep of the
/// points `row(model, mode)` gives each model, in runs of `k` with the
/// baseline first.
pub(crate) fn speedup_tables_per_task(
    models: &[Model],
    columns: &[String],
    k: usize,
    row: impl Fn(Model, Mode) -> Vec<Scenario>,
) -> String {
    let mut points = Vec::new();
    for mode in TASKS {
        for &model in models {
            points.extend(row(model, mode));
        }
    }
    let reports = sweep(points);
    let grids = reports.chunks_exact(reports.len() / TASKS.len());
    let tables = TASKS.iter().zip(grids).map(|(&mode, grid)| {
        let table = speedup_table(models, columns, grid, k);
        format!("task = {}\n{table}\n", mode_label(mode))
    });
    tables.collect()
}

/// TIC's gain over the baseline per task, one column per cluster shape
/// (Figures 7 and 9): envG, the figure models.
fn tic_gain_by_cluster(
    quick: bool,
    clusters: &[ClusterSpec],
    label: impl Fn(&ClusterSpec) -> String,
) -> String {
    let iterations = if quick { 4 } else { 10 };
    let columns: Vec<String> = clusters.iter().map(label).collect();
    let schedulers = [SchedulerKind::Baseline, SchedulerKind::Tic];
    speedup_tables_per_task(&pick_models(quick), &columns, 2, |model, mode| {
        let row = clusters
            .iter()
            .flat_map(|c| schedulers.map(|s| point(model, mode, c.clone(), s)));
        row.map(|p| Scenario { iterations, ..p }).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_finds_every_experiment() {
        for (name, _) in ALL {
            assert!(find(name).is_some(), "{name} missing");
        }
        assert!(find("nope").is_none());
        assert_eq!(ALL.len(), 19);
    }

    #[test]
    fn figure_models_excludes_resnet101_v2() {
        assert!(!FIGURE_MODELS.contains(&Model::ResNet101V2));
        assert_eq!(FIGURE_MODELS.len(), 9);
    }
}

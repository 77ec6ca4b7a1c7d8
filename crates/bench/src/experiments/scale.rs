//! Scale sweep: 16 → 1024 workers on every zoo model.
//!
//! The paper's measurements stop at tens of workers; this sweep pushes
//! the same deployments to four-digit clusters. For each `(model, W)`
//! shape it reports:
//!
//! * TIC and TAC makespans under enforced schedules (schedules are
//!   computed once on the reference worker and replicated, so scheduling
//!   cost stays independent of `W`),
//! * the realized scheduling efficiency `E` (Eq. 3) and speedup
//!   potential `S` (Eq. 4) of the TAC run, and
//! * the engine the driver auto-selected, and the wall time and cost per
//!   simulated op of the TIC + TAC simulations on that engine *and* forced
//!   through the sequential oracle at the same `W` — the pair of numbers
//!   the parallel-engine threshold has to be justified by. Both engines
//!   must agree on every makespan.
//!
//! PS shards scale as `W / 32`, clamped to the model's parameter count
//! (`deploy` rejects shards that would host nothing).

use crate::format::Table;
use std::time::Instant;
use tictac_core::{
    deploy, realized_efficiency, selected_engine, simulate, tac, tic, ClusterSpec, CostOracle,
    DeployedModel, EngineChoice, Mode, Model, Platform, Schedule, SimConfig, SimDuration,
};

/// Worker counts of the full sweep.
const SIZES: [usize; 4] = [16, 64, 256, 1024];

/// The parallel-safe deterministic sweep config: the driver picks the
/// engine from the worker count alone (threshold = the crate default).
fn sweep_config() -> SimConfig {
    SimConfig::deterministic(Platform::cloud_gpu()).with_disorder_window(Some(1))
}

/// PS shards for `workers`: one per 32 workers, at least one, never more
/// than the model has parameters.
fn shards_for(workers: usize, params: usize) -> usize {
    (workers / 32).clamp(1, params)
}

fn deploy_at(model: Model, workers: usize) -> DeployedModel {
    let graph = model.build_with_batch(Mode::Training, 2);
    let shards = shards_for(workers, graph.params().len());
    deploy(&graph, &ClusterSpec::new(workers, shards)).expect("zoo model deploys at scale")
}

/// Simulates the TIC and the TAC schedule, returning both makespans, the
/// wall time of the pair and the TAC run's realized efficiency.
fn timed_pair(
    d: &DeployedModel,
    schedules: [&Schedule; 2],
    config: &SimConfig,
) -> ([SimDuration; 2], f64, tictac_core::RealizedEfficiency) {
    let started = Instant::now();
    let traces = schedules.map(|s| simulate(d.graph(), s, config, 0));
    let wall = started.elapsed().as_secs_f64();
    let eff = realized_efficiency(d.graph(), &traces[1]);
    (traces.map(|t| t.makespan()), wall, eff)
}

pub fn run(quick: bool) -> String {
    let sizes: &[usize] = if quick { &SIZES[..2] } else { &SIZES };
    let models = super::pick_models_zoo(quick);
    let config = sweep_config();
    let seq_config = config.clone().with_par_threshold(None);
    let oracle = CostOracle::new(Platform::cloud_gpu());

    let mut t = Table::new([
        "model",
        "W",
        "S",
        "engine",
        "tic makespan",
        "tac makespan",
        "tac vs tic",
        "E (tac)",
        "S_pot (tac)",
        "wall",
        "ns/op",
        "seq wall",
        "seq ns/op",
        "speedup",
    ]);
    for &model in &models {
        for &w in sizes {
            let d = deploy_at(model, w);
            let g = d.graph();
            let w0 = d.workers()[0];
            let tic_s = d.replicate_schedule(&tic(g, w0));
            let tac_s = d.replicate_schedule(&tac(g, w0, &oracle));
            let engine = match selected_engine(g, &config) {
                EngineChoice::Sequential => "seq",
                EngineChoice::Parallel => "par",
            };
            let ([tic_make, tac_make], wall, eff) = timed_pair(&d, [&tic_s, &tac_s], &config);
            let (seq_makes, seq_wall, _) = timed_pair(&d, [&tic_s, &tac_s], &seq_config);
            assert_eq!(
                seq_makes,
                [tic_make, tac_make],
                "engines must agree on the makespan"
            );
            let ns_per_op = |wall: f64| wall * 1e9 / (2 * g.len()) as f64;
            t.row([
                model.name().to_string(),
                w.to_string(),
                d.parameter_servers().len().to_string(),
                engine.to_string(),
                format!("{tic_make}"),
                format!("{tac_make}"),
                format!(
                    "{:+.1}%",
                    (tac_make.as_secs_f64() / tic_make.as_secs_f64() - 1.0) * 100.0
                ),
                format!("{:.3}", eff.efficiency),
                format!("{:.3}", eff.speedup_potential),
                format!("{:.0}ms", wall * 1e3),
                format!("{:.0}", ns_per_op(wall)),
                format!("{:.0}ms", seq_wall * 1e3),
                format!("{:.0}", ns_per_op(seq_wall)),
                format!("{:.2}x", seq_wall / wall),
            ]);
        }
    }

    format!(
        "Scale sweep (envG, training, batch 2, deterministic timing, enforced schedules)\n\
         S = PS shards (W/32, clamped to the model's parameter count); engine = what the\n\
         driver auto-selected at the default threshold; E / S_pot = Eq. 3/4 on the TAC run;\n\
         wall, ns/op = the TIC + TAC simulations on that engine, per simulated graph op;\n\
         seq ... = the same two forced through the sequential engine; speedup = seq wall /\n\
         wall (nproc {}, TICTAC_THREADS {})\n\n{}\n",
        std::thread::available_parallelism().map_or(1, usize::from),
        std::env::var("TICTAC_THREADS").unwrap_or_else(|_| "unset".into()),
        t.render(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_report_covers_both_engines() {
        let out = run(true);
        // 16 workers sits below the default threshold, 64 above it.
        assert!(out.contains("seq"), "{out}");
        assert!(out.contains("par"), "{out}");
        assert!(out.contains("speedup"), "{out}");
    }

    #[test]
    fn shards_never_exceed_params() {
        assert_eq!(shards_for(16, 100), 1);
        assert_eq!(shards_for(1024, 16), 16);
        assert_eq!(shards_for(1024, 100), 32);
    }
}

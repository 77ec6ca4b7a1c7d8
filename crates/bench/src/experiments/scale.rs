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
//! * the wall time and cost per simulated op of the TIC + TAC
//!   simulations.
//!
//! PS shards scale as `W / 32`, clamped to the model's parameter count
//! (`deploy` rejects shards that would host nothing).

use crate::format::Table;
use std::time::Instant;
use tictac_core::{
    deploy, realized_efficiency, simulate, tac, tic, ClusterSpec, CostOracle, DeployedModel, Mode,
    Model, Platform, SimConfig,
};

/// Worker counts of the full sweep.
const SIZES: [usize; 4] = [16, 64, 256, 1024];

/// Deterministic timing, in-order queues: one run per shape is the answer.
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

pub fn run(quick: bool) -> String {
    let sizes: &[usize] = if quick { &SIZES[..2] } else { &SIZES };
    let models = super::pick_models_zoo(quick);
    let config = sweep_config();
    let oracle = CostOracle::new(Platform::cloud_gpu());

    let mut t = Table::new([
        "model",
        "W",
        "S",
        "tic makespan",
        "tac makespan",
        "tac vs tic",
        "E (tac)",
        "S_pot (tac)",
        "wall",
        "ns/op",
    ]);
    for &model in &models {
        for &w in sizes {
            let d = deploy_at(model, w);
            let g = d.graph();
            let w0 = d.workers()[0];
            let tic_s = d.replicate_schedule(&tic(g, w0));
            let tac_s = d.replicate_schedule(&tac(g, w0, &oracle));
            let started = Instant::now();
            let traces = [&tic_s, &tac_s].map(|s| simulate(g, s, &config, 0));
            let wall = started.elapsed().as_secs_f64();
            let eff = realized_efficiency(g, &traces[1]);
            let [tic_make, tac_make] = traces.map(|t| t.makespan());
            t.row([
                model.name().to_string(),
                w.to_string(),
                d.parameter_servers().len().to_string(),
                format!("{tic_make}"),
                format!("{tac_make}"),
                format!(
                    "{:+.1}%",
                    (tac_make.as_secs_f64() / tic_make.as_secs_f64() - 1.0) * 100.0
                ),
                format!("{:.3}", eff.efficiency),
                format!("{:.3}", eff.speedup_potential),
                format!("{:.0}ms", wall * 1e3),
                format!("{:.0}", wall * 1e9 / (2 * g.len()) as f64),
            ]);
        }
    }

    format!(
        "Scale sweep (envG, training, batch 2, deterministic timing, enforced schedules)\n\
         S = PS shards (W/32, clamped to the model's parameter count); E / S_pot = Eq. 3/4\n\
         on the TAC run; wall, ns/op = the TIC + TAC simulations, per simulated graph op\n\n{}\n",
        t.render(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_report_has_one_row_per_shape_and_one_engine() {
        let out = run(true);
        for model in ["alexnet_v2", "resnet_v1_50"] {
            for w in ["16", "64"] {
                let rows = out
                    .lines()
                    .filter(|l| {
                        let mut cols = l.split_whitespace();
                        cols.next() == Some(model) && cols.next() == Some(w)
                    })
                    .count();
                assert_eq!(rows, 1, "{model} at W = {w}:\n{out}");
            }
        }
        assert!(!out.contains("engine") && !out.contains("speedup"), "{out}");
    }

    #[test]
    fn shards_never_exceed_params() {
        assert_eq!(shards_for(16, 100), 1);
        assert_eq!(shards_for(1024, 16), 16);
        assert_eq!(shards_for(1024, 100), 32);
    }
}

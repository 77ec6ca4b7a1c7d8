//! Offline scheduling cost: the paper reports ~10 s to compute the
//! heuristics (before execution, hence zero runtime overhead).

use crate::format::Table;
use std::time::Instant;
use tictac_core::{
    estimate_profile, no_ordering, simulate, tac, tic, ClusterSpec, DeployCache, Mode, SimConfig,
};

/// Times TIC and TAC schedule computation per model (training graphs,
/// 4 workers, 1 PS).
///
/// Deliberately serial: the whole point of each row is an undisturbed
/// wall-clock measurement, and concurrent rows would contend for cores
/// and inflate each other's timings.
pub(crate) fn run(quick: bool) -> String {
    let models = super::pick_models_zoo(quick);
    let config = SimConfig::cloud_gpu();

    let mut t = Table::new(["model", "recvs", "ops/worker", "TIC (ms)", "TAC (ms)"]);
    for &model in &models {
        let graph = model.build_with_batch(Mode::Training, 2);
        let deployed = DeployCache::global()
            .deploy(&graph, &ClusterSpec::new(4, 1))
            .expect("valid cluster");
        let g = deployed.graph();
        let w0 = deployed.workers()[0];

        let start = Instant::now();
        let tic_schedule = tic(g, w0);
        let tic_ms = start.elapsed().as_secs_f64() * 1e3;

        // TAC includes its required profiling input (5 traced iterations).
        let unordered = no_ordering(g);
        let traces: Vec<_> = (0..5)
            .map(|i| simulate(g, &unordered, &config, i))
            .collect();
        let profile = estimate_profile(&traces);
        let start = Instant::now();
        let tac_schedule = tac(g, w0, &profile);
        let tac_ms = start.elapsed().as_secs_f64() * 1e3;

        assert!(!tic_schedule.is_unordered() && !tac_schedule.is_unordered());
        t.row([
            model.name().to_string(),
            graph.params().len().to_string(),
            deployed.ops_per_worker().to_string(),
            format!("{tic_ms:.2}"),
            format!("{tac_ms:.2}"),
        ]);
    }
    format!(
        "Offline scheduling cost (computed once before execution; paper: ~10 s)\n\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn reports_costs_for_models() {
        let out = super::run(true);
        assert!(out.contains("TIC (ms)"));
        assert!(out.contains("alexnet_v2"));
    }
}

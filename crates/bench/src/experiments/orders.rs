//! The §2.2 observation: without enforcement, the order of received
//! parameters is essentially never repeated.
//!
//! Paper: over 1000 training iterations, ResNet-v2-50 and Inception-v3
//! observed 1000 unique orders; VGG-16 observed 493 (its 32 parameters are
//! few enough for collisions).

use crate::format::Table;
use tictac_core::{
    count_unique_recv_orders, parallel_map, ClusterSpec, DeployCache, Mode, Model, SimConfig,
};

/// Counts unique parameter-arrival orders at one worker over N baseline
/// iterations.
pub fn run(quick: bool) -> String {
    let runs = if quick { 50 } else { 1000 };
    let paper: Vec<(Model, usize)> = vec![
        (Model::ResNet50V2, 1000),
        (Model::InceptionV3, 1000),
        (Model::Vgg16, 493),
    ];
    let mut t = Table::new([
        "model",
        "#params",
        "runs",
        "unique orders",
        "paper (1000 runs)",
    ]);
    // Each model simulates `runs` full iterations; fan the three out.
    let rows = parallel_map(paper, |&(model, paper_unique)| {
        let graph = model.build_with_batch(Mode::Training, 2);
        let deployed = DeployCache::global()
            .deploy(&graph, &ClusterSpec::new(1, 1))
            .expect("valid cluster");
        let unique = count_unique_recv_orders(&deployed, &SimConfig::cloud_gpu(), runs);
        [
            model.name().to_string(),
            graph.params().len().to_string(),
            runs.to_string(),
            unique.to_string(),
            paper_unique.to_string(),
        ]
    });
    for row in rows {
        t.row(row);
    }
    format!(
        "Unique parameter-arrival orders under the baseline (S2.2)\n\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn quick_run_reports_three_models() {
        let out = super::run(true);
        assert!(out.contains("resnet_v2_50"));
        assert!(out.contains("inception_v3"));
        assert!(out.contains("vgg_16"));
    }
}

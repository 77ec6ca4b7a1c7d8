//! Scheduler invariants over the full model zoo (integration tests:
//! tictac-sched applied to graphs deployed by tictac-cluster).

use tictac_cluster::{deploy, ClusterSpec};
use tictac_models::{Mode, Model};
use tictac_sched::reference::tac_order_naive;
use tictac_sched::{tac_order, tic, PartitionGraph};
use tictac_timing::{CostOracle, Platform};

#[test]
fn tic_covers_every_recv_on_every_model() {
    for model in Model::ALL {
        let graph = model.build_with_batch(Mode::Training, 2);
        let deployed = deploy(&graph, &ClusterSpec::new(2, 1)).expect("valid cluster");
        let g = deployed.graph();
        let w0 = deployed.workers()[0];
        let schedule = tic(g, w0);
        for recv in g.recv_ops_on(w0) {
            assert!(
                schedule.priority(recv).is_some(),
                "{model}: {} unprioritized",
                g.op_name(recv)
            );
        }
        // And nothing outside worker 0 is prioritized.
        assert_eq!(
            schedule.prioritized().count(),
            g.recv_ops_on(w0).len(),
            "{model}"
        );
    }
}

#[test]
fn tac_is_a_total_order_on_every_model() {
    let oracle = CostOracle::new(Platform::cloud_gpu());
    for model in Model::ALL {
        let graph = model.build_with_batch(Mode::Training, 2);
        let deployed = deploy(&graph, &ClusterSpec::new(2, 1)).expect("valid cluster");
        let g = deployed.graph();
        let w0 = deployed.workers()[0];
        let mut order = tac_order(g, w0, &oracle);
        let n = order.len();
        assert_eq!(n, g.recv_ops_on(w0).len(), "{model}");
        order.sort_unstable();
        order.dedup();
        assert_eq!(order.len(), n, "{model}: duplicates in TAC order");
    }
}

#[test]
fn tac_schedules_stem_parameters_first() {
    // The first transfers should unblock the network stem: for chain-ish
    // models the very first TAC pick is the first layer's weights.
    let oracle = CostOracle::new(Platform::cloud_gpu());
    for (model, stem) in [
        (Model::Vgg16, "conv1/conv1_1/weights"),
        (Model::AlexNetV2, "conv1/weights"),
        (Model::ResNet50V1, "conv1/weights"),
    ] {
        let graph = model.build_with_batch(Mode::Inference, 2);
        let deployed = deploy(&graph, &ClusterSpec::new(1, 1)).expect("valid cluster");
        let g = deployed.graph();
        let order = tac_order(g, deployed.workers()[0], &oracle);
        let first = g.op_name(order[0]);
        assert!(
            first.ends_with(stem),
            "{model}: first transfer {first}, expected *{stem}"
        );
    }
}

#[test]
fn tic_priorities_are_monotone_along_vgg_layers() {
    // VGG is a pure chain: TIC priorities must be non-decreasing in layer
    // order (weights of layer k before layer k+1).
    let graph = Model::Vgg16.build_with_batch(Mode::Inference, 2);
    let deployed = deploy(&graph, &ClusterSpec::new(1, 1)).expect("valid cluster");
    let g = deployed.graph();
    let w0 = deployed.workers()[0];
    let schedule = tic(g, w0);
    let recvs = g.recv_ops_on(w0); // id order == declaration (layer) order
    let priorities: Vec<u64> = recvs
        .iter()
        .map(|&r| schedule.priority(r).expect("prioritized"))
        .collect();
    assert!(
        priorities.windows(2).all(|w| w[0] <= w[1]),
        "priorities not monotone: {priorities:?}"
    );
}

#[test]
fn partition_sizes_match_deployment_accounting() {
    for model in [Model::InceptionV1, Model::ResNet50V2] {
        let graph = model.build_with_batch(Mode::Training, 2);
        let deployed = deploy(&graph, &ClusterSpec::new(3, 2)).expect("valid cluster");
        let g = deployed.graph();
        for &w in deployed.workers() {
            let part = PartitionGraph::new(g, w);
            assert_eq!(part.len(), g.ops_on(w).count(), "{model}");
            assert_eq!(part.recvs().len(), g.recv_ops_on(w).len(), "{model}");
        }
    }
}

#[test]
fn incremental_tac_matches_naive_reference_on_the_zoo() {
    // The incremental M+ maintenance must reproduce the paper's per-round
    // recomputation pick-for-pick on every real model — the tie-breaking
    // reduce makes any property drift show up as a different order.
    let oracle = CostOracle::new(Platform::cloud_gpu());
    for model in Model::ALL {
        let graph = model.build_with_batch(Mode::Training, 2);
        let deployed = deploy(&graph, &ClusterSpec::new(2, 1)).expect("valid cluster");
        let g = deployed.graph();
        let w0 = deployed.workers()[0];
        assert_eq!(
            tac_order(g, w0, &oracle),
            tac_order_naive(g, w0, &oracle),
            "{model}: incremental TAC diverged from the naive reference"
        );
    }
}

#[test]
fn scheduling_large_models_is_fast_enough() {
    // The paper computes schedules offline in ~10 s; our implementation
    // must stay well under that even in debug builds.
    let oracle = CostOracle::new(Platform::cloud_gpu());
    let graph = Model::ResNet101V2.build_with_batch(Mode::Training, 2);
    let deployed = deploy(&graph, &ClusterSpec::new(4, 1)).expect("valid cluster");
    let g = deployed.graph();
    let w0 = deployed.workers()[0];
    let start = std::time::Instant::now();
    let _ = tic(g, w0);
    let _ = tac_order(g, w0, &oracle);
    assert!(
        start.elapsed().as_secs() < 10,
        "scheduling took {:?}",
        start.elapsed()
    );
}

//! Simulator invariants over realistic deployments of the model zoo.

use tictac_cluster::{deploy, ClusterSpec};
use tictac_graph::{Mode, Model};
use tictac_sched::no_ordering;
use tictac_sim::{simulate, SimConfig};
use tictac_trace::{analyze, SimTime};

#[test]
fn every_model_simulates_to_completion_on_a_multi_ps_cluster() {
    let config = SimConfig::cloud_gpu();
    for model in Model::ALL {
        let graph = model.build_with_batch(Mode::Training, 2);
        let deployed = deploy(&graph, &ClusterSpec::new(4, 2)).expect("valid cluster");
        let trace = simulate(deployed.graph(), &no_ordering(deployed.graph()), &config, 0);
        assert_eq!(
            trace.executed_ops(),
            deployed.graph().len(),
            "{model}: ops lost"
        );
        let metrics = analyze(deployed.graph(), deployed.workers(), &trace);
        assert!(metrics.makespan.as_nanos() > 0, "{model}");
        assert!(
            metrics.worker_finish.iter().all(|&f| f > SimTime::ZERO),
            "{model}"
        );
    }
}

#[test]
fn enforced_schedules_complete_on_multi_ps_clusters() {
    // Priorities are normalized per channel; with 2 PS the per-channel
    // counters must still release every transfer (no deadlock).
    let config = SimConfig::cloud_gpu();
    for model in [Model::InceptionV2, Model::Vgg19] {
        let graph = model.build_with_batch(Mode::Training, 2);
        let deployed = deploy(&graph, &ClusterSpec::new(3, 2)).expect("valid cluster");
        let g = deployed.graph();
        let schedule = deployed.replicate_schedule(&tictac_sched::tic(g, deployed.workers()[0]));
        let trace = simulate(g, &schedule, &config, 0);
        assert_eq!(trace.executed_ops(), g.len(), "{model}");
    }
}

#[test]
fn transfers_never_overlap_on_any_channel() {
    let config = SimConfig::cloud_gpu();
    let graph = Model::InceptionV1.build_with_batch(Mode::Training, 2);
    let deployed = deploy(&graph, &ClusterSpec::new(2, 2)).expect("valid cluster");
    let g = deployed.graph();
    let trace = simulate(g, &no_ordering(g), &config, 5);
    for channel in g.channels() {
        let mut intervals: Vec<(u64, u64)> = g
            .recv_ops()
            .into_iter()
            .filter(|&r| g.op(r).kind().channel() == Some(channel.id()))
            .filter_map(|r| trace.record(r))
            .map(|r| (r.start.as_nanos(), r.end.as_nanos()))
            .collect();
        intervals.sort_unstable();
        for pair in intervals.windows(2) {
            assert!(pair[0].1 <= pair[1].0, "channel {channel}: {pair:?}");
        }
    }
}

#[test]
fn more_workers_scale_aggregate_throughput_sublinearly() {
    // Total throughput rises with workers, but per-worker throughput falls
    // once the shared PS links saturate.
    let config = SimConfig::cloud_gpu();
    let graph = Model::ResNet50V1.build_with_batch(Mode::Training, 8);
    let mut iteration_time = Vec::new();
    for workers in [1usize, 4, 16] {
        let deployed =
            deploy(&graph, &ClusterSpec::new(workers, (workers / 4).max(1))).expect("valid");
        let trace = simulate(deployed.graph(), &no_ordering(deployed.graph()), &config, 0);
        iteration_time.push(trace.makespan().as_secs_f64());
    }
    // Iterations get slower as contention grows…
    assert!(iteration_time[0] < iteration_time[1]);
    assert!(iteration_time[1] < iteration_time[2]);
    // …but not proportionally to the worker count (that would mean zero
    // parallel benefit).
    assert!(iteration_time[2] < 16.0 * iteration_time[0]);
}

#[test]
fn disorder_window_bounds_queue_jumping() {
    // With window 1 the baseline pops strictly in readiness order: the
    // recv completion order must equal the hand-off order every run.
    let config = SimConfig::cloud_gpu().with_disorder_window(Some(1));
    let graph = Model::AlexNetV2.build_with_batch(Mode::Inference, 2);
    let deployed = deploy(&graph, &ClusterSpec::new(1, 1)).expect("valid cluster");
    let g = deployed.graph();
    let w = deployed.workers()[0];
    let a = simulate(g, &no_ordering(g), &config, 0).recv_completion_order(g, w);
    let b = simulate(g, &no_ordering(g), &config, 1).recv_completion_order(g, w);
    assert_eq!(a, b, "window 1 must be deterministic");
}

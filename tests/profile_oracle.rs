//! TAC's time oracle on noise-free configurations is read off the
//! engine's service times instead of being measured (DESIGN.md §5). That
//! is only sound if it *equals* the measurement: the per-op minimum over
//! five fault-free simulated runs, exactly as the session profiled before.
//! Pinned here zoo-wide across every input the service times depend on —
//! device speeds, link bandwidths, the bandwidth-share override, the
//! partition/fusion passes — and end to end on the schedule a session
//! enforces. Noisy configurations must keep taking the measured path.

use tictac::{
    deploy, estimate_profile, no_ordering, noise_free_profile, simulate, tac, ClusterSpec,
    CommConfig, DeployedModel, FaultSpec, MeasuredProfile, Mode, Model, Platform, RetryPolicy,
    Schedule, SchedulerKind, Session, SimConfig, SimDuration,
};

/// Iteration-index base of the session's profiling runs (mirrors the
/// private constant in `tictac-core`).
const PROFILE_ITERATION_BASE: u64 = 1 << 40;

/// The paper's estimator (§5), as the session ran it for every config
/// before: five unordered fault-free iterations, per-op minimum.
fn measured_profile(deployed: &DeployedModel, config: &SimConfig) -> MeasuredProfile {
    let graph = deployed.graph();
    let quiet = config.clone().with_faults(FaultSpec::none());
    let unordered = no_ordering(graph);
    let traces: Vec<_> = (0..5)
        .map(|i| simulate(graph, &unordered, &quiet, PROFILE_ITERATION_BASE + i))
        .collect();
    estimate_profile(&traces)
}

fn tac_schedule(deployed: &DeployedModel, profile: &MeasuredProfile) -> Schedule {
    deployed.replicate_schedule(&tac(deployed.graph(), deployed.workers()[0], profile))
}

fn hetero_cluster() -> ClusterSpec {
    ClusterSpec::builder()
        .workers(3)
        .parameter_servers(2)
        .worker_speeds(vec![1.0, 0.5, 2.0])
        .ps_speeds(vec![1.0, 0.75])
        .link_bandwidths(vec![1.0, 0.25, 2.0, 1.0, 0.5, 1.5])
        .build()
        .expect("valid heterogeneous cluster")
}

fn comm_cluster() -> ClusterSpec {
    ClusterSpec::new(2, 2).with_comm(
        CommConfig::default()
            .with_partition_bytes(Some(1 << 20))
            .with_fusion_bytes(Some(64 << 10)),
    )
}

#[test]
fn analytic_profile_equals_five_simulated_runs_zoo_wide() {
    // Default disorder window: the five runs pick in different orders, so
    // equality really is order-independence, not five identical runs.
    let det = SimConfig::deterministic(Platform::cloud_gpu());
    let cases = [
        ("uniform", ClusterSpec::new(2, 2), det.clone()),
        (
            "uniform envC",
            ClusterSpec::new(3, 1),
            SimConfig::deterministic(Platform::cpu_cluster()),
        ),
        ("hetero", hetero_cluster(), det.clone()),
        (
            "share override",
            ClusterSpec::new(2, 2),
            det.clone().with_bandwidth_share(3.5),
        ),
        (
            "hetero + share override",
            hetero_cluster(),
            det.clone().with_bandwidth_share(1.0),
        ),
        ("partition/fusion", comm_cluster(), det.clone()),
    ];
    for model in Model::ALL {
        for (what, cluster, config) in &cases {
            let deployed = deploy(&model.build_with_batch(Mode::Training, 2), cluster).unwrap();
            assert_eq!(
                noise_free_profile(deployed.graph(), config),
                measured_profile(&deployed, config),
                "{} / {what}",
                model.name()
            );
        }
    }
    // Inference graphs have no gradient path: sends only flow PS → worker.
    let deployed = deploy(
        &Model::InceptionV1.build_with_batch(Mode::Inference, 4),
        &ClusterSpec::new(2, 1),
    )
    .unwrap();
    assert_eq!(
        noise_free_profile(deployed.graph(), &det),
        measured_profile(&deployed, &det)
    );
}

fn tac_session(model: Model, cluster: ClusterSpec, config: SimConfig) -> Session {
    Session::builder(model.build_with_batch(Mode::Training, 2))
        .cluster(cluster)
        .config(config)
        .scheduler(SchedulerKind::Tac)
        .build()
        .expect("valid deployment")
}

#[test]
fn noise_free_sessions_enforce_the_measured_schedule() {
    // A faulty spec on top: profiling stays fault-free on either path.
    let faults = FaultSpec::none()
        .with_drop_prob(0.2)
        .with_retry(RetryPolicy::fixed(SimDuration::from_micros(50), 40));
    for (cluster, config) in [
        (
            ClusterSpec::new(4, 2),
            SimConfig::deterministic(Platform::cloud_gpu()),
        ),
        (
            hetero_cluster(),
            SimConfig::deterministic(Platform::cpu_cluster()).with_faults(faults),
        ),
    ] {
        let session = tac_session(Model::Vgg16, cluster, config.clone());
        let measured = measured_profile(session.deployed(), &config);
        assert_eq!(
            session.schedule(),
            &tac_schedule(session.deployed(), &measured)
        );
    }
}

#[test]
fn noisy_sessions_still_profile_by_simulation() {
    for config in [SimConfig::cloud_gpu(), SimConfig::cpu_cluster()] {
        let session = tac_session(Model::InceptionV3, ClusterSpec::new(4, 2), config.clone());
        let deployed = session.deployed();
        // Under noise the minimum of five runs is not the service time …
        let measured = measured_profile(deployed, &config);
        let analytic = noise_free_profile(deployed.graph(), &config);
        assert_ne!(measured, analytic);
        // … and the session ranks by the measurement, as it always did —
        // which here is observably not the ranking the service times give.
        let enforced = tac_schedule(deployed, &measured);
        assert_eq!(session.schedule(), &enforced);
        assert_ne!(enforced, tac_schedule(deployed, &analytic));
    }
}

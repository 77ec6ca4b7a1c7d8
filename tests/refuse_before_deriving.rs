//! A session the time-axis rule refuses derives no schedule: its build
//! checks the run before it looks up or computes one, so the process-wide
//! `DeployCache` neither gains an entry nor counts a hit for a config that
//! can never run. One test in this binary, so no other test moves the
//! global counters while it reads them.

use tictac::{
    ClusterSpec, DeployCache, Mode, Model, ScenarioBuildError, SchedulerKind, Session, SimConfig,
    SimError,
};

#[test]
fn a_refused_build_leaves_no_schedule_in_the_cache() {
    let model = Model::AlexNetV2.build(Mode::Training);
    let cluster = ClusterSpec::builder()
        .workers(2)
        .parameter_servers(1)
        .worker_speeds(vec![1.0, 1e-9])
        .build()
        .unwrap();
    let config = SimConfig::cloud_gpu();
    let before = DeployCache::global().stats();
    for attempt in 0..2 {
        let built = Session::builder(model.clone())
            .cluster(cluster.clone())
            .config(config.clone())
            .scheduler(SchedulerKind::Tic)
            .build();
        assert!(
            matches!(
                built,
                Err(ScenarioBuildError::Backend(
                    SimError::ServicePastHorizon { .. }
                ))
            ),
            "attempt {attempt}: {built:?}"
        );
        let now = DeployCache::global().stats();
        assert_eq!(
            (now.schedule_hits, now.schedule_misses),
            (before.schedule_hits, before.schedule_misses),
            "attempt {attempt}"
        );
    }
}

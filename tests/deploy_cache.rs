//! DeployCache integration: a warm hit must be indistinguishable — byte
//! for byte, under the golden-trace fingerprint — from recomputing the
//! deployment and schedule cold, and the cache key must split on every
//! input that can change the output.

use std::time::Instant;
use tictac::{
    deploy, simulate, ClusterSpec, DeployCache, ExecutionTrace, Mode, Model, ModelGraphBuilder,
    ModelOpKind, Registry, SchedulerKind, SimConfig,
};

/// FNV-1a over every op interval, fault event and the makespan — the same
/// fingerprint `tests/golden_traces.rs` pins. Any divergence between a
/// cached and a cold deployment shows up here.
fn fingerprint(trace: &ExecutionTrace) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    fn mix(h: &mut u64, v: u64) {
        for byte in v.to_le_bytes() {
            *h ^= byte as u64;
            *h = h.wrapping_mul(PRIME);
        }
    }
    let mut h = OFFSET;
    for i in 0..trace.len() {
        match trace.record(tictac::OpId::from_index(i)) {
            Some(r) => {
                mix(&mut h, i as u64);
                mix(&mut h, r.start.as_nanos());
                mix(&mut h, r.end.as_nanos());
            }
            None => mix(&mut h, u64::MAX),
        }
    }
    for ev in trace.fault_events() {
        mix(&mut h, ev.at.as_nanos());
        for byte in format!("{:?}", ev.kind).bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(PRIME);
        }
    }
    mix(&mut h, trace.makespan().as_nanos());
    h
}

/// A warm schedule() hit must reproduce the cold computation exactly: the
/// simulated traces of (cold deploy + cold schedule) and (cached deploy +
/// cached schedule) carry identical fingerprints across iterations.
#[test]
fn warm_hits_are_byte_identical_to_cold_computation() {
    let model = Model::InceptionV1.build_with_batch(Mode::Inference, 4);
    let spec = ClusterSpec::new(2, 1);
    let config = SimConfig::cloud_gpu();
    let registry = Registry::disabled();

    // Cold: straight through the public deploy + scheduler path.
    let cold = deploy(&model, &spec).unwrap();
    let cache = DeployCache::new();
    let (_, cold_schedule) = cache
        .schedule(&model, &spec, SchedulerKind::Tic, &config, &registry)
        .unwrap();

    // Warm: everything served from the cache.
    let (warm_deploy, warm_schedule) = cache
        .schedule(&model, &spec, SchedulerKind::Tic, &config, &registry)
        .unwrap();
    let stats = cache.stats();
    assert_eq!(stats.deploy_hits, 1, "second schedule() reuses the deploy");
    assert_eq!(
        stats.schedule_hits, 1,
        "second schedule() reuses the schedule"
    );

    for iteration in [0, 3, 11] {
        let cold_trace = simulate(cold.graph(), &cold_schedule, &config, iteration);
        let warm_trace = simulate(warm_deploy.graph(), &warm_schedule, &config, iteration);
        assert_eq!(
            fingerprint(&cold_trace),
            fingerprint(&warm_trace),
            "cached deployment diverged from cold at iteration {iteration}"
        );
    }
}

/// The deploy key must split on the cluster shape and the schedule key on
/// the scheduler and its configuration — nothing may alias.
#[test]
fn keys_split_on_cluster_scheduler_and_config() {
    let model = Model::AlexNetV2.build_with_batch(Mode::Training, 2);
    let config = SimConfig::cloud_gpu();
    let registry = Registry::disabled();
    let cache = DeployCache::new();

    let (d21, tic21) = cache
        .schedule(
            &model,
            &ClusterSpec::new(2, 1),
            SchedulerKind::Tic,
            &config,
            &registry,
        )
        .unwrap();
    let (d31, _) = cache
        .schedule(
            &model,
            &ClusterSpec::new(3, 1),
            SchedulerKind::Tic,
            &config,
            &registry,
        )
        .unwrap();
    assert!(
        !std::sync::Arc::ptr_eq(&d21, &d31),
        "different cluster shapes must not share a deployment"
    );
    assert_ne!(d21.graph().len(), d31.graph().len());

    let (d21b, tac21) = cache
        .schedule(
            &model,
            &ClusterSpec::new(2, 1),
            SchedulerKind::Tac,
            &config,
            &registry,
        )
        .unwrap();
    assert!(
        std::sync::Arc::ptr_eq(&d21, &d21b),
        "schedulers share the deployment entry"
    );
    assert!(
        !std::sync::Arc::ptr_eq(&tic21, &tac21),
        "TIC and TAC must occupy distinct schedule entries"
    );

    // A different platform (the scheduling oracle's input) splits the key.
    let seen_misses = cache.stats().schedule_misses;
    let other = SimConfig::cpu_cluster();
    cache
        .schedule(
            &model,
            &ClusterSpec::new(2, 1),
            SchedulerKind::Tac,
            &other,
            &registry,
        )
        .unwrap();
    assert_eq!(
        cache.stats().schedule_misses,
        seen_misses + 1,
        "a different platform config must miss"
    );
}

/// Two models that differ only in whether op `y` follows op `x` or reads
/// parameter `w` are two cache entries: the model key tells a
/// predecessor from a parameter read at the same index.
#[test]
fn a_pred_and_a_read_are_two_deployments() {
    let pair = |pred: bool| {
        let mut b = ModelGraphBuilder::new("pair", 1);
        let w = b.add_param("w", vec![4]);
        let x = b.add_op("x", ModelOpKind::Forward, 1.0, &[], &[w], &[]);
        let (preds, reads): (&[_], &[_]) = if pred { (&[x], &[]) } else { (&[], &[w]) };
        b.add_op("y", ModelOpKind::Forward, 1.0, preds, reads, &[]);
        b.build()
    };
    let cache = DeployCache::new();
    let spec = ClusterSpec::new(1, 1);
    let follows = cache.deploy(&pair(true), &spec).unwrap();
    let reads = cache.deploy(&pair(false), &spec).unwrap();
    let stats = cache.stats();
    assert_eq!((stats.deploy_hits, stats.deploy_misses), (0, 2));
    assert!(!std::sync::Arc::ptr_eq(&follows, &reads));
}

/// Repeated-deploy microbench: warm hits must be dramatically cheaper than
/// cold computation. The acceptance target is <5% of cold time; the assert
/// leaves a generous margin (50%) so CI noise cannot flake it.
#[test]
fn warm_hits_cost_a_fraction_of_cold_computation() {
    let model = Model::InceptionV3.build_with_batch(Mode::Training, 2);
    let spec = ClusterSpec::new(4, 1);
    let config = SimConfig::cloud_gpu();
    let registry = Registry::disabled();

    let cold_reps = 3;
    let started = Instant::now();
    for _ in 0..cold_reps {
        let cache = DeployCache::new();
        cache
            .schedule(&model, &spec, SchedulerKind::Tic, &config, &registry)
            .unwrap();
    }
    let cold = started.elapsed().as_secs_f64() / cold_reps as f64;

    let cache = DeployCache::new();
    cache
        .schedule(&model, &spec, SchedulerKind::Tic, &config, &registry)
        .unwrap();
    let warm_reps = 30;
    let started = Instant::now();
    for _ in 0..warm_reps {
        cache
            .schedule(&model, &spec, SchedulerKind::Tic, &config, &registry)
            .unwrap();
    }
    let warm = started.elapsed().as_secs_f64() / warm_reps as f64;

    assert!(
        warm < cold * 0.5,
        "warm hit ({warm:.6}s) is not meaningfully cheaper than cold ({cold:.6}s)"
    );
}

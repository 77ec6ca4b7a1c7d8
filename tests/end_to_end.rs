//! Cross-crate integration tests: the full model → cluster → schedule →
//! simulate pipeline.

use tictac::{ClusterSpec, Mode, Model, Platform, SchedulerKind, Session, SimConfig};

fn run(
    model: Model,
    mode: Mode,
    workers: usize,
    ps: usize,
    scheduler: SchedulerKind,
    config: SimConfig,
) -> tictac::RunReport {
    // Small batch keeps debug-mode tests fast without changing structure.
    let graph = model.build_with_batch(mode, 4);
    Session::builder(graph)
        .cluster(ClusterSpec::new(workers, ps))
        .config(config)
        .scheduler(scheduler)
        .warmup(1)
        .iterations(5)
        .build()
        .expect("valid deployment")
        .run()
}

#[test]
fn tic_beats_baseline_on_balanced_configs() {
    for (model, mode) in [
        (Model::ResNet50V1, Mode::Inference),
        (Model::InceptionV1, Mode::Training),
    ] {
        let cfg = SimConfig::cloud_gpu();
        let base = run(model, mode, 4, 1, SchedulerKind::Baseline, cfg.clone());
        let tic = run(model, mode, 4, 1, SchedulerKind::Tic, cfg);
        assert!(
            tic.mean_throughput() > base.mean_throughput(),
            "{model} {mode:?}: tic {} <= baseline {}",
            tic.mean_throughput(),
            base.mean_throughput()
        );
    }
}

#[test]
fn tac_matches_or_beats_tic_closely() {
    // §6/Appendix B: TIC is within a small margin of TAC.
    let cfg = SimConfig::cpu_cluster();
    let tic = run(
        Model::InceptionV2,
        Mode::Inference,
        4,
        1,
        SchedulerKind::Tic,
        cfg.clone(),
    );
    let tac = run(
        Model::InceptionV2,
        Mode::Inference,
        4,
        1,
        SchedulerKind::Tac,
        cfg,
    );
    let ratio = tac.mean_throughput() / tic.mean_throughput();
    assert!(
        (0.9..=1.15).contains(&ratio),
        "TAC/TIC throughput ratio {ratio}"
    );
}

#[test]
fn scheduling_efficiency_approaches_one_under_tic() {
    let report = run(
        Model::InceptionV1,
        Mode::Inference,
        4,
        1,
        SchedulerKind::Tic,
        SimConfig::cloud_gpu(),
    );
    assert!(
        report.mean_efficiency() > 0.9,
        "TIC efficiency {}",
        report.mean_efficiency()
    );
}

#[test]
fn any_fixed_order_reduces_stragglers() {
    // §6.3: enforcing any consistent order reduces the straggler effect,
    // regardless of order quality.
    let cfg = SimConfig::cloud_gpu();
    let base = run(
        Model::ResNet50V1,
        Mode::Training,
        8,
        2,
        SchedulerKind::Baseline,
        cfg.clone(),
    );
    let random = run(
        Model::ResNet50V1,
        Mode::Training,
        8,
        2,
        SchedulerKind::Random,
        cfg,
    );
    assert!(
        random.max_straggler_pct() < base.max_straggler_pct(),
        "random {} vs baseline {}",
        random.max_straggler_pct(),
        base.max_straggler_pct()
    );
}

#[test]
fn noiseless_simulation_is_bounded_by_eq_1_and_2() {
    // With no noise, the measured per-worker makespan must sit between the
    // lower (Equation 2) and upper (Equation 1) bounds — i.e. efficiency
    // within [0, 1] before clamping, for every scheduler.
    let config = SimConfig::deterministic(Platform::cloud_gpu());
    for scheduler in SchedulerKind::ALL {
        let graph = Model::InceptionV1.build_with_batch(Mode::Training, 4);
        let report = Session::builder(graph)
            .cluster(ClusterSpec::new(2, 1))
            .config(config.clone())
            .scheduler(scheduler)
            .warmup(0)
            .iterations(3)
            .build()
            .expect("valid deployment")
            .run();
        for rec in &report.iterations {
            assert!(
                (0.0..=1.0).contains(&rec.efficiency),
                "{scheduler}: efficiency {} out of bounds",
                rec.efficiency
            );
            assert!(rec.speedup_potential >= 0.0);
        }
    }
}

#[test]
fn batch_scaling_changes_the_overlap_tradeoff() {
    // Fig. 10 mechanism: growing the batch grows compute time while
    // transfers stay fixed, so iteration time grows sublinearly when
    // communication dominates.
    let cfg = SimConfig::deterministic(Platform::cloud_gpu());
    let small = {
        let g = Model::Vgg16.build_with_batch(Mode::Inference, 8);
        Session::builder(g)
            .cluster(ClusterSpec::new(4, 1))
            .config(cfg.clone())
            .scheduler(SchedulerKind::Tic)
            .warmup(0)
            .iterations(1)
            .build()
            .expect("valid deployment")
            .run()
            .mean_makespan()
    };
    let large = {
        let g = Model::Vgg16.build_with_batch(Mode::Inference, 16);
        Session::builder(g)
            .cluster(ClusterSpec::new(4, 1))
            .config(cfg)
            .scheduler(SchedulerKind::Tic)
            .warmup(0)
            .iterations(1)
            .build()
            .expect("valid deployment")
            .run()
            .mean_makespan()
    };
    assert!(large > small);
    assert!(
        large.as_nanos() < 2 * small.as_nanos(),
        "doubling batch must not double a comm-bound iteration: {small} -> {large}"
    );
}

#[test]
fn a_cloned_report_equals_the_original() {
    let report = run(
        Model::AlexNetV2,
        Mode::Inference,
        2,
        1,
        SchedulerKind::Tic,
        SimConfig::cloud_gpu(),
    );
    // RunReport is plain data: `Clone` and `PartialEq` cover every field.
    let cloned = report.clone();
    assert_eq!(report, cloned);
}

#[test]
fn sixteen_worker_cluster_simulates_to_completion() {
    let report = run(
        Model::InceptionV1,
        Mode::Training,
        16,
        4,
        SchedulerKind::Tic,
        SimConfig::cloud_gpu(),
    );
    assert_eq!(report.workers, 16);
    assert_eq!(report.parameter_servers, 4);
    assert!(report.mean_throughput() > 0.0);
}

#[test]
fn noise_free_runs_have_tiny_variance_under_enforced_order() {
    // Enforcement pins the transfer order; the only remaining freedom is
    // the random pop order of (cheap) PS-side read ops, so noise-free
    // iterations agree to well under a percent. (The paper likewise
    // reduces — not eliminates — variance; Fig. 12b.)
    let config = SimConfig::deterministic(Platform::cloud_gpu());
    let graph = Model::AlexNetV2.build_with_batch(Mode::Inference, 4);
    let report = Session::builder(graph)
        .cluster(ClusterSpec::new(2, 1))
        .config(config)
        .scheduler(SchedulerKind::Tic)
        .warmup(0)
        .iterations(4)
        .build()
        .expect("valid deployment")
        .run();
    let min = report.iterations.iter().map(|r| r.makespan).min().unwrap();
    let max = report.iterations.iter().map(|r| r.makespan).max().unwrap();
    let spread = (max.as_nanos() - min.as_nanos()) as f64 / min.as_nanos() as f64;
    assert!(
        spread < 0.01,
        "noise-free enforced runs spread {spread:.4} ({min} .. {max})"
    );
}

//! Auto-tuned communication granularity: plain TAC vs tuned TAC.
//!
//! For every zoo model on a 4-worker / 2-PS envG cluster, a seeded
//! coordinate-descent search ([`tictac_core::auto_tune_with`]) picks the
//! partition/fusion thresholds minimising the fault-free makespan under
//! TAC, and the table compares the untuned deployment against the
//! winner. The fc-heavy VGG models gain from partitioning (fc6 alone is
//! ~74% of VGG-16's bytes, and chunks spread across both PS shards),
//! while fine-grained models gain from fusing sub-threshold transfers;
//! the default configuration is always a search candidate, so no model
//! can regress.

use super::pick_models_zoo;
use crate::format::Table;
use tictac_core::{
    auto_tune_with, parallel_map, DeployCache, Mode, Model, SchedulerKind, SimConfig, TuneOptions,
};

/// Renders a threshold as a human size, or `off` when the pass is
/// disabled.
fn size_label(bytes: Option<u64>) -> String {
    match bytes {
        None => "off".into(),
        Some(b) if b >= 1 << 20 && b % (1 << 20) == 0 => format!("{}M", b >> 20),
        Some(b) if b >= 1 << 10 && b % (1 << 10) == 0 => format!("{}K", b >> 10),
        Some(b) => format!("{b}B"),
    }
}

/// Runs the search across the zoo (quick: AlexNet + VGG-16 with a
/// reduced ladder) and renders the plain-vs-tuned comparison table.
pub(crate) fn run(quick: bool) -> String {
    let models = if quick {
        vec![Model::AlexNetV2, Model::Vgg16]
    } else {
        pick_models_zoo(false)
    };
    let options = if quick {
        TuneOptions::quick()
    } else {
        TuneOptions::default()
    };

    let results = parallel_map(models.clone(), |&model| {
        let graph = model.build_with_batch(Mode::Training, model.default_batch());
        let cluster = tictac_core::ClusterSpec::new(4, 2);
        auto_tune_with(
            DeployCache::global(),
            &graph,
            &cluster,
            SchedulerKind::Tac,
            &SimConfig::cloud_gpu(),
            &options,
        )
        .expect("zoo model deploys on 4w/2ps")
    });

    let mut out = String::from(
        "Auto-tuned communication: plain TAC vs tuned TAC makespan\n\
         (training, 4 workers / 2 PS, envG, fault-free, seeded search)\n\n",
    );
    let mut t = Table::new([
        "model",
        "plain (ms)",
        "tuned (ms)",
        "partition",
        "fusion",
        "speedup",
        "evals",
    ]);
    for (model, r) in models.iter().zip(&results) {
        t.row([
            model.name().to_string(),
            format!("{:.3}", r.baseline_makespan_s * 1e3),
            format!("{:.3}", r.best_makespan_s * 1e3),
            size_label(r.best.partition_bytes),
            size_label(r.best.fusion_bytes),
            format!("{:+.1}%", r.speedup_pct()),
            r.evaluations.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_search_tunes_vgg16_without_regressions() {
        let out = run(true);
        assert!(out.contains("alexnet_v2"));
        assert!(out.contains("vgg_16"));
        // The default config is always a candidate, so no row may show
        // a slowdown.
        assert!(!out.contains('-') || !out.contains("-0."), "{out}");
        for line in out.lines().filter(|l| l.contains('%')) {
            assert!(!line.contains("-"), "regression in {line}");
        }
    }

    #[test]
    fn size_labels_are_human() {
        assert_eq!(size_label(None), "off");
        assert_eq!(size_label(Some(4 << 20)), "4M");
        assert_eq!(size_label(Some(64 << 10)), "64K");
        assert_eq!(size_label(Some(1000)), "1000B");
    }
}

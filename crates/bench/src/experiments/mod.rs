//! One module per table/figure of the paper's evaluation, plus ablations.

mod ablations;
mod autotune;
mod chaos;
mod exec;
mod faults;
mod fig07;
mod fig08;
mod fig09;
mod fig10;
mod fig11;
mod fig12;
mod fig13;
mod observe;
mod orders;
mod scale;
mod sched_cost;
mod spread;
mod table1;

use tictac_core::{Mode, Model};

pub use chaos::{reference_spec, CHAOS_SEED};

/// An experiment entry point: takes a `quick` flag that trims run counts
/// for smoke testing and returns the rendered report.
pub type Runner = fn(bool) -> String;

/// All experiments, in paper order: `(name, runner)`.
pub const ALL: &[(&str, Runner)] = &[
    ("table1", table1::run),
    ("unique-orders", orders::run),
    ("fig7", fig07::run),
    ("fig8", fig08::run),
    ("fig9", fig09::run),
    ("fig10", fig10::run),
    ("fig11", fig11::run),
    ("fig12", fig12::run),
    ("fig13", fig13::run),
    ("sched-cost", sched_cost::run),
    ("scale", scale::run),
    ("ext-spread", spread::run),
    ("ablation-reorder", ablations::reorder),
    ("ablation-enforcement", ablations::enforcement),
    ("ablation-sharding", ablations::sharding),
    ("faults", faults::run),
    ("chaos", chaos::run),
    ("observe", observe::run),
    ("exec", exec::run),
    ("autotune", autotune::run),
];

/// Experiments with a wall-clock (threaded-backend) variant, selected by
/// `repro --backend threaded`: `(sim_name, wall_name, runner)`. The
/// variant is a distinct experiment — `faults` moves the whole fault
/// model onto real OS threads and becomes the `chaos` report.
pub const THREADED_VARIANTS: &[(&str, &str, Runner)] = &[("faults", "chaos", chaos::run)];

/// Looks up an experiment runner by name.
pub fn find(name: &str) -> Option<Runner> {
    ALL.iter().find(|(n, _)| *n == name).map(|(_, f)| *f)
}

/// Looks up the threaded-backend variant of an experiment, returning the
/// report name it lands under and its runner.
pub fn find_threaded(name: &str) -> Option<(&'static str, Runner)> {
    THREADED_VARIANTS
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|(_, out, f)| (*out, *f))
}

/// The nine models shown in Figures 7, 9 and 10 of the paper (all of
/// Table 1 except ResNet-101 v2).
pub const FIGURE_MODELS: [Model; 9] = [
    Model::InceptionV1,
    Model::Vgg19,
    Model::InceptionV2,
    Model::AlexNetV2,
    Model::Vgg16,
    Model::ResNet50V1,
    Model::ResNet50V2,
    Model::InceptionV3,
    Model::ResNet101V1,
];

/// Short human label for a task.
pub(crate) fn mode_label(mode: Mode) -> &'static str {
    match mode {
        Mode::Inference => "inference",
        Mode::Training => "train",
    }
}

/// Trims a model list in quick mode.
pub(crate) fn pick_models(quick: bool) -> Vec<Model> {
    if quick {
        vec![Model::AlexNetV2, Model::ResNet50V1]
    } else {
        FIGURE_MODELS.to_vec()
    }
}

/// Like [`pick_models`], but the full run covers the complete 10-model
/// zoo (the backend-comparison experiment exercises every model).
pub(crate) fn pick_models_zoo(quick: bool) -> Vec<Model> {
    if quick {
        vec![Model::AlexNetV2, Model::ResNet50V1]
    } else {
        Model::ALL.to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_finds_every_experiment() {
        for (name, _) in ALL {
            assert!(find(name).is_some(), "{name} missing");
        }
        assert!(find("nope").is_none());
        assert_eq!(ALL.len(), 20);
    }

    #[test]
    fn threaded_variants_resolve() {
        let (out, _) = find_threaded("faults").expect("faults has a wall-clock variant");
        assert_eq!(out, "chaos");
        assert!(find_threaded("fig7").is_none());
    }

    #[test]
    fn figure_models_excludes_resnet101_v2() {
        assert!(!FIGURE_MODELS.contains(&Model::ResNet101V2));
        assert_eq!(FIGURE_MODELS.len(), 9);
    }
}

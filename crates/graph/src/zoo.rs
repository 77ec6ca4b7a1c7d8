//! The synthetic DNN model zoo.
//!
//! Structural generators for the ten networks of Table 1 of the paper,
//! producing device-agnostic [`ModelGraph`]s with realistic layer shapes,
//! parameter sizes and FLOP counts. The partitioned, distributed graphs are
//! derived from these by `tictac-cluster`.
//!
//! Parameter counts and total sizes match Table 1 (exactly for counts,
//! within a few percent for sizes); op counts are *semantic* layer ops
//! (conv, bn, relu, …), not TensorFlow kernel counts, and therefore smaller
//! than the paper's — the harness prints both side by side.
//!
//! # Example
//!
//! ```
//! use tictac_graph::{Mode, Model};
//!
//! let m = Model::ResNet50V1.build(Mode::Training);
//! assert_eq!(m.params().len(), 108); // Table 1
//! assert!(m.is_training());
//! ```

mod alexnet;
mod inception;
mod layers;
mod resnet;
mod vgg;

pub use layers::Mode;

use crate::ModelGraph;
use layers::NetBuilder;
use std::fmt;

/// The ten benchmark networks of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Model {
    /// AlexNet v2 (Krizhevsky, 2014).
    AlexNetV2,
    /// Inception v1 / GoogLeNet (Szegedy et al., 2014).
    InceptionV1,
    /// Inception v2 / BN-Inception (Ioffe & Szegedy, 2015).
    InceptionV2,
    /// Inception v3 (Szegedy et al., 2015).
    InceptionV3,
    /// ResNet-50 v1 (He et al., 2015).
    ResNet50V1,
    /// ResNet-101 v1 (He et al., 2015).
    ResNet101V1,
    /// ResNet-50 v2, pre-activation (He et al., 2016).
    ResNet50V2,
    /// ResNet-101 v2, pre-activation (He et al., 2016).
    ResNet101V2,
    /// VGG-16 (Simonyan & Zisserman, 2014).
    Vgg16,
    /// VGG-19 (Simonyan & Zisserman, 2014).
    Vgg19,
}

/// A row of Table 1 of the paper (reference values for comparison).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table1Row {
    /// Number of parameter tensors.
    pub params: usize,
    /// Total parameter size, MiB.
    pub param_mib: f64,
    /// TensorFlow op count, inference graph.
    pub ops_inference: usize,
    /// TensorFlow op count, training graph.
    pub ops_training: usize,
    /// Standard batch size used in the evaluation.
    pub batch_size: usize,
}

impl Model {
    /// All ten models, in Table 1 order.
    pub const ALL: [Model; 10] = [
        Model::AlexNetV2,
        Model::InceptionV1,
        Model::InceptionV2,
        Model::InceptionV3,
        Model::ResNet50V1,
        Model::ResNet101V1,
        Model::ResNet50V2,
        Model::ResNet101V2,
        Model::Vgg16,
        Model::Vgg19,
    ];

    /// The model's canonical (TF-Slim style) name.
    pub fn name(self) -> &'static str {
        match self {
            Model::AlexNetV2 => "alexnet_v2",
            Model::InceptionV1 => "inception_v1",
            Model::InceptionV2 => "inception_v2",
            Model::InceptionV3 => "inception_v3",
            Model::ResNet50V1 => "resnet_v1_50",
            Model::ResNet101V1 => "resnet_v1_101",
            Model::ResNet50V2 => "resnet_v2_50",
            Model::ResNet101V2 => "resnet_v2_101",
            Model::Vgg16 => "vgg_16",
            Model::Vgg19 => "vgg_19",
        }
    }

    /// Parses a model from its canonical name.
    pub fn from_name(name: &str) -> Option<Model> {
        Model::ALL.into_iter().find(|m| m.name() == name)
    }

    /// The standard batch size of Table 1.
    pub fn default_batch(self) -> usize {
        self.paper_row().batch_size
    }

    /// The paper's Table 1 reference values for this model.
    pub fn paper_row(self) -> Table1Row {
        let (params, param_mib, ops_inference, ops_training, batch_size) = match self {
            Model::AlexNetV2 => (16, 191.89, 235, 483, 512),
            Model::InceptionV1 => (116, 25.24, 1114, 2246, 128),
            Model::InceptionV2 => (141, 42.64, 1369, 2706, 128),
            Model::InceptionV3 => (196, 103.54, 1904, 3672, 32),
            Model::ResNet50V1 => (108, 97.39, 1114, 2096, 32),
            Model::ResNet101V1 => (210, 169.74, 2083, 3898, 64),
            Model::ResNet50V2 => (125, 97.45, 1423, 2813, 64),
            Model::ResNet101V2 => (244, 169.86, 2749, 5380, 32),
            Model::Vgg16 => (32, 527.79, 388, 758, 32),
            Model::Vgg19 => (38, 548.05, 442, 857, 32),
        };
        Table1Row {
            params,
            param_mib,
            ops_inference,
            ops_training,
            batch_size,
        }
    }

    /// Builds the model graph at the standard batch size of Table 1.
    pub fn build(self, mode: Mode) -> ModelGraph {
        self.build_with_batch(mode, self.default_batch())
    }

    /// Builds the model graph at a custom batch size (the ×0.5/×1/×2
    /// batch-scaling experiment of Fig. 10).
    pub fn build_with_batch(self, mode: Mode, batch: usize) -> ModelGraph {
        match self {
            Model::AlexNetV2 => alexnet::alexnet_v2(mode, batch),
            Model::InceptionV1 => inception::inception_v1(mode, batch),
            Model::InceptionV2 => inception::inception_v2(mode, batch),
            Model::InceptionV3 => inception::inception_v3(mode, batch),
            Model::ResNet50V1 => resnet::resnet_50_v1(mode, batch),
            Model::ResNet101V1 => resnet::resnet_101_v1(mode, batch),
            Model::ResNet50V2 => resnet::resnet_50_v2(mode, batch),
            Model::ResNet101V2 => resnet::resnet_101_v2(mode, batch),
            Model::Vgg16 => vgg::vgg_16(mode, batch),
            Model::Vgg19 => vgg::vgg_19(mode, batch),
        }
    }
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A tiny two-layer MLP — handy for fast tests and the quickstart example.
pub fn tiny_mlp(mode: Mode, batch: usize) -> ModelGraph {
    let mut n = NetBuilder::new("tiny_mlp", batch);
    let x = n.input(1, 1, 64);
    let h = n.fc_relu(x, "fc1", 128);
    let logits = n.fc(h, "fc2", 10);
    let out = n.softmax(logits, "predictions");
    n.finish(mode, out, &[])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_models_build_in_both_modes() {
        for model in Model::ALL {
            // Use a small batch: only shapes/op counts matter here.
            let inf = model.build_with_batch(Mode::Inference, 2);
            let tr = model.build_with_batch(Mode::Training, 2);
            assert!(!inf.is_training(), "{model}");
            assert!(tr.is_training(), "{model}");
            assert!(tr.stats().ops > inf.stats().ops, "{model}");
            // Same parameters in both modes.
            assert_eq!(inf.params().len(), tr.params().len(), "{model}");
        }
    }

    #[test]
    fn param_counts_match_table_1_exactly() {
        for model in Model::ALL {
            let built = model.build_with_batch(Mode::Inference, 2);
            assert_eq!(
                built.params().len(),
                model.paper_row().params,
                "{model} parameter count"
            );
        }
    }

    #[test]
    fn param_sizes_match_table_1_within_tolerance() {
        for model in Model::ALL {
            let built = model.build_with_batch(Mode::Inference, 2);
            let got = built.stats().param_mib();
            let want = model.paper_row().param_mib;
            let rel = (got - want).abs() / want;
            assert!(
                rel < 0.15,
                "{model}: {got:.2} MiB vs paper {want:.2} ({:.1}% off)",
                rel * 100.0
            );
        }
    }

    #[test]
    fn names_round_trip() {
        for model in Model::ALL {
            assert_eq!(Model::from_name(model.name()), Some(model));
        }
        assert_eq!(Model::from_name("nope"), None);
    }

    #[test]
    fn default_batches_match_table_1() {
        assert_eq!(Model::AlexNetV2.default_batch(), 512);
        assert_eq!(Model::InceptionV3.default_batch(), 32);
        assert_eq!(Model::ResNet101V1.default_batch(), 64);
    }

    #[test]
    fn tiny_mlp_is_tiny() {
        let m = tiny_mlp(Mode::Training, 8);
        assert_eq!(m.params().len(), 4);
        assert!(m.stats().ops < 20);
    }

    #[test]
    fn batch_scaling_changes_flops_not_params() {
        let small = Model::Vgg16.build_with_batch(Mode::Inference, 16);
        let large = Model::Vgg16.build_with_batch(Mode::Inference, 32);
        assert_eq!(small.stats().param_bytes, large.stats().param_bytes);
        assert!(large.stats().flops > 1.9 * small.stats().flops);
    }
}

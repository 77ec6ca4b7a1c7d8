//! VGG-16 and VGG-19 (Simonyan & Zisserman, 2014), TF-Slim layout.
//!
//! Conv layers + 3 fully-connected layers, each with weights and bias:
//! 32 parameters / ≈527.8 MiB (VGG-16) and 38 / ≈548.1 MiB (VGG-19),
//! matching Table 1.

use super::layers::{Mode, NetBuilder, Norm, Padding, Tensor};
use crate::ModelGraph;

/// Builds VGG-16 (13 convs: 2-2-3-3-3).
pub(crate) fn vgg_16(mode: Mode, batch: usize) -> ModelGraph {
    vgg(mode, batch, "vgg_16", &[2, 2, 3, 3, 3])
}

/// Builds VGG-19 (16 convs: 2-2-4-4-4).
pub(crate) fn vgg_19(mode: Mode, batch: usize) -> ModelGraph {
    vgg(mode, batch, "vgg_19", &[2, 2, 4, 4, 4])
}

fn vgg(mode: Mode, batch: usize, name: &str, convs_per_stage: &[usize]) -> ModelGraph {
    let widths = [64, 128, 256, 512, 512];
    let mut n = NetBuilder::new(name, batch);
    let mut t = n.input(224, 224, 3);
    for (stage, (&reps, &width)) in convs_per_stage.iter().zip(&widths).enumerate() {
        for i in 0..reps {
            t = n.conv(
                t,
                &format!("conv{}/conv{}_{}", stage + 1, stage + 1, i + 1),
                3,
                1,
                width,
                Norm::Bias,
                Padding::Same,
            );
        }
        t = n.max_pool(t, &format!("pool{}", stage + 1), 2, 2, Padding::Valid);
    }
    t = fc_relu(&mut n, t, "fc6", 4096);
    t = fc_relu(&mut n, t, "fc7", 4096);
    let logits = n.fc(t, "fc8", 1000);
    let out = n.softmax(logits, "predictions");
    n.finish(mode, out, &[])
}

fn fc_relu(n: &mut NetBuilder, t: Tensor, name: &str, width: usize) -> Tensor {
    let fc = n.fc(t, name, width);
    n.relu(fc, &format!("{name}/relu"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vgg16_matches_table_1() {
        let m = vgg_16(Mode::Inference, 32);
        let s = m.stats();
        assert_eq!(s.params, 32); // Table 1
        let mib = s.param_mib();
        assert!(
            (mib - 527.79).abs() / 527.79 < 0.03,
            "VGG-16 size {mib:.2} MiB vs paper 527.79"
        );
    }

    #[test]
    fn vgg19_matches_table_1() {
        let m = vgg_19(Mode::Inference, 32);
        let s = m.stats();
        assert_eq!(s.params, 38);
        let mib = s.param_mib();
        assert!(
            (mib - 548.05).abs() / 548.05 < 0.03,
            "VGG-19 size {mib:.2} MiB vs paper 548.05"
        );
    }

    #[test]
    fn vgg16_forward_flops_are_realistic() {
        // ~31 GFLOPs (2x 15.5 GMACs) per image.
        let gf = vgg_16(Mode::Inference, 1).stats().flops / 1e9;
        assert!((25.0..40.0).contains(&gf), "VGG-16 forward GFLOPs {gf}");
    }

    #[test]
    fn vgg19_is_deeper_than_vgg16() {
        let o16 = vgg_16(Mode::Inference, 32).stats().ops;
        let o19 = vgg_19(Mode::Inference, 32).stats().ops;
        assert!(o19 > o16);
    }
}

//! ResNet-50/101, v1 (He et al. 2015) and v2 pre-activation (He et al.
//! 2016), bottleneck variants in TF-Slim layout.
//!
//! Parameter counting scheme (weights + one fused `[2,c]` BN tensor per
//! conv, weights+bias for the final FC) reproduces Table 1 exactly:
//! ResNet-50 v1 = 108 params, ResNet-101 v1 = 210, ResNet-50 v2 = 125
//! (per-block pre-activation BN + final post-norm BN), ResNet-101 v2 = 244.

use super::layers::{Mode, NetBuilder, Norm, Padding, Tensor};
use crate::ModelGraph;

/// Which ResNet formulation to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ResNetVersion {
    /// Original post-activation residual units.
    V1,
    /// Pre-activation residual units with a final post-norm.
    V2,
}

/// Builds ResNet-50 v1 (blocks 3-4-6-3).
pub(crate) fn resnet_50_v1(mode: Mode, batch: usize) -> ModelGraph {
    resnet("resnet_v1_50", mode, batch, [3, 4, 6, 3], ResNetVersion::V1)
}

/// Builds ResNet-101 v1 (blocks 3-4-23-3).
pub(crate) fn resnet_101_v1(mode: Mode, batch: usize) -> ModelGraph {
    resnet(
        "resnet_v1_101",
        mode,
        batch,
        [3, 4, 23, 3],
        ResNetVersion::V1,
    )
}

/// Builds ResNet-50 v2 (blocks 3-4-6-3, pre-activation).
pub(crate) fn resnet_50_v2(mode: Mode, batch: usize) -> ModelGraph {
    resnet("resnet_v2_50", mode, batch, [3, 4, 6, 3], ResNetVersion::V2)
}

/// Builds ResNet-101 v2 (blocks 3-4-23-3, pre-activation).
pub(crate) fn resnet_101_v2(mode: Mode, batch: usize) -> ModelGraph {
    resnet(
        "resnet_v2_101",
        mode,
        batch,
        [3, 4, 23, 3],
        ResNetVersion::V2,
    )
}

fn resnet(
    name: &str,
    mode: Mode,
    batch: usize,
    blocks: [usize; 4],
    version: ResNetVersion,
) -> ModelGraph {
    let mut n = NetBuilder::new(name, batch);
    let x = n.input(224, 224, 3);
    let mut t = n.conv(x, "conv1", 7, 2, 64, Norm::FusedBn, Padding::Same);
    t = n.max_pool(t, "pool1", 3, 2, Padding::Same);

    let base_widths = [64usize, 128, 256, 512];
    for (stage, (&reps, &base)) in blocks.iter().zip(&base_widths).enumerate() {
        for unit in 0..reps {
            let stride = if stage > 0 && unit == 0 { 2 } else { 1 };
            let scope = format!("block{}/unit_{}", stage + 1, unit + 1);
            t = bottleneck(&mut n, t, &scope, base, stride, unit == 0, version);
        }
    }
    if version == ResNetVersion::V2 {
        t = n.bn_relu(t, "postnorm");
    }
    t = n.global_avg_pool(t, "pool5");
    let logits = n.fc(t, "logits", 1000);
    let out = n.softmax(logits, "predictions");
    n.finish(mode, out, &[])
}

/// A bottleneck residual unit: 1x1 reduce, 3x3, 1x1 expand (4x), with a
/// projection shortcut on the first unit of each stage.
fn bottleneck(
    n: &mut NetBuilder,
    input: Tensor,
    scope: &str,
    base: usize,
    stride: usize,
    project: bool,
    version: ResNetVersion,
) -> Tensor {
    let out_c = base * 4;
    // v2: pre-activation BN+ReLU shared by both branches.
    let preact = match version {
        ResNetVersion::V2 => n.bn_relu(input, &format!("{scope}/preact")),
        ResNetVersion::V1 => input,
    };
    let branch_in = match version {
        ResNetVersion::V2 => preact,
        ResNetVersion::V1 => input,
    };

    let shortcut = if project {
        n.conv_rect(
            branch_in,
            &format!("{scope}/shortcut"),
            (1, 1),
            stride,
            out_c,
            Norm::FusedBn,
            Padding::Same,
            false,
        )
    } else {
        input
    };

    let c1 = n.conv(
        branch_in,
        &format!("{scope}/conv1"),
        1,
        1,
        base,
        Norm::FusedBn,
        Padding::Same,
    );
    let c2 = n.conv(
        c1,
        &format!("{scope}/conv2"),
        3,
        stride,
        base,
        Norm::FusedBn,
        Padding::Same,
    );
    // Last conv: no activation before the residual add.
    let c3 = n.conv_rect(
        c2,
        &format!("{scope}/conv3"),
        (1, 1),
        1,
        out_c,
        Norm::FusedBn,
        Padding::Same,
        false,
    );
    let sum = n.add(shortcut, c3, &format!("{scope}/add"));
    match version {
        ResNetVersion::V1 => n.relu(sum, &format!("{scope}/relu")),
        ResNetVersion::V2 => sum,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(m: &ModelGraph, params: usize, mib: f64) {
        let s = m.stats();
        assert_eq!(s.params, params, "{} param count", m.name());
        let got = s.param_mib();
        assert!(
            (got - mib).abs() / mib < 0.06,
            "{} size {got:.2} MiB vs paper {mib}",
            m.name()
        );
    }

    #[test]
    fn resnet50_v1_matches_table_1() {
        check(&resnet_50_v1(Mode::Inference, 32), 108, 97.39);
    }

    #[test]
    fn resnet101_v1_matches_table_1() {
        check(&resnet_101_v1(Mode::Inference, 64), 210, 169.74);
    }

    #[test]
    fn resnet50_v2_matches_table_1() {
        check(&resnet_50_v2(Mode::Inference, 64), 125, 97.45);
    }

    #[test]
    fn resnet101_v2_matches_table_1() {
        check(&resnet_101_v2(Mode::Inference, 32), 244, 169.86);
    }

    #[test]
    fn resnet50_forward_flops_are_realistic() {
        // ~8 GFLOPs (2x ~4 GMACs) per image.
        let gf = resnet_50_v1(Mode::Inference, 1).stats().flops / 1e9;
        assert!((5.0..13.0).contains(&gf), "ResNet-50 forward GFLOPs {gf}");
    }

    #[test]
    fn v2_has_more_params_but_same_weight_bytes_scale() {
        let v1 = resnet_50_v1(Mode::Inference, 32).stats();
        let v2 = resnet_50_v2(Mode::Inference, 32).stats();
        assert!(v2.params > v1.params);
        // The extra BN tensors are tiny.
        assert!((v2.param_bytes as f64 / v1.param_bytes as f64) < 1.01);
    }

    #[test]
    fn deeper_network_has_more_ops() {
        let r50 = resnet_50_v1(Mode::Training, 32).stats().ops;
        let r101 = resnet_101_v1(Mode::Training, 32).stats().ops;
        assert!(r101 > r50 + 100);
    }
}

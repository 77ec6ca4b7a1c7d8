//! Inception v1 (GoogLeNet), v2 (BN-Inception) and v3, TF-Slim layouts.
//!
//! Every "Mixed" module is one rule, built by `mixed`: branch *i* is a
//! chain of layers named `{module}/Branch_{i}/{name}`, emitted branch by
//! branch in chain order, and the branch tips are concatenated in order.
//! A chain's last step may fork into several concat inputs (v3's 8×8
//! modules). Each `Mixed_*` site states only its branch table of `Layer`
//! specs; the layer names are TF-Slim's, kept as data —
//! `Mixed_6a/Branch_0/Conv2d_1a_1x1` really is a 3×3 stride-2 conv. The
//! stems and heads are written out layer by layer.
//!
//! `zoo_fingerprints_are_pinned` (`crates/graph/tests/structure.rs`)
//! holds every zoo graph to its `ModelGraph::fingerprint`: a change here
//! that moves an op, param, name, flop count or edge fails it.
//!
//! Parameter counting (conv weights + fused `[2,c]` BN per conv, FC
//! weights+bias; v2's stem depthwise kernel is weight-only; v3 includes the
//! auxiliary classifier) reproduces Table 1: 116 / 141 / 196 parameters.

use super::layers::{Mode, NetBuilder, Norm, Padding, Tensor};
use crate::ModelGraph;
use Padding::{Same, Valid};

// ------------------------------------------------------------ modules ----

/// What a [`Layer`] emits.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Conv,
    MaxPool,
    AvgPool,
}

/// One step of a module's branch: its TF-Slim name within the branch, a
/// kernel `(kh, kw)`, a stride, an output width (pools keep their
/// input's) and a padding. A conv carries a fused batch norm and a ReLU.
#[derive(Debug, Clone, Copy)]
struct Layer {
    kind: Kind,
    name: &'static str,
    kernel: (usize, usize),
    stride: usize,
    width: usize,
    padding: Padding,
    /// One fork of the branch's last step: reads the tip of the chain
    /// before the fork and feeds the concat itself.
    fork: bool,
}

/// A stride-1 `SAME` convolution.
fn conv(name: &'static str, kernel: (usize, usize), width: usize) -> Layer {
    Layer {
        kind: Kind::Conv,
        name,
        kernel,
        stride: 1,
        width,
        padding: Same,
        fork: false,
    }
}

/// A stride-1 `SAME` max pool over a `k × k` window.
fn max_pool(name: &'static str, k: usize) -> Layer {
    Layer {
        kind: Kind::MaxPool,
        ..conv(name, (k, k), 0)
    }
}

/// A stride-1 `SAME` average pool over a `k × k` window.
fn avg_pool(name: &'static str, k: usize) -> Layer {
    Layer {
        kind: Kind::AvgPool,
        ..conv(name, (k, k), 0)
    }
}

impl Layer {
    /// The same layer at stride 2 with `padding` (the reduction modules).
    fn stride2(self, padding: Padding) -> Layer {
        Layer {
            stride: 2,
            padding,
            ..self
        }
    }

    /// The same layer as one fork of its branch's last step.
    fn fork(self) -> Layer {
        Layer { fork: true, ..self }
    }

    fn emit(self, n: &mut NetBuilder, t: Tensor, name: &str) -> Tensor {
        let (k, stride, padding) = (self.kernel, self.stride, self.padding);
        match self.kind {
            Kind::Conv => n.conv_rect(t, name, k, stride, self.width, Norm::FusedBn, padding, true),
            Kind::MaxPool => n.max_pool(t, name, k.0, stride, padding),
            Kind::AvgPool => n.avg_pool(t, name, k.0, stride, padding),
        }
    }
}

/// One "Mixed" module over `t`, scoped `module`: branch `i` chains its
/// layers, named `{module}/Branch_{i}/{name}`, from `t`, and a branch's
/// trailing forks each read the tip of the chain before them. The branch
/// tips (every fork of a forked branch) are concatenated in order as
/// `{module}/Concat`.
fn mixed(n: &mut NetBuilder, t: Tensor, module: &str, branches: &[&[Layer]]) -> Tensor {
    let mut tips = Vec::with_capacity(branches.len() + 2);
    for (i, branch) in branches.iter().enumerate() {
        let (chain, forks) =
            branch.split_at(branch.iter().position(|l| l.fork).unwrap_or(branch.len()));
        debug_assert!(forks.iter().all(|l| l.fork), "{module}: a fork mid-branch");
        let mut emit = |l: &Layer, x| l.emit(n, x, &format!("{module}/Branch_{i}/{}", l.name));
        let tip = chain.iter().fold(t, |x, l| emit(l, x));
        if forks.is_empty() {
            tips.push(tip);
        } else {
            tips.extend(forks.iter().map(|l| emit(l, tip)));
        }
    }
    n.concat(&tips, module)
}

// ---------------------------------------------------------------- v1 ----

/// Builds Inception v1 (GoogLeNet): 9 inception modules, 57 convs, one FC.
pub(crate) fn inception_v1(mode: Mode, batch: usize) -> ModelGraph {
    let mut n = NetBuilder::new("inception_v1", batch);
    let x = n.input(224, 224, 3);
    let mut t = n.conv(x, "Conv2d_1a_7x7", 7, 2, 64, Norm::FusedBn, Padding::Same);
    t = n.max_pool(t, "MaxPool_2a_3x3", 3, 2, Padding::Same);
    t = n.lrn(t, "LRN_2b");
    t = n.conv(t, "Conv2d_2b_1x1", 1, 1, 64, Norm::FusedBn, Padding::Same);
    t = n.conv(t, "Conv2d_2c_3x3", 3, 1, 192, Norm::FusedBn, Padding::Same);
    t = n.lrn(t, "LRN_2d");
    t = n.max_pool(t, "MaxPool_3a_3x3", 3, 2, Padding::Same);

    // (name, #1x1, #3x3 reduce, #3x3, #5x5 reduce, #5x5, pool proj)
    let modules: [(&str, [usize; 6]); 9] = [
        ("Mixed_3b", [64, 96, 128, 16, 32, 32]),
        ("Mixed_3c", [128, 128, 192, 32, 96, 64]),
        ("Mixed_4b", [192, 96, 208, 16, 48, 64]),
        ("Mixed_4c", [160, 112, 224, 24, 64, 64]),
        ("Mixed_4d", [128, 128, 256, 24, 64, 64]),
        ("Mixed_4e", [112, 144, 288, 32, 64, 64]),
        ("Mixed_4f", [256, 160, 320, 32, 128, 128]),
        ("Mixed_5b", [256, 160, 320, 32, 128, 128]),
        ("Mixed_5c", [384, 192, 384, 48, 128, 128]),
    ];
    for (i, (scope, [w1, w3r, w3, w5r, w5, wp])) in modules.into_iter().enumerate() {
        if i == 2 {
            t = n.max_pool(t, "MaxPool_4a_3x3", 3, 2, Padding::Same);
        }
        if i == 7 {
            t = n.max_pool(t, "MaxPool_5a_2x2", 2, 2, Padding::Same);
        }
        let branches: [&[Layer]; 4] = [
            &[conv("Conv2d_0a_1x1", (1, 1), w1)],
            &[
                conv("Conv2d_0a_1x1", (1, 1), w3r),
                conv("Conv2d_0b_3x3", (3, 3), w3),
            ],
            &[
                conv("Conv2d_0a_1x1", (1, 1), w5r),
                conv("Conv2d_0b_5x5", (5, 5), w5),
            ],
            &[
                max_pool("MaxPool_0a_3x3", 3),
                conv("Conv2d_0b_1x1", (1, 1), wp),
            ],
        ];
        t = mixed(&mut n, t, scope, &branches);
    }
    t = n.global_avg_pool(t, "AvgPool_0a");
    let logits = n.fc(t, "Logits", 1000);
    let out = n.softmax(logits, "Predictions");
    n.finish(mode, out, &[])
}

// ---------------------------------------------------------------- v2 ----

/// Builds Inception v2 (BN-Inception): separable stem, 3x3-factorized
/// modules, 141 parameters.
pub(crate) fn inception_v2(mode: Mode, batch: usize) -> ModelGraph {
    let mut n = NetBuilder::new("inception_v2", batch);
    let x = n.input(224, 224, 3);
    // Separable 7x7 stem: depthwise (weight-only) + pointwise (with BN).
    let dw = n.conv_rect(
        x,
        "Conv2d_1a_7x7/depthwise",
        (7, 7),
        2,
        24,
        Norm::None,
        Padding::Same,
        false,
    );
    let mut t = n.conv_rect(
        dw,
        "Conv2d_1a_7x7/pointwise",
        (1, 1),
        1,
        64,
        Norm::FusedBn,
        Padding::Same,
        true,
    );
    t = n.max_pool(t, "MaxPool_2a_3x3", 3, 2, Padding::Same);
    t = n.conv(t, "Conv2d_2b_1x1", 1, 1, 64, Norm::FusedBn, Padding::Same);
    t = n.conv(t, "Conv2d_2c_3x3", 3, 1, 192, Norm::FusedBn, Padding::Same);
    t = n.max_pool(t, "MaxPool_3a_3x3", 3, 2, Padding::Same);

    // (name, #1x1, #3x3 reduce, #3x3, #double-3x3 reduce, #double 3x3, pool proj)
    let modules: [(&str, [usize; 6]); 8] = [
        ("Mixed_3b", [64, 64, 64, 64, 96, 32]),
        ("Mixed_3c", [64, 64, 96, 64, 96, 64]),
        ("Mixed_4b", [224, 64, 96, 96, 128, 128]),
        ("Mixed_4c", [192, 96, 128, 96, 128, 128]),
        ("Mixed_4d", [160, 128, 160, 128, 160, 96]),
        ("Mixed_4e", [96, 128, 192, 160, 192, 96]),
        ("Mixed_5b", [352, 192, 320, 160, 224, 128]),
        ("Mixed_5c", [352, 192, 320, 192, 224, 128]),
    ];
    for (scope, [w1, w3r, w3, d3r, d3, wp]) in modules {
        // A stride-2 reduction opens stages 4 and 5:
        // (name, #3x3 reduce, #3x3, #double-3x3 reduce, #double 3x3).
        let reduction = match scope {
            "Mixed_4b" => Some(("Mixed_4a", [128, 160, 64, 96])),
            "Mixed_5b" => Some(("Mixed_5a", [128, 192, 192, 256])),
            _ => None,
        };
        if let Some((scope, [w3r, w3, d3r, d3])) = reduction {
            let branches: [&[Layer]; 3] = [
                &[
                    conv("Conv2d_0a_1x1", (1, 1), w3r),
                    conv("Conv2d_1a_3x3", (3, 3), w3).stride2(Same),
                ],
                &[
                    conv("Conv2d_0a_1x1", (1, 1), d3r),
                    conv("Conv2d_0b_3x3", (3, 3), d3),
                    conv("Conv2d_1a_3x3", (3, 3), d3).stride2(Same),
                ],
                &[max_pool("MaxPool_1a_3x3", 3).stride2(Same)],
            ];
            t = mixed(&mut n, t, scope, &branches);
        }
        let branches: [&[Layer]; 4] = [
            &[conv("Conv2d_0a_1x1", (1, 1), w1)],
            &[
                conv("Conv2d_0a_1x1", (1, 1), w3r),
                conv("Conv2d_0b_3x3", (3, 3), w3),
            ],
            &[
                conv("Conv2d_0a_1x1", (1, 1), d3r),
                conv("Conv2d_0b_3x3", (3, 3), d3),
                conv("Conv2d_0c_3x3", (3, 3), d3),
            ],
            &[
                avg_pool("AvgPool_0a_3x3", 3),
                conv("Conv2d_0b_1x1", (1, 1), wp),
            ],
        ];
        t = mixed(&mut n, t, scope, &branches);
    }

    t = n.global_avg_pool(t, "AvgPool_1a");
    let logits = n.fc(t, "Logits", 1000);
    let out = n.softmax(logits, "Predictions");
    n.finish(mode, out, &[])
}

// ---------------------------------------------------------------- v3 ----

/// Builds Inception v3 with the auxiliary classifier: 94 main convs, a
/// 2-conv aux head, two FC heads — 196 parameters.
pub(crate) fn inception_v3(mode: Mode, batch: usize) -> ModelGraph {
    let mut n = NetBuilder::new("inception_v3", batch);
    let x = n.input(299, 299, 3);
    let mut t = n.conv(x, "Conv2d_1a_3x3", 3, 2, 32, Norm::FusedBn, Padding::Valid);
    t = n.conv(t, "Conv2d_2a_3x3", 3, 1, 32, Norm::FusedBn, Padding::Valid);
    t = n.conv(t, "Conv2d_2b_3x3", 3, 1, 64, Norm::FusedBn, Padding::Same);
    t = n.max_pool(t, "MaxPool_3a_3x3", 3, 2, Padding::Valid);
    t = n.conv(t, "Conv2d_3b_1x1", 1, 1, 80, Norm::FusedBn, Padding::Valid);
    t = n.conv(t, "Conv2d_4a_3x3", 3, 1, 192, Norm::FusedBn, Padding::Valid);
    t = n.max_pool(t, "MaxPool_5a_3x3", 3, 2, Padding::Valid);

    // 35x35 modules: 1x1 / 1x1→5x5 / 1x1→3x3→3x3 / pool→1x1 (pool proj).
    for (scope, wp) in [("Mixed_5b", 32), ("Mixed_5c", 64), ("Mixed_5d", 64)] {
        let branches: [&[Layer]; 4] = [
            &[conv("Conv2d_0a_1x1", (1, 1), 64)],
            &[
                conv("Conv2d_0a_1x1", (1, 1), 48),
                conv("Conv2d_0b_5x5", (5, 5), 64),
            ],
            &[
                conv("Conv2d_0a_1x1", (1, 1), 64),
                conv("Conv2d_0b_3x3", (3, 3), 96),
                conv("Conv2d_0c_3x3", (3, 3), 96),
            ],
            &[
                avg_pool("AvgPool_0a_3x3", 3),
                conv("Conv2d_0b_1x1", (1, 1), wp),
            ],
        ];
        t = mixed(&mut n, t, scope, &branches);
    }
    // Reduction 35→17: 3x3/2 / 1x1→3x3→3x3/2 / pool.
    let branches: [&[Layer]; 3] = [
        &[conv("Conv2d_1a_1x1", (3, 3), 384).stride2(Valid)],
        &[
            conv("Conv2d_0a_1x1", (1, 1), 64),
            conv("Conv2d_0b_3x3", (3, 3), 96),
            conv("Conv2d_1a_1x1", (3, 3), 96).stride2(Valid),
        ],
        &[max_pool("MaxPool_1a_3x3", 3).stride2(Valid)],
    ];
    t = mixed(&mut n, t, "Mixed_6a", &branches);
    // 17x17 modules with factorized 7x7: 1x1 / 1x1→1x7→7x1 /
    // 1x1→7x1→1x7→7x1→1x7 / pool→1x1 (inner width w).
    for (scope, w) in [
        ("Mixed_6b", 128),
        ("Mixed_6c", 160),
        ("Mixed_6d", 160),
        ("Mixed_6e", 192),
    ] {
        let branches: [&[Layer]; 4] = [
            &[conv("Conv2d_0a_1x1", (1, 1), 192)],
            &[
                conv("Conv2d_0a_1x1", (1, 1), w),
                conv("Conv2d_0b_1x7", (1, 7), w),
                conv("Conv2d_0c_7x1", (7, 1), 192),
            ],
            &[
                conv("Conv2d_0a_1x1", (1, 1), w),
                conv("Conv2d_0b_7x1", (7, 1), w),
                conv("Conv2d_0c_1x7", (1, 7), w),
                conv("Conv2d_0d_7x1", (7, 1), w),
                conv("Conv2d_0e_1x7", (1, 7), 192),
            ],
            &[
                avg_pool("AvgPool_0a_3x3", 3),
                conv("Conv2d_0b_1x1", (1, 1), 192),
            ],
        ];
        t = mixed(&mut n, t, scope, &branches);
    }

    // Auxiliary head hangs off Mixed_6e.
    let mut aux = n.avg_pool(t, "AuxLogits/AvgPool_1a_5x5", 5, 3, Padding::Valid);
    aux = n.conv(
        aux,
        "AuxLogits/Conv2d_1b_1x1",
        1,
        1,
        128,
        Norm::FusedBn,
        Padding::Same,
    );
    aux = n.conv_rect(
        aux,
        "AuxLogits/Conv2d_2a_5x5",
        (5, 5),
        1,
        768,
        Norm::FusedBn,
        Padding::Valid,
        true,
    );
    let aux_logits = n.fc(aux, "AuxLogits/Logits", 1000);

    // Reduction 17→8: 1x1→3x3/2 / 1x1→1x7→7x1→3x3/2 / pool.
    let branches: [&[Layer]; 3] = [
        &[
            conv("Conv2d_0a_1x1", (1, 1), 192),
            conv("Conv2d_1a_3x3", (3, 3), 320).stride2(Valid),
        ],
        &[
            conv("Conv2d_0a_1x1", (1, 1), 192),
            conv("Conv2d_0b_1x7", (1, 7), 192),
            conv("Conv2d_0c_7x1", (7, 1), 192),
            conv("Conv2d_1a_3x3", (3, 3), 192).stride2(Valid),
        ],
        &[max_pool("MaxPool_1a_3x3", 3).stride2(Valid)],
    ];
    t = mixed(&mut n, t, "Mixed_7a", &branches);
    // 8x8 modules with forked branches: 1x1 / 1x1→{1x3, 3x1} /
    // 1x1→3x3→{1x3, 3x1} / pool→1x1.
    for scope in ["Mixed_7b", "Mixed_7c"] {
        let branches: [&[Layer]; 4] = [
            &[conv("Conv2d_0a_1x1", (1, 1), 320)],
            &[
                conv("Conv2d_0a_1x1", (1, 1), 384),
                conv("Conv2d_0b_1x3", (1, 3), 384).fork(),
                conv("Conv2d_0c_3x1", (3, 1), 384).fork(),
            ],
            &[
                conv("Conv2d_0a_1x1", (1, 1), 448),
                conv("Conv2d_0b_3x3", (3, 3), 384),
                conv("Conv2d_0c_1x3", (1, 3), 384).fork(),
                conv("Conv2d_0d_3x1", (3, 1), 384).fork(),
            ],
            &[
                avg_pool("AvgPool_0a_3x3", 3),
                conv("Conv2d_0b_1x1", (1, 1), 192),
            ],
        ];
        t = mixed(&mut n, t, scope, &branches);
    }

    t = n.global_avg_pool(t, "AvgPool_1a");
    let logits = n.fc(t, "Logits", 1000);
    let out = n.softmax(logits, "Predictions");
    n.finish(mode, out, &[aux_logits])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inception_v1_matches_table_1() {
        let s = inception_v1(Mode::Inference, 128).stats();
        assert_eq!(s.params, 116);
        let mib = s.param_mib();
        assert!(
            (mib - 25.24).abs() / 25.24 < 0.10,
            "Inception v1 size {mib:.2} MiB vs paper 25.24"
        );
    }

    #[test]
    fn inception_v2_matches_table_1() {
        let s = inception_v2(Mode::Inference, 128).stats();
        assert_eq!(s.params, 141);
        let mib = s.param_mib();
        assert!(
            (mib - 42.64).abs() / 42.64 < 0.15,
            "Inception v2 size {mib:.2} MiB vs paper 42.64"
        );
    }

    #[test]
    fn inception_v3_matches_table_1() {
        let s = inception_v3(Mode::Inference, 32).stats();
        assert_eq!(s.params, 196);
        let mib = s.param_mib();
        assert!(
            (mib - 103.54).abs() / 103.54 < 0.10,
            "Inception v3 size {mib:.2} MiB vs paper 103.54"
        );
    }

    #[test]
    fn v3_is_larger_and_deeper_than_v1() {
        let s1 = inception_v1(Mode::Inference, 32).stats();
        let s3 = inception_v3(Mode::Inference, 32).stats();
        assert!(s3.ops > s1.ops);
        assert!(s3.param_bytes > s1.param_bytes);
    }

    #[test]
    fn training_graphs_are_buildable_for_all_variants() {
        for m in [
            inception_v1(Mode::Training, 8),
            inception_v2(Mode::Training, 8),
            inception_v3(Mode::Training, 8),
        ] {
            assert!(m.is_training());
            // Every param has a gradient producer.
            for i in 0..m.params().len() {
                let pid = crate::ParamId::from_index(i);
                assert!(
                    m.ops().iter().any(|o| o.produces_grads().contains(&pid)),
                    "{} param {} has no gradient",
                    m.name(),
                    m.param(pid).name()
                );
            }
        }
    }
}

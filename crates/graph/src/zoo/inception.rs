//! Inception v1 (GoogLeNet), v2 (BN-Inception) and v3, TF-Slim layouts.
//!
//! Parameter counting (conv weights + fused `[2,c]` BN per conv, FC
//! weights+bias; v2's stem depthwise kernel is weight-only; v3 includes the
//! auxiliary classifier) reproduces Table 1: 116 / 141 / 196 parameters.

use super::layers::{Mode, NetBuilder, Norm, Padding, Tensor};
use crate::ModelGraph;

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
    for (i, (name, w)) in modules.iter().enumerate() {
        if i == 2 {
            t = n.max_pool(t, "MaxPool_4a_3x3", 3, 2, Padding::Same);
        }
        if i == 7 {
            t = n.max_pool(t, "MaxPool_5a_2x2", 2, 2, Padding::Same);
        }
        t = inception_v1_module(&mut n, t, name, *w);
    }
    t = n.global_avg_pool(t, "AvgPool_0a");
    let logits = n.fc(t, "Logits", 1000);
    let out = n.softmax(logits, "Predictions");
    n.finish(mode, out, &[])
}

fn inception_v1_module(n: &mut NetBuilder, t: Tensor, scope: &str, w: [usize; 6]) -> Tensor {
    let [w1, w3r, w3, w5r, w5, wp] = w;
    let b0 = n.conv(
        t,
        &format!("{scope}/Branch_0/Conv2d_0a_1x1"),
        1,
        1,
        w1,
        Norm::FusedBn,
        Padding::Same,
    );
    let b1a = n.conv(
        t,
        &format!("{scope}/Branch_1/Conv2d_0a_1x1"),
        1,
        1,
        w3r,
        Norm::FusedBn,
        Padding::Same,
    );
    let b1 = n.conv(
        b1a,
        &format!("{scope}/Branch_1/Conv2d_0b_3x3"),
        3,
        1,
        w3,
        Norm::FusedBn,
        Padding::Same,
    );
    let b2a = n.conv(
        t,
        &format!("{scope}/Branch_2/Conv2d_0a_1x1"),
        1,
        1,
        w5r,
        Norm::FusedBn,
        Padding::Same,
    );
    let b2 = n.conv(
        b2a,
        &format!("{scope}/Branch_2/Conv2d_0b_5x5"),
        5,
        1,
        w5,
        Norm::FusedBn,
        Padding::Same,
    );
    let b3a = n.max_pool(
        t,
        &format!("{scope}/Branch_3/MaxPool_0a_3x3"),
        3,
        1,
        Padding::Same,
    );
    let b3 = n.conv(
        b3a,
        &format!("{scope}/Branch_3/Conv2d_0b_1x1"),
        1,
        1,
        wp,
        Norm::FusedBn,
        Padding::Same,
    );
    n.concat(&[b0, b1, b2, b3], scope)
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

    // Standard module: (1x1, 3x3r, 3x3, d3x3r, d3x3, pool-proj).
    t = inception_v2_module(&mut n, t, "Mixed_3b", [64, 64, 64, 64, 96, 32]);
    t = inception_v2_module(&mut n, t, "Mixed_3c", [64, 64, 96, 64, 96, 64]);
    t = inception_v2_reduction(&mut n, t, "Mixed_4a", [128, 160, 64, 96]);
    t = inception_v2_module(&mut n, t, "Mixed_4b", [224, 64, 96, 96, 128, 128]);
    t = inception_v2_module(&mut n, t, "Mixed_4c", [192, 96, 128, 96, 128, 128]);
    t = inception_v2_module(&mut n, t, "Mixed_4d", [160, 128, 160, 128, 160, 96]);
    t = inception_v2_module(&mut n, t, "Mixed_4e", [96, 128, 192, 160, 192, 96]);
    t = inception_v2_reduction(&mut n, t, "Mixed_5a", [128, 192, 192, 256]);
    t = inception_v2_module(&mut n, t, "Mixed_5b", [352, 192, 320, 160, 224, 128]);
    t = inception_v2_module(&mut n, t, "Mixed_5c", [352, 192, 320, 192, 224, 128]);

    t = n.global_avg_pool(t, "AvgPool_1a");
    let logits = n.fc(t, "Logits", 1000);
    let out = n.softmax(logits, "Predictions");
    n.finish(mode, out, &[])
}

fn inception_v2_module(n: &mut NetBuilder, t: Tensor, scope: &str, w: [usize; 6]) -> Tensor {
    let [w1, w3r, w3, d3r, d3, wp] = w;
    let b0 = n.conv(
        t,
        &format!("{scope}/Branch_0/Conv2d_0a_1x1"),
        1,
        1,
        w1,
        Norm::FusedBn,
        Padding::Same,
    );
    let b1a = n.conv(
        t,
        &format!("{scope}/Branch_1/Conv2d_0a_1x1"),
        1,
        1,
        w3r,
        Norm::FusedBn,
        Padding::Same,
    );
    let b1 = n.conv(
        b1a,
        &format!("{scope}/Branch_1/Conv2d_0b_3x3"),
        3,
        1,
        w3,
        Norm::FusedBn,
        Padding::Same,
    );
    let b2a = n.conv(
        t,
        &format!("{scope}/Branch_2/Conv2d_0a_1x1"),
        1,
        1,
        d3r,
        Norm::FusedBn,
        Padding::Same,
    );
    let b2b = n.conv(
        b2a,
        &format!("{scope}/Branch_2/Conv2d_0b_3x3"),
        3,
        1,
        d3,
        Norm::FusedBn,
        Padding::Same,
    );
    let b2 = n.conv(
        b2b,
        &format!("{scope}/Branch_2/Conv2d_0c_3x3"),
        3,
        1,
        d3,
        Norm::FusedBn,
        Padding::Same,
    );
    let b3a = n.avg_pool(
        t,
        &format!("{scope}/Branch_3/AvgPool_0a_3x3"),
        3,
        1,
        Padding::Same,
    );
    let b3 = n.conv(
        b3a,
        &format!("{scope}/Branch_3/Conv2d_0b_1x1"),
        1,
        1,
        wp,
        Norm::FusedBn,
        Padding::Same,
    );
    n.concat(&[b0, b1, b2, b3], scope)
}

/// Stride-2 reduction module: two conv branches + a pooling branch.
fn inception_v2_reduction(n: &mut NetBuilder, t: Tensor, scope: &str, w: [usize; 4]) -> Tensor {
    let [w3r, w3, d3r, d3] = w;
    let b0a = n.conv(
        t,
        &format!("{scope}/Branch_0/Conv2d_0a_1x1"),
        1,
        1,
        w3r,
        Norm::FusedBn,
        Padding::Same,
    );
    let b0 = n.conv(
        b0a,
        &format!("{scope}/Branch_0/Conv2d_1a_3x3"),
        3,
        2,
        w3,
        Norm::FusedBn,
        Padding::Same,
    );
    let b1a = n.conv(
        t,
        &format!("{scope}/Branch_1/Conv2d_0a_1x1"),
        1,
        1,
        d3r,
        Norm::FusedBn,
        Padding::Same,
    );
    let b1b = n.conv(
        b1a,
        &format!("{scope}/Branch_1/Conv2d_0b_3x3"),
        3,
        1,
        d3,
        Norm::FusedBn,
        Padding::Same,
    );
    let b1 = n.conv(
        b1b,
        &format!("{scope}/Branch_1/Conv2d_1a_3x3"),
        3,
        2,
        d3,
        Norm::FusedBn,
        Padding::Same,
    );
    let b2 = n.max_pool(
        t,
        &format!("{scope}/Branch_2/MaxPool_1a_3x3"),
        3,
        2,
        Padding::Same,
    );
    n.concat(&[b0, b1, b2], scope)
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

    // 35x35 modules.
    t = v3_module_a(&mut n, t, "Mixed_5b", 32);
    t = v3_module_a(&mut n, t, "Mixed_5c", 64);
    t = v3_module_a(&mut n, t, "Mixed_5d", 64);
    // Reduction to 17x17.
    t = v3_reduction_a(&mut n, t, "Mixed_6a");
    // 17x17 factorized-7 modules.
    t = v3_module_b(&mut n, t, "Mixed_6b", 128);
    t = v3_module_b(&mut n, t, "Mixed_6c", 160);
    t = v3_module_b(&mut n, t, "Mixed_6d", 160);
    t = v3_module_b(&mut n, t, "Mixed_6e", 192);

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

    // Reduction to 8x8.
    t = v3_reduction_b(&mut n, t, "Mixed_7a");
    // 8x8 modules.
    t = v3_module_c(&mut n, t, "Mixed_7b");
    t = v3_module_c(&mut n, t, "Mixed_7c");

    t = n.global_avg_pool(t, "AvgPool_1a");
    let logits = n.fc(t, "Logits", 1000);
    let out = n.softmax(logits, "Predictions");
    n.finish(mode, out, &[aux_logits])
}

/// 35x35 module: 1x1 / 1x1→5x5 / 1x1→3x3→3x3 / pool→1x1.
fn v3_module_a(n: &mut NetBuilder, t: Tensor, scope: &str, pool_proj: usize) -> Tensor {
    let b0 = n.conv(
        t,
        &format!("{scope}/Branch_0/Conv2d_0a_1x1"),
        1,
        1,
        64,
        Norm::FusedBn,
        Padding::Same,
    );
    let b1a = n.conv(
        t,
        &format!("{scope}/Branch_1/Conv2d_0a_1x1"),
        1,
        1,
        48,
        Norm::FusedBn,
        Padding::Same,
    );
    let b1 = n.conv(
        b1a,
        &format!("{scope}/Branch_1/Conv2d_0b_5x5"),
        5,
        1,
        64,
        Norm::FusedBn,
        Padding::Same,
    );
    let b2a = n.conv(
        t,
        &format!("{scope}/Branch_2/Conv2d_0a_1x1"),
        1,
        1,
        64,
        Norm::FusedBn,
        Padding::Same,
    );
    let b2b = n.conv(
        b2a,
        &format!("{scope}/Branch_2/Conv2d_0b_3x3"),
        3,
        1,
        96,
        Norm::FusedBn,
        Padding::Same,
    );
    let b2 = n.conv(
        b2b,
        &format!("{scope}/Branch_2/Conv2d_0c_3x3"),
        3,
        1,
        96,
        Norm::FusedBn,
        Padding::Same,
    );
    let b3a = n.avg_pool(
        t,
        &format!("{scope}/Branch_3/AvgPool_0a_3x3"),
        3,
        1,
        Padding::Same,
    );
    let b3 = n.conv(
        b3a,
        &format!("{scope}/Branch_3/Conv2d_0b_1x1"),
        1,
        1,
        pool_proj,
        Norm::FusedBn,
        Padding::Same,
    );
    n.concat(&[b0, b1, b2, b3], scope)
}

/// Reduction 35→17: 3x3/2 / 1x1→3x3→3x3/2 / pool.
fn v3_reduction_a(n: &mut NetBuilder, t: Tensor, scope: &str) -> Tensor {
    let b0 = n.conv(
        t,
        &format!("{scope}/Branch_0/Conv2d_1a_1x1"),
        3,
        2,
        384,
        Norm::FusedBn,
        Padding::Valid,
    );
    let b1a = n.conv(
        t,
        &format!("{scope}/Branch_1/Conv2d_0a_1x1"),
        1,
        1,
        64,
        Norm::FusedBn,
        Padding::Same,
    );
    let b1b = n.conv(
        b1a,
        &format!("{scope}/Branch_1/Conv2d_0b_3x3"),
        3,
        1,
        96,
        Norm::FusedBn,
        Padding::Same,
    );
    let b1 = n.conv(
        b1b,
        &format!("{scope}/Branch_1/Conv2d_1a_1x1"),
        3,
        2,
        96,
        Norm::FusedBn,
        Padding::Valid,
    );
    let b2 = n.max_pool(
        t,
        &format!("{scope}/Branch_2/MaxPool_1a_3x3"),
        3,
        2,
        Padding::Valid,
    );
    n.concat(&[b0, b1, b2], scope)
}

/// 17x17 module with factorized 7x7: 1x1 / 1x1→1x7→7x1 /
/// 1x1→7x1→1x7→7x1→1x7 / pool→1x1.
fn v3_module_b(n: &mut NetBuilder, t: Tensor, scope: &str, width: usize) -> Tensor {
    let w = width;
    let b0 = n.conv(
        t,
        &format!("{scope}/Branch_0/Conv2d_0a_1x1"),
        1,
        1,
        192,
        Norm::FusedBn,
        Padding::Same,
    );
    let b1a = n.conv(
        t,
        &format!("{scope}/Branch_1/Conv2d_0a_1x1"),
        1,
        1,
        w,
        Norm::FusedBn,
        Padding::Same,
    );
    let b1b = n.conv_rect(
        b1a,
        &format!("{scope}/Branch_1/Conv2d_0b_1x7"),
        (1, 7),
        1,
        w,
        Norm::FusedBn,
        Padding::Same,
        true,
    );
    let b1 = n.conv_rect(
        b1b,
        &format!("{scope}/Branch_1/Conv2d_0c_7x1"),
        (7, 1),
        1,
        192,
        Norm::FusedBn,
        Padding::Same,
        true,
    );
    let b2a = n.conv(
        t,
        &format!("{scope}/Branch_2/Conv2d_0a_1x1"),
        1,
        1,
        w,
        Norm::FusedBn,
        Padding::Same,
    );
    let b2b = n.conv_rect(
        b2a,
        &format!("{scope}/Branch_2/Conv2d_0b_7x1"),
        (7, 1),
        1,
        w,
        Norm::FusedBn,
        Padding::Same,
        true,
    );
    let b2c = n.conv_rect(
        b2b,
        &format!("{scope}/Branch_2/Conv2d_0c_1x7"),
        (1, 7),
        1,
        w,
        Norm::FusedBn,
        Padding::Same,
        true,
    );
    let b2d = n.conv_rect(
        b2c,
        &format!("{scope}/Branch_2/Conv2d_0d_7x1"),
        (7, 1),
        1,
        w,
        Norm::FusedBn,
        Padding::Same,
        true,
    );
    let b2 = n.conv_rect(
        b2d,
        &format!("{scope}/Branch_2/Conv2d_0e_1x7"),
        (1, 7),
        1,
        192,
        Norm::FusedBn,
        Padding::Same,
        true,
    );
    let b3a = n.avg_pool(
        t,
        &format!("{scope}/Branch_3/AvgPool_0a_3x3"),
        3,
        1,
        Padding::Same,
    );
    let b3 = n.conv(
        b3a,
        &format!("{scope}/Branch_3/Conv2d_0b_1x1"),
        1,
        1,
        192,
        Norm::FusedBn,
        Padding::Same,
    );
    n.concat(&[b0, b1, b2, b3], scope)
}

/// Reduction 17→8: 1x1→3x3/2 / 1x1→1x7→7x1→3x3/2 / pool.
fn v3_reduction_b(n: &mut NetBuilder, t: Tensor, scope: &str) -> Tensor {
    let b0a = n.conv(
        t,
        &format!("{scope}/Branch_0/Conv2d_0a_1x1"),
        1,
        1,
        192,
        Norm::FusedBn,
        Padding::Same,
    );
    let b0 = n.conv(
        b0a,
        &format!("{scope}/Branch_0/Conv2d_1a_3x3"),
        3,
        2,
        320,
        Norm::FusedBn,
        Padding::Valid,
    );
    let b1a = n.conv(
        t,
        &format!("{scope}/Branch_1/Conv2d_0a_1x1"),
        1,
        1,
        192,
        Norm::FusedBn,
        Padding::Same,
    );
    let b1b = n.conv_rect(
        b1a,
        &format!("{scope}/Branch_1/Conv2d_0b_1x7"),
        (1, 7),
        1,
        192,
        Norm::FusedBn,
        Padding::Same,
        true,
    );
    let b1c = n.conv_rect(
        b1b,
        &format!("{scope}/Branch_1/Conv2d_0c_7x1"),
        (7, 1),
        1,
        192,
        Norm::FusedBn,
        Padding::Same,
        true,
    );
    let b1 = n.conv(
        b1c,
        &format!("{scope}/Branch_1/Conv2d_1a_3x3"),
        3,
        2,
        192,
        Norm::FusedBn,
        Padding::Valid,
    );
    let b2 = n.max_pool(
        t,
        &format!("{scope}/Branch_2/MaxPool_1a_3x3"),
        3,
        2,
        Padding::Valid,
    );
    n.concat(&[b0, b1, b2], scope)
}

/// 8x8 module with split branches: 1x1 / 1x1→{1x3, 3x1} /
/// 1x1→3x3→{1x3, 3x1} / pool→1x1.
fn v3_module_c(n: &mut NetBuilder, t: Tensor, scope: &str) -> Tensor {
    let b0 = n.conv(
        t,
        &format!("{scope}/Branch_0/Conv2d_0a_1x1"),
        1,
        1,
        320,
        Norm::FusedBn,
        Padding::Same,
    );
    let b1a = n.conv(
        t,
        &format!("{scope}/Branch_1/Conv2d_0a_1x1"),
        1,
        1,
        384,
        Norm::FusedBn,
        Padding::Same,
    );
    let b1l = n.conv_rect(
        b1a,
        &format!("{scope}/Branch_1/Conv2d_0b_1x3"),
        (1, 3),
        1,
        384,
        Norm::FusedBn,
        Padding::Same,
        true,
    );
    let b1r = n.conv_rect(
        b1a,
        &format!("{scope}/Branch_1/Conv2d_0c_3x1"),
        (3, 1),
        1,
        384,
        Norm::FusedBn,
        Padding::Same,
        true,
    );
    let b2a = n.conv(
        t,
        &format!("{scope}/Branch_2/Conv2d_0a_1x1"),
        1,
        1,
        448,
        Norm::FusedBn,
        Padding::Same,
    );
    let b2b = n.conv(
        b2a,
        &format!("{scope}/Branch_2/Conv2d_0b_3x3"),
        3,
        1,
        384,
        Norm::FusedBn,
        Padding::Same,
    );
    let b2l = n.conv_rect(
        b2b,
        &format!("{scope}/Branch_2/Conv2d_0c_1x3"),
        (1, 3),
        1,
        384,
        Norm::FusedBn,
        Padding::Same,
        true,
    );
    let b2r = n.conv_rect(
        b2b,
        &format!("{scope}/Branch_2/Conv2d_0d_3x1"),
        (3, 1),
        1,
        384,
        Norm::FusedBn,
        Padding::Same,
        true,
    );
    let b3a = n.avg_pool(
        t,
        &format!("{scope}/Branch_3/AvgPool_0a_3x3"),
        3,
        1,
        Padding::Same,
    );
    let b3 = n.conv(
        b3a,
        &format!("{scope}/Branch_3/Conv2d_0b_1x1"),
        1,
        1,
        192,
        Norm::FusedBn,
        Padding::Same,
    );
    n.concat(&[b0, b1l, b1r, b2l, b2r, b3], scope)
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

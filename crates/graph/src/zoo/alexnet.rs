//! AlexNet v2 (Krizhevsky, "One weird trick…", 2014), TF-Slim layout.
//!
//! 5 convolutions + 3 fully-connected layers, each with weights and bias:
//! 16 parameters, ≈191.9 MiB — matching Table 1 of the paper.

use super::layers::{Mode, NetBuilder, Norm, Padding};
use crate::ModelGraph;

/// Builds AlexNet v2.
pub(crate) fn alexnet_v2(mode: Mode, batch: usize) -> ModelGraph {
    let mut n = NetBuilder::new("alexnet_v2", batch);
    let x = n.input(224, 224, 3);

    let c1 = n.conv(x, "conv1", 11, 4, 64, Norm::Bias, Padding::Valid);
    let p1 = n.max_pool(c1, "pool1", 3, 2, Padding::Valid);
    let c2 = n.conv(p1, "conv2", 5, 1, 192, Norm::Bias, Padding::Same);
    let p2 = n.max_pool(c2, "pool2", 3, 2, Padding::Valid);
    let c3 = n.conv(p2, "conv3", 3, 1, 384, Norm::Bias, Padding::Same);
    let c4 = n.conv(c3, "conv4", 3, 1, 384, Norm::Bias, Padding::Same);
    let c5 = n.conv(c4, "conv5", 3, 1, 256, Norm::Bias, Padding::Same);
    let p5 = n.max_pool(c5, "pool5", 3, 2, Padding::Valid);

    // Slim implements fc6 as a 5x5 VALID convolution over the 6x6 map.
    let f6 = n.fc_relu(p5, "fc6", 4096);
    let f7 = n.fc_relu(f6, "fc7", 4096);
    let logits = n.fc(f7, "fc8", 1000);
    let out = n.softmax(logits, "predictions");
    n.finish(mode, out, &[])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_table_1_characteristics() {
        let m = alexnet_v2(Mode::Inference, 512);
        let s = m.stats();
        // Table 1: 16 parameters, 191.89 MiB.
        assert_eq!(s.params, 16);
        let mib = s.param_mib();
        assert!(
            (mib - 191.89).abs() / 191.89 < 0.05,
            "param size {mib:.2} MiB vs paper 191.89"
        );
    }

    #[test]
    fn training_graph_roughly_doubles_ops() {
        let inf = alexnet_v2(Mode::Inference, 512).stats().ops;
        let tr = alexnet_v2(Mode::Training, 512).stats().ops;
        assert!(tr > 2 * inf, "train {tr} vs inference {inf}");
        assert!(tr <= 2 * inf + 2);
    }

    #[test]
    fn flops_are_realistic() {
        // AlexNet forward is ~1.4 GFLOPs for batch 1 (2x MACs), give or
        // take our fc6-as-fc choice.
        let m = alexnet_v2(Mode::Inference, 1);
        let gf = m.stats().flops / 1e9;
        assert!((0.8..4.0).contains(&gf), "forward GFLOPs {gf}");
    }
}

//! Layer-level network construction on top of [`ModelGraphBuilder`].
//!
//! [`NetBuilder`] tracks activation shapes, counts FLOPs per layer and —
//! for training graphs — synthesizes the backward pass: one gradient op per
//! forward op, in reverse topological order, producing parameter gradients
//! as it goes. This mirrors how DAG frameworks lay out training graphs and
//! produces the communication pattern TicTac exploits: parameters are
//! *consumed* in forward order while gradients are *produced* in reverse
//! order.

use crate::{ModelGraph, ModelGraphBuilder, ModelOpId, ModelOpKind, ParamId};
use std::collections::HashMap;

/// Whether a graph contains only the forward pass or forward + loss +
/// backward.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Forward pass only (the paper's reinforcement-learning inference
    /// agents, §6).
    Inference,
    /// Forward + loss + backward with gradient outputs (synchronous SGD
    /// training).
    Training,
}

/// Normalization/bias applied after a convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Norm {
    /// A learned bias vector `[out_c]` (AlexNet, VGG).
    Bias,
    /// A fused batch-norm parameter tensor `[2, out_c]` (γ and β), as in
    /// TF-Slim's conv+BN blocks (Inception, ResNet).
    FusedBn,
    /// No post-conv parameter (projection shortcuts in some variants).
    None,
}

/// Convolution padding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Padding {
    /// TensorFlow `SAME`: output = ceil(input / stride).
    Same,
    /// TensorFlow `VALID`: output = ceil((input − k + 1) / stride).
    Valid,
}

impl Padding {
    fn out_dim(self, input: usize, k: usize, stride: usize) -> usize {
        match self {
            Padding::Same => input.div_ceil(stride),
            Padding::Valid => (input.saturating_sub(k) + stride) / stride,
        }
    }
}

/// An activation tensor flowing through the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Tensor {
    /// The op that produced this tensor (`None` for the network input).
    pub(crate) op: Option<ModelOpId>,
    /// Spatial height.
    pub(crate) h: usize,
    /// Spatial width.
    pub(crate) w: usize,
    /// Channels.
    pub(crate) c: usize,
}

impl Tensor {
    /// Elements per sample.
    pub(crate) fn elems(&self) -> u64 {
        (self.h * self.w * self.c) as u64
    }
}

/// Shape- and FLOP-tracking network builder.
#[derive(Debug)]
pub(crate) struct NetBuilder {
    b: ModelGraphBuilder,
    batch: usize,
    /// Insertion-ordered forward op ids with their parameter reads, used to
    /// generate the backward pass.
    forward: Vec<ModelOpId>,
    consumers: HashMap<ModelOpId, Vec<ModelOpId>>,
}

impl NetBuilder {
    /// Starts a network with the given name and batch size.
    pub(crate) fn new(name: impl Into<String>, batch: usize) -> Self {
        Self {
            b: ModelGraphBuilder::new(name, batch),
            batch,
            forward: Vec::new(),
            consumers: HashMap::new(),
        }
    }

    /// The network input tensor (`h × w × c` per sample).
    pub(crate) fn input(&self, h: usize, w: usize, c: usize) -> Tensor {
        Tensor { op: None, h, w, c }
    }

    fn push_op(
        &mut self,
        name: String,
        flops: f64,
        preds: &[Option<ModelOpId>],
        reads: &[ParamId],
    ) -> ModelOpId {
        let deps: Vec<ModelOpId> = preds.iter().copied().flatten().collect();
        let id = self
            .b
            .add_op(name, ModelOpKind::Forward, flops, &deps, reads, &[]);
        for d in &deps {
            self.consumers.entry(*d).or_default().push(id);
        }
        self.forward.push(id);
        id
    }

    /// A 2-D convolution with square kernel `k`, plus its normalization and
    /// a ReLU, emitted as three ops (conv, norm, relu).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn conv(
        &mut self,
        t: Tensor,
        name: &str,
        k: usize,
        stride: usize,
        out_c: usize,
        norm: Norm,
        padding: Padding,
    ) -> Tensor {
        self.conv_rect(t, name, (k, k), stride, out_c, norm, padding, true)
    }

    /// A convolution with rectangular kernel `(kh, kw)` (Inception v3's
    /// factorized convolutions), optionally without activation.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn conv_rect(
        &mut self,
        t: Tensor,
        name: &str,
        (kh, kw): (usize, usize),
        stride: usize,
        out_c: usize,
        norm: Norm,
        padding: Padding,
        relu: bool,
    ) -> Tensor {
        let oh = padding.out_dim(t.h, kh, stride);
        let ow = padding.out_dim(t.w, kw, stride);
        let weights = self
            .b
            .add_param(format!("{name}/weights"), vec![kh, kw, t.c, out_c]);
        let macs = (oh * ow * out_c) as f64 * (kh * kw * t.c) as f64 * self.batch as f64;
        let conv = self.push_op(format!("{name}/Conv2D"), 2.0 * macs, &[t.op], &[weights]);
        let spatial = (oh * ow * out_c * self.batch) as f64;

        let after_norm = match norm {
            Norm::Bias => {
                let bias = self.b.add_param(format!("{name}/biases"), vec![out_c]);
                self.push_op(format!("{name}/BiasAdd"), spatial, &[Some(conv)], &[bias])
            }
            Norm::FusedBn => {
                let bn = self
                    .b
                    .add_param(format!("{name}/BatchNorm"), vec![2, out_c]);
                self.push_op(
                    format!("{name}/FusedBatchNorm"),
                    4.0 * spatial,
                    &[Some(conv)],
                    &[bn],
                )
            }
            Norm::None => conv,
        };
        let last = if relu {
            self.push_op(format!("{name}/Relu"), spatial, &[Some(after_norm)], &[])
        } else {
            after_norm
        };
        Tensor {
            op: Some(last),
            h: oh,
            w: ow,
            c: out_c,
        }
    }

    /// A standalone batch-norm + ReLU (pre-activation ResNet v2 blocks):
    /// adds one fused BN parameter.
    pub(crate) fn bn_relu(&mut self, t: Tensor, name: &str) -> Tensor {
        let bn = self.b.add_param(format!("{name}/BatchNorm"), vec![2, t.c]);
        let spatial = t.elems() as f64 * self.batch as f64;
        let bn_op = self.push_op(
            format!("{name}/FusedBatchNorm"),
            4.0 * spatial,
            &[t.op],
            &[bn],
        );
        let relu = self.push_op(format!("{name}/Relu"), spatial, &[Some(bn_op)], &[]);
        Tensor {
            op: Some(relu),
            ..t
        }
    }

    /// Max pooling.
    pub(crate) fn max_pool(
        &mut self,
        t: Tensor,
        name: &str,
        k: usize,
        stride: usize,
        padding: Padding,
    ) -> Tensor {
        self.pool(t, name, "MaxPool", k, stride, padding)
    }

    /// Average pooling.
    pub(crate) fn avg_pool(
        &mut self,
        t: Tensor,
        name: &str,
        k: usize,
        stride: usize,
        padding: Padding,
    ) -> Tensor {
        self.pool(t, name, "AvgPool", k, stride, padding)
    }

    fn pool(
        &mut self,
        t: Tensor,
        name: &str,
        kind: &str,
        k: usize,
        stride: usize,
        padding: Padding,
    ) -> Tensor {
        let oh = padding.out_dim(t.h, k, stride);
        let ow = padding.out_dim(t.w, k, stride);
        let flops = (oh * ow * t.c * k * k) as f64 * self.batch as f64;
        let op = self.push_op(format!("{name}/{kind}"), flops, &[t.op], &[]);
        Tensor {
            op: Some(op),
            h: oh,
            w: ow,
            c: t.c,
        }
    }

    /// Global average pooling to `1 × 1 × c`.
    pub(crate) fn global_avg_pool(&mut self, t: Tensor, name: &str) -> Tensor {
        let flops = t.elems() as f64 * self.batch as f64;
        let op = self.push_op(format!("{name}/GlobalAvgPool"), flops, &[t.op], &[]);
        Tensor {
            op: Some(op),
            h: 1,
            w: 1,
            c: t.c,
        }
    }

    /// Local response normalization (AlexNet, GoogLeNet); no parameters.
    pub(crate) fn lrn(&mut self, t: Tensor, name: &str) -> Tensor {
        let flops = 8.0 * t.elems() as f64 * self.batch as f64;
        let op = self.push_op(format!("{name}/LRN"), flops, &[t.op], &[]);
        Tensor { op: Some(op), ..t }
    }

    /// Channel concatenation of parallel branches (Inception modules).
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty or spatial dimensions disagree.
    pub(crate) fn concat(&mut self, inputs: &[Tensor], name: &str) -> Tensor {
        assert!(!inputs.is_empty(), "concat needs at least one input");
        let (h, w) = (inputs[0].h, inputs[0].w);
        assert!(
            inputs.iter().all(|t| t.h == h && t.w == w),
            "concat inputs must share spatial dims"
        );
        let c: usize = inputs.iter().map(|t| t.c).sum();
        let flops = (h * w * c) as f64 * self.batch as f64;
        let preds: Vec<Option<ModelOpId>> = inputs.iter().map(|t| t.op).collect();
        let op = self.push_op(format!("{name}/Concat"), flops, &preds, &[]);
        Tensor {
            op: Some(op),
            h,
            w,
            c,
        }
    }

    /// Element-wise residual addition.
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree.
    pub(crate) fn add(&mut self, a: Tensor, b: Tensor, name: &str) -> Tensor {
        assert_eq!((a.h, a.w, a.c), (b.h, b.w, b.c), "residual shapes differ");
        let flops = a.elems() as f64 * self.batch as f64;
        let op = self.push_op(format!("{name}/Add"), flops, &[a.op, b.op], &[]);
        Tensor { op: Some(op), ..a }
    }

    /// A fully-connected layer (flattens spatial dims), with bias, no
    /// activation.
    pub(crate) fn fc(&mut self, t: Tensor, name: &str, out: usize) -> Tensor {
        let input = (t.h * t.w * t.c) as u64;
        let weights = self
            .b
            .add_param(format!("{name}/weights"), vec![input as usize, out]);
        let bias = self.b.add_param(format!("{name}/biases"), vec![out]);
        let flops = 2.0 * input as f64 * out as f64 * self.batch as f64;
        let matmul = self.push_op(format!("{name}/MatMul"), flops, &[t.op], &[weights]);
        let op = self.push_op(
            format!("{name}/BiasAdd"),
            (out * self.batch) as f64,
            &[Some(matmul)],
            &[bias],
        );
        Tensor {
            op: Some(op),
            h: 1,
            w: 1,
            c: out,
        }
    }

    /// A ReLU on a fully-connected output.
    pub(crate) fn relu(&mut self, t: Tensor, name: &str) -> Tensor {
        let flops = t.elems() as f64 * self.batch as f64;
        let op = self.push_op(format!("{name}/Relu"), flops, &[t.op], &[]);
        Tensor { op: Some(op), ..t }
    }

    /// Softmax over the final logits.
    pub(crate) fn softmax(&mut self, t: Tensor, name: &str) -> Tensor {
        let flops = 5.0 * t.elems() as f64 * self.batch as f64;
        let op = self.push_op(format!("{name}/Softmax"), flops, &[t.op], &[]);
        Tensor { op: Some(op), ..t }
    }

    /// Finalizes the graph.
    ///
    /// In [`Mode::Training`], appends a cross-entropy loss after `output`
    /// (and any `extra_heads`, e.g. Inception auxiliary classifiers) and a
    /// synthesized backward pass: for every forward op, in reverse
    /// insertion order, a gradient op that
    ///
    /// * depends on the gradients of all ops that consumed the forward
    ///   op's output (or on the loss, for the output ops),
    /// * depends on the forward op itself (it needs the activations),
    /// * re-reads the parameters the forward op read, and produces their
    ///   gradients (`2×` the forward FLOPs for parametrized ops, `1×`
    ///   otherwise).
    pub(crate) fn finish(
        mut self,
        mode: Mode,
        output: Tensor,
        extra_heads: &[Tensor],
    ) -> ModelGraph {
        if mode == Mode::Inference {
            return self.b.build();
        }

        // Loss over the main output and any auxiliary heads.
        let mut head_ops: Vec<ModelOpId> = Vec::new();
        head_ops.extend(output.op);
        head_ops.extend(extra_heads.iter().filter_map(|t| t.op));
        let loss_flops = 10.0 * output.c as f64 * self.batch as f64;
        let loss = self.b.add_op(
            "loss/xent",
            ModelOpKind::Loss,
            loss_flops,
            &head_ops,
            &[],
            &[],
        );

        // Backward pass in reverse forward order.
        let mut grad_of: HashMap<ModelOpId, ModelOpId> = HashMap::new();
        for &fwd in self.forward.iter().rev() {
            let mut preds: Vec<ModelOpId> = self
                .consumers
                .get(&fwd)
                .map(|cs| cs.iter().filter_map(|c| grad_of.get(c).copied()).collect())
                .unwrap_or_default();
            if preds.is_empty() {
                preds.push(loss);
            }
            preds.push(fwd);
            let (name, flops, params): (String, f64, Vec<ParamId>) = {
                let op = self.b_op(fwd);
                let factor = if op.2.is_empty() { 1.0 } else { 2.0 };
                (format!("{}_grad", op.0), op.1 * factor, op.2.clone())
            };
            let gid = self
                .b
                .add_op(name, ModelOpKind::Backward, flops, &preds, &params, &params);
            grad_of.insert(fwd, gid);
        }
        self.b.build()
    }

    /// Name, flops and parameter reads of an op already in the builder.
    fn b_op(&self, id: ModelOpId) -> (String, f64, Vec<ParamId>) {
        // ModelGraphBuilder has no accessor; track through a rebuild-free
        // peek: we keep our own mirror in `forward` order. To avoid
        // duplicating state, query the builder's pending ops via a small
        // internal accessor.
        let op = self.b.peek_op(id);
        (
            op.name().to_string(),
            op.flops(),
            op.reads_params().to_vec(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelOpKind;

    #[test]
    fn padding_arithmetic() {
        assert_eq!(Padding::Same.out_dim(224, 3, 1), 224);
        assert_eq!(Padding::Same.out_dim(224, 3, 2), 112);
        assert_eq!(Padding::Same.out_dim(7, 3, 2), 4);
        assert_eq!(Padding::Valid.out_dim(224, 7, 2), 109);
        assert_eq!(Padding::Valid.out_dim(5, 5, 1), 1);
    }

    #[test]
    fn conv_tracks_shapes_params_and_flops() {
        let mut n = NetBuilder::new("t", 2);
        let x = n.input(8, 8, 3);
        let y = n.conv(x, "c1", 3, 2, 16, Norm::FusedBn, Padding::Same);
        assert_eq!((y.h, y.w, y.c), (4, 4, 16));
        let m = n.finish(Mode::Inference, y, &[]);
        // weights + fused bn.
        assert_eq!(m.params().len(), 2);
        assert_eq!(m.params()[0].elems(), 3 * 3 * 3 * 16);
        assert_eq!(m.params()[1].elems(), 2 * 16);
        // conv + bn + relu ops.
        assert_eq!(m.ops().len(), 3);
        let conv_flops = 2.0 * (4 * 4 * 16) as f64 * (3 * 3 * 3) as f64 * 2.0;
        assert_eq!(m.ops()[0].flops(), conv_flops);
    }

    #[test]
    fn fc_flattens_input() {
        let mut n = NetBuilder::new("t", 1);
        let x = n.input(4, 4, 8);
        let y = n.fc(x, "fc", 10);
        assert_eq!((y.h, y.w, y.c), (1, 1, 10));
        let m = n.finish(Mode::Inference, y, &[]);
        assert_eq!(m.params()[0].elems(), 128 * 10);
        assert_eq!(m.params()[1].elems(), 10);
    }

    #[test]
    fn concat_sums_channels() {
        let mut n = NetBuilder::new("t", 1);
        let x = n.input(8, 8, 3);
        let a = n.conv(x, "a", 1, 1, 4, Norm::None, Padding::Same);
        let b = n.conv(x, "b", 3, 1, 6, Norm::None, Padding::Same);
        let y = n.concat(&[a, b], "cat");
        assert_eq!(y.c, 10);
    }

    #[test]
    #[should_panic(expected = "spatial dims")]
    fn concat_rejects_mismatched_spatial_dims() {
        let mut n = NetBuilder::new("t", 1);
        let x = n.input(8, 8, 3);
        let a = n.conv(x, "a", 1, 1, 4, Norm::None, Padding::Same);
        let b = n.conv(x, "b", 3, 2, 4, Norm::None, Padding::Same);
        n.concat(&[a, b], "cat");
    }

    #[test]
    fn training_mode_adds_loss_and_mirrored_backward() {
        let mut n = NetBuilder::new("t", 4);
        let x = n.input(8, 8, 3);
        let h = n.conv(x, "c1", 3, 1, 8, Norm::Bias, Padding::Same);
        let y = n.fc(h, "fc", 10);
        let fwd_ops = 3 + 2; // conv,bias,relu + matmul,biasadd
        let m = n.finish(Mode::Training, y, &[]);
        assert!(m.is_training());
        // forward + loss + one grad per forward op.
        assert_eq!(m.ops().len(), fwd_ops + 1 + fwd_ops);
        // Every parameter has exactly one gradient producer.
        for (i, _) in m.params().iter().enumerate() {
            let pid = crate::ParamId::from_index(i);
            let producers = m
                .ops()
                .iter()
                .filter(|o| o.produces_grads().contains(&pid))
                .count();
            assert_eq!(producers, 1, "param {pid} gradient producers");
        }
        // Backward ops exist and loss is a Loss op.
        assert!(m.ops().iter().any(|o| o.kind() == ModelOpKind::Backward));
        assert_eq!(
            m.ops()
                .iter()
                .filter(|o| o.kind() == ModelOpKind::Loss)
                .count(),
            1
        );
    }

    #[test]
    fn gradients_are_produced_in_reverse_layer_order() {
        let mut n = NetBuilder::new("t", 1);
        let x = n.input(8, 8, 3);
        let a = n.conv(x, "c1", 3, 1, 4, Norm::None, Padding::Same);
        let b = n.conv(a, "c2", 3, 1, 4, Norm::None, Padding::Same);
        let m = n.finish(Mode::Training, b, &[]);
        // In op insertion order, c2's gradient comes before c1's.
        let pos = |name: &str| m.ops().iter().position(|o| o.name() == name).unwrap();
        assert!(pos("c2/Conv2D_grad") < pos("c1/Conv2D_grad"));
    }
}

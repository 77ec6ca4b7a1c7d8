//! Device-agnostic model graphs: one replica of a DNN.
//!
//! A [`ModelGraph`] describes what a single worker computes — parameters,
//! forward/backward ops, which ops read which parameters and which produce
//! which gradients — without committing to a deployment. The
//! `tictac-cluster` crate *lowers* a model graph onto a partitioned
//! [`Graph`](crate::Graph) spanning workers and parameter servers.

use crate::hash::Fnv1a;
use crate::ids::{ModelOpId, ParamId};
use std::fmt;

/// Shape of a tensor, e.g. `[3, 3, 64, 128]` for a convolution kernel.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TensorShape(Vec<usize>);

impl TensorShape {
    /// The dimensions.
    pub(crate) fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Total number of elements (product of dimensions; 1 for a scalar).
    pub(crate) fn elems(&self) -> u64 {
        self.0.iter().map(|&d| d as u64).product()
    }
}

impl fmt::Display for TensorShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<usize>> for TensorShape {
    fn from(dims: Vec<usize>) -> Self {
        Self(dims)
    }
}

impl<const N: usize> From<[usize; N]> for TensorShape {
    fn from(dims: [usize; N]) -> Self {
        Self(dims.to_vec())
    }
}

/// A trainable parameter tensor of the model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamSpec {
    name: String,
    shape: TensorShape,
    dtype_bytes: u8,
}

impl ParamSpec {
    /// Creates a parameter with 4-byte (f32) elements.
    pub(crate) fn f32(name: impl Into<String>, shape: impl Into<TensorShape>) -> Self {
        Self {
            name: name.into(),
            shape: shape.into(),
            dtype_bytes: 4,
        }
    }

    /// The parameter's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of elements.
    pub fn elems(&self) -> u64 {
        self.shape.elems()
    }

    /// Size in bytes.
    pub fn bytes(&self) -> u64 {
        self.elems() * self.dtype_bytes as u64
    }
}

/// The role of an op within the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelOpKind {
    /// Forward-pass computation.
    Forward,
    /// Backward-pass computation (gradients w.r.t. activations/parameters).
    Backward,
    /// Loss computation (boundary between forward and backward).
    Loss,
}

/// One op of a model graph.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelOp {
    pub(crate) name: String,
    pub(crate) kind: ModelOpKind,
    pub(crate) flops: f64,
    pub(crate) preds: Vec<ModelOpId>,
    pub(crate) reads_params: Vec<ParamId>,
    pub(crate) produces_grads: Vec<ParamId>,
}

impl ModelOp {
    /// The op's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The op's role.
    pub fn kind(&self) -> ModelOpKind {
        self.kind
    }

    /// Floating-point work performed.
    pub fn flops(&self) -> f64 {
        self.flops
    }

    /// Dependencies within the model graph.
    pub fn preds(&self) -> &[ModelOpId] {
        &self.preds
    }

    /// Parameters this op reads (these become `recv` dependencies when the
    /// model is deployed).
    pub fn reads_params(&self) -> &[ParamId] {
        &self.reads_params
    }

    /// Parameter gradients this op produces (these become `send`s to the
    /// parameter servers in training).
    pub fn produces_grads(&self) -> &[ParamId] {
        &self.produces_grads
    }
}

/// Summary statistics of a model graph (compare against Table 1 of the
/// paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelStats {
    /// Number of parameters (tensors, not scalars).
    pub params: usize,
    /// Total parameter size in bytes.
    pub param_bytes: u64,
    /// Number of ops.
    pub ops: usize,
    /// Total forward+backward floating-point work per sample batch.
    pub flops: f64,
}

impl ModelStats {
    /// Total parameter size in MiB (as reported in Table 1).
    pub fn param_mib(&self) -> f64 {
        self.param_bytes as f64 / (1024.0 * 1024.0)
    }
}

/// A validated, device-agnostic model graph.
#[derive(Debug, Clone)]
pub struct ModelGraph {
    name: String,
    batch_size: usize,
    params: Vec<ParamSpec>,
    ops: Vec<ModelOp>,
}

impl ModelGraph {
    /// The model's name (e.g. `"inception_v3"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The batch size the op costs were computed for.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// All parameters.
    pub fn params(&self) -> &[ParamSpec] {
        &self.params
    }

    /// The parameter with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn param(&self, id: ParamId) -> &ParamSpec {
        &self.params[id.index()]
    }

    /// All ops in insertion (topological) order.
    pub fn ops(&self) -> &[ModelOp] {
        &self.ops
    }

    /// Iterates over `(id, op)` pairs.
    pub fn ops_enumerated(&self) -> impl Iterator<Item = (ModelOpId, &ModelOp)> {
        self.ops
            .iter()
            .enumerate()
            .map(|(i, op)| (ModelOpId::from_index(i), op))
    }

    /// Whether any op is a backward op (i.e. this is a training graph).
    pub fn is_training(&self) -> bool {
        self.ops
            .iter()
            .any(|op| op.kind == ModelOpKind::Backward || op.kind == ModelOpKind::Loss)
    }

    /// Summary statistics.
    pub fn stats(&self) -> ModelStats {
        ModelStats {
            params: self.params.len(),
            param_bytes: self.params.iter().map(ParamSpec::bytes).sum(),
            ops: self.ops.len(),
            flops: self.ops.iter().map(|o| o.flops).sum(),
        }
    }

    /// A stable structural fingerprint of the model (FNV-1a over every
    /// field that affects deployment).
    ///
    /// Two models with the same fingerprint lower to identical deployed
    /// graphs for any given cluster spec; `tictac-core`'s `DeployCache`
    /// uses this as its model key. Stable within a process run — not a
    /// cross-version serialization format.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.bytes(self.name.as_bytes());
        h.u64(self.batch_size as u64);
        h.u64(self.params.len() as u64);
        for p in &self.params {
            h.bytes(p.name.as_bytes());
            h.bytes(&[0, p.dtype_bytes]);
            for &d in p.shape.dims() {
                h.u64(d as u64);
            }
        }
        h.u64(self.ops.len() as u64);
        for op in &self.ops {
            h.bytes(op.name.as_bytes());
            h.bytes(&[0, op.kind as u8]);
            h.u64(op.flops.to_bits());
            for d in &op.preds {
                h.u64(d.index() as u64);
            }
            for p in &op.reads_params {
                h.u64(p.index() as u64);
            }
            h.bytes(&[1]);
            for p in &op.produces_grads {
                h.u64(p.index() as u64);
            }
        }
        h.finish()
    }
}

/// Builder for [`ModelGraph`].
///
/// # Example
///
/// ```
/// use tictac_graph::{ModelGraphBuilder, ModelOpKind};
///
/// let mut b = ModelGraphBuilder::new("tiny", 32);
/// let w = b.add_param("fc/weights", [128, 10]);
/// let x = b.add_op("fc", ModelOpKind::Forward, 1.0e6, &[], &[w], &[]);
/// b.add_op("loss", ModelOpKind::Loss, 1.0e3, &[x], &[], &[]);
/// let m = b.build();
/// assert_eq!(m.params().len(), 1);
/// assert_eq!(m.ops().len(), 2);
/// ```
#[derive(Debug)]
pub struct ModelGraphBuilder {
    name: String,
    batch_size: usize,
    params: Vec<ParamSpec>,
    ops: Vec<ModelOp>,
}

impl ModelGraphBuilder {
    /// Creates a builder for a model with the given name and batch size.
    pub fn new(name: impl Into<String>, batch_size: usize) -> Self {
        Self {
            name: name.into(),
            batch_size,
            params: Vec::new(),
            ops: Vec::new(),
        }
    }

    /// Adds an f32 parameter and returns its id.
    pub fn add_param(&mut self, name: impl Into<String>, shape: impl Into<TensorShape>) -> ParamId {
        let id = ParamId::from_index(self.params.len());
        self.params.push(ParamSpec::f32(name, shape));
        id
    }

    /// Adds an op.
    ///
    /// # Panics
    ///
    /// Panics if a dependency or parameter id is out of bounds (ids must
    /// come from this builder).
    pub fn add_op(
        &mut self,
        name: impl Into<String>,
        kind: ModelOpKind,
        flops: f64,
        preds: &[ModelOpId],
        reads_params: &[ParamId],
        produces_grads: &[ParamId],
    ) -> ModelOpId {
        for p in preds {
            assert!(p.index() < self.ops.len(), "unknown model op {p}");
        }
        for p in reads_params.iter().chain(produces_grads) {
            assert!(p.index() < self.params.len(), "unknown param {p}");
        }
        let id = ModelOpId::from_index(self.ops.len());
        self.ops.push(ModelOp {
            name: name.into(),
            kind,
            flops,
            preds: preds.to_vec(),
            reads_params: reads_params.to_vec(),
            produces_grads: produces_grads.to_vec(),
        });
        id
    }

    /// Inspects an op already added to the builder (used by layer-level
    /// builders to synthesize backward passes).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub(crate) fn peek_op(&self, id: ModelOpId) -> &ModelOp {
        &self.ops[id.index()]
    }

    /// Finalizes the model graph.
    ///
    /// Because `add_op` only accepts already-created dependencies, insertion
    /// order is a topological order and the graph is acyclic by
    /// construction.
    pub fn build(self) -> ModelGraph {
        ModelGraph {
            name: self.name,
            batch_size: self.batch_size,
            params: self.params,
            ops: self.ops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tensor_shape_elems() {
        assert_eq!(TensorShape::from(vec![3, 3, 64, 128]).elems(), 73_728);
        assert_eq!(TensorShape::from(vec![]).elems(), 1);
        assert_eq!(TensorShape::from(vec![10]).to_string(), "[10]");
        assert_eq!(TensorShape::from(vec![2, 3]).to_string(), "[2x3]");
    }

    #[test]
    fn param_spec_bytes_are_f32() {
        let p = ParamSpec::f32("w", vec![1000]);
        assert_eq!(p.bytes(), 4000);
        assert_eq!(p.elems(), 1000);
        assert_eq!(p.name(), "w");
    }

    fn tiny_training_model() -> ModelGraph {
        let mut b = ModelGraphBuilder::new("tiny", 8);
        let w1 = b.add_param("l1/w", vec![16, 32]);
        let w2 = b.add_param("l2/w", vec![32, 10]);
        let f1 = b.add_op("l1", ModelOpKind::Forward, 100.0, &[], &[w1], &[]);
        let f2 = b.add_op("l2", ModelOpKind::Forward, 200.0, &[f1], &[w2], &[]);
        let loss = b.add_op("loss", ModelOpKind::Loss, 10.0, &[f2], &[], &[]);
        let b2 = b.add_op(
            "l2_grad",
            ModelOpKind::Backward,
            400.0,
            &[loss],
            &[w2],
            &[w2],
        );
        b.add_op("l1_grad", ModelOpKind::Backward, 200.0, &[b2], &[w1], &[w1]);
        b.build()
    }

    #[test]
    fn stats_aggregate_params_and_flops() {
        let m = tiny_training_model();
        let s = m.stats();
        assert_eq!(s.params, 2);
        assert_eq!(s.param_bytes, (16 * 32 + 32 * 10) * 4);
        assert_eq!(s.ops, 5);
        assert_eq!(s.flops, 910.0);
        assert!(m.is_training());
    }

    #[test]
    #[should_panic(expected = "unknown model op")]
    fn add_op_rejects_forward_references() {
        let mut b = ModelGraphBuilder::new("bad", 1);
        let bogus = ModelOpId::from_index(7);
        b.add_op("x", ModelOpKind::Forward, 1.0, &[bogus], &[], &[]);
    }

    #[test]
    fn fingerprint_is_stable_and_discriminating() {
        let m = tiny_training_model();
        assert_eq!(m.fingerprint(), tiny_training_model().fingerprint());
        // Any deployment-relevant change moves the fingerprint.
        let mut renamed = ModelGraphBuilder::new("tiny2", 8);
        let w = renamed.add_param("l1/w", vec![16, 32]);
        renamed.add_op("l1", ModelOpKind::Forward, 100.0, &[], &[w], &[]);
        assert_ne!(m.fingerprint(), renamed.build().fingerprint());
    }

    #[test]
    fn inference_model_is_not_training() {
        let mut b = ModelGraphBuilder::new("inf", 1);
        let w = b.add_param("w", vec![4]);
        b.add_op("f", ModelOpKind::Forward, 1.0, &[], &[w], &[]);
        assert!(!b.build().is_training());
    }
}

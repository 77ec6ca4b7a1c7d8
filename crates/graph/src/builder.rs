//! Incremental, validated construction of [`Graph`]s.

use crate::device::{Channel, Device, DeviceKind};
use crate::error::GraphError;
use crate::graph::{Graph, ParamInfo};
use crate::ids::{ChannelId, DeviceId, OpId, ParamId};
use crate::name::{CommParam, NameId, NameTable, OpName};
use crate::op::{Cost, Op, OpKind};
use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

/// Builder for [`Graph`].
///
/// Ids are handed out eagerly so that later ops can depend on earlier ones;
/// [`GraphBuilder::build`] validates the result (acyclicity, id bounds,
/// channel placement, cost fields, name uniqueness).
///
/// # Example
///
/// ```
/// use tictac_graph::{Cost, GraphBuilder, OpKind};
///
/// let mut b = GraphBuilder::new();
/// let w = b.add_worker("worker/0");
/// let a = b.add_op("a", w, OpKind::Compute, Cost::flops(1.0), &[]);
/// let _b2 = b.add_op("b", w, OpKind::Compute, Cost::flops(1.0), &[a]);
/// let graph = b.build()?;
/// assert_eq!(graph.len(), 2);
/// # Ok::<(), tictac_graph::GraphError>(())
/// ```
#[derive(Debug)]
pub struct GraphBuilder {
    ops: Vec<Op>,
    /// Flat predecessor arena in compressed sparse row form:
    /// op `i`'s deps are `pred_edges[pred_offsets[i]..pred_offsets[i+1]]`.
    /// One arena grows across the whole build instead of one `Vec` per op.
    pred_edges: Vec<OpId>,
    pred_offsets: Vec<u32>,
    devices: Vec<Device>,
    channels: Vec<Channel>,
    params: Vec<ParamInfo>,
    /// Sparse heterogeneity overrides; normalized away at `build` when
    /// every factor is exactly `1.0`.
    device_speeds: Vec<f64>,
    channel_bandwidths: Vec<f64>,
    names: NameTable,
    /// The first op whose cost set a field its class never reads, and
    /// that field; the op keeps only the other one, so `build` reports it
    /// from here.
    unread_cost: Option<(OpId, &'static str)>,
}

impl Default for GraphBuilder {
    fn default() -> Self {
        Self {
            ops: Vec::new(),
            pred_edges: Vec::new(),
            pred_offsets: vec![0],
            devices: Vec::new(),
            channels: Vec::new(),
            params: Vec::new(),
            device_speeds: Vec::new(),
            channel_bandwidths: Vec::new(),
            names: NameTable::new(),
            unread_cost: None,
        }
    }
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder with op capacity pre-allocated.
    pub fn with_capacity(ops: usize) -> Self {
        let mut pred_offsets = Vec::with_capacity(ops + 1);
        pred_offsets.push(0);
        Self {
            ops: Vec::with_capacity(ops),
            // Deployment ops carry 1.6 deps on average; `assemble` gives
            // back what this first reservation leaves spare.
            pred_edges: Vec::with_capacity(ops * 2),
            pred_offsets,
            ..Self::default()
        }
    }

    /// Registers a worker device and returns its id.
    pub fn add_worker(&mut self, name: impl Into<String>) -> DeviceId {
        self.add_device(DeviceKind::Worker, name)
    }

    /// Registers a parameter-server device and returns its id.
    pub fn add_parameter_server(&mut self, name: impl Into<String>) -> DeviceId {
        self.add_device(DeviceKind::ParameterServer, name)
    }

    /// Registers a device of the given kind and returns its id.
    pub(crate) fn add_device(&mut self, kind: DeviceKind, name: impl Into<String>) -> DeviceId {
        let id = DeviceId::from_index(self.devices.len());
        self.devices.push(Device::new(id, kind, name));
        id
    }

    /// Registers a communication channel between `worker` and `ps`.
    ///
    /// Endpoint roles are validated at [`build`](Self::build) time.
    pub fn add_channel(&mut self, worker: DeviceId, ps: DeviceId) -> ChannelId {
        let id = ChannelId::from_index(self.channels.len());
        self.channels.push(Channel::new(id, worker, ps));
        id
    }

    /// Sets the relative speed factor of `device` (`1.0` = platform
    /// reference; `2.0` = twice as fast).
    ///
    /// # Panics
    ///
    /// Panics if `device` was not created by this builder, or if `speed`
    /// is not a positive finite number.
    pub fn set_device_speed(&mut self, device: DeviceId, speed: f64) {
        assert!(
            device.index() < self.devices.len(),
            "unknown device {device:?}"
        );
        assert!(
            speed.is_finite() && speed > 0.0,
            "device speed must be positive and finite, got {speed}"
        );
        if self.device_speeds.len() <= device.index() {
            self.device_speeds.resize(device.index() + 1, 1.0);
        }
        self.device_speeds[device.index()] = speed;
    }

    /// Sets the relative bandwidth factor of `channel` (`1.0` = platform
    /// reference; `0.5` = half the bandwidth).
    ///
    /// # Panics
    ///
    /// Panics if `channel` was not created by this builder, or if
    /// `bandwidth` is not a positive finite number.
    pub fn set_channel_bandwidth(&mut self, channel: ChannelId, bandwidth: f64) {
        assert!(
            channel.index() < self.channels.len(),
            "unknown channel {channel:?}"
        );
        assert!(
            bandwidth.is_finite() && bandwidth > 0.0,
            "channel bandwidth must be positive and finite, got {bandwidth}"
        );
        if self.channel_bandwidths.len() <= channel.index() {
            self.channel_bandwidths.resize(channel.index() + 1, 1.0);
        }
        self.channel_bandwidths[channel.index()] = bandwidth;
    }

    /// Registers a parameter of `bytes` bytes and returns its id.
    pub fn add_param(&mut self, name: impl Into<String>, bytes: u64) -> ParamId {
        let id = ParamId::from_index(self.params.len());
        self.params.push(ParamInfo {
            name: name.into(),
            bytes,
            ps: None,
        });
        id
    }

    /// Assigns a parameter to a parameter-server shard.
    ///
    /// # Panics
    ///
    /// Panics if `param` was not created by this builder.
    pub fn assign_param_to_ps(&mut self, param: ParamId, ps: DeviceId) {
        self.params[param.index()].ps = Some(ps);
    }

    /// Interns a string for use in structured [`OpName`]s.
    pub fn intern(&mut self, s: &str) -> NameId {
        self.names.intern(s)
    }

    /// Adds an op with an arbitrary string name and returns its id.
    ///
    /// The string is interned as [`OpName::Raw`]; deployment-style hot
    /// paths should prefer [`add_op_named`](Self::add_op_named), which
    /// avoids touching strings entirely.
    ///
    /// `deps` are control/data dependencies: the op becomes ready only when
    /// all of them have finished. `cost` sets bytes on a send or recv and
    /// flops on any other op; [`build`](Self::build) refuses the other
    /// field.
    pub fn add_op(
        &mut self,
        name: impl AsRef<str>,
        device: DeviceId,
        kind: OpKind,
        cost: Cost,
        deps: &[OpId],
    ) -> OpId {
        let name = OpName::Raw(self.names.intern(name.as_ref()));
        self.add_op_named(name, device, kind, cost, deps)
    }

    /// Adds an op with a structured, allocation-free name and returns its
    /// id.
    ///
    /// Interned components must come from [`intern`](Self::intern) on this
    /// builder; [`build`](Self::build) refuses a communication name whose
    /// parameter is not one of [`add_param`](Self::add_param)'s.
    pub fn add_op_named(
        &mut self,
        name: OpName,
        device: DeviceId,
        kind: OpKind,
        cost: Cost,
        deps: &[OpId],
    ) -> OpId {
        let id = OpId::from_index(self.ops.len());
        if self.unread_cost.is_none() {
            self.unread_cost = Op::unread_field(kind, cost).map(|field| (id, field));
        }
        self.ops.push(Op::new(name, kind, device, cost));
        // Append, then sort + dedup the newly added range in place — no
        // per-op allocation.
        let start = self.pred_edges.len();
        self.pred_edges.extend_from_slice(deps);
        self.pred_edges[start..].sort_unstable();
        let mut w = start;
        for r in start..self.pred_edges.len() {
            if w == start || self.pred_edges[w - 1] != self.pred_edges[r] {
                self.pred_edges[w] = self.pred_edges[r];
                w += 1;
            }
        }
        self.pred_edges.truncate(w);
        self.pred_offsets.push(self.pred_edges.len() as u32);
        id
    }

    /// Adds an extra dependency edge `from -> to` after both ops exist.
    ///
    /// O(edges) when `to` is not the most recently added op (the edge
    /// arena is packed); fine for the occasional extra edge, not for bulk
    /// construction — pass deps to [`add_op`](Self::add_op) instead.
    ///
    /// # Panics
    ///
    /// Panics if `to` was not created by this builder.
    #[cfg(test)]
    fn add_dep(&mut self, from: OpId, to: OpId) {
        let (start, end) = (
            self.pred_offsets[to.index()] as usize,
            self.pred_offsets[to.index() + 1] as usize,
        );
        if self.pred_edges[start..end].contains(&from) {
            return;
        }
        self.pred_edges.insert(end, from);
        self.pred_edges[start..=end].sort_unstable();
        for off in &mut self.pred_offsets[to.index() + 1..] {
            *off += 1;
        }
    }

    /// Number of ops added so far.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether no ops have been added.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Finalizes and validates the graph.
    ///
    /// # Errors
    ///
    /// Returns a [`GraphError`] if the graph contains a cycle, dangling ids,
    /// a channel whose endpoints are not a worker–PS pair, a communication op
    /// on a device its channel does not connect, a cost field its op's class
    /// never reads, or duplicate op names.
    pub fn build(self) -> Result<Graph, GraphError> {
        if let Some((op, field)) = self.unread_cost {
            return Err(GraphError::UnreadCost { op, field });
        }
        check_parts(
            &self.ops,
            &self.pred_edges,
            &self.pred_offsets,
            &self.devices,
            &self.channels,
            &self.params,
            &self.names,
        )?;
        let graph = self.assemble();
        crate::topo::check_acyclic(&graph)?;
        Ok(graph)
    }

    /// The graph these parts make, unchecked: [`build`](Self::build)
    /// without its validation. Every id must be in bounds, as the edge
    /// arenas are indexed by them.
    fn assemble(self) -> Graph {
        // Derive the successor and device CSRs by counting sort: both come
        // out sorted by op id, as per-op pushes would produce.
        let n = self.ops.len();
        let (pred_edges, pred_offsets) = (&self.pred_edges, &self.pred_offsets);
        let (succ_edges, succ_offsets) = csr(
            n,
            (0..n).flat_map(|i| {
                pred_edges[pred_offsets[i] as usize..pred_offsets[i + 1] as usize]
                    .iter()
                    .map(move |p| (p.index(), OpId::from_index(i)))
            }),
        );
        let (device_ops, device_offsets) = csr(
            self.devices.len(),
            self.ops
                .iter()
                .enumerate()
                .map(|(i, op)| (op.device.index(), OpId::from_index(i))),
        );

        // Canonicalize heterogeneity: an all-1.0 table IS the uniform
        // cluster, and the empty vector is its single representation —
        // uniform graphs stay byte-identical however they were built.
        let mut device_speeds = self.device_speeds;
        if device_speeds.iter().all(|&s| s == 1.0) {
            device_speeds = Vec::new();
        } else {
            device_speeds.resize(self.devices.len(), 1.0);
        }
        let mut channel_bandwidths = self.channel_bandwidths;
        if channel_bandwidths.iter().all(|&b| b == 1.0) {
            channel_bandwidths = Vec::new();
        } else {
            channel_bandwidths.resize(self.channels.len(), 1.0);
        }

        // The graph outlives the build, often in a cache: keep no spare
        // reservation in its edge arena, and no interning index.
        let mut pred_edges = self.pred_edges;
        pred_edges.shrink_to_fit();
        let mut names = self.names;
        names.finish();
        Graph {
            ops: self.ops,
            pred_edges,
            pred_offsets: self.pred_offsets,
            succ_edges,
            succ_offsets,
            device_ops,
            device_offsets,
            devices: self.devices,
            channels: self.channels,
            params: self.params,
            device_speeds,
            channel_bandwidths,
            names,
            rendered: std::sync::OnceLock::new(),
            name_index: std::sync::OnceLock::new(),
        }
    }
}

/// Groups `(bucket, op)` pairs into compressed sparse row form by counting
/// sort: bucket `b`'s ops are `edges[offsets[b]..offsets[b+1]]`, in the
/// order the iterator produced them.
fn csr(
    buckets: usize,
    pairs: impl Iterator<Item = (usize, OpId)> + Clone,
) -> (Vec<OpId>, Vec<u32>) {
    let mut offsets = vec![0u32; buckets + 1];
    for (b, _) in pairs.clone() {
        offsets[b + 1] += 1;
    }
    for b in 0..buckets {
        offsets[b + 1] += offsets[b];
    }
    let mut cursor: Vec<u32> = offsets[..buckets].to_vec();
    let mut edges = vec![OpId::from_index(0); offsets[buckets] as usize];
    for (b, op) in pairs {
        let c = &mut cursor[b];
        edges[*c as usize] = op;
        *c += 1;
    }
    (edges, offsets)
}

/// The checks [`GraphBuilder::build`] and [`Graph::check`] share, reported
/// in this order: channel endpoints, then op by op in id order its device,
/// channel, parameter, predecessors and name. (`build` reports an unread
/// cost field before all of them: a built graph cannot hold one.)
///
/// Names are compared structurally (the interner dedups raw strings, so two
/// identical string names collide here exactly as before); a raw name that
/// *renders* like a structured one is not flagged — deployment only emits
/// structured names and hand-built graphs only raw ones.
pub(crate) fn check_parts(
    ops: &[Op],
    pred_edges: &[OpId],
    pred_offsets: &[u32],
    devices: &[Device],
    channels: &[Channel],
    params: &[ParamInfo],
    names: &NameTable,
) -> Result<(), GraphError> {
    for ch in channels {
        let (worker, ps) = (ch.worker(), ch.ps());
        let endpoints_ok = devices.get(worker.index()).is_some_and(Device::is_worker)
            && devices
                .get(ps.index())
                .is_some_and(Device::is_parameter_server);
        if !endpoints_ok {
            return Err(GraphError::InvalidChannelEndpoints { worker, ps });
        }
    }
    let mut seen: HashSet<OpName, BuildHasherDefault<NameHasher>> =
        HashSet::with_capacity_and_hasher(ops.len(), BuildHasherDefault::default());
    for (i, op) in ops.iter().enumerate() {
        if op.device.index() >= devices.len() {
            return Err(GraphError::UnknownDevice(op.device));
        }
        if let Some(ch) = op.kind.channel() {
            if ch.index() >= channels.len() {
                return Err(GraphError::UnknownChannel(ch));
            }
            if !channels[ch.index()].connects(op.device) {
                return Err(GraphError::ChannelMismatch {
                    op: OpId::from_index(i),
                    device: op.device,
                    channel: ch,
                });
            }
        }
        let named = match op.name {
            OpName::Comm {
                param: CommParam::Param(p),
                ..
            } => Some(p),
            _ => None,
        };
        if let Some(p) = op
            .kind
            .param()
            .into_iter()
            .chain(named)
            .find(|p| p.index() >= params.len())
        {
            return Err(GraphError::UnknownParam(p));
        }
        let deps = &pred_edges[pred_offsets[i] as usize..pred_offsets[i + 1] as usize];
        if let Some(&pr) = deps.iter().find(|pr| pr.index() >= ops.len()) {
            return Err(GraphError::UnknownOp(pr));
        }
        if !seen.insert(op.name) {
            return Err(GraphError::DuplicateOpName(op.name.render(names, params)));
        }
    }
    Ok(())
}

/// A word-at-a-time multiplicative hasher (FxHash's mix) for the name
/// check: an [`OpName`] hashes as two to six small integers, which SipHash
/// spends most of its time on. The keys are program-made (structured fields
/// and interner indices handed out in order), so no input from outside the
/// program picks them, and SipHash's resistance to crafted collisions buys
/// nothing here.
#[derive(Default)]
struct NameHasher(u64);

impl Hasher for NameHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u8(&mut self, x: u8) {
        self.write_u64(u64::from(x));
    }

    fn write_u16(&mut self, x: u16) {
        self.write_u64(u64::from(x));
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        // The product's well-mixed bits are its high ones; the table
        // indexes by the low ones.
        self.0.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topo;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn rejects_cycles() {
        let mut b = GraphBuilder::new();
        let w = b.add_worker("w0");
        let a = b.add_op("a", w, OpKind::Compute, Cost::ZERO, &[]);
        let c = b.add_op("c", w, OpKind::Compute, Cost::ZERO, &[a]);
        b.add_dep(c, a); // close the cycle a -> c -> a
        assert!(matches!(b.build(), Err(GraphError::Cycle(_))));
    }

    #[test]
    fn rejects_duplicate_names() {
        let mut b = GraphBuilder::new();
        let w = b.add_worker("w0");
        b.add_op("x", w, OpKind::Compute, Cost::ZERO, &[]);
        b.add_op("x", w, OpKind::Compute, Cost::ZERO, &[]);
        assert_eq!(
            b.build().unwrap_err(),
            GraphError::DuplicateOpName("x".into())
        );
    }

    #[test]
    fn rejects_channel_between_two_workers() {
        let mut b = GraphBuilder::new();
        let w0 = b.add_worker("w0");
        let w1 = b.add_worker("w1");
        b.add_channel(w0, w1);
        assert!(matches!(
            b.build(),
            Err(GraphError::InvalidChannelEndpoints { .. })
        ));
    }

    #[test]
    fn rejects_comm_op_on_unconnected_device() {
        let mut b = GraphBuilder::new();
        let w0 = b.add_worker("w0");
        let w1 = b.add_worker("w1");
        let ps = b.add_parameter_server("ps0");
        let ch = b.add_channel(w0, ps);
        let p = b.add_param("p", 8);
        // recv placed on w1, but the channel connects w0 and ps.
        b.add_op("bad", w1, OpKind::recv(p, ch), Cost::bytes(8), &[]);
        assert!(matches!(b.build(), Err(GraphError::ChannelMismatch { .. })));
    }

    #[test]
    fn rejects_unknown_param() {
        let mut b = GraphBuilder::new();
        let w = b.add_worker("w0");
        let ps = b.add_parameter_server("ps0");
        let ch = b.add_channel(w, ps);
        let bogus = ParamId::from_index(5);
        b.add_op("r", w, OpKind::recv(bogus, ch), Cost::bytes(8), &[]);
        assert_eq!(b.build().unwrap_err(), GraphError::UnknownParam(bogus));

        // A name that renders a parameter names one the graph has, too.
        let mut b = GraphBuilder::new();
        let w = b.add_worker("w0");
        let name = OpName::Comm {
            role: crate::CommRole::Read,
            shard: 0,
            worker: 0,
            param: CommParam::Param(bogus),
        };
        b.add_op_named(name, w, OpKind::Compute, Cost::flops(1.0), &[]);
        assert_eq!(b.build().unwrap_err(), GraphError::UnknownParam(bogus));
    }

    #[test]
    fn rejects_a_cost_field_its_class_never_reads() {
        let mut b = GraphBuilder::new();
        let w = b.add_worker("w0");
        let ps = b.add_parameter_server("ps0");
        let ch = b.add_channel(w, ps);
        let p = b.add_param("p", 8);
        b.add_op("r", w, OpKind::recv(p, ch), Cost::bytes(8), &[]);
        let both = Cost {
            flops: 1.0,
            bytes: 8,
        };
        let s = b.add_op("s", ps, OpKind::send(p, ch), both, &[]);
        b.add_op("c", w, OpKind::Compute, both, &[]);
        let err = b.build().unwrap_err();
        assert_eq!(
            err,
            GraphError::UnreadCost {
                op: s,
                field: "flops"
            }
        );
        assert_eq!(
            err.to_string(),
            "op op1 sets flops, which its class never reads"
        );
    }

    #[test]
    fn duplicate_deps_are_collapsed() {
        let mut b = GraphBuilder::new();
        let w = b.add_worker("w0");
        let a = b.add_op("a", w, OpKind::Compute, Cost::ZERO, &[]);
        let c = b.add_op("c", w, OpKind::Compute, Cost::ZERO, &[a, a, a]);
        let g = b.build().unwrap();
        assert_eq!(g.preds(c), &[a]);
        assert_eq!(g.succs(a), &[c]);
    }

    #[test]
    fn add_dep_is_idempotent() {
        let mut b = GraphBuilder::new();
        let w = b.add_worker("w0");
        let a = b.add_op("a", w, OpKind::Compute, Cost::ZERO, &[]);
        let c = b.add_op("c", w, OpKind::Compute, Cost::ZERO, &[]);
        b.add_dep(a, c);
        b.add_dep(a, c);
        let g = b.build().unwrap();
        assert_eq!(g.preds(c), &[a]);
    }

    #[test]
    fn param_ps_assignment_is_recorded() {
        let mut b = GraphBuilder::new();
        let _w = b.add_worker("w0");
        let ps = b.add_parameter_server("ps0");
        let p = b.add_param("p", 64);
        b.assign_param_to_ps(p, ps);
        let g = b.build().unwrap();
        assert_eq!(g.param(p).ps, Some(ps));
        assert_eq!(g.param(p).bytes(), 64);
        assert_eq!(g.param(p).name(), "p");
    }

    /// A random builder graph: `n` compute and recv ops on one worker, each
    /// depending on a random subset of the earlier ones; `back` edges added
    /// afterwards with `add_dep`, each from an op to one at or before it
    /// (self-loops included); up to `renames` ops renamed after an earlier
    /// one; and up to `unread` ops whose cost sets the field their class
    /// never reads (bytes on a compute op, flops on a recv).
    struct Drawn {
        names: Vec<String>,
        preds: Vec<Vec<usize>>,
        back: Vec<(usize, usize)>,
        recv: Vec<bool>,
        unread: Vec<bool>,
    }

    impl Drawn {
        fn new(seed: u64, n: usize, back: usize, renames: usize, unread: usize) -> Self {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut names: Vec<String> = (0..n).map(|i| format!("op{i}")).collect();
            for _ in 0..renames {
                let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
                names[a.max(b)] = names[a.min(b)].clone();
            }
            let recv = (0..n).map(|_| rng.gen_range(0..3) == 0).collect();
            let mut unread_ops = vec![false; n];
            for _ in 0..unread {
                unread_ops[rng.gen_range(0..n)] = true;
            }
            let preds = (0..n)
                .map(|i| (0..i).filter(|_| rng.gen_range(0..4) == 0).collect())
                .collect();
            let back = (0..back)
                .map(|_| {
                    let to = rng.gen_range(0..n);
                    (rng.gen_range(to..n), to)
                })
                .collect();
            Self {
                names,
                preds,
                back,
                recv,
                unread: unread_ops,
            }
        }

        fn builder(&self) -> GraphBuilder {
            let mut b = GraphBuilder::new();
            let w = b.add_worker("w0");
            let ps = b.add_parameter_server("ps0");
            let ch = b.add_channel(w, ps);
            let p = b.add_param("p", 8);
            let mut ids: Vec<OpId> = Vec::new();
            for (i, (name, preds)) in self.names.iter().zip(&self.preds).enumerate() {
                let deps: Vec<OpId> = preds.iter().map(|&p| ids[p]).collect();
                // Zero in the other field; an unread cost sets it too (a
                // negative zero counts as set).
                let (kind, cost) = match (self.recv[i], self.unread[i]) {
                    (true, false) => (OpKind::recv(p, ch), Cost::bytes(8)),
                    (true, true) => (
                        OpKind::recv(p, ch),
                        Cost {
                            flops: -0.0,
                            bytes: 8,
                        },
                    ),
                    (false, false) => (OpKind::Compute, Cost::flops(2.0)),
                    (false, true) => (
                        OpKind::Compute,
                        Cost {
                            flops: 2.0,
                            bytes: 1,
                        },
                    ),
                };
                ids.push(b.add_op(name, w, kind, cost, &deps));
            }
            for &(from, to) in &self.back {
                b.add_dep(ids[from], ids[to]);
            }
            b
        }

        /// The naive acyclicity reference: remove every op whose
        /// predecessors are all removed, rescanning until nothing changes,
        /// and name the lowest-index op left.
        fn cycle(&self) -> Result<(), GraphError> {
            let n = self.names.len();
            let mut preds = self.preds.clone();
            for &(from, to) in &self.back {
                preds[to].push(from);
            }
            let mut removed = vec![false; n];
            loop {
                let ready: Vec<usize> = (0..n)
                    .filter(|&i| !removed[i] && preds[i].iter().all(|&p| removed[p]))
                    .collect();
                if ready.is_empty() {
                    break;
                }
                for i in ready {
                    removed[i] = true;
                }
            }
            match removed.iter().position(|&r| !r) {
                Some(i) => Err(GraphError::Cycle(OpId::from_index(i))),
                None => Ok(()),
            }
        }

        /// The naive reference for the whole check: the first op with an
        /// unread cost field; else the first name, in op order, that was
        /// already seen; else [`cycle`](Self::cycle).
        fn validation(&self) -> Result<(), GraphError> {
            if let Some(i) = self.unread.iter().position(|&u| u) {
                let field = if self.recv[i] { "flops" } else { "bytes" };
                let op = OpId::from_index(i);
                return Err(GraphError::UnreadCost { op, field });
            }
            for (i, name) in self.names.iter().enumerate() {
                if self.names[..i].contains(name) {
                    return Err(GraphError::DuplicateOpName(name.clone()));
                }
            }
            self.cycle()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `build`, `Graph::check`, `is_acyclic` and `topo_order` report
        /// what the naive references report, on graphs with and without
        /// back-edges, duplicate names and unread cost fields. A built
        /// graph no longer holds an unread field, so `check` sees none,
        /// and every op's cost reads back as it was given, the unread
        /// field zeroed.
        #[test]
        fn validation_errors_match_the_naive_reference(
            seed in any::<u64>(),
            n in 1usize..40,
            back in 0usize..4,
            renames in 0usize..3,
            unread in 0usize..3,
        ) {
            let drawn = Drawn::new(seed, n, back, renames, unread);
            let want = drawn.validation();
            prop_assert_eq!(drawn.builder().build().map(|_| ()), want.clone());
            let graph = drawn.builder().assemble();
            let read = Drawn { unread: vec![false; n], ..drawn };
            prop_assert_eq!(graph.check(), read.validation());
            for (id, op) in graph.ops() {
                let want = if read.recv[id.index()] { Cost::bytes(8) } else { Cost::flops(2.0) };
                prop_assert_eq!(op.cost(), want);
            }
            let drawn = read;
            prop_assert_eq!(topo::is_acyclic(&graph), drawn.cycle().is_ok());
            prop_assert_eq!(topo::topo_order(&graph).map(|_| ()), drawn.cycle());
        }
    }
}

//! Incremental, validated construction of [`Graph`]s.

use crate::device::{Channel, Device, DeviceKind};
use crate::error::GraphError;
use crate::graph::{Block, Graph, ParamInfo};
use crate::ids::{ChannelId, DeviceId, OpId, ParamId};
use crate::name::{KeySpace, Naming};
use crate::op::{Cost, Op, OpKind};

/// Builder for [`Graph`].
///
/// Ids are handed out eagerly so that later ops can depend on earlier ones;
/// [`GraphBuilder::build`] validates the result (acyclicity, id bounds,
/// channel placement, cost fields, names).
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
    /// The block being built or repeated ([`begin_block`](Self::begin_block)).
    block: Block,
    devices: Vec<Device>,
    channels: Vec<Channel>,
    params: Vec<ParamInfo>,
    /// Sparse heterogeneity overrides; normalized away at `build` when
    /// every factor is exactly `1.0`.
    device_speeds: Vec<f64>,
    channel_bandwidths: Vec<f64>,
    names: Naming,
    /// Devices registered so far of each [`DeviceKind`]: the next one's
    /// ordinal.
    per_kind: [usize; 2],
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
            block: Block::default(),
            devices: Vec::new(),
            channels: Vec::new(),
            params: Vec::new(),
            device_speeds: Vec::new(),
            channel_bandwidths: Vec::new(),
            names: Naming::default(),
            per_kind: [0; 2],
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
        let ordinal = &mut self.per_kind[kind as usize];
        self.devices
            .push(Device::new(id, kind, *ordinal as u16, name));
        *ordinal += 1;
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

    /// Names the replica's compute ops, in model order, for the ops
    /// [`add_lowered_op`](Self::add_lowered_op) adds: each worker's
    /// lowered compute ops must be as many contiguous ids, and the one at
    /// `k` past its worker's first is `w{worker}/{ops[k]}`.
    pub fn name_replica<S: AsRef<str>>(&mut self, ops: impl IntoIterator<Item = S>) {
        self.names.replica(ops);
    }

    /// Numbers the next fused group, from 0 in call order: a lowered send
    /// or recv whose parameter is one of `members` is named for the
    /// group, `fused{g}`, instead of for the parameter.
    ///
    /// # Panics
    ///
    /// Panics if a member was not created by this builder or is already
    /// in a group.
    pub fn name_fused(&mut self, members: impl IntoIterator<Item = ParamId>) {
        self.names.fuse(members, self.params.len());
    }

    /// Adds an op with an arbitrary string name and returns its id.
    ///
    /// The string is interned as the op's raw name; a deployment adds its
    /// ops with [`add_lowered_op`](Self::add_lowered_op), which stores no
    /// name at all.
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
        self.names.raw(self.len(), name.as_ref());
        self.push_op(device, kind, cost, deps)
    }

    /// Adds an op of the MR + PS lowering and returns its id. Its name is
    /// derived from where it sits and what it carries (DESIGN.md §10):
    /// `ps{s}/read/{param}`, `ps{s}/send/{param}/w{w}`,
    /// `w{w}/recv/{param}`, `w{w}/{op}` for a compute op (see
    /// [`name_replica`](Self::name_replica)), `w{w}/send_grad/{param}`,
    /// `ps{s}/recv_grad/{param}/w{w}`, `ps{s}/aggregate/{param}` and
    /// `ps{s}/update/{param}`, with `w` and `s` the devices' ordinals
    /// among the workers and the parameter servers.
    ///
    /// [`build`](Self::build) refuses a compute op on a parameter server,
    /// a read, aggregate or update on a worker, a worker whose lowered
    /// compute ops are not its replica, and two ops whose names render
    /// alike.
    pub fn add_lowered_op(
        &mut self,
        device: DeviceId,
        kind: OpKind,
        cost: Cost,
        deps: &[OpId],
    ) -> OpId {
        self.names.derived(self.len(), kind, device);
        self.push_op(device, kind, cost, deps)
    }

    /// Starts worker `worker`'s block: the ops added from here to
    /// [`repeat_block`](Self::repeat_block) are the block every worker
    /// runs a copy of (paper §2.2, DESIGN.md §10).
    pub fn begin_block(&mut self, worker: DeviceId) {
        self.block.start = self.ops.len() as u32;
        self.block.worker = worker.0;
    }

    /// Repeats the block begun by [`begin_block`](Self::begin_block) on
    /// `copies` workers, stored once: copy `w` of an op on the block's
    /// worker runs on the device `w` past it, and of an op on channel `c`
    /// over channel `c + w·channels`. Returns the ops in one copy. The
    /// next op's id follows the last copy, and a dependency on any copy of
    /// a block op is one on that op in every copy.
    ///
    /// [`build`](Self::build) refuses a block op depending on an op added
    /// after the block, and an op outside the block on one of its
    /// workers.
    ///
    /// # Panics
    ///
    /// Panics if `copies` is zero.
    pub fn repeat_block(&mut self, copies: usize, channels: usize) -> usize {
        assert!(copies > 0, "a block needs a copy");
        let (start, worker) = (self.block.start, self.block.worker);
        let len = self.ops.len() as u32 - start;
        self.block = Block::new(start, len, copies as u32, worker, channels as u32);
        self.names.repeat(worker, copies, len);
        len as usize
    }

    /// Adds an op whose name is recorded, and returns its id.
    fn push_op(&mut self, device: DeviceId, kind: OpKind, cost: Cost, deps: &[OpId]) -> OpId {
        let id = self.block.first_id(self.ops.len());
        if self.unread_cost.is_none() {
            self.unread_cost = Op::unread_field(kind, cost).map(|field| (id, field));
        }
        self.ops.push(Op::new(kind, device, cost));
        // Append, then sort + dedup the newly added range in place — no
        // per-op allocation.
        let start = self.pred_edges.len();
        let block = self.block;
        self.pred_edges.extend(deps.iter().map(|&d| block.fold(d)));
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

    /// Number of ops added so far, every copy of a repeated block
    /// counted.
    pub fn len(&self) -> usize {
        self.ops.len() + self.block.tail_shift() as usize
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
    /// never reads, a lowered op its name cannot be derived for, or two op
    /// names that render alike.
    pub fn build(self) -> Result<Graph, GraphError> {
        if let Some((op, field)) = self.unread_cost {
            return Err(GraphError::UnreadCost { op, field });
        }
        check_parts(
            &self.ops,
            &self.pred_edges,
            &self.pred_offsets,
            &self.block,
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
        // out sorted by op id, as per-op pushes would produce, and name
        // ops as the block's first copy sees them, as the preds do.
        let (n, block) = (self.ops.len(), self.block);
        let stored = |id: OpId| block.locate(id).0;
        let (pred_edges, pred_offsets) = (&self.pred_edges, &self.pred_offsets);
        let (succ_edges, succ_offsets) = csr(
            n,
            (0..n).flat_map(|i| {
                pred_edges[pred_offsets[i] as usize..pred_offsets[i + 1] as usize]
                    .iter()
                    .map(move |&p| (stored(p), block.first_id(i)))
            }),
        );
        let (device_ops, device_offsets) = csr(
            self.devices.len(),
            self.ops
                .iter()
                .enumerate()
                .map(|(i, op)| (op.device.index(), block.first_id(i))),
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
        names.finish(n + block.tail_shift() as usize, self.devices.len());
        Graph {
            ops: self.ops,
            pred_edges,
            pred_offsets: self.pred_offsets,
            succ_edges,
            succ_offsets,
            device_ops,
            device_offsets,
            block,
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
/// in this order: channel endpoints, then op by op in id order (every copy
/// of the block) its device, channel, parameter, predecessors, place and
/// name, then each worker's replica size. (`build` reports an unread cost
/// field before all of them: a built graph cannot hold one.)
///
/// The name check derives each op's name and refuses one that renders
/// like an earlier op's. It compares keys of the fields a name renders in
/// a transient dense bitset (`OpName::key`), not strings: raw names are
/// compared by interned id, so two equal strings collide. A raw name and
/// a derived one that render alike are not refused; neither is a derived
/// name whose parameter or model-op string spells another's (`fused3`,
/// `recv/x`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn check_parts(
    ops: &[Op],
    pred_edges: &[OpId],
    pred_offsets: &[u32],
    block: &Block,
    devices: &[Device],
    channels: &[Channel],
    params: &[ParamInfo],
    names: &Naming,
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
    let workers = devices.iter().filter(|d| d.is_worker()).count();
    let space = KeySpace {
        strings: names.strings.len(),
        params: params.len(),
        groups: names.groups as usize,
        workers,
        servers: devices.len() - workers,
    };
    let bounds = space.bounds();
    let mut seen: [Vec<u64>; 3] = Default::default();
    let replica = names.replica.len();
    let n = ops.len() + block.tail_shift() as usize;
    let op_at = |i: usize| {
        let (s, copy) = block.locate(OpId::from_index(i));
        (s, copy, block.moved(ops[s], copy))
    };
    // A block's workers: no shared op sits on one.
    let on_block_worker = |d: DeviceId| u32::from(d.0.wrapping_sub(block.worker)) < block.copies;
    // Lowered compute ops per device.
    let mut lowered = vec![0usize; devices.len()];
    for i in 0..n {
        let (s, copy, op) = op_at(i);
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
        if let Some(p) = op.kind.param().filter(|p| p.index() >= params.len()) {
            return Err(GraphError::UnknownParam(p));
        }
        let deps = &pred_edges[pred_offsets[s] as usize..pred_offsets[s + 1] as usize];
        // A block op's neighbours sit in its block or before it.
        let bound = match copy {
            Some(_) => (block.start + block.len) as usize,
            None => n,
        };
        if let Some(&pr) = deps.iter().find(|pr| pr.index() >= bound) {
            return Err(GraphError::UnknownOp(pr));
        }
        if copy.is_none() && block.len > 0 && on_block_worker(op.device) {
            return Err(GraphError::MisplacedOp {
                op: OpId::from_index(i),
                device: op.device,
            });
        }
        if names.is_derived(i) {
            check_lowered(i, &op, n, &|j| op_at(j).2, devices, names, &mut lowered)?;
        }
        let name = names.name(i, &op, devices, channels);
        let (segment, key) = name.key(&space);
        let bits = &mut seen[segment];
        if bits.is_empty() {
            *bits = vec![0; bounds[segment].div_ceil(64)];
        }
        let (word, bit) = (key / 64, 1u64 << (key % 64));
        if bits[word] & bit != 0 {
            return Err(GraphError::DuplicateOpName(
                name.render(&names.strings, params),
            ));
        }
        bits[word] |= bit;
    }
    match devices
        .iter()
        .zip(lowered)
        .find(|(device, compute_ops)| device.is_worker() && *compute_ops != replica)
    {
        Some((device, compute_ops)) => Err(GraphError::ReplicaLayout {
            device: device.id(),
            compute_ops,
            model_ops: replica,
        }),
        None => Ok(()),
    }
}

/// Refuses lowered op `i`, `op`, where its name cannot be derived: a
/// compute op off a worker or past its worker's replica, a read,
/// aggregate or update off a parameter server. Counts a compute op in
/// `lowered`, per device. `op_at` reads any of the graph's `n` ops.
fn check_lowered(
    i: usize,
    op: &Op,
    n: usize,
    op_at: &dyn Fn(usize) -> Op,
    devices: &[Device],
    names: &Naming,
    lowered: &mut [usize],
) -> Result<(), GraphError> {
    let device = &devices[op.device.index()];
    let placed = match op.kind {
        OpKind::Compute => device.is_worker(),
        OpKind::Read { .. } | OpKind::Aggregate { .. } | OpKind::Update { .. } => {
            device.is_parameter_server()
        }
        OpKind::Send { .. } | OpKind::Recv { .. } => true,
    };
    if !placed {
        return Err(GraphError::MisplacedOp {
            op: OpId::from_index(i),
            device: op.device,
        });
    }
    if op.kind != OpKind::Compute {
        return Ok(());
    }
    let d = op.device.index();
    lowered[d] += 1;
    if i.wrapping_sub(names.bases[d] as usize) >= names.replica.len() {
        // Off the contiguous run its first compute op starts: report
        // how many the worker holds.
        let compute_ops = (0..n)
            .filter(|&j| {
                let other = op_at(j);
                names.is_derived(j) && other.kind == OpKind::Compute && other.device == op.device
            })
            .count();
        return Err(GraphError::ReplicaLayout {
            device: op.device,
            compute_ops,
            model_ops: names.replica.len(),
        });
    }
    Ok(())
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
        assert_eq!(g.preds(c).collect::<Vec<_>>(), [a]);
        assert_eq!(g.succs(a).collect::<Vec<_>>(), [c]);
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
        assert_eq!(g.preds(c).collect::<Vec<_>>(), [a]);
    }

    /// A deployment-shaped builder, as `deploy` lowers a one-op replica
    /// (`fwd`) of a one-parameter model (`fc/weights`) onto `workers`
    /// workers and `servers` parameter servers: the read on PS 0, then per
    /// worker the send and recv over its channel to PS 0 and the compute
    /// op. Returns the builder, the workers, the PSes, each worker's
    /// channels and the parameter.
    #[allow(clippy::type_complexity)]
    fn lowered(
        workers: usize,
        servers: usize,
    ) -> (
        GraphBuilder,
        Vec<DeviceId>,
        Vec<DeviceId>,
        Vec<Vec<ChannelId>>,
        ParamId,
    ) {
        let mut b = GraphBuilder::new();
        let w: Vec<DeviceId> = (0..workers)
            .map(|i| b.add_worker(format!("worker/{i}")))
            .collect();
        let ps: Vec<DeviceId> = (0..servers)
            .map(|s| b.add_parameter_server(format!("ps/{s}")))
            .collect();
        let ch: Vec<Vec<ChannelId>> = w
            .iter()
            .map(|&w| ps.iter().map(|&s| b.add_channel(w, s)).collect())
            .collect();
        let p = b.add_param("fc/weights", 8);
        b.name_replica(["fwd"]);
        let read = b.add_lowered_op(ps[0], OpKind::Read { param: p }, Cost::flops(1.0), &[]);
        for (i, &worker) in w.iter().enumerate() {
            let send = b.add_lowered_op(ps[0], OpKind::send(p, ch[i][0]), Cost::bytes(8), &[read]);
            let recv = b.add_lowered_op(worker, OpKind::recv(p, ch[i][0]), Cost::bytes(8), &[send]);
            b.add_lowered_op(worker, OpKind::Compute, Cost::flops(1.0), &[recv]);
        }
        (b, w, ps, ch, p)
    }

    /// A lowering bug that emits one send twice on a channel is refused
    /// with the name both copies render, the text the check printed when
    /// ops stored their names. So is one that names two ops alike
    /// through a field the name does not render: worker 0 receiving the
    /// parameter over both its channels (`w0/recv/…` says no shard).
    #[test]
    fn a_lowered_op_emitted_twice_is_refused_by_its_rendered_name() {
        let (b, ..) = lowered(2, 1);
        let g = b.build().unwrap();
        let names: Vec<&str> = g.op_ids().map(|id| g.op_name(id)).collect();
        assert_eq!(
            names,
            [
                "ps0/read/fc/weights",
                "ps0/send/fc/weights/w0",
                "w0/recv/fc/weights",
                "w0/fwd",
                "ps0/send/fc/weights/w1",
                "w1/recv/fc/weights",
                "w1/fwd",
            ]
        );

        let (mut b, _, ps, ch, p) = lowered(2, 1);
        b.add_lowered_op(ps[0], OpKind::send(p, ch[1][0]), Cost::bytes(8), &[]);
        let err = b.build().unwrap_err();
        assert_eq!(
            err,
            GraphError::DuplicateOpName("ps0/send/fc/weights/w1".into())
        );
        assert_eq!(
            err.to_string(),
            "duplicate op name `ps0/send/fc/weights/w1`"
        );

        let (mut b, w, _, ch, p) = lowered(1, 2);
        b.add_lowered_op(w[0], OpKind::recv(p, ch[0][1]), Cost::bytes(8), &[]);
        assert_eq!(
            b.build().unwrap_err(),
            GraphError::DuplicateOpName("w0/recv/fc/weights".into())
        );
    }

    /// One worker and one PS with a two-op replica (`fwd`, `bwd`) and the
    /// worker's lowered ops in `order`: `c` a compute op, `r` a recv.
    fn replica(order: &str) -> Result<Graph, GraphError> {
        let mut b = GraphBuilder::new();
        let w = b.add_worker("worker/0");
        let ps = b.add_parameter_server("ps/0");
        let ch = b.add_channel(w, ps);
        b.name_replica(["fwd", "bwd"]);
        for (i, op) in order.chars().enumerate() {
            let p = b.add_param(format!("p{i}"), 8);
            match op {
                'c' => b.add_lowered_op(w, OpKind::Compute, Cost::flops(1.0), &[]),
                _ => b.add_lowered_op(w, OpKind::recv(p, ch), Cost::bytes(8), &[]),
            };
        }
        b.build()
    }

    /// A worker whose lowered compute ops are not one contiguous run of
    /// the replica's, in number or in place, is refused at `build` with
    /// a typed error — not misnamed, and not a panic; so is a lowered op
    /// whose name its device cannot say.
    #[test]
    fn a_worker_whose_compute_ops_are_not_its_replica_is_refused() {
        let g = replica("rcc").unwrap();
        let names: Vec<&str> = g.op_ids().map(|id| g.op_name(id)).collect();
        assert_eq!(names, ["w0/recv/p0", "w0/fwd", "w0/bwd"]);
        let w = DeviceId::from_index(0);
        for (order, compute_ops) in [("crc", 2), ("rc", 1), ("rccc", 3), ("r", 0)] {
            let err = replica(order).unwrap_err();
            assert_eq!(
                err,
                GraphError::ReplicaLayout {
                    device: w,
                    compute_ops,
                    model_ops: 2
                },
                "{order}"
            );
            assert_eq!(
                err.to_string(),
                format!(
                    "worker dev0 holds {compute_ops} lowered compute ops where its replica \
                     is 2 contiguous ones"
                )
            );
        }

        let (mut b, _, ps, ..) = lowered(1, 1);
        let misplaced = b.add_lowered_op(ps[0], OpKind::Compute, Cost::flops(1.0), &[]);
        assert_eq!(
            b.build().unwrap_err(),
            GraphError::MisplacedOp {
                op: misplaced,
                device: ps[0]
            }
        );
        let (mut b, w, _, _, p) = lowered(1, 1);
        let misplaced = b.add_lowered_op(w[0], OpKind::Update { param: p }, Cost::ZERO, &[]);
        assert_eq!(
            b.build().unwrap_err(),
            GraphError::MisplacedOp {
                op: misplaced,
                device: w[0]
            }
        );
    }

    /// Fused groups number from 0 in call order, and a lowered send or
    /// recv of any member is named for its group; reads stay per
    /// parameter.
    #[test]
    fn a_fused_member_is_named_for_its_group() {
        let mut b = GraphBuilder::new();
        let w = b.add_worker("worker/0");
        let ps = b.add_parameter_server("ps/0");
        let ch = b.add_channel(w, ps);
        let p: Vec<ParamId> = (0..4).map(|i| b.add_param(format!("p{i}"), 8)).collect();
        b.name_fused([p[1], p[2]]);
        b.name_fused([p[0], p[3]]);
        for &param in &p {
            b.add_lowered_op(ps, OpKind::Read { param }, Cost::ZERO, &[]);
        }
        b.add_lowered_op(ps, OpKind::send(p[1], ch), Cost::bytes(8), &[]);
        b.add_lowered_op(w, OpKind::recv(p[3], ch), Cost::bytes(8), &[]);
        b.add_lowered_op(w, OpKind::send(p[2], ch), Cost::bytes(8), &[]);
        let g = b.build().unwrap();
        let names: Vec<&str> = g.op_ids().map(|id| g.op_name(id)).collect();
        assert_eq!(
            names,
            [
                "ps0/read/p0",
                "ps0/read/p1",
                "ps0/read/p2",
                "ps0/read/p3",
                "ps0/send/fused0/w0",
                "w0/recv/fused1",
                "w0/send_grad/fused0",
            ]
        );
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

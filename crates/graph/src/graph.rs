//! The partitioned computational graph arena.

use crate::device::{Channel, Device, Resource};
use crate::ids::{ChannelId, DeviceId, OpId, ParamId};
use crate::name::NameTable;
use crate::op::Op;

/// Metadata about one model parameter (a trainable tensor).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamInfo {
    pub(crate) name: String,
    pub(crate) bytes: u64,
    pub(crate) ps: Option<DeviceId>,
}

impl ParamInfo {
    /// The parameter's name (e.g. `"conv1/weights"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The parameter's size in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

/// An immutable, validated, partitioned computational DAG.
///
/// Construct with [`GraphBuilder`](crate::GraphBuilder). Ops are stored in an
/// arena indexed by [`OpId`]; dependency edges are stored in compressed
/// sparse row form — one flat edge arena plus an offset table per
/// direction — so building and cloning a graph costs a handful of
/// allocations, not two per op. A third arena of the same shape maps each
/// device to the ops placed on it, so per-device walks cost the ops they
/// visit, not the whole graph.
#[derive(Debug, Clone)]
pub struct Graph {
    pub(crate) ops: Vec<Op>,
    /// Predecessors of op `i`: `pred_edges[pred_offsets[i]..pred_offsets[i+1]]`.
    pub(crate) pred_edges: Vec<OpId>,
    pub(crate) pred_offsets: Vec<u32>,
    /// Successors of op `i`: `succ_edges[succ_offsets[i]..succ_offsets[i+1]]`.
    pub(crate) succ_edges: Vec<OpId>,
    pub(crate) succ_offsets: Vec<u32>,
    /// Ops placed on device `d`, in id order:
    /// `device_ops[device_offsets[d]..device_offsets[d+1]]`.
    pub(crate) device_ops: Vec<OpId>,
    pub(crate) device_offsets: Vec<u32>,
    pub(crate) devices: Vec<Device>,
    pub(crate) channels: Vec<Channel>,
    pub(crate) params: Vec<ParamInfo>,
    /// Relative device speed factors, one per device (empty = uniform).
    ///
    /// A factor of `2.0` means the device computes twice as fast as the
    /// platform reference; `0.5` means half speed. The empty vector is the
    /// canonical encoding of a uniform cluster, so homogeneous graphs are
    /// bit-for-bit identical to graphs built before heterogeneity existed.
    pub(crate) device_speeds: Vec<f64>,
    /// Relative channel bandwidth factors, one per channel (empty =
    /// uniform). `2.0` = twice the platform bandwidth, `0.5` = half.
    pub(crate) channel_bandwidths: Vec<f64>,
    /// Interned strings referenced by the ops' [`OpName`](crate::OpName)s.
    pub(crate) names: NameTable,
    /// Lazily-rendered display names, one per op (see [`Graph::op_name`]).
    pub(crate) rendered: std::sync::OnceLock<Vec<String>>,
    /// Lazily-built name → id index backing [`Graph::find_op`].
    pub(crate) name_index: std::sync::OnceLock<std::collections::HashMap<String, OpId>>,
}

impl Graph {
    /// Number of ops in the graph.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the graph has no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The op with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds for this graph.
    pub fn op(&self, id: OpId) -> &Op {
        &self.ops[id.index()]
    }

    /// Iterates over all op ids in insertion order.
    pub fn op_ids(&self) -> impl Iterator<Item = OpId> + '_ {
        (0..self.ops.len()).map(OpId::from_index)
    }

    /// Iterates over `(id, op)` pairs.
    pub fn ops(&self) -> impl Iterator<Item = (OpId, &Op)> {
        self.ops
            .iter()
            .enumerate()
            .map(|(i, op)| (OpId::from_index(i), op))
    }

    /// Direct predecessors (dependencies) of `id`.
    #[inline]
    pub fn preds(&self, id: OpId) -> &[OpId] {
        let i = id.index();
        &self.pred_edges[self.pred_offsets[i] as usize..self.pred_offsets[i + 1] as usize]
    }

    /// Direct successors (dependents) of `id`.
    #[inline]
    pub fn succs(&self, id: OpId) -> &[OpId] {
        let i = id.index();
        &self.succ_edges[self.succ_offsets[i] as usize..self.succ_offsets[i + 1] as usize]
    }

    /// Ops with no predecessors.
    pub fn roots(&self) -> impl Iterator<Item = OpId> + '_ {
        self.op_ids().filter(|id| self.preds(*id).is_empty())
    }

    /// All devices.
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// The device with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn device(&self, id: DeviceId) -> &Device {
        &self.devices[id.index()]
    }

    /// Ids of all worker devices, in id order.
    pub fn workers(&self) -> impl Iterator<Item = DeviceId> + '_ {
        self.devices
            .iter()
            .filter(|d| d.is_worker())
            .map(|d| d.id())
    }

    /// Ids of all parameter-server devices, in id order.
    pub fn parameter_servers(&self) -> impl Iterator<Item = DeviceId> + '_ {
        self.devices
            .iter()
            .filter(|d| d.is_parameter_server())
            .map(|d| d.id())
    }

    /// All channels.
    pub fn channels(&self) -> &[Channel] {
        &self.channels
    }

    /// The channel with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn channel(&self, id: ChannelId) -> &Channel {
        &self.channels[id.index()]
    }

    /// The relative speed factor of `id` (`1.0` = platform reference).
    ///
    /// Uniform graphs store no side table and always answer `1.0`, so the
    /// homogeneous fast path stays branch-predictable and byte-identical.
    pub fn device_speed(&self, id: DeviceId) -> f64 {
        self.device_speeds.get(id.index()).copied().unwrap_or(1.0)
    }

    /// The relative bandwidth factor of channel `id` (`1.0` = platform
    /// reference bandwidth).
    pub fn channel_bandwidth(&self, id: ChannelId) -> f64 {
        self.channel_bandwidths
            .get(id.index())
            .copied()
            .unwrap_or(1.0)
    }

    /// All parameters.
    pub fn params(&self) -> &[ParamInfo] {
        &self.params
    }

    /// The parameter with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn param(&self, id: ParamId) -> &ParamInfo {
        &self.params[id.index()]
    }

    /// The resource an op executes on: communication ops run on their
    /// channel, every other op on its device's compute unit.
    pub fn resource(&self, id: OpId) -> Resource {
        let op = self.op(id);
        match op.kind().channel() {
            Some(ch) => Resource::Channel(ch),
            None => Resource::Compute(op.device()),
        }
    }

    /// All distinct resources referenced by the graph, sorted.
    pub fn resources(&self) -> Vec<Resource> {
        let mut out: Vec<Resource> = self.op_ids().map(|id| self.resource(id)).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Ids of ops placed on `device`, in id order, as a slice of the
    /// device index (empty for a device the graph does not have).
    pub fn device_ops(&self, device: DeviceId) -> &[OpId] {
        let d = device.index();
        match self.device_offsets.get(d..d + 2) {
            Some(&[start, end]) => &self.device_ops[start as usize..end as usize],
            _ => &[],
        }
    }

    /// Ids of ops placed on `device`, in id order.
    pub fn ops_on(&self, device: DeviceId) -> impl Iterator<Item = OpId> + '_ {
        self.device_ops(device).iter().copied()
    }

    /// Ids of `recv` ops placed on `device`, in id order.
    ///
    /// On a worker these are the parameter transfers that TicTac schedules
    /// (they are roots of the worker partition).
    pub fn recv_ops_on(&self, device: DeviceId) -> Vec<OpId> {
        self.ops_on(device)
            .filter(|id| self.op(*id).is_recv())
            .collect()
    }

    /// Ids of all `recv` ops in the graph.
    pub fn recv_ops(&self) -> Vec<OpId> {
        self.ops()
            .filter(|(_, op)| op.is_recv())
            .map(|(id, _)| id)
            .collect()
    }

    /// Rendered display names for every op, in id order.
    ///
    /// Built lazily on first use: deployment stores only compact
    /// [`OpName`](crate::OpName)s, so graphs that are simulated or
    /// scheduled but never printed pay nothing for their names.
    pub(crate) fn rendered_names(&self) -> &[String] {
        self.rendered.get_or_init(|| {
            self.ops
                .iter()
                .map(|op| op.name.render(&self.names, &self.params))
                .collect()
        })
    }

    /// The rendered display name of an op (e.g. `"ps0/send/fc/weights/w1"`).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn op_name(&self, id: OpId) -> &str {
        &self.rendered_names()[id.index()]
    }

    /// Looks up an op by rendered name.
    ///
    /// O(1) after the first call: the index over all op names is built
    /// lazily and cached. Duplicate names resolve to the earliest op, like
    /// the linear scan this replaced.
    pub fn find_op(&self, name: &str) -> Option<OpId> {
        self.name_index
            .get_or_init(|| {
                let mut index = std::collections::HashMap::with_capacity(self.ops.len());
                for (i, rendered) in self.rendered_names().iter().enumerate() {
                    index.entry(rendered.clone()).or_insert(OpId::from_index(i));
                }
                index
            })
            .get(name)
            .copied()
    }

    /// The channel connecting `worker` and `ps`, if one exists.
    pub fn channel_between(&self, worker: DeviceId, ps: DeviceId) -> Option<ChannelId> {
        self.channels
            .iter()
            .find(|c| c.worker() == worker && c.ps() == ps)
            .map(|c| c.id())
    }

    /// Counts ops by a predicate — convenience for statistics.
    pub fn count_ops(&self, mut pred: impl FnMut(&Op) -> bool) -> usize {
        self.ops.iter().filter(|op| pred(op)).count()
    }

    /// Verifies what [`GraphBuilder::build`](crate::GraphBuilder::build)
    /// checks, in the same order: channel endpoints, ids in bounds, channel
    /// placement, name uniqueness, acyclicity (debug aid; builder-validated
    /// graphs always pass).
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as a [`GraphError`], the one
    /// `build` reports.
    ///
    /// [`GraphError`]: crate::GraphError
    pub fn check(&self) -> Result<(), crate::GraphError> {
        crate::builder::check_parts(
            &self.ops,
            &self.pred_edges,
            &self.pred_offsets,
            &self.devices,
            &self.channels,
            &self.params,
            &self.names,
        )?;
        crate::topo::check_acyclic(self)
    }
}

#[cfg(test)]
mod tests {
    use crate::{Cost, GraphBuilder, OpKind, Resource};

    #[test]
    fn figure_1a_graph_shape() {
        // The toy graph from Figure 1a of the paper.
        let mut b = GraphBuilder::new();
        let w = b.add_worker("worker/0");
        let ps = b.add_parameter_server("ps/0");
        let ch = b.add_channel(w, ps);
        let p1 = b.add_param("w1", 100);
        let p2 = b.add_param("w2", 100);
        let r1 = b.add_op("recv1", w, OpKind::recv(p1, ch), Cost::bytes(100), &[]);
        let r2 = b.add_op("recv2", w, OpKind::recv(p2, ch), Cost::bytes(100), &[]);
        let op1 = b.add_op("op1", w, OpKind::Compute, Cost::flops(10.0), &[r1]);
        let op2 = b.add_op("op2", w, OpKind::Compute, Cost::flops(10.0), &[op1, r2]);
        let g = b.build().unwrap();

        assert_eq!(g.len(), 4);
        assert_eq!(g.roots().collect::<Vec<_>>(), vec![r1, r2]);
        assert_eq!(g.preds(op2), &[r2, op1]); // builder sorts deps by id
        assert_eq!(g.succs(r1), &[op1]);
        assert_eq!(g.recv_ops_on(w), vec![r1, r2]);
        assert_eq!(g.device_ops(w), &[r1, r2, op1, op2]);
        assert!(g.device_ops(ps).is_empty());
        assert_eq!(g.resource(r1), Resource::Channel(ch));
        assert_eq!(g.resource(op1), Resource::Compute(w));
        assert!(g.check().is_ok());
    }

    #[test]
    fn resources_are_deduped_and_sorted() {
        let mut b = GraphBuilder::new();
        let w = b.add_worker("worker/0");
        let ps = b.add_parameter_server("ps/0");
        let ch = b.add_channel(w, ps);
        let p = b.add_param("w", 8);
        b.add_op("r", w, OpKind::recv(p, ch), Cost::bytes(8), &[]);
        b.add_op("c1", w, OpKind::Compute, Cost::flops(1.0), &[]);
        b.add_op("c2", w, OpKind::Compute, Cost::flops(1.0), &[]);
        let g = b.build().unwrap();
        let res = g.resources();
        assert_eq!(res.len(), 2);
    }

    #[test]
    fn find_op_by_name() {
        let mut b = GraphBuilder::new();
        let w = b.add_worker("worker/0");
        let id = b.add_op("unique", w, OpKind::Compute, Cost::ZERO, &[]);
        let g = b.build().unwrap();
        assert_eq!(g.find_op("unique"), Some(id));
        assert_eq!(g.find_op("missing"), None);
    }
}

//! The partitioned computational graph arena.

use crate::device::{Channel, Device, Resource};
use crate::ids::{ChannelId, DeviceId, OpId, ParamId};
use crate::name::{Naming, OpName};
use crate::op::{Op, OpKind};

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
/// Construct with [`GraphBuilder`](crate::GraphBuilder). A graph stores
/// each op once, in an arena, with its dependency edges in compressed
/// sparse row form — one flat edge arena plus an offset table per
/// direction — and a third arena of the same shape mapping each device
/// to its ops, so per-device walks cost the ops they visit.
///
/// A Model-Replica deployment runs one identical block of ops on every
/// worker (paper §2.2), and the graph stores that block once (DESIGN.md
/// §10): op id `R + w·B + i` is op `i` of worker `w`'s copy, after `R`
/// shared ops and before the shared ops that follow the `W` copies. The
/// accessors decode an id by arithmetic, so an op is a value
/// ([`op`](Self::op)) and its neighbours an iterator
/// ([`preds`](Self::preds)). A hand-built graph has an empty block:
/// every op is shared.
#[derive(Debug, Clone)]
pub struct Graph {
    /// The shared ops before the block, the first copy of the block, and
    /// the shared ops after it.
    pub(crate) ops: Vec<Op>,
    /// Predecessors of stored op `s`:
    /// `pred_edges[pred_offsets[s]..pred_offsets[s+1]]`, as the first
    /// copy sees them ([`Block`]).
    pub(crate) pred_edges: Vec<OpId>,
    pub(crate) pred_offsets: Vec<u32>,
    /// Successors of stored op `s`, the same way.
    pub(crate) succ_edges: Vec<OpId>,
    pub(crate) succ_offsets: Vec<u32>,
    /// Stored ops placed on device `d`, in id order, the same way (a
    /// later copy's worker has none of its own):
    /// `device_ops[device_offsets[d]..device_offsets[d+1]]`.
    pub(crate) device_ops: Vec<OpId>,
    pub(crate) device_offsets: Vec<u32>,
    /// Where the repeated block sits.
    pub(crate) block: Block,
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
    /// What the ops' names are derived from, and a hand-built graph's
    /// raw names (DESIGN.md §10).
    pub(crate) names: Naming,
    /// Lazily-rendered display names, one per op (see [`Graph::op_name`]).
    pub(crate) rendered: std::sync::OnceLock<Vec<String>>,
    /// Lazily-built name → id index backing [`Graph::find_op`].
    pub(crate) name_index: std::sync::OnceLock<std::collections::HashMap<String, OpId>>,
}

/// Where a graph's repeated block sits: `copies` copies of `len` ops from
/// id `start`, copy `w` worker `w`'s.
///
/// Stored edges and device lists name ops as the first copy sees them:
/// an op of the block by its first copy's id, a shared op by its id. So
/// a block op's neighbour in the block moves `w·len` on in copy `w`, and
/// a shared op's neighbour in the block stands for that op in every copy.
/// Copy `w` of an op on device `worker` runs on device `worker + w`, and
/// of an op on channel `c` over channel `c + w·channels`. The default is
/// the empty block of a hand-built graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Block {
    pub(crate) start: u32,
    pub(crate) len: u32,
    pub(crate) copies: u32,
    pub(crate) worker: u16,
    pub(crate) channels: u32,
    /// `len · copies`: the ids the copies take.
    span: u32,
    /// `⌈2^64 / len⌉`, so that `k / len` is one multiply ([`div`](Self::div)).
    magic: u64,
}

impl Default for Block {
    fn default() -> Self {
        Self::new(0, 0, 1, 0, 0)
    }
}

impl Block {
    /// How far the shared ops after the block sit past their stored
    /// index: the copies after the first.
    pub(crate) fn tail_shift(&self) -> u32 {
        self.span - self.len
    }

    /// A block of `len` ops from `start`, repeated `copies` times.
    pub(crate) fn new(start: u32, len: u32, copies: u32, worker: u16, channels: u32) -> Self {
        let magic = match len {
            0 | 1 => 0,
            len => u64::MAX / u64::from(len) + 1,
        };
        Self {
            start,
            len,
            copies,
            worker,
            channels,
            span: len * copies,
            magic,
        }
    }

    /// `k / len` and `k % len` for a `k` in the copies, by a multiply
    /// (Lemire's exact 32-bit division) instead of a divide: the engine
    /// decodes an id per completed op.
    #[inline]
    fn div(&self, k: u32) -> (u32, u32) {
        if self.len == 1 {
            return (k, 0);
        }
        let w = ((u128::from(self.magic) * u128::from(k)) >> 64) as u32;
        (w, k - w * self.len)
    }

    /// Op `id`'s stored index, and the copy it is of (`None` for a shared
    /// op).
    #[inline]
    pub(crate) fn locate(&self, id: OpId) -> (usize, Option<u32>) {
        let k = id.0.wrapping_sub(self.start);
        if k < self.span {
            let (w, i) = self.div(k);
            ((self.start + i) as usize, Some(w))
        } else if id.0 < self.start {
            (id.index(), None)
        } else {
            ((id.0 - self.tail_shift()) as usize, None)
        }
    }

    /// The id the first copy sees stored op `s` at.
    pub(crate) fn first_id(&self, s: usize) -> OpId {
        let s = s as u32;
        OpId(if s < self.start + self.len {
            s
        } else {
            s + self.tail_shift()
        })
    }

    /// Id `id` as the first copy sees it: a later copy's op folds onto the
    /// first copy's.
    pub(crate) fn fold(&self, id: OpId) -> OpId {
        self.first_id(self.locate(id).0)
    }

    /// Stored op `op` in copy `copy` (a shared op in none): its device and
    /// channel moved to that copy's worker.
    #[inline]
    pub(crate) fn moved(&self, mut op: Op, copy: Option<u32>) -> Op {
        let Some(w) = copy.filter(|&w| w > 0) else {
            return op;
        };
        if op.device.0 == self.worker {
            op.device.0 += w as u16;
        }
        if let OpKind::Send { channel, .. } | OpKind::Recv { channel, .. } = &mut op.kind {
            channel.0 += w * self.channels;
        }
        op
    }

    /// The ids a stored list names in copy `copy`, or, for a shared op's
    /// list (`None`), in every copy.
    #[inline]
    pub(crate) fn ids<'g>(&self, list: &'g [OpId], copy: Option<u32>) -> OpIds<'g> {
        let (shift, last, run) = match copy {
            Some(w) => (w * self.len, w * self.len, 0),
            None => (
                0,
                self.tail_shift(),
                list.partition_point(|id| id.0 < self.start),
            ),
        };
        OpIds {
            list,
            at: 0,
            start: self.start,
            len: self.len,
            shift,
            last,
            run,
        }
    }
}

/// Op ids a graph stores once for every copy of its block, in id order:
/// an op's predecessors or successors, or a device's ops (see
/// [`Graph::preds`]).
#[derive(Debug, Clone)]
pub(crate) struct OpIds<'g> {
    list: &'g [OpId],
    at: usize,
    start: u32,
    len: u32,
    /// Added to a block op's id: the copy being listed, times `len`.
    shift: u32,
    /// The last copy's shift.
    last: u32,
    /// Where the list's block ops begin: a shared op's list runs them
    /// again for each copy.
    run: usize,
}

impl Iterator for OpIds<'_> {
    type Item = OpId;

    #[inline]
    fn next(&mut self) -> Option<OpId> {
        let &id = self.list.get(self.at)?;
        self.at += 1;
        let held = |id: OpId| id.0.wrapping_sub(self.start) < self.len;
        if !held(id) {
            return Some(id);
        }
        let out = OpId(id.0 + self.shift);
        if self.shift < self.last && !self.list.get(self.at).is_some_and(|&n| held(n)) {
            self.shift += self.len;
            self.at = self.run;
        }
        Some(out)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.left();
        (n, Some(n))
    }

    fn count(self) -> usize {
        self.left()
    }
}

impl OpIds<'_> {
    /// How many ids are left: the rest of the list, and its block ops
    /// once more for each copy after the one being listed.
    fn left(&self) -> usize {
        let rest = self.list.len() - self.at;
        if self.shift >= self.last {
            return rest;
        }
        let block = self.list[self.run..].partition_point(|id| id.0 < self.start + self.len);
        rest + block * ((self.last - self.shift) / self.len) as usize
    }
}

/// A graph's ops in id order ([`Graph::ops`]), walked part by part: the
/// shared ops before the block, each copy of the block, the shared ops
/// after it.
struct Ops<'g> {
    graph: &'g Graph,
    /// The next op's id.
    id: u32,
    /// The part `ops` walks: 0 before the block, copy `w` at `w + 1`.
    part: u32,
    ops: std::slice::Iter<'g, Op>,
}

impl Iterator for Ops<'_> {
    type Item = (OpId, Op);

    #[inline]
    fn next(&mut self) -> Option<(OpId, Op)> {
        let b = &self.graph.block;
        loop {
            if let Some(&op) = self.ops.next() {
                let id = OpId(self.id);
                self.id += 1;
                let copy = (1..=b.copies).contains(&self.part).then(|| self.part - 1);
                return Some((id, b.moved(op, copy)));
            }
            if self.part > b.copies {
                return None;
            }
            self.part += 1;
            let (start, end) = (b.start as usize, (b.start + b.len) as usize);
            let part = if self.part <= b.copies {
                start..end
            } else {
                end..self.graph.ops.len()
            };
            self.ops = self.graph.ops[part].iter();
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.graph.len() - self.id as usize;
        (n, Some(n))
    }
}

impl Graph {
    /// Number of ops in the graph.
    pub fn len(&self) -> usize {
        self.ops.len() + self.block.tail_shift() as usize
    }

    /// Whether the graph has no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The op with the given id: its stored op, moved to its copy's
    /// worker.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds for this graph.
    #[inline]
    pub fn op(&self, id: OpId) -> Op {
        let (s, copy) = self.block.locate(id);
        self.block.moved(self.ops[s], copy)
    }

    /// Iterates over all op ids in insertion order.
    pub fn op_ids(&self) -> impl Iterator<Item = OpId> + '_ {
        (0..self.len()).map(OpId::from_index)
    }

    /// Iterates over `(id, op)` pairs, in id order: the stored ops, each
    /// copy of the block moved to its worker, with no id decoded.
    #[inline]
    pub fn ops(&self) -> impl Iterator<Item = (OpId, Op)> + '_ {
        Ops {
            graph: self,
            id: 0,
            part: 0,
            ops: self.ops[..self.block.start as usize].iter(),
        }
    }

    /// Direct predecessors (dependencies) of `id`, in id order.
    #[inline]
    pub fn preds(&self, id: OpId) -> impl Iterator<Item = OpId> + Clone + '_ {
        let (s, copy) = self.block.locate(id);
        let list =
            &self.pred_edges[self.pred_offsets[s] as usize..self.pred_offsets[s + 1] as usize];
        self.block.ids(list, copy)
    }

    /// Direct successors (dependents) of `id`, in id order.
    #[inline]
    pub fn succs(&self, id: OpId) -> impl Iterator<Item = OpId> + Clone + '_ {
        let (s, copy) = self.block.locate(id);
        let list =
            &self.succ_edges[self.succ_offsets[s] as usize..self.succ_offsets[s + 1] as usize];
        self.block.ids(list, copy)
    }

    /// Ops with no predecessors.
    pub fn roots(&self) -> impl Iterator<Item = OpId> + '_ {
        self.op_ids().filter(|id| self.preds(*id).next().is_none())
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
    #[inline]
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

    /// Ids of ops placed on `device`, in id order (none for a device the
    /// graph does not have). A later copy's worker lists the first
    /// copy's worker's ops, moved to its copy.
    pub fn ops_on(&self, device: DeviceId) -> impl Iterator<Item = OpId> + '_ {
        let b = &self.block;
        let copy = u32::from(device.0.wrapping_sub(b.worker));
        let (d, copy) = if b.len > 0 && copy < b.copies {
            (usize::from(b.worker), Some(copy))
        } else {
            (device.index(), None)
        };
        let list = match self.device_offsets.get(d..d + 2) {
            Some(&[start, end]) => &self.device_ops[start as usize..end as usize],
            _ => &[],
        };
        b.ids(list, copy)
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

    /// Op `id`'s structured name, derived from where it sits (DESIGN.md
    /// §10).
    fn name(&self, id: OpId) -> OpName {
        self.names
            .name(id.index(), &self.op(id), &self.devices, &self.channels)
    }

    /// Rendered display names for every op, in id order.
    ///
    /// Built lazily on first use: ops store no names, so graphs that are
    /// simulated or scheduled but never printed pay nothing for them.
    pub(crate) fn rendered_names(&self) -> &[String] {
        self.rendered.get_or_init(|| {
            self.op_ids()
                .map(|id| self.name(id).render(&self.names.strings, &self.params))
                .collect()
        })
    }

    /// Appends op `id`'s display name to `out`, as
    /// [`op_name`](Self::op_name) spells it, without filling its cache:
    /// table lookups and a copy.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn write_op_name(&self, id: OpId, out: &mut String) {
        self.name(id).write(&self.names.strings, &self.params, out);
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
                let mut index = std::collections::HashMap::with_capacity(self.len());
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
        self.ops().filter(|(_, op)| pred(op)).count()
    }

    /// Verifies what [`GraphBuilder::build`](crate::GraphBuilder::build)
    /// checks, in the same order: channel endpoints, ids in bounds, channel
    /// placement, names, the replicas, acyclicity (debug aid;
    /// builder-validated graphs always pass).
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
            &self.block,
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
        assert_eq!(g.preds(op2).collect::<Vec<_>>(), [r2, op1]); // builder sorts deps by id
        assert_eq!(g.succs(r1).collect::<Vec<_>>(), [op1]);
        assert_eq!(g.recv_ops_on(w), vec![r1, r2]);
        assert_eq!(g.ops_on(w).collect::<Vec<_>>(), [r1, r2, op1, op2]);
        assert_eq!(g.ops_on(ps).count(), 0);
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

    /// The multiply `Block::locate` divides by is exact: `k / len` and
    /// `k % len` for every width of `len` and `k` up to `u32::MAX`.
    #[test]
    fn block_division_is_exact() {
        for len in [
            1u32,
            2,
            3,
            7,
            64,
            235,
            863,
            2243,
            65_535,
            1 << 20,
            1_000_003,
            u32::MAX / 3,
            u32::MAX,
        ] {
            let block = super::Block::new(0, len, 1, 0, 0);
            let mut x = u64::from(len);
            for k in (0..4096u32).chain([u32::MAX, u32::MAX - 1, len - 1, len, len.wrapping_add(1)])
            {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                for k in [k, (x >> 32) as u32] {
                    assert_eq!(block.div(k), (k / len, k % len), "{k} / {len}");
                }
            }
        }
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

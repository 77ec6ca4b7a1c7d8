//! Op names, derived from where an op sits and what it carries.
//!
//! A deployed op stores no name. The MR + PS lowering (paper §2.2) is
//! regular, so [`Naming::name`] derives each op's [`OpName`] on demand
//! from what the graph already holds: the op's kind, its device's side and
//! ordinal, its channel's worker, a per-parameter fused-group table and
//! one base offset per worker into the replica's model-op names. A
//! hand-built graph keeps its raw names in a side table, one interned
//! [`NameId`] an op, which a deployment leaves empty. An `OpName` is a
//! 16-byte `Copy` value that lives only while a name is rendered or
//! checked. Rendering is **byte-identical** to the historical `format!`
//! strings, so the golden trace fingerprints and the pinned Perfetto
//! snapshots do not move, and happens only when something asks for a
//! display name: [`Graph::op_name`]'s cache, or a writer that appends a
//! name where it needs it ([`Graph::write_op_name`], which the Perfetto
//! exporter calls per slice).
//!
//! [`Graph::op_name`]: crate::Graph::op_name
//! [`Graph::write_op_name`]: crate::Graph::write_op_name

use crate::device::{Channel, Device};
use crate::graph::ParamInfo;
use crate::ids::{ChannelId, DeviceId, ParamId};
use crate::op::{Op, OpKind};
use std::collections::HashMap;

/// Index of an interned string: a raw op name or a model-op name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct NameId(u32);

impl NameId {
    /// The raw-name slot of an op whose name is derived.
    const DERIVED: NameId = NameId(u32::MAX);

    /// The raw table index.
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// A deduplicating string interner.
///
/// Every distinct string is stored once; [`OpName`]s refer to it by
/// [`NameId`]. Interning the same string twice returns the same id, which
/// is what lets the duplicate-name check compare raw names as integers.
/// The string → id index lives only while a builder interns: a built
/// graph's table is read and never added to, so it keeps the strings alone.
#[derive(Debug, Clone, Default)]
pub(crate) struct NameTable {
    strings: Vec<String>,
    /// Each interned string's id; emptied by [`finish`](Self::finish).
    index: HashMap<String, NameId>,
}

impl NameTable {
    /// An empty table.
    #[cfg(test)]
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Interns `s`, returning its id (existing id if already present).
    pub(crate) fn intern(&mut self, s: &str) -> NameId {
        if let Some(&id) = self.index.get(s) {
            return id;
        }
        let id = NameId(self.strings.len() as u32);
        self.strings.push(s.to_string());
        self.index.insert(s.to_string(), id);
        id
    }

    /// The string behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this table.
    pub(crate) fn get(&self, id: NameId) -> &str {
        &self.strings[id.index()]
    }

    /// How many strings the table holds.
    pub(crate) fn len(&self) -> usize {
        self.strings.len()
    }

    /// Drops the interning index and any spare capacity: the table of a
    /// built graph, which nothing interns into.
    pub(crate) fn finish(&mut self) {
        self.index = HashMap::new();
        self.strings.shrink_to_fit();
    }
}

/// Which leg of the parameter round-trip a communication op is (paper
/// §2.2): one read, a send/recv pair per worker, and in training a
/// send_grad/recv_grad pair per worker plus an aggregate and an update.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum CommRole {
    /// PS-side parameter read.
    Read,
    /// PS → worker parameter send.
    Send,
    /// Worker-side parameter receive.
    Recv,
    /// Worker → PS gradient send.
    SendGrad,
    /// PS-side gradient receive.
    RecvGrad,
    /// PS-side gradient aggregation.
    Aggregate,
    /// PS-side parameter update.
    Update,
}

impl CommRole {
    /// How a name of this role is spelled: whether it opens with
    /// `ps{shard}` (else `w{worker}`), its verb, and whether `/w{worker}`
    /// closes it — the fields the name renders.
    fn spelling(self) -> (bool, &'static str, bool) {
        match self {
            CommRole::Read => (true, "/read/", false),
            CommRole::Send => (true, "/send/", true),
            CommRole::Recv => (false, "/recv/", false),
            CommRole::SendGrad => (false, "/send_grad/", false),
            CommRole::RecvGrad => (true, "/recv_grad/", true),
            CommRole::Aggregate => (true, "/aggregate/", false),
            CommRole::Update => (true, "/update/", false),
        }
    }
}

/// What a communication op carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum CommParam {
    /// One parameter of the graph — a whole model parameter or, after the
    /// partition pass, one chunk of a split one. It renders as its name in
    /// the graph's parameter table: `{param}` or `{param}.part{j}`.
    Param(ParamId),
    /// A transfer the fusion pass coalesced from several small same-shard
    /// parameters: `fused{group}`, with the group numbered across shards.
    Fused(u32),
}

/// A structured op name, derived by [`Naming::name`].
///
/// [`OpName::Comm`] covers every op the MR+PS lowering emits besides the
/// replica compute ops (paper §2.2), plain, partitioned or fused alike;
/// [`OpName::WorkerOp`] names a replica compute op; and [`OpName::Raw`]
/// holds a hand-built graph's interned string. The writer reproduces the
/// historical `format!` strings byte for byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum OpName {
    /// An arbitrary interned name (hand-built graphs, tests).
    Raw(NameId),
    /// `w{worker}/{op}` — a replica compute op.
    WorkerOp {
        /// Worker index.
        worker: u32,
        /// Interned model-op name.
        op: NameId,
    },
    /// A communication op: `ps{shard}/{verb}/{param}` for the PS-local
    /// roles (read, aggregate, update), `w{worker}/{verb}/{param}` for
    /// the worker-side ones (recv, send_grad) and
    /// `ps{shard}/{verb}/{param}/w{worker}` for the PS side of a transfer
    /// (send, recv_grad). A cluster holds at most 2^16 devices, workers
    /// and parameter servers together, because a
    /// [`DeviceId`] is a `u16` — so `shard` and `worker` are too,
    /// losslessly.
    Comm {
        /// Which leg of the round-trip this op is.
        role: CommRole,
        /// PS shard index (0 for the worker-side roles, which do not
        /// render it).
        shard: u16,
        /// Worker index (0 for the PS-local roles, which do not render
        /// it).
        worker: u16,
        /// The parameter or fused group the op carries.
        param: CommParam,
    },
}

impl OpName {
    /// The name as a `String`, its interned strings read from `names` and
    /// its parameter names from `params`.
    pub(crate) fn render(&self, names: &NameTable, params: &[ParamInfo]) -> String {
        let mut out = String::new();
        self.write(names, params, &mut out);
        out
    }

    /// Appends the name to `out` from the graph's two tables: the fixed
    /// parts and the strings are copied, the integers written by
    /// [`decimal`].
    pub(crate) fn write(&self, names: &NameTable, params: &[ParamInfo], out: &mut String) {
        let (role, shard, worker, param) = match *self {
            OpName::Raw(id) => return out.push_str(names.get(id)),
            OpName::WorkerOp { worker, op } => {
                out.push('w');
                integer_into(out, worker.into());
                out.push('/');
                return out.push_str(names.get(op));
            }
            OpName::Comm {
                role,
                shard,
                worker,
                param,
            } => (role, shard, worker, param),
        };
        // `ps{shard}/{verb}/{param}` on the PS side, `w{worker}/…` on the
        // worker side, and `/w{worker}` after a transfer between the two.
        let (on_ps, verb, to_worker) = role.spelling();
        if on_ps {
            out.push_str("ps");
            integer_into(out, shard.into());
        } else {
            out.push('w');
            integer_into(out, worker.into());
        }
        out.push_str(verb);
        match param {
            CommParam::Param(p) => out.push_str(params[p.index()].name()),
            CommParam::Fused(group) => {
                out.push_str("fused");
                integer_into(out, group.into());
            }
        }
        if to_worker {
            out.push_str("/w");
            integer_into(out, worker.into());
        }
    }

    /// The duplicate-name key: a segment (0 raw, 1 replica op, 2
    /// communication) and a dense index in it below `space`'s bound for
    /// that segment. It holds exactly the fields the name renders, so two
    /// names of one segment share a key exactly when their fields render
    /// alike.
    pub(crate) fn key(&self, space: &KeySpace) -> (usize, usize) {
        match *self {
            OpName::Raw(id) => (0, id.index()),
            OpName::WorkerOp { worker, op } => (1, worker as usize * space.strings + op.index()),
            OpName::Comm {
                role,
                shard,
                worker,
                param,
            } => {
                let (on_ps, _, to_worker) = role.spelling();
                let shard = if on_ps { usize::from(shard) } else { 0 };
                let worker = if on_ps && !to_worker {
                    0
                } else {
                    usize::from(worker)
                };
                let carried = match param {
                    CommParam::Param(p) => p.index(),
                    CommParam::Fused(group) => space.params + group as usize,
                };
                let at = (role as usize * space.servers + shard) * space.workers + worker;
                (2, at * space.carried() + carried)
            }
        }
    }
}

/// The bounds of [`OpName::key`]'s segments over one graph's tables.
pub(crate) struct KeySpace {
    /// Interned strings.
    pub(crate) strings: usize,
    /// Parameters.
    pub(crate) params: usize,
    /// Fused groups.
    pub(crate) groups: usize,
    /// Worker devices.
    pub(crate) workers: usize,
    /// Parameter-server devices.
    pub(crate) servers: usize,
}

impl KeySpace {
    /// What a communication op can carry: a parameter or a fused group.
    fn carried(&self) -> usize {
        self.params + self.groups
    }

    /// The number of keys in each segment.
    pub(crate) fn bounds(&self) -> [usize; 3] {
        [
            self.strings,
            self.workers * self.strings,
            7 * self.servers * self.workers * self.carried(),
        ]
    }
}

/// What a graph holds to name its ops (DESIGN.md §10): the interned
/// strings, a hand-built graph's raw names, and the tables a derived name
/// reads besides the op itself.
#[derive(Debug, Clone, Default)]
pub(crate) struct Naming {
    /// Raw names and the replica's model-op names, each string once.
    pub(crate) strings: NameTable,
    /// One raw name per op, [`NameId::DERIVED`] for an op whose name is
    /// derived; empty when every op's is, as in a deployment.
    raw: Vec<NameId>,
    /// The replica's model-op names, in model order.
    pub(crate) replica: Vec<NameId>,
    /// Per device, its first derived-name compute op (`u32::MAX` for
    /// none): worker `w`'s op `base + mi` is model op `mi`.
    pub(crate) bases: Vec<u32>,
    /// Per parameter, the fused group its transfers travel in
    /// (`u32::MAX` for none); empty without fusion.
    fused: Vec<u32>,
    /// Fused groups named so far.
    pub(crate) groups: u32,
}

impl Naming {
    /// Records op `op`'s raw name.
    pub(crate) fn raw(&mut self, op: usize, name: &str) {
        let id = self.strings.intern(name);
        self.raw.resize(op, NameId::DERIVED);
        self.raw.push(id);
    }

    /// Records that op `op`, of `kind` on `device`, has a derived name:
    /// a compute op's device counts its model ops from the first.
    pub(crate) fn derived(&mut self, op: usize, kind: OpKind, device: DeviceId) {
        if kind == OpKind::Compute {
            let d = device.index();
            if self.bases.len() <= d {
                self.bases.resize(d + 1, u32::MAX);
            }
            if self.bases[d] == u32::MAX {
                self.bases[d] = op as u32;
            }
        }
    }

    /// Gives each later copy of a block of `len` ops on device `worker`
    /// its base: the first copy's, `w·len` on for copy `w`.
    pub(crate) fn repeat(&mut self, worker: u16, copies: usize, len: u32) {
        let first = usize::from(worker);
        let Some(&base) = self.bases.get(first).filter(|&&b| b != u32::MAX) else {
            return;
        };
        self.bases
            .resize(self.bases.len().max(first + copies), u32::MAX);
        for w in 1..copies {
            self.bases[first + w] = base + w as u32 * len;
        }
    }

    /// Names the replica's model ops, in model order.
    pub(crate) fn replica<S: AsRef<str>>(&mut self, ops: impl IntoIterator<Item = S>) {
        self.replica = ops
            .into_iter()
            .map(|op| self.strings.intern(op.as_ref()))
            .collect();
    }

    /// Numbers the next fused group and maps each of `members` to it.
    pub(crate) fn fuse(&mut self, members: impl IntoIterator<Item = ParamId>, params: usize) {
        self.fused.resize(params, u32::MAX);
        for p in members {
            assert!(
                self.fused[p.index()] == u32::MAX,
                "{p} is already in a fused group"
            );
            self.fused[p.index()] = self.groups;
        }
        self.groups += 1;
    }

    /// The tables of a built graph of `ops` ops on `devices` devices: the
    /// raw names padded to one an op (unless there are none), one base an
    /// existing device, no interning index and no spare capacity.
    pub(crate) fn finish(&mut self, ops: usize, devices: usize) {
        if !self.raw.is_empty() {
            self.raw.resize(ops, NameId::DERIVED);
        }
        self.raw.shrink_to_fit();
        self.bases.resize(devices, u32::MAX);
        self.bases.shrink_to_fit();
        self.strings.finish();
    }

    /// Whether op `i`'s name is derived rather than raw.
    pub(crate) fn is_derived(&self, i: usize) -> bool {
        self.raw.get(i).is_none_or(|&id| id == NameId::DERIVED)
    }

    /// The name of op `i`, `op`: its raw name, or the one derived from
    /// where it sits. A derived compute op must sit on a worker within
    /// its replica (its base plus fewer than the replica's ops), and a
    /// read, aggregate or update on a parameter server; `check_parts`
    /// refuses a graph where one does not.
    ///
    /// * A send on a PS is the parameter send, on a worker the gradient
    ///   send; a recv on a worker is the parameter recv, on a PS the
    ///   gradient recv. `shard` and `worker` are the device's ordinal
    ///   among its kind, or the channel's worker's.
    /// * A send or recv whose parameter is in a fused group carries the
    ///   group; every other op carries its kind's parameter.
    pub(crate) fn name(
        &self,
        i: usize,
        op: &Op,
        devices: &[Device],
        channels: &[Channel],
    ) -> OpName {
        if !self.is_derived(i) {
            return OpName::Raw(self.raw[i]);
        }
        let device = &devices[op.device.index()];
        let at = device.ordinal();
        let peer = |ch: ChannelId| devices[channels[ch.index()].worker().index()].ordinal();
        let carried = |p: ParamId| match self.fused.get(p.index()) {
            Some(&group) if group != u32::MAX => CommParam::Fused(group),
            _ => CommParam::Param(p),
        };
        let comm = |role, shard, worker, param| OpName::Comm {
            role,
            shard,
            worker,
            param,
        };
        match op.kind {
            OpKind::Compute => OpName::WorkerOp {
                worker: at.into(),
                op: self.replica[i - self.bases[op.device.index()] as usize],
            },
            OpKind::Read { param } => comm(CommRole::Read, at, 0, CommParam::Param(param)),
            OpKind::Aggregate { param } => {
                comm(CommRole::Aggregate, at, 0, CommParam::Param(param))
            }
            OpKind::Update { param } => comm(CommRole::Update, at, 0, CommParam::Param(param)),
            OpKind::Send { param, channel } if device.is_parameter_server() => {
                comm(CommRole::Send, at, peer(channel), carried(param))
            }
            OpKind::Send { param, .. } => comm(CommRole::SendGrad, 0, at, carried(param)),
            OpKind::Recv { param, .. } if device.is_worker() => {
                comm(CommRole::Recv, 0, at, carried(param))
            }
            OpKind::Recv { param, channel } => {
                comm(CommRole::RecvGrad, at, peer(channel), carried(param))
            }
        }
    }
}

/// Appends `n` in decimal, through [`decimal`].
fn integer_into(out: &mut String, n: u64) {
    out.push_str(decimal(&mut [0; 20], n));
}

/// `"00" "01" … "99"`: two digits a lookup.
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};

/// `n`'s decimal digits, written into the tail of `buf` four at a time:
/// the one digit writer the workspace's writers share — op names here,
/// the JSON writers of `tictac-obs` (`json::integer_into`) — in place
/// of `write!`.
#[inline]
pub fn decimal(buf: &mut [u8; 20], mut n: u64) -> &str {
    let pair = |i: u64| &DIGIT_PAIRS[2 * i as usize..][..2];
    let mut at = buf.len();
    while n >= 10_000 {
        let four = n % 10_000;
        n /= 10_000;
        at -= 4;
        buf[at..at + 2].copy_from_slice(pair(four / 100));
        buf[at + 2..at + 4].copy_from_slice(pair(four % 100));
    }
    if n >= 100 {
        at -= 2;
        buf[at..at + 2].copy_from_slice(pair(n % 100));
        n /= 100;
    }
    if n >= 10 {
        at -= 2;
        buf[at..at + 2].copy_from_slice(pair(n));
    } else {
        at -= 1;
        buf[at] = b'0' + n as u8;
    }
    std::str::from_utf8(&buf[at..]).expect("ASCII digits")
}

#[cfg(test)]
mod tests {
    use super::*;

    const ROLES: [CommRole; 7] = [
        CommRole::Read,
        CommRole::Send,
        CommRole::Recv,
        CommRole::SendGrad,
        CommRole::RecvGrad,
        CommRole::Aggregate,
        CommRole::Update,
    ];

    /// A parameter table holding `names`, in order.
    fn params(names: &[&str]) -> Vec<ParamInfo> {
        names
            .iter()
            .map(|name| ParamInfo {
                name: name.to_string(),
                bytes: 0,
                ps: None,
            })
            .collect()
    }

    #[test]
    fn interner_dedups_and_round_trips() {
        let mut t = NameTable::new();
        let a = t.intern("conv1/weights");
        let b = t.intern("conv1/bias");
        let a2 = t.intern("conv1/weights");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(t.get(a), "conv1/weights");
        assert_eq!(t.get(b), "conv1/bias");
        assert_eq!(t.strings.len(), 2);
    }

    #[test]
    fn renders_every_role_of_a_parameter_and_a_fused_group() {
        let mut t = NameTable::new();
        let raw = t.intern("fc/weights");
        let op = t.intern("conv2d_1a");
        let p = params(&["fc/weights", "fc6/weights.part3"]);
        assert_eq!(OpName::Raw(raw).render(&t, &p), "fc/weights");
        let worker_op = OpName::WorkerOp { worker: 7, op };
        assert_eq!(worker_op.render(&t, &p), "w7/conv2d_1a");
        let comm = |role, param| OpName::Comm {
            role,
            shard: 1,
            worker: 2,
            param,
        };
        let expected = [
            "ps1/read/{}",
            "ps1/send/{}/w2",
            "w2/recv/{}",
            "w2/send_grad/{}",
            "ps1/recv_grad/{}/w2",
            "ps1/aggregate/{}",
            "ps1/update/{}",
        ];
        for (role, pattern) in ROLES.into_iter().zip(expected) {
            for (param, spelled) in [
                (CommParam::Param(ParamId::from_index(0)), "fc/weights"),
                (
                    CommParam::Param(ParamId::from_index(1)),
                    "fc6/weights.part3",
                ),
                (CommParam::Fused(7), "fused7"),
            ] {
                let name = comm(role, param).render(&t, &p);
                assert_eq!(name, pattern.replace("{}", spelled));
            }
        }
    }

    #[test]
    fn op_name_is_small() {
        assert!(std::mem::size_of::<OpName>() <= 16);
    }

    /// The name as the historical `format!` calls spelled it: the oracle
    /// the writer is held to.
    fn legacy(name: OpName, t: &NameTable, params: &[ParamInfo]) -> String {
        let (role, shard, worker, param) = match name {
            OpName::Raw(id) => return t.get(id).to_string(),
            OpName::WorkerOp { worker, op } => return format!("w{worker}/{}", t.get(op)),
            OpName::Comm {
                role,
                shard,
                worker,
                param,
            } => (role, shard, worker, param),
        };
        let p = match param {
            CommParam::Param(p) => params[p.index()].name().to_string(),
            CommParam::Fused(group) => format!("fused{group}"),
        };
        match role {
            CommRole::Read => format!("ps{shard}/read/{p}"),
            CommRole::Send => format!("ps{shard}/send/{p}/w{worker}"),
            CommRole::Recv => format!("w{worker}/recv/{p}"),
            CommRole::SendGrad => format!("w{worker}/send_grad/{p}"),
            CommRole::RecvGrad => format!("ps{shard}/recv_grad/{p}/w{worker}"),
            CommRole::Aggregate => format!("ps{shard}/aggregate/{p}"),
            CommRole::Update => format!("ps{shard}/update/{p}"),
        }
    }

    /// Both sides of every power of ten a `u64` can hold, up to `max`.
    fn width_edges(max: u64) -> Vec<u64> {
        let mut edges = vec![0, max];
        for k in 1..20 {
            let p = 10u64.pow(k);
            edges.extend([p - 1, p].into_iter().filter(|&v| v <= max));
        }
        edges
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(
            if cfg!(debug_assertions) { 4096 } else { 262_144 }
        ))]

        /// Every variant — raw, a replica op, and a communication op in
        /// each of the seven roles carrying a parameter or a fused group —
        /// with its integers at every digit-width edge of their type and
        /// strings that a JSON writer must escape, rendered as `format!`
        /// did.
        #[test]
        fn names_render_as_the_format_strings(
            seed in proptest::prelude::any::<u64>(),
            variant in 0usize..16,
        ) {
            const STRINGS: [&str; 8] = [
                "fc/weights",
                "fc6/weights.part65535",
                "a\"b",
                "back\\slash",
                "line\nfeed",
                "\u{1}ctl",
                "é漢😀",
                "",
            ];
            let (wide, narrow) = (width_edges(u32::MAX.into()), width_edges(u16::MAX.into()));
            let mut x = seed;
            let mut draw = |n: usize| {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
                (x >> 33) as usize % n
            };
            let mut t = NameTable::new();
            let interned = t.intern(STRINGS[draw(STRINGS.len())]);
            let p = params(&STRINGS);
            let (shard, worker) = (narrow[draw(narrow.len())] as u16, narrow[draw(narrow.len())] as u16);
            let param = match variant % 2 {
                0 => CommParam::Param(ParamId::from_index(draw(STRINGS.len()))),
                _ => CommParam::Fused(wide[draw(wide.len())] as u32),
            };
            let name = match variant {
                0 => OpName::Raw(interned),
                1 => OpName::WorkerOp { worker: wide[draw(wide.len())] as u32, op: interned },
                _ => OpName::Comm { role: ROLES[variant / 2 - 1], shard, worker, param },
            };
            let mut out = String::from("prefix:");
            name.write(&t, &p, &mut out);
            proptest::prop_assert_eq!(&out["prefix:".len()..], legacy(name, &t, &p));
        }
    }
}

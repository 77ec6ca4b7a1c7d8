//! Compact structured op names.
//!
//! Deployment used to mint one heap `String` per op
//! (`format!("ps{shard}/send/{param}/w{w}")`, …) — on inception/resnet-class
//! models that is tens of thousands of allocations on the deploy hot path.
//! An [`OpName`] is a 16-byte `Copy` value instead: a role tag plus small
//! integer fields. A communication op names its parameter by [`ParamId`],
//! whose name the graph's parameter table already holds; model-op names
//! and raw names are deduplicated through a [`NameTable`] interner.
//! Rendering to the legacy string happens lazily — and **byte-identically**,
//! so the golden trace fingerprints and the pinned Perfetto snapshot do not
//! move — only when something actually asks for a display name:
//! [`Graph::op_name`]'s cache, or a writer that appends a name where it
//! needs it ([`OpName::render_into`], which the Perfetto exporter calls per
//! slice).

use crate::graph::{Graph, ParamInfo};
use crate::ids::ParamId;
use std::collections::HashMap;

/// Index of an interned string: a raw op name or a model-op name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NameId(u32);

impl NameId {
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
/// is what lets [`GraphBuilder`](crate::GraphBuilder) keep detecting
/// duplicate raw op names by comparing `OpName`s. The string → id index
/// lives only while a builder interns: a built graph's table is read and
/// never added to, so it keeps the strings alone.
#[derive(Debug, Clone, Default)]
pub(crate) struct NameTable {
    strings: Vec<String>,
    /// Each interned string's id; emptied by [`finish`](Self::finish).
    index: HashMap<String, NameId>,
}

impl NameTable {
    /// An empty table.
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
pub enum CommRole {
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

/// What a communication op carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommParam {
    /// One parameter of the graph — a whole model parameter or, after the
    /// partition pass, one chunk of a split one. It renders as its name in
    /// the graph's parameter table: `{param}` or `{param}.part{j}`.
    Param(ParamId),
    /// A transfer the fusion pass coalesced from several small same-shard
    /// parameters: `fused{group}`, with the group numbered across shards.
    Fused(u32),
}

/// A compact structured op name.
///
/// [`OpName::Comm`] covers every op the MR+PS lowering emits besides the
/// replica compute ops (paper §2.2), plain, partitioned or fused alike;
/// [`OpName::WorkerOp`] names a replica compute op; and [`OpName::Raw`]
/// holds arbitrary interned strings for hand-built graphs.
/// [`OpName::render_into`] reproduces the historical `format!` strings
/// byte for byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpName {
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
    /// [`DeviceId`](crate::DeviceId) is a `u16` — so `shard` and `worker`
    /// are too, losslessly.
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
    /// Appends the name as `graph` spells it to `out`: byte-identical to
    /// the historical `format!` calls, written without `core::fmt`.
    pub fn render_into(&self, graph: &Graph, out: &mut String) {
        self.write(&graph.names, &graph.params, out);
    }

    /// The name as a `String`, its interned strings read from `names` and
    /// its parameter names from `params`.
    pub(crate) fn render(&self, names: &NameTable, params: &[ParamInfo]) -> String {
        let mut out = String::new();
        self.write(names, params, &mut out);
        out
    }

    /// [`render_into`](Self::render_into) from the graph's two tables:
    /// the fixed parts and the strings are copied, the integers written by
    /// [`decimal`].
    fn write(&self, names: &NameTable, params: &[ParamInfo], out: &mut String) {
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
        let (on_ps, verb, to_worker) = match role {
            CommRole::Read => (true, "/read/", false),
            CommRole::Send => (true, "/send/", true),
            CommRole::Recv => (false, "/recv/", false),
            CommRole::SendGrad => (false, "/send_grad/", false),
            CommRole::RecvGrad => (true, "/recv_grad/", true),
            CommRole::Aggregate => (true, "/aggregate/", false),
            CommRole::Update => (true, "/update/", false),
        };
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
/// the JSON writers of `tictac-obs` (`json::integer_into`,
/// `json::number_into`) — in place of `write!`.
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

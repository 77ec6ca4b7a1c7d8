//! Compact structured op names.
//!
//! Deployment used to mint one heap `String` per op
//! (`format!("ps{shard}/send/{param}/w{w}")`, …) — on inception/resnet-class
//! models that is tens of thousands of allocations on the deploy hot path.
//! An [`OpName`] is a 16-byte `Copy` value instead: a role tag plus small
//! integer fields, with model-level strings (parameter and layer names)
//! deduplicated through a [`NameTable`] interner. Rendering to the legacy
//! string happens lazily — and **byte-identically**, so the golden trace
//! fingerprints and the pinned Perfetto snapshot do not move — only when
//! something actually asks for a display name: [`Graph::op_name`]'s
//! cache, or a writer that appends a name where it needs it
//! ([`OpName::render_into`], which the Perfetto exporter calls per slice).
//!
//! [`Graph::op_name`]: crate::Graph::op_name

use std::collections::HashMap;

/// Index of an interned string in a [`NameTable`].
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
/// duplicate raw op names by comparing `OpName`s.
#[derive(Debug, Clone, Default)]
pub struct NameTable {
    strings: Vec<String>,
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

    /// Looks up an already-interned string without inserting.
    pub fn lookup(&self, s: &str) -> Option<NameId> {
        self.index.get(s).copied()
    }
}

/// Which leg of the parameter round-trip a partitioned or fused
/// communication op belongs to.
///
/// The partition/fusion lowering passes reuse the same role set as the
/// plain MR+PS emission; [`OpName::Chunk`] and [`OpName::Fused`] pair a
/// role with chunk/group coordinates instead of minting one enum variant
/// per (pass × role) combination.
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

/// A compact structured op name.
///
/// The `Ps*`/`Worker*` variants cover every op the MR+PS lowering emits
/// (paper §2.2); [`OpName::Chunk`] and [`OpName::Fused`] cover the
/// partition/fusion communication passes; and [`OpName::Raw`] holds
/// arbitrary interned strings for hand-built graphs. `OpName::render`
/// reproduces the historical `format!` strings byte for byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpName {
    /// An arbitrary interned name (hand-built graphs, tests).
    Raw(NameId),
    /// `ps{shard}/read/{param}`
    PsRead {
        /// PS shard index.
        shard: u32,
        /// Interned parameter name.
        param: NameId,
    },
    /// `ps{shard}/send/{param}/w{worker}`
    PsSend {
        /// PS shard index.
        shard: u32,
        /// Interned parameter name.
        param: NameId,
        /// Destination worker index.
        worker: u32,
    },
    /// `w{worker}/recv/{param}`
    WorkerRecv {
        /// Worker index.
        worker: u32,
        /// Interned parameter name.
        param: NameId,
    },
    /// `w{worker}/{op}` — a replica compute op.
    WorkerOp {
        /// Worker index.
        worker: u32,
        /// Interned model-op name.
        op: NameId,
    },
    /// `w{worker}/send_grad/{param}`
    WorkerSendGrad {
        /// Worker index.
        worker: u32,
        /// Interned parameter name.
        param: NameId,
    },
    /// `ps{shard}/recv_grad/{param}/w{worker}`
    PsRecvGrad {
        /// PS shard index.
        shard: u32,
        /// Interned parameter name.
        param: NameId,
        /// Source worker index.
        worker: u32,
    },
    /// `ps{shard}/aggregate/{param}`
    PsAggregate {
        /// PS shard index.
        shard: u32,
        /// Interned parameter name.
        param: NameId,
    },
    /// `ps{shard}/update/{param}`
    PsUpdate {
        /// PS shard index.
        shard: u32,
        /// Interned parameter name.
        param: NameId,
    },
    /// One chunk of a partitioned parameter: renders exactly like the
    /// matching plain variant with `{param}.part{chunk}` as the parameter
    /// name (e.g. `ps{shard}/send/{param}.part{chunk}/w{worker}`).
    Chunk {
        /// Which leg of the round-trip this op is.
        role: CommRole,
        /// PS shard index (unused for the worker-side roles' rendering).
        shard: u16,
        /// Worker index (unused for the PS-local roles' rendering).
        worker: u16,
        /// Interned *original* parameter name.
        param: NameId,
        /// Chunk index within the partitioned parameter.
        chunk: u16,
    },
    /// A fused transfer covering several small parameters: renders like
    /// the matching plain variant with `fused{group}` as the parameter
    /// name (e.g. `w{worker}/recv/fused{group}`). Only the four transfer
    /// roles (`Send`, `Recv`, `SendGrad`, `RecvGrad`) are emitted.
    Fused {
        /// Which leg of the round-trip this op is.
        role: CommRole,
        /// PS shard index.
        shard: u16,
        /// Worker index.
        worker: u16,
        /// Fusion group index (unique per shard).
        group: u32,
    },
}

impl OpName {
    /// Appends the legacy string form to `out`, byte-identical to the
    /// historical `format!` calls, without `core::fmt`: the fixed parts
    /// and interned strings are copied, the integers written by
    /// [`integer_into`].
    pub fn render_into(&self, table: &NameTable, out: &mut String) {
        let (role, shard, worker, param) = match *self {
            OpName::Raw(id) => return out.push_str(table.get(id)),
            OpName::WorkerOp { worker, op } => {
                out.push('w');
                integer_into(out, worker.into());
                out.push('/');
                return out.push_str(table.get(op));
            }
            OpName::PsRead { shard, param } => (CommRole::Read, shard, 0, Param::Plain(param)),
            OpName::PsSend {
                shard,
                param,
                worker,
            } => (CommRole::Send, shard, worker, Param::Plain(param)),
            OpName::WorkerRecv { worker, param } => {
                (CommRole::Recv, 0, worker, Param::Plain(param))
            }
            OpName::WorkerSendGrad { worker, param } => {
                (CommRole::SendGrad, 0, worker, Param::Plain(param))
            }
            OpName::PsRecvGrad {
                shard,
                param,
                worker,
            } => (CommRole::RecvGrad, shard, worker, Param::Plain(param)),
            OpName::PsAggregate { shard, param } => {
                (CommRole::Aggregate, shard, 0, Param::Plain(param))
            }
            OpName::PsUpdate { shard, param } => (CommRole::Update, shard, 0, Param::Plain(param)),
            OpName::Chunk {
                role,
                shard,
                worker,
                param,
                chunk,
            } => (role, shard.into(), worker.into(), Param::Part(param, chunk)),
            OpName::Fused {
                role,
                shard,
                worker,
                group,
            } => (role, shard.into(), worker.into(), Param::Fused(group)),
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
            Param::Plain(p) => out.push_str(table.get(p)),
            Param::Part(p, chunk) => {
                out.push_str(table.get(p));
                out.push_str(".part");
                integer_into(out, chunk.into());
            }
            Param::Fused(group) => {
                out.push_str("fused");
                integer_into(out, group.into());
            }
        }
        if to_worker {
            out.push_str("/w");
            integer_into(out, worker.into());
        }
    }

    /// Renders the legacy string form.
    pub(crate) fn render(&self, table: &NameTable) -> String {
        let mut out = String::new();
        self.render_into(table, &mut out);
        out
    }
}

/// The parameter part of a communication op's name.
#[derive(Clone, Copy)]
enum Param {
    /// `{param}`
    Plain(NameId),
    /// `{param}.part{chunk}`
    Part(NameId, u16),
    /// `fused{group}`
    Fused(u32),
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

    #[test]
    fn interner_dedups_and_round_trips() {
        let mut t = NameTable::new();
        let a = t.intern("conv1/weights");
        let b = t.intern("conv1/bias");
        let a2 = t.intern("conv1/weights");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(t.get(a), "conv1/weights");
        assert_eq!(t.lookup("conv1/bias"), Some(b));
        assert_eq!(t.lookup("missing"), None);
        assert_eq!(t.strings.len(), 2);
    }

    #[test]
    fn renders_match_the_legacy_format_strings() {
        let mut t = NameTable::new();
        let p = t.intern("fc/weights");
        let o = t.intern("conv2d_1a");
        let cases = [
            (OpName::Raw(p), "fc/weights".to_string()),
            (
                OpName::PsRead { shard: 2, param: p },
                format!("ps{}/read/{}", 2, "fc/weights"),
            ),
            (
                OpName::PsSend {
                    shard: 0,
                    param: p,
                    worker: 3,
                },
                format!("ps{}/send/{}/w{}", 0, "fc/weights", 3),
            ),
            (
                OpName::WorkerRecv {
                    worker: 1,
                    param: p,
                },
                format!("w{}/recv/{}", 1, "fc/weights"),
            ),
            (
                OpName::WorkerOp { worker: 7, op: o },
                format!("w{}/{}", 7, "conv2d_1a"),
            ),
            (
                OpName::WorkerSendGrad {
                    worker: 0,
                    param: p,
                },
                format!("w{}/send_grad/{}", 0, "fc/weights"),
            ),
            (
                OpName::PsRecvGrad {
                    shard: 1,
                    param: p,
                    worker: 2,
                },
                format!("ps{}/recv_grad/{}/w{}", 1, "fc/weights", 2),
            ),
            (
                OpName::PsAggregate { shard: 4, param: p },
                format!("ps{}/aggregate/{}", 4, "fc/weights"),
            ),
            (
                OpName::PsUpdate { shard: 4, param: p },
                format!("ps{}/update/{}", 4, "fc/weights"),
            ),
        ];
        for (name, expected) in cases {
            assert_eq!(name.render(&t), expected);
        }
    }

    #[test]
    fn chunk_renders_every_role() {
        let mut t = NameTable::new();
        let p = t.intern("fc6/weights");
        let chunk = |role| OpName::Chunk {
            role,
            shard: 1,
            worker: 2,
            param: p,
            chunk: 3,
        };
        assert_eq!(
            chunk(CommRole::Read).render(&t),
            "ps1/read/fc6/weights.part3"
        );
        assert_eq!(
            chunk(CommRole::Send).render(&t),
            "ps1/send/fc6/weights.part3/w2"
        );
        assert_eq!(
            chunk(CommRole::Recv).render(&t),
            "w2/recv/fc6/weights.part3"
        );
        assert_eq!(
            chunk(CommRole::SendGrad).render(&t),
            "w2/send_grad/fc6/weights.part3"
        );
        assert_eq!(
            chunk(CommRole::RecvGrad).render(&t),
            "ps1/recv_grad/fc6/weights.part3/w2"
        );
        assert_eq!(
            chunk(CommRole::Aggregate).render(&t),
            "ps1/aggregate/fc6/weights.part3"
        );
        assert_eq!(
            chunk(CommRole::Update).render(&t),
            "ps1/update/fc6/weights.part3"
        );
    }

    #[test]
    fn fused_renders_transfer_roles() {
        let t = NameTable::new();
        let fused = |role| OpName::Fused {
            role,
            shard: 0,
            worker: 4,
            group: 7,
        };
        assert_eq!(fused(CommRole::Send).render(&t), "ps0/send/fused7/w4");
        assert_eq!(fused(CommRole::Recv).render(&t), "w4/recv/fused7");
        assert_eq!(fused(CommRole::SendGrad).render(&t), "w4/send_grad/fused7");
        assert_eq!(
            fused(CommRole::RecvGrad).render(&t),
            "ps0/recv_grad/fused7/w4"
        );
    }

    #[test]
    fn op_name_is_small() {
        assert!(std::mem::size_of::<OpName>() <= 16);
    }

    /// The name as the historical `format!` calls spelled it: the oracle
    /// the writer is held to.
    fn legacy(name: OpName, t: &NameTable) -> String {
        match name {
            OpName::Raw(id) => t.get(id).to_string(),
            OpName::PsRead { shard, param } => format!("ps{shard}/read/{}", t.get(param)),
            OpName::PsSend {
                shard,
                param,
                worker,
            } => format!("ps{shard}/send/{}/w{worker}", t.get(param)),
            OpName::WorkerRecv { worker, param } => format!("w{worker}/recv/{}", t.get(param)),
            OpName::WorkerOp { worker, op } => format!("w{worker}/{}", t.get(op)),
            OpName::WorkerSendGrad { worker, param } => {
                format!("w{worker}/send_grad/{}", t.get(param))
            }
            OpName::PsRecvGrad {
                shard,
                param,
                worker,
            } => format!("ps{shard}/recv_grad/{}/w{worker}", t.get(param)),
            OpName::PsAggregate { shard, param } => {
                format!("ps{shard}/aggregate/{}", t.get(param))
            }
            OpName::PsUpdate { shard, param } => format!("ps{shard}/update/{}", t.get(param)),
            OpName::Chunk {
                role,
                shard,
                worker,
                param,
                chunk,
            } => {
                let p = t.get(param);
                match role {
                    CommRole::Read => format!("ps{shard}/read/{p}.part{chunk}"),
                    CommRole::Send => format!("ps{shard}/send/{p}.part{chunk}/w{worker}"),
                    CommRole::Recv => format!("w{worker}/recv/{p}.part{chunk}"),
                    CommRole::SendGrad => format!("w{worker}/send_grad/{p}.part{chunk}"),
                    CommRole::RecvGrad => format!("ps{shard}/recv_grad/{p}.part{chunk}/w{worker}"),
                    CommRole::Aggregate => format!("ps{shard}/aggregate/{p}.part{chunk}"),
                    CommRole::Update => format!("ps{shard}/update/{p}.part{chunk}"),
                }
            }
            OpName::Fused {
                role,
                shard,
                worker,
                group,
            } => match role {
                CommRole::Send => format!("ps{shard}/send/fused{group}/w{worker}"),
                CommRole::Recv => format!("w{worker}/recv/fused{group}"),
                CommRole::SendGrad => format!("w{worker}/send_grad/fused{group}"),
                CommRole::RecvGrad => format!("ps{shard}/recv_grad/fused{group}/w{worker}"),
                CommRole::Read => format!("ps{shard}/read/fused{group}"),
                CommRole::Aggregate => format!("ps{shard}/aggregate/fused{group}"),
                CommRole::Update => format!("ps{shard}/update/fused{group}"),
            },
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

        /// Every variant — raw, the eight plain round-trip names, a chunk
        /// and a fused name in each of the seven roles — with its integers
        /// at every digit-width edge of their type and interned strings
        /// that a JSON writer must escape, rendered as `format!` did.
        #[test]
        fn names_render_as_the_format_strings(
            seed in proptest::prelude::any::<u64>(),
            variant in 0usize..23,
        ) {
            const STRINGS: [&str; 7] =
                ["fc/weights", "a\"b", "back\\slash", "line\nfeed", "\u{1}ctl", "é漢😀", ""];
            let (wide, narrow) = (width_edges(u32::MAX.into()), width_edges(u16::MAX.into()));
            let mut x = seed;
            let mut draw = |n: usize| {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
                (x >> 33) as usize % n
            };
            let mut t = NameTable::new();
            let param = t.intern(STRINGS[draw(STRINGS.len())]);
            let (shard, worker) = (wide[draw(wide.len())] as u32, wide[draw(wide.len())] as u32);
            let (s16, w16, chunk) = (
                narrow[draw(narrow.len())] as u16,
                narrow[draw(narrow.len())] as u16,
                narrow[draw(narrow.len())] as u16,
            );
            let group = wide[draw(wide.len())] as u32;
            const ROLES: [CommRole; 7] = [
                CommRole::Read,
                CommRole::Send,
                CommRole::Recv,
                CommRole::SendGrad,
                CommRole::RecvGrad,
                CommRole::Aggregate,
                CommRole::Update,
            ];
            let name = match variant {
                0 => OpName::Raw(param),
                1 => OpName::PsRead { shard, param },
                2 => OpName::PsSend { shard, param, worker },
                3 => OpName::WorkerRecv { worker, param },
                4 => OpName::WorkerOp { worker, op: param },
                5 => OpName::WorkerSendGrad { worker, param },
                6 => OpName::PsRecvGrad { shard, param, worker },
                7 => OpName::PsAggregate { shard, param },
                8 => OpName::PsUpdate { shard, param },
                9..=15 => OpName::Chunk {
                    role: ROLES[variant - 9],
                    shard: s16,
                    worker: w16,
                    param,
                    chunk,
                },
                _ => OpName::Fused {
                    role: ROLES[variant - 16],
                    shard: s16,
                    worker: w16,
                    group,
                },
            };
            let mut out = String::from("prefix:");
            name.render_into(&t, &mut out);
            proptest::prop_assert_eq!(&out["prefix:".len()..], legacy(name, &t));
        }
    }
}

//! Compact structured op names.
//!
//! Deployment used to mint one heap `String` per op
//! (`format!("ps{shard}/send/{param}/w{w}")`, …) — on inception/resnet-class
//! models that is tens of thousands of allocations on the deploy hot path.
//! An [`OpName`] is a 16-byte `Copy` value instead: a role tag plus small
//! integer fields, with model-level strings (parameter and layer names)
//! deduplicated through a [`NameTable`] interner. Rendering to the legacy string happens lazily — and
//! **byte-identically**, so the golden trace fingerprints and the pinned
//! Perfetto snapshot do not move — only when something actually asks for a
//! display name ([`Graph::op_name`](crate::Graph::op_name)).

use std::collections::HashMap;
use std::fmt::Write as _;

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
    /// Renders the legacy string form into `out` (byte-identical to the
    /// historical `format!` calls).
    pub(crate) fn render_into(&self, table: &NameTable, out: &mut String) {
        match *self {
            OpName::Raw(id) => out.push_str(table.get(id)),
            OpName::PsRead { shard, param } => {
                let _ = write!(out, "ps{shard}/read/{}", table.get(param));
            }
            OpName::PsSend {
                shard,
                param,
                worker,
            } => {
                let _ = write!(out, "ps{shard}/send/{}/w{worker}", table.get(param));
            }
            OpName::WorkerRecv { worker, param } => {
                let _ = write!(out, "w{worker}/recv/{}", table.get(param));
            }
            OpName::WorkerOp { worker, op } => {
                let _ = write!(out, "w{worker}/{}", table.get(op));
            }
            OpName::WorkerSendGrad { worker, param } => {
                let _ = write!(out, "w{worker}/send_grad/{}", table.get(param));
            }
            OpName::PsRecvGrad {
                shard,
                param,
                worker,
            } => {
                let _ = write!(out, "ps{shard}/recv_grad/{}/w{worker}", table.get(param));
            }
            OpName::PsAggregate { shard, param } => {
                let _ = write!(out, "ps{shard}/aggregate/{}", table.get(param));
            }
            OpName::PsUpdate { shard, param } => {
                let _ = write!(out, "ps{shard}/update/{}", table.get(param));
            }
            OpName::Chunk {
                role,
                shard,
                worker,
                param,
                chunk,
            } => {
                let p = table.get(param);
                match role {
                    CommRole::Read => {
                        let _ = write!(out, "ps{shard}/read/{p}.part{chunk}");
                    }
                    CommRole::Send => {
                        let _ = write!(out, "ps{shard}/send/{p}.part{chunk}/w{worker}");
                    }
                    CommRole::Recv => {
                        let _ = write!(out, "w{worker}/recv/{p}.part{chunk}");
                    }
                    CommRole::SendGrad => {
                        let _ = write!(out, "w{worker}/send_grad/{p}.part{chunk}");
                    }
                    CommRole::RecvGrad => {
                        let _ = write!(out, "ps{shard}/recv_grad/{p}.part{chunk}/w{worker}");
                    }
                    CommRole::Aggregate => {
                        let _ = write!(out, "ps{shard}/aggregate/{p}.part{chunk}");
                    }
                    CommRole::Update => {
                        let _ = write!(out, "ps{shard}/update/{p}.part{chunk}");
                    }
                }
            }
            OpName::Fused {
                role,
                shard,
                worker,
                group,
            } => match role {
                CommRole::Send => {
                    let _ = write!(out, "ps{shard}/send/fused{group}/w{worker}");
                }
                CommRole::Recv => {
                    let _ = write!(out, "w{worker}/recv/fused{group}");
                }
                CommRole::SendGrad => {
                    let _ = write!(out, "w{worker}/send_grad/fused{group}");
                }
                CommRole::RecvGrad => {
                    let _ = write!(out, "ps{shard}/recv_grad/fused{group}/w{worker}");
                }
                CommRole::Read => {
                    let _ = write!(out, "ps{shard}/read/fused{group}");
                }
                CommRole::Aggregate => {
                    let _ = write!(out, "ps{shard}/aggregate/fused{group}");
                }
                CommRole::Update => {
                    let _ = write!(out, "ps{shard}/update/fused{group}");
                }
            },
        }
    }

    /// Renders the legacy string form.
    pub(crate) fn render(&self, table: &NameTable) -> String {
        let mut out = String::new();
        self.render_into(table, &mut out);
        out
    }
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
}

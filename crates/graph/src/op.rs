//! Operations: the vertices of the partitioned computational graph.

use crate::ids::{ChannelId, ParamId};
use std::fmt;

/// What an op does, and — for communication ops — which parameter and
/// channel it involves.
///
/// The parameter-server DAG of the paper (§2.2) has five ops per parameter:
/// `read`, `send`, `recv`, `aggregate` and `update`; the worker DAG has
/// `recv` roots, compute ops, and `send` leaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// A computation op (convolution, matmul, gradient, …).
    Compute,
    /// The receiving end of a network transfer of `param` over `channel`.
    ///
    /// Recv ops execute on the channel resource: the time attributed to a
    /// recv is the wire time of its transfer.
    Recv {
        /// The parameter (or its gradient) being transferred.
        param: ParamId,
        /// The channel carrying the transfer.
        channel: ChannelId,
    },
    /// The sending end of a network transfer of `param` over `channel`.
    ///
    /// Send ops are lightweight: they hand the transfer to the channel.
    Send {
        /// The parameter (or its gradient) being transferred.
        param: ParamId,
        /// The channel carrying the transfer.
        channel: ChannelId,
    },
    /// PS-side aggregation of gradients for `param` across workers.
    Aggregate {
        /// The parameter whose gradients are aggregated.
        param: ParamId,
    },
    /// PS-side read of the current value of `param`.
    Read {
        /// The parameter being read.
        param: ParamId,
    },
    /// PS-side application of the aggregated update to `param`.
    Update {
        /// The parameter being updated.
        param: ParamId,
    },
}

impl OpKind {
    /// Convenience constructor for [`OpKind::Recv`].
    pub fn recv(param: ParamId, channel: ChannelId) -> Self {
        OpKind::Recv { param, channel }
    }

    /// Convenience constructor for [`OpKind::Send`].
    pub fn send(param: ParamId, channel: ChannelId) -> Self {
        OpKind::Send { param, channel }
    }

    /// Whether this op is a `recv` (a network transfer, in the paper's
    /// terminology the unit being scheduled).
    pub fn is_recv(&self) -> bool {
        matches!(self, OpKind::Recv { .. })
    }

    /// Whether this op is a `send`.
    pub fn is_send(&self) -> bool {
        matches!(self, OpKind::Send { .. })
    }

    /// Whether this op represents communication (send or recv).
    pub fn is_communication(&self) -> bool {
        self.is_recv() || self.is_send()
    }

    /// The parameter this op involves, if any.
    pub(crate) fn param(&self) -> Option<ParamId> {
        match *self {
            OpKind::Compute => None,
            OpKind::Recv { param, .. }
            | OpKind::Send { param, .. }
            | OpKind::Aggregate { param }
            | OpKind::Read { param }
            | OpKind::Update { param } => Some(param),
        }
    }

    /// The channel this op uses, if it is a communication op.
    pub fn channel(&self) -> Option<ChannelId> {
        match *self {
            OpKind::Recv { channel, .. } | OpKind::Send { channel, .. } => Some(channel),
            _ => None,
        }
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpKind::Compute => f.write_str("compute"),
            OpKind::Recv { param, channel } => write!(f, "recv({param}@{channel})"),
            OpKind::Send { param, channel } => write!(f, "send({param}@{channel})"),
            OpKind::Aggregate { param } => write!(f, "aggregate({param})"),
            OpKind::Read { param } => write!(f, "read({param})"),
            OpKind::Update { param } => write!(f, "update({param})"),
        }
    }
}

/// Platform-independent cost annotation of an op, interpreted by a time
/// oracle (`tictac-trace`).
///
/// Sends and recvs carry a byte count; compute, read, aggregate and update
/// ops carry floating-point work. An [`Op`] stores only the field its class
/// reads, and [`GraphBuilder::build`](crate::GraphBuilder::build) refuses a
/// cost that sets the other one ([`GraphError::UnreadCost`]). Either may be
/// zero (e.g. a control-dependency barrier).
///
/// [`GraphError::UnreadCost`]: crate::GraphError::UnreadCost
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Cost {
    /// Floating-point operations performed by the op.
    pub flops: f64,
    /// Bytes moved over the network (for communication ops).
    pub bytes: u64,
}

impl Cost {
    /// A zero-cost op (control dependencies, barriers).
    pub const ZERO: Cost = Cost {
        flops: 0.0,
        bytes: 0,
    };

    /// Cost of a compute op performing `flops` floating-point operations.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `flops` is negative or not finite.
    pub fn flops(flops: f64) -> Self {
        debug_assert!(flops.is_finite() && flops >= 0.0, "invalid flops {flops}");
        Cost { flops, bytes: 0 }
    }

    /// Cost of a communication op moving `bytes` bytes.
    pub fn bytes(bytes: u64) -> Self {
        Cost { flops: 0.0, bytes }
    }
}

/// A vertex of the partitioned graph.
///
/// An op stores no name: the owning graph derives it, or keeps a
/// hand-built graph's raw one beside the ops
/// ([`Graph::op_name`](crate::Graph::op_name)). Of the [`Cost`], an op
/// keeps the one field its class reads, in one 8-byte word: the byte count
/// of a send or recv, the bits of the flops of any other op.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Op {
    pub(crate) kind: OpKind,
    pub(crate) device: crate::ids::DeviceId,
    cost: u64,
}

// A deployment holds one `Op` per op for as long as it is cached.
const _: () = assert!(std::mem::size_of::<Op>() == 24);

impl Op {
    /// An op keeping the field of `cost` that `kind` reads. The caller
    /// checks the other field first ([`Op::unread_field`]).
    pub(crate) fn new(kind: OpKind, device: crate::ids::DeviceId, cost: Cost) -> Self {
        let cost = if kind.is_communication() {
            cost.bytes
        } else {
            cost.flops.to_bits()
        };
        Self { kind, device, cost }
    }

    /// The field of `cost` an op of `kind` never reads, if `cost` sets it:
    /// flops on a send or recv (a negative zero counts as set), bytes on
    /// any other op.
    pub(crate) fn unread_field(kind: OpKind, cost: Cost) -> Option<&'static str> {
        if kind.is_communication() {
            (cost.flops.to_bits() != 0).then_some("flops")
        } else {
            (cost.bytes != 0).then_some("bytes")
        }
    }

    /// The op's kind.
    pub fn kind(&self) -> OpKind {
        self.kind
    }

    /// The device this op is assigned to.
    pub fn device(&self) -> crate::ids::DeviceId {
        self.device
    }

    /// The op's cost annotation: its byte count for a send or recv, its
    /// flops for any other op, and zero in the field its class never reads.
    pub fn cost(&self) -> Cost {
        if self.kind.is_communication() {
            Cost::bytes(self.cost)
        } else {
            Cost {
                flops: f64::from_bits(self.cost),
                bytes: 0,
            }
        }
    }

    /// Whether this op is a `recv`.
    pub fn is_recv(&self) -> bool {
        self.kind.is_recv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ChannelId, ParamId};

    fn p(i: usize) -> ParamId {
        ParamId::from_index(i)
    }
    fn ch(i: usize) -> ChannelId {
        ChannelId::from_index(i)
    }

    #[test]
    fn kind_predicates() {
        assert!(OpKind::recv(p(0), ch(0)).is_recv());
        assert!(OpKind::send(p(0), ch(0)).is_send());
        assert!(OpKind::recv(p(0), ch(0)).is_communication());
        assert!(OpKind::send(p(0), ch(0)).is_communication());
        assert!(!OpKind::Compute.is_communication());
        assert!(!OpKind::Aggregate { param: p(1) }.is_recv());
    }

    #[test]
    fn kind_param_and_channel() {
        assert_eq!(OpKind::Compute.param(), None);
        assert_eq!(OpKind::recv(p(3), ch(1)).param(), Some(p(3)));
        assert_eq!(OpKind::recv(p(3), ch(1)).channel(), Some(ch(1)));
        assert_eq!(OpKind::Update { param: p(2) }.param(), Some(p(2)));
        assert_eq!(OpKind::Update { param: p(2) }.channel(), None);
    }

    #[test]
    fn cost_constructors() {
        let c = Cost::flops(2.0e9);
        assert_eq!(c.flops, 2.0e9);
        assert_eq!(c.bytes, 0);
        let b = Cost::bytes(1024);
        assert_eq!(b.bytes, 1024);
    }

    #[test]
    fn kind_display() {
        assert_eq!(OpKind::Compute.to_string(), "compute");
        assert_eq!(OpKind::recv(p(1), ch(0)).to_string(), "recv(p1@ch0)");
        assert_eq!(OpKind::Read { param: p(0) }.to_string(), "read(p0)");
    }
}

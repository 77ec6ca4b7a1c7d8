//! Error type for graph construction and validation.

use crate::ids::{ChannelId, DeviceId, OpId, ParamId};
use std::error::Error;
use std::fmt;

/// Errors produced while building or validating a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GraphError {
    /// The graph contains a dependency cycle involving the given op.
    Cycle(OpId),
    /// An edge refers to an op id that does not exist.
    UnknownOp(OpId),
    /// An op refers to a device id that does not exist.
    UnknownDevice(DeviceId),
    /// An op refers to a channel id that does not exist.
    UnknownChannel(ChannelId),
    /// An op refers to a parameter id that does not exist.
    UnknownParam(ParamId),
    /// A communication op is placed on a device its channel does not connect.
    ChannelMismatch {
        /// The offending op.
        op: OpId,
        /// The op's device.
        device: DeviceId,
        /// The channel that does not connect the device.
        channel: ChannelId,
    },
    /// A channel was declared between two devices that are not a
    /// worker–parameter-server pair.
    InvalidChannelEndpoints {
        /// First endpoint.
        worker: DeviceId,
        /// Second endpoint.
        ps: DeviceId,
    },
    /// An op's cost sets the field its class never reads: flops on a send
    /// or recv, bytes on any other op.
    UnreadCost {
        /// The offending op.
        op: OpId,
        /// The field it set: `"flops"` or `"bytes"`.
        field: &'static str,
    },
    /// Two ops' names render alike.
    DuplicateOpName(String),
    /// A lowered op sits where its name cannot be derived: a compute op
    /// on a parameter server, or a read, aggregate or update on a worker.
    MisplacedOp {
        /// The offending op.
        op: OpId,
        /// The device it sits on.
        device: DeviceId,
    },
    /// A worker's lowered compute ops are not its replica: their count
    /// differs from the replica's, or other ops sit between them.
    ReplicaLayout {
        /// The worker.
        device: DeviceId,
        /// The lowered compute ops it holds.
        compute_ops: usize,
        /// The replica's ops.
        model_ops: usize,
    },
    /// The graph is empty where a non-empty graph was required.
    Empty,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::Cycle(op) => write!(f, "dependency cycle through {op}"),
            GraphError::UnknownOp(op) => write!(f, "unknown op {op}"),
            GraphError::UnknownDevice(d) => write!(f, "unknown device {d}"),
            GraphError::UnknownChannel(c) => write!(f, "unknown channel {c}"),
            GraphError::UnknownParam(p) => write!(f, "unknown parameter {p}"),
            GraphError::ChannelMismatch {
                op,
                device,
                channel,
            } => write!(
                f,
                "op {op} on {device} uses {channel} which does not connect {device}"
            ),
            GraphError::InvalidChannelEndpoints { worker, ps } => {
                write!(
                    f,
                    "channel endpoints {worker} and {ps} are not a worker-ps pair"
                )
            }
            GraphError::UnreadCost { op, field } => {
                write!(f, "op {op} sets {field}, which its class never reads")
            }
            GraphError::DuplicateOpName(name) => write!(f, "duplicate op name `{name}`"),
            GraphError::MisplacedOp { op, device } => write!(
                f,
                "op {op} on {device} has no name: lowered compute ops sit on workers, \
                 reads, aggregates and updates on parameter servers"
            ),
            GraphError::ReplicaLayout {
                device,
                compute_ops,
                model_ops,
            } => write!(
                f,
                "worker {device} holds {compute_ops} lowered compute ops where its replica \
                 is {model_ops} contiguous ones"
            ),
            GraphError::Empty => f.write_str("graph is empty"),
        }
    }
}

impl Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = GraphError::Cycle(OpId::from_index(3));
        assert_eq!(e.to_string(), "dependency cycle through op3");
        let e = GraphError::DuplicateOpName("conv1".into());
        assert!(e.to_string().contains("conv1"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GraphError>();
    }
}

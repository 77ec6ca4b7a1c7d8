//! Computational DAG substrate for the TicTac reproduction.
//!
//! The TicTac paper ([Hashemi et al., MLSys 2019]) schedules network
//! transfers in systems that represent computation as a directed acyclic
//! graph of operations, partitioned across devices (workers and parameter
//! servers) and resources (compute units and communication channels).
//!
//! This crate provides that representation, independent of any particular
//! deep-learning framework:
//!
//! * [`Graph`] — an arena of [`Op`]s with dependency edges, device tags and
//!   per-parameter metadata. This is the *partitioned graph* of the paper:
//!   every op carries the [`Resource`] it executes on.
//! * [`GraphBuilder`] — incremental, validated construction.
//! * [`ModelGraph`] — a device-agnostic description of a single replica of a
//!   DNN (layers, parameters, gradients). Model-zoo generators produce these;
//!   the `tictac-cluster` crate lowers them onto a [`Graph`] spanning a
//!   Model-Replica + Parameter-Server deployment.
//! * [`zoo`] — the ten networks of Table 1 ([`Model`]) and a tiny MLP
//!   ([`tiny_mlp`]), as [`ModelGraph`] generators.
//! * [`topo`] — topological utilities (Kahn ordering, reachability, critical
//!   path) used by the schedulers and the simulator.
//!
//! # Example
//!
//! Build the toy DAG of Figure 1a of the paper (two parameter receives
//! feeding two chained compute ops) and inspect it:
//!
//! ```
//! use tictac_graph::{Cost, GraphBuilder, OpKind};
//!
//! let mut b = GraphBuilder::new();
//! let worker = b.add_worker("worker/0");
//! let ps = b.add_parameter_server("ps/0");
//! let ch = b.add_channel(worker, ps);
//! let p1 = b.add_param("w1", 4 << 20);
//! let p2 = b.add_param("w2", 4 << 20);
//! let r1 = b.add_op("recv1", worker, OpKind::recv(p1, ch), Cost::bytes(4 << 20), &[]);
//! let r2 = b.add_op("recv2", worker, OpKind::recv(p2, ch), Cost::bytes(4 << 20), &[]);
//! let op1 = b.add_op("op1", worker, OpKind::Compute, Cost::flops(1e9), &[r1]);
//! let _op2 = b.add_op("op2", worker, OpKind::Compute, Cost::flops(1e9), &[op1, r2]);
//! let g = b.build()?;
//! assert_eq!(g.len(), 4);
//! assert_eq!(g.roots().count(), 2);
//! # Ok::<(), tictac_graph::GraphError>(())
//! ```
//!
//! [Hashemi et al., MLSys 2019]: https://proceedings.mlsys.org/paper/2019

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod device;
mod error;
mod graph;
mod hash;
mod ids;
mod model;
mod name;
mod op;
pub mod topo;
pub mod zoo;

pub use builder::GraphBuilder;
pub use device::{Channel, Device, DeviceKind, Resource};
pub use error::GraphError;
pub use graph::{Graph, ParamInfo};
pub use hash::Fnv1a;
pub use ids::{ChannelId, DeviceId, ModelOpId, OpId, ParamId};
pub use model::{
    ModelGraph, ModelGraphBuilder, ModelOp, ModelOpKind, ModelStats, ParamSpec, TensorShape,
};
pub use name::decimal;
pub use op::{Cost, Op, OpKind};
pub use zoo::{tiny_mlp, Mode, Model};

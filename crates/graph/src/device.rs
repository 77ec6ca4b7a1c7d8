//! Devices (workers, parameter servers), channels and resources.
//!
//! TicTac's scheduling problem is defined over a *partitioned graph*: every
//! op is tagged with the resource that executes it. A device contributes one
//! compute resource; every worker–PS pair contributes one communication
//! channel (mirroring gRPC's single channel per pair, paper §5.1).

use crate::ids::{ChannelId, DeviceId};
use std::fmt;

/// The role a device plays in a Model-Replica + Parameter-Server deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// A training or inference worker holding a replica of the model.
    Worker,
    /// A parameter server holding a shard of the parameters.
    ParameterServer,
}

impl fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceKind::Worker => f.write_str("worker"),
            DeviceKind::ParameterServer => f.write_str("ps"),
        }
    }
}

/// A device participating in the deployment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Device {
    id: DeviceId,
    kind: DeviceKind,
    /// The device's index among the devices of its kind.
    ordinal: u16,
    name: String,
}

impl Device {
    pub(crate) fn new(
        id: DeviceId,
        kind: DeviceKind,
        ordinal: u16,
        name: impl Into<String>,
    ) -> Self {
        Self {
            id,
            kind,
            ordinal,
            name: name.into(),
        }
    }

    /// The device's index among the devices of its kind: `w` of
    /// `w{w}/…` names, `s` of `ps{s}/…` ones.
    pub(crate) fn ordinal(&self) -> u16 {
        self.ordinal
    }

    /// The device's identifier.
    pub fn id(&self) -> DeviceId {
        self.id
    }

    /// The device's human-readable name (e.g. `"worker/0"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether this device is a worker.
    pub fn is_worker(&self) -> bool {
        self.kind == DeviceKind::Worker
    }

    /// Whether this device is a parameter server.
    pub fn is_parameter_server(&self) -> bool {
        self.kind == DeviceKind::ParameterServer
    }
}

impl fmt::Display for Device {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)
    }
}

/// A bidirectional communication channel between two devices.
///
/// Mirroring gRPC semantics in TensorFlow (paper §5.1): all transfers
/// between the pair share one queue and only one transfer is active at a
/// time. Channels connect a worker to a PS shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Channel {
    id: ChannelId,
    worker: DeviceId,
    ps: DeviceId,
}

impl Channel {
    pub(crate) fn new(id: ChannelId, worker: DeviceId, ps: DeviceId) -> Self {
        Self { id, worker, ps }
    }

    /// The channel's identifier.
    pub fn id(&self) -> ChannelId {
        self.id
    }

    /// The worker endpoint.
    pub fn worker(&self) -> DeviceId {
        self.worker
    }

    /// The parameter-server endpoint.
    pub fn ps(&self) -> DeviceId {
        self.ps
    }

    /// Whether `device` is one of the two endpoints.
    pub(crate) fn connects(&self, device: DeviceId) -> bool {
        self.worker == device || self.ps == device
    }
}

impl fmt::Display for Channel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}<->{}]", self.id, self.worker, self.ps)
    }
}

/// An execution resource: either a device's compute unit or a communication
/// channel.
///
/// The scheduling-efficiency bounds of the paper (§3.2) are defined per
/// resource: the lower makespan bound is the busiest resource's total load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Resource {
    /// The computation unit of a device (GPU or CPU).
    Compute(DeviceId),
    /// A worker–PS communication channel.
    Channel(ChannelId),
}

impl Resource {
    /// Whether this resource is a communication channel.
    pub fn is_channel(&self) -> bool {
        matches!(self, Resource::Channel(_))
    }
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Resource::Compute(d) => write!(f, "compute({d})"),
            Resource::Channel(c) => write!(f, "channel({c})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_accessors() {
        let d = Device::new(DeviceId::from_index(0), DeviceKind::Worker, 0, "worker/0");
        assert!(d.is_worker());
        assert!(!d.is_parameter_server());
        assert_eq!(d.name(), "worker/0");
        assert_eq!(d.to_string(), "worker/0");
    }

    #[test]
    fn channel_connects_its_endpoints_only() {
        let w = DeviceId::from_index(0);
        let ps = DeviceId::from_index(1);
        let other = DeviceId::from_index(2);
        let ch = Channel::new(ChannelId::from_index(0), w, ps);
        assert!(ch.connects(w));
        assert!(ch.connects(ps));
        assert!(!ch.connects(other));
    }

    #[test]
    fn resource_kind_predicates() {
        let c = Resource::Compute(DeviceId::from_index(0));
        let ch = Resource::Channel(ChannelId::from_index(0));
        assert!(!c.is_channel());
        assert!(ch.is_channel());
    }

    #[test]
    fn display_formats() {
        let ch = Channel::new(
            ChannelId::from_index(2),
            DeviceId::from_index(0),
            DeviceId::from_index(4),
        );
        assert_eq!(ch.to_string(), "ch2[dev0<->dev4]");
        assert_eq!(Resource::Channel(ch.id()).to_string(), "channel(ch2)");
    }
}

//! Noise-free service times: what an op costs on a dedicated resource
//! before noise, slowdowns and faults are applied.
//!
//! The event engine, the threaded runtime's busy-loops and the TAC
//! profiler read op durations from [`ServiceTimes::of`], so "what would a
//! quiet, noise-free run measure" has one definition.

use crate::config::SimConfig;
use tictac_graph::{ChannelId, Graph, OpId, OpKind};
use tictac_timing::{CostOracle, MeasuredProfile, SimDuration, TimeOracle};

/// The send op feeding `recv` (transfer pairing), if the graph models one:
/// hand-built graphs may leave recvs as pure roots.
pub(crate) fn paired_send(graph: &Graph, recv: OpId) -> Option<OpId> {
    graph
        .preds(recv)
        .iter()
        .copied()
        .find(|&p| graph.op(p).kind().is_send())
}

/// Service times of one `(graph, config)` pair.
pub(crate) struct ServiceTimes<'g> {
    graph: &'g Graph,
    oracle: CostOracle,
    /// Per-channel wire-time stretch factor: the topology fair share
    /// (see [`Platform::transfer_time_shared`]) divided by the channel's
    /// relative bandwidth. Uniform graphs divide by exactly `1.0`, so the
    /// factor — and every transfer duration — is bit-for-bit the
    /// homogeneous value.
    ///
    /// [`Platform::transfer_time_shared`]: tictac_timing::Platform::transfer_time_shared
    chan_share: Vec<f64>,
}

impl<'g> ServiceTimes<'g> {
    pub(crate) fn new(graph: &'g Graph, config: &SimConfig) -> Self {
        let bandwidth_share = config.bandwidth_share_override.unwrap_or_else(|| {
            // Every server fans out to all workers.
            let workers = graph.workers().count();
            let servers = graph.parameter_servers().count();
            workers.max(servers).max(1) as f64
        });
        let chan_share = (0..graph.channels().len())
            .map(|c| bandwidth_share / graph.channel_bandwidth(ChannelId::from_index(c)))
            .collect();
        Self {
            graph,
            oracle: CostOracle::new(config.platform.clone()),
            chan_share,
        }
    }

    /// Service time of `op`: the wire time of the whole transfer for a
    /// recv, nothing for a send (an instantaneous hand-off — traces mirror
    /// the paired recv's interval onto it), and the cost oracle's
    /// prediction, device speed included, for everything else.
    pub(crate) fn of(&self, op: OpId) -> SimDuration {
        let o = self.graph.op(op);
        match o.kind() {
            OpKind::Recv { channel, .. } => self
                .oracle
                .platform()
                .transfer_time_scaled(o.cost().bytes, self.chan_share[channel.index()]),
            OpKind::Send { .. } => SimDuration::ZERO,
            _ => self.oracle.duration(self.graph, op),
        }
    }
}

/// The time oracle a noise-free configuration measures, without running
/// it: exactly what `estimate_profile` returns over any number of
/// fault-free `simulate` runs of `graph` when `config.noise` is
/// [`NoiseModel::none`](tictac_timing::NoiseModel::none).
///
/// Such runs can differ only in the *order* the ready queues and channels
/// pick work, and no recorded duration depends on that order: every op
/// executes once for its service time, and a send is recorded over its
/// recv's transfer interval. (The unit noise and slowdown factors the
/// engine still multiplies by are exact below 2^53 ns.) Under any other
/// noise model runs do differ and the profile must be measured.
pub fn noise_free_profile(graph: &Graph, config: &SimConfig) -> MeasuredProfile {
    let service = ServiceTimes::new(graph, config);
    let mut durations = vec![SimDuration::ZERO; graph.len()];
    for (id, op) in graph.ops() {
        if op.kind().is_send() {
            continue;
        }
        let d = service.of(id);
        durations[id.index()] = d;
        if op.is_recv() {
            if let Some(send) = paired_send(graph, id) {
                durations[send.index()] = d;
            }
        }
    }
    MeasuredProfile::from_durations(durations)
}

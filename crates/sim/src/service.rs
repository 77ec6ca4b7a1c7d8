//! Noise-free service times: what an op costs on a dedicated resource
//! before noise, slowdowns and faults are applied.
//!
//! The event engine, the threaded runtime's busy-loops and the TAC
//! profiler read op durations from the column [`service_times`] fills, so
//! "what would a quiet, noise-free run measure" has one definition.

use crate::config::SimConfig;
use tictac_graph::{ChannelId, Graph, OpId, OpKind};
use tictac_trace::{CostOracle, MeasuredProfile, SimDuration};

/// The send op feeding `recv` (transfer pairing), if the graph models one:
/// hand-built graphs may leave recvs as pure roots.
pub(crate) fn paired_send(graph: &Graph, recv: OpId) -> Option<OpId> {
    graph.preds(recv).find(|&p| graph.op(p).kind().is_send())
}

/// Service time of every op of `graph` under `config`, by op index: the
/// wire time of the whole transfer for a recv, nothing for a send (an
/// instantaneous hand-off — traces mirror the paired recv's interval onto
/// it), and the cost oracle's prediction, device speed included, for
/// everything else.
pub(crate) fn service_times(graph: &Graph, config: &SimConfig) -> Vec<SimDuration> {
    // Every server fans out to all workers.
    let workers = graph.workers().count();
    let servers = graph.parameter_servers().count();
    let bandwidth_share = workers.max(servers).max(1) as f64;
    // Per-channel wire-time stretch factor: the topology fair share (see
    // `Platform::transfer_time_scaled`) divided by the channel's relative
    // bandwidth. Uniform graphs divide by exactly `1.0`, so the factor —
    // and every transfer duration — is bit-for-bit the homogeneous value.
    let chan_share: Vec<f64> = (0..graph.channels().len())
        .map(|c| bandwidth_share / graph.channel_bandwidth(ChannelId::from_index(c)))
        .collect();
    let oracle = CostOracle::new(config.platform.clone());
    graph
        .ops()
        .map(|(_, op)| match op.kind() {
            OpKind::Recv { channel, .. } => oracle
                .platform()
                .transfer_time_scaled(op.cost().bytes, chan_share[channel.index()]),
            OpKind::Send { .. } => SimDuration::ZERO,
            _ => oracle.op_duration(graph, &op),
        })
        .collect()
}

/// The time oracle a noise-free configuration measures, without running
/// it: exactly what `estimate_profile` returns over any number of
/// fault-free `simulate` runs of `graph` when `config.noise` is
/// [`NoiseModel::none`](tictac_trace::NoiseModel::none).
///
/// Such runs can differ only in the *order* the ready queues and channels
/// pick work, and no recorded duration depends on that order: every op
/// executes once for its service time, and a send is recorded over its
/// recv's transfer interval. (The unit noise and slowdown factors the
/// engine still multiplies by are exact below 2^53 ns.) Under any other
/// noise model runs do differ and the profile must be measured.
pub fn noise_free_profile(graph: &Graph, config: &SimConfig) -> MeasuredProfile {
    let mut durations = service_times(graph, config);
    for (id, op) in graph.ops() {
        if !op.is_recv() {
            continue;
        }
        if let Some(send) = paired_send(graph, id) {
            durations[send.index()] = durations[id.index()];
        }
    }
    MeasuredProfile::from_durations(durations)
}

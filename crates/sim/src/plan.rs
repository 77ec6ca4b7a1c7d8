//! The static half of a run: everything that is a pure function of
//! `(graph, schedule, config)`, derived and validated once.
//!
//! A session runs many iterations of one deployment, and so does every
//! other consumer of the executors (TAC's profiling runs, the tuner's
//! samples, the §2.2 order census). What differs between those iterations
//! is the iteration index — the RNG stream, the sampled [`FaultPlan`] —
//! and nothing else, so the per-op tables both executors read on their
//! hot paths live here: the event engine (`engine.rs`) and the threaded
//! runtime (`threaded.rs`) borrow one [`RunPlan`] and keep only their own
//! mutable state per iteration. The one-shot entry points ([`simulate`],
//! [`try_simulate`], …) are "a plan for one run".
//!
//! [`simulate`]: crate::simulate
//! [`try_simulate`]: crate::try_simulate

use crate::config::SimConfig;
use crate::error::SimError;
use crate::faults::FaultPlan;
use crate::service::{paired_send, service_times};
use tictac_graph::{Graph, OpId, OpKind};
use tictac_sched::Schedule;
use tictac_timing::{SimDuration, SimTime};
use tictac_trace::TraceBuilder;

/// One `(graph, schedule, config)` triple, checked and tabulated: what
/// every iteration of it reads and none changes.
///
/// Not to be confused with a [`FaultPlan`](crate::FaultPlan), which is
/// one *iteration's* sampled fault set; a `RunPlan` outlives all of them.
/// It holds no reference to the graph or the schedule (so a session can
/// keep it in a field beside them), which is why the run methods take
/// both again: they must be the pair the plan was built from.
#[derive(Debug)]
pub struct RunPlan {
    config: SimConfig,
    /// Where each op goes once its dependencies are done (see [`Route`]).
    pub(crate) route: Vec<Route>,
    /// Pairing and enforcement rank per transfer op (§5.1).
    pub(crate) transfers: TransferTable,
    /// Noise-free service time per op (see [`service_times`]).
    pub(crate) service: Vec<SimDuration>,
    /// Predecessor count per op: the template each iteration's
    /// dependency counters start from.
    pub(crate) indegree: Vec<u32>,
}

impl RunPlan {
    /// Tabulates `graph` under `schedule` and `config`. This is the one
    /// place a schedule is checked against its graph; every executor
    /// entry point goes through it.
    ///
    /// # Errors
    ///
    /// [`SimError::ScheduleMismatch`] if `schedule` does not cover
    /// `graph`, and nothing else.
    pub fn new(graph: &Graph, schedule: &Schedule, config: &SimConfig) -> Result<Self, SimError> {
        if schedule.len() != graph.len() {
            return Err(SimError::ScheduleMismatch {
                schedule_len: schedule.len(),
                graph_len: graph.len(),
            });
        }
        Ok(Self {
            config: config.clone(),
            route: graph
                .ops()
                .map(|(_, op)| match op.kind() {
                    OpKind::Send { channel, .. } => Route::Send(channel.index() as u32),
                    OpKind::Recv { channel, .. } => Route::Recv(channel.index() as u32),
                    _ => Route::Compute(op.device().index() as u32),
                })
                .collect(),
            transfers: TransferTable::new(graph, schedule),
            service: service_times(graph, config),
            indegree: graph
                .op_ids()
                .map(|op| graph.preds(op).len() as u32)
                .collect(),
        })
    }

    /// The configuration the plan was built under, and every iteration
    /// run from it executes under.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Samples iteration `iteration`'s fault set from the plan's fault
    /// spec and seed: the one `(spec, graph, seed, iteration)` key, so
    /// identical seeds inject the identical faults.
    pub fn sample_faults(&self, graph: &Graph, iteration: u64) -> FaultPlan {
        FaultPlan::sample(&self.config.faults, graph, self.config.seed, iteration)
    }

    /// Whether `graph` and `schedule` can be the pair this plan
    /// tabulates (a length check: the contract is the caller's).
    pub(crate) fn covers(&self, graph: &Graph, schedule: &Schedule) -> bool {
        self.indegree.len() == graph.len() && schedule.len() == graph.len()
    }
}

/// Where an op goes once its dependencies are done, and the resource it
/// holds while it runs: all that the executors' dispatch and completion
/// paths need to know of an op, so neither reads the graph's `Op` there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Route {
    /// A send on this channel: handed off through the channel's gate.
    Send(u32),
    /// A recv on this channel: queued on the channel.
    Recv(u32),
    /// Any other op, on this device's compute unit.
    Compute(u32),
}

impl Route {
    /// The channel (send, recv) or device (compute) index.
    pub(crate) fn index(self) -> usize {
        match self {
            Route::Send(i) | Route::Recv(i) | Route::Compute(i) => i as usize,
        }
    }
}

/// Per-op transfer facts the engine and the threaded runtime read on the
/// hand-off path (the channel is the op's [`Route`]).
#[derive(Debug)]
pub(crate) struct TransferTable {
    /// Enforcement ranks: priorities normalized to `[0, n)` per channel,
    /// attached to the PS-side send op of each prioritized transfer (§5.1:
    /// enforcement happens at the sender before gRPC hand-off). Hand-built
    /// graphs may model recvs as pure roots (no explicit send op); those
    /// transfers carry the rank on the recv itself and are ordered by the
    /// channel's rank-aware pop alone.
    pub(crate) rank: Vec<Option<u64>>,
    /// The rank each recv carries into its channel's queue: its send's
    /// for PS-built graphs, its own for sendless ones.
    pub(crate) recv_rank: Vec<Option<u64>>,
    /// The send op feeding each recv (transfer pairing).
    pub(crate) send_of: Vec<Option<OpId>>,
}

impl TransferTable {
    fn new(graph: &Graph, schedule: &Schedule) -> Self {
        let n = graph.len();
        let mut table = Self {
            rank: vec![None; n],
            recv_rank: vec![None; n],
            send_of: vec![None; n],
        };
        for (id, op) in graph.ops() {
            if op.is_recv() {
                table.send_of[id.index()] = paired_send(graph, id);
            }
        }
        // The baseline ranks nothing: both rank columns stay `None`.
        if schedule.is_unordered() {
            return table;
        }
        for recvs in schedule.ordered_recvs_per_channel(graph) {
            for (r, recv) in recvs.into_iter().enumerate() {
                let ranked_op = table.send_of[recv.index()].unwrap_or(recv);
                table.rank[ranked_op.index()] = Some(r as u64);
            }
        }
        for (id, op) in graph.ops() {
            if op.is_recv() {
                let ranked_op = table.send_of[id.index()].unwrap_or(id);
                table.recv_rank[id.index()] = table.rank[ranked_op.index()];
            }
        }
        table
    }

    /// Records a finished transfer of `recv` over `[start, end]`, on the
    /// recv and on its paired send: the send completed at hand-off, but
    /// its interval is only known now (TF's tracer likewise reports
    /// transfer time at the send op). A graph may feed one send into
    /// several recvs; the send keeps the interval of whichever finished
    /// first.
    pub(crate) fn record(
        &self,
        trace: &mut TraceBuilder,
        recv: OpId,
        start: SimTime,
        end: SimTime,
    ) {
        trace.record(recv, start, end);
        if let Some(send) = self.send_of[recv.index()] {
            if !trace.is_recorded(send) {
                trace.record(send, start, end);
            }
        }
    }
}

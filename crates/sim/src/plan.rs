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
//! mutable state per iteration. [`RunPlan::new`] is the one door every
//! run passes, so the rules of a run are checked there once: the knobs'
//! ranges, the schedule against its graph, and both ends of the time
//! axis. [`simulate`] is "a plan for one run".
//!
//! [`simulate`]: crate::simulate

use crate::config::SimConfig;
use crate::error::SimError;
use crate::faults::FaultPlan;
use crate::service::{paired_send, service_times};
use tictac_graph::{Graph, OpId, OpKind};
use tictac_sched::Schedule;
use tictac_trace::{SimDuration, SimTime, TraceBuilder, HORIZON_NS};

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
    /// The ops with no predecessor, in id order: what each iteration
    /// dispatches first.
    pub(crate) roots: Vec<OpId>,
}

impl RunPlan {
    /// Tabulates `graph` under `schedule` and `config`. This is the one
    /// place a schedule is checked against its graph, the config's knobs
    /// against their ranges, and a run against the 2^53 ns end of the
    /// time axis; every executor entry point goes through it.
    ///
    /// # Errors
    ///
    /// What [`CheckedRun::new`] refuses, then
    /// [`SimError::ScheduleMismatch`] if `schedule` does not cover
    /// `graph`.
    pub fn new(graph: &Graph, schedule: &Schedule, config: &SimConfig) -> Result<Self, SimError> {
        CheckedRun::new(graph, config)?.plan(graph, schedule)
    }

    /// The configuration the plan was built under, and every iteration
    /// run from it executes under.
    pub(crate) fn config(&self) -> &SimConfig {
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

/// A run's rules checked before its schedule exists: the first half of
/// [`RunPlan::new`]. A caller that derives a schedule (the session
/// builder) checks first, so a run that can never start derives nothing,
/// and the noise-free service column is built once for both halves.
#[derive(Debug)]
pub struct CheckedRun {
    config: SimConfig,
    service: Vec<SimDuration>,
}

impl CheckedRun {
    /// Checks `config` for a run of `graph`.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidKnob`] if a knob is out of range
    /// ([`SimConfig::check`]), [`SimError::RetryPastHorizon`] if the retry
    /// policy's timeouts can add up to `HORIZON_NS` (a loss-detection
    /// timeout past it would put an event into the past), and
    /// [`SimError::ServicePastHorizon`] if the noise-free service times
    /// sum to `HORIZON_NS` or more: a noise-free, fault-free iteration
    /// takes at most that sum. Both sums saturate, as each duration does,
    /// so no factor wraps them back under the bound.
    pub fn new(graph: &Graph, config: &SimConfig) -> Result<Self, SimError> {
        config.check()?;
        let budget = config.faults.retry.total_budget();
        if budget.as_nanos() >= HORIZON_NS {
            return Err(SimError::RetryPastHorizon { budget });
        }
        let service = service_times(graph, config);
        let total = service
            .iter()
            .fold(SimDuration::ZERO, |sum, &d| sum.saturating_add(d));
        if total.as_nanos() >= HORIZON_NS {
            return Err(SimError::ServicePastHorizon { total });
        }
        Ok(Self {
            config: config.clone(),
            service,
        })
    }

    /// The plan of this run under `schedule`: the second half of
    /// [`RunPlan::new`].
    ///
    /// # Errors
    ///
    /// [`SimError::ScheduleMismatch`] if `schedule` does not cover
    /// `graph`.
    ///
    /// # Panics
    ///
    /// Panics if `graph` is not the size of the one the run was checked
    /// on.
    pub fn plan(self, graph: &Graph, schedule: &Schedule) -> Result<RunPlan, SimError> {
        assert_eq!(
            self.service.len(),
            graph.len(),
            "run checked on another graph"
        );
        if schedule.len() != graph.len() {
            return Err(SimError::ScheduleMismatch {
                schedule_len: schedule.len(),
                graph_len: graph.len(),
            });
        }
        let indegree: Vec<u32> = graph
            .op_ids()
            .map(|op| graph.preds(op).count() as u32)
            .collect();
        Ok(RunPlan {
            config: self.config,
            route: graph
                .ops()
                .map(|(_, op)| match op.kind() {
                    OpKind::Send { channel, .. } => Route::Send(channel.index() as u32),
                    OpKind::Recv { channel, .. } => Route::Recv(channel.index() as u32),
                    _ => Route::Compute(op.device().index() as u32),
                })
                .collect(),
            transfers: TransferTable::new(graph, schedule),
            service: self.service,
            roots: (0..indegree.len())
                .filter(|&i| indegree[i] == 0)
                .map(OpId::from_index)
                .collect(),
            indegree,
        })
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
///
/// Each column keeps four bytes an op, [`NONE`] for "no value", and is
/// read through its accessor, which returns the `Option`.
#[derive(Debug)]
pub(crate) struct TransferTable {
    /// Gate ranks: each prioritized transfer's PS-side send's position
    /// among its channel's sends (§5.1: the sender's gate counts
    /// hand-offs). Sendless recvs, which hand-built graphs may model as
    /// roots, have none and are ordered by the channel's pop alone.
    rank: Vec<u32>,
    /// The rank each recv carries into its channel's queue: its position
    /// in the channel's priority order.
    recv_rank: Vec<u32>,
    /// The send op feeding each recv (transfer pairing), by index.
    send_of: Vec<u32>,
}

/// The empty cell of a [`TransferTable`] column. A rank is a position in
/// one channel's order and a send an op index, so both are below the op
/// count, which [`OpId`]'s `u32` bounds.
const NONE: u32 = u32::MAX;

/// The value in `cell`, if it holds one.
fn cell(cell: u32) -> Option<u32> {
    (cell != NONE).then_some(cell)
}

impl TransferTable {
    /// Pairs every recv with its send and, unless the schedule is the
    /// baseline, places each *ranked op* — a recv's send, or the recv
    /// itself when it has none — once, on the ranked op's own channel,
    /// densely, at the position of its first recv in that channel's
    /// priority order (ties by recv id), which its recvs carry. A send's
    /// gate rank counts the sends before it, so the gate, which only
    /// hand-offs advance, reaches it; a send feeding several recvs takes
    /// one.
    fn new(graph: &Graph, schedule: &Schedule) -> Self {
        let n = graph.len();
        let mut table = Self {
            rank: vec![NONE; n],
            recv_rank: vec![NONE; n],
            send_of: vec![NONE; n],
        };
        for (id, op) in graph.ops() {
            if op.is_recv() {
                if let Some(send) = paired_send(graph, id) {
                    table.send_of[id.index()] = send.index() as u32;
                }
            }
        }
        // The baseline ranks nothing: both rank columns stay empty.
        if schedule.is_unordered() {
            return table;
        }
        let mut per_channel: Vec<Vec<(u64, OpId, OpId)>> = vec![Vec::new(); graph.channels().len()];
        for (recv, priority) in schedule.prioritized() {
            if !graph.op(recv).is_recv() {
                continue;
            }
            let ranked = table.send_of(recv).unwrap_or(recv);
            if let Some(ch) = graph.op(ranked).kind().channel() {
                per_channel[ch.index()].push((priority, recv, ranked));
            }
        }
        let mut position = vec![NONE; n];
        for mut order in per_channel {
            order.sort_unstable();
            let (mut next, mut next_send) = (0, 0);
            for (_, recv, ranked) in order {
                if position[ranked.index()] == NONE {
                    position[ranked.index()] = next;
                    next += 1;
                    if ranked != recv {
                        table.rank[ranked.index()] = next_send;
                        next_send += 1;
                    }
                }
            }
        }
        for (id, op) in graph.ops() {
            if op.is_recv() {
                let ranked = table.send_of(id).unwrap_or(id);
                table.recv_rank[id.index()] = position[ranked.index()];
            }
        }
        table
    }

    /// The gate rank of `op`, if it is a ranked send.
    pub(crate) fn rank(&self, op: OpId) -> Option<u64> {
        cell(self.rank[op.index()]).map(u64::from)
    }

    /// The rank recv `op` carries into its channel's queue, if any.
    pub(crate) fn recv_rank(&self, op: OpId) -> Option<u64> {
        cell(self.recv_rank[op.index()]).map(u64::from)
    }

    /// The send op feeding recv `op`, if the graph models one.
    pub(crate) fn send_of(&self, op: OpId) -> Option<OpId> {
        cell(self.send_of[op.index()]).map(|i| OpId::from_index(i as usize))
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
        if let Some(send) = self.send_of(recv) {
            if !trace.is_recorded(send) {
                trace.record(send, start, end);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use tictac_graph::{Cost, GraphBuilder};

    /// `rank`, `recv_rank` and `send_of` as `Option` columns.
    type OptionColumns = (Vec<Option<u64>>, Vec<Option<u64>>, Vec<Option<OpId>>);

    /// The table as `Option` columns, derived from the rule's words:
    /// over each channel's recvs in priority order, a ranked op (the
    /// recv's send, else the recv) keeps the position of its first recv,
    /// positions stay dense, and every recv carries its ranked op's; the
    /// sends among the ranked ops are numbered `0, 1, ...` in that order,
    /// which is their gate rank.
    fn option_columns(graph: &Graph, schedule: &Schedule) -> OptionColumns {
        let n = graph.len();
        let (mut rank, mut recv_rank, mut send_of) = (vec![None; n], vec![None; n], vec![None; n]);
        for (id, op) in graph.ops() {
            if op.is_recv() {
                send_of[id.index()] = paired_send(graph, id);
            }
        }
        if schedule.is_unordered() {
            return (rank, recv_rank, send_of);
        }
        let mut position = vec![None; n];
        for recvs in schedule.ordered_recvs_per_channel(graph) {
            let mut placed = Vec::new();
            for recv in recvs {
                let ranked_op = send_of[recv.index()].unwrap_or(recv);
                if !placed.contains(&ranked_op) {
                    position[ranked_op.index()] = Some(placed.len() as u64);
                    placed.push(ranked_op);
                }
            }
            let sends = placed
                .into_iter()
                .filter(|&op| graph.op(op).kind().is_send());
            for (gate, send) in sends.enumerate() {
                rank[send.index()] = Some(gate as u64);
            }
        }
        for (id, op) in graph.ops() {
            if op.is_recv() {
                let ranked_op = send_of[id.index()].unwrap_or(id);
                recv_rank[id.index()] = position[ranked_op.index()];
            }
        }
        (rank, recv_rank, send_of)
    }

    /// Workers and PSs joined by one or two channels each; every
    /// parameter sits on one channel and is sent by its PS (after a read,
    /// sometimes) to one, two or three recvs on that channel, or reaches
    /// one or two sendless recvs; compute ops join random recvs. Returns
    /// the graph and whether some send feeds several recvs.
    fn random_graph(rng: &mut SmallRng) -> (Graph, bool) {
        let mut b = GraphBuilder::new();
        let workers: Vec<_> = (0..rng.gen_range(1..4))
            .map(|i| b.add_worker(format!("w{i}")))
            .collect();
        let servers: Vec<_> = (0..rng.gen_range(1..3))
            .map(|i| b.add_parameter_server(format!("ps{i}")))
            .collect();
        let mut channels = Vec::new();
        for &w in &workers {
            for &ps in &servers {
                for _ in 0..rng.gen_range(1..3) {
                    channels.push((w, ps, b.add_channel(w, ps)));
                }
            }
        }
        let (mut recvs, mut shared) = (Vec::new(), false);
        for i in 0..rng.gen_range(1..60) {
            let (w, ps, ch) = channels[rng.gen_range(0..channels.len())];
            let p = b.add_param(format!("p{i}"), 64);
            b.assign_param_to_ps(p, ps);
            let send = (rng.gen_range(0..4) != 0).then(|| {
                let deps: Vec<OpId> = (rng.gen_range(0..2) == 0)
                    .then(|| {
                        let read = OpKind::Read { param: p };
                        b.add_op(format!("read{i}"), ps, read, Cost::flops(1.0), &[])
                    })
                    .into_iter()
                    .collect();
                b.add_op(
                    format!("send{i}"),
                    ps,
                    OpKind::send(p, ch),
                    Cost::bytes(64),
                    &deps,
                )
            });
            let fan_out = if send.is_some() {
                rng.gen_range(1..4)
            } else {
                rng.gen_range(1..3)
            };
            shared |= send.is_some() && fan_out > 1;
            for k in 0..fan_out {
                let deps: Vec<OpId> = send.into_iter().collect();
                let kind = OpKind::recv(p, ch);
                recvs.push(b.add_op(format!("recv{i}.{k}"), w, kind, Cost::bytes(64), &deps));
            }
        }
        for j in 0..rng.gen_range(0..20) {
            let deps: Vec<OpId> = (0..rng.gen_range(1..4))
                .map(|_| recvs[rng.gen_range(0..recvs.len())])
                .collect();
            let w = workers[rng.gen_range(0..workers.len())];
            b.add_op(format!("c{j}"), w, OpKind::Compute, Cost::flops(1.0), &deps);
        }
        (b.build().expect("valid graph"), shared)
    }

    /// The baseline, or priorities on a random subset of ops: narrow
    /// (ties), extreme (0 and `u64::MAX`) or wide, on recvs and on
    /// compute ops (which rank nothing).
    fn random_schedule(rng: &mut SmallRng, graph: &Graph) -> Schedule {
        let mut s = Schedule::empty(graph.len());
        if rng.gen_range(0..4) == 0 {
            return s;
        }
        let narrow = rng.gen_range(0..2) == 0;
        for op in graph.op_ids() {
            if rng.gen_range(0..3) == 0 {
                continue;
            }
            let priority = match rng.gen_range(0..8) {
                0 => 0,
                1 => u64::MAX,
                _ if narrow => rng.gen_range(0..4),
                _ => rng.gen(),
            };
            s.set(op, priority);
        }
        s
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The four-byte columns read back as the `Option` columns:
        /// sendless recvs, on channels of their own and beside sends,
        /// unordered schedules, ordered ones with ties, and shared sends
        /// (placed at their first recv). Without a shared send, a recv
        /// carries its own position in its channel's priority order.
        #[test]
        fn transfer_table_matches_the_option_columns(seed in any::<u64>()) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let (graph, shared) = random_graph(&mut rng);
            let schedule = random_schedule(&mut rng, &graph);
            let table = TransferTable::new(&graph, &schedule);
            let (rank, recv_rank, send_of) = option_columns(&graph, &schedule);
            for op in graph.op_ids() {
                prop_assert_eq!(table.rank(op), rank[op.index()], "rank of {}", op);
                prop_assert_eq!(table.recv_rank(op), recv_rank[op.index()], "recv rank of {}", op);
                prop_assert_eq!(table.send_of(op), send_of[op.index()], "send of {}", op);
            }
            if !shared && !schedule.is_unordered() {
                for recvs in schedule.ordered_recvs_per_channel(&graph) {
                    for (position, recv) in recvs.into_iter().enumerate() {
                        prop_assert_eq!(recv_rank[recv.index()], Some(position as u64));
                    }
                }
            }
            // Dense per channel: each channel's sends hold gate ranks
            // 0..k once, and nothing else holds one.
            let mut per_channel = vec![Vec::new(); graph.channels().len()];
            for (id, op) in graph.ops() {
                if let (Some(r), Some(ch)) = (rank[id.index()], op.kind().channel()) {
                    prop_assert!(op.kind().is_send(), "{} holds a gate rank", id);
                    per_channel[ch.index()].push(r);
                }
            }
            for mut ranks in per_channel {
                ranks.sort_unstable();
                prop_assert!(ranks.iter().enumerate().all(|(i, &r)| r == i as u64), "{:?}", ranks);
            }
        }
    }

    /// Width pins: rank and pairing cells are four bytes, and with them
    /// a plan keeps 32 bytes per op.
    #[test]
    fn transfer_cells_are_four_bytes() {
        fn cell_width<T>(_: &[T]) -> usize {
            std::mem::size_of::<T>()
        }
        let (graph, _) = random_graph(&mut SmallRng::seed_from_u64(1));
        let plan = RunPlan::new(
            &graph,
            &Schedule::empty(graph.len()),
            &SimConfig::cloud_gpu(),
        )
        .expect("schedule covers graph");
        let t = &plan.transfers;
        let cells = [
            cell_width(&t.rank),
            cell_width(&t.recv_rank),
            cell_width(&t.send_of),
        ];
        assert_eq!(cells, [4; 3]);
        let rest = cell_width(&plan.route) + cell_width(&plan.service) + cell_width(&plan.indegree);
        assert_eq!(rest + cells.iter().sum::<usize>(), 32);
    }
}

//! Virtual time, time oracles, execution traces and the time-oracle
//! estimator.
//!
//! The scheduling algorithms of the paper consume a *time oracle*
//! `Time(op)` — a prediction of each op's execution time assuming a
//! dedicated resource (§3.1). This crate provides:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution virtual time used
//!   by the discrete-event simulator.
//! * [`TimeOracle`] — the oracle trait.
//! * [`GeneralOracle`] — the *general time oracle* of Equation 5 (TIC):
//!   every `recv` costs one unit, everything else is free.
//! * [`CostOracle`] — a platform cost model translating op annotations
//!   (flops, bytes) into durations using calibrated hardware constants
//!   ([`Platform`]); this substitutes for measuring on the paper's Azure
//!   GPU (envG) and 1 GbE CPU (envC) testbeds.
//! * [`MeasuredProfile`] — a profile of measured durations (the paper's
//!   tracing-based oracle: minimum of 5 measured runs per op, §5).
//! * [`NoiseModel`] — multiplicative log-normal runtime noise plus
//!   occasional per-worker slowdowns, modelling the system-level variance
//!   the paper observes.
//!
//! The paper's tracing module (§5) collects per-op runtime statistics from
//! real executions; its time-oracle estimator runs every op five times and
//! keeps the minimum. Here the "real execution" is the discrete-event
//! simulator (`tictac-sim`), which emits an [`ExecutionTrace`] per
//! iteration; [`estimate_profile`] turns a set of warm-up traces into the
//! [`MeasuredProfile`] that feeds TAC.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod metrics;
mod noise;
mod oracle;
mod platform;
mod retry;
mod time;

pub use metrics::{analyze, straggler_pct, FaultCounters, IterationMetrics};
pub use noise::NoiseModel;
pub use oracle::{CostOracle, GeneralOracle, MeasuredProfile, TimeOracle};
pub use platform::Platform;
pub use retry::RetryPolicy;
pub use time::{SimDuration, SimTime, HORIZON_NS};

use std::fmt::Write as _;
use tictac_graph::{ChannelId, DeviceId, Graph, OpId};

/// What kind of fault-handling activity a [`FaultEvent`] records.
///
/// Events describe the *observable* behaviour of the fault-tolerance
/// machinery: injected losses, the detection timeouts and retransmits
/// they trigger, availability windows of devices and channels, and the
/// degraded-barrier decisions that close an iteration with work deferred.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEventKind {
    /// A transfer attempt was lost on the wire (noticed only at timeout).
    TransferDropped {
        /// The recv op of the transfer.
        op: OpId,
        /// Zero-based attempt number that was lost.
        attempt: u32,
    },
    /// The loss-detection timeout of a transfer attempt fired.
    TransferTimeout {
        /// The recv op of the transfer.
        op: OpId,
        /// Zero-based attempt number that timed out.
        attempt: u32,
    },
    /// The transfer was re-queued for another attempt.
    Retransmit {
        /// The recv op of the transfer.
        op: OpId,
        /// Zero-based number of the new attempt.
        attempt: u32,
    },
    /// A channel became unavailable (network blackout).
    BlackoutStart {
        /// The affected channel.
        channel: ChannelId,
    },
    /// A channel became available again.
    BlackoutEnd {
        /// The affected channel.
        channel: ChannelId,
    },
    /// A worker crashed: its in-flight compute is lost and its channels go
    /// dark until recovery.
    WorkerCrashed {
        /// The crashed worker.
        device: DeviceId,
    },
    /// A crashed worker came back and resumes (re-running lost work).
    WorkerRecovered {
        /// The recovered worker.
        device: DeviceId,
    },
    /// A parameter-server shard stopped making progress (update thread
    /// wedged); in-flight updates finish late.
    PsStallStart {
        /// The stalled parameter server.
        device: DeviceId,
    },
    /// A stalled parameter server resumed.
    PsStallEnd {
        /// The recovered parameter server.
        device: DeviceId,
    },
    /// A persistent straggler slowdown was applied to a worker for the
    /// whole iteration.
    StragglerApplied {
        /// The slowed worker.
        device: DeviceId,
    },
    /// The degraded barrier closed the iteration with this op incomplete;
    /// its effect is deferred to the next iteration.
    DeferredOp {
        /// The deferred op.
        op: OpId,
    },
    /// The degraded barrier fired with work outstanding.
    BarrierDegraded {
        /// Number of ops left incomplete.
        remaining: u32,
    },
}

/// One timestamped fault-handling event within an iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// When the event occurred.
    pub at: SimTime,
    /// What happened.
    pub kind: FaultEventKind,
}

/// When one op executed within an iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpRecord {
    /// Start of execution (transfer start for recv ops).
    pub start: SimTime,
    /// End of execution.
    pub end: SimTime,
}

impl OpRecord {
    /// The op's measured duration.
    pub fn duration(&self) -> SimDuration {
        self.end - self.start
    }
}

/// The execution timeline of one simulated iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutionTrace {
    records: Vec<Option<OpRecord>>,
    makespan: SimDuration,
    events: Vec<FaultEvent>,
}

impl ExecutionTrace {
    /// The iteration makespan: the last op completion, or the degraded
    /// barrier's release time if it fired later.
    pub fn makespan(&self) -> SimDuration {
        self.makespan
    }

    /// The fault-handling events of the iteration, in time order (empty
    /// for fault-free runs).
    pub fn fault_events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The record of `op`, if it executed.
    pub fn record(&self, op: OpId) -> Option<OpRecord> {
        self.records.get(op.index()).copied().flatten()
    }

    /// The measured duration of `op` (zero if it did not execute).
    pub fn duration(&self, op: OpId) -> SimDuration {
        self.record(op)
            .map(|r| r.duration())
            .unwrap_or(SimDuration::ZERO)
    }

    /// Number of ops that executed.
    pub fn executed_ops(&self) -> usize {
        self.records.iter().flatten().count()
    }

    /// Number of op slots (graph size).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no op executed.
    pub fn is_empty(&self) -> bool {
        self.executed_ops() == 0
    }

    /// The completion time of the last op on `device`, if any executed.
    ///
    /// Used for the straggler analysis (§6.3): a worker's *finish time* is
    /// when its last op completes; the gap to the iteration makespan is the
    /// time it spends waiting for stragglers.
    pub fn device_finish(&self, graph: &Graph, device: DeviceId) -> Option<SimTime> {
        graph
            .ops_on(device)
            .filter_map(|op| self.record(op))
            .map(|r| r.end)
            .max()
    }

    /// [`device_finish`](Self::device_finish) of every device at once,
    /// indexed by device: one pass over the trace instead of one per
    /// device.
    pub fn device_finishes(&self, graph: &Graph) -> Vec<Option<SimTime>> {
        let mut finish = vec![None; graph.devices().len()];
        for (i, record) in self.records.iter().enumerate() {
            if let Some(r) = record {
                let slot = &mut finish[graph.op(OpId::from_index(i)).device().index()];
                *slot = (*slot).max(Some(r.end));
            }
        }
        finish
    }

    /// The order in which `recv` ops on `device` *completed* — the paper's
    /// "order of received parameters" (§2.2).
    pub fn recv_completion_order(&self, graph: &Graph, device: DeviceId) -> Vec<OpId> {
        let mut recvs: Vec<(SimTime, OpId)> = graph
            .recv_ops_on(device)
            .into_iter()
            .filter_map(|op| self.record(op).map(|r| (r.end, op)))
            .collect();
        recvs.sort_unstable();
        recvs.into_iter().map(|(_, op)| op).collect()
    }

    /// Renders the trace as tab-separated `op\tstart_ns\tend_ns` lines for
    /// offline inspection.
    pub fn to_tsv(&self, graph: &Graph) -> String {
        let mut out = String::from("op\tstart_ns\tend_ns\n");
        for (i, rec) in self.records.iter().enumerate() {
            if let Some(r) = rec {
                let _ = writeln!(
                    out,
                    "{}\t{}\t{}",
                    graph.op_name(OpId::from_index(i)),
                    r.start.as_nanos(),
                    r.end.as_nanos()
                );
            }
        }
        out
    }
}

/// Incremental construction of an [`ExecutionTrace`] (used by the
/// simulator).
#[derive(Debug, Clone)]
pub struct TraceBuilder {
    records: Vec<Option<OpRecord>>,
    events: Vec<FaultEvent>,
    makespan_floor: SimTime,
}

impl TraceBuilder {
    /// A builder covering `n` ops.
    pub fn new(n: usize) -> Self {
        Self {
            records: vec![None; n],
            events: Vec::new(),
            makespan_floor: SimTime::ZERO,
        }
    }

    /// Records one op execution.
    ///
    /// # Panics
    ///
    /// Panics if `op` is out of bounds, was already recorded, or
    /// `end < start`.
    pub fn record(&mut self, op: OpId, start: SimTime, end: SimTime) {
        assert!(end >= start, "op {op} ends before it starts");
        let slot = &mut self.records[op.index()];
        assert!(slot.is_none(), "op {op} recorded twice");
        *slot = Some(OpRecord { start, end });
    }

    /// Whether `op` already has a record (recording it again would
    /// panic).
    pub fn is_recorded(&self, op: OpId) -> bool {
        self.records[op.index()].is_some()
    }

    /// Appends a fault-handling event. Events may arrive out of time order
    /// (concurrent threads log them); [`finish`](Self::finish) sorts them.
    pub fn push_fault(&mut self, at: SimTime, kind: FaultEventKind) {
        self.events.push(FaultEvent { at, kind });
    }

    /// Raises the makespan floor: the finished trace's makespan is at
    /// least `at`, even if every recorded op ends earlier (used when a
    /// degraded barrier releases the iteration after the last completion).
    pub fn raise_makespan(&mut self, at: SimTime) {
        self.makespan_floor = self.makespan_floor.max(at);
    }

    /// Finalizes the trace, fault events sorted by instant (stable, so
    /// same-instant events keep the order they were pushed in).
    pub fn finish(mut self) -> ExecutionTrace {
        self.events.sort_by_key(|e| e.at);
        let makespan = self
            .records
            .iter()
            .flatten()
            .map(|r| r.end)
            .max()
            .unwrap_or(SimTime::ZERO)
            .max(self.makespan_floor)
            .duration_since(SimTime::ZERO);
        ExecutionTrace {
            records: self.records,
            makespan,
            events: self.events,
        }
    }
}

/// Renders a trace as an ASCII Gantt chart, one row per resource
/// (device compute unit or channel), `width` columns spanning the
/// makespan.
///
/// Busy time is drawn with `#` for compute, `=` for transfers; overlap of
/// communication and computation — the quantity TicTac maximizes — is
/// visible as vertically aligned busy spans.
pub fn gantt(graph: &Graph, trace: &ExecutionTrace, width: usize) -> String {
    use tictac_graph::Resource;

    let span = trace.makespan().as_nanos().max(1);
    let col_of = |t: SimTime| -> usize {
        ((t.as_nanos() as u128 * width as u128) / span as u128).min(width as u128 - 1) as usize
    };

    let mut rows: Vec<(Resource, String, Vec<char>)> = Vec::new();
    for resource in graph.resources() {
        let label = match resource {
            Resource::Compute(d) => format!("{} [compute]", graph.device(d).name()),
            Resource::Channel(c) => {
                let ch = graph.channel(c);
                format!(
                    "{}<->{} [channel]",
                    graph.device(ch.worker()).name(),
                    graph.device(ch.ps()).name()
                )
            }
        };
        rows.push((resource, label, vec![' '; width]));
    }

    for id in graph.op_ids() {
        let Some(rec) = trace.record(id) else {
            continue;
        };
        // Sends share the transfer interval with their recv; draw each
        // transfer once (on the recv) to keep channel rows readable.
        if graph.op(id).kind().is_send() {
            continue;
        }
        let resource = graph.resource(id);
        let glyph = if resource.is_channel() { '=' } else { '#' };
        let (a, b) = (col_of(rec.start), col_of(rec.end));
        if let Some((_, _, cells)) = rows.iter_mut().find(|(r, ..)| *r == resource) {
            for cell in cells.iter_mut().take(b + 1).skip(a) {
                *cell = glyph;
            }
        }
    }

    let label_w = rows.iter().map(|(_, l, _)| l.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (_, label, cells) in &rows {
        let _ = writeln!(
            out,
            "{label:>label_w$} |{}|",
            cells.iter().collect::<String>()
        );
    }
    let _ = writeln!(
        out,
        "{:>label_w$}  0{:>width$}",
        "",
        format!("{}", trace.makespan()),
        width = width - 1
    );
    out
}

/// Builds a [`MeasuredProfile`] from warm-up traces: per op, the **minimum**
/// duration across traces (the paper's 5-run estimator; pass five traces
/// for fidelity).
///
/// # Panics
///
/// Panics if `traces` is empty or trace lengths disagree.
pub fn estimate_profile(traces: &[ExecutionTrace]) -> MeasuredProfile {
    assert!(!traces.is_empty(), "at least one trace required");
    let runs: Vec<Vec<SimDuration>> = traces
        .iter()
        .map(|t| {
            (0..t.len())
                .map(|i| t.duration(OpId::from_index(i)))
                .collect()
        })
        .collect();
    MeasuredProfile::from_runs(&runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tictac_graph::{Cost, GraphBuilder, OpKind};

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn sample_graph() -> (Graph, DeviceId, Vec<OpId>) {
        let mut b = GraphBuilder::new();
        let w = b.add_worker("w0");
        let ps = b.add_parameter_server("ps0");
        let ch = b.add_channel(w, ps);
        let p1 = b.add_param("p1", 10);
        let p2 = b.add_param("p2", 10);
        let r1 = b.add_op("r1", w, OpKind::recv(p1, ch), Cost::bytes(10), &[]);
        let r2 = b.add_op("r2", w, OpKind::recv(p2, ch), Cost::bytes(10), &[]);
        let c = b.add_op("c", w, OpKind::Compute, Cost::flops(1.0), &[r1, r2]);
        (b.build().unwrap(), w, vec![r1, r2, c])
    }

    #[test]
    fn builder_records_and_computes_makespan() {
        let (g, _, ops) = sample_graph();
        let mut tb = TraceBuilder::new(g.len());
        tb.record(ops[0], t(0), t(100));
        tb.record(ops[1], t(100), t(250));
        tb.record(ops[2], t(250), t(400));
        let trace = tb.finish();
        assert_eq!(trace.makespan(), SimDuration::from_nanos(400));
        assert_eq!(trace.duration(ops[1]), SimDuration::from_nanos(150));
        assert_eq!(trace.executed_ops(), 3);
        assert!(!trace.is_empty());
    }

    #[test]
    fn recv_completion_order_sorts_by_end_time() {
        let (g, w, ops) = sample_graph();
        let mut tb = TraceBuilder::new(g.len());
        // r2 completes before r1.
        tb.record(ops[0], t(0), t(300));
        tb.record(ops[1], t(0), t(100));
        tb.record(ops[2], t(300), t(350));
        let trace = tb.finish();
        assert_eq!(trace.recv_completion_order(&g, w), vec![ops[1], ops[0]]);
        assert_eq!(trace.device_finish(&g, w), Some(t(350)));
        // The all-devices pass agrees; the PS ran nothing.
        assert_eq!(trace.device_finishes(&g), vec![Some(t(350)), None]);
    }

    #[test]
    #[should_panic(expected = "recorded twice")]
    fn double_record_panics() {
        let (g, _, ops) = sample_graph();
        let mut tb = TraceBuilder::new(g.len());
        tb.record(ops[0], t(0), t(1));
        tb.record(ops[0], t(1), t(2));
    }

    #[test]
    fn profile_estimation_takes_minimum() {
        let (g, _, ops) = sample_graph();
        let mk = |d0: u64, d1: u64, d2: u64| {
            let mut tb = TraceBuilder::new(g.len());
            tb.record(ops[0], t(0), t(d0));
            tb.record(ops[1], t(d0), t(d0 + d1));
            tb.record(ops[2], t(d0 + d1), t(d0 + d1 + d2));
            tb.finish()
        };
        let profile = estimate_profile(&[mk(100, 200, 50), mk(80, 250, 60), mk(90, 210, 40)]);
        assert_eq!(profile.get(ops[0]), SimDuration::from_nanos(80));
        assert_eq!(profile.get(ops[1]), SimDuration::from_nanos(200));
        assert_eq!(profile.get(ops[2]), SimDuration::from_nanos(40));
    }

    #[test]
    fn tsv_export_contains_names() {
        let (g, _, ops) = sample_graph();
        let mut tb = TraceBuilder::new(g.len());
        tb.record(ops[0], t(0), t(5));
        let tsv = tb.finish().to_tsv(&g);
        assert!(tsv.contains("r1\t0\t5"));
        assert!(!tsv.contains("r2\t"));
    }

    #[test]
    fn empty_trace_has_zero_makespan() {
        let trace = TraceBuilder::new(3).finish();
        assert_eq!(trace.makespan(), SimDuration::ZERO);
        assert!(trace.is_empty());
        assert!(trace.fault_events().is_empty());
    }

    #[test]
    fn fault_events_and_makespan_floor_are_kept() {
        let (g, _, ops) = sample_graph();
        let mut tb = TraceBuilder::new(g.len());
        tb.record(ops[0], t(0), t(100));
        // Pushed out of time order, as concurrent threads do.
        tb.push_fault(t(90), FaultEventKind::DeferredOp { op: ops[1] });
        tb.push_fault(
            t(40),
            FaultEventKind::TransferDropped {
                op: ops[1],
                attempt: 0,
            },
        );
        tb.raise_makespan(t(500));
        let trace = tb.finish();
        assert_eq!(trace.makespan(), SimDuration::from_nanos(500));
        assert_eq!(trace.fault_events().len(), 2);
        assert_eq!(trace.fault_events()[0].at, t(40));
        // The floor never lowers a later completion.
        let mut tb = TraceBuilder::new(g.len());
        tb.record(ops[0], t(0), t(900));
        tb.raise_makespan(t(500));
        assert_eq!(tb.finish().makespan(), SimDuration::from_nanos(900));
    }

    #[test]
    fn gantt_draws_rows_per_resource() {
        let (g, _, ops) = sample_graph();
        let mut tb = TraceBuilder::new(g.len());
        tb.record(ops[0], t(0), t(100));
        tb.record(ops[1], t(100), t(200));
        tb.record(ops[2], t(200), t(400));
        let chart = gantt(&g, &tb.finish(), 40);
        // One worker compute row and one channel row (the PS has no ops in
        // this sample graph), plus the axis line.
        assert_eq!(chart.lines().count(), 3);
        assert!(chart.contains("[channel]"));
        assert!(chart.contains("[compute]"));
        assert!(chart.contains('='), "transfers drawn");
        assert!(chart.contains('#'), "compute drawn");
    }
}

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

/// The slot of an op that did not execute: one 16-byte [`OpRecord`] per
/// op instead of a 24-byte `Option`. Its start is past [`HORIZON_NS`],
/// where no recorded instant is ([`TraceBuilder::record`] refuses it),
/// and its end of zero never raises a maximum of ends.
const UNRECORDED: OpRecord = OpRecord {
    start: SimTime::from_nanos(u64::MAX),
    end: SimTime::ZERO,
};

/// The record in `slot`, if the op executed.
fn executed(slot: &OpRecord) -> Option<OpRecord> {
    (slot.start != UNRECORDED.start).then_some(*slot)
}

/// Which executor produced an [`ExecutionTrace`], and so which clock its
/// timestamps read. Run records and scenario files name it by
/// [`name`](BackendKind::name).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The discrete-event simulator: virtual time, deterministic.
    Sim,
    /// The in-process multi-threaded runtime: wall-clock time.
    Threaded,
}

impl BackendKind {
    /// Both backends, the simulator first.
    pub const ALL: [BackendKind; 2] = [BackendKind::Sim, BackendKind::Threaded];

    /// The backend's short lowercase name (the
    /// [`Display`](std::fmt::Display) form).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Sim => "sim",
            BackendKind::Threaded => "threaded",
        }
    }

    /// The backend [`name`](BackendKind::name) spells, if any.
    pub fn from_name(name: &str) -> Option<BackendKind> {
        BackendKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The execution timeline of one simulated iteration: when each op ran.
/// When an op became ready is not stored; it follows from the graph, the
/// schedule's gate order and the records. Equality compares the records,
/// the makespan, the fault events and the popped-event count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutionTrace {
    /// One slot per op, [`UNRECORDED`] where the op did not execute.
    records: Vec<OpRecord>,
    makespan: SimDuration,
    events: Vec<FaultEvent>,
    popped_events: u64,
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

    /// The number of events the event engine popped for this trace, stale
    /// ones included (zero on the threaded runtime).
    pub fn popped_events(&self) -> u64 {
        self.popped_events
    }

    /// The record of `op`, if it executed.
    pub fn record(&self, op: OpId) -> Option<OpRecord> {
        self.records.get(op.index()).and_then(executed)
    }

    /// The measured duration of `op` (zero if it did not execute).
    pub fn duration(&self, op: OpId) -> SimDuration {
        self.record(op)
            .map(|r| r.duration())
            .unwrap_or(SimDuration::ZERO)
    }

    /// Number of ops that executed.
    pub fn executed_ops(&self) -> usize {
        self.records.iter().filter_map(executed).count()
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
        for ((_, op), record) in graph.ops().zip(&self.records) {
            if let Some(r) = executed(record) {
                let slot = &mut finish[op.device().index()];
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
            if let Some(r) = executed(rec) {
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
    /// One slot per op, [`UNRECORDED`] until the op is recorded.
    records: Vec<OpRecord>,
    events: Vec<FaultEvent>,
    makespan_floor: SimTime,
    popped_events: u64,
}

impl TraceBuilder {
    /// A builder covering `n` ops.
    pub fn new(n: usize) -> Self {
        Self {
            records: vec![UNRECORDED; n],
            events: Vec::new(),
            makespan_floor: SimTime::ZERO,
            popped_events: 0,
        }
    }

    /// Records one op execution.
    ///
    /// # Panics
    ///
    /// Panics if `op` is out of bounds, was already recorded, or
    /// `end < start`, or if `start` is `u64::MAX` ns, the instant that
    /// marks an op as not executed.
    pub fn record(&mut self, op: OpId, start: SimTime, end: SimTime) {
        assert!(end >= start, "op {op} ends before it starts");
        assert!(
            start != UNRECORDED.start,
            "op {op} starts at the not-executed mark"
        );
        let slot = &mut self.records[op.index()];
        assert!(executed(slot).is_none(), "op {op} recorded twice");
        *slot = OpRecord { start, end };
    }

    /// Whether `op` already has a record (recording it again would
    /// panic).
    pub fn is_recorded(&self, op: OpId) -> bool {
        executed(&self.records[op.index()]).is_some()
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

    /// Sets [`ExecutionTrace::popped_events`].
    pub fn set_popped_events(&mut self, n: u64) {
        self.popped_events = n;
    }

    /// Finalizes the trace, fault events sorted by instant (stable, so
    /// same-instant events keep the order they were pushed in).
    pub fn finish(mut self) -> ExecutionTrace {
        self.events.sort_by_key(|e| e.at);
        // An unrecorded slot ends at zero: it never raises the maximum.
        let last_end = self
            .records
            .iter()
            .map(|r| r.end)
            .fold(self.makespan_floor, SimTime::max);
        ExecutionTrace {
            records: self.records,
            makespan: last_end.duration_since(SimTime::ZERO),
            events: self.events,
            popped_events: self.popped_events,
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
    let n = traces[0].len();
    assert!(
        traces.iter().all(|t| t.len() == n),
        "all traces must cover the same ops"
    );
    MeasuredProfile::from_durations(
        (0..n)
            .map(|i| {
                let op = OpId::from_index(i);
                traces
                    .iter()
                    .map(|t| t.duration(op))
                    .min()
                    .unwrap_or_default()
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
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
    #[should_panic(expected = "not-executed mark")]
    fn recording_the_unrecorded_instant_panics() {
        let (g, _, ops) = sample_graph();
        let mut tb = TraceBuilder::new(g.len());
        tb.record(ops[0], t(u64::MAX), t(u64::MAX));
    }

    /// Width pin: a trace keeps one 16-byte record slot per op, in the
    /// builder and in the finished trace.
    #[test]
    fn trace_slots_are_16_bytes() {
        fn slot_width<T>(_: &[T]) -> usize {
            std::mem::size_of::<T>()
        }
        let tb = TraceBuilder::new(3);
        assert_eq!(slot_width(&tb.records), 16);
        assert_eq!(slot_width(&tb.finish().records), 16);
    }

    /// A worker and a PS joined by two channels; each parameter's send
    /// on the PS feeds one recv, or two (a shared send), on the worker,
    /// and a compute op on the worker joins two recvs.
    fn mirrored_graph(rng: &mut SmallRng) -> (Graph, Vec<(OpId, Option<OpId>)>) {
        let mut b = GraphBuilder::new();
        let w = b.add_worker("w0");
        let ps = b.add_parameter_server("ps0");
        let chans = [b.add_channel(w, ps), b.add_channel(w, ps)];
        let mut recvs = Vec::new();
        for i in 0..rng.gen_range(1..40) {
            let ch = chans[rng.gen_range(0..2usize)];
            let p = b.add_param(format!("p{i}"), 8);
            b.assign_param_to_ps(p, ps);
            let send = (rng.gen_range(0..4) != 0).then(|| {
                b.add_op(
                    format!("s{i}"),
                    ps,
                    OpKind::send(p, ch),
                    Cost::bytes(8),
                    &[],
                )
            });
            for k in 0..rng.gen_range(1..3) {
                let preds: Vec<OpId> = send.into_iter().collect();
                let r = b.add_op(
                    format!("r{i}.{k}"),
                    w,
                    OpKind::recv(p, ch),
                    Cost::bytes(8),
                    &preds,
                );
                recvs.push((r, send));
            }
        }
        for (j, pair) in recvs.clone().chunks(2).enumerate() {
            let preds: Vec<OpId> = pair.iter().map(|&(r, _)| r).collect();
            b.add_op(
                format!("c{j}"),
                w,
                OpKind::Compute,
                Cost::flops(1.0),
                &preds,
            );
        }
        (b.build().unwrap(), recvs)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The slots answer every query as an `Option<OpRecord>` table:
        /// zero-length ops, start 0, ends at `HORIZON_NS - 1`, sends
        /// mirrored from their first recv, and ops a degraded barrier
        /// deferred (never recorded; makespan floor).
        #[test]
        fn trace_slots_match_option_records(seed in any::<u64>()) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let (g, recvs) = mirrored_graph(&mut rng);
            let instant = |rng: &mut SmallRng| match rng.gen_range(0..6) {
                0 => 0,
                1 => HORIZON_NS - 1,
                _ => rng.gen_range(0..1_000),
            };
            let mut model: Vec<Option<OpRecord>> = vec![None; g.len()];
            let mut tb = TraceBuilder::new(g.len());
            type Model = Vec<Option<OpRecord>>;
            let record = |tb: &mut TraceBuilder, model: &mut Model, op: OpId, start, end| {
                prop_assert_eq!(tb.is_recorded(op), model[op.index()].is_some());
                tb.record(op, t(start), t(end));
                model[op.index()] = Some(OpRecord { start: t(start), end: t(end) });
                prop_assert!(tb.is_recorded(op));
            };
            let mut floor = None;
            for &(recv, send) in &recvs {
                if rng.gen_range(0..5) == 0 {
                    // Deferred by the barrier: no record, an event and a
                    // release instant.
                    tb.push_fault(t(5), FaultEventKind::DeferredOp { op: recv });
                    let at = instant(&mut rng);
                    tb.raise_makespan(t(at));
                    floor = floor.max(Some(at));
                    continue;
                }
                let (a, b) = (instant(&mut rng), instant(&mut rng));
                // One in four is zero-length.
                let (start, end) = match rng.gen_range(0..4) {
                    0 => (a, a),
                    _ => (a.min(b), a.max(b)),
                };
                record(&mut tb, &mut model, recv, start, end);
                if let Some(send) = send {
                    if !tb.is_recorded(send) {
                        record(&mut tb, &mut model, send, start, end);
                    }
                }
            }
            for (id, op) in g.ops() {
                if matches!(op.kind(), OpKind::Compute) && rng.gen_range(0..2) == 0 {
                    let start = instant(&mut rng);
                    record(&mut tb, &mut model, id, start, start.max(instant(&mut rng)));
                }
            }
            let trace = tb.clone().finish();

            let executed: Vec<(OpId, OpRecord)> = model
                .iter()
                .enumerate()
                .filter_map(|(i, r)| r.map(|r| (OpId::from_index(i), r)))
                .collect();
            prop_assert_eq!(trace.len(), model.len());
            prop_assert_eq!(trace.executed_ops(), executed.len());
            prop_assert_eq!(trace.is_empty(), executed.is_empty());
            for i in 0..model.len() + 2 {
                let op = OpId::from_index(i);
                let want = model.get(i).copied().flatten();
                prop_assert_eq!(trace.record(op), want);
                let duration = want.map_or(SimDuration::ZERO, |r| r.end - r.start);
                prop_assert_eq!(trace.duration(op), duration);
            }
            let last_end = executed.iter().map(|(_, r)| r.end).max().unwrap_or(SimTime::ZERO);
            let makespan = last_end.max(t(floor.unwrap_or(0))).duration_since(SimTime::ZERO);
            prop_assert_eq!(trace.makespan(), makespan);
            let mut finishes = vec![None; g.devices().len()];
            for &(op, r) in &executed {
                let slot = &mut finishes[g.op(op).device().index()];
                *slot = (*slot).max(Some(r.end));
            }
            prop_assert_eq!(trace.device_finishes(&g), finishes.clone());
            for (d, device) in g.devices().iter().enumerate() {
                prop_assert_eq!(trace.device_finish(&g, device.id()), finishes[d]);
                let mut done: Vec<(SimTime, OpId)> = g
                    .recv_ops_on(device.id())
                    .into_iter()
                    .filter_map(|op| model[op.index()].map(|r| (r.end, op)))
                    .collect();
                done.sort_unstable();
                let order: Vec<OpId> = done.into_iter().map(|(_, op)| op).collect();
                prop_assert_eq!(trace.recv_completion_order(&g, device.id()), order);
            }
            let mut tsv = String::from("op\tstart_ns\tend_ns\n");
            for &(op, r) in &executed {
                let (start, end) = (r.start.as_nanos(), r.end.as_nanos());
                tsv += &format!("{}\t{start}\t{end}\n", g.op_name(op));
            }
            prop_assert_eq!(trace.to_tsv(&g), tsv);

            // Equality is exact: the same records written in reverse order
            // make the same trace, and one record more does not.
            let mut again = TraceBuilder::new(g.len());
            for &(op, r) in executed.iter().rev() {
                again.record(op, r.start, r.end);
            }
            for e in trace.fault_events() {
                again.push_fault(e.at, e.kind);
            }
            if let Some(f) = floor {
                again.raise_makespan(t(f));
            }
            prop_assert_eq!(&again.clone().finish(), &trace);
            let missing = g.op_ids().find(|op| model[op.index()].is_none());
            if let Some(missing) = missing {
                again.record(missing, t(1), t(2));
                prop_assert_ne!(&again.finish(), &trace);
            }
        }
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
        // Out-of-range ops are unprofiled.
        assert_eq!(profile.get(OpId::from_index(9)), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "same ops")]
    fn profile_estimation_rejects_ragged_traces() {
        estimate_profile(&[TraceBuilder::new(1).finish(), TraceBuilder::new(2).finish()]);
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

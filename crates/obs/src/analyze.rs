//! Trace-derived analyzers: comm/compute overlap, priority-inversion
//! detection and the simulator's `sim.*` metrics ([`sim_metrics`]).
//!
//! All consume an [`ExecutionTrace`] — *observed* behaviour — and so
//! double as correctness checks on the schedulers: a trace produced under
//! TAC enforcement on in-order channels must contain zero priority
//! inversions against the TAC ranks. Realized scheduling efficiency is
//! `tictac_sched::efficiency::realized_efficiency`.
//!
//! To keep the dependency graph acyclic (the schedulers depend on this
//! crate), [`priority_inversions`] takes a plain
//! `Fn(OpId) -> Option<u64>` priority closure rather than a `Schedule`.

use crate::registry::Registry;
use tictac_graph::{ChannelId, DeviceId, Graph, OpId, Resource};
use tictac_trace::{ExecutionTrace, FaultCounters, OpRecord, SimDuration, SimTime};

/// How one channel was used over an iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelUsage {
    /// The channel.
    pub channel: ChannelId,
    /// Total time the channel carried a transfer.
    pub busy: SimDuration,
    /// Makespan minus busy time.
    pub idle: SimDuration,
    /// Payload bytes moved (summed over completed transfers).
    pub bytes: u64,
    /// Number of completed transfers.
    pub transfers: usize,
}

impl ChannelUsage {
    /// Busy fraction of the iteration, in `[0, 1]`.
    pub fn utilization(&self, makespan: SimDuration) -> f64 {
        if makespan.is_zero() {
            0.0
        } else {
            self.busy.as_secs_f64() / makespan.as_secs_f64()
        }
    }
}

/// How one device's compute unit was used over an iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceUsage {
    /// The device.
    pub device: DeviceId,
    /// Total time the device ran compute ops.
    pub busy: SimDuration,
    /// Number of completed compute ops.
    pub ops: usize,
}

/// The per-iteration comm/compute overlap and channel-idle report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OverlapReport {
    /// The iteration makespan.
    pub makespan: SimDuration,
    /// Per-channel usage, in channel order.
    pub channels: Vec<ChannelUsage>,
    /// Per-device compute usage, in device order.
    pub devices: Vec<DeviceUsage>,
    /// Union busy time of all channels (wall-clock with ≥1 transfer in
    /// flight anywhere).
    pub comm_busy: SimDuration,
    /// Union busy time of all compute units.
    pub compute_busy: SimDuration,
    /// Wall-clock time where communication and computation proceeded
    /// simultaneously — the quantity TicTac maximizes.
    pub overlap: SimDuration,
}

impl OverlapReport {
    /// Fraction of communication time hidden under compute, in `[0, 1]`.
    pub fn overlap_frac(&self) -> f64 {
        if self.comm_busy.is_zero() {
            0.0
        } else {
            self.overlap.as_secs_f64() / self.comm_busy.as_secs_f64()
        }
    }

    /// The usage row for `channel`, if it exists.
    pub fn channel(&self, channel: ChannelId) -> Option<&ChannelUsage> {
        self.channels.iter().find(|c| c.channel == channel)
    }
}

/// Per-channel and per-device use of one trace in one pass, `visit`ing
/// every executed op but the sends (which share their recv's interval)
/// with its resource and record. A resource holds one op at a time, so
/// its busy time is the sum of its ops' durations.
fn usage(
    graph: &Graph,
    trace: &ExecutionTrace,
    mut visit: impl FnMut(Resource, OpRecord),
) -> (Vec<ChannelUsage>, Vec<DeviceUsage>) {
    let makespan = trace.makespan();
    let mut channels: Vec<ChannelUsage> = (0..graph.channels().len())
        .map(|i| ChannelUsage {
            channel: ChannelId::from_index(i),
            busy: SimDuration::ZERO,
            idle: SimDuration::ZERO,
            bytes: 0,
            transfers: 0,
        })
        .collect();
    let mut devices: Vec<DeviceUsage> = (0..graph.devices().len())
        .map(|i| DeviceUsage {
            device: DeviceId::from_index(i),
            busy: SimDuration::ZERO,
            ops: 0,
        })
        .collect();
    for (id, op) in graph.ops().filter(|(_, op)| !op.kind().is_send()) {
        let Some(record) = trace.record(id) else {
            continue;
        };
        let (resource, busy) = (graph.resource(id), record.duration());
        visit(resource, record);
        match resource {
            Resource::Channel(c) => {
                let c = &mut channels[c.index()];
                c.busy += busy;
                c.bytes += op.cost().bytes;
                c.transfers += 1;
            }
            Resource::Compute(d) => {
                devices[d.index()].busy += busy;
                devices[d.index()].ops += 1;
            }
        }
    }
    for c in &mut channels {
        c.idle = makespan.saturating_sub(c.busy);
    }
    (channels, devices)
}

/// Sorts and merges half-open nanosecond intervals into a disjoint union.
fn merge_intervals(mut iv: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    iv.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(iv.len());
    for (s, e) in iv {
        match out.last_mut() {
            Some((_, last_e)) if s <= *last_e => *last_e = (*last_e).max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

fn total_ns(iv: &[(u64, u64)]) -> u64 {
    iv.iter().map(|(s, e)| e - s).sum()
}

/// Total length of the intersection of two disjoint sorted interval sets.
fn intersection_ns(a: &[(u64, u64)], b: &[(u64, u64)]) -> u64 {
    let (mut i, mut j, mut acc) = (0usize, 0usize, 0u64);
    while i < a.len() && j < b.len() {
        let lo = a[i].0.max(b[j].0);
        let hi = a[i].1.min(b[j].1);
        if lo < hi {
            acc += hi - lo;
        }
        if a[i].1 <= b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    acc
}

/// Computes the per-iteration [`OverlapReport`] for `trace`.
///
/// Transfer intervals are taken from executed recv ops (sends share the
/// interval); compute intervals from executed compute ops. The
/// per-resource rows are `usage`'s sums; the comm and compute busy
/// times and their overlap are unions, each resource's intervals merged
/// first.
pub fn overlap_report(graph: &Graph, trace: &ExecutionTrace) -> OverlapReport {
    let mut chan_iv = vec![Vec::new(); graph.channels().len()];
    let mut dev_iv = vec![Vec::new(); graph.devices().len()];
    let (channels, devices) = usage(graph, trace, |resource, rec| {
        let interval = (rec.start.as_nanos(), rec.end.as_nanos());
        match resource {
            Resource::Channel(c) => chan_iv[c.index()].push(interval),
            Resource::Compute(d) => dev_iv[d.index()].push(interval),
        }
    });
    let union = |per_resource: Vec<Vec<(u64, u64)>>| {
        merge_intervals(per_resource.into_iter().flat_map(merge_intervals).collect())
    };
    let (comm, compute) = (union(chan_iv), union(dev_iv));
    OverlapReport {
        makespan: trace.makespan(),
        channels,
        devices,
        comm_busy: SimDuration::from_nanos(total_ns(&comm)),
        compute_busy: SimDuration::from_nanos(total_ns(&compute)),
        overlap: SimDuration::from_nanos(intersection_ns(&comm, &compute)),
    }
}

/// One detected priority inversion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InversionRecord {
    /// The channel it happened on.
    pub channel: ChannelId,
    /// The transfer that started out of turn.
    pub started: OpId,
    /// The higher-priority transfer that was already runnable but had not
    /// started (the best-ranked such witness).
    pub preempted: OpId,
    /// When the out-of-turn transfer started.
    pub at: SimTime,
}

/// All priority inversions of one trace against one priority assignment.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct InversionReport {
    /// Every offending transfer, one record each, in channel-then-time
    /// order.
    pub records: Vec<InversionRecord>,
}

impl InversionReport {
    /// Number of transfers that started out of turn.
    pub fn count(&self) -> usize {
        self.records.len()
    }

    /// Inversions on one channel.
    pub fn on_channel(&self, channel: ChannelId) -> usize {
        self.records.iter().filter(|r| r.channel == channel).count()
    }
}

/// When transfer `recv` became runnable: the completion of the last
/// predecessor of its paired send op (a transfer can be enqueued only
/// once its payload exists). Falls back to the recv's own non-send
/// predecessors, then to time zero for root transfers.
fn runnable_at(graph: &Graph, trace: &ExecutionTrace, recv: OpId) -> SimTime {
    let send = graph
        .preds(recv)
        .iter()
        .copied()
        .find(|&p| graph.op(p).kind().is_send());
    let preds: &[OpId] = match send {
        Some(s) => graph.preds(s),
        None => graph.preds(recv),
    };
    preds
        .iter()
        .filter(|&&p| !graph.op(p).kind().is_send())
        .filter_map(|&p| trace.record(p))
        .map(|r| r.end)
        .max()
        .unwrap_or(SimTime::ZERO)
}

/// The executed transfers `priority` ranks, per channel in op-id order:
/// `(rank, recv, start)`.
fn ranked_transfers(
    graph: &Graph,
    trace: &ExecutionTrace,
    priority: impl Fn(OpId) -> Option<u64>,
) -> Vec<Vec<(u64, OpId, SimTime)>> {
    let mut per_channel = vec![Vec::new(); graph.channels().len()];
    for (id, op) in graph.ops() {
        if !op.kind().is_recv() {
            continue;
        }
        let Some(rank) = priority(id) else { continue };
        let Resource::Channel(c) = graph.resource(id) else {
            continue;
        };
        if let Some(rec) = trace.record(id) {
            per_channel[c.index()].push((rank, id, rec.start));
        }
    }
    per_channel
}

/// Detects priority inversions: transfers that *started* on a channel
/// while a higher-priority transfer was already runnable on that channel
/// but had not started.
///
/// `priority` is the reference rank (lower = more urgent) — typically a
/// TAC or TIC schedule's assignment; transfers it leaves unranked are
/// ignored. Each offending transfer is counted once, with the
/// best-ranked waiting transfer as witness. Under sender-side rank
/// enforcement on in-order channels (reorder error 0) the count is
/// provably zero: the engine never pops a transfer while a runnable
/// lower-rank one is queued.
///
/// A channel's `R` transfers are walked in rank order beside the latest
/// start seen among the ranks already passed; only a transfer that one of
/// those started after is searched for its witness, so a trace that kept
/// its order costs `O(R log R)`.
pub fn priority_inversions(
    graph: &Graph,
    trace: &ExecutionTrace,
    priority: impl Fn(OpId) -> Option<u64>,
) -> InversionReport {
    let mut per_channel = ranked_transfers(graph, trace, priority);

    let mut records = Vec::new();
    for (ci, transfers) in per_channel.iter_mut().enumerate() {
        // Rank order; the sort is stable, so equal ranks stay in id order.
        transfers.sort_by_key(|&(rank, _, _)| rank);
        // `transfers[..outranking]` outrank the group being looked at, and
        // `latest` is the last instant one of them started.
        let (mut outranking, mut latest) = (0, SimTime::ZERO);
        for group in transfers.chunk_by(|x, y| x.0 == y.0) {
            for &(_, a, start_a) in group {
                // Nothing that outranks A started after it: no witness.
                if latest <= start_a {
                    continue;
                }
                // The best-ranked transfer that outranks A, was runnable by
                // A's start, and had not started yet.
                let witness = transfers[..outranking].iter().find(|&&(_, b, start_b)| {
                    start_b > start_a && runnable_at(graph, trace, b) <= start_a
                });
                if let Some(&(_, b, _)) = witness {
                    records.push(InversionRecord {
                        channel: ChannelId::from_index(ci),
                        started: a,
                        preempted: b,
                        at: start_a,
                    });
                }
            }
            latest = group.iter().fold(latest, |t, g| t.max(g.2));
            outranking += group.len();
        }
    }
    records.sort_by_key(|r| (r.channel.index(), r.at, r.started.index()));
    InversionReport { records }
}

/// Adds the simulator's `sim.*` metrics of one run to `registry`, derived
/// from the trace it left, a failed (not `finished`) run's too. DESIGN.md
/// §8 defines them: the popped events and retransmits, per channel and
/// device the completed transfers' and ops' bytes, busy time and count,
/// and a finished run's channel idle time.
pub fn sim_metrics(registry: &Registry, graph: &Graph, trace: &ExecutionTrace, finished: bool) {
    let (channels, devices) = usage(graph, trace, |_, _| {});
    let r = registry;
    r.counter("sim.events").add(trace.popped_events());
    r.counter("sim.retransmits")
        .add(FaultCounters::from_trace(trace).retransmits);
    let (nc, nd) = (channels.len(), devices.len());
    r.counters("sim.chan", ".bytes", nc, |c, m| m.add(channels[c].bytes));
    r.counters("sim.chan", ".busy_ns", nc, |c, m| {
        m.add(channels[c].busy.as_nanos())
    });
    r.counters("sim.chan", ".transfers", nc, |c, m| {
        m.add(channels[c].transfers as u64)
    });
    r.counters("sim.dev", ".busy_ns", nd, |d, m| {
        m.add(devices[d].busy.as_nanos())
    });
    r.counters("sim.dev", ".ops", nd, |d, m| m.add(devices[d].ops as u64));
    if finished {
        r.gauges("sim.chan", ".idle_ns", nc, |c, m| {
            m.set(channels[c].idle.as_nanos() as f64)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricValue;
    use proptest::prelude::*;
    use tictac_graph::{Cost, GraphBuilder, OpKind};
    use tictac_trace::{FaultEventKind, TraceBuilder};

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    /// One worker, one channel, two root transfers feeding two computes.
    fn sample() -> (Graph, Vec<OpId>) {
        let mut b = GraphBuilder::new();
        let w = b.add_worker("w0");
        let ps = b.add_parameter_server("ps0");
        let ch = b.add_channel(w, ps);
        let p1 = b.add_param("p1", 100);
        let p2 = b.add_param("p2", 200);
        let r1 = b.add_op("r1", w, OpKind::recv(p1, ch), Cost::bytes(100), &[]);
        let r2 = b.add_op("r2", w, OpKind::recv(p2, ch), Cost::bytes(200), &[]);
        let c1 = b.add_op("c1", w, OpKind::Compute, Cost::flops(1.0), &[r1]);
        let c2 = b.add_op("c2", w, OpKind::Compute, Cost::flops(1.0), &[c1, r2]);
        (b.build().unwrap(), vec![r1, r2, c1, c2])
    }

    #[test]
    fn overlap_report_measures_busy_idle_and_overlap() {
        let (g, ops) = sample();
        let mut tb = TraceBuilder::new(g.len());
        tb.record(ops[0], t(0), t(100)); // r1 transfer
        tb.record(ops[1], t(100), t(300)); // r2 transfer
        tb.record(ops[2], t(150), t(250)); // c1 overlaps r2 fully
        tb.record(ops[3], t(300), t(400)); // c2 after comms
        let report = overlap_report(&g, &tb.finish());
        assert_eq!(report.makespan, SimDuration::from_nanos(400));
        assert_eq!(report.comm_busy, SimDuration::from_nanos(300));
        assert_eq!(report.compute_busy, SimDuration::from_nanos(200));
        assert_eq!(report.overlap, SimDuration::from_nanos(100));
        let ch = &report.channels[0];
        assert_eq!(ch.busy, SimDuration::from_nanos(300));
        assert_eq!(ch.idle, SimDuration::from_nanos(100));
        assert_eq!(ch.bytes, 300);
        assert_eq!(ch.transfers, 2);
        assert!((ch.utilization(report.makespan) - 0.75).abs() < 1e-12);
        assert!((report.overlap_frac() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn interval_union_never_double_counts() {
        let merged = merge_intervals(vec![(0, 10), (5, 15), (20, 30), (30, 35)]);
        assert_eq!(merged, vec![(0, 15), (20, 35)]);
        assert_eq!(total_ns(&merged), 30);
        assert_eq!(intersection_ns(&merged, &[(10, 25)]), 10);
        assert_eq!(intersection_ns(&merged, &[]), 0);
    }

    #[test]
    fn inversion_detected_when_ranked_transfer_jumps_queue() {
        let (g, ops) = sample();
        // Reference ranks: r1 more urgent than r2.
        let rank = |op: OpId| match op {
            o if o == ops[0] => Some(0),
            o if o == ops[1] => Some(1),
            _ => None,
        };
        // Inverted execution: r2 runs first even though r1 (a root, runnable
        // at t=0) is waiting.
        let mut tb = TraceBuilder::new(g.len());
        tb.record(ops[1], t(0), t(200));
        tb.record(ops[0], t(200), t(300));
        tb.record(ops[2], t(300), t(350));
        tb.record(ops[3], t(350), t(400));
        let report = priority_inversions(&g, &tb.finish(), rank);
        assert_eq!(report.count(), 1);
        assert_eq!(report.records[0].started, ops[1]);
        assert_eq!(report.records[0].preempted, ops[0]);
        assert_eq!(report.on_channel(ChannelId::from_index(0)), 1);

        // In-order execution: no inversions.
        let mut tb = TraceBuilder::new(g.len());
        tb.record(ops[0], t(0), t(100));
        tb.record(ops[1], t(100), t(300));
        tb.record(ops[2], t(100), t(200));
        tb.record(ops[3], t(300), t(400));
        assert_eq!(priority_inversions(&g, &tb.finish(), rank).count(), 0);
    }

    #[test]
    fn later_runnable_transfer_is_not_an_inversion() {
        // A high-priority transfer whose payload is produced late cannot be
        // "preempted" by earlier transfers.
        let mut b = GraphBuilder::new();
        let w = b.add_worker("w0");
        let ps = b.add_parameter_server("ps0");
        let ch = b.add_channel(w, ps);
        let p1 = b.add_param("p1", 10);
        let p2 = b.add_param("p2", 10);
        let grad = b.add_op("grad", ps, OpKind::Compute, Cost::flops(1.0), &[]);
        let s1 = b.add_op("s1", ps, OpKind::send(p1, ch), Cost::bytes(10), &[grad]);
        let r1 = b.add_op("r1", w, OpKind::recv(p1, ch), Cost::bytes(10), &[s1]);
        let r2 = b.add_op("r2", w, OpKind::recv(p2, ch), Cost::bytes(10), &[]);
        let g = b.build().unwrap();
        let rank = move |op: OpId| {
            if op == r1 {
                Some(0)
            } else if op == r2 {
                Some(1)
            } else {
                None
            }
        };
        let mut tb = TraceBuilder::new(g.len());
        tb.record(grad, t(0), t(500)); // r1's payload ready only at 500
        tb.record(s1, t(500), t(600));
        tb.record(r2, t(0), t(100)); // starts while r1 is NOT yet runnable
        tb.record(r1, t(500), t(600));
        assert_eq!(priority_inversions(&g, &tb.finish(), rank).count(), 0);

        // But if r2 started after the payload was ready, it is an inversion.
        let mut tb = TraceBuilder::new(g.len());
        tb.record(grad, t(0), t(500));
        tb.record(s1, t(500), t(600));
        tb.record(r2, t(550), t(650));
        tb.record(r1, t(650), t(750));
        let report = priority_inversions(&g, &tb.finish(), rank);
        assert_eq!(report.count(), 1);
        assert_eq!(report.records[0].preempted, r1);
    }

    /// The definition, word for word: every transfer against every other
    /// on its channel. The oracle [`priority_inversions`] is tested against.
    fn priority_inversions_by_definition(
        graph: &Graph,
        trace: &ExecutionTrace,
        priority: impl Fn(OpId) -> Option<u64>,
    ) -> InversionReport {
        let per_channel = ranked_transfers(graph, trace, priority);
        let mut records = Vec::new();
        for (ci, transfers) in per_channel.iter().enumerate() {
            for &(rank_a, a, start_a) in transfers {
                let witness = transfers
                    .iter()
                    .filter(|&&(rank_b, _, start_b)| rank_b < rank_a && start_b > start_a)
                    .filter(|&&(_, b, _)| runnable_at(graph, trace, b) <= start_a)
                    .min_by_key(|&&(rank_b, _, _)| rank_b);
                if let Some(&(_, b, _)) = witness {
                    records.push(InversionRecord {
                        channel: ChannelId::from_index(ci),
                        started: a,
                        preempted: b,
                        at: start_a,
                    });
                }
            }
        }
        records.sort_by_key(|r| (r.channel.index(), r.at, r.started.index()));
        InversionReport { records }
    }

    /// Hand-built traces — root transfers and transfers behind a PS-side
    /// compute, starts in any order, ranks drawn from a range narrow
    /// enough to collide, some transfers unranked, some ops never run —
    /// get the report the definition gives.
    #[test]
    fn inversions_equal_the_definition_on_random_traces() {
        let mut found = 0;
        for case in 0..60u64 {
            // SplitMix64: this crate has no random-number dependency.
            let mut state = case;
            let mut next = move |bound: u64| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) % bound
            };
            let mut b = GraphBuilder::new();
            let w = b.add_worker("w0");
            let ps = b.add_parameter_server("ps0");
            let mut tb_ops = Vec::new();
            let mut ranks = Vec::new();
            for _ in 0..1 + next(3) {
                let ch = b.add_channel(w, ps);
                // Sizes 1, 2, ... up to 200 a channel over the cases.
                let transfers = 1 + next(if case % 4 == 0 { 200 } else { 12 });
                let horizon = 4 * transfers;
                let rank_range = 1 + next(2 * transfers);
                for i in 0..transfers {
                    let k = b.len();
                    let p = b.add_param(format!("p{k}"), 8);
                    let mut deps = Vec::new();
                    if next(2) == 0 {
                        let grad =
                            b.add_op(format!("g{k}"), ps, OpKind::Compute, Cost::flops(1.0), &[]);
                        let ready = next(horizon);
                        if next(8) != 0 {
                            tb_ops.push((grad, t(0), t(ready)));
                        }
                        deps.push(b.add_op(
                            format!("s{k}"),
                            ps,
                            OpKind::send(p, ch),
                            Cost::bytes(8),
                            &[grad],
                        ));
                    }
                    let recv = b.add_op(
                        format!("r{k}"),
                        w,
                        OpKind::recv(p, ch),
                        Cost::bytes(8),
                        &deps,
                    );
                    let start = next(horizon);
                    if next(10) != 0 {
                        tb_ops.push((recv, t(start), t(start + 1 + i)));
                    }
                    if next(6) != 0 {
                        ranks.push((recv, next(rank_range)));
                    }
                }
            }
            let g = b.build().unwrap();
            let mut tb = TraceBuilder::new(g.len());
            for (op, start, end) in tb_ops {
                tb.record(op, start, end);
            }
            let trace = tb.finish();
            let rank = |op: OpId| ranks.iter().find(|r| r.0 == op).map(|r| r.1);
            let expected = priority_inversions_by_definition(&g, &trace, rank);
            assert_eq!(
                priority_inversions(&g, &trace, rank),
                expected,
                "case {case}"
            );
            found += expected.count();
        }
        assert!(found > 100, "the traces must hold real inversions: {found}");
    }

    /// SplitMix64 over `seed`: a draw below `bound` per call (this crate
    /// has no random-number dependency).
    fn split_mix(mut state: u64) -> impl FnMut(u64) -> u64 {
        move |bound: u64| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % bound
        }
    }

    /// A random cluster graph and a trace of it: workers and PSs joined
    /// by channels, parameters sent by their PS to one or two recvs (or
    /// reaching a sendless recv), compute ops on every device. Each
    /// resource runs its ops one at a time, each
    /// op starting at or after it became ready, on a time axis narrow
    /// enough for instants to coincide and with zero-length ops. When
    /// `faulty`, some ops become ready and never start, some never become
    /// ready, and a barrier raises the makespan.
    fn random_run(seed: u64, faulty: bool) -> (Graph, ExecutionTrace) {
        let mut next = split_mix(seed);
        let mut b = GraphBuilder::new();
        let workers: Vec<_> = (0..1 + next(3))
            .map(|i| b.add_worker(format!("w{i}")))
            .collect();
        let servers: Vec<_> = (0..1 + next(2))
            .map(|i| b.add_parameter_server(format!("ps{i}")))
            .collect();
        let mut channels = Vec::new();
        for &w in &workers {
            for &ps in &servers {
                channels.push((w, ps, b.add_channel(w, ps)));
            }
        }
        let mut recvs = Vec::new();
        for i in 0..1 + next(40) {
            let (w, ps, ch) = channels[next(channels.len() as u64) as usize];
            let p = b.add_param(format!("p{i}"), 1 + next(100));
            let send = (next(4) != 0).then(|| {
                b.add_op(
                    format!("s{i}"),
                    ps,
                    OpKind::send(p, ch),
                    Cost::bytes(1),
                    &[],
                )
            });
            for k in 0..1 + next(2) {
                let deps: Vec<OpId> = send.into_iter().collect();
                recvs.push(b.add_op(
                    format!("r{i}.{k}"),
                    w,
                    OpKind::recv(p, ch),
                    Cost::bytes(1),
                    &deps,
                ));
            }
        }
        let devices: Vec<_> = workers.iter().chain(&servers).copied().collect();
        for j in 0..next(60) {
            let dev = devices[next(devices.len() as u64) as usize];
            b.add_op(format!("c{j}"), dev, OpKind::Compute, Cost::flops(1.0), &[]);
        }
        let g = b.build().unwrap();

        let span = 1 + next(200);
        let mut tb = TraceBuilder::new(g.len());
        let mut free = vec![0u64; g.channels().len() + g.devices().len()];
        let mut order: Vec<OpId> = g.op_ids().collect();
        for i in (1..order.len()).rev() {
            order.swap(i, next(i as u64 + 1) as usize);
        }
        for op in order {
            if g.op(op).kind().is_send() {
                continue;
            }
            let lane = match g.resource(op) {
                Resource::Channel(c) => c.index(),
                Resource::Compute(d) => g.channels().len() + d.index(),
            };
            if faulty && next(6) == 0 {
                continue; // never ready
            }
            let ready = next(span);
            tb.mark_ready(op, t(ready));
            if faulty && next(5) == 0 {
                continue; // ready, never started
            }
            let start = free[lane].max(ready) + next(3);
            let end = start + next(2) * next(span / 4 + 1);
            free[lane] = end;
            tb.record(op, t(start), t(end));
            if let Some(&send) = g.preds(op).first() {
                if !tb.is_recorded(send) {
                    tb.mark_ready(send, t(ready.min(start)));
                    tb.record(send, t(start), t(end));
                }
            }
        }
        if faulty {
            tb.push_fault(
                t(span),
                FaultEventKind::Retransmit {
                    op: recvs[0],
                    attempt: 1,
                },
            );
            tb.raise_makespan(t(4 * span));
        }
        (g, tb.finish())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// On random quiet and faulty traces, the `sim.*` counters are
        /// the overlap report's per-resource rows and the trace's event
        /// and retransmit counts, a finished run alone sets idle gauges,
        /// and nothing else is registered.
        #[test]
        fn sim_metrics_are_the_usage_rows(seed in any::<u64>(), faulty in any::<bool>()) {
            let (g, trace) = random_run(seed, faulty);
            let registry = Registry::enabled();
            sim_metrics(&registry, &g, &trace, !faulty);
            let snap = registry.snapshot();
            let report = overlap_report(&g, &trace);
            for c in &report.channels {
                let i = c.channel.index();
                prop_assert_eq!(snap.counter(&format!("sim.chan{i}.busy_ns")), Some(c.busy.as_nanos()));
                prop_assert_eq!(snap.counter(&format!("sim.chan{i}.bytes")), Some(c.bytes));
                prop_assert_eq!(snap.counter(&format!("sim.chan{i}.transfers")), Some(c.transfers as u64));
                let idle = (!faulty).then_some(MetricValue::Gauge(c.idle.as_nanos() as f64));
                prop_assert_eq!(snap.get(&format!("sim.chan{i}.idle_ns")), idle.as_ref());
            }
            for d in &report.devices {
                let i = d.device.index();
                prop_assert_eq!(snap.counter(&format!("sim.dev{i}.busy_ns")), Some(d.busy.as_nanos()));
                prop_assert_eq!(snap.counter(&format!("sim.dev{i}.ops")), Some(d.ops as u64));
            }
            prop_assert_eq!(snap.counter("sim.events"), Some(trace.popped_events()));
            prop_assert_eq!(snap.counter("sim.retransmits"), Some(u64::from(faulty)));
            let per_channel = 3 + usize::from(!faulty);
            let expected = 2 + per_channel * report.channels.len() + 2 * report.devices.len();
            prop_assert_eq!(snap.entries.len(), expected);
        }
    }

    #[test]
    fn unranked_transfers_are_ignored() {
        let (g, ops) = sample();
        let mut tb = TraceBuilder::new(g.len());
        tb.record(ops[1], t(0), t(200));
        tb.record(ops[0], t(200), t(300));
        let report = priority_inversions(&g, &tb.finish(), |_| None);
        assert_eq!(report.count(), 0);
    }
}

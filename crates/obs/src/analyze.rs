//! Trace-derived analyzers: comm/compute overlap and priority-inversion
//! detection.
//!
//! Both consume an [`ExecutionTrace`] — *observed* behaviour — and so
//! double as correctness checks on the schedulers: a trace produced under
//! TAC enforcement on in-order channels must contain zero priority
//! inversions against the TAC ranks. Realized scheduling efficiency is
//! `tictac_sched::efficiency::realized_efficiency`.
//!
//! To keep the dependency graph acyclic (the schedulers depend on this
//! crate), [`priority_inversions`] takes a plain `Fn(OpId) -> Option<u64>`
//! priority closure rather than a `Schedule`.

use tictac_graph::{ChannelId, DeviceId, Graph, OpId, Resource};
use tictac_trace::{ExecutionTrace, SimDuration, SimTime};

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
/// interval); compute intervals from executed compute ops. Busy time per
/// resource is the union of its intervals, so overlapping retransmit
/// bookkeeping can never double-count.
pub fn overlap_report(graph: &Graph, trace: &ExecutionTrace) -> OverlapReport {
    let makespan = trace.makespan();
    let n_channels = graph.channels().len();
    let mut chan_iv: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n_channels];
    let mut chan_bytes = vec![0u64; n_channels];
    let mut chan_transfers = vec![0usize; n_channels];
    let n_devices = graph.devices().len();
    let mut dev_iv: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n_devices];
    let mut dev_ops = vec![0usize; n_devices];

    for (id, op) in graph.ops() {
        let Some(rec) = trace.record(id) else {
            continue;
        };
        if op.kind().is_send() {
            continue;
        }
        let (start, end) = (rec.start.as_nanos(), rec.end.as_nanos());
        match graph.resource(id) {
            Resource::Channel(c) => {
                chan_iv[c.index()].push((start, end));
                chan_bytes[c.index()] += op.cost().bytes;
                chan_transfers[c.index()] += 1;
            }
            Resource::Compute(d) => {
                dev_iv[d.index()].push((start, end));
                dev_ops[d.index()] += 1;
            }
        }
    }

    let mut all_comm = Vec::new();
    let channels = (0..n_channels)
        .map(|i| {
            let merged = merge_intervals(std::mem::take(&mut chan_iv[i]));
            let busy = SimDuration::from_nanos(total_ns(&merged));
            all_comm.extend_from_slice(&merged);
            ChannelUsage {
                channel: ChannelId::from_index(i),
                busy,
                idle: makespan.saturating_sub(busy),
                bytes: chan_bytes[i],
                transfers: chan_transfers[i],
            }
        })
        .collect();

    let mut all_compute = Vec::new();
    let devices = (0..n_devices)
        .map(|i| {
            let merged = merge_intervals(std::mem::take(&mut dev_iv[i]));
            let busy = SimDuration::from_nanos(total_ns(&merged));
            all_compute.extend_from_slice(&merged);
            DeviceUsage {
                device: DeviceId::from_index(i),
                busy,
                ops: dev_ops[i],
            }
        })
        .collect();

    let comm = merge_intervals(all_comm);
    let compute = merge_intervals(all_compute);
    OverlapReport {
        makespan,
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

#[cfg(test)]
mod tests {
    use super::*;
    use tictac_graph::{Cost, GraphBuilder, OpKind};
    use tictac_trace::TraceBuilder;

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

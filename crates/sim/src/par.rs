//! Conservatively partitioned parallel discrete-event engine.
//!
//! Exploits the independence structure of PS deployments: every
//! worker↔PS channel is an independent FIFO, and all transfer ops of a
//! channel execute on the channel's *worker* side. The event space is
//! partitioned per device — a worker partition owns its device plus
//! every channel attached to it (so all send/recv ops of those channels
//! are homed there), a PS partition owns just its compute timeline. The
//! only cross-partition dependencies left are the two seams of the PS
//! protocol:
//!
//! * PS read done → param send becomes ready (PS partition → worker),
//! * grad recv done → aggregate becomes ready (worker partition → PS).
//!
//! Both are delivered as timestamped *dispatch messages* between rounds
//! of a lower-bound-timestamp (LBTS) barrier. Each round the coordinator
//! computes, per partition class, the earliest instant any opposite-class
//! partition could still emit a message — its next pending work, plus
//! its *lookahead*: a PS cannot emit sooner than its minimum compute
//! duration after consuming a message, a worker cannot emit sooner than
//! its minimum in-flight transfer completion (the per-channel FIFO
//! lookahead). Every partition then processes its own events strictly
//! below that bound, in parallel, with no rollbacks (classic
//! conservative/CMB synchronization). A floor of `m + 1` — one past the
//! globally minimal pending timestamp — guarantees progress every round
//! even when lookaheads are zero.
//!
//! Determinism: partitions are isolated (their state is disjoint; the
//! only shared mutable state is the atomic indegree/ready-time arrays,
//! whose `fetch_max`-before-`fetch_sub` protocol makes the dispatch time
//! of a join node independent of which predecessor decrements last), and
//! message queues order by `(time, op id)` — so results are identical
//! run-to-run and independent of `TICTAC_THREADS`.
//!
//! Equivalence: under the eligibility gate (deterministic timing, quiet
//! faults, disorder window 1) the sequential oracle makes no
//! behavior-affecting RNG draws, and this engine reproduces its
//! semantics exactly except for the ordering of *simultaneous*
//! cross-partition completions, which can permute same-instant ready
//! queues. Such permutations preserve `IterationMetrics` and every
//! analyzer output (busy unions, sums and makespans are order-free);
//! `tests/par_equivalence.rs` pins seq-vs-par equivalence at that level
//! across the zoo and by proptest.

use crate::config::SimConfig;
use crate::engine::{ChanQueue, ReadyQueue, SendGate, TransferTable};
use crate::error::SimError;
use crate::service::ServiceTimes;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use tictac_graph::{Graph, OpId, OpKind};
use tictac_sched::Schedule;
use tictac_timing::{NoiseModel, SimTime};
use tictac_trace::{ExecutionTrace, TraceBuilder};

/// Whether `(graph, config)` is eligible for the parallel engine: at
/// least `par_threshold` workers and a workload whose sequential
/// semantics are deterministic (no noise, no reorder error, disorder
/// window 1, quiet fault spec) on a pure worker↔PS topology whose only
/// cross-device edges are the two PS-protocol seams.
pub(crate) fn eligible(graph: &Graph, config: &SimConfig) -> bool {
    let Some(threshold) = config.par_threshold else {
        return false;
    };
    config.noise == NoiseModel::none()
        && config.reorder_error == 0.0
        && config.disorder_window == Some(1)
        && config.faults.is_quiet()
        && config.faults.barrier_timeout.is_none()
        && graph.workers().count() >= threshold.max(1)
        // Heterogeneous device speeds / link bandwidths are sequential-only:
        // the partitioned engine's lookahead assumes uniform wire time.
        && graph.is_uniform()
        && supported_graph(graph)
}

/// The partition an op is homed on: transfer ops live with their
/// channel's worker endpoint; everything else with its device.
fn home_of(graph: &Graph, op: OpId) -> usize {
    let o = graph.op(op);
    match o.kind().channel() {
        Some(ch) => graph.channel(ch).worker().index(),
        None => o.device().index(),
    }
}

/// Validates the partitioning assumption in one `O(V + E)` pass: every
/// cross-partition edge is either "PS compute → worker-homed send" or
/// "worker-homed recv → PS compute". (Channels are worker↔PS by
/// construction; `GraphBuilder::build` rejects anything else.)
fn supported_graph(graph: &Graph) -> bool {
    for i in 0..graph.len() {
        let op = OpId::from_index(i);
        let o = graph.op(op);
        let h = home_of(graph, op);
        for &succ in graph.succs(op) {
            if home_of(graph, succ) == h {
                continue;
            }
            let s = graph.op(succ);
            let ok = match s.kind() {
                // Param push: the emitter must be PS-side compute.
                OpKind::Send { .. } => {
                    o.kind().channel().is_none() && graph.device(o.device()).is_parameter_server()
                }
                // Grad delivery: recv feeding PS-side compute.
                _ => {
                    o.is_recv()
                        && s.kind().channel().is_none()
                        && graph.device(s.device()).is_parameter_server()
                }
            };
            if !ok {
                return false;
            }
        }
    }
    true
}

/// Immutable state shared by all partitions, plus the atomic
/// cross-partition dependency counters.
struct Shared<'g> {
    graph: &'g Graph,
    schedule: &'g Schedule,
    service: ServiceTimes<'g>,
    enforcement: bool,
    /// Op → owning partition (device index).
    home: Vec<u32>,
    /// Channel → local index within its owner's `channels` vec.
    chan_local: Vec<u32>,
    /// Channel, pairing and enforcement rank per transfer op.
    transfers: TransferTable,
    /// Remaining unsatisfied predecessors per op.
    indegree: Vec<AtomicU32>,
    /// Latest predecessor completion time per op (ns). `fetch_max`ed
    /// *before* the indegree decrement, so whichever predecessor
    /// decrements last observes the true max readiness time.
    ready_at: Vec<AtomicU64>,
}

impl Shared<'_> {
    /// Where transfer op `op`'s channel sits in its home's `channels`.
    fn slot(&self, op: OpId) -> usize {
        self.chan_local[self.transfers.chan[op.index()] as usize] as usize
    }
}

/// One owned channel's runtime state (mirrors the sequential engine's
/// per-channel arrays, restricted to the owner partition).
#[derive(Debug, Default)]
struct ChannelState {
    busy: bool,
    /// The transfer in flight and its start time.
    inflight: Option<(OpId, SimTime)>,
    gate: SendGate,
    queue: ChanQueue,
}

/// One partition: a device's compute timeline plus (for workers) its
/// channels, with a private event heap and an inter-partition inbox.
struct Part {
    id: u32,
    clock: SimTime,
    /// Private pending events `(at, seq, payload)`, popped in ascending
    /// `(at, seq)`; payload is `(op << 1) | is_transfer`.
    events: BinaryHeap<Reverse<(u64, u64, u32)>>,
    seq: u64,
    /// Incoming dispatch messages `(ready_at_ns, op)`, min-ordered by
    /// `(time, op id)` so arrival order never affects processing order.
    inbox: BinaryHeap<Reverse<(u64, u32)>>,
    ready: ReadyQueue,
    busy: bool,
    started_compute: SimTime,
    /// Owned channels, in ascending global channel index (pump order);
    /// `Shared::chan_local` maps a global channel index to its slot.
    channels: Vec<ChannelState>,
    /// Outgoing messages `(target partition, ready_at_ns, op)`.
    outbox: Vec<(u32, u64, u32)>,
    /// Completed-op intervals, in completion order (mirrored sends
    /// directly after their recv, as the sequential engine records them).
    records: Vec<(OpId, SimTime, SimTime)>,
    completed: usize,
    /// Minimum delay from consuming a message to emitting one (ns).
    lookahead: u64,
    /// Cached queue minima, maintained at round boundaries.
    next_event_at: u64,
    next_inbox_at: u64,
}

impl Part {
    fn schedule(&mut self, at: u64, payload: u32) {
        debug_assert!(at >= self.clock.as_nanos(), "event scheduled into the past");
        self.seq += 1;
        self.events.push(Reverse((at, self.seq, payload)));
    }

    /// Routes an op whose dependencies are all satisfied (the sequential
    /// engine's `dispatch`, restricted to this partition).
    fn dispatch(&mut self, sh: &Shared, op: OpId) {
        match sh.graph.op(op).kind() {
            OpKind::Send { .. } => self.try_handoff(sh, op),
            OpKind::Recv { .. } => {
                let local = sh.slot(op);
                self.channels[local]
                    .queue
                    .push(op, sh.transfers.recv_rank[op.index()]);
            }
            _ => self.ready.push(op, sh.schedule.priority(op)),
        }
    }

    /// Sender-side enforcement (§5.1): a ranked transfer is handed to
    /// the channel only when its counter reaches its rank.
    fn try_handoff(&mut self, sh: &Shared, send: OpId) {
        let local = sh.slot(send);
        match sh.transfers.rank[send.index()] {
            Some(r) if sh.enforcement && !self.channels[local].gate.admits(r) => {
                self.channels[local].gate.block(r, send);
            }
            _ => self.complete_send(sh, send),
        }
    }

    /// Completes a send (instantaneous hand-off), bumps the enforcement
    /// counter and releases newly-unblocked sends on the same channel.
    fn complete_send(&mut self, sh: &Shared, send: OpId) {
        let mut next = Some(send);
        while let Some(s) = next.take() {
            self.mark_done(sh, s);
            if let Some(r) = sh.transfers.rank[s.index()] {
                if sh.enforcement {
                    next = self.channels[sh.slot(s)].gate.advance(r);
                }
            }
        }
    }

    /// Marks an op complete; local successors dispatch inline, remote
    /// ones become outbox messages carrying their max readiness time.
    fn mark_done(&mut self, sh: &Shared, op: OpId) {
        self.completed += 1;
        let t = self.clock.as_nanos();
        for k in 0..sh.graph.succs(op).len() {
            let succ = sh.graph.succs(op)[k];
            let i = succ.index();
            // Publish our completion time *before* decrementing, so the
            // final decrementer (whoever it is) reads the true maximum.
            sh.ready_at[i].fetch_max(t, Ordering::SeqCst);
            if sh.indegree[i].fetch_sub(1, Ordering::SeqCst) == 1 {
                let ready = sh.ready_at[i].load(Ordering::SeqCst);
                let target = sh.home[i];
                if target == self.id && ready <= t {
                    self.dispatch(sh, succ);
                } else if target == self.id {
                    // A remote predecessor finished later (in sim time)
                    // than us: defer to our own timeline.
                    self.inbox.push(Reverse((ready, i as u32)));
                } else {
                    self.outbox.push((target, ready, i as u32));
                }
            }
        }
    }

    /// Starts the next compute op if the device is idle. Window-1 pick:
    /// the earliest-pushed candidate (the gate guarantees the sequential
    /// engine's draw resolves to index 0 too).
    fn try_start_compute(&mut self, sh: &Shared) -> bool {
        if self.busy || self.ready.is_empty() {
            return false;
        }
        let op = self.ready.take_candidate(0);
        self.busy = true;
        self.started_compute = self.clock;
        let end = self.clock + sh.service.of(op);
        self.schedule(end.as_nanos(), (op.index() as u32) << 1);
        true
    }

    /// Starts the next transfer on every idle owned channel, in channel
    /// index order (matching the sequential engine's global sweep).
    fn try_start_transfers(&mut self, sh: &Shared) -> bool {
        let mut progressed = false;
        for local in 0..self.channels.len() {
            if self.channels[local].busy || self.channels[local].queue.is_empty() {
                continue;
            }
            let recv = if self.channels[local].queue.has_ranked() {
                self.channels[local].queue.pop_min_rank()
            } else {
                self.channels[local].queue.pop_live_index(0)
            };
            self.channels[local].busy = true;
            self.channels[local].inflight = Some((recv, self.clock));
            let end = self.clock + sh.service.of(recv);
            self.schedule(end.as_nanos(), ((recv.index() as u32) << 1) | 1);
            progressed = true;
        }
        progressed
    }

    /// Runs all synchronous starts enabled by the current state.
    fn pump(&mut self, sh: &Shared) {
        loop {
            let mut progressed = self.try_start_compute(sh);
            progressed |= self.try_start_transfers(sh);
            if !progressed {
                break;
            }
        }
    }

    fn handle(&mut self, sh: &Shared, payload: u32) {
        let op = OpId::from_index((payload >> 1) as usize);
        if payload & 1 == 1 {
            // TransferDone.
            let local = sh.slot(op);
            let (recv, start) = self.channels[local]
                .inflight
                .take()
                .expect("transfer in flight");
            debug_assert_eq!(recv, op);
            self.channels[local].busy = false;
            self.records.push((op, start, self.clock));
            // Attribute the same interval to the sending end, exactly as
            // the sequential engine does.
            if let Some(send) = sh.transfers.send_of[op.index()] {
                self.records.push((send, start, self.clock));
            }
            self.mark_done(sh, op);
        } else {
            // ComputeDone.
            self.busy = false;
            self.records.push((op, self.started_compute, self.clock));
            self.mark_done(sh, op);
        }
    }

    /// Processes everything (events and inbox messages, merged by time
    /// with messages first at ties) strictly below `bound`, then
    /// refreshes the cached minima the coordinator reads.
    fn run_round(&mut self, sh: &Shared, bound: u64) {
        loop {
            let ev = self.events.peek().map(|&Reverse(e)| e);
            let msg = self.inbox.peek().map(|&Reverse(m)| m);
            let take_msg = match (ev, msg) {
                (None, None) => break,
                (Some((ea, ..)), Some((ma, _))) => ma <= ea,
                (None, Some(_)) => true,
                (Some(_), None) => false,
            };
            if take_msg {
                let (at, op) = msg.expect("message peeked");
                if at >= bound {
                    break;
                }
                self.inbox.pop();
                self.clock = SimTime::from_nanos(at);
                self.dispatch(sh, OpId::from_index(op as usize));
            } else {
                let (at, _, payload) = ev.expect("event peeked");
                if at >= bound {
                    break;
                }
                self.events.pop();
                self.clock = SimTime::from_nanos(at);
                self.handle(sh, payload);
            }
            self.pump(sh);
        }
        self.next_event_at = self.events.peek().map_or(u64::MAX, |&Reverse((at, ..))| at);
        self.next_inbox_at = self.inbox.peek().map_or(u64::MAX, |&Reverse((at, _))| at);
    }
}

/// Worker threads for `jobs` independent pieces of work: the
/// `TICTAC_THREADS` environment variable when it holds a positive
/// integer, else the available parallelism; never more than `jobs`,
/// never fewer than one. The workspace's one thread-count policy — this
/// engine's round loop and `tictac_core::parallel_map` both ask it.
pub fn thread_count(jobs: usize) -> usize {
    let available = || std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    let request = std::env::var("TICTAC_THREADS").ok();
    thread_policy(request.as_deref(), available, jobs)
}

/// [`thread_count`] with the environment passed in; `available` is asked
/// only when the request does not settle it.
fn thread_policy(request: Option<&str>, available: impl FnOnce() -> usize, jobs: usize) -> usize {
    request
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&t| t >= 1)
        .unwrap_or_else(available)
        .min(jobs)
        .max(1)
}

/// Simulates one iteration on the partitioned engine.
///
/// Callers must have checked [`eligible`]; the fault plan is quiet by
/// construction, so no faults, noise or RNG draws are involved and the
/// result is identical for every iteration index.
pub(crate) fn simulate_par(
    graph: &Graph,
    schedule: &Schedule,
    config: &SimConfig,
) -> Result<ExecutionTrace, SimError> {
    debug_assert!(eligible(graph, config));
    let n = graph.len();
    let parts_n = graph.devices().len();
    let service = ServiceTimes::new(graph, config);

    let home: Vec<u32> = (0..n)
        .map(|i| home_of(graph, OpId::from_index(i)) as u32)
        .collect();
    // Channel ownership: ascending channel index per owner.
    let mut chan_local = vec![0u32; graph.channels().len()];
    let mut chan_ids: Vec<Vec<u32>> = vec![Vec::new(); parts_n];
    for ch in graph.channels() {
        let owner = ch.worker().index();
        chan_local[ch.id().index()] = chan_ids[owner].len() as u32;
        chan_ids[owner].push(ch.id().index() as u32);
    }

    // Per-partition lookahead: workers can only emit after an in-flight
    // transfer completes (min transfer duration over owned recvs); PS
    // partitions after a compute completes (min compute duration).
    let mut lookahead = vec![u64::MAX; parts_n];
    for (i, &h) in home.iter().enumerate().take(n) {
        let op = OpId::from_index(i);
        let o = graph.op(op);
        let h = h as usize;
        let emits = match o.kind() {
            OpKind::Recv { .. } => true,
            OpKind::Send { .. } => false,
            _ => graph.device(o.device()).is_parameter_server(),
        };
        if emits {
            lookahead[h] = lookahead[h].min(service.of(op).as_nanos());
        }
    }
    let is_ps: Vec<bool> = graph
        .devices()
        .iter()
        .map(|d| d.is_parameter_server())
        .collect();
    let class_lookahead = |ps: bool| {
        (0..parts_n)
            .filter(|&p| is_ps[p] == ps)
            .map(|p| lookahead[p])
            .min()
            .unwrap_or(u64::MAX)
    };
    let lw = class_lookahead(false);
    let lp = class_lookahead(true);

    let shared = Shared {
        graph,
        schedule,
        service,
        enforcement: config.enforcement,
        home,
        chan_local,
        transfers: TransferTable::new(graph, schedule),
        indegree: (0..n)
            .map(|i| AtomicU32::new(graph.preds(OpId::from_index(i)).len() as u32))
            .collect(),
        ready_at: (0..n).map(|_| AtomicU64::new(0)).collect(),
    };

    let mut parts: Vec<Part> = (0..parts_n)
        .map(|p| Part {
            id: p as u32,
            clock: SimTime::ZERO,
            events: BinaryHeap::new(),
            seq: 0,
            inbox: BinaryHeap::new(),
            ready: ReadyQueue::default(),
            busy: false,
            started_compute: SimTime::ZERO,
            channels: (0..chan_ids[p].len())
                .map(|_| ChannelState::default())
                .collect(),
            outbox: Vec::new(),
            records: Vec::new(),
            completed: 0,
            lookahead: lookahead[p],
            next_event_at: u64::MAX,
            next_inbox_at: u64::MAX,
        })
        .collect();

    // Dispatch roots (op id order, as the sequential engine does) and
    // run the initial synchronous starts.
    for i in 0..n {
        if shared.indegree[i].load(Ordering::Relaxed) == 0 {
            parts[shared.home[i] as usize].dispatch(&shared, OpId::from_index(i));
        }
    }
    for part in &mut parts {
        part.pump(&shared);
        part.next_event_at = part.events.peek().map_or(u64::MAX, |&Reverse((at, ..))| at);
    }

    // Heaviest partitions first so the work-stealing claim order packs
    // threads well (LPT); ties (all symmetric workers) by index.
    let mut load = vec![0usize; parts_n];
    for &h in &shared.home {
        load[h as usize] += 1;
    }
    let mut order: Vec<u32> = (0..parts_n as u32).collect();
    order.sort_by_key(|&p| (Reverse(load[p as usize]), p));

    let parts: Vec<Mutex<Part>> = parts.into_iter().map(Mutex::new).collect();
    let bounds: Vec<AtomicU64> = (0..parts_n).map(|_| AtomicU64::new(0)).collect();
    let threads = thread_count(parts_n);
    let barrier = Barrier::new(threads + 1);
    let stop = AtomicBool::new(false);
    let next_idx = AtomicUsize::new(0);

    let run = std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                barrier.wait();
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                loop {
                    let k = next_idx.fetch_add(1, Ordering::SeqCst);
                    if k >= order.len() {
                        break;
                    }
                    let p = order[k] as usize;
                    let bound = bounds[p].load(Ordering::SeqCst);
                    parts[p]
                        .lock()
                        .expect("partition lock")
                        .run_round(&shared, bound);
                }
                barrier.wait();
            });
        }

        let mut last_m = 0u64;
        let outcome = loop {
            // Deliver last round's messages.
            let mut mail: Vec<(u32, u64, u32)> = Vec::new();
            for mx in &parts {
                let mut part = mx.lock().expect("partition lock");
                mail.append(&mut part.outbox);
            }
            for (target, at, op) in mail {
                let mut part = parts[target as usize].lock().expect("partition lock");
                part.inbox.push(Reverse((at, op)));
                part.next_inbox_at = part.next_inbox_at.min(at);
            }

            // LBTS: the earliest instant each class could still emit.
            let (mut w0, mut p0, mut m) = (u64::MAX, u64::MAX, u64::MAX);
            let mut completed = 0usize;
            for mx in &parts {
                let part = mx.lock().expect("partition lock");
                completed += part.completed;
                m = m.min(part.next_event_at.min(part.next_inbox_at));
                let eot = part
                    .next_event_at
                    .min(part.next_inbox_at.saturating_add(part.lookahead));
                if is_ps[part.id as usize] {
                    p0 = p0.min(eot);
                } else {
                    w0 = w0.min(eot);
                }
            }
            if completed == n {
                break Ok(());
            }
            if m == u64::MAX {
                break Err(SimError::Deadlock {
                    completed,
                    remaining: n - completed,
                    at: SimTime::from_nanos(last_m),
                });
            }
            // Close the transitive loop: a PS may also emit in response
            // to a future worker message (and vice versa).
            let p_star = p0.min(w0.saturating_add(lp));
            let w_star = w0.min(p0.saturating_add(lw));
            let floor = m.saturating_add(1);
            for (p, b) in bounds.iter().enumerate() {
                let class_bound = if is_ps[p] { w_star } else { p_star };
                b.store(class_bound.max(floor), Ordering::SeqCst);
            }
            last_m = m;

            next_idx.store(0, Ordering::SeqCst);
            barrier.wait(); // release workers
            barrier.wait(); // join workers
        };
        stop.store(true, Ordering::SeqCst);
        barrier.wait();
        outcome
    });
    run?;

    let mut builder = TraceBuilder::new(n);
    for mx in &parts {
        let part = mx.lock().expect("partition lock");
        for &(op, start, end) in &part.records {
            // `is_recorded` guards shared sends (one send feeding
            // several recvs in hand-built graphs), as the sequential
            // engine's TraceBuilder does.
            if !builder.is_recorded(op) {
                builder.record(op, start, end);
            }
        }
    }
    Ok(builder.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{selected_engine, simulate, EngineChoice};
    use tictac_cluster::{deploy, ClusterSpec, DeployedModel};
    use tictac_models::{tiny_mlp, Mode};
    use tictac_sched::no_ordering;
    use tictac_timing::Platform;
    use tictac_trace::analyze;

    #[test]
    fn thread_policy_honours_positive_requests_and_caps_by_jobs() {
        // (TICTAC_THREADS, available parallelism, jobs) -> threads
        let cases: [(Option<&str>, usize, usize, usize); 9] = [
            (None, 4, 100, 4),
            (Some("3"), 4, 100, 3),
            (Some("0"), 4, 100, 4),
            (Some(""), 4, 100, 4),
            (Some("abc"), 4, 100, 4),
            (Some("-2"), 4, 100, 4),
            (Some("8"), 4, 2, 2),
            (None, 4, 2, 2),
            (Some("3"), 4, 0, 1),
        ];
        for (request, available, jobs, want) in cases {
            assert_eq!(
                thread_policy(request, || available, jobs),
                want,
                "request {request:?}, available {available}, jobs {jobs}"
            );
        }
    }

    fn par_config() -> SimConfig {
        SimConfig::deterministic(Platform::cloud_gpu()).with_disorder_window(Some(1))
    }

    fn zoo_deploy(workers: usize, ps: usize) -> DeployedModel {
        deploy(&tiny_mlp(Mode::Training, 4), &ClusterSpec::new(workers, ps)).unwrap()
    }

    #[test]
    fn eligibility_gate() {
        let d = zoo_deploy(4, 2);
        let g = d.graph();
        let base = par_config();
        // Below threshold (4 < 64): sequential.
        assert_eq!(selected_engine(g, &base), EngineChoice::Sequential);
        let forced = base.clone().with_par_threshold(Some(2));
        assert_eq!(selected_engine(g, &forced), EngineChoice::Parallel);
        // Each non-deterministic knob pins the oracle.
        assert_eq!(
            selected_engine(g, &forced.clone().with_par_threshold(None)),
            EngineChoice::Sequential
        );
        assert_eq!(
            selected_engine(g, &forced.clone().with_disorder_window(Some(32))),
            EngineChoice::Sequential
        );
        assert_eq!(
            selected_engine(g, &forced.clone().with_reorder_error(0.01)),
            EngineChoice::Sequential
        );
        assert_eq!(
            selected_engine(g, &SimConfig::cloud_gpu().with_par_threshold(Some(2))),
            EngineChoice::Sequential,
            "noisy presets stay sequential"
        );
    }

    #[test]
    fn matches_sequential_metrics_on_a_small_cluster() {
        let d = zoo_deploy(4, 2);
        let g = d.graph();
        let schedule = no_ordering(g);
        let config = par_config().with_par_threshold(Some(2));
        let seq = simulate(g, &schedule, &config.clone().with_par_threshold(None), 0);
        let par = simulate_par(g, &schedule, &config).unwrap();
        assert_eq!(par.makespan(), seq.makespan());
        assert_eq!(analyze(g, d.workers(), &par), analyze(g, d.workers(), &seq));
    }

    #[test]
    fn deterministic_across_runs() {
        let d = zoo_deploy(6, 3);
        let g = d.graph();
        let schedule = no_ordering(g);
        let config = par_config().with_par_threshold(Some(2));
        let a = simulate_par(g, &schedule, &config).unwrap();
        let b = simulate_par(g, &schedule, &config).unwrap();
        assert_eq!(a, b);
    }
}

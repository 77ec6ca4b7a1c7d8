//! The discrete-event execution engine and its driver.
//!
//! Every engine run ends in one driver ([`RunPlan::run`]): build the
//! engine over the plan's tables, run it. [`simulate`] is a plan for one
//! run. One single-threaded seeded event loop per run; parallelism lives
//! outside it, in `tictac_core::parallel_map` over independent grid
//! points (DESIGN.md §12). The engine keeps no metrics: they are derived
//! from its trace (§8).

use crate::config::SimConfig;
use crate::error::SimError;
use crate::faults::{
    close_at_barrier, darkened_by_crash, AfterLoss, FaultPlan, FaultSpec, Transition,
};
use crate::plan::{Route, RunPlan, TransferTable};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use tictac_graph::{Graph, OpId};
use tictac_sched::Schedule;
use tictac_trace::{ExecutionTrace, FaultEventKind, SimDuration, SimTime, TraceBuilder};

/// Simulates one iteration of `graph` under `schedule` and returns its
/// execution trace.
///
/// `iteration` seeds this iteration's random stream (combined with
/// `config.seed`), so repeated calls with the same arguments are exactly
/// reproducible while distinct iterations observe independent noise,
/// ready-queue draws and injected faults.
///
/// This is the panicking one-shot wrapper around [`RunPlan::new`] and
/// [`RunPlan::try_simulate`]; use those when a refusal or a failure
/// (an exhausted retry budget without a degraded barrier) is an expected
/// outcome, and to run many iterations of one `(graph, schedule,
/// config)` from one plan.
///
/// # Panics
///
/// Panics with the [`SimError`] either returns.
pub fn simulate(
    graph: &Graph,
    schedule: &Schedule,
    config: &SimConfig,
    iteration: u64,
) -> ExecutionTrace {
    RunPlan::new(graph, schedule, config)
        .and_then(|plan| plan.try_simulate(graph, schedule, iteration))
        .unwrap_or_else(|e| panic!("{e}"))
}

impl RunPlan {
    /// Simulates iteration `iteration` of the plan's `graph` and
    /// `schedule`, sampling the iteration's [`FaultPlan`] from the plan's
    /// configuration. Iterations run from one plan equal, trace for trace,
    /// fresh plans' runs with the same arguments.
    ///
    /// # Errors
    ///
    /// [`SimError::RetriesExhausted`] if a transfer runs out of
    /// retransmits with no degraded barrier configured, and
    /// [`SimError::Deadlock`] if the event queue drains with work
    /// outstanding (impossible for builder-validated DAGs without fault
    /// injection).
    pub fn try_simulate(
        &self,
        graph: &Graph,
        schedule: &Schedule,
        iteration: u64,
    ) -> Result<ExecutionTrace, SimError> {
        let faults = self.sample_faults(graph, iteration);
        let (trace, error) = self.run(graph, schedule, iteration, &faults)?;
        error.map_or(Ok(trace), Err)
    }

    /// Simulates one iteration under the pre-sampled `faults` (replayable:
    /// the same plan injects the same faults every time), with the drop
    /// rate, retry policy and barrier of the plan's configuration: the
    /// driver behind every engine run. Returns the trace the engine built
    /// however the run ended — a failed run's holds what executed before
    /// it stopped — beside the error that stopped it, if any.
    ///
    /// # Errors
    ///
    /// Before the engine starts, so there is no trace:
    /// [`SimError::InvalidKnob`] for a straggler factor of `faults` out of
    /// [`FaultSpec::check`]'s range (a hand-built plan sets its own).
    pub fn run(
        &self,
        graph: &Graph,
        schedule: &Schedule,
        iteration: u64,
        faults: &FaultPlan,
    ) -> Result<(ExecutionTrace, Option<SimError>), SimError> {
        debug_assert!(self.covers(graph, schedule), "not this plan's graph");
        faults.check()?;
        Ok(Engine::new(graph, schedule, self, iteration, faults).run())
    }
}

#[derive(Debug, Clone, Copy)]
enum EventKind {
    /// Op finished on its compute unit (stale if the epoch mismatches).
    ComputeDone(OpId, u32),
    /// Transfer completed on the wire (stale if the epoch mismatches).
    TransferDone(OpId, u32),
    /// Loss-detection timeout of a dropped transfer attempt fired.
    TransferTimeout(OpId, u32),
    /// An entry of the fault plan's agenda: an availability change or the
    /// degraded barrier's release.
    Fault(Transition),
}

/// Pending events, popped in ascending `at` and, among equal `at`, in the
/// order they were pushed — the event order of DESIGN.md §7's
/// *RNG-draw-order contract* — with no stamp stored (§7, *Event queue*,
/// has the argument).
///
/// A radix heap over `at`: an entry waits in the bucket named by the
/// highest bit where its `at` differs from `last`, the last popped
/// instant, and bucket 0 (the entries at `last`) is popped from the
/// front. When it runs dry, the lowest occupied bucket is pushed again
/// around its minimum, which becomes `last`. No push falls below `last`,
/// so equal instants always share a bucket, and a bucket is only appended
/// to or emptied, in order, into empty lower buckets: ties leave in push
/// order.
#[derive(Debug)]
struct EventQueue<T> {
    last: u64,
    /// `(at, item)` in push order; bucket `b >= 1` holds the entries whose
    /// highest bit differing from `last` is bit `b - 1`.
    buckets: [Vec<(u64, T)>; 65],
    /// The next entry of bucket 0 to pop.
    head: usize,
    /// Bit `b - 1` is set when bucket `b` holds an entry.
    occupied: u64,
}

impl<T: Copy> EventQueue<T> {
    fn new() -> Self {
        Self {
            last: 0,
            buckets: std::array::from_fn(|_| Vec::new()),
            head: 0,
            occupied: 0,
        }
    }

    fn push(&mut self, at: u64, item: T) {
        debug_assert!(at >= self.last, "event scheduled into the past");
        let b = (u64::BITS - (at ^ self.last).leading_zeros()) as usize;
        self.buckets[b].push((at, item));
        if b > 0 {
            self.occupied |= 1 << (b - 1);
        }
    }

    fn pop(&mut self) -> Option<(u64, T)> {
        if self.head == self.buckets[0].len() {
            if self.occupied == 0 {
                return None;
            }
            self.buckets[0].clear();
            self.head = 0;
            let b = self.occupied.trailing_zeros() as usize + 1;
            self.occupied &= self.occupied - 1;
            let mut spill = std::mem::take(&mut self.buckets[b]);
            self.last = spill.iter().map(|e| e.0).min().expect("occupied");
            for &(at, item) in &spill {
                self.push(at, item);
            }
            // Keep the allocation: nothing lands in bucket `b` now.
            spill.clear();
            self.buckets[b] = spill;
        }
        let entry = self.buckets[0][self.head];
        self.head += 1;
        Some(entry)
    }
}

/// Per-device ready set under the ready-queue rule of §3.1: the pick
/// candidates are every unprioritized ready op plus the ready ops holding
/// the lowest priority number, indexed in readiness order.
///
/// Two pools, each in readiness order by a push stamp: unprioritized ops,
/// and prioritized ops sorted by `(priority, stamp)` so the lowest
/// priority's ops are a prefix. TIC, TAC and `random_order` prioritize
/// recvs only, which never enter a ready queue, so outside hand-built
/// schedules the second pool is empty and a pick is one `remove`.
#[derive(Debug, Default)]
struct ReadyQueue {
    seq: u64,
    /// Unprioritized ready ops, `(stamp, op)` in push order.
    unprio: VecDeque<(u64, OpId)>,
    /// Prioritized ready ops, `(priority, stamp, op)` ascending.
    prio: VecDeque<(u64, u64, OpId)>,
}

impl ReadyQueue {
    fn push(&mut self, op: OpId, priority: Option<u64>) {
        self.seq += 1;
        match priority {
            None => self.unprio.push_back((self.seq, op)),
            Some(p) => {
                // Stamps only grow: the slot is the end of `p`'s run.
                let at = self.prio.partition_point(|e| e.0 <= p);
                self.prio.insert(at, (p, self.seq, op));
            }
        }
    }

    fn is_empty(&self) -> bool {
        self.unprio.is_empty() && self.prio.is_empty()
    }

    /// Number of ready ops holding the lowest priority number.
    fn min_priority_len(&self) -> usize {
        self.prio
            .front()
            .map_or(0, |&(min, ..)| self.prio.partition_point(|e| e.0 <= min))
    }

    /// Number of pick candidates.
    fn candidates(&self) -> usize {
        self.unprio.len() + self.min_priority_len()
    }

    /// Removes and returns the `idx`-th candidate in readiness order.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.candidates()`.
    fn take_candidate(&mut self, idx: usize) -> OpId {
        let run = self.min_priority_len();
        if run == 0 {
            return self.unprio.remove(idx).expect("candidate index in range").1;
        }
        // Merge the two pools by stamp: `a` entries of `unprio` and `b` of
        // the lowest-priority run come before the candidate looked at.
        let (mut a, mut b) = (0, 0);
        let from_unprio = loop {
            let next_unprio = match (self.unprio.get(a), self.prio.get(b)) {
                (Some(u), Some(p)) if b < run => u.0 < p.1,
                (Some(_), _) => true,
                (None, _) => false,
            };
            if a + b == idx {
                break next_unprio;
            }
            if next_unprio {
                a += 1;
            } else {
                b += 1;
            }
        };
        if from_unprio {
            self.unprio.remove(a).expect("an entry was seen at `a`").1
        } else {
            assert!(b < run, "candidate index out of range");
            self.prio.remove(b).expect("`b` is inside the run").2
        }
    }
}

/// Per-channel queue of handed-off transfers.
///
/// `order` holds them in hand-off order, which is what the
/// disorder-window pick indexes. `ranked` is a min-heap over the
/// `(rank, stamp)` of the entries that carry an enforcement rank, so the
/// lowest rank — the earliest handed off among equals — is found without
/// a scan; stamps grow along `order`, so its entry is then a binary
/// search away.
#[derive(Debug, Default)]
struct ChanQueue {
    seq: u64,
    /// Queued transfers, `(stamp, op, rank)` in hand-off order.
    order: VecDeque<(u64, OpId, Option<u64>)>,
    /// `(rank, stamp)` of every queued transfer that carries a rank.
    ranked: BinaryHeap<Reverse<(u64, u64)>>,
}

impl ChanQueue {
    fn push(&mut self, op: OpId, rank: Option<u64>) {
        self.seq += 1;
        if let Some(r) = rank {
            self.ranked.push(Reverse((r, self.seq)));
        }
        self.order.push_back((self.seq, op, rank));
    }

    fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    fn len(&self) -> usize {
        self.order.len()
    }

    fn has_ranked(&self) -> bool {
        !self.ranked.is_empty()
    }

    /// Removes and returns the queued transfer with the lowest enforcement
    /// rank, the earliest handed off if several share it.
    ///
    /// # Panics
    ///
    /// Panics if no ranked transfer is queued.
    fn pop_min_rank(&mut self) -> OpId {
        let Reverse((_, seq)) = self.ranked.pop().expect("a ranked entry");
        let idx = self
            .order
            .binary_search_by_key(&seq, |e| e.0)
            .expect("ranked entry present in order");
        self.order.remove(idx).expect("index from the search").1
    }

    /// Removes and returns the `idx`-th queued transfer in hand-off order.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.len()`.
    fn pop_index(&mut self, idx: usize) -> OpId {
        let (seq, op, rank) = self.order.remove(idx).expect("index in range");
        if rank.is_some() {
            // Only a reorder error takes a ranked transfer by index.
            self.ranked.retain(|e| e.0 .1 != seq);
        }
        op
    }
}

/// One channel's sender-side enforcement state (§5.1): how many
/// prioritized transfers were handed off so far, and the sends held back
/// until that count reaches their rank.
#[derive(Debug, Default)]
pub(crate) struct SendGate {
    counter: u64,
    /// Held sends, indexed by rank (grown on demand).
    blocked: Vec<Option<OpId>>,
}

impl SendGate {
    /// Whether the send of rank `r` may be handed off now.
    pub(crate) fn admits(&self, r: u64) -> bool {
        self.counter == r
    }

    /// Holds `send` back until the count reaches its rank `r`.
    pub(crate) fn block(&mut self, r: u64, send: OpId) {
        let r = r as usize;
        if self.blocked.len() <= r {
            self.blocked.resize(r + 1, None);
        }
        self.blocked[r] = Some(send);
    }

    /// Counts the hand-off of the send of rank `r` and releases the held
    /// send that is due next, if it is waiting.
    pub(crate) fn advance(&mut self, r: u64) -> Option<OpId> {
        debug_assert_eq!(self.counter, r);
        self.counter += 1;
        self.blocked
            .get_mut(self.counter as usize)
            .and_then(Option::take)
    }
}

/// Resource indices awaiting a start attempt: one bit per device or
/// channel, drained in ascending order.
///
/// The pump's worklist. An index is marked when its resource frees or its
/// queue gains an entry — the only transitions that can make it startable
/// besides an outage ending, and a resource skipped because it is down
/// re-marks itself, so it is retried on every pump until it is back up.
/// Every word holding a mark lies in `lo..hi`.
#[derive(Debug)]
struct DirtySet {
    words: Vec<u64>,
    lo: usize,
    hi: usize,
}

impl DirtySet {
    fn new(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            lo: usize::MAX,
            hi: 0,
        }
    }

    #[inline]
    fn mark(&mut self, index: usize) {
        let w = index / 64;
        self.words[w] |= 1 << (index % 64);
        self.lo = self.lo.min(w);
        self.hi = self.hi.max(w + 1);
    }

    /// Starts a drain of the marked indices, ascending. The range is reset
    /// here and each word is cleared as the drain reaches it, so a mark
    /// made while the drain runs — by the engine, only a down resource
    /// re-marking itself, whose word is already taken — lands in the next
    /// drain.
    #[inline]
    fn drain(&mut self) -> Drain {
        let words = self.lo..self.hi;
        self.lo = usize::MAX;
        self.hi = 0;
        Drain {
            words,
            base: 0,
            bits: 0,
        }
    }
}

/// A drain of a [`DirtySet`] in progress: the words still to take, and
/// the bits left of the word taken last.
struct Drain {
    words: std::ops::Range<usize>,
    base: usize,
    bits: u64,
}

impl Drain {
    /// The next marked index, taking each word before walking its bits.
    #[inline]
    fn next(&mut self, set: &mut DirtySet) -> Option<usize> {
        while self.bits == 0 {
            let w = self.words.next()?;
            self.base = w * 64;
            self.bits = std::mem::take(&mut set.words[w]);
        }
        let index = self.base + self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(index)
    }
}

struct Engine<'g> {
    graph: &'g Graph,
    schedule: &'g Schedule,
    /// Noise-free service time per op (the plan's column).
    service: &'g [SimDuration],
    /// Where each op goes and what it holds (the plan's column).
    route: &'g [Route],
    noise: tictac_trace::NoiseModel,
    reorder_error: f64,
    enforcement: bool,
    disorder_window: usize,
    rng: SmallRng,
    plan: &'g FaultPlan,
    /// The configuration's fault spec: the drop rate, retry policy and
    /// barrier `plan` runs under.
    spec: &'g FaultSpec,

    clock: SimTime,
    /// Pending events, popped in ascending `at`, ties in scheduling order.
    events: EventQueue<EventKind>,

    indegree: Vec<u32>,
    /// The plan's roots.
    roots: &'g [OpId],
    done: Vec<bool>,
    trace: TraceBuilder,
    remaining: usize,

    /// Per-op event generation; bumping it cancels the op's in-flight
    /// events (they are ignored as stale when popped).
    epoch: Vec<u32>,
    /// Per-recv transfer attempts made so far (zero-based).
    attempts: Vec<u32>,
    /// Simulation outcome latches.
    error: Option<SimError>,
    degraded: bool,

    /// Per-device compute state.
    compute_ready: Vec<ReadyQueue>,
    /// The op running on each device (busy while one is), its start and
    /// its end (ns).
    inflight_compute: Vec<Option<(OpId, SimTime, u64)>>,
    /// Device unavailable until this instant (ns; crash or stall).
    device_down_until: Vec<u64>,
    /// Per-worker slowdown factor for this iteration.
    slowdown: Vec<f64>,

    /// Per-channel gRPC state.
    chan_busy: Vec<bool>,
    /// The transfer (recv op) in flight on each channel and its start.
    inflight_recv: Vec<Option<(OpId, SimTime)>>,
    /// Channel unavailable until this instant (ns; blackout or endpoint
    /// crash).
    chan_down_until: Vec<u64>,
    /// Sender-side enforcement state.
    gate: Vec<SendGate>,
    /// Channel, pairing and enforcement rank per transfer op (the plan's).
    transfers: &'g TransferTable,
    /// Per-channel queues of handed-off transfers (recv ops).
    chan_queue: Vec<ChanQueue>,
    /// Devices and channels an event may have made startable since the
    /// last pump; everything else is known to be busy, empty or handled.
    dirty_devices: DirtySet,
    dirty_channels: DirtySet,
}

impl<'g> Engine<'g> {
    /// One iteration's mutable state over `run`'s tables: the indegree
    /// template is copied, the columns are borrowed.
    fn new(
        graph: &'g Graph,
        schedule: &'g Schedule,
        run: &'g RunPlan,
        iteration: u64,
        plan: &'g FaultPlan,
    ) -> Self {
        let n = graph.len();
        let config = run.config();
        let mut rng = SmallRng::seed_from_u64(
            config
                .seed
                .wrapping_add(iteration.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        );

        // Per-iteration worker slowdowns (system-level variance, §6.3).
        let mut slowdown: Vec<f64> = graph
            .devices()
            .iter()
            .map(|d| {
                if d.is_worker() {
                    config.noise.worker_factor(&mut rng)
                } else {
                    1.0
                }
            })
            .collect();
        // Injected persistent stragglers compound the sampled variance
        // (applied after so the noise stream is untouched by the plan).
        for &(device, factor) in &plan.stragglers {
            slowdown[device.index()] *= factor;
        }

        Self {
            graph,
            schedule,
            service: &run.service,
            route: &run.route,
            noise: config.noise,
            reorder_error: config.reorder_error,
            enforcement: config.enforcement,
            disorder_window: config.disorder_window.unwrap_or(usize::MAX),
            rng,
            plan,
            spec: &config.faults,
            clock: SimTime::ZERO,
            events: EventQueue::new(),
            indegree: run.indegree.clone(),
            roots: &run.roots,
            done: vec![false; n],
            trace: TraceBuilder::new(n),
            remaining: n,
            epoch: vec![0; n],
            attempts: vec![0; n],
            error: None,
            degraded: false,
            compute_ready: (0..graph.devices().len())
                .map(|_| ReadyQueue::default())
                .collect(),
            inflight_compute: vec![None; graph.devices().len()],
            device_down_until: vec![0; graph.devices().len()],
            slowdown,
            chan_busy: vec![false; graph.channels().len()],
            inflight_recv: vec![None; graph.channels().len()],
            chan_down_until: vec![0; graph.channels().len()],
            gate: (0..graph.channels().len())
                .map(|_| SendGate::default())
                .collect(),
            transfers: &run.transfers,
            chan_queue: (0..graph.channels().len())
                .map(|_| ChanQueue::default())
                .collect(),
            dirty_devices: DirtySet::new(graph.devices().len()),
            dirty_channels: DirtySet::new(graph.channels().len()),
        }
    }

    /// Logs the iteration-long stragglers and schedules the fault plan's
    /// agenda in plan order, at the plan's own instants: plans are sampled
    /// in this engine's time domain. Quiet plans schedule nothing, keeping
    /// the event stream identical to a fault-free run.
    fn schedule_faults(&mut self) {
        let plan = self.plan;
        for &(device, _) in &plan.stragglers {
            self.trace
                .push_fault(SimTime::ZERO, FaultEventKind::StragglerApplied { device });
        }
        for (at, transition) in plan.agenda(self.spec.barrier_timeout) {
            self.schedule_event(at, EventKind::Fault(transition));
        }
    }

    /// Runs the iteration: its trace however it ended, and any error.
    fn run(mut self) -> (ExecutionTrace, Option<SimError>) {
        self.schedule_faults();

        // Dispatch roots: ops without predecessors, not ops whose count
        // a root's instant hand-off already took to zero (those were
        // dispatched by that hand-off).
        for &root in self.roots {
            self.dispatch(root);
        }
        self.pump();

        let mut popped = 0;
        while self.remaining > 0 {
            let Some((at, kind)) = self.events.pop() else {
                break;
            };
            popped += 1;
            self.clock = SimTime::from_nanos(at);
            match kind {
                EventKind::ComputeDone(op, epoch) => {
                    if epoch != self.epoch[op.index()] {
                        continue; // cancelled by a crash or stall
                    }
                    self.on_compute_done(op);
                }
                EventKind::TransferDone(op, epoch) => {
                    if epoch != self.epoch[op.index()] {
                        continue; // the attempt was killed mid-flight
                    }
                    self.on_transfer_done(op);
                }
                EventKind::TransferTimeout(op, epoch) => {
                    if epoch != self.epoch[op.index()] {
                        continue; // detection restarted by a later fault
                    }
                    self.on_transfer_timeout(op);
                }
                EventKind::Fault(transition) => self.on_fault(transition),
            }
            if self.error.is_some() || self.degraded {
                break;
            }
            self.pump();
        }

        let error = self.error.take().or_else(|| {
            (self.remaining > 0 && !self.degraded).then(|| SimError::Deadlock {
                completed: self.graph.len() - self.remaining,
                remaining: self.remaining,
                at: self.clock,
            })
        });
        self.trace.set_popped_events(popped);
        (self.trace.finish(), error)
    }

    /// Runs all synchronous starts enabled by the current state: one start
    /// attempt per dirty device, then per dirty channel, each in ascending
    /// index order — the order, and so the RNG draw order (DESIGN.md §7),
    /// of a sweep over every device and channel. A start only occupies its
    /// resource and schedules a completion, so it never makes another
    /// resource startable and one drain suffices.
    fn pump(&mut self) {
        let mut devices = self.dirty_devices.drain();
        while let Some(dev) = devices.next(&mut self.dirty_devices) {
            self.try_start_compute(dev);
        }
        let mut channels = self.dirty_channels.drain();
        while let Some(ch) = channels.next(&mut self.dirty_channels) {
            self.try_start_transfer(ch);
        }
        debug_assert!(
            self.nothing_startable(),
            "a resource became startable without being marked dirty"
        );
    }

    /// Whether a sweep over every device and channel would start nothing:
    /// the invariant each pump restores (checked in debug builds).
    fn nothing_startable(&self) -> bool {
        let now = self.clock.as_nanos();
        let device_startable = |d: usize| {
            self.inflight_compute[d].is_none()
                && !self.compute_ready[d].is_empty()
                && self.device_down_until[d] <= now
        };
        let channel_startable = |c: usize| {
            !self.chan_busy[c] && !self.chan_queue[c].is_empty() && self.chan_down_until[c] <= now
        };
        !(0..self.inflight_compute.len()).any(device_startable)
            && !(0..self.chan_busy.len()).any(channel_startable)
    }

    fn schedule_event(&mut self, at: SimTime, kind: EventKind) {
        self.events.push(at.as_nanos(), kind);
    }

    /// Routes an op whose dependencies are all satisfied: the instant it
    /// becomes ready on its resource.
    fn dispatch(&mut self, op: OpId) {
        match self.route[op.index()] {
            Route::Send(ch) => self.try_handoff(op, ch as usize),
            Route::Recv(ch) => {
                // Handed to the network (its send completed): queue the
                // transfer on its channel, carrying the sender's rank.
                let ch = ch as usize;
                self.chan_queue[ch].push(op, self.transfers.recv_rank(op));
                self.dirty_channels.mark(ch);
            }
            Route::Compute(dev) => {
                let dev = dev as usize;
                self.compute_ready[dev].push(op, self.schedule.priority(op));
                self.dirty_devices.mark(dev);
            }
        }
    }

    /// Sender-side enforcement: a ranked transfer is handed to channel `ch`
    /// only when the channel's counter reaches its rank (§5.1).
    fn try_handoff(&mut self, send: OpId, ch: usize) {
        match self.transfers.rank(send) {
            Some(r) if self.enforcement && !self.gate[ch].admits(r) => {
                self.gate[ch].block(r, send);
            }
            _ => self.complete_send(send, ch),
        }
    }

    /// Completes a send (instantaneous hand-off), bumps the enforcement
    /// counter and releases any newly-unblocked sends on the same channel.
    ///
    /// The send op is *not* traced here: the trace attributes the transfer
    /// interval to both endpoints once the wire time is known (TF's tracer
    /// likewise reports transfer time at the send op), so recording happens
    /// in [`on_transfer_done`](Self::on_transfer_done).
    fn complete_send(&mut self, send: OpId, ch: usize) {
        // Every send the gate releases is one of `ch`'s.
        let mut next = Some(send);
        while let Some(s) = next.take() {
            self.mark_done(s);
            if let Some(r) = self.transfers.rank(s) {
                if self.enforcement {
                    next = self.gate[ch].advance(r);
                }
            }
        }
    }

    /// Starts the next transfer on `ch` if it is idle, reachable and has
    /// one queued. Channels proceed concurrently at fair-shared bandwidth;
    /// a blacked-out channel (or a channel of a crashed worker) holds its
    /// queue — and stays dirty — until the outage ends.
    ///
    /// Queue discipline per channel: transfers carrying an enforcement
    /// rank go lowest-rank-first (they are handed off in rank order by the
    /// sender-side counters, so this is gRPC's FIFO); unranked transfers —
    /// all of them under the baseline — are picked uniformly at random,
    /// reflecting that TensorFlow transfers are receiver-initiated and
    /// request arrival order at each worker's channel is arbitrary (§2.2).
    /// With probability `reorder_error` the channel instead takes a random
    /// queued transfer, emulating gRPC's occasional out-of-order
    /// processing of enforced hand-offs (§5.1). Retransmits re-enter the
    /// queue and compete under the same discipline, so enforced rank order
    /// survives transfer loss.
    fn try_start_transfer(&mut self, ch: usize) {
        if self.chan_busy[ch] || self.chan_queue[ch].is_empty() {
            return;
        }
        if self.chan_down_until[ch] > self.clock.as_nanos() {
            self.dirty_channels.mark(ch);
            return;
        }
        // RNG draw-order contract (DESIGN.md §7): the reorder-error
        // draw happens exactly when a ranked transfer is queued AND at
        // least two transfers are queued; the disorder-window draw
        // spans the queue in hand-off order.
        let len = self.chan_queue[ch].len();
        let take_ranked = self.chan_queue[ch].has_ranked()
            && !(len >= 2 && self.rng.gen::<f64>() < self.reorder_error);
        let recv = if take_ranked {
            self.chan_queue[ch].pop_min_rank()
        } else {
            // Unranked pops are locally disordered: pick among the
            // oldest `disorder_window` queued transfers.
            let pick = self.rng.gen_range(0..len.min(self.disorder_window));
            self.chan_queue[ch].pop_index(pick)
        };
        self.start_transfer(ch, recv);
    }

    fn start_transfer(&mut self, ch: usize, recv: OpId) {
        self.chan_busy[ch] = true;
        self.inflight_recv[ch] = Some((recv, self.clock));
        let base = self.service[recv.index()];
        // The wire-time draw happens whether or not the attempt survives,
        // so the noise stream is independent of drop decisions.
        let dur = self.noise.apply(&mut self.rng, base);
        let attempt = self.attempts[recv.index()];
        if self.plan.drops_attempt(self.spec.drop_prob, recv, attempt) {
            // Lost on the wire: the channel stays wedged on the failed
            // stream until loss detection fires.
            self.lose(recv);
        } else {
            let epoch = self.epoch[recv.index()];
            self.schedule_event(self.clock + dur, EventKind::TransferDone(recv, epoch));
        }
    }

    /// The current attempt of `recv` is lost now: the receiver only
    /// notices when the attempt's loss-detection timeout fires.
    fn lose(&mut self, recv: OpId) {
        let attempt = self.attempts[recv.index()];
        self.trace.push_fault(
            self.clock,
            FaultEventKind::TransferDropped { op: recv, attempt },
        );
        let epoch = self.epoch[recv.index()];
        self.schedule_event(
            self.clock + self.spec.retry.timeout_for(attempt),
            EventKind::TransferTimeout(recv, epoch),
        );
    }

    /// Kills the transfer in flight on `ch` (endpoint crash or blackout):
    /// the attempt's completion is cancelled and loss detection restarts
    /// now, as if the outage reset the stream.
    fn kill_inflight_transfer(&mut self, ch: usize) {
        if let Some((recv, _)) = self.inflight_recv[ch].take() {
            self.epoch[recv.index()] += 1;
            self.lose(recv);
        }
    }

    /// The ready-queue rule of §3.1: candidates are the ready ops with the
    /// lowest priority number plus all unprioritized ready ops; the pick
    /// among candidates is uniformly random. Crashed or stalled devices
    /// start nothing — and stay dirty — until they come back.
    fn try_start_compute(&mut self, dev: usize) {
        if self.inflight_compute[dev].is_some() || self.compute_ready[dev].is_empty() {
            return;
        }
        if self.device_down_until[dev] > self.clock.as_nanos() {
            self.dirty_devices.mark(dev);
            return;
        }
        // Locally disordered pick: uniform over the oldest
        // `disorder_window` candidates in readiness order.
        let window = self.compute_ready[dev]
            .candidates()
            .min(self.disorder_window);
        let chosen = self.rng.gen_range(0..window);
        let op = self.compute_ready[dev].take_candidate(chosen);

        let base = self.service[op.index()];
        let dur = self
            .noise
            .apply(&mut self.rng, base)
            .mul_f64(self.slowdown[dev]);
        let end = self.clock + dur;
        self.inflight_compute[dev] = Some((op, self.clock, end.as_nanos()));
        let epoch = self.epoch[op.index()];
        self.schedule_event(end, EventKind::ComputeDone(op, epoch));
    }

    fn on_compute_done(&mut self, op: OpId) {
        let dev = self.route[op.index()].index();
        let (_, start, _) = self.inflight_compute[dev].take().expect("in flight");
        self.dirty_devices.mark(dev);
        self.trace.record(op, start, self.clock);
        self.mark_done(op);
    }

    fn on_transfer_done(&mut self, recv: OpId) {
        let ch = self.route[recv.index()].index();
        self.chan_busy[ch] = false;
        let (_, start) = self.inflight_recv[ch].take().expect("in flight");
        self.dirty_channels.mark(ch);
        self.transfers
            .record(&mut self.trace, recv, start, self.clock);
        self.mark_done(recv);
    }

    /// A transfer attempt was declared lost: free the channel, count the
    /// attempt and take the loss ladder's answer.
    fn on_transfer_timeout(&mut self, recv: OpId) {
        let ch = self.route[recv.index()].index();
        self.chan_busy[ch] = false;
        self.dirty_channels.mark(ch);
        if self.inflight_recv[ch].is_some_and(|(r, _)| r == recv) {
            self.inflight_recv[ch] = None;
        }
        let attempt = self.attempts[recv.index()];
        self.attempts[recv.index()] = attempt + 1;
        match self
            .spec
            .after_timeout(&mut self.trace, recv, attempt, self.clock)
        {
            AfterLoss::Retransmit => self.chan_queue[ch].push(recv, self.transfers.recv_rank(recv)),
            // Left incomplete; the barrier defers it when it fires.
            AfterLoss::Abandon => {}
            AfterLoss::Fail(e) => self.error = Some(e),
        }
    }

    fn on_fault(&mut self, transition: Transition) {
        if let Some(kind) = transition.event() {
            self.trace.push_fault(self.clock, kind);
        }
        match transition {
            Transition::BlackoutStart { channel, until } => {
                let ch = channel.index();
                self.chan_down_until[ch] = self.chan_down_until[ch].max(until.as_nanos());
                self.kill_inflight_transfer(ch);
            }
            Transition::CrashStart { device, until } => {
                let dev = device.index();
                self.device_down_until[dev] = self.device_down_until[dev].max(until.as_nanos());
                // In-flight compute is lost and re-run after recovery.
                if let Some((op, ..)) = self.inflight_compute[dev].take() {
                    self.epoch[op.index()] += 1;
                    self.compute_ready[dev].push(op, self.schedule.priority(op));
                    self.dirty_devices.mark(dev);
                }
                // In-flight transfers on the darkened channels are lost
                // and retried after detection.
                for ch in darkened_by_crash(self.graph, device) {
                    self.chan_down_until[ch] = self.chan_down_until[ch].max(until.as_nanos());
                    self.kill_inflight_transfer(ch);
                }
            }
            Transition::StallStart { device, until } => {
                let dev = device.index();
                self.device_down_until[dev] = self.device_down_until[dev].max(until.as_nanos());
                // Pause semantics: the in-flight update is not lost, it
                // finishes late by the stall length.
                if let Some((op, start, end)) = self.inflight_compute[dev] {
                    self.epoch[op.index()] += 1;
                    let pause = until.as_nanos().saturating_sub(self.clock.as_nanos());
                    let new_end = end.saturating_add(pause);
                    self.inflight_compute[dev] = Some((op, start, new_end));
                    let epoch = self.epoch[op.index()];
                    self.schedule_event(
                        SimTime::from_nanos(new_end),
                        EventKind::ComputeDone(op, epoch),
                    );
                }
            }
            // Degraded-mode sync barrier: work still outstanding when it
            // fires is deferred to the next iteration.
            Transition::Barrier => {
                let done = &self.done;
                let undone = (0..done.len()).filter(|&i| !done[i]).map(OpId::from_index);
                close_at_barrier(&mut self.trace, self.clock, undone);
                self.degraded = true;
            }
            Transition::BlackoutEnd { .. }
            | Transition::CrashEnd { .. }
            | Transition::StallEnd { .. } => {}
        }
    }

    /// Marks an op complete and dispatches newly-ready successors.
    fn mark_done(&mut self, op: OpId) {
        debug_assert!(!self.done[op.index()], "op {op} completed twice");
        self.done[op.index()] = true;
        self.remaining -= 1;
        let graph = self.graph;
        for succ in graph.succs(op) {
            self.indegree[succ.index()] -= 1;
            if self.indegree[succ.index()] == 0 {
                self.dispatch(succ);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultSpec, Stall};
    use proptest::prelude::*;
    use tictac_cluster::{deploy, ClusterSpec};
    use tictac_graph::{tiny_mlp, Cost, GraphBuilder, Mode, OpKind};
    use tictac_sched::no_ordering;
    use tictac_trace::{Platform, RetryPolicy, SimDuration};

    /// One iteration from a plan built for it.
    fn try_simulate(
        graph: &Graph,
        schedule: &Schedule,
        config: &SimConfig,
        iteration: u64,
    ) -> Result<ExecutionTrace, SimError> {
        RunPlan::new(graph, schedule, config)?.try_simulate(graph, schedule, iteration)
    }

    /// One iteration under the explicit `faults`, which must complete.
    fn run_with(
        graph: &Graph,
        schedule: &Schedule,
        config: &SimConfig,
        iteration: u64,
        faults: &FaultPlan,
    ) -> ExecutionTrace {
        let plan = RunPlan::new(graph, schedule, config).unwrap();
        let (trace, error) = plan.run(graph, schedule, iteration, faults).unwrap();
        assert_eq!(error, None);
        trace
    }

    fn fig1a() -> (Graph, [OpId; 6]) {
        // Full Figure 1a including PS side, sized so the recv order
        // visibly matters: equal transfers, equal computes.
        let mut b = GraphBuilder::new();
        let w = b.add_worker("w0");
        let ps = b.add_parameter_server("ps0");
        let ch = b.add_channel(w, ps);
        let mb = 8 << 20;
        let p1 = b.add_param("p1", mb);
        let p2 = b.add_param("p2", mb);
        let r_read1 = b.add_op(
            "read1",
            ps,
            OpKind::Read { param: p1 },
            Cost::flops(1.0),
            &[],
        );
        let r_read2 = b.add_op(
            "read2",
            ps,
            OpKind::Read { param: p2 },
            Cost::flops(1.0),
            &[],
        );
        let s1 = b.add_op(
            "send1",
            ps,
            OpKind::send(p1, ch),
            Cost::bytes(mb),
            &[r_read1],
        );
        let s2 = b.add_op(
            "send2",
            ps,
            OpKind::send(p2, ch),
            Cost::bytes(mb),
            &[r_read2],
        );
        let r1 = b.add_op("recv1", w, OpKind::recv(p1, ch), Cost::bytes(mb), &[s1]);
        let r2 = b.add_op("recv2", w, OpKind::recv(p2, ch), Cost::bytes(mb), &[s2]);
        let op1 = b.add_op("op1", w, OpKind::Compute, Cost::flops(1e10), &[r1]);
        let op2 = b.add_op("op2", w, OpKind::Compute, Cost::flops(1e10), &[op1, r2]);
        (b.build().unwrap(), [s1, s2, r1, r2, op1, op2])
    }

    #[test]
    fn ready_queue_merges_pools_in_push_order() {
        let op = OpId::from_index;
        let mut q = ReadyQueue::default();
        q.push(op(0), None);
        q.push(op(1), Some(5));
        q.push(op(2), Some(3));
        q.push(op(3), None);
        q.push(op(4), Some(3));
        // Candidates = unprioritized {0, 3} + lowest priority {2, 4}, in
        // push order: [0, 2, 3, 4]; op 1 (priority 5) is not a candidate.
        assert_eq!(q.candidates(), 4);
        assert_eq!(q.take_candidate(2), op(3));
        assert_eq!(q.take_candidate(1), op(2));
        // Only op 4 holds priority 3 now; candidates = [0, 4].
        assert_eq!(q.candidates(), 2);
        assert_eq!(q.take_candidate(1), op(4));
        // Priority 3 drained: 5 becomes the lowest.
        assert_eq!(q.candidates(), 2);
        assert_eq!(q.take_candidate(1), op(1));
        assert_eq!(q.take_candidate(0), op(0));
        assert!(q.is_empty());
    }

    #[test]
    fn chan_queue_ranked_and_index_pops() {
        let op = OpId::from_index;
        let mut q = ChanQueue::default();
        q.push(op(0), None);
        q.push(op(1), Some(7));
        q.push(op(2), Some(2));
        q.push(op(3), None);
        assert_eq!(q.len(), 4);
        assert!(q.has_ranked());
        // Lowest rank first, regardless of queue position.
        assert_eq!(q.pop_min_rank(), op(2));
        // An index pick counts what is left, in hand-off order: [0, 1, 3].
        assert_eq!(q.pop_index(1), op(1));
        assert!(!q.has_ranked());
        assert_eq!(q.pop_index(1), op(3));
        assert_eq!(q.pop_index(0), op(0));
        assert!(q.is_empty());
        // Requeue after drain (retransmit path): ranks come back.
        q.push(op(2), Some(2));
        assert!(q.has_ranked());
        assert_eq!(q.pop_min_rank(), op(2));
    }

    /// A queue as DESIGN.md §7 item 3 words it: one flat list in push
    /// order, scanned per pick. The models both queues are tested against.
    type Flat = Vec<(OpId, Option<u64>)>;

    /// The first entry holding the lowest rank.
    fn flat_min_rank(flat: &Flat) -> usize {
        let min = flat.iter().filter_map(|e| e.1).min();
        flat.iter()
            .position(|e| e.1.is_some() && e.1 == min)
            .unwrap()
    }

    /// The §3.1 candidates: positions of the unprioritized entries and of
    /// those holding the lowest priority number, in push order.
    fn flat_candidates(flat: &Flat) -> Vec<usize> {
        let min = flat.iter().filter_map(|e| e.1).min();
        let candidate = |e: &(OpId, Option<u64>)| e.1.is_none() || e.1 == min;
        (0..flat.len()).filter(|&i| candidate(&flat[i])).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Hand-offs (some unranked, ranks narrow enough to be shared),
        /// retransmits re-pushing an op with the rank it was popped with,
        /// lowest-rank pops and index picks that may land on a ranked
        /// entry, at queue depths from 1 to past 64: every pick returns
        /// the op the flat scan returns.
        #[test]
        fn chan_queue_picks_what_the_flat_scan_picks(seed in any::<u64>(), ranks in 1u64..90) {
            let mut rng = SmallRng::seed_from_u64(seed);
            for depth in [2usize, 9, 64, 150] {
                let (mut q, mut flat, mut popped) = (ChanQueue::default(), Flat::new(), Flat::new());
                let mut deepest = 0;
                for step in 0..6 * depth {
                    let filling = step < depth || flat.len() < depth / 2;
                    if flat.is_empty() || rng.gen_range(0..5) < if filling { 4 } else { 2 } {
                        let entry = if !popped.is_empty() && rng.gen_range(0..3) == 0 {
                            popped.swap_remove(rng.gen_range(0..popped.len()))
                        } else {
                            let rank = (rng.gen_range(0..4) != 0).then(|| rng.gen_range(0..ranks));
                            (OpId::from_index(step), rank)
                        };
                        q.push(entry.0, entry.1);
                        flat.push(entry);
                    } else {
                        let by_rank = q.has_ranked() && rng.gen_range(0..4) != 0;
                        let (got, at) = if by_rank {
                            (q.pop_min_rank(), flat_min_rank(&flat))
                        } else {
                            let at = rng.gen_range(0..flat.len());
                            (q.pop_index(at), at)
                        };
                        let want = flat.remove(at);
                        prop_assert_eq!(got, want.0, "depth {} step {}", depth, step);
                        popped.push(want);
                    }
                    prop_assert_eq!(q.len(), flat.len());
                    prop_assert_eq!(q.has_ranked(), flat.iter().any(|e| e.1.is_some()));
                    deepest = deepest.max(flat.len());
                }
                prop_assert!(deepest >= depth / 2, "depth {} reached only {}", depth, deepest);
            }
        }

        /// Ready ops with and without priorities (none at all when
        /// `prioritized` is 0, the production case), priorities narrow
        /// enough to be shared, crash re-queues: every candidate index
        /// names the op it names in the flat scan's candidate list.
        #[test]
        fn ready_queue_picks_what_the_flat_scan_picks(
            seed in any::<u64>(),
            prioritized in 0u32..4,
            priorities in 1u64..12,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            for depth in [2usize, 9, 64, 150] {
                let (mut q, mut flat, mut popped) = (ReadyQueue::default(), Flat::new(), Flat::new());
                for step in 0..6 * depth {
                    let filling = step < depth || flat.len() < depth / 2;
                    if flat.is_empty() || rng.gen_range(0..5) < if filling { 4 } else { 2 } {
                        let entry = if !popped.is_empty() && rng.gen_range(0..8) == 0 {
                            popped.swap_remove(rng.gen_range(0..popped.len()))
                        } else {
                            let priority = (rng.gen_range(0..3u32) < prioritized)
                                .then(|| rng.gen_range(0..priorities));
                            (OpId::from_index(step), priority)
                        };
                        q.push(entry.0, entry.1);
                        flat.push(entry);
                    } else {
                        let candidates = flat_candidates(&flat);
                        prop_assert_eq!(q.candidates(), candidates.len());
                        let pick = rng.gen_range(0..candidates.len());
                        let want = flat.remove(candidates[pick]);
                        prop_assert_eq!(q.take_candidate(pick), want.0, "depth {} step {}", depth, step);
                        popped.push(want);
                    }
                    prop_assert_eq!(q.is_empty(), flat.is_empty());
                }
            }
        }

        /// Pushes at the last popped instant (also while entries of that
        /// instant are still queued), bursts of one instant and gaps up to
        /// 2^53 ns, in phases that fill the queue and drain it past empty:
        /// every pop returns what a binary heap over `(at, seq)` returns,
        /// `None` included.
        #[test]
        fn event_queue_pops_what_the_heap_pops(seed in any::<u64>()) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut q = EventQueue::new();
            let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
            let (mut now, mut seq, mut mid_drain) = (0, 0, 0);
            // At most 2 000 distinct instants, each at most 2^53 past the
            // last: no instant overflows.
            for step in 0..2000 {
                let filling = step / 250 % 2 == 0;
                if rng.gen_range(0..5) < if filling { 4 } else { 1 } {
                    let gap = match rng.gen_range(0..4) {
                        0 => 0,
                        1 => rng.gen_range(1..64),
                        _ => {
                            let bits = rng.gen_range(0..=53);
                            rng.gen_range(0..=1u64 << bits)
                        }
                    };
                    if gap == 0 && heap.peek().is_some_and(|Reverse(e)| e.0 == now) {
                        mid_drain += 1;
                    }
                    let burst = if rng.gen_range(0..4) == 0 { rng.gen_range(2..8) } else { 1 };
                    for _ in 0..burst {
                        seq += 1;
                        q.push(now + gap, seq);
                        heap.push(Reverse((now + gap, seq)));
                    }
                } else {
                    let want = heap.pop().map(|Reverse(e)| e);
                    prop_assert_eq!(q.pop(), want, "step {}", step);
                    now = want.map_or(now, |e| e.0);
                }
            }
            loop {
                let want = heap.pop().map(|Reverse(e)| e);
                prop_assert_eq!(q.pop(), want);
                if want.is_none() {
                    break;
                }
            }
            prop_assert!(mid_drain > 0, "no push landed on an instant being drained");
        }

        /// Marks over up to 4 096 indices (256 workers × 8 servers make
        /// 2 048 channels), crowded onto word boundaries, drained while the
        /// index being drained is re-marked, as a down resource re-marks
        /// itself: every drain yields what the worklist it replaced — push
        /// unless queued, sort, clear the flags — yields.
        #[test]
        fn worklists_drain_what_the_sorted_vec_drains(seed in any::<u64>(), len in 1usize..=4096) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut set = DirtySet::new(len);
            let (mut queued, mut pending) = (vec![false; len], Vec::<usize>::new());
            let mut remarks = 0;
            for round in 0..64 {
                for _ in 0..rng.gen_range(0..3) * rng.gen_range(0..24) {
                    let index = match rng.gen_range(0..3) {
                        0 => [0, 63, 64, 127, 128, len - 1][rng.gen_range(0..6usize)].min(len - 1),
                        _ => rng.gen_range(0..len),
                    };
                    set.mark(index);
                    if !std::mem::replace(&mut queued[index], true) {
                        pending.push(index);
                    }
                }
                let mut want = std::mem::take(&mut pending);
                want.sort_unstable();
                for &i in &want {
                    queued[i] = false;
                }
                let mut got = Vec::new();
                let mut drain = set.drain();
                while let Some(index) = drain.next(&mut set) {
                    got.push(index);
                    if rng.gen_range(0..4) == 0 {
                        remarks += 1;
                        set.mark(index);
                        if !std::mem::replace(&mut queued[index], true) {
                            pending.push(index);
                        }
                    }
                }
                prop_assert_eq!(got, want, "round {}", round);
            }
            prop_assert!(remarks > 0, "no index was re-marked mid-drain");
        }
    }

    /// Four ops whose completions share the instant 100 us — `c` on the
    /// PS and `r` on a worker start at 0 in that order (device order);
    /// `a` and `z` take no time and are started by the drain of that very
    /// instant, when `r` completes — each feeding one watcher op on an
    /// otherwise idle worker whose ready queue (window 1) runs them in
    /// arrival order. Returns the order the watchers ran in: the order the
    /// four completions were processed in.
    fn same_instant_order(c_ns: f64, stall: Option<(u64, u64)>) -> [&'static str; 4] {
        // One flop is one nanosecond everywhere; nothing else costs time.
        let (rate, free) = (1e9, SimDuration::ZERO);
        let platform = Platform::new("unit", rate, rate, rate, free, free);
        let cfg = SimConfig::deterministic(platform).with_disorder_window(Some(1));
        let mut b = GraphBuilder::new();
        let ps = b.add_parameter_server("ps0");
        let [w1, w2, w3] = ["w1", "w2", "w3"].map(|w| b.add_worker(w));
        let mut op = |name: &str, dev, ns: f64, deps: &[OpId]| {
            b.add_op(name, dev, OpKind::Compute, Cost::flops(ns), deps)
        };
        let c = op("c", ps, c_ns, &[]);
        let r = op("r", w1, 100_000.0, &[]);
        let a = op("a", w1, 0.0, &[r]);
        let z = op("z", w2, 0.0, &[r]);
        let watchers = [("c", c), ("r", r), ("a", a), ("z", z)]
            .map(|(name, dep)| (name, op(&format!("after_{name}"), w3, 10_000.0, &[dep])));
        let g = b.build().unwrap();
        let mut plan = FaultPlan::quiet();
        plan.stalls.extend(stall.map(|(at, until)| Stall {
            device: ps,
            at: SimTime::from_nanos(at),
            until: SimTime::from_nanos(until),
        }));
        let trace = run_with(&g, &no_ordering(&g), &cfg, 0, &plan);
        let end = |op| trace.record(op).unwrap().end;
        assert_eq!([end(c), end(a), end(z)], [end(r); 3]);
        let mut order = watchers.map(|(name, w)| (trace.record(w).unwrap().start, name));
        order.sort_unstable();
        order.map(|(_, name)| name)
    }

    /// Equal-`at` completions are processed in the order they were
    /// scheduled, including those the drain of that instant schedules
    /// itself.
    #[test]
    fn same_instant_completions_run_in_schedule_order() {
        assert_eq!(same_instant_order(100_000.0, None), ["c", "r", "a", "z"]);
    }

    /// A 40 us stall at 20 us moves `c`'s completion from 60 to 100 us and
    /// re-schedules it: it now runs after `r`, scheduled before it was, and
    /// still before what the drain adds.
    #[test]
    fn stall_rescheduled_completion_takes_its_new_place_in_the_instant() {
        let order = same_instant_order(60_000.0, Some((20_000, 60_000)));
        assert_eq!(order, ["r", "c", "a", "z"]);
    }

    /// Gate ranks sit on the paired send when the graph models one; the
    /// recv carries its position into its channel's queue either way.
    #[test]
    fn transfer_table_pairs_sends_and_carries_ranks_to_recvs() {
        let (g, [s1, s2, r1, r2, op1, _]) = fig1a();
        let mut s = Schedule::empty(g.len());
        s.set(r1, 7);
        s.set(r2, 3);
        let plan = RunPlan::new(&g, &s, &SimConfig::cloud_gpu()).unwrap();
        let t = &plan.transfers;
        assert_eq!(t.send_of(r1), Some(s1));
        assert_eq!(t.send_of(r2), Some(s2));
        assert_eq!(t.send_of(op1), None);
        // Priorities 3 < 7 normalize to ranks 0, 1 on the one channel.
        assert_eq!((t.rank(s2), t.rank(s1)), (Some(0), Some(1)));
        assert_eq!((t.rank(r1), t.rank(r2)), (None, None));
        assert_eq!(t.recv_rank(r2), Some(0));
        assert_eq!(t.recv_rank(r1), Some(1));
        assert_eq!(plan.route[s1.index()], Route::Send(0));
        assert_eq!(plan.route[r2.index()], Route::Recv(0));

        let mut b = GraphBuilder::new();
        let w = b.add_worker("w0");
        let ps = b.add_parameter_server("ps0");
        let _unused = b.add_channel(w, ps);
        let ch = b.add_channel(w, ps);
        let p = b.add_param("p", 8);
        let recv = b.add_op("recv", w, OpKind::recv(p, ch), Cost::bytes(8), &[]);
        let g = b.build().unwrap();
        let mut s = Schedule::empty(g.len());
        s.set(recv, 5);
        let plan = RunPlan::new(&g, &s, &SimConfig::cloud_gpu()).unwrap();
        let t = &plan.transfers;
        assert_eq!(t.send_of(recv), None);
        // No send, so no gate rank: the recv's position orders the queue.
        assert_eq!(t.rank(recv), None);
        assert_eq!(t.recv_rank(recv), Some(0));
        assert_eq!(plan.route[recv.index()], Route::Recv(1));
    }

    /// A root send hands off at dispatch and so dispatches its recv
    /// before the root loop reaches it; the loop must not dispatch that
    /// recv a second time (it would fly twice and be recorded twice).
    #[test]
    fn a_root_send_dispatches_its_recv_once() {
        let mut b = GraphBuilder::new();
        let w = b.add_worker("w0");
        let ps = b.add_parameter_server("ps0");
        let ch = b.add_channel(w, ps);
        let p = b.add_param("p", 4096);
        b.assign_param_to_ps(p, ps);
        let send = b.add_op("send", ps, OpKind::send(p, ch), Cost::bytes(4096), &[]);
        let recv = b.add_op("recv", w, OpKind::recv(p, ch), Cost::bytes(4096), &[send]);
        let c = b.add_op("c", w, OpKind::Compute, Cost::flops(1e10), &[recv]);
        b.add_op("d", w, OpKind::Compute, Cost::flops(1e10), &[c]);
        let g = b.build().unwrap();
        let cfg = SimConfig::deterministic(Platform::cloud_gpu());
        let trace = try_simulate(&g, &no_ordering(&g), &cfg, 0).expect("completes");
        assert_eq!(trace.executed_ops(), g.len());
        assert_eq!(trace.record(send), trace.record(recv));
    }

    #[test]
    fn good_order_beats_bad_order_as_in_figure_1() {
        let (g, [_, _, r1, r2, ..]) = fig1a();
        let cfg = SimConfig::deterministic(Platform::cpu_cluster());

        let mut good = Schedule::empty(g.len());
        good.set(r1, 0);
        good.set(r2, 1);
        let mut bad = Schedule::empty(g.len());
        bad.set(r1, 1);
        bad.set(r2, 0);

        let t_good = simulate(&g, &good, &cfg, 0);
        let t_bad = simulate(&g, &bad, &cfg, 0);
        assert!(
            t_good.makespan() < t_bad.makespan(),
            "good {} vs bad {}",
            t_good.makespan(),
            t_bad.makespan()
        );
    }

    #[test]
    fn enforced_order_is_respected() {
        let (g, [_, _, r1, r2, ..]) = fig1a();
        let cfg = SimConfig::deterministic(Platform::cpu_cluster());
        let mut s = Schedule::empty(g.len());
        s.set(r1, 1);
        s.set(r2, 0); // deliberately reversed
        let trace = simulate(&g, &s, &cfg, 0);
        let w = g.devices()[0].id();
        assert_eq!(trace.recv_completion_order(&g, w), vec![r2, r1]);
    }

    #[test]
    fn all_ops_execute_exactly_once() {
        let model = tiny_mlp(Mode::Training, 8);
        let d = deploy(&model, &ClusterSpec::new(3, 2)).unwrap();
        let cfg = SimConfig::cloud_gpu();
        let trace = simulate(d.graph(), &no_ordering(d.graph()), &cfg, 0);
        assert_eq!(trace.executed_ops(), d.graph().len());
        assert!(trace.makespan() > SimDuration::ZERO);
    }

    #[test]
    fn same_seed_same_trace_different_seed_differs() {
        let model = tiny_mlp(Mode::Training, 8);
        let d = deploy(&model, &ClusterSpec::new(2, 1)).unwrap();
        let cfg = SimConfig::cloud_gpu();
        let s = no_ordering(d.graph());
        let a = simulate(d.graph(), &s, &cfg, 0);
        let b = simulate(d.graph(), &s, &cfg, 0);
        assert_eq!(a, b);
        let c = simulate(d.graph(), &s, &cfg, 1);
        assert_ne!(a, c);
    }

    #[test]
    fn baseline_produces_varying_recv_orders() {
        let model = tictac_graph::Model::InceptionV1.build_with_batch(Mode::Inference, 4);
        let d = deploy(&model, &ClusterSpec::new(1, 1)).unwrap();
        let cfg = SimConfig::cloud_gpu();
        let s = no_ordering(d.graph());
        let w = d.workers()[0];
        let o1 = simulate(d.graph(), &s, &cfg, 0).recv_completion_order(d.graph(), w);
        let o2 = simulate(d.graph(), &s, &cfg, 1).recv_completion_order(d.graph(), w);
        assert_ne!(o1, o2, "random schedules should differ across iterations");
    }

    #[test]
    fn tic_schedule_fixes_recv_order_across_iterations() {
        let model = tictac_graph::Model::InceptionV1.build_with_batch(Mode::Inference, 4);
        let d = deploy(&model, &ClusterSpec::new(1, 1)).unwrap();
        // No reorder errors for exactness.
        let cfg = SimConfig::cloud_gpu().with_reorder_error(0.0);
        let s = d.replicate_schedule(&tictac_sched::tic(d.graph(), d.workers()[0]));
        let w = d.workers()[0];
        let o1 = simulate(d.graph(), &s, &cfg, 0).recv_completion_order(d.graph(), w);
        let o2 = simulate(d.graph(), &s, &cfg, 7).recv_completion_order(d.graph(), w);
        assert_eq!(o1, o2, "enforced schedules must be stable");
    }

    #[test]
    fn prioritized_sendless_recvs_are_still_ordered() {
        // Hand-built graphs may model recvs as pure roots (no PS send op);
        // a schedule over them must neither panic nor be ignored.
        let mut b = tictac_graph::GraphBuilder::new();
        let w = b.add_worker("w0");
        let ps = b.add_parameter_server("ps0");
        let ch = b.add_channel(w, ps);
        let mut recvs = Vec::new();
        for i in 0..4 {
            let p = b.add_param(format!("p{i}"), 1 << 20);
            recvs.push(b.add_op(
                format!("recv{i}"),
                w,
                OpKind::recv(p, ch),
                Cost::bytes(1 << 20),
                &[],
            ));
        }
        let g = b.build().unwrap();
        let mut s = Schedule::empty(g.len());
        for (rank, &r) in recvs.iter().rev().enumerate() {
            s.set(r, rank as u64);
        }
        let cfg = SimConfig::deterministic(Platform::cloud_gpu());
        let trace = simulate(&g, &s, &cfg, 0);
        let order = trace.recv_completion_order(&g, w);
        let expected: Vec<OpId> = recvs.into_iter().rev().collect();
        assert_eq!(order, expected);
    }

    #[test]
    fn transfers_on_one_channel_serialize() {
        let (g, [_, _, r1, r2, ..]) = fig1a();
        let cfg = SimConfig::deterministic(Platform::cpu_cluster());
        let trace = simulate(&g, &no_ordering(&g), &cfg, 3);
        let a = trace.record(r1).unwrap();
        let b = trace.record(r2).unwrap();
        assert!(
            a.end <= b.start || b.end <= a.start,
            "overlapping transfers on one channel: {a:?} vs {b:?}"
        );
    }

    #[test]
    fn quiet_faults_leave_traces_untouched() {
        let (g, _) = fig1a();
        let cfg = SimConfig::deterministic(Platform::cpu_cluster());
        let clean = simulate(&g, &no_ordering(&g), &cfg, 0);
        assert!(clean.fault_events().is_empty());
        // A plan's run with a quiet spec is the same simulation.
        let again = try_simulate(&g, &no_ordering(&g), &cfg, 0).unwrap();
        assert_eq!(clean, again);
    }

    #[test]
    fn schedule_mismatch_is_a_typed_error() {
        let (g, _) = fig1a();
        let cfg = SimConfig::deterministic(Platform::cpu_cluster());
        let bad = Schedule::empty(g.len() + 1);
        match try_simulate(&g, &bad, &cfg, 0) {
            Err(SimError::ScheduleMismatch { graph_len, .. }) => assert_eq!(graph_len, g.len()),
            other => panic!("expected mismatch, got {other:?}"),
        }
    }

    #[test]
    fn dropped_transfers_are_retransmitted_to_completion() {
        let (g, _) = fig1a();
        let cfg = SimConfig::deterministic(Platform::cpu_cluster()).with_faults(
            FaultSpec::none()
                .with_drop_prob(0.5)
                .with_retry(RetryPolicy::fixed(SimDuration::from_millis(20), 30)),
        );
        let clean = simulate(
            &g,
            &no_ordering(&g),
            &SimConfig::deterministic(Platform::cpu_cluster()),
            0,
        );
        // Some iteration in 0..8 must observe at least one drop at 50%.
        let mut saw_drop = false;
        for i in 0..8 {
            let trace = try_simulate(&g, &no_ordering(&g), &cfg, i).unwrap();
            assert_eq!(trace.executed_ops(), g.len());
            if !trace.fault_events().is_empty() {
                saw_drop = true;
                assert!(
                    trace.makespan() > clean.makespan(),
                    "recovery must cost time"
                );
            }
        }
        assert!(saw_drop, "50% drop rate never triggered in 8 iterations");
    }

    #[test]
    fn exhausted_retries_error_without_a_barrier() {
        let (g, _) = fig1a();
        let cfg = SimConfig::deterministic(Platform::cpu_cluster()).with_faults(
            FaultSpec::none()
                .with_drop_prob(1.0)
                .with_retry(RetryPolicy::fixed(SimDuration::from_millis(1), 2)),
        );
        match try_simulate(&g, &no_ordering(&g), &cfg, 0) {
            Err(SimError::RetriesExhausted { attempts, .. }) => assert_eq!(attempts, 3),
            other => panic!("expected retry exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn barrier_degrades_instead_of_failing() {
        let (g, _) = fig1a();
        let barrier = SimDuration::from_millis(400);
        let cfg = SimConfig::deterministic(Platform::cpu_cluster()).with_faults(
            FaultSpec::none()
                .with_drop_prob(1.0)
                .with_retry(RetryPolicy::fixed(SimDuration::from_millis(1), 2))
                .with_barrier_timeout(barrier),
        );
        let trace = try_simulate(&g, &no_ordering(&g), &cfg, 0).unwrap();
        assert!(trace.executed_ops() < g.len(), "work must be deferred");
        assert_eq!(trace.makespan(), barrier);
        let deferred = trace
            .fault_events()
            .iter()
            .filter(|e| matches!(e.kind, FaultEventKind::DeferredOp { .. }))
            .count();
        assert!(deferred > 0);
        assert!(trace
            .fault_events()
            .iter()
            .any(|e| matches!(e.kind, FaultEventKind::BarrierDegraded { .. })));
    }

    #[test]
    fn crashed_workers_recover_and_finish() {
        let model = tiny_mlp(Mode::Training, 8);
        let d = deploy(&model, &ClusterSpec::new(2, 1)).unwrap();
        // Onsets must land inside the iteration (clean makespan ~540us).
        let cfg = SimConfig::cloud_gpu().with_faults(
            FaultSpec::none()
                .with_crashes(1.0, SimDuration::from_micros(80))
                .with_onset_window(SimDuration::from_micros(200)),
        );
        let trace = try_simulate(d.graph(), &no_ordering(d.graph()), &cfg, 0).unwrap();
        assert_eq!(trace.executed_ops(), d.graph().len());
        let crashes = trace
            .fault_events()
            .iter()
            .filter(|e| matches!(e.kind, FaultEventKind::WorkerCrashed { .. }))
            .count();
        let recoveries = trace
            .fault_events()
            .iter()
            .filter(|e| matches!(e.kind, FaultEventKind::WorkerRecovered { .. }))
            .count();
        assert_eq!(crashes, 2);
        assert_eq!(recoveries, 2);
    }

    #[test]
    fn blackouts_and_stalls_delay_but_complete() {
        let model = tiny_mlp(Mode::Training, 8);
        let d = deploy(&model, &ClusterSpec::new(2, 2)).unwrap();
        let clean_cfg = SimConfig::deterministic(Platform::cloud_gpu());
        let clean = simulate(d.graph(), &no_ordering(d.graph()), &clean_cfg, 0);
        let cfg = clean_cfg.clone().with_faults(
            FaultSpec::none()
                .with_blackouts(1.0, SimDuration::from_millis(3))
                .with_ps_stalls(1.0, SimDuration::from_millis(4))
                .with_onset_window(SimDuration::from_millis(1)),
        );
        let trace = try_simulate(d.graph(), &no_ordering(d.graph()), &cfg, 0).unwrap();
        assert_eq!(trace.executed_ops(), d.graph().len());
        assert!(trace.makespan() >= clean.makespan());
        assert!(trace
            .fault_events()
            .iter()
            .any(|e| matches!(e.kind, FaultEventKind::BlackoutStart { .. })));
        assert!(trace
            .fault_events()
            .iter()
            .any(|e| matches!(e.kind, FaultEventKind::PsStallStart { .. })));
    }

    #[test]
    fn faulty_runs_replay_exactly_with_an_explicit_plan() {
        let model = tiny_mlp(Mode::Training, 8);
        let d = deploy(&model, &ClusterSpec::new(2, 1)).unwrap();
        let cfg = SimConfig::cloud_gpu().with_faults(
            FaultSpec::none()
                .with_drop_prob(0.2)
                .with_crashes(0.5, SimDuration::from_millis(10))
                .with_retry(RetryPolicy::fixed(SimDuration::from_millis(5), 30)),
        );
        let s = no_ordering(d.graph());
        let plan = FaultPlan::sample(&cfg.faults, d.graph(), cfg.seed, 3);
        let replay = || run_with(d.graph(), &s, &cfg, 3, &plan);
        let (a, b) = (replay(), replay());
        assert_eq!(a, b, "same plan, same trace — bytes and all");
        let c = try_simulate(d.graph(), &s, &cfg, 3).unwrap();
        assert_eq!(a, c, "try_simulate samples exactly this plan");
    }

    #[test]
    fn analyze_extracts_worker_finishes() {
        let model = tiny_mlp(Mode::Training, 8);
        let d = deploy(&model, &ClusterSpec::new(3, 1)).unwrap();
        let cfg = SimConfig::cloud_gpu();
        let trace = simulate(d.graph(), &no_ordering(d.graph()), &cfg, 0);
        let m = tictac_trace::analyze(d.graph(), d.workers(), &trace);
        assert_eq!(m.worker_finish.len(), 3);
        assert!(m.worker_finish.iter().all(|&f| f > SimTime::ZERO));
        assert!(m.makespan >= m.worker_finish.iter().copied().max().unwrap() - SimTime::ZERO);
        assert!(m.straggler_pct >= 0.0 && m.straggler_pct <= 100.0);
        let tput = m.throughput(8, 3);
        assert!(tput > 0.0);
        // A fault-free run is clean with full goodput.
        assert!(m.faults.is_clean());
        assert_eq!(m.goodput_pct, 100.0);
    }
}

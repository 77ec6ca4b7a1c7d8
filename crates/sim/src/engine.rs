//! The discrete-event execution engine and its driver.
//!
//! Every public `simulate*` entry point ends in one driver
//! ([`RunPlan::simulate_observed`]): build the engine over the plan's
//! tables, run it. The free functions are a plan for one run. One
//! single-threaded seeded event loop per run; parallelism lives outside
//! it, in `tictac_core::parallel_map` over independent grid points
//! (DESIGN.md §12).

use crate::config::SimConfig;
use crate::error::SimError;
use crate::faults::{close_at_barrier, darkened_by_crash, AfterLoss, FaultPlan, Transition};
use crate::plan::{Route, RunPlan, TransferTable};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use tictac_graph::{Graph, OpId};
use tictac_obs::{HistogramTally, Registry};
use tictac_sched::Schedule;
use tictac_trace::{
    ExecutionTrace, FaultEventKind, SimDuration, SimTime, TraceBuilder, HORIZON_NS,
};

/// Simulates one iteration of `graph` under `schedule` and returns its
/// execution trace.
///
/// `iteration` seeds this iteration's random stream (combined with
/// `config.seed`), so repeated calls with the same arguments are exactly
/// reproducible while distinct iterations observe independent noise,
/// ready-queue draws and injected faults.
///
/// This is the panicking convenience wrapper around [`try_simulate`];
/// prefer the latter when faults are enabled and failures (exhausted retry
/// budgets without a degraded barrier) are expected outcomes. Both derive
/// a [`RunPlan`] for the one run; callers that run many iterations of one
/// `(graph, schedule, config)` build the plan once and run from it.
///
/// # Panics
///
/// Panics if [`try_simulate`] returns an error.
pub fn simulate(
    graph: &Graph,
    schedule: &Schedule,
    config: &SimConfig,
    iteration: u64,
) -> ExecutionTrace {
    try_simulate(graph, schedule, config, iteration).unwrap_or_else(|e| panic!("{e}"))
}

/// Simulates one iteration, sampling the iteration's [`FaultPlan`] from
/// `config.faults`.
///
/// # Errors
///
/// Returns [`SimError::ScheduleMismatch`] if `schedule` does not cover
/// `graph`, [`SimError::RetryPastHorizon`] if the retry policy's worst case
/// reaches the end of the time axis, [`SimError::RetriesExhausted`] if a
/// transfer runs out of retransmits with no degraded barrier configured,
/// and [`SimError::Deadlock`] if the event queue drains with work
/// outstanding (impossible for builder-validated DAGs without fault
/// injection).
pub fn try_simulate(
    graph: &Graph,
    schedule: &Schedule,
    config: &SimConfig,
    iteration: u64,
) -> Result<ExecutionTrace, SimError> {
    RunPlan::new(graph, schedule, config)?.try_simulate(graph, schedule, iteration)
}

/// Simulates one iteration under an explicit, pre-sampled [`FaultPlan`]
/// (replayable: the same plan injects the same faults every time),
/// recording engine metrics into `registry`:
/// [`RunPlan::simulate_observed`] on a plan built for this one run.
///
/// # Errors
///
/// As [`try_simulate`].
pub fn simulate_with_plan_observed(
    graph: &Graph,
    schedule: &Schedule,
    config: &SimConfig,
    iteration: u64,
    plan: &FaultPlan,
    registry: &Registry,
) -> Result<ExecutionTrace, SimError> {
    RunPlan::new(graph, schedule, config)?
        .simulate_observed(graph, schedule, iteration, plan, registry)
}

impl RunPlan {
    /// Simulates iteration `iteration` of the plan's `graph` and
    /// `schedule`, sampling the iteration's [`FaultPlan`] from the plan's
    /// configuration, unobserved. Iterations run from one plan equal, trace
    /// for trace, fresh [`try_simulate`] calls with the same arguments.
    ///
    /// # Errors
    ///
    /// As [`try_simulate`], minus the mismatch the plan already excluded.
    pub fn try_simulate(
        &self,
        graph: &Graph,
        schedule: &Schedule,
        iteration: u64,
    ) -> Result<ExecutionTrace, SimError> {
        let faults = self.sample_faults(graph, iteration);
        self.simulate_observed(graph, schedule, iteration, &faults, &Registry::disabled())
    }

    /// Simulates one iteration under the pre-sampled `faults`, recording
    /// engine metrics — per-channel bytes, busy/idle time and queue
    /// depths, per-device busy time and ready-set depths, event and
    /// retransmit counts — into `registry`. The driver behind every
    /// `simulate*` entry point.
    ///
    /// The instrumentation only *reads* engine state: a run observed through
    /// an enabled registry produces exactly the trace the unobserved run
    /// does (the golden-trace fingerprints pin the disabled path, and
    /// `tests/observability.rs` pins enabled-vs-disabled equality).
    ///
    /// The retry policy is checked here, on `faults`, because that is the
    /// one the engine reads (sampled plans copy the spec's, hand-built
    /// ones set their own): a loss-detection timeout lands `timeout_for`
    /// after the clock, and one that wrapped the clock would put an event
    /// into the past, which the event queue cannot hold.
    ///
    /// # Errors
    ///
    /// As [`RunPlan::try_simulate`].
    pub fn simulate_observed(
        &self,
        graph: &Graph,
        schedule: &Schedule,
        iteration: u64,
        faults: &FaultPlan,
        registry: &Registry,
    ) -> Result<ExecutionTrace, SimError> {
        debug_assert!(self.covers(graph, schedule), "not this plan's graph");
        let budget = faults.retry.total_budget();
        if budget.as_nanos() >= HORIZON_NS {
            return Err(SimError::RetryPastHorizon { budget });
        }
        Engine::new(graph, schedule, self, iteration, faults, registry).run()
    }
}

/// Queue/ready-set depth histogram bounds (powers of two).
const DEPTH_BUCKETS: [u64; 8] = [1, 2, 4, 8, 16, 32, 64, 128];

/// One run's samples of a depth histogram.
type DepthTally = HistogramTally<{ DEPTH_BUCKETS.len() }>;

/// One channel's observations in one run.
#[derive(Debug, Clone)]
struct ChanTally {
    /// `sim.chan{c}.bytes`: payload bytes of completed transfers.
    bytes: u64,
    /// `sim.chan{c}.busy_ns`: wire time of completed transfers.
    busy_ns: u64,
    /// `sim.chan{c}.transfers`: completed transfers.
    transfers: u64,
    /// `sim.chan{c}.queue_depth`: pending transfers, sampled whenever an
    /// idle channel considers starting one.
    queue_depth: DepthTally,
}

/// One device's observations in one run.
#[derive(Debug, Clone)]
struct DevTally {
    /// `sim.dev{d}.busy_ns`: compute time of completed ops.
    busy_ns: u64,
    /// `sim.dev{d}.ops`: completed compute ops.
    ops: u64,
    /// `sim.dev{d}.ready_depth`: pick candidates, sampled whenever an
    /// idle device starts an op.
    ready_depth: DepthTally,
}

/// The engine's observations of one run (DESIGN.md §8): a hook writes a
/// plain integer here, and the registry sees one flush when the run ends,
/// however it ends. Present only for enabled registries; every hook
/// *reads* engine state and never draws from the RNG, so enabling
/// metrics cannot perturb the simulated outcome.
struct Tally {
    registry: Registry,
    /// `sim.events`: events popped from the queue.
    events: u64,
    /// `sim.retransmits`: transfer attempts re-queued after a timeout.
    retransmits: u64,
    chans: Vec<ChanTally>,
    devs: Vec<DevTally>,
}

impl Tally {
    fn install(registry: &Registry, graph: &Graph) -> Option<Box<Self>> {
        registry.is_enabled().then(|| {
            let depth = DepthTally::new(DEPTH_BUCKETS);
            let chan = ChanTally {
                bytes: 0,
                busy_ns: 0,
                transfers: 0,
                queue_depth: depth.clone(),
            };
            let dev = DevTally {
                busy_ns: 0,
                ops: 0,
                ready_depth: depth,
            };
            Box::new(Self {
                registry: registry.clone(),
                events: 0,
                retransmits: 0,
                chans: vec![chan; graph.channels().len()],
                devs: vec![dev; graph.devices().len()],
            })
        })
    }

    /// Adds the run's tallies to the registry. `makespan` is the finished
    /// run's, which sets each channel's idle gauge to the makespan less
    /// the channel's busy time in this run; a failed run has none.
    fn flush(self, makespan: Option<SimDuration>) {
        let (r, chans, devs) = (&self.registry, self.chans.len(), self.devs.len());
        r.counter("sim.events").add(self.events);
        r.counter("sim.retransmits").add(self.retransmits);
        let bytes = r.counters("sim.chan", ".bytes", chans);
        let busy = r.counters("sim.chan", ".busy_ns", chans);
        let transfers = r.counters("sim.chan", ".transfers", chans);
        let depth = r.histograms("sim.chan", ".queue_depth", &DEPTH_BUCKETS, chans);
        for (c, t) in self.chans.iter().enumerate() {
            bytes[c].add(t.bytes);
            busy[c].add(t.busy_ns);
            transfers[c].add(t.transfers);
            depth[c].merge(&t.queue_depth);
        }
        let busy = r.counters("sim.dev", ".busy_ns", devs);
        let ops = r.counters("sim.dev", ".ops", devs);
        let depth = r.histograms("sim.dev", ".ready_depth", &DEPTH_BUCKETS, devs);
        for (d, t) in self.devs.iter().enumerate() {
            busy[d].add(t.busy_ns);
            ops[d].add(t.ops);
            depth[d].merge(&t.ready_depth);
        }
        if let Some(makespan) = makespan {
            let idle = r.gauges("sim.chan", ".idle_ns", chans);
            for (c, t) in self.chans.iter().enumerate() {
                idle[c].set(makespan.as_nanos().saturating_sub(t.busy_ns) as f64);
            }
        }
    }

    /// Counts a transfer of `recv` that finished on channel `ch` after
    /// `busy` on the wire. Its payload is read off the graph here, by the
    /// observer; the engine's own paths route by the plan's columns.
    fn transfer_done(&mut self, graph: &Graph, ch: usize, recv: OpId, busy: SimDuration) {
        let chan = &mut self.chans[ch];
        chan.bytes += graph.op(recv).cost().bytes;
        chan.transfers += 1;
        chan.busy_ns += busy.as_nanos();
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
/// order they were pushed — the event order of DESIGN.md §7.3 — with no
/// stamp stored (§7, *Event queue*, has the argument).
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

/// Resource indices awaiting a start attempt, drained in ascending order.
///
/// The pump's worklist. An index is marked when its resource frees or its
/// queue gains an entry — the only transitions that can make it startable
/// besides an outage ending, and a resource skipped because it is down
/// re-marks itself, so it is retried on every pump until it is back up.
#[derive(Debug)]
struct DirtySet {
    queued: Vec<bool>,
    pending: Vec<u32>,
}

impl DirtySet {
    fn new(len: usize) -> Self {
        Self {
            queued: vec![false; len],
            pending: Vec::new(),
        }
    }

    fn mark(&mut self, index: usize) {
        if !std::mem::replace(&mut self.queued[index], true) {
            self.pending.push(index as u32);
        }
    }

    /// Takes the marked indices, ascending; marks made while the batch is
    /// processed land in the next one.
    fn take_sorted(&mut self) -> Vec<u32> {
        let mut batch = std::mem::take(&mut self.pending);
        batch.sort_unstable();
        for &i in &batch {
            self.queued[i as usize] = false;
        }
        batch
    }

    /// Hands a processed batch's allocation back for the next one.
    fn recycle(&mut self, mut batch: Vec<u32>) {
        if self.pending.is_empty() {
            batch.clear();
            self.pending = batch;
        }
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

    clock: SimTime,
    /// Pending events, popped in ascending `at`, ties in scheduling order.
    events: EventQueue<EventKind>,

    indegree: Vec<u32>,
    done: Vec<bool>,
    started_at: Vec<SimTime>,
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
    compute_busy: Vec<bool>,
    /// The op running on each device and its scheduled completion (ns).
    inflight_compute: Vec<Option<(OpId, u64)>>,
    /// Device unavailable until this instant (ns; crash or stall).
    device_down_until: Vec<u64>,
    /// Per-worker slowdown factor for this iteration.
    slowdown: Vec<f64>,

    /// Per-channel gRPC state.
    chan_busy: Vec<bool>,
    /// The transfer (recv op) in flight on each channel.
    inflight_recv: Vec<Option<OpId>>,
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
    /// This run's observations (read-only; `None` when disabled).
    tally: Option<Box<Tally>>,
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
        registry: &Registry,
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
            disorder_window: config.disorder_window.unwrap_or(usize::MAX).max(1),
            rng,
            plan,
            clock: SimTime::ZERO,
            events: EventQueue::new(),
            indegree: run.indegree.clone(),
            done: vec![false; n],
            started_at: vec![SimTime::ZERO; n],
            trace: TraceBuilder::new(n),
            remaining: n,
            epoch: vec![0; n],
            attempts: vec![0; n],
            error: None,
            degraded: false,
            compute_ready: (0..graph.devices().len())
                .map(|_| ReadyQueue::default())
                .collect(),
            compute_busy: vec![false; graph.devices().len()],
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
            tally: Tally::install(registry, graph),
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
        for (at, transition) in plan.agenda() {
            self.schedule_event(at, EventKind::Fault(transition));
        }
    }

    /// Runs the iteration and flushes its tally, on success and failure
    /// alike.
    fn run(mut self) -> Result<ExecutionTrace, SimError> {
        self.schedule_faults();

        // Dispatch roots.
        for i in 0..self.graph.len() {
            if self.indegree[i] == 0 {
                self.dispatch(OpId::from_index(i));
            }
        }
        self.pump();

        while self.remaining > 0 {
            let Some((at, kind)) = self.events.pop() else {
                break;
            };
            if let Some(t) = &mut self.tally {
                t.events += 1;
            }
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

        let outcome = if let Some(e) = self.error.take() {
            Err(e)
        } else if self.remaining > 0 && !self.degraded {
            Err(SimError::Deadlock {
                completed: self.graph.len() - self.remaining,
                remaining: self.remaining,
                at: self.clock,
            })
        } else {
            Ok(self.trace.finish())
        };
        if let Some(tally) = self.tally.take() {
            tally.flush(outcome.as_ref().ok().map(ExecutionTrace::makespan));
        }
        outcome
    }

    /// Runs all synchronous starts enabled by the current state: one start
    /// attempt per dirty device, then per dirty channel, each in ascending
    /// index order — the order, and so the RNG draw order (DESIGN.md §7),
    /// of a sweep over every device and channel. A start only occupies its
    /// resource and schedules a completion, so it never makes another
    /// resource startable and one drain suffices.
    fn pump(&mut self) {
        let devices = self.dirty_devices.take_sorted();
        for &dev in &devices {
            self.try_start_compute(dev as usize);
        }
        self.dirty_devices.recycle(devices);
        let channels = self.dirty_channels.take_sorted();
        for &ch in &channels {
            self.try_start_transfer(ch as usize);
        }
        self.dirty_channels.recycle(channels);
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
            !self.compute_busy[d]
                && !self.compute_ready[d].is_empty()
                && self.device_down_until[d] <= now
        };
        let channel_startable = |c: usize| {
            !self.chan_busy[c] && !self.chan_queue[c].is_empty() && self.chan_down_until[c] <= now
        };
        !(0..self.compute_busy.len()).any(device_startable)
            && !(0..self.chan_busy.len()).any(channel_startable)
    }

    fn schedule_event(&mut self, at: SimTime, kind: EventKind) {
        self.events.push(at.as_nanos(), kind);
    }

    /// Routes an op whose dependencies are all satisfied.
    fn dispatch(&mut self, op: OpId) {
        match self.route[op.index()] {
            Route::Send(ch) => self.try_handoff(op, ch as usize),
            Route::Recv(ch) => {
                // Handed to the network (its send completed): queue the
                // transfer on its channel, carrying the sender's rank.
                let ch = ch as usize;
                self.chan_queue[ch].push(op, self.transfers.recv_rank[op.index()]);
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
        match self.transfers.rank[send.index()] {
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
            if let Some(r) = self.transfers.rank[s.index()] {
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
        if let Some(t) = &mut self.tally {
            t.chans[ch].queue_depth.observe(len as u64);
        }
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
        self.inflight_recv[ch] = Some(recv);
        let base = self.service[recv.index()];
        // The wire-time draw happens whether or not the attempt survives,
        // so the noise stream is independent of drop decisions.
        let dur = self.noise.apply(&mut self.rng, base);
        self.started_at[recv.index()] = self.clock;
        if self.plan.drops_attempt(recv, self.attempts[recv.index()]) {
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
            self.clock + self.plan.retry.timeout_for(attempt),
            EventKind::TransferTimeout(recv, epoch),
        );
    }

    /// Kills the transfer in flight on `ch` (endpoint crash or blackout):
    /// the attempt's completion is cancelled and loss detection restarts
    /// now, as if the outage reset the stream.
    fn kill_inflight_transfer(&mut self, ch: usize) {
        if let Some(recv) = self.inflight_recv[ch].take() {
            self.epoch[recv.index()] += 1;
            self.lose(recv);
        }
    }

    /// The ready-queue rule of §3.1: candidates are the ready ops with the
    /// lowest priority number plus all unprioritized ready ops; the pick
    /// among candidates is uniformly random. Crashed or stalled devices
    /// start nothing — and stay dirty — until they come back.
    fn try_start_compute(&mut self, dev: usize) {
        if self.compute_busy[dev] || self.compute_ready[dev].is_empty() {
            return;
        }
        if self.device_down_until[dev] > self.clock.as_nanos() {
            self.dirty_devices.mark(dev);
            return;
        }
        if let Some(t) = &mut self.tally {
            let candidates = self.compute_ready[dev].candidates();
            t.devs[dev].ready_depth.observe(candidates as u64);
        }
        // Locally disordered pick: uniform over the oldest
        // `disorder_window` candidates in readiness order.
        let window = self.compute_ready[dev]
            .candidates()
            .min(self.disorder_window);
        let chosen = self.rng.gen_range(0..window);
        let op = self.compute_ready[dev].take_candidate(chosen);

        self.compute_busy[dev] = true;
        let base = self.service[op.index()];
        let dur = self
            .noise
            .apply(&mut self.rng, base)
            .mul_f64(self.slowdown[dev]);
        self.started_at[op.index()] = self.clock;
        let end = self.clock + dur;
        self.inflight_compute[dev] = Some((op, end.as_nanos()));
        let epoch = self.epoch[op.index()];
        self.schedule_event(end, EventKind::ComputeDone(op, epoch));
    }

    fn on_compute_done(&mut self, op: OpId) {
        let dev = self.route[op.index()].index();
        self.compute_busy[dev] = false;
        self.inflight_compute[dev] = None;
        self.dirty_devices.mark(dev);
        if let Some(t) = &mut self.tally {
            let busy = self.clock.duration_since(self.started_at[op.index()]);
            t.devs[dev].busy_ns += busy.as_nanos();
            t.devs[dev].ops += 1;
        }
        self.trace
            .record(op, self.started_at[op.index()], self.clock);
        self.mark_done(op);
    }

    fn on_transfer_done(&mut self, recv: OpId) {
        let ch = self.route[recv.index()].index();
        self.chan_busy[ch] = false;
        self.inflight_recv[ch] = None;
        self.dirty_channels.mark(ch);
        let start = self.started_at[recv.index()];
        if let Some(t) = &mut self.tally {
            t.transfer_done(self.graph, ch, recv, self.clock.duration_since(start));
        }
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
        if self.inflight_recv[ch] == Some(recv) {
            self.inflight_recv[ch] = None;
        }
        let attempt = self.attempts[recv.index()];
        self.attempts[recv.index()] = attempt + 1;
        match self
            .plan
            .after_timeout(&mut self.trace, recv, attempt, self.clock)
        {
            AfterLoss::Retransmit => {
                if let Some(t) = &mut self.tally {
                    t.retransmits += 1;
                }
                self.chan_queue[ch].push(recv, self.transfers.recv_rank[recv.index()]);
            }
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
                if let Some((op, _)) = self.inflight_compute[dev].take() {
                    self.epoch[op.index()] += 1;
                    self.compute_busy[dev] = false;
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
                if let Some((op, end)) = self.inflight_compute[dev] {
                    self.epoch[op.index()] += 1;
                    let pause = until.as_nanos().saturating_sub(self.clock.as_nanos());
                    let new_end = end.saturating_add(pause);
                    self.inflight_compute[dev] = Some((op, new_end));
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
        for &succ in graph.succs(op) {
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
        let trace = simulate_with_plan_observed(
            &g,
            &no_ordering(&g),
            &cfg,
            0,
            &plan,
            &Registry::disabled(),
        )
        .unwrap();
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

    /// Ranks sit on the paired send when the graph models one and on the
    /// recv itself when it does not; either way the recv carries the rank
    /// into its channel's queue.
    #[test]
    fn transfer_table_pairs_sends_and_carries_ranks_to_recvs() {
        let (g, [s1, s2, r1, r2, op1, _]) = fig1a();
        let mut s = Schedule::empty(g.len());
        s.set(r1, 7);
        s.set(r2, 3);
        let plan = RunPlan::new(&g, &s, &SimConfig::cloud_gpu()).unwrap();
        let t = &plan.transfers;
        assert_eq!(t.send_of[r1.index()], Some(s1));
        assert_eq!(t.send_of[r2.index()], Some(s2));
        assert_eq!(t.send_of[op1.index()], None);
        // Priorities 3 < 7 normalize to ranks 0, 1 on the one channel.
        assert_eq!((t.rank[s2.index()], t.rank[s1.index()]), (Some(0), Some(1)));
        assert_eq!((t.rank[r1.index()], t.rank[r2.index()]), (None, None));
        assert_eq!(t.recv_rank[r2.index()], Some(0));
        assert_eq!(t.recv_rank[r1.index()], Some(1));
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
        assert_eq!(t.send_of[recv.index()], None);
        assert_eq!(t.rank[recv.index()], Some(0));
        assert_eq!(t.recv_rank[recv.index()], Some(0));
        assert_eq!(plan.route[recv.index()], Route::Recv(1));
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
        // try_simulate with a quiet spec is the same simulation.
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
    fn observed_runs_match_unobserved_and_populate_metrics() {
        let model = tiny_mlp(Mode::Training, 8);
        let d = deploy(&model, &ClusterSpec::new(2, 1)).unwrap();
        let cfg = SimConfig::cloud_gpu();
        let s = no_ordering(d.graph());
        let plain = try_simulate(d.graph(), &s, &cfg, 0).unwrap();
        let registry = Registry::enabled();
        let quiet = FaultPlan::quiet();
        let observed =
            simulate_with_plan_observed(d.graph(), &s, &cfg, 0, &quiet, &registry).unwrap();
        assert_eq!(plain, observed, "observation must not perturb the run");

        let snap = registry.snapshot();
        assert!(snap.counter("sim.events").unwrap() > 0);
        assert_eq!(snap.counter("sim.retransmits"), Some(0));
        let compute_ops: u64 = (0..d.graph().devices().len())
            .map(|i| snap.counter(&format!("sim.dev{i}.ops")).unwrap())
            .sum();
        let transfers: u64 = (0..d.graph().channels().len())
            .map(|i| snap.counter(&format!("sim.chan{i}.transfers")).unwrap())
            .sum();
        let sends = d.graph().count_ops(|op| op.kind().is_send()) as u64;
        // Every op executes once: transfers cover send+recv pairs, compute
        // ops cover the rest.
        assert_eq!(transfers, sends);
        assert_eq!(compute_ops + 2 * transfers, d.graph().len() as u64);
        let bytes: u64 = (0..d.graph().channels().len())
            .map(|i| snap.counter(&format!("sim.chan{i}.bytes")).unwrap())
            .sum();
        assert!(bytes > 0);
        // Idle gauges exist and are bounded by the makespan.
        match snap.get("sim.chan0.idle_ns") {
            Some(tictac_obs::MetricValue::Gauge(idle)) => {
                assert!(*idle >= 0.0 && *idle <= plain.makespan().as_nanos() as f64);
            }
            other => panic!("expected idle gauge, got {other:?}"),
        }
        // A disabled registry records nothing.
        let disabled = Registry::disabled();
        let again = simulate_with_plan_observed(d.graph(), &s, &cfg, 0, &quiet, &disabled).unwrap();
        assert_eq!(plain, again);
        assert!(disabled.snapshot().entries.is_empty());
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
        let replay = || {
            simulate_with_plan_observed(d.graph(), &s, &cfg, 3, &plan, &Registry::disabled())
                .unwrap()
        };
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

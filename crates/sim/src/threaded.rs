//! The threaded cluster runtime: where the event engine *models* a
//! Model-Replica + Parameter-Server cluster, this module *runs* one.
//!
//! Topology: one OS thread per device (worker or PS shard) draining a
//! priority ready-queue of compute ops, and one OS thread per worker–PS
//! channel draining a rank-keyed transfer queue. Dependency tracking is
//! lock-free (atomic indegrees); queues are `Mutex` + `Condvar`. All
//! timestamps are wall-clock nanoseconds since iteration start, recorded
//! into a [`TraceBuilder`] and returned as an [`ExecutionTrace`], so every
//! trace consumer works on real concurrent executions unchanged.
//!
//! Everything the paper's mechanism (§5.1) is made of is read from the
//! items the event engine reads — the [`RunPlan`] both run from: its
//! transfer table for channel, rank and send pairing, its service-time
//! column (times `time_scale`) for every busy-loop, its indegree template
//! and its [`SimConfig`] for the enforcement flag — plus one [`SendGate`]
//! per channel for the hand-off counter. What is wall-clock-only is
//! `next_rank_to_fly`: the chain of releases is observed by the channel
//! thread in arbitrary interleavings, so the channel additionally gates
//! ranked *starts* on it, which closes the window where a later rank is
//! queued before an earlier one has been pushed.
//!
//! Unprioritized work — every compute op, and every transfer under the
//! baseline — pops in a *seeded-shuffle* order rather than FIFO readiness
//! order. The paper's whole premise (§3) is that DAG frameworks service
//! ready queues in an arbitrary, per-iteration-random order; a FIFO pop
//! would hand the baseline a consistent near-layer order and erase the
//! effect TIC/TAC exist to fix. The shuffle key is a hash of
//! [`SHUFFLE_SEED`], the iteration index and the op id, so one iteration
//! is reproducible and different iterations get different arbitrary
//! orders.
//!
//! Seeded faults bring the simulator's fault model to the wall clock: the
//! same [`FaultPlan`] both backends sample is delivered here by a
//! supervisor walking the plan's agenda (instants mapped through
//! [`FaultClock::wall_clock`]), with keyed per-attempt drop decisions,
//! the loss ladder and the barrier step shared with the simulator —
//! identical seeds inject the identical fault set on either backend. What
//! is deliberately *not* reproduced: modeled noise and reorder errors — a
//! threaded run's variance is physical (scheduler jitter, cache effects),
//! which is the point of having this backend.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::config::SimConfig;
use crate::engine::SendGate;
use crate::error::SimError;
use crate::faults::{
    close_at_barrier, darkened_by_crash, mix, AfterLoss, FaultClock, FaultPlan, Transition,
};
use crate::plan::{RunPlan, TransferTable};
use tictac_graph::{Graph, OpId, OpKind};
use tictac_sched::Schedule;
use tictac_timing::{SimDuration, SimTime};
use tictac_trace::{ExecutionTrace, FaultEventKind, TraceBuilder};

/// Cap on op names reported by [`SimError::Stalled`]; past it a single
/// `+ N more` entry summarizes the rest.
const STALL_REPORT_CAP: usize = 12;

/// Base seed of the arbitrary pop order of *unprioritized* queue entries
/// (see the module docs); the iteration index is folded into it.
const SHUFFLE_SEED: u64 = 0x71C7AC;

/// The two values a threaded iteration takes besides its [`SimConfig`].
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Multiplier on every modeled duration (compute and wire). `1.0`
    /// replays model time 1:1 on the wall clock; smaller values shrink
    /// wall time at the cost of a larger relative scheduling overhead.
    pub time_scale: f64,
    /// Wall-clock budget for the whole iteration; exceeding it aborts the
    /// run with [`SimError::Stalled`].
    pub watchdog: Duration,
}

impl Default for ExecOptions {
    /// 1:1 time scale and a 30-second watchdog.
    fn default() -> Self {
        Self {
            time_scale: 1.0,
            watchdog: Duration::from_secs(30),
        }
    }
}

/// Executes iteration `iteration` of `graph` under `schedule` on real
/// threads: [`RunPlan::run_threaded`] on a plan built for this one run.
/// Platform, enforcement flag and bandwidth share come from `config` —
/// the same fields, read through the same tables, as [`simulate`] reads.
///
/// # Errors
///
/// [`SimError::ScheduleMismatch`] if `schedule` does not cover `graph`
/// ([`RunPlan::new`]'s one error), and otherwise as
/// [`RunPlan::run_threaded`].
///
/// [`simulate`]: crate::simulate
pub fn run_iteration_injected(
    graph: &Graph,
    schedule: &Schedule,
    config: &SimConfig,
    opts: &ExecOptions,
    iteration: u64,
    faults: &FaultPlan,
) -> Result<ExecutionTrace, SimError> {
    RunPlan::new(graph, schedule, config)?.run_threaded(graph, schedule, opts, iteration, faults)
}

impl RunPlan {
    /// Executes iteration `iteration` of the plan's `graph` and `schedule`
    /// on real threads, with the concrete faults of `faults` brought to
    /// the wall clock, and returns its wall-clock [`ExecutionTrace`].
    ///
    /// Spawns one thread per device plus one per channel for the duration
    /// of the call; the calling thread blocks until completion. Timestamps
    /// are nanoseconds since iteration start, so traces are directly
    /// comparable to simulator traces — ordering-exact, timing-real.
    ///
    /// A supervisor thread walks the fault agenda (instants mapped through
    /// [`FaultClock::wall_clock`] at `opts.time_scale`): transfer drops
    /// wedge the channel until the [`RetryPolicy`] timeout fires and then
    /// retransmit; blackouts park the channel thread for the window;
    /// worker crashes kill the device thread mid-iteration (lost compute
    /// is requeued) and respawn it at the recovery instant; PS stalls park
    /// the shard and pause in-flight updates; stragglers scale the
    /// calibrated busy-loops. If `faults` carries a degraded barrier, an
    /// iteration that cannot finish closes with the missing ops deferred
    /// (mirroring the simulator's degraded-mode barrier) instead of
    /// erroring. Under [`FaultPlan::quiet`] every fault check
    /// short-circuits.
    ///
    /// A stall is detected within `opts.watchdog`; the abort then drains
    /// every queue and cuts in-flight busy-waits short, so the call
    /// returns within a few milliseconds of the watchdog firing.
    ///
    /// # Errors
    ///
    /// [`SimError::RetriesExhausted`] if a transfer burns its whole retry
    /// budget with no barrier configured; [`SimError::Stalled`] if the
    /// watchdog expires (with the outstanding ops and channel depths
    /// named).
    ///
    /// [`RetryPolicy`]: tictac_timing::RetryPolicy
    pub fn run_threaded(
        &self,
        graph: &Graph,
        schedule: &Schedule,
        opts: &ExecOptions,
        iteration: u64,
        faults: &FaultPlan,
    ) -> Result<ExecutionTrace, SimError> {
        debug_assert!(self.covers(graph, schedule), "not this plan's graph");
        let shared = Shared::new(graph, schedule, self, opts, iteration, faults);
        for &(device, _) in &faults.stragglers {
            shared.log_fault(SimTime::ZERO, FaultEventKind::StragglerApplied { device });
        }

        std::thread::scope(|scope| {
            for dev in 0..graph.devices().len() {
                let shared = &shared;
                std::thread::Builder::new()
                    .name(format!("tictac-dev{dev}"))
                    .spawn_scoped(scope, move || shared.device_loop(dev))
                    .expect("spawn device thread");
            }
            for ch in 0..graph.channels().len() {
                let shared = &shared;
                std::thread::Builder::new()
                    .name(format!("tictac-ch{ch}"))
                    .spawn_scoped(scope, move || shared.channel_loop(ch))
                    .expect("spawn channel thread");
            }

            // Release the roots only once every thread can observe them.
            for op in graph.roots() {
                shared.dispatch(op);
            }
            shared.supervise(scope)
        })?;

        if let Some(err) = shared.error.lock().expect("error lock").take() {
            return Err(err);
        }
        // Concurrent threads logged fault events out of order; `finish`
        // sorts them, keeping same-instant events in log order.
        Ok(shared
            .trace
            .into_inner()
            .expect("no thread panicked holding the trace")
            .finish())
    }
}

/// The supervisor's agenda: the plan's transitions on the wall clock at
/// `clock`, stable-sorted by instant so same-instant entries keep the
/// plan order the engine schedules them in.
fn wall_agenda(faults: &FaultPlan, clock: FaultClock) -> Vec<(SimTime, Transition)> {
    let mut agenda: Vec<_> = faults.agenda(clock).collect();
    agenda.sort_by_key(|&(at, _)| at);
    agenda
}

/// Per-device ready queue: a binary heap keyed by `(schedule priority,
/// tiebreak)`, so prioritized ops run lowest-number-first; unprioritized
/// ops (key `u64::MAX`) run behind them in seeded-shuffle order — the
/// arbitrary ready-queue servicing the paper attributes to DAG frameworks.
#[derive(Debug, Default)]
struct DeviceQueue {
    seq: u64,
    heap: BinaryHeap<Reverse<(u64, u64, usize)>>,
    /// Crash mailbox: a pending kill (value = recovery instant, wall ns).
    /// The device thread takes it, marks itself `dead` and exits; the
    /// supervisor respawns the loop at the recovery instant.
    crash: Option<u64>,
    /// Set by the dying thread; consumed by the supervisor's respawn.
    dead: bool,
}

/// How a fault-aware busy-wait ended.
enum WaitOutcome {
    /// The deadline passed.
    Elapsed,
    /// The shutdown latch flipped (completion or abort).
    Shutdown,
    /// The interrupt flag flipped (a crash kill for this device).
    Interrupted,
}

/// The end instant of the availability window covering `now`, if any.
fn down_until(windows: &[(u64, u64)], now: u64) -> Option<u64> {
    windows
        .iter()
        .find(|&&(s, e)| s <= now && now < e)
        .map(|&(_, e)| e)
}

/// End instant of an op starting at `t0` with busy time `d`, paused by
/// every overlapping stall window (the simulator's pause semantics: the
/// op finishes late by the overlap). `windows` is sorted by start, so a
/// pause that pushes the end into a later window extends again.
fn stall_adjusted_end(windows: &[(u64, u64)], t0: u64, d: u64) -> u64 {
    let mut end = t0.saturating_add(d);
    for &(s, e) in windows {
        if s < end && e > t0 {
            end = end.saturating_add(e - s.max(t0));
        }
    }
    end
}

/// Per-channel transfer queue plus the sender-side enforcement state.
#[derive(Debug, Default)]
struct ChanQueue {
    /// Queued ranked transfers (recv ops), keyed by enforcement rank.
    ranked: BinaryHeap<Reverse<(u64, usize)>>,
    /// Queued unranked transfers, keyed by seeded-shuffle hash: an
    /// arbitrary, per-seed-stable wire order (the baseline's behavior).
    unranked: BinaryHeap<Reverse<(u64, usize)>>,
    /// The §5.1 hand-off counter and its parked sends — the engine's own.
    gate: SendGate,
    /// Next rank allowed to *start* on the wire; closes the hand-off
    /// interleaving window. The one wall-clock-only addition to the
    /// mechanism (see module docs).
    next_rank_to_fly: u64,
}

struct Shared<'g> {
    graph: &'g Graph,
    schedule: &'g Schedule,
    opts: &'g ExecOptions,
    /// Whether sender-side rank enforcement (§5.1) is active.
    enforcement: bool,
    /// Channel, rank and send pairing per transfer op (the plan's).
    transfers: &'g TransferTable,
    /// Modeled duration of every op, before `time_scale` (the plan's).
    service: &'g [SimDuration],
    /// This iteration's seed of the unprioritized pop order.
    shuffle_seed: u64,
    started: Instant,

    /// Outstanding predecessor count per op.
    indegree: Vec<AtomicU32>,
    /// Ops not yet completed.
    remaining: AtomicUsize,
    /// Wall ns since start at which the last op completed (`u64::MAX`
    /// until then).
    finished_at: AtomicU64,
    /// Set on completion or watchdog abort; threads drain and exit.
    shutdown: AtomicBool,

    devices: Vec<(Mutex<DeviceQueue>, Condvar)>,
    channels: Vec<(Mutex<ChanQueue>, Condvar)>,

    /// Completion signal for the supervisor.
    done: (Mutex<bool>, Condvar),
    trace: Mutex<TraceBuilder>,

    /// The iteration's concrete fault set ([`FaultPlan::quiet`] when no
    /// injection is active).
    faults: &'g FaultPlan,
    /// Maps plan instants onto the wall clock at `opts.time_scale`.
    clock: FaultClock,
    /// The plan's transitions on that clock, sorted (see [`wall_agenda`]).
    agenda: Vec<(SimTime, Transition)>,
    /// False for a quiet plan: every fault check short-circuits.
    faulty: bool,
    /// Per-op completion flags (for the degraded-barrier scan and stall
    /// diagnostics; `remaining` only counts).
    completed: Vec<AtomicBool>,
    /// Per-recv transfer attempt counter (keyed drop decisions).
    attempts: Vec<AtomicU32>,
    /// Per-device straggler slowdown factor (1.0 = none).
    slowdown: Vec<f64>,
    /// Per-device PS-stall windows, wall ns since start, sorted.
    stall_windows: Vec<Vec<(u64, u64)>>,
    /// Per-channel dark windows (blackouts, plus the owning worker's
    /// crash downtimes), wall ns since start, sorted.
    chan_windows: Vec<Vec<(u64, u64)>>,
    /// Per-device crash interrupt: cuts the busy-loop of an op short.
    crash_pending: Vec<AtomicBool>,
    /// First fatal runtime error (a thread latches it and shuts down).
    error: Mutex<Option<SimError>>,
}

impl<'g> Shared<'g> {
    fn new(
        graph: &'g Graph,
        schedule: &'g Schedule,
        plan: &'g RunPlan,
        opts: &'g ExecOptions,
        iteration: u64,
        faults: &'g FaultPlan,
    ) -> Self {
        let n = graph.len();
        let ndev = graph.devices().len();
        let clock = FaultClock::wall_clock(opts.time_scale);

        let mut slowdown = vec![1.0f64; ndev];
        for &(device, factor) in &faults.stragglers {
            slowdown[device.index()] = factor;
        }
        let agenda = wall_agenda(faults, clock);
        let mut stall_windows: Vec<Vec<(u64, u64)>> = vec![Vec::new(); ndev];
        let mut chan_windows: Vec<Vec<(u64, u64)>> = vec![Vec::new(); graph.channels().len()];
        for &(at, transition) in &agenda {
            let window = |until: SimTime| (at.as_nanos(), until.as_nanos());
            match transition {
                Transition::BlackoutStart { channel, until } => {
                    chan_windows[channel.index()].push(window(until));
                }
                Transition::CrashStart { device, until } => {
                    for ch in darkened_by_crash(graph, device) {
                        chan_windows[ch].push(window(until));
                    }
                }
                Transition::StallStart { device, until } => {
                    stall_windows[device.index()].push(window(until));
                }
                _ => {}
            }
        }
        for w in stall_windows.iter_mut().chain(chan_windows.iter_mut()) {
            w.sort_unstable();
        }

        Self {
            graph,
            schedule,
            opts,
            enforcement: plan.config().enforcement,
            transfers: &plan.transfers,
            service: &plan.service,
            // A fresh arbitrary order every iteration, matching the
            // paper's baseline observation (unique transfer order in
            // every run). Ranked transfers are unaffected.
            shuffle_seed: SHUFFLE_SEED ^ iteration.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            started: Instant::now(),
            indegree: plan.indegree.iter().map(|&d| AtomicU32::new(d)).collect(),
            remaining: AtomicUsize::new(n),
            finished_at: AtomicU64::new(u64::MAX),
            shutdown: AtomicBool::new(false),
            devices: (0..ndev).map(|_| Default::default()).collect(),
            channels: (0..graph.channels().len())
                .map(|_| Default::default())
                .collect(),
            done: (Mutex::new(false), Condvar::new()),
            trace: Mutex::new(TraceBuilder::new(n)),
            faults,
            clock,
            agenda,
            faulty: !faults.is_quiet(),
            completed: (0..n).map(|_| AtomicBool::new(false)).collect(),
            attempts: (0..n).map(|_| AtomicU32::new(0)).collect(),
            slowdown,
            stall_windows,
            chan_windows,
            crash_pending: (0..ndev).map(|_| AtomicBool::new(false)).collect(),
            error: Mutex::new(None),
        }
    }

    /// Appends a timestamped fault event to the iteration's trace.
    fn log_fault(&self, at: SimTime, kind: FaultEventKind) {
        self.trace.lock().expect("trace lock").push_fault(at, kind);
    }

    /// Wall-clock time since iteration start, in the trace's clock domain.
    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.started.elapsed().as_nanos() as u64)
    }

    /// Busy-waits until `deadline`: sleeps through the bulk, yields close
    /// in, spins the last few microseconds for precision.
    ///
    /// Returns `false` if the shutdown latch flipped before the deadline
    /// (a watchdog abort — during normal completion no op can be in
    /// flight when the latch is set, since the latch requires every op to
    /// have completed). Sleeps are capped so an abort cuts even a long
    /// modeled duration short within a few milliseconds.
    fn wait_until(&self, deadline: Instant) -> bool {
        matches!(
            self.wait_interruptible(deadline, None),
            WaitOutcome::Elapsed
        )
    }

    /// [`Shared::wait_until`] that can additionally be cut short by an
    /// interrupt flag (a crash kill aimed at the waiting device). The
    /// sleep cap bounds both abort and kill delivery latency.
    fn wait_interruptible(&self, deadline: Instant, interrupt: Option<&AtomicBool>) -> WaitOutcome {
        const SLEEP_CAP: Duration = Duration::from_millis(2);
        loop {
            if self.shutdown.load(Ordering::Acquire) {
                return WaitOutcome::Shutdown;
            }
            if let Some(flag) = interrupt {
                if flag.load(Ordering::Acquire) {
                    return WaitOutcome::Interrupted;
                }
            }
            let now = Instant::now();
            if now >= deadline {
                return WaitOutcome::Elapsed;
            }
            let left = deadline - now;
            if left > Duration::from_micros(400) {
                std::thread::sleep((left - Duration::from_micros(200)).min(SLEEP_CAP));
            } else if left > Duration::from_micros(20) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// Queues `recv` on its channel's ranked or seeded-shuffle heap.
    fn enqueue_transfer(&self, q: &mut ChanQueue, recv: OpId) {
        match self.transfers.recv_rank[recv.index()] {
            Some(r) => q.ranked.push(Reverse((r, recv.index()))),
            None => {
                let key = mix(self.shuffle_seed, recv.index() as u64);
                q.unranked.push(Reverse((key, recv.index())));
            }
        }
    }

    /// Queues compute op `op` on its device: prioritized ops tie-break on
    /// arrival, unprioritized ops pop in seeded-shuffle order.
    fn enqueue_compute(&self, q: &mut DeviceQueue, op: OpId) {
        q.seq += 1;
        let (priority, tiebreak) = match self.schedule.priority(op) {
            Some(p) => (p, q.seq),
            None => (u64::MAX, mix(self.shuffle_seed, op.index() as u64)),
        };
        q.heap.push(Reverse((priority, tiebreak, op.index())));
    }

    /// Routes an op whose dependencies are all satisfied.
    fn dispatch(&self, op: OpId) {
        match self.graph.op(op).kind() {
            OpKind::Send { .. } => self.handoff(op),
            OpKind::Recv { .. } => {
                let (lock, cv) = &self.channels[self.transfers.chan[op.index()] as usize];
                self.enqueue_transfer(&mut lock.lock().expect("channel lock"), op);
                cv.notify_all();
            }
            _ => {
                let (lock, cv) = &self.devices[self.graph.op(op).device().index()];
                self.enqueue_compute(&mut lock.lock().expect("device lock"), op);
                cv.notify_all();
            }
        }
    }

    /// Sender-side enforcement: hands `send` to its channel if the gate
    /// admits its rank, else parks it. Hand-off is instantaneous and
    /// completes the send (its wire interval is recorded later, with the
    /// recv); completing it may release further parked sends — the whole
    /// chain is collected under the channel lock, then completed outside.
    fn handoff(&self, send: OpId) {
        let mut chain = vec![send];
        if let (Some(mut r), true) = (self.transfers.rank[send.index()], self.enforcement) {
            let (lock, _) = &self.channels[self.transfers.chan[send.index()] as usize];
            let mut q = lock.lock().expect("channel lock");
            if !q.gate.admits(r) {
                q.gate.block(r, send);
                return;
            }
            while let Some(next) = q.gate.advance(r) {
                chain.push(next);
                r += 1;
            }
        }
        for s in chain {
            self.complete(s);
        }
    }

    /// Marks `op` complete and dispatches newly-ready successors.
    fn complete(&self, op: OpId) {
        self.completed[op.index()].store(true, Ordering::Release);
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.finished_at
                .store(self.started.elapsed().as_nanos() as u64, Ordering::Release);
            self.finish();
        }
        for &succ in self.graph.succs(op) {
            if self.indegree[succ.index()].fetch_sub(1, Ordering::AcqRel) == 1 {
                self.dispatch(succ);
            }
        }
    }

    /// Flips the shutdown latch and wakes every sleeper.
    ///
    /// Each notification is issued while holding that queue's mutex: the
    /// worker loops check `shutdown` and then block on the condvar under
    /// the same mutex, so taking it here serializes the store against the
    /// check-then-wait — a worker that read `shutdown == false` either
    /// still holds the lock (we block until it reaches `wait`, which gets
    /// the notification) or has already released it inside `wait` (the
    /// notification wakes it). A lock-free notify could land in the gap
    /// between check and wait and be lost, sleeping the thread forever.
    fn finish(&self) {
        self.shutdown.store(true, Ordering::Release);
        for (lock, cv) in &self.devices {
            drop(lock.lock().expect("device lock"));
            cv.notify_all();
        }
        for (lock, cv) in &self.channels {
            drop(lock.lock().expect("channel lock"));
            cv.notify_all();
        }
        let (lock, cv) = &self.done;
        *lock.lock().expect("done lock") = true;
        cv.notify_all();
    }

    /// The grown-up watchdog: waits for completion while delivering the
    /// fault agenda, aborting with diagnostics (or degrading, when a
    /// barrier is configured and a quorum of work survived) on expiry.
    /// Fault events are logged at their *scheduled* instants, so the event
    /// stream is a deterministic function of the plan even when the
    /// supervisor delivers an entry a bit late.
    fn supervise<'scope, 'env>(
        &'env self,
        scope: &'scope std::thread::Scope<'scope, 'env>,
    ) -> Result<(), SimError> {
        let watchdog_deadline = self.started + self.opts.watchdog;
        let (lock, cv) = &self.done;
        let mut next = 0;
        loop {
            // Deliver due agenda entries before taking the done lock
            // (applying a fault takes queue locks).
            let now = SimTime::from_nanos(self.started.elapsed().as_nanos() as u64);
            while let Some(&(at, transition)) = self.agenda.get(next).filter(|e| e.0 <= now) {
                next += 1;
                if at.as_nanos() >= self.finished_at.load(Ordering::Acquire) {
                    // Scheduled after the last op completed: moot,
                    // mirroring the simulator's remaining-work gate. The
                    // test is on the *scheduled* instant, so an entry this
                    // thread delivers late (it was descheduled while a
                    // short iteration ran to completion) still counts, as
                    // it does in the simulator.
                    next = self.agenda.len();
                    break;
                }
                if transition == Transition::Barrier {
                    self.degrade(at);
                    return Ok(());
                }
                self.apply_fault(scope, at, transition);
            }
            let done = lock.lock().expect("done lock");
            if *done {
                return Ok(());
            }
            let now = Instant::now();
            if now >= watchdog_deadline {
                drop(done);
                return self.abort_stalled();
            }
            let next_due = self
                .agenda
                .get(next)
                .map(|&(at, _)| self.started + Duration::from_nanos(at.as_nanos()));
            let deadline = next_due.map_or(watchdog_deadline, |d| d.min(watchdog_deadline));
            let timeout = deadline
                .saturating_duration_since(now)
                .max(Duration::from_micros(100));
            let _ = cv.wait_timeout(done, timeout).expect("done lock");
        }
    }

    /// Delivers one due availability change to the runtime. Blackouts and
    /// stalls are enforced by the threads' own window checks; unlike the
    /// simulator, an attempt already on the wire finishes (DESIGN.md §11).
    fn apply_fault<'scope, 'env>(
        &'env self,
        scope: &'scope std::thread::Scope<'scope, 'env>,
        at: SimTime,
        transition: Transition,
    ) {
        if let Some(kind) = transition.event() {
            self.log_fault(at, kind);
        }
        match transition {
            Transition::CrashStart { device, until } => {
                let (lock, cv) = &self.devices[device.index()];
                {
                    // Mailbox first (under the queue lock), interrupt flag
                    // second: a busy thread observing the interrupt is
                    // then guaranteed to find the mailbox when it aborts.
                    let mut q = lock.lock().expect("device lock");
                    q.crash = Some(until.as_nanos());
                }
                self.crash_pending[device.index()].store(true, Ordering::Release);
                cv.notify_all();
            }
            Transition::CrashEnd { device } => {
                let dev = device.index();
                let (lock, _) = &self.devices[dev];
                let respawn = {
                    let mut q = lock.lock().expect("device lock");
                    self.crash_pending[dev].store(false, Ordering::Release);
                    if q.dead {
                        q.dead = false;
                        true
                    } else {
                        // The kill was never delivered (the thread stayed
                        // busy through the whole window): retract it so
                        // the device does not die after "recovering".
                        q.crash = None;
                        false
                    }
                };
                if respawn && !self.shutdown.load(Ordering::Acquire) {
                    std::thread::Builder::new()
                        .name(format!("tictac-dev{dev}-r"))
                        .spawn_scoped(scope, move || self.device_loop(dev))
                        .expect("respawn device thread");
                }
            }
            _ => {}
        }
    }

    /// Watchdog expiry: degrade if a configured barrier can absorb the
    /// loss and any work survived, else abort with diagnostics.
    fn abort_stalled(&self) -> Result<(), SimError> {
        let remaining = self.remaining.load(Ordering::Acquire);
        if self.faults.barrier_timeout.is_some() && remaining < self.graph.len() {
            self.degrade(self.now());
            return Ok(());
        }
        let err = self.stall_error();
        self.finish(); // abort: release every thread
        Err(err)
    }

    /// Assembles [`SimError::Stalled`] diagnostics: which ops are
    /// outstanding (by name, capped) and how deep each channel queue is.
    fn stall_error(&self) -> SimError {
        let waited = self.started.elapsed();
        let remaining = self.remaining.load(Ordering::Acquire);
        let mut outstanding = Vec::new();
        let mut incomplete = 0usize;
        for (i, flag) in self.completed.iter().enumerate() {
            if !flag.load(Ordering::Acquire) {
                incomplete += 1;
                if outstanding.len() < STALL_REPORT_CAP {
                    outstanding.push(self.graph.op_name(OpId::from_index(i)).to_string());
                }
            }
        }
        if incomplete > STALL_REPORT_CAP {
            outstanding.push(format!("+ {} more", incomplete - STALL_REPORT_CAP));
        }
        let channel_depths = self
            .channels
            .iter()
            .map(|(lock, _)| {
                let q = lock.lock().expect("channel lock");
                q.ranked.len() + q.unranked.len()
            })
            .collect();
        SimError::Stalled {
            completed: self.graph.len() - remaining,
            remaining,
            waited,
            outstanding,
            channel_depths,
        }
    }

    /// Closes a degraded iteration at `at`: shuts every thread down, then
    /// takes the barrier step the simulator takes (and
    /// `Trainer::step_degraded` mirrors with deferred gradients).
    fn degrade(&self, at: SimTime) {
        self.finish();
        // Let in-flight busy-waits observe the latch and retire (their
        // records, if any, land before the scan); the sleep cap bounds
        // this settle window.
        std::thread::sleep(Duration::from_millis(3));
        let undone = (0..self.completed.len())
            .filter(|&i| !self.completed[i].load(Ordering::Acquire))
            .map(OpId::from_index);
        close_at_barrier(&mut self.trace.lock().expect("trace lock"), at, undone);
    }

    /// Attempt `attempt` of `recv` was lost on the wire: the channel
    /// wedges on the dead stream until the loss-detection timeout fires,
    /// then takes the loss ladder's answer. Returns `false` when the
    /// channel thread must exit.
    fn lose_attempt(&self, ch: usize, recv: OpId, attempt: u32) -> bool {
        let dropped_at = self.now();
        self.log_fault(
            dropped_at,
            FaultEventKind::TransferDropped { op: recv, attempt },
        );
        let timeout = self
            .clock
            .wall_duration(self.faults.retry.timeout_for(attempt));
        let deadline = self.started + Duration::from_nanos(dropped_at.as_nanos()) + timeout;
        if !self.wait_until(deadline) {
            return false;
        }
        let detected = self.now();
        self.attempts[recv.index()].store(attempt + 1, Ordering::Release);
        let step = self.faults.after_timeout(
            &mut self.trace.lock().expect("trace lock"),
            recv,
            attempt,
            detected,
        );
        match step {
            AfterLoss::Retransmit => {
                let (lock, _) = &self.channels[ch];
                self.enqueue_transfer(&mut lock.lock().expect("channel lock"), recv);
                // No notify needed: we are this channel's own thread and
                // loop straight back to the pop.
                true
            }
            // The degraded barrier defers its downstream work.
            AfterLoss::Abandon => true,
            AfterLoss::Fail(e) => {
                self.error.lock().expect("error lock").get_or_insert(e);
                self.finish();
                false
            }
        }
    }

    /// Device thread: pop the lowest-priority ready op, busy-loop its
    /// modeled duration, record it, release successors.
    ///
    /// Shutdown is checked *before* popping, so a watchdog abort drops
    /// queued ops instead of busy-waiting through them (during normal
    /// completion the latch implies an empty queue, so nothing is lost).
    fn device_loop(&self, dev: usize) {
        let (lock, cv) = &self.devices[dev];
        let stall_windows: &[(u64, u64)] = &self.stall_windows[dev];
        loop {
            let op = {
                let mut q = lock.lock().expect("device lock");
                loop {
                    if self.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    if q.crash.take().is_some() {
                        // Killed while idle; the supervisor respawns this
                        // loop at the recovery instant.
                        q.dead = true;
                        return;
                    }
                    if !stall_windows.is_empty() {
                        let now = self.started.elapsed().as_nanos() as u64;
                        if let Some(end) = down_until(stall_windows, now) {
                            // A PS stall covers this instant: the shard's
                            // update thread is wedged; park until it
                            // resumes.
                            drop(q);
                            if !self.wait_until(self.started + Duration::from_nanos(end)) {
                                return;
                            }
                            q = lock.lock().expect("device lock");
                            continue;
                        }
                    }
                    if let Some(Reverse((_, _, op))) = q.heap.pop() {
                        break OpId::from_index(op);
                    }
                    q = cv.wait(q).expect("device lock");
                }
            };
            let start = self.now();
            let mut modeled = self.service[op.index()];
            let factor = self.slowdown[dev];
            if factor != 1.0 {
                // Persistent straggler: the whole iteration's compute
                // slows by the plan's factor.
                modeled = modeled.mul_f64(factor);
            }
            let dur = self.clock.wall_duration(modeled);
            // PS stalls crossing the op pause it (simulator semantics):
            // it finishes late by the overlap with every stall window.
            let end_ns = stall_adjusted_end(stall_windows, start.as_nanos(), dur.as_nanos() as u64);
            let interrupt = if self.faulty {
                Some(&self.crash_pending[dev])
            } else {
                None
            };
            match self.wait_interruptible(self.started + Duration::from_nanos(end_ns), interrupt) {
                WaitOutcome::Shutdown => return, // aborted mid-op
                WaitOutcome::Interrupted => {
                    // Crashed mid-op: the in-flight compute is lost.
                    // Requeue it (the respawned loop re-runs it after
                    // recovery), then die — unless the kill was retracted
                    // before delivery, in which case stay alive.
                    let mut q = lock.lock().expect("device lock");
                    self.enqueue_compute(&mut q, op);
                    if q.crash.take().is_some() {
                        q.dead = true;
                        return;
                    }
                    continue;
                }
                WaitOutcome::Elapsed => {}
            }
            let end = self.now();
            self.trace
                .lock()
                .expect("trace lock")
                .record(op, start, end);
            self.complete(op);
        }
    }

    /// Channel thread: fly transfers one at a time. Ranked transfers start
    /// strictly in rank order (`next_rank_to_fly`); unranked transfers
    /// fill in whenever the next rank has not arrived yet.
    fn channel_loop(&self, ch: usize) {
        let (lock, cv) = &self.channels[ch];
        let windows: &[(u64, u64)] = &self.chan_windows[ch];
        loop {
            let recv = {
                let mut q = lock.lock().expect("channel lock");
                loop {
                    // Shutdown first: a watchdog abort drops queued
                    // transfers instead of flying them (see device_loop).
                    if self.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    if !windows.is_empty() {
                        let now = self.started.elapsed().as_nanos() as u64;
                        if let Some(end) = down_until(windows, now) {
                            // The channel is dark (blackout, or its
                            // worker is down): park until the window
                            // closes. Unlike the simulator, an attempt
                            // already on the wire finishes (DESIGN.md
                            // §11).
                            drop(q);
                            if !self.wait_until(self.started + Duration::from_nanos(end)) {
                                return;
                            }
                            q = lock.lock().expect("channel lock");
                            continue;
                        }
                    }
                    // `<=` (not `==`): a retransmitted rank re-flies even
                    // though the counter already advanced past it. On the
                    // quiet path each rank is queued exactly once, so
                    // only equality occurs and the gate is unchanged.
                    let gate_open = q.ranked.peek().is_some_and(|Reverse((r, _))| {
                        !self.enforcement || *r <= q.next_rank_to_fly
                    });
                    if gate_open {
                        let Reverse((r, op)) = q.ranked.pop().expect("peeked entry");
                        if r == q.next_rank_to_fly {
                            q.next_rank_to_fly += 1;
                        }
                        break OpId::from_index(op);
                    }
                    if let Some(Reverse((_, op))) = q.unranked.pop() {
                        break OpId::from_index(op);
                    }
                    q = cv.wait(q).expect("channel lock");
                }
            };
            if self.faulty {
                let attempt = self.attempts[recv.index()].load(Ordering::Acquire);
                if self.faults.drops_attempt(recv, attempt) {
                    if self.lose_attempt(ch, recv, attempt) {
                        continue;
                    }
                    return;
                }
            }
            let wire = self.clock.wall_duration(self.service[recv.index()]);
            let start = self.now();
            if !self.wait_until(self.started + (self.started.elapsed() + wire)) {
                return; // aborted mid-transfer; the trace is discarded anyway
            }
            let end = self.now();
            self.transfers.record(
                &mut self.trace.lock().expect("trace lock"),
                recv,
                start,
                end,
            );
            self.complete(recv);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tictac_cluster::{deploy, ClusterSpec};
    use tictac_models::{tiny_mlp, Mode};
    use tictac_sched::{no_ordering, tic};

    fn opts_at(time_scale: f64) -> ExecOptions {
        ExecOptions {
            time_scale,
            watchdog: Duration::from_secs(20),
        }
    }

    fn opts() -> ExecOptions {
        opts_at(0.5)
    }

    /// A 10 ms watchdog against a 50x time scale: guaranteed to stall.
    fn doomed() -> ExecOptions {
        ExecOptions {
            time_scale: 50.0,
            watchdog: Duration::from_millis(10),
        }
    }

    /// One quiet envG iteration.
    fn run_iteration(
        graph: &Graph,
        schedule: &Schedule,
        opts: &ExecOptions,
    ) -> Result<ExecutionTrace, SimError> {
        let config = SimConfig::cloud_gpu();
        run_iteration_injected(graph, schedule, &config, opts, 0, &FaultPlan::quiet())
    }

    #[test]
    fn baseline_iteration_completes_every_op() {
        let model = tiny_mlp(Mode::Training, 8);
        let d = deploy(&model, &ClusterSpec::new(2, 1)).unwrap();
        let trace = run_iteration(d.graph(), &no_ordering(d.graph()), &opts()).unwrap();
        assert_eq!(trace.executed_ops(), d.graph().len());
        assert!(trace.makespan() > tictac_timing::SimDuration::ZERO);
    }

    #[test]
    fn enforced_schedule_fixes_the_recv_completion_order() {
        let model = tiny_mlp(Mode::Training, 8);
        let d = deploy(&model, &ClusterSpec::new(2, 1)).unwrap();
        let w = d.workers()[0];
        let s = d.replicate_schedule(&tic(d.graph(), w));
        let expected: Vec<OpId> = {
            // Rank order per channel is the enforced completion order.
            let mut recvs: Vec<(u64, OpId)> = d
                .graph()
                .recv_ops_on(w)
                .into_iter()
                .map(|r| (s.priority(r).unwrap(), r))
                .collect();
            recvs.sort_unstable();
            recvs.into_iter().map(|(_, r)| r).collect()
        };
        // Single channel per worker here, so the worker-wide completion
        // order equals the channel rank order.
        let trace = run_iteration(d.graph(), &s, &opts()).unwrap();
        assert_eq!(trace.recv_completion_order(d.graph(), w), expected);
    }

    #[test]
    fn transfers_on_one_channel_serialize() {
        let model = tiny_mlp(Mode::Training, 8);
        let d = deploy(&model, &ClusterSpec::new(2, 1)).unwrap();
        let trace = run_iteration(d.graph(), &no_ordering(d.graph()), &opts()).unwrap();
        for channel in d.graph().channels() {
            let mut intervals: Vec<(u64, u64)> = d
                .graph()
                .op_ids()
                .filter(|&id| {
                    let op = d.graph().op(id);
                    op.is_recv() && op.kind().channel() == Some(channel.id())
                })
                .map(|id| {
                    let r = trace.record(id).unwrap();
                    (r.start.as_nanos(), r.end.as_nanos())
                })
                .collect();
            intervals.sort_unstable();
            for pair in intervals.windows(2) {
                assert!(
                    pair[0].1 <= pair[1].0,
                    "overlapping transfers on one channel: {pair:?}"
                );
            }
        }
    }

    #[test]
    fn schedule_mismatch_is_a_typed_error() {
        let model = tiny_mlp(Mode::Training, 8);
        let d = deploy(&model, &ClusterSpec::new(2, 1)).unwrap();
        let bad = Schedule::empty(d.graph().len() + 1);
        match run_iteration(d.graph(), &bad, &opts()) {
            Err(SimError::ScheduleMismatch { graph_len, .. }) => {
                assert_eq!(graph_len, d.graph().len());
            }
            other => panic!("expected mismatch, got {other:?}"),
        }
    }

    #[test]
    fn repeated_tiny_iterations_shut_down_cleanly() {
        // Regression: finish() must notify under each queue mutex. A
        // lock-free notify could land between a worker's shutdown check
        // and its cv.wait, hanging the scoped join forever. Tiny, fast
        // iterations maximize pressure on that completion window.
        let model = tiny_mlp(Mode::Training, 8);
        let d = deploy(&model, &ClusterSpec::new(2, 1)).unwrap();
        let s = no_ordering(d.graph());
        let (config, o) = (SimConfig::cloud_gpu(), opts_at(0.01));
        for iteration in 0..40 {
            let trace =
                run_iteration_injected(d.graph(), &s, &config, &o, iteration, &FaultPlan::quiet())
                    .unwrap();
            assert_eq!(trace.executed_ops(), d.graph().len());
        }
    }

    #[test]
    fn watchdog_abort_returns_promptly() {
        // Regression: after the watchdog fires, threads must drop queued
        // ops and cut in-flight busy-waits short instead of draining the
        // full modeled makespan (seconds here, at 50x time scale).
        let model = tiny_mlp(Mode::Training, 8);
        let d = deploy(&model, &ClusterSpec::new(2, 1)).unwrap();
        let o = doomed();
        let started = std::time::Instant::now();
        match run_iteration(d.graph(), &no_ordering(d.graph()), &o) {
            Err(SimError::Stalled { remaining, .. }) => assert!(remaining > 0),
            other => panic!("expected a stall, got {other:?}"),
        }
        assert!(
            started.elapsed() < Duration::from_millis(500),
            "abort took {:?}; threads kept draining after the watchdog",
            started.elapsed()
        );
    }

    /// One agenda, two clocks: the plan's transitions come in plan order,
    /// the supervisor's sort keeps same-instant entries in that order, and
    /// a wall clock scales every instant, window ends included.
    #[test]
    fn one_agenda_two_clocks() {
        use crate::faults::{Blackout, Crash, Stall};
        use tictac_graph::{ChannelId, DeviceId};
        let t = SimTime::from_nanos;
        let (ch, w, ps) = (
            ChannelId::from_index(0),
            DeviceId::from_index(1),
            DeviceId::from_index(0),
        );
        let mut plan = FaultPlan::quiet();
        assert_eq!(plan.agenda(FaultClock::virtual_time()).count(), 0);
        plan.blackouts.push(Blackout {
            channel: ch,
            at: t(400),
            until: t(900),
        });
        plan.crashes.push(Crash {
            device: w,
            at: t(100),
            until: t(400),
        });
        plan.stalls.push(Stall {
            device: ps,
            at: t(400),
            until: t(600),
        });
        plan.barrier_timeout = Some(SimDuration::from_nanos(900));
        let virtual_time: Vec<_> = plan.agenda(FaultClock::virtual_time()).collect();
        assert_eq!(
            virtual_time,
            [
                (
                    t(400),
                    Transition::BlackoutStart {
                        channel: ch,
                        until: t(900)
                    }
                ),
                (t(900), Transition::BlackoutEnd { channel: ch }),
                (
                    t(100),
                    Transition::CrashStart {
                        device: w,
                        until: t(400)
                    }
                ),
                (t(400), Transition::CrashEnd { device: w }),
                (
                    t(400),
                    Transition::StallStart {
                        device: ps,
                        until: t(600)
                    }
                ),
                (t(600), Transition::StallEnd { device: ps }),
                (t(900), Transition::Barrier),
            ]
        );
        assert_eq!(
            wall_agenda(&plan, FaultClock::wall_clock(0.5)),
            [
                (
                    t(50),
                    Transition::CrashStart {
                        device: w,
                        until: t(200)
                    }
                ),
                (
                    t(200),
                    Transition::BlackoutStart {
                        channel: ch,
                        until: t(450)
                    }
                ),
                (t(200), Transition::CrashEnd { device: w }),
                (
                    t(200),
                    Transition::StallStart {
                        device: ps,
                        until: t(300)
                    }
                ),
                (t(300), Transition::StallEnd { device: ps }),
                (t(450), Transition::BlackoutEnd { channel: ch }),
                (t(450), Transition::Barrier),
            ]
        );
    }

    fn injected(
        d: &tictac_cluster::DeployedModel,
        opts: &ExecOptions,
        faults: &FaultPlan,
    ) -> Result<ExecutionTrace, SimError> {
        let s = no_ordering(d.graph());
        run_iteration_injected(d.graph(), &s, &SimConfig::cloud_gpu(), opts, 0, faults)
    }

    #[test]
    fn stalled_names_outstanding_ops_and_channel_depths() {
        // Satellite: Stalled must say *what* was outstanding, not just
        // how much.
        let model = tiny_mlp(Mode::Training, 8);
        let d = deploy(&model, &ClusterSpec::new(2, 1)).unwrap();
        let o = doomed();
        match run_iteration(d.graph(), &no_ordering(d.graph()), &o) {
            Err(SimError::Stalled {
                remaining,
                outstanding,
                channel_depths,
                ..
            }) => {
                assert!(remaining > 0);
                assert!(
                    !outstanding.is_empty() && outstanding.len() <= STALL_REPORT_CAP + 1,
                    "bad outstanding report: {outstanding:?}"
                );
                assert!(outstanding.iter().all(|n| !n.is_empty()));
                assert_eq!(channel_depths.len(), d.graph().channels().len());
            }
            other => panic!("expected a stall, got {other:?}"),
        }
    }

    #[test]
    fn dropped_transfers_retransmit_and_complete() {
        use tictac_timing::{RetryPolicy, SimDuration};
        use tictac_trace::FaultCounters;
        let model = tiny_mlp(Mode::Training, 8);
        let d = deploy(&model, &ClusterSpec::new(2, 1)).unwrap();
        let mut faults = FaultPlan::quiet();
        faults.drop_prob = 0.5;
        faults.retry = RetryPolicy::fixed(SimDuration::from_micros(400), 40);
        let o = opts_at(0.05);
        let trace = injected(&d, &o, &faults).unwrap();
        assert_eq!(trace.executed_ops(), d.graph().len());
        let c = FaultCounters::from_trace(&trace);
        assert!(c.drops > 0, "p=0.5 over many transfers must drop some");
        assert_eq!(c.timeouts, c.drops);
        assert_eq!(c.retransmits, c.drops, "deep budget: every loss re-flies");
    }

    #[test]
    fn retries_exhausted_is_a_typed_error() {
        use tictac_timing::{RetryPolicy, SimDuration};
        let model = tiny_mlp(Mode::Training, 8);
        let d = deploy(&model, &ClusterSpec::new(2, 1)).unwrap();
        let mut faults = FaultPlan::quiet();
        faults.drop_prob = 1.0;
        faults.retry = RetryPolicy::fixed(SimDuration::from_micros(200), 2);
        let o = opts_at(0.05);
        match injected(&d, &o, &faults) {
            Err(SimError::RetriesExhausted { attempts, .. }) => assert_eq!(attempts, 3),
            other => panic!("expected exhausted retries, got {other:?}"),
        }
    }

    #[test]
    fn degraded_barrier_defers_instead_of_erroring() {
        use tictac_timing::{RetryPolicy, SimDuration};
        use tictac_trace::FaultCounters;
        let model = tiny_mlp(Mode::Training, 8);
        let d = deploy(&model, &ClusterSpec::new(2, 1)).unwrap();
        let mut faults = FaultPlan::quiet();
        faults.drop_prob = 1.0;
        faults.retry = RetryPolicy::fixed(SimDuration::from_micros(200), 1);
        faults.barrier_timeout = Some(SimDuration::from_millis(40));
        let o = opts_at(0.05);
        let trace = injected(&d, &o, &faults).unwrap();
        assert!(trace.executed_ops() < d.graph().len());
        let c = FaultCounters::from_trace(&trace);
        assert_eq!(c.degraded_barriers, 1);
        // Sends complete unrecorded at hand-off, so executed_ops can
        // undercount completions; deferred + executed never exceeds len.
        assert!(c.deferred_ops > 0);
        assert!(trace.executed_ops() + c.deferred_ops as usize <= d.graph().len());
    }

    #[test]
    fn crashed_worker_is_respawned_and_finishes() {
        use crate::faults::Crash;
        use tictac_timing::SimDuration;
        use tictac_trace::FaultCounters;
        let model = tiny_mlp(Mode::Training, 8);
        let d = deploy(&model, &ClusterSpec::new(2, 1)).unwrap();
        let mut faults = FaultPlan::quiet();
        faults.crashes.push(Crash {
            device: d.workers()[0],
            at: SimTime::ZERO + SimDuration::from_micros(80),
            until: SimTime::ZERO + SimDuration::from_micros(900),
        });
        let o = opts_at(0.05);
        let trace = injected(&d, &o, &faults).unwrap();
        assert_eq!(trace.executed_ops(), d.graph().len());
        let c = FaultCounters::from_trace(&trace);
        assert_eq!(c.crashes, 1);
    }

    #[test]
    fn blackout_parks_the_channel_and_finishes() {
        use crate::faults::Blackout;
        use tictac_timing::SimDuration;
        use tictac_trace::FaultCounters;
        let model = tiny_mlp(Mode::Training, 8);
        let d = deploy(&model, &ClusterSpec::new(2, 1)).unwrap();
        let mut faults = FaultPlan::quiet();
        faults.blackouts.push(Blackout {
            channel: d.graph().channels()[0].id(),
            at: SimTime::ZERO + SimDuration::from_micros(50),
            until: SimTime::ZERO + SimDuration::from_micros(700),
        });
        let o = opts_at(0.05);
        let trace = injected(&d, &o, &faults).unwrap();
        assert_eq!(trace.executed_ops(), d.graph().len());
        assert_eq!(FaultCounters::from_trace(&trace).blackouts, 1);
    }

    #[test]
    fn ps_stall_pauses_the_shard_and_finishes() {
        use crate::faults::Stall;
        use tictac_timing::SimDuration;
        use tictac_trace::FaultCounters;
        let model = tiny_mlp(Mode::Training, 8);
        let d = deploy(&model, &ClusterSpec::new(2, 1)).unwrap();
        let ps = d.graph().parameter_servers().next().unwrap();
        let mut faults = FaultPlan::quiet();
        faults.stalls.push(Stall {
            device: ps,
            at: SimTime::ZERO + SimDuration::from_micros(60),
            until: SimTime::ZERO + SimDuration::from_micros(500),
        });
        let o = opts_at(0.05);
        let trace = injected(&d, &o, &faults).unwrap();
        assert_eq!(trace.executed_ops(), d.graph().len());
        assert_eq!(FaultCounters::from_trace(&trace).ps_stalls, 1);
    }

    #[test]
    fn straggler_slows_the_worker_and_is_logged() {
        use tictac_trace::FaultCounters;
        let model = tiny_mlp(Mode::Training, 8);
        let d = deploy(&model, &ClusterSpec::new(2, 1)).unwrap();
        let w = d.workers()[0];
        let mut faults = FaultPlan::quiet();
        faults.stragglers.push((w, 8.0));
        let slowed = injected(&d, &opts_at(0.2), &faults).unwrap();
        assert_eq!(slowed.executed_ops(), d.graph().len());
        assert_eq!(FaultCounters::from_trace(&slowed).stragglers, 1);
        // A busy-loop only ever overshoots, so every compute op of the
        // slowed worker lasts at least factor x time_scale x its modeled
        // service time. (Comparing against a measured quiet run instead
        // is a coin toss at this scale: preemption inflates a
        // microsecond op by more than the factor.)
        let service = crate::service::service_times(d.graph(), &SimConfig::cloud_gpu());
        for id in d.graph().ops_on(w) {
            let op = d.graph().op(id);
            if op.is_recv() || op.kind().is_send() {
                continue;
            }
            let r = slowed.record(id).unwrap();
            let floor = service[id.index()].mul_f64(8.0).mul_f64(0.2);
            assert!(
                r.end - r.start >= floor,
                "8x straggler ran {id:?} in {:?}, modeled at {floor:?}",
                r.end - r.start
            );
        }
    }

    #[test]
    fn zero_priority_inversions_under_enforced_tic() {
        let model = tiny_mlp(Mode::Training, 8);
        let d = deploy(&model, &ClusterSpec::new(2, 1)).unwrap();
        let s = d.replicate_schedule(&tic(d.graph(), d.workers()[0]));
        let trace = run_iteration(d.graph(), &s, &opts()).unwrap();
        let report = tictac_obs::priority_inversions(d.graph(), &trace, |op| s.priority(op));
        assert_eq!(
            report.count(),
            0,
            "enforced ranks must fly in order: {:?}",
            report.records
        );
    }
}

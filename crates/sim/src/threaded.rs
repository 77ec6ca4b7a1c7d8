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
//! route column for each op's channel or device, its transfer table for
//! rank and send pairing, its service-time
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
//! What is deliberately *not* reproduced: modeled noise, reorder errors
//! and faults. A threaded run's variance is physical (scheduler jitter,
//! cache effects), which is the point of having this backend; faults are
//! simulated by the event engine only, and the runtime runs quiet plans.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::config::SimConfig;
use crate::engine::SendGate;
use crate::error::SimError;
use crate::faults::mix;
use crate::plan::{Route, RunPlan, TransferTable};
use tictac_graph::{Graph, OpId};
use tictac_sched::Schedule;
use tictac_trace::{ExecutionTrace, SimDuration, SimTime, TraceBuilder};

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

impl ExecOptions {
    /// Refuses, with [`SimError::UnsupportedConfig`], the knobs of a
    /// [checked](SimConfig::check) config that a threaded run cannot honor
    /// under these options, instead of silently ignoring them:
    ///
    /// * `reorder_error` above 0.01 — the runtime does not inject artificial
    ///   reorders; rates up to the paper's measured gRPC level (§5.1) are
    ///   adequately represented by physical hand-off jitter, larger ones are
    ///   not.
    /// * heavy noise models (`sigma > 0.1` or worker-slowdown probability
    ///   above 5%) — modeled noise cannot be replayed by calibrated
    ///   busy-loops; the presets' mild noise is subsumed by physical jitter.
    /// * a fault spec that can inject a fault or sets a degraded barrier —
    ///   faults are simulated only.
    /// * a `time_scale` that is not positive and finite — no wall-clock
    ///   duration replays it.
    ///
    /// [`RunPlan::run_threaded`] applies it first, and
    /// `SessionBuilder::build` applies it to a threaded session.
    ///
    /// # Errors
    ///
    /// [`SimError::UnsupportedConfig`] naming the first knob refused.
    pub fn check(&self, config: &SimConfig) -> Result<(), SimError> {
        let reorder = config.reorder_error;
        if reorder > 0.01 {
            return Err(SimError::UnsupportedConfig {
                knob: "reorder_error",
                reason: format!(
                    "injected reorder rate {reorder} exceeds what physical hand-off jitter \
                     reproduces (max 0.01)"
                ),
            });
        }
        if config.noise.sigma() > 0.1 || config.noise.slowdown_prob() > 0.05 {
            return Err(SimError::UnsupportedConfig {
                knob: "noise",
                reason: format!(
                    "modeled noise (sigma {}, slowdown prob {}) is too heavy to be \
                     replayed by wall-clock busy-loops",
                    config.noise.sigma(),
                    config.noise.slowdown_prob()
                ),
            });
        }
        if !config.faults.is_quiet() || config.faults.barrier_timeout.is_some() {
            return Err(SimError::UnsupportedConfig {
                knob: "faults",
                reason: "faults are simulated only; run a faulty config on the sim backend"
                    .to_string(),
            });
        }
        if !(self.time_scale > 0.0 && self.time_scale.is_finite()) {
            return Err(SimError::UnsupportedConfig {
                knob: "time_scale",
                reason: format!("{} is not a positive finite scale", self.time_scale),
            });
        }
        Ok(())
    }
}

impl RunPlan {
    /// Executes iteration `iteration` of the plan's `graph` and `schedule`
    /// on real threads and returns its wall-clock [`ExecutionTrace`].
    ///
    /// Spawns one thread per device plus one per channel for the duration
    /// of the call; the calling thread blocks until completion. Timestamps
    /// are nanoseconds since iteration start, so traces are directly
    /// comparable to simulator traces — ordering-exact, timing-real. The
    /// runtime executes no faults: [`ExecOptions::check`] refuses a plan
    /// whose configuration asks for them, before any thread starts.
    ///
    /// A stall is detected within `opts.watchdog`; the abort then drains
    /// every queue and cuts in-flight busy-waits short, so the call
    /// returns within a few milliseconds of the watchdog firing.
    ///
    /// # Errors
    ///
    /// [`SimError::UnsupportedConfig`] from [`ExecOptions::check`], and
    /// [`SimError::Stalled`] if the watchdog expires, with the outstanding
    /// ops and channel depths named.
    pub fn run_threaded(
        &self,
        graph: &Graph,
        schedule: &Schedule,
        opts: &ExecOptions,
        iteration: u64,
    ) -> Result<ExecutionTrace, SimError> {
        debug_assert!(self.covers(graph, schedule), "not this plan's graph");
        opts.check(self.config())?;
        let shared = Shared::new(graph, schedule, self, opts, iteration);

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
            for &op in &self.roots {
                shared.dispatch(op);
            }
            shared.watch()
        })?;

        Ok(shared
            .trace
            .into_inner()
            .expect("no thread panicked holding the trace")
            .finish())
    }
}

/// Per-device ready queue: a binary heap keyed by `(schedule priority,
/// tiebreak)`, so prioritized ops run lowest-number-first; unprioritized
/// ops (key `u64::MAX`) run behind them in seeded-shuffle order — the
/// arbitrary ready-queue servicing the paper attributes to DAG frameworks.
#[derive(Debug, Default)]
struct DeviceQueue {
    seq: u64,
    heap: BinaryHeap<Reverse<(u64, u64, usize)>>,
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
    /// Channel or device of every op (the plan's).
    route: &'g [Route],
    /// Rank and send pairing per transfer op (the plan's).
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
    /// Per-op completion flags (for stall diagnostics; `remaining` only
    /// counts).
    completed: Vec<AtomicBool>,
    /// Set on completion or watchdog abort; threads drain and exit.
    shutdown: AtomicBool,

    devices: Vec<(Mutex<DeviceQueue>, Condvar)>,
    channels: Vec<(Mutex<ChanQueue>, Condvar)>,

    /// Completion signal for the watchdog.
    done: (Mutex<bool>, Condvar),
    trace: Mutex<TraceBuilder>,
}

impl<'g> Shared<'g> {
    fn new(
        graph: &'g Graph,
        schedule: &'g Schedule,
        plan: &'g RunPlan,
        opts: &'g ExecOptions,
        iteration: u64,
    ) -> Self {
        let n = graph.len();
        Self {
            graph,
            schedule,
            opts,
            enforcement: plan.config().enforcement,
            route: &plan.route,
            transfers: &plan.transfers,
            service: &plan.service,
            // A fresh arbitrary order every iteration, matching the
            // paper's baseline observation (unique transfer order in
            // every run). Ranked transfers are unaffected.
            shuffle_seed: SHUFFLE_SEED ^ iteration.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            started: Instant::now(),
            indegree: plan.indegree.iter().map(|&d| AtomicU32::new(d)).collect(),
            remaining: AtomicUsize::new(n),
            completed: (0..n).map(|_| AtomicBool::new(false)).collect(),
            shutdown: AtomicBool::new(false),
            devices: (0..graph.devices().len())
                .map(|_| Default::default())
                .collect(),
            channels: (0..graph.channels().len())
                .map(|_| Default::default())
                .collect(),
            done: (Mutex::new(false), Condvar::new()),
            trace: Mutex::new(TraceBuilder::new(n)),
        }
    }

    /// Wall-clock time since iteration start, in the trace's clock domain.
    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.started.elapsed().as_nanos() as u64)
    }

    /// `modeled` on the wall clock: scaled by `opts.time_scale`.
    fn wall(&self, modeled: SimDuration) -> Duration {
        Duration::from_nanos(modeled.mul_f64(self.opts.time_scale).as_nanos())
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
        const SLEEP_CAP: Duration = Duration::from_millis(2);
        loop {
            if self.shutdown.load(Ordering::Acquire) {
                return false;
            }
            let now = Instant::now();
            if now >= deadline {
                return true;
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
        match self.transfers.recv_rank(recv) {
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
        match self.route[op.index()] {
            Route::Send(ch) => self.handoff(op, ch as usize),
            Route::Recv(ch) => {
                let (lock, cv) = &self.channels[ch as usize];
                self.enqueue_transfer(&mut lock.lock().expect("channel lock"), op);
                cv.notify_all();
            }
            Route::Compute(dev) => {
                let (lock, cv) = &self.devices[dev as usize];
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
    fn handoff(&self, send: OpId, ch: usize) {
        let mut chain = vec![send];
        if let (Some(mut r), true) = (self.transfers.rank(send), self.enforcement) {
            let (lock, _) = &self.channels[ch];
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
            self.finish();
        }
        for succ in self.graph.succs(op) {
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

    /// The watchdog: waits for completion until `opts.watchdog` has
    /// passed, then aborts with diagnostics.
    fn watch(&self) -> Result<(), SimError> {
        let deadline = self.started + self.opts.watchdog;
        let (lock, cv) = &self.done;
        let mut done = lock.lock().expect("done lock");
        while !*done {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                drop(done);
                let err = self.stall_error();
                self.finish(); // abort: release every thread
                return Err(err);
            }
            done = cv.wait_timeout(done, left).expect("done lock").0;
        }
        Ok(())
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

    /// Device thread: pop the lowest-priority ready op, busy-loop its
    /// modeled duration, record it, release successors.
    ///
    /// Shutdown is checked *before* popping, so a watchdog abort drops
    /// queued ops instead of busy-waiting through them (during normal
    /// completion the latch implies an empty queue, so nothing is lost).
    fn device_loop(&self, dev: usize) {
        let (lock, cv) = &self.devices[dev];
        loop {
            let op = {
                let mut q = lock.lock().expect("device lock");
                loop {
                    if self.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    if let Some(Reverse((_, _, op))) = q.heap.pop() {
                        break OpId::from_index(op);
                    }
                    q = cv.wait(q).expect("device lock");
                }
            };
            let start = self.now();
            let end = Duration::from_nanos(start.as_nanos()) + self.wall(self.service[op.index()]);
            if !self.wait_until(self.started + end) {
                return; // aborted mid-op
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
        loop {
            let recv = {
                let mut q = lock.lock().expect("channel lock");
                loop {
                    // Shutdown first: a watchdog abort drops queued
                    // transfers instead of flying them (see device_loop).
                    if self.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    // Each rank is queued once per recv of its ranked op
                    // (once, unless a send feeds several recvs), so under
                    // enforcement the head flies only when its rank is
                    // due: the next one, or one already flown.
                    let gate_open = q.ranked.peek().is_some_and(|Reverse((r, _))| {
                        !self.enforcement || *r <= q.next_rank_to_fly
                    });
                    if gate_open {
                        let Reverse((r, op)) = q.ranked.pop().expect("peeked entry");
                        q.next_rank_to_fly = q.next_rank_to_fly.max(r + 1);
                        break OpId::from_index(op);
                    }
                    if let Some(Reverse((_, op))) = q.unranked.pop() {
                        break OpId::from_index(op);
                    }
                    q = cv.wait(q).expect("channel lock");
                }
            };
            let wire = self.wall(self.service[recv.index()]);
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
    use crate::FaultSpec;
    use tictac_cluster::{deploy, ClusterSpec};
    use tictac_graph::{tiny_mlp, Mode};
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

    /// Iteration `iteration` under envG, on a plan built for the one run.
    fn run_iteration(
        graph: &Graph,
        schedule: &Schedule,
        opts: &ExecOptions,
        iteration: u64,
    ) -> Result<ExecutionTrace, SimError> {
        RunPlan::new(graph, schedule, &SimConfig::cloud_gpu())?
            .run_threaded(graph, schedule, opts, iteration)
    }

    #[test]
    fn baseline_iteration_completes_every_op() {
        let model = tiny_mlp(Mode::Training, 8);
        let d = deploy(&model, &ClusterSpec::new(2, 1)).unwrap();
        let trace = run_iteration(d.graph(), &no_ordering(d.graph()), &opts(), 0).unwrap();
        assert_eq!(trace.executed_ops(), d.graph().len());
        assert!(trace.makespan() > SimDuration::ZERO);
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
        let trace = run_iteration(d.graph(), &s, &opts(), 0).unwrap();
        assert_eq!(trace.recv_completion_order(d.graph(), w), expected);
    }

    #[test]
    fn transfers_on_one_channel_serialize() {
        let model = tiny_mlp(Mode::Training, 8);
        let d = deploy(&model, &ClusterSpec::new(2, 1)).unwrap();
        let trace = run_iteration(d.graph(), &no_ordering(d.graph()), &opts(), 0).unwrap();
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
        match run_iteration(d.graph(), &bad, &opts(), 0) {
            Err(SimError::ScheduleMismatch { graph_len, .. }) => {
                assert_eq!(graph_len, d.graph().len());
            }
            other => panic!("expected mismatch, got {other:?}"),
        }
    }

    /// A direct run states the runtime's rules itself, before any thread
    /// starts: a faulty config is refused, not run as a quiet iteration,
    /// and a `time_scale` no wall-clock duration replays is refused, not
    /// a panic. Each refusal reads as `SessionBuilder::build`'s.
    #[test]
    fn a_direct_run_refuses_what_the_runtime_cannot_honor() {
        let model = tiny_mlp(Mode::Training, 8);
        let d = deploy(&model, &ClusterSpec::new(2, 1)).unwrap();
        let (graph, s) = (d.graph(), no_ordering(d.graph()));
        let faulty = SimConfig::cloud_gpu().with_faults(FaultSpec::none().with_drop_prob(0.01));
        let plan = RunPlan::new(graph, &s, &faulty).unwrap();
        let refused = |run: Result<ExecutionTrace, SimError>| match run {
            Err(SimError::UnsupportedConfig { knob, reason }) => format!("{knob}: {reason}"),
            other => panic!("expected a refusal, got {other:?}"),
        };
        assert_eq!(
            refused(plan.run_threaded(graph, &s, &opts(), 0)),
            "faults: faults are simulated only; run a faulty config on the sim backend"
        );
        for time_scale in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert_eq!(
                refused(run_iteration(graph, &s, &opts_at(time_scale), 0)),
                format!("time_scale: {time_scale} is not a positive finite scale")
            );
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
        for iteration in 0..40 {
            let trace = run_iteration(d.graph(), &s, &opts_at(0.01), iteration).unwrap();
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
        let started = std::time::Instant::now();
        match run_iteration(d.graph(), &no_ordering(d.graph()), &doomed(), 0) {
            Err(SimError::Stalled { remaining, .. }) => assert!(remaining > 0),
            other => panic!("expected a stall, got {other:?}"),
        }
        assert!(
            started.elapsed() < Duration::from_millis(500),
            "abort took {:?}; threads kept draining after the watchdog",
            started.elapsed()
        );
    }

    #[test]
    fn stalled_names_outstanding_ops_and_channel_depths() {
        // Stalled must say *what* was outstanding, not just how much.
        let model = tiny_mlp(Mode::Training, 8);
        let d = deploy(&model, &ClusterSpec::new(2, 1)).unwrap();
        match run_iteration(d.graph(), &no_ordering(d.graph()), &doomed(), 0) {
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
    fn zero_priority_inversions_under_enforced_tic() {
        let model = tiny_mlp(Mode::Training, 8);
        let d = deploy(&model, &ClusterSpec::new(2, 1)).unwrap();
        let s = d.replicate_schedule(&tic(d.graph(), d.workers()[0]));
        let trace = run_iteration(d.graph(), &s, &opts(), 0).unwrap();
        let report = tictac_obs::priority_inversions(d.graph(), &trace, |op| s.priority(op));
        assert_eq!(
            report.count(),
            0,
            "enforced ranks must fly in order: {:?}",
            report.records
        );
    }
}

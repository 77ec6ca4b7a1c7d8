//! Seeded fault injection: probabilistic specifications and the concrete
//! per-iteration plans sampled from them.
//!
//! A [`FaultSpec`] describes *rates* — how likely each fault class is per
//! iteration — and the recovery policy ([`RetryPolicy`], degraded-barrier
//! timeout). A [`FaultPlan`] is one reproducible draw from that
//! specification for a particular `(seed, iteration)`: the exact channels
//! blacked out, workers crashed, stragglers slowed and shards stalled,
//! plus a keyed hash stream deciding per-attempt transfer drops. Sampling
//! is independent of any engine's noise stream, so enabling faults
//! perturbs the injected failures only, never the underlying runtime
//! variance, and a quiet spec leaves execution byte-identical to a
//! fault-free run.
//!
//! The rules of fault handling live here too, each written once beside
//! the plan it reads: the plan's [`Transition`] agenda and the event each
//! transition logs, the channels a crash darkens, the loss ladder after a
//! timeout ([`FaultPlan::after_timeout`]) and the degraded barrier's
//! closing step ([`close_at_barrier`]). The event engine enacts them in
//! virtual time, the one clock plans are sampled in. Faults are simulated
//! only: the threaded runtime executes quiet plans.

use crate::error::SimError;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tictac_graph::{ChannelId, DeviceId, Fnv1a, Graph, OpId};
use tictac_trace::{FaultEventKind, RetryPolicy, SimDuration, SimTime, TraceBuilder};

/// Stream tag separating fault sampling from any engine's noise RNG.
const FAULT_STREAM: u64 = 0xFA17_5EED_0DD5_ED17;

/// SplitMix64 finalizer: the keyed hash behind per-attempt drop decisions
/// (and the threaded runtime's seeded-shuffle pop order).
pub(crate) fn mix(seed: u64, x: u64) -> u64 {
    let mut z = seed ^ x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Probabilistic fault model of one deployment.
///
/// All probabilities are per *iteration* (per channel, worker or
/// parameter server as appropriate). The quiet default —
/// [`FaultSpec::none`] — injects nothing and leaves a backend's
/// behaviour exactly as if the fault subsystem did not exist.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Probability that any individual transfer attempt is lost on the
    /// wire (transient loss; detected by timeout, recovered by
    /// retransmit).
    pub drop_prob: f64,
    /// Probability that a channel suffers one blackout window during the
    /// iteration.
    pub blackout_prob: f64,
    /// Length of a channel blackout.
    pub blackout: SimDuration,
    /// Probability that a worker crashes once during the iteration.
    pub crash_prob: f64,
    /// Time a crashed worker is down before it recovers and re-runs lost
    /// work.
    pub crash_downtime: SimDuration,
    /// Probability that a worker is a persistent straggler for the whole
    /// iteration.
    pub straggler_prob: f64,
    /// Compute slowdown factor applied to a straggling worker (`>= 1`).
    pub straggler_factor: f64,
    /// Probability that a parameter server's update thread stalls once
    /// during the iteration.
    pub ps_stall_prob: f64,
    /// Length of a parameter-server stall.
    pub ps_stall: SimDuration,
    /// Fault onsets (blackouts, crashes, stalls) are sampled uniformly in
    /// `[0, onset_window)` of model time.
    pub onset_window: SimDuration,
    /// Loss detection and retransmit policy for dropped transfers.
    pub retry: RetryPolicy,
    /// Degraded-mode sync barrier: when set, the iteration completes at
    /// this model time even if ops are outstanding; the stragglers'
    /// updates are deferred to the next iteration. When `None`, an
    /// exhausted retry budget is a hard error.
    pub barrier_timeout: Option<SimDuration>,
}

impl FaultSpec {
    /// The quiet specification: no faults, no barrier.
    pub fn none() -> Self {
        Self {
            drop_prob: 0.0,
            blackout_prob: 0.0,
            blackout: SimDuration::from_millis(20),
            crash_prob: 0.0,
            crash_downtime: SimDuration::from_millis(100),
            straggler_prob: 0.0,
            straggler_factor: 2.0,
            ps_stall_prob: 0.0,
            ps_stall: SimDuration::from_millis(50),
            onset_window: SimDuration::from_millis(100),
            retry: RetryPolicy::grpc_default(),
            barrier_timeout: None,
        }
    }

    /// Whether this specification can never inject a fault.
    pub fn is_quiet(&self) -> bool {
        self.drop_prob == 0.0
            && self.blackout_prob == 0.0
            && self.crash_prob == 0.0
            && self.straggler_prob == 0.0
            && self.ps_stall_prob == 0.0
    }

    /// FNV-1a hash over a canonical byte encoding of every field, used by
    /// the run store to tag records with the exact fault regime they ran
    /// under. Two specs hash equal iff every field is bit-identical
    /// (floats compare by `to_bits`, so `-0.0 != 0.0` — acceptable, since
    /// specs are constructed from literals, not arithmetic).
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.u64(self.drop_prob.to_bits());
        h.u64(self.blackout_prob.to_bits());
        h.u64(self.blackout.as_nanos());
        h.u64(self.crash_prob.to_bits());
        h.u64(self.crash_downtime.as_nanos());
        h.u64(self.straggler_prob.to_bits());
        h.u64(self.straggler_factor.to_bits());
        h.u64(self.ps_stall_prob.to_bits());
        h.u64(self.ps_stall.as_nanos());
        h.u64(self.onset_window.as_nanos());
        h.u64(self.retry.timeout.as_nanos());
        h.u64(self.retry.backoff.to_bits());
        h.u64(u64::from(self.retry.max_retries));
        match self.barrier_timeout {
            None => h.u64(0),
            Some(t) => h.u64(1).u64(t.as_nanos()),
        };
        h.finish()
    }

    /// Overrides the per-attempt transfer loss probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a probability.
    pub fn with_drop_prob(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "drop_prob must be in [0,1]");
        self.drop_prob = p;
        self
    }

    /// Overrides the per-channel blackout probability and duration.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a probability.
    pub fn with_blackouts(mut self, p: f64, duration: SimDuration) -> Self {
        assert!((0.0..=1.0).contains(&p), "blackout_prob must be in [0,1]");
        self.blackout_prob = p;
        self.blackout = duration;
        self
    }

    /// Overrides the per-worker crash probability and downtime.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a probability.
    pub fn with_crashes(mut self, p: f64, downtime: SimDuration) -> Self {
        assert!((0.0..=1.0).contains(&p), "crash_prob must be in [0,1]");
        self.crash_prob = p;
        self.crash_downtime = downtime;
        self
    }

    /// Overrides the per-worker persistent-straggler probability and
    /// slowdown factor.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a probability or `factor < 1`.
    pub fn with_stragglers(mut self, p: f64, factor: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "straggler_prob must be in [0,1]");
        assert!(factor >= 1.0, "straggler_factor must be at least 1");
        self.straggler_prob = p;
        self.straggler_factor = factor;
        self
    }

    /// Overrides the per-PS stall probability and duration.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a probability.
    pub fn with_ps_stalls(mut self, p: f64, duration: SimDuration) -> Self {
        assert!((0.0..=1.0).contains(&p), "ps_stall_prob must be in [0,1]");
        self.ps_stall_prob = p;
        self.ps_stall = duration;
        self
    }

    /// Overrides the onset-sampling window.
    pub fn with_onset_window(mut self, window: SimDuration) -> Self {
        self.onset_window = window;
        self
    }

    /// Overrides the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Enables the degraded-mode barrier at `timeout`.
    pub fn with_barrier_timeout(mut self, timeout: SimDuration) -> Self {
        self.barrier_timeout = Some(timeout);
        self
    }
}

impl Default for FaultSpec {
    fn default() -> Self {
        Self::none()
    }
}

/// One channel blackout window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Blackout {
    /// The affected channel.
    pub channel: ChannelId,
    /// When the channel goes dark.
    pub at: SimTime,
    /// When it comes back.
    pub until: SimTime,
}

/// One worker crash/recover cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Crash {
    /// The crashed worker.
    pub device: DeviceId,
    /// When the worker dies.
    pub at: SimTime,
    /// When it recovers.
    pub until: SimTime,
}

/// One parameter-server stall window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stall {
    /// The stalled parameter server.
    pub device: DeviceId,
    /// When the update thread wedges.
    pub at: SimTime,
    /// When it resumes.
    pub until: SimTime,
}

/// The concrete faults of one iteration, sampled from a [`FaultSpec`].
///
/// Plans compare with `==`, so tests can assert that identical
/// `(seed, iteration)` pairs produce identical plans.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Channel blackout windows.
    pub blackouts: Vec<Blackout>,
    /// Worker crash/recover cycles.
    pub crashes: Vec<Crash>,
    /// Persistent stragglers: `(worker, slowdown factor)`.
    pub stragglers: Vec<(DeviceId, f64)>,
    /// Parameter-server stall windows.
    pub stalls: Vec<Stall>,
    /// Per-attempt transfer loss probability.
    pub drop_prob: f64,
    /// Loss detection and retransmit policy.
    pub retry: RetryPolicy,
    /// Degraded-barrier release time, if enabled.
    pub barrier_timeout: Option<SimDuration>,
    /// Seed of the keyed per-attempt drop hash (kept inside the plan so
    /// replaying a plan replays its drops).
    drop_seed: u64,
}

impl FaultPlan {
    /// The plan that injects nothing: what a quiet spec always samples.
    pub fn quiet() -> Self {
        Self {
            blackouts: Vec::new(),
            crashes: Vec::new(),
            stragglers: Vec::new(),
            stalls: Vec::new(),
            drop_prob: 0.0,
            retry: RetryPolicy::grpc_default(),
            barrier_timeout: None,
            drop_seed: 0,
        }
    }

    /// Samples the iteration's faults from `spec` for the given graph.
    ///
    /// The draw is keyed by `(seed, iteration)` on a stream separate from
    /// any engine's noise RNG, so the same arguments always yield the same
    /// plan and fault sampling never perturbs fault-free behaviour.
    pub fn sample(spec: &FaultSpec, graph: &Graph, seed: u64, iteration: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(
            seed ^ FAULT_STREAM ^ iteration.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let onset = |rng: &mut SmallRng, window: SimDuration| -> SimTime {
            if window.is_zero() {
                SimTime::ZERO
            } else {
                SimTime::from_nanos(rng.gen_range(0..window.as_nanos()))
            }
        };

        let mut blackouts = Vec::new();
        if spec.blackout_prob > 0.0 {
            for channel in graph.channels() {
                if rng.gen::<f64>() < spec.blackout_prob {
                    let at = onset(&mut rng, spec.onset_window);
                    blackouts.push(Blackout {
                        channel: channel.id(),
                        at,
                        until: at + spec.blackout,
                    });
                }
            }
        }

        let mut crashes = Vec::new();
        let mut stragglers = Vec::new();
        if spec.crash_prob > 0.0 || spec.straggler_prob > 0.0 {
            for device in graph.devices() {
                if !device.is_worker() {
                    continue;
                }
                if spec.crash_prob > 0.0 && rng.gen::<f64>() < spec.crash_prob {
                    let at = onset(&mut rng, spec.onset_window);
                    crashes.push(Crash {
                        device: device.id(),
                        at,
                        until: at + spec.crash_downtime,
                    });
                }
                if spec.straggler_prob > 0.0 && rng.gen::<f64>() < spec.straggler_prob {
                    stragglers.push((device.id(), spec.straggler_factor));
                }
            }
        }

        let mut stalls = Vec::new();
        if spec.ps_stall_prob > 0.0 {
            for device in graph.devices() {
                if device.is_worker() {
                    continue;
                }
                if rng.gen::<f64>() < spec.ps_stall_prob {
                    let at = onset(&mut rng, spec.onset_window);
                    stalls.push(Stall {
                        device: device.id(),
                        at,
                        until: at + spec.ps_stall,
                    });
                }
            }
        }

        Self {
            blackouts,
            crashes,
            stragglers,
            stalls,
            drop_prob: spec.drop_prob,
            retry: spec.retry,
            barrier_timeout: spec.barrier_timeout,
            drop_seed: rng.gen(),
        }
    }

    /// Decides whether attempt `attempt` of `recv`'s transfer is lost on
    /// the wire.
    ///
    /// A pure keyed hash of `(plan, op, attempt)` — not a sequential
    /// stream — so the decision is independent of the *order* in which
    /// transfers start. That is what lets schedules that interleave
    /// channel work very differently lose exactly the same attempts and
    /// report identical drop, timeout and retransmit counters for one
    /// plan.
    pub(crate) fn drops_attempt(&self, recv: OpId, attempt: u32) -> bool {
        if self.drop_prob <= 0.0 {
            return false;
        }
        if self.drop_prob >= 1.0 {
            return true;
        }
        let key = ((recv.index() as u64) << 32) | u64::from(attempt);
        let h = mix(self.drop_seed, key);
        // Top 53 bits → uniform in [0, 1).
        ((h >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < self.drop_prob
    }

    /// Every availability transition of the plan plus the degraded
    /// barrier, in plan order: each blackout's start and end, then each
    /// crash's, then each stall's, then the barrier. Every start carries
    /// its window's end.
    ///
    /// The event engine schedules the list as it comes, so plan order is
    /// the order its entries of one instant are processed in. A quiet plan yields nothing and allocates
    /// nothing.
    pub(crate) fn agenda(&self) -> impl Iterator<Item = (SimTime, Transition)> + '_ {
        let blackouts = self
            .blackouts
            .iter()
            .flat_map(|&Blackout { channel, at, until }| {
                [
                    (at, Transition::BlackoutStart { channel, until }),
                    (until, Transition::BlackoutEnd { channel }),
                ]
            });
        let crashes = self
            .crashes
            .iter()
            .flat_map(|&Crash { device, at, until }| {
                [
                    (at, Transition::CrashStart { device, until }),
                    (until, Transition::CrashEnd { device }),
                ]
            });
        let stalls = self.stalls.iter().flat_map(|&Stall { device, at, until }| {
            [
                (at, Transition::StallStart { device, until }),
                (until, Transition::StallEnd { device }),
            ]
        });
        let barrier = self
            .barrier_timeout
            .map(|t| (SimTime::ZERO + t, Transition::Barrier));
        blackouts.chain(crashes).chain(stalls).chain(barrier)
    }

    /// The loss ladder: attempt `attempt` of `recv`'s transfer timed out at
    /// `at`. Logs `TransferTimeout`, then decides from the retry budget
    /// and the barrier alone whether attempt `attempt + 1` flies (logging
    /// its `Retransmit`), the transfer is left to the degraded barrier, or
    /// the iteration fails. The caller counts the attempt and enacts the
    /// answer.
    pub(crate) fn after_timeout(
        &self,
        trace: &mut TraceBuilder,
        recv: OpId,
        attempt: u32,
        at: SimTime,
    ) -> AfterLoss {
        trace.push_fault(at, FaultEventKind::TransferTimeout { op: recv, attempt });
        let next = attempt + 1;
        if self.retry.attempt_allowed(next) {
            let retransmit = FaultEventKind::Retransmit {
                op: recv,
                attempt: next,
            };
            trace.push_fault(at, retransmit);
            AfterLoss::Retransmit
        } else if self.barrier_timeout.is_some() {
            AfterLoss::Abandon
        } else {
            AfterLoss::Fail(SimError::RetriesExhausted {
                op: recv,
                attempts: next,
                at,
            })
        }
    }
}

/// One entry of a [`FaultPlan`]'s agenda.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Transition {
    BlackoutStart {
        channel: ChannelId,
        until: SimTime,
    },
    BlackoutEnd {
        channel: ChannelId,
    },
    CrashStart {
        device: DeviceId,
        until: SimTime,
    },
    CrashEnd {
        device: DeviceId,
    },
    StallStart {
        device: DeviceId,
        until: SimTime,
    },
    StallEnd {
        device: DeviceId,
    },
    /// The degraded barrier's release ([`close_at_barrier`] logs it).
    Barrier,
}

impl Transition {
    /// The fault event the transition logs when it takes effect.
    pub(crate) fn event(self) -> Option<FaultEventKind> {
        Some(match self {
            Transition::BlackoutStart { channel, .. } => FaultEventKind::BlackoutStart { channel },
            Transition::BlackoutEnd { channel } => FaultEventKind::BlackoutEnd { channel },
            Transition::CrashStart { device, .. } => FaultEventKind::WorkerCrashed { device },
            Transition::CrashEnd { device } => FaultEventKind::WorkerRecovered { device },
            Transition::StallStart { device, .. } => FaultEventKind::PsStallStart { device },
            Transition::StallEnd { device } => FaultEventKind::PsStallEnd { device },
            Transition::Barrier => return None,
        })
    }
}

/// The channels a crash of `worker` takes dark for its downtime: every
/// channel it is the worker end of.
pub(crate) fn darkened_by_crash(
    graph: &Graph,
    worker: DeviceId,
) -> impl Iterator<Item = usize> + '_ {
    (0..graph.channels().len()).filter(move |&ch| graph.channels()[ch].worker() == worker)
}

/// What an executor does with a transfer after a loss timeout.
#[derive(Debug)]
pub(crate) enum AfterLoss {
    /// Requeue it under the channel's normal discipline.
    Retransmit,
    /// Leave it incomplete: the degraded barrier defers it.
    Abandon,
    /// Give the iteration up.
    Fail(SimError),
}

/// The degraded barrier's closing step at `at`: logs every op of `undone`
/// as deferred, then `BarrierDegraded`, and raises the makespan to `at`.
/// Nothing at all if every op made it in before the barrier.
pub(crate) fn close_at_barrier(
    trace: &mut TraceBuilder,
    at: SimTime,
    undone: impl IntoIterator<Item = OpId>,
) {
    let mut remaining = 0;
    for op in undone {
        trace.push_fault(at, FaultEventKind::DeferredOp { op });
        remaining += 1;
    }
    if remaining > 0 {
        trace.push_fault(at, FaultEventKind::BarrierDegraded { remaining });
        trace.raise_makespan(at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tictac_cluster::{deploy, ClusterSpec};
    use tictac_graph::{tiny_mlp, Mode};

    fn graph() -> tictac_graph::Graph {
        deploy(&tiny_mlp(Mode::Training, 8), &ClusterSpec::new(3, 2))
            .unwrap()
            .graph()
            .clone()
    }

    #[test]
    fn fingerprint_tracks_every_field() {
        let base = FaultSpec::none();
        assert_eq!(base.fingerprint(), FaultSpec::none().fingerprint());
        let variants = [
            base.clone().with_drop_prob(0.1),
            base.clone()
                .with_blackouts(0.2, SimDuration::from_millis(5)),
            base.clone().with_crashes(0.3, SimDuration::from_millis(50)),
            base.clone().with_stragglers(0.4, 3.0),
            base.clone()
                .with_ps_stalls(0.5, SimDuration::from_millis(10)),
            base.clone()
                .with_barrier_timeout(SimDuration::from_millis(200)),
        ];
        let mut fps: Vec<u64> = variants.iter().map(FaultSpec::fingerprint).collect();
        fps.push(base.fingerprint());
        let distinct: std::collections::HashSet<u64> = fps.iter().copied().collect();
        assert_eq!(distinct.len(), fps.len(), "fingerprint collision: {fps:?}");
    }

    #[test]
    fn quiet_spec_samples_quiet_plans() {
        let g = graph();
        let quiet = |p: &FaultPlan| {
            p.blackouts.is_empty()
                && p.crashes.is_empty()
                && p.stragglers.is_empty()
                && p.stalls.is_empty()
                && p.drop_prob == 0.0
                && p.barrier_timeout.is_none()
        };
        assert!(quiet(&FaultPlan::sample(&FaultSpec::none(), &g, 1, 0)));
        assert!(FaultSpec::none().is_quiet());
        assert!(quiet(&FaultPlan::quiet()));
    }

    #[test]
    fn sampling_is_deterministic_per_seed_and_iteration() {
        let g = graph();
        let spec = FaultSpec::none()
            .with_drop_prob(0.1)
            .with_blackouts(0.8, SimDuration::from_millis(5))
            .with_crashes(0.5, SimDuration::from_millis(50))
            .with_stragglers(0.5, 3.0)
            .with_ps_stalls(0.5, SimDuration::from_millis(10));
        assert!(!spec.is_quiet());
        let a = FaultPlan::sample(&spec, &g, 7, 3);
        let b = FaultPlan::sample(&spec, &g, 7, 3);
        assert_eq!(a, b);
        let c = FaultPlan::sample(&spec, &g, 7, 4);
        let d = FaultPlan::sample(&spec, &g, 8, 3);
        assert!(a != c || a != d, "different keys should differ");
    }

    #[test]
    fn certain_faults_hit_every_target() {
        let g = graph();
        let spec = FaultSpec::none()
            .with_blackouts(1.0, SimDuration::from_millis(1))
            .with_crashes(1.0, SimDuration::from_millis(1))
            .with_stragglers(1.0, 2.5)
            .with_ps_stalls(1.0, SimDuration::from_millis(1));
        let plan = FaultPlan::sample(&spec, &g, 1, 0);
        let workers = g.workers().count();
        let servers = g.parameter_servers().count();
        assert_eq!(plan.blackouts.len(), g.channels().len());
        assert_eq!(plan.crashes.len(), workers);
        assert_eq!(plan.stragglers.len(), workers);
        assert_eq!(plan.stalls.len(), servers);
        for b in &plan.blackouts {
            assert!(b.until > b.at);
            assert!(b.at.as_nanos() < spec.onset_window.as_nanos());
        }
    }

    #[test]
    fn drop_decisions_are_keyed_and_order_independent() {
        let g = graph();
        let spec = FaultSpec::none().with_drop_prob(0.5);
        let plan = FaultPlan::sample(&spec, &g, 42, 0);
        let op = |i: usize| OpId::from_index(i);
        // The decision for one (op, attempt) key never changes, however
        // many times or in whatever order a backend asks.
        let forward: Vec<bool> = (0..64).map(|i| plan.drops_attempt(op(i), 0)).collect();
        let reverse: Vec<bool> = (0..64)
            .rev()
            .map(|i| plan.drops_attempt(op(i), 0))
            .collect();
        assert_eq!(forward, reverse.into_iter().rev().collect::<Vec<_>>());
        // With p = 0.5 across 64 ops × 4 attempts, both outcomes appear.
        let outcomes: Vec<bool> = (0..64)
            .flat_map(|i| (0..4).map(move |a| (i, a)))
            .map(|(i, a)| plan.drops_attempt(op(i), a))
            .collect();
        assert!(outcomes.iter().any(|&d| d) && outcomes.iter().any(|&d| !d));
        // Extremes never consult the hash.
        let certain = FaultPlan::sample(&spec.clone().with_drop_prob(1.0), &g, 42, 0);
        assert!((0..32).all(|i| certain.drops_attempt(op(i), 0)));
        assert!((0..32).all(|i| !FaultPlan::quiet().drops_attempt(op(i), 0)));
    }

    /// The plan's transitions come in plan order — blackouts, crashes,
    /// stalls, barrier — not sorted by instant: the engine schedules them
    /// as listed, so same-instant entries take effect in this order.
    #[test]
    fn agenda_lists_transitions_in_plan_order() {
        let t = SimTime::from_nanos;
        let (ch, w, ps) = (
            ChannelId::from_index(0),
            DeviceId::from_index(1),
            DeviceId::from_index(0),
        );
        let mut plan = FaultPlan::quiet();
        assert_eq!(plan.agenda().count(), 0);
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
        let agenda: Vec<_> = plan.agenda().collect();
        assert_eq!(
            agenda,
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
    }

    #[test]
    #[should_panic(expected = "drop_prob")]
    fn rejects_invalid_drop_probability() {
        FaultSpec::none().with_drop_prob(1.5);
    }
}

//! Per-iteration metrics derived from execution traces.
//!
//! These are trace-level summaries: they depend only on the graph, the
//! timing primitives and the [`ExecutionTrace`] itself, so any execution
//! backend (the discrete-event simulator or the threaded runtime) can be
//! analyzed with them.

use tictac_graph::{DeviceId, Graph};
use tictac_timing::{SimDuration, SimTime};

use crate::{ExecutionTrace, FaultEvent, FaultEventKind};

/// Tallies of fault and recovery activity in one or more iterations,
/// derived from the [`FaultEvent`] stream of a trace. All-zero for a
/// fault-free run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Transfer attempts lost on the wire (initial sends and retransmits).
    pub drops: u64,
    /// Loss-detection timeouts that fired.
    pub timeouts: u64,
    /// Retransmits issued after a timeout.
    pub retransmits: u64,
    /// Channel blackouts that started.
    pub blackouts: u64,
    /// Worker crashes that started.
    pub crashes: u64,
    /// Parameter-server stalls that started.
    pub ps_stalls: u64,
    /// Persistent stragglers applied this iteration.
    pub stragglers: u64,
    /// Ops left incomplete when a degraded barrier released the iteration.
    pub deferred_ops: u64,
    /// Iterations released by a degraded barrier with work outstanding.
    pub degraded_barriers: u64,
}

impl FaultCounters {
    /// Tallies the fault events of one trace.
    pub fn from_trace(trace: &ExecutionTrace) -> Self {
        Self::from_events(trace.fault_events())
    }

    /// Tallies a raw fault-event stream.
    pub fn from_events(events: &[FaultEvent]) -> Self {
        let mut c = Self::default();
        for e in events {
            match e.kind {
                FaultEventKind::TransferDropped { .. } => c.drops += 1,
                FaultEventKind::TransferTimeout { .. } => c.timeouts += 1,
                FaultEventKind::Retransmit { .. } => c.retransmits += 1,
                FaultEventKind::BlackoutStart { .. } => c.blackouts += 1,
                FaultEventKind::WorkerCrashed { .. } => c.crashes += 1,
                FaultEventKind::PsStallStart { .. } => c.ps_stalls += 1,
                FaultEventKind::StragglerApplied { .. } => c.stragglers += 1,
                FaultEventKind::DeferredOp { .. } => c.deferred_ops += 1,
                FaultEventKind::BarrierDegraded { .. } => c.degraded_barriers += 1,
                FaultEventKind::BlackoutEnd { .. }
                | FaultEventKind::WorkerRecovered { .. }
                | FaultEventKind::PsStallEnd { .. } => {}
            }
        }
        c
    }

    /// Tallies fault events by *name* — the `FaultEventKind` variant
    /// names, exactly as the Perfetto exporter emits them as
    /// `cat:"fault"` instants. Unknown names are ignored, and the
    /// End/Recovered variants do not increment, mirroring
    /// [`from_events`](Self::from_events); counters rebuilt from an
    /// exported trace therefore equal the trace-derived ones.
    pub fn from_event_names<'a>(names: impl IntoIterator<Item = &'a str>) -> Self {
        let mut c = Self::default();
        for name in names {
            match name {
                "TransferDropped" => c.drops += 1,
                "TransferTimeout" => c.timeouts += 1,
                "Retransmit" => c.retransmits += 1,
                "BlackoutStart" => c.blackouts += 1,
                "WorkerCrashed" => c.crashes += 1,
                "PsStallStart" => c.ps_stalls += 1,
                "StragglerApplied" => c.stragglers += 1,
                "DeferredOp" => c.deferred_ops += 1,
                "BarrierDegraded" => c.degraded_barriers += 1,
                _ => {}
            }
        }
        c
    }

    /// `true` when nothing fault-related happened.
    pub fn is_clean(&self) -> bool {
        *self == Self::default()
    }

    /// Accumulates another iteration's counters into this one.
    pub fn merge(&mut self, other: &Self) {
        self.drops += other.drops;
        self.timeouts += other.timeouts;
        self.retransmits += other.retransmits;
        self.blackouts += other.blackouts;
        self.crashes += other.crashes;
        self.ps_stalls += other.ps_stalls;
        self.stragglers += other.stragglers;
        self.deferred_ops += other.deferred_ops;
        self.degraded_barriers += other.degraded_barriers;
    }

    /// The counters as one JSON object (stable key order), for report
    /// files and log lines. Hand-rolled — the values are plain `u64`s, so
    /// no serializer dependency is warranted.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"drops\":{},\"timeouts\":{},\"retransmits\":{},\"blackouts\":{},\
             \"crashes\":{},\"ps_stalls\":{},\"stragglers\":{},\"deferred_ops\":{},\
             \"degraded_barriers\":{}}}",
            self.drops,
            self.timeouts,
            self.retransmits,
            self.blackouts,
            self.crashes,
            self.ps_stalls,
            self.stragglers,
            self.deferred_ops,
            self.degraded_barriers
        )
    }
}

impl std::fmt::Display for FaultCounters {
    /// Compact human summary: only non-zero classes are listed, and a
    /// clean run prints `clean`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_clean() {
            return write!(f, "clean");
        }
        let mut sep = "";
        let mut item = |f: &mut std::fmt::Formatter<'_>, name: &str, v: u64| {
            if v > 0 {
                let r = write!(f, "{sep}{name} {v}");
                sep = " ";
                r
            } else {
                Ok(())
            }
        };
        item(f, "drops", self.drops)?;
        item(f, "timeouts", self.timeouts)?;
        item(f, "rexmits", self.retransmits)?;
        item(f, "blackouts", self.blackouts)?;
        item(f, "crashes", self.crashes)?;
        item(f, "ps_stalls", self.ps_stalls)?;
        item(f, "stragglers", self.stragglers)?;
        item(f, "deferred", self.deferred_ops)?;
        item(f, "degraded", self.degraded_barriers)
    }
}

/// Summary of one executed iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationMetrics {
    /// The iteration makespan (all ops, including the PS update tail; for
    /// a degraded iteration, the barrier release time).
    pub makespan: SimDuration,
    /// Per-worker finish times (completion of the worker's last op), in
    /// worker order.
    pub worker_finish: Vec<SimTime>,
    /// Straggler time as a percentage of the iteration (§6.3): the longest
    /// any worker waited for the slowest worker, over the makespan.
    pub straggler_pct: f64,
    /// Fault and recovery activity observed this iteration.
    pub faults: FaultCounters,
    /// Percentage of the graph's ops that actually executed — below 100
    /// only when a degraded barrier deferred work.
    pub goodput_pct: f64,
}

impl IterationMetrics {
    /// Throughput in samples/second for a global batch of
    /// `batch_per_worker × workers`.
    pub fn throughput(&self, batch_per_worker: usize, workers: usize) -> f64 {
        (batch_per_worker * workers) as f64 / self.makespan.as_secs_f64()
    }
}

/// Computes the straggler percentage from per-worker finish times and the
/// iteration makespan: `max_w (barrier − finish_w) / makespan × 100`, where
/// the barrier is the slowest worker's finish.
pub fn straggler_pct(worker_finish: &[SimTime], makespan: SimDuration) -> f64 {
    if worker_finish.len() < 2 || makespan.is_zero() {
        return 0.0;
    }
    let barrier = worker_finish
        .iter()
        .copied()
        .max()
        .expect("non-empty worker list");
    let max_wait = worker_finish
        .iter()
        .map(|&f| barrier - f)
        .max()
        .expect("non-empty worker list");
    100.0 * max_wait.as_secs_f64() / makespan.as_secs_f64()
}

/// Derives iteration metrics from a trace.
///
/// `workers` are the worker devices, in worker-index order.
pub fn analyze(graph: &Graph, workers: &[DeviceId], trace: &ExecutionTrace) -> IterationMetrics {
    let finishes = trace.device_finishes(graph);
    let worker_finish: Vec<SimTime> = workers
        .iter()
        .map(|&w| finishes[w.index()].unwrap_or(SimTime::ZERO))
        .collect();
    let goodput_pct = if graph.is_empty() {
        100.0
    } else {
        100.0 * trace.executed_ops() as f64 / graph.len() as f64
    };
    IterationMetrics {
        makespan: trace.makespan(),
        straggler_pct: straggler_pct(&worker_finish, trace.makespan()),
        worker_finish,
        faults: FaultCounters::from_trace(trace),
        goodput_pct,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tictac_graph::OpId;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn straggler_math() {
        let makespan = SimDuration::from_nanos(1000);
        // Fastest finishes at 400, slowest at 900: wait = 500 = 50%.
        assert_eq!(straggler_pct(&[t(900), t(400)], makespan), 50.0);
        // Identical workers: no straggling.
        assert_eq!(straggler_pct(&[t(700), t(700)], makespan), 0.0);
        // Single worker: straggling undefined, reported as zero.
        assert_eq!(straggler_pct(&[t(900)], makespan), 0.0);
    }

    #[test]
    fn counters_tally_fault_events() {
        let op = OpId::from_index(0);
        let at = t(10);
        let events = [
            FaultEvent {
                at,
                kind: FaultEventKind::TransferDropped { op, attempt: 0 },
            },
            FaultEvent {
                at,
                kind: FaultEventKind::TransferTimeout { op, attempt: 0 },
            },
            FaultEvent {
                at,
                kind: FaultEventKind::Retransmit { op, attempt: 1 },
            },
            FaultEvent {
                at,
                kind: FaultEventKind::DeferredOp { op },
            },
            FaultEvent {
                at,
                kind: FaultEventKind::BarrierDegraded { remaining: 1 },
            },
        ];
        let c = FaultCounters::from_events(&events);
        assert_eq!(c.drops, 1);
        assert_eq!(c.timeouts, 1);
        assert_eq!(c.retransmits, 1);
        assert_eq!(c.deferred_ops, 1);
        assert_eq!(c.degraded_barriers, 1);
        assert!(!c.is_clean());
        let mut total = FaultCounters::default();
        total.merge(&c);
        total.merge(&c);
        assert_eq!(total.drops, 2);
        assert_eq!(total.degraded_barriers, 2);
    }

    #[test]
    fn counters_render_as_text_and_json() {
        assert_eq!(FaultCounters::default().to_string(), "clean");
        let c = FaultCounters {
            drops: 3,
            timeouts: 3,
            retransmits: 2,
            blackouts: 0,
            crashes: 1,
            ps_stalls: 0,
            stragglers: 0,
            deferred_ops: 4,
            degraded_barriers: 1,
        };
        assert_eq!(
            c.to_string(),
            "drops 3 timeouts 3 rexmits 2 crashes 1 deferred 4 degraded 1"
        );
        assert_eq!(
            c.to_json(),
            "{\"drops\":3,\"timeouts\":3,\"retransmits\":2,\"blackouts\":0,\
             \"crashes\":1,\"ps_stalls\":0,\"stragglers\":0,\"deferred_ops\":4,\
             \"degraded_barriers\":1}"
        );
    }
}

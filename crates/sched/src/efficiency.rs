//! Scheduling-efficiency metric (§3.2 of the paper).
//!
//! For a set of ops with measured (or predicted) durations on a set of
//! resources:
//!
//! * Equation 1 — the **upper** makespan bound `U = Σ Time(op)`: fully
//!   sequential execution, one resource busy at a time.
//! * Equation 2 — the **lower** makespan bound
//!   `L = max_d Σ_{op on d} Time(op)`: every resource perfectly busy; the
//!   bottleneck resource's load.
//! * Equation 3 — **scheduling efficiency** `E = (U − m) / (U − L)` for a
//!   measured makespan `m`: 1 is a perfect ordering, 0 the worst.
//! * Equation 4 — **speedup potential** `S = (U − L) / L`: the maximum
//!   throughput gain a perfect schedule can deliver over the worst one.
//!
//! [`realized_efficiency`] applies them to an executed iteration, per
//! worker partition, with the trace's *observed* durations.

use tictac_graph::{DeviceId, Graph, OpId, Resource};
use tictac_trace::{ExecutionTrace, SimDuration, SimTime};

/// The makespan bounds and derived metrics for one iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EfficiencyReport {
    /// Equation 1: sequential-execution upper bound `U`.
    pub upper: SimDuration,
    /// Equation 2: bottleneck-resource lower bound `L`.
    pub lower: SimDuration,
    /// The measured makespan `m`.
    pub makespan: SimDuration,
    /// Equation 3: scheduling efficiency `E ∈ [0, 1]` for achievable
    /// makespans (not clamped; see [`EfficiencyReport::efficiency_clamped`]).
    pub efficiency: f64,
    /// Equation 4: speedup potential `S`.
    pub speedup_potential: f64,
}

impl EfficiencyReport {
    /// Efficiency clamped to `[0, 1]` (measurement noise can push the raw
    /// value slightly outside the bounds).
    pub fn efficiency_clamped(&self) -> f64 {
        self.efficiency.clamp(0.0, 1.0)
    }
}

/// Equation 1: `U = Σ Time(op)`.
pub(crate) fn upper_makespan<I>(durations: I) -> SimDuration
where
    I: IntoIterator<Item = SimDuration>,
{
    durations.into_iter().sum()
}

/// Total duration per resource, as one dense vector: compute units by
/// device index, then channels by channel index, each class spanning only
/// the index range `ops` touch. A worker partition covers one device and
/// its own channels, so the cost follows the partition, not the cluster.
fn resource_loads(
    graph: &Graph,
    ops: &[OpId],
    mut duration: impl FnMut(OpId) -> SimDuration,
) -> Vec<SimDuration> {
    let slot = |op: OpId| match graph.resource(op) {
        Resource::Compute(d) => (0, d.index()),
        Resource::Channel(c) => (1, c.index()),
    };
    let (mut lo, mut hi) = ([usize::MAX; 2], [0usize; 2]);
    for &op in ops {
        let (class, i) = slot(op);
        lo[class] = lo[class].min(i);
        hi[class] = hi[class].max(i + 1);
    }
    let devices = hi[0].saturating_sub(lo[0]);
    let base = [0, devices];
    let mut loads = vec![SimDuration::ZERO; devices + hi[1].saturating_sub(lo[1])];
    for &op in ops {
        let (class, i) = slot(op);
        loads[base[class] + i - lo[class]] += duration(op);
    }
    loads
}

/// Computes the full efficiency report (Equations 1–4) for `ops` with the
/// observed iteration `makespan`.
///
/// When `U == L` there is no scheduling freedom at all; efficiency is
/// defined as 1 and speedup potential as 0.
pub fn evaluate(
    graph: &Graph,
    ops: &[OpId],
    duration: impl FnMut(OpId) -> SimDuration,
    makespan: SimDuration,
) -> EfficiencyReport {
    // Both bounds from one walk: `U` is the sum of the per-resource loads
    // whose maximum is `L`.
    let loads = resource_loads(graph, ops, duration);
    let upper = upper_makespan(loads.iter().copied());
    let lower = loads.into_iter().max().unwrap_or_default();
    let span = upper.saturating_sub(lower);
    let efficiency = if span.is_zero() {
        1.0
    } else {
        (upper.as_secs_f64() - makespan.as_secs_f64()) / span.as_secs_f64()
    };
    let speedup_potential = if lower.is_zero() {
        0.0
    } else {
        span.as_secs_f64() / lower.as_secs_f64()
    };
    EfficiencyReport {
        upper,
        lower,
        makespan,
        efficiency,
        speedup_potential,
    }
}

/// One worker's observed makespan bounds (paper Equations 1–3 with
/// measured durations).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkerEfficiency {
    /// The worker.
    pub device: DeviceId,
    /// Equation 1: `U = Σ Time(op)` over the worker's ops.
    pub upper: SimDuration,
    /// Equation 2: the bottleneck resource's load `L`.
    pub lower: SimDuration,
    /// When the worker's last op finished.
    pub finish: SimDuration,
    /// Equation 3: `E = (U − m) / (U − L)`, clamped to `[0, 1]`.
    pub efficiency: f64,
    /// Equation 4: `S = (U − L) / L`.
    pub speedup_potential: f64,
}

/// Realized scheduling efficiency of one iteration, per worker and
/// overall (the slowest worker's).
#[derive(Debug, Clone, PartialEq)]
pub struct RealizedEfficiency {
    /// Per-worker reports, in worker order.
    pub per_worker: Vec<WorkerEfficiency>,
    /// The iteration's efficiency: the minimum clamped per-worker value
    /// (1.0 when there are no workers).
    pub efficiency: f64,
    /// The last worker's speedup potential.
    pub speedup_potential: f64,
}

/// Computes the paper's scheduling-efficiency metric (§3.2, Equations
/// 1–4) from *observed* per-op durations, per worker partition: [`evaluate`]
/// over each worker's ops with `trace.duration` as the duration oracle
/// and the worker's device-finish time as the measured makespan.
pub fn realized_efficiency(graph: &Graph, trace: &ExecutionTrace) -> RealizedEfficiency {
    let finishes = trace.device_finishes(graph);
    let workers: Vec<DeviceId> = graph.workers().collect();
    let finish: Vec<SimTime> = workers
        .iter()
        .map(|w| finishes[w.index()].unwrap_or(SimTime::ZERO))
        .collect();
    realized_efficiency_with(graph, trace, &workers, &finish)
}

/// [`realized_efficiency`] over `workers` whose finish times are already
/// known (`finish[i]` is `workers[i]`'s, as `tictac_trace::analyze`
/// reports them), so the trace is not walked for them again.
pub fn realized_efficiency_with(
    graph: &Graph,
    trace: &ExecutionTrace,
    workers: &[DeviceId],
    finish: &[SimTime],
) -> RealizedEfficiency {
    let mut per_worker = Vec::with_capacity(workers.len());
    let mut efficiency = 1.0_f64;
    let mut speedup_potential = 0.0;
    for (&device, finish) in workers.iter().zip(finish) {
        let finish = finish.duration_since(SimTime::ZERO);
        let report = evaluate(
            graph,
            graph.device_ops(device),
            |op| trace.duration(op),
            finish,
        );
        efficiency = efficiency.min(report.efficiency_clamped());
        speedup_potential = report.speedup_potential;
        per_worker.push(WorkerEfficiency {
            device,
            upper: report.upper,
            lower: report.lower,
            finish,
            efficiency: report.efficiency_clamped(),
            speedup_potential: report.speedup_potential,
        });
    }
    RealizedEfficiency {
        per_worker,
        efficiency,
        speedup_potential,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tictac_graph::{Cost, GraphBuilder, OpKind};
    use tictac_trace::TraceBuilder;

    /// Two resources: channel carries two 10us recvs, compute runs two
    /// 10us ops. U = 40us, L = 20us.
    fn balanced() -> (Graph, Vec<OpId>) {
        let mut b = GraphBuilder::new();
        let w = b.add_worker("w0");
        let ps = b.add_parameter_server("ps0");
        let ch = b.add_channel(w, ps);
        let p1 = b.add_param("p1", 10);
        let p2 = b.add_param("p2", 10);
        let r1 = b.add_op("r1", w, OpKind::recv(p1, ch), Cost::bytes(10), &[]);
        let r2 = b.add_op("r2", w, OpKind::recv(p2, ch), Cost::bytes(10), &[]);
        let c1 = b.add_op("c1", w, OpKind::Compute, Cost::flops(1.0), &[r1]);
        let c2 = b.add_op("c2", w, OpKind::Compute, Cost::flops(1.0), &[c1, r2]);
        let g = b.build().unwrap();
        (g, vec![r1, r2, c1, c2])
    }

    fn ten_us(_: OpId) -> SimDuration {
        SimDuration::from_micros(10)
    }

    #[test]
    fn bounds_match_hand_computation() {
        let (g, ops) = balanced();
        assert_eq!(
            upper_makespan(ops.iter().map(|_| SimDuration::from_micros(10))),
            SimDuration::from_micros(40)
        );
        let r = evaluate(&g, &ops, ten_us, SimDuration::from_micros(30));
        assert_eq!(r.upper, SimDuration::from_micros(40));
        assert_eq!(r.lower, SimDuration::from_micros(20));
    }

    #[test]
    fn perfect_overlap_scores_one() {
        let (g, ops) = balanced();
        let r = evaluate(&g, &ops, ten_us, SimDuration::from_micros(20));
        assert_eq!(r.efficiency, 1.0);
        assert_eq!(r.speedup_potential, 1.0); // (40-20)/20: up to 2x
    }

    #[test]
    fn fully_sequential_scores_zero() {
        let (g, ops) = balanced();
        let r = evaluate(&g, &ops, ten_us, SimDuration::from_micros(40));
        assert_eq!(r.efficiency, 0.0);
    }

    #[test]
    fn halfway_scores_half() {
        let (g, ops) = balanced();
        let r = evaluate(&g, &ops, ten_us, SimDuration::from_micros(30));
        assert!((r.efficiency - 0.5).abs() < 1e-12);
    }

    #[test]
    fn clamping_handles_noise() {
        let (g, ops) = balanced();
        let r = evaluate(&g, &ops, ten_us, SimDuration::from_micros(45));
        assert!(r.efficiency < 0.0);
        assert_eq!(r.efficiency_clamped(), 0.0);
    }

    #[test]
    fn degenerate_single_resource_has_no_freedom() {
        // Everything on one compute resource: U == L.
        let mut b = GraphBuilder::new();
        let w = b.add_worker("w0");
        let a = b.add_op("a", w, OpKind::Compute, Cost::flops(1.0), &[]);
        let c = b.add_op("c", w, OpKind::Compute, Cost::flops(1.0), &[a]);
        let g = b.build().unwrap();
        let r = evaluate(&g, &[a, c], ten_us, SimDuration::from_micros(20));
        assert_eq!(r.efficiency, 1.0);
        assert_eq!(r.speedup_potential, 0.0);
    }

    #[test]
    fn empty_op_set_is_harmless() {
        let (g, _) = balanced();
        let r = evaluate(&g, &[], ten_us, SimDuration::ZERO);
        assert_eq!(r.upper, SimDuration::ZERO);
        assert_eq!(r.lower, SimDuration::ZERO);
        assert_eq!(r.efficiency, 1.0);
        assert_eq!(r.speedup_potential, 0.0);
    }

    #[test]
    fn realized_efficiency_matches_hand_computation() {
        let (g, ops) = balanced();
        let t = SimTime::from_nanos;
        let mut tb = TraceBuilder::new(g.len());
        // Perfect overlap: transfers 0-100/100-300, computes 100-200/300-400.
        tb.record(ops[0], t(0), t(100));
        tb.record(ops[1], t(100), t(300));
        tb.record(ops[2], t(100), t(200));
        tb.record(ops[3], t(300), t(400));
        let r = realized_efficiency(&g, &tb.finish());
        // U = 100+200+100+100 = 500, L = max(channel 300, compute 200) = 300,
        // m = 400 → E = (500-400)/(500-300) = 0.5, S = 200/300.
        assert_eq!(r.per_worker.len(), 1);
        assert_eq!(r.per_worker[0].upper, SimDuration::from_nanos(500));
        assert_eq!(r.per_worker[0].lower, SimDuration::from_nanos(300));
        assert!((r.efficiency - 0.5).abs() < 1e-12);
        assert!((r.speedup_potential - 2.0 / 3.0).abs() < 1e-12);
    }
}

//! Time oracles: predicted per-op execution times.

use crate::platform::Platform;
use crate::time::SimDuration;
use tictac_graph::{Graph, OpId, OpKind};

/// Predicts the execution time of each op assuming a dedicated resource
/// (the paper's `Time(op)`, §3.1).
///
/// The trait is object-safe; schedulers take `&dyn TimeOracle`.
pub trait TimeOracle {
    /// Predicted duration of `op` in `graph`.
    fn duration(&self, graph: &Graph, op: OpId) -> SimDuration;

    /// Sum of predicted durations over all ops — the upper makespan bound
    /// `U` of Equation 1 when applied to a partition.
    fn total(&self, graph: &Graph) -> SimDuration {
        graph.op_ids().map(|id| self.duration(graph, id)).sum()
    }
}

impl<T: TimeOracle + ?Sized> TimeOracle for &T {
    fn duration(&self, graph: &Graph, op: OpId) -> SimDuration {
        (**self).duration(graph, op)
    }
}

impl<T: TimeOracle + ?Sized> TimeOracle for Box<T> {
    fn duration(&self, graph: &Graph, op: OpId) -> SimDuration {
        (**self).duration(graph, op)
    }
}

/// The *general time oracle* of Equation 5, used by TIC: `recv` ops cost
/// one unit, every other op costs zero. Only relative magnitudes matter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GeneralOracle;

impl GeneralOracle {
    /// The unit cost assigned to a `recv`.
    pub const UNIT: SimDuration = SimDuration::from_micros(1);
}

impl TimeOracle for GeneralOracle {
    fn duration(&self, graph: &Graph, op: OpId) -> SimDuration {
        if graph.op(op).is_recv() {
            GeneralOracle::UNIT
        } else {
            SimDuration::ZERO
        }
    }
}

/// A platform cost model: translates op cost annotations into durations
/// using calibrated hardware constants.
///
/// * compute / aggregate / read / update → launch overhead + flops at the
///   device's throughput,
/// * `recv` → latency + bytes at channel bandwidth (the wire time of the
///   transfer is attributed to the receiving end),
/// * `send` → a fixed small hand-off cost.
#[derive(Debug, Clone, PartialEq)]
pub struct CostOracle {
    platform: Platform,
}

impl CostOracle {
    /// Cost attributed to a `send` op (hand-off to the channel).
    pub(crate) const SEND_COST: SimDuration = SimDuration::from_micros(1);

    /// Creates an oracle for the given platform.
    pub fn new(platform: Platform) -> Self {
        Self { platform }
    }

    /// The underlying platform.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }
}

impl TimeOracle for CostOracle {
    fn duration(&self, graph: &Graph, op: OpId) -> SimDuration {
        // Heterogeneity: flops scale by the device's speed factor and wire
        // time by the channel's bandwidth factor. Both divisions are exact
        // for the uniform factor 1.0 (IEEE-754: `x / 1.0 == x` bitwise),
        // so homogeneous graphs keep byte-identical durations.
        let o = graph.op(op);
        match o.kind() {
            OpKind::Recv { channel, .. } => self
                .platform
                .transfer_time_scaled(o.cost().bytes, 1.0 / graph.channel_bandwidth(channel)),
            OpKind::Send { .. } => CostOracle::SEND_COST,
            OpKind::Compute => {
                let flops = o.cost().flops / graph.device_speed(o.device());
                if graph.device(o.device()).is_worker() {
                    self.platform.worker_compute_time(flops)
                } else {
                    self.platform.ps_compute_time(flops)
                }
            }
            OpKind::Aggregate { .. } | OpKind::Read { .. } | OpKind::Update { .. } => {
                let flops = o.cost().flops / graph.device_speed(o.device());
                self.platform.ps_compute_time(flops)
            }
        }
    }
}

/// A measured per-op profile: the paper's tracing-based oracle.
///
/// The paper's time-oracle estimator executes each op five times and takes
/// the **minimum** of the measured runs (§5) — the minimum filters out
/// queueing delay and interference, approximating the dedicated-resource
/// time the scheduling problem is defined over. [`estimate_profile`]
/// builds one from warm-up traces.
///
/// [`estimate_profile`]: crate::estimate_profile
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeasuredProfile {
    durations: Vec<SimDuration>,
}

impl MeasuredProfile {
    /// Builds a profile from per-run, per-op measurements, taking the
    /// minimum across runs for every op.
    ///
    /// # Panics
    ///
    /// Panics if `runs` is empty or the runs have inconsistent lengths.
    pub(crate) fn from_runs(runs: &[Vec<SimDuration>]) -> Self {
        assert!(!runs.is_empty(), "at least one run is required");
        let n = runs[0].len();
        assert!(
            runs.iter().all(|r| r.len() == n),
            "all runs must cover the same ops"
        );
        let durations = (0..n)
            .map(|i| runs.iter().map(|r| r[i]).min().expect("non-empty runs"))
            .collect();
        Self { durations }
    }

    /// Builds a profile directly from one duration per op.
    pub fn from_durations(durations: Vec<SimDuration>) -> Self {
        Self { durations }
    }

    /// The profiled duration of `op`, or zero if unprofiled.
    pub fn get(&self, op: OpId) -> SimDuration {
        self.durations
            .get(op.index())
            .copied()
            .unwrap_or(SimDuration::ZERO)
    }
}

impl TimeOracle for MeasuredProfile {
    fn duration(&self, _graph: &Graph, op: OpId) -> SimDuration {
        self.get(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tictac_graph::{Cost, GraphBuilder, OpKind};

    fn sample_graph() -> (Graph, OpId, OpId, OpId) {
        let mut b = GraphBuilder::new();
        let w = b.add_worker("w0");
        let ps = b.add_parameter_server("ps0");
        let ch = b.add_channel(w, ps);
        let p = b.add_param("p", 1 << 20);
        let recv = b.add_op("recv", w, OpKind::recv(p, ch), Cost::bytes(1 << 20), &[]);
        let comp = b.add_op("comp", w, OpKind::Compute, Cost::flops(3.0e9), &[recv]);
        let send = b.add_op(
            "send",
            w,
            OpKind::send(p, ch),
            Cost::bytes(1 << 20),
            &[comp],
        );
        (b.build().unwrap(), recv, comp, send)
    }

    #[test]
    fn general_oracle_is_unit_for_recv_only() {
        let (g, recv, comp, send) = sample_graph();
        let o = GeneralOracle;
        assert_eq!(o.duration(&g, recv), GeneralOracle::UNIT);
        assert_eq!(o.duration(&g, comp), SimDuration::ZERO);
        assert_eq!(o.duration(&g, send), SimDuration::ZERO);
        assert_eq!(o.total(&g), GeneralOracle::UNIT);
    }

    #[test]
    fn cost_oracle_matches_platform_model() {
        let (g, recv, comp, send) = sample_graph();
        let p = Platform::cloud_gpu();
        let o = CostOracle::new(p.clone());
        assert_eq!(o.duration(&g, recv), p.transfer_time_scaled(1 << 20, 1.0));
        assert_eq!(o.duration(&g, comp), p.worker_compute_time(3.0e9));
        assert_eq!(o.duration(&g, send), CostOracle::SEND_COST);
    }

    #[test]
    fn cost_oracle_uses_ps_speed_on_ps_devices() {
        let mut b = GraphBuilder::new();
        let _w = b.add_worker("w0");
        let ps = b.add_parameter_server("ps0");
        let p = b.add_param("p", 64);
        let agg = b.add_op(
            "agg",
            ps,
            OpKind::Aggregate { param: p },
            Cost::flops(4.0e8),
            &[],
        );
        let g = b.build().unwrap();
        let plat = Platform::cloud_gpu();
        let o = CostOracle::new(plat.clone());
        assert_eq!(o.duration(&g, agg), plat.ps_compute_time(4.0e8));
    }

    #[test]
    fn measured_profile_takes_min_across_runs() {
        let runs = vec![
            vec![SimDuration::from_nanos(30), SimDuration::from_nanos(100)],
            vec![SimDuration::from_nanos(20), SimDuration::from_nanos(150)],
            vec![SimDuration::from_nanos(25), SimDuration::from_nanos(90)],
        ];
        let prof = MeasuredProfile::from_runs(&runs);
        assert_eq!(prof.durations.len(), 2);
        assert_eq!(prof.get(OpId::from_index(0)), SimDuration::from_nanos(20));
        assert_eq!(prof.get(OpId::from_index(1)), SimDuration::from_nanos(90));
        // Out-of-range ops are unprofiled.
        assert_eq!(prof.get(OpId::from_index(9)), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "same ops")]
    fn measured_profile_rejects_ragged_runs() {
        MeasuredProfile::from_runs(&[
            vec![SimDuration::ZERO],
            vec![SimDuration::ZERO, SimDuration::ZERO],
        ]);
    }

    #[test]
    fn oracle_trait_objects_work() {
        let (g, recv, ..) = sample_graph();
        let boxed: Box<dyn TimeOracle> = Box::new(GeneralOracle);
        assert_eq!(boxed.duration(&g, recv), GeneralOracle::UNIT);
        let by_ref: &dyn TimeOracle = &GeneralOracle;
        assert_eq!(by_ref.duration(&g, recv), GeneralOracle::UNIT);
    }
}

//! Algorithm 2: Timing-Independent Communication scheduling (TIC).

use crate::partition::PartitionGraph;
use crate::properties::OpProperties;
use crate::schedule::Schedule;
use tictac_graph::{DeviceId, Graph};
use tictac_obs::Registry;
use tictac_trace::GeneralOracle;

/// Computes the TIC schedule for the recv ops of `worker`.
///
/// TIC prioritizes transfers using DAG structure alone: every op is costed
/// with the *general time oracle* of Equation 5 (`recv` = 1 unit, anything
/// else = 0), properties are computed once with all recvs outstanding
/// (Algorithm 1), and each recv's priority is its impending communication
/// load `M⁺` — under unit costs, the minimum number of outstanding
/// transfers needed to unblock some computation that depends on it.
///
/// Recvs with `M⁺ = ∞` (no dependent op joins them with another recv) get
/// the lowest priority (`u64::MAX`), matching Algorithm 2's literal
/// `priority ← M⁺`.
pub fn tic(graph: &Graph, worker: DeviceId) -> Schedule {
    tic_observed(graph, worker, &Registry::disabled())
}

/// [`tic`] with the derivation span timed into `registry` as
/// `sched.tic.derive_ns`. With a disabled registry this is exactly
/// [`tic`]: the schedule never depends on the registry.
pub fn tic_observed(graph: &Graph, worker: DeviceId, registry: &Registry) -> Schedule {
    let span = registry.timer("sched.tic.derive_ns");
    let _guard = span.start();
    let part = PartitionGraph::new(graph, worker);
    let durations = part.durations(graph, &GeneralOracle);
    let props = OpProperties::new(&part, durations);

    let priorities = part.recvs().iter().enumerate().map(|(bit, &recv_local)| {
        let priority = match props.m_plus(bit) {
            // Express M+ in whole units of the general oracle so equal
            // loads share a priority number.
            Some(d) => d.as_nanos() / GeneralOracle::UNIT.as_nanos(),
            None => u64::MAX,
        };
        (part.global(recv_local as usize), priority)
    });
    Schedule::from_priorities(graph.len(), priorities)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tictac_graph::{Cost, GraphBuilder, OpId, OpKind};

    /// A linear chain: recv_i -> layer_i -> layer_{i+1} ... Each layer also
    /// depends on the previous layer, so layer_k transitively needs recvs
    /// 0..=k.
    fn chain(n: usize) -> (Graph, DeviceId, Vec<OpId>) {
        let mut b = GraphBuilder::new();
        let w = b.add_worker("w0");
        let ps = b.add_parameter_server("ps0");
        let ch = b.add_channel(w, ps);
        let mut recvs = Vec::new();
        let mut prev: Option<OpId> = None;
        for i in 0..n {
            let p = b.add_param(format!("p{i}"), 100);
            let r = b.add_op(
                format!("recv{i}"),
                w,
                OpKind::recv(p, ch),
                Cost::bytes(100),
                &[],
            );
            recvs.push(r);
            let deps: Vec<OpId> = match prev {
                Some(l) => vec![l, r],
                None => vec![r],
            };
            prev = Some(b.add_op(
                format!("layer{i}"),
                w,
                OpKind::Compute,
                Cost::flops(1e6),
                &deps,
            ));
        }
        (b.build().unwrap(), w, recvs)
    }

    #[test]
    fn tic_prefers_earlier_layers_in_a_chain() {
        let (g, w, recvs) = chain(5);
        let s = tic(&g, w);
        // layer_k has deps {recv0..recvk}; for k >= 1 it has multiple recv
        // deps with M = k+1 units, so recv_k.M+ = k+1 (the cheapest
        // multi-dep op including it), except recv0 which also joins layer1
        // (M = 2).
        let p: Vec<u64> = recvs.iter().map(|&r| s.priority(r).unwrap()).collect();
        assert_eq!(p[0], 2);
        assert_eq!(p[1], 2);
        assert_eq!(p[2], 3);
        assert_eq!(p[3], 4);
        assert_eq!(p[4], 5);
        // Priorities are non-decreasing along the chain: earlier transfers
        // unblock computation sooner.
        assert!(p.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn tic_assigns_max_priority_to_isolated_recvs() {
        // One recv feeding a dedicated compute op (single dependency
        // everywhere) never appears in a multi-recv op: M+ = infinity.
        let mut b = GraphBuilder::new();
        let w = b.add_worker("w0");
        let ps = b.add_parameter_server("ps0");
        let ch = b.add_channel(w, ps);
        let p0 = b.add_param("p0", 10);
        let r0 = b.add_op("recv0", w, OpKind::recv(p0, ch), Cost::bytes(10), &[]);
        b.add_op("c0", w, OpKind::Compute, Cost::flops(1.0), &[r0]);
        let g = b.build().unwrap();
        let s = tic(&g, w);
        assert_eq!(s.priority(r0), Some(u64::MAX));
    }

    #[test]
    fn registry_presence_never_changes_the_schedule() {
        let (g, w, _) = chain(5);
        let registry = Registry::enabled();
        assert_eq!(tic_observed(&g, w, &registry), tic(&g, w));
        assert!(matches!(
            registry.snapshot().get("sched.tic.derive_ns"),
            Some(tictac_obs::MetricValue::Timer(t)) if t.count == 1
        ));
    }

    #[test]
    fn tic_only_prioritizes_the_requested_worker() {
        let mut b = GraphBuilder::new();
        let w0 = b.add_worker("w0");
        let w1 = b.add_worker("w1");
        let ps = b.add_parameter_server("ps0");
        let ch0 = b.add_channel(w0, ps);
        let ch1 = b.add_channel(w1, ps);
        let p = b.add_param("p", 10);
        let r0 = b.add_op("recv/w0", w0, OpKind::recv(p, ch0), Cost::bytes(10), &[]);
        let r1 = b.add_op("recv/w1", w1, OpKind::recv(p, ch1), Cost::bytes(10), &[]);
        let c0 = b.add_op("c0", w0, OpKind::Compute, Cost::flops(1.0), &[r0]);
        b.add_op("c1", w0, OpKind::Compute, Cost::flops(1.0), &[c0, r0]);
        let _ = r1;
        let g = b.build().unwrap();
        let s = tic(&g, w0);
        assert!(s.priority(g.find_op("recv/w0").unwrap()).is_some());
        assert!(s.priority(g.find_op("recv/w1").unwrap()).is_none());
    }
}

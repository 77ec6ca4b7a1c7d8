//! Algorithm 3: Timing-Aware Communication scheduling (TAC).

use crate::partition::PartitionGraph;
use crate::properties::OpProperties;
use crate::schedule::Schedule;
use tictac_graph::{DeviceId, Graph, OpId};
use tictac_obs::Registry;
use tictac_trace::{SimDuration, TimeOracle};

/// The pairwise comparator of §4.3.
///
/// For two outstanding recvs `A` and `B`, with `P` the directly-dependent
/// compute load, `M` the transfer time and `M⁺` the impending
/// communication load:
///
/// * Case 1 (Equation 6): `A ≺ B ⇔ min{P_B, M_A} < min{P_A, M_B}` —
///   prefer the transfer whose completion unblocks more computation per
///   unit of communication.
/// * Case 2: on ties (e.g. all `P = 0` at the start of an iteration),
///   prefer the smaller `M⁺` — the transfer that completes a computation's
///   communication requirements soonest. `∞` (no joint dependent op)
///   compares greater than any finite load.
///
/// See the crate-level note: the paper's pseudo-code swaps the operands of
/// Equation 6; we follow the derivation (and reproduce the paper's worked
/// examples in tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct TacComparator;

/// The per-recv inputs consumed by [`TacComparator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RecvScore {
    /// Directly-dependent compute load `P`.
    pub(crate) p: SimDuration,
    /// Transfer time `M` of the recv itself.
    pub(crate) m: SimDuration,
    /// Impending communication load `M⁺` (`None` = ∞).
    pub(crate) m_plus: Option<SimDuration>,
}

impl TacComparator {
    /// Whether `a` should strictly precede `b`.
    pub(crate) fn precedes(self, a: RecvScore, b: RecvScore) -> bool {
        let lhs = b.p.min(a.m); // min{P_B, M_A}
        let rhs = a.p.min(b.m); // min{P_A, M_B}
        if lhs != rhs {
            return lhs < rhs;
        }
        match (a.m_plus, b.m_plus) {
            (Some(x), Some(y)) => x < y,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => false,
        }
    }
}

/// Picks the minimum outstanding recv under [`TacComparator`] (ties broken
/// by op id for determinism).
pub(crate) fn select_best(part: &PartitionGraph, props: &OpProperties) -> usize {
    props
        .outstanding()
        .map(|bit| {
            (
                bit,
                RecvScore {
                    p: props.p(bit),
                    m: props.recv_time(part, bit),
                    m_plus: props.m_plus(bit),
                },
            )
        })
        .reduce(|best, cand| {
            if TacComparator.precedes(cand.1, best.1) {
                cand
            } else {
                best
            }
        })
        .map(|(bit, _)| bit)
        .expect("outstanding set is non-empty")
}

/// Computes the TAC transfer order for the recv ops of `worker`.
///
/// Iteratively (Algorithm 3): update properties for the outstanding set,
/// pick the minimum recv under `TacComparator` (ties broken by op id for
/// determinism), mark it complete and repeat. Returns recv ops in transfer
/// order.
///
/// Properties are maintained incrementally across rounds (DESIGN.md §7);
/// [`reference::tac_order_naive`](crate::reference::tac_order_naive) is the
/// paper's per-round recomputation, the oracle of the equivalence tests.
pub fn tac_order(graph: &Graph, worker: DeviceId, oracle: &dyn TimeOracle) -> Vec<OpId> {
    derive_order(graph, worker, oracle, &Registry::disabled())
}

/// [`tac_order`] with derivation instrumented into `registry` (the
/// metrics [`tac_observed`] lists).
fn derive_order(
    graph: &Graph,
    worker: DeviceId,
    oracle: &dyn TimeOracle,
    registry: &Registry,
) -> Vec<OpId> {
    let span = registry.timer("sched.tac.derive_ns");
    let _guard = span.start();
    let part = PartitionGraph::new(graph, worker);
    let durations = part.durations(graph, oracle);
    let mut props = OpProperties::new(&part, durations);

    let mut order = Vec::with_capacity(part.recvs().len());
    while props.outstanding_count() > 0 {
        let best = select_best(&part, &props);
        order.push(part.global(part.recvs()[best] as usize));
        props.complete(&part, best);
    }
    registry.counter("sched.tac.merges").add(props.merges());
    registry
        .counter("sched.tac.rederived")
        .add(props.rederived());
    order
}

/// Computes the TAC schedule for the recv ops of `worker`: sequential
/// priorities `0, 1, 2, …` in [`tac_order`].
pub fn tac(graph: &Graph, worker: DeviceId, oracle: &dyn TimeOracle) -> Schedule {
    tac_observed(graph, worker, oracle, &Registry::disabled())
}

/// [`tac`] with derivation instrumented into `registry`:
///
/// * `sched.tac.derive_ns` (timer) — the wall-clock derivation span;
/// * `sched.tac.merges` (counter) — `M⁺` min-merges applied by the
///   incremental property maintenance;
/// * `sched.tac.rederived` (counter) — dirty bits whose `M⁺` was
///   re-derived exactly.
///
/// With a disabled registry this is exactly [`tac`]: the schedule never
/// depends on the registry.
pub fn tac_observed(
    graph: &Graph,
    worker: DeviceId,
    oracle: &dyn TimeOracle,
    registry: &Registry,
) -> Schedule {
    let order = derive_order(graph, worker, oracle, registry);
    Schedule::from_priorities(graph.len(), order.into_iter().zip(0..))
}

/// An *adversarial* schedule: the reverse of [`tac_order`], delaying the
/// transfers that unblock computation soonest until the very end.
///
/// Not in the paper; used to measure the empirical best-to-worst spread of
/// enforced orders and compare it with the theoretical speedup potential
/// `S` of Equation 4 (which ignores DAG dependencies and therefore upper
/// bounds it).
pub fn worst_case(graph: &Graph, worker: DeviceId, oracle: &dyn TimeOracle) -> Schedule {
    let order = tac_order(graph, worker, oracle);
    Schedule::from_priorities(graph.len(), order.into_iter().rev().zip(0..))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tictac_graph::{Cost, GraphBuilder, OpKind};
    use tictac_trace::{CostOracle, Platform};

    fn dur(us: u64) -> SimDuration {
        SimDuration::from_micros(us)
    }

    #[test]
    fn comparator_case_1_prefers_unblocking_transfer() {
        // Figure 1a/4a: A unblocks computation (P_A > 0), B does not.
        let a = RecvScore {
            p: dur(100),
            m: dur(10),
            m_plus: Some(dur(30)),
        };
        let b = RecvScore {
            p: SimDuration::ZERO,
            m: dur(20),
            m_plus: Some(dur(30)),
        };
        assert!(TacComparator.precedes(a, b));
        assert!(!TacComparator.precedes(b, a));
    }

    #[test]
    fn comparator_case_2_breaks_ties_with_m_plus() {
        // Figure 4b: all P = 0, so M+ decides.
        let a = RecvScore {
            p: SimDuration::ZERO,
            m: dur(10),
            m_plus: Some(dur(20)),
        };
        let c = RecvScore {
            p: SimDuration::ZERO,
            m: dur(10),
            m_plus: Some(dur(30)),
        };
        let d = RecvScore {
            p: SimDuration::ZERO,
            m: dur(10),
            m_plus: None,
        };
        assert!(TacComparator.precedes(a, c));
        assert!(TacComparator.precedes(c, d));
        assert!(!TacComparator.precedes(d, c));
        // Identical scores: neither strictly precedes.
        assert!(!TacComparator.precedes(a, a));
    }

    #[test]
    fn tac_orders_figure_1a_correctly() {
        // recv1 unblocks op1, recv2 unblocks nothing alone: recv1 first.
        // This is the "good execution order" of Figure 1b.
        let mut b = GraphBuilder::new();
        let w = b.add_worker("w0");
        let ps = b.add_parameter_server("ps0");
        let ch = b.add_channel(w, ps);
        let p1 = b.add_param("w1", 1_000_000);
        let p2 = b.add_param("w2", 1_000_000);
        let r1 = b.add_op(
            "recv1",
            w,
            OpKind::recv(p1, ch),
            Cost::bytes(1_000_000),
            &[],
        );
        let r2 = b.add_op(
            "recv2",
            w,
            OpKind::recv(p2, ch),
            Cost::bytes(1_000_000),
            &[],
        );
        let op1 = b.add_op("op1", w, OpKind::Compute, Cost::flops(1e9), &[r1]);
        b.add_op("op2", w, OpKind::Compute, Cost::flops(1e9), &[op1, r2]);
        let g = b.build().unwrap();
        let oracle = CostOracle::new(Platform::cpu_cluster());
        assert_eq!(tac_order(&g, w, &oracle), vec![r1, r2]);
        let s = tac(&g, w, &oracle);
        assert_eq!(s.priority(r1), Some(0));
        assert_eq!(s.priority(r2), Some(1));
    }

    #[test]
    fn tac_orders_figure_4b_pairs_before_stragglers() {
        // op1 <- {A, B}, op2 <- {op1, C}, op3 <- {op2, D}:
        // A and B first (cheapest joint unblock), then C, then D.
        let mut b = GraphBuilder::new();
        let w = b.add_worker("w0");
        let ps = b.add_parameter_server("ps0");
        let ch = b.add_channel(w, ps);
        let recv = |b: &mut GraphBuilder, name: &str| {
            let p = b.add_param(format!("p_{name}"), 1_000_000);
            b.add_op(name, w, OpKind::recv(p, ch), Cost::bytes(1_000_000), &[])
        };
        let a = recv(&mut b, "A");
        let bb = recv(&mut b, "B");
        let c = recv(&mut b, "C");
        let d = recv(&mut b, "D");
        let op1 = b.add_op("op1", w, OpKind::Compute, Cost::flops(1e9), &[a, bb]);
        let op2 = b.add_op("op2", w, OpKind::Compute, Cost::flops(1e9), &[op1, c]);
        b.add_op("op3", w, OpKind::Compute, Cost::flops(1e9), &[op2, d]);
        let g = b.build().unwrap();
        let oracle = CostOracle::new(Platform::cpu_cluster());
        let order = tac_order(&g, w, &oracle);
        assert_eq!(order.len(), 4);
        // A and B (in either order) precede C, which precedes D.
        assert!(order[..2].contains(&a) && order[..2].contains(&bb));
        assert_eq!(order[2], c);
        assert_eq!(order[3], d);
    }

    #[test]
    fn observed_schedule_matches_and_records_metrics() {
        // Figure 4b topology: merges and re-derivations both fire.
        let mut b = GraphBuilder::new();
        let w = b.add_worker("w0");
        let ps = b.add_parameter_server("ps0");
        let ch = b.add_channel(w, ps);
        let recv = |b: &mut GraphBuilder, name: &str| {
            let p = b.add_param(format!("p_{name}"), 1_000_000);
            b.add_op(name, w, OpKind::recv(p, ch), Cost::bytes(1_000_000), &[])
        };
        let a = recv(&mut b, "A");
        let bb = recv(&mut b, "B");
        let c = recv(&mut b, "C");
        let op1 = b.add_op("op1", w, OpKind::Compute, Cost::flops(1e9), &[a, bb]);
        b.add_op("op2", w, OpKind::Compute, Cost::flops(1e9), &[op1, c]);
        let g = b.build().unwrap();
        let oracle = CostOracle::new(Platform::cpu_cluster());

        let registry = Registry::enabled();
        let observed = tac_observed(&g, w, &oracle, &registry);
        assert_eq!(observed, tac(&g, w, &oracle));

        let snap = registry.snapshot();
        assert!(snap.counter("sched.tac.merges").unwrap() > 0);
        let timers: Vec<_> = snap
            .entries
            .iter()
            .filter(|(name, _)| name == "sched.tac.derive_ns")
            .collect();
        assert_eq!(timers.len(), 1);
    }

    #[test]
    fn tac_is_deterministic() {
        let mut b = GraphBuilder::new();
        let w = b.add_worker("w0");
        let ps = b.add_parameter_server("ps0");
        let ch = b.add_channel(w, ps);
        let mut prev = None;
        for i in 0..10 {
            let p = b.add_param(format!("p{i}"), 1000 * (i as u64 + 1));
            let r = b.add_op(
                format!("r{i}"),
                w,
                OpKind::recv(p, ch),
                Cost::bytes(1000 * (i as u64 + 1)),
                &[],
            );
            let deps = match prev {
                Some(l) => vec![l, r],
                None => vec![r],
            };
            prev = Some(b.add_op(format!("c{i}"), w, OpKind::Compute, Cost::flops(1e8), &deps));
        }
        let g = b.build().unwrap();
        let oracle = CostOracle::new(Platform::cpu_cluster());
        assert_eq!(tac_order(&g, w, &oracle), tac_order(&g, w, &oracle));
    }
}

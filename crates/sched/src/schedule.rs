//! Priority schedules over ops, plus the paper's baselines.

use rand::seq::SliceRandom;
use rand::Rng;
use tictac_graph::{DeviceId, Graph, OpId};

/// Priority assignments for a graph's ops.
///
/// Following the paper (§3.1): a priority is a non-negative number; *lower*
/// numbers are scheduled first; ops may share a priority if their relative
/// order is insignificant; ops without a priority are unconstrained. The
/// simulator's ready-queue rule consumes this type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    by_op: Vec<Option<u64>>,
}

impl Schedule {
    /// A schedule with no priorities for a graph of `n` ops (the paper's
    /// *baseline*: execution order is arbitrary).
    pub fn empty(n: usize) -> Self {
        Self {
            by_op: vec![None; n],
        }
    }

    /// Assigns priority `priority` to `op`.
    ///
    /// # Panics
    ///
    /// Panics if `op` is out of bounds for the schedule.
    pub fn set(&mut self, op: OpId, priority: u64) {
        self.by_op[op.index()] = Some(priority);
    }

    /// The priority of `op`, if assigned.
    pub fn priority(&self, op: OpId) -> Option<u64> {
        self.by_op.get(op.index()).copied().flatten()
    }

    /// Number of ops covered (prioritized or not).
    pub fn len(&self) -> usize {
        self.by_op.len()
    }

    /// Whether the schedule covers zero ops.
    pub fn is_empty(&self) -> bool {
        self.by_op.is_empty()
    }

    /// Whether no op has a priority (baseline behaviour).
    pub fn is_unordered(&self) -> bool {
        self.by_op.iter().all(Option::is_none)
    }

    /// Iterates over `(op, priority)` pairs that have priorities.
    pub fn prioritized(&self) -> impl Iterator<Item = (OpId, u64)> + '_ {
        self.by_op
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.map(|p| (OpId::from_index(i), p)))
    }

    /// The prioritized `recv` ops of every channel: `result[c]` is channel
    /// `c`'s transfer order (priority order, ties by op id), the order the
    /// enforcement module normalizes to ranks `[0, n)` (paper §5.1).
    ///
    /// A single pass over the prioritized set with per-channel bucketing —
    /// `O(P log P)` total instead of the `O(C · P)` a per-channel rescan
    /// costs, which dominates engine setup at thousand-worker scale
    /// (a 1024-worker / 32-shard deployment has 32768 channels).
    pub fn ordered_recvs_per_channel(&self, graph: &Graph) -> Vec<Vec<OpId>> {
        let mut per_channel: Vec<Vec<(u64, OpId)>> = vec![Vec::new(); graph.channels().len()];
        for (op, p) in self.prioritized() {
            let o = graph.op(op);
            if !o.is_recv() {
                continue;
            }
            if let Some(ch) = o.kind().channel() {
                per_channel[ch.index()].push((p, op));
            }
        }
        per_channel
            .into_iter()
            .map(|mut recvs| {
                recvs.sort_unstable();
                recvs.into_iter().map(|(_, op)| op).collect()
            })
            .collect()
    }
}

/// The paper's baseline: no enforced ordering at all.
pub fn no_ordering(graph: &Graph) -> Schedule {
    Schedule::empty(graph.len())
}

/// A uniformly random total order over the recv ops of `worker`.
///
/// Used in §6.3 to show that enforcing *any* consistent order already
/// reduces the straggler effect, regardless of order quality.
pub fn random_order(graph: &Graph, worker: DeviceId, rng: &mut impl Rng) -> Schedule {
    let mut recvs = graph.recv_ops_on(worker);
    recvs.shuffle(rng);
    let mut s = Schedule::empty(graph.len());
    for (rank, op) in recvs.into_iter().enumerate() {
        s.set(op, rank as u64);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use tictac_graph::{Cost, GraphBuilder, OpKind};

    fn two_channel_graph() -> (Graph, DeviceId, Vec<OpId>) {
        let mut b = GraphBuilder::new();
        let w = b.add_worker("w0");
        let ps0 = b.add_parameter_server("ps0");
        let ps1 = b.add_parameter_server("ps1");
        let ch0 = b.add_channel(w, ps0);
        let ch1 = b.add_channel(w, ps1);
        let mut recvs = Vec::new();
        for i in 0..4 {
            let p = b.add_param(format!("p{i}"), 10);
            let ch = if i % 2 == 0 { ch0 } else { ch1 };
            recvs.push(b.add_op(
                format!("recv{i}"),
                w,
                OpKind::recv(p, ch),
                Cost::bytes(10),
                &[],
            ));
        }
        (b.build().unwrap(), w, recvs)
    }

    #[test]
    fn empty_schedule_is_unordered() {
        let (g, ..) = two_channel_graph();
        let s = no_ordering(&g);
        assert!(s.is_unordered());
        assert_eq!(s.prioritized().count(), 0);
        assert_eq!(s.len(), g.len());
    }

    #[test]
    fn set_and_get_priorities() {
        let (g, _, recvs) = two_channel_graph();
        let mut s = Schedule::empty(g.len());
        s.set(recvs[2], 0);
        s.set(recvs[0], 1);
        assert_eq!(s.priority(recvs[2]), Some(0));
        assert_eq!(s.priority(recvs[0]), Some(1));
        assert_eq!(s.priority(recvs[1]), None);
        assert!(!s.is_unordered());
        assert_eq!(s.prioritized().count(), 2);
    }

    #[test]
    fn ordered_recvs_filters_by_channel_and_sorts() {
        let (g, _, recvs) = two_channel_graph();
        let ch0 = g.channels()[0].id();
        let ch1 = g.channels()[1].id();
        let mut s = Schedule::empty(g.len());
        // recv0 and recv2 are on ch0; give recv2 the higher priority.
        s.set(recvs[0], 5);
        s.set(recvs[2], 1);
        s.set(recvs[1], 0);
        let bulk = s.ordered_recvs_per_channel(&g);
        assert_eq!(bulk.len(), g.channels().len());
        assert_eq!(bulk[ch0.index()], vec![recvs[2], recvs[0]]);
        assert_eq!(bulk[ch1.index()], vec![recvs[1]]);
    }

    #[test]
    fn ordered_recvs_breaks_ties_by_op_id() {
        let (g, _, recvs) = two_channel_graph();
        let ch0 = g.channels()[0].id();
        let mut s = Schedule::empty(g.len());
        s.set(recvs[0], 3);
        s.set(recvs[2], 3);
        assert_eq!(
            s.ordered_recvs_per_channel(&g)[ch0.index()],
            vec![recvs[0], recvs[2]]
        );
    }

    #[test]
    fn random_order_is_a_permutation_and_seeded() {
        let (g, w, recvs) = two_channel_graph();
        let s1 = random_order(&g, w, &mut SmallRng::seed_from_u64(9));
        let s2 = random_order(&g, w, &mut SmallRng::seed_from_u64(9));
        assert_eq!(s1, s2);
        let mut pris: Vec<u64> = recvs.iter().map(|&r| s1.priority(r).unwrap()).collect();
        pris.sort_unstable();
        assert_eq!(pris, vec![0, 1, 2, 3]);
    }
}

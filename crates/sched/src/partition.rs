//! Worker-partition views of the global graph.

use tictac_graph::{topo::RecvSet, DeviceId, Graph, OpId};
use tictac_trace::{SimDuration, TimeOracle};

/// A worker's partition of the computational graph, prepared for the
/// scheduling algorithms.
///
/// The partition contains the ops placed on one worker device. Within it,
/// `recv` ops are roots (their PS-side predecessors are outside the
/// partition), matching the paper's observation that "in the worker DAG,
/// all recv ops are roots and send ops are leaves" (§2.2).
///
/// Communication dependencies (`op.dep` — the set of recv ops an op
/// directly or transitively depends on, §4.1) are precomputed as bitsets
/// whose bit positions index [`PartitionGraph::recvs`].
#[derive(Debug, Clone)]
pub struct PartitionGraph {
    /// Global op ids in the partition; local index = position.
    ops: Vec<OpId>,
    /// Local index of a global op id.
    local: Vec<Option<u32>>,
    /// Local predecessor lists (edges whose both endpoints are local).
    preds: Vec<Vec<u32>>,
    /// Local indices of recv ops; bit `i` of a [`RecvSet`] refers to
    /// `recvs[i]`.
    recvs: Vec<u32>,
    /// Per local op: communication-dependency bitset.
    deps: Vec<RecvSet>,
}

impl PartitionGraph {
    /// Extracts the partition of `device` from `graph`.
    pub fn new(graph: &Graph, device: DeviceId) -> Self {
        let ops: Vec<OpId> = graph.ops_on(device).collect();
        let mut local = vec![None; graph.len()];
        for (i, &id) in ops.iter().enumerate() {
            local[id.index()] = Some(i as u32);
        }
        let preds: Vec<Vec<u32>> = ops
            .iter()
            .map(|&id| graph.preds(id).filter_map(|p| local[p.index()]).collect())
            .collect();
        let recvs: Vec<u32> = ops
            .iter()
            .enumerate()
            .filter(|(_, &id)| graph.op(id).is_recv())
            .map(|(i, _)| i as u32)
            .collect();

        // Communication dependencies via forward propagation in local
        // topological order. Local ids preserve global id order, and global
        // ids are topologically consistent only if the builder inserted ops
        // in dependency order — which GraphBuilder does not guarantee.
        // Compute a local topo order explicitly.
        let order = local_topo_order(&ops, &preds);
        let words = RecvSet::words_for(recvs.len());
        let mut bit_of = vec![u32::MAX; ops.len()];
        for (bit, &r) in recvs.iter().enumerate() {
            bit_of[r as usize] = bit as u32;
        }
        let mut deps: Vec<RecvSet> = (0..ops.len()).map(|_| RecvSet::empty(words)).collect();
        for &i in &order {
            let mut acc = RecvSet::empty(words);
            for &p in &preds[i as usize] {
                acc.union_with(&deps[p as usize]);
            }
            if bit_of[i as usize] != u32::MAX {
                acc.insert(bit_of[i as usize] as usize);
            }
            deps[i as usize] = acc;
        }

        Self {
            ops,
            local,
            preds,
            recvs,
            deps,
        }
    }

    /// Number of ops in the partition.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the partition is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Global op id of local index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub(crate) fn global(&self, i: usize) -> OpId {
        self.ops[i]
    }

    /// Local index of a global op id, if the op is in this partition.
    pub fn local(&self, id: OpId) -> Option<usize> {
        self.local
            .get(id.index())
            .copied()
            .flatten()
            .map(|i| i as usize)
    }

    /// Local indices of recv ops; bit `i` of dependency sets refers to
    /// entry `i` of this slice.
    pub fn recvs(&self) -> &[u32] {
        &self.recvs
    }

    /// Global op ids of the partition's recv ops, in bit order.
    pub fn recv_ids(&self) -> Vec<OpId> {
        self.recvs.iter().map(|&r| self.ops[r as usize]).collect()
    }

    /// The communication-dependency set of local op `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub(crate) fn deps(&self, i: usize) -> &RecvSet {
        &self.deps[i]
    }

    /// Local predecessor list of local op `i`.
    pub fn preds(&self, i: usize) -> &[u32] {
        self.preds[i].as_slice()
    }

    /// Evaluates the oracle for every local op.
    pub fn durations(&self, graph: &Graph, oracle: &dyn TimeOracle) -> Vec<SimDuration> {
        self.ops
            .iter()
            .map(|&id| oracle.duration(graph, id))
            .collect()
    }
}

/// Kahn's algorithm over the local adjacency, smallest local id first.
fn local_topo_order(ops: &[OpId], preds: &[Vec<u32>]) -> Vec<u32> {
    let n = ops.len();
    let mut indegree = vec![0usize; n];
    let mut succs: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (i, ps) in preds.iter().enumerate() {
        indegree[i] = ps.len();
        for &p in ps {
            succs[p as usize].push(i as u32);
        }
    }
    let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<u32>> = indegree
        .iter()
        .enumerate()
        .filter(|(_, &d)| d == 0)
        .map(|(i, _)| std::cmp::Reverse(i as u32))
        .collect();
    let mut order = Vec::with_capacity(n);
    while let Some(std::cmp::Reverse(i)) = heap.pop() {
        order.push(i);
        for &s in &succs[i as usize] {
            indegree[s as usize] -= 1;
            if indegree[s as usize] == 0 {
                heap.push(std::cmp::Reverse(s));
            }
        }
    }
    debug_assert_eq!(order.len(), n, "partition of a DAG must be acyclic");
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use tictac_graph::{Cost, GraphBuilder, OpKind};

    /// Figure 1a plus PS-side ops, to check cross-device edges are cut.
    fn fig1a_with_ps() -> (Graph, DeviceId, [OpId; 4]) {
        let mut b = GraphBuilder::new();
        let w = b.add_worker("w0");
        let ps = b.add_parameter_server("ps0");
        let ch = b.add_channel(w, ps);
        let p1 = b.add_param("w1", 100);
        let p2 = b.add_param("w2", 100);
        let s1 = b.add_op("ps_send1", ps, OpKind::send(p1, ch), Cost::bytes(100), &[]);
        let s2 = b.add_op("ps_send2", ps, OpKind::send(p2, ch), Cost::bytes(100), &[]);
        let r1 = b.add_op("recv1", w, OpKind::recv(p1, ch), Cost::bytes(100), &[s1]);
        let r2 = b.add_op("recv2", w, OpKind::recv(p2, ch), Cost::bytes(100), &[s2]);
        let op1 = b.add_op("op1", w, OpKind::Compute, Cost::flops(10.0), &[r1]);
        let op2 = b.add_op("op2", w, OpKind::Compute, Cost::flops(10.0), &[op1, r2]);
        (b.build().unwrap(), w, [r1, r2, op1, op2])
    }

    #[test]
    fn partition_contains_only_worker_ops() {
        let (g, w, [r1, r2, op1, op2]) = fig1a_with_ps();
        let p = PartitionGraph::new(&g, w);
        assert_eq!(p.len(), 4);
        assert_eq!(p.recv_ids(), vec![r1, r2]);
        assert_eq!(p.local(r1), Some(0));
        assert_eq!(p.local(op2), Some(3));
        // PS ops are not in the partition.
        assert_eq!(p.local(OpId::from_index(0)), None);
        // recv1 has a PS-side pred which must be cut: locally a root.
        assert!(p.preds(p.local(r1).unwrap()).is_empty());
        assert_eq!(p.preds(p.local(op1).unwrap()), &[0]);
    }

    #[test]
    fn communication_dependencies_are_transitive() {
        let (g, w, [r1, r2, op1, op2]) = fig1a_with_ps();
        let p = PartitionGraph::new(&g, w);
        let d_op1 = p.deps(p.local(op1).unwrap());
        let d_op2 = p.deps(p.local(op2).unwrap());
        assert_eq!(d_op1.iter().collect::<Vec<_>>(), vec![0]);
        assert_eq!(d_op2.iter().collect::<Vec<_>>(), vec![0, 1]);
        let d_r1 = p.deps(p.local(r1).unwrap());
        assert_eq!(d_r1.iter().collect::<Vec<_>>(), vec![0]);
        let d_r2 = p.deps(p.local(r2).unwrap());
        assert_eq!(d_r2.iter().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn durations_use_oracle() {
        use tictac_trace::GeneralOracle;
        let (g, w, _) = fig1a_with_ps();
        let p = PartitionGraph::new(&g, w);
        let d = p.durations(&g, &GeneralOracle);
        // Two recvs at unit cost, two computes at zero.
        let unit = GeneralOracle::UNIT;
        assert_eq!(d.iter().filter(|&&x| x == unit).count(), 2);
        assert_eq!(d.iter().filter(|&&x| x.is_zero()).count(), 2);
    }
}

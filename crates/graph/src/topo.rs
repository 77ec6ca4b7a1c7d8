//! Topological utilities over [`Graph`]s.
//!
//! These routines are shared by the schedulers (dependency analysis over
//! `recv` ops), the simulator (ready-set maintenance sanity checks) and the
//! evaluation harness (critical-path statistics).

use crate::error::GraphError;
use crate::graph::Graph;
use crate::ids::OpId;

/// Computes a topological order of the graph (Kahn's algorithm).
///
/// The order is deterministic: among simultaneously-ready ops, the one with
/// the smallest id comes first (a binary heap keyed on id).
///
/// # Errors
///
/// Returns [`GraphError::Cycle`] if the graph has a dependency cycle; the
/// reported op is one with a remaining unresolved predecessor.
pub fn topo_order(graph: &Graph) -> Result<Vec<OpId>, GraphError> {
    let n = graph.len();
    let mut indegree: Vec<usize> = (0..n)
        .map(|i| graph.preds(OpId::from_index(i)).len())
        .collect();
    // Min-heap on op id for determinism.
    let mut ready: std::collections::BinaryHeap<std::cmp::Reverse<OpId>> = indegree
        .iter()
        .enumerate()
        .filter(|(_, &d)| d == 0)
        .map(|(i, _)| std::cmp::Reverse(OpId::from_index(i)))
        .collect();
    let mut order = Vec::with_capacity(n);
    while let Some(std::cmp::Reverse(id)) = ready.pop() {
        order.push(id);
        for &s in graph.succs(id) {
            indegree[s.index()] -= 1;
            if indegree[s.index()] == 0 {
                ready.push(std::cmp::Reverse(s));
            }
        }
    }
    if order.len() != n {
        let stuck = indegree
            .iter()
            .position(|&d| d > 0)
            .map(OpId::from_index)
            .expect("cycle implies an op with positive indegree");
        return Err(GraphError::Cycle(stuck));
    }
    Ok(order)
}

/// Checks that the graph is acyclic by one pass of Kahn's count: ready ops
/// come off a stack and no order is kept, so it costs a push and a pop per
/// op where [`topo_order`] sifts a heap.
///
/// The ops a full pass leaves holding a predecessor do not depend on the
/// order it pops ready ops in: they are the ops on or downstream of a
/// cycle. So the op named is the one [`topo_order`] names.
///
/// # Errors
///
/// [`GraphError::Cycle`] naming the lowest-id op left holding a
/// predecessor.
pub(crate) fn check_acyclic(graph: &Graph) -> Result<(), GraphError> {
    let mut indegree: Vec<u32> = graph.pred_offsets.windows(2).map(|w| w[1] - w[0]).collect();
    let mut ready: Vec<OpId> = (0..indegree.len())
        .filter(|&i| indegree[i] == 0)
        .map(OpId::from_index)
        .collect();
    let mut left = indegree.len();
    while let Some(id) = ready.pop() {
        left -= 1;
        for &s in graph.succs(id) {
            let d = &mut indegree[s.index()];
            *d -= 1;
            if *d == 0 {
                ready.push(s);
            }
        }
    }
    if left == 0 {
        return Ok(());
    }
    let stuck = indegree
        .iter()
        .position(|&d| d > 0)
        .expect("an op the count left over holds a predecessor");
    Err(GraphError::Cycle(OpId::from_index(stuck)))
}

/// Whether the graph is acyclic.
pub fn is_acyclic(graph: &Graph) -> bool {
    check_acyclic(graph).is_ok()
}

/// Checks that `order` is a valid topological order of `graph`: a
/// permutation of all ops where every op appears after its predecessors.
pub fn is_topological(graph: &Graph, order: &[OpId]) -> bool {
    if order.len() != graph.len() {
        return false;
    }
    let mut position = vec![usize::MAX; graph.len()];
    for (pos, &id) in order.iter().enumerate() {
        if id.index() >= graph.len() || position[id.index()] != usize::MAX {
            return false;
        }
        position[id.index()] = pos;
    }
    graph.op_ids().all(|id| {
        graph
            .preds(id)
            .iter()
            .all(|p| position[p.index()] < position[id.index()])
    })
}

/// Computes, for every op, the length of the longest path ending at that op,
/// where each op contributes `weight(op)` and edges are free.
///
/// With unit weights this is the op's depth; with time-oracle weights the
/// maximum over all ops is the critical-path length of the DAG.
pub(crate) fn longest_path_to(graph: &Graph, mut weight: impl FnMut(OpId) -> f64) -> Vec<f64> {
    let order = topo_order(graph).expect("longest_path_to requires an acyclic graph");
    let mut dist = vec![0.0_f64; graph.len()];
    for &id in &order {
        let incoming = graph
            .preds(id)
            .iter()
            .map(|p| dist[p.index()])
            .fold(0.0_f64, f64::max);
        dist[id.index()] = incoming + weight(id);
    }
    dist
}

/// The critical-path length of the graph under `weight`.
pub fn critical_path(graph: &Graph, weight: impl FnMut(OpId) -> f64) -> f64 {
    longest_path_to(graph, weight)
        .into_iter()
        .fold(0.0, f64::max)
}

/// A fixed-width bitset over recv-op bit positions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecvSet {
    words: Vec<u64>,
}

impl RecvSet {
    /// Number of 64-bit words needed for `bits` bit positions.
    pub fn words_for(bits: usize) -> usize {
        bits.div_ceil(64)
    }

    /// An empty set with capacity for `words * 64` bits.
    pub fn empty(words: usize) -> Self {
        Self {
            words: vec![0; words],
        }
    }

    /// Inserts bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` exceeds the set's capacity.
    pub fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Whether bit `i` is set.
    pub fn contains(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .is_some_and(|w| w & (1u64 << (i % 64)) != 0)
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &RecvSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates over set bit positions in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }

    /// Iterates over set bits restricted to `mask`.
    pub fn iter_intersection<'a>(&'a self, mask: &'a RecvSet) -> impl Iterator<Item = usize> + 'a {
        self.words
            .iter()
            .zip(&mask.words)
            .enumerate()
            .flat_map(|(wi, (&a, &b))| {
                let mut bits = a & b;
                std::iter::from_fn(move || {
                    if bits == 0 {
                        None
                    } else {
                        let bit = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        Some(wi * 64 + bit)
                    }
                })
            })
    }

    /// Removes bit `i` if present.
    pub fn remove(&mut self, i: usize) {
        if let Some(w) = self.words.get_mut(i / 64) {
            *w &= !(1u64 << (i % 64));
        }
    }

    /// Overwrites this set with the contents of `other`.
    ///
    /// # Panics
    ///
    /// Panics if the sets have different capacities.
    pub fn copy_from(&mut self, other: &RecvSet) {
        assert_eq!(self.words.len(), other.words.len(), "capacity mismatch");
        self.words.copy_from_slice(&other.words);
    }

    /// In-place intersection.
    pub fn intersect_with(&mut self, other: &RecvSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place set difference: removes every bit set in `other`.
    pub fn difference_with(&mut self, other: &RecvSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cost, GraphBuilder, OpKind};

    fn diamond() -> (Graph, [OpId; 4]) {
        let mut b = GraphBuilder::new();
        let w = b.add_worker("w0");
        let a = b.add_op("a", w, OpKind::Compute, Cost::flops(1.0), &[]);
        let l = b.add_op("l", w, OpKind::Compute, Cost::flops(2.0), &[a]);
        let r = b.add_op("r", w, OpKind::Compute, Cost::flops(3.0), &[a]);
        let z = b.add_op("z", w, OpKind::Compute, Cost::flops(1.0), &[l, r]);
        (b.build().unwrap(), [a, l, r, z])
    }

    #[test]
    fn topo_order_of_diamond() {
        let (g, [a, l, r, z]) = diamond();
        let order = topo_order(&g).unwrap();
        assert_eq!(order, vec![a, l, r, z]);
        assert!(is_topological(&g, &order));
        assert!(is_acyclic(&g));
    }

    #[test]
    fn is_topological_rejects_bad_orders() {
        let (g, [a, l, r, z]) = diamond();
        assert!(!is_topological(&g, &[z, l, r, a]));
        assert!(!is_topological(&g, &[a, l, r])); // not a permutation
        assert!(!is_topological(&g, &[a, a, l, z])); // duplicate
    }

    #[test]
    fn longest_path_uses_weights() {
        let (g, [a, l, r, z]) = diamond();
        let w = |id: OpId| g.op(id).cost().flops;
        let dist = longest_path_to(&g, w);
        assert_eq!(dist[a.index()], 1.0);
        assert_eq!(dist[l.index()], 3.0);
        assert_eq!(dist[r.index()], 4.0);
        assert_eq!(dist[z.index()], 5.0);
        assert_eq!(critical_path(&g, w), 5.0);
    }

    #[test]
    fn recvset_operations() {
        let mut s = RecvSet::empty(2);
        assert_eq!(s.count(), 0);
        s.insert(0);
        s.insert(63);
        s.insert(64);
        s.insert(100);
        assert_eq!(s.count(), 4);
        assert!(s.contains(63) && s.contains(100));
        assert!(!s.contains(1));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 64, 100]);

        let mut mask = RecvSet::empty(2);
        mask.insert(63);
        mask.insert(100);
        assert_eq!(
            s.iter_intersection(&mask).collect::<Vec<_>>(),
            vec![63, 100]
        );

        s.remove(63);
        assert!(!s.contains(63));
        assert_eq!(s.count(), 3);

        let mut t = RecvSet::empty(2);
        t.insert(5);
        s.union_with(&t);
        assert!(s.contains(5));
    }

    #[test]
    fn recvset_copy_intersect_difference() {
        let mut a = RecvSet::empty(2);
        a.insert(1);
        a.insert(64);
        a.insert(70);
        let mut b = RecvSet::empty(2);
        b.insert(64);
        b.insert(2);

        let mut s = RecvSet::empty(2);
        s.copy_from(&a);
        assert_eq!(s, a);

        s.intersect_with(&b);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![64]);

        s.copy_from(&a);
        s.difference_with(&b);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 70]);
    }

    #[test]
    fn words_for_boundary() {
        assert_eq!(RecvSet::words_for(0), 0);
        assert_eq!(RecvSet::words_for(1), 1);
        assert_eq!(RecvSet::words_for(64), 1);
        assert_eq!(RecvSet::words_for(65), 2);
    }
}

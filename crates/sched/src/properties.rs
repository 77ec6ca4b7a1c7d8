//! Algorithm 1 of the paper: op properties over a set of outstanding recvs.
//!
//! For a partition `G`, a time oracle and a set `R` of outstanding (not yet
//! transferred) recv ops, the paper defines (§4.1):
//!
//! * `op.M` — *communication time*: total outstanding transfer time the op
//!   still waits for, `Σ_{r ∈ op.dep ∩ R} Time(r)`.
//! * `recv.P` — *directly-dependent compute load*: total `Time(op)` over
//!   ops that become unblocked by completing this recv alone (their only
//!   outstanding communication dependency is this recv).
//! * `recv.M⁺` — *impending communication load*: the minimum `op.M` over
//!   ops with **multiple** outstanding recv dependencies that include this
//!   recv; `∞` if there is no such op. `M⁺` includes the recv's own
//!   transfer time (it is part of `op.M`).
//!
//! The paper recomputes all properties from scratch every round
//! (`UpdateProperties`). This implementation is fully incremental
//! (DESIGN.md §7): a reverse index maps each recv bit to the ops whose
//! transitive dependency set contains it, so [`OpProperties::complete`]
//! touches only the ops whose count actually changes — `M` and the counts
//! are decremented in place, `P` accumulates exactly when an op's count
//! drops to one, and `M⁺` is maintained by a frontier-restricted min-merge
//! plus targeted re-derivation of the few bits whose minimum may have
//! risen. The naive per-round sweep survives crate-privately as
//! `recompute_m_plus` (it seeds the initial state) and `complete_naive`,
//! the steps of the test oracle [`crate::reference::tac_order_naive`].
//!
//! # Why the incremental `M⁺` is exact
//!
//! Dependency sets grow along partition edges (`dep(succ) ⊇ dep(pred)`),
//! so both `op.M` and the outstanding count are monotone non-decreasing
//! from predecessor to successor. Three consequences:
//!
//! 1. The candidate set for a bit `c` (ops with `cnt ≥ 2` and `c ∈ dep`)
//!    is *up-closed*: `M⁺[c]` is attained at a minimal candidate.
//! 2. When completing a bit decreases a surviving candidate `i`, merging
//!    `min(M⁺[c], M[i])` into every `c ∈ dep(i) ∩ R` is sound — and any
//!    `c` covered by a predecessor `p` of `i` with `cnt(p) ≥ 2` can be
//!    skipped, because `M⁺[c] ≤ M[p] ≤ M[i]` is guaranteed by `p`'s own
//!    merge (or, inductively, by one of `p`'s predecessors').
//! 3. The minimum for `c` can only *rise* when a candidate leaves the set
//!    (its count drops from 2 to 1) while holding the stored minimum;
//!    exactly those bits are re-derived from the reverse index.

use crate::partition::PartitionGraph;
use tictac_graph::topo::RecvSet;
use tictac_trace::SimDuration;

/// Properties of Algorithm 1, maintained incrementally as recvs complete.
#[derive(Debug, Clone)]
pub struct OpProperties {
    /// Outstanding recv bits (the set `R`).
    outstanding: RecvSet,
    n_outstanding: usize,
    /// Per local op: `op.M`.
    m: Vec<SimDuration>,
    /// Per local op: `|op.dep ∩ R|`.
    cnt: Vec<u32>,
    /// Per recv bit: `P`.
    p: Vec<SimDuration>,
    /// Per recv bit: `M⁺` (`None` = ∞).
    m_plus: Vec<Option<SimDuration>>,
    /// Per local op: `Time(op)` under the oracle in use.
    durations: Vec<SimDuration>,
    /// Per recv bit: whether the op is a recv currently in `R` (used to
    /// exclude outstanding recvs from `P` contributions).
    is_recv: Vec<bool>,
    /// Per recv bit: local ops whose transitive dependency set contains the
    /// bit, ascending. The reverse of `part.deps`; lets `complete` touch
    /// only affected ops instead of sweeping the partition.
    dependents: Vec<Vec<u32>>,
    /// Scratch bitset for the frontier-restricted merge (avoids per-round
    /// allocation).
    scratch_set: RecvSet,
    /// Scratch: pre-completion `M` of each affected op.
    scratch_old_m: Vec<SimDuration>,
    /// Scratch: bits whose `M⁺` must be re-derived this round.
    scratch_dirty: Vec<usize>,
    /// Total `M⁺` min-merges applied by [`complete`](Self::complete)
    /// (Pass 3), across all rounds so far.
    merges: u64,
    /// Total dirty bits exactly re-derived by
    /// [`complete`](Self::complete) (Pass 4), across all rounds so far.
    rederived: u64,
}

impl OpProperties {
    /// Initializes properties with **all** recvs outstanding.
    ///
    /// # Panics
    ///
    /// Panics if `durations` does not cover every op of the partition.
    pub fn new(part: &PartitionGraph, durations: Vec<SimDuration>) -> Self {
        assert_eq!(
            durations.len(),
            part.len(),
            "durations must cover the partition"
        );
        let n_recv = part.recvs().len();
        let words = RecvSet::words_for(n_recv);
        let mut outstanding = RecvSet::empty(words);
        for bit in 0..n_recv {
            outstanding.insert(bit);
        }

        let mut is_recv = vec![false; part.len()];
        for &r in part.recvs() {
            is_recv[r as usize] = true;
        }

        let mut m = vec![SimDuration::ZERO; part.len()];
        let mut cnt = vec![0u32; part.len()];
        for i in 0..part.len() {
            let dep = part.deps(i);
            cnt[i] = dep.count() as u32;
            let mut total = SimDuration::ZERO;
            for bit in dep.iter() {
                total += durations[part.recvs()[bit] as usize];
            }
            m[i] = total;
        }

        // Initial P: non-recv ops whose entire dependency set is one recv.
        let mut p = vec![SimDuration::ZERO; n_recv];
        for i in 0..part.len() {
            if cnt[i] == 1 && !is_recv[i] {
                let bit = part.deps(i).iter().next().expect("cnt == 1");
                p[bit] += durations[i];
            }
        }

        let mut dependents = vec![Vec::new(); n_recv];
        for i in 0..part.len() {
            for bit in part.deps(i).iter() {
                dependents[bit].push(i as u32);
            }
        }

        let mut props = Self {
            outstanding,
            n_outstanding: n_recv,
            m,
            cnt,
            p,
            m_plus: vec![None; n_recv],
            durations,
            is_recv,
            dependents,
            scratch_set: RecvSet::empty(words),
            scratch_old_m: Vec::new(),
            scratch_dirty: Vec::new(),
            merges: 0,
            rederived: 0,
        };
        props.recompute_m_plus(part);
        props
    }

    /// Number of recvs still outstanding.
    pub(crate) fn outstanding_count(&self) -> usize {
        self.n_outstanding
    }

    /// Iterates over outstanding recv bits.
    pub(crate) fn outstanding(&self) -> impl Iterator<Item = usize> + '_ {
        self.outstanding.iter()
    }

    /// `P` of recv bit `bit`.
    ///
    /// # Panics
    ///
    /// Panics if `bit` is out of bounds.
    pub fn p(&self, bit: usize) -> SimDuration {
        self.p[bit]
    }

    /// `M⁺` of recv bit `bit` (`None` = ∞).
    ///
    /// # Panics
    ///
    /// Panics if `bit` is out of bounds.
    pub fn m_plus(&self, bit: usize) -> Option<SimDuration> {
        self.m_plus[bit]
    }

    /// The transfer time of recv bit `bit` (its `M` as a root op).
    pub fn recv_time(&self, part: &PartitionGraph, bit: usize) -> SimDuration {
        self.durations[part.recvs()[bit] as usize]
    }

    /// Total `M⁺` min-merges applied by the incremental
    /// [`complete`](Self::complete) so far — one per (candidate, bit) pair
    /// actually touched in the frontier-restricted merge.
    pub(crate) fn merges(&self) -> u64 {
        self.merges
    }

    /// Total dirty bits whose `M⁺` the incremental
    /// [`complete`](Self::complete) re-derived exactly so far.
    pub(crate) fn rederived(&self) -> u64 {
        self.rederived
    }

    /// Marks recv `bit` as completed (removes it from `R`) and updates `M`,
    /// counts, `P` **and `M⁺`** incrementally.
    ///
    /// Only ops whose dependency count actually changes (the reverse index
    /// of `bit`) are touched; `M⁺` is maintained by a frontier-restricted
    /// min-merge plus exact re-derivation of bits whose minimum may have
    /// risen (see the module docs). Equivalent to the reference's
    /// `complete_naive` followed by `recompute_m_plus`.
    ///
    /// # Panics
    ///
    /// Panics if the recv is not outstanding.
    pub(crate) fn complete(&mut self, part: &PartitionGraph, bit: usize) {
        assert!(self.outstanding.contains(bit), "recv {bit} not outstanding");
        self.outstanding.remove(bit);
        self.n_outstanding -= 1;
        let recv_dur = self.durations[part.recvs()[bit] as usize];

        // The completed bit can never be selected again, so its dependents
        // list is dead weight: take it, freeing the borrow for the passes
        // below.
        let affected = std::mem::take(&mut self.dependents[bit]);

        // Pass 1: decrement M and the counts, accumulate P — the same
        // transitions as the naive sweep, restricted to affected ops.
        self.scratch_old_m.clear();
        for &i in &affected {
            let i = i as usize;
            self.scratch_old_m.push(self.m[i]);
            self.m[i] = self.m[i].saturating_sub(recv_dur);
            self.cnt[i] -= 1;
            if self.cnt[i] == 1 && !self.is_recv[i] {
                // The op now waits on exactly one outstanding recv.
                if let Some(owner) = part.deps(i).iter_intersection(&self.outstanding).next() {
                    self.p[owner] += self.durations[i];
                }
            }
        }

        // The completed recv left `R`; its own M+ slot is undefined now.
        self.m_plus[bit] = None;

        // Pass 2: an op leaving the candidate set (count 2 -> 1) while its
        // old M equals the stored minimum may have been the argmin — those
        // bits must be re-derived from scratch.
        let mut dirty = std::mem::take(&mut self.scratch_dirty);
        dirty.clear();
        for (k, &i) in affected.iter().enumerate() {
            let i = i as usize;
            if self.cnt[i] != 1 {
                continue;
            }
            let old_m = self.scratch_old_m[k];
            for c in part.deps(i).iter_intersection(&self.outstanding) {
                if self.m_plus[c] == Some(old_m) {
                    dirty.push(c);
                }
            }
        }

        // Pass 3: surviving candidates decreased; min-merge their new M
        // into their dependency bits. Bits covered by a predecessor that is
        // itself a candidate are skipped: the predecessor's (smaller) M
        // already bounds them.
        let mut fresh = std::mem::take(&mut self.scratch_set);
        for &i in &affected {
            let i = i as usize;
            if self.cnt[i] < 2 {
                continue;
            }
            // Dependency sets nest along edges, so a qualifying predecessor
            // with the same count has the *same* outstanding set — every
            // bit is covered and the merge is a no-op. This catches almost
            // every op on chain-shaped models without touching bitset
            // words.
            if part
                .preds(i)
                .iter()
                .any(|&p| self.cnt[p as usize] == self.cnt[i])
            {
                continue;
            }
            let m_new = self.m[i];
            fresh.copy_from(part.deps(i));
            fresh.intersect_with(&self.outstanding);
            for &p in part.preds(i) {
                if self.cnt[p as usize] >= 2 {
                    fresh.difference_with(part.deps(p as usize));
                }
            }
            for c in fresh.iter() {
                self.merges += 1;
                let slot = &mut self.m_plus[c];
                *slot = Some(match *slot {
                    Some(cur) => cur.min(m_new),
                    None => m_new,
                });
            }
        }
        self.scratch_set = fresh;

        // Pass 4: exact re-derivation of the dirty bits via the reverse
        // index (overwrites whatever the merges left there).
        dirty.sort_unstable();
        dirty.dedup();
        self.rederived += dirty.len() as u64;
        for &c in &dirty {
            let mut best: Option<SimDuration> = None;
            for &j in &self.dependents[c] {
                let j = j as usize;
                if self.cnt[j] >= 2 {
                    best = Some(match best {
                        Some(b) => b.min(self.m[j]),
                        None => self.m[j],
                    });
                }
            }
            self.m_plus[c] = best;
        }
        self.scratch_dirty = dirty;
    }

    /// Reference implementation of the completion step: the full `O(|G|)`
    /// sweep of the seed engine, leaving `M⁺` stale. Pair with
    /// [`recompute_m_plus`](Self::recompute_m_plus) to reproduce the naive
    /// per-round cost.
    ///
    /// # Panics
    ///
    /// Panics if the recv is not outstanding.
    pub(crate) fn complete_naive(&mut self, part: &PartitionGraph, bit: usize) {
        assert!(self.outstanding.contains(bit), "recv {bit} not outstanding");
        self.outstanding.remove(bit);
        self.n_outstanding -= 1;
        let recv_dur = self.durations[part.recvs()[bit] as usize];
        for i in 0..part.len() {
            if !part.deps(i).contains(bit) {
                continue;
            }
            self.m[i] = self.m[i].saturating_sub(recv_dur);
            self.cnt[i] -= 1;
            if self.cnt[i] == 1 && !self.is_recv[i] {
                // The op now waits on exactly one outstanding recv.
                if let Some(owner) = part.deps(i).iter_intersection(&self.outstanding).next() {
                    self.p[owner] += self.durations[i];
                }
            }
        }
    }

    /// Recomputes `M⁺` for all outstanding recvs with a full sweep — the
    /// naive per-round reference. [`complete`](Self::complete) maintains
    /// the same values incrementally; this remains for initialization and
    /// as the oracle in equivalence tests.
    pub(crate) fn recompute_m_plus(&mut self, part: &PartitionGraph) {
        for v in &mut self.m_plus {
            *v = None;
        }
        for i in 0..part.len() {
            if self.cnt[i] <= 1 {
                continue;
            }
            let op_m = self.m[i];
            for bit in part.deps(i).iter_intersection(&self.outstanding) {
                let slot = &mut self.m_plus[bit];
                *slot = Some(match *slot {
                    Some(cur) => cur.min(op_m),
                    None => op_m,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tictac_graph::{Cost, DeviceId, Graph, GraphBuilder, OpId, OpKind};
    use tictac_trace::{CostOracle, Platform, TimeOracle};

    /// Figure 1a: recv1 -> op1 -> op2, recv2 -> op2.
    fn fig1a() -> (Graph, DeviceId, [OpId; 4]) {
        let mut b = GraphBuilder::new();
        let w = b.add_worker("w0");
        let ps = b.add_parameter_server("ps0");
        let ch = b.add_channel(w, ps);
        let p1 = b.add_param("w1", 1_000_000);
        let p2 = b.add_param("w2", 2_000_000);
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
            Cost::bytes(2_000_000),
            &[],
        );
        let op1 = b.add_op("op1", w, OpKind::Compute, Cost::flops(5.0e8), &[r1]);
        let op2 = b.add_op("op2", w, OpKind::Compute, Cost::flops(5.0e8), &[op1, r2]);
        (b.build().unwrap(), w, [r1, r2, op1, op2])
    }

    #[test]
    fn initial_properties_match_paper_figure_1a() {
        let (g, w, [r1, r2, op1, op2]) = fig1a();
        let part = PartitionGraph::new(&g, w);
        let oracle = CostOracle::new(Platform::cpu_cluster());
        let durs = part.durations(&g, &oracle);
        let props = OpProperties::new(&part, durs.clone());

        let t_r1 = oracle.duration(&g, r1);
        let t_r2 = oracle.duration(&g, r2);
        let t_op1 = oracle.duration(&g, op1);

        // op1.M = Time(recv1); op2.M = Time(recv1) + Time(recv2) (§4.1).
        assert_eq!(props.m[part.local(op1).unwrap()], t_r1);
        assert_eq!(props.m[part.local(op2).unwrap()], t_r1 + t_r2);

        // recv1.P = Time(op1); recv2.P = 0 (§4.1).
        assert_eq!(props.p(0), t_op1);
        assert_eq!(props.p(1), SimDuration::ZERO);

        // recv1.M+ = recv2.M+ = Time(recv1) + Time(recv2) via op2 (§4.1).
        assert_eq!(props.m_plus(0), Some(t_r1 + t_r2));
        assert_eq!(props.m_plus(1), Some(t_r1 + t_r2));

        assert_eq!(props.outstanding_count(), 2);
        assert_eq!(props.recv_time(&part, 0), t_r1);
        assert_eq!(props.recv_time(&part, 1), t_r2);
    }

    #[test]
    fn completing_a_recv_updates_m_cnt_and_p() {
        let (g, w, [_r1, r2, op1, op2]) = fig1a();
        let part = PartitionGraph::new(&g, w);
        let oracle = CostOracle::new(Platform::cpu_cluster());
        let durs = part.durations(&g, &oracle);
        let mut props = OpProperties::new(&part, durs);

        let t_r2 = oracle.duration(&g, r2);
        let t_op2 = oracle.duration(&g, op2);

        props.complete(&part, 0); // recv1 done
        props.recompute_m_plus(&part);

        assert!(!props.outstanding().any(|b| b == 0));
        assert!(props.outstanding().any(|b| b == 1));
        assert_eq!(props.outstanding_count(), 1);
        // op2 now waits only on recv2.
        assert_eq!(props.m[part.local(op2).unwrap()], t_r2);
        // op2's only outstanding dependency is recv2 => contributes to P.
        // op1 has no outstanding deps and contributes to nothing.
        assert_eq!(props.p(1), t_op2);
        // No op has multiple outstanding recv deps anymore: M+ = infinity.
        assert_eq!(props.m_plus(1), None);
        // op1.M dropped to zero.
        assert_eq!(props.m[part.local(op1).unwrap()], SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "not outstanding")]
    fn double_completion_panics() {
        let (g, w, _) = fig1a();
        let part = PartitionGraph::new(&g, w);
        let oracle = CostOracle::new(Platform::cpu_cluster());
        let durs = part.durations(&g, &oracle);
        let mut props = OpProperties::new(&part, durs);
        props.complete(&part, 0);
        props.complete(&part, 0);
    }

    /// Figure 4b: op1 <- {A, B}; op2 <- {op1, C}; op3 <- {op2, D}.
    /// With everything outstanding, A and B tie at the smallest M+.
    #[test]
    fn figure_4b_m_plus_ordering() {
        let mut b = GraphBuilder::new();
        let w = b.add_worker("w0");
        let ps = b.add_parameter_server("ps0");
        let ch = b.add_channel(w, ps);
        let recv = |b: &mut GraphBuilder, name: &str, bytes: u64| {
            let p = b.add_param(format!("p_{name}"), bytes);
            b.add_op(name, w, OpKind::recv(p, ch), Cost::bytes(bytes), &[])
        };
        let a = recv(&mut b, "A", 1_000_000);
        let bb = recv(&mut b, "B", 1_000_000);
        let c = recv(&mut b, "C", 1_000_000);
        let d = recv(&mut b, "D", 1_000_000);
        let op1 = b.add_op("op1", w, OpKind::Compute, Cost::flops(1e8), &[a, bb]);
        let op2 = b.add_op("op2", w, OpKind::Compute, Cost::flops(1e8), &[op1, c]);
        let _op3 = b.add_op("op3", w, OpKind::Compute, Cost::flops(1e8), &[op2, d]);
        let g = b.build().unwrap();
        let part = PartitionGraph::new(&g, w);
        let oracle = CostOracle::new(Platform::cpu_cluster());
        let props = OpProperties::new(&part, part.durations(&g, &oracle));

        let t = |id| oracle.duration(&g, id);
        // Bits follow recv order of addition: A=0, B=1, C=2, D=3.
        assert_eq!(props.m_plus(0), Some(t(a) + t(bb)));
        assert_eq!(props.m_plus(1), Some(t(a) + t(bb)));
        assert_eq!(props.m_plus(2), Some(t(a) + t(bb) + t(c)));
        assert_eq!(props.m_plus(3), Some(t(a) + t(bb) + t(c) + t(d)));
        // All P are zero: nothing unblocks on a single recv.
        for bit in 0..4 {
            assert_eq!(props.p(bit), SimDuration::ZERO);
        }
    }
}

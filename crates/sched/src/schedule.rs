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
///
/// Stored as one presence bit per op, a `u32` rank prefix per 64-bit word
/// of bits (the prioritized ops in the words before it) and the priorities
/// of the prioritized ops alone, in op order: op `i`'s value is at its
/// word's prefix plus the set bits below `i` in that word. A baseline
/// schedule costs a bit an op; a TIC or TAC one, which prioritizes the
/// recvs of one worker in every worker's graph, about 1.3 bytes. Every
/// `u64` is a legal priority — TIC gives `M⁺ = ∞` as `u64::MAX` — so no
/// value stands for "absent". The prefix is empty while no op has a
/// priority, which keeps the derived equality exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Number of ops covered.
    len: usize,
    /// Bit `i % 64` of word `i / 64` is set when op `i` has a priority.
    present: Vec<u64>,
    /// `rank[w]`: the set bits in `present[..w]`; empty while `values` is.
    rank: Vec<u32>,
    /// The priorities of the prioritized ops, in ascending op order.
    values: Vec<u64>,
}

impl Schedule {
    /// A schedule with no priorities for a graph of `n` ops (the paper's
    /// *baseline*: execution order is arbitrary).
    pub fn empty(n: usize) -> Self {
        Self {
            len: n,
            present: vec![0; n.div_ceil(64)],
            rank: Vec::new(),
            values: Vec::new(),
        }
    }

    /// The schedule of `n` ops that [`set`](Self::set)ting each pair in
    /// turn makes (a later pair for the same op wins), built in time linear
    /// in `n` and the pairs: the presence bits first, then the rank prefix,
    /// then each value at its rank. The pairs are walked twice.
    ///
    /// # Panics
    ///
    /// Panics if an op is out of bounds for the schedule, as `set` does.
    pub fn from_priorities<I>(n: usize, pairs: I) -> Self
    where
        I: IntoIterator<Item = (OpId, u64)>,
        I::IntoIter: Clone,
    {
        let mut s = Self::empty(n);
        let pairs = pairs.into_iter();
        for (op, _) in pairs.clone() {
            let i = s.checked(op);
            s.present[i / 64] |= 1 << (i % 64);
        }
        let mut count = 0u32;
        let rank: Vec<u32> = s
            .present
            .iter()
            .map(|word| {
                let below = count;
                count += word.count_ones();
                below
            })
            .collect();
        if count > 0 {
            s.rank = rank;
            s.values = vec![0; count as usize];
            for (op, priority) in pairs {
                let at = s.slot(op.index());
                s.values[at] = priority;
            }
        }
        s
    }

    /// Assigns priority `priority` to `op`. A first priority for `op`
    /// moves every later value up one slot: build whole schedules with
    /// [`from_priorities`](Self::from_priorities).
    ///
    /// # Panics
    ///
    /// Panics if `op` is out of bounds for the schedule.
    pub fn set(&mut self, op: OpId, priority: u64) {
        let i = self.checked(op);
        let (w, bit) = (i / 64, 1u64 << (i % 64));
        if self.rank.is_empty() {
            self.rank = vec![0; self.present.len()];
        }
        let at = self.slot(i);
        if self.present[w] & bit != 0 {
            self.values[at] = priority;
            return;
        }
        self.present[w] |= bit;
        self.values.insert(at, priority);
        for r in &mut self.rank[w + 1..] {
            *r += 1;
        }
    }

    /// `op`'s index, after the bounds check `set` makes.
    fn checked(&self, op: OpId) -> usize {
        let i = op.index();
        assert!(
            i < self.len,
            "index out of bounds: the len is {} but the index is {i}",
            self.len
        );
        i
    }

    /// Where op `i`'s value is, or would be, in `values`.
    fn slot(&self, i: usize) -> usize {
        let below = self.present[i / 64] & ((1u64 << (i % 64)) - 1);
        self.rank[i / 64] as usize + below.count_ones() as usize
    }

    /// The priority of `op`, if assigned.
    pub fn priority(&self, op: OpId) -> Option<u64> {
        let i = op.index();
        let word = *self.present.get(i / 64)?;
        (word >> (i % 64) & 1 != 0).then(|| self.values[self.slot(i)])
    }

    /// Number of ops covered (prioritized or not).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the schedule covers zero ops.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether no op has a priority (baseline behaviour).
    pub fn is_unordered(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterates over `(op, priority)` pairs that have priorities, in
    /// ascending op order.
    pub fn prioritized(&self) -> impl Iterator<Item = (OpId, u64)> + '_ {
        let ops = self.present.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let i = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    OpId::from_index(i)
                })
            })
        });
        ops.zip(self.values.iter().copied())
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
    Schedule::from_priorities(graph.len(), recvs.into_iter().zip(0..))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
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

    /// Heap bytes a schedule holds, by capacity.
    fn heap_bytes(s: &Schedule) -> usize {
        (s.present.capacity() + s.values.capacity()) * std::mem::size_of::<u64>()
            + s.rank.capacity() * std::mem::size_of::<u32>()
    }

    /// A chain of `n` recvs, each feeding one layer that also needs the
    /// layer before it: TIC prioritizes every recv.
    fn chain(n: usize) -> (Graph, DeviceId) {
        let mut b = GraphBuilder::new();
        let w = b.add_worker("w0");
        let ps = b.add_parameter_server("ps0");
        let ch = b.add_channel(w, ps);
        let mut prev = None;
        for i in 0..n {
            let p = b.add_param(format!("p{i}"), 8);
            let r = b.add_op(format!("r{i}"), w, OpKind::recv(p, ch), Cost::bytes(8), &[]);
            let deps: Vec<OpId> = std::iter::once(r).chain(prev).collect();
            prev = Some(b.add_op(format!("l{i}"), w, OpKind::Compute, Cost::flops(1.0), &deps));
        }
        (b.build().unwrap(), w)
    }

    /// Width pins: a prioritized schedule holds a bit an op, four bytes a
    /// word of bits and eight bytes a prioritized op, an empty one the bit
    /// alone.
    #[test]
    fn schedule_heap_is_a_bit_per_op_plus_eight_bytes_per_priority() {
        let (g, w) = chain(500);
        let n = g.len();
        let tic = crate::tic(&g, w);
        let prioritized = tic.prioritized().count();
        assert_eq!(prioritized, 500);
        let words = n.div_ceil(64);
        assert_eq!(
            heap_bytes(&tic),
            8 * prioritized + 8 * words + 4 * words,
            "{}",
            heap_bytes(&tic)
        );
        let empty = no_ordering(&g);
        assert!(heap_bytes(&empty) <= n / 8 + 64, "{}", heap_bytes(&empty));
        assert!(heap_bytes(&empty.clone()) <= n / 8 + 64);
    }

    /// An out-of-range `set` panics as indexing the `Vec<Option<u64>>`
    /// table it replaced did, and leaves the schedule as it was.
    #[test]
    fn out_of_range_set_panics_as_the_option_table_did() {
        let message = |f: &mut dyn FnMut()| {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_err();
            err.downcast_ref::<String>()
                .cloned()
                .expect("a formatted message")
        };
        for n in [0, 3, 64] {
            let mut model: Vec<Option<u64>> = vec![None; n];
            let mut s = Schedule::empty(n);
            let op = OpId::from_index(n);
            let want = message(&mut || model[op.index()] = Some(1));
            assert_eq!(message(&mut || s.set(op, 1)), want);
            assert_eq!(s, Schedule::empty(n));
            let pairs = [(OpId::from_index(0), 1), (op, 1)];
            let bulk = message(&mut || drop(Schedule::from_priorities(n, pairs)));
            assert_eq!(bulk, want);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The bitset schedule answers every query as the
        /// `Vec<Option<u64>>` table it replaced: re-sets, out-of-range
        /// lookups, empty and baseline schedules, more than 64 ops. The
        /// bulk constructor, given the pairs `set` was given (random op
        /// order, an op set more than once, `0` and `u64::MAX`), builds
        /// the same schedule.
        #[test]
        fn schedule_matches_the_option_table(seed in any::<u64>(), n in 0usize..200) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut model: Vec<Option<u64>> = vec![None; n];
            let mut s = Schedule::empty(n);
            let mut pairs: Vec<(OpId, u64)> = Vec::new();
            for _ in 0..rng.gen_range(0..64) {
                // Word boundaries and the two extreme priorities on purpose.
                let i = match rng.gen_range(0..4) {
                    0 => [63, 64, 127, 128][rng.gen_range(0..4usize)],
                    _ => rng.gen_range(0..n + 2),
                };
                let p = match rng.gen_range(0..4) {
                    0 => 0,
                    1 => u64::MAX,
                    2 => rng.gen_range(0..4),
                    _ => rng.gen(),
                };
                if i < n && rng.gen_range(0..4) != 0 {
                    model[i] = Some(p);
                    s.set(OpId::from_index(i), p);
                    pairs.push((OpId::from_index(i), p));
                } else {
                    let want = model.get(i).copied().flatten();
                    prop_assert_eq!(s.priority(OpId::from_index(i)), want);
                }
            }
            prop_assert_eq!(s.len(), model.len());
            prop_assert_eq!(s.is_empty(), model.is_empty());
            prop_assert_eq!(s.is_unordered(), model.iter().all(Option::is_none));
            for i in 0..n + 130 {
                let op = OpId::from_index(i);
                prop_assert_eq!(s.priority(op), model.get(i).copied().flatten());
            }
            let want: Vec<(OpId, u64)> = model
                .iter()
                .enumerate()
                .filter_map(|(i, p)| p.map(|p| (OpId::from_index(i), p)))
                .collect();
            prop_assert_eq!(s.prioritized().collect::<Vec<_>>(), want.clone());
            // Equality is exact: the same table built in another order,
            // each op set once, is the same schedule, and a clone is too.
            let mut again = Schedule::empty(n);
            for &(op, p) in want.iter().rev() {
                again.set(op, p);
            }
            prop_assert_eq!(&again, &s);
            prop_assert_eq!(&s.clone(), &s);
            let differs = want.first().map(|&(op, p)| {
                let mut other = s.clone();
                other.set(op, p.wrapping_add(1));
                other
            });
            if let Some(other) = differs {
                prop_assert_ne!(&other, &s);
            }
            prop_assert_eq!(s == Schedule::empty(n), want.is_empty());

            let bulk = Schedule::from_priorities(n, pairs.iter().copied());
            prop_assert_eq!(&bulk, &s);
            prop_assert_eq!(bulk.is_unordered(), model.iter().all(Option::is_none));
            for i in 0..n + 130 {
                let op = OpId::from_index(i);
                prop_assert_eq!(bulk.priority(op), model.get(i).copied().flatten());
            }
            prop_assert_eq!(bulk.prioritized().collect::<Vec<_>>(), want.clone());
            // What the bulk constructor reserves is what it holds.
            prop_assert_eq!(bulk.values.capacity(), want.len());
            let words = if want.is_empty() { 0 } else { n.div_ceil(64) };
            prop_assert_eq!(bulk.rank.capacity(), words);
        }
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

//! Parameter-to-PS sharding policies.

use tictac_graph::ModelGraph;

/// How parameters are assigned to parameter-server shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Sharding {
    /// Greedy size-balanced assignment (longest-processing-time first):
    /// parameters are placed, largest first, on the currently lightest
    /// shard. This is how production PS setups balance network load and is
    /// the default.
    #[default]
    SizeBalanced,
    /// Round-robin by declaration order, ignoring sizes (TensorFlow's
    /// default `replica_device_setter` strategy). Kept for ablations.
    RoundRobin,
}

impl Sharding {
    /// Computes the shard index of every parameter.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn assign(self, model: &ModelGraph, shards: usize) -> Vec<usize> {
        let bytes: Vec<u64> = model.params().iter().map(|p| p.bytes()).collect();
        self.assign_weighted(&bytes, shards)
    }

    /// Computes the shard index of every transfer unit, given unit byte
    /// sizes directly. [`Sharding::assign`] delegates here with one unit
    /// per parameter; the partition pass calls it with chunked units so a
    /// split tensor's chunks can land on different shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn assign_weighted(self, bytes: &[u64], shards: usize) -> Vec<usize> {
        assert!(shards > 0, "at least one shard required");
        let n = bytes.len();
        match self {
            Sharding::RoundRobin => (0..n).map(|i| i % shards).collect(),
            Sharding::SizeBalanced => {
                let mut order: Vec<usize> = (0..n).collect();
                order.sort_by_key(|&i| std::cmp::Reverse(bytes[i]));
                let mut load = vec![0u64; shards];
                let mut assignment = vec![0usize; n];
                for i in order {
                    let lightest = (0..shards).min_by_key(|&s| load[s]).expect("shards > 0");
                    assignment[i] = lightest;
                    load[lightest] += bytes[i];
                }
                assignment
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tictac_models::{Mode, Model};

    #[test]
    fn round_robin_cycles() {
        let m = tictac_models::tiny_mlp(Mode::Inference, 1);
        assert_eq!(Sharding::RoundRobin.assign(&m, 3), vec![0, 1, 2, 0]);
        assert_eq!(Sharding::RoundRobin.assign(&m, 1), vec![0, 0, 0, 0]);
    }

    #[test]
    fn size_balanced_beats_round_robin_on_skewed_models() {
        // VGG-16's parameters are dominated by fc6: size balancing should
        // spread bytes much more evenly than round-robin.
        let m = Model::Vgg16.build_with_batch(Mode::Inference, 2);
        let imbalance = |assignment: &[usize], shards: usize| -> f64 {
            let mut load = vec![0u64; shards];
            for (i, &s) in assignment.iter().enumerate() {
                load[s] += m.params()[i].bytes();
            }
            let max = *load.iter().max().unwrap() as f64;
            let avg = load.iter().sum::<u64>() as f64 / shards as f64;
            max / avg
        };
        let balanced = imbalance(&Sharding::SizeBalanced.assign(&m, 4), 4);
        let rr = imbalance(&Sharding::RoundRobin.assign(&m, 4), 4);
        assert!(balanced <= rr, "balanced {balanced:.3} vs rr {rr:.3}");
        // VGG-16's fc6 holds ~74% of all bytes, so the best achievable
        // max/avg with 4 shards is bounded below by that one tensor.
        let total: u64 = m.params().iter().map(|p| p.bytes()).sum();
        let largest = m.params().iter().map(|p| p.bytes()).max().unwrap();
        let optimum = largest as f64 / (total as f64 / 4.0);
        assert!(
            balanced <= optimum.max(1.0) + 0.05,
            "balanced imbalance {balanced:.3} vs optimum {optimum:.3}"
        );
    }

    #[test]
    fn every_param_is_assigned_in_range() {
        let m = Model::InceptionV1.build_with_batch(Mode::Inference, 2);
        for sharding in [Sharding::SizeBalanced, Sharding::RoundRobin] {
            let a = sharding.assign(&m, 4);
            assert_eq!(a.len(), m.params().len());
            assert!(a.iter().all(|&s| s < 4));
        }
    }
}

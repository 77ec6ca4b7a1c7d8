//! Online search for communication granularity.
//!
//! TicTac fixes the transfer *order* but inherits the model's tensor
//! *granularity*. This module searches over [`CommConfig`] — the
//! partition/fusion thresholds lowered by
//! [`deploy`](tictac_cluster::deploy) — for the configuration that
//! minimises the simulated iteration makespan under the session's own
//! scheduler. Following "Automatic Configuration for Optimal
//! Communication Scheduling in DNN Training" (see PAPERS.md), the
//! thresholds are searched per `(model, cluster)` point rather than
//! hand-tuned: a seeded coordinate-descent loop walks a small ladder of
//! candidate sizes per axis, evaluating each candidate with the fast
//! discrete-event simulator and memoizing every evaluation in the
//! [`DeployCache`] so warm re-tunes are free.
//!
//! The default configuration (both passes off) is always the first
//! candidate and a new candidate must be *strictly* better to displace
//! the incumbent, so the tuned result can never regress below plain
//! deployment on the metric it optimises.

use tictac_cluster::{ClusterSpec, CommConfig};
use tictac_graph::ModelGraph;
use tictac_sched::SchedulerKind;
use tictac_sim::{FaultSpec, RunPlan, SimConfig, SimError};

use crate::cache::DeployCache;
use crate::session::ScenarioBuildError;

/// Iteration-index base for tuning simulations, far away from the
/// ranges used by sessions (run offsets) and experiments, so the noise
/// streams a tuner observes never collide with a later measured run.
const EVAL_ITER_BASE: u64 = 0x7 << 40;

/// Search-space and budget knobs for [`auto_tune_with`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TuneOptions {
    /// Seed for the search's probe order. Two searches with the same
    /// seed (and identical inputs) visit candidates in the same order
    /// and return the same result.
    pub seed: u64,
    /// Candidate partition thresholds; `None` disables the pass.
    pub partition_ladder: Vec<Option<u64>>,
    /// Candidate fusion thresholds; `None` disables the pass.
    pub fusion_ladder: Vec<Option<u64>>,
    /// Coordinate-descent sweeps over the two axes.
    pub sweeps: usize,
    /// Fault-free simulated iterations averaged per candidate.
    pub samples: u32,
}

impl Default for TuneOptions {
    /// Power-of-two ladders around the sizes that matter for the zoo:
    /// partitions of 1–32 MiB (VGG's fc6 is ~411 MB) and fusions of
    /// 16 KiB–1 MiB (Inception's conv params are a few KiB each).
    fn default() -> Self {
        Self {
            seed: 0x71C_7AC,
            partition_ladder: ladder(&[1 << 20, 2 << 20, 4 << 20, 8 << 20, 16 << 20, 32 << 20]),
            fusion_ladder: ladder(&[16 << 10, 64 << 10, 256 << 10, 1 << 20]),
            sweeps: 2,
            samples: 2,
        }
    }
}

impl TuneOptions {
    /// A reduced search for smoke tests and benchmarks: one sweep over
    /// coarse ladders, one sample per candidate.
    pub fn quick() -> Self {
        Self {
            seed: 0x71C_7AC,
            partition_ladder: ladder(&[4 << 20, 16 << 20]),
            fusion_ladder: ladder(&[64 << 10]),
            sweeps: 1,
            samples: 1,
        }
    }
}

/// `None` (pass off) followed by each size in `bytes`.
fn ladder(bytes: &[u64]) -> Vec<Option<u64>> {
    std::iter::once(None)
        .chain(bytes.iter().copied().map(Some))
        .collect()
}

/// Outcome of [`auto_tune_with`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TuneResult {
    /// The argmin-makespan configuration found.
    pub best: CommConfig,
    /// Mean fault-free makespan under `best`, in seconds.
    pub best_makespan_s: f64,
    /// Mean fault-free makespan under the default (untuned)
    /// configuration, in seconds.
    pub baseline_makespan_s: f64,
    /// Distinct candidate configurations evaluated (including the
    /// baseline).
    pub evaluations: usize,
}

impl TuneResult {
    /// Makespan improvement of `best` over the untuned baseline, in
    /// percent (0 when tuning found nothing better).
    pub fn speedup_pct(&self) -> f64 {
        (self.baseline_makespan_s / self.best_makespan_s - 1.0) * 100.0
    }
}

/// Searches for the [`CommConfig`] minimising the mean fault-free
/// makespan of `model` on `cluster` under `scheduler`.
///
/// Coordinate descent: starting from the default configuration, each
/// sweep probes the full ladder of one axis (partition or fusion) while
/// holding the other at the incumbent, keeping a candidate only when it
/// is strictly better. The seed permutes which axis each sweep probes
/// first. Every candidate evaluation — deploy, schedule, `samples`
/// fault-free simulated iterations — flows through
/// `DeployCache::tune_eval`, so repeated searches over overlapping
/// ladders re-simulate nothing.
///
/// The comm thresholds of `cluster` itself are ignored: the search
/// always starts from (and may return) the default configuration.
///
/// # Errors
///
/// [`ScenarioBuildError::Deploy`] if the model does not fit the cluster
/// or a ladder contains a zero threshold, and
/// [`ScenarioBuildError::Backend`] with what a candidate's
/// [`RunPlan::new`] refuses (a cluster too slow for the time axis) or
/// a sample run's failure.
pub fn auto_tune_with(
    cache: &DeployCache,
    model: &ModelGraph,
    cluster: &ClusterSpec,
    scheduler: SchedulerKind,
    config: &SimConfig,
    options: &TuneOptions,
) -> Result<TuneResult, ScenarioBuildError> {
    // Candidates are ranked on quiet simulations: injected faults would
    // make the objective depend on the fault stream rather than the
    // granularity under test.
    let mut config = config.clone();
    config.faults = FaultSpec::default();
    let samples = options.samples.max(1);
    let mut evaluations = 0usize;
    let mut eval = |comm: CommConfig| -> Result<f64, ScenarioBuildError> {
        evaluations += 1;
        let candidate = cluster.clone().with_comm(comm);
        cache.tune_eval(
            model,
            &candidate,
            scheduler,
            &config,
            samples,
            |d, sched| {
                let plan = RunPlan::new(d.graph(), sched, &config)?;
                let sum = (0..u64::from(samples))
                    .map(|i| {
                        let trace = plan.try_simulate(d.graph(), sched, EVAL_ITER_BASE + i)?;
                        Ok(trace.makespan().as_secs_f64())
                    })
                    .sum::<Result<f64, SimError>>()?;
                Ok(sum / f64::from(samples))
            },
        )
    };

    let baseline = eval(CommConfig::default())?;
    let mut best = CommConfig::default();
    let mut best_cost = baseline;
    let mut rng = options.seed;
    for _ in 0..options.sweeps {
        // xorshift64*: which axis this sweep probes first.
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        let axes = if rng.is_multiple_of(2) {
            [0, 1]
        } else {
            [1, 0]
        };
        for axis in axes {
            let steps = if axis == 0 {
                &options.partition_ladder
            } else {
                &options.fusion_ladder
            };
            for &threshold in steps {
                let mut candidate = best;
                if axis == 0 {
                    candidate.partition_bytes = threshold;
                } else {
                    candidate.fusion_bytes = threshold;
                }
                if candidate == best {
                    continue;
                }
                let cost = eval(candidate)?;
                if cost < best_cost {
                    best = candidate;
                    best_cost = cost;
                }
            }
        }
    }
    Ok(TuneResult {
        best,
        best_makespan_s: best_cost,
        baseline_makespan_s: baseline,
        evaluations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tictac_graph::{tiny_mlp, Mode, Model};

    fn setup() -> (ModelGraph, ClusterSpec, SimConfig) {
        let model = Model::InceptionV1.build_with_batch(Mode::Training, 4);
        let cluster = ClusterSpec::new(4, 2);
        (model, cluster, SimConfig::cloud_gpu())
    }

    #[test]
    fn search_is_deterministic_under_a_fixed_seed() {
        let (model, cluster, config) = setup();
        let opts = TuneOptions::quick();
        let cache = DeployCache::new();
        let a =
            auto_tune_with(&cache, &model, &cluster, SchedulerKind::Tac, &config, &opts).unwrap();
        let b =
            auto_tune_with(&cache, &model, &cluster, SchedulerKind::Tac, &config, &opts).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.evaluations, b.evaluations);
    }

    #[test]
    fn tuned_result_never_regresses_below_the_baseline() {
        let (model, cluster, config) = setup();
        let cache = DeployCache::new();
        let r = auto_tune_with(
            &cache,
            &model,
            &cluster,
            SchedulerKind::Tac,
            &config,
            &TuneOptions::quick(),
        )
        .unwrap();
        assert!(r.best_makespan_s <= r.baseline_makespan_s);
        assert!(r.speedup_pct() >= 0.0);
        assert!(r.evaluations >= 2);
    }

    #[test]
    fn warm_retunes_are_served_from_the_cache() {
        let (model, cluster, config) = setup();
        let opts = TuneOptions::quick();
        let cache = DeployCache::new();
        auto_tune_with(&cache, &model, &cluster, SchedulerKind::Tic, &config, &opts).unwrap();
        let cold = cache.stats();
        assert_eq!(cold.eval_hits, 0);
        assert!(cold.eval_misses > 0);
        auto_tune_with(&cache, &model, &cluster, SchedulerKind::Tic, &config, &opts).unwrap();
        let warm = cache.stats();
        // The second search replays the identical candidate walk without
        // a single fresh deploy/schedule/simulate.
        assert_eq!(warm.eval_misses, cold.eval_misses);
        assert_eq!(warm.eval_hits, cold.eval_misses);
    }

    #[test]
    fn fused_transfers_win_on_a_tiny_many_param_model() {
        // tiny_mlp's parameters are all small, so fusing them removes
        // per-transfer latency without hurting overlap; the search must
        // find a config at least as good as default and keep the
        // default when nothing beats it.
        let model = tiny_mlp(Mode::Training, 8);
        let cluster = ClusterSpec::new(2, 1);
        let cache = DeployCache::new();
        let r = auto_tune_with(
            &cache,
            &model,
            &cluster,
            SchedulerKind::Tac,
            &SimConfig::cloud_gpu(),
            &TuneOptions::default(),
        )
        .unwrap();
        assert!(r.best_makespan_s <= r.baseline_makespan_s);
    }
}

//! Simulation configuration.

use crate::faults::FaultSpec;
use tictac_trace::{NoiseModel, Platform};

/// Default base seed (reads roughly as "TICTAC").
pub const DEFAULT_SEED: u64 = 0x11C7AC;

/// Configuration of one simulated deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Hardware constants (envG / envC presets in [`Platform`]).
    pub platform: Platform,
    /// Runtime-variance model.
    pub noise: NoiseModel,
    /// Probability that the network layer processes a hand-off out of
    /// order (the paper measured 0.4–0.5% at the gRPC level, §5.1).
    pub reorder_error: f64,
    /// Base RNG seed; combined with the iteration index so every iteration
    /// draws an independent but reproducible stream.
    pub seed: u64,
    /// Whether the sender-side counter enforcement of §5.1 is active.
    ///
    /// When `false`, prioritized transfers are handed to gRPC as soon as
    /// they are ready (only the channel's rank-aware pop remains) — the
    /// "ordering the activation of ops is not sufficient" ablation the
    /// paper discusses when motivating its enforcement point.
    pub enforcement: bool,
    /// How disordered unprioritized ready-queue pops are: the runtime
    /// picks uniformly among the first `disorder_window` eligible entries
    /// in readiness order (`None` = uniform over the whole queue).
    ///
    /// Measured TensorFlow baselines are *locally* disordered rather than
    /// uniformly random — arrival orders loosely follow graph order with
    /// substantial jitter (which is why VGG-16's 32 parameters produced
    /// repeated orders in 1000 runs, §2.2, while larger models essentially
    /// never repeat). The default window of 32 calibrates baseline
    /// schedule quality to the paper's measured speedup range.
    pub disorder_window: Option<usize>,
    /// Fault-injection model. The quiet default ([`FaultSpec::none`])
    /// injects nothing and leaves every trace byte-identical to a run
    /// without the fault subsystem.
    pub faults: FaultSpec,
}

impl SimConfig {
    /// envG (cloud GPU) with realistic noise — the paper's primary
    /// environment.
    pub fn cloud_gpu() -> Self {
        Self {
            platform: Platform::cloud_gpu(),
            noise: NoiseModel::realistic(),
            reorder_error: 0.005,
            seed: DEFAULT_SEED,
            enforcement: true,
            disorder_window: Some(32),
            faults: FaultSpec::none(),
        }
    }

    /// envC (CPU cluster, 1 GbE) with dedicated-hardware noise.
    pub fn cpu_cluster() -> Self {
        Self {
            platform: Platform::cpu_cluster(),
            noise: NoiseModel::dedicated(),
            reorder_error: 0.005,
            seed: DEFAULT_SEED,
            enforcement: true,
            disorder_window: Some(32),
            faults: FaultSpec::none(),
        }
    }

    /// A deterministic configuration (no noise, no reorder errors) for
    /// tests and bound-checking.
    pub fn deterministic(platform: Platform) -> Self {
        Self {
            platform,
            noise: NoiseModel::none(),
            reorder_error: 0.0,
            seed: DEFAULT_SEED,
            enforcement: true,
            disorder_window: Some(32),
            faults: FaultSpec::none(),
        }
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the noise model.
    pub fn with_noise(mut self, noise: NoiseModel) -> Self {
        self.noise = noise;
        self
    }

    /// Overrides the disorder window (see [`SimConfig::disorder_window`]).
    pub fn with_disorder_window(mut self, window: Option<usize>) -> Self {
        self.disorder_window = window;
        self
    }

    /// Disables or enables sender-side enforcement (see
    /// [`SimConfig::enforcement`]).
    pub fn with_enforcement(mut self, enforcement: bool) -> Self {
        self.enforcement = enforcement;
        self
    }

    /// Overrides the fault-injection model.
    pub fn with_faults(mut self, faults: FaultSpec) -> Self {
        self.faults = faults;
        self
    }

    /// Overrides the reorder-error probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a probability.
    pub fn with_reorder_error(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "reorder_error must be in [0,1]");
        self.reorder_error = p;
        self
    }
}

// The three items below are what is left of the partitioned parallel
// engine's surface (DESIGN.md §12). They exist only because
// `benchmark/src/layers.rs` names them and the PR that deleted the engine
// could not edit the benchmark; they do nothing, nothing else may call
// them, and they go with the next benchmark PR.

impl SimConfig {
    #[doc(hidden)]
    pub fn with_par_threshold(self, _: Option<usize>) -> Self {
        self
    }
}

#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineChoice {
    Sequential,
    Parallel,
}

#[doc(hidden)]
pub fn selected_engine(_: &tictac_graph::Graph, _: &SimConfig) -> EngineChoice {
    EngineChoice::Sequential
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_use_expected_platforms() {
        assert_eq!(SimConfig::cloud_gpu().platform.name(), "envG");
        assert_eq!(SimConfig::cpu_cluster().platform.name(), "envC");
    }

    #[test]
    fn builders_override_fields() {
        let c = SimConfig::deterministic(Platform::cloud_gpu())
            .with_seed(42)
            .with_reorder_error(0.25);
        assert_eq!(c.seed, 42);
        assert_eq!(c.reorder_error, 0.25);
    }

    #[test]
    #[should_panic(expected = "reorder_error")]
    fn rejects_invalid_probability() {
        SimConfig::deterministic(Platform::cloud_gpu()).with_reorder_error(2.0);
    }
}

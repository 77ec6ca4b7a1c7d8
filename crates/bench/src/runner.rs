//! Session execution helpers shared by all experiments.

use tictac_core::{
    ClusterSpec, Mode, Model, RunReport, SchedulerKind, Session, Sharding, SimConfig,
};

/// One point of a sweep: a model, a task, a cluster shape and a policy.
#[derive(Debug, Clone)]
pub struct Point {
    /// The network under test.
    pub model: Model,
    /// Training or inference.
    pub mode: Mode,
    /// Per-worker batch (0 = Table 1 default).
    pub batch: usize,
    /// Number of workers.
    pub workers: usize,
    /// Number of parameter servers.
    pub parameter_servers: usize,
    /// Scheduling policy.
    pub scheduler: SchedulerKind,
    /// Simulation configuration.
    pub config: SimConfig,
    /// Measured iterations (the paper uses 10).
    pub iterations: usize,
    /// Parameter sharding policy.
    pub sharding: Sharding,
}

impl Point {
    /// A point with the paper's defaults (Table-1 batch, 10 iterations,
    /// 2 warm-up iterations).
    pub fn new(
        model: Model,
        mode: Mode,
        workers: usize,
        parameter_servers: usize,
        scheduler: SchedulerKind,
        config: SimConfig,
    ) -> Self {
        Self {
            model,
            mode,
            batch: 0,
            workers,
            parameter_servers,
            scheduler,
            config,
            iterations: 10,
            sharding: Sharding::SizeBalanced,
        }
    }

    /// Runs the point end to end.
    pub fn run(&self) -> RunReport {
        let batch = if self.batch == 0 {
            self.model.default_batch()
        } else {
            self.batch
        };
        let graph = self.model.build_with_batch(self.mode, batch);
        Session::builder(graph)
            .cluster(
                ClusterSpec::new(self.workers, self.parameter_servers).with_sharding(self.sharding),
            )
            .config(self.config.clone())
            .scheduler(self.scheduler)
            .iterations(self.iterations)
            .build()
            .expect("valid sweep point")
            .run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_runs_a_small_model() {
        let mut p = Point::new(
            Model::AlexNetV2,
            Mode::Inference,
            1,
            1,
            SchedulerKind::Tic,
            SimConfig::cloud_gpu(),
        );
        p.batch = 8;
        p.iterations = 2;
        let report = p.run();
        assert_eq!(report.iterations.len(), 2);
        assert!(report.mean_throughput() > 0.0);
    }
}

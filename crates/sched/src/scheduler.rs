//! The [`Scheduler`] trait: a uniform interface over the paper's
//! transfer-ordering policies.
//!
//! Each policy assigns priorities to the `recv` ops of one worker; callers
//! (e.g. `tictac-core`'s session) pick a reference worker, call
//! [`Scheduler::assign`], and replicate the result across workers. The
//! legacy free functions ([`tic`], [`tac`], [`no_ordering`],
//! [`random_order`]) remain as thin wrappers; trait output is pinned to
//! them by conformance tests.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use tictac_graph::{DeviceId, Graph};
use tictac_obs::Registry;
use tictac_trace::TimeOracle;

use crate::schedule::{no_ordering, random_order, Schedule};
use crate::tac::tac_observed;
use crate::tic::tic_observed;

/// Which transfer-scheduling policy to enforce.
///
/// The closed, nameable counterpart of the open [`Scheduler`] trait:
/// config surfaces (sessions, scenario files, run records, CLIs) carry a
/// `SchedulerKind`; `tictac-core` lowers it onto the corresponding
/// policy implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// No enforced order — the paper's baseline; transfer order is whatever
    /// the runtime's random ready-queue pops produce.
    Baseline,
    /// A uniformly random but *fixed* total order, identical on all
    /// workers (used in §6.3 to isolate the benefit of consistency).
    Random,
    /// Timing-Independent Communication scheduling (Algorithm 2).
    Tic,
    /// Timing-Aware Communication scheduling (Algorithm 3), fed by the
    /// min-of-5 traced profile (§5).
    Tac,
}

impl SchedulerKind {
    /// All policies, baseline first.
    pub const ALL: [SchedulerKind; 4] = [
        SchedulerKind::Baseline,
        SchedulerKind::Random,
        SchedulerKind::Tic,
        SchedulerKind::Tac,
    ];

    /// The policy's short lowercase name (the [`Display`](std::fmt::Display)
    /// rendering).
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::Baseline => "baseline",
            SchedulerKind::Random => "random",
            SchedulerKind::Tic => "tic",
            SchedulerKind::Tac => "tac",
        }
    }

    /// Parses a policy from its short lowercase name.
    pub fn from_name(name: &str) -> Option<SchedulerKind> {
        SchedulerKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

impl std::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A transfer-ordering policy: assigns priorities to `worker`'s recv ops.
pub trait Scheduler {
    /// Short lowercase policy name (e.g. `"tac"`), for display and metrics.
    fn name(&self) -> &'static str;

    /// Computes the schedule for `worker`'s recv ops on `graph`.
    ///
    /// `oracle` provides per-op durations (ignored by timing-independent
    /// policies); `registry`, when given and enabled, receives derivation
    /// timings (`sched.*.derive_ns`).
    fn assign(
        &self,
        graph: &Graph,
        worker: DeviceId,
        oracle: &dyn TimeOracle,
        registry: Option<&Registry>,
    ) -> Schedule;
}

/// The paper's baseline: no enforced ordering.
#[derive(Debug, Clone, Copy, Default)]
pub struct Baseline;

impl Scheduler for Baseline {
    fn name(&self) -> &'static str {
        "baseline"
    }

    fn assign(
        &self,
        graph: &Graph,
        _worker: DeviceId,
        _oracle: &dyn TimeOracle,
        _registry: Option<&Registry>,
    ) -> Schedule {
        no_ordering(graph)
    }
}

/// A uniformly random total order, deterministic in `seed` (§6.3: any
/// consistent order already beats none).
#[derive(Debug, Clone, Copy)]
pub struct Random {
    /// RNG seed; the same seed yields the same order.
    pub seed: u64,
}

impl Scheduler for Random {
    fn name(&self) -> &'static str {
        "random"
    }

    fn assign(
        &self,
        graph: &Graph,
        worker: DeviceId,
        _oracle: &dyn TimeOracle,
        _registry: Option<&Registry>,
    ) -> Schedule {
        random_order(graph, worker, &mut SmallRng::seed_from_u64(self.seed))
    }
}

/// Timing-Independent Communication scheduling (Algorithm 2). Ignores the
/// oracle: TIC costs ops with the general time oracle by construction.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tic;

impl Scheduler for Tic {
    fn name(&self) -> &'static str {
        "tic"
    }

    fn assign(
        &self,
        graph: &Graph,
        worker: DeviceId,
        _oracle: &dyn TimeOracle,
        registry: Option<&Registry>,
    ) -> Schedule {
        let disabled = Registry::disabled();
        tic_observed(graph, worker, registry.unwrap_or(&disabled))
    }
}

/// Timing-Aware Communication scheduling (Algorithm 3), driven by the
/// caller's oracle (typically a measured min-of-5 profile, §5).
#[derive(Debug, Clone, Copy, Default)]
pub struct Tac;

impl Scheduler for Tac {
    fn name(&self) -> &'static str {
        "tac"
    }

    fn assign(
        &self,
        graph: &Graph,
        worker: DeviceId,
        oracle: &dyn TimeOracle,
        registry: Option<&Registry>,
    ) -> Schedule {
        let disabled = Registry::disabled();
        tac_observed(graph, worker, oracle, registry.unwrap_or(&disabled))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{tac, tic};
    use tictac_cluster::{deploy, ClusterSpec};
    use tictac_graph::{tiny_mlp, Mode};
    use tictac_trace::GeneralOracle;

    fn deployed() -> (Graph, DeviceId) {
        let model = tiny_mlp(Mode::Training, 8);
        let d = deploy(&model, &ClusterSpec::new(2, 1)).unwrap();
        let w = d.workers()[0];
        (d.graph().clone(), w)
    }

    #[test]
    fn trait_objects_dispatch() {
        let (g, w) = deployed();
        let policies: Vec<Box<dyn Scheduler>> = vec![
            Box::new(Baseline),
            Box::new(Random { seed: 7 }),
            Box::new(Tic),
            Box::new(Tac),
        ];
        for p in &policies {
            let s = p.assign(&g, w, &GeneralOracle, None);
            assert_eq!(s.len(), g.len());
        }
    }

    #[test]
    fn baseline_matches_no_ordering() {
        let (g, w) = deployed();
        assert_eq!(
            Baseline.assign(&g, w, &GeneralOracle, None),
            no_ordering(&g)
        );
    }

    #[test]
    fn random_matches_seeded_free_function() {
        let (g, w) = deployed();
        let via_trait = Random { seed: 42 }.assign(&g, w, &GeneralOracle, None);
        let direct = random_order(&g, w, &mut SmallRng::seed_from_u64(42));
        assert_eq!(via_trait, direct);
        assert!(!via_trait.is_unordered());
    }

    #[test]
    fn tic_and_tac_match_free_functions() {
        let (g, w) = deployed();
        assert_eq!(Tic.assign(&g, w, &GeneralOracle, None), tic(&g, w));
        assert_eq!(
            Tac.assign(&g, w, &GeneralOracle, None),
            tac(&g, w, &GeneralOracle)
        );
    }

    #[test]
    fn registry_presence_never_changes_the_schedule() {
        let (g, w) = deployed();
        let reg = Registry::enabled();
        for p in [&Tic as &dyn Scheduler, &Tac] {
            assert_eq!(
                p.assign(&g, w, &GeneralOracle, Some(&reg)),
                p.assign(&g, w, &GeneralOracle, None)
            );
        }
    }
}

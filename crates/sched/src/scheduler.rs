//! [`SchedulerKind`]: the closed set of the paper's transfer-ordering
//! policies.
//!
//! Each policy assigns priorities to the `recv` ops of one worker; callers
//! (e.g. `tictac-core`'s session) pick a reference worker, call the
//! policy's free function ([`no_ordering`](crate::no_ordering),
//! [`random_order`](crate::random_order), [`tic`](crate::tic),
//! [`tac`](crate::tac) or their `_observed` forms) and replicate the result
//! across workers.

/// Which transfer-scheduling policy to enforce.
///
/// Config surfaces (sessions, scenario files, run records, CLIs) carry a
/// `SchedulerKind`; `tictac-core` lowers it onto the policy's free
/// function in one place.
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

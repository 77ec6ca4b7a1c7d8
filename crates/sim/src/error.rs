//! Typed failures of both executors: one error type for the event engine
//! and the threaded runtime.

use std::fmt;
use std::time::Duration;
use tictac_graph::OpId;
use tictac_trace::{SimDuration, SimTime};

/// Why an iteration could not produce a complete trace, on either
/// executor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The schedule does not cover the graph (length mismatch).
    ScheduleMismatch {
        /// Ops covered by the schedule.
        schedule_len: usize,
        /// Ops in the graph.
        graph_len: usize,
    },
    /// The event queue drained with ops outstanding and no degraded
    /// barrier to release them (impossible for builder-validated DAGs
    /// without fault injection).
    Deadlock {
        /// Ops that completed.
        completed: usize,
        /// Ops left incomplete.
        remaining: usize,
        /// Virtual time when progress stopped.
        at: SimTime,
    },
    /// A transfer exhausted its retry budget and no degraded barrier was
    /// configured to absorb the loss.
    RetriesExhausted {
        /// The recv op of the failed transfer.
        op: OpId,
        /// Attempts made (initial send plus retransmits).
        attempts: u32,
        /// When the final timeout fired, in virtual time.
        at: SimTime,
    },
    /// The fault plan's retry policy can keep one transfer waiting for
    /// `budget`, at or past the 2^53 ns end of the time axis: its
    /// loss-detection timeouts would be scheduled past it.
    RetryPastHorizon {
        /// The policy's worst case, `RetryPolicy::total_budget`.
        budget: SimDuration,
    },
    /// The plan's noise-free service times sum to `total` (saturating),
    /// at or past the 2^53 ns end of the time axis: one iteration of it
    /// would leave the axis.
    ServicePastHorizon {
        /// That sum: an upper bound on one noise-free iteration.
        total: SimDuration,
    },
    /// The threaded runtime's watchdog expired with work outstanding (a
    /// wedged thread or an impossible schedule).
    Stalled {
        /// Ops that completed before the abort.
        completed: usize,
        /// Ops still outstanding.
        remaining: usize,
        /// How long the watchdog waited.
        waited: Duration,
        /// Names of the outstanding ops, capped (a trailing `+ N more`
        /// entry summarizes any excess).
        outstanding: Vec<String>,
        /// Queued-transfer depth per channel at the abort.
        channel_depths: Vec<usize>,
    },
    /// A knob of the configuration is outside its range
    /// ([`FaultSpec::check`](crate::FaultSpec::check)).
    InvalidKnob {
        /// The offending configuration field.
        knob: &'static str,
        /// The value and the range it misses.
        reason: String,
    },
    /// A `SimConfig` knob was set that the threaded backend cannot honor;
    /// refusing it loudly beats silently dropping it.
    UnsupportedConfig {
        /// The offending configuration field.
        knob: &'static str,
        /// Why the backend cannot honor it.
        reason: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::ScheduleMismatch {
                schedule_len,
                graph_len,
            } => write!(
                f,
                "schedule does not cover graph: {schedule_len} priorities for {graph_len} ops"
            ),
            SimError::Deadlock {
                completed,
                remaining,
                at,
            } => write!(
                f,
                "simulation deadlocked at {at}: {completed} ops done, {remaining} outstanding"
            ),
            SimError::RetriesExhausted { op, attempts, at } => write!(
                f,
                "transfer {op} exhausted its retry budget ({attempts} attempts) at {at}"
            ),
            SimError::RetryPastHorizon { budget } => write!(
                f,
                "the retry policy can spend {budget} on one transfer, reaching the \
                 2^53 ns (104-day) horizon of the time axis"
            ),
            SimError::ServicePastHorizon { total } => write!(
                f,
                "one iteration's service times add up to {:.3e} s or more, past the \
                 2^53 ns (104-day) horizon of the time axis; the speed and bandwidth \
                 factors are too small",
                total.as_secs_f64()
            ),
            SimError::Stalled {
                completed,
                remaining,
                waited,
                outstanding,
                channel_depths,
            } => {
                write!(
                    f,
                    "runtime stalled after {waited:?}: {completed} ops done, {remaining} outstanding"
                )?;
                if !outstanding.is_empty() {
                    write!(f, " [{}]", outstanding.join(", "))?;
                }
                write!(f, "; channel queue depths {channel_depths:?}")
            }
            SimError::InvalidKnob { knob, reason } => write!(f, "`{knob}` out of range: {reason}"),
            SimError::UnsupportedConfig { knob, reason } => {
                write!(f, "threaded backend cannot honor `{knob}`: {reason}")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_descriptive() {
        let e = SimError::ScheduleMismatch {
            schedule_len: 3,
            graph_len: 5,
        };
        assert!(e.to_string().contains("schedule does not cover graph"));
        let e = SimError::Deadlock {
            completed: 2,
            remaining: 1,
            at: SimTime::from_nanos(10),
        };
        assert!(e.to_string().contains("deadlocked"));
        let e = SimError::RetriesExhausted {
            op: OpId::from_index(4),
            attempts: 5,
            at: SimTime::from_nanos(10),
        };
        assert!(e.to_string().contains("retry budget"));
        assert!(std::error::Error::source(&e).is_none());
        let e = SimError::RetryPastHorizon {
            budget: SimDuration::from_nanos(u64::MAX),
        };
        assert!(e.to_string().contains("2^53 ns"));
        let e = SimError::ServicePastHorizon {
            total: SimDuration::from_nanos(u64::MAX),
        };
        assert!(e.to_string().contains("2^53 ns"));
        let e = SimError::Stalled {
            completed: 1,
            remaining: 2,
            waited: Duration::from_millis(5),
            outstanding: vec!["w0/recv".into()],
            channel_depths: vec![0, 3],
        };
        assert!(e.to_string().contains("stalled") && e.to_string().contains("[w0/recv]"));
        let e = SimError::InvalidKnob {
            knob: "drop_prob",
            reason: "NaN is not a probability in [0, 1]".into(),
        };
        assert_eq!(
            e.to_string(),
            "`drop_prob` out of range: NaN is not a probability in [0, 1]"
        );
        let e = SimError::UnsupportedConfig {
            knob: "noise",
            reason: "too heavy".into(),
        };
        assert!(e.to_string().contains("cannot honor `noise`"));
    }
}

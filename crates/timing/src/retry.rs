//! Timeout and exponential-backoff arithmetic for fault-tolerant
//! transfers.
//!
//! The simulator's recovery machinery (tictac-sim's `faults` module) needs
//! a deterministic answer to "when does the sender give up waiting for an
//! ack, and how long until the next attempt may time out?". This module
//! keeps all of that arithmetic on [`SimDuration`] so retransmit schedules
//! are exactly reproducible across platforms.

use crate::time::SimDuration;

/// Per-transfer timeout/retransmit policy: a base detection timeout, an
/// exponential backoff multiplier, and a bounded retry budget.
///
/// Attempt `k` (zero-based) of a transfer is declared lost
/// `timeout_for(k)` after it starts; attempts `0..=max_retries` are made
/// before the transfer is abandoned (deferred to the degraded barrier or
/// surfaced as an error).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Loss-detection timeout of the first attempt.
    pub timeout: SimDuration,
    /// Backoff multiplier applied per retry (`>= 1`).
    pub backoff: f64,
    /// Number of retransmits allowed after the initial attempt.
    pub max_retries: u32,
}

impl RetryPolicy {
    /// A gRPC-flavoured default: 50 ms detection timeout, 2x backoff,
    /// 4 retransmits (within an order of magnitude of gRPC's deadline and
    /// reconnect-backoff defaults, scaled to simulated iteration times).
    pub fn grpc_default() -> Self {
        Self {
            timeout: SimDuration::from_millis(50),
            backoff: 2.0,
            max_retries: 4,
        }
    }

    /// A policy that detects losses after `timeout` with no backoff
    /// growth.
    pub fn fixed(timeout: SimDuration, max_retries: u32) -> Self {
        Self {
            timeout,
            backoff: 1.0,
            max_retries,
        }
    }

    /// Overrides the backoff multiplier.
    ///
    /// # Panics
    ///
    /// Panics if `backoff < 1`.
    pub fn with_backoff(mut self, backoff: f64) -> Self {
        assert!(backoff >= 1.0, "backoff must be at least 1");
        self.backoff = backoff;
        self
    }

    /// The loss-detection timeout of zero-based attempt `attempt`:
    /// `timeout * backoff^attempt`, saturating at the representable
    /// maximum.
    pub fn timeout_for(&self, attempt: u32) -> SimDuration {
        let factor = self.backoff.powi(attempt.min(64) as i32);
        self.timeout.saturating_mul_f64(factor)
    }

    /// Whether zero-based attempt `attempt` is within budget (the initial
    /// send plus `max_retries` retransmits).
    pub fn attempt_allowed(&self, attempt: u32) -> bool {
        attempt <= self.max_retries
    }

    /// Worst-case time spent on one transfer before giving up: the sum of
    /// every allowed attempt's timeout.
    pub fn total_budget(&self) -> SimDuration {
        (0..=self.max_retries)
            .map(|k| self.timeout_for(k))
            .fold(SimDuration::ZERO, SimDuration::saturating_add)
    }

    /// [`RetryPolicy::timeout_for`] mapped onto the wall clock: the real
    /// time a wall-clock runtime arms its loss-detection timer for, with
    /// model time scaled by `time_scale` (the threaded runtime's modeled
    /// duration multiplier).
    pub fn wall_timeout_for(&self, attempt: u32, time_scale: f64) -> std::time::Duration {
        std::time::Duration::from_nanos(self.timeout_for(attempt).mul_f64(time_scale).as_nanos())
    }

    /// [`RetryPolicy::total_budget`] mapped onto the wall clock at
    /// `time_scale`: an upper bound on the real time one transfer may
    /// spend in retransmission before it is abandoned. Useful for sizing
    /// watchdog budgets around a fault spec.
    pub fn wall_total_budget(&self, time_scale: f64) -> std::time::Duration {
        std::time::Duration::from_nanos(self.total_budget().mul_f64(time_scale).as_nanos())
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::grpc_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially() {
        let p = RetryPolicy::fixed(SimDuration::from_millis(10), 3).with_backoff(2.0);
        assert_eq!(p.timeout_for(0), SimDuration::from_millis(10));
        assert_eq!(p.timeout_for(1), SimDuration::from_millis(20));
        assert_eq!(p.timeout_for(3), SimDuration::from_millis(80));
        assert_eq!(p.total_budget(), SimDuration::from_millis(150));
    }

    #[test]
    fn fixed_policy_does_not_grow() {
        let p = RetryPolicy::fixed(SimDuration::from_millis(5), 2);
        assert_eq!(p.timeout_for(4), SimDuration::from_millis(5));
        assert_eq!(p.total_budget(), SimDuration::from_millis(15));
    }

    #[test]
    fn budget_counts_initial_attempt() {
        let p = RetryPolicy::fixed(SimDuration::from_millis(1), 0);
        assert!(p.attempt_allowed(0));
        assert!(!p.attempt_allowed(1));
        assert_eq!(p.total_budget(), SimDuration::from_millis(1));
    }

    #[test]
    fn huge_backoff_saturates_instead_of_overflowing() {
        let p = RetryPolicy::fixed(SimDuration::from_secs_f64(1.0), 80).with_backoff(10.0);
        let t = p.timeout_for(80);
        assert_eq!(t, SimDuration::from_nanos(u64::MAX));
        assert_eq!(p.total_budget(), SimDuration::from_nanos(u64::MAX));
    }

    #[test]
    fn wall_clock_mapping_scales_model_time() {
        let p = RetryPolicy::fixed(SimDuration::from_millis(10), 2).with_backoff(2.0);
        assert_eq!(
            p.wall_timeout_for(1, 0.5),
            std::time::Duration::from_millis(10)
        );
        assert_eq!(
            p.wall_total_budget(1.0),
            std::time::Duration::from_millis(70)
        );
    }

    #[test]
    #[should_panic(expected = "backoff")]
    fn rejects_shrinking_backoff() {
        RetryPolicy::grpc_default().with_backoff(0.5);
    }
}

//! Communication-scheduling heuristics of the TicTac paper.
//!
//! This crate implements the paper's contribution:
//!
//! * [`PartitionGraph`] — a worker's partition of the computational graph
//!   with per-op *communication dependencies* (`op.dep`, §4.1).
//! * [`OpProperties`] — Algorithm 1: communication time `M`,
//!   directly-dependent compute load `P` and impending communication load
//!   `M⁺` for a set of outstanding `recv` ops.
//! * [`tic`] — Algorithm 2, *Timing-Independent Communication scheduling*:
//!   priorities from DAG structure alone under the general time oracle
//!   (Equation 5).
//! * [`tac`] — Algorithm 3, *Timing-Aware Communication scheduling*:
//!   iterative selection with the comparator derived in §4.3 (Equation 6).
//! * [`Schedule`] — priority assignments over `recv` ops, plus baselines
//!   ([`no_ordering`], [`random_order`]).
//! * [`SchedulerKind`] — the closed set of policies (baseline, random,
//!   TIC, TAC) that config surfaces name; each kind is one of the free
//!   functions above, and `tictac-core` matches on it in one place.
//! * [`efficiency`] — the scheduling-efficiency metric `E` (Equation 3),
//!   makespan bounds (Equations 1–2) and the speedup potential `S`
//!   (Equation 4).
//!
//! # Comparator note
//!
//! The paper's Algorithm 3 pseudo-code (`A ← min(P_A, M_B); B ← min(P_B,
//! M_A); return A < B`) contradicts its own derivation: Equation 6 states
//! `A ≺ B ⇔ min{P_B, M_A} < min{P_A, M_B}`, and applying the pseudo-code to
//! Figure 1a would schedule `recv2` before `recv1` — the order the paper
//! calls out as bad. We implement Equation 6 and verify it against both
//! worked examples (Figure 4a/4b) in unit tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod efficiency;
mod partition;
mod properties;
pub mod reference;
mod schedule;
mod scheduler;
mod tac;
mod tic;

pub use partition::PartitionGraph;
pub use properties::OpProperties;
pub use schedule::{no_ordering, random_order, Schedule};
pub use scheduler::SchedulerKind;
pub use tac::{tac, tac_observed, tac_order, worst_case};
pub use tic::{tic, tic_observed};

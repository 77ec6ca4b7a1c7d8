//! Figure 8: training loss with and without enforced ordering.
//!
//! The paper trains InceptionV3 on ImageNet for 500 iterations with and
//! without TIC and shows coinciding loss curves — scheduling changes
//! delivery *times*, not values. We reproduce the experiment with a real
//! (small) SGD learner: the enforced-order and random-order runs differ
//! only in gradient accumulation order at the PS.

use crate::format::Table;
use tictac_core::parallel_map;
use tictac_core::training::{loss_curve, TrainingConfig};

/// Trains the Fig. 8 learner for 500 iterations under both policies and
/// reports the curves plus their maximum divergence.
pub fn run(quick: bool) -> String {
    let iterations = if quick { 100 } else { 500 };
    let cfg = TrainingConfig::default();
    // The two runs are independent full training loops; train them on two
    // threads.
    let mut curves = parallel_map(vec![true, false], |&enforce| {
        loss_curve(cfg, enforce, iterations)
    });
    let unordered = curves.pop().expect("two curves");
    let ordered = curves.pop().expect("two curves");

    let mut t = Table::new(["iteration", "loss (TIC ordering)", "loss (no ordering)"]);
    for i in (0..iterations).step_by((iterations / 20).max(1)) {
        t.row([
            i.to_string(),
            format!("{:.6}", ordered[i]),
            format!("{:.6}", unordered[i]),
        ]);
    }
    let max_diff = ordered
        .iter()
        .zip(&unordered)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0_f64, f64::max);
    format!(
        "Figure 8: training loss, first {iterations} iterations, with vs without ordering\n\n{}\nmax |loss difference| = {max_diff:.2e} (float round-off only: ordering does not affect convergence)\nfinal loss: ordered {:.4}, unordered {:.4}\n",
        t.render(),
        ordered[iterations - 1],
        unordered[iterations - 1],
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn curves_coincide() {
        let out = super::run(true);
        assert!(out.contains("max |loss difference|"));
        // The report should demonstrate a decreasing loss.
        assert!(out.contains("final loss"));
    }
}

//! Figure 12: (a) regression of normalized step time on scheduling
//! efficiency (R² = 0.98 in the paper), (b) step-time CDFs, baseline vs
//! TAC — 1000 single-iteration runs of Inception v2 on envC.

use super::point;
use crate::format::Table;
use tictac_core::{
    ols, parallel_map, Cdf, ClusterSpec, EnvPreset, Mode, Model, RunOptions, Scenario,
    SchedulerKind, Session,
};

/// Runs Inception v2 training `N` times with and without TAC, then fits
/// step time against the efficiency metric and compares CDFs.
///
/// Normalized step time follows the paper's convention (fastest observed
/// step over the step), so 1.0 is best.
pub(crate) fn run(quick: bool) -> String {
    let runs = if quick { 60 } else { 1000 };
    let collect = |scheduler| -> (Vec<f64>, Vec<f64>) {
        let cluster = ClusterSpec::new(4, 1);
        let p = point(Model::InceptionV2, Mode::Training, cluster, scheduler);
        let p = Scenario {
            env: EnvPreset::C,
            warmup: 0,
            iterations: 1,
            ..p
        };
        let session = Session::from_scenario(&p).expect("valid cluster");
        // Each run seeds its own streams from the offset, so the points
        // are independent and fan out across threads.
        parallel_map((0..runs as u64).collect(), |&i| {
            let report = session.run_with(RunOptions::new().offset(i));
            let rec = report.iterations[0];
            (rec.efficiency, rec.makespan.as_secs_f64())
        })
        .into_iter()
        .unzip()
    };

    let (e_base, s_base) = collect(SchedulerKind::Baseline);
    let (e_tac, s_tac) = collect(SchedulerKind::Tac);

    // Normalize step times jointly: fastest step across both policies = 1.
    let fastest = s_base
        .iter()
        .chain(&s_tac)
        .copied()
        .fold(f64::INFINITY, f64::min);
    let norm = |steps: &[f64]| -> Vec<f64> { steps.iter().map(|s| fastest / s).collect() };
    let n_base = norm(&s_base);
    let n_tac = norm(&s_tac);

    // (a) OLS over the pooled samples: E vs normalized step time.
    let xs: Vec<f64> = e_base.iter().chain(&e_tac).copied().collect();
    let ys: Vec<f64> = n_base.iter().chain(&n_tac).copied().collect();
    let fit = ols(&xs, &ys);

    // (b) CDFs.
    let cdf_base = Cdf::from_samples(&n_base);
    let cdf_tac = Cdf::from_samples(&n_tac);

    let mut t = Table::new(["quantile", "baseline", "tac"]);
    for q in [0.05, 0.25, 0.5, 0.75, 0.95] {
        t.row([
            format!("p{:02.0}", q * 100.0),
            format!("{:.4}", cdf_base.quantile(q)),
            format!("{:.4}", cdf_tac.quantile(q)),
        ]);
    }

    format!(
        "Figure 12 (envC, Inception v2 training, {runs} runs each)\n\n\
(a) OLS of normalized step time on scheduling efficiency:\n    slope {:.3}, intercept {:.3}, R^2 = {:.3}  (paper: R^2 = 0.98)\n\n\
(b) CDF of normalized step time (1.0 = fastest observed):\n{}\n\
    95th-percentile step time: baseline {:.5}, TAC {:.5}\n    (paper: 0.63403 and 0.99825)\n\n\
    mean efficiency: baseline {:.3}, TAC {:.3}\n    step-time CV: baseline {:.3}, TAC {:.3}\n",
        fit.slope,
        fit.intercept,
        fit.r2,
        t.render(),
        cdf_base.quantile(0.95),
        cdf_tac.quantile(0.95),
        e_base.iter().sum::<f64>() / e_base.len() as f64,
        e_tac.iter().sum::<f64>() / e_tac.len() as f64,
        tictac_core::Summary::of(&s_base).cv(),
        tictac_core::Summary::of(&s_tac).cv(),
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn report_has_fit_and_cdf() {
        let out = super::run(true);
        assert!(out.contains("R^2"));
        assert!(out.contains("95th-percentile"));
        assert!(out.contains("p50"));
    }
}

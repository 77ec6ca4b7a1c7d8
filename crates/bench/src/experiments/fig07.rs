//! Figure 7: throughput speedup vs number of workers (PS:W = 1:4, envG).

use tictac_core::ClusterSpec;

/// Sweeps worker counts {1, 2, 4, 8, 16} with PS:W fixed at 1:4 on envG,
/// reporting TIC's throughput gain over the baseline for training and
/// inference (the paper uses TIC as its envG representative; Appendix B).
pub(crate) fn run(quick: bool) -> String {
    let worker_counts: &[usize] = if quick { &[1, 4] } else { &[1, 2, 4, 8, 16] };
    let clusters: Vec<ClusterSpec> = worker_counts
        .iter()
        .map(|&w| ClusterSpec::new(w, (w / 4).max(1)))
        .collect();
    let tables = super::tic_gain_by_cluster(quick, &clusters, |c| {
        format!("{}w/{}ps", c.workers, c.parameter_servers)
    });
    format!(
        "Figure 7: throughput speedup (%) of TIC over baseline vs #workers\n(envG, PS:Workers = 1:4)\n\n{tables}"
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn quick_sweep_produces_both_tasks() {
        let out = super::run(true);
        assert!(out.contains("task = inference"));
        assert!(out.contains("task = train"));
        assert!(out.contains("alexnet_v2"));
    }
}

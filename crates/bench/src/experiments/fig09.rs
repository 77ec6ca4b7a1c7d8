//! Figure 9: throughput speedup vs number of parameter servers
//! (8 workers, envG).

use tictac_core::ClusterSpec;

/// Sweeps PS counts {1, 2, 4} at 8 workers on envG; reports TIC's gain
/// over the baseline per task.
pub fn run(quick: bool) -> String {
    let ps_counts: &[usize] = if quick { &[1, 2] } else { &[1, 2, 4] };
    let workers = if quick { 4 } else { 8 };
    let clusters: Vec<ClusterSpec> = ps_counts
        .iter()
        .map(|&ps| ClusterSpec::new(workers, ps))
        .collect();
    let tables =
        super::tic_gain_by_cluster(quick, &clusters, |c| format!("{} PS", c.parameter_servers));
    format!(
        "Figure 9: throughput speedup (%) of TIC over baseline vs #parameter servers\n(envG, {workers} workers)\n\n{tables}"
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn quick_sweep_covers_ps_counts() {
        let out = super::run(true);
        assert!(out.contains("1 PS"));
        assert!(out.contains("2 PS"));
    }
}

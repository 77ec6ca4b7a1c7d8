//! Exhaustive-search optimal transfer order for small graphs.
//!
//! Finding the optimal schedule is NP-hard (the paper maps it to flow-shop
//! makespan minimization, §3.1, citing Garey et al. 1976), which is why
//! TicTac uses heuristics. For *small* graphs the optimum is computable by
//! enumerating all recv permutations and simulating each one — this module
//! does exactly that, so tests can quantify how close TIC/TAC get.

use tictac_graph::{DeviceId, Graph, OpId};
use tictac_sched::Schedule;
use tictac_sim::{simulate, SimConfig};
use tictac_trace::{NoiseModel, SimDuration};

/// The outcome of an exhaustive search over transfer orders.
#[derive(Debug, Clone)]
pub struct OptimalSearch {
    /// The best order found (recv ops, first transfer first).
    pub best_order: Vec<OpId>,
    /// Iteration makespan under the best order.
    pub best_makespan: SimDuration,
    /// Iteration makespan under the worst order.
    pub worst_makespan: SimDuration,
    /// Number of permutations evaluated.
    pub evaluated: usize,
}

/// Evaluates the makespan of one fully-specified transfer order
/// (deterministically: noise and reorder errors disabled).
pub fn makespan_of_order(graph: &Graph, order: &[OpId], config: &SimConfig) -> SimDuration {
    let schedule = Schedule::from_priorities(graph.len(), order.iter().copied().zip(0..));
    let exact = config
        .clone()
        .with_noise(NoiseModel::none())
        .with_reorder_error(0.0);
    simulate(graph, &schedule, &exact, 0).makespan()
}

/// Exhaustively searches all permutations of `worker`'s recv ops.
///
/// # Panics
///
/// Panics if the worker has more than 9 recv ops (9! = 362 880
/// permutations is the practical limit; the whole point of TIC/TAC is
/// that real models are far beyond it).
pub fn optimal_order(graph: &Graph, worker: DeviceId, config: &SimConfig) -> OptimalSearch {
    let recvs = graph.recv_ops_on(worker);
    assert!(
        recvs.len() <= 9,
        "exhaustive search is limited to 9 transfers, got {}",
        recvs.len()
    );

    let mut best: Option<(SimDuration, Vec<OpId>)> = None;
    let mut worst = SimDuration::ZERO;
    let mut evaluated = 0usize;
    let mut order = recvs;
    permute(&mut order, 0, &mut |candidate| {
        let makespan = makespan_of_order(graph, candidate, config);
        evaluated += 1;
        worst = worst.max(makespan);
        if best.as_ref().is_none_or(|(b, _)| makespan < *b) {
            best = Some((makespan, candidate.to_vec()));
        }
    });
    let (best_makespan, best_order) = best.expect("at least one permutation");
    OptimalSearch {
        best_order,
        best_makespan,
        worst_makespan: worst,
        evaluated,
    }
}

/// Heap's algorithm, calling `visit` on every permutation of `items`.
fn permute<T, F: FnMut(&[T])>(items: &mut [T], k: usize, visit: &mut F) {
    if k == items.len().saturating_sub(1) || items.is_empty() {
        visit(items);
        return;
    }
    for i in k..items.len() {
        items.swap(k, i);
        permute(items, k + 1, visit);
        items.swap(k, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tictac_graph::{Cost, GraphBuilder, OpKind};
    use tictac_trace::Platform;

    /// Figure-1a-style graph with `n` transfers feeding a compute chain.
    fn chain(n: usize) -> (Graph, DeviceId) {
        let mut b = GraphBuilder::new();
        let w = b.add_worker("w0");
        let ps = b.add_parameter_server("ps0");
        let ch = b.add_channel(w, ps);
        let mut prev = None;
        for i in 0..n {
            let bytes = 1_000_000 * (i as u64 % 3 + 1);
            let p = b.add_param(format!("p{i}"), bytes);
            let read = b.add_op(
                format!("read{i}"),
                ps,
                OpKind::Read { param: p },
                Cost::flops(1.0),
                &[],
            );
            let send = b.add_op(
                format!("send{i}"),
                ps,
                OpKind::send(p, ch),
                Cost::bytes(bytes),
                &[read],
            );
            let recv = b.add_op(
                format!("recv{i}"),
                w,
                OpKind::recv(p, ch),
                Cost::bytes(bytes),
                &[send],
            );
            let deps = match prev {
                Some(l) => vec![l, recv],
                None => vec![recv],
            };
            prev = Some(b.add_op(format!("c{i}"), w, OpKind::Compute, Cost::flops(2e9), &deps));
        }
        (b.build().unwrap(), w)
    }

    #[test]
    fn search_enumerates_all_permutations() {
        let (g, w) = chain(4);
        let result = optimal_order(&g, w, &SimConfig::deterministic(Platform::cloud_gpu()));
        assert_eq!(result.evaluated, 24);
        assert_eq!(result.best_order.len(), 4);
        assert!(result.best_makespan <= result.worst_makespan);
    }

    #[test]
    fn chain_optimum_is_forward_order() {
        let (g, w) = chain(5);
        let cfg = SimConfig::deterministic(Platform::cloud_gpu());
        let result = optimal_order(&g, w, &cfg);
        // In a chain the i-th transfer unblocks the i-th compute op:
        // forward order is optimal.
        let forward: Vec<OpId> = g.recv_ops_on(w);
        assert_eq!(makespan_of_order(&g, &forward, &cfg), result.best_makespan);
        // And the spread is meaningful: a bad order is measurably worse.
        let spread = (result.worst_makespan.as_secs_f64() - result.best_makespan.as_secs_f64())
            / result.best_makespan.as_secs_f64();
        assert!(spread > 0.01, "spread {spread}");
    }

    #[test]
    fn tic_and_tac_are_near_optimal_on_small_chains() {
        use tictac_sched::{tac_order, tic};
        use tictac_trace::CostOracle;
        let (g, w) = chain(6);
        let cfg = SimConfig::deterministic(Platform::cloud_gpu());
        let optimum = optimal_order(&g, w, &cfg);

        let oracle = CostOracle::new(Platform::cloud_gpu());
        let tac_makespan = makespan_of_order(&g, &tac_order(&g, w, &oracle), &cfg);

        let tic_schedule = tic(&g, w);
        let mut tic_seq = g.recv_ops_on(w);
        tic_seq.sort_by_key(|&op| (tic_schedule.priority(op), op));
        let tic_makespan = makespan_of_order(&g, &tic_seq, &cfg);

        let tolerance = optimum.best_makespan.mul_f64(1.05);
        assert!(
            tac_makespan <= tolerance,
            "TAC {tac_makespan} vs optimal {} (worst {})",
            optimum.best_makespan,
            optimum.worst_makespan
        );
        assert!(
            tic_makespan <= tolerance,
            "TIC {tic_makespan} vs optimal {}",
            optimum.best_makespan
        );
    }

    #[test]
    #[should_panic(expected = "exhaustive search")]
    fn search_rejects_large_graphs() {
        let (g, w) = chain(10);
        optimal_order(&g, w, &SimConfig::deterministic(Platform::cloud_gpu()));
    }
}

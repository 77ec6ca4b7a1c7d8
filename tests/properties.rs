//! Property-based tests over randomly generated worker/PS graphs.

use proptest::prelude::*;
use tictac::{
    no_ordering, simulate, tac_order, tic, Cost, Graph, GraphBuilder, OpId, OpKind, Platform,
    SimConfig,
};
use tictac_graph::topo;
use tictac_sched::reference::tac_order_naive;

/// A randomly shaped single-worker deployment: `n_params` transfers and a
/// layered compute DAG where each layer depends on some earlier layers and
/// some recvs.
#[derive(Debug, Clone)]
struct RandomGraph {
    graph: Graph,
    recvs: Vec<OpId>,
    worker: tictac::DeviceId,
}

fn random_graph_strategy() -> impl Strategy<Value = RandomGraph> {
    (2usize..10, 1usize..14, any::<u64>()).prop_map(|(n_params, n_compute, seed)| {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);

        let mut b = GraphBuilder::new();
        let worker = b.add_worker("w0");
        let ps = b.add_parameter_server("ps0");
        let ch = b.add_channel(worker, ps);

        let mut recvs = Vec::new();
        for i in 0..n_params {
            let bytes = rng.gen_range(1_000u64..4_000_000);
            let p = b.add_param(format!("p{i}"), bytes);
            let read = b.add_op(
                format!("read{i}"),
                ps,
                OpKind::Read { param: p },
                Cost::flops(10.0),
                &[],
            );
            let send = b.add_op(
                format!("send{i}"),
                ps,
                OpKind::send(p, ch),
                Cost::bytes(bytes),
                &[read],
            );
            recvs.push(b.add_op(
                format!("recv{i}"),
                worker,
                OpKind::recv(p, ch),
                Cost::bytes(bytes),
                &[send],
            ));
        }

        let mut computes: Vec<OpId> = Vec::new();
        for i in 0..n_compute {
            let mut deps = Vec::new();
            // Depend on up to two earlier compute ops and up to two recvs.
            for _ in 0..rng.gen_range(0..=2usize) {
                if let Some(&c) = computes.get(rng.gen_range(0..computes.len().max(1))) {
                    deps.push(c);
                }
            }
            for _ in 0..rng.gen_range(0..=2usize) {
                deps.push(recvs[rng.gen_range(0..recvs.len())]);
            }
            if deps.is_empty() {
                deps.push(recvs[0]);
            }
            computes.push(b.add_op(
                format!("c{i}"),
                worker,
                OpKind::Compute,
                Cost::flops(rng.gen_range(1e6..1e9)),
                &deps,
            ));
        }
        let graph = b.build().expect("constructively acyclic");
        RandomGraph {
            graph,
            recvs,
            worker,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn generated_graphs_are_valid(g in random_graph_strategy()) {
        prop_assert!(g.graph.check().is_ok());
        prop_assert!(topo::is_acyclic(&g.graph));
    }

    #[test]
    fn topo_order_is_always_topological(g in random_graph_strategy()) {
        let order = topo::topo_order(&g.graph).unwrap();
        prop_assert!(topo::is_topological(&g.graph, &order));
    }

    #[test]
    fn tic_prioritizes_every_recv_and_nothing_else(g in random_graph_strategy()) {
        let schedule = tic(&g.graph, g.worker);
        for &r in &g.recvs {
            prop_assert!(schedule.priority(r).is_some(), "recv {r} unprioritized");
        }
        let prioritized = schedule.prioritized().count();
        prop_assert_eq!(prioritized, g.recvs.len());
    }

    #[test]
    fn tac_order_is_a_permutation_of_recvs(g in random_graph_strategy()) {
        let oracle = tictac::CostOracle::new(Platform::cloud_gpu());
        let order = tac_order(&g.graph, g.worker, &oracle);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        let mut expected = g.recvs.clone();
        expected.sort_unstable();
        prop_assert_eq!(sorted, expected);
    }

    #[test]
    fn incremental_tac_order_equals_the_naive_reference(g in random_graph_strategy()) {
        // The fast path maintains M+ incrementally (DESIGN.md §7); the
        // naive reference recomputes every property from scratch each
        // round. Same comparator, same tie-breaks — the orders must be
        // identical, not merely both valid.
        let oracle = tictac::CostOracle::new(Platform::cloud_gpu());
        let fast = tac_order(&g.graph, g.worker, &oracle);
        let naive = tac_order_naive(&g.graph, g.worker, &oracle);
        prop_assert_eq!(fast, naive);
    }

    #[test]
    fn simulation_executes_every_op_exactly_once(g in random_graph_strategy()) {
        let config = SimConfig::cloud_gpu();
        let trace = simulate(&g.graph, &no_ordering(&g.graph), &config, 1);
        prop_assert_eq!(trace.executed_ops(), g.graph.len());
    }

    #[test]
    fn compute_ops_on_one_device_never_overlap(g in random_graph_strategy()) {
        let config = SimConfig::cloud_gpu();
        let trace = simulate(&g.graph, &no_ordering(&g.graph), &config, 2);
        let mut intervals: Vec<(u64, u64)> = g
            .graph
            .ops_on(g.worker)
            .filter(|&op| !g.graph.op(op).kind().is_communication())
            .filter_map(|op| trace.record(op))
            .map(|r| (r.start.as_nanos(), r.end.as_nanos()))
            .collect();
        intervals.sort_unstable();
        for w in intervals.windows(2) {
            prop_assert!(w[0].1 <= w[1].0, "overlap: {:?} then {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn transfers_on_one_channel_never_overlap(g in random_graph_strategy()) {
        let config = SimConfig::cloud_gpu();
        let trace = simulate(&g.graph, &no_ordering(&g.graph), &config, 3);
        let mut intervals: Vec<(u64, u64)> = g
            .graph
            .recv_ops()
            .into_iter()
            .filter_map(|op| trace.record(op))
            .map(|r| (r.start.as_nanos(), r.end.as_nanos()))
            .collect();
        intervals.sort_unstable();
        for w in intervals.windows(2) {
            prop_assert!(w[0].1 <= w[1].0, "overlap: {:?} then {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn traces_respect_dag_precedence(g in random_graph_strategy()) {
        let config = SimConfig::cloud_gpu();
        let trace = simulate(&g.graph, &no_ordering(&g.graph), &config, 4);
        for id in g.graph.op_ids() {
            // Send ops are traced as spanning their transfer, so their
            // recorded interval is not a completion time; skip them as
            // predecessors and as subjects.
            if g.graph.op(id).kind().is_send() {
                continue;
            }
            let start = trace.record(id).unwrap().start;
            for p in g.graph.preds(id) {
                if g.graph.op(p).kind().is_send() {
                    continue;
                }
                let pred_end = trace.record(p).unwrap().end;
                prop_assert!(
                    pred_end <= start,
                    "{} starts at {:?} before pred {} ends at {:?}",
                    g.graph.op_name(id),
                    start,
                    g.graph.op_name(p),
                    pred_end
                );
            }
        }
    }

    #[test]
    fn enforced_full_order_is_exactly_respected(g in random_graph_strategy()) {
        // Give recvs a random total order and check completion follows it
        // when reorder errors are disabled.
        let mut schedule = no_ordering(&g.graph);
        for (rank, &r) in g.recvs.iter().enumerate() {
            schedule.set(r, rank as u64);
        }
        let config = SimConfig::cloud_gpu().with_reorder_error(0.0);
        let trace = simulate(&g.graph, &schedule, &config, 5);
        let completion = trace.recv_completion_order(&g.graph, g.worker);
        prop_assert_eq!(completion, g.recvs.clone());
    }

    #[test]
    fn iteration_time_never_beats_the_critical_path(g in random_graph_strategy()) {
        let config = SimConfig::deterministic(Platform::cloud_gpu());
        let oracle = tictac::CostOracle::new(Platform::cloud_gpu());
        use tictac::TimeOracle;
        let critical = topo::critical_path(&g.graph, |op| {
            oracle.duration(&g.graph, op).as_nanos() as f64
        });
        let trace = simulate(&g.graph, &no_ordering(&g.graph), &config, 6);
        // Sends are instantaneous in the simulator but cost 1us under the
        // oracle; allow that slack.
        let slack = 2.0 * g.graph.len() as f64 * 1_000.0;
        prop_assert!(
            trace.makespan().as_nanos() as f64 >= critical - slack,
            "makespan {} below critical path {critical}ns",
            trace.makespan()
        );
    }
}

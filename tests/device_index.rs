//! The device → ops index behind `Graph::{ops_on, recv_ops_on}` must
//! answer exactly what a filter over the whole op arena
//! answers, in id order, for every device — on random hand-built graphs
//! (ops interleaved across devices, devices with no ops at all) and on
//! every zoo deployment, including chunked/fused transfer ops, inference
//! graphs and clones. (Nothing serialises a `Graph`, so there is no
//! round-trip to test.)

use proptest::prelude::*;
use tictac::{
    deploy, ClusterSpec, CommConfig, Cost, DeviceId, Graph, GraphBuilder, Mode, Model, OpId, OpKind,
};

/// The definition the index replaced: scan every op, keep `device`'s.
fn filtered(graph: &Graph, device: DeviceId, recvs_only: bool) -> Vec<OpId> {
    graph
        .ops()
        .filter(|(_, op)| op.device() == device && (!recvs_only || op.is_recv()))
        .map(|(id, _)| id)
        .collect()
}

fn assert_index_matches_filter(graph: &Graph, what: &str) {
    for device in graph.devices() {
        let d = device.id();
        let expected = filtered(graph, d, false);
        assert_eq!(
            graph.ops_on(d).collect::<Vec<_>>(),
            expected,
            "{what}: ops_on({d})"
        );
        assert_eq!(
            graph.recv_ops_on(d),
            filtered(graph, d, true),
            "{what}: recv_ops_on({d})"
        );
    }
    // Every op is indexed exactly once.
    let indexed: usize = graph
        .devices()
        .iter()
        .map(|d| graph.ops_on(d.id()).count())
        .sum();
    assert_eq!(indexed, graph.len(), "{what}: index covers the graph");
    // A device the graph does not have owns nothing, as under the filter.
    let stranger = DeviceId::from_index(graph.devices().len());
    assert_eq!(graph.ops_on(stranger).count(), 0, "{what}: unknown device");
    assert!(
        graph.recv_ops_on(stranger).is_empty(),
        "{what}: unknown device"
    );
}

/// A random multi-device graph: transfers and compute ops land on devices
/// in arbitrary interleaving, and some devices may stay empty.
fn random_graph() -> impl Strategy<Value = Graph> {
    (1usize..5, 1usize..4, 0usize..40, any::<u64>()).prop_map(|(workers, servers, n_ops, seed)| {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut b = GraphBuilder::new();
        let ws: Vec<DeviceId> = (0..workers)
            .map(|w| b.add_worker(format!("w{w}")))
            .collect();
        let ps: Vec<DeviceId> = (0..servers)
            .map(|s| b.add_parameter_server(format!("ps{s}")))
            .collect();
        let mut ops: Vec<OpId> = Vec::new();
        for i in 0..n_ops {
            let deps: Vec<OpId> = (0..rng.gen_range(0..=2usize))
                .filter_map(|_| ops.get(rng.gen_range(0..ops.len().max(1))).copied())
                .collect();
            let (w, s) = (rng.gen_range(0..workers), rng.gen_range(0..servers));
            let op = match rng.gen_range(0..4u32) {
                0 => {
                    let ch = b.add_channel(ws[w], ps[s]);
                    let p = b.add_param(format!("p{i}"), 64);
                    let send = b.add_op(
                        format!("send{i}"),
                        ps[s],
                        OpKind::send(p, ch),
                        Cost::bytes(64),
                        &deps,
                    );
                    ops.push(send);
                    b.add_op(
                        format!("recv{i}"),
                        ws[w],
                        OpKind::recv(p, ch),
                        Cost::bytes(64),
                        &[send],
                    )
                }
                1 => b.add_op(
                    format!("ps{i}"),
                    ps[s],
                    OpKind::Compute,
                    Cost::flops(1e6),
                    &deps,
                ),
                _ => b.add_op(
                    format!("c{i}"),
                    ws[w],
                    OpKind::Compute,
                    Cost::flops(1e6),
                    &deps,
                ),
            };
            ops.push(op);
        }
        b.build()
            .expect("deps point backwards, so the graph is acyclic")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn index_equals_the_filter_on_random_graphs(graph in random_graph()) {
        assert_index_matches_filter(&graph, "random");
        assert_index_matches_filter(&graph.clone(), "random clone");
    }
}

#[test]
fn index_equals_the_filter_on_every_zoo_deployment() {
    let comm = CommConfig::default()
        .with_partition_bytes(Some(1 << 20))
        .with_fusion_bytes(Some(64 << 10));
    let shapes = [
        (Mode::Training, ClusterSpec::new(4, 2)),
        (Mode::Inference, ClusterSpec::new(2, 1)),
        (Mode::Training, ClusterSpec::new(3, 2).with_comm(comm)),
        (Mode::Inference, ClusterSpec::new(2, 2).with_comm(comm)),
    ];
    for model in Model::ALL {
        for (mode, cluster) in &shapes {
            let deployed = deploy(&model.build_with_batch(*mode, 2), cluster).unwrap();
            let what = format!("{} {mode:?} {cluster:?}", model.name());
            assert_index_matches_filter(deployed.graph(), &what);
            assert_index_matches_filter(&deployed.graph().clone(), &what);
            assert_eq!(
                deployed.ops_per_worker(),
                filtered(deployed.graph(), deployed.workers()[0], false).len(),
                "{what}"
            );
        }
    }
}

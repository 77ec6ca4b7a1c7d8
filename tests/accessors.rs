//! Every accessor of a deployed graph agrees with the others and with the
//! replica layout (DESIGN.md §10): op id `R + w·B + i` is block op `i` of
//! worker `w`, after `R` shared reads, and the shared aggregates and
//! updates follow the `W` blocks. Over every zoo model, W ∈ {1, 3, 64},
//! PS ∈ {1, 2}, the default lowering and partition + fusion, training and
//! inference.

use tictac::{
    deploy, ClusterSpec, CommConfig, Cost, DeployedModel, GraphBuilder, GraphError, Mode, Model,
    OpId, OpKind, ParamId,
};

fn check(d: &DeployedModel, what: &str) {
    let g = d.graph();
    let (w, s) = (d.workers().len(), d.parameter_servers().len());
    let ops: Vec<_> = g.ops().map(|(_, op)| op).collect();
    let r = ops
        .iter()
        .take_while(|op| matches!(op.kind(), OpKind::Read { .. }))
        .count();
    let tail = ops
        .iter()
        .rev()
        .take_while(|op| matches!(op.kind(), OpKind::Aggregate { .. } | OpKind::Update { .. }))
        .count();
    assert_eq!((g.len() - r - tail) % w, 0, "{what}: blocks");
    let b = (g.len() - r - tail) / w;
    let preds = |id: OpId| g.preds(id).collect::<Vec<_>>();
    let succs = |id: OpId| g.succs(id).collect::<Vec<_>>();

    // preds and succs are mutual inverses, each in id order, and count
    // what they list.
    for id in g.op_ids() {
        let (p, n) = (preds(id), succs(id));
        assert_eq!(g.preds(id).count(), p.len(), "{what}: preds of {id}");
        let mut listed = g.succs(id);
        for left in (0..=n.len()).rev() {
            assert_eq!(listed.size_hint(), (left, Some(left)), "{what}: {id}");
            listed.next();
        }
        assert!(p.windows(2).all(|x| x[0] < x[1]), "{what}: preds of {id}");
        assert!(n.windows(2).all(|x| x[0] < x[1]), "{what}: succs of {id}");
        for q in p {
            assert!(succs(q).contains(&id), "{what}: {q} -> {id}");
        }
        for q in n {
            assert!(preds(q).contains(&id), "{what}: {id} -> {q}");
        }
    }

    // Block op i of worker k + 1 is worker k's, shifted by B, on the next
    // worker and over its channel to the same shard.
    let shared = |p: OpId| p.index() < r || p.index() >= r + w * b;
    let moved = |x: OpId| {
        if shared(x) {
            x
        } else {
            OpId::from_index(x.index() + b)
        }
    };
    for k in 0..w - 1 {
        for i in 0..b {
            let (a, c) = (
                OpId::from_index(r + k * b + i),
                OpId::from_index(r + (k + 1) * b + i),
            );
            let (oa, oc) = (g.op(a), g.op(c));
            assert_eq!(oa.cost(), oc.cost(), "{what}: cost of {c}");
            let device = if oa.device() == d.workers()[k] {
                d.workers()[k + 1]
            } else {
                oa.device()
            };
            assert_eq!(oc.device(), device, "{what}: device of {c}");
            let channel = |op: OpKind| op.channel().map(|ch| ch.index());
            assert_eq!(
                channel(oc.kind()),
                channel(oa.kind()).map(|ch| ch + s),
                "{what}: {c}"
            );
            match (oa.kind(), oc.kind()) {
                (OpKind::Send { param: p, .. }, OpKind::Send { param: q, .. })
                | (OpKind::Recv { param: p, .. }, OpKind::Recv { param: q, .. }) => {
                    assert_eq!(p, q, "{what}: param of {c}")
                }
                (x, y) => assert_eq!(x, y, "{what}: kind of {c}"),
            }
            let want: Vec<OpId> = preds(a).into_iter().map(moved).collect();
            assert_eq!(preds(c), want, "{what}: preds of {c}");
            let want: Vec<OpId> = succs(a).into_iter().map(moved).collect();
            assert_eq!(succs(c), want, "{what}: succs of {c}");
        }
    }

    // ops_on(d) is the ops whose device is d, in id order.
    for device in g.devices() {
        let want: Vec<OpId> = g
            .ops()
            .filter(|(_, op)| op.device() == device.id())
            .map(|(id, _)| id)
            .collect();
        assert_eq!(g.ops_on(device.id()).collect::<Vec<_>>(), want, "{what}");
        assert_eq!(g.ops_on(device.id()).count(), want.len(), "{what}");
    }

    // recv_op(k, u) is the recv found by scanning worker k's ops: the one
    // carrying u, or, for a fused member, its group's.
    for (k, &worker) in d.workers().iter().enumerate() {
        for u in 0..g.params().len() {
            let unit = ParamId::from_index(u);
            let got = d
                .recv_op(k, unit)
                .expect("every worker receives every unit");
            let carried = match g.op(got).kind() {
                OpKind::Recv { param, .. } if g.op(got).device() == worker => param,
                other => panic!("{what}: recv_op({k}, {unit}) is {other}"),
            };
            let found = g.ops_on(worker).find(
                |&id| matches!(g.op(id).kind(), OpKind::Recv { param, .. } if param == carried),
            );
            assert_eq!(Some(got), found, "{what}: recv of {unit} on worker {k}");
            assert_eq!(d.recv_op(k, carried), Some(got), "{what}: {unit}");
        }
    }
    assert_eq!(g.check(), Ok(()), "{what}");
}

#[test]
fn every_accessor_agrees_on_every_zoo_deployment() {
    let comm = CommConfig::default()
        .with_partition_bytes(Some(1 << 20))
        .with_fusion_bytes(Some(64 << 10));
    for model in Model::ALL {
        for mode in [Mode::Training, Mode::Inference] {
            let graph = model.build_with_batch(mode, 2);
            for workers in [1, 3, 64] {
                for ps in [1, 2] {
                    for comm in [CommConfig::default(), comm] {
                        let cluster = ClusterSpec::new(workers, ps).with_comm(comm);
                        let d = deploy(&graph, &cluster).unwrap();
                        let what = format!("{} {mode:?} {workers} x {ps} {comm:?}", model.name());
                        check(&d, &what);
                    }
                }
            }
        }
    }
}

/// A block repeated on two workers names each copy's ops for its worker,
/// and a shared op planted after it that renders like a later copy's op
/// is refused by the duplicate-name check.
#[test]
fn a_planted_duplicate_of_a_later_copy_is_refused() {
    let lowered = || {
        let mut b = GraphBuilder::new();
        let w: Vec<_> = (0..2)
            .map(|i| b.add_worker(format!("worker/{i}")))
            .collect();
        let ps = b.add_parameter_server("ps/0");
        let ch: Vec<_> = w.iter().map(|&w| b.add_channel(w, ps)).collect();
        let p = b.add_param("fc/weights", 8);
        b.name_replica(["fwd"]);
        let read = b.add_lowered_op(ps, OpKind::Read { param: p }, Cost::flops(1.0), &[]);
        b.begin_block(w[0]);
        let send = b.add_lowered_op(ps, OpKind::send(p, ch[0]), Cost::bytes(8), &[read]);
        let recv = b.add_lowered_op(w[0], OpKind::recv(p, ch[0]), Cost::bytes(8), &[send]);
        b.add_lowered_op(w[0], OpKind::Compute, Cost::flops(1.0), &[recv]);
        assert_eq!(b.repeat_block(2, 1), 3);
        (b, ps, ch, p)
    };
    let (b, ..) = lowered();
    let g = b.build().unwrap();
    let names: Vec<&str> = g.op_ids().map(|id| g.op_name(id)).collect();
    assert_eq!(
        names,
        [
            "ps0/read/fc/weights",
            "ps0/send/fc/weights/w0",
            "w0/recv/fc/weights",
            "w0/fwd",
            "ps0/send/fc/weights/w1",
            "w1/recv/fc/weights",
            "w1/fwd",
        ]
    );
    assert_eq!(
        g.succs(OpId::from_index(0)).collect::<Vec<_>>(),
        [OpId::from_index(1), OpId::from_index(4)]
    );

    let (mut b, ps, ch, p) = lowered();
    b.add_lowered_op(ps, OpKind::send(p, ch[1]), Cost::bytes(8), &[]);
    assert_eq!(
        b.build().unwrap_err(),
        GraphError::DuplicateOpName("ps0/send/fc/weights/w1".into())
    );
}

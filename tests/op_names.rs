//! Structured-name fidelity over the full model zoo.
//!
//! Deployment mints compact [`OpName`]s instead of heap strings; the
//! rendered display names must still be **byte-identical** to the legacy
//! `format!` patterns (`ps{shard}/send/{param}/w{worker}`, …) that the
//! golden traces and the Perfetto snapshot were pinned against. These
//! tests reconstruct the expected string for every op of every zoo model
//! from independent metadata — op kind, device membership, channel
//! endpoints, parameter names and model-op order — and compare it to
//! [`Graph::op_name`]. They also check that both lookup paths
//! ([`Graph::find_op`] by rendered string, [`Graph::find_op_structured`]
//! by compact name) resolve every op.

use std::collections::HashMap;
use tictac::{
    deploy, no_ordering, perfetto_json, simulate, ClusterSpec, CommConfig, Cost, DeployedModel,
    DeviceId, GraphBuilder, Mode, Model, ModelGraph, OpId, OpKind, OpName, SimConfig,
};
use tictac_obs::{parse_json, Json};

/// Rebuilds the legacy `format!` name of `id` without consulting the
/// rendering path. `compute_seq` tracks, per worker, how many compute ops
/// have been seen so far in id order — deployment replicates model ops in
/// order, so that count indexes straight into `model.ops()`.
fn legacy_name(
    d: &DeployedModel,
    model: &ModelGraph,
    id: OpId,
    compute_seq: &mut HashMap<DeviceId, usize>,
) -> String {
    let graph = d.graph();
    let op = graph.op(id);
    let dev = op.device();
    let widx: HashMap<DeviceId, u32> = d
        .workers()
        .iter()
        .enumerate()
        .map(|(i, &dv)| (dv, i as u32))
        .collect();
    let sidx: HashMap<DeviceId, u32> = d
        .parameter_servers()
        .iter()
        .enumerate()
        .map(|(i, &dv)| (dv, i as u32))
        .collect();
    let pname = |p| graph.param(p).name();
    match op.kind() {
        OpKind::Compute => {
            let seq = compute_seq.entry(dev).or_insert(0);
            let mop = &model.ops()[*seq];
            *seq += 1;
            format!("w{}/{}", widx[&dev], mop.name())
        }
        OpKind::Read { param } => format!("ps{}/read/{}", sidx[&dev], pname(param)),
        OpKind::Send { param, channel } => {
            if let Some(&s) = sidx.get(&dev) {
                let w = widx[&graph.channel(channel).worker()];
                format!("ps{s}/send/{}/w{w}", pname(param))
            } else {
                format!("w{}/send_grad/{}", widx[&dev], pname(param))
            }
        }
        OpKind::Recv { param, channel } => {
            if let Some(&w) = widx.get(&dev) {
                format!("w{w}/recv/{}", pname(param))
            } else {
                let w = widx[&graph.channel(channel).worker()];
                format!("ps{}/recv_grad/{}/w{w}", sidx[&dev], pname(param))
            }
        }
        OpKind::Aggregate { param } => format!("ps{}/aggregate/{}", sidx[&dev], pname(param)),
        OpKind::Update { param } => format!("ps{}/update/{}", sidx[&dev], pname(param)),
    }
}

/// Checks every op of one deployment: rendered name matches the legacy
/// reconstruction, and both lookup paths resolve back to the op.
fn check_deployment(model: &ModelGraph, spec: &ClusterSpec) {
    let d = deploy(model, spec).expect("zoo model deploys");
    let graph = d.graph();
    let mut compute_seq = HashMap::new();
    for id in graph.op_ids() {
        let expect = legacy_name(&d, model, id, &mut compute_seq);
        let rendered = graph.op_name(id);
        assert_eq!(
            rendered,
            expect,
            "op {id} of {} on {spec:?} renders differently from the legacy format!",
            model.name()
        );
        assert_eq!(
            graph.find_op(rendered),
            Some(id),
            "string lookup missed {rendered}"
        );
        assert_eq!(
            graph.find_op_structured(graph.op(id).op_name()),
            Some(id),
            "structured lookup missed {rendered}"
        );
    }
    assert_eq!(graph.find_op("no/such/op"), None);
}

/// Every zoo model, training mode, across several cluster shapes: all
/// eight PS/worker name patterns are exercised (read, send, recv,
/// compute, send_grad, recv_grad, aggregate, update).
#[test]
fn rendered_names_match_legacy_strings_for_training_zoo() {
    for model in Model::ALL {
        let graph = model.build_with_batch(Mode::Training, 2);
        for (w, s) in [(1, 1), (2, 1), (3, 2)] {
            check_deployment(&graph, &ClusterSpec::new(w, s));
        }
    }
}

/// Inference deployments only exercise the forward patterns, but with a
/// wider fan-out (more workers than shards and vice versa).
#[test]
fn rendered_names_match_legacy_strings_for_inference_zoo() {
    for model in Model::ALL {
        let graph = model.build_with_batch(Mode::Inference, 2);
        check_deployment(&graph, &ClusterSpec::new(4, 2));
    }
}

/// An export writes each slice's name straight from its [`OpName`], not
/// through the graph's name cache, and writes what the cache holds: on
/// zoo models deployed with a `comm:` block (chunked and fused
/// transfers), every slice of a fresh graph's export carries the name
/// [`Graph::op_name`] renders, and a graph whose cache was filled first
/// exports the same document.
#[test]
fn exports_write_the_names_the_cache_renders() {
    let comm = CommConfig::default()
        .with_partition_bytes(Some(1 << 20))
        .with_fusion_bytes(Some(64 << 10));
    for model in [Model::AlexNetV2, Model::InceptionV1, Model::ResNet50V1] {
        let graph = model.build_with_batch(Mode::Training, 2);
        let spec = ClusterSpec::new(2, 2).with_comm(comm);
        let (fresh, cached) = (
            deploy(&graph, &spec).unwrap(),
            deploy(&graph, &spec).unwrap(),
        );
        let config = SimConfig::cloud_gpu();
        let trace = simulate(fresh.graph(), &no_ordering(fresh.graph()), &config, 0);
        let doc = perfetto_json(fresh.graph(), &trace, "names");
        let cached_names: Vec<&str> = cached
            .graph()
            .op_ids()
            .map(|id| cached.graph().op_name(id))
            .collect();
        assert_eq!(doc, perfetto_json(cached.graph(), &trace, "names"));
        let parsed = parse_json(&doc).unwrap();
        let mut slices = 0;
        let mut chunked = 0;
        for event in parsed.get("traceEvents").and_then(Json::as_array).unwrap() {
            if event.get("ph").and_then(Json::as_str) != Some("X") {
                continue;
            }
            let op = event
                .get("args")
                .and_then(|a| a.get("op"))
                .and_then(Json::as_f64)
                .unwrap();
            let name = event.get("name").and_then(Json::as_str).unwrap();
            assert_eq!(name, cached_names[op as usize], "{model:?}");
            slices += 1;
            chunked += usize::from(name.contains(".part") || name.contains("fused"));
        }
        assert_eq!(
            slices,
            trace.executed_ops() - sends(fresh.graph(), &trace),
            "{model:?}"
        );
        assert!(chunked > 0, "{model:?}: no chunked or fused transfer");
    }
}

/// Executed sends, which an export skips.
fn sends(graph: &tictac::Graph, trace: &tictac::ExecutionTrace) -> usize {
    graph
        .ops()
        .filter(|(id, op)| op.kind().is_send() && trace.record(*id).is_some())
        .count()
}

/// Hand-built graphs go through [`OpName::Raw`]: the builder interns the
/// string verbatim and both lookups resolve it.
#[test]
fn raw_names_round_trip_through_the_interner() {
    let mut b = GraphBuilder::new();
    let w = b.add_worker("w0");
    let a = b.add_op("alpha", w, OpKind::Compute, Cost::flops(1.0), &[]);
    let z = b.add_op("omega", w, OpKind::Compute, Cost::flops(1.0), &[a]);
    let graph = b.build().unwrap();

    assert_eq!(graph.op_name(a), "alpha");
    assert_eq!(graph.find_op("alpha"), Some(a));
    assert_eq!(graph.find_op("omega"), Some(z));
    let id = graph.names().lookup("omega").expect("interned");
    assert_eq!(graph.find_op_structured(OpName::Raw(id)), Some(z));
    assert_eq!(graph.find_op("alph"), None);
}

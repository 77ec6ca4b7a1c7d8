//! Structured-name fidelity over the full model zoo.
//!
//! Deployed ops store no names: the graph derives each from where the op
//! sits and what it carries (DESIGN.md §10). The rendered display names
//! must still be **byte-identical** to the legacy
//! `format!` patterns (`ps{shard}/send/{param}/w{worker}`, …) that the
//! golden traces and the Perfetto snapshot were pinned against. These
//! tests reconstruct the expected string for every op of every zoo model
//! from independent metadata — op kind, device membership, channel
//! endpoints, each transfer unit's origin (model parameter and chunk),
//! which units share a worker's recv and model-op order — and compare it
//! to [`Graph::op_name`], on plain, partitioned and fused deployments.
//! They also check that [`Graph::find_op`] resolves every rendered name
//! back to its op.

use std::collections::HashMap;
use tictac::{
    deploy, no_ordering, perfetto_json, simulate, ClusterSpec, CommConfig, Cost, DeployedModel,
    DeviceId, GraphBuilder, Mode, Model, ModelGraph, OpId, OpKind, ParamId, SimConfig,
};
use tictac_obs::{parse_json, Json};

/// Rebuilds the legacy `format!` name of every op of one deployment
/// without consulting the rendering path or the graph's parameter names.
struct Oracle<'a> {
    d: &'a DeployedModel,
    model: &'a ModelGraph,
    widx: HashMap<DeviceId, usize>,
    sidx: HashMap<DeviceId, usize>,
    /// Per worker: its recv op → (how many units it carries, the first).
    shares: Vec<HashMap<OpId, (usize, usize)>>,
    /// A fused group's first unit → its `fused{g}` number: dense from 0
    /// in the order the groups first appear in op-id order, one number
    /// for every worker's copy of the group.
    fused: HashMap<usize, usize>,
    /// Per worker, how many compute ops have been seen so far in id
    /// order: deployment replicates model ops in order, so that count
    /// indexes straight into `model.ops()`.
    compute_seq: HashMap<DeviceId, usize>,
}

impl<'a> Oracle<'a> {
    fn new(d: &'a DeployedModel, model: &'a ModelGraph) -> Self {
        let index = |devs: &[DeviceId]| devs.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        let units = d.graph().params().len();
        let shares = (0..d.workers().len())
            .map(|w| {
                let mut shares: HashMap<OpId, (usize, usize)> = HashMap::new();
                for u in 0..units {
                    let recv = d.recv_op(w, ParamId::from_index(u)).expect("every unit");
                    shares.entry(recv).or_insert((0, u)).0 += 1;
                }
                shares
            })
            .collect();
        Self {
            d,
            model,
            widx: index(d.workers()),
            sidx: index(d.parameter_servers()),
            shares,
            fused: HashMap::new(),
            compute_seq: HashMap::new(),
        }
    }

    /// The parameter part of a name: the unit's own name (`{param}` or
    /// `{param}.part{j}`) from its origin, or `fused{g}` when the unit
    /// travels with others in worker `w`'s transfers.
    fn param(&mut self, p: ParamId, w: Option<usize>) -> String {
        if let Some(w) = w {
            let recv = self.d.recv_op(w, p).expect("every unit");
            let (carried, first) = self.shares[w][&recv];
            if carried > 1 {
                let next = self.fused.len();
                return format!("fused{}", self.fused.entry(first).or_insert(next));
            }
        }
        let name = self.model.params()[self.d.unit_origin(p).0].name();
        match self.d.unit_origin(p).1 {
            None => name.to_string(),
            Some(j) => format!("{name}.part{j}"),
        }
    }

    fn name(&mut self, id: OpId) -> String {
        let graph = self.d.graph();
        let op = graph.op(id);
        let dev = op.device();
        let (on_worker, on_ps) = (self.widx.get(&dev).copied(), self.sidx.get(&dev).copied());
        let peer = |ch| self.widx[&graph.channel(ch).worker()];
        match op.kind() {
            OpKind::Compute => {
                let seq = self.compute_seq.entry(dev).or_insert(0);
                let mop = &self.model.ops()[*seq];
                *seq += 1;
                format!("w{}/{}", on_worker.unwrap(), mop.name())
            }
            OpKind::Read { param } => {
                format!("ps{}/read/{}", on_ps.unwrap(), self.param(param, None))
            }
            OpKind::Send { param, channel } => match (on_worker, on_ps) {
                (_, Some(s)) => {
                    let w = peer(channel);
                    format!("ps{s}/send/{}/w{w}", self.param(param, Some(w)))
                }
                (Some(w), None) => format!("w{w}/send_grad/{}", self.param(param, Some(w))),
                (None, None) => unreachable!("a send sits on a worker or a PS"),
            },
            OpKind::Recv { param, channel } => match (on_worker, on_ps) {
                (Some(w), _) => format!("w{w}/recv/{}", self.param(param, Some(w))),
                (None, Some(s)) => {
                    let w = peer(channel);
                    format!("ps{s}/recv_grad/{}/w{w}", self.param(param, Some(w)))
                }
                (None, None) => unreachable!("a recv sits on a worker or a PS"),
            },
            OpKind::Aggregate { param } => {
                format!("ps{}/aggregate/{}", on_ps.unwrap(), self.param(param, None))
            }
            OpKind::Update { param } => {
                format!("ps{}/update/{}", on_ps.unwrap(), self.param(param, None))
            }
        }
    }
}

/// Checks every op of one deployment: its rendered name matches the
/// legacy reconstruction, and the string lookup resolves back to the op.
/// Returns how many ops carry a chunk and how many a fused group.
fn check_deployment(model: &ModelGraph, spec: &ClusterSpec) -> (usize, usize) {
    let d = deploy(model, spec).expect("zoo model deploys");
    let graph = d.graph();
    let mut oracle = Oracle::new(&d, model);
    let (mut chunked, mut fused) = (0, 0);
    for id in graph.op_ids() {
        let expect = oracle.name(id);
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
        chunked += usize::from(rendered.contains(".part"));
        fused += usize::from(rendered.contains("/fused"));
    }
    assert_eq!(graph.find_op("no/such/op"), None);
    (chunked, fused)
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

/// `comm:` deployments over the zoo, both modes: chunks render as
/// `{param}.part{j}` and fused transfers as `fused{g}`, with `g` the same
/// on every worker's copy of a group and dense from 0 in emission order.
/// Every partitioned deployment holds a chunk and every fused one a
/// fused transfer, so neither rule is checked vacuously.
#[test]
fn rendered_names_match_legacy_strings_for_comm_zoo() {
    let partition = CommConfig::default().with_partition_bytes(Some(1 << 20));
    let fusion = CommConfig::default().with_fusion_bytes(Some(64 << 10));
    let both = partition.with_fusion_bytes(fusion.fusion_bytes);
    for model in Model::ALL {
        for mode in [Mode::Training, Mode::Inference] {
            let graph = model.build_with_batch(mode, 2);
            for (comm, (w, s)) in [(partition, (2, 2)), (fusion, (3, 2)), (both, (2, 3))] {
                let (chunked, fused) =
                    check_deployment(&graph, &ClusterSpec::new(w, s).with_comm(comm));
                if comm.partition_bytes.is_some() {
                    assert!(chunked > 0, "{model:?} {comm:?}: no chunk");
                }
                if comm.fusion_bytes.is_some() {
                    assert!(fused > 0, "{model:?} {comm:?}: no fused transfer");
                }
            }
        }
    }
}

/// An export writes each slice's name straight through
/// [`Graph::write_op_name`], not through the graph's name cache, and
/// writes what the cache holds: on zoo models deployed with a `comm:`
/// block (chunked and fused transfers), every slice of a fresh graph's
/// export carries the name [`Graph::op_name`] renders, and a graph whose
/// cache was filled first exports the same document.
///
/// [`Graph::write_op_name`]: tictac::Graph::write_op_name
/// [`Graph::op_name`]: tictac::Graph::op_name
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

/// Hand-built graphs keep raw names: the builder interns the string
/// verbatim and the string lookup resolves it.
#[test]
fn raw_names_round_trip_through_the_interner() {
    let mut b = GraphBuilder::new();
    let w = b.add_worker("w0");
    let a = b.add_op("alpha", w, OpKind::Compute, Cost::flops(1.0), &[]);
    let z = b.add_op("omega", w, OpKind::Compute, Cost::flops(1.0), &[a]);
    let graph = b.build().unwrap();

    assert_eq!(graph.op_name(a), "alpha");
    assert_eq!(graph.op_name(z), "omega");
    assert_eq!(graph.find_op("alpha"), Some(a));
    assert_eq!(graph.find_op("omega"), Some(z));
    assert_eq!(graph.find_op("alph"), None);
}

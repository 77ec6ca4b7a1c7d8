//! Property-based tests for the communication-granularity lowering
//! passes: random models and cluster shapes, pushed through partition /
//! fusion configurations, must keep the deployed graph a valid DAG,
//! keep every recv a root of its worker partition, and conserve each
//! model parameter's bytes exactly across its chunks. The default
//! configuration must stay byte-identical to the pre-pass lowering.

use proptest::prelude::*;
use std::hash::{Hash, Hasher};
use tictac::{
    deploy, no_ordering, simulate, ClusterSpec, CommConfig, Graph, Mode, Model, ModelGraph,
    PartitionGraph, SimConfig,
};
use tictac_graph::{ModelGraphBuilder, ModelOpId, ModelOpKind, ParamId};

/// A random layered model, as in `cluster_properties.rs`: each layer has
/// one weight, a forward op and a mirrored backward producer.
fn random_model() -> impl Strategy<Value = ModelGraph> {
    (1usize..7, 1usize..5, any::<u64>()).prop_map(|(layers, width_step, seed)| {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut b = ModelGraphBuilder::new("random", 4);
        let mut prev: Option<ModelOpId> = None;
        let mut grads: Vec<ParamId> = Vec::new();
        for l in 0..layers {
            let w = b.add_param(format!("l{l}/w"), vec![8 * width_step, 8]);
            let deps: Vec<ModelOpId> = prev.into_iter().collect();
            let fwd = b.add_op(
                format!("l{l}/fwd"),
                ModelOpKind::Forward,
                rng.gen_range(1e5..1e8),
                &deps,
                &[w],
                &[],
            );
            prev = Some(fwd);
            grads.push(w);
        }
        let loss = b.add_op(
            "loss",
            ModelOpKind::Loss,
            1e4,
            &prev.into_iter().collect::<Vec<_>>(),
            &[],
            &[],
        );
        let mut bwd_prev = loss;
        for (l, w) in grads.iter().enumerate().rev() {
            bwd_prev = b.add_op(
                format!("l{l}/grad"),
                ModelOpKind::Backward,
                rng.gen_range(1e5..1e8),
                &[bwd_prev],
                &[*w],
                &[*w],
            );
        }
        b.build()
    })
}

/// Comm configurations sized for the random models above (their params
/// are 256–4096 bytes), covering both passes on, each alone, and off.
fn comm_config() -> impl Strategy<Value = CommConfig> {
    const PART: [Option<u64>; 4] = [None, Some(64), Some(256), Some(1024)];
    const FUSE: [Option<u64>; 4] = [None, Some(128), Some(512), Some(4096)];
    (0usize..PART.len(), 0usize..FUSE.len()).prop_map(|(p, f)| CommConfig {
        partition_bytes: PART[p],
        fusion_bytes: FUSE[f],
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn lowered_graphs_stay_valid_and_conserve_bytes(
        model in random_model(),
        workers in 1usize..5,
        ps in 1usize..3,
        comm in comm_config(),
    ) {
        let ps = ps.min(model.params().len());
        let spec = ClusterSpec::new(workers, ps).with_comm(comm);
        let deployed = deploy(&model, &spec).unwrap();
        let g = deployed.graph();
        prop_assert!(g.check().is_ok());

        // Each model parameter's bytes are conserved exactly across the
        // transfer units it was lowered to.
        let mut per_param = vec![0u64; model.params().len()];
        for (i, p) in g.params().iter().enumerate() {
            let (origin, _chunk) = deployed.unit_origin(ParamId::from_index(i));
            per_param[origin] += p.bytes();
        }
        for (i, p) in model.params().iter().enumerate() {
            prop_assert_eq!(per_param[i], p.bytes(), "param {} bytes drifted", i);
        }

        // Every recv — whole, chunked or fused — is a root of its
        // worker's partition: its only dependencies live on the PS side.
        for &w in deployed.workers() {
            let part = PartitionGraph::new(g, w);
            for r in part.recv_ids() {
                let local = part.local(r).expect("recv is on its own partition");
                prop_assert!(
                    part.preds(local).is_empty(),
                    "recv {:?} has an intra-worker predecessor",
                    r
                );
            }
        }

        // The lowered graph still executes to completion.
        let trace = simulate(g, &no_ordering(g), &SimConfig::cloud_gpu(), 0);
        prop_assert_eq!(trace.executed_ops(), g.len());
    }

    #[test]
    fn partition_only_units_repay_their_chunks(
        model in random_model(),
        part_idx in 0usize..3,
    ) {
        let part = [64u64, 200, 1024][part_idx];
        // With fusion off, every graph param is one transfer unit and
        // chunk indices per model param are dense 0..k.
        let spec = ClusterSpec::new(2, 1)
            .with_comm(CommConfig::default().with_partition_bytes(Some(part)));
        let deployed = deploy(&model, &spec).unwrap();
        let g = deployed.graph();
        let mut chunks: Vec<Vec<u16>> = vec![Vec::new(); model.params().len()];
        for i in 0..g.params().len() {
            let (origin, chunk) = deployed.unit_origin(ParamId::from_index(i));
            if let Some(c) = chunk {
                chunks[origin].push(c);
            } else {
                prop_assert!(model.params()[origin].bytes() <= part);
            }
        }
        for (i, cs) in chunks.iter().enumerate() {
            if cs.is_empty() {
                continue;
            }
            prop_assert!(model.params()[i].bytes() > part);
            let want: Vec<u16> = (0..cs.len() as u16).collect();
            prop_assert_eq!(cs.clone(), want, "chunks of param {} are not dense", i);
        }
    }
}

fn spec_hash(spec: &ClusterSpec) -> u64 {
    let mut h = std::hash::DefaultHasher::new();
    spec.hash(&mut h);
    h.finish()
}

/// The satellite identity guarantee: a default `CommConfig` produces the
/// exact pre-pass deployment — same op names in the same order — and
/// hashes to the same cache/store keys as a spec built before the field
/// existed.
#[test]
fn default_config_is_the_pre_pass_identity() {
    let model = Model::AlexNetV2.build_with_batch(Mode::Training, 16);
    let plain_spec = ClusterSpec::new(2, 1);
    let comm_spec = ClusterSpec::new(2, 1).with_comm(CommConfig::default());
    assert_eq!(plain_spec, comm_spec);
    assert_eq!(
        spec_hash(&plain_spec),
        spec_hash(&comm_spec),
        "cache keys alias"
    );
    assert_eq!(CommConfig::default().fingerprint(), 0, "store keys alias");

    let plain = deploy(&model, &plain_spec).unwrap();
    let tuned = deploy(&model, &comm_spec).unwrap();
    let names = |g: &Graph| {
        g.op_ids()
            .map(|id| g.op_name(id).to_owned())
            .collect::<Vec<_>>()
    };
    assert_eq!(names(plain.graph()), names(tuned.graph()));

    // A non-default config must not alias either key space.
    let split =
        ClusterSpec::new(2, 1).with_comm(CommConfig::default().with_partition_bytes(Some(1 << 20)));
    assert_ne!(plain_spec, split);
    assert_ne!(spec_hash(&plain_spec), spec_hash(&split));
    assert_ne!(split.comm().fingerprint(), 0);
}

//! Structural integration tests over the full model zoo: every generator
//! must produce a graph whose shape supports the scheduling experiments.

use tictac_graph::{Mode, Model, ModelGraph, ModelOpKind, ParamId};

fn for_all_models(mut f: impl FnMut(Model, &ModelGraph)) {
    for model in Model::ALL {
        let graph = model.build_with_batch(Mode::Training, 2);
        f(model, &graph);
    }
}

#[test]
fn insertion_order_is_topological() {
    // ModelGraphBuilder only accepts backward references, so insertion
    // order must be a valid topological order.
    for_all_models(|model, g| {
        for (id, op) in g.ops_enumerated() {
            for pred in op.preds() {
                assert!(pred.index() < id.index(), "{model}: {id} before {pred}");
            }
        }
    });
}

#[test]
fn every_param_is_read_by_some_forward_op() {
    for_all_models(|model, g| {
        for i in 0..g.params().len() {
            let pid = ParamId::from_index(i);
            let read = g
                .ops()
                .iter()
                .any(|op| op.kind() != ModelOpKind::Backward && op.reads_params().contains(&pid));
            assert!(read, "{model}: param {} never read", g.param(pid).name());
        }
    });
}

#[test]
fn every_param_has_exactly_one_gradient_producer() {
    for_all_models(|model, g| {
        for i in 0..g.params().len() {
            let pid = ParamId::from_index(i);
            let producers = g
                .ops()
                .iter()
                .filter(|op| op.produces_grads().contains(&pid))
                .count();
            assert_eq!(producers, 1, "{model}: param {}", g.param(pid).name());
        }
    });
}

#[test]
fn training_graphs_have_one_loss_and_balanced_backward() {
    for_all_models(|model, g| {
        let losses = g
            .ops()
            .iter()
            .filter(|op| op.kind() == ModelOpKind::Loss)
            .count();
        assert_eq!(losses, 1, "{model}");
        let forward = g
            .ops()
            .iter()
            .filter(|op| op.kind() == ModelOpKind::Forward)
            .count();
        let backward = g
            .ops()
            .iter()
            .filter(|op| op.kind() == ModelOpKind::Backward)
            .count();
        assert_eq!(forward, backward, "{model}: one grad op per forward op");
    });
}

#[test]
fn backward_flops_dominate_forward_flops() {
    // The backward pass costs ~2x the forward pass for parametrized ops.
    for_all_models(|model, g| {
        let sum = |kind: ModelOpKind| -> f64 {
            g.ops()
                .iter()
                .filter(|op| op.kind() == kind)
                .map(|op| op.flops())
                .sum()
        };
        let fwd = sum(ModelOpKind::Forward);
        let bwd = sum(ModelOpKind::Backward);
        assert!(
            bwd > fwd && bwd < 2.5 * fwd,
            "{model}: fwd {fwd:.3e} bwd {bwd:.3e}"
        );
    });
}

#[test]
fn op_names_are_unique_within_a_model() {
    for_all_models(|model, g| {
        let mut names: Vec<&str> = g.ops().iter().map(|op| op.name()).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "{model}: duplicate op names");
    });
}

#[test]
fn flops_scale_linearly_with_batch() {
    for model in [Model::ResNet50V1, Model::InceptionV2] {
        let b2 = model.build_with_batch(Mode::Inference, 2).stats().flops;
        let b8 = model.build_with_batch(Mode::Inference, 8).stats().flops;
        let ratio = b8 / b2;
        assert!((3.9..=4.1).contains(&ratio), "{model}: ratio {ratio}");
    }
}

#[test]
fn deeper_variants_strictly_extend_shallower_ones() {
    let pairs = [
        (Model::ResNet50V1, Model::ResNet101V1),
        (Model::ResNet50V2, Model::ResNet101V2),
        (Model::Vgg16, Model::Vgg19),
        (Model::InceptionV1, Model::InceptionV3),
    ];
    for (small, large) in pairs {
        let s = small.build_with_batch(Mode::Inference, 2).stats();
        let l = large.build_with_batch(Mode::Inference, 2).stats();
        assert!(l.ops > s.ops, "{small} vs {large}");
        assert!(l.flops > s.flops, "{small} vs {large}");
    }
}

#[test]
fn inference_graph_is_a_prefix_of_training_params() {
    // Both modes expose the same parameter census, in the same order.
    for model in Model::ALL {
        let inf = model.build_with_batch(Mode::Inference, 2);
        let tr = model.build_with_batch(Mode::Training, 2);
        assert_eq!(inf.params().len(), tr.params().len(), "{model}");
        for (a, b) in inf.params().iter().zip(tr.params()) {
            assert_eq!(a.name(), b.name(), "{model}");
            assert_eq!(a.bytes(), b.bytes(), "{model}");
        }
    }
}

#[test]
fn parameter_sizes_are_positive_and_plausible() {
    for_all_models(|model, g| {
        for p in g.params() {
            assert!(p.bytes() >= 4, "{model}: {} empty", p.name());
            assert!(
                p.bytes() < 512 << 20,
                "{model}: {} implausibly large",
                p.name()
            );
        }
    });
}

/// Every zoo graph's `ModelGraph::fingerprint` — each param's name, dtype
/// and shape, and each op's name, kind, flop bits, preds, param reads and
/// grads, in order — at batch 1 and at the Table-1 batch, in both modes.
/// A change to how the zoo builds its graphs must leave all 40 unchanged.
#[test]
fn zoo_fingerprints_are_pinned() {
    // [inference at 1, training at 1, inference at Table 1, training at Table 1]
    let pinned: [(Model, [u64; 4]); 10] = [
        (
            Model::AlexNetV2,
            [
                0xb0e5894a6f8fbf50,
                0x209da8a437be0121,
                0x15e084da769a16d7,
                0xd0fa9f4cc2360d6e,
            ],
        ),
        (
            Model::InceptionV1,
            [
                0xf0e78d9a621e91a7,
                0x63a92422051a5cf1,
                0x8ebece5ff83ed2e6,
                0x383bf179c04fb94e,
            ],
        ),
        (
            Model::InceptionV2,
            [
                0xa28c64c141c1706c,
                0xc4d19d2f2e7c0efd,
                0x8d22b8ae1ac20900,
                0x6bb5a59fae4aaf41,
            ],
        ),
        (
            Model::InceptionV3,
            [
                0x1e82798578c6b6f0,
                0x7334b18e77491e2f,
                0xc74e85afad7cd482,
                0x4c274991dafbd0e4,
            ],
        ),
        (
            Model::ResNet50V1,
            [
                0xb5929abbcfa35262,
                0xdc718a6b56ac068d,
                0xe086cfcc4d4a55c0,
                0xd91b28a235b7d203,
            ],
        ),
        (
            Model::ResNet101V1,
            [
                0xdb1415adc7d29ddc,
                0xa034d5ac91e42a21,
                0xf6e7654882489b92,
                0xb672bd256ed02dff,
            ],
        ),
        (
            Model::ResNet50V2,
            [
                0x1e2b2d968615c7fa,
                0xf21e6aeb525f8979,
                0xdc68fd107bcabe4b,
                0xed86361ac2b3862d,
            ],
        ),
        (
            Model::ResNet101V2,
            [
                0x2652916b17ef3bdb,
                0x01a57d176f9ed25e,
                0xe6d838e91ec1a8f7,
                0xea6ee463de9a81ed,
            ],
        ),
        (
            Model::Vgg16,
            [
                0xaf7142cc5403b460,
                0x549ea5bc28d857f2,
                0x009a62cb6f5a9beb,
                0x3576081cef57302b,
            ],
        ),
        (
            Model::Vgg19,
            [
                0x7b4e95d834eadbcc,
                0xf5c4cb5ece540cb4,
                0xfd9e77bf3fa955bc,
                0x598dbd98f79e02ae,
            ],
        ),
    ];
    assert_eq!(pinned.map(|(model, _)| model), Model::ALL);
    for (model, want) in pinned {
        let b = model.default_batch();
        let points = [
            (Mode::Inference, 1),
            (Mode::Training, 1),
            (Mode::Inference, b),
            (Mode::Training, b),
        ];
        for ((mode, batch), want) in points.into_iter().zip(want) {
            let got = model.build_with_batch(mode, batch).fingerprint();
            assert_eq!(got, want, "{model} {mode:?} batch {batch}: {got:#018x}");
        }
    }
}

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
                0xe99d505e11a43d15,
                0x53009b2dae9b8fb9,
                0xbabd0f88161d6b42,
                0xa4c7f3c0743854f2,
            ],
        ),
        (
            Model::InceptionV1,
            [
                0x4f826ce9ec424f06,
                0x386bbe53dbd357ed,
                0x5d8993a975bf4d67,
                0x626d2df8c799bfbe,
            ],
        ),
        (
            Model::InceptionV2,
            [
                0x988e6bd47e4c54b9,
                0x6a67d6b67614d2a7,
                0xfbe6ccabbc760939,
                0xd6e0a9944c984af3,
            ],
        ),
        (
            Model::InceptionV3,
            [
                0xdcad02ee7e83b4ea,
                0x6dc035c0fc5aa549,
                0x4b76b0fc60d10c96,
                0x4b9e94e536124a56,
            ],
        ),
        (
            Model::ResNet50V1,
            [
                0xcdb30d90caa5d9bf,
                0xa63b07f1be315da3,
                0x13cdeefa10174a2f,
                0x49091ad12449594b,
            ],
        ),
        (
            Model::ResNet101V1,
            [
                0x835ddabb9f47a691,
                0x28f3b971af765b48,
                0xfe53a787c416f6b5,
                0x7996538ff57262dc,
            ],
        ),
        (
            Model::ResNet50V2,
            [
                0x11e8bd249da734ae,
                0xcbb63f493fe9b71c,
                0xc8f086e6a9c2b9e1,
                0x828561e2cb949054,
            ],
        ),
        (
            Model::ResNet101V2,
            [
                0xe75316b1fc52ad8f,
                0x5eee0d232d47408f,
                0x38f3c897a0fc8d05,
                0x04e975a39a6a7a44,
            ],
        ),
        (
            Model::Vgg16,
            [
                0x4c82bc8d3184cf67,
                0x90ffa0a184d6d7e8,
                0x3b9e8bffbcba42d0,
                0x61f658b87f1c21d5,
            ],
        ),
        (
            Model::Vgg19,
            [
                0xb9552200c7fb7402,
                0x2d3e2a12d55a4bdc,
                0x39de226ff65d4a18,
                0xa9d79429a38e2360,
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

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

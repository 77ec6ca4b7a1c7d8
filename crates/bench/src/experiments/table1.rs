//! Table 1: DNN model characteristics — paper values vs this
//! reproduction's generators.

use crate::format::Table;
use tictac_core::{parallel_map, Mode, Model};

/// Regenerates Table 1, printing the paper's numbers next to ours.
///
/// Parameter counts match exactly; sizes within a few percent; op counts
/// are semantic layer ops rather than TensorFlow kernels, hence smaller
/// (see DESIGN.md §3).
pub(crate) fn run(_quick: bool) -> String {
    let mut t = Table::new([
        "model",
        "#par",
        "#par(paper)",
        "MiB",
        "MiB(paper)",
        "ops inf/train",
        "ops inf/train(paper)",
        "batch",
    ]);
    // Each row builds two full graphs; fan the models out and append the
    // finished rows in zoo order.
    let rows = parallel_map(Model::ALL.to_vec(), |&model| {
        let paper = model.paper_row();
        let inf = model.build_with_batch(Mode::Inference, 1);
        let tr = model.build_with_batch(Mode::Training, 1);
        let s = inf.stats();
        [
            model.name().to_string(),
            s.params.to_string(),
            paper.params.to_string(),
            format!("{:.2}", s.param_mib()),
            format!("{:.2}", paper.param_mib),
            format!("{}/{}", s.ops, tr.stats().ops),
            format!("{}/{}", paper.ops_inference, paper.ops_training),
            paper.batch_size.to_string(),
        ]
    });
    for row in rows {
        t.row(row);
    }
    format!(
        "Table 1: model characteristics (ours vs paper)\n\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn table_has_all_ten_models() {
        let out = super::run(true);
        for name in ["alexnet_v2", "resnet_v2_101", "vgg_19", "inception_v3"] {
            assert!(out.contains(name), "{name} missing from Table 1");
        }
        assert_eq!(out.lines().count(), 14); // title + blank + header + sep + 10
    }
}

//! The paper's TAC as its pseudo-code is written: every property swept
//! from scratch every round.
//!
//! Nothing in the pipeline calls this module. It is the oracle the
//! incremental [`tac_order`](crate::tac_order) is pinned against
//! (`tests/zoo.rs` across the model zoo, `tests/properties.rs` by
//! proptest), so neither the crate root nor the façade crates re-export it.

use crate::partition::PartitionGraph;
use crate::properties::OpProperties;
use crate::tac::select_best;
use tictac_graph::{DeviceId, Graph, OpId};
use tictac_timing::TimeOracle;

/// [`tac_order`](crate::tac_order) with the naive full sweep
/// (`complete_naive` + `recompute_m_plus`) every round. Returns the same
/// order at `O(|R|²·|G|)` cost.
pub fn tac_order_naive(graph: &Graph, worker: DeviceId, oracle: &dyn TimeOracle) -> Vec<OpId> {
    let part = PartitionGraph::new(graph, worker);
    let durations = part.durations(graph, oracle);
    let mut props = OpProperties::new(&part, durations);

    let mut order = Vec::with_capacity(part.recvs().len());
    while props.outstanding_count() > 0 {
        let best = select_best(&part, &props);
        order.push(part.global(part.recvs()[best] as usize));
        props.complete_naive(&part, best);
        props.recompute_m_plus(&part);
    }
    order
}

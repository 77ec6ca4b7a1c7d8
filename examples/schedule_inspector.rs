//! Inspect the transfer schedules TIC and TAC derive for a model: which
//! parameters go first, and the Algorithm-1 properties (P, M, M⁺) behind
//! the decisions.
//!
//! ```text
//! cargo run --release --example schedule_inspector -- [model] [n] [op-name]
//! ```
//!
//! Arguments (all optional, positional):
//!
//! * `model` — zoo model name (default `inception_v1`);
//! * `n` — how many leading TAC transfers to print (default 15);
//! * `op-name` — a deployed op name (e.g. a `recv/...` transfer): reports
//!   where that transfer lands in the TAC order (name lookup is O(1) via
//!   the graph's name index), then simulates one enforced TAC iteration
//!   and prints the overlap and priority-inversion report for the op's
//!   channel.

use tictac::{
    deploy, estimate_profile, no_ordering, overlap_report, priority_inversions, simulate,
    tac_order, tic, ClusterSpec, Mode, Model, OpProperties, PartitionGraph, Schedule, SimConfig,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let model = args
        .next()
        .and_then(|name| Model::from_name(&name))
        .unwrap_or(Model::InceptionV1);
    let show: usize = args.next().and_then(|n| n.parse().ok()).unwrap_or(15);

    let graph = model.build(Mode::Training);
    let deployed = deploy(&graph, &ClusterSpec::new(2, 1))?;
    let g = deployed.graph();
    let worker = deployed.workers()[0];
    let config = SimConfig::cloud_gpu();

    // TAC needs the traced min-of-5 profile (§5 of the paper).
    let unordered = no_ordering(g);
    let traces: Vec<_> = (0..5)
        .map(|i| simulate(g, &unordered, &config, i))
        .collect();
    let profile = estimate_profile(&traces);

    // Initial Algorithm-1 properties, for the "why" column.
    let partition = PartitionGraph::new(g, worker);
    let durations = partition.durations(g, &profile);
    let props = OpProperties::new(&partition, durations);
    let bit_of = |op| {
        partition
            .recv_ids()
            .iter()
            .position(|&r| r == op)
            .expect("op is a recv of this worker")
    };

    let tac_seq = tac_order(g, worker, &profile);
    println!(
        "{}: first {show} transfers under TAC (of {})\n",
        model.name(),
        tac_seq.len()
    );
    println!(
        "{:<4} {:<42} {:>10} {:>10} {:>10}",
        "#", "parameter", "M", "P", "M+"
    );
    for (rank, &recv) in tac_seq.iter().take(show).enumerate() {
        let bit = bit_of(recv);
        println!(
            "{:<4} {:<42} {:>10} {:>10} {:>10}",
            rank,
            g.op_name(recv),
            props.recv_time(&partition, bit).to_string(),
            props.p(bit).to_string(),
            props
                .m_plus(bit)
                .map(|d| d.to_string())
                .unwrap_or_else(|| "inf".into()),
        );
    }

    // Optional focus op: where does one named transfer land?
    if let Some(name) = args.next() {
        match g.find_op(&name) {
            Some(op) => match tac_seq.iter().position(|&o| o == op) {
                Some(rank) => {
                    let bit = bit_of(op);
                    println!(
                        "\n{name}: TAC rank {rank}/{} (M {} | P {} | M+ {})",
                        tac_seq.len(),
                        props.recv_time(&partition, bit),
                        props.p(bit),
                        props
                            .m_plus(bit)
                            .map(|d| d.to_string())
                            .unwrap_or_else(|| "inf".into()),
                    );
                }
                None => println!("\n{name}: not a scheduled transfer of worker 0"),
            },
            None => println!("\nno op named {name:?} in the deployed graph"),
        }

        // Overlap and inversion report for the op's channel, observed on
        // one enforced TAC iteration.
        if let Some(ch) = g.find_op(&name).and_then(|op| g.op(op).kind().channel()) {
            let ranked = tac_seq.iter().copied().zip(0..);
            let tac_schedule = Schedule::from_priorities(g.len(), ranked);
            let tac_schedule = deployed.replicate_schedule(&tac_schedule);
            let trace = simulate(g, &tac_schedule, &config, 0);
            let report = overlap_report(g, &trace);
            let usage = report
                .channel(ch)
                .expect("transfer channels appear in the trace");
            let inversions = priority_inversions(g, &trace, |op| tac_schedule.priority(op));
            println!(
                "\nchannel ch{} under enforced TAC (iteration 0):\n\
                 \x20 busy {} | idle {} | {:.1}% utilized | {} transfers | {} bytes\n\
                 \x20 priority inversions: {} on this channel, {} trace-wide\n\
                 \x20 comm/compute overlap across the trace: {:.1}%",
                ch.index(),
                usage.busy,
                usage.idle,
                100.0 * usage.utilization(report.makespan),
                usage.transfers,
                usage.bytes,
                inversions.on_channel(ch),
                inversions.count(),
                100.0 * report.overlap_frac(),
            );
        }
    }

    // How much does TIC agree with TAC?
    let tic_schedule = tic(g, worker);
    let mut tic_seq: Vec<_> = tac_seq.clone();
    tic_seq.sort_by_key(|&op| (tic_schedule.priority(op), op));
    let agree = tac_seq.iter().zip(&tic_seq).filter(|(a, b)| a == b).count();
    println!(
        "\nTIC assigns {} distinct priority levels; its order agrees with TAC on {}/{} positions.",
        {
            let mut levels: Vec<_> = tac_seq
                .iter()
                .filter_map(|&op| tic_schedule.priority(op))
                .collect();
            levels.sort_unstable();
            levels.dedup();
            levels.len()
        },
        agree,
        tac_seq.len()
    );
    println!(
        "(the paper finds TIC's DAG-only priorities are near-optimal for today's models — Fig. 13)"
    );
    Ok(())
}

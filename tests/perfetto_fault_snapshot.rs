//! Golden snapshot of the Perfetto exporter on a faulty iteration.
//!
//! `perfetto_snapshot` pins a fault-free AlexNet export, which never
//! reaches the exporter's instant and flow writers. This pins the exact
//! bytes `Session::perfetto_json` produces for one fixed-seed TIC
//! iteration of a small MLP whose degraded barrier fires: dropped and
//! retransmitted transfers, crashed and recovered workers, and the
//! barrier's `DeferredOp` flow pairs all render.
//!
//! Deliberate exporter changes re-pin with:
//!
//! ```text
//! SNAPSHOT_UPDATE=1 cargo test -q --test perfetto_fault_snapshot
//! ```

use tictac::{
    ClusterSpec, FaultSpec, Mode, RetryPolicy, SchedulerKind, Session, SimConfig, SimDuration,
};
use tictac_models::tiny_mlp;

const SNAPSHOT: &str = "tests/snapshots/tiny_mlp_faulty_iter1.perfetto.json";

fn export() -> String {
    let us = SimDuration::from_micros;
    let faults = FaultSpec::none()
        .with_drop_prob(0.4)
        .with_crashes(1.0, us(150))
        .with_onset_window(us(300))
        .with_retry(RetryPolicy::fixed(us(40), 1))
        .with_barrier_timeout(us(700));
    Session::builder(tiny_mlp(Mode::Training, 8))
        .cluster(ClusterSpec::new(2, 1))
        .config(SimConfig::cloud_gpu().with_faults(faults))
        .scheduler(SchedulerKind::Tic)
        .build()
        .expect("tiny MLP deploys")
        .perfetto_json(1)
        .expect("the barrier absorbs every loss")
}

#[test]
fn faulty_trace_matches_snapshot() {
    let json = export();
    let stats = tictac::validate_perfetto(&json).expect("valid trace_event JSON");
    // The iteration reaches every writer the fault-free snapshot misses.
    for name in [
        "TransferDropped",
        "Retransmit",
        "WorkerCrashed",
        "DeferredOp",
        "BarrierDegraded",
    ] {
        assert!(
            stats.fault_names.iter().any(|n| n == name),
            "no {name} instant in {:?}",
            stats.fault_names
        );
    }
    assert!(stats.flow_starts > 0);

    if std::env::var_os("SNAPSHOT_UPDATE").is_some() {
        std::fs::write(SNAPSHOT, &json).expect("write snapshot");
        return;
    }
    let pinned = std::fs::read_to_string(SNAPSHOT)
        .expect("snapshot missing; regenerate with SNAPSHOT_UPDATE=1");
    assert_eq!(
        json, pinned,
        "Perfetto export drifted from {SNAPSHOT}; if deliberate, \
         re-pin with SNAPSHOT_UPDATE=1"
    );
}

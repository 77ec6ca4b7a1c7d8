//! Golden-trace regression tests for the simulation engine.
//!
//! The engine's randomized picks (ready-queue pops, channel queue pops,
//! reorder errors, noise, fault drops) are part of its reproducibility
//! contract: for a fixed `(seed, iteration)` the RNG draw order — and so
//! the produced trace — must never change across refactors. These tests
//! pin a fingerprint of the full trace (every op interval, every fault
//! event, the makespan) for a spread of scenarios covering all random
//! paths: baseline random pops, enforced rank order with reorder errors,
//! the disorder window, and a faulty run with drops, crashes and
//! retransmits.
//!
//! The expected values were captured from the seed engine (PR 1) and gate
//! the hot-loop rewrite: byte-identical traces or bust. If one of these
//! ever fails, the engine's draw-order compatibility contract is broken —
//! fix the engine, do not re-pin, unless the break is deliberate and
//! documented in DESIGN.md §7.
//!
//! Run with `GOLDEN_PRINT=1 cargo test -q --test golden_traces -- --nocapture`
//! to print current fingerprints (for deliberate re-pinning).

use tictac::{
    deploy, no_ordering, simulate, simulate_with_plan_observed, tic, try_simulate, Blackout,
    ClusterSpec, Crash, ExecutionTrace, FaultPlan, FaultSpec, Mode, Model, Platform, Registry,
    RetryPolicy, SimConfig, SimDuration, SimTime, Stall,
};
use tictac_graph::tiny_mlp;

/// FNV-1a over every op interval (in op-id order), fault event and the
/// makespan. Any change to any byte of the trace changes the fingerprint.
fn fingerprint(trace: &ExecutionTrace) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    fn mix(h: &mut u64, v: u64) {
        for byte in v.to_le_bytes() {
            *h ^= byte as u64;
            *h = h.wrapping_mul(PRIME);
        }
    }
    let mut h = OFFSET;
    for i in 0..trace.len() {
        match trace.record(tictac::OpId::from_index(i)) {
            Some(r) => {
                mix(&mut h, i as u64);
                mix(&mut h, r.start.as_nanos());
                mix(&mut h, r.end.as_nanos());
            }
            None => mix(&mut h, u64::MAX),
        }
    }
    for ev in trace.fault_events() {
        mix(&mut h, ev.at.as_nanos());
        for byte in format!("{:?}", ev.kind).bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(PRIME);
        }
    }
    mix(&mut h, trace.makespan().as_nanos());
    h
}

fn check(name: &str, trace: &ExecutionTrace, expected: u64) {
    let got = fingerprint(trace);
    if std::env::var_os("GOLDEN_PRINT").is_some() {
        println!("golden {name}: 0x{got:016x}");
        return;
    }
    assert_eq!(
        got, expected,
        "{name}: trace fingerprint drifted (got 0x{got:016x}, pinned 0x{expected:016x}) — \
         the engine's RNG draw-order contract is broken"
    );
}

/// Baseline (no ranks anywhere): exercises the uniform random channel pops
/// and random ready-queue pops under the default disorder window.
#[test]
fn golden_baseline_tiny_mlp() {
    let d = deploy(&tiny_mlp(Mode::Training, 8), &ClusterSpec::new(3, 2)).unwrap();
    let cfg = SimConfig::cloud_gpu();
    let s = no_ordering(d.graph());
    check(
        "baseline_tiny_mlp_it0",
        &simulate(d.graph(), &s, &cfg, 0),
        0x01103a4f256db1dc,
    );
    check(
        "baseline_tiny_mlp_it7",
        &simulate(d.graph(), &s, &cfg, 7),
        0x7879c429bf48428e,
    );
}

/// Enforced TIC order: exercises the ranked fast path, sender-side
/// counters and the reorder-error draws (0.5% per pick, cloud_gpu).
#[test]
fn golden_tic_enforced_inception() {
    let model = Model::InceptionV1.build_with_batch(Mode::Inference, 4);
    let d = deploy(&model, &ClusterSpec::new(2, 1)).unwrap();
    let cfg = SimConfig::cloud_gpu();
    let s = d.replicate_schedule(&tic(d.graph(), d.workers()[0]));
    check(
        "tic_inception_v1_it0",
        &simulate(d.graph(), &s, &cfg, 0),
        0xcd2bf2f7a4703836,
    );
    check(
        "tic_inception_v1_it3",
        &simulate(d.graph(), &s, &cfg, 3),
        0x618b11902a8e0f54,
    );
}

/// Baseline on a bigger model: long channel queues, heavy disorder-window
/// indexing.
#[test]
fn golden_baseline_resnet() {
    let model = Model::ResNet50V1.build_with_batch(Mode::Training, 2);
    let d = deploy(&model, &ClusterSpec::new(2, 1)).unwrap();
    let cfg = SimConfig::cloud_gpu();
    let s = no_ordering(d.graph());
    check(
        "baseline_resnet50_it1",
        &simulate(d.graph(), &s, &cfg, 1),
        0x0884a065410d6866,
    );
}

/// Faulty run: transfer drops, worker crashes, retransmit timeouts — the
/// fault event stream and recovery scheduling must replay exactly.
#[test]
fn golden_faulty_run() {
    let d = deploy(&tiny_mlp(Mode::Training, 8), &ClusterSpec::new(2, 1)).unwrap();
    let cfg = SimConfig::cloud_gpu().with_faults(
        FaultSpec::none()
            .with_drop_prob(0.2)
            .with_crashes(0.5, SimDuration::from_millis(10))
            .with_retry(RetryPolicy::fixed(SimDuration::from_millis(5), 30)),
    );
    let s = no_ordering(d.graph());
    let trace = try_simulate(d.graph(), &s, &cfg, 3).unwrap();
    // Re-pinned when drop decisions moved from a sequential RNG stream to
    // the keyed per-(op, attempt) hash shared with the threaded runtime.
    check("faulty_tiny_mlp_it3", &trace, 0x493830cc7b55cf35);
}

/// Degraded barrier: every transfer dropped, barrier absorbs the loss.
#[test]
fn golden_degraded_barrier() {
    let d = deploy(&tiny_mlp(Mode::Training, 8), &ClusterSpec::new(2, 1)).unwrap();
    let cfg = SimConfig::cloud_gpu().with_faults(
        FaultSpec::none()
            .with_drop_prob(1.0)
            .with_retry(RetryPolicy::fixed(SimDuration::from_millis(1), 2))
            .with_barrier_timeout(SimDuration::from_millis(400)),
    );
    let s = no_ordering(d.graph());
    let trace = try_simulate(d.graph(), &s, &cfg, 0).unwrap();
    check("degraded_barrier_it0", &trace, 0x5e8737d0047e993a);
}

/// Overlapping outage windows on one device and one channel: two crashes
/// of worker 0 whose windows overlap, a blackout of its first channel that
/// outlasts both, two overlapping stalls of PS 0, and a crash of worker 1
/// ending at the very instant worker 0 recovers (its end event pops
/// first). Pins which pump restarts each resource — and so the RNG draw
/// order — when availability is the maximum over several windows. Captured
/// from the full-scan pump, before the engine went event-driven.
#[test]
fn golden_overlapping_outages() {
    let d = deploy(&tiny_mlp(Mode::Training, 8), &ClusterSpec::new(2, 2)).unwrap();
    let g = d.graph();
    let (w0, w1, ps0) = (d.workers()[0], d.workers()[1], d.parameter_servers()[0]);
    let channel = g.channel_between(w0, ps0).unwrap();
    let us = |t: u64| SimTime::from_nanos(t * 1_000);
    let window = |at: u64, until: u64| (us(at), us(until));
    let mut plan = FaultPlan::quiet();
    plan.crashes = [
        (w1, window(90, 320)),
        (w0, window(100, 260)),
        (w0, window(180, 320)),
    ]
    .map(|(device, (at, until))| Crash { device, at, until })
    .to_vec();
    plan.blackouts = [window(50, 200), window(150, 400)]
        .map(|(at, until)| Blackout { channel, at, until })
        .to_vec();
    plan.stalls = [window(120, 300), window(250, 350)]
        .map(|(at, until)| Stall {
            device: ps0,
            at,
            until,
        })
        .to_vec();
    plan.drop_prob = 0.1;
    plan.retry = RetryPolicy::fixed(SimDuration::from_micros(100), 30);
    let trace = simulate_with_plan_observed(
        g,
        &no_ordering(g),
        &SimConfig::cloud_gpu(),
        5,
        &plan,
        &Registry::disabled(),
    )
    .unwrap();
    assert_eq!(trace.executed_ops(), g.len());
    check("overlapping_outages_it5", &trace, 0x010989942776ae40);
}

/// Deterministic timing on identical workers: hundreds of completions
/// share a timestamp, so the event queue's tie order — the order events
/// were scheduled in, not `at` — decides the pop order, and under the baseline schedule every RNG pick
/// depends on it. The noisy goldens above almost never see a tie.
#[test]
fn golden_deterministic_ties() {
    let model = Model::AlexNetV2.build_with_batch(Mode::Training, 2);
    let d = deploy(&model, &ClusterSpec::new(16, 1)).unwrap();
    let cfg = SimConfig::deterministic(Platform::cloud_gpu());
    let s = no_ordering(d.graph());
    check(
        "deterministic_ties_alexnet_it2",
        &simulate(d.graph(), &s, &cfg, 2),
        0x451aa16e4464b446,
    );
}

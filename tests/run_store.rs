//! Run-store integration tests: encode→decode→encode byte identity over
//! randomized records and the committed corpus, schema-version and
//! integer-spelling rejection, append/load through a real file,
//! history-aware regression gating, and a golden snapshot pinning the
//! `tictac-run/v3` wire format.
//!
//! Regenerate the golden file after an intentional schema change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test run_store golden
//! ```

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tictac_obs::{HistogramStats, MetricValue, Snapshot, TimerStats};
use tictac_store::{
    diff_records, regress, IterationEvidence, Payload, RegressPolicy, ReportEvidence, RunRecord,
    RunStore, SessionEvidence, SCHEMA,
};
use tictac_trace::FaultCounters;

const GOLDEN: &str = "tests/snapshots/run_record.golden.jsonl";

/// Strings that exercise the JSON escaper: quotes, backslashes, control
/// characters, multi-byte UTF-8.
fn random_label(rng: &mut SmallRng) -> String {
    const POOL: [&str; 8] = [
        "alexnet_v2",
        "vgg_19",
        "table1",
        "ci job #42",
        "a\"quoted\"label",
        "back\\slash",
        "tab\tand\nnewline",
        "schön-ü€",
    ];
    POOL[rng.gen_range(0..POOL.len())].to_string()
}

/// A finite f64 spanning magnitudes from subnormal-ish to huge, plus the
/// negative-zero and integral edge cases shortest-form formatting must
/// keep exact.
fn random_float(rng: &mut SmallRng) -> f64 {
    match rng.gen_range(0..6u32) {
        0 => 0.0,
        1 => -0.0,
        2 => rng.gen_range(0..1_000_000u64) as f64,
        3 => rng.gen::<f64>() * 1e-9,
        4 => (rng.gen::<f64>() - 0.5) * 1e12,
        _ => rng.gen::<f64>(),
    }
}

fn random_snapshot(rng: &mut SmallRng) -> Snapshot {
    let mut entries = Vec::new();
    for i in 0..rng.gen_range(0..4usize) {
        let name = format!("m{i}.{}", random_label(rng));
        let value = match rng.gen_range(0..4u32) {
            0 => MetricValue::Counter(rng.gen_range(0..1u64 << 50)),
            1 => MetricValue::Gauge(random_float(rng)),
            2 => {
                let bounds: Vec<u64> = (1..=rng.gen_range(1..4u64)).map(|b| b * 100).collect();
                let buckets: Vec<u64> = (0..=bounds.len())
                    .map(|_| rng.gen_range(0..50u64))
                    .collect();
                let count = buckets.iter().sum();
                MetricValue::Histogram(HistogramStats {
                    max: if count == 0 {
                        0
                    } else {
                        rng.gen_range(0..500u64)
                    },
                    sum: rng.gen_range(0..1u64 << 40),
                    count,
                    bounds,
                    buckets,
                })
            }
            _ => MetricValue::Timer(TimerStats {
                count: rng.gen_range(0..1000),
                total_ns: rng.gen_range(0..1u64 << 50),
                max_ns: rng.gen_range(0..1u64 << 50),
            }),
        };
        entries.push((name, value));
    }
    Snapshot { entries }
}

fn random_payload(rng: &mut SmallRng) -> Payload {
    match rng.gen_range(0..2u32) {
        0 => Payload::Session(SessionEvidence {
            iterations: (0..rng.gen_range(0..4usize))
                .map(|_| IterationEvidence {
                    makespan_ns: rng.gen_range(0..1u64 << 50),
                    throughput: random_float(rng),
                    straggler_pct: random_float(rng),
                    efficiency: random_float(rng),
                    speedup_potential: random_float(rng),
                    goodput_pct: random_float(rng),
                    inversions: rng.gen_range(0..1u64 << 50),
                })
                .collect(),
            faults: FaultCounters {
                drops: rng.gen_range(0..100),
                timeouts: rng.gen_range(0..100),
                retransmits: rng.gen_range(0..100),
                blackouts: rng.gen_range(0..100),
                crashes: rng.gen_range(0..100),
                ps_stalls: rng.gen_range(0..100),
                stragglers: rng.gen_range(0..100),
                deferred_ops: rng.gen_range(0..100),
                degraded_barriers: rng.gen_range(0..100),
            },
            snapshot: random_snapshot(rng),
        }),
        _ => Payload::Report(ReportEvidence {
            report_fp: rng.gen::<u64>(),
            quick: rng.gen::<u64>() & 1 == 1,
        }),
    }
}

/// Identity fields cover the full `u64` range for the stringified
/// fingerprints/seed (they survive beyond 2^53) and the safe-integer
/// range for everything encoded as a bare JSON number.
fn random_record() -> impl Strategy<Value = RunRecord> {
    any::<u64>().prop_map(|seed| {
        let rng = &mut SmallRng::seed_from_u64(seed);
        RunRecord {
            id: format!("r{:06}", rng.gen_range(0..1_000_000u64)),
            time_ms: rng.gen_range(0..1u64 << 50),
            source: random_label(rng),
            workload: random_label(rng),
            model_fp: rng.gen::<u64>(),
            workers: rng.gen::<u32>(),
            ps: rng.gen::<u32>(),
            scheduler: random_label(rng),
            backend: random_label(rng),
            seed: rng.gen::<u64>(),
            fault_fp: rng.gen::<u64>(),
            scenario_fp: rng.gen::<u64>(),
            comm_fp: rng.gen::<u64>(),
            provenance: random_label(rng),
            payload: random_payload(rng),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn encode_decode_encode_is_byte_identical(record in random_record()) {
        let first = record.encode();
        let decoded = RunRecord::decode(&first).expect("own encoding decodes");
        prop_assert_eq!(&decoded, &record);
        let second = decoded.encode();
        prop_assert_eq!(first, second);
    }
}

#[test]
fn non_finite_floats_survive_as_null_round_trips() {
    let mut record = sample_record();
    if let Payload::Session(s) = &mut record.payload {
        s.iterations[0].throughput = f64::NAN;
        s.iterations[0].efficiency = f64::INFINITY;
    }
    let first = record.encode();
    assert!(first.contains("\"throughput\":null"));
    let decoded = RunRecord::decode(&first).expect("null floats decode");
    // NaN breaks PartialEq, but the bytes stay fixed under re-encoding.
    assert_eq!(first, decoded.encode());
}

#[test]
fn other_schema_versions_are_rejected() {
    let line = sample_record().encode();
    for tampered in [
        line.replace("tictac-run/v3", "tictac-run/v4"),
        line.replace("tictac-run/v3", "tictac-run/v2"),
        line.replace("tictac-run/v3", "someone-elses-schema"),
    ] {
        let err = RunRecord::decode(&tampered).expect_err("wrong schema must not decode");
        assert!(err.contains("schema"), "unhelpful error: {err}");
    }
    // Same version, unknown extra field: also rejected (strict schema).
    let extra = line.replace("\"provenance\"", "\"extra\":1,\"provenance\"");
    assert!(RunRecord::decode(&extra).is_err());
}

/// An integer field carried as a JSON number reads only in the spelling
/// the encoder writes, `0|[1-9][0-9]*` up to 2^53, and any other is an
/// error at the number's first byte. Each of these once decoded through
/// an f64, and none re-encodes to its own bytes.
#[test]
fn integer_fields_are_canonical_or_rejected() {
    let line = sample_record().encode();
    for (field, spelling) in [
        ("\"time_ms\":1754000000000", "9007199254740993"),
        ("\"workers\":2", "-0"),
        ("\"workers\":2", "02"),
        ("\"workers\":2", "2.0"),
        ("\"workers\":2", "2e0"),
    ] {
        let (key, _) = field.split_once(':').unwrap();
        let tampered = line.replacen(field, &format!("{key}:{spelling}"), 1);
        let at = line.find(field).unwrap() + key.len() + 1;
        let err = RunRecord::decode(&tampered).expect_err(spelling);
        assert!(
            err.starts_with(&format!("json error at byte {at}: ")),
            "{spelling}: {err}"
        );
    }
    // The canonical spellings at the ends of the range still decode.
    for (field, spelling) in [
        ("\"time_ms\":1754000000000", "9007199254740992"),
        ("\"workers\":2", "0"),
    ] {
        let (key, _) = field.split_once(':').unwrap();
        let edge = line.replacen(field, &format!("{key}:{spelling}"), 1);
        assert_eq!(RunRecord::decode(&edge).expect(spelling).encode(), edge);
    }
}

/// Every committed line — the corpus and the golden record — decodes and
/// re-encodes to its own bytes.
#[test]
fn committed_lines_round_trip_byte_exactly() {
    for file in ["results/runs.jsonl", GOLDEN] {
        let text = std::fs::read_to_string(file).expect("committed file");
        assert!(text.lines().count() > 0, "{file} is empty");
        for (i, line) in text.lines().enumerate() {
            let record =
                RunRecord::decode(line).unwrap_or_else(|e| panic!("{file}:{}: {e}", i + 1));
            assert_eq!(record.encode(), line, "{file}:{}", i + 1);
        }
    }
}

#[test]
fn store_append_assigns_ids_and_loads_back() {
    let path = std::env::temp_dir().join(format!("tictac-run-store-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let store = RunStore::at(&path);
    let mut record = sample_record();
    record.id.clear();
    let a = store.append(record.clone()).expect("append");
    let b = store.append(record.clone()).expect("append");
    assert_eq!((a.as_str(), b.as_str()), ("r000000", "r000001"));

    let loaded = store.load().expect("load");
    assert_eq!(loaded.len(), 2);
    assert_eq!(loaded[0].payload, loaded[1].payload);
    assert_eq!(loaded[0].payload, record.payload);
    // Identical inputs, byte-identical stored payloads: zero drift.
    let diff = diff_records(&loaded[0], &loaded[1]);
    assert!(diff.is_zero(), "unexpected drift:\n{}", diff.render());
    std::fs::remove_file(&path).expect("cleanup");
}

#[test]
fn regress_flags_a_slowdown_against_history() {
    let make = |makespan_ns: u64, efficiency: f64| {
        let mut r = sample_record();
        if let Payload::Session(s) = &mut r.payload {
            for i in &mut s.iterations {
                i.makespan_ns = makespan_ns;
                i.efficiency = efficiency;
            }
        }
        r
    };
    let healthy: Vec<RunRecord> = (0..4).map(|_| make(1_000_000, 0.95)).collect();
    let report = regress(&healthy, &RegressPolicy::default());
    assert!(
        !report.failed(),
        "healthy history must pass:\n{}",
        report.render()
    );

    let mut with_regression = healthy;
    with_regression.push(make(1_200_000, 0.95)); // +20% over the window best
    let report = regress(&with_regression, &RegressPolicy::default());
    assert!(
        report.failed(),
        "slowdown must be flagged:\n{}",
        report.render()
    );
    assert!(report.render().contains("DRIFT"));
}

/// A fully-populated fixed record: every payload field exercised, fixed
/// timestamp, so its encoding is stable down to the byte.
fn sample_record() -> RunRecord {
    RunRecord {
        id: "r000007".into(),
        time_ms: 1_754_000_000_000,
        source: "session".into(),
        workload: "alexnet_v2".into(),
        model_fp: 0xd0fa_9f4c_c236_0d6e,
        workers: 2,
        ps: 1,
        scheduler: "tac".into(),
        backend: "sim".into(),
        seed: u64::MAX,
        fault_fp: 0xb815_eafa_d4fb_89ac,
        scenario_fp: 0x5c3a_a01d_be1f_7a2e,
        comm_fp: 0x00c0_33f1_66ed_5a17,
        provenance: "golden \"fixture\" \\ line".into(),
        payload: Payload::Session(SessionEvidence {
            iterations: vec![
                IterationEvidence {
                    makespan_ns: 1_146_726_469,
                    throughput: 3.25,
                    straggler_pct: 1.5,
                    efficiency: 0.975,
                    speedup_potential: 0.025,
                    goodput_pct: 100.0,
                    inversions: 0,
                },
                IterationEvidence {
                    makespan_ns: 1_151_468_364,
                    throughput: 3.125,
                    straggler_pct: 2.25,
                    efficiency: 0.953125,
                    speedup_potential: 0.046875,
                    goodput_pct: 99.5,
                    inversions: 3,
                },
            ],
            faults: FaultCounters {
                drops: 2,
                timeouts: 1,
                retransmits: 1,
                blackouts: 0,
                crashes: 0,
                ps_stalls: 0,
                stragglers: 0,
                deferred_ops: 4,
                degraded_barriers: 1,
            },
            snapshot: Snapshot {
                entries: vec![
                    ("session.iterations".into(), MetricValue::Counter(2)),
                    ("session.goodput_pct".into(), MetricValue::Gauge(99.5)),
                    (
                        "session.makespan_us".into(),
                        MetricValue::Histogram(HistogramStats {
                            bounds: vec![1_000_000, 2_000_000],
                            buckets: vec![2, 0, 0],
                            count: 2,
                            sum: 2_298_194,
                            max: 1_151_468,
                        }),
                    ),
                    (
                        "session.iteration_wall".into(),
                        MetricValue::Timer(TimerStats {
                            count: 2,
                            total_ns: 1_500_000,
                            max_ns: 900_000,
                        }),
                    ),
                ],
            },
        }),
    }
}

/// Pins the `tictac-run/v3` wire format: any byte-level change to the
/// encoder shows up as a diff against the committed golden line.
#[test]
fn golden_run_record_snapshot() {
    let record = sample_record();
    let encoded = format!("{}\n", record.encode());
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(GOLDEN, &encoded).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN)
        .expect("golden file exists (regenerate with UPDATE_GOLDEN=1)");
    assert_eq!(
        encoded, golden,
        "run-record encoding changed; if intentional, bump {SCHEMA} and \
         regenerate with UPDATE_GOLDEN=1"
    );
    // The committed line also decodes back to the exact fixture.
    let decoded = RunRecord::decode(golden.trim_end()).expect("golden decodes");
    assert_eq!(decoded, record);
}

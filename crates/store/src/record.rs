//! The schema-versioned [`RunRecord`] and its strict JSONL codec.
//!
//! Every record is one line of hand-rolled JSON (the workspace vendors no
//! JSON crate; the value/parser/writer live in `tictac_obs::json`). The
//! codec is deliberately rigid so the corpus stays machine-checkable:
//!
//! - **Canonical field order.** Encoding emits object keys in one fixed
//!   order; decoding rejects any object whose key *sequence* differs —
//!   which subsumes unknown-field and missing-field rejection.
//! - **Schema versioning.** The first field is always `"schema"`; a
//!   record from a different schema version fails to decode with a clear
//!   error instead of being silently reinterpreted.
//! - **Byte-exact round-trips.** `encode(decode(line)) == line` for every
//!   line `encode` can produce. Floats are rendered in shortest-
//!   round-trip form (`format!("{n}")`), and `u64` values that can exceed
//!   2^53 (seeds, fingerprints) are carried as decimal strings so no
//!   precision is lost through the f64-backed JSON number type. The
//!   remaining integer fields are guarded: encoding asserts they fit in
//!   the 2^53 exactly-representable range.
//!
//! Non-finite floats encode as `null` and decode back to `NaN` — the
//! round-trip stays byte-exact, and analytics treat them as missing.

use tictac_obs::registry::{HistogramStats, MetricValue, Snapshot, TimerStats};
use tictac_obs::{parse_json, render_json, Json};
use tictac_trace::FaultCounters;

/// The store's current schema tag; bump on any wire-format change.
///
/// v2 added `scenario_fp` — the [`Scenario::fingerprint`] of the
/// declarative scenario that drove the run (`"0"` for runs not driven by
/// a scenario file). v3 added `comm_fp` — the `CommConfig::fingerprint`
/// of the communication granularity the run deployed with (`"0"` for the
/// default per-parameter lowering, so pre-pass runs keep their identity).
///
/// [`Scenario::fingerprint`]: https://docs.rs/tictac-scenario
pub const SCHEMA: &str = "tictac-run/v3";

/// Largest integer exactly representable in an f64-backed JSON number.
const MAX_SAFE_INT: u64 = 1 << 53;

/// One run's identity plus its observed evidence — a single JSONL line in
/// the store.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Store-assigned identifier (`r000042`); empty until appended.
    pub id: String,
    /// Wall-clock append time, milliseconds since the Unix epoch
    /// (0 when unknown; never compared by analytics).
    pub time_ms: u64,
    /// Which producer emitted the record: `session`, `bench` or `repro`.
    pub source: String,
    /// Workload label: the model name, or the experiment / bench label.
    pub workload: String,
    /// [`ModelGraph::fingerprint`] of the workload (0 when not model-shaped).
    ///
    /// [`ModelGraph::fingerprint`]: https://docs.rs/tictac-graph
    pub model_fp: u64,
    /// Worker count of the `ClusterSpec` the run deployed onto.
    pub workers: u32,
    /// Parameter-server count of the `ClusterSpec`.
    pub ps: u32,
    /// Scheduler kind (`baseline` / `random` / `tic` / `tac`, or `-`).
    pub scheduler: String,
    /// Execution backend (`sim` / `threaded`, or `-` for pure reports).
    pub backend: String,
    /// RNG seed the run was keyed on.
    pub seed: u64,
    /// [`FaultSpec::fingerprint`] of the fault regime (0 = quiet default).
    ///
    /// [`FaultSpec::fingerprint`]: https://docs.rs/tictac-sim
    pub fault_fp: u64,
    /// `Scenario::fingerprint` of the scenario file that drove the run
    /// (0 when the run was not scenario-driven).
    pub scenario_fp: u64,
    /// `CommConfig::fingerprint` of the communication granularity the run
    /// deployed with (0 = default per-parameter lowering).
    pub comm_fp: u64,
    /// Free-form provenance (git describe, CI job id, …); often empty.
    pub provenance: String,
    /// The observed evidence, tagged by kind.
    pub payload: Payload,
}

/// The evidence half of a [`RunRecord`].
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// A training-session run: per-iteration metrics plus the registry
    /// snapshot. Deterministic on the sim backend (virtual time), so two
    /// same-seed runs carry byte-identical payloads.
    Session(SessionEvidence),
    /// A wall-clock micro-benchmark: per-phase mean timings. Machine-
    /// dependent by nature; regression gating skips these groups. Nothing
    /// in this workspace emits them any more (the `bench` binary is gone);
    /// stores in the field hold such lines, so they stay decodable.
    Bench(BenchEvidence),
    /// A rendered experiment report, reduced to a fingerprint: cheap
    /// drift detection for experiments that run no sessions themselves.
    Report(ReportEvidence),
}

impl Payload {
    /// The discriminant string stored in the record's `kind` field.
    pub fn kind(&self) -> &'static str {
        match self {
            Payload::Session(_) => "session",
            Payload::Bench(_) => "bench",
            Payload::Report(_) => "report",
        }
    }
}

/// Per-iteration observations of one session run.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationEvidence {
    /// Iteration makespan in simulated nanoseconds.
    pub makespan_ns: u64,
    /// Samples per second at this makespan.
    pub throughput: f64,
    /// Straggler overhead percentage (paper Table 5 metric).
    pub straggler_pct: f64,
    /// Realized scheduling efficiency, Eq. 3/4 over observed durations.
    pub efficiency: f64,
    /// Headroom left on the table (1 − efficiency, as a percentage).
    pub speedup_potential: f64,
    /// Percentage of scheduled ops that completed undeferred.
    pub goodput_pct: f64,
    /// Priority inversions observed in the iteration's trace.
    pub inversions: u64,
}

/// Evidence payload of a [`Payload::Session`] record.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SessionEvidence {
    /// Measured iterations, in execution order (warmup excluded).
    pub iterations: Vec<IterationEvidence>,
    /// Fault counters accumulated across the measured iterations.
    pub faults: FaultCounters,
    /// The session registry's final snapshot (empty when disabled).
    pub snapshot: Snapshot,
}

/// One phase's mean wall-clock timing inside a [`Payload::Bench`] record.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseMean {
    /// Phase name (`build`, `deploy`, `tic`, `simulate`, …).
    pub name: String,
    /// Mean wall-clock milliseconds over the bench's repetitions.
    pub mean_ms: f64,
}

/// Evidence payload of a [`Payload::Bench`] record.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BenchEvidence {
    /// Per-phase mean timings.
    pub phases: Vec<PhaseMean>,
}

/// Evidence payload of a [`Payload::Report`] record.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportEvidence {
    /// FNV-1a fingerprint of the rendered report text.
    pub report_fp: u64,
    /// Whether the experiment ran in `--quick` mode.
    pub quick: bool,
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// A `u64` carried as a JSON number; asserts it is exactly representable.
fn num_u64(v: u64, what: &str) -> Json {
    assert!(
        v <= MAX_SAFE_INT,
        "{what} = {v} exceeds 2^53 and would lose precision as a JSON number"
    );
    Json::Num(v as f64)
}

/// A `u64` carried as a decimal string (full range, no f64 involvement).
fn str_u64(v: u64) -> Json {
    Json::Str(v.to_string())
}

fn iteration_json(it: &IterationEvidence) -> Json {
    Json::Obj(vec![
        ("makespan_ns".into(), num_u64(it.makespan_ns, "makespan_ns")),
        ("throughput".into(), Json::Num(it.throughput)),
        ("straggler_pct".into(), Json::Num(it.straggler_pct)),
        ("efficiency".into(), Json::Num(it.efficiency)),
        ("speedup_potential".into(), Json::Num(it.speedup_potential)),
        ("goodput_pct".into(), Json::Num(it.goodput_pct)),
        ("inversions".into(), num_u64(it.inversions, "inversions")),
    ])
}

fn faults_json(f: &FaultCounters) -> Json {
    Json::Obj(vec![
        ("drops".into(), num_u64(f.drops, "drops")),
        ("timeouts".into(), num_u64(f.timeouts, "timeouts")),
        ("retransmits".into(), num_u64(f.retransmits, "retransmits")),
        ("blackouts".into(), num_u64(f.blackouts, "blackouts")),
        ("crashes".into(), num_u64(f.crashes, "crashes")),
        ("ps_stalls".into(), num_u64(f.ps_stalls, "ps_stalls")),
        ("stragglers".into(), num_u64(f.stragglers, "stragglers")),
        (
            "deferred_ops".into(),
            num_u64(f.deferred_ops, "deferred_ops"),
        ),
        (
            "degraded_barriers".into(),
            num_u64(f.degraded_barriers, "degraded_barriers"),
        ),
    ])
}

fn metric_json(name: &str, value: &MetricValue) -> Json {
    let mut fields = vec![("name".into(), Json::Str(name.to_string()))];
    match value {
        MetricValue::Counter(v) => {
            fields.push(("type".into(), Json::Str("counter".into())));
            fields.push(("value".into(), num_u64(*v, name)));
        }
        MetricValue::Gauge(v) => {
            fields.push(("type".into(), Json::Str("gauge".into())));
            fields.push(("value".into(), Json::Num(*v)));
        }
        MetricValue::Histogram(h) => {
            fields.push(("type".into(), Json::Str("histogram".into())));
            fields.push((
                "bounds".into(),
                Json::Arr(h.bounds.iter().map(|&b| num_u64(b, "bound")).collect()),
            ));
            fields.push((
                "buckets".into(),
                Json::Arr(h.buckets.iter().map(|&b| num_u64(b, "bucket")).collect()),
            ));
            fields.push(("count".into(), num_u64(h.count, "count")));
            fields.push(("sum".into(), num_u64(h.sum, "sum")));
            fields.push(("max".into(), num_u64(h.max, "max")));
        }
        MetricValue::Timer(t) => {
            fields.push(("type".into(), Json::Str("timer".into())));
            fields.push(("count".into(), num_u64(t.count, "count")));
            fields.push(("total_ns".into(), num_u64(t.total_ns, "total_ns")));
            fields.push(("max_ns".into(), num_u64(t.max_ns, "max_ns")));
        }
    }
    Json::Obj(fields)
}

fn payload_json(p: &Payload) -> Json {
    match p {
        Payload::Session(s) => Json::Obj(vec![
            (
                "iterations".into(),
                Json::Arr(s.iterations.iter().map(iteration_json).collect()),
            ),
            ("faults".into(), faults_json(&s.faults)),
            (
                "snapshot".into(),
                Json::Arr(
                    s.snapshot
                        .entries
                        .iter()
                        .map(|(n, v)| metric_json(n, v))
                        .collect(),
                ),
            ),
        ]),
        Payload::Bench(b) => Json::Obj(vec![(
            "phases".into(),
            Json::Arr(
                b.phases
                    .iter()
                    .map(|p| {
                        Json::Obj(vec![
                            ("name".into(), Json::Str(p.name.clone())),
                            ("mean_ms".into(), Json::Num(p.mean_ms)),
                        ])
                    })
                    .collect(),
            ),
        )]),
        Payload::Report(r) => Json::Obj(vec![
            ("report_fp".into(), str_u64(r.report_fp)),
            ("quick".into(), Json::Bool(r.quick)),
        ]),
    }
}

impl RunRecord {
    /// Renders the record as one compact JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        let obj = Json::Obj(vec![
            ("schema".into(), Json::Str(SCHEMA.into())),
            ("id".into(), Json::Str(self.id.clone())),
            ("time_ms".into(), num_u64(self.time_ms, "time_ms")),
            ("source".into(), Json::Str(self.source.clone())),
            ("kind".into(), Json::Str(self.payload.kind().into())),
            ("workload".into(), Json::Str(self.workload.clone())),
            ("model_fp".into(), str_u64(self.model_fp)),
            (
                "workers".into(),
                num_u64(u64::from(self.workers), "workers"),
            ),
            ("ps".into(), num_u64(u64::from(self.ps), "ps")),
            ("scheduler".into(), Json::Str(self.scheduler.clone())),
            ("backend".into(), Json::Str(self.backend.clone())),
            ("seed".into(), str_u64(self.seed)),
            ("fault_fp".into(), str_u64(self.fault_fp)),
            ("scenario_fp".into(), str_u64(self.scenario_fp)),
            ("comm_fp".into(), str_u64(self.comm_fp)),
            ("provenance".into(), Json::Str(self.provenance.clone())),
            ("payload".into(), payload_json(&self.payload)),
        ]);
        render_json(&obj)
    }

    /// Parses one store line, rejecting schema mismatches, unknown or
    /// missing fields, out-of-order keys, and ill-typed values.
    pub fn decode(line: &str) -> Result<RunRecord, String> {
        let json = parse_json(line)?;
        let f = fields(
            &json,
            "record",
            &[
                "schema",
                "id",
                "time_ms",
                "source",
                "kind",
                "workload",
                "model_fp",
                "workers",
                "ps",
                "scheduler",
                "backend",
                "seed",
                "fault_fp",
                "scenario_fp",
                "comm_fp",
                "provenance",
                "payload",
            ],
        )?;
        let schema = get_str(f[0], "schema")?;
        if schema != SCHEMA {
            return Err(format!(
                "unsupported schema `{schema}` (this build reads `{SCHEMA}`)"
            ));
        }
        let kind = get_str(f[4], "kind")?;
        let payload = decode_payload(&kind, f[16])?;
        Ok(RunRecord {
            id: get_str(f[1], "id")?,
            time_ms: get_u64(f[2], "time_ms")?,
            source: get_str(f[3], "source")?,
            workload: get_str(f[5], "workload")?,
            model_fp: get_u64_str(f[6], "model_fp")?,
            workers: get_u32(f[7], "workers")?,
            ps: get_u32(f[8], "ps")?,
            scheduler: get_str(f[9], "scheduler")?,
            backend: get_str(f[10], "backend")?,
            seed: get_u64_str(f[11], "seed")?,
            fault_fp: get_u64_str(f[12], "fault_fp")?,
            scenario_fp: get_u64_str(f[13], "scenario_fp")?,
            comm_fp: get_u64_str(f[14], "comm_fp")?,
            provenance: get_str(f[15], "provenance")?,
            payload,
        })
    }
}

// ---------------------------------------------------------------------------
// Strict decoding
// ---------------------------------------------------------------------------

/// Checks that `j` is an object with *exactly* the expected keys in the
/// expected order, returning the values positionally. This one gate
/// enforces unknown-field, missing-field, and key-order rejection.
fn fields<'a>(j: &'a Json, what: &str, expected: &[&str]) -> Result<Vec<&'a Json>, String> {
    let obj = j
        .as_object()
        .ok_or_else(|| format!("{what}: expected an object"))?;
    if obj.len() != expected.len() {
        let got: Vec<&str> = obj.iter().map(|(k, _)| k.as_str()).collect();
        return Err(format!(
            "{what}: expected fields {expected:?}, found {got:?}"
        ));
    }
    for ((key, _), want) in obj.iter().zip(expected) {
        if key != want {
            return Err(format!("{what}: expected field `{want}`, found `{key}`"));
        }
    }
    Ok(obj.iter().map(|(_, v)| v).collect())
}

fn get_str(j: &Json, what: &str) -> Result<String, String> {
    j.as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("{what}: expected a string"))
}

fn get_bool(j: &Json, what: &str) -> Result<bool, String> {
    j.as_bool()
        .ok_or_else(|| format!("{what}: expected a bool"))
}

/// A float field; `null` reads back as `NaN` (the writer's encoding of
/// non-finite values), keeping round-trips byte-exact.
fn get_f64(j: &Json, what: &str) -> Result<f64, String> {
    match j {
        Json::Num(n) => Ok(*n),
        Json::Null => Ok(f64::NAN),
        _ => Err(format!("{what}: expected a number")),
    }
}

fn get_u64(j: &Json, what: &str) -> Result<u64, String> {
    let n = j
        .as_f64()
        .ok_or_else(|| format!("{what}: expected an unsigned integer"))?;
    if n < 0.0 || n.fract() != 0.0 || n > MAX_SAFE_INT as f64 {
        return Err(format!("{what}: {n} is not an exact unsigned integer"));
    }
    Ok(n as u64)
}

fn get_u32(j: &Json, what: &str) -> Result<u32, String> {
    let v = get_u64(j, what)?;
    u32::try_from(v).map_err(|_| format!("{what}: {v} exceeds u32"))
}

/// A full-range `u64` carried as a decimal string.
fn get_u64_str(j: &Json, what: &str) -> Result<u64, String> {
    let s = j
        .as_str()
        .ok_or_else(|| format!("{what}: expected a stringified integer"))?;
    s.parse::<u64>()
        .map_err(|e| format!("{what}: `{s}` is not a u64 ({e})"))
}

fn decode_iteration(j: &Json) -> Result<IterationEvidence, String> {
    let f = fields(
        j,
        "iteration",
        &[
            "makespan_ns",
            "throughput",
            "straggler_pct",
            "efficiency",
            "speedup_potential",
            "goodput_pct",
            "inversions",
        ],
    )?;
    Ok(IterationEvidence {
        makespan_ns: get_u64(f[0], "makespan_ns")?,
        throughput: get_f64(f[1], "throughput")?,
        straggler_pct: get_f64(f[2], "straggler_pct")?,
        efficiency: get_f64(f[3], "efficiency")?,
        speedup_potential: get_f64(f[4], "speedup_potential")?,
        goodput_pct: get_f64(f[5], "goodput_pct")?,
        inversions: get_u64(f[6], "inversions")?,
    })
}

fn decode_faults(j: &Json) -> Result<FaultCounters, String> {
    let f = fields(
        j,
        "faults",
        &[
            "drops",
            "timeouts",
            "retransmits",
            "blackouts",
            "crashes",
            "ps_stalls",
            "stragglers",
            "deferred_ops",
            "degraded_barriers",
        ],
    )?;
    Ok(FaultCounters {
        drops: get_u64(f[0], "drops")?,
        timeouts: get_u64(f[1], "timeouts")?,
        retransmits: get_u64(f[2], "retransmits")?,
        blackouts: get_u64(f[3], "blackouts")?,
        crashes: get_u64(f[4], "crashes")?,
        ps_stalls: get_u64(f[5], "ps_stalls")?,
        stragglers: get_u64(f[6], "stragglers")?,
        deferred_ops: get_u64(f[7], "deferred_ops")?,
        degraded_barriers: get_u64(f[8], "degraded_barriers")?,
    })
}

fn decode_u64_array(j: &Json, what: &str) -> Result<Vec<u64>, String> {
    j.as_array()
        .ok_or_else(|| format!("{what}: expected an array"))?
        .iter()
        .map(|v| get_u64(v, what))
        .collect()
}

fn decode_metric(j: &Json) -> Result<(String, MetricValue), String> {
    let obj = j
        .as_object()
        .ok_or_else(|| "metric: expected an object".to_string())?;
    let kind = obj
        .get(1)
        .filter(|(k, _)| k == "type")
        .map(|(_, v)| get_str(v, "metric type"))
        .ok_or_else(|| "metric: second field must be `type`".to_string())??;
    match kind.as_str() {
        "counter" => {
            let f = fields(j, "counter metric", &["name", "type", "value"])?;
            Ok((
                get_str(f[0], "name")?,
                MetricValue::Counter(get_u64(f[2], "value")?),
            ))
        }
        "gauge" => {
            let f = fields(j, "gauge metric", &["name", "type", "value"])?;
            Ok((
                get_str(f[0], "name")?,
                MetricValue::Gauge(get_f64(f[2], "value")?),
            ))
        }
        "histogram" => {
            let f = fields(
                j,
                "histogram metric",
                &["name", "type", "bounds", "buckets", "count", "sum", "max"],
            )?;
            Ok((
                get_str(f[0], "name")?,
                MetricValue::Histogram(HistogramStats {
                    bounds: decode_u64_array(f[2], "bounds")?,
                    buckets: decode_u64_array(f[3], "buckets")?,
                    count: get_u64(f[4], "count")?,
                    sum: get_u64(f[5], "sum")?,
                    max: get_u64(f[6], "max")?,
                }),
            ))
        }
        "timer" => {
            let f = fields(
                j,
                "timer metric",
                &["name", "type", "count", "total_ns", "max_ns"],
            )?;
            Ok((
                get_str(f[0], "name")?,
                MetricValue::Timer(TimerStats {
                    count: get_u64(f[2], "count")?,
                    total_ns: get_u64(f[3], "total_ns")?,
                    max_ns: get_u64(f[4], "max_ns")?,
                }),
            ))
        }
        other => Err(format!("metric: unknown type `{other}`")),
    }
}

fn decode_payload(kind: &str, j: &Json) -> Result<Payload, String> {
    match kind {
        "session" => {
            let f = fields(j, "session payload", &["iterations", "faults", "snapshot"])?;
            let iterations = f[0]
                .as_array()
                .ok_or_else(|| "iterations: expected an array".to_string())?
                .iter()
                .map(decode_iteration)
                .collect::<Result<_, _>>()?;
            let entries = f[2]
                .as_array()
                .ok_or_else(|| "snapshot: expected an array".to_string())?
                .iter()
                .map(decode_metric)
                .collect::<Result<_, _>>()?;
            Ok(Payload::Session(SessionEvidence {
                iterations,
                faults: decode_faults(f[1])?,
                snapshot: Snapshot { entries },
            }))
        }
        "bench" => {
            let f = fields(j, "bench payload", &["phases"])?;
            let phases = f[0]
                .as_array()
                .ok_or_else(|| "phases: expected an array".to_string())?
                .iter()
                .map(|p| {
                    let pf = fields(p, "phase", &["name", "mean_ms"])?;
                    Ok(PhaseMean {
                        name: get_str(pf[0], "name")?,
                        mean_ms: get_f64(pf[1], "mean_ms")?,
                    })
                })
                .collect::<Result<_, String>>()?;
            Ok(Payload::Bench(BenchEvidence { phases }))
        }
        "report" => {
            let f = fields(j, "report payload", &["report_fp", "quick"])?;
            Ok(Payload::Report(ReportEvidence {
                report_fp: get_u64_str(f[0], "report_fp")?,
                quick: get_bool(f[1], "quick")?,
            }))
        }
        other => Err(format!("unknown record kind `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunRecord {
        RunRecord {
            id: "r000007".into(),
            time_ms: 1_700_000_000_123,
            source: "session".into(),
            workload: "alexnet_v2".into(),
            model_fp: u64::MAX - 3,
            workers: 8,
            ps: 2,
            scheduler: "tac".into(),
            backend: "sim".into(),
            seed: u64::MAX,
            fault_fp: 0xDEAD_BEEF_CAFE_F00D,
            scenario_fp: 0x71C7_AC00_5CEA_4210,
            comm_fp: 0x7A87_1710_0CAF_E000,
            provenance: "ci/1234".into(),
            payload: Payload::Session(SessionEvidence {
                iterations: vec![IterationEvidence {
                    makespan_ns: 123_456_789,
                    throughput: 512.25,
                    straggler_pct: 1.5,
                    efficiency: 0.875,
                    speedup_potential: 12.5,
                    goodput_pct: 100.0,
                    inversions: 3,
                }],
                faults: FaultCounters {
                    drops: 2,
                    retransmits: 2,
                    ..FaultCounters::default()
                },
                snapshot: Snapshot {
                    entries: vec![
                        ("session.iterations".into(), MetricValue::Counter(10)),
                        ("session.throughput".into(), MetricValue::Gauge(512.25)),
                        (
                            "session.makespan_us".into(),
                            MetricValue::Histogram(HistogramStats {
                                bounds: vec![100, 1000],
                                buckets: vec![0, 1, 0],
                                count: 1,
                                sum: 123,
                                max: 123,
                            }),
                        ),
                        (
                            "session.wall".into(),
                            MetricValue::Timer(TimerStats {
                                count: 1,
                                total_ns: 42,
                                max_ns: 42,
                            }),
                        ),
                    ],
                },
            }),
        }
    }

    #[test]
    fn encode_decode_encode_is_byte_identical() {
        let line = sample().encode();
        let decoded = RunRecord::decode(&line).unwrap();
        assert_eq!(decoded, sample());
        assert_eq!(decoded.encode(), line);
    }

    #[test]
    fn big_u64s_survive_the_f64_bottleneck() {
        let r = RunRecord::decode(&sample().encode()).unwrap();
        assert_eq!(r.seed, u64::MAX);
        assert_eq!(r.model_fp, u64::MAX - 3);
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let line = sample().encode().replace("tictac-run/v3", "tictac-run/v2");
        let err = RunRecord::decode(&line).unwrap_err();
        assert!(err.contains("unsupported schema"), "{err}");
    }

    #[test]
    fn unknown_and_missing_fields_are_rejected() {
        let line = sample().encode();
        // Unknown field injected after `schema`.
        let unknown = line.replacen("\"id\":", "\"surprise\":1,\"id\":", 1);
        assert!(RunRecord::decode(&unknown).is_err());
        // Missing field: drop `seed`.
        let missing = line.replacen("\"seed\":\"18446744073709551615\",", "", 1);
        assert!(RunRecord::decode(&missing).is_err());
        // Reordered fields are also rejected: order is part of the schema.
        let reordered = line.replacen("\"workers\":8,\"ps\":2", "\"ps\":2,\"workers\":8", 1);
        assert!(RunRecord::decode(&reordered).is_err());
    }

    #[test]
    fn bench_and_report_payloads_round_trip() {
        let mut r = sample();
        r.payload = Payload::Bench(BenchEvidence {
            phases: vec![
                PhaseMean {
                    name: "build".into(),
                    mean_ms: 0.125,
                },
                PhaseMean {
                    name: "tic".into(),
                    mean_ms: 3.5,
                },
            ],
        });
        let line = r.encode();
        assert_eq!(RunRecord::decode(&line).unwrap().encode(), line);

        r.payload = Payload::Report(ReportEvidence {
            report_fp: u64::MAX - 1,
            quick: true,
        });
        let line = r.encode();
        let back = RunRecord::decode(&line).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.encode(), line);
    }
}

//! The schema-versioned [`RunRecord`] and its strict JSONL codec.
//!
//! Every record is one line of hand-rolled JSON (the workspace vendors no
//! JSON crate). The codec goes straight from fields to bytes and back:
//! [`RunRecord::encode`] appends each field to one pre-sized `String`, and
//! [`RunRecord::decode`] checks each expected key in schema order and
//! parses its value straight into the field, borrowing strings that hold
//! no escape; no `Json` tree is built. Both sides use the primitives of
//! `tictac_obs::json` (its `Lexer`, `escape_into`, `integer_into` and
//! `number_into`), so a line reads by the same whitespace, string and
//! number rules as `parse_json`.
//! The codec is deliberately rigid so the corpus stays machine-checkable:
//!
//! - **Canonical field order.** Encoding emits object keys in one fixed
//!   order; decoding rejects any object whose key *sequence* differs —
//!   which subsumes unknown-field and missing-field rejection.
//! - **Schema versioning.** The first field is always `"schema"`; a
//!   record from a different schema version fails to decode with a clear
//!   error instead of being silently reinterpreted.
//! - **Byte-exact round-trips.** `encode(decode(line)) == line` for every
//!   line `encode` can produce. Floats are written by `format!("{n}")`,
//!   the shortest form that reads back as `n`, and `u64` values
//!   that can exceed 2^53 (seeds, fingerprints) are carried as decimal
//!   strings. The remaining integer fields are JSON numbers of at most
//!   2^53: encoding asserts the bound, and decoding accepts only the
//!   canonical spelling `0|[1-9][0-9]*`, read exactly as a `u64` — the
//!   one spelling that re-encodes to its own bytes.
//!
//! Non-finite floats encode as `null` and decode back to `NaN` — the
//! round-trip stays byte-exact, and analytics treat them as missing.
//! Every rejection names the byte it stopped at (`json error at byte N`).

use tictac_obs::json::{escape_into, integer_into, number_into, Lexer};
use tictac_obs::registry::{HistogramStats, MetricValue, Snapshot, TimerStats};
use tictac_trace::FaultCounters;

/// The store's current schema tag; bump on any wire-format change.
///
/// v2 added `scenario_fp` — the [`Scenario::fingerprint`] of the
/// declarative scenario that drove the run (`"0"` for runs not driven by
/// a scenario file). v3 added `comm_fp` — the `CommConfig::fingerprint`
/// of the communication granularity the run deployed with (`"0"` for the
/// default per-parameter lowering, so pre-pass runs keep their identity).
///
/// [`Scenario::fingerprint`]: https://docs.rs/tictac-core
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
    /// Which producer emitted the record: `session` or `repro`.
    pub source: String,
    /// Workload label: the model name, or the experiment label.
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
    /// A rendered experiment report, reduced to a fingerprint: cheap
    /// drift detection for experiments that run no sessions themselves.
    Report(ReportEvidence),
}

impl Payload {
    /// The discriminant string stored in the record's `kind` field.
    pub fn kind(&self) -> &'static str {
        match self {
            Payload::Session(_) => "session",
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

/// The record writer: one `String`, each field appended in schema order.
/// `sep` is the byte before a key: `{` opens an object, `,` follows a
/// value.
struct Writer(String);

impl Writer {
    fn key(&mut self, sep: u8, name: &str) {
        self.0.push(sep as char);
        self.0.push('"');
        self.0.push_str(name);
        self.0.push_str("\":");
    }

    fn close(&mut self) {
        self.0.push('}');
    }

    fn str(&mut self, sep: u8, name: &str, s: &str) {
        self.key(sep, name);
        self.0.push('"');
        escape_into(&mut self.0, s);
        self.0.push('"');
    }

    fn int(&mut self, sep: u8, name: &str, v: u64) {
        self.key(sep, name);
        self.int_value(v, name);
    }

    /// A `u64` carried as a JSON number; asserts it is exactly representable.
    fn int_value(&mut self, v: u64, what: &str) {
        assert!(
            v <= MAX_SAFE_INT,
            "{what} = {v} exceeds 2^53 and would lose precision as a JSON number"
        );
        integer_into(&mut self.0, v);
    }

    /// A `u64` carried as a decimal string (full range, no f64 involvement).
    fn u64_str(&mut self, sep: u8, name: &str, v: u64) {
        self.key(sep, name);
        self.0.push('"');
        integer_into(&mut self.0, v);
        self.0.push('"');
    }

    fn float(&mut self, sep: u8, name: &str, v: f64) {
        self.key(sep, name);
        number_into(&mut self.0, v);
    }

    fn list<T>(&mut self, sep: u8, name: &str, items: &[T], mut item: impl FnMut(&mut Self, &T)) {
        self.key(sep, name);
        self.0.push('[');
        for (i, x) in items.iter().enumerate() {
            if i > 0 {
                self.0.push(',');
            }
            item(self, x);
        }
        self.0.push(']');
    }
}

fn write_iteration(w: &mut Writer, it: &IterationEvidence) {
    w.int(b'{', "makespan_ns", it.makespan_ns);
    w.float(b',', "throughput", it.throughput);
    w.float(b',', "straggler_pct", it.straggler_pct);
    w.float(b',', "efficiency", it.efficiency);
    w.float(b',', "speedup_potential", it.speedup_potential);
    w.float(b',', "goodput_pct", it.goodput_pct);
    w.int(b',', "inversions", it.inversions);
    w.close();
}

fn write_faults(w: &mut Writer, f: &FaultCounters) {
    w.int(b'{', "drops", f.drops);
    w.int(b',', "timeouts", f.timeouts);
    w.int(b',', "retransmits", f.retransmits);
    w.int(b',', "blackouts", f.blackouts);
    w.int(b',', "crashes", f.crashes);
    w.int(b',', "ps_stalls", f.ps_stalls);
    w.int(b',', "stragglers", f.stragglers);
    w.int(b',', "deferred_ops", f.deferred_ops);
    w.int(b',', "degraded_barriers", f.degraded_barriers);
    w.close();
}

fn write_metric(w: &mut Writer, name: &str, value: &MetricValue) {
    w.str(b'{', "name", name);
    match value {
        MetricValue::Counter(v) => {
            w.str(b',', "type", "counter");
            w.int(b',', "value", *v);
        }
        MetricValue::Gauge(v) => {
            w.str(b',', "type", "gauge");
            w.float(b',', "value", *v);
        }
        MetricValue::Histogram(h) => {
            w.str(b',', "type", "histogram");
            w.list(b',', "bounds", &h.bounds, |w, &b| w.int_value(b, "bound"));
            w.list(b',', "buckets", &h.buckets, |w, &b| {
                w.int_value(b, "bucket")
            });
            w.int(b',', "count", h.count);
            w.int(b',', "sum", h.sum);
            w.int(b',', "max", h.max);
        }
        MetricValue::Timer(t) => {
            w.str(b',', "type", "timer");
            w.int(b',', "count", t.count);
            w.int(b',', "total_ns", t.total_ns);
            w.int(b',', "max_ns", t.max_ns);
        }
    }
    w.close();
}

fn write_payload(w: &mut Writer, payload: &Payload) {
    match payload {
        Payload::Session(s) => {
            w.list(b'{', "iterations", &s.iterations, write_iteration);
            w.key(b',', "faults");
            write_faults(w, &s.faults);
            w.list(b',', "snapshot", &s.snapshot.entries, |w, (n, v)| {
                write_metric(w, n, v)
            });
        }
        Payload::Report(r) => {
            w.u64_str(b'{', "report_fp", r.report_fp);
            w.key(b',', "quick");
            w.0.push_str(if r.quick { "true" } else { "false" });
        }
    }
    w.close();
}

impl RunRecord {
    /// Renders the record as one compact JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        let mut w = Writer(String::with_capacity(self.encoded_len_hint()));
        w.str(b'{', "schema", SCHEMA);
        w.str(b',', "id", &self.id);
        w.int(b',', "time_ms", self.time_ms);
        w.str(b',', "source", &self.source);
        w.str(b',', "kind", self.payload.kind());
        w.str(b',', "workload", &self.workload);
        w.u64_str(b',', "model_fp", self.model_fp);
        w.int(b',', "workers", self.workers.into());
        w.int(b',', "ps", self.ps.into());
        w.str(b',', "scheduler", &self.scheduler);
        w.str(b',', "backend", &self.backend);
        w.u64_str(b',', "seed", self.seed);
        w.u64_str(b',', "fault_fp", self.fault_fp);
        w.u64_str(b',', "scenario_fp", self.scenario_fp);
        w.u64_str(b',', "comm_fp", self.comm_fp);
        w.str(b',', "provenance", &self.provenance);
        w.key(b',', "payload");
        write_payload(&mut w, &self.payload);
        w.close();
        w.0
    }

    /// Room for the encoding of a record with short metric names and
    /// histograms, so the writer's one `String` seldom regrows.
    fn encoded_len_hint(&self) -> usize {
        let text = [
            &self.id,
            &self.source,
            &self.workload,
            &self.scheduler,
            &self.backend,
            &self.provenance,
        ]
        .iter()
        .map(|s| s.len())
        .sum::<usize>();
        let payload = match &self.payload {
            Payload::Session(s) => 256 + 200 * s.iterations.len() + 160 * s.snapshot.entries.len(),
            Payload::Report(_) => 64,
        };
        400 + text + payload
    }

    /// Parses one store line, rejecting schema mismatches, unknown or
    /// missing fields, out-of-order keys, ill-typed values and integers
    /// not spelled canonically; every error names its byte offset.
    pub fn decode(line: &str) -> Result<RunRecord, String> {
        let r = &mut Reader(Lexer::new(line));
        r.key(b'{', "schema")?;
        let at = r.0.pos();
        let schema = r.0.string()?;
        if schema != SCHEMA {
            return r.0.err_at(
                at,
                &format!("unsupported schema `{schema}` (this build reads `{SCHEMA}`)"),
            );
        }
        let id = r.str(b',', "id")?;
        let time_ms = r.int(b',', "time_ms")?;
        let source = r.str(b',', "source")?;
        r.key(b',', "kind")?;
        let kind_at = r.0.pos();
        let kind = r.0.string()?;
        let record = RunRecord {
            id,
            time_ms,
            source,
            workload: r.str(b',', "workload")?,
            model_fp: r.u64_str(b',', "model_fp")?,
            workers: r.u32(b',', "workers")?,
            ps: r.u32(b',', "ps")?,
            scheduler: r.str(b',', "scheduler")?,
            backend: r.str(b',', "backend")?,
            seed: r.u64_str(b',', "seed")?,
            fault_fp: r.u64_str(b',', "fault_fp")?,
            scenario_fp: r.u64_str(b',', "scenario_fp")?,
            comm_fp: r.u64_str(b',', "comm_fp")?,
            provenance: r.str(b',', "provenance")?,
            payload: {
                r.key(b',', "payload")?;
                read_payload(r, &kind, kind_at)?
            },
        };
        r.close()?;
        r.0.end()?;
        Ok(record)
    }
}

// ---------------------------------------------------------------------------
// Strict decoding
// ---------------------------------------------------------------------------

/// The record reader: each expected key in schema order, each value
/// parsed straight into its field. A field reader is called before its
/// `sep` and key (see [`Writer`]) and leaves the cursor after its value;
/// whitespace between tokens is skipped wherever `parse_json` skips it.
struct Reader<'a>(Lexer<'a>);

impl<'a> Reader<'a> {
    /// Reads `sep` and the key `name`, leaving the cursor on the value:
    /// in one step when the line holds the bytes [`Writer::key`] writes,
    /// else token by token from the same byte, whitespace and escapes
    /// allowed and every error as before.
    fn key(&mut self, sep: u8, name: &str) -> Result<(), String> {
        let lx = &mut self.0;
        if lx.compact_key(sep, name) {
            lx.skip_ws();
            return Ok(());
        }
        lx.skip_ws();
        lx.expect(sep)?;
        lx.skip_ws();
        let at = lx.pos();
        let key = lx.string()?;
        if key != name {
            return lx.err_at(at, &format!("expected field `{name}`, found `{key}`"));
        }
        lx.skip_ws();
        lx.expect(b':')?;
        lx.skip_ws();
        Ok(())
    }

    fn close(&mut self) -> Result<(), String> {
        self.0.skip_ws();
        self.0.expect(b'}')
    }

    fn str(&mut self, sep: u8, name: &str) -> Result<String, String> {
        self.key(sep, name)?;
        Ok(self.0.string()?.into_owned())
    }

    fn int(&mut self, sep: u8, name: &str) -> Result<u64, String> {
        self.key(sep, name)?;
        self.int_value()
    }

    /// An integer carried as a JSON number: `0|[1-9][0-9]*` up to 2^53,
    /// read as a `u64` with no f64 step. `-0`, `02`, `2.0`, `2e0` and
    /// 2^53 + 1 are rejected: none would re-encode to its own bytes.
    fn int_value(&mut self) -> Result<u64, String> {
        let at = self.0.pos();
        let text = self.0.number_text();
        let canonical =
            text.bytes().all(|b| b.is_ascii_digit()) && (text == "0" || !text.starts_with('0'));
        match text.parse::<u64>() {
            Ok(v) if canonical && v <= MAX_SAFE_INT => Ok(v),
            _ => self.0.err_at(
                at,
                &format!("expected an unsigned integer 0|[1-9][0-9]* up to 2^53, found `{text}`"),
            ),
        }
    }

    fn u32(&mut self, sep: u8, name: &str) -> Result<u32, String> {
        self.key(sep, name)?;
        let at = self.0.pos();
        let v = self.int_value()?;
        u32::try_from(v).or_else(|_| self.0.err_at(at, &format!("{name}: {v} exceeds u32")))
    }

    /// A full-range `u64` carried as a decimal string.
    fn u64_str(&mut self, sep: u8, name: &str) -> Result<u64, String> {
        self.key(sep, name)?;
        let at = self.0.pos();
        let text = self.0.string()?;
        text.parse().or_else(|e| {
            self.0
                .err_at(at, &format!("{name}: `{text}` is not a u64 ({e})"))
        })
    }

    /// A float; `null` reads back as `NaN` (the writer's encoding of
    /// non-finite values), keeping round-trips byte-exact.
    fn float(&mut self, sep: u8, name: &str) -> Result<f64, String> {
        self.key(sep, name)?;
        match self.0.peek() {
            Some(b'n') => self.0.literal("null").map(|()| f64::NAN),
            Some(b'-' | b'0'..=b'9') => self.0.number(),
            _ => self.0.err(&format!("{name}: expected a number")),
        }
    }

    fn bool(&mut self, sep: u8, name: &str) -> Result<bool, String> {
        self.key(sep, name)?;
        match self.0.peek() {
            Some(b't') => self.0.literal("true").map(|()| true),
            Some(b'f') => self.0.literal("false").map(|()| false),
            _ => self.0.err(&format!("{name}: expected a bool")),
        }
    }

    fn list<T>(
        &mut self,
        sep: u8,
        name: &str,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.key(sep, name)?;
        let mut items = Vec::new();
        let mut more = self.0.open_list(b'[', b']')?;
        while more {
            items.push(item(self)?);
            more = self.0.next_item(b']')?;
        }
        Ok(items)
    }
}

fn read_iteration(r: &mut Reader<'_>) -> Result<IterationEvidence, String> {
    let it = IterationEvidence {
        makespan_ns: r.int(b'{', "makespan_ns")?,
        throughput: r.float(b',', "throughput")?,
        straggler_pct: r.float(b',', "straggler_pct")?,
        efficiency: r.float(b',', "efficiency")?,
        speedup_potential: r.float(b',', "speedup_potential")?,
        goodput_pct: r.float(b',', "goodput_pct")?,
        inversions: r.int(b',', "inversions")?,
    };
    r.close()?;
    Ok(it)
}

fn read_faults(r: &mut Reader<'_>) -> Result<FaultCounters, String> {
    let f = FaultCounters {
        drops: r.int(b'{', "drops")?,
        timeouts: r.int(b',', "timeouts")?,
        retransmits: r.int(b',', "retransmits")?,
        blackouts: r.int(b',', "blackouts")?,
        crashes: r.int(b',', "crashes")?,
        ps_stalls: r.int(b',', "ps_stalls")?,
        stragglers: r.int(b',', "stragglers")?,
        deferred_ops: r.int(b',', "deferred_ops")?,
        degraded_barriers: r.int(b',', "degraded_barriers")?,
    };
    r.close()?;
    Ok(f)
}

fn read_metric(r: &mut Reader<'_>) -> Result<(String, MetricValue), String> {
    let name = r.str(b'{', "name")?;
    r.key(b',', "type")?;
    let at = r.0.pos();
    let value = match &*r.0.string()? {
        "counter" => MetricValue::Counter(r.int(b',', "value")?),
        "gauge" => MetricValue::Gauge(r.float(b',', "value")?),
        "histogram" => MetricValue::Histogram(HistogramStats {
            bounds: r.list(b',', "bounds", Reader::int_value)?,
            buckets: r.list(b',', "buckets", Reader::int_value)?,
            count: r.int(b',', "count")?,
            sum: r.int(b',', "sum")?,
            max: r.int(b',', "max")?,
        }),
        "timer" => MetricValue::Timer(TimerStats {
            count: r.int(b',', "count")?,
            total_ns: r.int(b',', "total_ns")?,
            max_ns: r.int(b',', "max_ns")?,
        }),
        other => return r.0.err_at(at, &format!("metric: unknown type `{other}`")),
    };
    r.close()?;
    Ok((name, value))
}

fn read_payload(r: &mut Reader<'_>, kind: &str, kind_at: usize) -> Result<Payload, String> {
    let payload = match kind {
        "session" => Payload::Session(SessionEvidence {
            iterations: r.list(b'{', "iterations", read_iteration)?,
            faults: {
                r.key(b',', "faults")?;
                read_faults(r)?
            },
            snapshot: Snapshot {
                entries: r.list(b',', "snapshot", read_metric)?,
            },
        }),
        "report" => Payload::Report(ReportEvidence {
            report_fp: r.u64_str(b'{', "report_fp")?,
            quick: r.bool(b',', "quick")?,
        }),
        other => {
            return r
                .0
                .err_at(kind_at, &format!("unknown record kind `{other}`"))
        }
    };
    r.close()?;
    Ok(payload)
}

#[cfg(test)]
mod oracle {
    //! The tree decoder the codec replaced: `parse_json`, then a walk
    //! over the `Json` value. Kept as the fuzz's oracle: the codec must
    //! accept exactly the lines it accepts, integer spellings aside.

    use super::*;
    use tictac_obs::{parse_json, Json};

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
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use tictac_obs::parse_json;

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
    fn report_payloads_round_trip() {
        let mut r = sample();
        r.payload = Payload::Report(ReportEvidence {
            report_fp: u64::MAX - 1,
            quick: true,
        });
        let line = r.encode();
        let back = RunRecord::decode(&line).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.encode(), line);
    }

    #[test]
    fn a_bench_line_is_an_unknown_kind() {
        // The shape the retired wall-clock `bench` kind was written in.
        let mut r = sample();
        r.payload = Payload::Report(ReportEvidence {
            report_fp: 1,
            quick: false,
        });
        let line = r
            .encode()
            .replacen("\"kind\":\"report\"", "\"kind\":\"bench\"", 1);
        let payload_at = line.find("\"payload\":").unwrap();
        let line = format!(
            "{}\"payload\":{{\"phases\":[{{\"name\":\"tic\",\"mean_ms\":3.5}}]}}}}",
            &line[..payload_at]
        );
        let kind_at = line.find("\"bench\"").unwrap();
        assert_eq!(
            RunRecord::decode(&line).unwrap_err(),
            format!("json error at byte {kind_at}: unknown record kind `bench`")
        );
    }

    /// SplitMix64: the fuzz's own generator, so its cases are fixed and
    /// the crate needs no further dev-dependency.
    pub(crate) struct Rng(pub(crate) u64);

    impl Rng {
        pub(crate) fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        pub(crate) fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        pub(crate) fn pick<'t, T>(&mut self, items: &'t [T]) -> &'t T {
            &items[self.below(items.len())]
        }
    }

    /// A record over the codec's whole range: every payload and metric
    /// kind, escapes and multi-byte text, `null` (non-finite) and signed
    /// zero floats, integers up to 2^53, stringified `u64`s up to
    /// `u64::MAX`.
    fn random_record(rng: &mut Rng) -> RunRecord {
        const LABELS: [&str; 5] = [
            "alexnet_v2",
            "",
            "a\"q\\b\t\n\u{1}",
            "schön-€-😀",
            "ci/1234",
        ];
        const FLOATS: [f64; 7] = [0.0, -0.0, 0.975, 1e-9, 512.25, 1.5e300, f64::NAN];
        let label = |rng: &mut Rng| rng.pick(&LABELS).to_string();
        let int = |rng: &mut Rng| match rng.below(3) {
            0 => 0,
            1 => MAX_SAFE_INT,
            _ => rng.next() >> 11,
        };
        let float = |rng: &mut Rng| *rng.pick(&FLOATS);
        let fp = |rng: &mut Rng| {
            if rng.below(2) == 0 {
                u64::MAX
            } else {
                rng.next()
            }
        };
        let payload = match rng.below(2) {
            0 => Payload::Session(SessionEvidence {
                iterations: (0..rng.below(3))
                    .map(|_| IterationEvidence {
                        makespan_ns: int(rng),
                        throughput: float(rng),
                        straggler_pct: float(rng),
                        efficiency: float(rng),
                        speedup_potential: float(rng),
                        goodput_pct: float(rng),
                        inversions: int(rng),
                    })
                    .collect(),
                faults: FaultCounters {
                    drops: int(rng),
                    degraded_barriers: int(rng),
                    ..FaultCounters::default()
                },
                snapshot: Snapshot {
                    entries: vec![
                        (label(rng), MetricValue::Counter(int(rng))),
                        (label(rng), MetricValue::Gauge(float(rng))),
                        (
                            label(rng),
                            MetricValue::Histogram(HistogramStats {
                                bounds: vec![int(rng), int(rng)],
                                buckets: vec![int(rng), 0, int(rng)],
                                count: int(rng),
                                sum: int(rng),
                                max: int(rng),
                            }),
                        ),
                        (
                            label(rng),
                            MetricValue::Timer(TimerStats {
                                count: int(rng),
                                total_ns: int(rng),
                                max_ns: int(rng),
                            }),
                        ),
                    ],
                },
            }),
            _ => Payload::Report(ReportEvidence {
                report_fp: fp(rng),
                quick: rng.below(2) == 0,
            }),
        };
        RunRecord {
            id: label(rng),
            time_ms: int(rng),
            source: label(rng),
            workload: label(rng),
            model_fp: fp(rng),
            workers: rng.next() as u32,
            ps: rng.next() as u32,
            scheduler: label(rng),
            backend: label(rng),
            seed: fp(rng),
            fault_fp: fp(rng),
            scenario_fp: fp(rng),
            comm_fp: fp(rng),
            provenance: label(rng),
            payload,
        }
    }

    /// Mutants per seed document.
    const MUTANTS: usize = 250;

    /// What a flip or an insertion writes: JSON's structural, number and
    /// literal bytes, so most mutants get past their first token.
    const ALPHABET: &[u8] = b"{}[],:\"\\-+.0123456789eEtrufalsn \t\r\n";

    /// `doc` after one to three mutations: a bit flipped, a byte
    /// replaced, inserted or deleted, a truncation, whitespace next to a
    /// structural byte, or a key's `e` spelled `\u0065`. Broken UTF-8
    /// becomes U+FFFD.
    fn mutate(doc: &str, rng: &mut Rng) -> String {
        let mut bytes = doc.as_bytes().to_vec();
        for _ in 0..1 + rng.below(3) {
            let i = rng.below(bytes.len() + 1);
            match rng.below(7) {
                0 if i < bytes.len() => bytes[i] ^= 1 << rng.below(8),
                1 if i < bytes.len() => bytes[i] = *rng.pick(ALPHABET),
                2 => bytes.insert(i, *rng.pick(ALPHABET)),
                3 if i < bytes.len() => drop(bytes.remove(i)),
                4 => bytes.truncate(i),
                5 => {
                    if let Some(j) = bytes[i..].iter().position(|b| b"{}[],:".contains(b)) {
                        bytes.insert(i + j + rng.below(2), *rng.pick(b" \t\r\n"));
                    }
                }
                _ => {
                    // An `e` whose string's closing quote is followed by `:`.
                    let in_key = |k: usize| {
                        bytes[k] == b'e'
                            && bytes[k..]
                                .iter()
                                .position(|&b| b == b'"')
                                .is_some_and(|q| bytes.get(k + q + 1) == Some(&b':'))
                    };
                    let keyed: Vec<usize> = (0..bytes.len()).filter(|&k| in_key(k)).collect();
                    if !keyed.is_empty() {
                        let k = *rng.pick(&keyed);
                        bytes.splice(k..=k, *b"\\u0065");
                    }
                }
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    /// The byte an error names; panics on an error that names none.
    fn error_byte(err: &str) -> usize {
        err.strip_prefix("json error at byte ")
            .and_then(|rest| rest.split(':').next()?.parse().ok())
            .unwrap_or_else(|| panic!("unpositioned error: {err}"))
    }

    /// The committed corpus and the golden line.
    fn committed_lines() -> Vec<String> {
        [
            "results/runs.jsonl",
            "tests/snapshots/run_record.golden.jsonl",
        ]
        .iter()
        .flat_map(|file| {
            let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
            let text = std::fs::read_to_string(path).unwrap();
            text.lines().map(str::to_string).collect::<Vec<_>>()
        })
        .collect()
    }

    /// Bounded byte-mutation fuzz: the codec never panics, accepts a line
    /// exactly when the tree oracle does — apart from integer spellings
    /// the oracle let through its f64 (`02`, `-0`, `2.0`, 2^53 + 1) —
    /// decodes the oracle's record whenever both accept, and names a
    /// byte in every rejection.
    #[test]
    fn decoder_agrees_with_the_tree_oracle_on_mutated_lines() {
        let rng = &mut Rng(0x71C7_AC23);
        let mut seeds = committed_lines();
        seeds.push(sample().encode());
        seeds.extend((0..24).map(|_| random_record(rng).encode()));
        let (mut agreed, mut rejected, mut integer_rule) = (0, 0, 0);
        for seed in &seeds {
            for _ in 0..MUTANTS {
                let line = mutate(seed, rng);
                match (RunRecord::decode(&line), oracle::decode(&line)) {
                    (Ok(codec), Ok(tree)) => {
                        // Debug text, so NaN fields compare equal.
                        assert_eq!(format!("{codec:?}"), format!("{tree:?}"), "{line}");
                        agreed += 1;
                    }
                    (Err(e), Err(_)) => {
                        assert!(error_byte(&e) <= line.len(), "{e}");
                        rejected += 1;
                    }
                    (Err(e), Ok(_)) => {
                        let token = Lexer::new(&line[error_byte(&e)..]).number_text();
                        let canonical = token
                            .parse::<u64>()
                            .is_ok_and(|v| v <= MAX_SAFE_INT && v.to_string() == token);
                        assert!(
                            !canonical && e.contains("unsigned integer"),
                            "only the codec rejects ({e}): {line}"
                        );
                        integer_rule += 1;
                    }
                    (Ok(_), Err(e)) => panic!("only the oracle rejects ({e}): {line}"),
                }
            }
        }
        assert!(
            agreed > 0 && rejected > 0 && integer_rule > 0,
            "agreed {agreed}, rejected {rejected}, integer rule {integer_rule}"
        );
    }

    /// `line` spelled differently: whitespace around every structural
    /// byte when `spaced`, and every key's first character as a `\u`
    /// escape when `escaped`. Either way the key reader's one-step match
    /// fails, so the line is read token by token.
    fn respelled(line: &str, spaced: bool, escaped: bool, rng: &mut Rng) -> String {
        let bytes = line.as_bytes();
        let mut out = String::with_capacity(2 * line.len());
        let mut i = 0;
        while i < bytes.len() {
            match bytes[i] {
                b'"' => {
                    let mut end = i + 1;
                    while bytes[end] != b'"' {
                        end += 1 + usize::from(bytes[end] == b'\\');
                    }
                    if escaped && bytes.get(end + 1) == Some(&b':') {
                        out.push_str(&format!("\"\\u{:04x}", bytes[i + 1]));
                        out.push_str(&line[i + 2..=end]);
                    } else {
                        out.push_str(&line[i..=end]);
                    }
                    i = end + 1;
                }
                b @ (b'{' | b'}' | b'[' | b']' | b',' | b':') => {
                    let ws = |rng: &mut Rng| *rng.pick(&[" ", "\t", "\r\n", "  "]);
                    if spaced {
                        out.push_str(ws(rng));
                    }
                    out.push(b as char);
                    if spaced {
                        out.push_str(ws(rng));
                    }
                    i += 1;
                }
                _ => {
                    let end = i + bytes[i..]
                        .iter()
                        .position(|b| b"{}[],:\"".contains(b))
                        .unwrap_or(bytes.len() - i);
                    out.push_str(&line[i..end]);
                    i = end;
                }
            }
        }
        out
    }

    /// Lines the writer did not write — whitespace between tokens,
    /// escaped keys — skip the one-step key match and decode token by
    /// token to the record the writer's own bytes decode to, as the tree
    /// oracle reads them too.
    #[test]
    fn respelled_lines_decode_to_the_written_record() {
        let rng = &mut Rng(0x5BAC_E5ED);
        let mut lines = committed_lines();
        lines.push(sample().encode());
        lines.extend((0..64).map(|_| random_record(rng).encode()));
        for line in &lines {
            // Debug text, so NaN fields compare equal.
            let want = format!("{:?}", RunRecord::decode(line).unwrap());
            for (spaced, escaped) in [(true, false), (false, true), (true, true)] {
                let other = respelled(line, spaced, escaped, rng);
                assert_ne!(&other, line);
                let got = RunRecord::decode(&other).unwrap_or_else(|e| panic!("{e}: {other}"));
                assert_eq!(format!("{got:?}"), want, "{other}");
                let tree = oracle::decode(&other).unwrap();
                assert_eq!(format!("{tree:?}"), want, "{other}");
            }
        }
    }

    /// The same mutation loop over the two Perfetto snapshots, against
    /// `parse_json`, which reads by the same lexing primitives: every
    /// mutant parses, or fails at a named byte.
    #[test]
    fn parse_json_parses_or_positions_every_mutated_snapshot() {
        let rng = &mut Rng(0x9E2F_E770);
        for name in ["alexnet_tac_iter0", "tiny_mlp_faulty_iter1"] {
            let path = format!(
                "{}/../../tests/snapshots/{name}.perfetto.json",
                env!("CARGO_MANIFEST_DIR")
            );
            let doc = std::fs::read_to_string(path).unwrap();
            let mut rejected = 0;
            for _ in 0..MUTANTS {
                let mutant = mutate(&doc, rng);
                if let Err(e) = parse_json(&mutant) {
                    assert!(error_byte(&e) <= mutant.len(), "{e}");
                    rejected += 1;
                }
            }
            assert!(0 < rejected && rejected < MUTANTS, "{name}: {rejected}");
        }
    }
}

//! Chrome/Perfetto `trace_event` export of an [`ExecutionTrace`].
//!
//! The exporter renders one *process* per device and one *thread* (lane)
//! per resource: a device's compute unit is its thread 0, and each
//! channel is a thread of its worker's process. Emitted events:
//!
//! - `"M"` metadata naming every process and lane,
//! - `"X"` complete slices for compute ops and transfers (send ops are
//!   skipped — their interval duplicates the paired recv),
//! - `"i"` instants for fault events, named after the
//!   [`FaultEventKind`] variant and placed on the lane of the affected
//!   resource,
//! - `"s"`/`"f"` flow arrows from the degraded barrier's lane to each
//!   deferred op's lane, making "which ops did the barrier abandon"
//!   visible as arrows in the UI.
//!
//! Timestamps are microseconds with fixed three-decimal precision, so
//! identical traces always serialize byte-identically (the golden
//! snapshot tests pin this). Open the output at <https://ui.perfetto.dev>
//! or `chrome://tracing`.
//!
//! The writer appends every field straight into one buffer sized to the
//! document, with no per-event temporaries. A timestamp below
//! [`US_EXACT_BELOW`] nanoseconds is written in integer arithmetic —
//! `ns / 1000`, a point, `ns % 1000` in three digits — which is the text
//! `format!("{:.3}", ns as f64 / 1000.0)` produces, byte for byte (see
//! [`US_EXACT_BELOW`]); later instants keep that float path.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use tictac_graph::{Graph, OpId, Resource};
use tictac_trace::{ExecutionTrace, FaultEventKind};

use crate::json::{escape_into, integer_into, parse_json, Json};

/// The synthetic pid hosting barrier/iteration-scope events: one past the
/// last device pid.
fn barrier_pid(graph: &Graph) -> usize {
    graph.devices().len()
}

/// `(pid, tid)` of the lane a resource renders on.
fn lane(graph: &Graph, resource: Resource) -> (usize, usize) {
    match resource {
        Resource::Compute(d) => (d.index(), 0),
        Resource::Channel(c) => {
            let ch = graph.channel(c);
            (ch.worker().index(), 1 + c.index())
        }
    }
}

/// Below this many nanoseconds (`1000·2^43`, about 101 simulated days)
/// the integer timestamp writer is exact. There `x = ns / 1000 < 2^43`,
/// so the double nearest `x` is within half an ulp, at most
/// `2^(42-52-1) = 2^-11 < 0.0005`, of it: rounding that double to three
/// decimals gives back `x`, which has three decimals exactly.
const US_EXACT_BELOW: u64 = 1000 << 43;

/// Bytes an event takes besides its name, for sizing the buffer: the
/// fixed text of a transfer slice (about 90 bytes) plus typical widths of
/// its numbers.
const EVENT_BYTES: usize = 120;

/// The document under construction: one buffer, events separated by
/// `,\n`.
struct Doc {
    out: String,
    first: bool,
}

impl Doc {
    /// Opens the next event with `head`, after the previous one's
    /// separator.
    fn event(&mut self, head: &str) -> &mut Self {
        if !self.first {
            self.out.push_str(",\n");
        }
        self.first = false;
        self.raw(head)
    }

    fn raw(&mut self, text: &str) -> &mut Self {
        self.out.push_str(text);
        self
    }

    /// `n` in decimal, through the digit writer rather than `write!`,
    /// which makes a whole export about ×1.35 slower.
    fn num(&mut self, n: impl Into<u64>) -> &mut Self {
        integer_into(&mut self.out, n.into());
        self
    }

    /// An index in decimal.
    fn index(&mut self, i: usize) -> &mut Self {
        self.num(i as u64)
    }

    /// `ns` as microseconds with three decimals.
    fn us(&mut self, ns: u64) -> &mut Self {
        if ns >= US_EXACT_BELOW {
            let _ = write!(self.out, "{:.3}", ns as f64 / 1000.0);
            return self;
        }
        let frac = ns % 1000;
        let frac = [frac / 100, frac / 10 % 10, frac % 10].map(|d| b'0' + d as u8);
        self.num(ns / 1000)
            .raw(".")
            .raw(std::str::from_utf8(&frac).expect("ASCII digits"))
    }

    /// `text` as a JSON string literal.
    fn quoted(&mut self, text: &str) -> &mut Self {
        self.out.push('"');
        escape_into(&mut self.out, text);
        self.raw("\"")
    }

    /// `"pid":…,"tid":…` of a lane.
    fn lane(&mut self, (pid, tid): (usize, usize)) -> &mut Self {
        self.raw("\"pid\":").index(pid).raw(",\"tid\":").index(tid)
    }
}

/// Renders `trace` as Chrome `trace_event` JSON (the object format).
///
/// `label` names the trace in the `otherData` block — typically
/// `"model=alexnet_v2 schedule=tac iteration=0"`.
pub fn perfetto_json(graph: &Graph, trace: &ExecutionTrace, label: &str) -> String {
    let names: usize = graph
        .ops()
        .filter(|(id, op)| !op.kind().is_send() && trace.record(*id).is_some())
        .map(|(id, _)| EVENT_BYTES + graph.op_name(id).len())
        .sum();
    let lanes = graph.devices().len() * 2 + graph.channels().len() + 1;
    let faults = trace.fault_events().len() * 2;
    let mut doc = Doc {
        out: String::with_capacity(names + (lanes + faults) * EVENT_BYTES + label.len()),
        first: true,
    };
    doc.raw("{\n\"traceEvents\": [\n");

    // Metadata: process and lane names. Devices first, then the barrier
    // process, then channel lanes in channel order.
    for (pid, dev) in graph.devices().iter().enumerate() {
        doc.event("{\"ph\":\"M\",")
            .lane((pid, 0))
            .raw(",\"name\":\"process_name\",\"args\":{\"name\":")
            .quoted(dev.name())
            .raw("}}");
        doc.event("{\"ph\":\"M\",")
            .lane((pid, 0))
            .raw(",\"name\":\"thread_name\",\"args\":{\"name\":\"compute\"}}");
    }
    let bpid = barrier_pid(graph);
    doc.event("{\"ph\":\"M\",")
        .lane((bpid, 0))
        .raw(",\"name\":\"process_name\",\"args\":{\"name\":\"barrier\"}}");
    for ch in graph.channels() {
        doc.event("{\"ph\":\"M\",")
            .lane(lane(graph, Resource::Channel(ch.id())))
            .raw(",\"name\":\"thread_name\",\"args\":{\"name\":\"ch")
            .index(ch.id().index())
            .raw(" -> ");
        escape_into(&mut doc.out, graph.device(ch.ps()).name());
        doc.raw("\"}}");
    }

    // Complete slices, one per executed op (sends skipped).
    for (id, op) in graph.ops() {
        let Some(rec) = trace.record(id) else {
            continue;
        };
        if op.kind().is_send() {
            continue;
        }
        let resource = graph.resource(id);
        let cat = if resource.is_channel() {
            "\",\"cat\":\"transfer\",\"ts\":"
        } else {
            "\",\"cat\":\"compute\",\"ts\":"
        };
        doc.event("{\"ph\":\"X\",\"name\":\"");
        escape_into(&mut doc.out, graph.op_name(id));
        doc.raw(cat)
            .us(rec.start.as_nanos())
            .raw(",\"dur\":")
            .us(rec.duration().as_nanos())
            .raw(",")
            .lane(lane(graph, resource))
            .raw(",\"args\":{\"op\":")
            .index(id.index());
        if resource.is_channel() {
            doc.raw(",\"bytes\":").num(op.cost().bytes);
        }
        doc.raw("}}");
    }

    // Fault events as thread-scoped instants on the affected lane, plus a
    // flow arrow from the barrier lane to each deferred op's lane.
    let mut flow_id = 0u64;
    for event in trace.fault_events() {
        let at = event.at.as_nanos();
        let instant = fault_instant(graph, event.kind);
        doc.event("{\"ph\":\"i\",\"s\":\"t\",\"name\":\"")
            .raw(instant.name)
            .raw("\",\"cat\":\"fault\",\"ts\":")
            .us(at)
            .raw(",")
            .lane(instant.lane)
            .raw(",\"args\":{\"")
            .raw(instant.key)
            .raw("\":")
            .num(instant.value);
        if let Some(attempt) = instant.attempt {
            doc.raw(",\"attempt\":").num(attempt);
        }
        doc.raw("}}");
        if let FaultEventKind::DeferredOp { op } = event.kind {
            flow_id += 1;
            doc.event("{\"ph\":\"s\",\"name\":\"deferred\",\"cat\":\"flow\",\"id\":")
                .num(flow_id)
                .raw(",\"ts\":")
                .us(at)
                .raw(",")
                .lane((bpid, 0))
                .raw("}");
            doc.event("{\"ph\":\"f\",\"bp\":\"e\",\"name\":\"deferred\",\"cat\":\"flow\",\"id\":")
                .num(flow_id)
                .raw(",\"ts\":")
                .us(at)
                .raw(",")
                .lane(lane(graph, graph.resource(op)))
                .raw("}");
        }
    }

    doc.raw("\n],\n\"displayTimeUnit\": \"ns\",\n\"otherData\": {\"label\": ")
        .quoted(label)
        .raw(", \"makespan_ns\": ")
        .num(trace.makespan().as_nanos())
        .raw("}\n}\n");
    doc.out
}

/// A fault event's instant: its name (the `FaultEventKind` variant), its
/// lane, and its args — one `key: value` pair, plus the attempt of a
/// transfer-attempt event.
struct FaultInstant {
    name: &'static str,
    lane: (usize, usize),
    key: &'static str,
    value: u64,
    attempt: Option<u32>,
}

fn fault_instant(graph: &Graph, kind: FaultEventKind) -> FaultInstant {
    let on_op = |name, op: OpId, attempt| FaultInstant {
        name,
        lane: lane(graph, graph.resource(op)),
        key: "op",
        value: op.index() as u64,
        attempt,
    };
    let on_device = |name, device: tictac_graph::DeviceId| FaultInstant {
        name,
        lane: (device.index(), 0),
        key: "device",
        value: device.index() as u64,
        attempt: None,
    };
    let on_channel = |name, channel: tictac_graph::ChannelId| FaultInstant {
        name,
        lane: lane(graph, Resource::Channel(channel)),
        key: "channel",
        value: channel.index() as u64,
        attempt: None,
    };
    match kind {
        FaultEventKind::TransferDropped { op, attempt } => {
            on_op("TransferDropped", op, Some(attempt))
        }
        FaultEventKind::TransferTimeout { op, attempt } => {
            on_op("TransferTimeout", op, Some(attempt))
        }
        FaultEventKind::Retransmit { op, attempt } => on_op("Retransmit", op, Some(attempt)),
        FaultEventKind::BlackoutStart { channel } => on_channel("BlackoutStart", channel),
        FaultEventKind::BlackoutEnd { channel } => on_channel("BlackoutEnd", channel),
        FaultEventKind::WorkerCrashed { device } => on_device("WorkerCrashed", device),
        FaultEventKind::WorkerRecovered { device } => on_device("WorkerRecovered", device),
        FaultEventKind::PsStallStart { device } => on_device("PsStallStart", device),
        FaultEventKind::PsStallEnd { device } => on_device("PsStallEnd", device),
        FaultEventKind::StragglerApplied { device } => on_device("StragglerApplied", device),
        FaultEventKind::DeferredOp { op } => on_op("DeferredOp", op, None),
        FaultEventKind::BarrierDegraded { remaining } => FaultInstant {
            name: "BarrierDegraded",
            lane: (barrier_pid(graph), 0),
            key: "remaining",
            value: remaining.into(),
            attempt: None,
        },
    }
}

/// Summary statistics of a parsed `trace_event` document, from
/// [`validate_perfetto`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PerfettoStats {
    /// Total events of any phase.
    pub events: usize,
    /// `"X"` complete slices.
    pub slices: usize,
    /// `"i"` instants.
    pub instants: usize,
    /// `"s"` flow starts.
    pub flow_starts: usize,
    /// `"f"` flow ends.
    pub flow_ends: usize,
    /// Every process name declared in `"M"` metadata (name-sorted),
    /// whether or not any slice landed in its lanes.
    pub processes: Vec<String>,
    /// Slice count per process name (name-sorted).
    pub slices_per_process: Vec<(String, usize)>,
    /// Names of `cat:"fault"` instants, in document order.
    pub fault_names: Vec<String>,
}

/// Parses `src` as `trace_event` JSON and checks its structural
/// invariants: a `traceEvents` array whose slices carry name/ts/dur and a
/// known lane, instants carry name/ts, and every flow start has a
/// matching end. Returns summary stats on success.
pub fn validate_perfetto(src: &str) -> Result<PerfettoStats, String> {
    let doc = parse_json(src)?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .ok_or("missing array field \"traceEvents\"")?;

    let mut stats = PerfettoStats {
        events: events.len(),
        ..PerfettoStats::default()
    };
    let mut process_names: BTreeMap<u64, String> = BTreeMap::new();
    let mut slices_by_pid: BTreeMap<u64, usize> = BTreeMap::new();

    let field_u64 = |e: &Json, key: &str| -> Result<u64, String> {
        e.get(key)
            .and_then(Json::as_f64)
            .filter(|v| *v >= 0.0)
            .map(|v| v as u64)
            .ok_or_else(|| format!("event missing non-negative numeric {key:?}"))
    };

    for event in events {
        let ph = event
            .get("ph")
            .and_then(Json::as_str)
            .ok_or("event missing string field \"ph\"")?;
        match ph {
            "M" => {
                if event.get("name").and_then(Json::as_str) == Some("process_name") {
                    let pid = field_u64(event, "pid")?;
                    let name = event
                        .get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(Json::as_str)
                        .ok_or("process_name metadata missing args.name")?;
                    process_names.insert(pid, name.to_string());
                }
            }
            "X" => {
                stats.slices += 1;
                event
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("slice missing string field \"name\"")?;
                let ts = event
                    .get("ts")
                    .and_then(Json::as_f64)
                    .ok_or("slice missing numeric \"ts\"")?;
                let dur = event
                    .get("dur")
                    .and_then(Json::as_f64)
                    .ok_or("slice missing numeric \"dur\"")?;
                if ts < 0.0 || dur < 0.0 {
                    return Err("slice with negative ts or dur".into());
                }
                let pid = field_u64(event, "pid")?;
                field_u64(event, "tid")?;
                *slices_by_pid.entry(pid).or_insert(0) += 1;
            }
            "i" => {
                stats.instants += 1;
                let name = event
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("instant missing string field \"name\"")?;
                event
                    .get("ts")
                    .and_then(Json::as_f64)
                    .ok_or("instant missing numeric \"ts\"")?;
                if event.get("cat").and_then(Json::as_str) == Some("fault") {
                    stats.fault_names.push(name.to_string());
                }
            }
            "s" => stats.flow_starts += 1,
            "f" => stats.flow_ends += 1,
            other => return Err(format!("unsupported event phase {other:?}")),
        }
    }

    if stats.flow_starts != stats.flow_ends {
        return Err(format!(
            "unbalanced flows: {} starts vs {} ends",
            stats.flow_starts, stats.flow_ends
        ));
    }

    stats.processes = process_names.values().cloned().collect();
    stats.processes.sort();

    for (pid, count) in slices_by_pid {
        let name = process_names
            .get(&pid)
            .cloned()
            .unwrap_or_else(|| format!("pid{pid}"));
        // Channel lanes live under their worker's pid, so two entries can
        // share a process name only if pids collide — they cannot.
        stats.slices_per_process.push((name, count));
    }
    stats.slices_per_process.sort();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tictac_graph::{Cost, GraphBuilder, OpKind};
    use tictac_trace::{SimTime, TraceBuilder};

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    /// What the writer puts down for `ns`, and the float formatting it
    /// replaces.
    fn us_both(ns: u64) -> (String, String) {
        let mut doc = Doc {
            out: String::new(),
            first: true,
        };
        doc.us(ns);
        (doc.out, format!("{:.3}", ns as f64 / 1000.0))
    }

    #[test]
    fn integer_timestamps_equal_the_float_formatting() {
        let mut cases = vec![0, 999, 1000, 1001, (1 << 53) - 1];
        for k in 1..=15 {
            let p = 10u64.pow(k);
            cases.extend([p - 1, p, p + 1]);
        }
        cases.extend([US_EXACT_BELOW - 1, US_EXACT_BELOW, US_EXACT_BELOW + 1]);
        for ns in cases {
            let (written, float) = us_both(ns);
            assert_eq!(written, float, "ns = {ns}");
        }
        assert_eq!(us_both(1_234_567).0, "1234.567");
        assert_eq!(us_both(5).0, "0.005");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn integer_timestamps_equal_the_float_formatting_below_2_53(ns in 0u64..1 << 53) {
            let (written, float) = us_both(ns);
            prop_assert_eq!(written, float);
        }

        /// Names drawn from quotes, backslashes, control and multi-byte
        /// characters escape as the char-by-char escape did.
        #[test]
        fn escapes_equal_the_char_by_char_escape(seed in any::<u64>(), len in 0usize..40) {
            const ALPHABET: [char; 12] =
                ['a', 'Z', ' ', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}', 'é', '→'];
            let mut x = seed;
            let text: String = (0..len)
                .map(|_| {
                    x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
                    ALPHABET[(x >> 33) as usize % ALPHABET.len()]
                })
                .collect();
            let mut want = String::from("\"");
            for c in text.chars() {
                match c {
                    '"' => want.push_str("\\\""),
                    '\\' => want.push_str("\\\\"),
                    '\n' => want.push_str("\\n"),
                    '\r' => want.push_str("\\r"),
                    '\t' => want.push_str("\\t"),
                    c if (c as u32) < 0x20 => want.push_str(&format!("\\u{:04x}", c as u32)),
                    c => want.push(c),
                }
            }
            want.push('"');
            prop_assert_eq!(crate::json::quote(&text), want);
        }
    }

    fn sample() -> (Graph, Vec<OpId>) {
        let mut b = GraphBuilder::new();
        let w = b.add_worker("w0");
        let ps = b.add_parameter_server("ps0");
        let ch = b.add_channel(w, ps);
        let p = b.add_param("p", 64);
        let r = b.add_op("recv/p", w, OpKind::recv(p, ch), Cost::bytes(64), &[]);
        let c = b.add_op("fwd", w, OpKind::Compute, Cost::flops(1.0), &[r]);
        (b.build().unwrap(), vec![r, c])
    }

    #[test]
    fn export_validates_and_counts_lanes() {
        let (g, ops) = sample();
        let mut tb = TraceBuilder::new(g.len());
        tb.record(ops[0], t(0), t(2_500));
        tb.record(ops[1], t(2_500), t(4_000));
        let json = perfetto_json(&g, &tb.finish(), "unit test");
        let stats = validate_perfetto(&json).expect("valid trace_event JSON");
        assert_eq!(stats.slices, 2);
        assert_eq!(stats.instants, 0);
        // Both the compute slice and the channel slice land under w0's pid.
        assert_eq!(stats.slices_per_process, vec![("w0".to_string(), 2)]);
        // Every lane is declared, even the idle PS and barrier processes.
        assert_eq!(stats.processes, vec!["barrier", "ps0", "w0"]);
        assert!(json.contains("\"ts\":2.500"));
        assert!(json.contains("\"bytes\":64"));
    }

    #[test]
    fn fault_instants_and_flows_round_trip() {
        let (g, ops) = sample();
        let mut tb = TraceBuilder::new(g.len());
        tb.record(ops[1], t(0), t(1_000));
        tb.push_fault(
            t(100),
            FaultEventKind::TransferDropped {
                op: ops[0],
                attempt: 0,
            },
        );
        tb.push_fault(t(900), FaultEventKind::DeferredOp { op: ops[0] });
        tb.push_fault(t(900), FaultEventKind::BarrierDegraded { remaining: 1 });
        let json = perfetto_json(&g, &tb.finish(), "faults");
        let stats = validate_perfetto(&json).expect("valid");
        assert_eq!(stats.instants, 3);
        assert_eq!(stats.flow_starts, 1);
        assert_eq!(stats.flow_ends, 1);
        assert_eq!(
            stats.fault_names,
            vec!["TransferDropped", "DeferredOp", "BarrierDegraded"]
        );
    }

    #[test]
    fn validator_rejects_garbage() {
        assert!(validate_perfetto("{}").is_err());
        assert!(validate_perfetto("{\"traceEvents\": [{\"ph\": \"X\"}]}").is_err());
        assert!(
            validate_perfetto("{\"traceEvents\": [{\"ph\": \"s\", \"id\": 1}]}").is_err(),
            "unbalanced flow accepted"
        );
    }

    #[test]
    fn export_is_deterministic() {
        let (g, ops) = sample();
        let mk = || {
            let mut tb = TraceBuilder::new(g.len());
            tb.record(ops[0], t(10), t(20));
            tb.record(ops[1], t(20), t(30));
            perfetto_json(&g, &tb.finish(), "det")
        };
        assert_eq!(mk(), mk());
    }
}

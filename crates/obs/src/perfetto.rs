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
//! `US_EXACT_BELOW` nanoseconds is written in integer arithmetic —
//! `ns / 1000`, a point, `ns % 1000` in three digits — which is the text
//! `format!("{:.3}", ns as f64 / 1000.0)` produces, byte for byte (see
//! `US_EXACT_BELOW`); later instants keep that float path.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

use tictac_graph::{Graph, OpId, Resource};
use tictac_trace::{ExecutionTrace, FaultEventKind};

use crate::json::{escape_into, integer_into, skip_value, Lexer};

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

/// Bytes allowed a slice's name when sizing the buffer, which is sized
/// without rendering a name: a guess above the names of the zoo's
/// deployments (21 – 48 bytes on average, 58 at most, on the eight
/// shapes the benchmark exports), so that such an export is written
/// without growing its buffer.
const NAME_BYTES: usize = 64;

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

    /// The name of op `id` as the body of a JSON string literal: rendered
    /// straight into the document, then escaped in place if it needs it.
    fn op_name(&mut self, graph: &Graph, id: OpId) -> &mut Self {
        let start = self.out.len();
        graph.op(id).op_name().render_into(graph, &mut self.out);
        let needs_escape = |b: &u8| matches!(b, b'"' | b'\\' | 0..=0x1f);
        if self.out.as_bytes()[start..].iter().any(needs_escape) {
            let name = self.out.split_off(start);
            escape_into(&mut self.out, &name);
        }
        self
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
    let slices = graph
        .ops()
        .filter(|(id, op)| !op.kind().is_send() && trace.record(*id).is_some())
        .count();
    let lanes = graph.devices().len() * 2 + graph.channels().len() + 1;
    let faults = trace.fault_events().len() * 2;
    let mut doc = Doc {
        out: String::with_capacity(
            slices * (EVENT_BYTES + NAME_BYTES) + (lanes + faults) * EVENT_BYTES + label.len(),
        ),
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
        doc.event("{\"ph\":\"X\",\"name\":\"")
            .op_name(graph, id)
            .raw(cat)
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
/// known lane — a pid that some `process_name` metadata, anywhere in the
/// document, declares — instants carry name/ts, and every flow start has
/// a matching end. Returns summary stats on success.
///
/// The document is read once, with [`Lexer`], into nothing but the
/// stats: no [`Json`](crate::Json) tree is built, and keys and names
/// stay borrowed unless they hold an escape. It accepts and refuses
/// exactly what [`parse_json`](crate::parse_json) and a walk of its tree
/// would, with the same error: a syntax error anywhere before any other,
/// the first occurrence of a repeated key, the parser's depth limit.
pub fn validate_perfetto(src: &str) -> Result<PerfettoStats, String> {
    let mut walk = Walk {
        lx: Lexer::new(src),
        events: None,
        refused: None,
        stats: PerfettoStats::default(),
        process_names: BTreeMap::new(),
        slices_by_pid: BTreeMap::new(),
    };
    walk.document()?;
    walk.finish()
}

/// The state of one validation: the cursor and what the events read so
/// far add up to.
struct Walk<'a> {
    lx: Lexer<'a>,
    /// Whether the document's first `traceEvents` field was an array;
    /// `None` before that field.
    events: Option<bool>,
    /// Why the first refused event was refused. The walk reads on to the
    /// end, so that a syntax error anywhere still wins.
    refused: Option<String>,
    stats: PerfettoStats,
    process_names: BTreeMap<u64, Cow<'a, str>>,
    slices_by_pid: BTreeMap<u64, usize>,
}

/// The first value of a field the checks read, as far as they look at
/// it.
#[derive(Debug, Default)]
enum Field<'a> {
    #[default]
    Absent,
    Str(Cow<'a, str>),
    Num(f64),
    Other,
}

impl Field<'_> {
    fn is_str(&self, text: &str) -> bool {
        matches!(self, Field::Str(s) if s == text)
    }

    /// The field as a pid or tid: a non-negative number, truncated.
    fn id(&self, key: &str) -> Result<u64, String> {
        match *self {
            Field::Num(v) if v >= 0.0 => Ok(v as u64),
            _ => Err(format!("event missing non-negative numeric {key:?}")),
        }
    }
}

/// The fields of one event the checks read.
#[derive(Debug, Default)]
struct Event<'a> {
    ph: Field<'a>,
    name: Field<'a>,
    cat: Field<'a>,
    ts: Field<'a>,
    dur: Field<'a>,
    pid: Field<'a>,
    tid: Field<'a>,
    /// `args.name`: absent unless the first `args` is an object.
    args_name: Field<'a>,
    args: bool,
}

impl<'a> Walk<'a> {
    /// The whole document, as [`parse_json`](crate::parse_json) reads it.
    /// The walk opens containers one to three levels down only, far
    /// short of the parser's depth limit, which [`skip_value`] applies to
    /// everything below.
    fn document(&mut self) -> Result<(), String> {
        self.lx.skip_ws();
        if self.lx.peek() != Some(b'{') {
            skip_value(&mut self.lx, 0)?;
            return self.lx.end();
        }
        let mut more = self.lx.open_list(b'{', b'}')?;
        while more {
            let key = self.lx.string()?;
            self.lx.skip_ws();
            self.lx.expect(b':')?;
            self.lx.skip_ws();
            if key == "traceEvents" && self.events.is_none() {
                let array = self.lx.peek() == Some(b'[');
                self.events = Some(array);
                if array {
                    self.event_list()?;
                } else {
                    skip_value(&mut self.lx, 1)?;
                }
            } else {
                skip_value(&mut self.lx, 1)?;
            }
            more = self.lx.next_item(b'}')?;
        }
        self.lx.end()
    }

    /// The `traceEvents` array, one level down.
    fn event_list(&mut self) -> Result<(), String> {
        let mut more = self.lx.open_list(b'[', b']')?;
        while more {
            self.stats.events += 1;
            let event = self.event()?;
            if self.refused.is_none() {
                self.refused = self.check(event).err();
            }
            more = self.lx.next_item(b']')?;
        }
        Ok(())
    }

    /// One event, two levels down: the fields the checks read, none of
    /// them if it is not an object.
    fn event(&mut self) -> Result<Event<'a>, String> {
        let mut event = Event::default();
        self.lx.skip_ws();
        if self.lx.peek() != Some(b'{') {
            skip_value(&mut self.lx, 2)?;
            return Ok(event);
        }
        let mut more = self.lx.open_list(b'{', b'}')?;
        while more {
            let key = self.lx.string()?;
            self.lx.skip_ws();
            self.lx.expect(b':')?;
            let slot = match &*key {
                "ph" => &mut event.ph,
                "name" => &mut event.name,
                "cat" => &mut event.cat,
                "ts" => &mut event.ts,
                "dur" => &mut event.dur,
                "pid" => &mut event.pid,
                "tid" => &mut event.tid,
                "args" if !event.args => {
                    event.args = true;
                    event.args_name = self.args()?;
                    more = self.lx.next_item(b'}')?;
                    continue;
                }
                _ => {
                    skip_value(&mut self.lx, 3)?;
                    more = self.lx.next_item(b'}')?;
                    continue;
                }
            };
            if matches!(slot, Field::Absent) {
                *slot = self.field(3)?;
            } else {
                skip_value(&mut self.lx, 3)?;
            }
            more = self.lx.next_item(b'}')?;
        }
        Ok(event)
    }

    /// An event's first `args`, three levels down: its first `name` if it
    /// is an object.
    fn args(&mut self) -> Result<Field<'a>, String> {
        self.lx.skip_ws();
        if self.lx.peek() != Some(b'{') {
            skip_value(&mut self.lx, 3)?;
            return Ok(Field::Absent);
        }
        let mut name = Field::Absent;
        let mut more = self.lx.open_list(b'{', b'}')?;
        while more {
            let key = self.lx.string()?;
            self.lx.skip_ws();
            self.lx.expect(b':')?;
            if key == "name" && matches!(name, Field::Absent) {
                name = self.field(4)?;
            } else {
                skip_value(&mut self.lx, 4)?;
            }
            more = self.lx.next_item(b'}')?;
        }
        Ok(name)
    }

    /// A field's value, `depth` levels down.
    fn field(&mut self, depth: usize) -> Result<Field<'a>, String> {
        self.lx.skip_ws();
        Ok(match self.lx.peek() {
            Some(b'"') => Field::Str(self.lx.string()?),
            Some(b'-' | b'0'..=b'9') => Field::Num(self.lx.number()?),
            _ => {
                skip_value(&mut self.lx, depth)?;
                Field::Other
            }
        })
    }

    /// The per-phase checks of one event, in the order the tree walk
    /// made them.
    fn check(&mut self, e: Event<'a>) -> Result<(), String> {
        let Field::Str(ph) = e.ph else {
            return Err("event missing string field \"ph\"".into());
        };
        match &*ph {
            "M" => {
                if e.name.is_str("process_name") {
                    let pid = e.pid.id("pid")?;
                    let Field::Str(name) = e.args_name else {
                        return Err("process_name metadata missing args.name".into());
                    };
                    self.process_names.insert(pid, name);
                }
            }
            "X" => {
                self.stats.slices += 1;
                if !matches!(e.name, Field::Str(_)) {
                    return Err("slice missing string field \"name\"".into());
                }
                let Field::Num(ts) = e.ts else {
                    return Err("slice missing numeric \"ts\"".into());
                };
                let Field::Num(dur) = e.dur else {
                    return Err("slice missing numeric \"dur\"".into());
                };
                if ts < 0.0 || dur < 0.0 {
                    return Err("slice with negative ts or dur".into());
                }
                let pid = e.pid.id("pid")?;
                e.tid.id("tid")?;
                *self.slices_by_pid.entry(pid).or_insert(0) += 1;
            }
            "i" => {
                self.stats.instants += 1;
                let Field::Str(name) = e.name else {
                    return Err("instant missing string field \"name\"".into());
                };
                if !matches!(e.ts, Field::Num(_)) {
                    return Err("instant missing numeric \"ts\"".into());
                }
                if e.cat.is_str("fault") {
                    self.stats.fault_names.push(name.into_owned());
                }
            }
            "s" => self.stats.flow_starts += 1,
            "f" => self.stats.flow_ends += 1,
            other => return Err(format!("unsupported event phase {other:?}")),
        }
        Ok(())
    }

    /// The checks over the whole document, once it has been read.
    fn finish(self) -> Result<PerfettoStats, String> {
        if self.events != Some(true) {
            return Err("missing array field \"traceEvents\"".into());
        }
        if let Some(refused) = self.refused {
            return Err(refused);
        }
        let mut stats = self.stats;
        if stats.flow_starts != stats.flow_ends {
            return Err(format!(
                "unbalanced flows: {} starts vs {} ends",
                stats.flow_starts, stats.flow_ends
            ));
        }
        stats.processes = self.process_names.values().map(|n| n.to_string()).collect();
        stats.processes.sort();
        for (pid, count) in self.slices_by_pid {
            let name = self.process_names.get(&pid).ok_or_else(|| {
                format!("slice on pid {pid}, which no process_name metadata declares")
            })?;
            stats.slices_per_process.push((name.to_string(), count));
        }
        stats.slices_per_process.sort();
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse_json, Json};
    use proptest::prelude::*;

    /// The validator as a walk of the parsed tree — what
    /// [`validate_perfetto`] replaced, with its rule that a slice's pid be
    /// declared — the oracle the streaming one is held to.
    fn validate_by_tree(src: &str) -> Result<PerfettoStats, String> {
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
            let name = process_names.get(&pid).cloned().ok_or_else(|| {
                format!("slice on pid {pid}, which no process_name metadata declares")
            })?;
            stats.slices_per_process.push((name, count));
        }
        stats.slices_per_process.sort();
        Ok(stats)
    }

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

    #[test]
    fn a_slice_must_land_on_a_declared_process() {
        let slice = r#"{"ph":"X","name":"op","ts":1,"dur":2,"pid":5,"tid":0}"#;
        let declare = r#"{"ph":"M","name":"process_name","pid":5,"args":{"name":"w5"}}"#;
        let undeclared = format!(r#"{{"traceEvents":[{slice}]}}"#);
        let error = "slice on pid 5, which no process_name metadata declares";
        assert_eq!(validate_perfetto(&undeclared).unwrap_err(), error);
        assert_eq!(validate_by_tree(&undeclared).unwrap_err(), error);
        // The declaration may come anywhere, after the slice too.
        for doc in [
            format!(r#"{{"traceEvents":[{declare},{slice}]}}"#),
            format!(r#"{{"traceEvents":[{slice},{declare}]}}"#),
        ] {
            let stats = validate_perfetto(&doc).unwrap();
            assert_eq!(stats.slices_per_process, vec![("w5".to_string(), 1)]);
            assert_eq!(Ok(stats), validate_by_tree(&doc));
        }
    }

    #[test]
    fn syntax_errors_come_before_the_checks() {
        // An unsupported phase first, a bad literal at the end.
        let doc = r#"{"traceEvents":[{"ph":"Q"}],"x":tru}"#;
        let error = "json error at byte 32: expected true";
        assert_eq!(validate_perfetto(doc).unwrap_err(), error);
        assert_eq!(validate_by_tree(doc).unwrap_err(), error);
        let doc = r#"{"traceEvents":[{"ph":"Q"}],"x":true}"#;
        assert_eq!(
            validate_perfetto(doc).unwrap_err(),
            "unsupported event phase \"Q\""
        );
    }

    /// SplitMix64 over `seed`: a draw below `bound` per call (this crate
    /// has no random-number dependency).
    fn split_mix(mut state: u64) -> impl FnMut(u64) -> u64 {
        move |bound: u64| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % bound.max(1)
        }
    }

    /// The export of a random run on a random cluster of one to three
    /// workers and one or two servers, whose names and label need
    /// escaping: quiet, with fault instants (`mode` 1), or with a degraded
    /// barrier's deferred ops and their flows (`mode` 2).
    fn random_export(seed: u64, mode: u64) -> String {
        const SUFFIXES: [&str; 6] = ["", "\"q\"", "a\\b", "tab\t", "é→", "\u{1}"];
        let mut next = split_mix(seed);
        let mut b = GraphBuilder::new();
        let workers: Vec<_> = (0..1 + next(3))
            .map(|i| b.add_worker(format!("w{i}{}", SUFFIXES[next(6) as usize])))
            .collect();
        let servers: Vec<_> = (0..1 + next(2))
            .map(|i| b.add_parameter_server(format!("ps{i}")))
            .collect();
        let mut channels = Vec::new();
        for &w in &workers {
            for &ps in &servers {
                channels.push((w, b.add_channel(w, ps)));
            }
        }
        let mut ops = Vec::new();
        for i in 0..1 + next(12) {
            let (w, ch) = channels[next(channels.len() as u64) as usize];
            let p = b.add_param(format!("p{i}"), 1 + next(100));
            let name = format!("recv/p{i}{}", SUFFIXES[next(6) as usize]);
            ops.push(b.add_op(name, w, OpKind::recv(p, ch), Cost::bytes(8), &[]));
        }
        let devices: Vec<_> = workers.iter().chain(&servers).copied().collect();
        for j in 0..next(12) {
            let dev = devices[next(devices.len() as u64) as usize];
            let name = format!("c{j}{}", SUFFIXES[next(6) as usize]);
            ops.push(b.add_op(name, dev, OpKind::Compute, Cost::flops(1.0), &[]));
        }
        let g = b.build().unwrap();
        let mut tb = TraceBuilder::new(g.len());
        for &op in &ops {
            if next(5) != 0 {
                let start = next(5_000_000);
                tb.record(op, t(start), t(start + next(2_000_000)));
            }
        }
        let n = ops.len() as u64;
        if mode >= 1 {
            for _ in 0..next(6) {
                let (at, attempt) = (t(next(9_000_000)), next(3) as u32);
                let op = ops[next(n) as usize];
                let kind = match next(4) {
                    0 => FaultEventKind::TransferDropped { op, attempt },
                    1 => FaultEventKind::Retransmit { op, attempt },
                    2 => FaultEventKind::WorkerCrashed { device: workers[0] },
                    _ => FaultEventKind::BlackoutStart {
                        channel: channels[0].1,
                    },
                };
                tb.push_fault(at, kind);
            }
        }
        if mode == 2 {
            let at = t(9_000_000 + next(1000));
            for _ in 0..1 + next(4) {
                let op = ops[next(n) as usize];
                tb.push_fault(at, FaultEventKind::DeferredOp { op });
            }
            tb.push_fault(at, FaultEventKind::BarrierDegraded { remaining: 2 });
        }
        perfetto_json(&g, &tb.finish(), "label \"x\" \\ é")
    }

    /// The export's events, one a line.
    fn event_lines(doc: &str) -> (&str, Vec<&str>, &str) {
        let head = doc.find('[').map_or(0, |i| i + 2);
        let tail = doc.rfind("\n]").unwrap_or(doc.len()).max(head);
        let events = doc[head..tail].split(",\n").collect();
        (&doc[..head], events, &doc[tail..])
    }

    /// One edit of `doc`: a cut, a flipped byte, a duplicate or escaped
    /// key, the metadata moved after the slices, nesting around the depth
    /// limit, a `ts` or `dur` that is not a number, a flow end dropped, a
    /// slice moved to an undeclared pid, or a sign on a number.
    fn mutate(doc: &str, next: &mut impl FnMut(u64) -> u64) -> String {
        // Where one of the occurrences of `pat` begins, if it occurs.
        let at = |pat: &str, next: &mut dyn FnMut(u64) -> u64| {
            let hits: Vec<usize> = doc.match_indices(pat).map(|(i, _)| i).collect();
            (!hits.is_empty()).then(|| hits[next(hits.len() as u64) as usize])
        };
        let splice =
            |i: usize, cut: usize, text: &str| format!("{}{text}{}", &doc[..i], &doc[i + cut..]);
        match next(11) {
            0 => {
                let mut cut = next(doc.len() as u64 + 1) as usize;
                while !doc.is_char_boundary(cut) {
                    cut -= 1;
                }
                doc[..cut].to_string()
            }
            1 => {
                const BYTES: &[u8] = b"{}[]\",:-.0123456789aetnulrsfx\\ \t";
                let i = next(doc.len() as u64) as usize;
                if doc.as_bytes()[i].is_ascii() {
                    let b = BYTES[next(BYTES.len() as u64) as usize] as char;
                    splice(i, 1, &b.to_string())
                } else {
                    doc.to_string()
                }
            }
            2 => {
                const DUPLICATES: [&str; 7] = [
                    "\"ph\":\"X\",",
                    "\"ph\":\"M\",",
                    "\"pid\":7,",
                    "\"name\":\"process_name\",",
                    "\"args\":{\"name\":\"dup\",\"name\":3},",
                    "\"ts\":-1,",
                    "\"traceEvents\":{},",
                ];
                let dup = DUPLICATES[next(7) as usize];
                // Right after an event's brace (its first occurrence) or
                // after its first comma (a later one).
                let pat = if next(2) == 0 { "{\"ph\"" } else { ",\"" };
                match at(pat, next) {
                    Some(i) => splice(i + 1, 0, dup),
                    None => doc.to_string(),
                }
            }
            3 => {
                let (head, mut events, tail) = event_lines(doc);
                events.sort_by_key(|e| e.starts_with("{\"ph\":\"M\""));
                format!("{head}{}{tail}", events.join(",\n"))
            }
            4 => {
                const ESCAPED: [(&str, &str); 5] = [
                    ("\"ph\"", "\"p\\u0068\""),
                    ("\"name\"", "\"n\\u0061me\""),
                    ("\"pid\"", "\"p\\u0069d\""),
                    ("\"args\"", "\"\\u0061rgs\""),
                    ("\"traceEvents\"", "\"trace\\u0045vents\""),
                ];
                let (key, escaped) = ESCAPED[next(5) as usize];
                match at(key, next) {
                    Some(i) => splice(i, key.len(), escaped),
                    None => doc.to_string(),
                }
            }
            5 => {
                let k = 120 + next(10) as usize;
                let nest = format!("\"x\":{}{},", "[".repeat(k), "]".repeat(k));
                let nest = if next(2) == 0 {
                    nest
                } else {
                    format!("\"args\":{{\"name\":\"n\",{}}},", &nest[..nest.len() - 1])
                };
                match at("{\"ph\"", next) {
                    Some(i) => splice(i + 1, 0, &nest),
                    None => doc.to_string(),
                }
            }
            6 => {
                let key = ["\"ts\":", "\"dur\":"][next(2) as usize];
                let value = ["null,\"q\":", "\"1.5\",\"q\":", "[],\"q\":"][next(3) as usize];
                match at(key, next) {
                    Some(i) => splice(i + key.len(), 0, value),
                    None => doc.to_string(),
                }
            }
            7 => {
                let (head, mut events, tail) = event_lines(doc);
                match events.iter().position(|e| e.contains("\"ph\":\"f\"")) {
                    Some(i) => drop(events.remove(i)),
                    None if !events.is_empty() => {
                        let i = next(events.len() as u64) as usize;
                        events.insert(i, events[i]);
                    }
                    None => {}
                }
                format!("{head}{}{tail}", events.join(",\n"))
            }
            8 => match at("\"pid\":", next) {
                Some(i) => splice(i + 6, 0, "9"),
                None => doc.to_string(),
            },
            9 => {
                let key = ["\"ts\":", "\"dur\":", "\"pid\":", "\"tid\":"][next(4) as usize];
                let sign = ["-", "-0", "1e400", "0."][next(4) as usize];
                match at(key, next) {
                    Some(i) => splice(i + key.len(), 0, sign),
                    None => doc.to_string(),
                }
            }
            _ => {
                let (head, events, tail) = event_lines(doc);
                let mut events: Vec<&str> = events;
                if events.len() > 1 {
                    let i = next(events.len() as u64) as usize;
                    events.remove(i);
                }
                format!("{head}{}{tail}", events.join(",\n"))
            }
        }
    }

    /// The streaming validator and the tree walk on renderer output and
    /// on one to three edits of it ([`mutate`]): the same stats or the
    /// same error on every document. 10^3 cases in a debug build, 2·10^4
    /// in release.
    #[test]
    fn streaming_validator_matches_the_tree_walk() {
        let cases = if cfg!(debug_assertions) {
            1_000
        } else {
            20_000
        };
        // Documents whose shape no edit of an export reaches often.
        let fixed = [
            "{}",
            "[]",
            "\"traceEvents\"",
            "{\"traceEvents\":{}}",
            "{\"traceEvents\":[],\"traceEvents\":{}}",
            "{\"traceEvents\":{},\"traceEvents\":[]}",
            "{\"traceEvents\":[1,[],\"s\",{}]}",
            "{\"trace\\u0045vents\":[{\"ph\":\"s\"}]} ",
            "{\"traceEvents\":[{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":-0.5,\"args\":{}}]}",
        ];
        let (mut accepted, mut errors) = (0, std::collections::BTreeSet::new());
        for case in 0..cases + fixed.len() as u64 {
            let doc = match case.checked_sub(cases) {
                Some(i) => fixed[i as usize].to_string(),
                None => {
                    let mut next = split_mix(0xF022 ^ case);
                    let mut doc = random_export(case, case % 3);
                    for _ in 0..case % 4 {
                        doc = mutate(&doc, &mut next);
                    }
                    doc
                }
            };
            let streamed = validate_perfetto(&doc);
            assert_eq!(streamed, validate_by_tree(&doc), "case {case}: {doc}");
            match streamed {
                Ok(_) => accepted += 1,
                // The rule that refused it: a syntax error's message, or
                // a check's words up to the first number.
                Err(e) => {
                    let rule = e.split_once(": ").filter(|_| e.starts_with("json"));
                    let rule = rule.map_or(e.as_str(), |(_, m)| m);
                    let words = rule.split(|c: char| c.is_ascii_digit()).next();
                    errors.insert(words.unwrap_or_default().to_string());
                }
            }
        }
        assert!(accepted > cases / 4, "{accepted} of {cases} accepted");
        for rule in [
            "nesting deeper than ",
            "trailing characters after document",
            "missing array field \"traceEvents\"",
            "unbalanced flows: ",
            "slice on pid ",
            "slice with negative ts or dur",
            "slice missing numeric \"ts\"",
            "instant missing numeric \"ts\"",
            "event missing non-negative numeric \"pid\"",
            "process_name metadata missing args.name",
        ] {
            assert!(
                errors.contains(rule),
                "no case refused by {rule:?}: {errors:?}"
            );
        }
    }
}

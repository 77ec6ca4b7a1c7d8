//! In-memory span recorder for the traced run.
//!
//! The driver is one thread, so spans nest by a stack: a span's parent is
//! whatever span was open when it began. Spans are recorded from the
//! benchmark's own files, around the calls into each layer; nothing inside
//! the program is instrumented. A layer's busy time is its spans' *self*
//! time: duration minus the part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::host;

/// One recorded interval, in nanoseconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Index of the grid point this span belongs to (shared by every span
    /// of that point).
    pub point: u32,
    /// Index into the recorder's span list of the span that caused this one.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Process CPU time (all threads) spent inside the span; recorded only
    /// by [`Tracer::scope_cpu`].
    pub cpu_ns: Option<u64>,
}

/// Handle of an open span (inert when the recorder is off).
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// The span recorder. Off (the untraced run) it records nothing and costs
/// one branch per call.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    point: u32,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            point: 0,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Sets the point id stamped on every span begun from now on.
    pub fn set_point(&mut self, point: u32) {
        self.point = point;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span that other spans will nest under; close with [`exit`].
    ///
    /// [`exit`]: Tracer::exit
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            point: self.point,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
            cpu_ns: None,
        });
        self.stack.push(index);
        Open(Some(index))
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn exit(&mut self, open: Open) {
        let Some(index) = open.0 else { return };
        let end_ns = self.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(index), "spans must close innermost first");
        self.spans[index].end_ns = end_ns;
    }

    /// Records a leaf span around `f`.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// Like [`scope`], also recording the process CPU time `f` consumed
    /// (two extra system calls, so used only where threads matter).
    ///
    /// [`scope`]: Tracer::scope
    pub fn scope_cpu<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let cpu0 = host::cpu_time_ns();
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        if let Some(index) = open.0 {
            self.spans[index].cpu_ns = Some(host::cpu_time_ns().saturating_sub(cpu0));
        }
        out
    }

    /// Hands over everything recorded so far and starts afresh.
    pub fn take(&mut self) -> Vec<Span> {
        assert!(self.stack.is_empty(), "take() with spans still open");
        std::mem::take(&mut self.spans)
    }
}

/// Self time of every span, in nanoseconds: its duration minus the part
/// of its own interval that its direct children cover. Children are
/// clipped to the parent and overlapping children are counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let start = span.start_ns.max(p.start_ns);
            let end = span.end_ns.min(p.end_ns);
            if start < end {
                children[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (span.end_ns - span.start_ns) - covered
        })
        .collect()
}

/// Per-name totals of one pass's spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub calls: u64,
    /// Sum of self times, seconds.
    pub self_s: f64,
    /// Sum of full durations, seconds.
    pub total_s: f64,
    /// Sum of recorded CPU times, seconds (0 unless recorded).
    pub cpu_s: f64,
}

/// Groups `spans` by name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(span.name).or_default();
        t.calls += 1;
        t.self_s += self_ns as f64 / 1e9;
        t.total_s += (span.end_ns - span.start_ns) as f64 / 1e9;
        t.cpu_s += span.cpu_ns.unwrap_or(0) as f64 / 1e9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            point: 0,
            parent,
            start_ns,
            end_ns,
            cpu_ns: None,
        }
    }

    #[test]
    fn nested_children_are_subtracted_once_per_level() {
        // root [0,100] > mid [10,90] > leaf [20,50]
        let spans = [
            span("root", None, 0, 100),
            span("mid", Some(0), 10, 90),
            span("leaf", Some(1), 20, 50),
        ];
        assert_eq!(self_times(&spans), vec![20, 50, 30]);
        // Self times of a tree sum to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn adjacent_children_cover_their_sum() {
        let spans = [
            span("root", None, 0, 100),
            span("a", Some(0), 0, 40),
            span("b", Some(0), 40, 70),
        ];
        assert_eq!(self_times(&spans), vec![30, 40, 30]);
    }

    #[test]
    fn partly_overlapping_children_are_counted_once_and_clipped() {
        // a [10,60] and b [40,80] overlap on [40,60]; c [90,130] sticks out
        // of the parent and is clipped to [90,100].
        let spans = [
            span("root", None, 0, 100),
            span("a", Some(0), 10, 60),
            span("b", Some(0), 40, 80),
            span("c", Some(0), 90, 130),
        ];
        // covered = [10,80] + [90,100] = 80
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn recorder_nests_by_stack_and_stamps_points() {
        let mut tr = Tracer::new(true);
        tr.set_point(7);
        let outer = tr.enter("point");
        tr.scope("leaf", || std::hint::black_box(1 + 1));
        tr.exit(outer);
        let spans = tr.take();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("point", None));
        assert_eq!((spans[1].name, spans[1].parent), ("leaf", Some(0)));
        assert!(spans.iter().all(|s| s.point == 7));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn recorder_off_records_nothing() {
        let mut tr = Tracer::new(false);
        let open = tr.enter("point");
        assert_eq!(tr.scope("leaf", || 5), 5);
        tr.exit(open);
        assert!(tr.take().is_empty());
    }

    #[test]
    fn totals_group_by_name() {
        let spans = [
            span("root", None, 0, 1_000_000_000),
            span("x", Some(0), 0, 250_000_000),
            span("x", Some(0), 500_000_000, 750_000_000),
        ];
        let totals = totals_by_name(&spans);
        assert_eq!(totals["x"].calls, 2);
        assert!((totals["x"].self_s - 0.5).abs() < 1e-9);
        assert!((totals["root"].self_s - 0.5).abs() < 1e-9);
        assert!((totals["root"].total_s - 1.0).abs() < 1e-9);
    }
}

//! Cross-run analytics over a loaded corpus: filter predicates, pairwise
//! diffs, and history-aware regression gating.
//!
//! Everything here compares *simulated* observations — virtual-time
//! makespans, efficiencies, inversion counts — which are machine-
//! independent, so a corpus committed on one machine gates CI on another.
//! Threaded-backend sessions observe wall-clock time and are skipped by
//! [`regress`].

use std::collections::HashMap;

use tictac_obs::json::integer_into;
use tictac_trace::BackendKind;

use crate::record::{Payload, RunRecord, SessionEvidence};

/// Filter predicates for `runs list` / `runs diff` / `runs regress`.
#[derive(Debug, Clone, Default)]
pub struct RunFilter {
    /// Exact workload (model / experiment) name.
    pub workload: Option<String>,
    /// Exact scheduler kind.
    pub scheduler: Option<String>,
    /// Exact backend name.
    pub backend: Option<String>,
    /// Exact record kind (`session` / `report`).
    pub kind: Option<String>,
    /// Inclusive seed lower bound.
    pub seed_min: Option<u64>,
    /// Inclusive seed upper bound.
    pub seed_max: Option<u64>,
}

impl RunFilter {
    /// Whether `r` satisfies every set predicate.
    pub fn matches(&self, r: &RunRecord) -> bool {
        self.workload.as_deref().is_none_or(|w| w == r.workload)
            && self.scheduler.as_deref().is_none_or(|s| s == r.scheduler)
            && self.backend.as_deref().is_none_or(|b| b == r.backend)
            && self.kind.as_deref().is_none_or(|k| k == r.payload.kind())
            && self.seed_min.is_none_or(|lo| r.seed >= lo)
            && self.seed_max.is_none_or(|hi| r.seed <= hi)
    }
}

/// The identity key runs are compared under: two records with the same
/// key observed the same configuration, so any metric difference between
/// them is drift, not design.
pub fn group_key(r: &RunRecord) -> String {
    let mut key = String::new();
    group_key_into(&mut key, r);
    key
}

/// Appends [`group_key`]'s text to `key`:
/// `kind/workload/WxP/scheduler/backend/seedN`, then `/scn` and `/comm`
/// with 16 hex digits when those fingerprints are nonzero.
fn group_key_into(key: &mut String, r: &RunRecord) {
    for part in [r.payload.kind(), "/", &r.workload, "/"] {
        key.push_str(part);
    }
    integer_into(key, r.workers.into());
    key.push('x');
    integer_into(key, r.ps.into());
    for part in ["/", &r.scheduler, "/", &r.backend, "/seed"] {
        key.push_str(part);
    }
    integer_into(key, r.seed);
    // Scenario-driven runs carry the scenario identity too: the same
    // model/cluster-shape/seed tuple under different heterogeneity or
    // fault regimes is a different experiment, not drift. Likewise for
    // communication granularity: a tuned partition/fusion deployment is a
    // different experiment from the default lowering. Both default to 0,
    // so keys from before either existed are stable.
    for (tag, fp) in [("/scn", r.scenario_fp), ("/comm", r.comm_fp)] {
        if fp != 0 {
            key.push_str(tag);
            key.extend((0..16).rev().map(|nibble| {
                char::from_digit((fp >> (4 * nibble) & 0xf) as u32, 16).expect("a hex digit")
            }));
        }
    }
}

/// Nearest-rank percentile over a sorted sample (exact, not binned).
fn pctl(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Aggregate view of one session payload, used by `runs show`, diffs and
/// the regression gate.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSummary {
    /// Measured iterations.
    pub iterations: u64,
    /// Mean iteration makespan, nanoseconds.
    pub mean_makespan_ns: f64,
    /// Exact nearest-rank percentiles over the iteration makespans.
    pub p50_makespan_ns: u64,
    /// 95th percentile makespan.
    pub p95_makespan_ns: u64,
    /// 99th percentile makespan.
    pub p99_makespan_ns: u64,
    /// Mean realized efficiency (Eq. 3/4).
    pub mean_efficiency: f64,
    /// Mean goodput percentage.
    pub mean_goodput_pct: f64,
    /// Total priority inversions across iterations.
    pub inversions: u64,
    /// Total fault events (sum of every fault counter).
    pub fault_events: u64,
}

impl SessionSummary {
    /// Summarizes one session payload.
    pub fn of(s: &SessionEvidence) -> Self {
        let n = s.iterations.len() as f64;
        let mean = |f: fn(&crate::record::IterationEvidence) -> f64| {
            if s.iterations.is_empty() {
                0.0
            } else {
                s.iterations.iter().map(f).sum::<f64>() / n
            }
        };
        let mut makespans: Vec<u64> = s.iterations.iter().map(|i| i.makespan_ns).collect();
        makespans.sort_unstable();
        let f = &s.faults;
        Self {
            iterations: s.iterations.len() as u64,
            mean_makespan_ns: mean(|i| i.makespan_ns as f64),
            p50_makespan_ns: pctl(&makespans, 50.0),
            p95_makespan_ns: pctl(&makespans, 95.0),
            p99_makespan_ns: pctl(&makespans, 99.0),
            mean_efficiency: mean(|i| i.efficiency),
            mean_goodput_pct: mean(|i| i.goodput_pct),
            inversions: s.iterations.iter().map(|i| i.inversions).sum(),
            fault_events: f.drops
                + f.timeouts
                + f.retransmits
                + f.blackouts
                + f.crashes
                + f.ps_stalls
                + f.stragglers
                + f.deferred_ops
                + f.degraded_barriers,
        }
    }
}

/// One compared metric inside a [`RunDiff`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDelta {
    /// Metric name.
    pub name: String,
    /// Value in the first (older) record.
    pub a: f64,
    /// Value in the second (newer) record.
    pub b: f64,
}

impl MetricDelta {
    /// Signed change `b - a`.
    pub(crate) fn delta(&self) -> f64 {
        self.b - self.a
    }

    /// Bitwise equality — `NaN` vs `NaN` counts as unchanged.
    pub(crate) fn is_zero(&self) -> bool {
        self.a.to_bits() == self.b.to_bits()
    }
}

/// The result of comparing two records.
#[derive(Debug, Clone, PartialEq)]
pub struct RunDiff {
    /// Id of the older record.
    pub a_id: String,
    /// Id of the newer record.
    pub b_id: String,
    /// Per-metric comparisons (empty when the kinds don't match).
    pub metrics: Vec<MetricDelta>,
    /// Whether the evidence payloads are structurally identical (and,
    /// because encoding is canonical, byte-identical on the wire).
    pub payload_identical: bool,
    /// Caveats — kind mismatches, wall-clock warnings.
    pub notes: Vec<String>,
}

impl RunDiff {
    /// Zero drift: every compared metric is unchanged and the payloads
    /// are identical.
    pub fn is_zero(&self) -> bool {
        self.payload_identical && self.metrics.iter().all(MetricDelta::is_zero)
    }

    /// Human-readable rendering for the CLI.
    pub fn render(&self) -> String {
        let mut out = format!("diff {} -> {}\n", self.a_id, self.b_id);
        for note in &self.notes {
            out.push_str(&format!("  note: {note}\n"));
        }
        for m in &self.metrics {
            if m.is_zero() {
                out.push_str(&format!("  {:<22} {:>14}  (unchanged)\n", m.name, m.a));
            } else {
                out.push_str(&format!(
                    "  {:<22} {:>14} -> {:<14} ({:+})\n",
                    m.name,
                    m.a,
                    m.b,
                    m.delta()
                ));
            }
        }
        out.push_str(&format!(
            "  payload: {}\n",
            if self.payload_identical {
                "byte-identical"
            } else {
                "DIFFERS"
            }
        ));
        out
    }
}

fn session_metrics(a: &SessionEvidence, b: &SessionEvidence) -> Vec<MetricDelta> {
    let (sa, sb) = (SessionSummary::of(a), SessionSummary::of(b));
    let m = |name: &str, a: f64, b: f64| MetricDelta {
        name: name.to_string(),
        a,
        b,
    };
    vec![
        m("iterations", sa.iterations as f64, sb.iterations as f64),
        m("mean_makespan_ns", sa.mean_makespan_ns, sb.mean_makespan_ns),
        m(
            "p50_makespan_ns",
            sa.p50_makespan_ns as f64,
            sb.p50_makespan_ns as f64,
        ),
        m(
            "p95_makespan_ns",
            sa.p95_makespan_ns as f64,
            sb.p95_makespan_ns as f64,
        ),
        m(
            "p99_makespan_ns",
            sa.p99_makespan_ns as f64,
            sb.p99_makespan_ns as f64,
        ),
        m("mean_efficiency", sa.mean_efficiency, sb.mean_efficiency),
        m("mean_goodput_pct", sa.mean_goodput_pct, sb.mean_goodput_pct),
        m("inversions", sa.inversions as f64, sb.inversions as f64),
        m(
            "fault_events",
            sa.fault_events as f64,
            sb.fault_events as f64,
        ),
    ]
}

/// Compares two records metric-by-metric.
pub fn diff_records(a: &RunRecord, b: &RunRecord) -> RunDiff {
    let mut notes = Vec::new();
    if group_key(a) != group_key(b) {
        notes.push(format!(
            "configurations differ ({} vs {}): deltas reflect design, not drift",
            group_key(a),
            group_key(b)
        ));
    }
    let metrics = match (&a.payload, &b.payload) {
        (Payload::Session(sa), Payload::Session(sb)) => session_metrics(sa, sb),
        (Payload::Report(ra), Payload::Report(rb)) => {
            if ra.report_fp != rb.report_fp {
                notes.push(format!(
                    "report fingerprint changed: {} -> {}",
                    ra.report_fp, rb.report_fp
                ));
            }
            vec![MetricDelta {
                name: "report_fp_changed".into(),
                a: 0.0,
                b: f64::from(u8::from(ra.report_fp != rb.report_fp)),
            }]
        }
        _ => {
            notes.push(format!(
                "incomparable kinds: {} vs {}",
                a.payload.kind(),
                b.payload.kind()
            ));
            Vec::new()
        }
    };
    RunDiff {
        a_id: a.id.clone(),
        b_id: b.id.clone(),
        metrics,
        payload_identical: a.payload == b.payload,
        notes,
    }
}

/// Thresholds for the history-aware regression gate.
#[derive(Debug, Clone, PartialEq)]
pub struct RegressPolicy {
    /// How many prior records per group form the comparison window.
    pub window: usize,
    /// Allowed mean-makespan increase over the window's best, percent.
    pub makespan_pct: f64,
    /// Allowed mean-efficiency drop below the window's best, absolute.
    pub efficiency_abs: f64,
}

impl Default for RegressPolicy {
    fn default() -> Self {
        Self {
            window: 5,
            makespan_pct: 2.0,
            efficiency_abs: 0.01,
        }
    }
}

/// A group's regression verdict.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Latest record is within policy of its window.
    Pass,
    /// Latest record worsened; each string names one violated gate.
    Drift(Vec<String>),
    /// Only one record in the group — nothing to compare against yet.
    New,
    /// Group excluded from gating, with the reason.
    Skipped(String),
}

/// One group's row in a [`RegressReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct GroupVerdict {
    /// The group's identity key.
    pub key: String,
    /// Id of the group's latest record.
    pub latest_id: String,
    /// The verdict.
    pub verdict: Verdict,
}

/// The regression gate's full result.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RegressReport {
    /// Per-group verdicts, sorted by key.
    pub groups: Vec<GroupVerdict>,
}

impl RegressReport {
    /// Whether any group drifted (the CI failure condition).
    pub fn failed(&self) -> bool {
        self.groups
            .iter()
            .any(|g| matches!(g.verdict, Verdict::Drift(_)))
    }

    /// Human-readable rendering for the CLI.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for g in &self.groups {
            match &g.verdict {
                Verdict::Pass => out.push_str(&format!("PASS  {} ({})\n", g.key, g.latest_id)),
                Verdict::New => out.push_str(&format!("NEW   {} ({})\n", g.key, g.latest_id)),
                Verdict::Skipped(why) => {
                    out.push_str(&format!("SKIP  {} ({}): {why}\n", g.key, g.latest_id))
                }
                Verdict::Drift(gates) => {
                    out.push_str(&format!("DRIFT {} ({})\n", g.key, g.latest_id));
                    for gate in gates {
                        out.push_str(&format!("      - {gate}\n"));
                    }
                }
            }
        }
        let drifted = self
            .groups
            .iter()
            .filter(|g| matches!(g.verdict, Verdict::Drift(_)))
            .count();
        out.push_str(&format!(
            "{} group(s), {} drifted\n",
            self.groups.len(),
            drifted
        ));
        out
    }
}

/// Gates the latest record of every group against the `window` records
/// that preceded it. Session groups are judged on mean makespan (must not
/// exceed the window's best by more than `makespan_pct`), mean efficiency
/// (must not fall more than `efficiency_abs` below the window's best) and
/// inversion count (must not exceed the window's worst); report groups on
/// fingerprint equality with their most recent predecessor.
/// Threaded-backend sessions observe wall-clock time and are skipped.
pub fn regress(records: &[RunRecord], policy: &RegressPolicy) -> RegressReport {
    // One key buffer for the whole corpus; a key is allocated only when
    // it opens a group.
    let mut groups: HashMap<String, Vec<&RunRecord>> = HashMap::new();
    let mut key = String::new();
    for r in records {
        key.clear();
        group_key_into(&mut key, r);
        match groups.get_mut(&key) {
            Some(runs) => runs.push(r),
            None => {
                groups.insert(key.clone(), vec![r]);
            }
        }
    }
    let mut groups: Vec<_> = groups.into_iter().collect();
    groups.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));
    RegressReport {
        groups: groups
            .into_iter()
            .map(|(key, runs)| group_verdict(key, &runs, policy))
            .collect(),
    }
}

/// The verdict on one group, its runs in append order.
fn group_verdict(key: String, runs: &[&RunRecord], policy: &RegressPolicy) -> GroupVerdict {
    let latest = *runs.last().expect("a group holds at least one run");
    let verdict = if latest.backend == BackendKind::Threaded.name() {
        Verdict::Skipped("threaded backend observes wall-clock time".into())
    } else if runs.len() < 2 {
        Verdict::New
    } else {
        let window_start = runs.len().saturating_sub(1 + policy.window);
        let window = &runs[window_start..runs.len() - 1];
        judge(latest, window, policy)
    };
    GroupVerdict {
        key,
        latest_id: latest.id.clone(),
        verdict,
    }
}

fn judge(latest: &RunRecord, window: &[&RunRecord], policy: &RegressPolicy) -> Verdict {
    let mut gates = Vec::new();
    match &latest.payload {
        Payload::Session(s) => {
            let now = SessionSummary::of(s);
            let past: Vec<SessionSummary> = window
                .iter()
                .filter_map(|r| match &r.payload {
                    Payload::Session(s) => Some(SessionSummary::of(s)),
                    _ => None,
                })
                .collect();
            if past.is_empty() {
                return Verdict::New;
            }
            let best_makespan = past
                .iter()
                .map(|p| p.mean_makespan_ns)
                .fold(f64::INFINITY, f64::min);
            let limit = best_makespan * (1.0 + policy.makespan_pct / 100.0);
            if now.mean_makespan_ns > limit {
                gates.push(format!(
                    "mean makespan {:.0} ns exceeds window best {:.0} ns by more than {}%",
                    now.mean_makespan_ns, best_makespan, policy.makespan_pct
                ));
            }
            let best_eff = past
                .iter()
                .map(|p| p.mean_efficiency)
                .fold(f64::NEG_INFINITY, f64::max);
            if now.mean_efficiency < best_eff - policy.efficiency_abs {
                gates.push(format!(
                    "mean efficiency {:.4} fell more than {} below window best {:.4}",
                    now.mean_efficiency, policy.efficiency_abs, best_eff
                ));
            }
            let worst_inv = past.iter().map(|p| p.inversions).max().unwrap_or(0);
            if now.inversions > worst_inv {
                gates.push(format!(
                    "inversions {} exceed window worst {}",
                    now.inversions, worst_inv
                ));
            }
        }
        Payload::Report(r) => {
            let prior = window.iter().rev().find_map(|w| match &w.payload {
                Payload::Report(p) => Some(p),
                _ => None,
            });
            match prior {
                None => return Verdict::New,
                Some(p) if p.report_fp != r.report_fp => gates.push(format!(
                    "report fingerprint changed: {} -> {}",
                    p.report_fp, r.report_fp
                )),
                Some(_) => {}
            }
        }
    }
    if gates.is_empty() {
        Verdict::Pass
    } else {
        Verdict::Drift(gates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::tests::Rng;
    use crate::record::{IterationEvidence, ReportEvidence, SessionEvidence};
    use proptest::prelude::*;

    fn iteration(makespan_ns: u64, efficiency: f64, inversions: u64) -> IterationEvidence {
        IterationEvidence {
            makespan_ns,
            throughput: 1.0,
            straggler_pct: 0.0,
            efficiency,
            speedup_potential: 0.0,
            goodput_pct: 100.0,
            inversions,
        }
    }

    fn session(id: &str, makespans: &[u64], efficiency: f64) -> RunRecord {
        RunRecord {
            id: id.into(),
            time_ms: 1,
            source: "session".into(),
            workload: "tiny_mlp".into(),
            model_fp: 1,
            workers: 2,
            ps: 1,
            scheduler: "tac".into(),
            backend: "sim".into(),
            seed: 7,
            fault_fp: 0,
            scenario_fp: 0,
            comm_fp: 0,
            provenance: String::new(),
            payload: Payload::Session(SessionEvidence {
                iterations: makespans
                    .iter()
                    .map(|&m| iteration(m, efficiency, 0))
                    .collect(),
                ..SessionEvidence::default()
            }),
        }
    }

    #[test]
    fn filter_predicates_compose() {
        let r = session("r000000", &[100], 0.9);
        let mut f = RunFilter {
            workload: Some("tiny_mlp".into()),
            scheduler: Some("tac".into()),
            seed_min: Some(5),
            seed_max: Some(9),
            ..RunFilter::default()
        };
        assert!(f.matches(&r));
        f.kind = Some("report".into());
        assert!(!f.matches(&r));
        f.kind = Some("session".into());
        assert!(f.matches(&r));
        f.seed_max = Some(3);
        assert!(!f.matches(&r));
    }

    #[test]
    fn summary_percentiles_are_exact() {
        let r = session(
            "r000000",
            &[100, 200, 300, 400, 500, 600, 700, 800, 900, 1000],
            0.9,
        );
        if let Payload::Session(s) = &r.payload {
            let sum = SessionSummary::of(s);
            assert_eq!(sum.p50_makespan_ns, 500);
            assert_eq!(sum.p95_makespan_ns, 1000);
            assert_eq!(sum.p99_makespan_ns, 1000);
            assert_eq!(sum.mean_makespan_ns, 550.0);
        } else {
            unreachable!()
        }
    }

    #[test]
    fn identical_sessions_diff_to_zero() {
        let a = session("r000000", &[100, 200], 0.9);
        let b = session("r000001", &[100, 200], 0.9);
        let d = diff_records(&a, &b);
        assert!(d.is_zero(), "{}", d.render());
        assert!(d.payload_identical);
        let c = session("r000002", &[100, 250], 0.9);
        let d = diff_records(&a, &c);
        assert!(!d.is_zero());
        assert!(d.render().contains("mean_makespan_ns"));
    }

    #[test]
    fn regress_passes_stable_history_and_flags_drift() {
        let history = vec![
            session("r000000", &[100, 100], 0.9),
            session("r000001", &[100, 100], 0.9),
            session("r000002", &[100, 100], 0.9),
        ];
        let report = regress(&history, &RegressPolicy::default());
        assert!(!report.failed(), "{}", report.render());
        assert!(matches!(report.groups[0].verdict, Verdict::Pass));

        let mut drifted = history.clone();
        drifted.push(session("r000003", &[150, 150], 0.9));
        let report = regress(&drifted, &RegressPolicy::default());
        assert!(report.failed());
        assert!(report.render().contains("DRIFT"));

        let mut slower_but_ok = history;
        slower_but_ok.push(session("r000003", &[101, 101], 0.9));
        let report = regress(&slower_but_ok, &RegressPolicy::default());
        assert!(!report.failed(), "{}", report.render());
    }

    #[test]
    fn regress_gates_report_fingerprints_and_skips_threaded_sessions() {
        let report_rec = |id: &str, fp: u64| RunRecord {
            id: id.into(),
            time_ms: 1,
            source: "repro".into(),
            workload: "table1".into(),
            model_fp: 0,
            workers: 0,
            ps: 0,
            scheduler: "-".into(),
            backend: "sim".into(),
            seed: 42,
            fault_fp: 0,
            scenario_fp: 0,
            comm_fp: 0,
            provenance: String::new(),
            payload: Payload::Report(ReportEvidence {
                report_fp: fp,
                quick: true,
            }),
        };
        let stable = vec![report_rec("r000000", 5), report_rec("r000001", 5)];
        assert!(!regress(&stable, &RegressPolicy::default()).failed());
        let changed = vec![report_rec("r000000", 5), report_rec("r000001", 6)];
        let rep = regress(&changed, &RegressPolicy::default());
        assert!(rep.failed());
        assert!(rep.render().contains("fingerprint changed"));

        let threaded = |id: &str, makespan: u64| RunRecord {
            backend: "threaded".into(),
            ..session(id, &[makespan], 0.9)
        };
        let rep = regress(
            &[threaded("r000002", 100), threaded("r000003", 900)],
            &RegressPolicy::default(),
        );
        assert!(!rep.failed());
        assert!(matches!(rep.groups[0].verdict, Verdict::Skipped(_)));
    }

    /// `group_key` before its buffer writer: one `format!` per record.
    fn format_group_key(r: &RunRecord) -> String {
        let mut key = format!(
            "{}/{}/{}x{}/{}/{}/seed{}",
            r.payload.kind(),
            r.workload,
            r.workers,
            r.ps,
            r.scheduler,
            r.backend,
            r.seed
        );
        if r.scenario_fp != 0 {
            key.push_str(&format!("/scn{:016x}", r.scenario_fp));
        }
        if r.comm_fp != 0 {
            key.push_str(&format!("/comm{:016x}", r.comm_fp));
        }
        key
    }

    /// `regress` before its key buffer: a `format!` key per record into a
    /// `HashMap<String, _>`, groups visited in key order.
    fn regress_by_format(records: &[RunRecord], policy: &RegressPolicy) -> RegressReport {
        let mut order: Vec<String> = Vec::new();
        let mut groups: HashMap<String, Vec<&RunRecord>> = HashMap::new();
        for r in records {
            groups
                .entry(format_group_key(r))
                .or_insert_with_key(|key| {
                    order.push(key.clone());
                    Vec::new()
                })
                .push(r);
        }
        order.sort();
        RegressReport {
            groups: order
                .into_iter()
                .map(|key| {
                    let runs = &groups[&key];
                    group_verdict(key, runs, policy)
                })
                .collect(),
        }
    }

    /// A record over few enough identities that groups grow histories:
    /// names holding the key's own `/` and `x`, nonzero scenario and
    /// comm fingerprints, every payload kind, both backends.
    fn any_record(rng: &mut Rng) -> RunRecord {
        let fp = |rng: &mut Rng| *rng.pick(&[0, 1, 0xABC_DEF0, u64::MAX]);
        let makespan = |rng: &mut Rng| 100 + rng.below(3) as u64;
        let payload = match rng.below(3) {
            0 => Payload::Report(ReportEvidence {
                report_fp: makespan(rng),
                quick: true,
            }),
            _ => Payload::Session(SessionEvidence {
                iterations: (0..1 + rng.below(2))
                    .map(|_| {
                        let m = makespan(rng);
                        iteration(m, 0.9 - m as f64 / 1e3, rng.below(2) as u64)
                    })
                    .collect(),
                ..SessionEvidence::default()
            }),
        };
        RunRecord {
            workload: rng.pick(&["tiny_mlp", "a/b", "x", "a/1x2"]).to_string(),
            workers: rng.below(3) as u32,
            ps: rng.below(3) as u32,
            scheduler: rng.pick(&["tac", "x", "b/x"]).to_string(),
            backend: rng.pick(&["sim", "threaded"]).to_string(),
            seed: *rng.pick(&[7, 12, u64::MAX]),
            scenario_fp: fp(rng),
            comm_fp: fp(rng),
            payload,
            ..session("", &[], 0.0)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The key buffer changes what `regress` allocates, not what it
        /// groups: every key is `format!`'s, and every report the one
        /// the per-record `format!` grouping returns.
        #[test]
        fn regress_groups_what_group_key_groups(
            seed in any::<u64>(),
            len in 0usize..80,
            window in 1usize..4,
        ) {
            let rng = &mut Rng(seed);
            let records: Vec<RunRecord> = (0..len)
                .map(|i| RunRecord { id: format!("r{i:06}"), ..any_record(rng) })
                .collect();
            for r in &records {
                prop_assert_eq!(group_key(r), format_group_key(r));
            }
            let policy = RegressPolicy { window, ..RegressPolicy::default() };
            prop_assert_eq!(regress(&records, &policy), regress_by_format(&records, &policy));
        }
    }
}

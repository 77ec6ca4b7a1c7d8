//! The metric tables: every name the benchmark prints, with its unit and
//! direction, and how per-layer values are derived from spans and counts.
//!
//! `BENCHMARK.json` lists the same names (a test keeps the two in step).
//! The glossary and the layer → end-to-end predictions are in `README.md`.

use std::collections::BTreeMap;

use crate::pipeline::Counts;
use crate::span::NameTotals;
use crate::stats::{estimate, Estimate};

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// A regression bound of an end-to-end metric: how much worse than the
/// reference median a value may be.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// A share of the reference median.
    Relative(f64),
    /// An absolute amount, in the metric's unit.
    Absolute(f64),
}

/// End-to-end metrics the driver gates (`BENCHMARK.json`'s `end_to_end`):
/// defined and non-zero on every workload.
pub const GATED: [(MetricDef, Bound); 4] = [
    (def("setup_s", "s", "lower"), Bound::Relative(0.25)),
    (def("pass_wall_s", "s", "lower"), Bound::Relative(0.25)),
    (def("pass_cpu_s", "s", "lower"), Bound::Relative(0.25)),
    (def("peak_rss_mb", "MiB", "lower"), Bound::Relative(0.10)),
];

/// End-to-end metrics only `ledger report` / `ledger compare` carry:
/// zero today (so unusable as a share of a median) or defined on
/// `zoo_sweep` alone.
pub const LEDGER_ONLY: [(MetricDef, Bound); 5] = [
    (def("fail_ratio", "ratio", "lower"), Bound::Absolute(0.0)),
    (
        def("sim_tac_speedup_pct", "%", "higher"),
        Bound::Absolute(0.2),
    ),
    (
        def("sim_tic_speedup_pct", "%", "higher"),
        Bound::Absolute(0.2),
    ),
    (
        def("sim_tac_efficiency", "ratio", "higher"),
        Bound::Absolute(0.005),
    ),
    (
        def("sim_tac_inversions", "count", "lower"),
        Bound::Absolute(0.0),
    ),
];

/// All nine end-to-end metrics with their bounds, gated ones first.
pub fn end_to_end() -> impl Iterator<Item = (MetricDef, Bound)> {
    GATED.into_iter().chain(LEDGER_ONLY)
}

/// Per-layer metrics, in layer order. `<span>.calls` and `<span>.busy_s`
/// are derived from the span of that name by rule; the rest by
/// [`layer_values`] or by a workload's probes.
pub const PER_LAYER: [MetricDef; 86] = [
    // models / graph
    def("models.build.calls", "count", "lower"),
    def("models.build.busy_s", "s", "lower"),
    // cluster
    def("cluster.deploy.calls", "count", "lower"),
    def("cluster.deploy.busy_s", "s", "lower"),
    def("cluster.deploy.ns_per_op", "ns/op", "lower"),
    def("cluster.deploy_comm.busy_s", "s", "lower"),
    def("cluster.replicate.busy_s", "s", "lower"),
    // sched
    def("sched.tic.calls", "count", "lower"),
    def("sched.tic.busy_s", "s", "lower"),
    def("sched.tac.calls", "count", "lower"),
    def("sched.tac.busy_s", "s", "lower"),
    def("sched.tac.us_per_recv", "us", "lower"),
    def("sched.efficiency.calls", "count", "lower"),
    def("sched.efficiency.busy_s", "s", "lower"),
    // sim
    def("sim.seq.calls", "count", "lower"),
    def("sim.seq.busy_s", "s", "lower"),
    def("sim.seq.ns_per_op", "ns/op", "lower"),
    def("sim.seq.events", "count", "lower"),
    def("sim.seq.ns_per_event", "ns", "lower"),
    def("sim.par.calls", "count", "lower"),
    def("sim.par.busy_s", "s", "lower"),
    def("sim.par.ns_per_op", "ns/op", "lower"),
    def("sim.par.cpu_over_wall", "ratio", "lower"),
    def("sim.profile.calls", "count", "lower"),
    def("sim.profile.busy_s", "s", "lower"),
    def("sim.par_over_seq.w32", "ratio", "lower"),
    def("sim.par_over_seq.w64", "ratio", "lower"),
    def("sim.par_over_seq.w128", "ratio", "lower"),
    def("sim.par_over_seq.w256", "ratio", "lower"),
    // faults
    def("faults.plan_sample.busy_s", "s", "lower"),
    def("faults.retransmits", "count", "lower"),
    def("faults.drops", "count", "lower"),
    def("faults.faulty_over_quiet", "ratio", "lower"),
    // trace
    def("trace.estimate_profile.busy_s", "s", "lower"),
    def("trace.analyze.calls", "count", "lower"),
    def("trace.analyze.busy_s", "s", "lower"),
    // obs
    def("obs.observed_over_plain", "ratio", "lower"),
    def("obs.inversions.busy_s", "s", "lower"),
    def("obs.overlap.busy_s", "s", "lower"),
    def("obs.realized_eff.busy_s", "s", "lower"),
    def("obs.perfetto_render.busy_s", "s", "lower"),
    def("obs.perfetto_render.mb_per_s", "MB/s", "higher"),
    def("obs.perfetto_validate.busy_s", "s", "lower"),
    def("obs.perfetto_validate.mb_per_s", "MB/s", "higher"),
    def("obs.json_parse.mb_per_s_small", "MB/s", "higher"),
    def("obs.json_parse.mb_per_s_large", "MB/s", "higher"),
    def("obs.snapshot_render.busy_s", "s", "lower"),
    // store
    def("store.encode.busy_s", "s", "lower"),
    def("store.append.calls", "count", "lower"),
    def("store.append.busy_s", "s", "lower"),
    def("store.append.us_first_100", "us", "lower"),
    def("store.append.us_last_100", "us", "lower"),
    def("store.append.read_mb", "MB", "lower"),
    def("store.load.busy_s", "s", "lower"),
    def("store.load.mb_per_s", "MB/s", "higher"),
    def("store.regress.busy_s", "s", "lower"),
    def("store.filter.busy_s", "s", "lower"),
    def("store.diff.busy_s", "s", "lower"),
    // scenario
    def("scenario.parse_grid.calls", "count", "lower"),
    def("scenario.parse_grid.busy_s", "s", "lower"),
    def("scenario.fingerprint.busy_s", "s", "lower"),
    // core
    def("core.session_build.busy_s", "s", "lower"),
    def("core.session_run.busy_s", "s", "lower"),
    def("core.cache.deploy_hit_ratio", "ratio", "higher"),
    def("core.cache.schedule_hit_ratio", "ratio", "higher"),
    def("core.residual_ratio", "ratio", "lower"),
    def("core.replica_match_ratio", "ratio", "higher"),
    def("core.tune_cold.busy_s", "s", "lower"),
    def("core.tune_cold.evals", "count", "lower"),
    def("core.tune_warm.busy_s", "s", "lower"),
    // host
    def("host.alloc_calls_per_point", "count", "lower"),
    def("host.alloc_mb_per_point", "MB", "lower"),
    def("host.alloc_peak_mb", "MB", "lower"),
    def("host.traced_over_untraced", "ratio", "lower"),
    // the traced pass as a whole: what no layer accounts for, and each
    // layer's share of it (all of a layer's spans, self time)
    def("host.traced_pass_s", "s", "lower"),
    def("host.unattributed_s", "s", "lower"),
    def("host.attributed_ratio", "ratio", "higher"),
    def("models.pass_share", "ratio", "lower"),
    def("cluster.pass_share", "ratio", "lower"),
    def("sched.pass_share", "ratio", "lower"),
    def("sim.pass_share", "ratio", "lower"),
    def("faults.pass_share", "ratio", "lower"),
    def("trace.pass_share", "ratio", "lower"),
    def("obs.pass_share", "ratio", "lower"),
    def("store.pass_share", "ratio", "lower"),
    def("scenario.pass_share", "ratio", "lower"),
];

/// The layers a traced pass is split into: the crates the spans call.
pub const LAYERS: [&str; 9] = [
    "models", "cluster", "sched", "sim", "faults", "trace", "obs", "store", "scenario",
];

/// The layer of a span name: the crate it calls into.
pub fn layer_of(span: &str) -> &str {
    span.split('.').next().unwrap_or(span)
}

/// One traced pass, reduced to what the metrics need.
#[derive(Debug, Clone, Default)]
pub struct PassTrace {
    pub wall_s: f64,
    pub totals: BTreeMap<&'static str, NameTotals>,
    pub counts: Counts,
    /// Mean duration of the first / last (up to) 100 `store.append`
    /// spans, microseconds.
    pub append_first_us: f64,
    pub append_last_us: f64,
}

impl PassTrace {
    fn busy(&self, span: &str) -> f64 {
        self.totals.get(span).map_or(0.0, |t| t.self_s)
    }

    fn calls(&self, span: &str) -> f64 {
        self.totals.get(span).map_or(0.0, |t| t.calls as f64)
    }

    /// Self time of every span of `layer`. The harness's own `point`
    /// spans belong to no layer.
    pub fn layer_busy(&self, layer: &str) -> f64 {
        self.totals
            .iter()
            .filter(|(name, _)| **name != "point" && layer_of(name) == layer)
            // Not `sum()`: of nothing it is -0.0, which prints as `-0`.
            .fold(0.0, |sum, (_, t)| sum + t.self_s)
    }

    /// Self time of all layers together.
    pub fn attributed(&self) -> f64 {
        self.totals
            .iter()
            .filter(|(name, _)| **name != "point")
            .map(|(_, t)| t.self_s)
            .sum()
    }

    /// Every per-layer value this one pass determines, by name.
    fn values(&self) -> BTreeMap<&'static str, f64> {
        let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let mut out = BTreeMap::new();
        for m in &PER_LAYER {
            if let Some(span) = m.name.strip_suffix(".calls") {
                out.insert(m.name, self.calls(span));
            } else if let Some(span) = m.name.strip_suffix(".busy_s") {
                out.insert(m.name, self.busy(span));
            }
        }
        // A call-site view: the profiling runs' own spans are sim.seq /
        // sim.par children, so the inclusive time is the meaningful one.
        let profile = self.totals.get("sim.profile").map_or(0.0, |t| t.total_s);
        out.insert("sim.profile.busy_s", profile);

        let c = &self.counts;
        out.insert(
            "cluster.deploy.ns_per_op",
            per(
                (self.busy("cluster.deploy") + self.busy("cluster.deploy_comm")) * 1e9,
                c.get("deploy.graph_ops"),
            ),
        );
        out.insert(
            "sched.tac.us_per_recv",
            per(self.busy("sched.tac") * 1e6, c.get("sched.tac.recvs")),
        );
        out.insert(
            "sim.seq.ns_per_op",
            per(self.busy("sim.seq") * 1e9, c.get("sim.seq.ops")),
        );
        out.insert(
            "sim.par.ns_per_op",
            per(self.busy("sim.par") * 1e9, c.get("sim.par.ops")),
        );
        let par = self.totals.get("sim.par").copied().unwrap_or_default();
        out.insert("sim.par.cpu_over_wall", per(par.cpu_s, par.total_s));
        out.insert("faults.retransmits", c.get("retransmits"));
        out.insert("faults.drops", c.get("drops"));
        out.insert(
            "obs.perfetto_render.mb_per_s",
            per(
                c.get("perfetto.render_bytes") / 1e6,
                self.busy("obs.perfetto_render"),
            ),
        );
        out.insert(
            "obs.perfetto_validate.mb_per_s",
            per(
                c.get("perfetto.validate_bytes") / 1e6,
                self.busy("obs.perfetto_validate"),
            ),
        );
        out.insert("store.append.us_first_100", self.append_first_us);
        out.insert("store.append.us_last_100", self.append_last_us);
        out.insert(
            "store.append.read_mb",
            c.get("store.append.read_bytes") / 1e6,
        );
        out.insert(
            "store.load.mb_per_s",
            per(c.get("store.load.bytes") / 1e6, self.busy("store.load")),
        );
        let attributed = self.attributed();
        out.insert("host.traced_pass_s", self.wall_s);
        out.insert("host.unattributed_s", self.wall_s - attributed);
        out.insert("host.attributed_ratio", per(attributed, self.wall_s));
        for m in &PER_LAYER {
            if let Some(layer) = m.name.strip_suffix(".pass_share") {
                out.insert(m.name, per(self.layer_busy(layer), self.wall_s));
            }
        }
        out
    }
}

/// Per-layer estimates over the traced passes: the median (with count,
/// min, max) of each pass-derived value. Names no pass determines (probe
/// and whole-run metrics) are left to the caller.
pub fn layer_values(passes: &[PassTrace]) -> BTreeMap<&'static str, Estimate> {
    let per_pass: Vec<BTreeMap<&'static str, f64>> = passes.iter().map(PassTrace::values).collect();
    let mut out = BTreeMap::new();
    if let Some(first) = per_pass.first() {
        for &name in first.keys() {
            let samples: Vec<f64> = per_pass.iter().map(|p| p[name]).collect();
            out.insert(name, estimate(&samples).expect("at least one pass"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn every_metric_name_and_unit_is_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let e2e: Vec<MetricDef> = end_to_end().map(|(m, _)| m).collect();
        for m in e2e.iter().chain(&PER_LAYER) {
            assert!(well_formed(m.name), "bad metric name {:?}", m.name);
            assert!(seen.insert(m.name), "duplicate metric {:?}", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {:?}",
                m.unit
            );
            assert!(matches!(m.better, "lower" | "higher"));
        }
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        use crate::layers::{parse_json, Json};
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse_json(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        let ours = |defs: &[MetricDef]| -> Vec<(String, String, String)> {
            defs.iter()
                .map(|m| (m.name.into(), m.unit.into(), m.better.into()))
                .collect()
        };
        let gated: Vec<MetricDef> = GATED.iter().map(|(m, _)| *m).collect();
        assert_eq!(listed("end_to_end"), ours(&gated));
        assert_eq!(listed("per_layer"), ours(&PER_LAYER));
        for ((_, bound), m) in GATED
            .iter()
            .zip(doc.get("end_to_end").and_then(Json::as_array).unwrap())
        {
            let Bound::Relative(share) = bound else {
                panic!("gated bounds are relative")
            };
            assert_eq!(m.get("bound").and_then(Json::as_f64), Some(*share));
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::points::WORKLOADS);
    }

    #[test]
    fn pass_values_follow_the_span_rules() {
        let mut totals = BTreeMap::new();
        totals.insert(
            "sim.seq",
            NameTotals {
                calls: 4,
                self_s: 2.0,
                total_s: 2.0,
                cpu_s: 0.0,
            },
        );
        totals.insert(
            "sim.profile",
            NameTotals {
                calls: 1,
                self_s: 0.001,
                total_s: 1.5,
                cpu_s: 0.0,
            },
        );
        totals.insert(
            "point",
            NameTotals {
                calls: 1,
                self_s: 0.5,
                total_s: 4.0,
                cpu_s: 0.0,
            },
        );
        let mut counts = Counts::default();
        counts.add("sim.seq.ops", 1000.0);
        let pass = PassTrace {
            wall_s: 4.0,
            totals,
            counts,
            ..PassTrace::default()
        };
        let v = layer_values(&[pass]);
        assert_eq!(v["sim.seq.calls"].median, 4.0);
        assert_eq!(v["sim.seq.busy_s"].median, 2.0);
        assert_eq!(v["sim.seq.ns_per_op"].median, 2.0e6);
        assert_eq!(v["sim.profile.busy_s"].median, 1.5);
        assert_eq!(v["sim.par.busy_s"].median, 0.0);
        // `point` self time is the harness's: unattributed.
        assert!((v["host.attributed_ratio"].median - 2.001 / 4.0).abs() < 1e-12);
        assert!((v["sim.pass_share"].median - 2.001 / 4.0).abs() < 1e-12);
    }
}

//! Reports: one run's JSON, the full ledger assembled from eight runs,
//! the human tables, and `ledger compare`.

use std::fmt::Write as _;

use crate::layers::{parse_json, Json};
use crate::metrics::{self, Bound, MetricDef, PER_LAYER};
use crate::run::RunResult;
use crate::stats::Estimate;

fn num(v: f64) -> Json {
    Json::Num(v)
}

fn text(s: impl Into<String>) -> Json {
    Json::Str(s.into())
}

fn nums(v: &[f64]) -> Json {
    Json::Arr(v.iter().copied().map(Json::Num).collect())
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn estimate_json(e: &Estimate, unit: &str) -> Json {
    obj(vec![
        ("value", num(e.median)),
        ("unit", text(unit)),
        ("n", num(e.n as f64)),
        ("min", num(e.min)),
        ("max", num(e.max)),
    ])
}

/// The last line the driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics` — every gated end-to-end metric for an untraced
/// run, every per-layer metric for a traced one.
pub fn contract_line(r: &RunResult) -> String {
    let metric = |name: &str, unit: &str, value: f64| {
        (
            name.to_string(),
            obj(vec![("value", num(value)), ("unit", text(unit))]),
        )
    };
    let metrics: Vec<(String, Json)> = if r.args.traced {
        PER_LAYER
            .iter()
            .map(|m| {
                metric(
                    m.name,
                    m.unit,
                    r.layers.get(m.name).map_or(0.0, |e| e.median),
                )
            })
            .collect()
    } else {
        metrics::GATED
            .iter()
            .map(|(m, _)| {
                let e = r.end_to_end(m.name).expect("gated metrics always apply");
                metric(m.name, m.unit, e.median)
            })
            .collect()
    };
    crate::layers::render_json(&obj(vec![
        ("correct", Json::Bool(r.checks.failed == 0)),
        ("attempted", num(r.checks.attempted.max(1) as f64)),
        ("failed", num(r.checks.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]))
}

/// Everything one run measured, for `--out` and the full report.
pub fn run_json(r: &RunResult) -> Json {
    let end_to_end = metrics::end_to_end()
        .map(|(m, _)| {
            let value = match r.end_to_end(m.name) {
                Some(e) if !r.args.traced => estimate_json(&e, m.unit),
                _ => Json::Null,
            };
            (m.name.to_string(), value)
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .filter_map(|m| {
            Some((
                m.name.to_string(),
                estimate_json(r.layers.get(m.name)?, m.unit),
            ))
        })
        .collect();
    obj(vec![
        ("workload", text(&r.args.workload)),
        ("seed", num(r.args.seed as f64)),
        ("traced", Json::Bool(r.args.traced)),
        ("seconds", num(r.args.seconds)),
        ("passes", num(r.pass_wall_s.len() as f64)),
        ("pass_wall_s", nums(&r.pass_wall_s)),
        ("pass_cpu_s", nums(&r.pass_cpu_s)),
        ("setup_s", nums(&r.setup_s)),
        ("pass_wall_raw_s", nums(&r.pass_wall_raw_s)),
        ("pass_slowdown", nums(&r.pass_slowdown)),
        ("attempted", num(r.checks.attempted as f64)),
        ("failed", num(r.checks.failed as f64)),
        (
            "failures",
            Json::Arr(r.checks.messages.iter().map(text).collect()),
        ),
        ("fingerprint", text(format!("{:016x}", r.fingerprint))),
        ("points_per_pass", num(r.points_per_pass)),
        ("sim_ops_per_pass", num(r.sim_ops_per_pass)),
        ("noise_ref_s", nums(&[r.noise_ref_s.0, r.noise_ref_s.1])),
        ("loadavg_start", text(&r.loadavg_start)),
        (
            "pinned_cpu",
            r.pinned_cpu.map_or(Json::Null, |cpu| num(cpu as f64)),
        ),
        ("end_to_end", Json::Obj(end_to_end)),
        ("per_layer", Json::Obj(per_layer)),
    ])
}

fn field<'a>(j: &'a Json, path: &[&str]) -> Option<&'a Json> {
    path.iter().try_fold(j, |j, key| j.get(key))
}

fn f64_at(j: &Json, path: &[&str]) -> Option<f64> {
    field(j, path)?.as_f64()
}

fn fmt(v: f64) -> String {
    if (v.fract() == 0.0 && v.abs() < 1e15) || v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.2}")
    } else if v.abs() >= 0.01 {
        format!("{v:.4}")
    } else {
        format!("{v:.3e}")
    }
}

/// Human tables of one run, from its [`run_json`].
pub fn run_tables(run: &Json) -> String {
    let mut out = String::new();
    let workload = field(run, &["workload"])
        .and_then(Json::as_str)
        .unwrap_or("?");
    let traced = field(run, &["traced"]).and_then(Json::as_bool) == Some(true);
    let passes = f64_at(run, &["passes"]).unwrap_or(0.0);
    let _ = writeln!(
        out,
        "== {workload} ({}) — seed {}, {passes} passes, fingerprint {}, checks {}/{} failed, \
         noise_ref {} s → {} s, loadavg {}, pinned to cpu {}",
        if traced { "traced" } else { "untraced" },
        fmt(f64_at(run, &["seed"]).unwrap_or(0.0)),
        field(run, &["fingerprint"])
            .and_then(Json::as_str)
            .unwrap_or("?"),
        fmt(f64_at(run, &["failed"]).unwrap_or(0.0)),
        fmt(f64_at(run, &["attempted"]).unwrap_or(0.0)),
        fmt(field(run, &["noise_ref_s"])
            .and_then(Json::as_array)
            .and_then(|a| a.first()?.as_f64())
            .unwrap_or(0.0)),
        fmt(field(run, &["noise_ref_s"])
            .and_then(Json::as_array)
            .and_then(|a| a.get(1)?.as_f64())
            .unwrap_or(0.0)),
        field(run, &["loadavg_start"])
            .and_then(Json::as_str)
            .unwrap_or("?"),
        f64_at(run, &["pinned_cpu"]).map_or("none".to_string(), fmt),
    );
    let series = |key: &str| -> Vec<f64> {
        field(run, &[key])
            .and_then(Json::as_array)
            .map(|a| a.iter().filter_map(Json::as_f64).collect())
            .unwrap_or_default()
    };
    if let (Some(raw), Some(slow)) = (
        crate::stats::estimate(&series("pass_wall_raw_s")),
        crate::stats::estimate(&series("pass_slowdown")),
    ) {
        let _ = writeln!(
            out,
            "   pass as the clock read it: median {} s [{} – {}]; machine slowdown {} [{} – {}]",
            fmt(raw.median),
            fmt(raw.min),
            fmt(raw.max),
            fmt(slow.median),
            fmt(slow.min),
            fmt(slow.max),
        );
    }
    for message in field(run, &["failures"])
        .and_then(Json::as_array)
        .unwrap_or(&[])
    {
        let _ = writeln!(out, "   FAILED: {}", message.as_str().unwrap_or("?"));
    }
    let section = if traced { "per_layer" } else { "end_to_end" };
    let _ = writeln!(
        out,
        "   {:<34} {:>12} {:>12} {:>12} {:>3}  unit",
        "metric", "median", "min", "max", "n"
    );
    for (name, m) in field(run, &[section])
        .and_then(Json::as_object)
        .unwrap_or(&[])
    {
        match m.get("value").and_then(Json::as_f64) {
            None => {
                let _ = writeln!(out, "   {name:<34} {:>12}", "n/a");
            }
            // In the traced table, skip what this workload never touches.
            Some(0.0) if traced => {}
            Some(v) => {
                let _ = writeln!(
                    out,
                    "   {name:<34} {:>12} {:>12} {:>12} {:>3}  {}",
                    fmt(v),
                    fmt(f64_at(m, &["min"]).unwrap_or(v)),
                    fmt(f64_at(m, &["max"]).unwrap_or(v)),
                    fmt(f64_at(m, &["n"]).unwrap_or(1.0)),
                    m.get("unit").and_then(Json::as_str).unwrap_or(""),
                );
            }
        }
    }
    if !traced {
        if let (Some(wall), Some(points)) = (
            f64_at(run, &["end_to_end", "pass_wall_s", "value"]),
            f64_at(run, &["points_per_pass"]),
        ) {
            let _ = writeln!(out, "   → {} points/s", fmt(points / wall));
        }
    } else if let (Some(wall), Some(ops)) = (
        f64_at(run, &["per_layer", "host.traced_pass_s", "value"]),
        f64_at(run, &["sim_ops_per_pass"]),
    ) {
        let _ = writeln!(
            out,
            "   → {} simulated graph-ops/s (traced pass); layer shares of the traced pass:",
            fmt(ops / wall)
        );
        out.push_str(&layer_shares(run, wall));
    }
    out
}

/// Each layer's share of the traced pass, largest first, with the
/// unattributed remainder.
fn layer_shares(run: &Json, wall: f64) -> String {
    let mut shares: Vec<(&str, f64)> = metrics::LAYERS
        .iter()
        .map(|&layer| {
            let metric = format!("{layer}.pass_share");
            (
                layer,
                f64_at(run, &["per_layer", &metric, "value"]).unwrap_or(0.0),
            )
        })
        .filter(|(_, share)| *share > 0.0)
        .collect();
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    let mut out = String::from("    ");
    for (layer, share) in shares {
        let _ = write!(out, " {layer} {:.1}%", 100.0 * share);
    }
    let unattributed = f64_at(run, &["per_layer", "host.unattributed_s", "value"]).unwrap_or(0.0);
    let _ = writeln!(out, " | unattributed {:.1}%", 100.0 * unattributed / wall);
    out
}

/// The verdict of one metric of one workload in `ledger compare`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The reference's own pass-to-pass spread is wider than the bound,
    /// so a difference of that size cannot be told from noise.
    Unresolved,
    /// The metric does not apply to this workload in either report.
    NotApplicable,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::NotApplicable => "n/a",
        }
    }
}

/// Judges `b` against the reference `a` (`(median, min, max)` each).
///
/// `worse` needs both: the median moved the wrong way by more than the
/// bound, and it left the reference's own min–max range. Anything else
/// is `ok` when the reference is steadier than the bound and
/// `unresolved` when it is not.
pub fn judge(m: &MetricDef, bound: Bound, a: Option<[f64; 3]>, b: Option<[f64; 3]>) -> Verdict {
    let (Some([a_med, a_min, a_max]), Some([b_med, ..])) = (a, b) else {
        return if a.is_none() && b.is_none() {
            Verdict::NotApplicable
        } else {
            // Present in one report only: the benchmark itself differs.
            Verdict::Unresolved
        };
    };
    let allowed = match bound {
        Bound::Relative(share) => share * a_med.abs(),
        Bound::Absolute(amount) => amount,
    };
    let lower_is_better = m.better == "lower";
    let worse_by = if lower_is_better {
        b_med - a_med
    } else {
        a_med - b_med
    };
    let outside = if lower_is_better {
        b_med > a_max
    } else {
        b_med < a_min
    };
    let noisy = a_max - a_min > allowed;
    if worse_by > allowed && outside {
        Verdict::Worse
    } else if noisy {
        Verdict::Unresolved
    } else {
        // A steady reference: beyond the bound implies outside its range,
        // so what is left is within the bound.
        Verdict::Ok
    }
}

/// `ledger compare A.json B.json`: one row per workload and end-to-end
/// metric. Returns the table and whether any row is `worse`.
pub fn compare(a: &str, b: &str) -> Result<(String, bool), String> {
    let (a, b) = (parse_json(a)?, parse_json(b)?);
    let triple = |report: &Json, workload: &str, metric: &str| -> Option<[f64; 3]> {
        let m = field(
            report,
            &["workloads", workload, "untraced", "end_to_end", metric],
        )?;
        Some([
            m.get("value")?.as_f64()?,
            m.get("min")?.as_f64()?,
            m.get("max")?.as_f64()?,
        ])
    };
    let mut out = String::new();
    let mut any_worse = false;
    let _ = writeln!(
        out,
        "{:<15} {:<20} {:>12} {:>12} {:>8}  verdict",
        "workload", "metric", "A", "B", "B/A"
    );
    for workload in crate::points::WORKLOADS {
        for (m, bound) in metrics::end_to_end() {
            let (ta, tb) = (triple(&a, workload, m.name), triple(&b, workload, m.name));
            let verdict = judge(&m, bound, ta, tb);
            any_worse |= verdict == Verdict::Worse;
            let show = |t: Option<[f64; 3]>| t.map_or("n/a".to_string(), |t| fmt(t[0]));
            let ratio = match (ta, tb) {
                (Some(x), Some(y)) if x[0] != 0.0 => format!("{:.3}", y[0] / x[0]),
                _ => "-".to_string(),
            };
            let _ = writeln!(
                out,
                "{workload:<15} {:<20} {:>12} {:>12} {ratio:>8}  {}",
                m.name,
                show(ta),
                show(tb),
                verdict.label()
            );
        }
        let print = |report: &Json| {
            field(report, &["workloads", workload, "untraced", "fingerprint"])
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string()
        };
        let (pa, pb) = (print(&a), print(&b));
        let _ = writeln!(
            out,
            "{workload:<15} {:<20} {pa:>12} {pb:>12} {:>8}  {}",
            "result fingerprint",
            "",
            if pa == pb { "same" } else { "differs" }
        );
    }
    Ok((out, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    const WALL: MetricDef = MetricDef {
        name: "pass_wall_s",
        unit: "s",
        better: "lower",
    };
    const GAIN: MetricDef = MetricDef {
        name: "sim_tac_speedup_pct",
        unit: "%",
        better: "higher",
    };

    #[test]
    fn steady_reference_gives_ok_or_worse() {
        let a = Some([1.00, 0.98, 1.03]);
        let rel = Bound::Relative(0.10);
        assert_eq!(judge(&WALL, rel, a, Some([1.05, 1.0, 1.1])), Verdict::Ok);
        assert_eq!(judge(&WALL, rel, a, Some([0.50, 0.5, 0.5])), Verdict::Ok);
        assert_eq!(judge(&WALL, rel, a, Some([1.20, 1.1, 1.3])), Verdict::Worse);
    }

    #[test]
    fn noisy_reference_is_unresolved_until_the_change_leaves_its_range() {
        let a = Some([1.00, 0.80, 1.30]);
        let rel = Bound::Relative(0.10);
        assert_eq!(
            judge(&WALL, rel, a, Some([1.02, 0.9, 1.2])),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&WALL, rel, a, Some([1.25, 1.1, 1.4])),
            Verdict::Unresolved
        );
        assert_eq!(judge(&WALL, rel, a, Some([1.40, 1.3, 1.5])), Verdict::Worse);
    }

    #[test]
    fn higher_is_better_metrics_and_absolute_bounds() {
        let a = Some([12.0, 12.0, 12.0]);
        let abs = Bound::Absolute(0.2);
        assert_eq!(judge(&GAIN, abs, a, Some([11.9, 11.9, 11.9])), Verdict::Ok);
        assert_eq!(judge(&GAIN, abs, a, Some([13.0, 13.0, 13.0])), Verdict::Ok);
        assert_eq!(
            judge(&GAIN, abs, a, Some([11.7, 11.7, 11.7])),
            Verdict::Worse
        );
        // A zero bound: any worsening of an exact metric is worse.
        let zero = Bound::Absolute(0.0);
        assert_eq!(
            judge(&WALL, zero, Some([0.0; 3]), Some([0.0; 3])),
            Verdict::Ok
        );
        assert_eq!(
            judge(&WALL, zero, Some([0.0; 3]), Some([0.01; 3])),
            Verdict::Worse
        );
    }

    #[test]
    fn missing_metrics_are_not_applicable_or_unresolved() {
        let rel = Bound::Relative(0.10);
        assert_eq!(judge(&WALL, rel, None, None), Verdict::NotApplicable);
        assert_eq!(judge(&WALL, rel, Some([1.0; 3]), None), Verdict::Unresolved);
    }

    fn synthetic(wall: f64, gain: f64) -> String {
        let workloads: Vec<String> = crate::points::WORKLOADS
            .iter()
            .map(|w| {
                format!(
                    r#""{w}": {{"untraced": {{"fingerprint": "00ff", "end_to_end": {{
                      "pass_wall_s": {{"value": {wall}, "min": {wall}, "max": {wall}}},
                      "sim_tac_speedup_pct": {{"value": {gain}, "min": {gain}, "max": {gain}}},
                      "fail_ratio": null}}}}}}"#
                )
            })
            .collect();
        format!(r#"{{"workloads": {{{}}}}}"#, workloads.join(","))
    }

    #[test]
    fn compare_flags_a_slower_report_and_passes_an_equal_one() {
        let base = synthetic(1.0, 12.0);
        let (table, worse) = compare(&base, &base).unwrap();
        assert!(!worse, "{table}");
        assert!(table.contains("same"));
        let (table, worse) = compare(&base, &synthetic(1.3, 12.0)).unwrap();
        assert!(worse);
        assert_eq!(table.matches(" worse").count(), 4, "{table}");
        let (_, worse) = compare(&base, &synthetic(0.7, 12.5)).unwrap();
        assert!(!worse);
        assert!(compare("{", &base).is_err());
    }
}

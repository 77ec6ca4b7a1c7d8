//! One workload, one process: set-up rounds, timed passes, verification,
//! and — in a traced run — the per-layer breakdown and probes.
//!
//! The driver is one thread in a closed loop: the next grid point starts
//! when the previous one returns. The only other threads are the ones the
//! program's parallel engine starts itself.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::host::{self, Calibration};
use crate::layers;
use crate::metrics::{layer_values, PassTrace, PER_LAYER};
use crate::pipeline::Checks;
use crate::span::{totals_by_name, Span, Tracer};
use crate::stats::{estimate, median, Estimate};
use crate::workloads::{self, PassOut, Probes, Route};

/// Set-up is repeated and its median reported, so one slow round does not
/// decide `setup_s`.
pub const SETUP_ROUNDS: usize = 3;
/// A traced run makes at least this many staged passes.
const MIN_TRACED_PASSES: usize = 3;

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    /// Timed passes are started until this much time has gone by.
    pub seconds: f64,
    pub traced: bool,
    pub setup_rounds: usize,
    /// Whether a set-up round ends with an untimed warm-up pass (off only
    /// for the smoke run).
    pub warm_up: bool,
}

/// Everything one run measured.
#[derive(Debug)]
pub struct RunResult {
    pub args: RunArgs,
    pub checks: Checks,
    /// FNV-1a over every makespan of a pass (equal across passes).
    pub fingerprint: u64,
    pub points_per_pass: f64,
    /// Graph ops simulated per pass (traced runs only; 0 otherwise).
    pub sim_ops_per_pass: f64,
    /// Calibrated seconds (see `host::Calibration`): of each set-up round
    /// and of each timed pass, wall and CPU.
    pub setup_s: Vec<f64>,
    pub pass_wall_s: Vec<f64>,
    pub pass_cpu_s: Vec<f64>,
    /// The same passes as the clock read them, and the slowdown each was
    /// divided by.
    pub pass_wall_raw_s: Vec<f64>,
    pub pass_slowdown: Vec<f64>,
    pub peak_rss_mb: f64,
    /// The `sim_*` metrics, where the workload defines them.
    pub sim: Vec<(&'static str, f64)>,
    /// Per-layer estimates (traced runs only).
    pub layers: BTreeMap<&'static str, Estimate>,
    pub noise_ref_s: (f64, f64),
    pub loadavg_start: String,
    /// The CPU the run was pinned to (`host::pin_to_current_cpu`).
    pub pinned_cpu: Option<usize>,
}

impl RunResult {
    pub fn fail_ratio(&self) -> f64 {
        self.checks.failed as f64 / self.checks.attempted.max(1) as f64
    }

    /// The nine end-to-end metrics; `None` where one does not apply.
    pub fn end_to_end(&self, name: &str) -> Option<Estimate> {
        let exact = |v: f64| Some(Estimate::exact(v));
        match name {
            "setup_s" => estimate(&self.setup_s),
            "pass_wall_s" => estimate(&self.pass_wall_s),
            "pass_cpu_s" => estimate(&self.pass_cpu_s),
            "peak_rss_mb" => exact(self.peak_rss_mb),
            "fail_ratio" => exact(self.fail_ratio()),
            sim => self
                .sim
                .iter()
                .find(|(n, _)| *n == sim)
                .and_then(|&(_, v)| exact(v)),
        }
    }
}

/// A scratch directory next to the executable — inside the checkout's
/// build directory — removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let dir = exe
            .parent()
            .unwrap_or(Path::new("."))
            .join("ledger-tmp")
            .join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Mean duration (µs) of the first and the last `n` spans named `name`.
fn edge_means(spans: &[Span], name: &str, n: usize) -> (f64, f64) {
    let us: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect();
    if us.is_empty() {
        return (0.0, 0.0);
    }
    let n = n.min(us.len());
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    (mean(&us[..n]), mean(&us[us.len() - n..]))
}

pub fn run(args: RunArgs) -> Result<RunResult, String> {
    let loadavg_start = host::loadavg();
    let pinned_cpu = host::pin_to_current_cpu();
    let noise_before = host::noise_ref_s();
    let scratch = Scratch::new()?;
    let route = if args.traced {
        Route::Staged
    } else {
        Route::BlackBox
    };

    // Set-up: generate the inputs, capture what the workload needs, and
    // walk the point list once untimed so lazy initialisation and the
    // allocator's first growth are paid before timing. Repeated, median
    // reported; the last round's workload is the one measured.
    let mut checks = Checks::default();
    let mut setup_s = Vec::new();
    let mut workload = None;
    for _ in 0..args.setup_rounds.max(1) {
        let started = Instant::now();
        let mut fresh = workloads::make(&args.workload, args.seed, &scratch.0)?;
        let mut round_s = started.elapsed().as_secs_f64();
        let mut speed = Calibration::default();
        speed.sample(4);
        if args.warm_up {
            let pass = fresh.pass(&mut Tracer::new(false), route);
            round_s += pass.wall_s;
            speed.merge(pass.speed);
            checks.merge(pass.checks);
        }
        setup_s.push(round_s / speed.slowdown());
        workload = Some(fresh);
    }
    let mut workload = workload.expect("at least one set-up round");

    // Timed passes.
    let mut tr = Tracer::new(args.traced);
    let min_passes = if args.traced { MIN_TRACED_PASSES } else { 1 };
    let (mut pass_wall_s, mut pass_cpu_s, mut traces) = (Vec::new(), Vec::new(), Vec::new());
    let (mut pass_wall_raw_s, mut pass_slowdown) = (Vec::new(), Vec::new());
    let mut alloc_per_pass = Vec::new();
    let mut fingerprint = None;
    let mut last = PassOut::default();
    let measuring = Instant::now();
    while pass_wall_s.len() < min_passes || measuring.elapsed().as_secs_f64() < args.seconds {
        let alloc = host::alloc_stats();
        host::alloc_counting(args.traced);
        let pass = workload.pass(&mut tr, route);
        host::alloc_counting(false);
        let spans = tr.take();
        let slowdown = pass.speed.slowdown();
        pass_wall_s.push(pass.wall_s / slowdown);
        pass_cpu_s.push(pass.cpu_s / slowdown);
        pass_wall_raw_s.push(pass.wall_s);
        pass_slowdown.push(slowdown);
        let print = pass.fingerprint();
        checks.check(*fingerprint.get_or_insert(print) == print, || {
            format!(
                "pass {} produced different makespans than pass 1",
                pass_wall_s.len()
            )
        });
        if args.traced {
            let now = host::alloc_stats();
            let points = pass.counts.get("points").max(1.0);
            alloc_per_pass.push((
                (now.calls - alloc.calls) as f64 / points,
                (now.bytes - alloc.bytes) as f64 / 1e6 / points,
            ));
            let (append_first_us, append_last_us) = edge_means(&spans, "store.append", 100);
            traces.push(PassTrace {
                wall_s: pass.wall_s,
                totals: totals_by_name(&spans),
                counts: pass.counts.clone(),
                append_first_us,
                append_last_us,
            });
        }
        last = pass;
        checks.merge(std::mem::take(&mut last.checks));
    }

    // Verification (and, traced, the workload's probes).
    let mut probes = Probes::new();
    workload.verify(&last, args.traced, &mut checks, &mut probes);
    let sim = workload.sim_metrics(&last);

    let mut layers = BTreeMap::new();
    if args.traced {
        layers = layer_values(&traces);
        let exact = Estimate::exact;
        // The two ratios below compare passes made at different moments,
        // so both sides are calibrated seconds. Every other per-layer time
        // is the clock's own: a share of one pass.
        let staged_s = median(&pass_wall_s).expect("passes ran");
        let calibrated = |pass: &PassOut| pass.wall_s / pass.speed.slowdown();

        // The black-box path under two spans: the glue the staged walk
        // does not see, the cache's hit ratios, and whether the staged
        // walk reproduced the session's results.
        let cache = layers::cache_counts();
        let blackbox = workload.pass(&mut tr, Route::BlackBox);
        let spans = tr.take();
        let hits = layers::cache_counts();
        let ratio = |hit: u64, miss: u64| hit as f64 / (hit + miss).max(1) as f64;
        let totals = totals_by_name(&spans);
        for (metric, span) in [
            ("core.session_build.busy_s", "core.session_build"),
            ("core.session_run.busy_s", "core.session_run"),
        ] {
            layers.insert(metric, exact(totals.get(span).map_or(0.0, |t| t.self_s)));
        }
        layers.insert(
            "core.cache.deploy_hit_ratio",
            exact(ratio(
                hits.deploy_hits - cache.deploy_hits,
                hits.deploy_misses - cache.deploy_misses,
            )),
        );
        layers.insert(
            "core.cache.schedule_hit_ratio",
            exact(ratio(
                hits.schedule_hits - cache.schedule_hits,
                hits.schedule_misses - cache.schedule_misses,
            )),
        );
        layers.insert(
            "core.residual_ratio",
            exact(calibrated(&blackbox) / staged_s),
        );
        let matching = blackbox
            .points
            .iter()
            .zip(&last.points)
            .filter(|(a, b)| a.out.makespans_ns == b.out.makespans_ns)
            .count();
        layers.insert(
            "core.replica_match_ratio",
            exact(if blackbox.points.len() == last.points.len() {
                matching as f64 / last.points.len().max(1) as f64
            } else {
                0.0
            }),
        );
        checks.merge(blackbox.checks);

        // The staged walk once more with the recorder and the allocation
        // counters off: the difference is the tracing overhead.
        let untraced = workload.pass(&mut Tracer::new(false), Route::Staged);
        layers.insert(
            "host.traced_over_untraced",
            exact(staged_s / calibrated(&untraced)),
        );
        checks.merge(untraced.checks);

        let (calls, mb): (Vec<f64>, Vec<f64>) = alloc_per_pass.into_iter().unzip();
        layers.insert(
            "host.alloc_calls_per_point",
            estimate(&calls).expect("passes ran"),
        );
        layers.insert(
            "host.alloc_mb_per_point",
            estimate(&mb).expect("passes ran"),
        );
        layers.insert(
            "host.alloc_peak_mb",
            exact(host::alloc_stats().peak_live_bytes as f64 / 1e6),
        );
        for (name, value) in probes {
            layers.insert(name, exact(value));
        }
        // Every listed metric is printed; what a workload never touches
        // reads 0.
        for m in &PER_LAYER {
            layers.entry(m.name).or_insert(exact(0.0));
        }
    }
    let sim_ops_per_pass = last.counts.get("sim.seq.ops") + last.counts.get("sim.par.ops");
    let points_per_pass = last.counts.get("points");
    drop(workload);
    drop(scratch);
    Ok(RunResult {
        checks,
        fingerprint: fingerprint.unwrap_or(0),
        points_per_pass,
        sim_ops_per_pass,
        setup_s,
        pass_wall_s,
        pass_cpu_s,
        pass_wall_raw_s,
        pass_slowdown,
        peak_rss_mb: host::peak_rss_mib(),
        sim,
        layers,
        noise_ref_s: (noise_before, host::noise_ref_s()),
        loadavg_start,
        pinned_cpu,
        args,
    })
}

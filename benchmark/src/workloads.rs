//! The four workloads: how each walks its point list in one pass, what it
//! verifies afterwards, and which probes it runs in the traced run.
//!
//! A pass is one walk over the point list with a cold deploy cache: what
//! one `tictac run grid.yml` or one `repro` invocation pays. Reuse inside
//! a pass (baseline/TIC/TAC sharing a deployment) is part of the grid.
//!
//! To add a workload: generate its inputs in `points.rs`, implement
//! [`Workload`] here, add its name to `points::WORKLOADS` and to
//! [`make`], and describe it in `BENCHMARK.json` and `README.md`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::host::{self, Calibration, ReadMark};
use crate::layers::{
    self, DeployMemo, RecordH, RegistryH, RunOut, SinkH, Spec, StoreH, TuneCacheH,
};
use crate::pipeline::{blackbox_session, staged_session, Checks, Counts, Ran};
use crate::points::{self, Built, Doc, ObservePoints, StorePoints};
use crate::span::Tracer;

/// Which path a pass takes through the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `Session` as users call it (every untraced pass).
    BlackBox,
    /// The staged pipeline, one span per call (traced passes).
    Staged,
}

/// One finished grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct PointOut {
    /// Everything but the scheduler; see `Spec::group_key`.
    pub group: String,
    pub scheduler: &'static str,
    pub out: RunOut,
}

/// What one pass produced.
#[derive(Debug, Default)]
pub struct PassOut {
    pub checks: Checks,
    pub counts: Counts,
    pub points: Vec<PointOut>,
    /// Wall and CPU (all threads) seconds of the pass: the sum of its
    /// segments, the calibration between them left out.
    pub wall_s: f64,
    pub cpu_s: f64,
    /// The machine's speed, sampled at every segment boundary.
    pub speed: Calibration,
    clock: Option<(Instant, u64)>,
}

/// A segment this long gets one calibration sample at its end, longer
/// ones proportionally more: ~3% of a pass goes to calibration.
const SEGMENT_PER_SAMPLE_S: f64 = 0.025;

impl PassOut {
    /// A pass starting now.
    fn begin() -> Self {
        PassOut {
            clock: Some((Instant::now(), host::cpu_time_ns())),
            ..PassOut::default()
        }
    }

    /// Ends a segment (one grid point, with whatever preceded it), samples
    /// the machine's speed and starts the next segment.
    fn mark(&mut self) {
        let (wall, cpu) = self.clock.expect("mark() follows begin()");
        let segment_s = wall.elapsed().as_secs_f64();
        self.wall_s += segment_s;
        self.cpu_s += (host::cpu_time_ns() - cpu) as f64 / 1e9;
        self.speed
            .sample((segment_s / SEGMENT_PER_SAMPLE_S).ceil().clamp(1.0, 8.0) as u32);
        self.clock = Some((Instant::now(), host::cpu_time_ns()));
    }

    /// Ends the pass: releasing its deployments is the last thing a sweep
    /// pays for.
    fn end(mut self, memo: DeployMemo) -> Self {
        drop(memo);
        self.mark();
        self
    }

    /// FNV-1a over every makespan, in point order: the pass's simulated
    /// result, which a speed-only change must leave identical.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for point in &self.points {
            for makespan in &point.out.makespans_ns {
                for byte in makespan.to_le_bytes() {
                    h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        h
    }

    /// Per-point checks every session-shaped point gets: it ran, every
    /// makespan is positive, every efficiency lies in [0, 1].
    fn push_point(&mut self, spec: &Spec, result: Result<RunOut, String>) {
        let label = format!("{}/{}", spec.model_name(), spec.scheduler_name());
        let Some(out) = self.checks.op(result, &label) else {
            return;
        };
        self.checks.check(
            out.makespans_ns.len() == spec.iterations() && out.makespans_ns.iter().all(|&m| m > 0),
            || format!("{label}: a makespan is missing or zero"),
        );
        self.checks.check(
            out.efficiencies.iter().all(|e| (0.0..=1.0).contains(e)),
            || format!("{label}: an efficiency is outside [0, 1]"),
        );
        self.counts.add("points", 1.0);
        self.counts.add("retransmits", out.retransmits as f64);
        self.counts.add("drops", out.drops as f64);
        self.points.push(PointOut {
            group: spec.group_key(),
            scheduler: spec.scheduler_name(),
            out,
        });
    }
}

/// Named results of the probes a traced run makes outside its passes.
pub type Probes = BTreeMap<&'static str, f64>;

pub trait Workload {
    /// One cold-cache walk of the point list.
    fn pass(&mut self, tr: &mut Tracer, route: Route) -> PassOut;

    /// Checks too costly for the timed passes, run once after them; in a
    /// traced run also the workload's probes.
    fn verify(&mut self, last: &PassOut, traced: bool, checks: &mut Checks, probes: &mut Probes);

    /// Simulated end-to-end results of a pass (`sim_*`); empty where none
    /// applies.
    fn sim_metrics(&self, _last: &PassOut) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// Generates the workload's inputs from `seed`. `dir` is a scratch
/// directory inside the checkout, private to this process.
pub fn make(name: &str, seed: u64, dir: &Path) -> Result<Box<dyn Workload>, String> {
    let store = dir.join(format!("{name}.runs.jsonl"));
    Ok(match name {
        "zoo_sweep" => Box::new(ZooSweep {
            docs: points::zoo_sweep(seed, &store.to_string_lossy()),
            store,
            tac_inversions: 0,
        }),
        "scale_sweep" => Box::new(ScaleSweep {
            points: points::scale_sweep(seed),
        }),
        "observe_export" => Box::new(ObserveExport {
            points: points::observe_export(seed),
        }),
        "store_history" => Box::new(StoreHistory::new(points::store_history(seed), store)?),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

fn remove_store(path: &Path) {
    match std::fs::remove_file(path) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => panic!("cannot remove {}: {e}", path.display()),
    }
}

/// Builds one session-shaped point down `route` and runs it if the spec
/// has iterations; the point's outcome and checks go to `out`. Scenario
/// points carry their own store target down the black-box route; the
/// staged route appends to `store`.
fn run_session(
    tr: &mut Tracer,
    out: &mut PassOut,
    memo: &mut DeployMemo,
    route: Route,
    spec: &Spec,
    registry: &RegistryH,
    store: Option<&StoreH>,
) -> Option<Ran> {
    let result = match route {
        Route::BlackBox => blackbox_session(tr, spec, registry, None)
            .map(|(session, run)| (Ran::Session(Box::new(session)), run)),
        Route::Staged => {
            staged_session(tr, &mut out.counts, memo, spec, registry, store).map(|staged| {
                let run = (spec.iterations() > 0).then(|| staged.run_out());
                (Ran::Staged(staged), run)
            })
        }
    };
    match result {
        Ok((ran, Some(run))) => {
            out.push_point(spec, Ok(run));
            Some(ran)
        }
        Ok((ran, None)) => {
            out.checks.attempted += 1;
            out.counts.add("points", 1.0);
            Some(ran)
        }
        Err(e) => {
            out.push_point(spec, Err(e));
            None
        }
    }
}

/// Seconds `f` takes, the median of `reps` calls.
fn timed(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let started = Instant::now();
            f();
            started.elapsed().as_secs_f64()
        })
        .collect();
    crate::stats::median(&samples).expect("reps >= 1")
}

/// Deploys and schedules `spec` outside any pass (tracer off).
fn stage_quietly(spec: &Spec, registry: &RegistryH) -> Result<Ran, String> {
    let mut tr = Tracer::new(false);
    let zero = {
        let mut s = spec.clone();
        s.no_iterations();
        s
    };
    staged_session(
        &mut tr,
        &mut Counts::default(),
        &mut DeployMemo::default(),
        &zero,
        registry,
        None,
    )
    .map(Ran::Staged)
}

/// The sequential-engine probe: one iteration of each spec simulated
/// plain and observed, and the two traces compared. When `probes` is
/// given, both are also timed: the exact event count of those iterations,
/// the engine's cost per event, and what observers cost.
fn probe_seq_engine(specs: &[Spec], checks: &mut Checks, probes: Option<&mut Probes>) {
    let (mut events, mut plain_s, mut observed_s) = (0u64, 0.0, 0.0);
    for spec in specs {
        let Some(ran) = checks.op(
            stage_quietly(spec, &RegistryH::disabled()),
            "sequential-engine probe",
        ) else {
            continue;
        };
        let iteration = spec.warmup() as u64;
        let mut tr = Tracer::new(false);
        let mut counts = Counts::default();
        // Forced sequential, so plain and observed run the same engine.
        let pinned = spec.force_engine(false);
        let mut run = |registry: &RegistryH| {
            ran.trace(&mut tr, &mut counts, &pinned, iteration, registry)
                .expect("probe iteration simulates")
        };
        let plain = run(&RegistryH::disabled());
        let counted = RegistryH::enabled();
        let observed = run(&counted);
        events += counted.counter("sim.events");
        checks.check(plain == observed, || {
            format!(
                "{}: the observed trace differs from the unobserved one",
                spec.model_name()
            )
        });
        if probes.is_some() {
            plain_s += timed(3, || drop(run(&RegistryH::disabled())));
            observed_s += timed(3, || drop(run(&RegistryH::enabled())));
        }
    }
    if let Some(probes) = probes {
        if events > 0 {
            probes.insert("sim.seq.events", events as f64);
            probes.insert("sim.seq.ns_per_event", plain_s * 1e9 / events as f64);
            probes.insert("obs.observed_over_plain", observed_s / plain_s);
        }
    }
}

// ---------------------------------------------------------------------------
// zoo_sweep
// ---------------------------------------------------------------------------

struct ZooSweep {
    docs: Vec<Doc>,
    store: PathBuf,
    /// Priority inversions over fault-free enforced-TAC points of the
    /// verified pass.
    tac_inversions: u64,
}

impl ZooSweep {
    /// The `scheduler` point of every document of `slice`.
    fn slice_specs(&self, slice: char, scheduler: &str) -> Vec<Spec> {
        self.docs
            .iter()
            .filter(|d| d.slice == slice)
            .flat_map(|d| layers::parse_grid(&d.text).expect("generated documents parse"))
            .filter(|s| s.scheduler_name() == scheduler)
            .collect()
    }
}

impl Workload for ZooSweep {
    fn pass(&mut self, tr: &mut Tracer, route: Route) -> PassOut {
        let mut out = PassOut::begin();
        remove_store(&self.store);
        layers::cache_clear();
        let store = StoreH::at(&self.store);
        let disabled = RegistryH::disabled();
        let mut memo = DeployMemo::default();
        let mut point = 0;
        for doc in &self.docs {
            tr.set_point(point);
            let parsed = tr.scope("scenario.parse_grid", || layers::parse_grid(&doc.text));
            let Some(specs) = out.checks.op(parsed, "parse_grid") else {
                continue;
            };
            for spec in &specs {
                tr.set_point(point);
                point += 1;
                let open = tr.enter("point");
                run_session(
                    tr,
                    &mut out,
                    &mut memo,
                    route,
                    spec,
                    &disabled,
                    Some(&store),
                );
                tr.exit(open);
                out.mark();
            }
        }
        out.end(memo)
    }

    fn verify(&mut self, last: &PassOut, traced: bool, checks: &mut Checks, probes: &mut Probes) {
        // The store holds the last pass: one record per point.
        if let Some(corpus) = checks.op(StoreH::at(&self.store).load(), "load the run store") {
            checks.check(corpus.len() == last.points.len(), || {
                format!(
                    "store holds {} records for {} points",
                    corpus.len(),
                    last.points.len()
                )
            });
            // envG/envC model a 0.5% hand-off reorder error, so enforced
            // TAC still shows inversions there: reported, not checked.
            self.tac_inversions = corpus
                .views()
                .iter()
                .filter(|r| r.scheduler == "tac" && !r.faulty)
                .map(|r| r.inversions)
                .sum();
        }
        if !traced {
            return;
        }
        probe_seq_engine(&self.slice_specs('A', "tic"), checks, Some(probes));

        // Slice C's fault spec against a quiet cluster, same graphs and
        // schedules: what fault handling costs the engine.
        let (mut faulty_s, mut quiet_s) = (0.0, 0.0);
        for spec in self.slice_specs('C', "tic") {
            let Some(ran) = checks.op(stage_quietly(&spec, &RegistryH::disabled()), "fault probe")
            else {
                continue;
            };
            let quiet = spec.without_faults();
            let mut tr = Tracer::new(false);
            let mut counts = Counts::default();
            let mut sweep = |spec: &Spec| {
                for i in 0..spec.iterations() as u64 {
                    let trace = ran.trace(&mut tr, &mut counts, spec, i, &RegistryH::disabled());
                    drop(trace.expect("slice C faults are recoverable"));
                }
            };
            faulty_s += timed(3, || sweep(&spec));
            quiet_s += timed(3, || sweep(&quiet));
        }
        if quiet_s > 0.0 {
            probes.insert("faults.faulty_over_quiet", faulty_s / quiet_s);
        }

        // The comm tuner: default ladder, 4 workers × 2 PS, cold then warm.
        let (mut cold_s, mut warm_s, mut evals) = (0.0, 0.0, 0usize);
        for model in ["alexnet_v2", "vgg_16", "inception_v3"] {
            let spec = Spec::built(&Built {
                model,
                batch: None,
                workers: 4,
                ps: 2,
                env: points::Env::G,
                scheduler: "tac",
                warmup: 0,
                iterations: 0,
                seed: 1,
            })
            .expect("tuner probe spec is valid");
            let cache = TuneCacheH::default();
            let started = Instant::now();
            evals += checks
                .op(layers::auto_tune(&cache, &spec), "auto_tune (cold)")
                .unwrap_or(0);
            cold_s += started.elapsed().as_secs_f64();
            let started = Instant::now();
            checks.op(layers::auto_tune(&cache, &spec), "auto_tune (warm)");
            warm_s += started.elapsed().as_secs_f64();
        }
        probes.insert("core.tune_cold.busy_s", cold_s);
        probes.insert("core.tune_cold.evals", evals as f64);
        probes.insert("core.tune_warm.busy_s", warm_s);
    }

    fn sim_metrics(&self, last: &PassOut) -> Vec<(&'static str, f64)> {
        // Mean over (model, cluster, env, faults) groups of each policy's
        // simulated-throughput gain over the group's baseline.
        let mut groups: BTreeMap<&str, BTreeMap<&str, f64>> = BTreeMap::new();
        for p in &last.points {
            groups
                .entry(&p.group)
                .or_default()
                .insert(p.scheduler, p.out.mean_throughput);
        }
        let gain = |policy: &str| {
            let gains: Vec<f64> = groups
                .values()
                .filter_map(|g| Some((g.get(policy)? / g.get("baseline")? - 1.0) * 100.0))
                .collect();
            gains.iter().sum::<f64>() / gains.len().max(1) as f64
        };
        let tac: Vec<f64> = last
            .points
            .iter()
            .filter(|p| p.scheduler == "tac")
            .flat_map(|p| p.out.efficiencies.iter().copied())
            .collect();
        vec![
            ("sim_tac_speedup_pct", gain("tac")),
            ("sim_tic_speedup_pct", gain("tic")),
            (
                "sim_tac_efficiency",
                tac.iter().sum::<f64>() / tac.len().max(1) as f64,
            ),
            ("sim_tac_inversions", self.tac_inversions as f64),
        ]
    }
}

// ---------------------------------------------------------------------------
// scale_sweep
// ---------------------------------------------------------------------------

struct ScaleSweep {
    points: Vec<Built>,
}

impl Workload for ScaleSweep {
    fn pass(&mut self, tr: &mut Tracer, route: Route) -> PassOut {
        let mut out = PassOut::begin();
        layers::cache_clear();
        let disabled = RegistryH::disabled();
        let mut memo = DeployMemo::default();
        for (point, built) in self.points.iter().enumerate() {
            tr.set_point(point as u32);
            let open = tr.enter("point");
            if let Some(spec) = out.checks.op(Spec::built(built), "build spec") {
                run_session(tr, &mut out, &mut memo, route, &spec, &disabled, None);
            }
            tr.exit(open);
            out.mark();
        }
        out.end(memo)
    }

    fn verify(&mut self, _last: &PassOut, traced: bool, checks: &mut Checks, probes: &mut Probes) {
        // Both engines on the same graph and schedule, at every cluster
        // size of the grid: equal makespans, and (traced) the time ratio.
        let reps = if traced { 3 } else { 1 };
        let mut seq_probe = Vec::new();
        for built in &self.points {
            if built.scheduler != "tic" {
                continue;
            }
            let spec = Spec::built(built).expect("verified in the pass");
            if built.workers == 32 {
                seq_probe.push(spec.clone());
            }
            if built.model != "alexnet_v2" {
                continue;
            }
            let Some(ran) = checks.op(
                stage_quietly(&spec, &RegistryH::disabled()),
                "engine comparison",
            ) else {
                continue;
            };
            let mut tr = Tracer::new(false);
            let mut counts = Counts::default();
            let mut run = |parallel: bool| {
                let forced = spec.force_engine(parallel);
                ran.trace(&mut tr, &mut counts, &forced, 0, &RegistryH::disabled())
                    .expect("deterministic iteration simulates")
            };
            let (seq, par) = (run(false), run(true));
            checks.check(seq.makespan_ns() == par.makespan_ns(), || {
                format!(
                    "W={}: sequential makespan {} ns, parallel {} ns",
                    built.workers,
                    seq.makespan_ns(),
                    par.makespan_ns()
                )
            });
            let inversions =
                layers::inversions(ran.view(), &seq) + layers::inversions(ran.view(), &par);
            checks.check(!spec.inversion_free() || inversions == 0, || {
                format!(
                    "W={}: {inversions} inversions on in-order channels",
                    built.workers
                )
            });
            if traced {
                let ratio = timed(reps, || drop(run(true))) / timed(reps, || drop(run(false)));
                probes.insert(
                    match built.workers {
                        32 => "sim.par_over_seq.w32",
                        64 => "sim.par_over_seq.w64",
                        128 => "sim.par_over_seq.w128",
                        _ => "sim.par_over_seq.w256",
                    },
                    ratio,
                );
            }
        }
        if traced {
            probe_seq_engine(&seq_probe, checks, Some(probes));
        }
    }
}

// ---------------------------------------------------------------------------
// observe_export
// ---------------------------------------------------------------------------

struct ObserveExport {
    points: ObservePoints,
}

impl Workload for ObserveExport {
    fn pass(&mut self, tr: &mut Tracer, route: Route) -> PassOut {
        let mut out = PassOut::begin();
        layers::cache_clear();
        let mut memo = DeployMemo::default();
        let mut point = 0u32;

        // (1) observed sessions, (2) analysed and exported.
        for built in &self.points.observed {
            tr.set_point(point);
            point += 1;
            let open = tr.enter("point");
            let spec = Spec::built(built).expect("generated points are valid");
            let registry = RegistryH::enabled();
            if let Some(ran) = run_session(tr, &mut out, &mut memo, route, &spec, &registry, None) {
                let label = format!("{}/{}", spec.model_name(), spec.scheduler_name());
                let iteration = spec.warmup() as u64;
                let trace = ran.trace(tr, &mut out.counts, &spec, iteration, &registry);
                if let Some(trace) = out.checks.op(trace, &label) {
                    let view = ran.view();
                    let overlap = tr.scope("obs.overlap", || layers::overlap_frac(view, &trace));
                    let realized = tr.scope("obs.realized_eff", || {
                        layers::realized_efficiency(view, &trace)
                    });
                    let inversions =
                        tr.scope("obs.inversions", || layers::inversions(view, &trace));
                    let json = tr.scope("obs.perfetto_render", || {
                        layers::perfetto_render(view, &trace, &label)
                    });
                    let snapshot =
                        tr.scope("obs.snapshot_render", || layers::snapshot_json(&registry));
                    out.counts.add("perfetto.render_bytes", json.len() as f64);
                    out.checks.check(
                        (0.0..=1.0).contains(&overlap) && (0.0..=1.0).contains(&realized),
                        || format!("{label}: overlap {overlap} / efficiency {realized}"),
                    );
                    out.checks
                        .check(!spec.inversion_free() || inversions == 0, || {
                            format!("{label}: {inversions} inversions on in-order channels")
                        });
                    out.checks
                        .check(json.len() > 1000 && snapshot.len() > 100, || {
                            format!("{label}: empty export")
                        });
                }
            }
            tr.exit(open);
            out.mark();
        }

        // (3) render + validate small traces: the exporter's read side.
        for built in &self.points.validated {
            tr.set_point(point);
            point += 1;
            let open = tr.enter("point");
            let mut spec = Spec::built(built).expect("generated points are valid");
            spec.no_iterations();
            let registry = RegistryH::disabled();
            if let Some(ran) = run_session(tr, &mut out, &mut memo, route, &spec, &registry, None) {
                let label = format!("{}/validate", spec.model_name());
                let trace = ran.trace(tr, &mut out.counts, &spec, 0, &registry);
                if let Some(trace) = out.checks.op(trace, &label) {
                    let json = tr.scope("obs.perfetto_render", || {
                        layers::perfetto_render(ran.view(), &trace, &label)
                    });
                    out.counts.add("perfetto.render_bytes", json.len() as f64);
                    out.counts.add("perfetto.validate_bytes", json.len() as f64);
                    let stats =
                        tr.scope("obs.perfetto_validate", || layers::perfetto_validate(&json));
                    if let Some(stats) = out.checks.op(stats, &label) {
                        let devices = ran.view().devices();
                        out.checks.check(stats.devices_with_slices == devices, || {
                            format!("{label}: {stats:?} for {devices} devices")
                        });
                    }
                }
            }
            tr.exit(open);
            out.mark();
        }
        out.end(memo)
    }

    fn verify(&mut self, _last: &PassOut, traced: bool, checks: &mut Checks, probes: &mut Probes) {
        // Observation must not perturb the simulated outcome; the probe
        // checks trace equality and, when traced, prices the observers.
        let specs: Vec<Spec> = self
            .points
            .observed
            .iter()
            .map(|b| Spec::built(b).expect("generated points are valid"))
            .collect();
        probe_seq_engine(&specs, checks, traced.then_some(&mut *probes));
        if !traced {
            return;
        }

        // The JSON parser on a small and a large document.
        let sink = SinkH::default();
        let small_spec = Spec::built(&self.points.validated[0]).expect("valid");
        let small = blackbox_session(
            &mut Tracer::new(false),
            &small_spec,
            &RegistryH::disabled(),
            Some(&sink),
        )
        .map(|_| sink.take().remove(0).encode());
        let large = stage_quietly(
            &Spec::built(&self.points.validated[3]).expect("valid"),
            &RegistryH::disabled(),
        )
        .and_then(|ran| {
            let spec = Spec::built(&self.points.validated[3]).expect("valid");
            let trace = ran.trace(
                &mut Tracer::new(false),
                &mut Counts::default(),
                &spec,
                0,
                &RegistryH::disabled(),
            )?;
            Ok(layers::perfetto_render(ran.view(), &trace, "probe"))
        });
        if let (Some(small), Some(large)) = (
            checks.op(small, "small JSON document"),
            checks.op(large, "large JSON document"),
        ) {
            probe_json_parse(&small, Some(&large), probes);
        }
    }
}

/// `parse_json` throughput on a record line (2–3 KB) and, where given, a
/// Perfetto trace (≥ 200 KB). The gap between the two is the parser's
/// scaling signature.
fn probe_json_parse(small: &str, large: Option<&str>, probes: &mut Probes) {
    let mb_per_s = |doc: &str, reps: usize| {
        let s = timed(5, || {
            for _ in 0..reps {
                std::hint::black_box(layers::parse_json(std::hint::black_box(doc)).is_ok());
            }
        });
        (doc.len() * reps) as f64 / 1e6 / s
    };
    probes.insert("obs.json_parse.mb_per_s_small", mb_per_s(small, 200));
    if let Some(large) = large {
        probes.insert("obs.json_parse.mb_per_s_large", mb_per_s(large, 1));
    }
}

// ---------------------------------------------------------------------------
// store_history
// ---------------------------------------------------------------------------

struct StoreHistory {
    templates: Vec<RecordH>,
    record_seeds: Vec<u64>,
    store: PathBuf,
}

impl StoreHistory {
    /// Set-up: captures one real record per template session through an
    /// in-memory sink.
    fn new(points: StorePoints, store: PathBuf) -> Result<Self, String> {
        let sink = SinkH::default();
        let mut tr = Tracer::new(false);
        for built in &points.templates {
            let spec = Spec::built(built)?;
            blackbox_session(&mut tr, &spec, &RegistryH::disabled(), Some(&sink))?;
        }
        let templates = sink.take();
        if templates.len() != points.templates.len() {
            return Err(format!(
                "captured {} template records for {} sessions",
                templates.len(),
                points.templates.len()
            ));
        }
        Ok(Self {
            templates,
            record_seeds: points.record_seeds,
            store,
        })
    }
}

impl Workload for StoreHistory {
    /// Both paths make the same calls: the store has no session above it.
    fn pass(&mut self, tr: &mut Tracer, _route: Route) -> PassOut {
        let mut out = PassOut::begin();
        remove_store(&self.store);
        let store = StoreH::at(&self.store);
        let first_workload = self.templates[0].view().workload;
        let mut appended = 0usize;
        for (round, seeds) in self
            .record_seeds
            .chunks(points::APPENDS_PER_ROUND)
            .enumerate()
        {
            tr.set_point(round as u32);
            let open = tr.enter("point");
            let mark = tr.is_on().then(ReadMark::now);
            for &seed in seeds {
                let record = self.templates[appended % self.templates.len()].with_seed(seed);
                let result = tr.scope("store.append", || store.append(record));
                out.checks.op(result, "append");
                appended += 1;
            }
            if let Some(mark) = mark {
                out.counts
                    .add("store.append.read_bytes", mark.bytes_since() as f64);
            }
            let loaded = tr.scope("store.load", || store.load());
            if let Some(corpus) = out.checks.op(loaded, "load") {
                out.counts.add(
                    "store.load.bytes",
                    std::fs::metadata(&self.store).map_or(0, |m| m.len()) as f64,
                );
                let matching = tr.scope("store.filter", || corpus.filter_workload(&first_workload));
                let (groups, drifted) = tr.scope("store.regress", || corpus.regress());
                let diff = tr.scope("store.diff", || corpus.diff_last_two_is_zero());
                out.checks.check(corpus.len() == appended, || {
                    format!(
                        "round {round}: loaded {} of {appended} records",
                        corpus.len()
                    )
                });
                out.checks.check(
                    matching > 0 && matching < appended && groups > 0 && diff.is_some(),
                    || format!("round {round}: filter {matching}, groups {groups}"),
                );
                out.checks
                    .check(!drifted, || format!("round {round}: regress reports drift"));
            }
            out.counts.add("points", 1.0);
            tr.exit(open);
            out.mark();
        }
        out
    }

    fn verify(&mut self, _last: &PassOut, traced: bool, checks: &mut Checks, probes: &mut Probes) {
        for template in &self.templates {
            let line = template.encode();
            checks.check(RecordH::decode(&line).as_ref() == Ok(template), || {
                format!("{}: decode(encode(r)) != r", template.view().workload)
            });
        }
        if traced {
            probe_json_parse(&self.templates[0].encode(), None, probes);
        }
    }
}

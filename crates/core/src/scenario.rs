//! Declarative experiment scenarios (DESIGN.md §14).
//!
//! A [`Scenario`] is one fully-specified experiment point: model, cluster
//! shape (optionally heterogeneous), environment preset, scheduling
//! policy, execution backend, seed, iteration counts and fault spec — the
//! tuple every hand-written experiment in this repository used to encode
//! in Rust. Scenario *files* are a strict YAML subset (see [`Scenario::parse`])
//! checked into the repository and executed with `tictac run
//! scenario.yml`; the three fields `scheduler`, `backend` and `seed` may
//! be list-valued, in which case the file expands into the cross-product
//! grid of scenarios.
//!
//! Every scenario has a deterministic FNV-1a [`Scenario::fingerprint`]
//! over its semantic fields (the store target is excluded — *where*
//! results land does not change *what* ran). The fingerprint flows into
//! each `RunRecord`'s identity so sweep records stay groupable across
//! processes and machines.

mod parse;

pub use parse::{ParseError, Value};

use parse::Entry;
use std::fmt;
use tictac_cluster::{ClusterSpec, CommConfig};
use tictac_graph::{Fnv1a, Mode, Model};
use tictac_sched::SchedulerKind;
use tictac_sim::{FaultSpec, SimConfig, DEFAULT_SEED};
use tictac_trace::{BackendKind, SimDuration};

/// Which platform preset (`SimConfig`) the scenario runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EnvPreset {
    /// envG: cloud GPUs on a fast network (`SimConfig::cloud_gpu`).
    G,
    /// envC: CPU cluster on a 10× slower network (`SimConfig::cpu_cluster`).
    C,
}

impl EnvPreset {
    /// The preset's short lowercase name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            EnvPreset::G => "g",
            EnvPreset::C => "c",
        }
    }

    /// Parses a preset from its short name.
    pub(crate) fn from_name(name: &str) -> Option<EnvPreset> {
        match name {
            "g" => Some(EnvPreset::G),
            "c" => Some(EnvPreset::C),
            _ => None,
        }
    }

    /// The preset's base [`SimConfig`] (before seed/fault overrides).
    pub(crate) fn base_config(self) -> SimConfig {
        match self {
            EnvPreset::G => SimConfig::cloud_gpu(),
            EnvPreset::C => SimConfig::cpu_cluster(),
        }
    }
}

impl fmt::Display for EnvPreset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One fully-specified experiment point.
///
/// Obtain scenarios by parsing a file ([`Scenario::parse`] /
/// [`Scenario::parse_grid`]); every field is public so programmatic
/// construction works too.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Label for humans and run records (defaults to the model name).
    pub name: String,
    /// The model-zoo entry to deploy.
    pub model: Model,
    /// Training or inference graph.
    pub mode: Mode,
    /// Batch size (defaults to the model's Table-1 batch).
    pub batch: usize,
    /// Cluster shape, including heterogeneity factors.
    pub cluster: ClusterSpec,
    /// Platform preset.
    pub env: EnvPreset,
    /// Transfer-scheduling policy.
    pub scheduler: SchedulerKind,
    /// Execution backend.
    pub backend: BackendKind,
    /// Simulation seed.
    pub seed: u64,
    /// Measured iterations.
    pub iterations: usize,
    /// Warm-up iterations (`warmup:`): iteration indices `0..warmup` are
    /// never measured. The `threaded` backend executes and discards them;
    /// the `sim` backend, whose iterations are pure functions of their
    /// index, skips them. Measured iterations are `warmup..` on both.
    pub warmup: usize,
    /// Wall-clock compression for the threaded backend (`0.5` = twice as
    /// fast as modelled time). `None` = real time. Ignored by the sim.
    pub time_scale: Option<f64>,
    /// Fault injection spec.
    pub faults: FaultSpec,
    /// Run-store target, if the scenario requests recording.
    pub store: Option<String>,
}

impl Scenario {
    /// Parses a scenario file that must expand to exactly one scenario.
    ///
    /// # Errors
    ///
    /// Any grammar or validation error, or a file whose `scheduler` /
    /// `backend` / `seed` lists expand to more than one point.
    pub fn parse(text: &str) -> Result<Scenario, ParseError> {
        let mut grid = Scenario::parse_grid(text)?;
        if grid.len() != 1 {
            return Err(ParseError::at(
                0,
                format!(
                    "expected a single scenario, but the file expands to {}",
                    grid.len()
                ),
            ));
        }
        Ok(grid.remove(0))
    }

    /// Parses a scenario file and expands list-valued `scheduler`,
    /// `backend` and `seed` fields into the cross-product grid, in
    /// scheduler-major, seed-minor order.
    ///
    /// # Errors
    ///
    /// Any grammar error (unknown/duplicate/missing fields, bad
    /// indentation) or validation error (unknown model, degenerate
    /// cluster, malformed factor vectors), with the offending line.
    pub fn parse_grid(text: &str) -> Result<Vec<Scenario>, ParseError> {
        let top = parse::parse_document(text)?;
        let mut f = Fields::new(top);

        let model_entry = f.require("model")?;
        let model_name = scalar(&model_entry)?;
        let model = Model::from_name(&model_name).ok_or_else(|| {
            ParseError::at(model_entry.line, format!("unknown model `{model_name}`"))
        })?;
        let name = match f.take("name") {
            Some(e) => scalar(&e)?,
            None => model.name().to_string(),
        };
        let mode = match f.take("mode") {
            Some(e) => {
                let s = scalar(&e)?;
                match s.as_str() {
                    "training" => Mode::Training,
                    "inference" => Mode::Inference,
                    _ => {
                        return Err(ParseError::at(
                            e.line,
                            format!("mode must be `training` or `inference`, got `{s}`"),
                        ))
                    }
                }
            }
            None => Mode::Training,
        };
        let batch = match f.take("batch") {
            Some(e) => match parse_num::<usize>(&scalar(&e)?, e.line, "batch")? {
                0 => return Err(ParseError::at(e.line, "batch must be at least 1")),
                n => n,
            },
            None => model.default_batch(),
        };

        let mut cluster = cluster_spec(f.require("cluster")?)?;
        if let Some(e) = f.take("comm") {
            cluster = cluster.with_comm(comm_config(e)?);
        }

        let env = match f.take("env") {
            Some(e) => {
                let s = scalar(&e)?;
                EnvPreset::from_name(&s).ok_or_else(|| {
                    ParseError::at(e.line, format!("env must be `g` or `c`, got `{s}`"))
                })?
            }
            None => EnvPreset::G,
        };

        let schedulers: Vec<SchedulerKind> = match f.take("scheduler") {
            Some(e) => list_of(&e, |s, line| {
                SchedulerKind::from_name(s)
                    .ok_or_else(|| ParseError::at(line, format!("unknown scheduler `{s}`")))
            })?,
            None => vec![SchedulerKind::Baseline],
        };
        let backends: Vec<BackendKind> = match f.take("backend") {
            Some(e) => list_of(&e, |s, line| {
                BackendKind::from_name(s).ok_or_else(|| {
                    ParseError::at(
                        line,
                        format!("backend must be `sim` or `threaded`, got `{s}`"),
                    )
                })
            })?,
            None => vec![BackendKind::Sim],
        };
        let seeds: Vec<u64> = match f.take("seed") {
            Some(e) => list_of(&e, |s, line| parse_num::<u64>(s, line, "seed"))?,
            None => vec![DEFAULT_SEED],
        };

        let iterations = match f.take("iterations") {
            Some(e) => match parse_num::<usize>(&scalar(&e)?, e.line, "iterations")? {
                0 => return Err(ParseError::at(e.line, "iterations must be at least 1")),
                n => n,
            },
            None => 10,
        };
        let warmup = match f.take("warmup") {
            Some(e) => parse_num::<usize>(&scalar(&e)?, e.line, "warmup")?,
            None => 2,
        };
        let time_scale = match f.take("time_scale") {
            Some(e) => {
                let v = parse_num::<f64>(&scalar(&e)?, e.line, "time_scale")?;
                if !v.is_finite() || v <= 0.0 {
                    return Err(ParseError::at(e.line, "time_scale must be positive"));
                }
                Some(v)
            }
            None => None,
        };
        let faults = match f.take("faults") {
            Some(e) => fault_spec(e)?,
            None => FaultSpec::none(),
        };
        let store = match f.take("store") {
            Some(e) => Some(scalar(&e)?),
            None => None,
        };
        f.finish()?;

        let mut grid = Vec::with_capacity(schedulers.len() * backends.len() * seeds.len());
        for &scheduler in &schedulers {
            for &backend in &backends {
                for &seed in &seeds {
                    grid.push(Scenario {
                        name: name.clone(),
                        model,
                        mode,
                        batch,
                        cluster: cluster.clone(),
                        env,
                        scheduler,
                        backend,
                        seed,
                        iterations,
                        warmup,
                        time_scale,
                        faults: faults.clone(),
                        store: store.clone(),
                    });
                }
            }
        }
        Ok(grid)
    }

    /// The scenario's [`SimConfig`]: the env preset with this scenario's
    /// seed and fault spec applied.
    pub fn sim_config(&self) -> SimConfig {
        self.env
            .base_config()
            .with_seed(self.seed)
            .with_faults(self.faults.clone())
    }

    /// A deterministic FNV-1a fingerprint over every semantic field.
    ///
    /// Two scenarios fingerprint equal exactly when they specify the same
    /// experiment: model, mode, batch, cluster (shape, sharding and
    /// heterogeneity factors), env, scheduler, backend, seed, iteration
    /// counts, time scale and fault spec. The `name` label and `store`
    /// target are *excluded* — relabeling or redirecting output does not
    /// change what ran. Grid siblings therefore get distinct fingerprints
    /// (they differ in scheduler, backend or seed).
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.bytes(b"tictac-scenario/v1");
        h.bytes(self.model.name().as_bytes());
        h.bytes(&[match self.mode {
            Mode::Training => 1,
            Mode::Inference => 2,
        }]);
        h.u64(self.batch as u64);
        h.u64(self.cluster.workers as u64);
        h.u64(self.cluster.parameter_servers as u64);
        h.bytes(format!("{:?}", self.cluster.sharding).as_bytes());
        for w in 0..self.cluster.workers {
            h.u64(self.cluster.worker_speed(w).to_bits());
        }
        for s in 0..self.cluster.parameter_servers {
            h.u64(self.cluster.ps_speed(s).to_bits());
        }
        for w in 0..self.cluster.workers {
            for s in 0..self.cluster.parameter_servers {
                h.u64(self.cluster.link_bandwidth(w, s).to_bits());
            }
        }
        h.bytes(self.env.name().as_bytes());
        h.bytes(self.scheduler.name().as_bytes());
        h.bytes(self.backend.name().as_bytes());
        h.u64(self.seed);
        h.u64(self.iterations as u64);
        h.u64(self.warmup as u64);
        h.u64(self.time_scale.unwrap_or(0.0).to_bits());
        h.u64(self.faults.fingerprint());
        // Communication granularity joined the schema after v1 shipped;
        // it is eaten only when non-default so every pre-existing
        // scenario file keeps its recorded fingerprint.
        if !self.cluster.comm().is_default() {
            h.u64(self.cluster.comm().fingerprint());
        }
        h.finish()
    }
}

/// Strict field consumption: every `take` marks a key consumed; `finish`
/// rejects whatever remains (the unknown-field rule of the house codec).
struct Fields {
    entries: Vec<Entry>,
}

impl Fields {
    fn new(entries: Vec<Entry>) -> Self {
        Self { entries }
    }

    fn take(&mut self, key: &str) -> Option<Entry> {
        let i = self.entries.iter().position(|e| e.key == key)?;
        Some(self.entries.remove(i))
    }

    fn require(&mut self, key: &str) -> Result<Entry, ParseError> {
        self.take(key)
            .ok_or_else(|| ParseError::at(0, format!("missing required field `{key}`")))
    }

    fn finish(self) -> Result<(), ParseError> {
        if let Some(e) = self.entries.first() {
            return Err(ParseError::at(e.line, format!("unknown field `{}`", e.key)));
        }
        Ok(())
    }
}

fn scalar(e: &Entry) -> Result<String, ParseError> {
    match &e.value {
        Some(Value::Scalar(s)) => Ok(s.clone()),
        _ => Err(ParseError::at(
            e.line,
            format!("`{}` expects a single value", e.key),
        )),
    }
}

/// Accepts either `key: v` or `key: [v1, v2]`; maps every element.
fn list_of<T>(
    e: &Entry,
    convert: impl Fn(&str, usize) -> Result<T, ParseError>,
) -> Result<Vec<T>, ParseError> {
    let items: Vec<&str> = match &e.value {
        Some(Value::Scalar(s)) => vec![s.as_str()],
        Some(Value::List(l)) if !l.is_empty() => l.iter().map(String::as_str).collect(),
        _ => {
            return Err(ParseError::at(
                e.line,
                format!("`{}` expects a value or a non-empty list", e.key),
            ))
        }
    };
    items.into_iter().map(|s| convert(s, e.line)).collect()
}

fn parse_num<T: std::str::FromStr>(s: &str, line: usize, what: &str) -> Result<T, ParseError> {
    s.parse()
        .map_err(|_| ParseError::at(line, format!("invalid {what} `{s}`")))
}

fn f64_list(e: &Entry) -> Result<Vec<f64>, ParseError> {
    list_of(e, |s, line| parse_num::<f64>(s, line, "factor"))
}

/// Lowers the `cluster:` section onto a validated [`ClusterSpec`].
fn cluster_spec(section: Entry) -> Result<ClusterSpec, ParseError> {
    let section_line = section.line;
    if section.value.is_some() {
        return Err(ParseError::at(section_line, "`cluster` must be a section"));
    }
    let mut f = Fields::new(section.children);
    let workers_e = f.require("workers")?;
    let workers = parse_num::<usize>(&scalar(&workers_e)?, workers_e.line, "workers")?;
    let ps_e = f.require("parameter_servers")?;
    let ps = parse_num::<usize>(&scalar(&ps_e)?, ps_e.line, "parameter_servers")?;
    let mut b = ClusterSpec::builder()
        .workers(workers)
        .parameter_servers(ps);
    if let Some(e) = f.take("worker_speeds") {
        b = b.worker_speeds(f64_list(&e)?);
    }
    if let Some(e) = f.take("ps_speeds") {
        b = b.ps_speeds(f64_list(&e)?);
    }
    if let Some(e) = f.take("link_bandwidths") {
        b = b.link_bandwidths(f64_list(&e)?);
    }
    f.finish()?;
    b.build()
        .map_err(|e| ParseError::at(section_line, format!("invalid cluster: {e}")))
}

/// Lowers the `comm:` section onto a [`CommConfig`], starting from the
/// default (both passes off). Thresholds are byte counts and must be at
/// least 1.
fn comm_config(section: Entry) -> Result<CommConfig, ParseError> {
    if section.value.is_some() {
        return Err(ParseError::at(section.line, "`comm` must be a section"));
    }
    let mut f = Fields::new(section.children);
    let mut threshold = |key: &'static str| -> Result<Option<u64>, ParseError> {
        match f.take(key) {
            Some(e) => {
                let v = parse_num::<u64>(&scalar(&e)?, e.line, key)?;
                if v == 0 {
                    return Err(ParseError::at(e.line, format!("{key} must be at least 1")));
                }
                Ok(Some(v))
            }
            None => Ok(None),
        }
    };
    let comm = CommConfig {
        partition_bytes: threshold("partition_bytes")?,
        fusion_bytes: threshold("fusion_bytes")?,
    };
    f.finish()?;
    Ok(comm)
}

/// Lowers the `faults:` section onto a [`FaultSpec`], starting from
/// [`FaultSpec::none`]. Durations are given in milliseconds. The ranges
/// are [`FaultSpec::check`]'s: each knob is set and checked in turn, so a
/// refusal is the knob just set, reported at its line.
fn fault_spec(section: Entry) -> Result<FaultSpec, ParseError> {
    if section.value.is_some() {
        return Err(ParseError::at(section.line, "`faults` must be a section"));
    }
    let mut f = Fields::new(section.children);
    let mut spec = FaultSpec::none();
    type Knob = fn(&mut FaultSpec) -> &mut f64;
    let probabilities: [(&str, Knob); 5] = [
        ("drop_prob", |s| &mut s.drop_prob),
        ("blackout_prob", |s| &mut s.blackout_prob),
        ("crash_prob", |s| &mut s.crash_prob),
        ("straggler_prob", |s| &mut s.straggler_prob),
        ("ps_stall_prob", |s| &mut s.ps_stall_prob),
    ];
    for (key, knob) in probabilities {
        if let Some(e) = f.take(key) {
            *knob(&mut spec) = parse_num::<f64>(&scalar(&e)?, e.line, key)?;
            let text = format!("{key} must be in [0, 1]");
            spec.check().map_err(|_| ParseError::at(e.line, text))?;
        }
    }

    type Span = fn(&mut FaultSpec) -> &mut SimDuration;
    let durations: [(&str, Span); 4] = [
        ("blackout_ms", |s| &mut s.blackout),
        ("crash_downtime_ms", |s| &mut s.crash_downtime),
        ("ps_stall_ms", |s| &mut s.ps_stall),
        ("onset_window_ms", |s| &mut s.onset_window),
    ];
    for (key, knob) in durations {
        if let Some(e) = f.take(key) {
            let v = parse_num::<f64>(&scalar(&e)?, e.line, key)?;
            if !v.is_finite() || v < 0.0 {
                let text = format!("{key} must be non-negative");
                return Err(ParseError::at(e.line, text));
            }
            *knob(&mut spec) = SimDuration::from_secs_f64(v / 1e3);
        }
    }

    if let Some(e) = f.take("straggler_factor") {
        spec.straggler_factor = parse_num::<f64>(&scalar(&e)?, e.line, "straggler_factor")?;
        let text = "straggler_factor must be >= 1";
        spec.check().map_err(|_| ParseError::at(e.line, text))?;
    }
    if let Some(e) = f.take("barrier_timeout_ms") {
        let v = parse_num::<f64>(&scalar(&e)?, e.line, "barrier_timeout_ms")?;
        // Milliseconds to a duration; a zero one is the rule's to refuse.
        let positive = || ParseError::at(e.line, "barrier_timeout_ms must be positive");
        if !v.is_finite() || v < 0.0 {
            return Err(positive());
        }
        spec.barrier_timeout = Some(SimDuration::from_secs_f64(v / 1e3));
        spec.check().map_err(|_| positive())?;
    }
    f.finish()?;
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    const FULL: &str = "\
name: vgg19_hetero
model: vgg_19
mode: training
batch: 32
cluster:
  workers: 4
  parameter_servers: 2
  worker_speeds: [1.0, 1.0, 1.0, 0.5]
  link_bandwidths: [1.0, 1.0, 1.0, 0.25]
env: g
scheduler: tac
backend: sim
seed: 7
iterations: 4
warmup: 1
faults:
  straggler_prob: 0.25
  straggler_factor: 2.0
store: results/runs.jsonl
";

    #[test]
    fn parses_a_full_scenario() {
        let s = Scenario::parse(FULL).unwrap();
        assert_eq!(s.name, "vgg19_hetero");
        assert_eq!(s.model, Model::Vgg19);
        assert_eq!(s.mode, Mode::Training);
        assert_eq!(s.batch, 32);
        assert_eq!(s.cluster.workers, 4);
        assert_eq!(s.cluster.worker_speed(3), 0.5);
        assert_eq!(s.cluster.link_bandwidth(3, 1), 0.25);
        assert_eq!(s.scheduler, SchedulerKind::Tac);
        assert_eq!(s.backend, BackendKind::Sim);
        assert_eq!(s.seed, 7);
        assert_eq!(s.iterations, 4);
        assert_eq!(s.warmup, 1);
        assert_eq!(s.faults.straggler_prob, 0.25);
        assert_eq!(s.store.as_deref(), Some("results/runs.jsonl"));
        let cfg = s.sim_config();
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.faults.straggler_factor, 2.0);
    }

    #[test]
    fn defaults_fill_optional_fields() {
        let s =
            Scenario::parse("model: alexnet_v2\ncluster:\n  workers: 2\n  parameter_servers: 1\n")
                .unwrap();
        assert_eq!(s.name, "alexnet_v2");
        assert_eq!(s.batch, Model::AlexNetV2.default_batch());
        assert_eq!(s.mode, Mode::Training);
        assert_eq!(s.env, EnvPreset::G);
        assert_eq!(s.scheduler, SchedulerKind::Baseline);
        assert_eq!(s.backend, BackendKind::Sim);
        assert_eq!(s.seed, DEFAULT_SEED);
        assert_eq!(s.iterations, 10);
        assert_eq!(s.warmup, 2);
        assert!(s.faults.is_quiet());
        assert!(s.cluster.is_uniform());
        assert_eq!(s.store, None);
    }

    #[test]
    fn grid_expansion_is_the_cross_product() {
        let doc = "\
model: alexnet_v2
cluster:
  workers: 2
  parameter_servers: 1
scheduler: [baseline, tac]
backend: [sim, threaded]
seed: [1, 2, 3]
";
        let grid = Scenario::parse_grid(doc).unwrap();
        assert_eq!(grid.len(), 12);
        // Scheduler-major, seed-minor.
        assert_eq!(grid[0].scheduler, SchedulerKind::Baseline);
        assert_eq!(grid[0].backend, BackendKind::Sim);
        assert_eq!(grid[0].seed, 1);
        assert_eq!(grid[11].scheduler, SchedulerKind::Tac);
        assert_eq!(grid[11].backend, BackendKind::Threaded);
        assert_eq!(grid[11].seed, 3);
        // Every point has a distinct fingerprint.
        let mut fps: Vec<u64> = grid.iter().map(Scenario::fingerprint).collect();
        fps.sort_unstable();
        fps.dedup();
        assert_eq!(fps.len(), 12);
        // And `parse` refuses a grid.
        assert!(Scenario::parse(doc)
            .unwrap_err()
            .msg
            .contains("expands to 12"));
    }

    #[test]
    fn fingerprint_is_stable_and_semantic() {
        let s = Scenario::parse(FULL).unwrap();
        // Stable across parses.
        assert_eq!(
            s.fingerprint(),
            Scenario::parse(FULL).unwrap().fingerprint()
        );
        // Renaming or redirecting output does not change identity…
        let mut relabeled = s.clone();
        relabeled.name = "other".into();
        relabeled.store = None;
        assert_eq!(s.fingerprint(), relabeled.fingerprint());
        // …but any semantic change does.
        let mut other = s.clone();
        other.seed += 1;
        assert_ne!(s.fingerprint(), other.fingerprint());
        let mut other = s.clone();
        other.cluster = ClusterSpec::builder()
            .workers(4)
            .parameter_servers(2)
            .worker_speeds(vec![1.0, 1.0, 0.5, 1.0]) // straggler moved
            .link_bandwidths(vec![1.0, 1.0, 1.0, 0.25])
            .build()
            .unwrap();
        assert_ne!(s.fingerprint(), other.fingerprint());
    }

    #[test]
    fn rejects_unknown_and_invalid_fields() {
        let base = "model: alexnet_v2\ncluster:\n  workers: 2\n  parameter_servers: 1\n";
        let cases: &[(String, &str)] = &[
            (format!("{base}bogus: 1\n"), "unknown field `bogus`"),
            ("cluster:\n  workers: 2\n  parameter_servers: 1\n".into(), "missing required field `model`"),
            ("model: alexnet_v2\n".into(), "missing required field `cluster`"),
            ("model: notanet\ncluster:\n  workers: 1\n  parameter_servers: 1\n".into(), "unknown model"),
            (format!("{base}scheduler: fifo\n"), "unknown scheduler `fifo`"),
            (format!("{base}backend: gpu\n"), "backend must be"),
            (format!("{base}env: x\n"), "env must be"),
            (format!("{base}mode: eval\n"), "mode must be"),
            (format!("{base}iterations: many\n"), "invalid iterations"),
            (format!("{base}iterations: 0\n"), "line 5: iterations must be at least 1"),
            (format!("{base}batch: 0\n"), "line 5: batch must be at least 1"),
            (format!("{base}time_scale: -1\n"), "time_scale must be positive"),
            (
                "model: alexnet_v2\ncluster:\n  workers: 2\n  parameter_servers: 1\n  worker_speeds: [1.0]\n".into(),
                "invalid cluster",
            ),
            (
                "model: alexnet_v2\ncluster:\n  workers: 65536\n  parameter_servers: 1\n".into(),
                "invalid cluster: 65537 workers and parameter servers exceed the 65536 devices",
            ),
            (
                format!("{base}faults:\n  drop_prob: 1.5\n"),
                "must be in [0, 1]",
            ),
            (
                format!("{base}faults:\n  straggler_factor: 0.5\n"),
                "straggler_factor must be >= 1",
            ),
            (
                format!("{base}faults:\n  crash_prob: NaN\n"),
                "line 6: crash_prob must be in [0, 1]",
            ),
            (
                format!("{base}faults:\n  straggler_factor: inf\n"),
                "line 6: straggler_factor must be >= 1",
            ),
            (
                format!("{base}faults:\n  barrier_timeout_ms: 0\n"),
                "line 6: barrier_timeout_ms must be positive",
            ),
            (
                format!("{base}faults:\n  barrier_timeout_ms: 1e-9\n"),
                "line 6: barrier_timeout_ms must be positive",
            ),
            (
                format!("{base}faults:\n  warp_prob: 0.5\n"),
                "unknown field `warp_prob`",
            ),
        ];
        for (doc, want) in cases {
            let err = Scenario::parse_grid(doc).unwrap_err();
            assert!(
                err.to_string().contains(want),
                "expected {want:?} in `{err}`"
            );
        }
    }

    #[test]
    fn comm_section_lowers_onto_the_cluster() {
        let doc = "\
model: vgg_16
cluster:
  workers: 4
  parameter_servers: 2
comm:
  partition_bytes: 4194304
  fusion_bytes: 65536
";
        let s = Scenario::parse(doc).unwrap();
        assert_eq!(s.cluster.comm().partition_bytes, Some(4 << 20));
        assert_eq!(s.cluster.comm().fusion_bytes, Some(64 << 10));
        // A scenario without a `comm:` section keeps the default (both
        // passes off), and its fingerprint is unchanged from pre-comm
        // parses of the same document.
        let plain =
            Scenario::parse("model: vgg_16\ncluster:\n  workers: 4\n  parameter_servers: 2\n")
                .unwrap();
        assert!(plain.cluster.comm().is_default());
        assert_ne!(s.fingerprint(), plain.fingerprint());
        // Each threshold is semantic on its own.
        let part_only = Scenario::parse(
            "model: vgg_16\ncluster:\n  workers: 4\n  parameter_servers: 2\ncomm:\n  partition_bytes: 4194304\n",
        )
        .unwrap();
        assert_eq!(part_only.cluster.comm().fusion_bytes, None);
        assert_ne!(s.fingerprint(), part_only.fingerprint());
        assert_ne!(plain.fingerprint(), part_only.fingerprint());
    }

    #[test]
    fn comm_section_rejects_bad_thresholds() {
        let base = "model: alexnet_v2\ncluster:\n  workers: 2\n  parameter_servers: 1\n";
        let cases: &[(String, &str)] = &[
            (
                format!("{base}comm:\n  partition_bytes: 0\n"),
                "partition_bytes must be at least 1",
            ),
            (
                format!("{base}comm:\n  fusion_bytes: lots\n"),
                "invalid fusion_bytes",
            ),
            (
                format!("{base}comm:\n  chunk_count: 4\n"),
                "unknown field `chunk_count`",
            ),
            (format!("{base}comm: on\n"), "`comm` must be a section"),
        ];
        for (doc, want) in cases {
            let err = Scenario::parse_grid(doc).unwrap_err();
            assert!(
                err.to_string().contains(want),
                "expected {want:?} in `{err}`"
            );
        }
        // Errors carry the offending line number.
        let err =
            Scenario::parse_grid(&format!("{base}comm:\n  partition_bytes: 0\n")).unwrap_err();
        assert!(err.to_string().contains("line 6"), "got `{err}`");
    }

    #[test]
    fn fault_section_lowers_durations_from_millis() {
        let doc = "\
model: alexnet_v2
cluster:
  workers: 2
  parameter_servers: 1
faults:
  ps_stall_prob: 0.5
  ps_stall_ms: 5
  barrier_timeout_ms: 200
";
        let s = Scenario::parse(doc).unwrap();
        assert_eq!(s.faults.ps_stall, SimDuration::from_millis(5));
        assert_eq!(
            s.faults.barrier_timeout,
            Some(SimDuration::from_millis(200))
        );
    }
}

//! One grid point, two ways.
//!
//! The untraced run pays what a user pays: [`blackbox_session`] builds a
//! `Session` and runs it. The traced run does not treat the session as a
//! black box: [`staged_session`] walks the same pipeline through the
//! program's public functions, one span per call, so a pass decomposes
//! into layers. `core.replica_match_ratio` reports how faithfully the
//! staged walk reproduces the session's results.

use std::collections::BTreeMap;

use crate::layers::{
    self, DeployMemo, DeployedH, IterOut, RegistryH, RunOut, ScheduleH, SessionH, SinkH, Spec,
    StoreH, TraceH, View,
};
use crate::span::Tracer;

/// Named tallies of one pass (work done, bytes moved): the denominators
/// of the per-unit metrics and the exact counts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts(BTreeMap<&'static str, f64>);

impl Counts {
    pub fn add(&mut self, name: &'static str, amount: f64) {
        *self.0.entry(name).or_insert(0.0) += amount;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Correctness checks and failed operations of a run, counted into
/// `fail_ratio`.
#[derive(Debug, Clone, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the human report.
    pub messages: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Counts an operation; an `Err` is a failed operation.
    pub fn op<T>(&mut self, result: Result<T, String>, what: &str) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.messages.len() < 8 {
            self.messages.push(message);
        }
    }

    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for m in other.messages {
            if self.messages.len() < 8 {
                self.messages.push(m);
            }
        }
    }
}

/// The black-box path: `Session` build, then `try_run` (skipped for a
/// spec without iterations).
pub fn blackbox_session(
    tr: &mut Tracer,
    spec: &Spec,
    registry: &RegistryH,
    sink: Option<&SinkH>,
) -> Result<(SessionH, Option<RunOut>), String> {
    let session = tr.scope("core.session_build", || {
        layers::session_build(spec, registry, sink)
    })?;
    let out = if spec.iterations() > 0 {
        Some(tr.scope("core.session_run", || layers::session_run(&session))?)
    } else {
        None
    };
    Ok((session, out))
}

/// What the staged walk leaves behind.
#[derive(Debug)]
pub struct Staged {
    pub deployed: DeployedH,
    pub schedule: ScheduleH,
    pub iterations: Vec<IterOut>,
}

impl Staged {
    pub fn run_out(&self) -> RunOut {
        let n = self.iterations.len().max(1) as f64;
        RunOut {
            makespans_ns: self.iterations.iter().map(|i| i.makespan_ns).collect(),
            efficiencies: self.iterations.iter().map(|i| i.efficiency).collect(),
            mean_throughput: self.iterations.iter().map(|i| i.throughput).sum::<f64>() / n,
            retransmits: self.iterations.iter().map(IterOut::retransmits).sum(),
            drops: self.iterations.iter().map(IterOut::drops).sum(),
        }
    }
}

/// One simulated iteration under the span of the engine that runs it.
#[allow(clippy::too_many_arguments)]
pub fn simulate_spanned(
    tr: &mut Tracer,
    counts: &mut Counts,
    deployed: &DeployedH,
    schedule: &ScheduleH,
    spec: &Spec,
    iteration: u64,
    registry: &RegistryH,
    parallel: bool,
) -> Result<TraceH, String> {
    let plan = tr.scope("faults.plan_sample", || {
        layers::sample_plan(deployed, spec, iteration)
    });
    let ops = layers::view(deployed, schedule).graph_ops() as f64;
    if parallel {
        counts.add("sim.par.ops", ops);
        tr.scope_cpu("sim.par", || {
            layers::simulate(deployed, schedule, spec, iteration, &plan, registry)
        })
    } else {
        counts.add("sim.seq.ops", ops);
        tr.scope("sim.seq", || {
            layers::simulate(deployed, schedule, spec, iteration, &plan, registry)
        })
    }
}

/// The staged path: build → deploy → (TAC: profile) → schedule →
/// replicate → per iteration simulate, analyze, efficiency, inversions →
/// encode → append. Mirrors `Session::builder(..).build()` plus
/// `try_run`, including what the session skips (inversions are detected
/// only for recorded runs; deployments are reused within a pass).
pub fn staged_session(
    tr: &mut Tracer,
    counts: &mut Counts,
    memo: &mut DeployMemo,
    spec: &Spec,
    registry: &RegistryH,
    store: Option<&StoreH>,
) -> Result<Staged, String> {
    let model = tr.scope("models.build", || layers::build_model(spec));
    let deployed = match memo.get(&model, spec) {
        Some(hit) => hit,
        None => {
            let name = if spec.has_comm_passes() {
                "cluster.deploy_comm"
            } else {
                "cluster.deploy"
            };
            let deployed = tr.scope(name, || layers::deploy(&model, spec))?;
            memo.put(&model, spec, &deployed);
            deployed
        }
    };
    let unordered = layers::unordered(&deployed);
    let graph_ops = layers::view(&deployed, &unordered).graph_ops() as f64;
    counts.add("deploy.graph_ops", graph_ops);

    let reference = match spec.scheduler_name() {
        "tic" => tr.scope("sched.tic", || layers::tic(&deployed, registry)),
        "tac" => {
            // The session profiles with observers off, so the parallel
            // engine is available to it whenever the config is eligible.
            let parallel = layers::engine_is_parallel(&deployed, spec, true);
            let profiling = tr.enter("sim.profile");
            let mut traces = Vec::with_capacity(5);
            for run in 0..5 {
                let (name, tally) = if parallel {
                    ("sim.par", "sim.par.ops")
                } else {
                    ("sim.seq", "sim.seq.ops")
                };
                counts.add(tally, graph_ops);
                let simulate = || layers::profile_simulate(&deployed, &unordered, spec, run);
                traces.push(if parallel {
                    tr.scope_cpu(name, simulate)
                } else {
                    tr.scope(name, simulate)
                });
            }
            tr.exit(profiling);
            let profile = tr.scope("trace.estimate_profile", || {
                layers::estimate_profile(traces)
            });
            counts.add(
                "sched.tac.recvs",
                layers::view(&deployed, &unordered).reference_recvs() as f64,
            );
            tr.scope("sched.tac", || layers::tac(&deployed, &profile, registry))
        }
        _ => unordered,
    };
    let schedule = tr.scope("cluster.replicate", || {
        layers::replicate(&deployed, &reference)
    });

    let view = layers::view(&deployed, &schedule);
    let parallel = !registry.is_enabled() && layers::engine_is_parallel(&deployed, spec, false);
    let worker_ops = tr.scope("sched.efficiency", || layers::worker_ops(view));
    let mut iterations = Vec::with_capacity(spec.iterations());
    for i in 0..(spec.warmup() + spec.iterations()) as u64 {
        let trace = simulate_spanned(
            tr, counts, &deployed, &schedule, spec, i, registry, parallel,
        )?;
        if (i as usize) < spec.warmup() {
            continue;
        }
        let inversions = if store.is_some() {
            tr.scope("obs.inversions", || layers::inversions(view, &trace))
        } else {
            0
        };
        let mut it = tr.scope("trace.analyze", || {
            layers::analyze(view, &trace, spec.batch())
        });
        let (efficiency, potential) = tr.scope("sched.efficiency", || {
            layers::efficiency_of(view, &worker_ops, &trace)
        });
        it.efficiency = efficiency;
        it.speedup_potential = potential;
        it.inversions = inversions;
        iterations.push(it);
    }

    if let Some(store) = store {
        let fingerprint = tr.scope("scenario.fingerprint", || spec.scenario_fingerprint());
        let record = layers::make_record(spec, &model, fingerprint, &iterations, registry);
        // The session hands the record straight to the store, which
        // encodes it; encoding once more here prices that step alone.
        let line = tr.scope("store.encode", || record.encode());
        counts.add("store.encode.bytes", line.len() as f64);
        tr.scope("store.append", || store.append(record))?;
    }
    Ok(Staged {
        deployed,
        schedule,
        iterations,
    })
}

/// A finished point of either path, for the steps that follow a run
/// (tracing one more iteration, analysing it, exporting it).
#[derive(Debug)]
pub enum Ran {
    Session(Box<SessionH>),
    Staged(Staged),
}

impl Ran {
    pub fn view(&self) -> View<'_> {
        match self {
            Ran::Session(s) => s.view(),
            Ran::Staged(s) => layers::view(&s.deployed, &s.schedule),
        }
    }

    /// Executes iteration `iteration` once more and returns its trace:
    /// `Session::trace_iteration`, or the staged equivalent.
    pub fn trace(
        &self,
        tr: &mut Tracer,
        counts: &mut Counts,
        spec: &Spec,
        iteration: u64,
        registry: &RegistryH,
    ) -> Result<TraceH, String> {
        match self {
            // The session owns its registry; `registry` only matters to
            // the staged walk.
            Ran::Session(s) => tr.scope("core.session_run", || s.trace_iteration(iteration)),
            Ran::Staged(s) => {
                let parallel =
                    !registry.is_enabled() && layers::engine_is_parallel(&s.deployed, spec, false);
                simulate_spanned(
                    tr,
                    counts,
                    &s.deployed,
                    &s.schedule,
                    spec,
                    iteration,
                    registry,
                    parallel,
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::points::{Built, Env};

    fn tiny(scheduler: &'static str) -> Spec {
        Spec::built(&Built {
            model: "alexnet_v2",
            batch: Some(2),
            workers: 2,
            ps: 1,
            env: Env::G,
            scheduler,
            warmup: 1,
            iterations: 2,
            seed: 11,
        })
        .unwrap()
    }

    #[test]
    fn staged_walk_reproduces_the_session() {
        for scheduler in ["baseline", "tic", "tac"] {
            let spec = tiny(scheduler);
            let mut tr = Tracer::new(true);
            let (_, out) = blackbox_session(&mut tr, &spec, &RegistryH::disabled(), None).unwrap();
            let staged = staged_session(
                &mut tr,
                &mut Counts::default(),
                &mut DeployMemo::default(),
                &spec,
                &RegistryH::disabled(),
                None,
            )
            .unwrap();
            assert_eq!(staged.run_out(), out.unwrap(), "{scheduler}");
        }
    }

    #[test]
    fn staged_walk_records_one_span_per_call() {
        let mut tr = Tracer::new(true);
        let mut counts = Counts::default();
        staged_session(
            &mut tr,
            &mut counts,
            &mut DeployMemo::default(),
            &tiny("tac"),
            &RegistryH::disabled(),
            None,
        )
        .unwrap();
        let totals = crate::span::totals_by_name(&tr.take());
        assert_eq!(totals["models.build"].calls, 1);
        assert_eq!(totals["sim.profile"].calls, 1);
        // 5 profiling runs + 1 warm-up + 2 measured iterations.
        assert_eq!(totals["sim.seq"].calls, 8);
        assert_eq!(totals["trace.analyze"].calls, 2);
        assert!(!totals.contains_key("store.append"));
        assert!(counts.get("sim.seq.ops") > 0.0);
    }

    #[test]
    fn checks_count_attempts_and_failures() {
        let mut checks = Checks::default();
        checks.check(true, || "fine".into());
        checks.check(false, || "broken".into());
        assert_eq!(checks.op(Ok::<_, String>(3), "op"), Some(3));
        assert_eq!(checks.op(Err::<u8, _>("boom".to_string()), "op"), None);
        assert_eq!((checks.attempted, checks.failed), (4, 2));
        assert_eq!(checks.messages, ["broken", "op: boom"]);
    }
}

//! Process-wide memoization of deployment and schedule derivation.
//!
//! Deploying a model onto a cluster and deriving its TIC/TAC schedule are
//! pure functions of `(model, cluster, scheduler, simulation config)` —
//! the repro sweeps re-derive the same handful of deployments hundreds of
//! times (four policies × many grid points per model). The [`DeployCache`]
//! memoizes both levels behind `Arc`s so every [`Session`] sharing a
//! configuration also shares one deployed graph and one schedule vector:
//!
//! * **deploy level** — keyed by `(model fingerprint, ClusterSpec)`;
//! * **schedule level** — additionally keyed by the [`SchedulerKind`] and
//!   a hash of every schedule-relevant part of the [`SimConfig`].
//!
//! Two invariants keep hits byte-identical to cold computation:
//!
//! 1. Fault injection never reaches schedule derivation (TAC profiles
//!    fault-free, §5), so the config hash is taken with the fault spec
//!    normalized away — sessions that differ only in faults share a
//!    schedule, exactly as they would when computed cold.
//! 2. An *enabled* metrics [`Registry`] bypasses the schedule-cache read:
//!    observed sessions always re-derive so `sched.*` counters fire, and
//!    since observation never perturbs the result, the recomputed
//!    schedule matches the cached one bit for bit.
//!
//! [`Session`]: crate::Session

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use tictac_cluster::{deploy, ClusterSpec, DeployError, DeployedModel};
use tictac_graph::{Fnv1a, ModelGraph};
use tictac_obs::Registry;
use tictac_sched::{Schedule, SchedulerKind};
use tictac_sim::{FaultSpec, SimConfig};

use crate::session::compute_schedule;

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct DeployKey {
    fingerprint: u64,
    cluster: ClusterSpec,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct SchedKey {
    deploy: DeployKey,
    scheduler: SchedulerKind,
    config_hash: u64,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct EvalKey {
    sched: SchedKey,
    samples: u32,
}

/// Hit/miss counters of a [`DeployCache`], one pair per level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Deployments served from the cache.
    pub deploy_hits: u64,
    /// Deployments computed cold.
    pub deploy_misses: u64,
    /// Schedules served from the cache.
    pub schedule_hits: u64,
    /// Schedules computed cold (observed sessions always count here).
    pub schedule_misses: u64,
    /// Tuning evaluations served from the cache (warm re-tunes).
    pub eval_hits: u64,
    /// Tuning evaluations simulated cold.
    pub eval_misses: u64,
}

/// FNV-1a over the `Debug` rendering of the config with faults stripped:
/// everything that can influence schedule derivation (platform constants,
/// noise model, seed) and nothing that cannot.
fn schedule_config_hash(config: &SimConfig) -> u64 {
    let normalized = config.clone().with_faults(FaultSpec::none());
    Fnv1a::new()
        .bytes(format!("{normalized:?}").as_bytes())
        .finish()
}

/// A two-level deploy/schedule memoizer. See the module docs.
///
/// `Session::builder(..).build()` consults the process-wide
/// [`DeployCache::global`] instance automatically; standalone handles
/// ([`DeployCache::new`]) exist for tests that need isolation.
#[derive(Debug, Default)]
pub struct DeployCache {
    deploys: Mutex<HashMap<DeployKey, Arc<DeployedModel>>>,
    schedules: Mutex<HashMap<SchedKey, Arc<Schedule>>>,
    evals: Mutex<HashMap<EvalKey, f64>>,
    deploy_hits: AtomicU64,
    deploy_misses: AtomicU64,
    schedule_hits: AtomicU64,
    schedule_misses: AtomicU64,
    eval_hits: AtomicU64,
    eval_misses: AtomicU64,
}

impl DeployCache {
    /// An empty, private cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide cache every session builder goes through.
    pub fn global() -> &'static DeployCache {
        static GLOBAL: OnceLock<DeployCache> = OnceLock::new();
        GLOBAL.get_or_init(DeployCache::new)
    }

    /// Deploys `model` onto `cluster`, or returns the shared deployment
    /// if this `(model, cluster)` pair was deployed before.
    ///
    /// The expensive computation runs outside the cache lock, so parallel
    /// sweeps never serialize on a miss; concurrent misses of the same
    /// key deploy redundantly and the first insertion wins.
    ///
    /// # Errors
    ///
    /// Returns a [`DeployError`] if the cluster spec or model is invalid.
    pub fn deploy(
        &self,
        model: &ModelGraph,
        cluster: &ClusterSpec,
    ) -> Result<Arc<DeployedModel>, DeployError> {
        let key = DeployKey {
            fingerprint: model.fingerprint(),
            cluster: cluster.clone(),
        };
        if let Some(hit) = lock(&self.deploys).get(&key) {
            self.deploy_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(hit));
        }
        self.deploy_misses.fetch_add(1, Ordering::Relaxed);
        let deployed = Arc::new(deploy(model, cluster)?);
        Ok(Arc::clone(
            lock(&self.deploys).entry(key).or_insert(deployed),
        ))
    }

    /// Deploys `model` and derives its schedule, serving both from the
    /// cache where possible.
    ///
    /// An enabled `registry` bypasses the schedule-cache *read* (so
    /// `sched.*` metrics observe a real derivation) but still populates
    /// the cache: observation never changes the derived schedule.
    ///
    /// # Errors
    ///
    /// Returns a [`DeployError`] if the cluster spec or model is invalid.
    pub fn schedule(
        &self,
        model: &ModelGraph,
        cluster: &ClusterSpec,
        scheduler: SchedulerKind,
        config: &SimConfig,
        registry: &Registry,
    ) -> Result<(Arc<DeployedModel>, Arc<Schedule>), DeployError> {
        let deployed = self.deploy(model, cluster)?;
        let key = SchedKey {
            deploy: DeployKey {
                fingerprint: model.fingerprint(),
                cluster: cluster.clone(),
            },
            scheduler,
            config_hash: schedule_config_hash(config),
        };
        if !registry.is_enabled() {
            if let Some(hit) = lock(&self.schedules).get(&key) {
                self.schedule_hits.fetch_add(1, Ordering::Relaxed);
                return Ok((deployed, Arc::clone(hit)));
            }
        }
        self.schedule_misses.fetch_add(1, Ordering::Relaxed);
        let schedule = Arc::new(compute_schedule(&deployed, scheduler, config, registry));
        let shared = Arc::clone(lock(&self.schedules).entry(key).or_insert(schedule));
        Ok((deployed, shared))
    }

    /// Memoizes one communication-tuning evaluation: the makespan metric
    /// of `(model, cluster, scheduler, config)` measured over `samples`
    /// fault-free iterations. A hit skips deployment, scheduling *and*
    /// simulation — this is what makes warm re-tunes effectively free.
    ///
    /// `compute` receives the shared deployment and schedule and runs
    /// outside the cache lock.
    ///
    /// # Errors
    ///
    /// Returns a [`DeployError`] if the cluster spec or model is invalid.
    pub(crate) fn tune_eval<F>(
        &self,
        model: &ModelGraph,
        cluster: &ClusterSpec,
        scheduler: SchedulerKind,
        config: &SimConfig,
        samples: u32,
        compute: F,
    ) -> Result<f64, DeployError>
    where
        F: FnOnce(&DeployedModel, &Schedule) -> f64,
    {
        let key = EvalKey {
            sched: SchedKey {
                deploy: DeployKey {
                    fingerprint: model.fingerprint(),
                    cluster: cluster.clone(),
                },
                scheduler,
                config_hash: schedule_config_hash(config),
            },
            samples,
        };
        if let Some(&hit) = lock(&self.evals).get(&key) {
            self.eval_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(hit);
        }
        self.eval_misses.fetch_add(1, Ordering::Relaxed);
        let (deployed, schedule) =
            self.schedule(model, cluster, scheduler, config, &Registry::disabled())?;
        let value = compute(&deployed, &schedule);
        lock(&self.evals).insert(key, value);
        Ok(value)
    }

    /// Hit/miss counters since construction (or the process start, for
    /// the global cache).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            deploy_hits: self.deploy_hits.load(Ordering::Relaxed),
            deploy_misses: self.deploy_misses.load(Ordering::Relaxed),
            schedule_hits: self.schedule_hits.load(Ordering::Relaxed),
            schedule_misses: self.schedule_misses.load(Ordering::Relaxed),
            eval_hits: self.eval_hits.load(Ordering::Relaxed),
            eval_misses: self.eval_misses.load(Ordering::Relaxed),
        }
    }

    /// Drops every cached deployment, schedule and tuning evaluation
    /// (counters are kept).
    pub fn clear(&self) {
        lock(&self.deploys).clear();
        lock(&self.schedules).clear();
        lock(&self.evals).clear();
    }
}

/// Locks a cache level; a poisoned lock only means another thread
/// panicked mid-insert on this `HashMap` of immutable `Arc`s, so the data
/// is still consistent and the lock is recovered.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tictac_graph::{tiny_mlp, Mode};

    #[test]
    fn deploy_hits_share_one_arc() {
        let cache = DeployCache::new();
        let model = tiny_mlp(Mode::Training, 8);
        let spec = ClusterSpec::new(2, 1);
        let a = cache.deploy(&model, &spec).unwrap();
        let b = cache.deploy(&model, &spec).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let stats = cache.stats();
        assert_eq!((stats.deploy_hits, stats.deploy_misses), (1, 1));
    }

    #[test]
    fn schedule_hits_share_one_arc_and_differ_by_key() {
        let cache = DeployCache::new();
        let model = tiny_mlp(Mode::Training, 8);
        let spec = ClusterSpec::new(2, 1);
        let config = SimConfig::cloud_gpu();
        let registry = Registry::disabled();
        let (_, a) = cache
            .schedule(&model, &spec, SchedulerKind::Tac, &config, &registry)
            .unwrap();
        let (_, b) = cache
            .schedule(&model, &spec, SchedulerKind::Tac, &config, &registry)
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        // A different policy or cluster misses.
        let (_, c) = cache
            .schedule(&model, &spec, SchedulerKind::Tic, &config, &registry)
            .unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        let (_, d) = cache
            .schedule(
                &model,
                &ClusterSpec::new(3, 1),
                SchedulerKind::Tac,
                &config,
                &registry,
            )
            .unwrap();
        assert!(!Arc::ptr_eq(&a, &d));
    }

    #[test]
    fn fault_spec_does_not_split_the_schedule_key() {
        use tictac_trace::{RetryPolicy, SimDuration};
        let faulty = SimConfig::cloud_gpu().with_faults(
            FaultSpec::none()
                .with_drop_prob(0.5)
                .with_retry(RetryPolicy::fixed(SimDuration::from_micros(50), 40)),
        );
        assert_eq!(
            schedule_config_hash(&SimConfig::cloud_gpu()),
            schedule_config_hash(&faulty),
            "schedule derivation is fault-blind, so the key must be too"
        );
        let mut other = SimConfig::cloud_gpu();
        other.seed ^= 1;
        assert_ne!(
            schedule_config_hash(&SimConfig::cloud_gpu()),
            schedule_config_hash(&other),
            "the seed feeds the Random policy and must split the key"
        );
    }

    #[test]
    fn tune_evals_memoize_and_split_by_comm_config() {
        use tictac_cluster::CommConfig;
        let cache = DeployCache::new();
        let model = tiny_mlp(Mode::Training, 8);
        let config = SimConfig::cloud_gpu();
        let spec = ClusterSpec::new(2, 1);
        let v1 = cache
            .tune_eval(&model, &spec, SchedulerKind::Tac, &config, 2, |d, s| {
                assert_eq!(s.len(), d.graph().len());
                1.5
            })
            .unwrap();
        let v2 = cache
            .tune_eval(&model, &spec, SchedulerKind::Tac, &config, 2, |_, _| {
                panic!("warm re-tune must be served from the cache")
            })
            .unwrap();
        assert_eq!(v1, v2);
        // A different comm granularity must not alias.
        let tuned = spec
            .clone()
            .with_comm(CommConfig::default().with_fusion_bytes(Some(1024)));
        let v3 = cache
            .tune_eval(&model, &tuned, SchedulerKind::Tac, &config, 2, |_, _| 2.5)
            .unwrap();
        assert_eq!(v3, 2.5);
        let stats = cache.stats();
        assert_eq!((stats.eval_hits, stats.eval_misses), (1, 2));
    }

    #[test]
    fn enabled_registry_bypasses_the_cached_read() {
        let cache = DeployCache::new();
        let model = tiny_mlp(Mode::Training, 8);
        let spec = ClusterSpec::new(2, 1);
        let config = SimConfig::cloud_gpu();
        let (_, cold) = cache
            .schedule(
                &model,
                &spec,
                SchedulerKind::Tac,
                &config,
                &Registry::disabled(),
            )
            .unwrap();
        let registry = Registry::enabled();
        let (_, observed) = cache
            .schedule(&model, &spec, SchedulerKind::Tac, &config, &registry)
            .unwrap();
        assert_eq!(*cold, *observed, "observation never changes the result");
        assert!(
            registry.snapshot().counter("sched.tac.merges").is_some(),
            "observed derivation must actually run"
        );
        assert_eq!(cache.stats().schedule_misses, 2, "bypass counts as a miss");
    }
}

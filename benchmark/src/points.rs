//! Point lists: the generated inputs of each workload, as plain data.
//!
//! A workload is a fixed list of grid points made from `--seed`; the same
//! seed gives the same list. What the seed changes is what a user's own
//! sweep would change between repetitions: the simulation seed of every
//! scenario document and session, and the seed field of every appended
//! run record. Shapes (models, clusters, counts) are fixed, so runs with
//! different seeds do comparable work.
//!
//! Why these four workloads, and which layer each one stresses, is in
//! `README.md`.

/// The four workloads, in report order.
pub const WORKLOADS: [&str; 4] = [
    "zoo_sweep",
    "scale_sweep",
    "observe_export",
    "store_history",
];

/// SplitMix64: the seed stream every generated value is drawn from.
#[derive(Debug, Clone)]
pub struct SeedStream(u64);

impl SeedStream {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A 31-bit simulation seed: short in YAML and exact in JSON numbers.
    pub fn sim_seed(&mut self) -> u64 {
        self.next_u64() >> 33
    }
}

/// Platform preset of a built (non-scenario) point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Env {
    /// envG with realistic noise (the scenario DSL's `env: g`).
    G,
    /// Deterministic envG with disorder window 1: the only configuration
    /// the parallel engine accepts, which the DSL cannot express.
    Deterministic,
}

/// A session assembled through the builder API rather than a scenario
/// document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Built {
    pub model: &'static str,
    /// `None` = the model's Table-1 batch.
    pub batch: Option<usize>,
    pub workers: usize,
    pub ps: usize,
    pub env: Env,
    pub scheduler: &'static str,
    pub warmup: usize,
    pub iterations: usize,
    pub seed: u64,
}

/// One scenario document of `zoo_sweep`; expands to one point per
/// scheduler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Doc {
    /// Slice of the grid (`A`..`D`, see [`zoo_sweep`]).
    pub slice: char,
    pub text: String,
}

/// Schedulers every `zoo_sweep` document expands over.
pub const ZOO_SCHEDULERS: [&str; 3] = ["baseline", "tic", "tac"];

const ZOO: [&str; 10] = [
    "alexnet_v2",
    "inception_v1",
    "inception_v2",
    "inception_v3",
    "resnet_v1_50",
    "resnet_v1_101",
    "resnet_v2_50",
    "resnet_v2_101",
    "vgg_16",
    "vgg_19",
];

/// Fault spec of slice C (recoverable: drops retransmit, nothing crashes).
const SLICE_C_FAULTS: &str = "\
faults:
  drop_prob: 0.02
  straggler_prob: 0.25
  straggler_factor: 2.0
  ps_stall_prob: 0.1
  ps_stall_ms: 20
";

fn doc(
    slice: char,
    model: &str,
    cluster: &str,
    env: char,
    extra: &str,
    seed: u64,
    store: &str,
) -> Doc {
    let text = format!(
        "name: zoo_{slice}_{model}\n\
         model: {model}\n\
         cluster:\n{cluster}\
         env: {env}\n\
         scheduler: [{}]\n\
         seed: {seed}\n\
         iterations: 10\n\
         warmup: 2\n\
         {extra}\
         store: {store}\n",
        ZOO_SCHEDULERS.join(", ")
    );
    Doc { slice, text }
}

/// The paper's evaluation grid: small clusters, many points. Every
/// document records into the run store at `store`.
///
/// * A — all ten zoo models, 8 workers × 2 PS, envG;
/// * B — four models at 4 × 1, envC;
/// * C — three models at 8 × 2, envC, with recoverable faults;
/// * D — the heterogeneous `vgg19_hetero` cluster, and vgg_16 with the
///   partition/fusion `comm:` block of `examples/scenarios/autotune.yml`.
pub fn zoo_sweep(seed: u64, store: &str) -> Vec<Doc> {
    let mut seeds = SeedStream::new(seed);
    let uniform = |w: usize, ps: usize| format!("  workers: {w}\n  parameter_servers: {ps}\n");
    let mut docs = Vec::new();
    for model in ZOO {
        docs.push(doc(
            'A',
            model,
            &uniform(8, 2),
            'g',
            "",
            seeds.sim_seed(),
            store,
        ));
    }
    for model in ["alexnet_v2", "inception_v2", "resnet_v2_50", "vgg_19"] {
        docs.push(doc(
            'B',
            model,
            &uniform(4, 1),
            'c',
            "",
            seeds.sim_seed(),
            store,
        ));
    }
    for model in ["inception_v1", "resnet_v1_50", "vgg_16"] {
        docs.push(doc(
            'C',
            model,
            &uniform(8, 2),
            'c',
            SLICE_C_FAULTS,
            seeds.sim_seed(),
            store,
        ));
    }
    let hetero = "  workers: 4\n  parameter_servers: 2\n  \
                  worker_speeds: [1.0, 1.0, 1.0, 0.5]\n  \
                  link_bandwidths: [1.0, 1.0, 1.0, 0.25]\n";
    docs.push(doc('D', "vgg_19", hetero, 'g', "", seeds.sim_seed(), store));
    let comm = "comm:\n  partition_bytes: 4194304\n  fusion_bytes: 65536\n";
    docs.push(doc(
        'D',
        "vgg_16",
        &uniform(4, 2),
        'g',
        comm,
        seeds.sim_seed(),
        store,
    ));
    docs
}

/// Parameter tensors per model (Table 1), the upper bound on PS shards.
fn params_of(model: &str) -> usize {
    match model {
        "alexnet_v2" => 16,
        "inception_v1" => 116,
        "vgg_16" => 32,
        other => panic!("no parameter count for {other}"),
    }
}

/// Cluster sizes on both sides of the parallel-engine threshold (64):
/// TIC and TAC sessions of two iterations, batch 2, unrecorded.
pub fn scale_sweep(seed: u64) -> Vec<Built> {
    let mut seeds = SeedStream::new(seed);
    let grid: [(&'static str, &[usize]); 3] = [
        ("alexnet_v2", &[32, 64, 128, 256]),
        ("vgg_16", &[32, 64, 128, 256]),
        ("inception_v1", &[32, 64]),
    ];
    let mut points = Vec::new();
    for (model, sizes) in grid {
        for &workers in sizes {
            let seed = seeds.sim_seed();
            for scheduler in ["tic", "tac"] {
                points.push(Built {
                    model,
                    batch: Some(2),
                    workers,
                    ps: (workers / 32).clamp(1, params_of(model)),
                    env: Env::Deterministic,
                    scheduler,
                    warmup: 0,
                    iterations: 2,
                    seed,
                });
            }
        }
    }
    points
}

/// The points of `observe_export`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObservePoints {
    /// Sessions run with an enabled metrics registry, then analysed and
    /// exported (overlap, realized efficiency, inversions, Perfetto
    /// render, snapshot render).
    pub observed: Vec<Built>,
    /// Small sessions whose first iteration is rendered to Perfetto JSON
    /// and parsed back by the validator (51–235 KB documents).
    pub validated: Vec<Built>,
}

pub fn observe_export(seed: u64) -> ObservePoints {
    let mut seeds = SeedStream::new(seed);
    let mut session = |model, workers, ps, env, scheduler| Built {
        model,
        batch: None,
        workers,
        ps,
        env,
        scheduler,
        warmup: 2,
        iterations: 10,
        seed: seeds.sim_seed(),
    };
    let observed = vec![
        session("inception_v3", 8, 2, Env::G, "tac"),
        session("resnet_v1_101", 8, 2, Env::G, "tac"),
        session("vgg_16", 8, 2, Env::G, "baseline"),
        // Parallel-eligible by default; observers force the sequential
        // engine.
        session("alexnet_v2", 64, 2, Env::Deterministic, "tic"),
    ];
    let validated = vec![
        session("alexnet_v2", 4, 1, Env::G, "tic"),
        session("vgg_16", 4, 1, Env::G, "tic"),
        session("resnet_v1_50", 2, 1, Env::G, "tic"),
        session("vgg_19", 8, 2, Env::G, "tic"),
    ];
    ObservePoints {
        observed,
        validated,
    }
}

/// Rounds of one `store_history` pass, and appends per round.
pub const STORE_ROUNDS: usize = 15;
pub const APPENDS_PER_ROUND: usize = 100;
/// Distinct seed values the appended records cycle through, so every
/// regression group (template × seed) grows a history of its own.
const STORE_SEEDS: usize = 5;

/// The inputs of `store_history`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorePoints {
    /// Sessions whose records are captured in memory during set-up and
    /// used as append templates (3 models × {tic, tac}).
    pub templates: Vec<Built>,
    /// Seed field of each appended record, in append order.
    pub record_seeds: Vec<u64>,
}

pub fn store_history(seed: u64) -> StorePoints {
    let mut seeds = SeedStream::new(seed);
    let mut templates = Vec::new();
    for model in ["alexnet_v2", "inception_v1", "resnet_v1_50"] {
        let seed = seeds.sim_seed();
        for scheduler in ["tic", "tac"] {
            templates.push(Built {
                model,
                batch: None,
                workers: 4,
                ps: 1,
                env: Env::G,
                scheduler,
                warmup: 2,
                iterations: 10,
                seed,
            });
        }
    }
    let palette: Vec<u64> = (0..STORE_SEEDS).map(|_| seeds.sim_seed()).collect();
    // Template-major cycling: consecutive appends walk the templates, and
    // the seed advances once per full walk.
    let record_seeds = (0..STORE_ROUNDS * APPENDS_PER_ROUND)
        .map(|i| palette[(i / templates.len()) % STORE_SEEDS])
        .collect();
    StorePoints {
        templates,
        record_seeds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_give_equal_point_lists() {
        assert_eq!(zoo_sweep(7, "s.jsonl"), zoo_sweep(7, "s.jsonl"));
        assert_eq!(scale_sweep(7), scale_sweep(7));
        assert_eq!(observe_export(7), observe_export(7));
        assert_eq!(store_history(7), store_history(7));
    }

    #[test]
    fn different_seeds_give_different_point_lists() {
        assert_ne!(zoo_sweep(7, "s.jsonl"), zoo_sweep(8, "s.jsonl"));
        assert_ne!(scale_sweep(7), scale_sweep(8));
        assert_ne!(observe_export(7), observe_export(8));
        assert_ne!(store_history(7), store_history(8));
    }

    #[test]
    fn point_counts_match_the_documented_grids() {
        let docs = zoo_sweep(1, "s.jsonl");
        assert_eq!(docs.len() * ZOO_SCHEDULERS.len(), 57);
        assert_eq!(docs.iter().filter(|d| d.slice == 'C').count(), 3);
        assert!(docs
            .iter()
            .all(|d| d.text.contains("faults:") == (d.slice == 'C')));
        assert_eq!(scale_sweep(1).len(), 20);
        let observe = observe_export(1);
        assert_eq!((observe.observed.len(), observe.validated.len()), (4, 4));
        let store = store_history(1);
        assert_eq!(store.templates.len(), 6);
        assert_eq!(store.record_seeds.len(), 1500);
    }

    #[test]
    fn scale_sweep_shards_follow_the_worker_count() {
        let shards: Vec<(usize, usize)> = scale_sweep(1)
            .iter()
            .filter(|p| p.model == "vgg_16" && p.scheduler == "tic")
            .map(|p| (p.workers, p.ps))
            .collect();
        assert_eq!(shards, [(32, 1), (64, 2), (128, 4), (256, 8)]);
    }
}

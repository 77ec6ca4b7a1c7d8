//! Heap bytes per op of what a cached deployment holds (DESIGN.md §7,
//! *Bytes per op*), counted by a global allocator around each level of a
//! fresh `DeployCache`: the deployment, then each schedule derived on it.
//! One test in this binary, so no other thread allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use tictac::{
    ClusterSpec, CommConfig, DeployCache, Mode, Model, ParamId, Platform, Registry, SchedulerKind,
    SimConfig,
};

/// The system allocator, keeping a count of the bytes live.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded to `System` unchanged; the counter only
// observes the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, size);
        if !q.is_null() {
            LIVE.fetch_add(size, Relaxed);
            LIVE.fetch_sub(layout.size(), Relaxed);
        }
        q
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Bytes `f` leaves live: what it returns plus what it cached.
fn kept<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.load(Relaxed);
    let value = f();
    (value, LIVE.load(Relaxed) - before)
}

/// A deployment stores one worker's block and the shared ops once
/// (DESIGN.md §7, *Bytes per op*; §10): a 24-byte `Op` that stores no
/// name, the edge arenas with no spare reservation and the device index
/// per stored op, then the model-op strings and the per-device and
/// per-channel tables. Over the ops it runs, every worker's counted, it
/// holds ≤ 8 B an op on vgg_16 and inception_v1 at W = 16, 32, 64 and
/// 256, training, batch 2, and ≤ 2 on vgg_16 at W = 64 deployed with both
/// comm passes on. Its bytes at W = 256 are within ×2.5 of its bytes at
/// W = 16: only the per-device and per-channel tables grow with W. A TIC
/// or TAC schedule on the plain shapes holds ≤ 1.5 B per op (a presence
/// bit an op, a rank word per 64 ops, eight bytes per prioritized recv).
#[test]
fn a_cached_deployment_and_its_schedules_stay_within_their_bytes_per_op() {
    let config = SimConfig::deterministic(Platform::cloud_gpu()).with_disorder_window(Some(1));
    let comm = CommConfig::default()
        .with_partition_bytes(Some(1 << 20))
        .with_fusion_bytes(Some(64 << 10));
    let mut at_16 = std::collections::HashMap::new();
    for (model, workers, ps, comm, bound) in [
        (Model::Vgg16, 16, 2, CommConfig::default(), 8.0),
        (Model::InceptionV1, 16, 1, CommConfig::default(), 8.0),
        (Model::Vgg16, 64, 2, CommConfig::default(), 8.0),
        (Model::InceptionV1, 32, 1, CommConfig::default(), 8.0),
        (Model::Vgg16, 256, 2, CommConfig::default(), 8.0),
        (Model::InceptionV1, 256, 1, CommConfig::default(), 8.0),
        (Model::Vgg16, 64, 2, comm, 2.0),
    ] {
        let graph = model.build_with_batch(Mode::Training, 2);
        let cluster = ClusterSpec::new(workers, ps).with_comm(comm);
        let cache = DeployCache::new();
        let (deployed, deployment) = kept(|| cache.deploy(&graph, &cluster).unwrap());
        let ops = deployed.graph().len() as f64;
        let shape = format!("{} {workers} x {ps} {comm:?}", model.name());
        let per_op = deployment as f64 / ops;
        assert!(per_op <= bound, "{shape}: deployment {per_op:.2} B/op");
        if workers == 16 {
            at_16.insert(model.name(), deployment);
        }
        if workers == 256 {
            let ratio = deployment as f64 / at_16[model.name()] as f64;
            assert!(ratio <= 2.5, "{shape}: x{ratio:.2} the bytes at W = 16");
        }
        if !comm.is_default() {
            let units = deployed.graph().params().len();
            let recvs: HashSet<_> = (0..units)
                .map(|u| deployed.recv_op(0, ParamId::from_index(u)))
                .collect();
            let chunked =
                (0..units).any(|u| deployed.unit_origin(ParamId::from_index(u)).1.is_some());
            assert!(
                recvs.len() < units && chunked,
                "{shape}: no fused group or no chunk"
            );
            continue;
        }
        for scheduler in [SchedulerKind::Tic, SchedulerKind::Tac] {
            let disabled = Registry::disabled();
            let ((_, schedule), bytes) = kept(|| {
                cache
                    .schedule(&graph, &cluster, scheduler, &config, &disabled)
                    .unwrap()
            });
            assert!(!schedule.is_unordered(), "{shape} {scheduler}");
            let per_op = bytes as f64 / ops;
            assert!(
                per_op <= 1.5,
                "{shape} {scheduler}: schedule {per_op:.3} B/op"
            );
        }
    }
}

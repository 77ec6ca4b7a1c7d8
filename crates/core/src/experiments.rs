//! Reusable experiment helpers shared by the benchmark harness and
//! examples.

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use tictac_cluster::DeployedModel;
use tictac_sched::no_ordering;
use tictac_sim::{RunPlan, SimConfig};

/// Counts how many distinct parameter-arrival orders the reference worker
/// observes over `runs` baseline iterations — the experiment of §2.2
/// (ResNet-v2-50 and Inception-v3 produced 1000 unique orders in 1000
/// runs; VGG-16 produced 493).
///
/// # Panics
///
/// Panics with the [`SimError`](tictac_sim::SimError) of a refused plan
/// or a failed run.
pub fn count_unique_recv_orders(
    deployed: &DeployedModel,
    config: &SimConfig,
    runs: usize,
) -> usize {
    let graph = deployed.graph();
    let schedule = no_ordering(graph);
    let w0 = deployed.workers()[0];
    let plan = RunPlan::new(graph, &schedule, config).unwrap_or_else(|e| panic!("{e}"));
    let mut seen = HashSet::with_capacity(runs);
    for i in 0..runs {
        let trace = plan
            .try_simulate(graph, &schedule, i as u64)
            .unwrap_or_else(|e| panic!("{e}"));
        seen.insert(trace.recv_completion_order(graph, w0));
    }
    seen.len()
}

/// Relative throughput gain of `scheduled` over `baseline`, in percent
/// (the y-axis of Figs. 7, 9, 10 and 13).
pub fn speedup_pct(baseline_throughput: f64, scheduled_throughput: f64) -> f64 {
    assert!(
        baseline_throughput > 0.0,
        "baseline throughput must be positive"
    );
    (scheduled_throughput / baseline_throughput - 1.0) * 100.0
}

/// Worker threads for `jobs` independent pieces of work: the
/// `TICTAC_THREADS` environment variable when it holds a positive
/// integer, else the available parallelism; never more than `jobs`,
/// never fewer than one.
fn thread_count(jobs: usize) -> usize {
    let available = || std::thread::available_parallelism().map_or(1, usize::from);
    let request = std::env::var("TICTAC_THREADS").ok();
    thread_policy(request.as_deref(), available, jobs)
}

/// [`thread_count`] with the environment passed in; `available` is asked
/// only when the request does not settle it.
fn thread_policy(request: Option<&str>, available: impl FnOnce() -> usize, jobs: usize) -> usize {
    request
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&t| t >= 1)
        .unwrap_or_else(available)
        .min(jobs)
        .max(1)
}

/// Maps `f` over `items` on `thread_count(items.len())` worker threads
/// (the `TICTAC_THREADS` env var overrides the available parallelism; `1`
/// forces serial), preserving input order in the output.
///
/// Results are identical at any thread count: every point seeds its own
/// random streams, and outputs are written back by input index. A panic
/// in `f` propagates to the caller once every worker has stopped.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_on(thread_count(items.len()), &items, f)
}

/// [`parallel_map`] on exactly `threads` workers pulling indices off a
/// shared counter.
fn parallel_map_on<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    const UNPOISONED: &str = "the results lock is never held across a call to `f`";
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<R>>> = Mutex::new(items.iter().map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let r = f(item);
                results.lock().expect(UNPOISONED)[i] = Some(r);
            });
        }
    });
    results
        .into_inner()
        .expect(UNPOISONED)
        .into_iter()
        .map(|r| r.expect("every item processed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tictac_cluster::{deploy, ClusterSpec};
    use tictac_graph::{Mode, Model};

    #[test]
    fn unique_orders_grow_with_runs_for_baseline() {
        let model = Model::InceptionV1.build_with_batch(Mode::Inference, 4);
        let d = deploy(&model, &ClusterSpec::new(1, 1)).unwrap();
        let cfg = SimConfig::cloud_gpu();
        let n = count_unique_recv_orders(&d, &cfg, 8);
        // 116 parameters: every random iteration order should be fresh.
        assert_eq!(n, 8);
    }

    #[test]
    fn thread_policy_honours_positive_requests_and_caps_by_jobs() {
        // (TICTAC_THREADS, available parallelism, jobs) -> threads
        let cases: [(Option<&str>, usize, usize, usize); 9] = [
            (None, 4, 100, 4),
            (Some("3"), 4, 100, 3),
            (Some("0"), 4, 100, 4),
            (Some(""), 4, 100, 4),
            (Some("abc"), 4, 100, 4),
            (Some("-2"), 4, 100, 4),
            (Some("8"), 4, 2, 2),
            (None, 4, 2, 2),
            (Some("3"), 4, 0, 1),
        ];
        for (request, available, jobs, want) in cases {
            assert_eq!(
                thread_policy(request, || available, jobs),
                want,
                "request {request:?}, available {available}, jobs {jobs}"
            );
        }
    }

    #[test]
    fn parallel_map_output_is_input_ordered_at_any_thread_count() {
        let items: Vec<u64> = (0..100).collect();
        let want: Vec<u64> = items.iter().map(|x| x * 2).collect();
        for threads in [1, 2, 7] {
            assert_eq!(parallel_map_on(threads, &items, |&x| x * 2), want);
            // More threads than items, and no items at all.
            assert_eq!(parallel_map_on(threads, &items[..3], |&x| x * 2), want[..3]);
            assert_eq!(parallel_map_on(threads, &[], |&x: &u64| x), []);
        }
        assert_eq!(parallel_map(items, |&x| x * 2), want);
    }

    #[test]
    fn parallel_map_propagates_a_worker_panic_to_the_caller() {
        let items: Vec<u64> = (0..100).collect();
        for threads in [1, 2, 7] {
            let caught = std::panic::catch_unwind(|| {
                parallel_map_on(threads, &items, |&x| {
                    assert_ne!(x, 41, "boom");
                    x
                })
            });
            assert!(caught.is_err(), "{threads} threads swallowed the panic");
        }
    }

    #[test]
    fn speedup_math() {
        assert!((speedup_pct(100.0, 120.0) - 20.0).abs() < 1e-9);
        assert_eq!(speedup_pct(100.0, 100.0), 0.0);
        assert!((speedup_pct(100.0, 95.8) + 4.2).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn speedup_rejects_zero_baseline() {
        speedup_pct(0.0, 1.0);
    }
}

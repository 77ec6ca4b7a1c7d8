//! What the benchmark reads from the host: CPU time, peak memory, bytes
//! read, load, and a counting allocator. Linux only (`/proc`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU time of this process, all threads (exited ones
/// included), in nanoseconds. `/proc/self/stat` carries the same quantity
/// in 10 ms ticks, too coarse for a one-second pass.
pub fn cpu_time_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target) and the clock id is a valid
    // constant, so the call only writes `ts`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

fn proc_field(file: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(file).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    proc_field("/proc/self/status", "VmHWM:").map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// `rchar` of `/proc/self/io` (bytes this process has asked the kernel to
/// read), and the length of the text that carried it.
fn rchar() -> (u64, u64) {
    let Ok(text) = std::fs::read_to_string("/proc/self/io") else {
        return (0, 0);
    };
    let rchar = text
        .lines()
        .find_map(|l| l.strip_prefix("rchar:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0);
    (rchar, text.len() as u64)
}

/// A point in this process's read accounting. Reading the counter is
/// itself a read; the mark steps over its own bytes, so
/// [`bytes_since`](ReadMark::bytes_since) counts exactly what the code in
/// between read.
#[derive(Debug, Clone, Copy)]
pub struct ReadMark(u64);

impl ReadMark {
    pub fn now() -> Self {
        let (rchar, own) = rchar();
        ReadMark(rchar + own)
    }

    pub fn bytes_since(self) -> u64 {
        rchar().0.saturating_sub(self.0)
    }
}

/// `/proc/loadavg`, verbatim.
pub fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.trim().to_string())
        .unwrap_or_default()
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Pins this process (and every thread it starts later) to the CPU it is
/// running on, and returns that CPU; `None` if the kernel refuses.
///
/// On the 2-vCPU sandbox the parallel engine's barrier hand-offs cost 2.2x
/// (1.25 s -> 2.75 s per `scale_sweep` pass) whenever the other vCPU is
/// busy or the host is contended, and the machine stays in one mode or the
/// other for tens of minutes. On one CPU the engine runs one worker beside
/// the driver thread (it sizes itself by `available_parallelism`) and the
/// number is steady; whatever else runs on the machine has the other CPU.
pub fn pin_to_current_cpu() -> Option<usize> {
    // SAFETY: `sched_getcpu` takes no arguments and only reads.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    // A `cpu_set_t`: 1024 bits.
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live array of exactly the size passed, pid 0 is
    // the calling thread, and the call only reads the mask.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// Seconds it takes to push `pushes` pseudo-random numbers into a binary
/// heap and drain it: fixed, compute-bound work.
fn heap_churn(pushes: usize) -> f64 {
    let started = Instant::now();
    let mut heap = std::collections::BinaryHeap::with_capacity(pushes);
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..pushes {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        heap.push(x);
    }
    let mut acc = 0u64;
    while let Some(v) = heap.pop() {
        acc = acc.wrapping_add(v);
    }
    std::hint::black_box(acc);
    started.elapsed().as_secs_f64()
}

/// Seconds a fixed piece of work takes on this machine right now: 1.5 M
/// heap pushes and pops. Timed before and after each workload so a slow
/// machine can be told from a slow program.
pub fn noise_ref_s() -> f64 {
    heap_churn(1_500_000)
}

/// Seconds the two calibration kernels take on the machine this benchmark
/// was defined on (2 vCPUs of a Xeon at 2.1 GHz) when nothing disturbs it.
/// They only fix the scale of calibrated times: at this speed a calibrated
/// second is a wall-clock second.
const NOMINAL_HEAP_S: f64 = 400e-6;
const NOMINAL_ALLOC_S: f64 = 280e-6;

/// Compute-bound kernel: 12 000 heap pushes and pops.
fn heap_kernel() -> f64 {
    heap_churn(12_000)
}

/// Allocator- and hash-bound kernel: 3 000 formatted strings into a map.
fn alloc_kernel() -> f64 {
    let started = Instant::now();
    let names: Vec<String> = (0..3000u32).map(|i| format!("op_{i}_{}", i * 7)).collect();
    let index: std::collections::HashMap<&str, usize> = names
        .iter()
        .enumerate()
        .map(|(i, s)| (s.as_str(), i))
        .collect();
    std::hint::black_box(index.len());
    started.elapsed().as_secs_f64()
}

/// How fast the machine is running, sampled beside the work being timed.
///
/// The sandbox's speed moves by up to 2x over seconds (neighbours on the
/// host; the guest sees no steal time), so a wall-clock median differs by
/// 15-30% between two runs of the same code. Two fixed kernels, timed at
/// every segment boundary of a pass, track that speed; dividing a pass's
/// time by its [`slowdown`](Calibration::slowdown) leaves 2-9%. The two
/// kernels respond to different disturbances (execution units; caches and
/// the allocator) and the workloads sit between them, so the slowdown is
/// their geometric mean.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Calibration {
    samples: u32,
    heap_s: f64,
    alloc_s: f64,
}

impl Calibration {
    /// Times both kernels `reps` times (~0.7 ms each time at nominal
    /// speed), with the allocation counters paused.
    pub fn sample(&mut self, reps: u32) {
        let counting = COUNTING.swap(false, Relaxed);
        for _ in 0..reps {
            self.heap_s += heap_kernel();
            self.alloc_s += alloc_kernel();
        }
        self.samples += reps;
        COUNTING.store(counting, Relaxed);
    }

    pub fn merge(&mut self, other: Calibration) {
        self.samples += other.samples;
        self.heap_s += other.heap_s;
        self.alloc_s += other.alloc_s;
    }

    /// Mean kernel time over nominal kernel time: 1.0 at the nominal
    /// speed, 1.5 when everything takes half as long again. 1.0 without
    /// samples.
    pub fn slowdown(&self) -> f64 {
        if self.samples == 0 {
            return 1.0;
        }
        let n = f64::from(self.samples);
        ((self.heap_s / n / NOMINAL_HEAP_S) * (self.alloc_s / n / NOMINAL_ALLOC_S)).sqrt()
    }
}

/// The system allocator with call/byte/peak counters, switched on only in
/// the traced run (off, it costs one relaxed load per call).
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// Allocation counters since [`alloc_counting`] was switched on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    pub calls: u64,
    pub bytes: u64,
    pub peak_live_bytes: u64,
}

pub fn alloc_counting(on: bool) {
    COUNTING.store(on, Relaxed);
}

pub fn alloc_stats() -> AllocStats {
    AllocStats {
        calls: CALLS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        peak_live_bytes: PEAK.load(Relaxed),
    }
}

fn count_alloc(size: usize) {
    if COUNTING.load(Relaxed) {
        CALLS.fetch_add(1, Relaxed);
        BYTES.fetch_add(size as u64, Relaxed);
        let live = LIVE.fetch_add(size as u64, Relaxed) + size as u64;
        PEAK.fetch_max(live, Relaxed);
    }
}

fn count_free(size: usize) {
    if COUNTING.load(Relaxed) {
        // Saturating: memory allocated before counting began may be freed
        // after it.
        let _ = LIVE.fetch_update(Relaxed, Relaxed, |v| Some(v.saturating_sub(size as u64)));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain statistics
// (relaxed atomics) and never influence what is returned.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_free(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_free(layout.size());
        count_alloc(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let before = cpu_time_ns();
        std::hint::black_box(noise_ref_s());
        assert!(cpu_time_ns() > before);
    }

    #[test]
    fn slowdown_is_the_geometric_mean_of_the_kernels_over_nominal() {
        assert_eq!(Calibration::default().slowdown(), 1.0);
        let twice = Calibration {
            samples: 4,
            heap_s: 4.0 * 2.0 * NOMINAL_HEAP_S,
            alloc_s: 4.0 * 2.0 * NOMINAL_ALLOC_S,
        };
        assert!((twice.slowdown() - 2.0).abs() < 1e-12);
        let mut mixed = Calibration {
            samples: 1,
            heap_s: 4.0 * NOMINAL_HEAP_S,
            alloc_s: NOMINAL_ALLOC_S,
        };
        assert!((mixed.slowdown() - 2.0).abs() < 1e-12);
        mixed.merge(mixed);
        assert!((mixed.slowdown() - 2.0).abs() < 1e-12);
        let mut sampled = Calibration::default();
        sampled.sample(2);
        assert!(sampled.samples == 2 && sampled.slowdown() > 0.0);
    }

    #[test]
    fn read_mark_counts_what_was_read_in_between() {
        // Other tests read files too, and the counter is process-wide:
        // a lower bound is all a parallel test run can assert.
        let mark = ReadMark::now();
        let text = std::fs::read_to_string("/proc/self/status").unwrap();
        assert!(mark.bytes_since() >= text.len() as u64);
    }
}

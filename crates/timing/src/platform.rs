//! Hardware platform models substituting for the paper's testbeds.
//!
//! The paper measures on two environments (§6): **envG**, Azure NC6 VMs with
//! one NVIDIA K80 each and CPU-only parameter servers on a cloud network,
//! and **envC**, a 32-core commodity CPU cluster on 1 GbE. We model each
//! with a small set of calibrated constants; absolute times are approximate
//! but the communication/computation balance — which determines scheduling
//! benefit (paper §3.2) — is faithful.

use crate::time::SimDuration;

/// Calibrated hardware constants of a deployment environment.
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    name: String,
    /// Sustained compute throughput of a worker, in FLOP/s.
    worker_flops: f64,
    /// Sustained compute throughput of a parameter server, in FLOP/s.
    ps_flops: f64,
    /// Per-direction bandwidth of a worker–PS channel, bytes/s.
    bandwidth: f64,
    /// One-way network latency per transfer.
    latency: SimDuration,
    /// Fixed per-op launch overhead on compute resources.
    op_overhead: SimDuration,
}

impl Platform {
    /// Creates a custom platform.
    ///
    /// # Panics
    ///
    /// Panics if any throughput is not strictly positive.
    pub fn new(
        name: impl Into<String>,
        worker_flops: f64,
        ps_flops: f64,
        bandwidth: f64,
        latency: SimDuration,
        op_overhead: SimDuration,
    ) -> Self {
        assert!(worker_flops > 0.0, "worker_flops must be positive");
        assert!(ps_flops > 0.0, "ps_flops must be positive");
        assert!(bandwidth > 0.0, "bandwidth must be positive");
        Self {
            name: name.into(),
            worker_flops,
            ps_flops,
            bandwidth,
            latency,
            op_overhead,
        }
    }

    /// envG: cloud GPU workers (K80-class, ~2 TFLOP/s sustained fp32),
    /// CPU parameter servers, ~25 Gb/s datacenter network.
    ///
    /// Calibrated so the communication/computation balance point falls at
    /// 4–8 workers per PS, matching where the paper's scheduling gains
    /// peak (§6.1).
    pub fn cloud_gpu() -> Self {
        Platform::new(
            "envG",
            2.0e12,
            4.0e11,
            25e9 / 8.0,
            SimDuration::from_micros(50),
            SimDuration::from_micros(8),
        )
    }

    /// envC: commodity 32-core CPU cluster (~150 GFLOP/s sustained),
    /// 1 GbE network.
    pub fn cpu_cluster() -> Self {
        Platform::new(
            "envC",
            1.5e11,
            1.5e11,
            1e9 / 8.0,
            SimDuration::from_micros(80),
            SimDuration::from_micros(15),
        )
    }

    /// The platform's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Worker compute throughput, FLOP/s.
    pub fn worker_flops(&self) -> f64 {
        self.worker_flops
    }

    /// Parameter-server compute throughput, FLOP/s.
    pub fn ps_flops(&self) -> f64 {
        self.ps_flops
    }

    /// Channel bandwidth, bytes/s.
    pub fn bandwidth(&self) -> f64 {
        self.bandwidth
    }

    /// One-way transfer latency.
    pub fn latency(&self) -> SimDuration {
        self.latency
    }

    /// Per-op launch overhead.
    pub fn op_overhead(&self) -> SimDuration {
        self.op_overhead
    }

    /// Returns a copy with bandwidth scaled by `factor` (for network
    /// sensitivity ablations).
    pub fn with_bandwidth_factor(&self, factor: f64) -> Self {
        assert!(factor > 0.0, "factor must be positive");
        let mut p = self.clone();
        p.bandwidth *= factor;
        p.name = format!("{}(bw x{factor})", p.name);
        p
    }

    /// Time to execute `flops` of work on a worker. Saturates, as the
    /// float-to-nanosecond conversion does, so a duration past the end of
    /// the time axis stays there instead of wrapping to a short one.
    pub fn worker_compute_time(&self, flops: f64) -> SimDuration {
        self.op_overhead
            .saturating_add(SimDuration::from_secs_f64(flops / self.worker_flops))
    }

    /// Time to execute `flops` of work on a parameter server (saturating,
    /// as [`worker_compute_time`](Self::worker_compute_time)).
    pub fn ps_compute_time(&self, flops: f64) -> SimDuration {
        self.op_overhead
            .saturating_add(SimDuration::from_secs_f64(flops / self.ps_flops))
    }

    /// Wire time for a `bytes`-byte transfer at full channel bandwidth.
    pub fn transfer_time(&self, bytes: u64) -> SimDuration {
        self.transfer_time_shared(bytes, 1.0)
    }

    /// Wire time for a `bytes`-byte transfer when the link is fair-shared
    /// `share` ways (TCP-style): the wire portion stretches by `share`.
    ///
    /// In a Model-Replica + PS deployment with `W` workers and `S` servers,
    /// every parameter server fans out to all `W` workers concurrently (and
    /// every worker to all `S` servers), so sustained per-stream bandwidth
    /// is `bandwidth / max(W, S)`.
    ///
    /// # Panics
    ///
    /// Panics if `share < 1`.
    pub fn transfer_time_shared(&self, bytes: u64, share: f64) -> SimDuration {
        assert!(share >= 1.0, "share must be at least 1");
        self.transfer_time_scaled(bytes, share)
    }

    /// Wire time for a `bytes`-byte transfer whose wire portion is
    /// stretched by an arbitrary positive factor.
    ///
    /// This is [`transfer_time_shared`](Self::transfer_time_shared)
    /// without the fair-share lower bound: heterogeneous links compose a
    /// per-channel bandwidth factor into the share, and a link faster than
    /// the platform reference yields an effective factor below `1.0`. The
    /// float expression is identical to the shared path, so a factor of
    /// exactly `1.0` is bit-for-bit the uniform result.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not a positive finite number.
    pub fn transfer_time_scaled(&self, bytes: u64, factor: f64) -> SimDuration {
        assert!(
            factor.is_finite() && factor > 0.0,
            "transfer factor must be positive and finite, got {factor}"
        );
        // Saturating, as the compute times: see `worker_compute_time`.
        let wire = SimDuration::from_secs_f64(bytes as f64 * factor / self.bandwidth);
        self.latency.saturating_add(wire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_expected_balance() {
        let g = Platform::cloud_gpu();
        let c = Platform::cpu_cluster();
        // GPU workers are much faster than CPU workers.
        assert!(g.worker_flops() > 10.0 * c.worker_flops());
        // envC network is 10x slower.
        assert!(g.bandwidth() > 9.0 * c.bandwidth());
        assert_eq!(g.name(), "envG");
        assert_eq!(c.name(), "envC");
    }

    #[test]
    fn transfer_time_scales_with_bytes() {
        let p = Platform::cpu_cluster();
        let t1 = p.transfer_time(1 << 20);
        let t8 = p.transfer_time(8 << 20);
        // 8x the bytes is ~8x the wire time, modulo the fixed latency.
        let wire1 = t1 - p.latency();
        let wire8 = t8 - p.latency();
        assert_eq!(wire8.as_nanos(), 8 * wire1.as_nanos());
        // 1 MiB at 125 MB/s is ~8.4 ms.
        assert!((wire1.as_secs_f64() - (1 << 20) as f64 / p.bandwidth()).abs() < 1e-9);
    }

    #[test]
    fn compute_time_includes_overhead() {
        let p = Platform::cloud_gpu();
        assert_eq!(p.worker_compute_time(0.0), p.op_overhead());
        // 1 ms of work at the platform's sustained throughput.
        let t = p.worker_compute_time(p.worker_flops() * 1e-3);
        assert_eq!(t, p.op_overhead() + SimDuration::from_millis(1));
    }

    #[test]
    fn times_past_the_axis_saturate_instead_of_wrapping() {
        let p = Platform::cloud_gpu();
        let end = SimDuration::from_nanos(u64::MAX);
        assert_eq!(p.transfer_time_scaled(1 << 20, 1e30), end);
        assert_eq!(p.worker_compute_time(1e40), end);
        assert_eq!(p.ps_compute_time(1e40), end);
    }

    #[test]
    fn bandwidth_factor_scales() {
        let p = Platform::cpu_cluster().with_bandwidth_factor(2.0);
        assert_eq!(p.bandwidth(), Platform::cpu_cluster().bandwidth() * 2.0);
        assert!(p.name().contains("x2"));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_bandwidth() {
        Platform::new("bad", 1.0, 1.0, 0.0, SimDuration::ZERO, SimDuration::ZERO);
    }
}

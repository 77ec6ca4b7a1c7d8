//! A real (small) SGD learner for the Fig. 8 experiment.
//!
//! Figure 8 of the paper shows that enforcing a transfer order does not
//! alter training convergence: the loss curves with and without ordering
//! coincide, because scheduling only changes *when* parameters arrive, not
//! their values. We reproduce the experiment with an actual numeric
//! learner: a two-layer MLP trained with synchronous data-parallel SGD on
//! synthetic data. The transfer order enters only as the order in which
//! worker gradients are accumulated at the parameter server — which
//! perturbs nothing beyond floating-point round-off.
//!
//! The learner also models the *degraded-mode barrier* of the fault
//! subsystem: when an iteration releases with a slow worker's update still
//! in flight ([`step_degraded`](Trainer::step_degraded)), that gradient is
//! deferred and folded into the next iteration's aggregation — a one-step
//! stale gradient, the numeric counterpart of a deferred transfer.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Configuration of the Fig. 8 learner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainingConfig {
    /// Input dimensionality.
    pub input_dim: usize,
    /// Hidden width.
    pub hidden: usize,
    /// Number of classes.
    pub classes: usize,
    /// Training-set size.
    pub samples: usize,
    /// Global batch per iteration.
    pub batch: usize,
    /// Number of data-parallel workers.
    pub workers: usize,
    /// SGD learning rate.
    pub lr: f64,
    /// RNG seed (data, init and batch order all derive from it).
    pub seed: u64,
}

impl Default for TrainingConfig {
    fn default() -> Self {
        Self {
            input_dim: 32,
            hidden: 64,
            classes: 10,
            samples: 512,
            batch: 64,
            workers: 4,
            lr: 0.1,
            seed: 7,
        }
    }
}

/// A two-layer MLP with data-parallel synchronous SGD.
#[derive(Debug, Clone)]
pub struct Trainer {
    cfg: TrainingConfig,
    /// Row-major `[input_dim][hidden]`.
    w1: Vec<f64>,
    /// Row-major `[hidden][classes]`.
    w2: Vec<f64>,
    data: Vec<Vec<f64>>,
    labels: Vec<usize>,
    order_rng: SmallRng,
    /// Whether gradient accumulation follows a fixed (enforced) worker
    /// order or a per-iteration random order (baseline).
    ordered: bool,
    /// Gradients deferred by a degraded barrier, applied (stale) at the
    /// next aggregation.
    pending: Vec<(Vec<f64>, Vec<f64>)>,
}

impl Trainer {
    /// Creates a trainer; `ordered` selects enforced vs random gradient
    /// accumulation order (the knob scheduling turns).
    pub fn new(cfg: TrainingConfig, ordered: bool) -> Self {
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        // Class-conditional Gaussian blobs.
        let means: Vec<Vec<f64>> = (0..cfg.classes)
            .map(|_| {
                (0..cfg.input_dim)
                    .map(|_| rng.gen_range(-1.0..1.0))
                    .collect()
            })
            .collect();
        let mut data = Vec::with_capacity(cfg.samples);
        let mut labels = Vec::with_capacity(cfg.samples);
        for i in 0..cfg.samples {
            let class = i % cfg.classes;
            let x: Vec<f64> = means[class]
                .iter()
                .map(|m| m + 0.3 * standard_normal(&mut rng))
                .collect();
            data.push(x);
            labels.push(class);
        }
        let scale1 = (2.0 / cfg.input_dim as f64).sqrt();
        let w1 = (0..cfg.input_dim * cfg.hidden)
            .map(|_| scale1 * standard_normal(&mut rng))
            .collect();
        let scale2 = (2.0 / cfg.hidden as f64).sqrt();
        let w2 = (0..cfg.hidden * cfg.classes)
            .map(|_| scale2 * standard_normal(&mut rng))
            .collect();
        Self {
            order_rng: SmallRng::seed_from_u64(cfg.seed ^ 0xDEAD),
            cfg,
            w1,
            w2,
            data,
            labels,
            ordered,
            pending: Vec::new(),
        }
    }

    /// Runs one synchronous iteration and returns the mean training loss
    /// of the global batch (before the update).
    pub fn step(&mut self, iteration: usize) -> f64 {
        self.step_degraded(iteration, &[])
    }

    /// Like [`step`](Trainer::step), but the iteration's barrier released
    /// in degraded mode: gradients of `deferred_workers` do not reach the
    /// parameter server in time and are folded into the *next*
    /// aggregation instead (one-step-stale updates).
    ///
    /// Workers still compute their shards (the reported loss covers the
    /// full global batch); only the update is late.
    pub fn step_degraded(&mut self, iteration: usize, deferred_workers: &[usize]) -> f64 {
        let cfg = self.cfg;
        let start = (iteration * cfg.batch) % cfg.samples;
        let idx: Vec<usize> = (0..cfg.batch).map(|i| (start + i) % cfg.samples).collect();

        // Shard the batch across workers; each computes its gradient sum.
        let shard = cfg.batch / cfg.workers;
        let mut grads: Vec<(Vec<f64>, Vec<f64>, f64)> = Vec::with_capacity(cfg.workers);
        for w in 0..cfg.workers {
            let lo = w * shard;
            let hi = if w + 1 == cfg.workers {
                cfg.batch
            } else {
                lo + shard
            };
            grads.push(self.worker_grad(&idx[lo..hi]));
        }

        // Parameter-server aggregation. The arrival order is the only
        // thing scheduling changes; floating-point addition order is the
        // only possible effect on the math.
        let mut order: Vec<usize> = (0..cfg.workers).collect();
        if !self.ordered {
            order.shuffle(&mut self.order_rng);
        }
        let mut g1 = vec![0.0; self.w1.len()];
        let mut g2 = vec![0.0; self.w2.len()];
        // Late arrivals from a previous degraded barrier land first.
        for (p1, p2) in std::mem::take(&mut self.pending) {
            for (a, b) in g1.iter_mut().zip(&p1) {
                *a += b;
            }
            for (a, b) in g2.iter_mut().zip(&p2) {
                *a += b;
            }
        }
        let mut loss = 0.0;
        for &w in &order {
            let (gw1, gw2, l) = &grads[w];
            loss += l;
            if deferred_workers.contains(&w) {
                self.pending.push((gw1.clone(), gw2.clone()));
                continue;
            }
            for (a, b) in g1.iter_mut().zip(gw1) {
                *a += b;
            }
            for (a, b) in g2.iter_mut().zip(gw2) {
                *a += b;
            }
        }
        let scale = cfg.lr / cfg.batch as f64;
        for (w, g) in self.w1.iter_mut().zip(&g1) {
            *w -= scale * g;
        }
        for (w, g) in self.w2.iter_mut().zip(&g2) {
            *w -= scale * g;
        }
        loss / cfg.batch as f64
    }

    /// Forward + backward over a shard; returns gradient sums and loss sum.
    fn worker_grad(&self, idx: &[usize]) -> (Vec<f64>, Vec<f64>, f64) {
        let cfg = self.cfg;
        let mut g1 = vec![0.0; self.w1.len()];
        let mut g2 = vec![0.0; self.w2.len()];
        let mut loss = 0.0;
        for &i in idx {
            let x = &self.data[i];
            let y = self.labels[i];
            // h = relu(x W1)
            let mut h = vec![0.0; cfg.hidden];
            for (j, hj) in h.iter_mut().enumerate() {
                let mut acc = 0.0;
                for (k, xk) in x.iter().enumerate() {
                    acc += xk * self.w1[k * cfg.hidden + j];
                }
                *hj = acc.max(0.0);
            }
            // logits = h W2, softmax cross-entropy.
            let mut logits = vec![0.0; cfg.classes];
            for (c, lc) in logits.iter_mut().enumerate() {
                let mut acc = 0.0;
                for (j, hj) in h.iter().enumerate() {
                    acc += hj * self.w2[j * cfg.classes + c];
                }
                *lc = acc;
            }
            let max = logits.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let exps: Vec<f64> = logits.iter().map(|l| (l - max).exp()).collect();
            let z: f64 = exps.iter().sum();
            let probs: Vec<f64> = exps.iter().map(|e| e / z).collect();
            loss -= probs[y].max(1e-300).ln();

            // dlogits = probs - onehot(y)
            let mut dlogits = probs;
            dlogits[y] -= 1.0;
            // dW2 and dh.
            let mut dh = vec![0.0; cfg.hidden];
            for (j, hj) in h.iter().enumerate() {
                for (c, dl) in dlogits.iter().enumerate() {
                    g2[j * cfg.classes + c] += hj * dl;
                    dh[j] += self.w2[j * cfg.classes + c] * dl;
                }
            }
            // Through relu, then dW1.
            for (j, d) in dh.iter_mut().enumerate() {
                if h[j] <= 0.0 {
                    *d = 0.0;
                }
            }
            for (k, xk) in x.iter().enumerate() {
                for (j, d) in dh.iter().enumerate() {
                    g1[k * cfg.hidden + j] += xk * d;
                }
            }
        }
        (g1, g2, loss)
    }
}

/// Runs `iterations` of training and returns the loss curve.
pub fn loss_curve(cfg: TrainingConfig, ordered: bool, iterations: usize) -> Vec<f64> {
    let mut t = Trainer::new(cfg, ordered);
    (0..iterations).map(|i| t.step(i)).collect()
}

/// Loss curve with degraded barriers injected: at each iteration in
/// `degraded_at`, `worker`'s gradient arrives one iteration late (the
/// training-side picture of the simulator's deferred transfers).
pub fn loss_curve_degraded(
    cfg: TrainingConfig,
    ordered: bool,
    iterations: usize,
    degraded_at: &[usize],
    worker: usize,
) -> Vec<f64> {
    let mut t = Trainer::new(cfg, ordered);
    (0..iterations)
        .map(|i| {
            if degraded_at.contains(&i) {
                t.step_degraded(i, &[worker])
            } else {
                t.step(i)
            }
        })
        .collect()
}

fn standard_normal(rng: &mut impl Rng) -> f64 {
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_decreases() {
        let curve = loss_curve(TrainingConfig::default(), true, 60);
        let head: f64 = curve[..10].iter().sum::<f64>() / 10.0;
        let tail: f64 = curve[50..].iter().sum::<f64>() / 10.0;
        assert!(
            tail < 0.7 * head,
            "training failed to converge: head {head:.3} tail {tail:.3}"
        );
    }

    #[test]
    fn ordering_does_not_change_convergence() {
        // Fig. 8: the curves coincide (up to float round-off from the
        // different accumulation order).
        let cfg = TrainingConfig::default();
        let ordered = loss_curve(cfg, true, 40);
        let unordered = loss_curve(cfg, false, 40);
        for (a, b) in ordered.iter().zip(&unordered) {
            assert!(
                (a - b).abs() <= 1e-6 * a.abs().max(1.0),
                "loss diverged: {a} vs {b}"
            );
        }
    }

    #[test]
    fn training_is_reproducible() {
        let cfg = TrainingConfig::default();
        assert_eq!(loss_curve(cfg, true, 10), loss_curve(cfg, true, 10));
    }

    #[test]
    fn deferred_gradients_still_converge() {
        // Degraded barriers early in training (worker 1's update one step
        // stale at iterations 3, 9 and 15) must not break convergence —
        // the stale gradients are applied, just late.
        let cfg = TrainingConfig::default();
        let curve = loss_curve_degraded(cfg, true, 60, &[3, 9, 15], 1);
        let head: f64 = curve[..10].iter().sum::<f64>() / 10.0;
        let tail: f64 = curve[50..].iter().sum::<f64>() / 10.0;
        assert!(
            tail < 0.7 * head,
            "degraded training failed to converge: head {head:.3} tail {tail:.3}"
        );
        // And it must actually differ from the clean run (the update path
        // changed), while staying reproducible.
        let clean = loss_curve(cfg, true, 60);
        assert_ne!(curve, clean);
        assert_eq!(curve, loss_curve_degraded(cfg, true, 60, &[3, 9, 15], 1));
    }

    #[test]
    fn deferral_with_no_deferred_workers_is_a_plain_step() {
        let cfg = TrainingConfig::default();
        let a = loss_curve(cfg, true, 12);
        let b = loss_curve_degraded(cfg, true, 12, &[], 0);
        assert_eq!(a, b);
    }
}

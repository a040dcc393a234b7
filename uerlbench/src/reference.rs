//! The reference kernel: a gauge of how fast the machine runs right now.
//!
//! On a shared host the other tenants' load on the sibling hyperthread and the shared
//! caches slows every instruction the program runs, for seconds to minutes at a time.
//! On the 2-vCPU Xeon this benchmark was tuned on, identical serving passes ran between
//! 12k and 29k events/s, and whole 20 s runs sat in a slow spell. The thread's CPU time
//! slows exactly as much as its wall time, and medians over a run cannot take out a
//! spell that lasts the whole run.
//!
//! So the benchmark times a fixed kernel of its own between short laps of work, and
//! scales each lap's wall time by how fast the kernel ran on either side of it. Laps
//! must be short: contention changes within a tenth of a second. The kernel is
//! a batch-1 forward pass through a dense 15-256-256-128-64-3 network with fixed
//! weights. That is the shape of the paper's Q-network, so it suffers the same cache and
//! port contention as the program's own inference. The training kernel adds Adam-style
//! sweeps over optimizer state the size of that network (3.5 MB, more than the 2 MB L2
//! of the machine this benchmark was tuned on), because training updates stream that
//! much state and slowed more in a spell than inference alone did. The kernels are this
//! crate's code and never call the workspace, so no change to the program changes them.
//!
//! A scaled time is `wall × NOMINAL_ROW_NANOS / (reference row time)`: the time the
//! work would have taken had the reference run at its nominal speed. The constant only
//! sets the scale; comparisons between runs do not depend on it. The scaling is exact
//! only while the program and the kernel slow alike. A program that is much less
//! sensitive to contention than the kernel reads faster in a slow spell than in a
//! quiet one.

use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

/// Layer widths of the reference network.
const DIMS: [usize; 6] = [15, 256, 256, 128, 64, 3];

/// Rows timed per sample, 1 to 2 ms.
const ROWS_PER_SAMPLE: usize = 16;

/// Optimizer sweeps per sample of the training kernel, about as long as its rows.
const SWEEPS_PER_SAMPLE: usize = 4;

/// The nominal time of one reference row and of one optimizer sweep, which scaled
/// times are expressed in.
const NOMINAL_ROW_NANOS: f64 = 50_000.0;
const NOMINAL_SWEEP_NANOS: f64 = 200_000.0;

/// The reference network.
#[derive(Debug)]
pub struct Reference {
    /// Row-major `in × out` weights per layer.
    weights: Vec<Vec<f64>>,
    input: Vec<f64>,
    /// The training kernel's optimizer state: parameters, gradients and both moments.
    optimizer: Option<RefCell<[Vec<f64>; 4]>>,
}

impl Reference {
    /// The inference kernel: forward rows only.
    pub fn inference() -> Self {
        Self::new(false)
    }

    /// The training kernel: forward rows and optimizer sweeps.
    pub fn training() -> Self {
        Self::new(true)
    }

    /// Build the network with fixed weights and run it once, untimed, so the first
    /// sample finds its memory mapped.
    fn new(optimizer: bool) -> Self {
        let weights = DIMS
            .windows(2)
            .map(|d| {
                (0..d[0] * d[1])
                    .map(|i| ((i * 7919) % 1000) as f64 / 1000.0 - 0.5)
                    .collect()
            })
            .collect();
        let input = (0..DIMS[0]).map(|i| i as f64 / DIMS[0] as f64).collect();
        let params: usize = DIMS.windows(2).map(|d| d[0] * d[1]).sum();
        let optimizer = optimizer.then(|| {
            RefCell::new([
                vec![0.1; params],
                vec![0.01; params],
                vec![0.0; params],
                vec![0.0; params],
            ])
        });
        let reference = Self {
            weights,
            input,
            optimizer,
        };
        reference.speed();
        reference
    }

    /// One row through the network; `row` varies the input.
    fn forward(&self, row: usize) -> f64 {
        let mut x: Vec<f64> = self.input.iter().map(|v| v + row as f64).collect();
        for (layer, w) in self.weights.iter().enumerate() {
            let out = DIMS[layer + 1];
            let mut y = vec![0.0; out];
            for (i, &xi) in x.iter().enumerate() {
                for (yj, &wij) in y.iter_mut().zip(&w[i * out..(i + 1) * out]) {
                    *yj += xi * wij;
                }
            }
            for v in &mut y {
                *v = v.max(0.0) * 0.05;
            }
            x = black_box(y);
        }
        x.iter().sum()
    }

    /// One Adam-style step over the whole optimizer state.
    fn sweep(state: &mut [Vec<f64>; 4]) {
        let [params, grads, m, v] = state;
        for (((p, g), m), v) in params.iter_mut().zip(&*grads).zip(m).zip(v) {
            *m = 0.9 * *m + 0.1 * g;
            *v = 0.999 * *v + 0.001 * g * g;
            *p -= 1e-3 * *m / (v.sqrt() + 1e-8);
        }
        black_box(&state[0]);
    }

    /// Time one sample and return the machine's speed: nominal over measured time.
    pub fn speed(&self) -> f64 {
        let start = Instant::now();
        let mut sum = 0.0;
        for row in 0..ROWS_PER_SAMPLE {
            sum += self.forward(black_box(row));
        }
        black_box(sum);
        let mut nominal = ROWS_PER_SAMPLE as f64 * NOMINAL_ROW_NANOS;
        if let Some(state) = &self.optimizer {
            let mut state = state.borrow_mut();
            for _ in 0..SWEEPS_PER_SAMPLE {
                Self::sweep(&mut state);
            }
            nominal += SWEEPS_PER_SAMPLE as f64 * NOMINAL_SWEEP_NANOS;
        }
        nominal / (start.elapsed().as_nanos() as f64).max(1.0)
    }
}

/// A clock that splits a unit of work into laps and scales each lap's wall time by
/// the mean reference speed sampled just before and just after it. Without a reference
/// it reads plain wall time.
#[derive(Debug)]
pub struct ScaledClock<'a> {
    reference: Option<&'a Reference>,
    /// Speed sampled at the start of the current lap.
    before: f64,
    lap_start: Instant,
    /// Wall time of the finished laps, reference samples excluded.
    pub wall_nanos: u64,
    /// Scaled time of the finished laps.
    pub scaled_nanos: f64,
    /// Latencies scaled by [`ScaledClock::lap_latencies`] so far.
    scaled_latencies: usize,
}

impl<'a> ScaledClock<'a> {
    pub fn start(reference: Option<&'a Reference>) -> Self {
        let before = reference.map_or(1.0, Reference::speed);
        Self {
            reference,
            before,
            lap_start: Instant::now(),
            wall_nanos: 0,
            scaled_nanos: 0.0,
            scaled_latencies: 0,
        }
    }

    /// Close the current lap and start the next; returns the closed lap's speed, the
    /// factor its wall times are scaled by.
    pub fn lap(&mut self) -> f64 {
        let nanos = self.lap_start.elapsed().as_nanos() as u64;
        let after = self.reference.map_or(1.0, Reference::speed);
        let speed = (self.before + after) / 2.0;
        self.wall_nanos += nanos;
        self.scaled_nanos += nanos as f64 * speed;
        self.before = after;
        self.lap_start = Instant::now();
        speed
    }

    /// [`ScaledClock::lap`], and scale the latencies recorded during the lap: those of
    /// `latencies` past the ones earlier laps scaled.
    pub fn lap_latencies(&mut self, latencies: &mut [u64]) {
        let speed = self.lap();
        for latency in &mut latencies[self.scaled_latencies..] {
            *latency = (*latency as f64 * speed).round() as u64;
        }
        self.scaled_latencies = latencies.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_is_deterministic_and_speed_positive() {
        let a = Reference::inference();
        let b = Reference::training();
        assert_eq!(a.forward(3).to_bits(), b.forward(3).to_bits());
        assert_ne!(a.forward(3).to_bits(), a.forward(4).to_bits());
        for speed in [a.speed(), b.speed()] {
            assert!(speed.is_finite() && speed > 0.0);
        }
    }

    #[test]
    fn clock_without_reference_reads_wall_time() {
        let mut clock = ScaledClock::start(None);
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert_eq!(clock.lap(), 1.0);
        assert!(clock.wall_nanos >= 2_000_000);
        assert_eq!(clock.scaled_nanos, clock.wall_nanos as f64);
        let mut latencies = vec![5, 7];
        clock.lap_latencies(&mut latencies);
        assert_eq!(latencies, [5, 7]);
    }

    #[test]
    fn each_lap_scales_only_its_own_latencies() {
        let reference = Reference::inference();
        let mut clock = ScaledClock::start(Some(&reference));
        let mut latencies = vec![1_000_000];
        clock.lap_latencies(&mut latencies);
        let first = latencies[0];
        assert!(first > 0);
        latencies.push(1_000_000);
        clock.lap_latencies(&mut latencies);
        assert_eq!(
            latencies[0], first,
            "a later lap rescaled an earlier latency"
        );
        assert!(clock.scaled_nanos > 0.0 && clock.wall_nanos > 0);
    }
}

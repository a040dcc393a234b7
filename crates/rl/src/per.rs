//! Proportional prioritized experience replay (Schaul et al., ICLR 2016).
//!
//! The paper relies on PER to cope with the extreme class imbalance of the mitigation
//! problem: 67 effective uncorrected errors among 259,270 events (3.5 orders of
//! magnitude). Transitions are sampled with probability proportional to
//! `priority^alpha`, where the priority is the magnitude of the last TD error (plus a
//! small floor so nothing starves), and the induced bias is corrected with
//! importance-sampling weights annealed by `beta`.

use crate::sumtree::SumTree;
use crate::transition::Transition;
use rand::Rng;
use uerl_nn::Matrix;

/// A batch sampled from prioritized replay, its rows copied out of the buffer. One
/// batch is reused across samples: [`PrioritizedReplay::sample`] overwrites every field
/// (allocations reused).
#[derive(Debug, Clone)]
pub struct SampledBatch {
    /// Buffer slots of the sampled transitions (pass back to `update_priorities`).
    pub indices: Vec<usize>,
    /// Normalised importance-sampling weights (max weight = 1).
    pub weights: Vec<f64>,
    /// Row `i` is the state of sample `i`.
    pub states: Matrix,
    /// The action of each sample.
    pub actions: Vec<usize>,
    /// The reward of each sample.
    pub rewards: Vec<f64>,
    /// The samples that have a next state, as ascending batch positions.
    pub non_terminal: Vec<usize>,
    /// Row `r` is the next state of sample `non_terminal[r]`. Stale when
    /// `non_terminal` is empty: a matrix has at least one row.
    pub next_states: Matrix,
}

impl SampledBatch {
    /// An empty batch; the buffers are sized by the first sample.
    pub fn new() -> Self {
        Self {
            indices: Vec::new(),
            weights: Vec::new(),
            states: Matrix::zeros(1, 1),
            actions: Vec::new(),
            rewards: Vec::new(),
            non_terminal: Vec::new(),
            next_states: Matrix::zeros(1, 1),
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// Whether the last sample drew nothing (an empty or degenerate replay).
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }
}

impl Default for SampledBatch {
    fn default() -> Self {
        Self::new()
    }
}

/// Prioritized experience replay memory.
#[derive(Debug, Clone)]
pub struct PrioritizedReplay {
    capacity: usize,
    alpha: f64,
    priority_floor: f64,
    transitions: Vec<Transition>,
    tree: SumTree,
    next: usize,
    max_priority: f64,
}

impl PrioritizedReplay {
    /// Create a replay memory of the given capacity and prioritisation exponent `alpha`
    /// (`alpha = 0` degenerates to uniform sampling).
    ///
    /// # Panics
    /// Panics if `capacity` is zero or `alpha` is outside `[0, 1]`.
    pub fn new(capacity: usize, alpha: f64) -> Self {
        assert!(capacity > 0, "replay capacity must be positive");
        assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0, 1]");
        Self {
            capacity,
            alpha,
            priority_floor: 1e-4,
            transitions: Vec::with_capacity(capacity.min(4096)),
            tree: SumTree::new(capacity),
            next: 0,
            max_priority: 1.0,
        }
    }

    /// Maximum number of stored transitions.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of stored transitions.
    pub fn len(&self) -> usize {
        self.transitions.len()
    }

    /// Whether the memory is empty.
    pub fn is_empty(&self) -> bool {
        self.transitions.is_empty()
    }

    /// The prioritisation exponent.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Override the priority floor (the minimum TD-error magnitude credited to a
    /// transition so nothing starves; default `1e-4`).
    ///
    /// # Panics
    /// Panics if the floor is not strictly positive and finite.
    #[cfg(test)]
    fn with_priority_floor(mut self, floor: f64) -> Self {
        assert!(
            floor.is_finite() && floor > 0.0,
            "priority floor must be positive and finite"
        );
        self.priority_floor = floor;
        self
    }

    /// Add a transition with the maximum priority seen so far, so every new experience is
    /// replayed at least once soon after being stored.
    pub fn push(&mut self, transition: Transition) {
        let slot = if self.transitions.len() < self.capacity {
            self.transitions.push(transition);
            self.transitions.len() - 1
        } else {
            self.transitions[self.next] = transition;
            self.next
        };
        self.next = (slot + 1) % self.capacity;
        // Floor the raw magnitude *before* exponentiation, matching `update_priorities`:
        // the floor lives in TD-error space, not in priority (`magnitude^alpha`) space.
        let magnitude = self.max_priority.max(self.priority_floor);
        self.tree.set(slot, magnitude.powf(self.alpha));
    }

    /// Sample `batch` transitions proportionally to priority into `out`, copying each
    /// one's rows straight into its matrices; `beta` controls the strength of the
    /// importance-sampling correction (1 = full correction). `out` is left empty when
    /// the memory is empty or its priorities are degenerate.
    pub fn sample<R: Rng + ?Sized>(
        &self,
        batch: usize,
        beta: f64,
        rng: &mut R,
        out: &mut SampledBatch,
    ) {
        out.indices.clear();
        out.weights.clear();
        out.actions.clear();
        out.rewards.clear();
        out.non_terminal.clear();
        let n = self.transitions.len();
        let total = self.tree.total();
        // Guard the degenerate trees (empty, all-zero, or a sum corrupted to NaN/inf —
        // e.g. after an unguarded priority write): sampling from them would divide by
        // zero below and poison every importance weight.
        if n == 0 || !total.is_finite() || total <= 0.0 {
            return;
        }
        let beta = beta.clamp(0.0, 1.0);
        // Weight normalisation uses the maximum weight over the buffer, which corresponds
        // to the minimum sampling probability. The priority floor guarantees every
        // stored slot has a strictly positive priority (the all-floor edge included), so
        // `min_prob > 0` and the normaliser is finite.
        let min_prob = self
            .tree
            .min_nonzero_priority()
            .map(|p| p / total)
            .unwrap_or(1.0 / n as f64);
        debug_assert!(
            min_prob.is_finite() && min_prob > 0.0,
            "minimum sampling probability must be positive and finite, got {min_prob}"
        );
        let max_weight = (n as f64 * min_prob).powf(-beta);
        debug_assert!(
            max_weight.is_finite() && max_weight > 0.0,
            "weight normaliser must be positive and finite, got {max_weight}"
        );
        for _ in 0..batch {
            let value = rng.gen::<f64>() * total;
            let idx = self.tree.find(value).min(n - 1);
            let prob = (self.tree.get(idx) / total).max(f64::MIN_POSITIVE);
            let weight = (n as f64 * prob).powf(-beta) / max_weight;
            // `prob >= min_prob` for every sampled slot, so `weight <= 1` holds exactly;
            // a violation means the sum tree or the normaliser drifted. Assert instead
            // of masking it with a clamp — a silent `.min(1.0)` hid real normalisation
            // bugs (and would let a NaN weight straight through, since `NaN.min(1.0)`
            // is NaN).
            debug_assert!(
                weight.is_finite() && weight <= 1.0 + 1e-9,
                "importance weight {weight} outside (0, 1] — sum-tree drift or a \
                 zero-priority slot was sampled (prob {prob}, min_prob {min_prob})"
            );
            out.indices.push(idx);
            out.weights.push(weight);
        }

        let Some(&first) = out.indices.first() else {
            return;
        };
        let dim = self.transitions[first].state_dim();
        out.states.reset_to(out.indices.len(), dim);
        for (i, &idx) in out.indices.iter().enumerate() {
            let t = &self.transitions[idx];
            out.states.row_mut(i).copy_from_slice(&t.state);
            out.actions.push(t.action);
            out.rewards.push(t.reward);
            if !t.is_terminal() {
                out.non_terminal.push(i);
            }
        }
        if !out.non_terminal.is_empty() {
            out.next_states.reset_to(out.non_terminal.len(), dim);
            for (row, &i) in out.non_terminal.iter().enumerate() {
                let next = self.transitions[out.indices[i]].next_state.as_deref();
                out.next_states
                    .row_mut(row)
                    .copy_from_slice(next.expect("non-terminal"));
            }
        }
    }

    /// Update the priorities of previously sampled slots from their new TD errors.
    ///
    /// # Panics
    /// Panics if the slice lengths differ.
    pub fn update_priorities(&mut self, indices: &[usize], td_errors: &[f64]) {
        assert_eq!(indices.len(), td_errors.len(), "length mismatch");
        for (&idx, &err) in indices.iter().zip(td_errors) {
            if idx >= self.transitions.len() {
                continue;
            }
            let magnitude = err.abs().max(self.priority_floor);
            self.max_priority = self.max_priority.max(magnitude);
            self.tree.set(idx, magnitude.powf(self.alpha));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn t(id: f64) -> Transition {
        Transition::terminal(vec![id], 0, id)
    }

    fn sample(per: &PrioritizedReplay, batch: usize, beta: f64, rng: &mut StdRng) -> SampledBatch {
        let mut out = SampledBatch::new();
        per.sample(batch, beta, rng, &mut out);
        out
    }

    #[test]
    fn sampled_rows_are_the_stored_transitions() {
        // Two-feature states, every third transition terminal; one batch reused across
        // samples of different sizes and terminal mixes.
        let mut per = PrioritizedReplay::new(16, 0.6);
        for i in 0..12 {
            let state = vec![i as f64, -(i as f64)];
            per.push(if i % 3 == 0 {
                Transition::terminal(state, i % 2, i as f64)
            } else {
                Transition::new(state, i % 2, i as f64, vec![i as f64 + 0.5, 1.0])
            });
        }
        let mut rng = StdRng::seed_from_u64(8);
        let mut batch = SampledBatch::new();
        for size in [9, 3, 20, 1] {
            per.sample(size, 0.4, &mut rng, &mut batch);
            assert_eq!(batch.len(), size);
            assert_eq!((batch.states.rows(), batch.states.cols()), (size, 2));
            let mut next_row = 0;
            for (i, &slot) in batch.indices.iter().enumerate() {
                let t = &per.transitions[slot];
                assert_eq!(batch.states.row(i), &t.state[..]);
                assert_eq!((batch.actions[i], batch.rewards[i]), (t.action, t.reward));
                if let Some(next) = &t.next_state {
                    assert_eq!(batch.non_terminal[next_row], i);
                    assert_eq!(batch.next_states.row(next_row), &next[..]);
                    next_row += 1;
                }
            }
            assert_eq!(batch.non_terminal.len(), next_row);
            if next_row > 0 {
                assert_eq!(batch.next_states.rows(), next_row);
            }
        }
    }

    #[test]
    fn push_and_len_with_eviction() {
        let mut per = PrioritizedReplay::new(2, 0.6);
        per.push(t(1.0));
        per.push(t(2.0));
        per.push(t(3.0));
        assert_eq!(per.len(), 2);
        assert_eq!(per.capacity(), 2);
    }

    #[test]
    fn sampling_empty_returns_empty_batch() {
        let per = PrioritizedReplay::new(4, 0.6);
        let mut rng = StdRng::seed_from_u64(1);
        let b = sample(&per, 8, 0.4, &mut rng);
        assert!(b.is_empty() && b.weights.is_empty() && b.actions.is_empty());
    }

    #[test]
    fn high_priority_transitions_are_sampled_more_often() {
        let mut per = PrioritizedReplay::new(4, 1.0);
        for i in 0..4 {
            per.push(t(i as f64));
        }
        // Give slot 3 a much larger TD error.
        per.update_priorities(&[0, 1, 2, 3], &[0.01, 0.01, 0.01, 10.0]);
        let mut rng = StdRng::seed_from_u64(2);
        let batch = sample(&per, 5000, 0.4, &mut rng);
        let hot = batch.indices.iter().filter(|&&i| i == 3).count();
        assert!(
            hot as f64 / batch.indices.len() as f64 > 0.9,
            "hot slot sampled {hot} of {}",
            batch.indices.len()
        );
    }

    #[test]
    fn alpha_zero_is_close_to_uniform() {
        let mut per = PrioritizedReplay::new(4, 0.0);
        for i in 0..4 {
            per.push(t(i as f64));
        }
        per.update_priorities(&[0, 1, 2, 3], &[0.01, 0.01, 0.01, 10.0]);
        let mut rng = StdRng::seed_from_u64(3);
        let batch = sample(&per, 8000, 1.0, &mut rng);
        let counts = (0..4)
            .map(|k| batch.indices.iter().filter(|&&i| i == k).count())
            .collect::<Vec<_>>();
        for &c in &counts {
            let frac = c as f64 / batch.indices.len() as f64;
            assert!(
                (frac - 0.25).abs() < 0.05,
                "uniform-ish expected, got {counts:?}"
            );
        }
    }

    #[test]
    fn importance_weights_are_normalised_and_smaller_for_hot_slots() {
        let mut per = PrioritizedReplay::new(4, 1.0);
        for i in 0..4 {
            per.push(t(i as f64));
        }
        per.update_priorities(&[0, 1, 2, 3], &[0.1, 0.1, 0.1, 5.0]);
        let mut rng = StdRng::seed_from_u64(4);
        let batch = sample(&per, 2000, 1.0, &mut rng);
        assert!(batch.weights.iter().all(|&w| w > 0.0 && w <= 1.0 + 1e-12));
        // Weights of the over-sampled slot must be below those of rare slots.
        let hot: Vec<f64> = batch
            .indices
            .iter()
            .zip(&batch.weights)
            .filter(|(&i, _)| i == 3)
            .map(|(_, &w)| w)
            .collect();
        let cold: Vec<f64> = batch
            .indices
            .iter()
            .zip(&batch.weights)
            .filter(|(&i, _)| i != 3)
            .map(|(_, &w)| w)
            .collect();
        if !hot.is_empty() && !cold.is_empty() {
            let hot_mean: f64 = hot.iter().sum::<f64>() / hot.len() as f64;
            let cold_mean: f64 = cold.iter().sum::<f64>() / cold.len() as f64;
            assert!(hot_mean < cold_mean, "hot {hot_mean} vs cold {cold_mean}");
        }
    }

    #[test]
    fn new_experiences_get_max_priority() {
        let mut per = PrioritizedReplay::new(8, 1.0);
        per.push(t(0.0));
        per.update_priorities(&[0], &[4.0]);
        // A fresh push should be stored with priority >= the current maximum, so it is
        // sampled promptly even before its TD error is known.
        per.push(t(1.0));
        let mut rng = StdRng::seed_from_u64(5);
        let batch = sample(&per, 4000, 0.4, &mut rng);
        let fresh = batch.indices.iter().filter(|&&i| i == 1).count();
        assert!(fresh as f64 / batch.indices.len() as f64 > 0.3);
    }

    #[test]
    fn push_floors_the_raw_magnitude_before_exponentiation() {
        // Regression: `push` used to floor *after* exponentiation
        // (`max_priority^alpha` then `.max(floor)`) while `update_priorities` floors the
        // raw magnitude first. Both paths must agree that the floor lives in TD-error
        // space: a floor above the running max priority yields `floor^alpha`, not
        // `floor`.
        let alpha = 0.5;
        let floor = 2.0;
        let mut per = PrioritizedReplay::new(4, alpha).with_priority_floor(floor);
        per.push(t(0.0)); // max_priority = 1.0 < floor
        assert!(
            (per.tree.get(0) - floor.powf(alpha)).abs() < 1e-15,
            "push stored {}, want floor^alpha = {}",
            per.tree.get(0),
            floor.powf(alpha)
        );
        // `update_priorities` with a sub-floor error must store the same value.
        per.push(t(1.0));
        per.update_priorities(&[1], &[0.0]);
        assert_eq!(per.tree.get(0).to_bits(), per.tree.get(1).to_bits());
    }

    #[test]
    fn sub_floor_td_errors_are_floored_consistently() {
        let mut per = PrioritizedReplay::new(2, 0.6);
        per.push(t(0.0));
        per.update_priorities(&[0], &[1e-9]);
        let expected = 1e-4f64.powf(0.6);
        assert!((per.tree.get(0) - expected).abs() < 1e-15);
    }

    #[test]
    fn all_floor_priorities_yield_unit_weights() {
        // The hardest normalisation edge: every slot sits exactly on the priority
        // floor, so min_prob == prob for every sample and the importance weights must
        // be exactly 1 — never NaN/inf, never above 1.
        let mut per = PrioritizedReplay::new(8, 0.7);
        for i in 0..8 {
            per.push(t(i as f64));
        }
        let indices: Vec<usize> = (0..8).collect();
        per.update_priorities(&indices, &[0.0; 8]);
        let mut rng = StdRng::seed_from_u64(6);
        for beta in [0.0, 0.4, 1.0] {
            let batch = sample(&per, 64, beta, &mut rng);
            assert_eq!(batch.weights.len(), 64);
            for &w in &batch.weights {
                assert!(w.is_finite());
                assert_eq!(w.to_bits(), 1.0f64.to_bits(), "all-floor weight must be 1");
            }
        }
    }

    #[test]
    fn importance_weights_are_always_finite_under_extreme_spreads() {
        // Nine orders of magnitude of priority spread with full correction (beta = 1):
        // weights must stay finite and within the normalisation bound.
        let mut per = PrioritizedReplay::new(16, 1.0);
        for i in 0..16 {
            per.push(t(i as f64));
        }
        let indices: Vec<usize> = (0..16).collect();
        let errors: Vec<f64> = (0..16).map(|i| 10f64.powi(i - 8)).collect();
        per.update_priorities(&indices, &errors);
        let mut rng = StdRng::seed_from_u64(7);
        let batch = sample(&per, 2000, 1.0, &mut rng);
        for &w in &batch.weights {
            assert!(w.is_finite() && w > 0.0 && w <= 1.0 + 1e-9, "weight {w}");
        }
    }

    #[test]
    #[should_panic(expected = "alpha must be in")]
    fn bad_alpha_rejected() {
        PrioritizedReplay::new(4, 1.5);
    }

    #[test]
    #[should_panic(expected = "priority floor must be positive")]
    fn bad_floor_rejected() {
        let _ = PrioritizedReplay::new(4, 0.5).with_priority_floor(0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_priority_update_rejected() {
        let mut per = PrioritizedReplay::new(4, 0.5);
        per.push(t(0.0));
        per.update_priorities(&[0], &[1.0, 2.0]);
    }
}

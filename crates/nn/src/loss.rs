//! The Huber loss with per-sample weights.
//!
//! Deep Q-learning regresses the predicted Q-value of the taken action towards a TD
//! target. The paper uses the standard DQN recipe: a Huber loss (quadratic near zero,
//! linear in the tails) to bound the gradient of outlier TD errors, combined with the
//! importance-sampling weights produced by prioritized experience replay. The batch
//! methods therefore accept an optional per-sample weight vector.

/// The DQN Huber loss: quadratic for errors `|e| ≤ 1`, linear beyond.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Huber;

impl Huber {
    /// Error magnitude at which the loss switches from quadratic to linear.
    const DELTA: f64 = 1.0;

    /// Loss value for one prediction/target pair.
    pub fn value(self, prediction: f64, target: f64) -> f64 {
        let err = prediction - target;
        if err.abs() <= Self::DELTA {
            0.5 * err * err
        } else {
            Self::DELTA * (err.abs() - 0.5 * Self::DELTA)
        }
    }

    /// Derivative of the loss with respect to the prediction.
    pub fn gradient(self, prediction: f64, target: f64) -> f64 {
        let err = prediction - target;
        err.clamp(-Self::DELTA, Self::DELTA)
    }

    /// Weighted mean loss over a batch. Weights default to 1 when `weights` is `None`.
    ///
    /// # Panics
    /// Panics if the slice lengths differ.
    pub fn batch_value(self, predictions: &[f64], targets: &[f64], weights: Option<&[f64]>) -> f64 {
        assert_eq!(predictions.len(), targets.len(), "length mismatch");
        if let Some(w) = weights {
            assert_eq!(w.len(), predictions.len(), "weight length mismatch");
        }
        if predictions.is_empty() {
            return 0.0;
        }
        predictions
            .iter()
            .zip(targets)
            .enumerate()
            .map(|(i, (&p, &t))| {
                let w = weights.map_or(1.0, |w| w[i]);
                w * self.value(p, t)
            })
            .sum::<f64>()
            / predictions.len() as f64
    }

    /// Per-sample gradients of the weighted mean batch loss, written into `out`
    /// (cleared first, allocation reused).
    ///
    /// # Panics
    /// Panics if the slice lengths differ.
    pub fn batch_gradient_into(
        self,
        predictions: &[f64],
        targets: &[f64],
        weights: Option<&[f64]>,
        out: &mut Vec<f64>,
    ) {
        assert_eq!(predictions.len(), targets.len(), "length mismatch");
        let n = predictions.len().max(1) as f64;
        out.clear();
        out.extend(
            predictions
                .iter()
                .zip(targets)
                .enumerate()
                .map(|(i, (&p, &t))| {
                    let w = weights.map_or(1.0, |w| w[i]);
                    w * self.gradient(p, t) / n
                }),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn huber_is_quadratic_near_zero_and_linear_far() {
        assert!((Huber.value(0.5, 0.0) - 0.125).abs() < 1e-12);
        // Far from zero: delta * (|err| - delta/2) = 1 * (3 - 0.5) = 2.5.
        assert!((Huber.value(3.0, 0.0) - 2.5).abs() < 1e-12);
        // Gradient is clamped.
        assert_eq!(Huber.gradient(3.0, 0.0), 1.0);
        assert_eq!(Huber.gradient(-3.0, 0.0), -1.0);
        assert_eq!(Huber.gradient(0.3, 0.0), 0.3);
    }

    #[test]
    fn huber_gradient_matches_numerical() {
        let eps = 1e-6;
        for &p in &[-5.0, -1.5, 0.0, 1.0, 5.0] {
            let numeric = (Huber.value(p + eps, 0.5) - Huber.value(p - eps, 0.5)) / (2.0 * eps);
            assert!((numeric - Huber.gradient(p, 0.5)).abs() < 1e-5);
        }
    }

    #[test]
    fn batch_loss_averages_and_weights() {
        // One error inside |e| ≤ 1 (0.5 → 0.125), one outside (3 → 2.5).
        let preds = [0.5, 3.0];
        let targets = [0.0, 0.0];
        assert!((Huber.batch_value(&preds, &targets, None) - 1.3125).abs() < 1e-12);
        let weighted = Huber.batch_value(&preds, &targets, Some(&[1.0, 0.5]));
        assert!((weighted - 0.6875).abs() < 1e-12); // (0.125 + 0.5 * 2.5) / 2
        let inside_only = Huber.batch_value(&preds, &targets, Some(&[1.0, 0.0]));
        assert!((inside_only - 0.0625).abs() < 1e-12);
    }

    #[test]
    fn batch_gradient_scales_with_weights_and_batch_size() {
        let mut g = vec![f64::NAN; 5];
        Huber.batch_gradient_into(&[0.5, -3.0], &[0.0, 0.0], Some(&[1.0, 0.5]), &mut g);
        assert_eq!(g.len(), 2);
        assert!((g[0] - 0.25).abs() < 1e-12); // 1.0 * 0.5 / 2
        assert!((g[1] + 0.25).abs() < 1e-12); // 0.5 * clamp(-3) / 2
    }

    #[test]
    fn empty_batch_is_zero() {
        assert_eq!(Huber.batch_value(&[], &[], None), 0.0);
        let mut g = vec![1.0];
        Huber.batch_gradient_into(&[], &[], None, &mut g);
        assert!(g.is_empty());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_rejected() {
        Huber.batch_value(&[1.0], &[1.0, 2.0], None);
    }
}

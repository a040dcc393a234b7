//! Loss functions with per-sample weights.
//!
//! Deep Q-learning regresses the predicted Q-value of the taken action towards a TD
//! target. The paper uses the standard DQN recipe: a Huber loss (quadratic near zero,
//! linear in the tails) to bound the gradient of outlier TD errors, combined with the
//! importance-sampling weights produced by prioritized experience replay. Both losses
//! here therefore accept an optional per-sample weight vector.

use serde::{Deserialize, Serialize};

/// A regression loss over scalar predictions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Loss {
    /// Mean squared error.
    MeanSquaredError,
    /// Huber loss with the given transition point `delta`.
    Huber {
        /// Error magnitude at which the loss switches from quadratic to linear.
        delta: f64,
    },
}

impl Loss {
    /// The conventional DQN Huber loss (`delta = 1`).
    pub fn huber() -> Self {
        Loss::Huber { delta: 1.0 }
    }

    /// Loss value for one prediction/target pair.
    pub fn value(self, prediction: f64, target: f64) -> f64 {
        let err = prediction - target;
        match self {
            Loss::MeanSquaredError => err * err,
            Loss::Huber { delta } => {
                if err.abs() <= delta {
                    0.5 * err * err
                } else {
                    delta * (err.abs() - 0.5 * delta)
                }
            }
        }
    }

    /// Derivative of the loss with respect to the prediction.
    pub fn gradient(self, prediction: f64, target: f64) -> f64 {
        let err = prediction - target;
        match self {
            Loss::MeanSquaredError => 2.0 * err,
            Loss::Huber { delta } => err.clamp(-delta, delta),
        }
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

    /// Per-sample gradients of the weighted mean batch loss.
    pub fn batch_gradient(
        self,
        predictions: &[f64],
        targets: &[f64],
        weights: Option<&[f64]>,
    ) -> Vec<f64> {
        let mut out = Vec::with_capacity(predictions.len());
        self.batch_gradient_into(predictions, targets, weights, &mut out);
        out
    }

    /// [`Loss::batch_gradient`] written into `out` (cleared first, allocation reused).
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
    fn mse_values_and_gradients() {
        let l = Loss::MeanSquaredError;
        assert_eq!(l.value(3.0, 1.0), 4.0);
        assert_eq!(l.gradient(3.0, 1.0), 4.0);
        assert_eq!(l.gradient(1.0, 3.0), -4.0);
    }

    #[test]
    fn huber_is_quadratic_near_zero_and_linear_far() {
        let l = Loss::huber();
        assert!((l.value(0.5, 0.0) - 0.125).abs() < 1e-12);
        // Far from zero: delta * (|err| - delta/2) = 1 * (3 - 0.5) = 2.5.
        assert!((l.value(3.0, 0.0) - 2.5).abs() < 1e-12);
        // Gradient is clamped.
        assert_eq!(l.gradient(3.0, 0.0), 1.0);
        assert_eq!(l.gradient(-3.0, 0.0), -1.0);
        assert_eq!(l.gradient(0.3, 0.0), 0.3);
    }

    #[test]
    fn huber_gradient_matches_numerical() {
        let l = Loss::Huber { delta: 2.0 };
        let eps = 1e-6;
        for &p in &[-5.0, -1.5, 0.0, 1.5, 5.0] {
            let numeric = (l.value(p + eps, 0.5) - l.value(p - eps, 0.5)) / (2.0 * eps);
            assert!((numeric - l.gradient(p, 0.5)).abs() < 1e-5);
        }
    }

    #[test]
    fn batch_loss_averages_and_weights() {
        let l = Loss::MeanSquaredError;
        let preds = [1.0, 2.0];
        let targets = [0.0, 0.0];
        assert!((l.batch_value(&preds, &targets, None) - 2.5).abs() < 1e-12);
        let weighted = l.batch_value(&preds, &targets, Some(&[1.0, 0.0]));
        assert!((weighted - 0.5).abs() < 1e-12);
    }

    #[test]
    fn batch_gradient_scales_with_weights_and_batch_size() {
        let l = Loss::MeanSquaredError;
        let g = l.batch_gradient(&[2.0, 2.0], &[0.0, 0.0], Some(&[1.0, 0.5]));
        assert!((g[0] - 2.0).abs() < 1e-12); // 1.0 * 2*2 / 2
        assert!((g[1] - 1.0).abs() < 1e-12); // 0.5 * 2*2 / 2
    }

    #[test]
    fn empty_batch_is_zero() {
        assert_eq!(Loss::huber().batch_value(&[], &[], None), 0.0);
        assert!(Loss::huber().batch_gradient(&[], &[], None).is_empty());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_rejected() {
        Loss::huber().batch_value(&[1.0], &[1.0, 2.0], None);
    }
}

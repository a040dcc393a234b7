//! The Adam optimizer, the one optimizer the paper's agent trains with.
//!
//! Adam keeps its per-parameter state (first and second moments) keyed by a stable tensor
//! id supplied by the network's parameter visitor, so one optimizer instance can drive a
//! whole network.

use std::collections::HashMap;

/// Adam: adaptive moment estimation with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    epsilon: f64,
    step: u64,
    first_moment: HashMap<usize, Vec<f64>>,
    second_moment: HashMap<usize, Vec<f64>>,
}

impl Adam {
    /// Create an Adam optimizer with the conventional β₁ = 0.9, β₂ = 0.999.
    ///
    /// # Panics
    /// Panics if `lr <= 0`.
    pub fn new(lr: f64) -> Self {
        assert!(lr > 0.0 && lr.is_finite(), "learning rate must be positive");
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
            step: 0,
            first_moment: HashMap::new(),
            second_moment: HashMap::new(),
        }
    }

    /// Update one parameter tensor in place given its accumulated gradient. Returns
    /// whether every parameter it wrote is finite: a layer keeps its proof that its
    /// weights are finite from this, with no second pass over them.
    pub fn update(&mut self, tensor_id: usize, params: &mut [f64], grads: &[f64]) -> bool {
        assert_eq!(
            params.len(),
            grads.len(),
            "parameter/gradient length mismatch"
        );
        // Tensor 0 marks the start of a new optimisation step so bias correction uses a
        // consistent step count across all tensors of one network update.
        if tensor_id == 0 {
            self.step += 1;
        }
        let t = self.step.max(1) as f64;
        let m = self
            .first_moment
            .entry(tensor_id)
            .or_insert_with(|| vec![0.0; params.len()]);
        let v = self
            .second_moment
            .entry(tensor_id)
            .or_insert_with(|| vec![0.0; params.len()]);
        assert_eq!(m.len(), params.len(), "tensor size changed");
        let bias1 = 1.0 - self.beta1.powf(t);
        let bias2 = 1.0 - self.beta2.powf(t);
        let mut all_finite = true;
        for (((p, &g), mi), vi) in params
            .iter_mut()
            .zip(grads)
            .zip(m.iter_mut())
            .zip(v.iter_mut())
        {
            *mi = self.beta1 * *mi + (1.0 - self.beta1) * g;
            *vi = self.beta2 * *vi + (1.0 - self.beta2) * g * g;
            let m_hat = *mi / bias1;
            let v_hat = *vi / bias2;
            *p -= self.lr * m_hat / (v_hat.sqrt() + self.epsilon);
            all_finite &= p.is_finite();
        }
        all_finite
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adam_converges_on_quadratic() {
        // Minimise f(x) = (x - 3)^2 starting from 0.
        let mut opt = Adam::new(0.1);
        let mut x = vec![0.0f64];
        for _ in 0..500 {
            let grad = vec![2.0 * (x[0] - 3.0)];
            opt.update(0, &mut x, &grad);
        }
        assert!((x[0] - 3.0).abs() < 0.01, "x = {}", x[0]);
    }

    #[test]
    fn separate_tensors_have_separate_state() {
        let mut opt = Adam::new(0.1);
        let mut a = vec![0.0];
        let mut b = vec![0.0];
        for _ in 0..10 {
            opt.update(0, &mut a, &[1.0]);
            opt.update(1, &mut b, &[-1.0]);
        }
        assert!(a[0] < 0.0);
        assert!(b[0] > 0.0);
        assert!(
            (a[0] + b[0]).abs() < 1e-12,
            "symmetric histories stay symmetric"
        );
    }

    #[test]
    fn update_reports_whether_every_written_parameter_is_finite() {
        let mut opt = Adam::new(0.1);
        let mut params = vec![0.5, -1.0, 2.0];
        assert!(opt.update(0, &mut params, &[1.0, 0.0, -3.0]));
        assert!(params.iter().all(|p| p.is_finite()));
        // An infinite gradient writes a NaN parameter (∞ / ∞ in the step).
        assert!(!opt.update(0, &mut params, &[0.0, f64::INFINITY, 0.0]));
        assert!(params[1].is_nan());
        // An already infinite parameter stays infinite under a finite step.
        let mut params = vec![f64::INFINITY];
        assert!(!opt.update(1, &mut params, &[1.0]));
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn zero_learning_rate_rejected() {
        Adam::new(0.0);
    }
}

//! Activation functions and their derivatives.

use serde::{Deserialize, Serialize};

/// An element-wise activation function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// Identity (used for output heads that predict unbounded Q-values).
    Identity,
    /// Rectified linear unit, `max(0, x)` (the hidden layers of the trunk).
    Relu,
}

impl Activation {
    /// Apply the activation to one value.
    pub fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Identity => x,
            Activation::Relu => x.max(0.0),
        }
    }

    /// Derivative of the activation with respect to its input, expressed as a function of
    /// the *pre-activation* value `x`.
    pub fn derivative(self, x: f64) -> f64 {
        match self {
            Activation::Identity => 1.0,
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;

    const ALL: [Activation; 2] = [Activation::Identity, Activation::Relu];

    #[test]
    fn known_values() {
        assert_eq!(Activation::Identity.apply(-3.0), -3.0);
        assert_eq!(Activation::Relu.apply(-3.0), 0.0);
        assert_eq!(Activation::Relu.apply(2.0), 2.0);
    }

    #[test]
    fn derivatives_match_numerical_gradient() {
        let eps = 1e-6;
        for act in ALL {
            for &x in &[-2.0, -0.5, 0.3, 1.7] {
                let numeric = (act.apply(x + eps) - act.apply(x - eps)) / (2.0 * eps);
                let analytic = act.derivative(x);
                assert!(
                    (numeric - analytic).abs() < 1e-5,
                    "{act:?} at {x}: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn relu_derivative_is_zero_for_negative_inputs() {
        assert_eq!(Activation::Relu.derivative(-0.1), 0.0);
        assert_eq!(Activation::Relu.derivative(0.1), 1.0);
    }

    /// Pins today's `x.max(0.0)` at its edges, through an opaque input so that neither
    /// the scalar path nor the layers' element-wise maps get constant-folded: a NaN
    /// pre-activation becomes `+0.0` (it does not propagate), and `-0.0` becomes a zero
    /// whose sign `f64::max` leaves unspecified (`-0.0` in debug builds, `+0.0` in
    /// release builds today). Both feed the trained agent's bits, so the ReLU must not
    /// be rewritten as a tidy-up: what a NaN pre-activation should become belongs to the
    /// fail-safe item of ROADMAP.md (a NaN Q-value gets a defined outcome).
    #[test]
    fn relu_maps_nan_to_zero_and_negative_zero_to_a_zero() {
        let relu = |x: f64| Activation::Relu.apply(std::hint::black_box(x));
        assert_eq!(relu(f64::NAN).to_bits(), 0.0f64.to_bits());
        assert_eq!(relu(-0.0), 0.0);
        let mut m = Matrix::from_fn(3, 17, |i, _| [f64::NAN, -0.0, -1.0][i]);
        m.map_assign(|x| Activation::Relu.apply(std::hint::black_box(x)));
        assert!(m.row(0).iter().all(|v| v.to_bits() == 0.0f64.to_bits()));
        assert!(m.data().iter().all(|&v| v == 0.0));
        assert_eq!(Activation::Relu.derivative(f64::NAN), 0.0);
        assert_eq!(Activation::Relu.derivative(-0.0), 0.0);
    }
}

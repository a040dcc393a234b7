//! Activation functions and their derivatives.

use serde::{Deserialize, Serialize};

/// An element-wise activation function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// Identity (used for output heads that predict unbounded Q-values).
    Identity,
    /// Rectified linear unit, `max(0, x)`.
    Relu,
    /// Leaky ReLU with slope 0.01 for negative inputs.
    LeakyRelu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
}

impl Activation {
    /// Apply the activation to one value.
    pub fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Identity => x,
            Activation::Relu => x.max(0.0),
            Activation::LeakyRelu => {
                if x >= 0.0 {
                    x
                } else {
                    0.01 * x
                }
            }
            Activation::Tanh => x.tanh(),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
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
            Activation::LeakyRelu => {
                if x >= 0.0 {
                    1.0
                } else {
                    0.01
                }
            }
            Activation::Tanh => {
                let t = x.tanh();
                1.0 - t * t
            }
            Activation::Sigmoid => {
                let s = 1.0 / (1.0 + (-x).exp());
                s * (1.0 - s)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Activation; 5] = [
        Activation::Identity,
        Activation::Relu,
        Activation::LeakyRelu,
        Activation::Tanh,
        Activation::Sigmoid,
    ];

    #[test]
    fn known_values() {
        assert_eq!(Activation::Identity.apply(-3.0), -3.0);
        assert_eq!(Activation::Relu.apply(-3.0), 0.0);
        assert_eq!(Activation::Relu.apply(2.0), 2.0);
        assert!((Activation::LeakyRelu.apply(-2.0) + 0.02).abs() < 1e-12);
        assert!((Activation::Tanh.apply(0.0)).abs() < 1e-12);
        assert!((Activation::Sigmoid.apply(0.0) - 0.5).abs() < 1e-12);
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

    #[test]
    fn sigmoid_saturates() {
        assert!(Activation::Sigmoid.apply(30.0) > 0.999);
        assert!(Activation::Sigmoid.apply(-30.0) < 0.001);
        assert!(Activation::Sigmoid.derivative(30.0) < 1e-10);
    }
}

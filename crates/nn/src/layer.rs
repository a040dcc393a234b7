//! A dense (fully-connected) layer with forward and backward passes.

use crate::activation::Activation;
use crate::init::WeightInit;
use crate::matrix::Matrix;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A fully-connected layer: `output = activation(input · W + b)`.
///
/// Weights are stored as an `input_dim × output_dim` matrix so a batch of rows can be
/// multiplied directly. The layer caches the last training forward pass's input and
/// pre-activation, which the backward pass consumes; gradients accumulate in `grad_*`
/// until [`DenseLayer::clear_gradients`] (or an optimizer step) resets them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DenseLayer {
    weights: Matrix,
    bias: Vec<f64>,
    activation: Activation,
    /// `None` until the first [`DenseLayer::forward_train`].
    train: Option<TrainBuffers>,
    grad_weights: Matrix,
    grad_bias: Vec<f64>,
    /// Proof that every weight is finite, so an inference product may skip the terms of
    /// zero inputs (a skipped `0·w` is `±0`, which never changes a sum). Established by
    /// [`DenseLayer::drop_training_buffers`] and revoked by
    /// [`DenseLayer::visit_params`], the only `&mut` path to the weights; so a network
    /// in training always runs the dense product.
    #[serde(skip)]
    weights_finite: bool,
}

/// A layer's training buffers: the cached forward pass the backward pass consumes, and
/// the outputs of both passes. Every pass overwrites them (allocations reused, batch
/// shape permitting), so nothing is allocated after the first update.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct TrainBuffers {
    input: Matrix,
    preactivation: Matrix,
    output: Matrix,
    grad_z: Matrix,
    grad_input: Matrix,
    column_sums: Vec<f64>,
}

impl DenseLayer {
    /// Create a layer with the given fan-in/fan-out, activation and initialisation.
    pub fn new<R: Rng + ?Sized>(
        input_dim: usize,
        output_dim: usize,
        activation: Activation,
        init: WeightInit,
        rng: &mut R,
    ) -> Self {
        let weights = Matrix::from_fn(input_dim, output_dim, |_, _| {
            init.sample(input_dim, output_dim, rng)
        });
        Self {
            weights,
            bias: vec![0.0; output_dim],
            activation,
            train: None,
            grad_weights: Matrix::zeros(input_dim, output_dim),
            grad_bias: vec![0.0; output_dim],
            weights_finite: false,
        }
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.weights.rows()
    }

    /// Output dimension.
    pub fn output_dim(&self) -> usize {
        self.weights.cols()
    }

    /// The activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.weights.rows() * self.weights.cols() + self.bias.len()
    }

    /// Immutable access to the weights (for inspection and tests).
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// Immutable access to the bias.
    pub fn bias(&self) -> &[f64] {
        &self.bias
    }

    /// Copy the weights and bias, and the proof that the weights are finite, from another
    /// layer of identical shape.
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn copy_params_from(&mut self, other: &DenseLayer) {
        assert_eq!(self.weights.rows(), other.weights.rows(), "shape mismatch");
        assert_eq!(self.weights.cols(), other.weights.cols(), "shape mismatch");
        self.weights.copy_from(&other.weights);
        self.bias.copy_from_slice(&other.bias);
        self.weights_finite = other.weights_finite;
    }

    /// Allocating wrapper over [`DenseLayer::forward_batch_into`] for tests.
    #[cfg(test)]
    pub(crate) fn forward(&self, input: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(1, 1);
        self.forward_batch_into(input, &mut out);
        out
    }

    /// Inference-only forward pass written into a caller-provided buffer (reshaped as
    /// needed, allocation reused); the allocation-free path the online serving batches
    /// ride. Once the weights are proven finite, rows of a batch of 1–3 skip their zero
    /// inputs, with the same bits as the dense product.
    pub fn forward_batch_into(&self, input: &Matrix, out: &mut Matrix) {
        if self.weights_finite {
            input.matmul_into_skipping_zeros(&self.weights, out);
        } else {
            input.matmul_into(&self.weights, out);
        }
        out.add_row_broadcast(&self.bias);
        out.map_assign(|x| self.activation.apply(x));
    }

    /// Training forward pass: caches the input and pre-activation for the backward pass
    /// and returns the output. Same kernels and op order as
    /// [`DenseLayer::forward_batch_into`], so the results are bit-identical; the buffers
    /// are reused across passes.
    pub fn forward_train(&mut self, input: &Matrix) -> &Matrix {
        let activation = self.activation;
        let buffers = self.train.get_or_insert_with(|| TrainBuffers {
            input: Matrix::zeros(1, 1),
            preactivation: Matrix::zeros(1, 1),
            output: Matrix::zeros(1, 1),
            grad_z: Matrix::zeros(1, 1),
            grad_input: Matrix::zeros(1, 1),
            column_sums: Vec::new(),
        });
        let z = &mut buffers.preactivation;
        input.matmul_into(&self.weights, z);
        z.add_row_broadcast(&self.bias);
        buffers.output.copy_from(z);
        buffers.output.map_assign(|x| activation.apply(x));
        buffers.input.copy_from(input);
        &buffers.output
    }

    /// Backward pass: given `dL/d(output)`, accumulate `dL/dW` and `dL/db` and return
    /// `dL/d(input)`.
    ///
    /// # Panics
    /// Panics if no training forward pass preceded this call or the gradient shape does
    /// not match the cached batch.
    pub fn backward(&mut self, grad_output: &Matrix) -> &Matrix {
        let output_dim = self.output_dim();
        let activation = self.activation;
        let TrainBuffers {
            input,
            preactivation,
            grad_z,
            grad_input,
            column_sums,
            ..
        } = self
            .train
            .as_mut()
            .expect("backward called without forward_train");
        assert_eq!(grad_output.rows(), input.rows(), "batch size mismatch");
        assert_eq!(grad_output.cols(), output_dim, "gradient width mismatch");

        // dL/dz = dL/dy * act'(z)
        grad_z.copy_from(grad_output);
        grad_z.zip_map_assign(preactivation, |g, zv| g * activation.derivative(zv));
        // dL/dW += input^T · dL/dz, accumulated straight into the gradient buffer with
        // no transposed copy and no temporary; dL/db = column sums of dL/dz.
        input.matmul_tn_acc(grad_z, &mut self.grad_weights);
        grad_z.column_sums_into(column_sums);
        for (gb, s) in self.grad_bias.iter_mut().zip(column_sums.iter()) {
            *gb += s;
        }
        // dL/d(input) = dL/dz · W^T, again without materialising the transpose.
        grad_z.matmul_nt_into(&self.weights, grad_input);
        grad_input
    }

    /// Freeze the layer for inference: drop the training buffers (the next
    /// [`DenseLayer::forward_train`] allocates them again; inference never reads them)
    /// and check the weights, so inference may skip zero inputs while they stay finite.
    pub fn drop_training_buffers(&mut self) {
        self.train = None;
        self.weights_finite = self.weights.data().iter().all(|w| w.is_finite());
    }

    /// Reset the accumulated gradients to zero. Overwrites rather than scales: under
    /// IEEE 754 `0·NaN` and `0·∞` are NaN, so scaling by zero would let one non-finite
    /// gradient survive every clear.
    pub fn clear_gradients(&mut self) {
        self.grad_weights.data_mut().fill(0.0);
        for g in &mut self.grad_bias {
            *g = 0.0;
        }
    }

    /// Visit `(parameters, gradients)` pairs: first the flattened weights, then the bias.
    /// The visitor receives a stable per-tensor index offset so optimizers can keep
    /// per-tensor state. The visitor may write any value, so this revokes the proof that
    /// the weights are finite until the next [`DenseLayer::drop_training_buffers`].
    pub fn visit_params(
        &mut self,
        base_id: usize,
        mut visit: impl FnMut(usize, &mut [f64], &[f64]),
    ) {
        self.weights_finite = false;
        visit(base_id, self.weights.data_mut(), self.grad_weights.data());
        visit(base_id + 1, &mut self.bias, &self.grad_bias);
    }

    /// Accumulated weight-gradient matrix (for tests).
    pub fn grad_weights(&self) -> &Matrix {
        &self.grad_weights
    }

    /// Accumulated bias gradient (for tests).
    pub fn grad_bias(&self) -> &[f64] {
        &self.grad_bias
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn layer(act: Activation) -> DenseLayer {
        let mut rng = StdRng::seed_from_u64(1);
        DenseLayer::new(3, 2, act, WeightInit::HeNormal, &mut rng)
    }

    #[test]
    fn shapes_and_param_count() {
        let l = layer(Activation::Relu);
        assert_eq!(l.input_dim(), 3);
        assert_eq!(l.output_dim(), 2);
        assert_eq!(l.param_count(), 3 * 2 + 2);
    }

    #[test]
    fn forward_matches_manual_computation_for_identity() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut l = DenseLayer::new(2, 1, Activation::Identity, WeightInit::Zeros, &mut rng);
        // Manually set weights to [1, 2]^T and bias to 0.5.
        l.weights = Matrix::from_vec(2, 1, vec![1.0, 2.0]);
        l.bias = vec![0.5];
        let x = Matrix::from_vec(2, 2, vec![1.0, 1.0, 3.0, -1.0]);
        let y = l.forward(&x);
        assert_eq!(y.data(), &[3.5, 1.5]);
    }

    #[test]
    fn forward_and_forward_train_agree() {
        let mut l = layer(Activation::Tanh);
        let x = Matrix::from_vec(2, 3, vec![0.1, -0.2, 0.3, 1.0, 0.5, -0.5]);
        let a = l.forward(&x);
        let b = l.forward_train(&x);
        assert_eq!(&a, b);
    }

    #[test]
    fn backward_gradients_match_numerical_gradients() {
        // Loss = sum(output); check dL/dW numerically.
        let mut l = layer(Activation::Tanh);
        let x = Matrix::from_vec(2, 3, vec![0.3, -0.1, 0.8, -0.4, 0.9, 0.2]);
        let ones = Matrix::from_vec(2, 2, vec![1.0; 4]);
        let _ = l.forward_train(&x);
        let _ = l.backward(&ones);
        let analytic = l.grad_weights().clone();

        let eps = 1e-6;
        for i in 0..3 {
            for j in 0..2 {
                let orig = l.weights.get(i, j);
                l.weights.set(i, j, orig + eps);
                let plus: f64 = l.forward(&x).data().iter().sum();
                l.weights.set(i, j, orig - eps);
                let minus: f64 = l.forward(&x).data().iter().sum();
                l.weights.set(i, j, orig);
                let numeric = (plus - minus) / (2.0 * eps);
                assert!(
                    (numeric - analytic.get(i, j)).abs() < 1e-5,
                    "dW[{i}][{j}] numeric {numeric} analytic {}",
                    analytic.get(i, j)
                );
            }
        }
    }

    #[test]
    fn backward_returns_input_gradient_of_right_shape() {
        let mut l = layer(Activation::Relu);
        let x = Matrix::from_vec(4, 3, vec![0.5; 12]);
        let _ = l.forward_train(&x);
        let gin = l.backward(&Matrix::from_vec(4, 2, vec![1.0; 8]));
        assert_eq!(gin.rows(), 4);
        assert_eq!(gin.cols(), 3);
    }

    #[test]
    fn gradients_accumulate_and_clear() {
        let mut l = layer(Activation::Identity);
        let x = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let g = Matrix::from_vec(1, 2, vec![1.0, 1.0]);
        let _ = l.forward_train(&x);
        let _ = l.backward(&g);
        let after_one = l.grad_weights().clone();
        let _ = l.forward_train(&x);
        let _ = l.backward(&g);
        // Accumulated twice -> double.
        assert!((l.grad_weights().get(2, 1) - 2.0 * after_one.get(2, 1)).abs() < 1e-12);
        l.clear_gradients();
        assert_eq!(l.grad_weights().frobenius_norm(), 0.0);
        assert!(l.grad_bias().iter().all(|&b| b == 0.0));
    }

    #[test]
    fn clear_gradients_resets_non_finite_entries_to_positive_zero() {
        let mut l = layer(Activation::Identity);
        let x = Matrix::from_vec(1, 3, vec![1.0, -2.0, 3.0]);
        let _ = l.forward_train(&x);
        let _ = l.backward(&Matrix::from_vec(1, 2, vec![f64::NAN, f64::INFINITY]));
        assert!(l.grad_weights().data().iter().any(|g| g.is_nan()));
        assert!(l.grad_weights().data().iter().any(|g| g.is_infinite()));
        l.clear_gradients();
        let positive_zero = 0.0f64.to_bits();
        assert!(l
            .grad_weights()
            .data()
            .iter()
            .chain(l.grad_bias())
            .all(|g| g.to_bits() == positive_zero));
    }

    #[test]
    fn copy_params_from_other_layer() {
        let mut a = layer(Activation::Relu);
        let b = layer(Activation::Relu);
        a.copy_params_from(&b);
        assert_eq!(a.weights(), b.weights());
        assert_eq!(a.bias(), b.bias());
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn a_frozen_layer_skips_zero_inputs_only_while_its_weights_are_finite() {
        // Input 1 is zero, so weight row 1 (parameters 2 and 3) only ever meets it as 0·w.
        let x = Matrix::from_vec(1, 3, vec![0.5, 0.0, -2.0]);
        let base = layer(Activation::Identity);
        let mut frozen = base.clone();
        frozen.drop_training_buffers();
        assert!(frozen.weights_finite);
        assert_eq!(bits(&frozen.forward(&x)), bits(&base.forward(&x)));
        for value in [f64::INFINITY, f64::NAN] {
            let poison = |l: &mut DenseLayer| {
                l.visit_params(0, |id, params, _| {
                    if id == 0 {
                        params[2..4].fill(value);
                    }
                })
            };
            // Poisoned, then frozen: the check at freezing finds the weight.
            let mut l = base.clone();
            poison(&mut l);
            l.drop_training_buffers();
            assert!(l.forward(&x).data().iter().all(|v| v.is_nan()), "{value}");
            // Frozen, then poisoned: the visit revoked the proof.
            let mut l = frozen.clone();
            poison(&mut l);
            let mut out = Matrix::zeros(1, 1);
            l.forward_batch_into(&x, &mut out);
            assert!(out.data().iter().all(|v| v.is_nan()), "{value}");
        }
        // Copying parameters copies the proof with them.
        let mut copy = layer(Activation::Identity);
        copy.copy_params_from(&frozen);
        assert!(copy.weights_finite);
        copy.copy_params_from(&base);
        assert!(!copy.weights_finite);
    }

    #[test]
    #[should_panic(expected = "without forward_train")]
    fn backward_requires_forward_train() {
        let mut l = layer(Activation::Relu);
        l.backward(&Matrix::zeros(1, 2));
    }

    #[test]
    fn visit_params_exposes_both_tensors() {
        let mut l = layer(Activation::Relu);
        let mut ids = Vec::new();
        l.visit_params(10, |id, params, grads| {
            ids.push((id, params.len(), grads.len()));
        });
        assert_eq!(ids, vec![(10, 6, 6), (11, 2, 2)]);
    }
}

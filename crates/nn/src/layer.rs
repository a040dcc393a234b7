//! A dense (fully-connected) layer with forward and backward passes.

use crate::activation::Activation;
use crate::matrix::Matrix;
use crate::optim::Adam;
use rand::Rng;
use serde::{Deserialize, Serialize};
use uerl_stats::{Distribution, Normal};

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
    /// `dL/dW`. Never holds `−0.0`, so the backward pass may leave the rows of
    /// all-zero inputs alone ([`Matrix::matmul_tn_acc_skipping_zeros`]): it is created
    /// by [`Matrix::zeros`], cleared by a `+0.0` fill, and only ever written by sums
    /// seeded from those, and a sum seeded with a value other than `−0.0` is never
    /// `−0.0`.
    grad_weights: Matrix,
    grad_bias: Vec<f64>,
    /// Proof that every weight is finite, so a product with them may skip the terms of
    /// zero inputs (a skipped `0·w` is `±0`, which never changes a sum): the forward
    /// products and the backward pass's `dL/dz · Wᵀ`, in training and in inference.
    /// Established by [`DenseLayer::new`] and [`DenseLayer::drop_training_buffers`],
    /// which check every weight, by [`DenseLayer::apply_gradients`], from the finiteness
    /// Adam reports for the weights it wrote, and copied by
    /// [`DenseLayer::copy_params_from`]; revoked by [`DenseLayer::visit_params`], which
    /// may write any value.
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
    /// Create a layer with the given fan-in/fan-out and activation. The weights are
    /// He-normal, `N(0, sqrt(2 / input_dim))` (the standard choice for ReLU networks),
    /// drawn in row-major order; the bias starts at zero.
    pub fn new<R: Rng + ?Sized>(
        input_dim: usize,
        output_dim: usize,
        activation: Activation,
        rng: &mut R,
    ) -> Self {
        let he_normal = Normal::new(0.0, (2.0 / input_dim.max(1) as f64).sqrt());
        let weights = Matrix::from_fn(input_dim, output_dim, |_, _| he_normal.sample(rng));
        Self {
            weights_finite: weights.data().iter().all(|w| w.is_finite()),
            weights,
            bias: vec![0.0; output_dim],
            activation,
            train: None,
            grad_weights: Matrix::zeros(input_dim, output_dim),
            grad_bias: vec![0.0; output_dim],
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

    /// Number of trainable parameters.
    #[cfg(test)]
    pub(crate) fn param_count(&self) -> usize {
        self.weights.rows() * self.weights.cols() + self.bias.len()
    }

    /// The weights.
    #[cfg(test)]
    pub(crate) fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// The bias.
    #[cfg(test)]
    pub(crate) fn bias(&self) -> &[f64] {
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
    /// ride. While the weights are proven finite, the product skips zero inputs, with
    /// the same bits as the dense product.
    pub fn forward_batch_into(&self, input: &Matrix, out: &mut Matrix) {
        weighted_sums(input, &self.weights, self.weights_finite, out);
        out.add_row_broadcast(&self.bias);
        out.map_assign(|x| self.activation.apply(x));
    }

    /// Training forward pass: caches the input and pre-activation for the backward pass
    /// and returns the output. Same kernels and op order as
    /// [`DenseLayer::forward_batch_into`], so the results are bit-identical; the buffers
    /// are reused across passes.
    pub fn forward_train(&mut self, input: &Matrix) -> &Matrix {
        let Self {
            weights,
            bias,
            activation,
            train,
            weights_finite,
            ..
        } = self;
        let buffers = train.get_or_insert_with(|| TrainBuffers {
            input: Matrix::zeros(1, 1),
            preactivation: Matrix::zeros(1, 1),
            output: Matrix::zeros(1, 1),
            grad_z: Matrix::zeros(1, 1),
            grad_input: Matrix::zeros(1, 1),
            column_sums: Vec::new(),
        });
        let z = &mut buffers.preactivation;
        weighted_sums(input, weights, *weights_finite, z);
        z.add_row_broadcast(bias);
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
        // no transposed copy and no temporary; the rows of inputs that are zero over the
        // whole batch are left alone while dL/dz is finite (`grad_weights` never holds
        // −0.0). dL/db = column sums of dL/dz.
        input.matmul_tn_acc_skipping_zeros(grad_z, &mut self.grad_weights);
        grad_z.column_sums_into(column_sums);
        for (gb, s) in self.grad_bias.iter_mut().zip(column_sums.iter()) {
            *gb += s;
        }
        // dL/d(input) = dL/dz · W^T, again without materialising the transpose, skipping
        // the zeros of dL/dz (the inactive ReLU units) while the weights are finite.
        if self.weights_finite {
            grad_z.matmul_nt_into_skipping_zeros(&self.weights, grad_input);
        } else {
            grad_z.matmul_nt_into(&self.weights, grad_input);
        }
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

    /// Apply the accumulated gradients with Adam, weights (tensor `base_id`) then bias
    /// (`base_id + 1`), and keep the proof that the weights are finite from what Adam
    /// reports for the weights it wrote.
    pub fn apply_gradients(&mut self, base_id: usize, optimizer: &mut Adam) {
        self.weights_finite =
            optimizer.update(base_id, self.weights.data_mut(), self.grad_weights.data());
        optimizer.update(base_id + 1, &mut self.bias, &self.grad_bias);
    }

    /// Visit `(parameters, gradients)` pairs: first the flattened weights, then the bias.
    /// The visitor receives a stable per-tensor index offset so optimizers can keep
    /// per-tensor state. The visitor may write any value, so this revokes the proof that
    /// the weights are finite until the next [`DenseLayer::apply_gradients`] or
    /// [`DenseLayer::drop_training_buffers`].
    pub fn visit_params(
        &mut self,
        base_id: usize,
        mut visit: impl FnMut(usize, &mut [f64], &[f64]),
    ) {
        self.weights_finite = false;
        visit(base_id, self.weights.data_mut(), self.grad_weights.data());
        visit(base_id + 1, &mut self.bias, &self.grad_bias);
    }

    /// Accumulated weight-gradient matrix.
    #[cfg(test)]
    pub(crate) fn grad_weights(&self) -> &Matrix {
        &self.grad_weights
    }

    /// Accumulated bias gradient.
    #[cfg(test)]
    pub(crate) fn grad_bias(&self) -> &[f64] {
        &self.grad_bias
    }
}

/// `input · weights` into `out`, skipping zero inputs when `weights_finite` proves every
/// weight finite.
fn weighted_sums(input: &Matrix, weights: &Matrix, weights_finite: bool, out: &mut Matrix) {
    if weights_finite {
        input.matmul_into_skipping_zeros(weights, out);
    } else {
        input.matmul_into(weights, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use uerl_stats::Summary;

    fn layer(act: Activation) -> DenseLayer {
        let mut rng = StdRng::seed_from_u64(1);
        DenseLayer::new(3, 2, act, &mut rng)
    }

    #[test]
    fn shapes_and_param_count() {
        let l = layer(Activation::Relu);
        assert_eq!(l.input_dim(), 3);
        assert_eq!(l.output_dim(), 2);
        assert_eq!(l.param_count(), 3 * 2 + 2);
    }

    #[test]
    fn he_normal_std_matches_fan_in() {
        let mut rng = StdRng::seed_from_u64(1);
        let l = DenseLayer::new(128, 160, Activation::Relu, &mut rng);
        let s = Summary::from_slice(l.weights().data());
        let expected_std = (2.0 / 128.0f64).sqrt();
        assert!(s.mean().abs() < 0.01);
        assert!((s.std_dev() - expected_std).abs() / expected_std < 0.05);
        assert!(l.bias().iter().all(|&b| b == 0.0));
    }

    #[test]
    fn forward_matches_manual_computation_for_identity() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut l = DenseLayer::new(2, 1, Activation::Identity, &mut rng);
        // Manually set weights to [1, 2]^T and bias to 0.5.
        l.weights = Matrix::from_vec(2, 1, vec![1.0, 2.0]);
        l.bias = vec![0.5];
        let x = Matrix::from_vec(2, 2, vec![1.0, 1.0, 3.0, -1.0]);
        let y = l.forward(&x);
        assert_eq!(y.data(), &[3.5, 1.5]);
    }

    #[test]
    fn forward_and_forward_train_agree() {
        let mut l = layer(Activation::Relu);
        let x = Matrix::from_vec(2, 3, vec![0.1, -0.2, 0.3, 1.0, 0.5, -0.5]);
        let a = l.forward(&x);
        let b = l.forward_train(&x);
        assert_eq!(&a, b);
    }

    #[test]
    fn backward_gradients_match_numerical_gradients() {
        // Loss = sum(output); check dL/dW numerically.
        let mut l = layer(Activation::Relu);
        let x = Matrix::from_vec(2, 3, vec![0.3, -0.1, 0.8, -0.4, 0.9, 0.2]);
        let ones = Matrix::from_vec(2, 2, vec![1.0; 4]);
        let out = l.forward_train(&x);
        // Both ReLU branches are exercised: some units pass, some are cut.
        assert!(out.data().iter().any(|&y| y > 0.0) && out.data().contains(&0.0));
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
        // Copying parameters copies the proof with them; a fresh finite layer holds it.
        let mut copy = layer(Activation::Identity);
        copy.copy_params_from(&frozen);
        assert!(copy.weights_finite);
        copy.copy_params_from(&base);
        assert!(copy.weights_finite);
    }

    /// A 64-row batch of 3 inputs whose input 1 is zero in every row, by turns `+0.0`
    /// and `−0.0`, and an identity layer wide enough for its 4-row tiles to skip it.
    fn dead_input_batch_and_wide_layer() -> (Matrix, DenseLayer) {
        let x = Matrix::from_fn(64, 3, |i, j| match (j, i % 2) {
            (1, 0) => 0.0,
            (1, _) => -0.0,
            _ => ((i * 7 + j * 3) as f64 * 0.31).sin(),
        });
        let mut rng = StdRng::seed_from_u64(3);
        (x, DenseLayer::new(3, 70, Activation::Identity, &mut rng))
    }

    #[test]
    fn a_non_finite_weight_facing_a_dead_input_poisons_every_output_row() {
        let (x, base) = dead_input_batch_and_wide_layer();
        for value in [f64::INFINITY, f64::NAN] {
            let mut l = base.clone();
            l.visit_params(0, |id, params, _| {
                if id == 0 {
                    params[70] = value;
                }
            });
            // Weight (1, 0) meets only the dead input, as 0·∞ or 0·NaN: the dense NaN.
            let out = l.forward(&x);
            assert!((0..64).all(|i| out.get(i, 0).is_nan()), "{value}");
            let out = l.forward_train(&x);
            assert!((0..64).all(|i| out.get(i, 0).is_nan()), "{value}");
        }
    }

    #[test]
    fn a_nan_in_dl_dz_makes_the_weight_gradient_of_a_dead_input_nan() {
        let (x, mut l) = dead_input_batch_and_wide_layer();
        let _ = l.forward_train(&x);
        let mut grad = Matrix::from_fn(64, 70, |i, j| ((i + j) as f64 * 0.7).cos());
        grad.set(5, 1, f64::NAN);
        let _ = l.backward(&grad);
        // The dense sum: row 1 of dL/dW is Σ 0·g, which is NaN in the column of the NaN.
        assert!(l.grad_weights().get(1, 1).is_nan());
        assert_eq!(l.grad_weights().get(1, 0).to_bits(), 0.0f64.to_bits());
        let mut dense = Matrix::zeros(3, 70);
        x.matmul_tn_acc(&grad, &mut dense);
        assert_eq!(bits(l.grad_weights()), bits(&dense));
    }

    #[test]
    fn an_adam_step_keeps_the_proof_only_while_every_weight_stays_finite() {
        let (x, mut l) = dead_input_batch_and_wide_layer();
        assert!(l.weights_finite);
        let mut adam = Adam::new(0.01);
        let _ = l.forward_train(&x);
        let _ = l.backward(&Matrix::from_vec(64, 70, vec![0.5; 64 * 70]));
        l.apply_gradients(0, &mut adam);
        assert!(l.weights_finite);
        // An infinite gradient makes Adam write NaN into weight (1, 0), which meets only
        // the dead input: the layer loses its proof, so the output is the dense NaN.
        l.clear_gradients();
        l.grad_weights.set(1, 0, f64::INFINITY);
        l.apply_gradients(0, &mut adam);
        assert!(!l.weights_finite);
        assert!(l.weights().get(1, 0).is_nan());
        let out = l.forward(&x);
        assert!((0..64).all(|i| out.get(i, 0).is_nan()));
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

//! The dueling Q-network architecture (Wang et al., ICML 2016).
//!
//! A dueling network splits the Q-function into a state-value stream `V(s)` and an
//! advantage stream `A(s, a)`, recombined as
//!
//! ```text
//! Q(s, a) = V(s) + A(s, a) − mean_a' A(s, a')
//! ```
//!
//! Subtracting the mean advantage removes the degree of freedom between the two streams
//! and is the variant used by the paper's agent. The shared trunk uses the paper's four
//! hidden layers; each stream is a single linear layer on top of the trunk output.

use crate::activation::Activation;
use crate::layer::DenseLayer;
use crate::matrix::Matrix;
use crate::network::{BatchScratch, MlpConfig};
use crate::optim::Adam;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A dueling Q-network: shared trunk, value head and advantage head.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DuelingQNetwork {
    trunk: Vec<DenseLayer>,
    value_head: DenseLayer,
    advantage_head: DenseLayer,
    n_actions: usize,
    train: CombineBuffers,
}

/// The training buffers of the dueling combine and of its backward pass, overwritten by
/// every pass (allocations reused).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct CombineBuffers {
    q: Matrix,
    grad_v: Matrix,
    grad_a: Matrix,
    grad_h: Matrix,
}

impl CombineBuffers {
    fn new() -> Self {
        Self {
            q: Matrix::zeros(1, 1),
            grad_v: Matrix::zeros(1, 1),
            grad_a: Matrix::zeros(1, 1),
            grad_h: Matrix::zeros(1, 1),
        }
    }
}

impl DuelingQNetwork {
    /// Build a dueling network with the trunk described by `config`; the heads are sized
    /// from `n_actions`. Weights are drawn trunk first, then the value head, then the
    /// advantage head.
    ///
    /// # Panics
    /// Panics if there are no hidden layers or fewer than two actions.
    pub fn new<R: Rng + ?Sized>(config: &MlpConfig, n_actions: usize, rng: &mut R) -> Self {
        assert!(!config.hidden.is_empty(), "dueling network needs a trunk");
        assert!(n_actions >= 2, "need at least two actions");
        let mut trunk = Vec::with_capacity(config.hidden.len());
        let mut in_dim = config.input_dim;
        for &width in &config.hidden {
            trunk.push(DenseLayer::new(
                in_dim,
                width,
                config.hidden_activation,
                config.init,
                rng,
            ));
            in_dim = width;
        }
        let value_head = DenseLayer::new(in_dim, 1, Activation::Identity, config.init, rng);
        let advantage_head =
            DenseLayer::new(in_dim, n_actions, Activation::Identity, config.init, rng);
        Self {
            trunk,
            value_head,
            advantage_head,
            n_actions,
            train: CombineBuffers::new(),
        }
    }

    /// The paper's configuration: 256-256-128-64 ReLU trunk, two actions.
    pub fn paper<R: Rng + ?Sized>(input_dim: usize, rng: &mut R) -> Self {
        Self::new(&MlpConfig::paper_q_network(input_dim), 2, rng)
    }

    /// Number of actions.
    pub fn n_actions(&self) -> usize {
        self.n_actions
    }

    /// The shared trunk layers.
    #[cfg(test)]
    pub(crate) fn trunk(&self) -> &[DenseLayer] {
        &self.trunk
    }

    /// The state-value head.
    #[cfg(test)]
    pub(crate) fn value_head(&self) -> &DenseLayer {
        &self.value_head
    }

    /// The advantage head.
    #[cfg(test)]
    pub(crate) fn advantage_head(&self) -> &DenseLayer {
        &self.advantage_head
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.trunk.first().map(DenseLayer::input_dim).unwrap_or(0)
    }

    /// Total number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.trunk
            .iter()
            .map(DenseLayer::param_count)
            .sum::<usize>()
            + self.value_head.param_count()
            + self.advantage_head.param_count()
    }

    /// `Q = V + A − mean(A)` written into `out` (reshaped as needed, allocation reused).
    /// The per-row mean uses the same left-to-right summation as the original
    /// element-wise combine, so results are bit-identical.
    fn combine_into(value: &Matrix, advantage: &Matrix, out: &mut Matrix) {
        let n = advantage.cols() as f64;
        out.reset_to(advantage.rows(), advantage.cols());
        for i in 0..advantage.rows() {
            let mean_a: f64 = advantage.row(i).iter().sum::<f64>() / n;
            let v = value.get(i, 0);
            let a_row = advantage.row(i);
            for (j, q) in out.row_mut(i).iter_mut().enumerate() {
                *q = v + a_row[j] - mean_a;
            }
        }
    }

    /// Allocating wrapper over [`DuelingQNetwork::forward_batch_into`] for tests.
    #[cfg(test)]
    pub(crate) fn forward(&self, input: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(1, 1);
        self.forward_batch_into(input, &mut BatchScratch::new(), &mut out);
        out
    }

    /// The network's one inference pass: the Q-values of a batch of states written into
    /// `out`, with zero allocations after warm-up. Trunk activations ping-pong through
    /// the scratch buffers, the two heads write into the scratch's value/advantage
    /// buffers, and the dueling combine lands in `out`. One row per input state; each
    /// row is **bit-identical** to forwarding it alone (same kernels, same op order),
    /// which is what keeps micro-batched serving decisions independent of the batch
    /// size.
    pub fn forward_batch_into(&self, input: &Matrix, scratch: &mut BatchScratch, out: &mut Matrix) {
        let BatchScratch {
            ping,
            pong,
            value,
            advantage,
        } = scratch;
        let mut src: &mut Matrix = ping;
        let mut dst: &mut Matrix = pong;
        let mut current: &Matrix = input;
        for layer in &self.trunk {
            layer.forward_batch_into(current, dst);
            std::mem::swap(&mut src, &mut dst);
            current = src;
        }
        self.value_head.forward_batch_into(current, value);
        self.advantage_head.forward_batch_into(current, advantage);
        Self::combine_into(value, advantage, out);
    }

    /// Training forward pass (caches activations in every layer), returning the
    /// Q-values. Bit-identical to [`DuelingQNetwork::forward_batch_into`]; every buffer
    /// is reused across passes.
    pub fn forward_train(&mut self, input: &Matrix) -> &Matrix {
        let Self {
            trunk,
            value_head,
            advantage_head,
            train,
            ..
        } = self;
        let mut h = input;
        for layer in trunk.iter_mut() {
            h = layer.forward_train(h);
        }
        let v = value_head.forward_train(h);
        let a = advantage_head.forward_train(h);
        Self::combine_into(v, a, &mut train.q);
        &train.q
    }

    /// Backward pass from `dL/dQ`. Accumulates gradients in every layer and returns the
    /// gradient with respect to the input.
    ///
    /// With `Q_ij = V_i + A_ij − mean_j A_ij`:
    /// `dL/dV_i = Σ_j dQ_ij` and `dL/dA_ij = dQ_ij − mean_j dQ_ij`.
    pub fn backward(&mut self, grad_q: &Matrix) -> &Matrix {
        let Self {
            trunk,
            value_head,
            advantage_head,
            n_actions,
            train,
        } = self;
        let rows = grad_q.rows();
        let n = *n_actions as f64;
        train.grad_v.reset_to(rows, 1);
        train.grad_a.reset_to(rows, *n_actions);
        for i in 0..rows {
            let dq = grad_q.row(i);
            train.grad_v.set(i, 0, dq.iter().sum());
            let mean: f64 = dq.iter().sum::<f64>() / n;
            for (g, &d) in train.grad_a.row_mut(i).iter_mut().zip(dq) {
                *g = d - mean;
            }
        }
        train.grad_h.copy_from(value_head.backward(&train.grad_v));
        train
            .grad_h
            .add_assign(advantage_head.backward(&train.grad_a));
        let mut grad = &train.grad_h;
        for layer in trunk.iter_mut().rev() {
            grad = layer.backward(grad);
        }
        grad
    }

    /// Freeze the network for inference: drop every training buffer (the next training
    /// pass allocates them again; inference never reads them) and check each layer's
    /// weights, so inference may skip the zero inputs of a layer whose weights are all
    /// finite, with the same bits. An optimizer step revokes the check.
    pub fn drop_training_buffers(&mut self) {
        for layer in &mut self.trunk {
            layer.drop_training_buffers();
        }
        self.value_head.drop_training_buffers();
        self.advantage_head.drop_training_buffers();
        self.train = CombineBuffers::new();
    }

    /// Reset all accumulated gradients.
    pub fn clear_gradients(&mut self) {
        for layer in &mut self.trunk {
            layer.clear_gradients();
        }
        self.value_head.clear_gradients();
        self.advantage_head.clear_gradients();
    }

    /// Apply the accumulated gradients with Adam and clear them.
    pub fn apply_gradients(&mut self, optimizer: &mut Adam) {
        let mut next_id = 0;
        for layer in &mut self.trunk {
            layer.visit_params(next_id, |id, params, grads| {
                optimizer.update(id, params, grads)
            });
            next_id += 2;
        }
        self.value_head.visit_params(next_id, |id, params, grads| {
            optimizer.update(id, params, grads)
        });
        next_id += 2;
        self.advantage_head
            .visit_params(next_id, |id, params, grads| {
                optimizer.update(id, params, grads)
            });
        self.clear_gradients();
    }

    /// Copy all weights from another network of identical architecture (target-network
    /// synchronisation).
    ///
    /// # Panics
    /// Panics if the architectures differ.
    pub fn sync_from(&mut self, other: &DuelingQNetwork) {
        assert_eq!(self.trunk.len(), other.trunk.len(), "trunk depth mismatch");
        for (mine, theirs) in self.trunk.iter_mut().zip(&other.trunk) {
            mine.copy_params_from(theirs);
        }
        self.value_head.copy_params_from(&other.value_head);
        self.advantage_head.copy_params_from(&other.advantage_head);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::Loss;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small(seed: u64) -> DuelingQNetwork {
        let mut rng = StdRng::seed_from_u64(seed);
        DuelingQNetwork::new(&MlpConfig::small(4), 2, &mut rng)
    }

    #[test]
    fn shapes_and_param_count() {
        let net = small(1);
        assert_eq!(net.input_dim(), 4);
        assert_eq!(net.n_actions(), 2);
        // Trunk: 4*32+32 + 32*16+16; heads: 16*1+1 + 16*2+2.
        assert_eq!(net.param_count(), 160 + 528 + 17 + 34);
        let q = net.forward(&Matrix::from_vec(3, 4, vec![0.2; 12]));
        assert_eq!((q.rows(), q.cols()), (3, 2));
    }

    #[test]
    fn paper_configuration_builds() {
        let mut rng = StdRng::seed_from_u64(2);
        let net = DuelingQNetwork::paper(14, &mut rng);
        assert_eq!(net.input_dim(), 14);
        assert_eq!(net.n_actions(), 2);
        assert!(net.param_count() > 100_000);
    }

    #[test]
    fn forward_and_forward_train_agree() {
        let mut net = small(3);
        let x = Matrix::from_vec(2, 4, vec![0.5, -0.5, 1.0, 0.0, 0.1, 0.2, 0.3, 0.4]);
        assert_eq!(&net.forward(&x), net.forward_train(&x));
    }

    #[test]
    fn gradient_check_through_both_streams() {
        let mut net = small(4);
        let x = Matrix::from_vec(2, 4, vec![0.3, -0.7, 0.2, 0.9, -0.1, 0.4, 0.8, -0.6]);
        let ones = Matrix::from_vec(2, 2, vec![1.0; 4]);
        let _ = net.forward_train(&x);
        let _ = net.backward(&ones);
        let analytic = net.trunk[0].grad_weights().clone();
        let cols = net.trunk[0].output_dim();
        let eps = 1e-6;
        for (i, j) in [(0, 0), (2, 5), (3, 11)] {
            let mut plus = net.clone();
            let mut minus = net.clone();
            plus.trunk[0].visit_params(0, |id, params, _| {
                if id == 0 {
                    params[i * cols + j] += eps;
                }
            });
            minus.trunk[0].visit_params(0, |id, params, _| {
                if id == 0 {
                    params[i * cols + j] -= eps;
                }
            });
            let f_plus: f64 = plus.forward(&x).data().iter().sum();
            let f_minus: f64 = minus.forward(&x).data().iter().sum();
            let numeric = (f_plus - f_minus) / (2.0 * eps);
            assert!(
                (numeric - analytic.get(i, j)).abs() < 1e-4,
                "dW[{i}][{j}] numeric {numeric} analytic {}",
                analytic.get(i, j)
            );
        }
    }

    #[test]
    fn training_fits_simple_q_targets() {
        let mut net = small(5);
        let mut opt = Adam::new(0.01);
        let loss = Loss::MeanSquaredError;
        let states = Matrix::from_vec(2, 4, vec![1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0]);
        let targets = Matrix::from_vec(2, 2, vec![1.0, -1.0, -2.0, 2.0]);
        let initial = loss.batch_value(net.forward(&states).data(), targets.data(), None);
        for _ in 0..800 {
            let q = net.forward_train(&states);
            let grad = Matrix::from_vec(2, 2, loss.batch_gradient(q.data(), targets.data(), None));
            let _ = net.backward(&grad);
            net.apply_gradients(&mut opt);
        }
        let fitted = loss.batch_value(net.forward(&states).data(), targets.data(), None);
        assert!(fitted < initial * 0.05, "loss {initial} -> {fitted}");
    }

    #[test]
    fn sync_from_makes_outputs_identical() {
        let mut a = small(6);
        let b = small(7);
        let x = Matrix::from_vec(1, 4, vec![0.1, 0.2, 0.3, 0.4]);
        assert_ne!(a.forward(&x), b.forward(&x));
        a.sync_from(&b);
        assert_eq!(a.forward(&x), b.forward(&x));
    }

    #[test]
    fn forward_batch_into_is_bit_identical_to_forward() {
        let net = small(10);
        let x = Matrix::from_fn(6, 4, |i, j| ((i * 7 + j) as f64 * 0.13).cos());
        let reference = net.forward(&x);
        let mut scratch = BatchScratch::new();
        let mut out = Matrix::zeros(1, 1);
        net.forward_batch_into(&x, &mut scratch, &mut out);
        for (a, b) in out.data().iter().zip(reference.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Each row also matches the single-state path bit-for-bit after scratch reuse.
        net.forward_batch_into(&x, &mut scratch, &mut out);
        for i in 0..6 {
            let single = net.forward(&Matrix::row_from_slice(x.row(i)));
            for (a, b) in out.row(i).iter().zip(single.data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "row {i} diverged from single-row");
            }
        }
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// The bits of the Q-values of `net` for `x`.
    fn q_bits(net: &DuelingQNetwork, x: &Matrix) -> Vec<u64> {
        bits(net.forward(x).data())
    }

    #[test]
    fn freezing_never_skips_a_non_finite_weight() {
        let x = Matrix::from_vec(1, 4, vec![0.5, -0.5, 1.0, 0.0]);
        let base = small(11);
        let depth = base.trunk.len();
        // The input each layer sees for `x`: the state, then every trunk output.
        let mut inputs = vec![x.clone()];
        for layer in &base.trunk {
            let h = layer.forward(&inputs[inputs.len() - 1]);
            inputs.push(h);
        }
        /// Layer `li`, counting the trunk, then the value and the advantage head.
        fn layer(net: &mut DuelingQNetwork, li: usize) -> &mut DenseLayer {
            match li.checked_sub(net.trunk.len()) {
                None => &mut net.trunk[li],
                Some(0) => &mut net.value_head,
                Some(_) => &mut net.advantage_head,
            }
        }
        for li in 0..depth + 2 {
            // A zero input of layer `li`: its weight row only ever meets it as 0·w.
            let input = inputs[li.min(depth)].row(0);
            let u = input.iter().position(|&v| v == 0.0).expect("a zero input");
            for value in [f64::INFINITY, f64::NAN] {
                let poison = |net: &mut DuelingQNetwork| {
                    let layer = layer(net, li);
                    let cols = layer.output_dim();
                    layer.visit_params(0, |id, params, _| {
                        if id == 0 {
                            params[u * cols..(u + 1) * cols].fill(value);
                        }
                    });
                };
                let mut dense = base.clone();
                poison(&mut dense);
                let want = q_bits(&dense, &x);
                if li >= depth {
                    // No ReLU after a head: the 0·∞ or 0·NaN reaches the Q-values.
                    assert!(want.iter().all(|&q| f64::from_bits(q).is_nan()), "{li}");
                }
                // Poisoned, then frozen: the check at freezing finds the weight.
                let mut net = base.clone();
                poison(&mut net);
                net.drop_training_buffers();
                assert_eq!(q_bits(&net, &x), want, "layer {li} poisoned, then frozen");
                // Frozen, then poisoned: the visit revoked the proof.
                let mut net = base.clone();
                net.drop_training_buffers();
                poison(&mut net);
                assert_eq!(q_bits(&net, &x), want, "layer {li} frozen, then poisoned");
            }
        }

        // An Adam step with an infinite gradient on one advantage-head weight facing a
        // zero trunk output writes NaN there; the frozen network must then give NaN.
        let mut net = base.clone();
        net.drop_training_buffers();
        assert_eq!(q_bits(&net, &x), q_bits(&base, &x));
        let u = inputs[depth]
            .row(0)
            .iter()
            .position(|&v| v == 0.0)
            .expect("a zero");
        let cols = net.advantage_head.output_dim();
        let mut adam = Adam::new(0.01);
        net.advantage_head.visit_params(0, |id, params, _| {
            let mut grads = vec![0.0; params.len()];
            if id == 0 {
                grads[u * cols] = f64::INFINITY;
            }
            adam.update(id, params, &grads);
        });
        assert!(q_bits(&net, &x).iter().all(|&q| f64::from_bits(q).is_nan()));
    }

    #[test]
    #[should_panic(expected = "at least two actions")]
    fn single_action_rejected() {
        let mut rng = StdRng::seed_from_u64(9);
        DuelingQNetwork::new(&MlpConfig::small(4), 1, &mut rng);
    }
}

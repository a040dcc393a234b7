//! The reusable scratch of the Q-network's batched inference path.

use crate::matrix::Matrix;

/// Reusable buffers for the allocation-free batched inference path
/// ([`crate::DuelingQNetwork::forward_batch_into`]).
///
/// One scratch serves batches of any size and networks of any width: every buffer is
/// reshaped (allocation reused) on each call. The buffers never influence results —
/// each forward pass overwrites them from scratch — so sharing one per thread across
/// many networks is sound.
#[derive(Debug, Clone)]
pub struct BatchScratch {
    /// Ping-pong activation buffers for the hidden layers.
    pub(crate) ping: Matrix,
    pub(crate) pong: Matrix,
    /// Value-head output.
    pub(crate) value: Matrix,
    /// Advantage-head output.
    pub(crate) advantage: Matrix,
}

impl BatchScratch {
    /// Create an empty scratch; buffers are sized lazily on first use.
    pub fn new() -> Self {
        Self {
            ping: Matrix::zeros(1, 1),
            pong: Matrix::zeros(1, 1),
            value: Matrix::zeros(1, 1),
            advantage: Matrix::zeros(1, 1),
        }
    }
}

impl Default for BatchScratch {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dueling::DuelingQNetwork;
    use crate::layer::DenseLayer;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn paper_architecture_matches_section_3_3_2() {
        let mut rng = StdRng::seed_from_u64(2);
        let net = DuelingQNetwork::paper(14, &mut rng);
        let widths: Vec<usize> = net.trunk().iter().map(DenseLayer::output_dim).collect();
        assert_eq!(widths, vec![256, 256, 128, 64]);
        assert_eq!(net.value_head().output_dim(), 1);
        assert_eq!(net.advantage_head().output_dim(), 2);
    }

    #[test]
    fn forward_batch_into_is_bit_identical_to_forward() {
        // One scratch shared by networks of different widths and by batches of
        // different sizes: every row equals the single-row forward of that state, to the
        // bit, so the buffers never leak state between calls.
        let mut rng = StdRng::seed_from_u64(9);
        let small = DuelingQNetwork::new(3, &[32, 16], 2, &mut rng);
        let paper = DuelingQNetwork::paper(3, &mut rng);
        let mut scratch = BatchScratch::new();
        let mut out = Matrix::zeros(1, 1);
        for (net, rows) in [(&small, 5), (&paper, 3), (&small, 2), (&paper, 7)] {
            let x = Matrix::from_fn(rows, 3, |i, j| (i as f64 * 0.3 - j as f64 * 0.7).sin());
            net.forward_batch_into(&x, &mut scratch, &mut out);
            assert_eq!((out.rows(), out.cols()), (rows, 2));
            for i in 0..rows {
                let single = net.forward(&Matrix::row_from_slice(x.row(i)));
                for (a, b) in out.row(i).iter().zip(single.data()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "row {i} diverged from single-row");
                }
            }
        }
    }

    #[test]
    fn seeds_give_reproducible_networks() {
        let build = |seed| DuelingQNetwork::new(3, &[32, 16], 2, &mut StdRng::seed_from_u64(seed));
        assert_eq!(build(42), build(42));
        assert_ne!(build(42), build(43));
    }
}

//! Property tests pinning the blocked matmul kernels **bit-identical** to scalar
//! reference loops across ragged shapes.
//!
//! The serving determinism contract says every kernel's reduction order is a pure
//! function of the inner dimension — never of the blocking, the batch size, or the
//! thread count. These tests state that contract as executable references: a plain
//! ascending-`k` triple loop for the NN/TN kernels, and the documented
//! interleaved-lane tree for the NT kernel. Any future re-blocking of the kernels
//! must keep these exact summation orders or the fleet's replay/serving parity
//! guarantees break.

use proptest::prelude::*;
use uerl_nn::Matrix;

/// Deterministic pseudo-random matrix filler (values in roughly ±2, plus exact zeros
/// so the `a == 0.0` paths stay exercised).
fn fill(rows: usize, cols: usize, seed: u64) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| {
        let h = seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((i * 131 + j * 17) as u64);
        if h.is_multiple_of(13) {
            0.0
        } else {
            ((h % 10_007) as f64 / 10_007.0 - 0.5) * 4.0
        }
    })
}

/// Reference `a · b`: for each output element, one accumulator advancing in strict
/// ascending-`k` order — the order the blocked NN kernel documents.
fn reference_nn(a: &Matrix, b: &Matrix) -> Matrix {
    Matrix::from_fn(a.rows(), b.cols(), |i, l| {
        let mut s = 0.0f64;
        for k in 0..a.cols() {
            s += a.data()[i * a.cols() + k] * b.data()[k * b.cols() + l];
        }
        s
    })
}

/// Reference `aᵀ · b` accumulated into `acc`: each element seeded from the existing
/// accumulator value and advanced in strict ascending-row order.
fn reference_tn_acc(a: &Matrix, b: &Matrix, acc: &mut Matrix) {
    let (m, ja, n) = (a.rows(), a.cols(), b.cols());
    for j in 0..ja {
        for l in 0..n {
            let mut s = acc.data()[j * n + l];
            for i in 0..m {
                s += a.data()[i * ja + j] * b.data()[i * n + l];
            }
            acc.data_mut()[j * n + l] = s;
        }
    }
}

/// Reference `a · bᵀ`: the documented `dot_lanes` order — 8 interleaved partial sums
/// (lane `c` takes terms `k ≡ c (mod 8)` in ascending-`k` order) combined by a fixed
/// balanced tree.
fn reference_nt(a: &Matrix, b: &Matrix) -> Matrix {
    Matrix::from_fn(a.rows(), b.rows(), |i, l| {
        let mut lanes = [0.0f64; 8];
        for k in 0..a.cols() {
            lanes[k % 8] += a.data()[i * a.cols() + k] * b.data()[l * b.cols() + k];
        }
        let q0 = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
        let q1 = (lanes[4] + lanes[5]) + (lanes[6] + lanes[7]);
        q0 + q1
    })
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.data().iter().map(|v| v.to_bits()).collect()
}

/// Every width on both sides of a 4-row tile's lane widths (16 at AVX-512, 8 below),
/// the 8-lane tail and the scalar edge columns, at row counts below, at and above the
/// 4-row tile, through the kernels of the level this CPU dispatches to.
#[test]
fn tile_edge_widths_match_the_scalar_references_bitwise() {
    for (salt, rows) in [3usize, 4, 5, 8, 9].into_iter().enumerate() {
        for width in [15usize, 16, 17, 31, 32, 33, 48] {
            for k in [1usize, 7, 16] {
                let seed = (salt * 1000 + width * 10 + k) as u64;
                let a = fill(rows, k, seed);
                let b = fill(k, width, seed ^ 0x5bd1);
                let mut out = fill(2, 2, seed);
                a.matmul_into(&b, &mut out);
                assert_eq!(
                    bits(&out),
                    bits(&reference_nn(&a, &b)),
                    "NN {rows}x{k}x{width}"
                );

                // Lanes over `width`, then tile rows over `width`.
                for (left, right) in [
                    (fill(rows, k, seed ^ 0x11), fill(rows, width, seed ^ 0x22)),
                    (fill(rows, width, seed ^ 0x33), fill(rows, k, seed ^ 0x44)),
                ] {
                    let mut blocked = fill(left.cols(), right.cols(), seed ^ 0x27d4);
                    let mut reference = blocked.clone();
                    left.matmul_tn_acc(&right, &mut blocked);
                    reference_tn_acc(&left, &right, &mut reference);
                    assert_eq!(
                        bits(&blocked),
                        bits(&reference),
                        "TN {rows}x{}ᵀ·{rows}x{}",
                        left.cols(),
                        right.cols()
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn blocked_nn_matches_the_scalar_reference_bitwise(
        dims in (1usize..20, 1usize..40, 1usize..24, 0u64..1_000_000),
    ) {
        let (m, k, n, seed) = dims;
        let a = fill(m, k, seed);
        let b = fill(k, n, seed ^ 0x5bd1);
        prop_assert_eq!(bits(&a.matmul(&b)), bits(&reference_nn(&a, &b)));
    }

    #[test]
    fn blocked_tn_acc_matches_the_scalar_reference_bitwise(
        dims in (1usize..32, 1usize..14, 1usize..24, 0u64..1_000_000),
    ) {
        // `a` is the left operand pre-transposed: (m×ja)ᵀ · (m×n) accumulated in place.
        let (m, ja, n, seed) = dims;
        let a = fill(m, ja, seed);
        let b = fill(m, n, seed ^ 0x94d0);
        let mut blocked = fill(ja, n, seed ^ 0x27d4);
        let mut reference = blocked.clone();
        a.matmul_tn_acc(&b, &mut blocked);
        reference_tn_acc(&a, &b, &mut reference);
        prop_assert_eq!(bits(&blocked), bits(&reference));
    }

    #[test]
    fn blocked_nt_matches_the_lane_reference_bitwise(
        dims in (1usize..20, 1usize..40, 1usize..20, 0u64..1_000_000),
    ) {
        let (m, k, n, seed) = dims;
        let a = fill(m, k, seed);
        let b = fill(n, k, seed ^ 0x1656);
        prop_assert_eq!(bits(&a.matmul_nt(&b)), bits(&reference_nt(&a, &b)));
    }

    #[test]
    fn batched_rows_match_single_row_products_bitwise(
        dims in (2usize..16, 1usize..40, 1usize..24, 0u64..1_000_000),
    ) {
        // The serving invariant: row i of a batch-of-N product is bit-identical to the
        // batch-of-1 product of row i alone, for every kernel in the family.
        let (m, k, n, seed) = dims;
        let a = fill(m, k, seed);
        let b = fill(k, n, seed ^ 0x85eb);
        let bt = fill(n, k, seed ^ 0xc2b2);
        let nn = a.matmul(&b);
        let nt = a.matmul_nt(&bt);
        for i in 0..m {
            let row = Matrix::row_from_slice(a.row(i));
            prop_assert_eq!(bits(&row.matmul(&b)), nn.row(i).iter().map(|v| v.to_bits()).collect::<Vec<_>>());
            prop_assert_eq!(bits(&row.matmul_nt(&bt)), nt.row(i).iter().map(|v| v.to_bits()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn matmul_into_reuses_scratch_without_divergence(
        dims in (1usize..12, 1usize..24, 1usize..16, 0u64..1_000_000),
    ) {
        let (m, k, n, seed) = dims;
        let a = fill(m, k, seed);
        let b = fill(k, n, seed ^ 0x6a09);
        // Warm the scratch with a differently-shaped product first.
        let mut out = fill(3, 3, seed ^ 0xbb67).matmul(&fill(3, 5, seed));
        a.matmul_into(&b, &mut out);
        prop_assert_eq!(bits(&out), bits(&a.matmul(&b)));
    }
}

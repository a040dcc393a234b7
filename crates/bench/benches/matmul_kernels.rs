//! Micro-benchmarks of the blocked matmul kernel family and the paper network's
//! forward pass — the per-op numbers behind the `serve_throughput` and `matmul_kernels`
//! perf_report stages. Shapes mirror the serving workload: the paper Q-network's
//! 256-wide hidden layers at a serving-sized batch, plus the batch-of-1 latency path.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;
use uerl_core::state::STATE_DIM;
use uerl_nn::{DuelingQNetwork, Matrix};

fn fill(rows: usize, cols: usize, seed: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| {
        ((i * 31 + j * 7 + seed) as f64 * 0.37).sin() * 2.0
    })
}

fn bench_matmul_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul_kernels");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(5));

    // The serving hot loop: batch-of-64 activations through a 256×256 hidden layer.
    let a = fill(64, 256, 1);
    let b = fill(256, 256, 2);
    let mut out = Matrix::zeros(64, 256);
    group.bench_function("nn_64x256x256_into", |bch| {
        bch.iter(|| {
            a.matmul_into(&b, &mut out);
            std::hint::black_box(out.data()[0])
        })
    });

    // The backward pass's gradient accumulation for the same layer.
    let at = fill(64, 256, 3);
    let grad = fill(64, 256, 4);
    let mut acc = Matrix::zeros(256, 256);
    group.bench_function("tn_acc_64x256x256", |bch| {
        bch.iter(|| {
            at.matmul_tn_acc(&grad, &mut acc);
            std::hint::black_box(acc.data()[0])
        })
    });

    // The backward pass's input gradient: dL/dz · Wᵀ.
    let bt = fill(256, 256, 5);
    let mut nt_out = Matrix::zeros(64, 256);
    group.bench_function("nt_64x256x256_into", |bch| {
        bch.iter(|| {
            a.matmul_nt_into(&bt, &mut nt_out);
            std::hint::black_box(nt_out.data()[0])
        })
    });

    // Full-network forward passes at serving batch sizes.
    let mut rng = StdRng::seed_from_u64(7);
    let network = DuelingQNetwork::paper(STATE_DIM, &mut rng);
    for (label, rows) in [("batch1", 1), ("batch64", 64)] {
        let x = fill(rows, STATE_DIM, 11);
        group.bench_function(&format!("dueling_forward_f64_{label}"), |bch| {
            bch.iter(|| std::hint::black_box(network.forward(&x).data()[0]))
        });
    }

    group.finish();
}

criterion_group!(benches, bench_matmul_kernels);
criterion_main!(benches);

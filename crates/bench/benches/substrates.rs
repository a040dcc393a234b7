//! Micro-benchmarks of the substrates the evaluation pipeline is built on: synthetic log
//! generation, per-minute merging, RF prediction, Q-network inference and one DQN
//! training step. These are the ablation-level numbers behind the figure pipelines that
//! `perf_report` times end to end.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;
use uerl_core::event_stream::TimelineSet;
use uerl_core::rf_dataset::build_rf_dataset_1day;
use uerl_core::state::STATE_DIM;
use uerl_forest::{RandomForest, RandomForestConfig};
use uerl_nn::{DuelingQNetwork, Matrix};
use uerl_rl::{AgentConfig, DqnAgent, Transition};
use uerl_trace::generator::{SyntheticLogConfig, TraceGenerator};
use uerl_trace::reduction::preprocess;

fn bench_substrates(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrates");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));

    group.bench_function("trace_generation_60_nodes_90_days", |b| {
        b.iter(|| {
            let log = TraceGenerator::new(SyntheticLogConfig::small(60, 90, 1)).generate();
            std::hint::black_box(log.len())
        })
    });

    let log = TraceGenerator::new(SyntheticLogConfig::small(60, 90, 2)).generate();
    group.bench_function("per_minute_merge", |b| {
        b.iter(|| std::hint::black_box(log.merged_by_node().len()))
    });

    let timelines = TimelineSet::from_log(&preprocess(&log));
    let (dataset, _) = build_rf_dataset_1day(&timelines);
    let forest = RandomForest::fit(&dataset, &RandomForestConfig::small(3));
    let sample = dataset.features_of(0).to_vec();
    group.bench_function("random_forest_predict", |b| {
        b.iter(|| std::hint::black_box(forest.predict_proba(&sample)))
    });

    let mut rng = StdRng::seed_from_u64(3);
    let network = DuelingQNetwork::paper(STATE_DIM, &mut rng);
    let batch = Matrix::from_vec(32, STATE_DIM, vec![0.1; 32 * STATE_DIM]);
    group.bench_function("dueling_q_network_forward_batch32", |b| {
        b.iter(|| std::hint::black_box(network.forward(&batch).rows()))
    });

    let mut agent = DqnAgent::new(AgentConfig::small(STATE_DIM).with_seed(4));
    for i in 0..256 {
        agent.observe(Transition::terminal(vec![0.1; STATE_DIM], i % 2, -1.0));
    }
    group.bench_function("dqn_train_step_batch32", |b| {
        b.iter(|| std::hint::black_box(agent.train_step()))
    });

    group.finish();
}

criterion_group!(benches, bench_substrates);
criterion_main!(benches);

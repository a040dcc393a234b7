//! `perf_report` — the repo's perf-trajectory baseline.
//!
//! Every stage is one function from the shared [`Inputs`] to a [`StageRun`]: the
//! fingerprint of its output, the top-level JSON sections it adds, its stderr summary
//! lines and its failed gates. `main` runs each selected stage at the selected
//! `UERL_SCALE` (default `small`) three times: an untimed warm-up, a timed run with the
//! ambient thread count and a timed run pinned to one thread. The two timed runs'
//! fingerprints must be byte-identical: every parallel fan-out in the engine merges in
//! deterministic order.
//! The report keeps the 1-thread run's sections, summary and failures. It prints every
//! fingerprint, writes the JSON (to `target/perf_report/BENCH.json`, or to the path in
//! `UERL_BENCH_OUT`) with the per-stage wall times and speed-ups, prints the summaries,
//! and exits 1 if a fingerprint diverged or a gate failed. A fingerprint compares across
//! commits as printed: an unchanged fingerprint is unchanged output.
//!
//! The stages, in run order:
//!
//! * `matmul_kernels` — the `Matrix` kernels at serving and training GEMM shapes
//!   (GFLOP/s, dispatched instruction set), then the paper trunk's single-row and
//!   64-row products dense and zero-skipping; fails unless both give the same bits.
//! * `train_update` — the paper agent's `train_step`: updates/s and µs per phase.
//! * `setup_text` — the scale's logs, rendered to text once, parsed and indexed as a
//!   deployment starts: the time of each step and the mcelog parse rate.
//! * `forest_fit_100_trees` — the SC20 random forest on the 1-day dataset.
//! * `hyper_search_rl` — a reduced two-round RL hyperparameter search.
//! * `halving_vs_exhaustive` — the paper's 60+20 candidate search against training every
//!   candidate to completion; fails unless the search trains strictly fewer steps.
//! * `serve_throughput` — a synthetic fleet served through `uerl-serve`: events/s; fails
//!   unless decisions and costs are bit-identical to the offline evaluator.
//! * `session_memory` — a totals-only serving fleet's bytes/node and feature-history
//!   length; fails unless every history fits the densest 1-hour window plus a sentinel.
//! * `obs_overhead` — the serving stream with the `UERL_METRICS` gate closed and open,
//!   then with shadow policies; fails if the open gate moves a served bit or costs more
//!   than 3% throughput.
//! * `fig3_total_cost` … `table2_ml_metrics` — the six paper artefacts of
//!   [`uerl_bench::ARTEFACTS`], fingerprinted by their rendered tables.
//!
//! A baseline from a **single-core container** has speedup ≈ 1.0 by construction: every
//! parallel call short-circuits to the serial path. At `UERL_SCALE=paper` the serving
//! stages stream the full ~million-event two-year fleet reconstruction.
//!
//! Usage:
//! ```text
//! UERL_SCALE=small cargo run --release -p uerl-bench --bin perf_report
//! RAYON_NUM_THREADS=8 cargo run --release -p uerl-bench --bin perf_report
//! cargo run --release -p uerl-bench --bin perf_report -- --stage serve_throughput
//! UERL_SCALE=paper cargo run --release -p uerl-bench --bin perf_report -- --stage setup_text
//! ```
//!
//! `--stage <name>` (repeatable) runs only the named stages; the JSON then contains
//! only those stages' sections.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use std::sync::{Arc, OnceLock};
use std::time::Instant;
use uerl_bench::{Scale, ARTEFACTS};
use uerl_core::event_stream::TimelineSet;
use uerl_core::policies::AlwaysMitigate;
use uerl_core::policies::NeverMitigate;
use uerl_core::policies::RlPolicy;
use uerl_core::rf_dataset::build_rf_dataset_1day;
use uerl_core::state::STATE_DIM;
use uerl_core::trainer::{RlTrainer, TrainerConfig, TRAIN_COST_SECONDS_PER_STEP};
use uerl_core::MitigationConfig;
use uerl_eval::evaluator::{dqn_candidate_session_factory, estimated_full_steps};
use uerl_eval::run::run_policy;
use uerl_eval::scenario::ExperimentContext;
use uerl_forest::{RandomForest, RandomForestConfig};
use uerl_jobs::{sacct, JobLogConfig, JobTraceGenerator, NodeJobSampler};
use uerl_nn::{kernel_isa, Activation, DenseLayer, Matrix};
use uerl_rl::metrics::UpdatePhase;
use uerl_rl::{AgentConfig, DqnAgent, HyperSearch, Trainable, Transition};
use uerl_serve::{merged_fleet_stream, FleetServer, RecordRetention, ServeConfig, ShadowPolicy};
use uerl_trace::generator::{SyntheticLogConfig, TraceGenerator};
use uerl_trace::reduction::preprocess;
use uerl_trace::{mcelog, FleetConfig};

/// What every stage reads, built once before any stage runs.
struct Inputs {
    scale: Scale,
    ctx: ExperimentContext,
    /// The scale's raw error log as mcelog text, its job log as sacct text and the error
    /// log's fleet: rendered on first use, which is `setup_text`'s untimed warm-up.
    setup_texts: OnceLock<(String, String, FleetConfig)>,
}

/// Everything the report takes from one run of a stage.
struct StageRun {
    /// Byte-compared across thread counts and across commits.
    fingerprint: String,
    /// Top-level JSON key → the object or array text under it.
    sections: Vec<(&'static str, String)>,
    /// Lines of the stderr summary.
    summary: Vec<String>,
    /// Messages of the failed gates; any entry makes the run exit 1.
    failures: Vec<String>,
}

impl StageRun {
    /// A run that reports only its fingerprint.
    fn bare(fingerprint: String) -> Self {
        StageRun {
            fingerprint,
            sections: Vec::new(),
            summary: Vec::new(),
            failures: Vec::new(),
        }
    }
}

/// The message of every gate whose `failed` flag is set.
fn failures<const N: usize>(gates: [(bool, String); N]) -> Vec<String> {
    gates
        .into_iter()
        .filter_map(|(failed, message)| failed.then_some(message))
        .collect()
}

type StageFn = fn(&Inputs) -> StageRun;

/// Every stage, in run order.
const STAGES: [(&str, StageFn); 15] = [
    ("matmul_kernels", matmul_kernels),
    ("train_update", train_update),
    ("setup_text", setup_text),
    ("forest_fit_100_trees", forest_fit_100_trees),
    ("hyper_search_rl", hyper_search_rl),
    ("halving_vs_exhaustive", halving_vs_exhaustive),
    ("serve_throughput", serve_throughput),
    ("session_memory", session_memory),
    ("obs_overhead", obs_overhead),
    (ARTEFACTS[0].0, artefact::<0>),
    (ARTEFACTS[1].0, artefact::<1>),
    (ARTEFACTS[2].0, artefact::<2>),
    (ARTEFACTS[3].0, artefact::<3>),
    (ARTEFACTS[4].0, artefact::<4>),
    (ARTEFACTS[5].0, artefact::<5>),
];

/// The wall times and 1-thread run of one stage.
struct StageReport {
    name: &'static str,
    serial_secs: f64,
    parallel_secs: f64,
    /// The fingerprint of the ambient-thread run.
    fingerprint: String,
    deterministic: bool,
    /// The 1-thread run, whose sections, summary and failures the report keeps.
    last: StageRun,
}

impl StageReport {
    fn speedup(&self) -> f64 {
        if self.parallel_secs > 0.0 {
            self.serial_secs / self.parallel_secs
        } else {
            1.0
        }
    }
}

fn time_run(stage: StageFn, inputs: &Inputs) -> (f64, StageRun) {
    let t0 = Instant::now();
    let run = stage(inputs);
    (t0.elapsed().as_secs_f64(), run)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let stages = select_stages(&args);
    let scale = Scale::from_env();
    let threads = rayon::current_num_threads();
    let inputs = Inputs {
        scale,
        ctx: uerl_bench::context(scale, 2024),
        setup_texts: OnceLock::new(),
    };
    eprintln!(
        "[perf_report] scale={} scenario={} threads={}",
        scale.label(),
        inputs.ctx.label,
        threads
    );

    let serial_pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("single-thread pool");

    let mut reports = Vec::new();
    for (name, stage) in stages {
        // Untimed warm-up so neither mode pays first-run allocator/page-cache costs.
        let _ = stage(&inputs);
        let (parallel_secs, parallel) = time_run(stage, &inputs);
        let (serial_secs, serial) = serial_pool.install(|| time_run(stage, &inputs));
        let report = StageReport {
            name,
            serial_secs,
            parallel_secs,
            deterministic: parallel.fingerprint == serial.fingerprint,
            fingerprint: parallel.fingerprint,
            last: serial,
        };
        eprintln!(
            "[perf_report] {:<24} serial {:>8.3}s  parallel {:>8.3}s  speedup {:>5.2}x  {}",
            report.name,
            report.serial_secs,
            report.parallel_secs,
            report.speedup(),
            if report.deterministic {
                "deterministic"
            } else {
                "OUTPUT DIVERGED"
            },
        );
        eprintln!(
            "[perf_report] {} fingerprint: {}",
            report.name, report.fingerprint
        );
        reports.push(report);
    }

    let total_serial: f64 = reports.iter().map(|r| r.serial_secs).sum();
    let total_parallel: f64 = reports.iter().map(|r| r.parallel_secs).sum();
    let all_deterministic = reports.iter().all(|r| r.deterministic);
    let overall_speedup = if total_parallel > 0.0 {
        total_serial / total_parallel
    } else {
        1.0
    };

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"scale\": \"{}\",\n", scale.label()));
    json.push_str(&format!("  \"threads\": {threads},\n"));
    json.push_str(&format!(
        "  \"deterministic_across_thread_counts\": {all_deterministic},\n"
    ));
    for (key, text) in reports.iter().flat_map(|r| &r.last.sections) {
        json.push_str(&format!("  \"{key}\": {text},\n"));
    }
    json.push_str(&format!("  \"total_serial_secs\": {total_serial:.6},\n"));
    json.push_str(&format!(
        "  \"total_parallel_secs\": {total_parallel:.6},\n"
    ));
    json.push_str(&format!("  \"overall_speedup\": {overall_speedup:.4},\n"));
    json.push_str("  \"stages\": [\n");
    for (i, r) in reports.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"serial_secs\": {:.6}, \"parallel_secs\": {:.6}, \"speedup\": {:.4}, \"deterministic\": {}, \"fingerprint\": \"{}\"}}{}\n",
            r.name,
            r.serial_secs,
            r.parallel_secs,
            r.speedup(),
            r.deterministic,
            json_escape(&r.fingerprint),
            if i + 1 < reports.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");

    let path = std::env::var("UERL_BENCH_OUT").unwrap_or_else(|_| DEFAULT_OUT.to_string());
    if let Some(dir) = std::path::Path::new(&path).parent() {
        std::fs::create_dir_all(dir).expect("create the report directory");
    }
    std::fs::write(&path, &json).expect("write benchmark report");
    for line in reports.iter().flat_map(|r| &r.last.summary) {
        eprintln!("[perf_report] {line}");
    }
    eprintln!(
        "[perf_report] overall speedup {overall_speedup:.2}x on {threads} thread(s); wrote {path}"
    );
    println!("{json}");
    let mut failed = !all_deterministic;
    if failed {
        eprintln!("[perf_report] ERROR: output diverged across thread counts");
    }
    for failure in reports.iter().flat_map(|r| &r.last.failures) {
        eprintln!("[perf_report] ERROR: {failure}");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}

/// The stages the command-line arguments select, in table order: every stage unless
/// repeated `--stage <name>` arguments name some.
fn select_stages(args: &[String]) -> Vec<(&'static str, StageFn)> {
    let mut wanted = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--stage" => wanted.push(args.next().expect("--stage requires a stage name").as_str()),
            other => panic!("unknown argument {other:?}; usage: perf_report [--stage <name>]..."),
        }
    }
    let known: Vec<&str> = STAGES.iter().map(|(name, _)| *name).collect();
    for want in &wanted {
        assert!(
            known.contains(want),
            "unknown --stage {want:?}; available: {known:?}"
        );
    }
    STAGES
        .into_iter()
        .filter(|(name, _)| wanted.is_empty() || wanted.contains(name))
        .collect()
}

/// Kernel microbench: the cache-blocked `Matrix` family (NN forward, TN-accumulate
/// backward, NT backward) at serving-shaped GEMMs and at every 64-row GEMM shape of
/// the paper trunk's training update. The fingerprint holds FNV digests over the
/// exact output bits — one over the serving shapes, one over the training shapes —
/// so any change to a kernel's reduction order shows up here before it shows up as
/// a parity failure. The JSON holds the GFLOP/s of every family at every shape (wall
/// time stays out of the fingerprint), beside the instruction-set level the kernels
/// dispatched to, so figures from different hosts compare. Each figure is the fastest
/// of `reps` repetitions: scheduler noise on a shared core only ever slows a product
/// down. Last come the paper trunk's products on ReLU-sparse inputs, about half of
/// them zero, each through the dense `Matrix` product and through a layer, which
/// skips the zero inputs while its weights are proven finite: the single-row products
/// of a batch-1 forward pass, then the 64-row forward and backward products of a
/// training update. The JSON holds the µs of each path, and the fingerprint a digest
/// over the dense outputs of each group. The stage fails unless the layer gives the
/// same bits.
fn matmul_kernels(_: &Inputs) -> StageRun {
    fn fill(rows: usize, cols: usize, salt: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |i, j| {
            ((i * 31 + j * 17 + salt) as f64 * 0.193).sin()
        })
    }
    fn gflops(flops: f64, secs: f64) -> f64 {
        flops / secs.max(1e-12) / 1e9
    }
    // (m, k, n): a serving micro-batch through the small trunk, the paper
    // trunk's widest layer, a single-row forward and a ragged edge-tile shape;
    // then the paper trunk's other training shapes (its first, third and fourth
    // layer at the 64-row batch).
    let serving_shapes = [(64, 256, 256), (64, 15, 32), (1, 15, 32), (13, 37, 19)];
    let training_shapes = [(64, 15, 256), (64, 256, 128), (64, 128, 64)];
    let reps = 40;
    // Per shape: (m, k, n), the FLOPs of one product and the fastest NN, TN-acc and NT
    // repetition in seconds.
    let mut shape_secs = Vec::new();
    let mut digest_of = |shapes: &[(usize, usize, usize)], salt0: usize| {
        let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
        for (offset, &(m, k, n)) in shapes.iter().enumerate() {
            let si = salt0 + offset;
            let a = fill(m, k, si);
            let b = fill(k, n, si + 7);
            let bt = fill(n, k, si + 13);
            let mut out = Matrix::zeros(1, 1);
            let mut secs = [0.0f64; 3];
            secs[0] = best_of(reps, || a.matmul_into(&b, &mut out));
            for &v in out.data() {
                fnv(&mut digest, v.to_bits());
            }
            // TN takes the left operand pre-transposed: (k×m)ᵀ · (k×n) → m×n.
            let at = fill(k, m, si + 3);
            let mut acc = Matrix::zeros(m, n);
            secs[1] = best_of(reps, || at.matmul_tn_acc(&b, &mut acc));
            for &v in acc.data() {
                fnv(&mut digest, v.to_bits());
            }
            secs[2] = best_of(reps, || a.matmul_nt_into(&bt, &mut out));
            for &v in out.data() {
                fnv(&mut digest, v.to_bits());
            }
            shape_secs.push(((m, k, n), (2 * m * k * n) as f64, secs));
        }
        digest
    };
    let serving = digest_of(&serving_shapes, 0);
    let training = digest_of(&training_shapes, serving_shapes.len());

    let total_flops: f64 = shape_secs.iter().map(|(_, flops, _)| flops).sum();
    let [nn, tn, nt]: [f64; 3] = std::array::from_fn(|f| {
        gflops(
            total_flops,
            shape_secs.iter().map(|(_, _, secs)| secs[f]).sum::<f64>(),
        )
    });
    let mut summary = vec![format!(
        "kernels ({}): NN {nn:.2} / TN-acc {tn:.2} / NT {nt:.2} GFLOP/s",
        kernel_isa()
    )];
    let mut shapes_json = Vec::new();
    for &((m, k, n), flops, secs) in &shape_secs {
        let [nn, tn, nt] = secs.map(|s| gflops(flops, s));
        shapes_json.push(format!(
            "{{\"m\": {m}, \"k\": {k}, \"n\": {n}, \"nn_gflops\": {nn:.3}, \"tn_acc_gflops\": {tn:.3}, \"nt_gflops\": {nt:.3}}}"
        ));
        summary.push(format!(
            "  {m}x{k}x{n}: NN {nn:.2} / TN-acc {tn:.2} / NT {nt:.2} GFLOP/s"
        ));
    }

    /// A fresh `k × n` identity layer, which holds the proof that its weights are
    /// finite and so skips zero inputs, and a copy of its weights for the dense leg.
    fn layer_and_weights(k: usize, n: usize, salt: usize) -> (DenseLayer, Matrix) {
        let layer = DenseLayer::new(
            k,
            n,
            Activation::Identity,
            &mut StdRng::seed_from_u64(salt as u64),
        );
        let mut weights = Matrix::zeros(k, n);
        // Read through a clone: visiting the parameters revokes the proof.
        layer.clone().visit_params(0, |id, params, _| {
            if id == 0 {
                weights.data_mut().copy_from_slice(params);
            }
        });
        (layer, weights)
    }
    fn same(dense: &[f64], skipping: &[f64]) -> bool {
        dense
            .iter()
            .zip(skipping)
            .all(|(d, s)| d.to_bits() == s.to_bits())
    }
    let relu =
        |m: usize, k: usize, salt: usize| fill(m, k, salt).map(|v| Activation::Relu.apply(v));

    // (k, n) of the paper trunk's four layers.
    let single_row_shapes = [(15, 256), (256, 256), (256, 128), (128, 64)];
    let mut single_row = 0xcbf2_9ce4_8422_2325;
    let mut rows_json = Vec::new();
    let mut same_bits = true;
    for (offset, &(k, n)) in single_row_shapes.iter().enumerate() {
        let salt = serving_shapes.len() + training_shapes.len() + offset;
        let x = relu(1, k, salt);
        let (layer, weights) = layer_and_weights(k, n, salt);
        let (mut dense_out, mut skip_out) = (Matrix::zeros(1, 1), Matrix::zeros(1, 1));
        let dense_us = best_of(reps, || x.matmul_into(&weights, &mut dense_out)) * 1e6;
        let skip_us = best_of(reps, || layer.forward_batch_into(&x, &mut skip_out)) * 1e6;
        for &v in dense_out.data() {
            fnv(&mut single_row, v.to_bits());
        }
        let same = same(dense_out.data(), skip_out.data());
        same_bits &= same;
        rows_json.push(format!(
            "{{\"m\": 1, \"k\": {k}, \"n\": {n}, \"dense_us\": {dense_us:.3}, \"zero_skip_us\": {skip_us:.3}, \"same_bits\": {same}}}"
        ));
        summary.push(format!(
            "  1x{k}x{n} ReLU-sparse input: dense {dense_us:.2} µs, zero-skipping {skip_us:.2} µs \
             (same bits: {same})"
        ));
    }

    // (k, n) of the paper trunk's hidden layers a 64-row training update multiplies
    // ReLU outputs with: the forward product, then the backward pass's TN-acc and NT
    // pair on a ReLU-sparse dL/dz. A third of the units are dead for the whole batch,
    // as on a training replay. The skipping products are the layer's own, so the
    // backward leg times the layer's whole backward pass (its dL/dz copy and bias sums
    // included) against the two dense products.
    let batch_shapes = [(256, 256), (256, 128), (128, 64)];
    let mut batch_digest = 0xcbf2_9ce4_8422_2325;
    let mut batch_json = Vec::new();
    let batch = |k: usize, salt: usize| {
        let live = relu(64, k, salt);
        Matrix::from_fn(64, k, |i, j| if j % 3 == 0 { 0.0 } else { live.get(i, j) })
    };
    for (offset, &(k, n)) in batch_shapes.iter().enumerate() {
        let salt = serving_shapes.len() + training_shapes.len() + single_row_shapes.len() + offset;
        let x = batch(k, salt);
        let grad_z = batch(n, salt + 1);
        let (mut layer, weights) = layer_and_weights(k, n, salt);
        let (mut dense_out, mut skip_out) = (Matrix::zeros(1, 1), Matrix::zeros(1, 1));
        let nn_dense_us = best_of(reps, || x.matmul_into(&weights, &mut dense_out)) * 1e6;
        let nn_skip_us = best_of(reps, || layer.forward_batch_into(&x, &mut skip_out)) * 1e6;
        let mut same_shape = same(dense_out.data(), skip_out.data());
        // One backward pass from cleared gradients gives dL/dW = inputᵀ · dL/dz.
        let mut grad_weights = Matrix::zeros(k, n);
        x.matmul_tn_acc(&grad_z, &mut grad_weights);
        let mut grad_input = Matrix::zeros(1, 1);
        grad_z.matmul_nt_into(&weights, &mut grad_input);
        let _ = layer.forward_train(&x);
        same_shape &= same(grad_input.data(), layer.backward(&grad_z).data());
        let mut layer_grad = Vec::new();
        layer.clone().visit_params(0, |id, _, grads| {
            if id == 0 {
                layer_grad.extend_from_slice(grads);
            }
        });
        same_shape &= same(grad_weights.data(), &layer_grad);
        let backward_dense_us = best_of(reps, || {
            x.matmul_tn_acc(&grad_z, &mut grad_weights);
            grad_z.matmul_nt_into(&weights, &mut grad_input);
        }) * 1e6;
        let backward_skip_us = best_of(reps, || {
            let _ = layer.backward(&grad_z);
        }) * 1e6;
        for v in dense_out.data().iter().chain(grad_input.data()) {
            fnv(&mut batch_digest, v.to_bits());
        }
        same_bits &= same_shape;
        batch_json.push(format!(
            "{{\"m\": 64, \"k\": {k}, \"n\": {n}, \"nn_dense_us\": {nn_dense_us:.3}, \"nn_zero_skip_us\": {nn_skip_us:.3}, \"tn_acc_nt_dense_us\": {backward_dense_us:.3}, \"backward_zero_skip_us\": {backward_skip_us:.3}, \"same_bits\": {same_shape}}}"
        ));
        summary.push(format!(
            "  64x{k}x{n} ReLU-sparse input: NN dense {nn_dense_us:.2} µs, zero-skipping \
             {nn_skip_us:.2} µs; TN-acc + NT dense {backward_dense_us:.2} µs, layer backward \
             zero-skipping {backward_skip_us:.2} µs (same bits: {same_shape})"
        ));
    }
    StageRun {
        fingerprint: format!(
            "shapes={} reps={reps} digest={serving:016x} training_shapes={} \
             training_digest={training:016x} single_row_shapes={} \
             single_row_digest={single_row:016x} batch_shapes={} \
             batch_digest={batch_digest:016x} zero_skip_same_bits={same_bits}",
            serving_shapes.len(),
            training_shapes.len(),
            single_row_shapes.len(),
            batch_shapes.len()
        ),
        sections: vec![
            (
                "matmul_kernels",
                format!(
                    "{{\"kernel_isa\": \"{}\", \"nn_gflops\": {nn:.3}, \"tn_acc_gflops\": {tn:.3}, \"nt_gflops\": {nt:.3}, \"shapes\": [{}]}}",
                    kernel_isa(),
                    shapes_json.join(", ")
                ),
            ),
            ("single_row_products", format!("[{}]", rows_json.join(", "))),
            ("batch_products", format!("[{}]", batch_json.join(", "))),
        ],
        summary,
        failures: failures([(
            !same_bits,
            "a layer skipping zero inputs gave other bits than the dense products".into(),
        )]),
    }
}

/// Training-update phase split: the paper agent (256-256-128-64, 64-row batches)
/// fills its replay to `min_replay` with seeded random transitions, one in eight
/// terminal, then observes `TRAIN_UPDATES × train_every` more, so it runs
/// `TRAIN_UPDATES` updates. The metrics gate is open for the stage, so every
/// `train_step` phase span records; the JSON holds the time of each phase per update
/// and the next-state rows per update forwarded through the online network (distinct
/// slots) and through the target network (slots without cached target Q-values).
/// The fingerprint covers the update count, the last loss and probe Q-values, bit for
/// bit.
fn train_update(_: &Inputs) -> StageRun {
    const TRAIN_UPDATES: u64 = 60;
    let config = AgentConfig::paper(STATE_DIM).with_seed(2024);
    let (warm, every) = (config.min_replay as u64, config.train_every as u64);
    let mut agent = DqnAgent::new(config);
    let mut rng = StdRng::seed_from_u64(2024 ^ 0x7EA1);
    let mut transition = |i: u64| {
        let mut state =
            || -> Vec<f64> { (0..STATE_DIM).map(|_| rng.gen_range(-1.0..1.0)).collect() };
        let (s, next) = (state(), state());
        let (action, reward) = ((i % 2) as usize, -((i % 5) as f64));
        if i % 8 == 7 {
            Transition::terminal(s, action, reward)
        } else {
            Transition::new(s, action, reward, next)
        }
    };
    for i in 0..warm - 1 {
        agent.observe(transition(i));
    }
    let phases = uerl_rl::metrics::metrics();
    let read = || UpdatePhase::ALL.map(|p| (phases.phase(p).sum(), phases.phase(p).count()));
    let read_rows = || [phases.next_state_rows.get(), phases.target_rows.get()];
    let was_enabled = uerl_obs::enabled();
    uerl_obs::set_enabled(true);
    let before = read();
    let rows_before = read_rows();
    let updates_before = agent.updates();
    let t0 = Instant::now();
    for i in warm - 1..warm - 1 + TRAIN_UPDATES * every {
        agent.observe(transition(i));
    }
    let secs = t0.elapsed().as_secs_f64();
    let after = read();
    let rows_after = read_rows();
    uerl_obs::set_enabled(was_enabled);
    let updates = agent.updates() - updates_before;
    let updates_per_sec = updates as f64 / secs.max(1e-9);
    let [next_state_rows, target_rows] =
        [0, 1].map(|k| (rows_after[k] - rows_before[k]) as f64 / updates.max(1) as f64);
    let us_per_update: Vec<(&str, f64)> = UpdatePhase::ALL
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let nanos = after[i].0 - before[i].0;
            (p.label(), nanos as f64 / 1e3 / (updates.max(1)) as f64)
        })
        .collect();
    let phases_json: Vec<String> = us_per_update
        .iter()
        .map(|(label, us)| format!("\"{label}\": {us:.1}"))
        .collect();
    let split: Vec<String> = us_per_update
        .iter()
        .map(|(label, us)| format!("{label} {us:.0}"))
        .collect();
    let probe: Vec<String> = agent
        .q_values(&[0.1; STATE_DIM])
        .iter()
        .map(|q| format!("{:016x}", q.to_bits()))
        .collect();
    StageRun {
        fingerprint: format!(
            "updates={updates} loss={:016x} probe_q={probe:?}",
            agent.last_loss().unwrap_or(f64::NAN).to_bits()
        ),
        sections: vec![(
            "train_update",
            format!(
                "{{\"updates\": {updates}, \"updates_per_sec\": {updates_per_sec:.1}, \"phase_us_per_update\": {{{}}}, \"next_state_rows_per_update\": {next_state_rows:.2}, \"target_rows_per_update\": {target_rows:.2}}}",
                phases_json.join(", ")
            ),
        )],
        summary: vec![format!(
            "train update: {updates} updates at {updates_per_sec:.1}/s; µs per update: {}; \
             rows per update: online s′ {next_state_rows:.1}, target s′ {target_rows:.1}",
            split.join(", ")
        )],
        failures: Vec::new(),
    }
}

/// Set-up from text: the scale's raw error log and job log are rendered to text once,
/// on the untimed warm-up run, and every run then parses and indexes them the way a
/// deployment starts (mcelog parse, preprocess, timelines, sacct parse, job sampler).
/// The fingerprint is a digest of the timeline set plus the event counts; the JSON
/// holds the step times and the parse rate.
fn setup_text(inputs: &Inputs) -> StageRun {
    let (mcelog_text, sacct_text, fleet) = inputs.setup_texts.get_or_init(|| {
        let (error_log, job_log) = uerl_bench::logs(inputs.scale, 2024);
        let fleet = error_log.fleet().clone();
        (mcelog::to_text(&error_log), sacct::to_text(&job_log), fleet)
    });
    let t0 = Instant::now();
    let raw = mcelog::from_text(mcelog_text, fleet.clone()).expect("rendered mcelog parses");
    let t1 = Instant::now();
    let log = preprocess(&raw);
    let t2 = Instant::now();
    let timelines = TimelineSet::from_log(&log);
    let t3 = Instant::now();
    let jobs = sacct::from_text(sacct_text).expect("rendered sacct parses");
    let sampler = NodeJobSampler::from_log(&jobs);
    let t4 = Instant::now();
    std::hint::black_box(&sampler);

    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    for timeline in timelines.timelines() {
        fnv(&mut digest, u64::from(timeline.node().0));
        for m in timeline.events() {
            fnv(&mut digest, m.time.0 as u64);
            for word in [m.ce_count, m.ue_warnings, m.boots, u32::from(m.fatal)] {
                fnv(&mut digest, u64::from(word));
            }
            fnv(&mut digest, m.ue_detector.map_or(0, |d| 1 + d as u64));
            for d in &m.ce_details {
                let l = d.location;
                for word in [d.dimm.slot, l.rank, l.bank, d.detector as u8] {
                    fnv(&mut digest, u64::from(word));
                }
                fnv(&mut digest, u64::from(l.row) << 32 | u64::from(l.column));
            }
            for &slot in &m.retired_slots {
                fnv(&mut digest, u64::from(slot));
            }
        }
    }
    let secs = |a: Instant, b: Instant| (b - a).as_secs_f64();
    let (parse, preprocess, timelines_secs, jobs_secs) =
        (secs(t0, t1), secs(t1, t2), secs(t2, t3), secs(t3, t4));
    let total = parse + preprocess + timelines_secs + jobs_secs;
    let mcelog_mb = mcelog_text.len() as f64 / 1e6;
    let parse_mb_per_sec = mcelog_mb / parse.max(1e-9);
    StageRun {
        fingerprint: format!(
            "raw_events={} events={} nodes={} merged_events={} jobs={} digest={digest:016x}",
            raw.len(),
            log.len(),
            timelines.len(),
            timelines.total_events(),
            jobs.records().len(),
        ),
        sections: vec![(
            "setup_text",
            format!(
                "{{\"mcelog_bytes\": {}, \"sacct_bytes\": {}, \"mcelog_parse_secs\": {parse:.6}, \"mcelog_parse_mb_per_sec\": {parse_mb_per_sec:.1}, \"preprocess_secs\": {preprocess:.6}, \"timelines_from_log_secs\": {timelines_secs:.6}, \"sacct_and_sampler_secs\": {jobs_secs:.6}, \"setup_secs\": {total:.6}}}",
                mcelog_text.len(),
                sacct_text.len(),
            ),
        )],
        summary: vec![format!(
            "set-up from text: {total:.3} s ({mcelog_mb:.1} MB mcelog parsed at \
             {parse_mb_per_sec:.0} MB/s, timelines built in {timelines_secs:.3} s)"
        )],
        failures: Vec::new(),
    }
}

/// The SC20 random forest (100 trees) fit on the 1-day dataset of the context's
/// timelines; the fingerprint is the tree count plus a probe prediction.
fn forest_fit_100_trees(inputs: &Inputs) -> StageRun {
    let ctx = &inputs.ctx;
    let (mut dataset, _) = build_rf_dataset_1day(&ctx.timelines);
    if dataset.is_empty() {
        dataset.push(vec![0.0; STATE_DIM - 1], false);
    }
    let mut config = RandomForestConfig::sc20(STATE_DIM - 1, ctx.seed);
    config.n_trees = 100;
    let forest = RandomForest::fit(&dataset, &config);
    let probe = vec![0.5; STATE_DIM - 1];
    StageRun::bare(format!(
        "trees={} p={:.12}",
        forest.n_trees(),
        forest.predict_proba(&probe)
    ))
}

/// The two-round hyperparameter search (the per-split RL stage of the evaluation
/// protocol): enough candidates to expose the fan-out even at the small scale, with
/// a fingerprint covering the winner, the charged search cost and a probe of the
/// winning network's Q-values.
fn hyper_search_rl(inputs: &Inputs) -> StageRun {
    let ctx = &inputs.ctx;
    let sampler = ctx.job_sampler(1.0);
    let seed = ctx.seed ^ 0x5EA7;
    let search = HyperSearch::reduced(8, 4);
    let mut rng = StdRng::seed_from_u64(seed);
    let episodes = ctx.budget.rl_episodes;
    let outcome = search.run(
        &mut rng,
        estimated_full_steps(&ctx.timelines, episodes),
        dqn_candidate_session_factory(
            &ctx.timelines,
            &ctx.timelines,
            &sampler,
            ctx.mitigation,
            seed,
            episodes,
        ),
    );
    let probe = vec![0.25; STATE_DIM];
    let q = outcome.best.agent().q_values(&probe);
    StageRun::bare(format!(
        "candidates={} best={} lr={:.12e} score={:.12} cost={:.12} q={:?}",
        outcome.candidates.len(),
        outcome.best_index,
        outcome.best_params.learning_rate,
        outcome.best_score,
        outcome.total_cost,
        q
    ))
}

/// Halving-vs-exhaustive comparison at the paper's search breadth (60 broad + 20
/// narrowed candidates, episode budget of the selected scale): the search runs once,
/// and the exhaustive reference trains each of its recorded candidates to
/// completion through the same session factory, costs summed in candidate order.
/// The fingerprint covers the search winner, both charged costs, the survivor trace
/// (so the serial-vs-parallel byte compare pins rung-level determinism across
/// thread counts) and the derived training-step totals, which the JSON also holds:
/// the halving search must train strictly fewer steps at the paper budget.
fn halving_vs_exhaustive(inputs: &Inputs) -> StageRun {
    let ctx = &inputs.ctx;
    let sampler = ctx.job_sampler(1.0);
    let seed = ctx.seed ^ 0xBA17;
    let search = HyperSearch::paper();
    let episodes = ctx.budget.rl_episodes;
    let steps_of = |cost: f64| (cost * 3600.0 / TRAIN_COST_SECONDS_PER_STEP).round() as u64;

    let factory = dqn_candidate_session_factory(
        &ctx.timelines,
        &ctx.timelines,
        &sampler,
        ctx.mitigation,
        seed,
        episodes,
    );
    let full_steps = estimated_full_steps(&ctx.timelines, episodes);
    let halving = search.run(&mut StdRng::seed_from_u64(seed), full_steps, &factory);
    let exhaustive_costs: Vec<f64> = halving
        .candidates
        .par_iter()
        .map(|c| factory(&c.params, c.trainer_seed).train_to(u64::MAX))
        .collect();
    let exhaustive_cost = exhaustive_costs.iter().fold(0.0f64, |sum, c| sum + c);
    let halving_steps = steps_of(halving.total_cost);
    let exhaustive_steps = steps_of(exhaustive_cost);
    let fewer = halving_steps < exhaustive_steps;
    let trace: String = halving
        .rungs
        .iter()
        .map(|r| {
            format!(
                "r{}{}b{}:{:?};",
                r.rung,
                if r.refined { "'" } else { "" },
                r.budget,
                r.survivors
            )
        })
        .collect();
    StageRun {
        fingerprint: format!(
            "halving: best={} lr={:.12e} score={:.12} cost={:.12} steps={halving_steps} | \
             exhaustive: cost={exhaustive_cost:.12} steps={exhaustive_steps} | \
             fewer={fewer} trace={trace}",
            halving.best_index,
            halving.best_params.learning_rate,
            halving.best_score,
            halving.total_cost,
        ),
        sections: vec![(
            "halving_vs_exhaustive",
            format!(
                "{{\"halving_steps\": {halving_steps}, \"exhaustive_steps\": {exhaustive_steps}, \"halving_trains_fewer\": {fewer}}}"
            ),
        )],
        summary: vec![format!(
            "halving {halving_steps} vs exhaustive {exhaustive_steps} training steps"
        )],
        failures: failures([(
            !fewer,
            "the halving search must train strictly fewer steps \
             than the exhaustive search"
                .into(),
        )]),
    }
}

/// The synthetic fleet the serving stages stream: `nodes` nodes' generated error log
/// over `days` days, preprocessed into timelines, plus a job sampler over a 512-node,
/// 180-day job log, all seeded by `seed`.
fn serving_fleet(nodes: u32, days: i64, seed: u64) -> (TimelineSet, NodeJobSampler) {
    let log = TraceGenerator::new(SyntheticLogConfig::small(nodes, days, seed)).generate();
    let timelines = TimelineSet::from_log(&preprocess(&log));
    let jobs = JobTraceGenerator::new(JobLogConfig::small(512, 180, seed)).generate();
    (timelines, NodeJobSampler::from_log(&jobs))
}

/// The nodes and days of the fleet `serve_throughput` and `obs_overhead` serve.
fn served_fleet_size(scale: Scale) -> (u32, i64) {
    match scale {
        Scale::Small => (600, 365),
        Scale::Laptop => (1200, 730),
        Scale::Paper => (3056, 730),
    }
}

/// The serving stages' policy: a small agent trained for 12 episodes on the fleet and
/// compacted for inference. The stages measure inference-side throughput, not
/// training.
fn briefly_trained_policy(
    timelines: &TimelineSet,
    sampler: &NodeJobSampler,
    seed: u64,
) -> RlPolicy {
    let trainer = RlTrainer::new(TrainerConfig::reduced(12).with_seed(seed));
    let mut agent = trainer.train(timelines, sampler).agent;
    agent.compact_for_inference();
    RlPolicy::new(agent)
}

/// Online-serving throughput: a scaled-up synthetic fleet (the paper scale streams
/// the full ~million-event two-year reconstruction) served end-to-end through
/// `uerl-serve` — one session map, serial absorb, event-time ticks, micro-batched DQN
/// inference — with the offline `run_policy` rollout of the same timelines as the
/// parity oracle. The fingerprint covers the decision/cost totals (bit patterns), a
/// digest of every served decision and the parity verdict, so the serial-vs-parallel
/// byte compare pins the serving path's thread-count determinism; the events/sec
/// land in the JSON. Wall time stays out of the fingerprint.
fn serve_throughput(inputs: &Inputs) -> StageRun {
    let seed = 2024 ^ 0x5E17;
    let (nodes, days) = served_fleet_size(inputs.scale);
    let (timelines, sampler) = serving_fleet(nodes, days, seed);
    let mitigation = MitigationConfig::paper_default();
    let policy = briefly_trained_policy(&timelines, &sampler, seed);
    // Full retention: the parity oracle compares the per-node decision logs
    // entry for entry.
    let config = ServeConfig::for_timelines(&timelines, mitigation, seed)
        .with_retention(RecordRetention::Full);

    let stream = merged_fleet_stream(&timelines);
    let events = stream.len() as u64;
    let mut server = FleetServer::new(config, policy.clone(), sampler.clone());
    let mut decisions = Vec::new();
    let t0 = Instant::now();
    server
        .ingest_all(stream, &mut decisions)
        .expect("merged stream is time-ordered");
    let serve_secs = t0.elapsed().as_secs_f64();
    let events_per_sec = events as f64 / serve_secs.max(1e-9);
    let report = server.report();

    // Parity oracle: the offline evaluator over the same timelines.
    let offline = run_policy(&policy, &timelines, &sampler, mitigation, seed);
    let parity = report.mitigations == offline.mitigations
        && report.non_mitigations == offline.non_mitigations
        && report.ue_count == offline.ue_count
        && report.mitigation_cost.to_bits() == offline.mitigation_cost.to_bits()
        && report.ue_cost.to_bits() == offline.ue_cost.to_bits()
        && report
            .per_node
            .iter()
            .flat_map(|n| n.decisions.iter().map(|&(t, m)| (n.node, t, m)))
            .eq(offline
                .decisions
                .iter()
                .map(|d| (d.node, d.time, d.mitigated)));

    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    for d in &decisions {
        for word in [u64::from(d.node.0), d.time.0 as u64, u64::from(d.mitigated)] {
            fnv(&mut digest, word);
        }
    }
    StageRun {
        fingerprint: format!(
            "events={events} nodes={} decisions={} mitigations={} ue={} \
             mit_cost={:016x} ue_cost={:016x} digest={digest:016x} parity={parity}",
            report.per_node.len(),
            decisions.len(),
            report.mitigations,
            report.ue_count,
            report.mitigation_cost.to_bits(),
            report.ue_cost.to_bits(),
        ),
        sections: vec![(
            "serve_throughput",
            format!(
                "{{\"events\": {events}, \"events_per_sec\": {events_per_sec:.1}, \"parity_with_offline_evaluator\": {parity}}}"
            ),
        )],
        summary: vec![format!(
            "served {events} events at {events_per_sec:.0} events/sec \
             (parity with offline evaluator: {parity})"
        )],
        failures: failures([(
            !parity,
            "served decisions/costs must be bit-identical to the \
             offline evaluator rollout"
                .into(),
        )]),
    }
}

/// Session-memory audit: a totals-only serving fleet (the production retention)
/// driven to half-stream ("warm") and then to the end, measuring per-node session
/// footprint and feature-history length at both points. The fingerprint covers the
/// byte totals, the history extremes and the **bounded verdict**: the longest
/// history ring buffer must not exceed the densest 1-hour event window any node
/// ever produced, plus the one sentinel entry — the O(window) claim as a gate, on
/// real fleet data rather than a synthetic unit fixture.
fn session_memory(inputs: &Inputs) -> StageRun {
    let seed = 2024 ^ 0x3E55;
    let (nodes, days) = match inputs.scale {
        Scale::Small => (300, 365),
        Scale::Laptop => (600, 730),
        Scale::Paper => (3056, 730),
    };
    let (timelines, sampler) = serving_fleet(nodes, days, seed);
    let config = ServeConfig::for_timelines(&timelines, MitigationConfig::paper_default(), seed)
        .with_retention(RecordRetention::TotalsOnly);
    let mut server = FleetServer::new(config, AlwaysMitigate, sampler);

    let stream = merged_fleet_stream(&timelines);
    let half = stream.len() / 2;
    let mut out = Vec::new();
    let measure = |server: &FleetServer<AlwaysMitigate>| {
        let mut sessions = 0u64;
        let mut bytes = 0u64;
        let mut max_history = 0usize;
        for session in server.sessions() {
            sessions += 1;
            bytes += session.approx_bytes() as u64;
            max_history = max_history.max(session.history_len());
        }
        (sessions, bytes, max_history)
    };
    for event in &stream[..half] {
        server
            .ingest(event.clone(), &mut out)
            .expect("time-ordered");
    }
    server.flush(&mut out);
    let (_, warm_bytes, warm_max_history) = measure(&server);
    for event in &stream[half..] {
        server
            .ingest(event.clone(), &mut out)
            .expect("time-ordered");
    }
    server.flush(&mut out);
    let (sessions, end_bytes, end_max_history) = measure(&server);

    // The oracle for the O(window) verdict: the densest 1-hour event window
    // any node ever produced (two-pointer sweep per timeline). The ring
    // buffer may hold at most that many entries plus the sentinel.
    let mut window_bound = 0usize;
    for timeline in timelines.timelines() {
        let times: Vec<i64> = timeline.events().iter().map(|e| e.time.0).collect();
        let mut lo = 0usize;
        for hi in 0..times.len() {
            while times[lo] <= times[hi] - uerl_core::features::HISTORY_WINDOW_SECS {
                lo += 1;
            }
            window_bound = window_bound.max(hi - lo + 1);
        }
    }
    let bounded = end_max_history <= window_bound + 1;
    let per_node = |bytes: u64| bytes as f64 / (sessions.max(1)) as f64;
    StageRun {
        fingerprint: format!(
            "sessions={sessions} warm_bytes={warm_bytes} warm_max_history={warm_max_history} \
             end_bytes={end_bytes} end_max_history={end_max_history} \
             window_bound={window_bound} bounded={bounded}"
        ),
        sections: vec![(
            "session_memory",
            format!(
                "{{\"sessions\": {sessions}, \"warm_bytes_per_node\": {:.1}, \"warm_max_history\": {warm_max_history}, \"end_bytes_per_node\": {:.1}, \"end_max_history\": {end_max_history}, \"densest_1h_window_events\": {window_bound}, \"history_bounded_by_window\": {bounded}}}",
                per_node(warm_bytes),
                per_node(end_bytes),
            ),
        )],
        summary: vec![format!(
            "session memory: {sessions} sessions, {:.0} bytes/node, \
             max history {end_max_history} (densest 1h window {window_bound} events, \
             bounded: {bounded})",
            per_node(end_bytes)
        )],
        failures: failures([(
            !bounded,
            "a session's feature history exceeded the densest \
             1-hour event window (+1 sentinel) — sessions are no longer O(window)"
                .into(),
        )]),
    }
}

/// Observability-overhead audit: the same serving stream timed with the metrics
/// gate closed and open (no shadows) — the open gate must cost at most 3% throughput
/// and must not move a single served bit. A third leg mounts shadow baselines
/// (Always-/Never-mitigate) and lands their counterfactual scoreboard plus the served
/// policy's cost regret in the JSON. The fingerprint covers only event-time outputs
/// (report bits, parity verdicts, shadow totals) — wall times and the
/// process-cumulative registry stay out of it, so the serial-vs-parallel byte compare
/// still pins thread-count determinism.
fn obs_overhead(inputs: &Inputs) -> StageRun {
    let seed = 2024 ^ 0x0B5E;
    let (nodes, days) = served_fleet_size(inputs.scale);
    let (timelines, sampler) = serving_fleet(nodes, days, seed);
    let mitigation = MitigationConfig::paper_default();
    let policy = briefly_trained_policy(&timelines, &sampler, seed);

    let serve_once = |with_shadows: bool| {
        let config = ServeConfig::for_timelines(&timelines, mitigation, seed);
        let mut server = FleetServer::new(config, policy.clone(), sampler.clone());
        if with_shadows {
            server = server.with_shadow_policies(vec![
                Arc::new(AlwaysMitigate) as ShadowPolicy,
                Arc::new(NeverMitigate) as ShadowPolicy,
            ]);
        }
        let stream = merged_fleet_stream(&timelines);
        let mut decisions = Vec::new();
        let t0 = Instant::now();
        server
            .ingest_all(stream, &mut decisions)
            .expect("merged stream is time-ordered");
        let secs = t0.elapsed().as_secs_f64();
        (secs, server.report(), server.shadow_report())
    };
    // One timed leg serves the stream twice (two fresh servers): a scheduler
    // spike of a few milliseconds is then half the relative error it would be
    // against a single ~0.3 s serve.
    let timed_leg = |gate_open: bool| {
        uerl_obs::set_enabled(gate_open);
        let (s1, _, _) = serve_once(false);
        let (s2, r, _) = serve_once(false);
        (s1 + s2, r)
    };
    // The audited quantity is a *difference* (the open gate's cost), so it is
    // measured as back-to-back off/on pairs: each pair shares whatever the
    // machine was doing in its ~one-second window (CPU frequency, page
    // cache, a co-tenant waking up), so the drift cancels inside the pair,
    // and the *second-smallest* of the seven pair overheads is the audited
    // number. Scheduler noise on a shared single core is one-sided — a
    // spike only ever slows a leg down — so medians and means read high by
    // several percent, and the raw minimum can swing far negative when a
    // spike lands on a pair's off leg; the second order statistic tolerates
    // one such outlier while still estimating the intrinsic gate cost. A
    // genuine regression (the pre-optimization hot path measured ~10%)
    // elevates every pair, cleanest included. The legs alternate order
    // between pairs (off/on, on/off, …) so whichever warm-up/decay a pair
    // carries does not always land on the same leg. Per-leg minima are kept
    // only for the reported absolute throughputs.
    let was_enabled = uerl_obs::enabled();
    let mut off_secs = f64::INFINITY;
    let mut on_secs = f64::INFINITY;
    let mut pair_overheads = Vec::new();
    let mut off_report = None;
    let mut on_report = None;
    for pair in 0..7 {
        let (off, on, off_r, on_r) = if pair % 2 == 0 {
            let (off, off_r) = timed_leg(false);
            let (on, on_r) = timed_leg(true);
            (off, on, off_r, on_r)
        } else {
            let (on, on_r) = timed_leg(true);
            let (off, off_r) = timed_leg(false);
            (off, on, off_r, on_r)
        };
        off_secs = off_secs.min(off / 2.0);
        on_secs = on_secs.min(on / 2.0);
        off_report = Some(off_r);
        on_report = Some(on_r);
        pair_overheads.push((on - off) / off.max(1e-9) * 100.0);
    }
    pair_overheads.sort_by(|a, b| a.total_cmp(b));
    let off_report = off_report.expect("seven off runs happened");
    let on_report = on_report.expect("seven on runs happened");
    uerl_obs::set_enabled(true);
    let (_, shadow_report, shadow_scores) = serve_once(true);
    uerl_obs::set_enabled(was_enabled);

    let events = off_report.events;
    let off_eps = events as f64 / off_secs.max(1e-9);
    let on_eps = events as f64 / on_secs.max(1e-9);
    let overhead_pct = pair_overheads[1];
    // The inertness gate: the open gate (and the shadow lanes) must not move
    // a single served bit relative to the closed gate.
    let parity = off_report == on_report && off_report == shadow_report;
    let best_shadow = shadow_scores
        .iter()
        .map(|s| s.total_cost())
        .fold(f64::INFINITY, f64::min);
    let regret = shadow_report.total_cost() - best_shadow;
    let shadows_json: Vec<String> = shadow_scores
        .iter()
        .map(|s| {
            format!(
                "{{\"policy\": \"{}\", \"total_cost\": {:.6}}}",
                s.policy,
                s.total_cost()
            )
        })
        .collect();
    let shadow_bits: String = shadow_scores
        .iter()
        .map(|s| {
            format!(
                "{}:m{}u{}:{:016x}:{:016x};",
                s.policy,
                s.mitigations,
                s.ue_count,
                s.mitigation_cost.to_bits(),
                s.ue_cost.to_bits()
            )
        })
        .collect();
    StageRun {
        fingerprint: format!(
            "events={events} mit_cost={:016x} ue_cost={:016x} parity={parity} \
             regret={:016x} shadows={shadow_bits}",
            off_report.mitigation_cost.to_bits(),
            off_report.ue_cost.to_bits(),
            regret.to_bits(),
        ),
        sections: vec![(
            "obs_overhead",
            format!(
                "{{\"events\": {events}, \"metrics_off_events_per_sec\": {off_eps:.1}, \"metrics_on_events_per_sec\": {on_eps:.1}, \"overhead_pct\": {overhead_pct:.4}, \"bit_parity_off_vs_on\": {parity}, \"shadow_regret_node_hours\": {regret:.6}, \"shadow_scores\": [{}]}}",
                shadows_json.join(", ")
            ),
        )],
        summary: vec![format!(
            "obs overhead: {events} events at {off_eps:.0} (off) vs {on_eps:.0} \
             (on) events/sec ({overhead_pct:+.2}%), bit parity: {parity}, \
             shadow regret {regret:+.2} node-hours"
        )],
        failures: failures([
            (
                !parity,
                "opening the metrics gate (or mounting shadow \
                 policies) changed a served bit — the observability layer must be inert"
                    .into(),
            ),
            (
                overhead_pct > 3.0,
                format!(
                    "metrics-on serving overhead {overhead_pct:.2}% \
                     exceeds the 3% gate"
                ),
            ),
        ]),
    }
}

/// The `I`-th paper artefact of [`ARTEFACTS`], fingerprinted by its rendered table.
fn artefact<const I: usize>(inputs: &Inputs) -> StageRun {
    StageRun::bare((ARTEFACTS[I].1)(&inputs.ctx))
}

/// Run `f` `reps` times and return the fastest run, in seconds.
fn best_of(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Where the JSON report goes unless `UERL_BENCH_OUT` names another path: under the
/// build directory, so a run never rewrites a checked-in file.
const DEFAULT_OUT: &str = "target/perf_report/BENCH.json";

/// `s` as the body of a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out
}

/// Fold one word into an FNV-1a digest, byte by byte.
fn fnv(digest: &mut u64, bits: u64) {
    for byte in bits.to_le_bytes() {
        *digest ^= u64::from(byte);
        *digest = digest.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(args: &[&str]) -> Vec<&'static str> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        select_stages(&args)
            .into_iter()
            .map(|(name, _)| name)
            .collect()
    }

    #[test]
    fn no_arguments_select_every_stage_in_table_order() {
        let all: Vec<&str> = STAGES.iter().map(|(name, _)| *name).collect();
        assert_eq!(names(&[]), all);
        assert_eq!(all.len(), 15);
    }

    #[test]
    fn repeated_stage_arguments_keep_table_order() {
        assert_eq!(
            names(&["--stage", "session_memory", "--stage", "serve_throughput"]),
            ["serve_throughput", "session_memory"]
        );
    }

    #[test]
    fn an_unknown_stage_panics_listing_the_available_ones() {
        let panic = std::panic::catch_unwind(|| names(&["--stage", "nope"])).unwrap_err();
        let message = panic.downcast_ref::<String>().expect("a formatted panic");
        let known: Vec<&str> = STAGES.iter().map(|(name, _)| *name).collect();
        assert_eq!(
            *message,
            format!("unknown --stage \"nope\"; available: {known:?}")
        );
    }

    #[test]
    fn stage_names_are_unique_and_cover_every_artefact() {
        let all = names(&[]);
        for (i, name) in all.iter().enumerate() {
            assert!(!all[..i].contains(name), "{name} is listed twice");
        }
        for (artefact, _) in ARTEFACTS {
            assert!(all.contains(&artefact), "{artefact} is not a stage");
        }
    }
}

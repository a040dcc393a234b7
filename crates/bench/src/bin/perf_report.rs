//! `perf_report` — the repo's perf-trajectory baseline.
//!
//! Times a `pool_overhead` microbench (many tiny parallel calls through the persistent
//! work-stealing pool), every figure/table pipeline, the two-round RL hyperparameter
//! search, a `halving_vs_exhaustive` comparison (the paper's 60+20 candidate search,
//! whose training steps are compared against training each of its candidates to
//! completion, with the survivor trace in the fingerprint), a `matmul_kernels`
//! microbench (the cache-blocked `Matrix` kernel family at serving-shaped GEMMs and at
//! the paper trunk's 64-row training GEMMs, with the output bits in the fingerprint and
//! per-shape GFLOP/s plus the dispatched instruction-set level in the JSON; then the
//! trunk's single-row products on ReLU-sparse inputs, dense and zero-skipping, in µs
//! per product, failing unless both give the same bits), a
//! `train_update` stage (the paper agent's `train_step` with every phase span recording:
//! updates/s and the per-phase time of an update in the JSON, the trained bits in the
//! fingerprint), a `setup_text` stage (the scale's error and job
//! logs rendered to text once, untimed, then parsed and indexed as a deployment starts:
//! mcelog parse, preprocess, timelines, sacct parse and job sampler, with a digest of
//! the timeline set in the fingerprint and the step times plus the mcelog parse rate in
//! the JSON), a `serve_throughput` stage (a scaled-up
//! synthetic fleet streamed through the online `uerl-serve` subsystem, with the
//! serving-vs-offline parity verdict in the fingerprint) and a `session_memory` stage (a totals-only serving fleet measured at half-stream and at
//! the end: bytes/node, feature-history extremes and the O(window) verdict — the
//! longest ring buffer must not exceed the densest 1-hour event window plus its
//! sentinel) and an `obs_overhead` stage (the same serving stream timed with the
//! `UERL_METRICS` gate closed and open, best-of-three each: the open gate must cost at
//! most 3% throughput and must not move a single served bit; a third leg adds shadow
//! policies and lands their counterfactual scoreboard plus the cost regret in the
//! JSON) at the selected `UERL_SCALE` (default `small`) twice — once pinned to a
//! single thread and once with the ambient thread count. It prints every stage's
//! fingerprint and writes a JSON report (to `target/perf_report/BENCH.json`, or to the
//! path in `UERL_BENCH_OUT`) with per-stage wall times and fingerprints,
//! the thread count, the speedup, whether the stage output was byte-identical across
//! thread counts (it must be: every parallel fan-out in the engine merges in
//! deterministic order), the halving-vs-exhaustive training-step totals (the search
//! must train strictly fewer) and the serving events/sec + parity flag (served decisions and
//! costs must be bit-identical to the offline evaluator). A stage's fingerprint
//! compares across commits as printed: an unchanged fingerprint is unchanged output.
//!
//! The checked-in baseline may come from a **single-core container**, where every
//! parallel call short-circuits to the serial path (speedup ≈ 1.0 by construction);
//! re-run on a multi-core box for real numbers. At `UERL_SCALE=paper` the serving
//! stage streams the full ~million-event two-year fleet reconstruction.
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
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;
use uerl_bench::Scale;
use uerl_core::event_stream::TimelineSet;
use uerl_core::policies::AlwaysMitigate;
use uerl_core::policies::NeverMitigate;
use uerl_core::policies::RlPolicy;
use uerl_core::rf_dataset::build_rf_dataset_1day;
use uerl_core::state::STATE_DIM;
use uerl_core::trainer::{RlTrainer, TrainerConfig, TRAIN_COST_SECONDS_PER_STEP};
use uerl_core::MitigationConfig;
use uerl_eval::evaluator::{dqn_candidate_session_factory, estimated_full_steps};
use uerl_eval::experiments::common::clear_prefix_cache;
use uerl_eval::experiments::{fig3, fig4, fig5, fig6, fig7, table2};
use uerl_eval::run::run_policy;
use uerl_eval::scenario::ExperimentContext;
use uerl_forest::{RandomForest, RandomForestConfig};
use uerl_jobs::{sacct, JobLogConfig, JobTraceGenerator, NodeJobSampler};
use uerl_nn::{kernel_isa, Activation, DenseLayer, Matrix, WeightInit};
use uerl_rl::metrics::UpdatePhase;
use uerl_rl::{AgentConfig, DqnAgent, HyperSearch, Trainable, Transition};
use uerl_serve::{merged_fleet_stream, FleetServer, RecordRetention, ServeConfig, ShadowPolicy};
use uerl_trace::generator::{SyntheticLogConfig, TraceGenerator};
use uerl_trace::mcelog;
use uerl_trace::reduction::preprocess;

struct StageReport {
    name: &'static str,
    serial_secs: f64,
    parallel_secs: f64,
    deterministic: bool,
    fingerprint: String,
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

/// Sizes and step times of the last `setup_text` run.
struct SetupStats {
    mcelog_bytes: usize,
    sacct_bytes: usize,
    parse_secs: f64,
    preprocess_secs: f64,
    timelines_secs: f64,
    jobs_secs: f64,
}

impl SetupStats {
    fn total_secs(&self) -> f64 {
        self.parse_secs + self.preprocess_secs + self.timelines_secs + self.jobs_secs
    }
}

/// One GEMM shape of the `matmul_kernels` stage: the FLOPs of one product and the
/// fastest of its repetitions in the NN, TN-acc and NT kernels, in seconds.
struct KernelShapeStats {
    shape: (usize, usize, usize),
    flops: f64,
    secs: [f64; 3],
}

impl KernelShapeStats {
    fn gflops(&self, family: usize) -> f64 {
        self.flops / self.secs[family].max(1e-12) / 1e9
    }
}

/// GFLOP/s of each family (NN, TN-acc, NT) over all the given shapes together.
fn family_gflops(shapes: &[KernelShapeStats]) -> [f64; 3] {
    let flops: f64 = shapes.iter().map(|s| s.flops).sum();
    std::array::from_fn(|f| flops / shapes.iter().map(|s| s.secs[f]).sum::<f64>().max(1e-12) / 1e9)
}

/// One single-row product of the `matmul_kernels` stage: its `k × n` weight shape and the
/// fastest of its repetitions through a dense layer and through the same layer frozen
/// for inference (zero inputs skipped), in seconds, and whether both gave the same bits.
struct SingleRowStats {
    shape: (usize, usize),
    secs: [f64; 2],
    same_bits: bool,
}

/// Updates, wall time and per-phase nanoseconds of the last `train_update` run.
struct TrainStats {
    updates: u64,
    secs: f64,
    phase_nanos: [u64; 8],
}

impl TrainStats {
    fn phase_us_per_update(&self, i: usize) -> f64 {
        self.phase_nanos[i] as f64 / 1e3 / (self.updates.max(1)) as f64
    }
}

/// A named pipeline stage: runs the pipeline and returns a fingerprint of its output.
type Stage = Box<dyn Fn() -> String>;

fn time_run(f: &dyn Fn() -> String) -> (f64, String) {
    let t0 = Instant::now();
    let output = f();
    (t0.elapsed().as_secs_f64(), output)
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

fn main() {
    let scale = Scale::from_env();
    let threads = rayon::current_num_threads();
    let stage_filter = parse_stage_filter();
    let ctx = uerl_bench::context(scale, 2024);
    eprintln!(
        "[perf_report] scale={} scenario={} threads={}",
        scale.label(),
        ctx.label,
        threads
    );

    let forest_stage = |ctx: &ExperimentContext| -> String {
        let (mut dataset, _) = build_rf_dataset_1day(&ctx.timelines);
        if dataset.is_empty() {
            dataset.push(vec![0.0; STATE_DIM - 1], false);
        }
        let mut config = RandomForestConfig::sc20(STATE_DIM - 1, ctx.seed);
        config.n_trees = 100;
        let forest = RandomForest::fit(&dataset, &config);
        // Fingerprint: per-tree node counts plus a probe prediction.
        let probe = vec![0.5; STATE_DIM - 1];
        format!(
            "trees={} p={:.12}",
            forest.n_trees(),
            forest.predict_proba(&probe)
        )
    };

    // The two-round hyperparameter search (the per-split RL stage of the evaluation
    // protocol): enough candidates to expose the fan-out even at the small scale, with
    // a fingerprint covering the winner, the charged search cost and a probe of the
    // winning network's Q-values.
    let hyper_stage = |ctx: &ExperimentContext| -> String {
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
        format!(
            "candidates={} best={} lr={:.12e} score={:.12} cost={:.12} q={:?}",
            outcome.candidates.len(),
            outcome.best_index,
            outcome.best_params.learning_rate,
            outcome.best_score,
            outcome.total_cost,
            q
        )
    };

    // Halving-vs-exhaustive comparison at the paper's search breadth (60 broad + 20
    // narrowed candidates, episode budget of the selected scale): the search runs once,
    // and the exhaustive reference trains each of its recorded candidates to
    // completion through the same session factory, costs summed in candidate order.
    // The fingerprint covers the search winner, both charged costs, the survivor trace
    // (so the serial-vs-parallel byte compare pins rung-level determinism across
    // thread counts) and the derived training-step totals. The step totals of the last
    // run land in `halving_stats` for the JSON summary: the halving search must train
    // strictly fewer steps at the paper budget.
    let halving_stats: Arc<Mutex<Option<(u64, u64, bool)>>> = Arc::new(Mutex::new(None));
    let halving_stage = {
        let stats = Arc::clone(&halving_stats);
        move |ctx: &ExperimentContext| -> String {
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
            *stats.lock().expect("halving stats poisoned") = Some((
                halving_steps,
                exhaustive_steps,
                halving_steps < exhaustive_steps,
            ));
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
            format!(
                "halving: best={} lr={:.12e} score={:.12} cost={:.12} steps={halving_steps} | \
                 exhaustive: cost={exhaustive_cost:.12} steps={exhaustive_steps} | \
                 fewer={} trace={trace}",
                halving.best_index,
                halving.best_params.learning_rate,
                halving.best_score,
                halving.total_cost,
                halving_steps < exhaustive_steps,
            )
        }
    };

    // Online-serving throughput: a scaled-up synthetic fleet (the paper scale streams
    // the full ~million-event two-year reconstruction) served end-to-end through
    // `uerl-serve` — one session map, serial absorb, event-time ticks, micro-batched DQN
    // inference — with the offline `run_policy` rollout of the same timelines as the
    // parity oracle. The fingerprint covers the decision/cost totals (bit patterns), a
    // digest of every served decision and the parity verdict, so the serial-vs-parallel
    // byte compare pins the serving path's thread-count determinism; the events/sec of
    // the last run lands in `serve_stats` for the JSON summary. Wall time stays out of
    // the fingerprint.
    let serve_stats: Arc<Mutex<Option<(u64, f64, bool)>>> = Arc::new(Mutex::new(None));
    let serve_stage = {
        let stats = Arc::clone(&serve_stats);
        move |scale: Scale, seed: u64| -> String {
            let (nodes, days) = match scale {
                Scale::Small => (600, 365),
                Scale::Laptop => (1200, 730),
                Scale::Paper => (3056, 730),
            };
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

            // FNV-1a digest over the served decision log.
            let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
            for d in &decisions {
                for word in [u64::from(d.node.0), d.time.0 as u64, u64::from(d.mitigated)] {
                    for byte in word.to_le_bytes() {
                        digest ^= u64::from(byte);
                        digest = digest.wrapping_mul(0x0000_0100_0000_01B3);
                    }
                }
            }
            *stats.lock().expect("serve stats poisoned") = Some((events, events_per_sec, parity));
            format!(
                "events={events} nodes={} decisions={} mitigations={} ue={} \
                 mit_cost={:016x} ue_cost={:016x} digest={digest:016x} parity={parity}",
                report.per_node.len(),
                decisions.len(),
                report.mitigations,
                report.ue_count,
                report.mitigation_cost.to_bits(),
                report.ue_cost.to_bits(),
            )
        }
    };

    // Session-memory audit: a totals-only serving fleet (the production retention)
    // driven to half-stream ("warm") and then to the end, measuring per-node session
    // footprint and feature-history length at both points. The fingerprint covers the
    // byte totals, the history extremes and the **bounded verdict**: the longest
    // history ring buffer must not exceed the densest 1-hour event window any node
    // ever produced, plus the one sentinel entry — the O(window) claim as a gate, on
    // real fleet data rather than a synthetic unit fixture. The last run's numbers
    // land in `session_stats` for the JSON summary.
    type SessionStats = (u64, u64, usize, u64, usize, usize, bool);
    let session_stats: Arc<Mutex<Option<SessionStats>>> = Arc::new(Mutex::new(None));
    let session_memory_stage = {
        let stats = Arc::clone(&session_stats);
        move |scale: Scale, seed: u64| -> String {
            let (nodes, days) = match scale {
                Scale::Small => (300, 365),
                Scale::Laptop => (600, 730),
                Scale::Paper => (3056, 730),
            };
            let (timelines, sampler) = serving_fleet(nodes, days, seed);
            let config =
                ServeConfig::for_timelines(&timelines, MitigationConfig::paper_default(), seed)
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
            *stats.lock().expect("session stats poisoned") = Some((
                sessions,
                warm_bytes,
                warm_max_history,
                end_bytes,
                end_max_history,
                window_bound,
                bounded,
            ));
            format!(
                "sessions={sessions} warm_bytes={warm_bytes} warm_max_history={warm_max_history} \
                 end_bytes={end_bytes} end_max_history={end_max_history} \
                 window_bound={window_bound} bounded={bounded}"
            )
        }
    };

    // Observability-overhead audit: the same serving stream timed with the metrics
    // gate closed and open (no shadows), best-of-three each — the open gate must cost
    // at most 3% throughput and must not move a single served bit. A third leg mounts
    // shadow baselines (Always-/Never-mitigate) and lands their counterfactual
    // scoreboard plus the served policy's cost regret in the JSON summary. The stage
    // fingerprint covers only event-time outputs (report bits, parity verdicts, shadow
    // totals) — wall times and the process-cumulative registry stay out of it, so the
    // serial-vs-parallel byte compare still pins thread-count determinism.
    type ObsStats = (u64, f64, f64, f64, bool, f64, Vec<(String, f64)>);
    let obs_stats: Arc<Mutex<Option<ObsStats>>> = Arc::new(Mutex::new(None));
    let obs_overhead_stage = {
        let stats = Arc::clone(&obs_stats);
        move |scale: Scale, seed: u64| -> String {
            let (nodes, days) = match scale {
                Scale::Small => (600, 365),
                Scale::Laptop => (1200, 730),
                Scale::Paper => (3056, 730),
            };
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
            let scoreboard: Vec<(String, f64)> = shadow_scores
                .iter()
                .map(|s| (s.policy.clone(), s.total_cost()))
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
            *stats.lock().expect("obs stats poisoned") = Some((
                events,
                off_eps,
                on_eps,
                overhead_pct,
                parity,
                regret,
                scoreboard,
            ));
            format!(
                "events={events} mit_cost={:016x} ue_cost={:016x} parity={parity} \
                 regret={:016x} shadows={shadow_bits}",
                off_report.mitigation_cost.to_bits(),
                off_report.ue_cost.to_bits(),
                regret.to_bits(),
            )
        }
    };

    // Kernel microbench: the cache-blocked `Matrix` family (NN forward, TN-accumulate
    // backward, NT backward) at serving-shaped GEMMs and at every 64-row GEMM shape of
    // the paper trunk's training update. The fingerprint holds FNV digests over the
    // exact output bits — one over the serving shapes, one over the training shapes —
    // so any change to a kernel's reduction order shows up here before it shows up as
    // a parity failure. The GFLOP/s of every family at every shape of the last run
    // land in `kernel_stats` for the JSON summary (wall time stays out of the
    // fingerprint), beside the instruction-set level the kernels dispatched to, so
    // figures from different hosts compare. Each figure is the fastest of `reps`
    // repetitions: scheduler noise on a shared core only ever slows a product down.
    // Last come the paper trunk's single-row products (a batch-1 forward pass) on
    // ReLU-sparse inputs, about half of them zero, each through a dense layer and through
    // the same layer frozen for inference, which skips the zero inputs: µs per product
    // of each path, and a third digest over the dense outputs. The stage fails unless
    // the frozen layer gives the same bits.
    let kernel_stats: Arc<Mutex<Vec<KernelShapeStats>>> = Arc::new(Mutex::new(Vec::new()));
    let single_row_stats: Arc<Mutex<Vec<SingleRowStats>>> = Arc::new(Mutex::new(Vec::new()));
    let matmul_stage = {
        let stats = Arc::clone(&kernel_stats);
        let single_stats = Arc::clone(&single_row_stats);
        move || -> String {
            fn fill(rows: usize, cols: usize, salt: usize) -> Matrix {
                Matrix::from_fn(rows, cols, |i, j| {
                    ((i * 31 + j * 17 + salt) as f64 * 0.193).sin()
                })
            }
            // (m, k, n): a serving micro-batch through the small trunk, the paper
            // trunk's widest layer, a single-row forward and a ragged edge-tile shape;
            // then the paper trunk's other training shapes (its first, third and fourth
            // layer at the 64-row batch).
            let serving_shapes = [(64, 256, 256), (64, 15, 32), (1, 15, 32), (13, 37, 19)];
            let training_shapes = [(64, 15, 256), (64, 256, 128), (64, 128, 64)];
            let reps = 40;
            let mut shape_stats = Vec::new();
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
                    shape_stats.push(KernelShapeStats {
                        shape: (m, k, n),
                        flops: (2 * m * k * n) as f64,
                        secs,
                    });
                }
                digest
            };
            let serving = digest_of(&serving_shapes, 0);
            let training = digest_of(&training_shapes, serving_shapes.len());
            *stats.lock().expect("kernel stats poisoned") = shape_stats;

            // (k, n) of the paper trunk's four layers.
            let single_row_shapes = [(15, 256), (256, 256), (256, 128), (128, 64)];
            let mut single_row = 0xcbf2_9ce4_8422_2325;
            let mut row_stats = Vec::new();
            for (offset, &(k, n)) in single_row_shapes.iter().enumerate() {
                let salt = serving_shapes.len() + training_shapes.len() + offset;
                let x = fill(1, k, salt).map(|v| Activation::Relu.apply(v));
                let mut rng = StdRng::seed_from_u64(salt as u64);
                let dense =
                    DenseLayer::new(k, n, Activation::Identity, WeightInit::HeNormal, &mut rng);
                let mut frozen = dense.clone();
                frozen.drop_training_buffers();
                let (mut dense_out, mut frozen_out) = (Matrix::zeros(1, 1), Matrix::zeros(1, 1));
                let secs = [
                    best_of(reps, || dense.forward_batch_into(&x, &mut dense_out)),
                    best_of(reps, || frozen.forward_batch_into(&x, &mut frozen_out)),
                ];
                for &v in dense_out.data() {
                    fnv(&mut single_row, v.to_bits());
                }
                let mut pairs = dense_out.data().iter().zip(frozen_out.data());
                row_stats.push(SingleRowStats {
                    shape: (k, n),
                    secs,
                    same_bits: pairs.all(|(d, f)| d.to_bits() == f.to_bits()),
                });
            }
            let same_bits = row_stats.iter().all(|r| r.same_bits);
            *single_stats.lock().expect("single-row stats poisoned") = row_stats;
            format!(
                "shapes={} reps={reps} digest={serving:016x} training_shapes={} \
                 training_digest={training:016x} single_row_shapes={} \
                 single_row_digest={single_row:016x} zero_skip_same_bits={same_bits}",
                serving_shapes.len(),
                training_shapes.len(),
                single_row_shapes.len()
            )
        }
    };

    // Training-update phase split: the paper agent (256-256-128-64, 64-row batches)
    // fills its replay to `min_replay` with seeded random transitions, one in eight
    // terminal, then observes `TRAIN_UPDATES × train_every` more, so it runs
    // `TRAIN_UPDATES` updates. The metrics gate is open for the stage, so every
    // `train_step` phase span records; the per-update phase times of the last run land
    // in `train_stats` for the JSON. The fingerprint covers the update count, the last
    // loss and probe Q-values, bit for bit.
    const TRAIN_UPDATES: u64 = 60;
    let train_stats: Arc<Mutex<Option<TrainStats>>> = Arc::new(Mutex::new(None));
    let train_update_stage = {
        let stats = Arc::clone(&train_stats);
        move || -> String {
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
            let read =
                || UpdatePhase::ALL.map(|p| (phases.phase(p).sum(), phases.phase(p).count()));
            let was_enabled = uerl_obs::enabled();
            uerl_obs::set_enabled(true);
            let before = read();
            let updates_before = agent.updates();
            let t0 = Instant::now();
            for i in warm - 1..warm - 1 + TRAIN_UPDATES * every {
                agent.observe(transition(i));
            }
            let secs = t0.elapsed().as_secs_f64();
            let after = read();
            uerl_obs::set_enabled(was_enabled);
            let updates = agent.updates() - updates_before;
            let phase_nanos = std::array::from_fn(|i| after[i].0 - before[i].0);
            *stats.lock().expect("train stats poisoned") = Some(TrainStats {
                updates,
                secs,
                phase_nanos,
            });
            let probe: Vec<String> = agent
                .q_values(&[0.1; STATE_DIM])
                .iter()
                .map(|q| format!("{:016x}", q.to_bits()))
                .collect();
            format!(
                "updates={updates} loss={:016x} probe_q={probe:?}",
                agent.last_loss().unwrap_or(f64::NAN).to_bits()
            )
        }
    };

    // Pool-overhead microbench: many tiny parallel calls, the pattern that made the old
    // per-call fork-join (a thread spawn + join per `par_iter`) hurt most. With the
    // persistent pool each call is queue traffic only, so the serial/pooled gap here
    // isolates dispatch overhead from real work. Two flavors: indexed fan-outs
    // (join-splitting under the hood) and scope/spawn bursts. The fingerprint is an
    // accumulated sum that any dropped or double-run item would change; the spawn sum
    // goes through wrapping u64 addition, which commutes, so the digest is independent
    // of the (intentionally unordered) spawn schedule.
    let pool_overhead_stage = || -> String {
        let mut acc = 0u64;
        for round in 0..256u64 {
            let out: Vec<u64> = (0..64)
                .into_par_iter()
                .map(|i| (i as u64).wrapping_mul(round + 1).rotate_left(7))
                .collect();
            acc = acc.wrapping_add(out.into_iter().sum::<u64>());
        }
        for round in 0..64u64 {
            let sum = std::sync::atomic::AtomicU64::new(0);
            rayon::scope(|s| {
                for i in 0..64u64 {
                    let sum = &sum;
                    s.spawn(move |_| {
                        sum.fetch_add(
                            i.wrapping_mul(round + 1).rotate_left(11),
                            std::sync::atomic::Ordering::Relaxed,
                        );
                    });
                }
            });
            acc = acc.wrapping_add(sum.into_inner());
        }
        format!("acc={acc}")
    };

    // Set-up from text: the scale's raw error log and job log are rendered to text once,
    // on the untimed warm-up run, and every run then parses and indexes them the way a
    // deployment starts (mcelog parse, preprocess, timelines, sacct parse, job sampler).
    // The fingerprint is a digest of the timeline set plus the event counts; the step
    // times and the parse rate of the last run land in `setup_stats` for the JSON.
    let setup_stats: Arc<Mutex<Option<SetupStats>>> = Arc::new(Mutex::new(None));
    let setup_text_stage = {
        let stats = Arc::clone(&setup_stats);
        let texts = OnceLock::new();
        move || -> String {
            let (mcelog_text, sacct_text, fleet) = texts.get_or_init(|| {
                let (error_log, job_log) = uerl_bench::logs(scale, 2024);
                let fleet = error_log.fleet().clone();
                (mcelog::to_text(&error_log), sacct::to_text(&job_log), fleet)
            });
            let t0 = Instant::now();
            let raw =
                mcelog::from_text(mcelog_text, fleet.clone()).expect("rendered mcelog parses");
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
            *stats.lock().expect("setup stats poisoned") = Some(SetupStats {
                mcelog_bytes: mcelog_text.len(),
                sacct_bytes: sacct_text.len(),
                parse_secs: secs(t0, t1),
                preprocess_secs: secs(t1, t2),
                timelines_secs: secs(t2, t3),
                jobs_secs: secs(t3, t4),
            });
            format!(
                "raw_events={} events={} nodes={} merged_events={} jobs={} digest={digest:016x}",
                raw.len(),
                log.len(),
                timelines.len(),
                timelines.total_events(),
                jobs.records().len(),
            )
        }
    };

    let stages: Vec<(&'static str, Stage)> = vec![
        ("pool_overhead", Box::new(pool_overhead_stage)),
        ("matmul_kernels", Box::new(matmul_stage)),
        ("train_update", Box::new(train_update_stage)),
        ("setup_text", Box::new(setup_text_stage)),
        ("forest_fit_100_trees", {
            let ctx = ctx.clone();
            Box::new(move || forest_stage(&ctx))
        }),
        ("hyper_search_rl", {
            let ctx = ctx.clone();
            Box::new(move || hyper_stage(&ctx))
        }),
        ("halving_vs_exhaustive", {
            let ctx = ctx.clone();
            Box::new(move || halving_stage(&ctx))
        }),
        (
            "serve_throughput",
            Box::new(move || serve_stage(scale, 2024 ^ 0x5E17)),
        ),
        (
            "session_memory",
            Box::new(move || session_memory_stage(scale, 2024 ^ 0x3E55)),
        ),
        (
            "obs_overhead",
            Box::new(move || obs_overhead_stage(scale, 2024 ^ 0x0B5E)),
        ),
        ("fig3_total_cost", {
            let ctx = ctx.clone();
            Box::new(move || fig3::run(&ctx, &[2.0, 5.0, 10.0]).render())
        }),
        ("fig4_cross_validation", {
            let ctx = ctx.clone();
            Box::new(move || fig4::run(&ctx).render())
        }),
        ("fig5_manufacturers", {
            let ctx = ctx.clone();
            Box::new(move || fig5::run(&ctx).render())
        }),
        ("fig6_agent_behavior", {
            let ctx = ctx.clone();
            Box::new(move || fig6::run(&ctx, 12, 10).render())
        }),
        ("fig7_job_scaling", {
            let ctx = ctx.clone();
            Box::new(move || fig7::run(&ctx, &[0.1, 0.3, 1.0, 3.0, 10.0]).render())
        }),
        ("table2_ml_metrics", {
            let ctx = ctx.clone();
            Box::new(move || table2::run(&ctx).render())
        }),
    ];

    let stages: Vec<(&'static str, Stage)> = match &stage_filter {
        None => stages,
        Some(wanted) => {
            let known: Vec<&str> = stages.iter().map(|(name, _)| *name).collect();
            for want in wanted {
                assert!(
                    known.contains(&want.as_str()),
                    "unknown --stage {want:?}; available: {known:?}"
                );
            }
            stages
                .into_iter()
                .filter(|(name, _)| wanted.iter().any(|w| w == name))
                .collect()
        }
    };
    assert!(!stages.is_empty(), "no stages selected");

    let serial_pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("single-thread pool");

    let mut reports = Vec::new();
    for (name, stage) in &stages {
        // Untimed warm-up so neither mode pays first-run allocator/page-cache costs.
        let _ = stage();
        // Each timed run must pay the full pipeline cost, including the prefix hyper
        // search that fig6/table2 memoize — and the serial/parallel byte-compare must
        // re-train, not replay the other mode's cached models.
        clear_prefix_cache();
        let (parallel_secs, parallel_out) = time_run(stage.as_ref());
        clear_prefix_cache();
        let (serial_secs, serial_out) = serial_pool.install(|| time_run(stage.as_ref()));
        let deterministic = parallel_out == serial_out;
        let report = StageReport {
            name,
            serial_secs,
            parallel_secs,
            deterministic,
            fingerprint: parallel_out,
        };
        eprintln!(
            "[perf_report] {:<24} serial {:>8.3}s  parallel {:>8.3}s  speedup {:>5.2}x  {}",
            report.name,
            report.serial_secs,
            report.parallel_secs,
            report.speedup(),
            if deterministic {
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

    let halving = *halving_stats.lock().expect("halving stats poisoned");
    let serving = *serve_stats.lock().expect("serve stats poisoned");
    let kernels = std::mem::take(&mut *kernel_stats.lock().expect("kernel stats poisoned"));
    let single_rows =
        std::mem::take(&mut *single_row_stats.lock().expect("single-row stats poisoned"));
    let training = train_stats.lock().expect("train stats poisoned").take();
    let session_memory = *session_stats.lock().expect("session stats poisoned");
    let obs = obs_stats.lock().expect("obs stats poisoned").clone();
    let setup = setup_stats.lock().expect("setup stats poisoned").take();

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"scale\": \"{}\",\n", scale.label()));
    json.push_str(&format!("  \"threads\": {threads},\n"));
    json.push_str(&format!(
        "  \"deterministic_across_thread_counts\": {all_deterministic},\n"
    ));
    if let Some((halving_steps, exhaustive_steps, halving_fewer)) = halving {
        json.push_str(&format!(
            "  \"halving_vs_exhaustive\": {{\"halving_steps\": {halving_steps}, \"exhaustive_steps\": {exhaustive_steps}, \"halving_trains_fewer\": {halving_fewer}}},\n"
        ));
    }
    if let Some((events, events_per_sec, parity)) = serving {
        json.push_str(&format!(
            "  \"serve_throughput\": {{\"events\": {events}, \"events_per_sec\": {events_per_sec:.1}, \"parity_with_offline_evaluator\": {parity}}},\n"
        ));
    }
    if !kernels.is_empty() {
        let [nn, tn, nt] = family_gflops(&kernels);
        let shapes: Vec<String> = kernels
            .iter()
            .map(|k| {
                let (m, kd, n) = k.shape;
                format!(
                    "{{\"m\": {m}, \"k\": {kd}, \"n\": {n}, \"nn_gflops\": {:.3}, \"tn_acc_gflops\": {:.3}, \"nt_gflops\": {:.3}}}",
                    k.gflops(0),
                    k.gflops(1),
                    k.gflops(2)
                )
            })
            .collect();
        json.push_str(&format!(
            "  \"matmul_kernels\": {{\"kernel_isa\": \"{}\", \"nn_gflops\": {nn:.3}, \"tn_acc_gflops\": {tn:.3}, \"nt_gflops\": {nt:.3}, \"shapes\": [{}]}},\n",
            kernel_isa(),
            shapes.join(", ")
        ));
    }
    if !single_rows.is_empty() {
        let shapes: Vec<String> = single_rows
            .iter()
            .map(|r| {
                let (k, n) = r.shape;
                format!(
                    "{{\"m\": 1, \"k\": {k}, \"n\": {n}, \"dense_us\": {:.3}, \"zero_skip_us\": {:.3}, \"same_bits\": {}}}",
                    r.secs[0] * 1e6,
                    r.secs[1] * 1e6,
                    r.same_bits
                )
            })
            .collect();
        json.push_str(&format!(
            "  \"single_row_products\": [{}],\n",
            shapes.join(", ")
        ));
    }
    if let Some(train) = &training {
        let phases: Vec<String> = UpdatePhase::ALL
            .iter()
            .enumerate()
            .map(|(i, p)| format!("\"{}\": {:.1}", p.label(), train.phase_us_per_update(i)))
            .collect();
        json.push_str(&format!(
            "  \"train_update\": {{\"updates\": {}, \"updates_per_sec\": {:.1}, \"phase_us_per_update\": {{{}}}}},\n",
            train.updates,
            train.updates as f64 / train.secs.max(1e-9),
            phases.join(", ")
        ));
    }
    if let Some(setup) = &setup {
        json.push_str(&format!(
            "  \"setup_text\": {{\"mcelog_bytes\": {}, \"sacct_bytes\": {}, \"mcelog_parse_secs\": {:.6}, \"mcelog_parse_mb_per_sec\": {:.1}, \"preprocess_secs\": {:.6}, \"timelines_from_log_secs\": {:.6}, \"sacct_and_sampler_secs\": {:.6}, \"setup_secs\": {:.6}}},\n",
            setup.mcelog_bytes,
            setup.sacct_bytes,
            setup.parse_secs,
            setup.mcelog_bytes as f64 / 1e6 / setup.parse_secs.max(1e-9),
            setup.preprocess_secs,
            setup.timelines_secs,
            setup.jobs_secs,
            setup.total_secs(),
        ));
    }
    if let Some((sessions, warm_bytes, warm_max_hist, end_bytes, end_max_hist, bound, bounded)) =
        session_memory
    {
        let per_node = |bytes: u64| bytes as f64 / (sessions.max(1)) as f64;
        json.push_str(&format!(
            "  \"session_memory\": {{\"sessions\": {sessions}, \"warm_bytes_per_node\": {:.1}, \"warm_max_history\": {warm_max_hist}, \"end_bytes_per_node\": {:.1}, \"end_max_history\": {end_max_hist}, \"densest_1h_window_events\": {bound}, \"history_bounded_by_window\": {bounded}}},\n",
            per_node(warm_bytes),
            per_node(end_bytes),
        ));
    }
    if let Some((events, off_eps, on_eps, overhead_pct, parity, regret, scoreboard)) = &obs {
        let shadows: String = scoreboard
            .iter()
            .map(|(policy, cost)| {
                format!("{{\"policy\": \"{policy}\", \"total_cost\": {cost:.6}}}")
            })
            .collect::<Vec<_>>()
            .join(", ");
        json.push_str(&format!(
            "  \"obs_overhead\": {{\"events\": {events}, \"metrics_off_events_per_sec\": {off_eps:.1}, \"metrics_on_events_per_sec\": {on_eps:.1}, \"overhead_pct\": {overhead_pct:.4}, \"bit_parity_off_vs_on\": {parity}, \"shadow_regret_node_hours\": {regret:.6}, \"shadow_scores\": [{shadows}]}},\n"
        ));
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
    if let Some((halving_steps, exhaustive_steps, _)) = halving {
        eprintln!(
            "[perf_report] halving {halving_steps} vs exhaustive {exhaustive_steps} training steps"
        );
    }
    if let Some((events, events_per_sec, parity)) = serving {
        eprintln!(
            "[perf_report] served {events} events at {events_per_sec:.0} events/sec \
             (parity with offline evaluator: {parity})"
        );
    }
    if !kernels.is_empty() {
        let [nn, tn, nt] = family_gflops(&kernels);
        eprintln!(
            "[perf_report] kernels ({}): NN {nn:.2} / TN-acc {tn:.2} / NT {nt:.2} GFLOP/s",
            kernel_isa()
        );
        for k in &kernels {
            let (m, kd, n) = k.shape;
            eprintln!(
                "[perf_report]   {m}x{kd}x{n}: NN {:.2} / TN-acc {:.2} / NT {:.2} GFLOP/s",
                k.gflops(0),
                k.gflops(1),
                k.gflops(2)
            );
        }
    }
    for r in &single_rows {
        let (k, n) = r.shape;
        eprintln!(
            "[perf_report]   1x{k}x{n} ReLU-sparse input: dense {:.2} µs, zero-skipping {:.2} µs \
             (same bits: {})",
            r.secs[0] * 1e6,
            r.secs[1] * 1e6,
            r.same_bits
        );
    }
    if let Some(train) = &training {
        let split: Vec<String> = UpdatePhase::ALL
            .iter()
            .enumerate()
            .map(|(i, p)| format!("{} {:.0}", p.label(), train.phase_us_per_update(i)))
            .collect();
        eprintln!(
            "[perf_report] train update: {} updates at {:.1}/s; µs per update: {}",
            train.updates,
            train.updates as f64 / train.secs.max(1e-9),
            split.join(", ")
        );
    }
    if let Some(setup) = &setup {
        eprintln!(
            "[perf_report] set-up from text: {:.3} s ({:.1} MB mcelog parsed at {:.0} MB/s, \
             timelines built in {:.3} s)",
            setup.total_secs(),
            setup.mcelog_bytes as f64 / 1e6,
            setup.mcelog_bytes as f64 / 1e6 / setup.parse_secs.max(1e-9),
            setup.timelines_secs,
        );
    }
    if let Some((sessions, _, _, end_bytes, end_max_hist, bound, bounded)) = session_memory {
        eprintln!(
            "[perf_report] session memory: {sessions} sessions, {:.0} bytes/node, \
             max history {end_max_hist} (densest 1h window {bound} events, bounded: {bounded})",
            end_bytes as f64 / (sessions.max(1)) as f64
        );
    }
    if let Some((events, off_eps, on_eps, overhead_pct, parity, regret, _)) = &obs {
        eprintln!(
            "[perf_report] obs overhead: {events} events at {off_eps:.0} (off) vs {on_eps:.0} \
             (on) events/sec ({overhead_pct:+.2}%), bit parity: {parity}, \
             shadow regret {regret:+.2} node-hours"
        );
    }
    eprintln!(
        "[perf_report] overall speedup {overall_speedup:.2}x on {threads} thread(s); wrote {path}"
    );
    println!("{json}");
    if !all_deterministic {
        eprintln!("[perf_report] ERROR: output diverged across thread counts");
        std::process::exit(1);
    }
    if single_rows.iter().any(|r| !r.same_bits) {
        eprintln!(
            "[perf_report] ERROR: a layer frozen for inference (zero inputs skipped) gave \
             other bits than the dense product"
        );
        std::process::exit(1);
    }
    if let Some((_, _, false)) = halving {
        eprintln!(
            "[perf_report] ERROR: the halving search must train strictly fewer steps \
             than the exhaustive search"
        );
        std::process::exit(1);
    }
    if let Some((_, _, false)) = serving {
        eprintln!(
            "[perf_report] ERROR: served decisions/costs must be bit-identical to the \
             offline evaluator rollout"
        );
        std::process::exit(1);
    }
    if let Some((_, _, _, _, _, _, false)) = session_memory {
        eprintln!(
            "[perf_report] ERROR: a session's feature history exceeded the densest \
             1-hour event window (+1 sentinel) — sessions are no longer O(window)"
        );
        std::process::exit(1);
    }
    if let Some((_, _, _, overhead_pct, parity, _, _)) = &obs {
        if !*parity {
            eprintln!(
                "[perf_report] ERROR: opening the metrics gate (or mounting shadow \
                 policies) changed a served bit — the observability layer must be inert"
            );
            std::process::exit(1);
        }
        if *overhead_pct > 3.0 {
            eprintln!(
                "[perf_report] ERROR: metrics-on serving overhead {overhead_pct:.2}% \
                 exceeds the 3% gate"
            );
            std::process::exit(1);
        }
    }
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

/// Parse repeated `--stage <name>` arguments; `None` means "run everything".
fn parse_stage_filter() -> Option<Vec<String>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut wanted = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--stage" => {
                let value = args.get(i + 1).expect("--stage requires a stage name");
                wanted.push(value.clone());
                i += 2;
            }
            other => panic!("unknown argument {other:?}; usage: perf_report [--stage <name>]..."),
        }
    }
    if wanted.is_empty() {
        None
    } else {
        Some(wanted)
    }
}

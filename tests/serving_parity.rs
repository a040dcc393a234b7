//! Serving parity: the online fleet server must reproduce the offline evaluator's
//! `run_policy` rollout **bit-for-bit** — decisions, per-node costs and fleet totals —
//! at every micro-batch size, thread count and record-retention mode.
//!
//! This is the determinism contract of the serving subsystem: micro-batching a tick's
//! decision requests into one forward pass, running on any pool size and dropping
//! per-event logs (totals-only retention) are pure execution-strategy choices that
//! must never change a single decision or cost bit.
//!
//! Every parity check serves the stream under both retention modes: totals and
//! counters are bit-compared in each, the per-node logs are compared entry for entry
//! under full retention and asserted empty under totals-only. Two tests additionally
//! pin each retention mode on its own.

use std::sync::Arc;

use uerl::core::event_stream::TimelineSet;
use uerl::core::policies::{
    AlwaysMitigate, MyopicRfPolicy, NeverMitigate, RlPolicy, ThresholdRfPolicy,
};
use uerl::core::policy::MitigationPolicy;
use uerl::core::rf_dataset::build_rf_dataset_1day;
use uerl::core::state::STATE_DIM;
use uerl::core::trainer::{RlTrainer, TrainerConfig};
use uerl::core::MitigationConfig;
use uerl::eval::run::{run_policy, PolicyRun};
use uerl::forest::{RandomForest, RandomForestConfig};
use uerl::jobs::schedule::NodeJobSampler;
use uerl::jobs::{JobLogConfig, JobTraceGenerator};
use uerl::serve::{
    merged_fleet_stream, FleetServer, RecordRetention, ServeConfig, ServeReport, ShadowPolicy,
};
use uerl::trace::generator::{SyntheticLogConfig, TraceGenerator};
use uerl::trace::reduction::preprocess;

const SEED: u64 = 2025;

fn fixture() -> (TimelineSet, NodeJobSampler) {
    let log = TraceGenerator::new(SyntheticLogConfig::small(30, 60, 17)).generate();
    let timelines = TimelineSet::from_log(&preprocess(&log));
    let jobs = JobTraceGenerator::new(JobLogConfig::small(64, 30, 17)).generate();
    (timelines, NodeJobSampler::from_log(&jobs))
}

/// A small trained agent wrapped as the serving policy (the paper's deployment story).
fn trained_rl_policy(timelines: &TimelineSet, sampler: &NodeJobSampler) -> RlPolicy {
    let trainer = RlTrainer::new(TrainerConfig::reduced(25).with_seed(3));
    let outcome = trainer.train(timelines, sampler);
    let mut agent = outcome.agent;
    agent.compact_for_inference();
    RlPolicy::new(agent)
}

/// A small forest trained on the fixture's 1-day prediction dataset (the SC20
/// feature pipeline), degenerate-dataset guards included.
fn fitted_forest(timelines: &TimelineSet) -> RandomForest {
    let (mut dataset, _) = build_rf_dataset_1day(timelines);
    if dataset.is_empty() {
        dataset.push(vec![0.0; STATE_DIM - 1], false);
    }
    let mut rf_config = RandomForestConfig::sc20(STATE_DIM - 1, 5);
    rf_config.n_trees = 8;
    if dataset.positives() == 0 {
        rf_config.undersample_ratio = None;
    }
    RandomForest::fit(&dataset, &rf_config)
}

/// The record-retention modes every parity check serves under, in this order.
const RETENTIONS: [RecordRetention; 2] = [RecordRetention::Full, RecordRetention::TotalsOnly];

/// Serve the timelines once per mode of [`RETENTIONS`], returning the reports in that
/// order.
fn serve<P: MitigationPolicy + Clone>(
    policy: &P,
    timelines: &TimelineSet,
    sampler: &NodeJobSampler,
    batch_size: usize,
) -> [ServeReport; 2] {
    RETENTIONS.map(|retention| {
        let config = ServeConfig::for_timelines(timelines, MitigationConfig::paper_default(), SEED)
            .with_batch_size(batch_size)
            .with_retention(retention);
        serve_with(config, policy, timelines, sampler)
    })
}

fn serve_with<P: MitigationPolicy + Clone>(
    config: ServeConfig,
    policy: &P,
    timelines: &TimelineSet,
    sampler: &NodeJobSampler,
) -> ServeReport {
    let mut server = FleetServer::new(config, policy.clone(), sampler.clone());
    let mut decisions = Vec::new();
    server
        .ingest_all(merged_fleet_stream(timelines), &mut decisions)
        .expect("the merged stream is time-ordered");
    assert_eq!(
        decisions.len() as u64,
        server.report().mitigations + server.report().non_mitigations,
        "every non-fatal event must be answered"
    );
    server.report()
}

/// Bit-level comparison of a serving report against the offline rollout.
fn assert_parity(report: &ServeReport, offline: &PolicyRun) {
    assert_eq!(report.mitigations, offline.mitigations);
    assert_eq!(report.non_mitigations, offline.non_mitigations);
    assert_eq!(report.ue_count, offline.ue_count);
    assert_eq!(
        report.mitigation_cost.to_bits(),
        offline.mitigation_cost.to_bits(),
        "mitigation cost diverged: served {} vs offline {}",
        report.mitigation_cost,
        offline.mitigation_cost
    );
    assert_eq!(
        report.ue_cost.to_bits(),
        offline.ue_cost.to_bits(),
        "UE cost diverged: served {} vs offline {}",
        report.ue_cost,
        offline.ue_cost
    );
    match report.retention {
        RecordRetention::Full => {
            // Per-node decision and UE logs, flattened in node-id order, must match
            // the offline run's logs exactly (run_policy merges per-timeline partials
            // in node-id order, each in event order).
            let served_decisions: Vec<(u32, i64, bool)> = report
                .per_node
                .iter()
                .flat_map(|n| {
                    n.decisions
                        .iter()
                        .map(|&(t, m)| (n.node.0, t.0, m))
                        .collect::<Vec<_>>()
                })
                .collect();
            let offline_decisions: Vec<(u32, i64, bool)> = offline
                .decisions
                .iter()
                .map(|d| (d.node.0, d.time.0, d.mitigated))
                .collect();
            assert_eq!(
                served_decisions, offline_decisions,
                "decision logs diverged"
            );
            let served_ues: Vec<(u32, i64, u64)> = report
                .per_node
                .iter()
                .flat_map(|n| {
                    n.ue_records
                        .iter()
                        .map(|r| (n.node.0, r.time.0, r.cost.to_bits()))
                        .collect::<Vec<_>>()
                })
                .collect();
            let offline_ues: Vec<(u32, i64, u64)> = offline
                .ue_events
                .iter()
                .map(|u| (u.node.0, u.time.0, u.cost.to_bits()))
                .collect();
            assert_eq!(served_ues, offline_ues, "UE logs diverged");
        }
        RecordRetention::TotalsOnly => {
            // Totals-only sessions must keep no logs — that is the whole point —
            // while every total above already matched bit-for-bit.
            for node in &report.per_node {
                assert!(node.decisions.is_empty(), "totals-only kept a decision log");
                assert!(node.ue_records.is_empty(), "totals-only kept a UE log");
            }
        }
    }
}

#[test]
fn served_rl_decisions_are_bit_identical_to_offline_rollout_at_every_batch_size() {
    let (timelines, sampler) = fixture();
    let policy = trained_rl_policy(&timelines, &sampler);
    let offline = run_policy(
        &policy,
        &timelines,
        &sampler,
        MitigationConfig::paper_default(),
        SEED,
    );
    assert!(offline.ue_count > 0, "the fixture must contain UEs");
    assert!(
        offline.mitigations > 0 || offline.non_mitigations > 0,
        "the fixture must contain decisions"
    );
    for batch_size in [1, 7, 64] {
        for report in serve(&policy, &timelines, &sampler, batch_size) {
            assert_parity(&report, &offline);
        }
    }
}

#[test]
fn serving_is_bit_identical_across_thread_counts_and_matches_offline() {
    let (timelines, sampler) = fixture();
    let policy = trained_rl_policy(&timelines, &sampler);
    let offline = run_policy(
        &policy,
        &timelines,
        &sampler,
        MitigationConfig::paper_default(),
        SEED,
    );
    let run = |threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        pool.install(|| serve(&policy, &timelines, &sampler, 64))
    };
    let one = run(1);
    let four = run(4);
    assert_eq!(one, four, "serving diverged across thread counts");
    for report in one.iter().chain(&four) {
        assert_parity(report, &offline);
    }
}

#[test]
fn non_rl_policies_also_serve_with_exact_parity() {
    // The default `decide_batch` hook (loop over `decide`) must be batch-transparent
    // too; Myopic-RF exercises a model-driven policy through it and Always-mitigate a
    // trivial one.
    let (timelines, sampler) = fixture();
    let offline_always = run_policy(
        &AlwaysMitigate,
        &timelines,
        &sampler,
        MitigationConfig::paper_default(),
        SEED,
    );
    for report in serve(&AlwaysMitigate, &timelines, &sampler, 7) {
        assert_parity(&report, &offline_always);
    }

    let myopic = MyopicRfPolicy::new(
        fitted_forest(&timelines),
        MitigationConfig::paper_default().mitigation_cost_node_hours(),
    );
    let offline_myopic = run_policy(
        &myopic,
        &timelines,
        &sampler,
        MitigationConfig::paper_default(),
        SEED,
    );
    for batch_size in [1, 7, 64] {
        for report in serve(&myopic, &timelines, &sampler, batch_size) {
            assert_parity(&report, &offline_myopic);
        }
    }
}

#[test]
fn full_retention_serving_matches_offline_logs_regardless_of_environment() {
    // Explicit full-retention coverage: the per-node decision and UE logs must always
    // be available to (and match) the offline evaluator when a caller opts in.
    let (timelines, sampler) = fixture();
    let offline = run_policy(
        &AlwaysMitigate,
        &timelines,
        &sampler,
        MitigationConfig::paper_default(),
        SEED,
    );
    let config = ServeConfig::for_timelines(&timelines, MitigationConfig::paper_default(), SEED)
        .with_batch_size(16)
        .with_retention(RecordRetention::Full);
    let report = serve_with(config, &AlwaysMitigate, &timelines, &sampler);
    assert_eq!(report.retention, RecordRetention::Full);
    assert!(
        report.per_node.iter().any(|n| !n.decisions.is_empty()),
        "full retention must keep the decision logs"
    );
    assert_parity(&report, &offline);
}

#[test]
fn totals_only_retention_matches_full_on_every_total_and_keeps_no_logs() {
    // Explicit totals-only coverage: dropping the per-event logs must not move a single
    // counter or cost bit relative to a full-retention run of the same stream — and
    // the logs must actually be gone.
    let (timelines, sampler) = fixture();
    let base = ServeConfig::for_timelines(&timelines, MitigationConfig::paper_default(), SEED)
        .with_batch_size(16);
    let full = serve_with(
        base.with_retention(RecordRetention::Full),
        &AlwaysMitigate,
        &timelines,
        &sampler,
    );
    let totals = serve_with(
        base.with_retention(RecordRetention::TotalsOnly),
        &AlwaysMitigate,
        &timelines,
        &sampler,
    );
    assert_eq!(totals.retention, RecordRetention::TotalsOnly);
    assert_eq!(totals.mitigations, full.mitigations);
    assert_eq!(totals.non_mitigations, full.non_mitigations);
    assert_eq!(totals.ue_count, full.ue_count);
    assert_eq!(
        totals.mitigation_cost.to_bits(),
        full.mitigation_cost.to_bits()
    );
    assert_eq!(totals.ue_cost.to_bits(), full.ue_cost.to_bits());
    assert_eq!(totals.per_node.len(), full.per_node.len());
    for (t, f) in totals.per_node.iter().zip(&full.per_node) {
        assert_eq!(t.node, f.node);
        assert_eq!(t.mitigations, f.mitigations);
        assert_eq!(t.non_mitigations, f.non_mitigations);
        assert_eq!(t.ue_count, f.ue_count);
        assert_eq!(t.mitigation_cost.to_bits(), f.mitigation_cost.to_bits());
        assert_eq!(t.ue_cost.to_bits(), f.ue_cost.to_bits());
        assert!(t.decisions.is_empty() && t.ue_records.is_empty());
    }
}

#[test]
fn streaming_in_prefix_chunks_matches_one_shot_ingestion() {
    // A long-running service ingests incrementally; pausing between arbitrary events
    // (flushing only at tick boundaries, as ingest does internally) must not change
    // anything relative to ingesting the whole stream in one call.
    let (timelines, sampler) = fixture();
    let policy = trained_rl_policy(&timelines, &sampler);
    let one_shot = serve(&policy, &timelines, &sampler, 16);

    let stream = merged_fleet_stream(&timelines);
    for (retention, one_shot) in RETENTIONS.into_iter().zip(one_shot) {
        let config =
            ServeConfig::for_timelines(&timelines, MitigationConfig::paper_default(), SEED)
                .with_batch_size(16)
                .with_retention(retention);
        let mut server = FleetServer::new(config, policy.clone(), sampler.clone());
        let mut decisions = Vec::new();
        for chunk in stream.chunks(97) {
            for event in chunk {
                server.ingest(event.clone(), &mut decisions).unwrap();
            }
        }
        server.flush(&mut decisions);
        assert_eq!(server.report(), one_shot);
    }
}

#[test]
fn serving_with_metrics_enabled_keeps_bit_parity_with_offline() {
    // The observability layer must be provably inert: force the gate OPEN for a
    // serving run (regardless of UERL_METRICS) and demand the same bit-parity with
    // the offline oracle that the gate-off runs uphold. CI additionally runs this
    // whole binary under UERL_METRICS=on at one and four threads.
    let (timelines, sampler) = fixture();
    let policy = trained_rl_policy(&timelines, &sampler);
    let offline = run_policy(
        &policy,
        &timelines,
        &sampler,
        MitigationConfig::paper_default(),
        SEED,
    );
    let was_enabled = uerl::obs::enabled();
    uerl::obs::set_enabled(true);
    let reports: Vec<ServeReport> = [1, 16, 64]
        .iter()
        .flat_map(|&batch_size| serve(&policy, &timelines, &sampler, batch_size))
        .collect();
    uerl::obs::set_enabled(was_enabled);
    for report in &reports {
        assert_parity(report, &offline);
    }
}

#[test]
fn shadow_scores_are_bit_identical_to_offline_rollouts_of_each_shadow() {
    // Shadow-policy scoring is counterfactual accounting over the identical served
    // stream, so every lane's score must be bit-identical to what the offline
    // evaluator computes when it replays that policy over the same timelines —
    // counters, mitigation cost (training cost included) and UE cost, for trivial
    // baselines, SC20-RF and the myopic cost-benefit policy alike.
    let (timelines, sampler) = fixture();
    let policy = trained_rl_policy(&timelines, &sampler);
    let config = MitigationConfig::paper_default();
    let shadows: Vec<ShadowPolicy> = vec![
        Arc::new(AlwaysMitigate),
        Arc::new(NeverMitigate),
        Arc::new(
            ThresholdRfPolicy::new(fitted_forest(&timelines), 0.5, "SC20-RF")
                .with_training_cost(0.25),
        ),
        Arc::new(MyopicRfPolicy::new(
            fitted_forest(&timelines),
            config.mitigation_cost_node_hours(),
        )),
    ];

    let serve_config = ServeConfig::for_timelines(&timelines, config, SEED).with_batch_size(16);
    let mut server = FleetServer::new(serve_config, policy, sampler.clone())
        .with_shadow_policies(shadows.clone());
    let mut decisions = Vec::new();
    server
        .ingest_all(merged_fleet_stream(&timelines), &mut decisions)
        .expect("the merged stream is time-ordered");
    let scores = server.shadow_report();
    assert_eq!(scores.len(), shadows.len());

    for (score, shadow) in scores.iter().zip(&shadows) {
        let offline = run_policy(&**shadow, &timelines, &sampler, config, SEED);
        assert_eq!(score.policy, shadow.name());
        assert_eq!(
            score.mitigations, offline.mitigations,
            "{}: mitigation count diverged",
            score.policy
        );
        assert_eq!(
            score.non_mitigations, offline.non_mitigations,
            "{}: non-mitigation count diverged",
            score.policy
        );
        assert_eq!(
            score.ue_count, offline.ue_count,
            "{}: UE count diverged",
            score.policy
        );
        assert_eq!(
            score.mitigation_cost.to_bits(),
            offline.mitigation_cost.to_bits(),
            "{}: mitigation cost diverged: shadow {} vs offline {}",
            score.policy,
            score.mitigation_cost,
            offline.mitigation_cost
        );
        assert_eq!(
            score.ue_cost.to_bits(),
            offline.ue_cost.to_bits(),
            "{}: UE cost diverged: shadow {} vs offline {}",
            score.policy,
            score.ue_cost,
            offline.ue_cost
        );
    }
}

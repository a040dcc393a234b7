//! Online serving quickstart: train a tiny mitigation agent, then run it as a live
//! fleet service and verify the served decisions against the offline evaluator.
//!
//! ```sh
//! cargo run --release --example online_serving
//! ```
//!
//! The pipeline mirrors a real deployment: historical logs train the agent offline;
//! the trained network is then compacted to its inference footprint and mounted in a
//! [`FleetServer`], which ingests the fleet's merged event-time stream and answers
//! every error-log event with a mitigate / don't-mitigate decision — micro-batching
//! the decision requests that share an event-time tick into single forward passes.
//! Because the serving path is bit-identical to the offline evaluator, the example
//! closes by replaying the same period through `run_policy` and asserting that every
//! decision and every accumulated cost matches exactly.
//!
//! The example also turns the observability layer on: baseline policies ride along as
//! **shadow policies** (scored counterfactually on the identical stream, never
//! touching a served decision), and the run ends with the metrics snapshot as JSON —
//! what a scrape of a real deployment would return.

use std::sync::Arc;
use std::time::Instant;
use uerl::core::event_stream::TimelineSet;
use uerl::core::policies::{AlwaysMitigate, NeverMitigate, RlPolicy};
use uerl::core::trainer::{RlTrainer, TrainerConfig};
use uerl::core::MitigationConfig;
use uerl::eval::run::run_policy;
use uerl::jobs::{JobLogConfig, JobTraceGenerator, NodeJobSampler};
use uerl::serve::{merged_fleet_stream, FleetServer, ServeConfig, ShadowPolicy};
use uerl::trace::generator::{SyntheticLogConfig, TraceGenerator};
use uerl::trace::reduction::preprocess;

fn main() {
    let seed = 42u64;
    let mitigation = MitigationConfig::paper_default();
    uerl::obs::set_enabled(true); // observe this run regardless of UERL_METRICS

    // --- Offline: synthesize a fleet and train a small agent -------------------------
    let log = TraceGenerator::new(SyntheticLogConfig::small(60, 120, seed)).generate();
    let timelines = TimelineSet::from_log(&preprocess(&log));
    let jobs = JobTraceGenerator::new(JobLogConfig::small(128, 60, seed)).generate();
    let sampler = NodeJobSampler::from_log(&jobs);
    println!(
        "fleet: {} nodes with events, {} merged events ({} fatal)",
        timelines.len(),
        timelines.total_events(),
        timelines.total_fatal()
    );

    let trainer = RlTrainer::new(TrainerConfig::reduced(60).with_seed(seed));
    let outcome = trainer.train(&timelines, &sampler);
    println!(
        "trained: {} episodes, {} env steps, mean return {:.2}",
        outcome.episodes, outcome.total_steps, outcome.mean_episode_return
    );
    let mut agent = outcome.agent;
    agent.compact_for_inference(); // serving only needs the network
    let policy = RlPolicy::new(agent);

    // --- Online: mount the agent in a fleet server and stream the events -------------
    let config = ServeConfig::for_timelines(&timelines, mitigation, seed).with_batch_size(32);
    let mut server = FleetServer::new(config, policy.clone(), sampler.clone())
        .with_shadow_policies(vec![
            Arc::new(AlwaysMitigate) as ShadowPolicy,
            Arc::new(NeverMitigate) as ShadowPolicy,
        ]);

    let stream = merged_fleet_stream(&timelines);
    let events = stream.len();
    let mut decisions = Vec::new();
    let t0 = Instant::now();
    server
        .ingest_all(stream, &mut decisions)
        .expect("merged stream is time-ordered");
    let secs = t0.elapsed().as_secs_f64();

    let report = server.report();
    println!(
        "served: {events} events -> {} decisions in {:.3}s ({:.0} events/sec)",
        decisions.len(),
        secs,
        events as f64 / secs.max(1e-9)
    );
    println!(
        "        {} mitigations ordered, {} UEs accounted, total cost {:.2} node-hours",
        report.mitigations,
        report.ue_count,
        report.total_cost()
    );
    for d in decisions.iter().filter(|d| d.mitigated).take(3) {
        println!(
            "        e.g. mitigate node {} at t={:.1}h",
            d.node.0,
            d.time.0 as f64 / 3600.0
        );
    }

    // --- Parity: the online service must equal the offline evaluator, to the bit -----
    let offline = run_policy(&policy, &timelines, &sampler, mitigation, seed);
    assert_eq!(report.mitigations, offline.mitigations);
    assert_eq!(report.ue_count, offline.ue_count);
    assert_eq!(
        report.mitigation_cost.to_bits(),
        offline.mitigation_cost.to_bits()
    );
    assert_eq!(report.ue_cost.to_bits(), offline.ue_cost.to_bits());
    println!("parity:  served decisions and costs are bit-identical to the offline evaluator");

    // --- Observability: shadow scores and the metrics snapshot -----------------------
    println!("\nshadow scoreboard (counterfactual, same stream):");
    println!(
        "        {:<18} {:>12} {:>10} {:>16}",
        "policy", "mitigations", "UEs", "total node-hours"
    );
    println!(
        "        {:<18} {:>12} {:>10} {:>16.2}   (served)",
        report.policy,
        report.mitigations,
        report.ue_count,
        report.total_cost()
    );
    for score in server.shadow_report() {
        println!(
            "        {:<18} {:>12} {:>10} {:>16.2}",
            score.policy,
            score.mitigations,
            score.ue_count,
            score.total_cost()
        );
    }

    let snapshot = uerl::obs::registry().snapshot();
    println!(
        "\nmetrics snapshot (fingerprint {:#018x}):",
        snapshot.fingerprint()
    );
    println!("{}", snapshot.to_json());
}

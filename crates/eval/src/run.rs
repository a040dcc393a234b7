//! Cost-benefit rollouts: replay one policy over every node timeline of a range.
//!
//! Fairness requirement: every policy must see exactly the same workload. The job
//! sequence assigned to a node is therefore drawn by [`NodeJobSampler::node_sequence`]
//! from a seed that depends only on the evaluation seed and the node id, never on the
//! policy.
//!
//! That same contract is what makes the rollouts embarrassingly parallel: each node's
//! job sequence is fully determined by `(seed, node_id)`, so [`run_policy`] fans the
//! timelines out over rayon and folds the per-node accounts in timeline order — the
//! outcome is bit-identical at any thread count.
//!
//! The totals types live in `uerl_core::session` (the server's shadow report builds
//! the same [`PolicyRun`]) and are re-exported here.

use rayon::prelude::*;
use uerl_core::event_stream::TimelineSet;
use uerl_core::policy::MitigationPolicy;
use uerl_core::session::{CostAccount, NodeSession, Observed, RecordRetention};
use uerl_core::MitigationConfig;
use uerl_jobs::schedule::NodeJobSampler;

pub use uerl_core::session::{Decision, PolicyRun, UeEvent};

/// Evaluate a policy over every timeline in `timelines`: push each timeline through a
/// [`NodeSession`] (fanned out over rayon), then fold the per-node accounts in
/// timeline order, so the run is bit-identical at any thread count.
///
/// The policy's `training_cost_node_hours` is charged once ([`PolicyRun::for_policy`]).
pub fn run_policy<P: MitigationPolicy + Sync + ?Sized>(
    policy: &P,
    timelines: &TimelineSet,
    jobs: &NodeJobSampler,
    config: MitigationConfig,
    seed: u64,
) -> PolicyRun {
    let accounts: Vec<CostAccount> = timelines
        .timelines()
        .par_iter()
        .map(|timeline| {
            let node = timeline.node();
            let (start, end) = (timeline.window_start(), timeline.window_end());
            let sequence = jobs.node_sequence(seed, node, start, end);
            let mut session =
                NodeSession::new(node, start, sequence, config, RecordRetention::Full, 0);
            for event in timeline.events() {
                if let Observed::Request(state) = session.observe(event) {
                    let mitigate = policy.decide(&state);
                    session.apply_decision(state.time, mitigate);
                }
            }
            session.account().clone()
        })
        .collect();

    let mut run = PolicyRun::for_policy(policy);
    for (timeline, account) in timelines.timelines().iter().zip(&accounts) {
        run.add_node(timeline.node(), account);
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use uerl_core::event_stream::TimelineSet;
    use uerl_core::policies::{AlwaysMitigate, NeverMitigate, OraclePolicy};
    use uerl_jobs::{JobLogConfig, JobTraceGenerator};
    use uerl_trace::generator::{SyntheticLogConfig, TraceGenerator};
    use uerl_trace::reduction::preprocess;

    fn inputs(seed: u64) -> (TimelineSet, NodeJobSampler) {
        let log = TraceGenerator::new(SyntheticLogConfig::small(40, 90, seed)).generate();
        let timelines = TimelineSet::from_log(&preprocess(&log));
        let jobs = JobTraceGenerator::new(JobLogConfig::small(64, 30, seed)).generate();
        (timelines, NodeJobSampler::from_log(&jobs))
    }

    #[test]
    fn never_mitigate_has_zero_mitigation_cost_and_full_ue_cost() {
        let (timelines, jobs) = inputs(21);
        let run = run_policy(
            &NeverMitigate,
            &timelines,
            &jobs,
            MitigationConfig::paper_default(),
            7,
        );
        assert_eq!(run.mitigations, 0);
        assert_eq!(run.mitigation_cost, 0.0);
        assert!(run.ue_count > 0);
        assert!(run.ue_cost > 0.0);
        assert_eq!(run.total_cost(), run.ue_cost);
        assert_eq!(run.ue_events.len() as u64, run.ue_count);
    }

    #[test]
    fn always_mitigate_reduces_ue_cost_but_pays_for_every_event() {
        let (timelines, jobs) = inputs(22);
        let config = MitigationConfig::paper_default();
        let never = run_policy(&NeverMitigate, &timelines, &jobs, config, 7);
        let always = run_policy(&AlwaysMitigate, &timelines, &jobs, config, 7);
        assert!(
            always.ue_cost < never.ue_cost,
            "mitigating must reduce the UE cost"
        );
        assert_eq!(
            always.ue_count, never.ue_count,
            "the UEs themselves still happen"
        );
        assert_eq!(
            always.mitigations,
            always.decisions.len() as u64,
            "every decision is a mitigation"
        );
        let expected_cost = always.mitigations as f64 * config.mitigation_cost_node_hours();
        assert!((always.mitigation_cost - expected_cost).abs() < 1e-6);
    }

    #[test]
    fn same_seed_gives_identical_workloads_across_policies() {
        let (timelines, jobs) = inputs(23);
        let config = MitigationConfig::paper_default();
        let a = run_policy(&NeverMitigate, &timelines, &jobs, config, 99);
        let b = run_policy(&NeverMitigate, &timelines, &jobs, config, 99);
        assert_eq!(a, b);
        // The UE events (and their costs) must be identical for any non-mitigating pair
        // of runs with the same seed, because the workload is policy-independent.
        let c = run_policy(&NeverMitigate, &timelines, &jobs, config, 100);
        assert_ne!(
            a.ue_cost, c.ue_cost,
            "a different seed draws different jobs"
        );
    }

    #[test]
    fn oracle_beats_always_mitigate_on_total_cost() {
        let (timelines, jobs) = inputs(24);
        let config = MitigationConfig::paper_default();
        let oracle = OraclePolicy::from_timelines(&timelines);
        let oracle_run = run_policy(&oracle, &timelines, &jobs, config, 7);
        let always = run_policy(&AlwaysMitigate, &timelines, &jobs, config, 7);
        let never = run_policy(&NeverMitigate, &timelines, &jobs, config, 7);
        assert!(oracle_run.total_cost() <= always.total_cost());
        assert!(oracle_run.total_cost() <= never.total_cost());
        assert!(oracle_run.mitigations <= always.mitigations);
    }

    #[test]
    fn training_cost_is_charged_once() {
        struct Costly;
        impl MitigationPolicy for Costly {
            fn name(&self) -> &str {
                "costly"
            }
            fn decide(&self, _: &uerl_core::StateFeatures) -> bool {
                false
            }
            fn training_cost_node_hours(&self) -> f64 {
                5.0
            }
        }
        let (timelines, jobs) = inputs(25);
        let run = run_policy(
            &Costly,
            &timelines,
            &jobs,
            MitigationConfig::paper_default(),
            7,
        );
        assert!((run.mitigation_cost - 5.0).abs() < 1e-12);
    }

    #[test]
    fn merge_accumulates_counts_and_costs() {
        let mut a = PolicyRun::empty("p");
        a.mitigations = 2;
        a.ue_cost = 10.0;
        let mut b = PolicyRun::empty("p");
        b.mitigations = 3;
        b.ue_cost = 5.0;
        b.mitigation_cost = 1.0;
        a.merge(&b);
        assert_eq!(a.mitigations, 5);
        assert!((a.ue_cost - 15.0).abs() < 1e-12);
        assert!((a.total_cost() - 16.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "different policies")]
    fn merging_different_policies_rejected() {
        let mut a = PolicyRun::empty("a");
        a.merge(&PolicyRun::empty("b"));
    }
}

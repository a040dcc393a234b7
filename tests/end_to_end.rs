//! End-to-end integration test: from synthetic log generation through preprocessing,
//! baseline and RL training, to the full cost-benefit evaluation — exercising every crate
//! of the workspace through the `uerl` facade.

use uerl::eval::evaluator::{Evaluator, POLICY_ORDER};
use uerl::eval::scenario::{EvalBudget, ExperimentContext};

#[test]
fn full_pipeline_reproduces_the_papers_cost_ordering() {
    let ctx = ExperimentContext::synthetic_small(32, 75, EvalBudget::tiny(), 2024);
    let result = Evaluator::new().evaluate(&ctx);

    // All eight policies of Section 4.2 are evaluated on every split.
    assert_eq!(result.totals.len(), POLICY_ORDER.len());
    assert_eq!(result.per_split.len(), EvalBudget::tiny().cv_parts);

    let never = result.total_cost_of("Never-mitigate");
    let always = result.total_cost_of("Always-mitigate");
    let sc20 = result.total_cost_of("SC20-RF");
    let rl = result.total_cost_of("RL");
    let oracle = result.total_cost_of("Oracle");

    // Shape assertions that mirror the paper's qualitative findings and hold even with a
    // deliberately tiny training budget:
    assert!(never > 0.0, "doing nothing must lose node-hours");
    assert!(
        oracle <= never && oracle <= always && oracle <= sc20 && oracle <= rl + 1e-9,
        "the Oracle bounds every other policy"
    );
    assert!(
        sc20 <= never.max(always) + 1e-9,
        "a cost-optimal threshold cannot lose to both static baselines"
    );

    // Every policy accounts the same uncorrected errors.
    let ue_counts: Vec<u64> = result.totals.iter().map(|r| r.ue_count).collect();
    assert!(ue_counts.iter().all(|&c| c == ue_counts[0]));
    assert!(ue_counts[0] > 0);

    // Never-mitigate's cost is pure UE cost; Always-mitigate pays per decision.
    let never_run = result.total_for("Never-mitigate").unwrap();
    assert_eq!(never_run.mitigations, 0);
    assert_eq!(never_run.mitigation_cost, 0.0);
    let always_run = result.total_for("Always-mitigate").unwrap();
    assert_eq!(always_run.mitigations, always_run.decisions.len() as u64);
}

#[test]
fn manufacturer_partitions_cover_the_whole_fleet() {
    let ctx = ExperimentContext::synthetic_small(33, 60, EvalBudget::tiny(), 77);
    let mut partition_nodes = 0usize;
    for m in uerl::trace::types::Manufacturer::ALL {
        let sub = ctx.restricted_to_manufacturer(m);
        partition_nodes += sub.error_log.fleet().node_count();
        // Every timeline in the partition belongs to the selected manufacturer.
        for t in sub.timelines.timelines() {
            assert_eq!(sub.error_log.fleet().manufacturer_of(t.node()), Some(m));
        }
    }
    assert_eq!(partition_nodes, ctx.error_log.fleet().node_count());
}

#[test]
fn larger_jobs_increase_unmitigated_cost_roughly_proportionally() {
    let ctx = ExperimentContext::synthetic_small(28, 60, EvalBudget::tiny(), 99);
    let serial = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("serial pool");
    let base = serial.install(|| Evaluator::new().evaluate(&ctx));
    let scaled = serial.install(|| Evaluator::new().with_job_scaling(10.0).evaluate(&ctx));
    let never_base = base.total_cost_of("Never-mitigate");
    let never_scaled = scaled.total_cost_of("Never-mitigate");
    let ratio = never_scaled / never_base;
    assert!(
        ratio > 4.0 && ratio < 25.0,
        "a 10x job-size scaling should scale the unmitigated cost roughly 10x (got {ratio:.1})"
    );
}

//! Table 2: prediction results and classical machine-learning metrics for every
//! approach, plus the three cost-conditioned RL rows (UE cost < 100, 100–1000 and
//! ≥ 1000 node-hours).

use super::common::{collect_states, holdout, train_models_on_prefix};
use crate::evaluator::{Evaluator, POLICY_ORDER};
use crate::metrics::ClassificationMetrics;
use crate::report::{format_table, percent, percent_or_na};
use crate::run::{Decision, PolicyRun, UeEvent};
use crate::scenario::ExperimentContext;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use uerl_core::policy::MitigationPolicy;

/// One row of Table 2.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table2Row {
    /// Approach name (policy name or the RL cost-range label).
    pub approach: String,
    /// Confusion-matrix counts and totals.
    pub metrics: ClassificationMetrics,
}

/// The Table 2 result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table2Result {
    /// All rows, in the paper's order.
    pub rows: Vec<Table2Row>,
}

impl Table2Result {
    /// The row for an approach.
    pub fn row(&self, approach: &str) -> Option<&Table2Row> {
        self.rows.iter().find(|r| r.approach == approach)
    }

    /// Render the table as text.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                let m = &r.metrics;
                vec![
                    r.approach.clone(),
                    m.true_positives.to_string(),
                    m.false_negatives.to_string(),
                    m.false_positives.to_string(),
                    m.true_negatives.to_string(),
                    m.mitigations.to_string(),
                    percent(m.recall()),
                    percent_or_na(m.precision()),
                ]
            })
            .collect();
        format!(
            "Table 2 — classical machine-learning metrics\n{}",
            format_table(
                &[
                    "approach",
                    "TPs",
                    "FNs",
                    "FPs",
                    "TNs",
                    "mitigations",
                    "recall",
                    "precision"
                ],
                &rows
            )
        )
    }
}

/// The six primary approaches of Table 2 (the SC20-RF threshold variants are omitted in
/// the paper's table).
const TABLE2_POLICIES: [&str; 6] = [
    "Never-mitigate",
    "Always-mitigate",
    "SC20-RF",
    "Myopic-RF",
    "RL",
    "Oracle",
];

/// The three cost-conditioned RL rows: `(label, low, high)` in node-hours.
const COST_RANGES: [(&str, f64, f64); 3] = [
    ("RL (UE cost < 100 nh)", 0.0, 100.0),
    ("RL (100 <= UE cost < 1000 nh)", 100.0, 1000.0),
    ("RL (UE cost >= 1000 nh)", 1000.0, 32_000.0),
];

/// Run Table 2.
pub fn run(ctx: &ExperimentContext) -> Table2Result {
    // Rows 1–6: metrics from the full cross-validation evaluation.
    let evaluation = Evaluator::new().evaluate(ctx);
    let mut rows = Vec::new();
    for &policy in POLICY_ORDER.iter() {
        if !TABLE2_POLICIES.contains(&policy) {
            continue;
        }
        let run = evaluation.total_for(policy).expect("policy evaluated");
        let label = if policy == "RL" {
            "RL (MN4 job distribution)".to_string()
        } else {
            policy.to_string()
        };
        rows.push(Table2Row {
            approach: label,
            metrics: ClassificationMetrics::from_run_1day(run),
        });
    }

    // Rows 7–9: the RL agent queried with potential UE costs drawn uniformly from each
    // range, mirroring the paper's "uniformly randomly distributed ranges of UE costs".
    let models = train_models_on_prefix(ctx, 0.75);
    let holdout_tl = holdout(ctx, &models);
    let sampler = ctx.job_sampler(1.0);
    let states = collect_states(&holdout_tl, &sampler, ctx.mitigation, ctx.seed);
    let ue_events: Vec<UeEvent> = holdout_tl
        .timelines()
        .iter()
        .flat_map(|t| {
            t.events()
                .iter()
                .filter(|e| e.fatal)
                .map(|e| UeEvent {
                    node: t.node(),
                    time: e.time,
                    cost: 0.0,
                })
                .collect::<Vec<_>>()
        })
        .collect();

    for (label, low, high) in COST_RANGES {
        let mut rng = StdRng::seed_from_u64(ctx.seed ^ low.to_bits());
        let mut decisions = Vec::with_capacity(states.len());
        for state in &states {
            let mut probe = state.clone();
            probe.potential_ue_cost = rng.gen_range(low..high.max(low + 1.0));
            decisions.push(Decision {
                node: state.node,
                time: state.time,
                mitigated: models.rl.decide(&probe),
            });
        }
        let mitigations = decisions.iter().filter(|d| d.mitigated).count() as u64;
        let run = PolicyRun {
            policy: label.to_string(),
            mitigations,
            non_mitigations: decisions.len() as u64 - mitigations,
            mitigation_cost: 0.0,
            ue_count: ue_events.len() as u64,
            ue_cost: 0.0,
            decisions,
            ue_events: ue_events.clone(),
        };
        rows.push(Table2Row {
            approach: label.to_string(),
            metrics: ClassificationMetrics::from_run_1day(&run),
        });
    }

    Table2Result { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::EvalBudget;

    #[test]
    fn table2_has_all_rows_with_consistent_counts() {
        let ctx = ExperimentContext::synthetic_small(30, 75, EvalBudget::tiny(), 71);
        let result = run(&ctx);
        assert_eq!(result.rows.len(), 6 + 3);
        let never = result.row("Never-mitigate").unwrap();
        assert_eq!(never.metrics.mitigations, 0);
        assert_eq!(never.metrics.recall(), 0.0);
        assert!(never.metrics.precision().is_none());
        let oracle = result.row("Oracle").unwrap();
        if let Some(p) = oracle.metrics.precision() {
            // The Oracle's mitigations all target real UEs; only UEs whose last preceding
            // event falls outside the 1-day classification window can degrade this.
            assert!(p > 0.3, "oracle precision {p}");
        }
        // All approaches saw the same number of UEs in the cross-validated rows.
        let ue_total = never.metrics.true_positives + never.metrics.false_negatives;
        for name in [
            "Always-mitigate",
            "SC20-RF",
            "Myopic-RF",
            "RL (MN4 job distribution)",
        ] {
            let m = &result.row(name).unwrap().metrics;
            assert_eq!(m.true_positives + m.false_negatives, ue_total, "{name}");
        }
        assert!(result.render().contains("Table 2"));
    }

    #[test]
    fn cost_conditioned_rows_are_internally_consistent() {
        let ctx = ExperimentContext::synthetic_small(30, 75, EvalBudget::tiny(), 73);
        let result = run(&ctx);
        // With a realistic training budget the mitigation count grows with the UE-cost
        // range (the paper's 17% -> 93% progression); at the tiny test budget the agent
        // is deliberately under-trained, so here we only check structural consistency of
        // the three cost-conditioned rows.
        for (label, _, _) in COST_RANGES {
            let m = &result.row(label).unwrap().metrics;
            assert_eq!(
                m.true_positives + m.false_positives,
                m.mitigations,
                "{label}: TP+FP must equal the mitigation count"
            );
            assert!(m.mitigations <= m.mitigations + m.non_mitigations);
        }
    }
}

//! Figure 7: job-size sensitivity analysis — total cost (7a) and mitigation cost (7b) as
//! a function of the job-size scaling factor (0.1× to 10×), each factor evaluated with a
//! separately trained model, at the 2 node-minute mitigation cost.

use super::common::CostTable;
use crate::evaluator::Evaluator;
use crate::report::{format_table, node_hours};
use crate::scenario::ExperimentContext;
use rayon::prelude::*;

/// Render both panels as a text table.
pub fn render(table: &CostTable) -> String {
    let rows = table.rows(|run| {
        vec![
            node_hours(run.total_cost()),
            node_hours(run.mitigation_cost),
        ]
    });
    format!(
        "Figure 7 — job-size sensitivity ({})\n{}",
        table.label,
        format_table(
            &[
                "scaling",
                "policy",
                "total cost (nh) [7a]",
                "mitigation cost (nh) [7b]"
            ],
            &rows
        )
    )
}

/// Run Figure 7 over the given scaling factors (the paper uses 0.1, 0.3, 1, 3 and 10).
/// The scaling scenarios are independent, so they fan out in parallel; groups keep the
/// input scaling order.
pub fn run(ctx: &ExperimentContext, scalings: &[f64]) -> CostTable {
    let groups = scalings
        .par_iter()
        .map(|&scaling| {
            let result = Evaluator::new().with_job_scaling(scaling).evaluate(ctx);
            (scaling.to_string(), result.totals)
        })
        .collect();
    CostTable {
        label: ctx.label.clone(),
        groups,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::POLICY_ORDER;
    use crate::scenario::EvalBudget;

    /// The smoke test's `render` output, pinned byte for byte.
    const RENDERED: &str = r"Figure 7 — job-size sensitivity (Synthetic/Small)
| scaling |          policy | total cost (nh) [7a] | mitigation cost (nh) [7b] |
|---------|-----------------|----------------------|---------------------------|
|     0.3 |  Never-mitigate |                876.9 |                     0.000 |
|     0.3 | Always-mitigate |                795.4 |                      22.2 |
|     0.3 |         SC20-RF |                789.5 |                      12.1 |
|     0.3 |      SC20-RF-2% |                789.5 |                      12.1 |
|     0.3 |      SC20-RF-5% |                789.5 |                      12.1 |
|     0.3 |       Myopic-RF |                792.8 |                      19.6 |
|     0.3 |              RL |                831.5 |                     9.134 |
|     0.3 |          Oracle |                773.6 |                     0.433 |
|       3 |  Never-mitigate |                 8963 |                     0.000 |
|       3 | Always-mitigate |                 7911 |                      22.2 |
|       3 |         SC20-RF |                 7909 |                      19.8 |
|       3 |      SC20-RF-2% |                 7909 |                      19.8 |
|       3 |      SC20-RF-5% |                 7909 |                      19.8 |
|       3 |       Myopic-RF |                 7909 |                      19.8 |
|       3 |              RL |                 8406 |                     9.200 |
|       3 |          Oracle |                 7890 |                     0.433 |
";

    #[test]
    fn figure7_total_cost_scales_with_job_size() {
        let ctx = ExperimentContext::synthetic_small(28, 60, EvalBudget::tiny(), 79);
        let table = run(&ctx, &[0.3, 3.0]);
        assert_eq!(table.groups.len(), 2);
        for (_, runs) in &table.groups {
            let policies: Vec<&str> = runs.iter().map(|r| r.policy.as_str()).collect();
            assert_eq!(policies, POLICY_ORDER);
        }
        let never_small = table.run("0.3", "Never-mitigate").unwrap().total_cost();
        let never_large = table.run("3", "Never-mitigate").unwrap().total_cost();
        assert!(
            never_large > 3.0 * never_small,
            "unmitigated cost must grow roughly with the scaling factor ({never_small} -> {never_large})"
        );
        // Static policies have scaling-independent mitigation cost; Never-mitigate's is 0.
        assert_eq!(
            table.run("3", "Never-mitigate").unwrap().mitigation_cost,
            0.0
        );
        let always_small = table.run("0.3", "Always-mitigate").unwrap().mitigation_cost;
        let always_large = table.run("3", "Always-mitigate").unwrap().mitigation_cost;
        assert!((always_small - always_large).abs() < 1e-6);
        assert_eq!(render(&table), RENDERED);
    }
}

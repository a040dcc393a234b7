//! Figure 4: the time-series nested cross-validation results — total cost per
//! four-month split for every policy at the 2 node-minute mitigation cost.

use super::common::CostTable;
use crate::evaluator::{Evaluator, POLICY_ORDER};
use crate::report::{format_table, node_hours};
use crate::scenario::ExperimentContext;

/// Render the figure as a text table (splits as rows, policies as columns).
pub fn render(table: &CostTable) -> String {
    let mut headers = vec!["split"];
    headers.extend(POLICY_ORDER.iter().copied());
    let rows: Vec<Vec<String>> = table
        .groups
        .iter()
        .map(|(split, runs)| {
            let mut row = vec![split.clone()];
            row.extend(runs.iter().map(|run| node_hours(run.total_cost())));
            row
        })
        .collect();
    format!(
        "Figure 4 — per-split total cost, 2 node-minute mitigation ({})\n{}",
        table.label,
        format_table(&headers, &rows)
    )
}

/// Run Figure 4 on a context (which should use the 2 node-minute mitigation cost): one
/// group per split, keyed by its 1-based index.
pub fn run(ctx: &ExperimentContext) -> CostTable {
    let result = Evaluator::new().evaluate(ctx);
    CostTable {
        label: ctx.label.clone(),
        groups: result
            .per_split
            .into_iter()
            .map(|outcome| (outcome.split.index.to_string(), outcome.runs))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::EvalBudget;

    /// The smoke test's `render` output, pinned byte for byte.
    const RENDERED: &str = r"Figure 4 — per-split total cost, 2 node-minute mitigation (Synthetic/Small)
| split | Never-mitigate | Always-mitigate | SC20-RF | SC20-RF-2% | SC20-RF-5% | Myopic-RF |    RL | Oracle |
|-------|----------------|-----------------|---------|------------|------------|-----------|-------|--------|
|     1 |           67.6 |            11.3 |    11.3 |       11.3 |       11.3 |      67.6 |  11.0 |  7.033 |
|     2 |          125.7 |           137.7 |   126.7 |      126.7 |      126.7 |     137.6 | 127.9 |  125.7 |
|     3 |           1250 |            1000 |   999.8 |      999.9 |      999.9 |     999.9 |  1018 |  981.2 |
";

    #[test]
    fn figure4_covers_every_split_and_policy() {
        let ctx = ExperimentContext::synthetic_small(30, 75, EvalBudget::tiny(), 53);
        let table = run(&ctx);
        assert_eq!(table.groups.len(), EvalBudget::tiny().cv_parts);
        for (split, (key, runs)) in table.groups.iter().enumerate() {
            assert_eq!(*key, (split + 1).to_string());
            let policies: Vec<&str> = runs.iter().map(|r| r.policy.as_str()).collect();
            assert_eq!(policies, POLICY_ORDER);
        }
        // Per-split totals add up to a positive overall cost for Never-mitigate.
        let never: f64 = table
            .groups
            .iter()
            .map(|(split, _)| table.run(split, "Never-mitigate").unwrap().total_cost())
            .sum();
        assert!(never > 0.0);
        assert_eq!(render(&table), RENDERED);
    }
}

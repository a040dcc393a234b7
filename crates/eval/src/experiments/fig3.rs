//! Figure 3: total cost (UE cost + mitigation cost) for the whole system, for mitigation
//! costs of 2, 5 and 10 node-minutes, across all eight policies. Also derives the
//! Section 5.1 headline numbers (reduction vs Never-mitigate, distance to the Oracle),
//! plus RL's saving against the SC20-RF baseline.

use super::common::CostTable;
use crate::evaluator::Evaluator;
use crate::report::{format_table, node_hours, percent};
use crate::scenario::ExperimentContext;
use rayon::prelude::*;

/// Section 5.1 headline in the group of mitigation cost `key` ("2" for 2 node-minutes):
/// `(reduction of RL vs Never-mitigate, RL excess over Oracle, RL saving vs SC20-RF)`,
/// all as fractions. The SC20-RF saving is negative when RL costs more.
pub fn headline(table: &CostTable, key: &str) -> Option<(f64, f64, f64)> {
    let total = |policy| table.run(key, policy).map(|run| run.total_cost());
    let never = total("Never-mitigate")?;
    let rl = total("RL")?;
    let oracle = total("Oracle")?;
    let sc20 = total("SC20-RF")?;
    if never <= 0.0 || oracle <= 0.0 || sc20 <= 0.0 {
        return None;
    }
    Some((
        (never - rl) / never,
        (rl - oracle) / oracle,
        (sc20 - rl) / sc20,
    ))
}

/// Render the figure as a text table.
pub fn render(table: &CostTable) -> String {
    let rows = table.rows(|run| {
        vec![
            node_hours(run.ue_cost),
            node_hours(run.mitigation_cost),
            node_hours(run.total_cost()),
        ]
    });
    let mut out = format!("Figure 3 — total cost ({})\n", table.label);
    out.push_str(&format_table(
        &[
            "mit. cost (node-min)",
            "policy",
            "UE cost (nh)",
            "mitigation (nh)",
            "total (nh)",
        ],
        &rows,
    ));
    if let Some((reduction, gap, sc20_saving)) = headline(table, "2") {
        out.push_str(&format!(
            "headline @2 node-min: RL reduces lost compute by {} vs Never-mitigate, {} above Oracle, saves {} vs SC20-RF\n",
            percent(reduction),
            percent(gap),
            percent(sc20_saving)
        ));
    }
    out
}

/// Run Figure 3: evaluate the context at each mitigation cost. The cost scenarios are
/// independent evaluations of the same logs, so they fan out in parallel; groups keep the
/// input cost order.
pub fn run(ctx: &ExperimentContext, mitigation_costs_minutes: &[f64]) -> CostTable {
    let groups = mitigation_costs_minutes
        .par_iter()
        .map(|&cost| {
            let scenario = ctx.with_mitigation_cost_minutes(cost);
            (
                cost.to_string(),
                Evaluator::new().evaluate(&scenario).totals,
            )
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
    const RENDERED: &str = r"Figure 3 — total cost (Synthetic/Small)
| mit. cost (node-min) |          policy | UE cost (nh) | mitigation (nh) | total (nh) |
|----------------------|-----------------|--------------|-----------------|------------|
|                    2 |  Never-mitigate |         2702 |           0.000 |       2702 |
|                    2 | Always-mitigate |         1030 |            38.7 |       1068 |
|                    2 |         SC20-RF |         1030 |            33.9 |       1064 |
|                    2 |      SC20-RF-2% |         1030 |            35.0 |       1065 |
|                    2 |      SC20-RF-5% |         1030 |            36.0 |       1066 |
|                    2 |       Myopic-RF |         1467 |            33.3 |       1500 |
|                    2 |              RL |         2271 |            16.7 |       2288 |
|                    2 |          Oracle |         1030 |           0.367 |       1030 |
headline @2 node-min: RL reduces lost compute by 15.3% vs Never-mitigate, 122.1% above Oracle, saves -115.1% vs SC20-RF
";

    #[test]
    fn figure3_smoke_test_reproduces_the_shape() {
        let ctx = ExperimentContext::synthetic_small(30, 75, EvalBudget::tiny(), 51);
        let table = run(&ctx, &[2.0]);
        assert_eq!(table.groups.len(), 1);
        let policies: Vec<&str> = table.groups[0]
            .1
            .iter()
            .map(|r| r.policy.as_str())
            .collect();
        assert_eq!(policies, POLICY_ORDER);
        let never = table.run("2", "Never-mitigate").unwrap();
        let oracle = table.run("2", "Oracle").unwrap();
        assert_eq!(never.mitigation_cost, 0.0);
        assert!(never.total_cost() > 0.0);
        assert!(oracle.total_cost() <= never.total_cost() + 1e-9);
        assert_eq!(render(&table), RENDERED);
        let (reduction, _gap, sc20_saving) = headline(&table, "2").unwrap();
        assert!((-1.0..=1.0).contains(&reduction));
        let sc20 = table.run("2", "SC20-RF").unwrap().total_cost();
        let rl = table.run("2", "RL").unwrap().total_cost();
        assert_eq!(sc20_saving, (sc20 - rl) / sc20);
    }
}

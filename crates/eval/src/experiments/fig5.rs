//! Figure 5: total cost per DRAM manufacturer — the whole system (MN/All), each
//! anonymised manufacturer evaluated separately (MN/A, MN/B, MN/C), and the sum of the
//! three separately-trained subsystems (MN/ABC).

use super::common::CostTable;
use crate::evaluator::{Evaluator, POLICY_ORDER};
use crate::report::{format_table, node_hours};
use crate::run::PolicyRun;
use crate::scenario::ExperimentContext;
use rayon::prelude::*;
use uerl_trace::types::Manufacturer;

/// Render the figure as a text table.
pub fn render(table: &CostTable) -> String {
    let rows = table.rows(|run| {
        vec![
            node_hours(run.ue_cost),
            node_hours(run.mitigation_cost),
            node_hours(run.total_cost()),
        ]
    });
    format!(
        "Figure 5 — total cost per DRAM manufacturer\n{}",
        format_table(
            &[
                "scenario",
                "policy",
                "UE cost (nh)",
                "mitigation (nh)",
                "total (nh)"
            ],
            &rows
        )
    )
}

/// Run Figure 5: evaluate MN/All plus one scenario per manufacturer, and synthesise
/// MN/ABC as the sum of the three per-manufacturer scenarios. Groups are keyed by the
/// scenario label.
pub fn run(ctx: &ExperimentContext) -> CostTable {
    // The whole-fleet scenario and the per-manufacturer restrictions are independent
    // evaluations; fan them out in parallel, keeping the scenario order.
    let mut scenarios: Vec<ExperimentContext> = vec![ctx.clone()];
    scenarios[0].label = "MN/All".to_string();
    for manufacturer in Manufacturer::ALL {
        let sub_ctx = ctx.restricted_to_manufacturer(manufacturer);
        if !sub_ctx.timelines.is_empty() {
            scenarios.push(sub_ctx);
        }
    }
    let mut groups: Vec<(String, Vec<PolicyRun>)> = scenarios
        .par_iter()
        .map(|scenario| {
            let totals = Evaluator::new().evaluate(scenario).totals;
            (scenario.label.clone(), totals)
        })
        .collect();

    // MN/ABC: every group but MN/All (the first) merged per policy.
    let mut abc: Vec<PolicyRun> = POLICY_ORDER.iter().map(|&p| PolicyRun::empty(p)).collect();
    for (_, runs) in &groups[1..] {
        for (total, run) in abc.iter_mut().zip(runs) {
            total.merge(run);
        }
    }
    groups.push(("MN/ABC".to_string(), abc));

    CostTable {
        label: ctx.label.clone(),
        groups,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::EvalBudget;

    /// The smoke test's `render` output, pinned byte for byte.
    const RENDERED: &str = r"Figure 5 — total cost per DRAM manufacturer
| scenario |          policy | UE cost (nh) | mitigation (nh) | total (nh) |
|----------|-----------------|--------------|-----------------|------------|
|   MN/All |  Never-mitigate |         3697 |           0.000 |       3697 |
|   MN/All | Always-mitigate |         1337 |            46.8 |       1384 |
|   MN/All |         SC20-RF |         1337 |            42.0 |       1379 |
|   MN/All |      SC20-RF-2% |         1337 |            42.0 |       1379 |
|   MN/All |      SC20-RF-5% |         1337 |            42.0 |       1379 |
|   MN/All |       Myopic-RF |         1545 |            21.7 |       1567 |
|   MN/All |              RL |         2020 |            23.8 |       2044 |
|   MN/All |          Oracle |         1337 |           0.367 |       1337 |
|     MN/A |  Never-mitigate |        981.1 |           0.000 |      981.1 |
|     MN/A | Always-mitigate |        772.9 |            13.4 |      786.3 |
|     MN/A |         SC20-RF |        772.9 |           5.400 |      778.3 |
|     MN/A |      SC20-RF-2% |        772.9 |           5.400 |      778.3 |
|     MN/A |      SC20-RF-5% |        772.9 |           5.400 |      778.3 |
|     MN/A |       Myopic-RF |        981.1 |           6.400 |      987.5 |
|     MN/A |              RL |        772.9 |            10.3 |      783.2 |
|     MN/A |          Oracle |        772.9 |           0.133 |      773.1 |
|     MN/B |  Never-mitigate |        299.4 |           0.000 |      299.4 |
|     MN/B | Always-mitigate |         40.4 |            10.8 |       51.3 |
|     MN/B |         SC20-RF |         40.4 |           5.233 |       45.7 |
|     MN/B |      SC20-RF-2% |         40.4 |           5.233 |       45.7 |
|     MN/B |      SC20-RF-5% |         40.4 |           5.233 |       45.7 |
|     MN/B |       Myopic-RF |         40.4 |           6.133 |       46.6 |
|     MN/B |              RL |         40.4 |           6.767 |       47.2 |
|     MN/B |          Oracle |         40.4 |           0.067 |       40.5 |
|     MN/C |  Never-mitigate |         2416 |           0.000 |       2416 |
|     MN/C | Always-mitigate |        523.6 |            22.6 |      546.2 |
|     MN/C |         SC20-RF |        523.6 |           7.600 |      531.2 |
|     MN/C |      SC20-RF-2% |        523.6 |            10.3 |      533.9 |
|     MN/C |      SC20-RF-5% |        523.6 |            10.3 |      533.9 |
|     MN/C |       Myopic-RF |        523.6 |            12.1 |      535.7 |
|     MN/C |              RL |         2416 |           9.234 |       2426 |
|     MN/C |          Oracle |        523.6 |           0.167 |      523.8 |
|   MN/ABC |  Never-mitigate |         3697 |           0.000 |       3697 |
|   MN/ABC | Always-mitigate |         1337 |            46.8 |       1384 |
|   MN/ABC |         SC20-RF |         1337 |            18.2 |       1355 |
|   MN/ABC |      SC20-RF-2% |         1337 |            20.9 |       1358 |
|   MN/ABC |      SC20-RF-5% |         1337 |            20.9 |       1358 |
|   MN/ABC |       Myopic-RF |         1545 |            24.7 |       1570 |
|   MN/ABC |              RL |         3230 |            26.3 |       3256 |
|   MN/ABC |          Oracle |         1337 |           0.367 |       1337 |
";

    #[test]
    fn figure5_produces_all_scenarios_and_sums_abc() {
        let ctx = ExperimentContext::synthetic_small(36, 75, EvalBudget::tiny(), 57);
        let table = run(&ctx);
        for scenario in ["MN/All", "MN/ABC"] {
            assert!(
                table.run(scenario, "Never-mitigate").is_some(),
                "missing scenario {scenario}"
            );
        }
        // MN/ABC is the sum of the per-manufacturer rows.
        let abc = table.run("MN/ABC", "Never-mitigate").unwrap().total_cost();
        let parts: f64 = ["MN/A", "MN/B", "MN/C"]
            .iter()
            .filter_map(|s| table.run(s, "Never-mitigate"))
            .map(PolicyRun::total_cost)
            .sum();
        assert!((abc - parts).abs() < 1e-6);
        assert_eq!(render(&table), RENDERED);
    }
}

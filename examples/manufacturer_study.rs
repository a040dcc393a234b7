//! Manufacturer study: does the method generalise across DRAM vendors?
//!
//! MareNostrum 3 mixed DIMMs from three manufacturers with very different error
//! behaviour; Section 5.3 of the paper trains and evaluates the method separately per
//! manufacturer (MN/A, MN/B, MN/C) and compares against training on the whole system
//! (MN/All) and the sum of the three subsystems (MN/ABC). This example reproduces that
//! experiment on a small synthetic fleet and prints the Figure 5 table.
//!
//! Run with: `cargo run --release --example manufacturer_study`

use uerl::eval::experiments::fig5;
use uerl::eval::scenario::{EvalBudget, ExperimentContext};
use uerl::trace::types::Manufacturer;

fn main() {
    let ctx = ExperimentContext::synthetic_small(48, 120, EvalBudget::tiny(), 13);
    for m in Manufacturer::ALL {
        let sub = ctx.restricted_to_manufacturer(m);
        println!(
            "{}: {} nodes with events, {} effective UEs",
            sub.label,
            sub.timelines.len(),
            sub.timelines.total_fatal()
        );
    }

    let table = fig5::run(&ctx);
    println!("{}", fig5::render(&table));

    // Headline: the RL agent should stay competitive in every partition where the static
    // baselines have room to lose node-hours.
    for scenario in ["MN/All", "MN/A", "MN/B", "MN/C", "MN/ABC"] {
        if let (Some(never), Some(rl)) = (
            table.run(scenario, "Never-mitigate"),
            table.run(scenario, "RL"),
        ) {
            let saved = never.total_cost() - rl.total_cost();
            println!(
                "{scenario}: RL saves {:.0} node-hours relative to Never-mitigate",
                saved
            );
        }
    }
}

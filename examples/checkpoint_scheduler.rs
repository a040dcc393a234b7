//! Checkpoint-scheduler scenario: an HPC operator wants to know whether adaptive
//! mitigation still pays off when the mitigation action is expensive.
//!
//! The paper's primary evaluation assumes a 2 node-minute action (live migration or node
//! cloning); sites that rely on full application checkpoints report 5–10 node-minutes or
//! more. This example sweeps the mitigation cost and prints, for each setting, the total
//! lost node-hours of the static policies, the SC20-RF baseline and the RL agent — the
//! Figure 3 experiment on a small synthetic system.
//!
//! Run with: `cargo run --release --example checkpoint_scheduler`

use uerl::eval::experiments::fig3;
use uerl::eval::scenario::{EvalBudget, ExperimentContext};

fn main() {
    let ctx = ExperimentContext::synthetic_small(50, 120, EvalBudget::tiny(), 11);
    println!(
        "scenario {}: {} nodes with events, {} effective UEs",
        ctx.label,
        ctx.timelines.len(),
        ctx.timelines.total_fatal()
    );

    let table = fig3::run(&ctx, &[2.0, 5.0, 10.0]);
    println!("{}", fig3::render(&table));

    for (cost, _) in &table.groups {
        let total = |policy| table.run(cost, policy).unwrap().total_cost();
        let never = total("Never-mitigate");
        let always = total("Always-mitigate");
        let rl = total("RL");
        let best_static = never.min(always);
        println!(
            "mitigation cost {cost:>4} node-min: RL {} node-hours vs best static {} ({})",
            rl.round(),
            best_static.round(),
            if rl <= best_static {
                "adaptive mitigation wins"
            } else {
                "static policy wins at this training budget"
            }
        );
    }
}

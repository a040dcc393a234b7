//! Shared pieces of the experiment drivers: the [`CostTable`] that Figures 3, 4, 5 and
//! 7 fill from the evaluator's [`PolicyRun`]s, and the helpers for the drivers that need
//! a trained agent outside the cross-validation loop (Figure 6's behaviour map and
//! Table 2's cost-conditioned rows).

use crate::evaluator::{run_rl_search, train_forest};
use crate::run::PolicyRun;
use crate::scenario::ExperimentContext;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use uerl_core::env::MitigationEnv;
use uerl_core::event_stream::TimelineSet;
use uerl_core::policies::{RlPolicy, ThresholdRfPolicy};
use uerl_core::state::StateFeatures;
use uerl_core::MitigationConfig;
use uerl_forest::RandomForest;
use uerl_jobs::schedule::NodeJobSampler;
use uerl_trace::types::SimTime;

/// Each policy's total cost (UE cost plus mitigation cost including training), grouped
/// along the axis a figure varies: the mitigation cost (Figure 3), the cross-validation
/// split (Figure 4), the DRAM manufacturer (Figure 5) or the job-size scaling (Figure 7).
#[derive(Debug, Clone, PartialEq)]
pub struct CostTable {
    /// Scenario label.
    pub label: String,
    /// One `(key, runs)` group per point of the figure's axis, in axis order. The key is
    /// the text the table prints ("2", "1", "MN/A", "0.3"); the runs are in
    /// [`POLICY_ORDER`](crate::evaluator::POLICY_ORDER).
    pub groups: Vec<(String, Vec<PolicyRun>)>,
}

impl CostTable {
    /// The run of `policy` in the group keyed `key`.
    pub fn run(&self, key: &str, policy: &str) -> Option<&PolicyRun> {
        let (_, runs) = self.groups.iter().find(|(k, _)| k == key)?;
        runs.iter().find(|run| run.policy == policy)
    }

    /// One table row per group and policy: the group key, the policy name, then `cells`
    /// of the run.
    pub fn rows(&self, cells: impl Fn(&PolicyRun) -> Vec<String>) -> Vec<Vec<String>> {
        self.groups
            .iter()
            .flat_map(|(key, runs)| runs.iter().map(move |run| (key, run)))
            .map(|(key, run)| {
                let mut row = vec![key.clone(), run.policy.clone()];
                row.extend(cells(run));
                row
            })
            .collect()
    }
}

/// Models trained on the leading fraction of the observation window, plus the boundary.
pub struct TrainedModels {
    /// The SC20-style random forest (the Figure 6 y-axis probability proxy).
    pub forest: RandomForest,
    /// The trained RL policy.
    pub rl: RlPolicy,
    /// End of the training range; the remainder of the window is held out.
    pub train_end: SimTime,
}

impl TrainedModels {
    /// A threshold-free view of the forest for probability queries.
    pub fn rf_probe(&self) -> ThresholdRfPolicy {
        ThresholdRfPolicy::new(self.forest.clone(), 0.5, "RF-probe")
    }
}

/// Train the forest and the RL agent on the first `train_fraction` of the window.
///
/// The RL agent goes through the same two-round random hyperparameter search as the
/// cross-validation protocol (`budget.hyper_initial` broad + `budget.hyper_refined`
/// narrowed candidates, trained in parallel through the same [`run_rl_search`] as the
/// evaluator). Model selection scores candidates on the training prefix itself — the
/// held-out remainder of the window is the figures' evaluation data and must stay
/// unseen — and the whole search, not just the winner, is charged as the policy's
/// training cost.
pub fn train_models_on_prefix(ctx: &ExperimentContext, train_fraction: f64) -> TrainedModels {
    let window = ctx.timelines.window_end() - ctx.timelines.window_start();
    let train_end = ctx
        .timelines
        .window_start()
        .plus_secs((window as f64 * train_fraction.clamp(0.1, 0.95)) as i64);
    let train_tl = ctx.timelines.slice(ctx.timelines.window_start(), train_end);
    let sampler = ctx.job_sampler(1.0);

    // Random forest on the training prefix.
    let (forest, _) = train_forest(ctx, &train_tl, ctx.seed);

    // RL agent on the same prefix, with the full two-round hyperparameter search.
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x0F16);
    let search = run_rl_search(
        &ctx.budget,
        &mut rng,
        &train_tl,
        &train_tl,
        &sampler,
        ctx.mitigation,
        ctx.seed,
    );
    TrainedModels {
        forest,
        rl: search.best.with_training_cost(search.total_cost),
        train_end,
    }
}

/// The held-out timelines (after [`TrainedModels::train_end`]).
pub fn holdout(ctx: &ExperimentContext, models: &TrainedModels) -> TimelineSet {
    ctx.timelines
        .slice(models.train_end, ctx.timelines.window_end())
}

/// Replay the held-out timelines without mitigating and collect every observed state.
/// The per-node replays are independent (seeded by node id only), so they fan out over
/// rayon; results are flattened in timeline order.
pub fn collect_states(
    timelines: &TimelineSet,
    sampler: &NodeJobSampler,
    config: MitigationConfig,
    seed: u64,
) -> Vec<StateFeatures> {
    let per_node: Vec<Vec<StateFeatures>> = timelines
        .timelines()
        .par_iter()
        .map(|timeline| {
            let mut states = Vec::new();
            // Not `NodeJobSampler::node_sequence`: this older `seed ^ node` draw feeds the
            // figure numbers, and switching it would move them.
            let mut rng = StdRng::seed_from_u64(seed ^ u64::from(timeline.node().0));
            let sequence =
                sampler.sample_sequence(timeline.window_start(), timeline.window_end(), &mut rng);
            let mut env = MitigationEnv::new(timeline.clone(), sequence, config, false);
            let mut state = env.reset();
            while let Some(s) = state {
                states.push(s.clone());
                state = env.step(false).next_state;
            }
            states
        })
        .collect();
    per_node.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::run_policy;
    use crate::scenario::EvalBudget;
    use uerl_core::policy::MitigationPolicy;

    #[test]
    fn prefix_training_and_state_collection_work_together() {
        let ctx = ExperimentContext::synthetic_small(30, 75, EvalBudget::tiny(), 61);
        let models = train_models_on_prefix(&ctx, 0.5);
        assert!(models.train_end > ctx.timelines.window_start());
        assert!(models.train_end < ctx.timelines.window_end());
        assert!(models.rl.training_cost_node_hours() > 0.0);

        let holdout_tl = holdout(&ctx, &models);
        let sampler = ctx.job_sampler(1.0);
        let states = collect_states(&holdout_tl, &sampler, ctx.mitigation, ctx.seed);
        assert!(!states.is_empty());
        assert!(states.iter().all(|s| s.time >= models.train_end));

        // The probe and the policy can both evaluate collected states.
        let probe = models.rf_probe();
        let p = probe.probability(&states[0]);
        assert!((0.0..=1.0).contains(&p));
        let run = run_policy(&models.rl, &holdout_tl, &sampler, ctx.mitigation, ctx.seed);
        assert!(run.total_cost() >= 0.0);
        let _ = models.rl.decide(&states[0]);
    }
}

//! Shared helpers for the experiment drivers that need a trained agent outside the
//! cross-validation loop (Figure 6's behaviour map and Table 2's cost-conditioned rows).

use crate::evaluator::run_rl_search;
use crate::run::run_policy;
use crate::scenario::{EvalBudget, ExperimentContext};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use std::sync::{Arc, Mutex};
use uerl_core::env::MitigationEnv;
use uerl_core::event_stream::TimelineSet;
use uerl_core::policies::{RlPolicy, ThresholdRfPolicy};
use uerl_core::rf_dataset::build_rf_dataset_1day;
use uerl_core::state::{StateFeatures, STATE_DIM};
use uerl_core::MitigationConfig;
use uerl_forest::{RandomForest, RandomForestConfig};
use uerl_jobs::schedule::NodeJobSampler;
use uerl_trace::types::SimTime;

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

/// One FNV-1a style mixing step for the content digests below.
fn fnv_mix(hash: u64, value: u64) -> u64 {
    (hash ^ value).wrapping_mul(0x0000_0100_0000_01B3)
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Order-sensitive digest of every event the timelines carry (node, time, severity).
/// O(events), trivially cheap next to the hyper search it guards, and it distinguishes
/// contexts whose logs differ in content but agree on label/seed/shape.
fn timelines_digest(timelines: &TimelineSet) -> u64 {
    let mut hash = FNV_OFFSET;
    for timeline in timelines.timelines() {
        hash = fnv_mix(hash, u64::from(timeline.node().0));
        hash = fnv_mix(hash, timeline.events().len() as u64);
        for event in timeline.events() {
            hash = fnv_mix(hash, event.time.0 as u64);
            hash = fnv_mix(hash, u64::from(event.fatal));
        }
    }
    hash
}

/// Cache key for [`train_models_on_prefix`]: everything the training depends on,
/// fingerprinted — scenario identity (label, seed, budget, mitigation, fraction),
/// window/shape, and content digests of the error timelines and the job log, so
/// hand-built contexts that reuse a label but differ in log content never collide.
#[derive(Debug, Clone, PartialEq)]
struct PrefixKey {
    label: String,
    seed: u64,
    budget: EvalBudget,
    mitigation: MitigationConfig,
    fraction_bits: u64,
    window: (SimTime, SimTime),
    timelines_digest: u64,
    jobs_digest: u64,
}

impl PrefixKey {
    fn new(ctx: &ExperimentContext, train_fraction: f64) -> Self {
        let jobs_digest = fnv_mix(
            fnv_mix(FNV_OFFSET, ctx.job_log.len() as u64),
            ctx.job_log.total_node_hours().to_bits(),
        );
        Self {
            label: ctx.label.clone(),
            seed: ctx.seed,
            budget: ctx.budget,
            mitigation: ctx.mitigation,
            fraction_bits: train_fraction.to_bits(),
            window: (ctx.timelines.window_start(), ctx.timelines.window_end()),
            timelines_digest: timelines_digest(&ctx.timelines),
            jobs_digest,
        }
    }
}

/// At most this many `(ctx, fraction)` entries stay cached (FIFO eviction). Figure runs
/// need exactly one; the bound only guards long-lived processes that sweep scenarios.
const PREFIX_CACHE_CAPACITY: usize = 8;

/// The memoized prefix-trained models. `train_models_on_prefix` is deterministic in its
/// inputs, so sharing one `TrainedModels` per `(ctx, fraction)` is observationally
/// identical to retraining — and fig6 + table2, which both train on the 0.75 prefix,
/// stop paying the full two-round hyper search twice per figure run.
static PREFIX_CACHE: Mutex<Vec<(PrefixKey, Arc<TrainedModels>)>> = Mutex::new(Vec::new());

/// Drop every memoized prefix model. For benchmarks (`perf_report`) that must time the
/// full training cost of each pipeline invocation instead of a cache hit; production
/// callers never need this — the cache is semantically invisible.
pub fn clear_prefix_cache() {
    PREFIX_CACHE.lock().expect("prefix cache poisoned").clear();
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
///
/// Results are memoized per `(ctx, fraction)` fingerprint: the training is a pure
/// function of those inputs, so callers that share a context (fig6 and table2 both
/// train on the 0.75 prefix) share one search instead of re-running it.
pub fn train_models_on_prefix(ctx: &ExperimentContext, train_fraction: f64) -> Arc<TrainedModels> {
    let key = PrefixKey::new(ctx, train_fraction);
    if let Some(hit) = PREFIX_CACHE
        .lock()
        .expect("prefix cache poisoned")
        .iter()
        .find(|(k, _)| *k == key)
    {
        return Arc::clone(&hit.1);
    }
    // Train outside the lock: the search is the dominant cost of a figure run and must
    // not serialize unrelated contexts behind a global mutex. A racing duplicate of the
    // same key computes the identical value; first insert wins below.
    let models = Arc::new(train_models_on_prefix_uncached(ctx, train_fraction));
    let mut cache = PREFIX_CACHE.lock().expect("prefix cache poisoned");
    if let Some(hit) = cache.iter().find(|(k, _)| *k == key) {
        return Arc::clone(&hit.1);
    }
    if cache.len() >= PREFIX_CACHE_CAPACITY {
        cache.remove(0);
    }
    cache.push((key, Arc::clone(&models)));
    models
}

fn train_models_on_prefix_uncached(ctx: &ExperimentContext, train_fraction: f64) -> TrainedModels {
    let window = ctx.timelines.window_end() - ctx.timelines.window_start();
    let train_end = ctx
        .timelines
        .window_start()
        .plus_secs((window as f64 * train_fraction.clamp(0.1, 0.95)) as i64);
    let train_tl = ctx.timelines.slice(ctx.timelines.window_start(), train_end);
    let sampler = ctx.job_sampler(1.0);

    // Random forest on the training prefix.
    let (mut dataset, _) = build_rf_dataset_1day(&train_tl);
    if dataset.is_empty() {
        dataset.push(vec![0.0; STATE_DIM - 1], false);
    }
    let mut rf_config = RandomForestConfig::sc20(STATE_DIM - 1, ctx.seed);
    rf_config.n_trees = ctx.budget.rf_trees.max(1);
    if dataset.positives() == 0 {
        rf_config.undersample_ratio = None;
    }
    let forest = RandomForest::fit(&dataset, &rf_config);

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

/// Convenience: the total cost a trained RL policy achieves on the held-out data (used by
/// tests to sanity-check the helpers).
pub fn holdout_cost(ctx: &ExperimentContext, models: &TrainedModels) -> f64 {
    let holdout_tl = holdout(ctx, models);
    let sampler = ctx.job_sampler(1.0);
    run_policy(&models.rl, &holdout_tl, &sampler, ctx.mitigation, ctx.seed).total_cost()
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let cost = holdout_cost(&ctx, &models);
        assert!(cost >= 0.0);
        let _ = models.rl.decide(&states[0]);
    }

    #[test]
    fn prefix_training_is_memoized_per_context_and_fraction() {
        let ctx = ExperimentContext::synthetic_small(20, 60, EvalBudget::tiny(), 62);
        let first = train_models_on_prefix(&ctx, 0.75);
        let second = train_models_on_prefix(&ctx, 0.75);
        assert!(
            Arc::ptr_eq(&first, &second),
            "same (ctx, fraction) must share one trained instance"
        );
        // A different fraction — or a different context — is a different cache entry.
        let other_fraction = train_models_on_prefix(&ctx, 0.5);
        assert!(!Arc::ptr_eq(&first, &other_fraction));
        assert!(other_fraction.train_end < first.train_end);
        let other_ctx = ExperimentContext::synthetic_small(20, 60, EvalBudget::tiny(), 63);
        let other = train_models_on_prefix(&other_ctx, 0.75);
        assert!(!Arc::ptr_eq(&first, &other));
    }
}

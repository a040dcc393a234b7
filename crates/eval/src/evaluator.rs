//! The full evaluation protocol: per cross-validation split, train the baselines and the
//! RL agent on the data preceding the test part, then evaluate every policy on the test
//! part and accumulate the cost-benefit results.

use crate::run::{run_policy, PolicyRun};
use crate::scenario::{EvalBudget, ExperimentContext};
use crate::splits::{nested_splits, SplitSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use std::sync::Arc;
use uerl_core::event_stream::TimelineSet;
use uerl_core::policies::{
    AlwaysMitigate, MyopicRfPolicy, NeverMitigate, OraclePolicy, RlPolicy, ThresholdRfPolicy,
};
use uerl_core::policy::MitigationPolicy;
use uerl_core::rf_dataset::build_rf_dataset_1day;
use uerl_core::state::STATE_DIM;
use uerl_core::trainer::{step_cost_node_hours, RlTrainer, TrainerConfig, TrainingSession};
use uerl_core::MitigationConfig;
use uerl_forest::{
    optimal_threshold, perturb_threshold, Dataset, RandomForest, RandomForestConfig,
};
use uerl_jobs::schedule::NodeJobSampler;
use uerl_rl::{better_score, AgentConfig, HyperParams, HyperSearch, SearchOutcome, Trainable};

/// The canonical policy ordering used in every figure and table.
pub const POLICY_ORDER: [&str; 8] = [
    "Never-mitigate",
    "Always-mitigate",
    "SC20-RF",
    "SC20-RF-2%",
    "SC20-RF-5%",
    "Myopic-RF",
    "RL",
    "Oracle",
];

/// The per-split outcome: one [`PolicyRun`] per policy, in [`POLICY_ORDER`].
#[derive(Debug, Clone, PartialEq)]
pub struct SplitOutcome {
    /// The split that was evaluated.
    pub split: SplitSpec,
    /// One run per policy, in [`POLICY_ORDER`].
    pub runs: Vec<PolicyRun>,
}

/// The complete evaluation result.
#[derive(Debug, Clone, PartialEq)]
pub struct EvaluationResult {
    /// Scenario label (e.g. "MN/All").
    pub label: String,
    /// Per-split outcomes in split order.
    pub per_split: Vec<SplitOutcome>,
    /// Per-policy runs merged across all splits, in [`POLICY_ORDER`].
    pub totals: Vec<PolicyRun>,
}

impl EvaluationResult {
    /// The accumulated run of a policy.
    pub fn total_for(&self, policy: &str) -> Option<&PolicyRun> {
        self.totals.iter().find(|r| r.policy == policy)
    }

    /// Total cost (node-hours) of a policy, or infinity if it was not evaluated.
    pub fn total_cost_of(&self, policy: &str) -> f64 {
        self.total_for(policy)
            .map_or(f64::INFINITY, PolicyRun::total_cost)
    }
}

/// The evaluation driver.
#[derive(Debug, Clone, Copy)]
pub struct Evaluator {
    /// Job-size scaling factor applied to the workload (Figure 7). 1.0 = as logged.
    pub job_scaling: f64,
}

impl Default for Evaluator {
    fn default() -> Self {
        Self { job_scaling: 1.0 }
    }
}

impl Evaluator {
    /// An evaluator with the default (unscaled) settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the job-size scaling factor.
    ///
    /// # Panics
    /// Panics if the factor is not strictly positive and finite.
    pub fn with_job_scaling(mut self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "scaling factor must be positive"
        );
        self.job_scaling = factor;
        self
    }

    /// Run the full protocol on a context.
    pub fn evaluate(&self, ctx: &ExperimentContext) -> EvaluationResult {
        let sampler = ctx.job_sampler(self.job_scaling);
        let splits = nested_splits(
            ctx.timelines.window_start(),
            ctx.timelines.window_end(),
            ctx.budget.cv_parts,
        );

        // Each split is independent and every per-split seed derives only from
        // (ctx.seed, split index), so the fan-out preserves split order and is
        // bit-identical at any thread count (`ThreadPool::install(1)` runs it serially).
        let outcomes: Vec<SplitOutcome> = splits
            .par_iter()
            .map(|spec| evaluate_split(ctx, &sampler, *spec))
            .collect();

        // Merge per-policy totals across splits.
        let mut totals: Vec<PolicyRun> =
            POLICY_ORDER.iter().map(|&p| PolicyRun::empty(p)).collect();
        for outcome in &outcomes {
            for (total, run) in totals.iter_mut().zip(&outcome.runs) {
                total.merge(run);
            }
        }

        EvaluationResult {
            label: ctx.label.clone(),
            per_split: outcomes,
            totals,
        }
    }
}

/// Evaluate every policy on one cross-validation split.
fn evaluate_split(
    ctx: &ExperimentContext,
    sampler: &NodeJobSampler,
    spec: SplitSpec,
) -> SplitOutcome {
    let config = ctx.mitigation;
    let seed = ctx.seed ^ (spec.index as u64).wrapping_mul(0xA5A5_5A5A);
    let train_tl = ctx.timelines.slice(spec.train.0, spec.train.1);
    let validate_tl = ctx.timelines.slice(spec.validate.0, spec.validate.1);
    let test_tl = ctx.timelines.slice(spec.test.0, spec.test.1);
    let train_val_tl = ctx.timelines.slice(spec.train.0, spec.validate.1);

    if test_tl.is_empty() {
        return SplitOutcome {
            split: spec,
            runs: POLICY_ORDER.iter().map(|&p| PolicyRun::empty(p)).collect(),
        };
    }

    // --- Baselines + RL --------------------------------------------------------------
    let (forest, train_val_data) = train_forest(ctx, &train_val_tl, seed);
    let forest = Arc::new(forest);

    // The two expensive split stages — the SC20-RF threshold selection and the RL
    // hyperparameter search — are independent, so they run as the two branches of a
    // `rayon::join`. They share one thread budget: whichever branch finishes first hands
    // its core to the nested fan-outs of the other. Each branch is deterministic on its
    // own, so the overlap cannot change results.
    let ((best_threshold, sc20_run), rl_run) = rayon::join(
        || {
            // SC20-RF with its cost-optimal threshold ("maximum advantage"; the cost of
            // finding this threshold is not charged, exactly as in the paper). Besides
            // the uniform grid, the candidate set includes a data-driven threshold
            // swept from the forest's own training-period probabilities via the
            // incremental confusion-matrix optimiser.
            let data_driven = data_driven_threshold(
                &forest,
                &train_val_data,
                &train_val_tl,
                sampler,
                config,
                seed,
            );
            select_optimal_threshold(ctx, &forest, data_driven, &test_tl, sampler, config, seed)
        },
        || {
            let rl_policy = train_rl_agent(ctx, &train_tl, &validate_tl, sampler, config, seed);
            run_policy(&rl_policy, &test_tl, sampler, config, seed)
        },
    );

    // --- Everything else: per-policy fan-out ------------------------------------------
    // The six remaining policies are immutable once constructed, so their replays fan
    // out in parallel; each replay further parallelises over node timelines.
    let oracle = OraclePolicy::from_timelines(&test_tl);
    let sc20_2_policy = ThresholdRfPolicy::shared(
        Arc::clone(&forest),
        perturb_threshold(best_threshold, 0.02),
        "SC20-RF-2%",
    );
    let sc20_5_policy = ThresholdRfPolicy::shared(
        Arc::clone(&forest),
        perturb_threshold(best_threshold, 0.05),
        "SC20-RF-5%",
    );
    let myopic = MyopicRfPolicy::new(
        Arc::unwrap_or_clone(forest),
        config.mitigation_cost_node_hours(),
    );
    let policies: Vec<&(dyn MitigationPolicy + Sync)> = vec![
        &NeverMitigate,
        &AlwaysMitigate,
        &sc20_2_policy,
        &sc20_5_policy,
        &myopic,
        &oracle,
    ];
    let mut fanned: Vec<PolicyRun> = policies
        .into_par_iter()
        .map(|policy| run_policy(policy, &test_tl, sampler, config, seed))
        .collect();
    let oracle_run = fanned.pop().expect("six fanned runs");
    let myopic_run = fanned.pop().expect("five fanned runs");
    let sc20_5 = fanned.pop().expect("four fanned runs");
    let sc20_2 = fanned.pop().expect("three fanned runs");
    let always_run = fanned.pop().expect("two fanned runs");
    let never_run = fanned.pop().expect("one fanned run");

    SplitOutcome {
        split: spec,
        runs: vec![
            never_run, always_run, sc20_run, sc20_2, sc20_5, myopic_run, rl_run, oracle_run,
        ],
    }
}

/// Train the SC20-RF random forest on the training + validation data of a split,
/// returning the forest together with the supervised dataset it was fitted on (the
/// threshold selection reuses the dataset for its data-driven candidate).
pub(crate) fn train_forest(
    ctx: &ExperimentContext,
    train_val: &TimelineSet,
    seed: u64,
) -> (RandomForest, Dataset) {
    let (mut dataset, _) = build_rf_dataset_1day(train_val);
    if dataset.is_empty() {
        // Degenerate split (no events before the test part): a forest that always
        // predicts "no UE".
        dataset.push(vec![0.0; STATE_DIM - 1], false);
    }
    let mut rf_config = RandomForestConfig::sc20(STATE_DIM - 1, seed);
    rf_config.n_trees = ctx.budget.rf_trees.max(1);
    if dataset.positives() == 0 {
        // Under-sampling needs at least one positive; fall back to plain bagging.
        rf_config.undersample_ratio = None;
    }
    let forest = RandomForest::fit(&dataset, &rf_config);
    (forest, dataset)
}

/// A data-driven threshold candidate for the SC20-RF scan: sweep every distinct
/// training-period probability with [`optimal_threshold`]'s incrementally updated
/// confusion matrix, scoring `FP · mitigation cost + FN · mean UE cost` — `O(n log n)`
/// over the training samples instead of one full fleet replay per candidate. The mean
/// UE cost comes from a single policy-independent (Never-mitigate) replay of the
/// training window.
fn data_driven_threshold(
    forest: &RandomForest,
    train_val_data: &Dataset,
    train_val_tl: &TimelineSet,
    sampler: &NodeJobSampler,
    config: MitigationConfig,
    seed: u64,
) -> Option<f64> {
    if train_val_data.is_empty() || train_val_data.positives() == 0 || train_val_tl.is_empty() {
        return None;
    }
    let baseline = run_policy(&NeverMitigate, train_val_tl, sampler, config, seed);
    if baseline.ue_count == 0 {
        return None;
    }
    let mean_ue_cost = baseline.ue_cost / baseline.ue_count as f64;
    let mitigation_cost = config.mitigation_cost_node_hours();
    let probabilities: Vec<f64> = (0..train_val_data.len())
        .into_par_iter()
        .map(|i| forest.predict_proba(train_val_data.features_of(i)))
        .collect();
    let (threshold, _) = optimal_threshold(&probabilities, train_val_data.labels(), |c| {
        c.false_positives as f64 * mitigation_cost + c.false_negatives as f64 * mean_ue_cost
    });
    Some(threshold)
}

/// Scan the threshold candidates — a uniform grid plus the optional data-driven
/// candidate — and return the cost-optimal threshold together with its run. Every
/// candidate replays the same policy-independent workload, so the scan fans out in
/// parallel; the argmin is reduced in candidate order (grid first), keeping ties
/// deterministic.
fn select_optimal_threshold(
    ctx: &ExperimentContext,
    forest: &Arc<RandomForest>,
    data_driven: Option<f64>,
    test_tl: &TimelineSet,
    sampler: &NodeJobSampler,
    config: MitigationConfig,
    seed: u64,
) -> (f64, PolicyRun) {
    let grid = ctx.budget.threshold_grid.max(2);
    let mut thresholds: Vec<f64> = (0..grid).map(|i| i as f64 / (grid - 1) as f64).collect();
    if let Some(extra) = data_driven {
        if thresholds.iter().all(|&t| (t - extra).abs() > 1e-12) {
            thresholds.push(extra);
        }
    }
    let candidates: Vec<(f64, PolicyRun)> = thresholds
        .into_par_iter()
        .map(|threshold| {
            let policy = ThresholdRfPolicy::shared(Arc::clone(forest), threshold, "SC20-RF");
            let run = run_policy(&policy, test_tl, sampler, config, seed);
            (threshold, run)
        })
        .collect();
    let mut best: Option<(f64, PolicyRun)> = None;
    for (threshold, run) in candidates {
        // Lower cost wins, but through the NaN-safe reduction (negated, since
        // `better_score` prefers higher): a non-finite cost must never become the
        // incumbent — the old `run.total_cost() < b.total_cost()` let a NaN first
        // candidate win unconditionally, because every later `<` against NaN is false.
        let better = best
            .as_ref()
            .map(|(_, b)| better_score(-run.total_cost(), -b.total_cost()))
            .unwrap_or(true);
        if better {
            best = Some((threshold, run));
        }
    }
    best.expect("grid has at least two thresholds")
}

/// Train the RL agent for one split: random hyperparameter search on the training data,
/// model selection on the validation data (or the training data if the validation range
/// has no UEs, as in the paper), best agent kept. The whole search — every candidate
/// trained, not just the winner — is charged as the policy's training cost, using the
/// deterministic step-based cost model so results are identical across runs and thread
/// counts.
fn train_rl_agent(
    ctx: &ExperimentContext,
    train_tl: &TimelineSet,
    validate_tl: &TimelineSet,
    sampler: &NodeJobSampler,
    config: MitigationConfig,
    seed: u64,
) -> RlPolicy {
    let search = rl_hyper_search(ctx, train_tl, validate_tl, sampler, config, seed);
    search.best.with_training_cost(search.total_cost)
}

/// The split-level hyperparameter search behind `train_rl_agent`, exposed with its
/// full candidate and rung traces for the cost-accounting and determinism tests.
///
/// Candidate parameters and per-candidate trainer seeds are pre-drawn by the two-round
/// driver, so the candidates of a round train and score in parallel while the outcome
/// stays bit-identical at any thread count. Candidates train rung by rung through
/// resumable sessions and losers stop early; the deterministic step-count cost model
/// charges only the steps actually trained.
pub fn rl_hyper_search(
    ctx: &ExperimentContext,
    train_tl: &TimelineSet,
    validate_tl: &TimelineSet,
    sampler: &NodeJobSampler,
    config: MitigationConfig,
    seed: u64,
) -> SearchOutcome<RlPolicy> {
    // Model selection set: validation if it contains UEs, training otherwise.
    let selection_tl = if validate_tl.total_fatal() > 0 {
        validate_tl
    } else {
        train_tl
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD1CE);
    run_rl_search(
        &ctx.budget,
        &mut rng,
        train_tl,
        selection_tl,
        sampler,
        config,
        seed,
    )
}

/// The search every RL call site (the evaluator's per-split stage and the figure
/// pipelines' prefix training) goes through: [`HyperSearch::run`] over
/// [`dqn_candidate_session_factory`] candidates, with rung 0 scaled by
/// [`estimated_full_steps`].
pub fn run_rl_search(
    budget: &EvalBudget,
    rng: &mut StdRng,
    train_tl: &TimelineSet,
    selection_tl: &TimelineSet,
    sampler: &NodeJobSampler,
    config: MitigationConfig,
    seed: u64,
) -> SearchOutcome<RlPolicy> {
    HyperSearch::reduced(budget.hyper_initial, budget.hyper_refined).run(
        rng,
        estimated_full_steps(train_tl, budget.rl_episodes),
        dqn_candidate_session_factory(
            train_tl,
            selection_tl,
            sampler,
            config,
            seed,
            budget.rl_episodes,
        ),
    )
}

/// Deterministic estimate of a full training run's environment steps, used to scale
/// **rung 0** of the halving schedule: the expected episode length under uniform node
/// sampling is the mean number of events per timeline, so `episodes × mean events per
/// timeline` approximates the steps a full run would take. Only rung 0 depends on it —
/// from rung 1 on, the driver recalibrates the schedule from the step counts the rung-0
/// candidates actually trained ([`Trainable::trained_units`]), which tracks realised
/// episode lengths on skewed fleets; the final rung always trains to the full episode
/// budget regardless. The estimate is a pure function of the training data, so the
/// schedule is identical across runs and thread counts.
pub fn estimated_full_steps(train_tl: &TimelineSet, episodes: usize) -> u64 {
    let timelines = train_tl.timelines();
    let mean_events = if timelines.is_empty() {
        1
    } else {
        let total: usize = timelines.iter().map(|t| t.events().len()).sum();
        (total / timelines.len()).max(1)
    };
    episodes.max(1) as u64 * mean_events as u64
}

/// One live successive-halving candidate: a resumable DQN training session plus the
/// data needed to score it at each rung and finish it into a policy.
///
/// `train_to` budgets are cumulative environment-step targets (`u64::MAX` = the full
/// episode budget); each increment is charged through the deterministic step-count cost
/// model, so the search bills exactly the steps actually trained. Scoring replays the
/// live [`uerl_rl::DqnAgent`] itself as the greedy policy — no clone, no compaction —
/// and the final artifact is compacted: the filled replay buffer dominates an agent's
/// footprint and inference never reads it.
pub struct DqnCandidateSession<'a> {
    session: TrainingSession,
    train_tl: &'a TimelineSet,
    selection_tl: &'a TimelineSet,
    sampler: &'a NodeJobSampler,
    config: MitigationConfig,
    seed: u64,
}

impl Trainable for DqnCandidateSession<'_> {
    type Artifact = RlPolicy;

    fn train_to(&mut self, budget: u64) -> f64 {
        let added = self
            .session
            .train_until_steps(self.train_tl, self.sampler, budget);
        step_cost_node_hours(added)
    }

    fn trained_units(&self) -> u64 {
        self.session.total_steps()
    }

    fn score(&self) -> f64 {
        if self.selection_tl.is_empty() {
            0.0
        } else {
            -run_policy(
                self.session.agent(),
                self.selection_tl,
                self.sampler,
                self.config,
                self.seed,
            )
            .total_cost()
        }
    }

    fn into_artifact(self) -> RlPolicy {
        let mut agent = self.session.into_outcome().agent;
        agent.compact_for_inference();
        RlPolicy::new(agent)
    }
}

/// The candidate factory every hyper-search call site feeds to [`HyperSearch::run`]: a
/// resumable DQN training session with the candidate's hyperparameters (trainer seed
/// mixed as `seed ^ seed_draw`), scored as the negated total cost of a replay on
/// `selection_tl` and charged the deterministic step-based training cost. Centralised
/// so the evaluator, the figure pipelines and the benchmarks cannot drift apart in
/// seed-mixing or scoring semantics.
pub fn dqn_candidate_session_factory<'a>(
    train_tl: &'a TimelineSet,
    selection_tl: &'a TimelineSet,
    sampler: &'a NodeJobSampler,
    config: MitigationConfig,
    seed: u64,
    episodes: usize,
) -> impl Fn(&HyperParams, u64) -> DqnCandidateSession<'a> + Sync + 'a {
    let base_agent = AgentConfig::small(STATE_DIM);
    move |params, seed_draw| {
        let trainer_config = TrainerConfig {
            episodes: episodes.max(1),
            agent: params.apply_to(&base_agent).with_seed(seed),
            mitigation: config,
            seed: seed ^ seed_draw,
        };
        DqnCandidateSession {
            session: RlTrainer::new(trainer_config).session(),
            train_tl,
            selection_tl,
            sampler,
            config,
            seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ClassificationMetrics;
    use crate::scenario::EvalBudget;

    fn small_result() -> EvaluationResult {
        let ctx = ExperimentContext::synthetic_small(35, 90, EvalBudget::tiny(), 41);
        Evaluator::new().evaluate(&ctx)
    }

    #[test]
    fn full_protocol_produces_all_policies_and_splits() {
        let result = small_result();
        assert_eq!(result.per_split.len(), EvalBudget::tiny().cv_parts);
        assert_eq!(result.totals.len(), POLICY_ORDER.len());
        for (run, &name) in result.totals.iter().zip(POLICY_ORDER.iter()) {
            assert_eq!(run.policy, name);
        }
        // Every policy saw the same UEs (workload and log are policy-independent).
        let never = result.total_for("Never-mitigate").unwrap();
        let always = result.total_for("Always-mitigate").unwrap();
        assert_eq!(never.ue_count, always.ue_count);
        assert!(
            never.ue_count > 0,
            "the synthetic test data must contain UEs"
        );
    }

    #[test]
    fn cost_orderings_match_the_paper_shape() {
        let result = small_result();
        let never = result.total_cost_of("Never-mitigate");
        let always = result.total_cost_of("Always-mitigate");
        let oracle = result.total_cost_of("Oracle");
        let sc20 = result.total_cost_of("SC20-RF");
        // The Oracle is the cheapest policy; Never-mitigate pays the full UE bill.
        assert!(oracle <= always + 1e-9);
        assert!(oracle <= never + 1e-9);
        assert!(oracle <= sc20 + 1e-9);
        // SC20-RF with the cost-optimal threshold can never lose to both static policies
        // simultaneously (the grid contains threshold 0 ≈ Always and 1 ≈ Never).
        assert!(sc20 <= never.max(always) + 1e-9);
        // Perturbed thresholds are at best as good as the optimal one.
        assert!(result.total_cost_of("SC20-RF-2%") + 1e-9 >= sc20);
        assert!(result.total_cost_of("SC20-RF-5%") + 1e-9 >= sc20);
    }

    #[test]
    fn metrics_are_available_for_every_policy() {
        let result = small_result();
        let metrics_of =
            |name: &str| ClassificationMetrics::from_run_1day(result.total_for(name).unwrap());
        for &name in POLICY_ORDER.iter() {
            let m = metrics_of(name);
            assert_eq!(
                m.true_positives + m.false_negatives,
                result.total_for(name).unwrap().ue_count,
                "TP+FN must equal the number of UEs for {name}"
            );
        }
        // The Oracle performs the fewest mitigations needed to cover the predictable UEs,
        // so its precision is the best among all policies that mitigate at all. (It can
        // fall short of 100% only when the last event before a UE lies outside the 1-day
        // classification window, which the cost-benefit analysis does not penalise.)
        let oracle = metrics_of("Oracle");
        if let Some(oracle_precision) = oracle.precision() {
            for &name in POLICY_ORDER.iter() {
                if let Some(p) = metrics_of(name).precision() {
                    assert!(
                        oracle_precision + 1e-9 >= p,
                        "oracle precision {oracle_precision} below {name}'s {p}"
                    );
                }
            }
        }
        // Never-mitigate has undefined precision.
        assert!(metrics_of("Never-mitigate").precision().is_none());
    }

    /// A context split into train/validate parts for direct search-level tests.
    fn search_fixture(
        budget: EvalBudget,
        ctx_seed: u64,
    ) -> (ExperimentContext, TimelineSet, TimelineSet) {
        let ctx = ExperimentContext::synthetic_small(20, 60, budget, ctx_seed);
        let window = ctx.timelines.window_end() - ctx.timelines.window_start();
        let mid = ctx
            .timelines
            .window_start()
            .plus_secs((window as f64 * 0.7) as i64);
        let train_tl = ctx.timelines.slice(ctx.timelines.window_start(), mid);
        let validate_tl = ctx.timelines.slice(mid, ctx.timelines.window_end());
        (ctx, train_tl, validate_tl)
    }

    /// The halving budget used by the halving-specific tests below: enough candidates
    /// for several rungs, tiny training.
    fn halving_budget() -> EvalBudget {
        EvalBudget {
            rl_episodes: 8,
            hyper_initial: 5,
            hyper_refined: 3,
            rf_trees: 4,
            cv_parts: 3,
            threshold_grid: 4,
        }
    }

    #[test]
    fn halving_search_charges_the_in_order_sum_of_steps_actually_trained() {
        let (ctx, train_tl, validate_tl) = search_fixture(halving_budget(), 72);
        let sampler = ctx.job_sampler(1.0);
        let seed = 4321u64;
        let search = rl_hyper_search(
            &ctx,
            &train_tl,
            &validate_tl,
            &sampler,
            ctx.mitigation,
            seed,
        );
        assert!(!search.rungs.is_empty());
        let outcome = &search;
        assert_eq!(
            outcome.candidates.len(),
            ctx.budget.hyper_initial + ctx.budget.hyper_refined
        );

        // Reconstruct every candidate's training straight from its recorded params and
        // pre-drawn trainer seed, replaying the rung targets it actually saw; the
        // charged total cost must be the rung-major, candidate-order sum of the
        // per-increment step costs — to the bit.
        let base_agent = AgentConfig::small(STATE_DIM);
        let mut sessions: Vec<TrainingSession> = outcome
            .candidates
            .iter()
            .map(|c| {
                let trainer_config = TrainerConfig {
                    episodes: ctx.budget.rl_episodes,
                    agent: c.params.apply_to(&base_agent).with_seed(seed),
                    mitigation: ctx.mitigation,
                    seed: seed ^ c.trainer_seed,
                };
                RlTrainer::new(trainer_config).session()
            })
            .collect();
        let mut expected_total = 0.0f64;
        let mut per_candidate = vec![0.0f64; outcome.candidates.len()];
        for rung in &search.rungs {
            for (&candidate, &recorded_cost) in rung.survivors.iter().zip(&rung.costs) {
                let added = sessions[candidate].train_until_steps(&train_tl, &sampler, rung.budget);
                let cost = step_cost_node_hours(added);
                assert_eq!(
                    cost.to_bits(),
                    recorded_cost.to_bits(),
                    "rung {} cost of candidate {candidate} not reproducible",
                    rung.rung
                );
                expected_total += cost;
                per_candidate[candidate] += cost;
            }
        }
        assert_eq!(
            outcome.total_cost.to_bits(),
            expected_total.to_bits(),
            "charged cost must equal the in-order sum of steps actually trained"
        );
        for (candidate, cost) in outcome.candidates.iter().zip(per_candidate) {
            assert_eq!(candidate.cost.to_bits(), cost.to_bits());
        }

        // And the winner's resumed training is bit-equal to having trained it straight
        // through to the same final step count.
        let winner = &sessions[outcome.best_index];
        let probe = vec![0.1; STATE_DIM];
        for (a, b) in winner
            .agent()
            .q_values(&probe)
            .iter()
            .zip(outcome.best.agent().q_values(&probe))
        {
            assert_eq!(a.to_bits(), b.to_bits(), "winner network diverged");
        }

        // `train_rl_agent` charges exactly the halving search cost to the policy.
        let policy = train_rl_agent(
            &ctx,
            &train_tl,
            &validate_tl,
            &sampler,
            ctx.mitigation,
            seed,
        );
        assert_eq!(
            policy.training_cost_node_hours().to_bits(),
            outcome.total_cost.to_bits()
        );
    }

    #[test]
    fn halving_trains_strictly_fewer_steps_than_exhaustive() {
        let (ctx, train_tl, validate_tl) = search_fixture(halving_budget(), 73);
        let sampler = ctx.job_sampler(1.0);
        let seed = 99u64;
        let halving = rl_hyper_search(
            &ctx,
            &train_tl,
            &validate_tl,
            &sampler,
            ctx.mitigation,
            seed,
        );
        // The exhaustive reference: every recorded candidate trained to completion
        // through the same factory, costs summed in candidate order.
        let factory = dqn_candidate_session_factory(
            &train_tl,
            &validate_tl,
            &sampler,
            ctx.mitigation,
            seed,
            ctx.budget.rl_episodes,
        );
        let exhaustive_cost = halving.candidates.iter().fold(0.0f64, |sum, c| {
            sum + factory(&c.params, c.trainer_seed).train_to(u64::MAX)
        });
        assert!(
            halving.total_cost < exhaustive_cost,
            "halving ({}) must train strictly fewer steps than exhaustive ({})",
            halving.total_cost,
            exhaustive_cost
        );
        assert!(halving.total_cost > 0.0);
    }

    fn serial<R: Send>(f: impl FnOnce() -> R + Send) -> R {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(1).build();
        pool.expect("serial pool").install(f)
    }

    #[test]
    fn sequential_and_parallel_evaluation_agree() {
        let ctx = ExperimentContext::synthetic_small(25, 60, EvalBudget::tiny(), 43);
        let par = Evaluator::new().evaluate(&ctx);
        let seq = serial(|| Evaluator::new().evaluate(&ctx));
        for (a, b) in par.totals.iter().zip(&seq.totals) {
            assert_eq!(a.policy, b.policy);
            assert_eq!(a.ue_count, b.ue_count);
            assert_eq!(a.mitigations, b.mitigations);
            assert!((a.ue_cost - b.ue_cost).abs() < 1e-9);
        }
    }

    #[test]
    fn job_scaling_raises_unmitigated_costs() {
        let ctx = ExperimentContext::synthetic_small(25, 60, EvalBudget::tiny(), 47);
        let base = serial(|| Evaluator::new().evaluate(&ctx));
        let scaled = serial(|| Evaluator::new().with_job_scaling(10.0).evaluate(&ctx));
        let never_base = base.total_cost_of("Never-mitigate");
        let never_scaled = scaled.total_cost_of("Never-mitigate");
        assert!(
            never_scaled > 3.0 * never_base,
            "10x larger jobs must cost much more ({never_base} -> {never_scaled})"
        );
    }
}

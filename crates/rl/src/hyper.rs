//! Hyperparameter sets and the two-round random search of the evaluation protocol.
//!
//! Section 4.1 of the paper: for every cross-validation split, a first round of random
//! search draws 60 hyperparameter sets (learning rate, discount factor, network update
//! and synchronisation frequencies, PER batch size, ...), the best agent on the training
//! data seeds a second, narrowed round, and the best agent on the validation set is kept.
//! This module provides the hyperparameter vector, its samplers, and the two-round
//! successive-halving search driver that the evaluation harness feeds with resumable
//! [`Trainable`] candidates.

use crate::dqn::AgentConfig;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The hyperparameters explored by the random search.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HyperParams {
    /// Learning rate of the optimizer.
    pub learning_rate: f64,
    /// Discount factor γ.
    pub gamma: f64,
    /// Mini-batch size of the replay sampler.
    pub batch_size: usize,
    /// Environment steps between training updates.
    pub train_every: usize,
    /// Training updates between target-network synchronisations.
    pub target_sync_every: usize,
    /// Prioritisation exponent α of PER.
    pub per_alpha: f64,
    /// Steps over which ε decays to its final value.
    pub epsilon_decay_steps: u64,
}

impl HyperParams {
    /// A reasonable default point in the search space.
    fn default_point() -> Self {
        Self {
            learning_rate: 1e-3,
            gamma: 0.99,
            batch_size: 32,
            train_every: 2,
            target_sync_every: 250,
            per_alpha: 0.6,
            epsilon_decay_steps: 20_000,
        }
    }

    /// Draw a random point from the full search space.
    pub fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let lr_exp = rng.gen_range(-4.0..-2.0); // 1e-4 .. 1e-2
        let gammas = [0.9, 0.95, 0.99, 0.995];
        let batches = [16, 32, 64];
        let train_everys = [1, 2, 4];
        let syncs = [100, 250, 500, 1000];
        Self {
            learning_rate: 10f64.powf(lr_exp),
            gamma: gammas[rng.gen_range(0..gammas.len())],
            batch_size: batches[rng.gen_range(0..batches.len())],
            train_every: train_everys[rng.gen_range(0..train_everys.len())],
            target_sync_every: syncs[rng.gen_range(0..syncs.len())],
            per_alpha: rng.gen_range(0.4..0.8),
            epsilon_decay_steps: rng.gen_range(5_000..50_000),
        }
    }

    /// Draw a point close to `self` (the narrowed second-round search space).
    ///
    /// Continuous dimensions get a symmetric multiplicative jitter (the *inclusive*
    /// range keeps the factor distribution centred on 1); integer dimensions round to
    /// the nearest value instead of truncating toward zero; and the grid dimensions
    /// (`batch_size`, `train_every`) step to an adjacent grid value so the second round
    /// still searches them instead of pinning the broad winner's choice.
    pub fn narrowed<R: Rng + ?Sized>(&self, rng: &mut R) -> Self {
        let jitter = |rng: &mut R, v: f64, rel: f64| -> f64 {
            let factor = 1.0 + rng.gen_range(-rel..=rel);
            v * factor
        };
        // Move one position down, stay, or move one position up on the sampling grid
        // (clamped at the ends), anchored at the grid value closest to `current`.
        let grid_step = |rng: &mut R, grid: &[usize], current: usize| -> usize {
            let anchor = grid
                .iter()
                .enumerate()
                .min_by_key(|(_, &g)| (g as i64 - current as i64).unsigned_abs())
                .map(|(i, _)| i)
                .expect("non-empty grid");
            let step = rng.gen_range(-1i64..=1);
            let pos = (anchor as i64 + step).clamp(0, grid.len() as i64 - 1) as usize;
            grid[pos]
        };
        let learning_rate = jitter(rng, self.learning_rate, 0.5).clamp(1e-5, 1e-1);
        let gamma = (self.gamma + rng.gen_range(-0.01..=0.01)).clamp(0.8, 0.999);
        let batch_size = grid_step(rng, &[16, 32, 64], self.batch_size);
        let train_every = grid_step(rng, &[1, 2, 4], self.train_every);
        let target_sync_every =
            (jitter(rng, self.target_sync_every as f64, 0.5).round() as usize).max(10);
        let per_alpha = jitter(rng, self.per_alpha, 0.2).clamp(0.2, 1.0);
        let epsilon_decay_steps =
            (jitter(rng, self.epsilon_decay_steps as f64, 0.5).round() as u64).max(1_000);
        Self {
            learning_rate,
            gamma,
            batch_size,
            train_every,
            target_sync_every,
            per_alpha,
            epsilon_decay_steps,
        }
    }

    /// Apply these hyperparameters to a base agent configuration.
    pub fn apply_to(&self, base: &AgentConfig) -> AgentConfig {
        let mut config = base.clone();
        config.learning_rate = self.learning_rate;
        config.gamma = self.gamma;
        config.batch_size = self.batch_size;
        config.train_every = self.train_every;
        config.target_sync_every = self.target_sync_every;
        config.per_alpha = self.per_alpha;
        config.epsilon = crate::schedule::EpsilonSchedule::new(
            base.epsilon.start,
            base.epsilon.end,
            self.epsilon_decay_steps,
        );
        config
    }
}

/// One evaluated configuration in the search trace, in evaluation order.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EvaluatedCandidate {
    /// The hyperparameters that were evaluated.
    pub params: HyperParams,
    /// The pre-drawn seed material handed to the evaluation closure.
    pub trainer_seed: u64,
    /// The candidate's score (higher is better).
    pub score: f64,
    /// The cost charged for evaluating this candidate (e.g. training node-hours).
    pub cost: f64,
    /// Whether the candidate belongs to the narrowed second round.
    pub refined: bool,
}

/// The result of a two-round search: the winning artifact plus the full candidate and
/// rung traces.
#[derive(Debug, Clone)]
pub struct SearchOutcome<P> {
    /// The artifact (e.g. trained policy) returned by the winning candidate.
    pub best: P,
    /// The winning hyperparameters.
    pub best_params: HyperParams,
    /// The winning score.
    pub best_score: f64,
    /// Index of the winner in [`SearchOutcome::candidates`].
    pub best_index: usize,
    /// Sum of every rung increment actually trained, accumulated rung by rung in
    /// candidate order (the whole search is charged, not just the winner).
    pub total_cost: f64,
    /// Every evaluated candidate, in evaluation order (broad round first). Each
    /// candidate's `score` is from the last rung it reached and its `cost` is the sum
    /// of its per-rung increments.
    pub candidates: Vec<EvaluatedCandidate>,
    /// Every rung of both rounds, in execution order (broad round first).
    pub rungs: Vec<RungTrace>,
}

/// Deterministic "strictly better" for score reductions (higher wins): finite scores
/// always beat non-finite ones, a non-finite score never replaces the incumbent (so a
/// NaN cannot poison every later comparison), and ties keep the incumbent (the earliest
/// candidate).
pub fn better_score(new: f64, incumbent: f64) -> bool {
    match (new.is_finite(), incumbent.is_finite()) {
        (true, true) => new > incumbent,
        (true, false) => true,
        (false, _) => false,
    }
}

/// A candidate whose training can be advanced in budget increments and resumed, as the
/// successive-halving driver requires. The contract that keeps halving bit-identical to
/// straight-through training: calling [`Trainable::train_to`] with an increasing
/// sequence of budgets must leave the candidate in exactly the state a single
/// `train_to(final_budget)` call would have produced.
pub trait Trainable {
    /// The artifact the winning candidate is converted into (e.g. a trained policy).
    type Artifact;

    /// Advance training to the *cumulative* `budget` (in whatever unit the
    /// implementation measures training — the evaluation harness uses environment
    /// steps; `u64::MAX` means "train to completion"). Budgets at or below the amount
    /// already trained are a no-op. Returns the cost charged for the increment; a
    /// returned cost of exactly `0.0` must mean the candidate state did not change
    /// (the driver then reuses the previous rung's score instead of re-scoring).
    fn train_to(&mut self, budget: u64) -> f64;

    /// Cumulative budget units this candidate has actually trained so far (same unit
    /// as [`Trainable::train_to`] budgets). After the first rung, the successive-
    /// halving driver recalibrates the remaining rung budgets from the **maximum**
    /// observed value across the round's candidates, so the schedule tracks realised
    /// training lengths (e.g. episode-boundary overshoot on skewed fleets) instead of
    /// the caller's a-priori full-budget estimate.
    fn trained_units(&self) -> u64;

    /// Score the current policy (higher is better). Non-finite scores rank last.
    fn score(&self) -> f64;

    /// Finish the candidate, converting it into its artifact.
    fn into_artifact(self) -> Self::Artifact;
}

/// One rung of a successive-halving round: which candidates entered it, the cumulative
/// budget they were trained to, and the scores/costs the rung produced (aligned with
/// `survivors`, which is kept in candidate order).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RungTrace {
    /// Whether this rung belongs to the narrowed second round.
    pub refined: bool,
    /// Rung index within its round (0 = first rung, every candidate alive).
    pub rung: usize,
    /// Cumulative training budget of this rung (`u64::MAX` = train to completion).
    pub budget: u64,
    /// Global candidate indices that entered this rung, in candidate order.
    pub survivors: Vec<usize>,
    /// Score of each survivor after training to this rung's budget.
    pub scores: Vec<f64>,
    /// Cost charged to each survivor for this rung's training increment.
    pub costs: Vec<f64>,
}

/// A two-round random hyperparameter search.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HyperSearch {
    /// Total configurations evaluated in the broad first round, *including* the
    /// default point (60 in the paper).
    pub initial_round: usize,
    /// Number of configurations drawn in the narrowed second round.
    pub refined_round: usize,
}

impl HyperSearch {
    /// The paper's budget: 60 random configurations plus a narrowed second round.
    pub fn paper() -> Self {
        Self {
            initial_round: 60,
            refined_round: 20,
        }
    }

    /// A reduced budget for tests and laptop-scale runs.
    pub fn reduced(initial: usize, refined: usize) -> Self {
        Self {
            initial_round: initial.max(1),
            refined_round: refined,
        }
    }

    /// Run the two-round search with a **successive-halving** schedule inside each
    /// round, so hopeless candidates stop training early.
    ///
    /// Every candidate's parameters and per-candidate seed material are pre-drawn from
    /// `rng` (in candidate order, parameters before seed), so `init` never touches the
    /// shared RNG. The default point counts as the first of the `initial_round` broad
    /// candidates, so exactly `initial_round + refined_round` configurations are
    /// explored; the narrowed round is anchored at the broad round's winner. Each round
    /// then runs `ceil(log2(n)) + 1` rungs: every alive candidate is trained to the
    /// rung's cumulative budget (doubling per rung; the last rung is `u64::MAX`, i.e.
    /// trained to completion) and scored, and the top half — `ceil(alive / 2)`, ranked
    /// by score with non-finite scores last and ties keeping the earliest candidate —
    /// survives to the next rung. Training happens in parallel
    /// under the thread budget, but eliminations, cost accumulation and every other
    /// reduction happen in candidate order, so the outcome is **bit-identical at any
    /// thread count**. The winner of each round is its last survivor, trained to
    /// completion; the overall winner is whichever round winner scores higher (broad
    /// round kept on ties).
    ///
    /// `full_budget` — the caller's estimate of a full training run — only scales
    /// **rung 0** (`full_budget >> (rungs - 1)`). From rung 1 on, the schedule is
    /// calibrated from the budget units the rung-0 candidates *actually* trained
    /// ([`Trainable::trained_units`], maximum across the round), so realised episode
    /// lengths — not the a-priori estimate — set the elimination pace.
    ///
    /// The charged `total_cost` is the in-order sum of every rung increment actually
    /// trained — the whole point: most candidates only ever pay the early, cheap rungs.
    pub fn run<C, R, F>(&self, rng: &mut R, full_budget: u64, init: F) -> SearchOutcome<C::Artifact>
    where
        C: Trainable + Send,
        C::Artifact: Send,
        R: Rng + ?Sized,
        F: Fn(&HyperParams, u64) -> C + Sync,
    {
        let initial = self.initial_round.max(1);
        let mut candidates = Vec::with_capacity(initial + self.refined_round);
        let mut rungs = Vec::new();
        let mut total_cost = 0.0f64;

        // Broad round: the default point plus `initial - 1` samples from the full space.
        let mut round: Vec<(HyperParams, u64)> = Vec::with_capacity(initial);
        round.push((HyperParams::default_point(), rng.next_u64()));
        for _ in 1..initial {
            let params = HyperParams::sample(rng);
            round.push((params, rng.next_u64()));
        }
        let broad = halve_round(
            &round,
            false,
            full_budget,
            &init,
            &mut candidates,
            &mut rungs,
            &mut total_cost,
        );

        // Narrowed round, anchored at the broad round's winner.
        let anchor = candidates[broad.0].params;
        let mut round: Vec<(HyperParams, u64)> = Vec::with_capacity(self.refined_round);
        for _ in 0..self.refined_round {
            let params = anchor.narrowed(rng);
            round.push((params, rng.next_u64()));
        }
        let refined = if round.is_empty() {
            None
        } else {
            Some(halve_round(
                &round,
                true,
                full_budget,
                &init,
                &mut candidates,
                &mut rungs,
                &mut total_cost,
            ))
        };

        let (best_index, best_artifact, best_score) = match refined {
            Some(refined) if better_score(refined.2, broad.2) => refined,
            _ => broad,
        };
        SearchOutcome {
            best: best_artifact,
            best_params: candidates[best_index].params,
            best_score,
            best_index,
            total_cost,
            candidates,
            rungs,
        }
    }
}

/// Run one pre-drawn round through the successive-halving rung schedule. Appends one
/// [`EvaluatedCandidate`] per candidate (score = last rung reached, cost = sum of its
/// rung increments) and one [`RungTrace`] per rung, and returns the round winner as
/// `(global candidate index, artifact, final score)`.
///
/// Within a rung, training and scoring fan out via `execute_owned`, which
/// returns results in input order; everything else — cost accumulation, the score
/// ranking, survivor selection, dropping eliminated candidates — walks the candidates
/// in candidate order, so the round is bit-identical at any thread count.
fn halve_round<C, F>(
    round: &[(HyperParams, u64)],
    refined: bool,
    full_budget: u64,
    init: &F,
    candidates: &mut Vec<EvaluatedCandidate>,
    rungs: &mut Vec<RungTrace>,
    total_cost: &mut f64,
) -> (usize, C::Artifact, f64)
where
    C: Trainable + Send,
    C::Artifact: Send,
    F: Fn(&HyperParams, u64) -> C + Sync,
{
    let n = round.len();
    let base_index = candidates.len();
    for (params, seed) in round {
        candidates.push(EvaluatedCandidate {
            params: *params,
            trainer_seed: *seed,
            score: f64::NEG_INFINITY,
            cost: 0.0,
            refined,
        });
    }

    // `ceil(log2(n)) + 1` rungs halve the field to a single survivor; the last rung is
    // always "train to completion" so the round winner is a fully trained candidate.
    let n_rungs = n.next_power_of_two().trailing_zeros() as usize + 1;
    let mut alive: Vec<usize> = (0..n).collect();
    let mut states: Vec<Option<C>> = (0..n).map(|_| None).collect();
    // Only rung 0 derives from the caller's a-priori estimate; after it, `full` is
    // recalibrated from the units the rung-0 candidates actually trained.
    let mut full = full_budget;
    for rung in 0..n_rungs {
        let budget = if rung == n_rungs - 1 {
            u64::MAX
        } else {
            (full >> (n_rungs - 1 - rung)).max(1)
        };
        // Move the alive sessions through the fan-out: init on the first rung, then train
        // to the rung budget and score. `execute_owned` keeps results in input order.
        // A survivor whose training increment was a no-op (zero cost — e.g. its episode
        // budget ran out on an earlier rung) keeps its previous score instead of paying
        // another full selection replay: a zero-cost `train_to` leaves the candidate
        // unchanged, so re-scoring could only recompute the identical value.
        let prev_scores: Vec<f64> = alive
            .iter()
            .map(|&i| candidates[base_index + i].score)
            .collect();
        let work: Vec<(usize, usize, Option<C>)> = alive
            .iter()
            .enumerate()
            .map(|(pos, &i)| (pos, i, states[i].take()))
            .collect();
        let trained: Vec<(usize, C, f64, f64)> = rayon::execute_owned(work, |(pos, i, state)| {
            let mut candidate = state.unwrap_or_else(|| init(&round[i].0, round[i].1));
            let cost = candidate.train_to(budget);
            let score = if rung > 0 && cost == 0.0 {
                prev_scores[pos]
            } else {
                candidate.score()
            };
            (i, candidate, cost, score)
        });
        let mut trace = RungTrace {
            refined,
            rung,
            budget,
            survivors: alive.iter().map(|&i| base_index + i).collect(),
            scores: Vec::with_capacity(alive.len()),
            costs: Vec::with_capacity(alive.len()),
        };
        for (i, candidate, cost, score) in trained {
            *total_cost += cost;
            let entry = &mut candidates[base_index + i];
            entry.cost += cost;
            entry.score = score;
            trace.scores.push(score);
            trace.costs.push(cost);
            states[i] = Some(candidate);
        }
        rungs.push(trace);
        if rung == 0 && n_rungs > 1 {
            // Calibrate the remaining rung budgets from the units rung 0 actually
            // trained: `train_to` implementations stop at natural boundaries (e.g.
            // whole episodes), so the realised amount can overshoot the request, and
            // the caller's estimate can be off on skewed fleets. Anchoring the
            // schedule at the *maximum* observed amount keeps every survivor's next
            // target above anything already trained (no silently-empty rungs) and the
            // doubling progression intact. The maximum over candidates is order-free,
            // so the recalibrated schedule is bit-identical at any thread count.
            let observed = alive
                .iter()
                .filter_map(|&i| states[i].as_ref().map(Trainable::trained_units))
                .max()
                .unwrap_or(0)
                .max(1);
            let shift = (n_rungs - 1).min(63) as u32;
            full = observed.saturating_mul(1u64 << shift);
        }
        if alive.len() <= 1 {
            break;
        }

        // Keep the top half: rank by score (descending, non-finite last, ties by
        // candidate index), truncate, then restore candidate order for the next rung.
        let keep = alive.len().div_ceil(2);
        let rank_of = |i: usize| -> f64 {
            let s = candidates[base_index + i].score;
            if s.is_finite() {
                s
            } else {
                f64::NEG_INFINITY
            }
        };
        let mut ranked = alive.clone();
        ranked.sort_unstable_by(|&a, &b| rank_of(b).total_cmp(&rank_of(a)).then(a.cmp(&b)));
        ranked.truncate(keep);
        ranked.sort_unstable();
        for &i in &alive {
            if !ranked.contains(&i) {
                states[i] = None;
            }
        }
        alive = ranked;
    }

    let winner = alive[0];
    let artifact = states[winner]
        .take()
        .expect("the round winner's state is alive")
        .into_artifact();
    (
        base_index + winner,
        artifact,
        candidates[base_index + winner].score,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sampled_points_stay_in_the_search_space() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let h = HyperParams::sample(&mut rng);
            assert!(h.learning_rate >= 1e-4 && h.learning_rate <= 1e-2);
            assert!(h.gamma >= 0.9 && h.gamma <= 0.995);
            assert!([16, 32, 64].contains(&h.batch_size));
            assert!([1, 2, 4].contains(&h.train_every));
            assert!(h.per_alpha >= 0.4 && h.per_alpha < 0.8);
            assert!(h.epsilon_decay_steps >= 5_000);
        }
    }

    #[test]
    fn narrowed_points_stay_near_the_anchor() {
        let mut rng = StdRng::seed_from_u64(2);
        let anchor = HyperParams::default_point();
        for _ in 0..100 {
            let h = anchor.narrowed(&mut rng);
            assert!(h.learning_rate >= anchor.learning_rate * 0.4);
            assert!(h.learning_rate <= anchor.learning_rate * 1.6);
            // Grid dimensions stay on the grid, at most one position from the anchor.
            assert!([16, 32, 64].contains(&h.batch_size));
            assert!([1, 2, 4].contains(&h.train_every));
            assert!((h.gamma - anchor.gamma).abs() <= 0.011);
        }
    }

    #[test]
    fn narrowed_grid_dimensions_are_searched_not_pinned() {
        // Regression: round 2 used to copy `batch_size`/`train_every` verbatim, turning
        // them into dead search dimensions. Adjacent grid values must now appear.
        let mut rng = StdRng::seed_from_u64(21);
        let anchor = HyperParams::default_point(); // batch 32, train_every 2
        let mut batches = std::collections::BTreeSet::new();
        let mut train_everys = std::collections::BTreeSet::new();
        for _ in 0..200 {
            let h = anchor.narrowed(&mut rng);
            batches.insert(h.batch_size);
            train_everys.insert(h.train_every);
        }
        assert_eq!(batches.into_iter().collect::<Vec<_>>(), vec![16, 32, 64]);
        assert_eq!(train_everys.into_iter().collect::<Vec<_>>(), vec![1, 2, 4]);
    }

    #[test]
    fn narrowed_integer_knobs_round_instead_of_truncating() {
        // Regression: the multiplicative jitter used to truncate toward zero via `as`,
        // biasing `target_sync_every`/`epsilon_decay_steps` downward. With rounding,
        // the mean over many draws must sit near the anchor (truncation sat ~0.5 below
        // per draw and, worse, `0.999... as usize` floors). Jitter is ±50% uniform, so
        // the sample mean over 4000 draws is well within 2% of the anchor.
        let mut rng = StdRng::seed_from_u64(22);
        let anchor = HyperParams::default_point();
        let n = 4_000;
        let mut sync_sum = 0.0f64;
        let mut decay_sum = 0.0f64;
        for _ in 0..n {
            let h = anchor.narrowed(&mut rng);
            sync_sum += h.target_sync_every as f64;
            decay_sum += h.epsilon_decay_steps as f64;
        }
        let sync_mean = sync_sum / n as f64;
        let decay_mean = decay_sum / n as f64;
        assert!(
            (sync_mean - anchor.target_sync_every as f64).abs()
                < 0.02 * anchor.target_sync_every as f64,
            "target_sync_every mean {sync_mean} drifted from {}",
            anchor.target_sync_every
        );
        assert!(
            (decay_mean - anchor.epsilon_decay_steps as f64).abs()
                < 0.02 * anchor.epsilon_decay_steps as f64,
            "epsilon_decay_steps mean {decay_mean} drifted from {}",
            anchor.epsilon_decay_steps
        );
    }

    #[test]
    fn apply_to_overrides_the_right_fields() {
        let base = AgentConfig::small(4);
        let h = HyperParams {
            learning_rate: 0.005,
            gamma: 0.9,
            batch_size: 16,
            train_every: 4,
            target_sync_every: 123,
            per_alpha: 0.7,
            epsilon_decay_steps: 9_999,
        };
        let config = h.apply_to(&base);
        assert_eq!(config.learning_rate, 0.005);
        assert_eq!(config.gamma, 0.9);
        assert_eq!(config.batch_size, 16);
        assert_eq!(config.train_every, 4);
        assert_eq!(config.target_sync_every, 123);
        assert_eq!(config.per_alpha, 0.7);
        assert_eq!(config.epsilon.decay_steps, 9_999);
        // Untouched fields keep the base values.
        assert_eq!(config.hidden, base.hidden);
        assert_eq!(config.state_dim, base.state_dim);
    }

    /// A score-only candidate: its score is fixed when it is created and its whole cost
    /// is charged on the first `train_to`. Later calls charge `0.0`, which the
    /// [`Trainable`] contract reads as "state unchanged", so the driver reuses the score.
    struct ScoredCandidate {
        score: f64,
        cost: f64,
        trained: bool,
    }

    impl Trainable for ScoredCandidate {
        type Artifact = ();

        fn train_to(&mut self, _budget: u64) -> f64 {
            if std::mem::replace(&mut self.trained, true) {
                0.0
            } else {
                self.cost
            }
        }

        fn trained_units(&self) -> u64 {
            u64::from(self.trained)
        }

        fn score(&self) -> f64 {
            self.score
        }

        fn into_artifact(self) {}
    }

    /// Run the search over score-only candidates; `evaluate` maps a candidate's
    /// parameters to its `(score, cost)`.
    fn run_scored(
        search: HyperSearch,
        rng: &mut StdRng,
        evaluate: impl Fn(&HyperParams) -> (f64, f64) + Sync,
    ) -> SearchOutcome<()> {
        search.run(rng, 1, |h, _| {
            let (score, cost) = evaluate(h);
            ScoredCandidate {
                score,
                cost,
                trained: false,
            }
        })
    }

    #[test]
    fn search_finds_a_known_optimum() {
        // Score favours a learning rate near 3e-3 and gamma near 0.99.
        let mut rng = StdRng::seed_from_u64(3);
        let search = HyperSearch::reduced(40, 20);
        let outcome = run_scored(search, &mut rng, |h| {
            let score = -((h.learning_rate.log10() - (-2.5)).powi(2)) - (h.gamma - 0.99).powi(2);
            (score, 0.0)
        });
        let (best, score) = (outcome.best_params, outcome.best_score);
        assert!(score > -0.3, "score {score}");
        assert!(
            best.learning_rate > 1e-3 && best.learning_rate < 1e-2,
            "lr {}",
            best.learning_rate
        );
    }

    #[test]
    fn search_with_zero_refined_round_still_works() {
        let mut rng = StdRng::seed_from_u64(4);
        let search = HyperSearch::reduced(5, 0);
        let score = run_scored(search, &mut rng, |h| (h.gamma, 0.0)).best_score;
        assert!(score >= 0.9);
    }

    #[test]
    fn paper_budget_is_sixty_initial() {
        assert_eq!(HyperSearch::paper().initial_round, 60);
    }

    #[test]
    fn budget_counts_the_default_point_inside_the_broad_round() {
        // Paper semantics: `initial_round` is the *total* broad-round budget, with the
        // default point as candidate 0 — not one extra candidate on top of it.
        let mut rng = StdRng::seed_from_u64(11);
        let search = HyperSearch::reduced(5, 3);
        let outcome = run_scored(search, &mut rng, |h| (h.gamma, 1.0));
        assert_eq!(outcome.candidates.len(), 5 + 3);
        assert_eq!(outcome.candidates[0].params, HyperParams::default_point());
        assert!(outcome.candidates[..5].iter().all(|c| !c.refined));
        assert!(outcome.candidates[5..].iter().all(|c| c.refined));
        let paper = HyperSearch::paper();
        let outcome = run_scored(paper, &mut StdRng::seed_from_u64(12), |h| (h.gamma, 0.0));
        assert_eq!(outcome.candidates.len(), 60 + 20);
        assert_eq!(
            outcome.candidates.iter().filter(|c| !c.refined).count(),
            60,
            "the broad round must evaluate exactly 60 candidates including the default"
        );
    }

    #[test]
    fn equal_scores_keep_the_earliest_candidate() {
        let mut rng = StdRng::seed_from_u64(13);
        let search = HyperSearch::reduced(8, 4);
        let outcome = run_scored(search, &mut rng, |_| (1.0, 0.0));
        assert_eq!(outcome.best_index, 0);
        assert_eq!(outcome.best_params, HyperParams::default_point());
    }

    #[test]
    fn cost_accumulates_over_every_candidate_in_order() {
        let mut rng = StdRng::seed_from_u64(14);
        let search = HyperSearch::reduced(7, 5);
        let cost_of = |h: &HyperParams| h.learning_rate * 1e3 + h.per_alpha;
        let outcome = run_scored(search, &mut rng, |h| (-h.gamma, cost_of(h)));
        let mut expected = 0.0f64;
        for c in &outcome.candidates {
            expected += cost_of(&c.params);
        }
        assert_eq!(
            outcome.total_cost.to_bits(),
            expected.to_bits(),
            "total cost must be the in-order sum over all candidates"
        );
        assert!(outcome
            .candidates
            .iter()
            .all(|c| c.cost == cost_of(&c.params)));
    }

    #[test]
    fn non_finite_scores_never_win_the_reduction() {
        // Regression: `score > s` silently mishandled NaN — a NaN first candidate became
        // an unbeatable incumbent. Finite scores must always beat non-finite ones.
        assert!(!better_score(f64::NAN, 0.0));
        assert!(!better_score(f64::INFINITY, 0.0));
        assert!(better_score(0.0, f64::NAN));
        assert!(!better_score(f64::NAN, f64::NAN));
        assert!(!better_score(1.0, 1.0), "ties keep the incumbent");

        let mut rng = StdRng::seed_from_u64(31);
        let search = HyperSearch::reduced(6, 3);
        // The default point (candidate 0) scores NaN; everything else is finite.
        let outcome = run_scored(search, &mut rng, |h| {
            if h.learning_rate == HyperParams::default_point().learning_rate {
                (f64::NAN, 0.0)
            } else {
                (h.gamma, 0.0)
            }
        });
        assert!(
            outcome.best_score.is_finite(),
            "a NaN score must never be selected as the winner"
        );
        assert_ne!(outcome.best_index, 0);
    }

    /// A synthetic resumable candidate for driver tests: "training" advances a unit
    /// counter toward the cumulative budget (capped at `cap` = full training), the cost
    /// is the number of units actually trained, and the score is a deterministic
    /// function of the parameters, the seed and the trained amount.
    struct FakeCandidate {
        lr: f64,
        seed: u64,
        trained: u64,
        cap: u64,
    }

    impl FakeCandidate {
        fn new(params: &HyperParams, seed: u64, cap: u64) -> Self {
            Self {
                lr: params.learning_rate,
                seed,
                trained: 0,
                cap,
            }
        }
    }

    impl Trainable for FakeCandidate {
        type Artifact = (u64, u64);

        fn train_to(&mut self, budget: u64) -> f64 {
            let target = budget.min(self.cap);
            let added = target.saturating_sub(self.trained);
            self.trained = self.trained.max(target);
            added as f64
        }

        fn trained_units(&self) -> u64 {
            self.trained
        }

        fn score(&self) -> f64 {
            -((self.lr.log10() + 3.0).powi(2)) + (self.trained as f64 / self.cap as f64) * 0.05
                - ((self.seed % 97) as f64) * 1e-6
        }

        fn into_artifact(self) -> (u64, u64) {
            (self.seed, self.trained)
        }
    }

    const FAKE_CAP: u64 = 1 << 10;

    #[test]
    fn halving_explores_the_same_candidates_but_trains_strictly_less() {
        let search = HyperSearch::reduced(12, 6);
        let halving = search.run(&mut StdRng::seed_from_u64(41), FAKE_CAP, |h, s| {
            FakeCandidate::new(h, s, FAKE_CAP)
        });
        // The exhaustive reference: every recorded candidate trained to completion,
        // costs summed and the best score kept in candidate order.
        let mut exhaustive_cost = 0.0f64;
        let mut exhaustive_best: Option<(usize, f64, (u64, u64))> = None;
        for (i, c) in halving.candidates.iter().enumerate() {
            let mut candidate = FakeCandidate::new(&c.params, c.trainer_seed, FAKE_CAP);
            exhaustive_cost += candidate.train_to(u64::MAX);
            let score = candidate.score();
            if exhaustive_best
                .as_ref()
                .is_none_or(|&(_, best, _)| better_score(score, best))
            {
                exhaustive_best = Some((i, score, candidate.into_artifact()));
            }
        }
        let (exhaustive_index, _, exhaustive_artifact) = exhaustive_best.expect("candidates");
        // The quality ordering is training-invariant here, so both pick the same winner,
        // trained to completion — but halving charges strictly less total training.
        assert_eq!(halving.best_index, exhaustive_index);
        assert_eq!(halving.best.0, exhaustive_artifact.0);
        assert_eq!(halving.best.1, FAKE_CAP, "winner trained to completion");
        assert!(
            halving.total_cost < exhaustive_cost,
            "halving {} must train strictly fewer units than exhaustive {}",
            halving.total_cost,
            exhaustive_cost
        );
        // Charged cost is exactly the in-order sum of the per-rung increments.
        let rung_sum: f64 = halving.rungs.iter().flat_map(|r| r.costs.iter()).sum();
        assert_eq!(halving.total_cost.to_bits(), rung_sum.to_bits());
    }

    #[test]
    fn halving_rungs_halve_survivors_and_double_budgets() {
        let search = HyperSearch::reduced(12, 5);
        let outcome = search.run(&mut StdRng::seed_from_u64(42), FAKE_CAP, |h, s| {
            FakeCandidate::new(h, s, FAKE_CAP)
        });
        let broad: Vec<&RungTrace> = outcome.rungs.iter().filter(|r| !r.refined).collect();
        let refined: Vec<&RungTrace> = outcome.rungs.iter().filter(|r| r.refined).collect();
        let sizes =
            |rungs: &[&RungTrace]| rungs.iter().map(|r| r.survivors.len()).collect::<Vec<_>>();
        assert_eq!(sizes(&broad), vec![12, 6, 3, 2, 1]);
        assert_eq!(sizes(&refined), vec![5, 3, 2, 1]);
        for rungs in [&broad, &refined] {
            for pair in rungs.windows(2) {
                if pair[1].budget != u64::MAX {
                    assert_eq!(
                        pair[1].budget,
                        pair[0].budget * 2,
                        "budgets double per rung"
                    );
                }
                // Survivors are a subset of the previous rung, kept in candidate order.
                assert!(pair[1]
                    .survivors
                    .iter()
                    .all(|i| pair[0].survivors.contains(i)));
                assert!(pair[1].survivors.windows(2).all(|w| w[0] < w[1]));
            }
            assert_eq!(rungs.last().unwrap().budget, u64::MAX);
        }
        // Refined candidates index past the broad round.
        assert!(refined[0].survivors.iter().all(|&i| i >= 12));
    }

    /// A candidate whose training overshoots the requested budget by a fixed amount,
    /// the way a real trainer that only stops at episode boundaries does.
    struct OvershootCandidate {
        inner: FakeCandidate,
        overshoot: u64,
    }

    impl Trainable for OvershootCandidate {
        type Artifact = (u64, u64);
        fn train_to(&mut self, budget: u64) -> f64 {
            if budget <= self.inner.trained {
                return 0.0;
            }
            let target = budget.saturating_add(self.overshoot).min(self.inner.cap);
            let added = target.saturating_sub(self.inner.trained);
            self.inner.trained = self.inner.trained.max(target);
            added as f64
        }
        fn trained_units(&self) -> u64 {
            self.inner.trained
        }
        fn score(&self) -> f64 {
            self.inner.score()
        }
        fn into_artifact(self) -> (u64, u64) {
            self.inner.into_artifact()
        }
    }

    #[test]
    fn rung_budgets_recalibrate_from_observed_rung_zero_training() {
        // Rung 0 derives from the caller's estimate; the later rungs must derive from
        // what rung 0 *actually* trained. Every candidate here overshoots each request
        // by 13 units (episode-boundary style), so with 8 candidates (4 rungs, rung-0
        // budget = FAKE_CAP >> 3 = 128) the observed maximum is 141 and rung 1 must be
        // 2 × 141 = 282 — not the a-priori 256.
        let search = HyperSearch::reduced(8, 0);
        let outcome = search.run(&mut StdRng::seed_from_u64(47), FAKE_CAP, |h, s| {
            OvershootCandidate {
                inner: FakeCandidate::new(h, s, 1 << 20),
                overshoot: 13,
            }
        });
        let budgets: Vec<u64> = outcome.rungs.iter().map(|r| r.budget).collect();
        assert_eq!(
            budgets[0],
            FAKE_CAP >> 3,
            "rung 0 uses the a-priori estimate"
        );
        assert_eq!(
            budgets[1],
            ((FAKE_CAP >> 3) + 13) * 2,
            "rung 1 must be twice the observed rung-0 maximum"
        );
        assert_eq!(budgets[2], budgets[1] * 2, "doubling continues from there");
        assert_eq!(*budgets.last().unwrap(), u64::MAX);
    }

    #[test]
    fn halving_is_bit_identical_across_thread_counts() {
        let search = HyperSearch::reduced(11, 4);
        let run = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            pool.install(|| {
                search.run(&mut StdRng::seed_from_u64(43), FAKE_CAP, |h, s| {
                    FakeCandidate::new(h, s, FAKE_CAP)
                })
            })
        };
        let one = run(1);
        let four = run(4);
        assert_eq!(one.best_index, four.best_index);
        assert_eq!(one.best_params, four.best_params);
        assert_eq!(one.best_score.to_bits(), four.best_score.to_bits());
        assert_eq!(one.total_cost.to_bits(), four.total_cost.to_bits());
        assert_eq!(one.candidates, four.candidates);
        assert_eq!(
            one.rungs, four.rungs,
            "rung traces diverged across thread counts"
        );
    }

    #[test]
    fn exhausted_candidates_are_not_rescored_on_later_rungs() {
        // Candidates whose budget is exhausted (zero-cost increments) must reuse their
        // previous score instead of paying another selection replay per rung.
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        struct CountingCandidate {
            inner: FakeCandidate,
            score_calls: Arc<AtomicUsize>,
        }
        impl Trainable for CountingCandidate {
            type Artifact = (u64, u64);
            fn train_to(&mut self, budget: u64) -> f64 {
                self.inner.train_to(budget)
            }
            fn trained_units(&self) -> u64 {
                self.inner.trained_units()
            }
            fn score(&self) -> f64 {
                self.score_calls.fetch_add(1, Ordering::Relaxed);
                self.inner.score()
            }
            fn into_artifact(self) -> (u64, u64) {
                self.inner.into_artifact()
            }
        }
        let calls = Arc::new(AtomicUsize::new(0));
        let search = HyperSearch::reduced(8, 0);
        // Every candidate saturates its tiny cap at rung 0 (the rung-0 budget is
        // already above it), so rungs 1..3 train nothing and must not re-score.
        let cap = 4;
        let outcome = search.run(&mut StdRng::seed_from_u64(46), FAKE_CAP, {
            let calls = Arc::clone(&calls);
            move |h, s| CountingCandidate {
                inner: FakeCandidate::new(h, s, cap),
                score_calls: Arc::clone(&calls),
            }
        });
        assert_eq!(outcome.rungs.len(), 4, "8 -> 4 -> 2 -> 1");
        assert_eq!(
            calls.load(Ordering::Relaxed),
            8,
            "each candidate is scored exactly once (at rung 0)"
        );
        // The reused scores are recorded unchanged in the later rung traces.
        for rung in &outcome.rungs[1..] {
            assert!(rung.costs.iter().all(|&c| c == 0.0));
            for (survivor, score) in rung.survivors.iter().zip(&rung.scores) {
                assert_eq!(
                    outcome.candidates[*survivor].score.to_bits(),
                    score.to_bits()
                );
            }
        }
    }

    #[test]
    fn halving_handles_degenerate_round_sizes() {
        // One broad candidate, no refined round: a single "train to completion" rung.
        let search = HyperSearch::reduced(1, 0);
        let outcome = search.run(&mut StdRng::seed_from_u64(44), FAKE_CAP, |h, s| {
            FakeCandidate::new(h, s, FAKE_CAP)
        });
        assert_eq!(outcome.candidates.len(), 1);
        assert_eq!(outcome.rungs.len(), 1);
        assert_eq!(outcome.rungs[0].budget, u64::MAX);
        assert_eq!(outcome.best.1, FAKE_CAP);
        assert_eq!(outcome.best_index, 0);
    }

    #[test]
    fn halving_ranks_non_finite_scores_last() {
        // Candidates whose seed is even score NaN; they must be eliminated first and
        // can never win, whatever their parameters.
        struct NanCandidate(FakeCandidate);
        impl Trainable for NanCandidate {
            type Artifact = (u64, u64);
            fn train_to(&mut self, budget: u64) -> f64 {
                self.0.train_to(budget)
            }
            fn trained_units(&self) -> u64 {
                self.0.trained_units()
            }
            fn score(&self) -> f64 {
                if self.0.seed.is_multiple_of(2) {
                    f64::NAN
                } else {
                    self.0.score()
                }
            }
            fn into_artifact(self) -> (u64, u64) {
                self.0.into_artifact()
            }
        }
        let search = HyperSearch::reduced(10, 0);
        let outcome = search.run(&mut StdRng::seed_from_u64(45), FAKE_CAP, |h, s| {
            NanCandidate(FakeCandidate::new(h, s, FAKE_CAP))
        });
        let winner = &outcome.candidates[outcome.best_index];
        if outcome.candidates.iter().any(|c| c.trainer_seed % 2 == 1) {
            assert_eq!(winner.trainer_seed % 2, 1, "a NaN-scoring candidate won");
            assert!(outcome.best_score.is_finite());
        }
        // Whenever finite candidates were alive in a rung, no NaN candidate outlived one.
        for pair in outcome.rungs.windows(2) {
            let finite_dropped = pair[0]
                .survivors
                .iter()
                .zip(&pair[0].scores)
                .any(|(i, s)| s.is_finite() && !pair[1].survivors.contains(i));
            let nan_kept = pair[1]
                .survivors
                .iter()
                .zip(&pair[1].scores)
                .any(|(_, s)| s.is_nan());
            assert!(
                !(finite_dropped && nan_kept),
                "a NaN candidate survived past a finite one"
            );
        }
    }
}

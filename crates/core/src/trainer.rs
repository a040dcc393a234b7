//! The RL training loop (Section 3.3.3).
//!
//! Training is divided into episodes: each episode picks one node at random from the
//! training timelines, assigns it a random job sequence sampled from the job log
//! (weighted by node count), and replays the node's events. The agent acts ε-greedily at
//! every event, receives the Equation 4 reward at the next event, and the transition is
//! pushed to (prioritized) replay memory, from which the dueling double DQN trains.

use crate::config::MitigationConfig;
use crate::env::MitigationEnv;
use crate::event_stream::TimelineSet;
use crate::policies::RlPolicy;
use crate::session::RecordRetention;
use crate::state::STATE_DIM;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};
use std::time::Instant;
use uerl_jobs::schedule::NodeJobSampler;
use uerl_obs::{registry, Counter, Histogram, MetricClass};
use uerl_rl::{AgentConfig, DqnAgent, Transition};

/// Training-chunk instruments. Steps and episodes are event-time (deterministic for a
/// seeded session); the chunk duration is wall-clock and excluded from fingerprints.
struct TrainerMetrics {
    steps: Arc<Counter>,
    episodes: Arc<Counter>,
    chunk_duration_nanos: Arc<Histogram>,
}

fn trainer_metrics() -> &'static TrainerMetrics {
    static METRICS: OnceLock<TrainerMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = registry();
        TrainerMetrics {
            steps: r.counter(
                "uerl_train_steps_total",
                "Environment steps trained across all sessions",
                &[],
                MetricClass::EventTime,
            ),
            episodes: r.counter(
                "uerl_train_episodes_total",
                "Training episodes completed across all sessions",
                &[],
                MetricClass::EventTime,
            ),
            chunk_duration_nanos: r.histogram(
                "uerl_train_chunk_duration_nanos",
                "Wall-clock duration of each train_until_steps chunk",
                &[],
                MetricClass::WallClock,
            ),
        }
    })
}

/// Configuration of the training loop.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainerConfig {
    /// Number of training episodes (the paper uses 20,000 per agent).
    pub episodes: usize,
    /// Agent configuration (architecture, learning hyperparameters).
    pub agent: AgentConfig,
    /// Mitigation cost / restartability.
    pub mitigation: MitigationConfig,
    /// Seed for episode sampling (node choice and job sequences).
    pub seed: u64,
}

impl TrainerConfig {
    /// The paper's budget: 20,000 episodes with the full DDDQN + PER agent.
    pub fn paper() -> Self {
        Self {
            episodes: 20_000,
            agent: AgentConfig::paper(STATE_DIM),
            mitigation: MitigationConfig::paper_default(),
            seed: 0,
        }
    }

    /// A reduced budget for tests, examples and laptop-scale experiment runs.
    pub fn reduced(episodes: usize) -> Self {
        Self {
            episodes,
            agent: AgentConfig::small(STATE_DIM),
            mitigation: MitigationConfig::paper_default(),
            seed: 0,
        }
    }

    /// A copy with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self.agent = self.agent.clone().with_seed(seed.wrapping_add(1));
        self
    }
}

/// Modelled training cost per environment step, in node-seconds. Calibrated to the
/// single-core wall-clock of one DQN decision + replay update on the paper's Q-network
/// size, it keeps the charged training cost in the paper's "below twenty node-hours per
/// year of data" regime while making the cost a **pure function of the seeded run** —
/// wall-clock charging would leak scheduler noise into the experiment output and break
/// bit-identical results across runs and thread counts.
pub const TRAIN_COST_SECONDS_PER_STEP: f64 = 5e-3;

/// The deterministic step-count cost model: node-hours charged for training `steps`
/// environment steps. The successive-halving search charges each rung increment through
/// this, so only steps actually trained are ever billed.
pub fn step_cost_node_hours(steps: u64) -> f64 {
    steps as f64 * TRAIN_COST_SECONDS_PER_STEP / 3600.0
}

/// What a training run produced.
#[derive(Debug, Clone)]
pub struct TrainingOutcome {
    /// The trained agent.
    pub agent: DqnAgent,
    /// Episodes actually run.
    pub episodes: usize,
    /// Total environment steps (decisions) observed.
    pub total_steps: u64,
    /// Mean undiscounted episode return (negative node-hours).
    pub mean_episode_return: f64,
    /// Wall-clock training time in seconds (diagnostic only — the charged cost is the
    /// deterministic step-based model below).
    pub wall_time_secs: f64,
}

impl TrainingOutcome {
    /// Training cost in node-hours, assuming training runs on a single node (as in the
    /// paper, where the total is below twenty node-hours per year of data). Modelled
    /// from the step count so identical seeded runs charge identical costs.
    pub fn training_cost_node_hours(&self) -> f64 {
        step_cost_node_hours(self.total_steps)
    }

    /// Wrap the trained agent as an evaluation policy, carrying the training cost into
    /// the cost-benefit accounting.
    pub fn into_policy(self) -> RlPolicy {
        let cost = self.training_cost_node_hours();
        RlPolicy::new(self.agent).with_training_cost(cost)
    }
}

/// The episode-based RL trainer.
#[derive(Debug, Clone)]
pub struct RlTrainer {
    config: TrainerConfig,
}

impl RlTrainer {
    /// Create a trainer.
    ///
    /// # Panics
    /// Panics if the agent's state dimension does not match [`STATE_DIM`].
    pub fn new(config: TrainerConfig) -> Self {
        assert_eq!(
            config.agent.state_dim, STATE_DIM,
            "agent state dimension must match the Table 1 feature vector"
        );
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> &TrainerConfig {
        &self.config
    }

    /// Start a resumable training session (agent freshly built, nothing trained yet).
    pub fn session(&self) -> TrainingSession {
        TrainingSession {
            agent: DqnAgent::new(self.config.agent.clone()),
            rng: StdRng::seed_from_u64(self.config.seed),
            config: self.config.clone(),
            episodes_run: 0,
            total_steps: 0,
            total_return: 0.0,
            wall_secs: 0.0,
        }
    }

    /// Train an agent on the given timelines and job sampler, to the full episode
    /// budget. Equivalent to (and implemented as) a session trained in one chunk.
    pub fn train(&self, timelines: &TimelineSet, jobs: &NodeJobSampler) -> TrainingOutcome {
        let mut session = self.session();
        session.train_until_steps(timelines, jobs, u64::MAX);
        session.into_outcome()
    }
}

/// A resumable, checkpointable RL training run.
///
/// The session owns everything the episode loop mutates — the agent (networks,
/// optimizer, replay memory, exploration RNG, env-step/update counters) and the episode
/// RNG (node choice, job sequences) — so training can stop at any episode boundary and
/// continue later **bit-equal** to a run that never paused. The successive-halving
/// hyperparameter search trains each surviving candidate rung by rung through one
/// session; [`RlTrainer::train`] is a session trained in a single chunk, so the two
/// paths cannot drift apart.
#[derive(Debug, Clone)]
pub struct TrainingSession {
    config: TrainerConfig,
    agent: DqnAgent,
    rng: StdRng,
    episodes_run: usize,
    total_steps: u64,
    total_return: f64,
    wall_secs: f64,
}

impl TrainingSession {
    /// The agent in its current training state (for scoring mid-training candidates).
    pub fn agent(&self) -> &DqnAgent {
        &self.agent
    }

    /// Environment steps trained so far.
    pub fn total_steps(&self) -> u64 {
        self.total_steps
    }

    /// Whether the configured episode budget is exhausted (no further training).
    pub fn exhausted(&self) -> bool {
        self.episodes_run >= self.config.episodes
    }

    /// Train whole episodes until the cumulative step counter reaches `target_steps`
    /// (`u64::MAX` = the full episode budget) or the episode budget runs out, and
    /// return the number of steps trained by this call. Stopping happens at episode
    /// boundaries only, which is what keeps chunked training bit-equal to
    /// straight-through training: the loop state between episodes is exactly the
    /// session's fields, nothing more.
    pub fn train_until_steps(
        &mut self,
        timelines: &TimelineSet,
        jobs: &NodeJobSampler,
        target_steps: u64,
    ) -> u64 {
        let start = Instant::now();
        let before = self.total_steps;
        let episodes_before = self.episodes_run;
        let _chunk_span = trainer_metrics().chunk_duration_nanos.span();
        while self.episodes_run < self.config.episodes && self.total_steps < target_steps {
            let Some(timeline) = timelines.random_timeline(&mut self.rng) else {
                break;
            };
            let sequence = jobs.sample_sequence(
                timeline.window_start(),
                timeline.window_end(),
                &mut self.rng,
            );
            // Training never reads the decision / UE logs, so episodes run with
            // totals-only retention: rewards and counters are identical, and episode
            // memory stays O(window) however long the node's timeline is.
            let mut env = MitigationEnv::with_retention(
                timeline.clone(),
                sequence,
                self.config.mitigation,
                true,
                RecordRetention::TotalsOnly,
            );
            self.episodes_run += 1;
            let Some(first) = env.reset() else {
                continue;
            };
            let mut state_vec = first.to_vector();
            let mut episode_return = 0.0;
            loop {
                let action = self.agent.act(&state_vec);
                let outcome = env.step(action == 1);
                episode_return += outcome.reward;
                self.total_steps += 1;
                match outcome.next_state {
                    Some(next) => {
                        let next_vec = next.to_vector();
                        self.agent.observe(Transition::new(
                            state_vec,
                            action,
                            outcome.reward,
                            next_vec.clone(),
                        ));
                        state_vec = next_vec;
                    }
                    None => {
                        self.agent
                            .observe(Transition::terminal(state_vec, action, outcome.reward));
                        break;
                    }
                }
            }
            self.total_return += episode_return;
        }
        self.wall_secs += start.elapsed().as_secs_f64();
        let m = trainer_metrics();
        m.steps.add(self.total_steps - before);
        m.episodes.add((self.episodes_run - episodes_before) as u64);
        self.total_steps - before
    }

    /// Finish the session, producing the same [`TrainingOutcome`] a straight
    /// [`RlTrainer::train`] call would have returned.
    pub fn into_outcome(self) -> TrainingOutcome {
        TrainingOutcome {
            agent: self.agent,
            episodes: self.episodes_run,
            total_steps: self.total_steps,
            mean_episode_return: if self.episodes_run > 0 {
                self.total_return / self.episodes_run as f64
            } else {
                0.0
            },
            wall_time_secs: self.wall_secs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uerl_jobs::{JobLogConfig, JobTraceGenerator};
    use uerl_trace::generator::{SyntheticLogConfig, TraceGenerator};
    use uerl_trace::reduction::preprocess;

    fn training_inputs(seed: u64) -> (TimelineSet, NodeJobSampler) {
        let log = TraceGenerator::new(SyntheticLogConfig::small(30, 60, seed)).generate();
        let timelines = TimelineSet::from_log(&preprocess(&log));
        let jobs = JobTraceGenerator::new(JobLogConfig::small(64, 30, seed)).generate();
        (timelines, NodeJobSampler::from_log(&jobs))
    }

    #[test]
    fn training_runs_and_produces_a_usable_policy() {
        let (timelines, sampler) = training_inputs(3);
        let trainer = RlTrainer::new(TrainerConfig::reduced(40).with_seed(5));
        let outcome = trainer.train(&timelines, &sampler);
        assert_eq!(outcome.episodes, 40);
        assert!(outcome.total_steps > 0);
        assert!(
            outcome.mean_episode_return <= 0.0,
            "returns are negative costs"
        );
        assert!(outcome.wall_time_secs > 0.0);
        assert!(outcome.training_cost_node_hours() < 1.0);
        let policy = outcome.into_policy();
        use crate::policy::MitigationPolicy;
        let s = crate::state::StateFeatures::empty(
            uerl_trace::types::NodeId(0),
            uerl_trace::types::SimTime::ZERO,
        );
        let _ = policy.decide(&s);
        assert!(policy.training_cost_node_hours() > 0.0);
    }

    #[test]
    fn training_is_deterministic_for_a_seed() {
        let (timelines, sampler) = training_inputs(7);
        let a = RlTrainer::new(TrainerConfig::reduced(15).with_seed(9)).train(&timelines, &sampler);
        let b = RlTrainer::new(TrainerConfig::reduced(15).with_seed(9)).train(&timelines, &sampler);
        assert_eq!(a.total_steps, b.total_steps);
        assert!((a.mean_episode_return - b.mean_episode_return).abs() < 1e-9);
        let probe = vec![0.1; STATE_DIM];
        assert_eq!(a.agent.q_values(&probe), b.agent.q_values(&probe));
    }

    #[test]
    fn chunked_session_training_is_bit_equal_to_straight_through() {
        // A session paused at step/rung boundaries and resumed must reproduce the
        // uninterrupted run exactly: same episode draws, same steps, same network bits.
        // This is the property the successive-halving search's resumed rungs rely on.
        let (timelines, sampler) = training_inputs(11);
        let trainer = RlTrainer::new(TrainerConfig::reduced(30).with_seed(13));
        let straight = trainer.train(&timelines, &sampler);

        let mut session = trainer.session();
        let mut chunk_steps = Vec::new();
        // Rung-style doubling targets followed by "train to completion".
        for target in [25u64, 50, 100, 200, u64::MAX] {
            chunk_steps.push(session.train_until_steps(&timelines, &sampler, target));
            assert!(
                session.exhausted() || session.total_steps() >= target,
                "a non-exhausted session must reach the step target"
            );
        }
        assert!(session.exhausted());
        let chunked = session.into_outcome();

        assert_eq!(chunked.total_steps, straight.total_steps);
        assert_eq!(chunked.episodes, straight.episodes);
        assert_eq!(
            chunk_steps.iter().sum::<u64>(),
            straight.total_steps,
            "per-chunk increments must add up to the straight-through step count"
        );
        assert_eq!(
            chunked.mean_episode_return.to_bits(),
            straight.mean_episode_return.to_bits()
        );
        let probe = vec![0.1; STATE_DIM];
        for (a, b) in chunked
            .agent
            .q_values(&probe)
            .iter()
            .zip(straight.agent.q_values(&probe))
        {
            assert_eq!(a.to_bits(), b.to_bits(), "chunked training diverged");
        }
        assert_eq!(chunked.agent.updates(), straight.agent.updates());
    }

    #[test]
    fn session_stops_at_the_first_episode_boundary_past_the_target() {
        let (timelines, sampler) = training_inputs(12);
        let trainer = RlTrainer::new(TrainerConfig::reduced(50).with_seed(14));
        let mut session = trainer.session();
        let added = session.train_until_steps(&timelines, &sampler, 10);
        assert!(added >= 10, "must train at least to the target");
        assert!(session.episodes_run > 0);
        assert!(!session.exhausted());
        // A target at or below the trained amount is a no-op.
        let again = session.train_until_steps(&timelines, &sampler, session.total_steps());
        assert_eq!(again, 0);
        // The step-cost model charges exactly the steps trained.
        assert_eq!(
            step_cost_node_hours(session.total_steps()).to_bits(),
            (session.total_steps() as f64 * TRAIN_COST_SECONDS_PER_STEP / 3600.0).to_bits()
        );
    }

    #[test]
    fn different_seeds_explore_differently() {
        let (timelines, sampler) = training_inputs(7);
        let a = RlTrainer::new(TrainerConfig::reduced(15).with_seed(1)).train(&timelines, &sampler);
        let b = RlTrainer::new(TrainerConfig::reduced(15).with_seed(2)).train(&timelines, &sampler);
        let probe = vec![0.1; STATE_DIM];
        assert_ne!(a.agent.q_values(&probe), b.agent.q_values(&probe));
    }

    #[test]
    fn paper_budget_is_twenty_thousand_episodes() {
        let cfg = TrainerConfig::paper();
        assert_eq!(cfg.episodes, 20_000);
        assert_eq!(cfg.agent.hidden, vec![256, 256, 128, 64]);
    }

    #[test]
    #[should_panic(expected = "state dimension")]
    fn wrong_state_dimension_rejected() {
        let mut cfg = TrainerConfig::reduced(1);
        cfg.agent.state_dim = 3;
        RlTrainer::new(cfg);
    }
}

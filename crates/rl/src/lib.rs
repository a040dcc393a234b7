//! # uerl-rl
//!
//! Deep reinforcement-learning substrate.
//!
//! Implements the learning machinery the paper builds its mitigation agent on:
//!
//! * [`transition`] — the `(state, action, reward, next_state)` experience tuple;
//! * [`sumtree`] — the sum-tree used for proportional prioritized sampling;
//! * [`per`] — prioritized experience replay (Schaul et al.) with importance-sampling
//!   weights and priority updates, which the paper uses to cope with the 3.5
//!   orders-of-magnitude class imbalance between events and uncorrected errors;
//! * [`schedule`] — ε-greedy exploration schedules and the β annealing schedule of PER;
//! * [`dqn`] — the paper's agent, a dueling double deep Q-network (DDDQN) trained from
//!   prioritized replay with Adam, with target-network synchronisation and Huber-loss TD
//!   updates. Every Q-value query — the greedy branch of `act`, `q_values`, offline
//!   evaluation and online serving — is one call of [`DqnAgent::with_q_values`], and
//!   every greedy decision reads its Q-values through [`greedy_action`];
//! * [`hyper`] — the hyperparameter set and the two-round random search used during
//!   time-series nested cross-validation. Its one driver, [`HyperSearch::run`], runs
//!   successive halving inside each round, so losing candidates stop training early.

pub mod dqn;
pub mod hyper;
pub mod metrics;
pub mod per;
pub mod schedule;
pub mod sumtree;
pub mod transition;

pub use dqn::{greedy_action, AgentConfig, DqnAgent};
pub use hyper::{
    better_score, EvaluatedCandidate, HyperParams, HyperSearch, RungTrace, SearchOutcome, Trainable,
};
pub use per::PrioritizedReplay;
pub use schedule::{BetaSchedule, EpsilonSchedule};
pub use sumtree::SumTree;
pub use transition::Transition;

//! # uerl-core
//!
//! The paper's primary contribution: adaptive mitigation of uncorrected DRAM errors,
//! formulated as a Markov decision process and solved with a dueling double deep
//! Q-network.
//!
//! * [`config`] — the user-facing knobs: mitigation cost (node-minutes) and whether the
//!   job can restart from a mitigation point. These are the *only* user-defined
//!   parameters of the method.
//! * [`cost`] — Equation 3 (potential UE cost) and Equation 4 (reward).
//! * [`state`] — the state feature vector of Table 1.
//! * [`features`] — the per-node feature extractor, including the Equation 2 feature
//!   variation over 1 minute and 1 hour.
//! * [`event_stream`] — per-node timelines of per-minute merged events, the episode
//!   substrate for training and evaluation.
//! * [`session`] — the per-node session: the one event pump (features, Equation 3
//!   cost, fatal accounting) and the cost accounts of the served and shadow lanes,
//!   pushed by both the environment cursor and the server; plus [`PolicyRun`], the
//!   fleet totals of one policy, folded from the per-node accounts.
//! * [`env`](mod@env) — the environment: a cursor that pushes a node's timeline
//!   through a session, stops at every decision point and pays the Equation 4 reward.
//! * [`policy`] / [`policies`] — the mitigation-policy interface and the eight policies
//!   evaluated in the paper (Never, Always, SC20-RF with optimal and perturbed
//!   thresholds, Myopic-RF, the RL agent and the Oracle).
//! * [`rf_dataset`] — construction of the supervised training set for the SC20-RF
//!   baseline (1-day prediction window).
//! * [`trainer`] — the RL training loop over randomly drawn node episodes.

pub mod config;
pub mod cost;
pub mod env;
pub mod event_stream;
pub mod features;
pub mod policies;
pub mod policy;
pub mod rf_dataset;
pub mod session;
pub mod state;
pub mod trainer;

pub use config::MitigationConfig;
pub use env::{MitigationEnv, StepOutcome};
pub use event_stream::{NodeTimeline, TimelineSet};
pub use features::FeatureExtractor;
pub use policies::{
    AlwaysMitigate, MyopicRfPolicy, NeverMitigate, OraclePolicy, RlPolicy, ThresholdRfPolicy,
};
pub use policy::MitigationPolicy;
pub use session::{
    CostAccount, Decision, NodeSession, Observed, PolicyRun, RecordRetention, UeEvent, UeRecord,
};
pub use state::{StateFeatures, STATE_DIM};
pub use trainer::{RlTrainer, TrainerConfig, TrainingOutcome};

//! # uerl-eval
//!
//! Evaluation harness reproducing the paper's methodology (Section 4) and every figure
//! and table of its results section (Section 5).
//!
//! * [`splits`] — time-series nested cross-validation (Figure 2): six parts, six splits,
//!   75%/25% train/validation before each test part.
//! * [`run`] — cost-benefit rollouts: replay a policy over every node timeline of a test
//!   range, with identical job sequences across policies, and account UE cost, mitigation
//!   cost and every decision.
//! * [`metrics`] — the classical machine-learning metrics of Section 4.4 (TP/FN/FP/TN,
//!   recall, precision, 1-day prediction window).
//! * [`scenario`] — experiment context assembly: synthetic MareNostrum-scale or
//!   test-scale logs, evaluation budgets, manufacturer partitioning, job-size scaling.
//! * [`evaluator`] — the full protocol: per split, train the RF baseline and the RL agent
//!   on the training data, pick thresholds/hyperparameters, evaluate all eight policies
//!   on the test data, and accumulate.
//! * [`experiments`] — one driver per paper artefact: Figure 3, Figure 4, Figure 5,
//!   Figure 6, Table 2 and Figure 7a/7b.
//! * [`report`] — plain-text rendering of experiment results (the tables printed by the
//!   `uerl-bench` figure binaries; see "Reproducing the experiments" in the README).

pub mod evaluator;
pub mod experiments;
pub mod metrics;
pub mod report;
pub mod run;
pub mod scenario;
pub mod splits;

pub use evaluator::{EvaluationResult, Evaluator, SplitOutcome};
pub use metrics::ClassificationMetrics;
pub use run::{run_policy, PolicyRun};
pub use scenario::{EvalBudget, ExperimentContext};
pub use splits::{nested_splits, SplitSpec};

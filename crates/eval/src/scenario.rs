//! Experiment context assembly: logs, budgets and scenario variants.

use serde::{Deserialize, Serialize};
use uerl_core::event_stream::TimelineSet;
use uerl_core::MitigationConfig;
use uerl_jobs::schedule::NodeJobSampler;
use uerl_jobs::{JobLog, JobLogConfig, JobTraceGenerator};
use uerl_trace::generator::{SyntheticLogConfig, TraceGenerator};
use uerl_trace::log::ErrorLog;
use uerl_trace::reduction::preprocess;
use uerl_trace::types::Manufacturer;

/// How much compute an evaluation is allowed to spend.
///
/// The protocol (nested cross-validation, random hyperparameter search, 20,000-episode
/// agents) is identical at every budget; only the counts change. The paper-scale budget
/// reproduces the published setup; the laptop and test budgets shrink it so the full
/// pipeline runs in minutes or seconds respectively (see "Reproducing the experiments"
/// in the README and the `uerl-bench` figure binaries).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EvalBudget {
    /// RL training episodes per agent.
    pub rl_episodes: usize,
    /// Hyperparameter configurations in the broad random-search round.
    pub hyper_initial: usize,
    /// Hyperparameter configurations in the narrowed second round.
    pub hyper_refined: usize,
    /// Trees in the random-forest baseline.
    pub rf_trees: usize,
    /// Number of parts (and splits) of the time-series nested cross-validation.
    pub cv_parts: usize,
    /// Candidate thresholds scanned when giving SC20-RF its optimal threshold.
    pub threshold_grid: usize,
}

impl EvalBudget {
    /// The paper's budget.
    pub fn paper() -> Self {
        Self {
            rl_episodes: 20_000,
            hyper_initial: 60,
            hyper_refined: 20,
            rf_trees: 100,
            cv_parts: 6,
            threshold_grid: 41,
        }
    }

    /// A budget that completes the full pipeline on a laptop in minutes.
    pub fn laptop() -> Self {
        Self {
            rl_episodes: 400,
            hyper_initial: 3,
            hyper_refined: 1,
            rf_trees: 40,
            cv_parts: 6,
            threshold_grid: 21,
        }
    }

    /// A tiny budget for unit and integration tests (seconds).
    pub fn tiny() -> Self {
        Self {
            rl_episodes: 20,
            hyper_initial: 1,
            hyper_refined: 0,
            rf_trees: 8,
            cv_parts: 3,
            threshold_grid: 6,
        }
    }
}

/// Everything an experiment needs: the preprocessed error log, the job log, the
/// mitigation configuration, the budget and the master seed.
#[derive(Debug, Clone)]
pub struct ExperimentContext {
    /// The preprocessed (retirement-filtered, burst-reduced) error log.
    pub error_log: ErrorLog,
    /// Per-node timelines of the preprocessed log.
    pub timelines: TimelineSet,
    /// The job accounting log.
    pub job_log: JobLog,
    /// Mitigation cost and restartability.
    pub mitigation: MitigationConfig,
    /// Compute budget.
    pub budget: EvalBudget,
    /// Master seed (log generation, job sequences, training).
    pub seed: u64,
    /// Scenario label ("MN/All", "MN/A", ...).
    pub label: String,
}

impl ExperimentContext {
    /// Build a context from explicit logs.
    pub fn from_logs(
        error_log: ErrorLog,
        job_log: JobLog,
        mitigation: MitigationConfig,
        budget: EvalBudget,
        seed: u64,
        label: impl Into<String>,
    ) -> Self {
        let preprocessed = preprocess(&error_log);
        let timelines = TimelineSet::from_log(&preprocessed);
        Self {
            error_log: preprocessed,
            timelines,
            job_log,
            mitigation,
            budget,
            seed,
            label: label.into(),
        }
    }

    /// A small synthetic context for tests and examples: a dense-fault fleet over a few
    /// months, so every cross-validation part contains errors.
    pub fn synthetic_small(nodes: u32, days: i64, budget: EvalBudget, seed: u64) -> Self {
        let error_log =
            TraceGenerator::new(SyntheticLogConfig::small(nodes, days, seed)).generate();
        let job_log =
            JobTraceGenerator::new(JobLogConfig::small(nodes.max(16), days.min(60), seed))
                .generate();
        Self::from_logs(
            error_log,
            job_log,
            MitigationConfig::paper_default(),
            budget,
            seed,
            "Synthetic/Small",
        )
    }

    /// A copy with a different mitigation cost (Figure 3's 2 / 5 / 10 node-minutes).
    pub fn with_mitigation_cost_minutes(&self, minutes: f64) -> Self {
        let mut ctx = self.clone();
        ctx.mitigation = ctx.mitigation.with_cost_minutes(minutes);
        ctx
    }

    /// A copy restricted to the nodes of one DRAM manufacturer (Figure 5's MN/A, MN/B,
    /// MN/C scenarios). The job log is unchanged: the workload is manufacturer-agnostic.
    pub fn restricted_to_manufacturer(&self, manufacturer: Manufacturer) -> Self {
        let error_log = self.error_log.restrict_to_manufacturer(manufacturer);
        let timelines = TimelineSet::from_log(&error_log);
        Self {
            error_log,
            timelines,
            job_log: self.job_log.clone(),
            mitigation: self.mitigation,
            budget: self.budget,
            seed: self.seed,
            label: format!("MN/{manufacturer}"),
        }
    }

    /// The job sampler for this context, optionally with a job-size scaling factor
    /// (Figure 7).
    pub fn job_sampler(&self, size_scaling: f64) -> NodeJobSampler {
        NodeJobSampler::from_log(&self.job_log).with_size_scaling(size_scaling)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> ExperimentContext {
        ExperimentContext::synthetic_small(40, 90, EvalBudget::tiny(), 31)
    }

    #[test]
    fn budgets_scale_down_monotonically() {
        let paper = EvalBudget::paper();
        let laptop = EvalBudget::laptop();
        let tiny = EvalBudget::tiny();
        assert!(paper.rl_episodes > laptop.rl_episodes);
        assert!(laptop.rl_episodes > tiny.rl_episodes);
        assert_eq!(paper.cv_parts, 6);
        assert_eq!(paper.hyper_initial, 60);
    }

    #[test]
    fn synthetic_context_is_preprocessed_and_labelled() {
        let ctx = ctx();
        assert_eq!(ctx.label, "Synthetic/Small");
        assert!(!ctx.timelines.is_empty());
        assert!(
            ctx.timelines.total_fatal() > 0,
            "the test fleet must produce UEs"
        );
        // Burst reduction ran: no node has two fatal events within a week.
        for t in ctx.timelines.timelines() {
            let fatal: Vec<_> = t.events().iter().filter(|e| e.fatal).collect();
            for pair in fatal.windows(2) {
                assert!(pair[1].time.delta_secs(pair[0].time) > uerl_trace::types::SimTime::WEEK);
            }
        }
    }

    #[test]
    fn mitigation_cost_override() {
        let base = ctx();
        let expensive = base.with_mitigation_cost_minutes(10.0);
        assert_eq!(expensive.mitigation.mitigation_cost_node_minutes, 10.0);
        assert_eq!(base.mitigation.mitigation_cost_node_minutes, 2.0);
    }

    #[test]
    fn manufacturer_restriction_partitions_the_fleet() {
        let base = ctx();
        let total_nodes: usize = Manufacturer::ALL
            .iter()
            .map(|&m| {
                base.restricted_to_manufacturer(m)
                    .error_log
                    .fleet()
                    .node_count()
            })
            .sum();
        assert_eq!(total_nodes, base.error_log.fleet().node_count());
        let a = base.restricted_to_manufacturer(Manufacturer::A);
        assert_eq!(a.label, "MN/A");
        assert!(a.timelines.len() <= base.timelines.len());
    }

    #[test]
    fn job_sampler_respects_scaling() {
        let ctx = ctx();
        assert_eq!(ctx.job_sampler(1.0).size_scaling(), 1.0);
        assert_eq!(ctx.job_sampler(10.0).size_scaling(), 10.0);
    }
}

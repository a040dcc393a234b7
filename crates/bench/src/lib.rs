//! Shared helpers for the UERL benchmark suite and the figure-regeneration binaries.
//!
//! Every paper artefact (Figure 3–7, Table 2) has a binary that prints the regenerated
//! table/series; `perf_report` times the same pipelines, one stage per artefact. Both
//! use the same scale selection so results are comparable:
//!
//! * `small` (default) — a dense-fault ~40-node fleet over ~3 months, tiny training
//!   budget; finishes in seconds and reproduces the qualitative shape.
//! * `laptop` — a few hundred nodes over a year with the laptop budget; minutes.
//! * `paper` — the full 3056-node, two-year MareNostrum reconstruction with the paper's
//!   training budget; hours. Only meant for a dedicated run.
//!
//! Select with the `UERL_SCALE` environment variable (`small` / `laptop` / `paper`).

use uerl_eval::scenario::{EvalBudget, ExperimentContext};
use uerl_jobs::{JobLogConfig, JobTraceGenerator};
use uerl_trace::generator::{SyntheticLogConfig, TraceGenerator};

/// The evaluation scale selected through `UERL_SCALE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-long smoke scale (default).
    Small,
    /// Minutes-long laptop scale.
    Laptop,
    /// The full paper-scale reconstruction.
    Paper,
}

impl Scale {
    /// Read the scale from the `UERL_SCALE` environment variable. Like every `UERL_*`
    /// knob this is strict: an unrecognised value panics instead of silently running
    /// the small scale under a label the operator never asked for.
    pub fn from_env() -> Self {
        uerl_core::knobs::env_choice(
            "UERL_SCALE",
            &[
                ("", Scale::Small),
                ("small", Scale::Small),
                ("laptop", Scale::Laptop),
                ("paper", Scale::Paper),
            ],
            Scale::Small,
        )
    }

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Small => "small",
            Scale::Laptop => "laptop",
            Scale::Paper => "paper",
        }
    }
}

/// Build the experiment context for a scale.
pub fn context(scale: Scale, seed: u64) -> ExperimentContext {
    match scale {
        Scale::Small => ExperimentContext::synthetic_small(40, 90, EvalBudget::tiny(), seed),
        Scale::Laptop => {
            // A mid-size fleet over one year with the laptop budget: large enough that
            // every cross-validation part holds errors, small enough for minutes-long runs.
            let error_log =
                TraceGenerator::new(SyntheticLogConfig::small(300, 365, seed)).generate();
            let job_log = JobTraceGenerator::new(JobLogConfig::small(512, 180, seed)).generate();
            ExperimentContext::from_logs(
                error_log,
                job_log,
                uerl_core::MitigationConfig::paper_default(),
                EvalBudget::laptop(),
                seed,
                "Synthetic/Laptop",
            )
        }
        Scale::Paper => ExperimentContext::marenostrum(EvalBudget::paper(), seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_is_small() {
        assert_eq!(Scale::from_env().label(), "small");
    }

    #[test]
    fn small_context_builds_quickly_and_has_errors() {
        let ctx = context(Scale::Small, 1);
        assert!(!ctx.timelines.is_empty());
        assert!(ctx.timelines.total_fatal() > 0);
    }
}

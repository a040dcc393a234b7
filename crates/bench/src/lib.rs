//! Shared helpers for the UERL benchmark suite and the figure-regeneration binaries.
//!
//! Every paper artefact (Figure 3–7, Table 2) has an entry in [`ARTEFACTS`] and a binary
//! of the same name that prints the regenerated table/series; `perf_report` times the
//! same pipelines, one stage per artefact. Both use the same scale selection so results
//! are comparable:
//!
//! * `small` (default) — a dense-fault ~40-node fleet over ~3 months, tiny training
//!   budget; finishes in seconds and reproduces the qualitative shape.
//! * `laptop` — a few hundred nodes over a year with the laptop budget; minutes.
//! * `paper` — the full 3056-node, two-year MareNostrum reconstruction with the paper's
//!   training budget; hours. Only meant for a dedicated run.
//!
//! Select with the `UERL_SCALE` environment variable (`small` / `laptop` / `paper`).

use uerl_eval::experiments::{fig3, fig4, fig5, fig6, fig7, table2};
use uerl_eval::scenario::{EvalBudget, ExperimentContext};
use uerl_jobs::{JobLog, JobLogConfig, JobTraceGenerator};
use uerl_trace::generator::{SyntheticLogConfig, TraceGenerator};
use uerl_trace::log::ErrorLog;

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
        uerl_obs::knob::env_choice(
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

/// The raw error log and job log of a scale.
pub fn logs(scale: Scale, seed: u64) -> (ErrorLog, JobLog) {
    match scale {
        Scale::Small => (
            TraceGenerator::new(SyntheticLogConfig::small(40, 90, seed)).generate(),
            JobTraceGenerator::new(JobLogConfig::small(40, 60, seed)).generate(),
        ),
        // A mid-size fleet over one year: large enough that every cross-validation part
        // holds errors, small enough for minutes-long runs.
        Scale::Laptop => (
            TraceGenerator::new(SyntheticLogConfig::small(300, 365, seed)).generate(),
            JobTraceGenerator::new(JobLogConfig::small(512, 180, seed)).generate(),
        ),
        // The 3056-node, two-year reconstructed error log and the 3456-node, one-year
        // job log.
        Scale::Paper => (
            TraceGenerator::new(SyntheticLogConfig::marenostrum3(seed)).generate(),
            JobTraceGenerator::new(JobLogConfig::marenostrum4(seed)).generate(),
        ),
    }
}

/// Build the experiment context for a scale.
pub fn context(scale: Scale, seed: u64) -> ExperimentContext {
    let (error_log, job_log) = logs(scale, seed);
    let (budget, label) = match scale {
        Scale::Small => (EvalBudget::tiny(), "Synthetic/Small"),
        Scale::Laptop => (EvalBudget::laptop(), "Synthetic/Laptop"),
        Scale::Paper => (EvalBudget::paper(), "MN/All"),
    };
    ExperimentContext::from_logs(
        error_log,
        job_log,
        uerl_core::MitigationConfig::paper_default(),
        budget,
        seed,
        label,
    )
}

/// Runs one paper artefact's pipeline on a context and renders its table.
pub type Render = fn(&ExperimentContext) -> String;

/// The six paper artefacts with the paper's arguments, keyed by the name of the binary
/// that prints each (also its `perf_report` stage).
pub const ARTEFACTS: [(&str, Render); 6] = [
    ("fig3_total_cost", |ctx| {
        fig3::render(&fig3::run(ctx, &[2.0, 5.0, 10.0]))
    }),
    ("fig4_cross_validation", |ctx| fig4::render(&fig4::run(ctx))),
    ("fig5_manufacturers", |ctx| fig5::render(&fig5::run(ctx))),
    ("fig6_agent_behavior", |ctx| fig6::run(ctx, 12, 10).render()),
    ("fig7_job_scaling", |ctx| {
        fig7::render(&fig7::run(ctx, &[0.1, 0.3, 1.0, 3.0, 10.0]))
    }),
    ("table2_ml_metrics", |ctx| table2::run(ctx).render()),
];

/// The body of an artefact binary: build the `UERL_SCALE` context and print the named
/// artefact of [`ARTEFACTS`] on stdout.
pub fn print_artefact(name: &str) {
    let (_, render) = ARTEFACTS
        .iter()
        .find(|(artefact, _)| *artefact == name)
        .unwrap_or_else(|| panic!("no paper artefact is named {name:?}"));
    let scale = Scale::from_env();
    let ctx = context(scale, 2024);
    let tag = name.split('_').next().unwrap_or(name);
    eprintln!("[{tag}] scale={} scenario={}", scale.label(), ctx.label);
    println!("{}", render(&ctx));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_is_small() {
        assert_eq!(Scale::from_env().label(), "small");
    }

    #[test]
    fn every_artefact_has_a_binary_of_its_name() {
        let bins = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
        for (name, _) in ARTEFACTS {
            assert!(bins.join(format!("{name}.rs")).exists(), "no binary {name}");
        }
    }

    #[test]
    fn small_context_builds_quickly_and_has_errors() {
        let ctx = context(Scale::Small, 1);
        assert!(!ctx.timelines.is_empty());
        assert!(ctx.timelines.total_fatal() > 0);
    }
}

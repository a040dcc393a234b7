//! What every workload shares: run parameters, the result report, the fleet set-up and
//! the repetition helpers that make each timed phase long.

use std::time::Instant;
use uerl_core::{MitigationConfig, MitigationPolicy, TimelineSet};
use uerl_eval::{run_policy, PolicyRun};
use uerl_jobs::{sacct, NodeJobSampler};
use uerl_trace::reduction::preprocess;
use uerl_trace::{mcelog, FleetConfig};

use crate::inputs::InputText;
use crate::reference::{Reference, ScaledClock};
use crate::spans::Tracer;
use crate::stats::median;

/// Set-ups repeat until they have taken this long, and at least [`MIN_SETUPS`] times;
/// `setup_s` is their median.
pub const SETUP_SECONDS: f64 = 2.0;
pub const MIN_SETUPS: usize = 3;

/// One run's parameters.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    pub seed: u64,
    /// Minimum wall time of the main timed phase; the secondary phase gets half.
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

impl Run {
    /// The reference kernel `kernel` builds, which the untraced run scales its times
    /// by; the traced run reports plain wall times.
    pub fn reference(&self, kernel: fn() -> Reference) -> Option<Reference> {
        (!self.trace).then(kernel)
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// A run's metrics, operation counts and human-readable details.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub lines: Vec<String>,
    pub tracer: Tracer,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Count `attempted` operations of which `failed` failed.
    pub fn ops(&mut self, what: &str, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
        self.note(format!("ops {what}: attempted={attempted} failed={failed}"));
    }

    /// Count one checked operation.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.note(format!("FAILED check: {what}"));
        }
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }
}

/// The parsed and indexed fleet every workload starts from.
pub struct Fleet {
    pub timelines: TimelineSet,
    pub sampler: NodeJobSampler,
}

/// Parse and index the input texts: the set-up steps every workload shares, each in
/// its own span. Intermediate logs are dropped as soon as the next step has read them.
pub fn load_fleet(
    text: &InputText,
    fleet: FleetConfig,
    tracer: &mut Tracer,
) -> Result<Fleet, String> {
    let raw = tracer
        .span("trace.mcelog_parse", || {
            mcelog::from_text(&text.mcelog, fleet)
        })
        .map_err(|e| format!("mcelog text: {e}"))?;
    let log = tracer.span("trace.preprocess", || preprocess(&raw));
    drop(raw);
    let timelines = tracer.span("core.timelines_from_log", || TimelineSet::from_log(&log));
    drop(log);
    let sampler = tracer
        .span("jobs.sacct_parse", || {
            sacct::from_text(&text.sacct).map(|jobs| NodeJobSampler::from_log(&jobs))
        })
        .map_err(|e| format!("sacct text: {e}"))?;
    Ok(Fleet { timelines, sampler })
}

/// Run `setup` repeatedly, each inside its own root `setup` span, keep the last result
/// and report the set-up. The previous result is dropped before the next set-up starts,
/// so memory holds one set-up at a time. With a reference, each set-up's time is scaled
/// by the reference speed sampled around it.
pub fn repeat_setup<T>(
    report: &mut Report,
    reference: Option<&Reference>,
    mut setup: impl FnMut(&mut Tracer) -> Result<T, String>,
) -> Result<T, String> {
    let mut ids = Vec::new();
    let mut speeds = Vec::new();
    let mut last = None;
    let start = Instant::now();
    let mut clock = ScaledClock::start(reference);
    while ids.len() < MIN_SETUPS || start.elapsed().as_secs_f64() < SETUP_SECONDS {
        drop(last.take());
        let id = report.tracer.enter("setup");
        let value = setup(&mut report.tracer)?;
        report.tracer.exit(id);
        speeds.push(clock.lap());
        ids.push(id);
        last = Some(value);
    }
    report_setup(report, &ids, &speeds);
    Ok(last.expect("at least one set-up"))
}

/// Report the set-up: `setup_s` in the untimed run, the median of the scaled set-up
/// times; the per-call spans in the traced run, each the median over the set-ups.
fn report_setup(report: &mut Report, setup_ids: &[usize], speeds: &[f64]) {
    let tracer = &report.tracer;
    let wall: Vec<f64> = setup_ids
        .iter()
        .map(|&id| tracer.get(id).duration_s())
        .collect();
    let durations: Vec<f64> = wall.iter().zip(speeds).map(|(s, v)| s * v).collect();
    let setup_s = median(&durations);
    let spans: Vec<(String, f64)> = tracer
        .children(setup_ids[0])
        .map(|span| {
            let values: Vec<f64> = setup_ids
                .iter()
                .map(|&id| tracer.child_s(id, &span.name))
                .collect();
            (span.name.clone(), median(&values))
        })
        .collect();
    let (fastest, slowest) = durations
        .iter()
        .fold((f64::MAX, 0.0_f64), |(lo, hi), &d| (lo.min(d), hi.max(d)));
    let mut line = format!(
        "setup: {setup_s:.4} s scaled, {:.4} s wall (median of {} set-ups, {fastest:.4} to {slowest:.4} s scaled); spans (s):",
        median(&wall),
        durations.len()
    );
    for (name, secs) in &spans {
        line.push_str(&format!(" {name}={secs:.4}"));
    }
    report.note(line);
    report.metric("setup_s", setup_s, "s");
    for (metric, span) in [
        ("trace.mcelog_parse_s", "trace.mcelog_parse"),
        ("trace.preprocess_s", "trace.preprocess"),
        ("core.timelines_from_log_s", "core.timelines_from_log"),
        ("jobs.sacct_parse_s", "jobs.sacct_parse"),
        ("serve.merge_stream_s", "serve.merge_stream"),
    ] {
        let secs = spans
            .iter()
            .find(|(name, _)| name == span)
            .map_or(0.0, |(_, s)| *s);
        report.metric(metric, secs, "s");
    }
}

/// Repeat `unit` until at least `seconds` of wall time have passed, at least once.
pub fn time_boxed(seconds: f64, mut unit: impl FnMut()) {
    let start = Instant::now();
    loop {
        unit();
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
}

/// Run `f` on a dedicated pool of `threads` workers.
pub fn on_threads<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> Result<R, String> {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .map_err(|e| format!("thread pool: {e:?}"))?;
    Ok(pool.install(f))
}

/// Totals as comparable bits: decisions split, fatal count and both costs.
pub type TotalsBits = [u64; 5];

pub fn totals_bits(
    mitigations: u64,
    non_mitigations: u64,
    ue_count: u64,
    mitigation_cost: f64,
    ue_cost: f64,
) -> TotalsBits {
    [
        mitigations,
        non_mitigations,
        ue_count,
        mitigation_cost.to_bits(),
        ue_cost.to_bits(),
    ]
}

pub fn run_bits(r: &PolicyRun) -> TotalsBits {
    totals_bits(
        r.mitigations,
        r.non_mitigations,
        r.ue_count,
        r.mitigation_cost,
        r.ue_cost,
    )
}

/// Offline replay: one unit of `run_policy` calls, timed as `eval.run_policy_s`. Its
/// runs are the oracle the checks compare served and trained results with.
pub fn replay_phase(
    report: &mut Report,
    unit: impl FnOnce(&mut Report) -> Vec<PolicyRun>,
) -> Vec<PolicyRun> {
    let start = Instant::now();
    let runs = unit(report);
    let secs = start.elapsed().as_secs_f64();
    let decisions: u64 = runs.iter().map(|r| r.mitigations + r.non_mitigations).sum();
    report.note(format!("replay: {decisions} decisions in {secs:.4} s"));
    report.metric("eval.run_policy_s", secs, "s");
    runs
}

/// One labelled span per `run_policy` call.
pub fn traced_run_policy<P: MitigationPolicy + Sync + ?Sized>(
    report: &mut Report,
    policy: &P,
    timelines: &TimelineSet,
    fleet: &Fleet,
    seed: u64,
) -> PolicyRun {
    let label = format!("eval.run_policy.{}", policy.name());
    report.tracer.span(&label, || {
        run_policy(
            policy,
            timelines,
            &fleet.sampler,
            MitigationConfig::paper_default(),
            seed,
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use uerl_trace::{SyntheticLogConfig, TraceGenerator};

    /// Set-up spans sum to the set-up time: the per-call spans cover all of it but
    /// glue (two drops and the moves between calls), within 10% or 5 ms.
    #[test]
    fn setup_spans_sum_to_setup_time() {
        let log = TraceGenerator::new(SyntheticLogConfig::small(40, 120, 3)).generate();
        let text = InputText::render(&log, 3);
        let mut report = Report::default();
        let fleet = repeat_setup(&mut report, None, |t| {
            load_fleet(&text, log.fleet().clone(), t)
        })
        .unwrap();
        assert!(!fleet.timelines.is_empty());
        let ids: Vec<usize> = report
            .tracer
            .spans()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == "setup")
            .map(|(id, _)| id)
            .collect();
        assert!(ids.len() >= MIN_SETUPS);
        for &id in &ids {
            let total = report.tracer.get(id).duration_ns();
            let spans: u64 = report.tracer.children(id).map(|s| s.duration_ns()).sum();
            assert!(spans <= total);
            let glue = total - spans;
            assert_eq!(glue, report.tracer.self_ns(id));
            assert!(
                glue * 10 <= total || glue <= 5_000_000,
                "unattributed set-up time {glue} ns of {total} ns"
            );
        }
        assert_eq!(report.metrics[0].name, "setup_s");
        assert!(report.metrics.iter().all(|m| m.value >= 0.0));
    }
}

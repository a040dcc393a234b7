//! Exactness of the serving metrics: with the gate open, the event-time instruments
//! must count the served stream *exactly* (not approximately), be bit-identical
//! across thread counts, and record strictly nothing when the gate is closed.
//!
//! This suite lives in its own integration-test binary on purpose: the metrics
//! registry and the `UERL_METRICS` gate are process-global, so delta assertions are
//! only meaningful in a process whose gate this suite alone controls (the
//! `serving_parity` binary flips the gate too, and CI runs it under
//! `UERL_METRICS=on`). Within this process the tests serialize on a mutex.

use std::sync::{Arc, Mutex, MutexGuard};

use uerl::core::event_stream::TimelineSet;
use uerl::core::policies::{AlwaysMitigate, NeverMitigate};
use uerl::core::MitigationConfig;
use uerl::jobs::schedule::NodeJobSampler;
use uerl::jobs::{JobLogConfig, JobTraceGenerator};
use uerl::obs::{registry, set_enabled, MetricsSnapshot};
use uerl::serve::{merged_fleet_stream, FleetServer, ServeConfig, ServeReport, ShadowPolicy};
use uerl::trace::generator::{SyntheticLogConfig, TraceGenerator};
use uerl::trace::reduction::preprocess;

const SEED: u64 = 2025;

/// Serializes gate manipulation across the binary's test threads.
static GATE_LOCK: Mutex<()> = Mutex::new(());

fn lock_gate() -> MutexGuard<'static, ()> {
    GATE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn fixture() -> (TimelineSet, NodeJobSampler) {
    let log = TraceGenerator::new(SyntheticLogConfig::small(30, 60, 17)).generate();
    let timelines = TimelineSet::from_log(&preprocess(&log));
    let jobs = JobTraceGenerator::new(JobLogConfig::small(64, 30, 17)).generate();
    (timelines, NodeJobSampler::from_log(&jobs))
}

fn serve_fixture(
    timelines: &TimelineSet,
    sampler: &NodeJobSampler,
    shadows: Vec<ShadowPolicy>,
) -> ServeReport {
    let config = ServeConfig::for_timelines(timelines, MitigationConfig::paper_default(), SEED)
        .with_batch_size(16);
    let mut server =
        FleetServer::new(config, AlwaysMitigate, sampler.clone()).with_shadow_policies(shadows);
    let mut decisions = Vec::new();
    server
        .ingest_all(merged_fleet_stream(timelines), &mut decisions)
        .expect("the merged stream is time-ordered");
    server.report()
}

fn counter(snap: &MetricsSnapshot, name: &str, labels: &[(&str, &str)]) -> u64 {
    snap.counter(name, labels)
        .unwrap_or_else(|| panic!("counter {name} {labels:?} not in snapshot"))
}

fn approx_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()))
}

#[test]
fn an_open_gate_counts_the_served_stream_exactly() {
    let _guard = lock_gate();
    let (timelines, sampler) = fixture();
    set_enabled(true);
    // Registration is lazy: when this test takes the gate lock first, no other test
    // has served yet, so force it or the `before` snapshot lacks the instruments.
    uerl::serve::serve_metrics();
    let before = registry().snapshot();
    let report = serve_fixture(&timelines, &sampler, Vec::new());
    let after = registry().snapshot();
    set_enabled(false);

    let delta = |name: &str, labels: &[(&str, &str)]| {
        counter(&after, name, labels) - counter(&before, name, labels)
    };
    assert_eq!(delta("uerl_serve_events_total", &[]), report.events);
    assert_eq!(
        delta("uerl_serve_decisions_total", &[("action", "mitigate")]),
        report.mitigations
    );
    assert_eq!(
        delta("uerl_serve_decisions_total", &[("action", "none")]),
        report.non_mitigations
    );
    assert_eq!(delta("uerl_serve_out_of_order_total", &[]), 0);

    // The cost gauges accumulate in served order while the report sums per node in
    // node-id order — exactly equal in real arithmetic, so compare approximately.
    let mitigation_gauge = after
        .gauge("uerl_serve_mitigation_cost_node_hours", &[])
        .expect("mitigation cost gauge");
    let ue_gauge = after
        .gauge("uerl_serve_ue_cost_node_hours", &[])
        .expect("UE cost gauge");
    assert!(
        approx_eq(mitigation_gauge, report.mitigation_cost),
        "gauge {mitigation_gauge} vs report {}",
        report.mitigation_cost
    );
    assert!(
        approx_eq(ue_gauge, report.ue_cost),
        "gauge {ue_gauge} vs report {}",
        report.ue_cost
    );
}

#[test]
fn a_closed_gate_records_nothing() {
    let _guard = lock_gate();
    let (timelines, sampler) = fixture();
    set_enabled(false);
    // Instrument *registration* is lazy and happens even with the gate closed (the
    // handles must exist to be gated); force it so the snapshots compare recording
    // only, which is what the gate controls.
    uerl::serve::serve_metrics();
    let before = registry().snapshot();
    let report = serve_fixture(&timelines, &sampler, Vec::new());
    let after = registry().snapshot();

    assert!(report.events > 0, "the fixture must serve events");
    assert_eq!(
        before.fingerprint(),
        after.fingerprint(),
        "a closed gate must leave the event-time fingerprint untouched"
    );
    assert_eq!(
        counter(&before, "uerl_serve_events_total", &[]),
        counter(&after, "uerl_serve_events_total", &[]),
    );
    // Wall-clock instruments are gated too: serving must not even read the clock.
    assert_eq!(before.to_json(), after.to_json());
}

#[test]
fn event_time_metrics_are_bit_identical_across_thread_counts() {
    let _guard = lock_gate();
    let (timelines, sampler) = fixture();
    let shadows =
        || -> Vec<ShadowPolicy> { vec![Arc::new(NeverMitigate), Arc::new(AlwaysMitigate)] };

    set_enabled(true);
    let mut runs = Vec::new();
    for threads in [1, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        let before = registry().snapshot();
        pool.install(|| serve_fixture(&timelines, &sampler, shadows()));
        let after = registry().snapshot();
        let deltas: Vec<u64> = [
            counter(&after, "uerl_serve_events_total", &[])
                - counter(&before, "uerl_serve_events_total", &[]),
            counter(
                &after,
                "uerl_serve_decisions_total",
                &[("action", "mitigate")],
            ) - counter(
                &before,
                "uerl_serve_decisions_total",
                &[("action", "mitigate")],
            ),
            counter(&after, "uerl_serve_decisions_total", &[("action", "none")])
                - counter(&before, "uerl_serve_decisions_total", &[("action", "none")]),
            counter(&after, "uerl_serve_duplicate_rounds_total", &[])
                - counter(&before, "uerl_serve_duplicate_rounds_total", &[]),
        ]
        .to_vec();
        // Gauges are absolute (set from the deterministic running totals), so their
        // post-run values must agree to the bit across thread counts.
        let gauges: Vec<u64> = [
            "uerl_serve_mitigation_cost_node_hours",
            "uerl_serve_ue_cost_node_hours",
            "uerl_serve_shadow_regret_node_hours",
        ]
        .iter()
        .map(|name| after.gauge(name, &[]).expect("cost gauge").to_bits())
        .collect();
        let shadow_gauges: Vec<u64> = ["Never-mitigate", "Always-mitigate"]
            .iter()
            .map(|policy| {
                after
                    .gauge(
                        "uerl_serve_shadow_total_cost_node_hours",
                        &[("policy", policy)],
                    )
                    .expect("shadow cost gauge")
                    .to_bits()
            })
            .collect();
        runs.push((deltas, gauges, shadow_gauges));
    }
    set_enabled(false);

    assert_eq!(
        runs[0], runs[1],
        "event-time metrics diverged across thread counts"
    );
}

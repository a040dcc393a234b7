//! Serving-side metrics: the instruments the [`crate::server::FleetServer`] feeds.
//!
//! Two classes, per the repository's inertness contract:
//!
//! * **Event-time** instruments derive only from the served event stream (event
//!   counts, decision counts, duplicate-timestamp rounds, accumulated Equation 3
//!   costs, shadow-policy totals). They are bit-identical at any thread count and
//!   batch size — except `uerl_serve_batch_size`, which is deterministic
//!   *per configuration* (the batch boundaries are part of the configuration) — and
//!   they participate in the snapshot fingerprint.
//! * **Wall-clock** instruments (tick durations) vary run to run and are excluded
//!   from the fingerprint.
//!
//! Recording is gated inside `uerl-obs` by `UERL_METRICS`; with the gate closed every
//! hook is one relaxed atomic load and no clock is ever read.

use std::sync::{Arc, OnceLock};
use uerl_obs::{registry, Counter, Gauge, Histogram, MetricClass};

/// Handles to the serving instruments (registered once per process).
pub struct ServeMetrics {
    /// Wall-clock duration of tick flushes, in nanoseconds (sampled: one tick in
    /// eight is timed, so the two clock reads stay off the single-event-tick hot
    /// path).
    pub tick_duration_nanos: Arc<Histogram>,
    /// Events per flushed tick.
    pub tick_events: Arc<Histogram>,
    /// Decision requests per micro-batch forward pass.
    pub batch_size: Arc<Histogram>,
    /// Extra same-timestamp rounds served beyond the first of each tick.
    pub duplicate_rounds: Arc<Counter>,
    /// Events rejected for violating the event-time ordering contract.
    pub out_of_order: Arc<Counter>,
    /// Events accepted into ticks.
    pub events: Arc<Counter>,
    /// Mitigation decisions served.
    pub decisions_mitigate: Arc<Counter>,
    /// "Do nothing" decisions served.
    pub decisions_none: Arc<Counter>,
    /// Accumulated served mitigation cost in node-hours (training cost included).
    pub served_mitigation_cost: Arc<Gauge>,
    /// Accumulated served UE cost in node-hours (Equation 3 accruals).
    pub served_ue_cost: Arc<Gauge>,
    /// Served total cost minus the best shadow policy's total cost (negative when the
    /// served policy is beating every shadow).
    pub shadow_regret: Arc<Gauge>,
}

/// The process-wide serving instruments.
pub fn serve_metrics() -> &'static ServeMetrics {
    static METRICS: OnceLock<ServeMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = registry();
        ServeMetrics {
            tick_duration_nanos: r.histogram(
                "uerl_serve_tick_duration_nanos",
                "Wall-clock duration of each tick flush",
                &[],
                MetricClass::WallClock,
            ),
            tick_events: r.histogram(
                "uerl_serve_tick_events",
                "Events per flushed tick",
                &[],
                MetricClass::EventTime,
            ),
            batch_size: r.histogram(
                "uerl_serve_batch_size",
                "Decision requests per micro-batch forward pass",
                &[],
                MetricClass::EventTime,
            ),
            duplicate_rounds: r.counter(
                "uerl_serve_duplicate_rounds_total",
                "Same-timestamp rounds served beyond the first of each tick",
                &[],
                MetricClass::EventTime,
            ),
            out_of_order: r.counter(
                "uerl_serve_out_of_order_total",
                "Events rejected for violating event-time ordering",
                &[],
                MetricClass::EventTime,
            ),
            events: r.counter(
                "uerl_serve_events_total",
                "Events accepted into ticks",
                &[],
                MetricClass::EventTime,
            ),
            decisions_mitigate: r.counter(
                "uerl_serve_decisions_total",
                "Decisions served, by action",
                &[("action", "mitigate")],
                MetricClass::EventTime,
            ),
            decisions_none: r.counter(
                "uerl_serve_decisions_total",
                "Decisions served, by action",
                &[("action", "none")],
                MetricClass::EventTime,
            ),
            served_mitigation_cost: r.gauge(
                "uerl_serve_mitigation_cost_node_hours",
                "Accumulated served mitigation cost (training cost included)",
                &[],
                MetricClass::EventTime,
            ),
            served_ue_cost: r.gauge(
                "uerl_serve_ue_cost_node_hours",
                "Accumulated served UE cost (Equation 3 accruals)",
                &[],
                MetricClass::EventTime,
            ),
            shadow_regret: r.gauge(
                "uerl_serve_shadow_regret_node_hours",
                "Served total cost minus the best shadow policy's total cost",
                &[],
                MetricClass::EventTime,
            ),
        }
    })
}

/// Register (or look up) the cumulative-total-cost gauge of one shadow policy.
pub fn shadow_cost_gauge(policy: &str) -> Arc<Gauge> {
    registry().gauge(
        "uerl_serve_shadow_total_cost_node_hours",
        "Cumulative counterfactual total cost of a shadow policy",
        &[("policy", policy)],
        MetricClass::EventTime,
    )
}

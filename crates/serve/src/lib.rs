//! # uerl-serve
//!
//! Online fleet-serving subsystem: the deployment half of the paper's story. The
//! offline crates replay historical timelines through the evaluator; this crate runs
//! the same decision process **live** — a long-running service that ingests the merged
//! event-time stream of an entire fleet's DRAM error events and answers, at every
//! non-fatal event, whether to mitigate.
//!
//! * [`server`] — the [`FleetServer`]: event-time ticks, one session map with a
//!   serial absorb in node-id order, **micro-batched inference** (a tick's decision
//!   requests are stacked into one batched forward pass through
//!   [`uerl_core::policy::MitigationPolicy::decide_batch`]), and the out-of-order
//!   ingestion guard.
//! * [`metrics`] — the serving instruments (tick tracing, decision counters,
//!   accumulated Equation 3 costs) fed into the process-wide [`uerl_obs`] registry,
//!   plus **shadow-policy scoring**: baseline policies scored counterfactually on the
//!   identical served stream, with a live cost-regret gauge
//!   ([`FleetServer::with_shadow_policies`]).
//!
//! Per-node state is the core crate's [`NodeSession`] — one session type, pushed by
//! both the offline environment cursor and this server. That is what carries the
//! repository's determinism contract: served decisions and accumulated
//! mitigation/UE cost are **bit-identical** to the offline evaluator's `run_policy`
//! rollout of the same timelines — at any micro-batch size, thread count and
//! record-retention mode. The serving-parity test suite and the
//! `serve_throughput` stage of `perf_report` pin this.
//!
//! Sessions are bounded: the feature history is an O(window) ring buffer and, under
//! the default [`RecordRetention::TotalsOnly`], the accounting keeps totals instead
//! of per-event logs — a node session does not grow with its event stream.

pub mod metrics;
pub mod server;

pub use metrics::{serve_metrics, ServeMetrics};
pub use server::{
    merged_fleet_stream, FleetServer, NodeServeReport, OutOfOrderEvent, ServeConfig, ServeReport,
    ServedDecision, ShadowPolicy, ShadowScore,
};
pub use uerl_core::session::{NodeSession, RecordRetention};

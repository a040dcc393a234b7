//! Training-loop metrics: instruments registered once in the global
//! [`uerl_obs::registry`] and shared by every agent in the process.
//!
//! Gradient updates, target-network syncs, the next-state rows each network forwards,
//! replay occupancy and the TD-error distribution are **event-time** (deterministic
//! given the seeded training sequence): they do not depend on wall clocks or
//! scheduling, so they participate in the snapshot fingerprint. The per-phase
//! durations of an update ([`UpdatePhase`]) are **wall-clock** and stay out of it. The
//! instruments are always registered; recording is gated inside `uerl-obs` by
//! `UERL_METRICS`, so with the gate closed each hook is one relaxed atomic load and no
//! clock is read.

use std::sync::{Arc, OnceLock};
use uerl_obs::{registry, Counter, Gauge, Histogram, MetricClass};

/// The phases of one [`crate::DqnAgent::train_step`], in the order they run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdatePhase {
    /// Prioritized draw of the batch, its rows copied into the state matrices.
    Sample,
    /// TD targets, the weighted loss and the action-gated `dL/dQ` matrix.
    Assemble,
    /// Target-network forward pass over the distinct next states that have no cached
    /// Q-values from the current target network (their slot was filled or overwritten
    /// since the last sync, or not sampled since it), and the cache refill.
    TargetNext,
    /// Online-network forward pass over the batch's distinct next states, one row per
    /// sampled non-terminal slot (the double-DQN argmax).
    OnlineNext,
    /// Online-network training forward pass over the states.
    ForwardTrain,
    /// Backward pass through the online network.
    Backward,
    /// Adam step over every parameter, gradients cleared.
    Adam,
    /// Priority refresh of the sampled slots.
    Priorities,
}

impl UpdatePhase {
    /// Every phase, in run order.
    pub const ALL: [UpdatePhase; 8] = [
        UpdatePhase::Sample,
        UpdatePhase::Assemble,
        UpdatePhase::TargetNext,
        UpdatePhase::OnlineNext,
        UpdatePhase::ForwardTrain,
        UpdatePhase::Backward,
        UpdatePhase::Adam,
        UpdatePhase::Priorities,
    ];

    /// The phase's `phase` label value.
    pub fn label(self) -> &'static str {
        match self {
            UpdatePhase::Sample => "sample",
            UpdatePhase::Assemble => "assemble",
            UpdatePhase::TargetNext => "target_next_forward",
            UpdatePhase::OnlineNext => "online_next_forward",
            UpdatePhase::ForwardTrain => "forward_train",
            UpdatePhase::Backward => "backward",
            UpdatePhase::Adam => "adam",
            UpdatePhase::Priorities => "priorities",
        }
    }
}

/// Handles to the training-side instruments.
pub struct RlMetrics {
    /// Gradient updates performed (`train_step` calls that sampled a batch).
    pub updates: Arc<Counter>,
    /// Target-network synchronisations.
    pub target_syncs: Arc<Counter>,
    /// Next-state rows forwarded through the online network (distinct non-terminal
    /// slots per batch).
    pub next_state_rows: Arc<Counter>,
    /// Next-state rows forwarded through the target network (distinct slots without
    /// cached target Q-values).
    pub target_rows: Arc<Counter>,
    /// Current replay-memory occupancy (transitions).
    pub replay_len: Arc<Gauge>,
    /// Distribution of |TD error| per replayed sample, recorded in micro-units
    /// (|error| × 1e6, rounded) so the log2 buckets resolve sub-1.0 errors.
    pub td_error_micros: Arc<Histogram>,
    /// Wall-clock nanoseconds of each update phase, indexed by `UpdatePhase as usize`.
    update_phase_nanos: [Arc<Histogram>; 8],
}

impl RlMetrics {
    /// The wall-clock histogram of one update phase; time a phase with
    /// `metrics().phase(p).span()`.
    pub fn phase(&self, phase: UpdatePhase) -> &Histogram {
        &self.update_phase_nanos[phase as usize]
    }
}

/// The process-wide training instruments (registered on first use).
pub fn metrics() -> &'static RlMetrics {
    static METRICS: OnceLock<RlMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = registry();
        RlMetrics {
            updates: r.counter(
                "uerl_rl_train_updates_total",
                "Gradient updates performed across all agents",
                &[],
                MetricClass::EventTime,
            ),
            target_syncs: r.counter(
                "uerl_rl_target_syncs_total",
                "Target-network synchronisations across all agents",
                &[],
                MetricClass::EventTime,
            ),
            next_state_rows: r.counter(
                "uerl_rl_next_state_rows_total",
                "Distinct next-state rows forwarded through the online network",
                &[],
                MetricClass::EventTime,
            ),
            target_rows: r.counter(
                "uerl_rl_target_rows_total",
                "Next-state rows forwarded through the target network",
                &[],
                MetricClass::EventTime,
            ),
            replay_len: r.gauge(
                "uerl_rl_replay_len",
                "Replay-memory occupancy after the most recent update",
                &[],
                MetricClass::EventTime,
            ),
            td_error_micros: r.histogram(
                "uerl_rl_td_error_micros",
                "Absolute TD error per replayed sample, in micro-units (|e| * 1e6)",
                &[],
                MetricClass::EventTime,
            ),
            update_phase_nanos: UpdatePhase::ALL.map(|phase| {
                r.histogram(
                    "uerl_rl_update_phase_nanos",
                    "Wall-clock duration of one train_step phase",
                    &[("phase", phase.label())],
                    MetricClass::WallClock,
                )
            }),
        }
    })
}

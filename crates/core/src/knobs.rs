//! Unified `UERL_*` environment-knob parsing for the crates above `uerl-core`.
//!
//! The parsers themselves live in [`uerl_obs::knob`] (the observability crate is the
//! workspace's dependency-free leaf, so even `uerl-rl` could use them); this module
//! re-exports them under the crate most consumers already depend on and adds the
//! gate accessor for the metrics knob. Knobs routed through here: `UERL_RETENTION`
//! ([`crate::session::RecordRetention`]), `UERL_HYPER_SEARCH` (the evaluator's
//! search strategy), `UERL_SCALE` (the bench harness) and `UERL_METRICS` (the
//! observability gate).

pub use uerl_obs::knob::{choice, env_choice};

/// Whether the `UERL_METRICS` gate is open (see [`uerl_obs::enabled`]).
pub fn metrics_enabled() -> bool {
    uerl_obs::enabled()
}

#[cfg(test)]
mod tests {
    #[test]
    fn the_metrics_gate_is_reachable_through_core() {
        // The gate's value depends on the process environment; this pins only that the
        // re-export resolves and agrees with the obs crate.
        assert_eq!(super::metrics_enabled(), uerl_obs::enabled());
    }
}

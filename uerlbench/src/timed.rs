//! A transparent policy wrapper that times the policy from outside.
//!
//! The traced run hands every policy to `FleetServer` and `run_policy` inside a
//! [`Timed`], which forwards every call unchanged and adds up the wall time spent inside
//! `decide`/`decide_batch`, the rows decided and the calls made. Decisions, names and
//! training costs are the inner policy's, so a wrapped serve reports exactly what an
//! unwrapped one does.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use uerl_core::{MitigationPolicy, StateFeatures};

/// Accumulated timing of one wrapped policy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PolicyTime {
    pub nanos: u64,
    pub rows: u64,
    pub calls: u64,
}

impl std::ops::Add for PolicyTime {
    type Output = Self;

    fn add(self, other: Self) -> Self {
        Self {
            nanos: self.nanos + other.nanos,
            rows: self.rows + other.rows,
            calls: self.calls + other.calls,
        }
    }
}

/// A policy timed from outside. The counters are statistics that publish no other
/// data, so relaxed atomics suffice even when `run_policy` decides from several threads.
#[derive(Debug, Default)]
pub struct Timed<P> {
    inner: P,
    nanos: AtomicU64,
    rows: AtomicU64,
    calls: AtomicU64,
}

impl<P> Timed<P> {
    pub fn new(inner: P) -> Self {
        Self {
            inner,
            nanos: AtomicU64::new(0),
            rows: AtomicU64::new(0),
            calls: AtomicU64::new(0),
        }
    }

    pub fn time(&self) -> PolicyTime {
        PolicyTime {
            nanos: self.nanos.load(Ordering::Relaxed),
            rows: self.rows.load(Ordering::Relaxed),
            calls: self.calls.load(Ordering::Relaxed),
        }
    }

    fn add(&self, start: Instant, rows: usize) {
        self.nanos
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.rows.fetch_add(rows as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
    }
}

impl<P: MitigationPolicy> MitigationPolicy for Timed<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&self, state: &StateFeatures) -> bool {
        let start = Instant::now();
        let decision = self.inner.decide(state);
        self.add(start, 1);
        decision
    }

    fn decide_batch(&self, states: &[StateFeatures], out: &mut Vec<bool>) {
        let start = Instant::now();
        self.inner.decide_batch(states, out);
        self.add(start, states.len());
    }

    fn training_cost_node_hours(&self) -> f64 {
        self.inner.training_cost_node_hours()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uerl_core::{AlwaysMitigate, NeverMitigate};
    use uerl_trace::types::{NodeId, SimTime};

    #[test]
    fn wrapper_forwards_and_counts() {
        let states = vec![StateFeatures::empty(NodeId(1), SimTime::ZERO); 5];
        let timed = Timed::new(AlwaysMitigate);
        let mut out = Vec::new();
        timed.decide_batch(&states, &mut out);
        assert!(!Timed::new(NeverMitigate).decide(&states[0]));
        assert_eq!(out, vec![true; 5]);
        assert_eq!(timed.name(), "Always-mitigate");
        let t = timed.time();
        assert_eq!((t.rows, t.calls), (5, 1));
    }
}

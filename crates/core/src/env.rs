//! The mitigation environment: a cursor over a node's event timeline plus the
//! Equation 4 reward.
//!
//! The environment owns the MDP mechanics of Section 3.2:
//!
//! * the agent is invoked at every (per-minute merged, non-fatal) event of the node;
//! * the state combines the error-log features with the potential UE cost of the
//!   currently running job (Equation 3), where the cost reference point is the job start
//!   or — when mitigations are restartable — the last mitigation;
//! * choosing the mitigation action immediately pays the mitigation cost and resets the
//!   cost reference point;
//! * when the next event is fatal (uncorrected error or critical over-temperature), the
//!   full cost accrued between the last mitigation and the UE timestamp is lost, and the
//!   reward of the last action reflects it (Equation 4).
//!
//! Everything but the reward lives in the one session type: the environment pushes its
//! timeline, one event at a time, through a zero-lane [`NodeSession`] — the same type
//! the server pushes the live stream through — and stops at each decision request.
//!
//! The same environment serves training and evaluation. Training episodes terminate at
//! the first fatal event (`terminate_on_fatal = true`); evaluation rollouts continue
//! through it (the node returns to production after testing), so the full cost of the
//! period is accounted.

use crate::config::MitigationConfig;
use crate::cost;
use crate::event_stream::NodeTimeline;
use crate::session::{CostAccount, NodeSession, Observed, RecordRetention};
use crate::state::StateFeatures;
use uerl_jobs::schedule::JobSequence;

pub use crate::session::UeRecord;

/// The result of one environment step.
#[derive(Debug, Clone, PartialEq)]
pub struct StepOutcome {
    /// Equation 4 reward of the action just taken.
    pub reward: f64,
    /// The next decision point's state, or `None` if the episode finished.
    pub next_state: Option<StateFeatures>,
    /// Whether one or more fatal events occurred before the next decision point.
    pub ue_occurred: bool,
    /// Node-hours lost to those fatal events.
    pub ue_cost: f64,
    /// Node-hours paid for the mitigation action (0 when the action was "do nothing").
    pub mitigation_cost: f64,
    /// Whether the episode is over.
    pub done: bool,
}

/// The environment for one node's timeline.
#[derive(Debug, Clone)]
pub struct MitigationEnv {
    timeline: NodeTimeline,
    terminate_on_fatal: bool,
    session: NodeSession,
    /// Index of the next event to push (or, between steps, of the pending request).
    idx: usize,
    started: bool,
    done: bool,
}

impl MitigationEnv {
    /// Create an environment with full record retention (the evaluator and the parity
    /// suites read the decision / UE logs).
    ///
    /// `terminate_on_fatal` selects episodic training semantics (`true`: the episode ends
    /// at the first UE) or full-period evaluation semantics (`false`: accounting continues
    /// after a UE, with the cost reference reset because the node returns with new jobs).
    pub fn new(
        timeline: NodeTimeline,
        jobs: JobSequence,
        config: MitigationConfig,
        terminate_on_fatal: bool,
    ) -> Self {
        Self::with_retention(
            timeline,
            jobs,
            config,
            terminate_on_fatal,
            RecordRetention::Full,
        )
    }

    /// Create an environment with an explicit record-retention mode. Training loops
    /// never read the logs and use [`RecordRetention::TotalsOnly`] so episode memory
    /// stays O(window); rewards, costs and counters are unaffected by the mode.
    pub fn with_retention(
        timeline: NodeTimeline,
        jobs: JobSequence,
        config: MitigationConfig,
        terminate_on_fatal: bool,
        retention: RecordRetention,
    ) -> Self {
        let session = NodeSession::new(
            timeline.node(),
            timeline.window_start(),
            jobs,
            config,
            retention,
            0,
        );
        Self {
            timeline,
            terminate_on_fatal,
            session,
            idx: 0,
            started: false,
            done: false,
        }
    }

    /// The cost account of the rollout so far: counters, cost totals and (under full
    /// retention) the decision / UE logs.
    pub fn account(&self) -> &CostAccount {
        self.session.account()
    }

    /// Start (or restart) the episode and return the first decision point's state, or
    /// `None` if the timeline offers no decision point (e.g. its only event is a UE with
    /// nothing before it — the cost is still accounted).
    pub fn reset(&mut self) -> Option<StateFeatures> {
        assert!(!self.started, "this environment has already been started");
        self.started = true;
        self.advance_to_decision_point()
    }

    /// Push events from `idx` until one yields a decision request, and return its
    /// state. Returns `None` (and sets `done`) if the timeline ends or a fatal event
    /// terminates the episode.
    fn advance_to_decision_point(&mut self) -> Option<StateFeatures> {
        while let Some(event) = self.timeline.events().get(self.idx) {
            match self.session.observe(event) {
                Observed::Request(state) => return Some(state),
                Observed::Fatal { .. } if self.terminate_on_fatal => break,
                Observed::Fatal { .. } => self.idx += 1,
            }
        }
        self.done = true;
        None
    }

    /// Apply the policy's action at the current decision point and advance to the next.
    ///
    /// # Panics
    /// Panics if called before [`MitigationEnv::reset`] or after the episode finished.
    pub fn step(&mut self, mitigate: bool) -> StepOutcome {
        assert!(self.started, "call reset() before step()");
        assert!(!self.done, "the episode is over");
        let now = self.timeline.events()[self.idx].time;
        let mitigation_cost = self.session.apply_decision(now, mitigate);

        let ue_cost_before = self.account().total_ue_cost();
        let ue_count_before = self.account().ue_count();
        self.idx += 1;
        let next_state = self.advance_to_decision_point();
        let ue_cost = self.account().total_ue_cost() - ue_cost_before;
        let ue_occurred = self.account().ue_count() > ue_count_before;

        let reward = cost::reward(
            mitigate,
            self.session.config().mitigation_cost_node_hours(),
            ue_occurred,
            ue_cost,
        );
        StepOutcome {
            reward,
            next_state,
            ue_occurred,
            ue_cost,
            mitigation_cost,
            done: self.done,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uerl_jobs::schedule::ScheduledJob;
    use uerl_trace::log::MergedEvent;
    use uerl_trace::types::{NodeId, SimTime};

    const NODE: NodeId = NodeId(7);

    fn event(minute: i64, ce: u32, fatal: bool) -> MergedEvent {
        MergedEvent {
            time: SimTime::from_minutes(minute),
            node: NODE,
            ce_count: ce,
            ce_details: Vec::new(),
            ue_warnings: 0,
            boots: 0,
            retired_slots: Vec::new(),
            fatal,
            ue_detector: None,
        }
    }

    fn timeline(events: Vec<MergedEvent>) -> NodeTimeline {
        NodeTimeline::new(NODE, SimTime::ZERO, SimTime::from_days(10), events)
    }

    /// One 16-node job covering the first 100 hours.
    fn one_big_job() -> JobSequence {
        JobSequence::from_jobs(vec![ScheduledJob {
            job_id: 1,
            start: SimTime::ZERO,
            end: SimTime::from_hours(100),
            nodes: 16,
        }])
    }

    fn config() -> MitigationConfig {
        MitigationConfig::paper_default()
    }

    #[test]
    fn never_mitigating_pays_the_full_ue_cost() {
        // CE at t=1h, UE at t=10h: cost = 16 nodes * 10 h = 160 node-hours.
        let tl = timeline(vec![event(60, 5, false), event(600, 0, true)]);
        let mut env = MitigationEnv::new(tl, one_big_job(), config(), true);
        let s0 = env.reset().expect("one decision point");
        assert_eq!(s0.job_nodes, 16);
        assert!(
            (s0.potential_ue_cost - 16.0).abs() < 1e-9,
            "16 node-hours at t=1h"
        );
        let out = env.step(false);
        assert!(out.done);
        assert!(out.ue_occurred);
        assert!((out.ue_cost - 160.0).abs() < 1e-9);
        assert!((out.reward + 160.0).abs() < 1e-9);
        assert_eq!(env.account().mitigation_count(), 0);
        assert!((env.account().total_cost() - 160.0).abs() < 1e-9);
    }

    #[test]
    fn mitigating_resets_the_cost_reference() {
        // Mitigate at t=1h; the UE at t=10h then only loses 9h * 16 nodes = 144 node-hours
        // plus the 2 node-minute mitigation cost.
        let tl = timeline(vec![event(60, 5, false), event(600, 0, true)]);
        let mut env = MitigationEnv::new(tl, one_big_job(), config(), true);
        let _ = env.reset().unwrap();
        let out = env.step(true);
        assert!(out.ue_occurred);
        assert!((out.ue_cost - 144.0).abs() < 1e-9);
        let mit_cost = 2.0 / 60.0;
        assert!((out.mitigation_cost - mit_cost).abs() < 1e-12);
        assert!((out.reward + 144.0 + mit_cost).abs() < 1e-9);
        assert!((env.account().total_cost() - 144.0 - mit_cost).abs() < 1e-9);
        assert_eq!(env.account().mitigation_count(), 1);
    }

    #[test]
    fn non_restartable_mitigation_does_not_reset_the_reference() {
        let tl = timeline(vec![event(60, 5, false), event(600, 0, true)]);
        let cfg = MitigationConfig::new(2.0, false);
        let mut env = MitigationEnv::new(tl, one_big_job(), cfg, true);
        let _ = env.reset().unwrap();
        let out = env.step(true);
        // Cost is still measured from the job start.
        assert!((out.ue_cost - 160.0).abs() < 1e-9);
    }

    #[test]
    fn potential_cost_grows_between_events() {
        let tl = timeline(vec![
            event(60, 1, false),
            event(120, 1, false),
            event(300, 1, false),
        ]);
        let mut env = MitigationEnv::new(tl, one_big_job(), config(), true);
        let s0 = env.reset().unwrap();
        let s1 = env.step(false).next_state.unwrap();
        let s2 = env.step(false).next_state.unwrap();
        assert!(s0.potential_ue_cost < s1.potential_ue_cost);
        assert!(s1.potential_ue_cost < s2.potential_ue_cost);
        let end = env.step(false);
        assert!(end.done);
        assert!(!end.ue_occurred);
        assert_eq!(env.account().ue_count(), 0);
    }

    #[test]
    fn silent_ue_with_no_decision_point_is_still_accounted() {
        // The only event is a UE: reset() returns no state but the cost is recorded.
        let tl = timeline(vec![event(600, 0, true)]);
        let mut env = MitigationEnv::new(tl, one_big_job(), config(), true);
        assert!(env.reset().is_none());
        assert!(env.done);
        assert_eq!(env.account().ue_count(), 1);
        assert!((env.account().total_ue_cost() - 160.0).abs() < 1e-9);
        assert!(env.account().decisions().is_empty());
    }

    #[test]
    fn evaluation_mode_continues_after_a_fatal_event() {
        // UE at t=10h, then another CE at t=20h and a second UE at t=30h.
        let tl = timeline(vec![
            event(60, 1, false),
            event(600, 0, true),
            event(1200, 1, false),
            event(1800, 0, true),
        ]);
        let mut env = MitigationEnv::new(tl, one_big_job(), config(), false);
        let mut state = env.reset();
        let mut steps = 0;
        while let Some(s) = state {
            let out = env.step(false);
            let _ = s;
            state = out.next_state;
            steps += 1;
        }
        assert_eq!(steps, 2, "two decision points (the two CE events)");
        assert_eq!(env.account().ue_count(), 2);
        // First UE: 160 node-hours. Second UE at t=30h: the same job is still "running"
        // in the synthetic sequence, so it costs 16 * 30 = 480.
        assert!((env.account().total_ue_cost() - (160.0 + 480.0)).abs() < 1e-9);
        assert_eq!(env.account().ue_records().len(), 2);
    }

    #[test]
    fn decisions_are_recorded_with_timestamps() {
        let tl = timeline(vec![event(60, 1, false), event(120, 1, false)]);
        let mut env = MitigationEnv::new(tl, one_big_job(), config(), true);
        let _ = env.reset().unwrap();
        let _ = env.step(true);
        let _ = env.step(false);
        assert_eq!(
            env.account().decisions(),
            &[
                (SimTime::from_minutes(60), true),
                (SimTime::from_minutes(120), false)
            ]
        );
    }

    #[test]
    fn job_boundaries_reset_the_cost_reference() {
        // Two 1-node jobs of 5 hours each; an event at t=7h is 2 hours into the second
        // job, so the potential cost is 2 node-hours, not 7.
        let jobs = JobSequence::from_jobs(vec![
            ScheduledJob {
                job_id: 1,
                start: SimTime::ZERO,
                end: SimTime::from_hours(5),
                nodes: 1,
            },
            ScheduledJob {
                job_id: 2,
                start: SimTime::from_hours(5),
                end: SimTime::from_hours(50),
                nodes: 1,
            },
        ]);
        let tl = timeline(vec![event(7 * 60, 1, false)]);
        let mut env = MitigationEnv::new(tl, jobs, config(), true);
        let s = env.reset().unwrap();
        assert!((s.potential_ue_cost - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "call reset()")]
    fn step_before_reset_rejected() {
        let tl = timeline(vec![event(60, 1, false)]);
        let mut env = MitigationEnv::new(tl, one_big_job(), config(), true);
        env.step(false);
    }

    #[test]
    #[should_panic(expected = "episode is over")]
    fn step_after_done_rejected() {
        let tl = timeline(vec![event(60, 1, false)]);
        let mut env = MitigationEnv::new(tl, one_big_job(), config(), true);
        let _ = env.reset().unwrap();
        let out = env.step(false);
        assert!(out.done);
        env.step(false);
    }
}

//! The per-node session: the one implementation of the MDP's event pump and cost
//! accounting (Section 3.2), pushed by both the environment cursor and the server.
//!
//! A [`NodeSession`] is pushed one event of its node at a time. It keeps the
//! incremental [`FeatureExtractor`], the node's job sequence, and one [`CostAccount`]
//! per cost lane: the served lane plus any number of counterfactual shadow lanes. A
//! fatal event is accounted on every lane and produces no decision; a non-fatal event
//! produces the decision request's [`StateFeatures`], which the caller resolves and
//! applies with [`NodeSession::apply_decision`]. This split happens only in
//! [`NodeSession::observe`].
//!
//! Offline training and evaluation push a node's timeline through the
//! [`crate::env::MitigationEnv`] cursor (or, in `run_policy`, directly); the serving
//! crate's `FleetServer` pushes the live merged stream. Both drive the same session
//! type, so served decisions and costs are bit-identical to the offline rollout by
//! construction: the serving-parity guarantee reduces to "events arrive in the same
//! order".
//!
//! Record retention is set per session: [`RecordRetention::Full`] keeps the per-event
//! `decisions` / `ue_records` logs (the evaluator needs them for the classical ML
//! metrics, and the parity suites compare them entry for entry);
//! [`RecordRetention::TotalsOnly`] keeps counters and cost totals only, so a
//! long-lived serving session's accounting footprint is O(1) regardless of how many
//! events the node ever produces. The retention mode never changes a counter, a cost
//! bit, or a decision — only whether the logs are kept.
//!
//! [`PolicyRun`] is the fleet-wide totals type of one policy. It is folded from the
//! per-node accounts in node-id order ([`PolicyRun::for_policy`], then
//! [`PolicyRun::add_node`] per node), which is the one merge `run_policy` and the
//! server's shadow report share.

use crate::config::MitigationConfig;
use crate::cost;
use crate::features::FeatureExtractor;
use crate::policy::MitigationPolicy;
use crate::state::StateFeatures;
use serde::{Deserialize, Serialize};
use uerl_jobs::schedule::{JobSequence, ScheduledJob};
use uerl_trace::log::MergedEvent;
use uerl_trace::types::{NodeId, SimTime};

/// A recorded fatal event: when it happened and how many node-hours it cost.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UeRecord {
    /// Timestamp of the fatal event.
    pub time: SimTime,
    /// Node-hours lost.
    pub cost: f64,
}

/// Whether a session keeps its per-event decision / UE logs or only running totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecordRetention {
    /// Keep every `(time, mitigated)` decision and every [`UeRecord`]. Required by
    /// the evaluator (classical ML metrics read the logs) and by the bit-parity test
    /// suites, which compare logs entry for entry.
    #[default]
    Full,
    /// Keep counters and cost totals only; the logs stay empty. A session's
    /// accounting is O(1) in the number of events — the mode for long-lived serving
    /// fleets. Counters and cost bits are identical to [`RecordRetention::Full`].
    TotalsOnly,
}

/// The accounting state of one *cost lane*: the Equation 3 reference point, the
/// mitigation / UE counters and cost totals, and the (retention-gated) logs — all the
/// parity-critical bookkeeping, with the job sequence and configuration **borrowed at
/// each call** rather than owned.
///
/// A [`NodeSession`] holds one account for the served policy and one per shadow
/// policy, all sharing the node's single job sequence — which is what keeps
/// counterfactual scoring O(1) per lane and, because every lane runs these same
/// methods, bit-identical to an offline rollout of the same policy.
#[derive(Debug, Clone, Default)]
pub struct CostAccount {
    last_mitigation: Option<SimTime>,
    decision_count: u64,
    mitigation_count: u64,
    total_mitigation_cost: f64,
    ue_count: u64,
    total_ue_cost: f64,
    decisions: Vec<(SimTime, bool)>,
    ue_records: Vec<UeRecord>,
}

impl CostAccount {
    /// A fresh, zeroed account.
    pub fn new() -> Self {
        Self::default()
    }

    /// Potential UE cost (Equation 3) and the running job's node count at instant
    /// `t`, measured from the job start or — when mitigations are restartable — this
    /// lane's last mitigation.
    pub(crate) fn potential_cost_at(
        &self,
        jobs: &JobSequence,
        restartable: bool,
        t: SimTime,
    ) -> (f64, u32) {
        cost::potential_cost_at(jobs, self.last_mitigation, restartable, t)
    }

    /// Account one fatal event at time `t` and return its cost: the Equation 3
    /// accrual since this lane's last mitigation (or job start), after which the
    /// mitigation reference is cleared (the node leaves production and returns with
    /// fresh jobs).
    pub(crate) fn account_fatal(
        &mut self,
        jobs: &JobSequence,
        restartable: bool,
        retention: RecordRetention,
        t: SimTime,
    ) -> f64 {
        let (ue_cost, _) = self.potential_cost_at(jobs, restartable, t);
        self.ue_count += 1;
        self.total_ue_cost += ue_cost;
        if retention == RecordRetention::Full {
            self.ue_records.push(UeRecord {
                time: t,
                cost: ue_cost,
            });
        }
        self.last_mitigation = None;
        ue_cost
    }

    /// Apply one resolved decision at time `t`: record it and, if it mitigates, pay
    /// `mitigation_cost_node_hours` and reset the Equation 3 reference point. Returns
    /// the node-hours paid (0 for "do nothing").
    pub(crate) fn apply_decision(
        &mut self,
        t: SimTime,
        mitigate: bool,
        mitigation_cost_node_hours: f64,
        retention: RecordRetention,
    ) -> f64 {
        self.decision_count += 1;
        if retention == RecordRetention::Full {
            self.decisions.push((t, mitigate));
        }
        if mitigate {
            self.mitigation_count += 1;
            self.total_mitigation_cost += mitigation_cost_node_hours;
            self.last_mitigation = Some(t);
            mitigation_cost_node_hours
        } else {
            0.0
        }
    }

    /// Decisions applied so far (mitigations plus "do nothing"s).
    pub fn decision_count(&self) -> u64 {
        self.decision_count
    }

    /// Number of mitigation actions taken.
    pub fn mitigation_count(&self) -> u64 {
        self.mitigation_count
    }

    /// Number of "do nothing" decisions taken (derived from counters, so it is exact
    /// under totals-only retention too).
    pub fn non_mitigation_count(&self) -> u64 {
        self.decision_count - self.mitigation_count
    }

    /// Node-hours spent on mitigation actions.
    pub fn total_mitigation_cost(&self) -> f64 {
        self.total_mitigation_cost
    }

    /// Number of fatal events accounted.
    pub fn ue_count(&self) -> u64 {
        self.ue_count
    }

    /// Node-hours lost to fatal events.
    pub fn total_ue_cost(&self) -> f64 {
        self.total_ue_cost
    }

    /// Total cost: UE cost plus mitigation cost.
    pub fn total_cost(&self) -> f64 {
        self.total_ue_cost + self.total_mitigation_cost
    }

    /// Every decision so far, `(event time, mitigated)` in event order (empty under
    /// totals-only retention).
    pub fn decisions(&self) -> &[(SimTime, bool)] {
        &self.decisions
    }

    /// Every fatal event accounted so far, in event order (empty under totals-only
    /// retention).
    pub fn ue_records(&self) -> &[UeRecord] {
        &self.ue_records
    }

    /// Approximate heap footprint of the logs in bytes.
    pub fn approx_log_bytes(&self) -> usize {
        self.decisions.capacity() * std::mem::size_of::<(SimTime, bool)>()
            + self.ue_records.capacity() * std::mem::size_of::<UeRecord>()
    }
}

/// The outcome of pushing one event into a [`NodeSession`].
#[derive(Debug, Clone)]
pub enum Observed {
    /// A non-fatal event: the decision request to resolve through the policy.
    Request(StateFeatures),
    /// A fatal event, accounted immediately: the served lane's UE cost and each
    /// shadow lane's counterfactual UE cost (lane order), so the server can fold them
    /// into its running totals in a deterministic order.
    Fatal {
        /// Equation 3 accrual paid by the served lane.
        ue_cost: f64,
        /// Equation 3 accrual each shadow lane paid against its own reference point.
        shadow_ue_costs: Vec<f64>,
    },
}

/// The live state of one node: its incremental feature state, its job sequence and
/// the cost lanes accounted against that sequence.
///
/// A session is O(window) + O(1): the extractor's feature history is a ring buffer
/// bounded by the 1-hour lookback, and under [`RecordRetention::TotalsOnly`] the
/// accounting keeps counters and cost totals instead of per-event logs — so its
/// footprint does not grow with the length of the node's event stream.
#[derive(Debug, Clone)]
pub struct NodeSession {
    extractor: FeatureExtractor,
    jobs: JobSequence,
    config: MitigationConfig,
    retention: RecordRetention,
    /// The served lane.
    account: CostAccount,
    /// One counterfactual lane per shadow policy, always totals-only.
    shadows: Vec<CostAccount>,
}

impl NodeSession {
    /// Create the session for `node`: the feature extractor anchored at
    /// `window_start`, the node's assigned job sequence, a served lane under
    /// `retention` and `shadow_lanes` zeroed counterfactual lanes.
    pub fn new(
        node: NodeId,
        window_start: SimTime,
        jobs: JobSequence,
        config: MitigationConfig,
        retention: RecordRetention,
        shadow_lanes: usize,
    ) -> Self {
        Self {
            extractor: FeatureExtractor::new(node, window_start),
            jobs,
            config,
            retention,
            account: CostAccount::new(),
            shadows: vec![CostAccount::new(); shadow_lanes],
        }
    }

    /// The node this session tracks.
    pub fn node(&self) -> NodeId {
        self.extractor.node()
    }

    /// The mitigation configuration.
    pub fn config(&self) -> &MitigationConfig {
        &self.config
    }

    /// The served lane's cost account.
    pub fn account(&self) -> &CostAccount {
        &self.account
    }

    /// The counterfactual cost account of shadow lane `lane`.
    pub fn shadow_account(&self, lane: usize) -> &CostAccount {
        &self.shadows[lane]
    }

    /// Entries currently held in the extractor's feature-history ring buffer
    /// (bounded by the 1-hour lookback window, never by the stream length).
    pub fn history_len(&self) -> usize {
        self.extractor.history_len()
    }

    /// Approximate per-session heap footprint in bytes: the struct itself, the
    /// extractor's ring buffer and location sets, the retained logs (zero under
    /// totals-only retention), the job sequence and the shadow lanes. A bench-grade
    /// estimate.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.extractor.approx_heap_bytes()
            + self.account.approx_log_bytes()
            + self.jobs.len() * std::mem::size_of::<ScheduledJob>()
            + self.shadows.capacity() * std::mem::size_of::<CostAccount>()
    }

    /// Push one event of this node (events must arrive in time order).
    ///
    /// A fatal event is accounted immediately — on the served lane and on every
    /// shadow lane against its own Equation 3 reference — and produces no decision.
    /// A non-fatal event updates the (decision-independent) feature state and returns
    /// the decision request's [`StateFeatures`], which the caller resolves and then
    /// applies with [`NodeSession::apply_decision`].
    pub fn observe(&mut self, event: &MergedEvent) -> Observed {
        let restartable = self.config.restartable;
        if event.fatal {
            let shadow_ue_costs = self
                .shadows
                .iter_mut()
                .map(|lane| {
                    lane.account_fatal(
                        &self.jobs,
                        restartable,
                        RecordRetention::TotalsOnly,
                        event.time,
                    )
                })
                .collect();
            let ue_cost =
                self.account
                    .account_fatal(&self.jobs, restartable, self.retention, event.time);
            self.extractor.update(event);
            Observed::Fatal {
                ue_cost,
                shadow_ue_costs,
            }
        } else {
            self.extractor.update(event);
            let (potential, job_nodes) =
                self.account
                    .potential_cost_at(&self.jobs, restartable, event.time);
            Observed::Request(self.extractor.snapshot(potential, job_nodes))
        }
    }

    /// Apply the served lane's decision for the request produced at `time`: record it
    /// and, if it mitigates, pay the mitigation cost and reset the cost reference
    /// point. Returns the node-hours paid (0 for "do nothing").
    pub fn apply_decision(&mut self, time: SimTime, mitigate: bool) -> f64 {
        self.account.apply_decision(
            time,
            mitigate,
            self.config.mitigation_cost_node_hours(),
            self.retention,
        )
    }

    /// The counterfactual decision state of shadow lane `lane` for a served request:
    /// the served snapshot with `potential_ue_cost` / `job_nodes` re-derived from the
    /// lane's *own* mitigation reference. Every other feature is decision-independent
    /// (the extractor sees only events), so this state is bit-identical to what an
    /// offline rollout of the shadow policy would have seen at the same event.
    pub fn shadow_state(&self, lane: usize, served: &StateFeatures) -> StateFeatures {
        let (potential, job_nodes) =
            self.shadows[lane].potential_cost_at(&self.jobs, self.config.restartable, served.time);
        let mut state = served.clone();
        state.potential_ue_cost = potential;
        state.job_nodes = job_nodes;
        state
    }

    /// Apply shadow lane `lane`'s own decision for the request produced at `time`.
    /// Returns the node-hours the lane paid (0 for "do nothing").
    pub fn apply_shadow_decision(&mut self, lane: usize, time: SimTime, mitigate: bool) -> f64 {
        self.shadows[lane].apply_decision(
            time,
            mitigate,
            self.config.mitigation_cost_node_hours(),
            RecordRetention::TotalsOnly,
        )
    }
}

/// One recorded mitigation / no-mitigation decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Decision {
    /// Node the decision was made on.
    pub node: NodeId,
    /// Timestamp of the event that triggered the decision.
    pub time: SimTime,
    /// Whether a mitigation was requested.
    pub mitigated: bool,
}

/// One recorded fatal event and its cost.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UeEvent {
    /// Node the fatal event occurred on.
    pub node: NodeId,
    /// Timestamp of the fatal event.
    pub time: SimTime,
    /// Node-hours lost.
    pub cost: f64,
}

/// The fleet-wide totals of one policy over one timeline set (or served stream).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyRun {
    /// Policy name.
    pub policy: String,
    /// Number of mitigation actions taken.
    pub mitigations: u64,
    /// Number of "do nothing" decisions taken.
    pub non_mitigations: u64,
    /// Node-hours spent on mitigation actions plus model training/validation.
    pub mitigation_cost: f64,
    /// Number of fatal events in the evaluated range.
    pub ue_count: u64,
    /// Node-hours lost to fatal events.
    pub ue_cost: f64,
    /// Every decision, for the classical ML metrics (empty when the accounts kept
    /// totals only).
    pub decisions: Vec<Decision>,
    /// Every fatal event, for the classical ML metrics (empty when the accounts kept
    /// totals only).
    pub ue_events: Vec<UeEvent>,
}

impl PolicyRun {
    /// An empty run for a policy (identity element of [`PolicyRun::merge`]).
    pub fn empty(policy: impl Into<String>) -> Self {
        Self {
            policy: policy.into(),
            mitigations: 0,
            non_mitigations: 0,
            mitigation_cost: 0.0,
            ue_count: 0,
            ue_cost: 0.0,
            decisions: Vec::new(),
            ue_events: Vec::new(),
        }
    }

    /// Start a run of `policy` charged with its training cost, once, as in the
    /// paper's accounting ("the total cost of the mitigation actions plus ... the
    /// cost of all training and validation used to create the model"). Fold the
    /// nodes in with [`PolicyRun::add_node`], in node-id order.
    pub fn for_policy<P: MitigationPolicy + ?Sized>(policy: &P) -> Self {
        let mut run = Self::empty(policy.name());
        run.mitigation_cost += policy.training_cost_node_hours();
        run
    }

    /// Add one node's account: its five totals, plus its logs when it kept them.
    pub fn add_node(&mut self, node: NodeId, account: &CostAccount) {
        self.mitigations += account.mitigation_count();
        self.non_mitigations += account.non_mitigation_count();
        self.mitigation_cost += account.total_mitigation_cost();
        self.ue_count += account.ue_count();
        self.ue_cost += account.total_ue_cost();
        self.decisions.extend(
            account
                .decisions()
                .iter()
                .map(|&(time, mitigated)| Decision {
                    node,
                    time,
                    mitigated,
                }),
        );
        self.ue_events
            .extend(account.ue_records().iter().map(|r| UeEvent {
                node,
                time: r.time,
                cost: r.cost,
            }));
    }

    /// Total cost: UE cost plus mitigation cost (including training cost).
    pub fn total_cost(&self) -> f64 {
        self.ue_cost + self.mitigation_cost
    }

    /// Merge another run into this one (used to accumulate across splits).
    ///
    /// # Panics
    /// Panics if the runs belong to different policies.
    pub fn merge(&mut self, other: &PolicyRun) {
        assert_eq!(
            self.policy, other.policy,
            "cannot merge runs of different policies"
        );
        self.mitigations += other.mitigations;
        self.non_mitigations += other.non_mitigations;
        self.mitigation_cost += other.mitigation_cost;
        self.ue_count += other.ue_count;
        self.ue_cost += other.ue_cost;
        self.decisions.extend_from_slice(&other.decisions);
        self.ue_events.extend_from_slice(&other.ue_events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::MitigationEnv;
    use crate::event_stream::{NodeTimeline, TimelineSet};
    use uerl_jobs::schedule::NodeJobSampler;
    use uerl_jobs::{JobLogConfig, JobTraceGenerator};
    use uerl_trace::generator::{SyntheticLogConfig, TraceGenerator};
    use uerl_trace::reduction::preprocess;

    fn jobs() -> JobSequence {
        JobSequence::from_jobs(vec![ScheduledJob {
            job_id: 1,
            start: SimTime::ZERO,
            end: SimTime::from_hours(100),
            nodes: 16,
        }])
    }

    /// A session over [`jobs`] pushed only through the accounting calls.
    struct Lane {
        jobs: JobSequence,
        config: MitigationConfig,
        retention: RecordRetention,
        account: CostAccount,
    }

    impl Lane {
        fn new(retention: RecordRetention) -> Self {
            Self {
                jobs: jobs(),
                config: MitigationConfig::paper_default(),
                retention,
                account: CostAccount::new(),
            }
        }

        fn potential_cost_at(&self, t: SimTime) -> (f64, u32) {
            self.account
                .potential_cost_at(&self.jobs, self.config.restartable, t)
        }

        fn apply_decision(&mut self, t: SimTime, mitigate: bool) -> f64 {
            self.account.apply_decision(
                t,
                mitigate,
                self.config.mitigation_cost_node_hours(),
                self.retention,
            )
        }

        fn account_fatal(&mut self, t: SimTime) -> f64 {
            self.account
                .account_fatal(&self.jobs, self.config.restartable, self.retention, t)
        }
    }

    #[test]
    fn totals_only_matches_full_on_every_counter_and_cost_bit() {
        let mut full = Lane::new(RecordRetention::Full);
        let mut totals = Lane::new(RecordRetention::TotalsOnly);
        let script: [(i64, bool); 4] = [(60, false), (120, true), (180, false), (240, true)];
        for (minute, mitigate) in script {
            let t = SimTime::from_minutes(minute);
            assert_eq!(
                full.potential_cost_at(t),
                totals.potential_cost_at(t),
                "the cost reference must not depend on retention"
            );
            let a = full.apply_decision(t, mitigate);
            let b = totals.apply_decision(t, mitigate);
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let a = full.account_fatal(SimTime::from_minutes(600));
        let b = totals.account_fatal(SimTime::from_minutes(600));
        assert_eq!(a.to_bits(), b.to_bits());

        let (full, totals) = (&full.account, &totals.account);
        assert_eq!(full.decision_count(), totals.decision_count());
        assert_eq!(full.mitigation_count(), totals.mitigation_count());
        assert_eq!(full.non_mitigation_count(), totals.non_mitigation_count());
        assert_eq!(full.ue_count(), totals.ue_count());
        assert_eq!(
            full.total_mitigation_cost().to_bits(),
            totals.total_mitigation_cost().to_bits()
        );
        assert_eq!(
            full.total_ue_cost().to_bits(),
            totals.total_ue_cost().to_bits()
        );
        assert_eq!(full.decisions().len(), 4);
        assert_eq!(full.ue_records().len(), 1);
        assert!(totals.decisions().is_empty(), "totals-only keeps no logs");
        assert!(totals.ue_records().is_empty());
        assert_eq!(totals.approx_log_bytes(), 0);
    }

    #[test]
    fn fatal_accounting_is_accounted_then_cleared() {
        let mut lane = Lane::new(RecordRetention::Full);
        lane.apply_decision(SimTime::from_minutes(60), true);
        // The fatal at t=10h is measured from the t=1h mitigation: 9 h × 16 nodes.
        let cost = lane.account_fatal(SimTime::from_hours(10));
        assert!((cost - 144.0).abs() < 1e-9);
        // The reference was cleared, so a later fatal measures from the job start.
        let cost = lane.account_fatal(SimTime::from_hours(20));
        assert!((cost - 320.0).abs() < 1e-9);
        assert_eq!(lane.account.ue_count(), 2);
    }

    /// Pushing a timeline through a session must reproduce the environment cursor's
    /// rollout bit-for-bit under any fixed decision rule — under full retention
    /// (log-for-log) and totals-only retention (every counter and cost bit).
    #[test]
    fn pushed_session_matches_the_pull_mode_environment_bit_for_bit() {
        let log = TraceGenerator::new(SyntheticLogConfig::small(20, 60, 5)).generate();
        let timelines = TimelineSet::from_log(&preprocess(&log));
        let jobs = JobTraceGenerator::new(JobLogConfig::small(64, 30, 5)).generate();
        let sampler = NodeJobSampler::from_log(&jobs);
        let config = MitigationConfig::paper_default();
        let seed = 77u64;
        // A state-dependent (but policy-free) decision rule exercises both branches.
        let rule = |s: &StateFeatures| s.potential_ue_cost > 10.0;
        let sequence = |timeline: &NodeTimeline| {
            sampler.node_sequence(
                seed,
                timeline.node(),
                timeline.window_start(),
                timeline.window_end(),
            )
        };

        for timeline in timelines.timelines() {
            let mut env = MitigationEnv::new(timeline.clone(), sequence(timeline), config, false);
            let mut state = env.reset();
            while let Some(s) = state {
                state = env.step(rule(&s)).next_state;
            }
            let offline = env.account();

            for retention in [RecordRetention::Full, RecordRetention::TotalsOnly] {
                let mut session = NodeSession::new(
                    timeline.node(),
                    timeline.window_start(),
                    sequence(timeline),
                    config,
                    retention,
                    0,
                );
                for event in timeline.events() {
                    if let Observed::Request(state) = session.observe(event) {
                        let mitigate = rule(&state);
                        session.apply_decision(state.time, mitigate);
                    }
                }
                let session = session.account();
                assert_eq!(session.mitigation_count(), offline.mitigation_count());
                assert_eq!(
                    session.non_mitigation_count(),
                    offline.non_mitigation_count()
                );
                assert_eq!(session.ue_count(), offline.ue_count());
                assert_eq!(
                    session.total_mitigation_cost().to_bits(),
                    offline.total_mitigation_cost().to_bits(),
                    "mitigation cost diverged on node {:?}",
                    timeline.node()
                );
                assert_eq!(
                    session.total_ue_cost().to_bits(),
                    offline.total_ue_cost().to_bits(),
                    "UE cost diverged on node {:?}",
                    timeline.node()
                );
                match retention {
                    RecordRetention::Full => {
                        assert_eq!(session.decisions(), offline.decisions());
                        assert_eq!(session.ue_records(), offline.ue_records());
                    }
                    RecordRetention::TotalsOnly => {
                        assert!(session.decisions().is_empty());
                        assert!(session.ue_records().is_empty());
                    }
                }
            }
        }
    }
}

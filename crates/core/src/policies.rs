//! The eight mitigation policies evaluated in the paper (Section 4.2).

use crate::event_stream::TimelineSet;
use crate::policy::MitigationPolicy;
use crate::state::StateFeatures;
use std::collections::HashSet;
use std::sync::Arc;
use uerl_forest::RandomForest;
use uerl_rl::{greedy_action, DqnAgent};
use uerl_trace::types::{NodeId, SimTime};

/// *Never-mitigate*: never initiates a mitigation. Maximum UE cost, zero mitigation cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct NeverMitigate;

impl MitigationPolicy for NeverMitigate {
    fn name(&self) -> &str {
        "Never-mitigate"
    }

    fn decide(&self, _state: &StateFeatures) -> bool {
        false
    }
}

/// *Always-mitigate*: triggers a mitigation at every error-log event. Minimum UE cost
/// among event-triggered policies, maximum mitigation cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct AlwaysMitigate;

impl MitigationPolicy for AlwaysMitigate {
    fn name(&self) -> &str {
        "Always-mitigate"
    }

    fn decide(&self, _state: &StateFeatures) -> bool {
        true
    }
}

/// The *Oracle*: mitigates exactly on the last event before each uncorrected error. It is
/// not realisable (it needs future knowledge) but bounds the achievable saving.
#[derive(Debug, Clone, Default)]
pub struct OraclePolicy {
    mitigate_at: HashSet<(NodeId, SimTime)>,
}

impl OraclePolicy {
    /// Build the oracle from the evaluation timelines: for every fatal event, the last
    /// preceding non-fatal event of the same node becomes a mitigation point.
    pub fn from_timelines(timelines: &TimelineSet) -> Self {
        let mut mitigate_at = HashSet::new();
        for timeline in timelines.timelines() {
            let events = timeline.events();
            for (i, event) in events.iter().enumerate() {
                if !event.fatal {
                    continue;
                }
                if let Some(prev) = events[..i].iter().rev().find(|e| !e.fatal) {
                    mitigate_at.insert((timeline.node(), prev.time));
                }
            }
        }
        Self { mitigate_at }
    }
}

impl MitigationPolicy for OraclePolicy {
    fn name(&self) -> &str {
        "Oracle"
    }

    fn decide(&self, state: &StateFeatures) -> bool {
        self.mitigate_at.contains(&(state.node, state.time))
    }
}

/// *SC20-RF*: the random-forest predictor of Boixaderas et al. (SC 2020). Mitigates when
/// the predicted UE probability exceeds a user-supplied threshold. The probability is
/// computed from the error features only (the predictor is workload-blind).
///
/// The forest is held behind an [`Arc`] so the evaluator's threshold scan can run many
/// candidate thresholds over one shared fitted forest without deep-cloning the trees.
#[derive(Debug, Clone)]
pub struct ThresholdRfPolicy {
    forest: Arc<RandomForest>,
    threshold: f64,
    name: String,
    training_cost: f64,
}

impl ThresholdRfPolicy {
    /// Wrap a trained forest with a decision threshold.
    ///
    /// # Panics
    /// Panics if the threshold is outside `[0, 1]`.
    pub fn new(forest: RandomForest, threshold: f64, name: impl Into<String>) -> Self {
        Self::shared(Arc::new(forest), threshold, name)
    }

    /// Like [`ThresholdRfPolicy::new`] but sharing an already-wrapped forest (no tree
    /// copies; this is what the threshold grid scan uses).
    ///
    /// # Panics
    /// Panics if the threshold is outside `[0, 1]`.
    pub fn shared(forest: Arc<RandomForest>, threshold: f64, name: impl Into<String>) -> Self {
        assert!(
            (0.0..=1.0).contains(&threshold),
            "threshold must be in [0, 1]"
        );
        Self {
            forest,
            threshold,
            name: name.into(),
            training_cost: 0.0,
        }
    }

    /// Attach the node-hours spent training this model (for the cost-benefit analysis).
    pub fn with_training_cost(mut self, node_hours: f64) -> Self {
        self.training_cost = node_hours.max(0.0);
        self
    }

    /// The decision threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Predicted UE probability for a state (exposed for Figure 6, which uses the RF
    /// probability as a proxy for UE likelihood).
    pub fn probability(&self, state: &StateFeatures) -> f64 {
        self.forest.predict_proba(&state.to_error_vector())
    }
}

impl MitigationPolicy for ThresholdRfPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn decide(&self, state: &StateFeatures) -> bool {
        self.probability(state) >= self.threshold
    }

    fn training_cost_node_hours(&self) -> f64 {
        self.training_cost
    }
}

/// *Myopic-RF*: mitigates when the RF-estimated expected UE cost (probability × potential
/// UE cost) exceeds the mitigation cost. The adaptive-but-greedy extension of SC20-RF.
#[derive(Debug, Clone)]
pub struct MyopicRfPolicy {
    forest: RandomForest,
    mitigation_cost_node_hours: f64,
    training_cost: f64,
}

impl MyopicRfPolicy {
    /// Wrap a trained forest with the mitigation cost it should weigh against.
    ///
    /// # Panics
    /// Panics if the mitigation cost is negative.
    pub fn new(forest: RandomForest, mitigation_cost_node_hours: f64) -> Self {
        assert!(
            mitigation_cost_node_hours >= 0.0,
            "mitigation cost must be non-negative"
        );
        Self {
            forest,
            mitigation_cost_node_hours,
            training_cost: 0.0,
        }
    }

    /// Attach the node-hours spent training this model.
    pub fn with_training_cost(mut self, node_hours: f64) -> Self {
        self.training_cost = node_hours.max(0.0);
        self
    }

    /// The expected UE cost at a state.
    fn expected_ue_cost(&self, state: &StateFeatures) -> f64 {
        self.forest.predict_proba(&state.to_error_vector()) * state.potential_ue_cost
    }
}

impl MitigationPolicy for MyopicRfPolicy {
    fn name(&self) -> &str {
        "Myopic-RF"
    }

    fn decide(&self, state: &StateFeatures) -> bool {
        self.expected_ue_cost(state) > self.mitigation_cost_node_hours
    }

    fn training_cost_node_hours(&self) -> f64 {
        self.training_cost
    }
}

/// *RL*: the paper's agent — a trained dueling double deep Q-network queried greedily.
#[derive(Debug, Clone)]
pub struct RlPolicy {
    agent: DqnAgent,
    training_cost: f64,
}

impl RlPolicy {
    /// Wrap a trained agent.
    pub fn new(agent: DqnAgent) -> Self {
        Self {
            agent,
            training_cost: 0.0,
        }
    }

    /// Attach the node-hours spent training and validating this agent.
    pub fn with_training_cost(mut self, node_hours: f64) -> Self {
        self.training_cost = node_hours.max(0.0);
        self
    }

    /// The underlying agent (e.g. for inspecting Q-values in Figure 6).
    pub fn agent(&self) -> &DqnAgent {
        &self.agent
    }
}

impl MitigationPolicy for RlPolicy {
    fn name(&self) -> &str {
        self.agent.name()
    }

    fn decide(&self, state: &StateFeatures) -> bool {
        self.agent.decide(state)
    }

    fn decide_batch(&self, states: &[StateFeatures], out: &mut Vec<bool>) {
        self.agent.decide_batch(states, out);
    }

    fn training_cost_node_hours(&self) -> f64 {
        self.training_cost
    }
}

/// *RL* without a training cost: a (possibly still-training) agent queried greedily. The
/// successive-halving search scores its live candidates through this, with no clone and
/// no compaction, which would end the candidate's training.
impl MitigationPolicy for DqnAgent {
    fn name(&self) -> &str {
        "RL"
    }

    fn decide(&self, state: &StateFeatures) -> bool {
        self.with_q_values(
            1,
            |_, row| state.write_vector(row),
            |q| greedy_action(q.row(0)) == 1,
        )
    }

    /// One [`DqnAgent::with_q_values`] query for the whole batch. Each row's Q-values are
    /// bit-identical to a single-state query, so the decisions do not depend on how
    /// states are grouped into batches.
    fn decide_batch(&self, states: &[StateFeatures], out: &mut Vec<bool>) {
        // `Matrix` rejects an empty batch.
        if states.is_empty() {
            return;
        }
        self.with_q_values(
            states.len(),
            |i, row| states[i].write_vector(row),
            |q| out.extend((0..states.len()).map(|i| greedy_action(q.row(i)) == 1)),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event_stream::NodeTimeline;
    use uerl_forest::{Dataset, RandomForestConfig};
    use uerl_rl::AgentConfig;
    use uerl_trace::log::MergedEvent;

    fn state(node: u32, minute: i64, ce_total: u64, cost: f64) -> StateFeatures {
        let mut s = StateFeatures::empty(NodeId(node), SimTime::from_minutes(minute));
        s.ce_since_start = ce_total;
        s.potential_ue_cost = cost;
        s
    }

    fn merged(node: u32, minute: i64, fatal: bool) -> MergedEvent {
        MergedEvent {
            time: SimTime::from_minutes(minute),
            node: NodeId(node),
            ce_count: 1,
            ce_details: Vec::new(),
            ue_warnings: 0,
            boots: 0,
            retired_slots: Vec::new(),
            fatal,
            ue_detector: None,
        }
    }

    /// A forest trained so that many CEs (a large error-feature vector) means "UE likely".
    fn trained_forest() -> RandomForest {
        let mut data = Dataset::new();
        for i in 0..200 {
            let ce = if i % 2 == 0 { 0 } else { 100_000 };
            let s = state(0, 0, ce, 0.0);
            data.push(s.to_error_vector(), ce > 0);
        }
        RandomForest::fit(&data, &RandomForestConfig::small(3))
    }

    #[test]
    fn never_and_always_are_constant() {
        let never = NeverMitigate;
        let always = AlwaysMitigate;
        let s = state(1, 10, 5, 100.0);
        assert!(!never.decide(&s));
        assert!(always.decide(&s));
        assert_eq!(never.name(), "Never-mitigate");
        assert_eq!(always.name(), "Always-mitigate");
    }

    #[test]
    fn oracle_mitigates_only_on_the_last_event_before_a_ue() {
        // Node 1: CE@10, CE@20, UE@30. The oracle mitigates at the CE@20 event only.
        let tl = NodeTimeline::new(
            NodeId(1),
            SimTime::ZERO,
            SimTime::from_days(1),
            vec![
                merged(1, 10, false),
                merged(1, 20, false),
                merged(1, 30, true),
            ],
        );
        let timelines = TimelineSet::from_timelines(SimTime::ZERO, SimTime::from_days(1), vec![tl]);
        let oracle = OraclePolicy::from_timelines(&timelines);
        assert_eq!(oracle.mitigate_at.len(), 1);
        assert!(!oracle.decide(&state(1, 10, 1, 0.0)));
        assert!(oracle.decide(&state(1, 20, 2, 0.0)));
        assert!(
            !oracle.decide(&state(2, 20, 2, 0.0)),
            "other nodes are untouched"
        );
    }

    #[test]
    fn oracle_with_silent_ue_plans_no_mitigation_for_it() {
        // A UE with no preceding event cannot be mitigated by any event-triggered policy.
        let tl = NodeTimeline::new(
            NodeId(3),
            SimTime::ZERO,
            SimTime::from_days(1),
            vec![merged(3, 30, true), merged(3, 60, false)],
        );
        let timelines = TimelineSet::from_timelines(SimTime::ZERO, SimTime::from_days(1), vec![tl]);
        let oracle = OraclePolicy::from_timelines(&timelines);
        assert_eq!(oracle.mitigate_at.len(), 0);
    }

    #[test]
    fn threshold_rf_policy_follows_the_forest_and_threshold() {
        let forest = trained_forest();
        let policy = ThresholdRfPolicy::new(forest, 0.5, "SC20-RF").with_training_cost(0.1);
        let quiet = state(1, 10, 0, 50.0);
        let noisy = state(1, 20, 100_000, 50.0);
        assert!(!policy.decide(&quiet));
        assert!(policy.decide(&noisy));
        assert!(policy.probability(&noisy) > policy.probability(&quiet));
        assert_eq!(policy.name(), "SC20-RF");
        assert_eq!(policy.training_cost_node_hours(), 0.1);
        assert_eq!(policy.threshold(), 0.5);
    }

    #[test]
    fn myopic_rf_weighs_cost_against_mitigation_cost() {
        let forest = trained_forest();
        let policy = MyopicRfPolicy::new(forest, 2.0 / 60.0);
        // High probability but negligible potential cost: not worth mitigating.
        let noisy_cheap = state(1, 10, 100_000, 0.001);
        // High probability and high potential cost: mitigate.
        let noisy_expensive = state(1, 20, 100_000, 1000.0);
        // Low probability, even with huge cost the expected cost may still exceed the
        // tiny 2-node-minute mitigation cost; just confirm ordering of expected costs.
        assert!(!policy.decide(&noisy_cheap));
        assert!(policy.decide(&noisy_expensive));
        assert!(policy.expected_ue_cost(&noisy_expensive) > policy.expected_ue_cost(&noisy_cheap));
        assert_eq!(policy.name(), "Myopic-RF");
    }

    #[test]
    fn rl_policy_wraps_a_greedy_agent() {
        let agent = DqnAgent::new(AgentConfig::small(crate::state::STATE_DIM).with_seed(1));
        let policy = RlPolicy::new(agent).with_training_cost(0.5);
        let s = state(1, 10, 5, 10.0);
        let decision = policy.decide(&s);
        let q = policy.agent().q_values(&s.to_vector());
        assert_eq!(q.len(), 2);
        assert_eq!(decision, q[1] > q[0]);
        assert_eq!(policy.name(), "RL");
        assert_eq!(policy.training_cost_node_hours(), 0.5);
    }

    #[test]
    #[should_panic(expected = "threshold must be in")]
    fn bad_threshold_rejected() {
        ThresholdRfPolicy::new(trained_forest(), 1.5, "bad");
    }

    #[test]
    fn rl_decisions_match_the_allocating_agent_path_exactly() {
        // Both the agent and its wrapping policy must decide as the greedy action of the
        // agent's Q-values on to_vector for every state, and decide_batch must be
        // batch-transparent: the same decisions at any grouping.
        let agent = DqnAgent::new(AgentConfig::small(crate::state::STATE_DIM).with_seed(9));
        let states: Vec<StateFeatures> = (0..13)
            .map(|i| {
                let mut s = state(i, i as i64 * 10, (i as u64) * 17 % 5, i as f64 * 3.5);
                s.ue_warnings = u64::from(i % 3);
                s.hours_since_boot = f64::from(i) * 0.7;
                s
            })
            .collect();
        let policy = RlPolicy::new(agent);
        let reference: Vec<bool> = states
            .iter()
            .map(|s| greedy_action(&policy.agent().q_values(&s.to_vector())) == 1)
            .collect();
        let deciders: [(&str, &dyn MitigationPolicy); 2] =
            [("RlPolicy", &policy), ("DqnAgent", policy.agent())];
        for (label, decider) in deciders {
            assert_eq!(decider.name(), "RL");
            let singles: Vec<bool> = states.iter().map(|s| decider.decide(s)).collect();
            assert_eq!(singles, reference, "{label} diverged");
            for batch_size in [1, 2, 5, 13] {
                let mut batched = Vec::new();
                for chunk in states.chunks(batch_size) {
                    decider.decide_batch(chunk, &mut batched);
                }
                assert_eq!(
                    batched, reference,
                    "{label} batch size {batch_size} diverged"
                );
            }
        }
    }

    #[test]
    fn default_decide_batch_loops_decide() {
        let policy = AlwaysMitigate;
        let states = vec![state(1, 10, 0, 0.0), state(2, 20, 3, 5.0)];
        let mut out = vec![false]; // pre-existing entries must be preserved
        policy.decide_batch(&states, &mut out);
        assert_eq!(out, vec![false, true, true]);
    }
}

//! The fleet server: event-time ticks, one session map and micro-batched inference.
//!
//! [`FleetServer`] consumes the fleet-merged, event-time-ordered stream of per-minute
//! merged error events and serves one mitigation decision per non-fatal event. Events
//! carrying the same timestamp form one **tick**; when a newer timestamp arrives the
//! tick is flushed:
//!
//! 1. the tick's events are absorbed serially, in **node-id order**, into each node's
//!    [`NodeSession`] — the one session type the offline environment cursor pushes
//!    too — held in one node-id-keyed session map, collecting the tick's decision
//!    requests;
//! 2. the requests, already in node-id order, are stacked into **micro-batches** of
//!    at most [`ServeConfig::batch_size`] states, each answered by a single batched
//!    forward pass through [`MitigationPolicy::decide_batch`];
//! 3. the decisions are applied to their sessions — paying mitigation costs, moving
//!    the Equation 3 reference points — and emitted in the same node-id order.
//!
//! Each node's events pass through the same [`NodeSession::observe`] the offline
//! rollout uses, batched Q-inference is bit-identical per row to single-state
//! inference, and every reduction (request assembly, decision application, fleet
//! totals) runs in node-id order. So the server's decisions and accumulated costs are
//! **bit-identical to the offline evaluator's `run_policy` rollout** of the same
//! timelines — at any batch size and thread count. The serving-parity suite pins
//! this.

use crate::metrics::{serve_metrics, shadow_cost_gauge};
use std::collections::BTreeMap;
use std::sync::Arc;
use uerl_core::config::MitigationConfig;
use uerl_core::event_stream::TimelineSet;
use uerl_core::policy::MitigationPolicy;
use uerl_core::session::{NodeSession, Observed, PolicyRun, RecordRetention, UeRecord};
use uerl_core::state::StateFeatures;
use uerl_jobs::schedule::NodeJobSampler;
use uerl_obs::Gauge;
use uerl_trace::log::MergedEvent;
use uerl_trace::types::{NodeId, SimTime};

/// A policy scored counterfactually alongside the served one.
pub type ShadowPolicy = Arc<dyn MitigationPolicy + Send + Sync>;

/// Sample rate of the wall-clock tick-duration span: one tick in this many reads the
/// clock. Most ticks of a per-minute merged stream hold a single event, so timing
/// every tick would make the two `Instant::now` calls a measurable fraction of the
/// tick itself; sampling keeps the histogram representative (it is wall-clock class,
/// excluded from fingerprints) at ~1/8 of the cost.
const TICK_SPAN_SAMPLE: u64 = 8;

/// The internal per-tick flush republishes the cost/regret/pool gauges one tick in
/// this many (an explicit [`FleetServer::flush`] always republishes). The gauge
/// *values* stay event-time deterministic — the cadence is a tick count, never wall
/// clock — and the final state after a stream's closing flush is exact.
const GAUGE_UPDATE_TICKS: u64 = 64;

/// Configuration of a [`FleetServer`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Serving window start (anchors feature extraction and job sequences; must match
    /// the offline evaluation window for parity).
    pub window_start: SimTime,
    /// Serving window end (job sequences cover `[window_start, window_end)`).
    pub window_end: SimTime,
    /// Mitigation cost / restartability knobs.
    pub mitigation: MitigationConfig,
    /// Evaluation seed: each node's job sequence derives from `(seed, node id)` only,
    /// the same workload-fairness contract as the offline evaluator.
    pub seed: u64,
    /// Maximum decision requests stacked into one batched forward pass.
    pub batch_size: usize,
    /// Record retention of the node sessions ([`ServeConfig::new`] defaults to
    /// totals-only: a fleet session keeps counters and cost totals, not per-event logs,
    /// so its footprint is O(1) in the node's event count). Counters, costs and
    /// decisions are bit-identical either way.
    pub retention: RecordRetention,
}

impl ServeConfig {
    /// A configuration with the default micro-batch size (64) and totals-only record
    /// retention.
    pub fn new(
        window_start: SimTime,
        window_end: SimTime,
        mitigation: MitigationConfig,
        seed: u64,
    ) -> Self {
        assert!(
            window_end > window_start,
            "serving window must be non-empty"
        );
        Self {
            window_start,
            window_end,
            mitigation,
            seed,
            batch_size: 64,
            retention: RecordRetention::TotalsOnly,
        }
    }

    /// The configuration for serving a timeline set's period: the set's window, with
    /// every per-node timeline **verified to cover exactly that window**.
    ///
    /// The offline evaluator samples each node's jobs over *that timeline's* window;
    /// the server — which sees a stream, not timelines — samples over its configured
    /// window. The two only coincide (and the bit-parity guarantee only holds) when
    /// every timeline's window equals the set's, which is what `TimelineSet::from_log`
    /// and `TimelineSet::slice` always produce. This constructor makes that
    /// precondition explicit instead of silently serving a divergent workload.
    ///
    /// # Panics
    /// Panics if any timeline's window differs from the set's.
    pub fn for_timelines(timelines: &TimelineSet, mitigation: MitigationConfig, seed: u64) -> Self {
        for timeline in timelines.timelines() {
            assert!(
                timeline.window_start() == timelines.window_start()
                    && timeline.window_end() == timelines.window_end(),
                "timeline of node {} covers [{}, {}) but the set covers [{}, {}): \
                 per-node windows must equal the serving window for offline parity",
                timeline.node().0,
                timeline.window_start().0,
                timeline.window_end().0,
                timelines.window_start().0,
                timelines.window_end().0,
            );
        }
        Self::new(
            timelines.window_start(),
            timelines.window_end(),
            mitigation,
            seed,
        )
    }

    /// Set the micro-batch size (decisions per forward pass).
    ///
    /// # Panics
    /// Panics if `batch_size` is zero.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        self.batch_size = batch_size;
        self
    }

    /// Select the session record retention (overriding the totals-only default). Full
    /// retention is what the parity suites use to compare logs entry for entry;
    /// totals-only is the production default.
    pub fn with_retention(mut self, retention: RecordRetention) -> Self {
        self.retention = retention;
        self
    }
}

/// One decision served by the fleet server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServedDecision {
    /// Node the decision was served for.
    pub node: NodeId,
    /// Timestamp of the event that triggered the decision request.
    pub time: SimTime,
    /// Whether a mitigation was ordered.
    pub mitigated: bool,
}

/// Rejected ingestion: the stream violated the event-time ordering contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfOrderEvent {
    /// Node of the rejected event.
    pub node: NodeId,
    /// Timestamp of the rejected event.
    pub time: SimTime,
    /// The server's current tick time, which the event precedes.
    pub tick: SimTime,
}

impl std::fmt::Display for OutOfOrderEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "out-of-order event for node {} at t={}s: the server already advanced to \
             t={}s (event times must be non-decreasing per node, and the merged fleet \
             stream non-decreasing overall)",
            self.node.0, self.time.0, self.tick.0
        )
    }
}

impl std::error::Error for OutOfOrderEvent {}

/// Per-node serving totals (bit-equal to the same node's offline rollout).
#[derive(Debug, Clone, PartialEq)]
pub struct NodeServeReport {
    /// The node.
    pub node: NodeId,
    /// Mitigations ordered on this node.
    pub mitigations: u64,
    /// "Do nothing" decisions served for this node.
    pub non_mitigations: u64,
    /// Node-hours paid for this node's mitigations.
    pub mitigation_cost: f64,
    /// Fatal events accounted on this node.
    pub ue_count: u64,
    /// Node-hours lost to this node's fatal events.
    pub ue_cost: f64,
    /// Every decision served, in event order (empty under totals-only retention).
    pub decisions: Vec<(SimTime, bool)>,
    /// Every fatal event accounted, in event order (empty under totals-only
    /// retention).
    pub ue_records: Vec<UeRecord>,
}

/// Fleet-wide serving totals, accumulated in node-id order (bit-comparable to the
/// offline evaluator's `PolicyRun` for the same timelines and policy).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Name of the serving policy.
    pub policy: String,
    /// Total mitigations ordered.
    pub mitigations: u64,
    /// Total "do nothing" decisions.
    pub non_mitigations: u64,
    /// Node-hours of mitigation actions plus the policy's training cost (charged once,
    /// exactly as the offline cost-benefit accounting does).
    pub mitigation_cost: f64,
    /// Total fatal events accounted.
    pub ue_count: u64,
    /// Node-hours lost to fatal events.
    pub ue_cost: f64,
    /// Events ingested (decision requests + fatals).
    pub events: u64,
    /// Record retention the sessions ran under (totals and counters are identical
    /// in both modes; the per-node logs are populated only under full retention).
    pub retention: RecordRetention,
    /// Per-node breakdowns, in node-id order.
    pub per_node: Vec<NodeServeReport>,
}

impl ServeReport {
    /// Total cost: UE cost plus mitigation (and training) cost.
    pub fn total_cost(&self) -> f64 {
        self.ue_cost + self.mitigation_cost
    }
}

/// Cumulative cost totals accumulated in served event order (deterministic at any
/// thread count and batch size — the accumulation order is node-id order within each
/// round).
#[derive(Debug, Clone, Copy, Default)]
struct RunningCost {
    mitigation_cost: f64,
    ue_cost: f64,
}

/// A shadow lane's fleet totals (see [`FleetServer::shadow_report`]). The alias
/// exists only because the benchmark crate imports this name.
pub type ShadowScore = PolicyRun;

/// The online mitigation service for a fleet of nodes.
pub struct FleetServer<P: MitigationPolicy> {
    config: ServeConfig,
    policy: P,
    sampler: NodeJobSampler,
    sessions: BTreeMap<NodeId, NodeSession>,
    tick_time: Option<SimTime>,
    tick_events: Vec<MergedEvent>,
    events_ingested: u64,
    ticks_flushed: u64,
    decision_buf: Vec<bool>,
    shadow_policies: Vec<ShadowPolicy>,
    shadow_gauges: Vec<Arc<Gauge>>,
    served_running: RunningCost,
    shadow_running: Vec<RunningCost>,
}

impl<P: MitigationPolicy> FleetServer<P> {
    /// Create a server. The policy is queried greedily (its training, if any, is
    /// already done); the sampler provides the per-node job sequences.
    pub fn new(config: ServeConfig, policy: P, sampler: NodeJobSampler) -> Self {
        Self {
            config,
            policy,
            sampler,
            sessions: BTreeMap::new(),
            tick_time: None,
            tick_events: Vec::new(),
            events_ingested: 0,
            ticks_flushed: 0,
            decision_buf: Vec::new(),
            shadow_policies: Vec::new(),
            shadow_gauges: Vec::new(),
            served_running: RunningCost::default(),
            shadow_running: Vec::new(),
        }
    }

    /// Attach shadow policies: each is scored counterfactually on the identical
    /// served stream — same events, same feature states, its own Equation 3 cost
    /// reference per node — without influencing any served decision. Their fleet
    /// totals come back through [`FleetServer::shadow_report`] and feed the live
    /// cost-regret gauge.
    ///
    /// # Panics
    /// Panics after the first event was ingested (sessions allocate their lanes at
    /// creation), or if two shadow policies share a name (their metric labels — and
    /// report rows — would collide).
    pub fn with_shadow_policies(mut self, policies: Vec<ShadowPolicy>) -> Self {
        assert!(
            self.events_ingested == 0 && self.live_nodes() == 0,
            "shadow policies must be attached before the first event is ingested"
        );
        for (i, a) in policies.iter().enumerate() {
            for b in policies.iter().skip(i + 1) {
                assert!(
                    a.name() != b.name(),
                    "duplicate shadow policy name {:?}",
                    a.name()
                );
            }
        }
        self.shadow_gauges = policies
            .iter()
            .map(|p| shadow_cost_gauge(p.name()))
            .collect();
        self.shadow_running = vec![RunningCost::default(); policies.len()];
        self.shadow_policies = policies;
        self
    }

    /// The attached shadow policies, lane order.
    pub fn shadow_policies(&self) -> &[ShadowPolicy] {
        &self.shadow_policies
    }

    /// The configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The serving policy.
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// Events ingested so far (including those buffered in the open tick).
    pub fn events_ingested(&self) -> u64 {
        self.events_ingested
    }

    /// Nodes with live sessions.
    pub fn live_nodes(&self) -> usize {
        self.sessions.len()
    }

    /// Ingest one event of the merged fleet stream. Decisions become available once
    /// the event's tick closes — i.e. when a later-timestamped event arrives (they are
    /// appended to `out`) or the caller flushes explicitly — because a tick's requests
    /// are micro-batched together.
    ///
    /// # Errors
    /// Rejects events that precede the current tick: event times must be
    /// non-decreasing per node, and the fleet-merged stream non-decreasing overall.
    pub fn ingest(
        &mut self,
        event: MergedEvent,
        out: &mut Vec<ServedDecision>,
    ) -> Result<(), OutOfOrderEvent> {
        if let Some(tick) = self.tick_time {
            if event.time < tick {
                serve_metrics().out_of_order.inc();
                return Err(OutOfOrderEvent {
                    node: event.node,
                    time: event.time,
                    tick,
                });
            }
            if event.time > tick {
                self.flush_tick(out);
            }
        }
        self.tick_time = Some(event.time);
        self.events_ingested += 1;
        self.tick_events.push(event);
        Ok(())
    }

    /// Ingest a whole stream, appending every served decision to `out` and flushing
    /// the final tick.
    ///
    /// # Errors
    /// As [`FleetServer::ingest`]; ingestion stops at the first rejected event.
    pub fn ingest_all(
        &mut self,
        events: impl IntoIterator<Item = MergedEvent>,
        out: &mut Vec<ServedDecision>,
    ) -> Result<(), OutOfOrderEvent> {
        for event in events {
            self.ingest(event, out)?;
        }
        self.flush(out);
        Ok(())
    }

    /// Flush the open tick: absorb its events in node-id order, answer its decision
    /// requests in node-id-ordered micro-batches, apply and emit the decisions.
    /// Called automatically when a later tick starts; call it after the last event of
    /// a stream (or use [`FleetServer::ingest_all`], which does). An explicit flush
    /// also republishes the cost/regret gauges, which the internal per-tick flush
    /// refreshes only every [`GAUGE_UPDATE_TICKS`] ticks to stay off the hot path.
    pub fn flush(&mut self, out: &mut Vec<ServedDecision>) {
        self.flush_tick(out);
        self.update_gauges();
    }

    /// The per-tick flush body (the path `ingest` takes when a newer timestamp rolls
    /// the tick over). Wall-clock tick spans are sampled one tick in
    /// [`TICK_SPAN_SAMPLE`] and the gauges are republished one tick in
    /// [`GAUGE_UPDATE_TICKS`]; every event-time counter and histogram still records
    /// every tick.
    // The `%`-spelled cadence checks stay: swapping them for `is_multiple_of` measured
    // several percent slower on the single-core obs_overhead gate (the zero-divisor
    // branch does not fold away here), and this is the per-tick hot path.
    #[allow(clippy::manual_is_multiple_of)]
    fn flush_tick(&mut self, out: &mut Vec<ServedDecision>) {
        if self.tick_events.is_empty() {
            return;
        }
        let metrics = serve_metrics();
        let _tick_span = (self.ticks_flushed % TICK_SPAN_SAMPLE == 0)
            .then(|| metrics.tick_duration_nanos.span());
        self.ticks_flushed += 1;
        metrics.tick_events.record(self.tick_events.len() as u64);
        metrics.events.add(self.tick_events.len() as u64);
        // Serve the tick in *rounds*. A node normally contributes one merged event per
        // tick (the stream is per-minute merged), but duplicates are legal: round k
        // serves the k-th event of every node that has one, in node-id order, so a
        // second event always sees its node's state after the first event's decision
        // was applied, exactly as the offline replay does. The sort is stable, so each
        // node's run keeps its arrival order.
        let mut events = std::mem::take(&mut self.tick_events);
        events.sort_by_key(|event| event.node);
        let mut round: Vec<&MergedEvent> = Vec::with_capacity(events.len());
        let mut rounds = 0u64;
        loop {
            round.clear();
            round.extend(
                events
                    .chunk_by(|a, b| a.node == b.node)
                    .filter_map(|run| run.get(rounds as usize)),
            );
            if round.is_empty() {
                break;
            }
            self.serve_round(&round, out);
            rounds += 1;
        }
        events.clear();
        self.tick_events = events;
        if rounds > 1 {
            metrics.duplicate_rounds.add(rounds - 1);
        }
        if self.ticks_flushed % GAUGE_UPDATE_TICKS == 0 {
            self.update_gauges();
        }
    }

    /// Refresh the cost / regret gauges and poll the work-stealing pool counters.
    /// Gauge *values* are event-time deterministic (they mirror the running totals);
    /// the pool statistics are wall-clock scheduler state.
    fn update_gauges(&self) {
        if !uerl_obs::enabled() {
            return;
        }
        let metrics = serve_metrics();
        let served_mitigation =
            self.served_running.mitigation_cost + self.policy.training_cost_node_hours();
        metrics.served_mitigation_cost.set(served_mitigation);
        metrics.served_ue_cost.set(self.served_running.ue_cost);
        let served_total = served_mitigation + self.served_running.ue_cost;
        let mut best_shadow: Option<f64> = None;
        for (lane, gauge) in self.shadow_gauges.iter().enumerate() {
            let total = self.shadow_running[lane].mitigation_cost
                + self.shadow_policies[lane].training_cost_node_hours()
                + self.shadow_running[lane].ue_cost;
            gauge.set(total);
            best_shadow = Some(best_shadow.map_or(total, |b: f64| b.min(total)));
        }
        if let Some(best) = best_shadow {
            metrics.shadow_regret.set(served_total - best);
        }
        let pool = rayon::pool_stats();
        metrics.pool_jobs_executed.set(pool.jobs_executed as f64);
        metrics.pool_steals.set(pool.steals as f64);
        metrics
            .pool_injector_depth_hwm
            .set(pool.injector_depth_hwm as f64);
        metrics
            .pool_deque_depth_hwm
            .set(pool.deque_depth_hwm as f64);
    }

    /// Serve one round (at most one event per node, node-id order): absorb the events,
    /// micro-batch the resulting decision requests, apply and emit the decisions,
    /// then replay the same requests through every shadow lane.
    fn serve_round(&mut self, round: &[&MergedEvent], out: &mut Vec<ServedDecision>) {
        let (nodes, states) = self.observe_round(round);
        let metrics = serve_metrics();
        let batch = self.config.batch_size;
        let mut mitigated = 0u64;
        let mut not_mitigated = 0u64;
        for (node_chunk, state_chunk) in nodes.chunks(batch).zip(states.chunks(batch)) {
            metrics.batch_size.record(state_chunk.len() as u64);
            self.decision_buf.clear();
            self.policy
                .decide_batch(state_chunk, &mut self.decision_buf);
            debug_assert_eq!(self.decision_buf.len(), state_chunk.len());
            for (i, (node, state)) in node_chunk.iter().zip(state_chunk).enumerate() {
                let mitigate = self.decision_buf[i];
                let paid = self.session_mut(*node).apply_decision(state.time, mitigate);
                self.served_running.mitigation_cost += paid;
                if mitigate {
                    mitigated += 1;
                } else {
                    not_mitigated += 1;
                }
                out.push(ServedDecision {
                    node: *node,
                    time: state.time,
                    mitigated: mitigate,
                });
            }
        }
        if mitigated > 0 {
            metrics.decisions_mitigate.add(mitigated);
        }
        if not_mitigated > 0 {
            metrics.decisions_none.add(not_mitigated);
        }
        // Shadow lanes: decide the identical requests counterfactually. The lane's
        // decision state re-derives only the Equation 3 fields from the lane's own
        // reference; every other feature is event-derived and shared. Lanes run after
        // the served decisions but read none of their effects.
        for lane in 0..self.shadow_policies.len() {
            let policy = Arc::clone(&self.shadow_policies[lane]);
            let shadow_states: Vec<StateFeatures> = nodes
                .iter()
                .zip(&states)
                .map(|(&node, served)| {
                    self.session(node)
                        .expect("request node has a live session")
                        .shadow_state(lane, served)
                })
                .collect();
            for (node_chunk, state_chunk) in nodes.chunks(batch).zip(shadow_states.chunks(batch)) {
                self.decision_buf.clear();
                policy.decide_batch(state_chunk, &mut self.decision_buf);
                debug_assert_eq!(self.decision_buf.len(), state_chunk.len());
                for (i, (node, state)) in node_chunk.iter().zip(state_chunk).enumerate() {
                    let mitigate = self.decision_buf[i];
                    let paid = self
                        .session_mut(*node)
                        .apply_shadow_decision(lane, state.time, mitigate);
                    self.shadow_running[lane].mitigation_cost += paid;
                }
            }
        }
    }

    /// Absorb one round of events into the node sessions and return the decision
    /// requests in node-id order (the round's order). Each fatal's served and shadow
    /// UE costs are folded into the running totals as it is observed, so the f64
    /// accumulation order — and therefore every gauge bit — is node-id order too.
    fn observe_round(&mut self, round: &[&MergedEvent]) -> (Vec<NodeId>, Vec<StateFeatures>) {
        let mut nodes = Vec::new();
        let mut states = Vec::new();
        for event in round {
            let node = event.node;
            match self.session_mut(node).observe(event) {
                Observed::Request(state) => {
                    nodes.push(node);
                    states.push(state);
                }
                Observed::Fatal {
                    ue_cost,
                    shadow_ue_costs,
                } => {
                    self.served_running.ue_cost += ue_cost;
                    for (running, cost) in self.shadow_running.iter_mut().zip(shadow_ue_costs) {
                        running.ue_cost += cost;
                    }
                }
            }
        }
        (nodes, states)
    }

    fn session_mut(&mut self, node: NodeId) -> &mut NodeSession {
        let config = &self.config;
        let sampler = &self.sampler;
        let shadow_lanes = self.shadow_policies.len();
        self.sessions
            .entry(node)
            .or_insert_with(|| new_session(node, config, sampler, shadow_lanes))
    }

    /// The session of a node, if it has received events.
    pub fn session(&self, node: NodeId) -> Option<&NodeSession> {
        self.sessions.get(&node)
    }

    /// Every live session, in node-id order (the order every fleet total is folded
    /// in).
    pub fn sessions(&self) -> impl Iterator<Item = &NodeSession> {
        self.sessions.values()
    }

    /// Fleet-wide report, accumulated in node-id order so every floating-point total
    /// is bit-comparable to the offline evaluator's `PolicyRun` over the same
    /// timelines (which merges per-node rollouts in timeline = node-id order, after
    /// charging the policy's training cost once).
    ///
    /// Only flushed ticks are included; flush the final tick first (or ingest via
    /// [`FleetServer::ingest_all`]).
    pub fn report(&self) -> ServeReport {
        let mut report = ServeReport {
            policy: self.policy.name().to_string(),
            mitigations: 0,
            non_mitigations: 0,
            mitigation_cost: self.policy.training_cost_node_hours(),
            ue_count: 0,
            ue_cost: 0.0,
            events: self.events_ingested,
            retention: self.config.retention,
            per_node: Vec::with_capacity(self.sessions.len()),
        };
        for session in self.sessions() {
            let account = session.account();
            report.mitigations += account.mitigation_count();
            report.non_mitigations += account.non_mitigation_count();
            report.mitigation_cost += account.total_mitigation_cost();
            report.ue_count += account.ue_count();
            report.ue_cost += account.total_ue_cost();
            report.per_node.push(NodeServeReport {
                node: session.node(),
                mitigations: account.mitigation_count(),
                non_mitigations: account.non_mitigation_count(),
                mitigation_cost: account.total_mitigation_cost(),
                ue_count: account.ue_count(),
                ue_cost: account.total_ue_cost(),
                decisions: account.decisions().to_vec(),
                ue_records: account.ue_records().to_vec(),
            });
        }
        report
    }

    /// Counterfactual fleet totals of every shadow policy, lane order, folded with
    /// the offline evaluator's own merge ([`PolicyRun::for_policy`], then
    /// [`PolicyRun::add_node`] in node-id order), so every float is bit-comparable to
    /// `run_policy` of that policy over the same timelines. Shadow lanes keep totals
    /// only, so the runs carry no logs. Only flushed ticks are included.
    pub fn shadow_report(&self) -> Vec<PolicyRun> {
        self.shadow_policies
            .iter()
            .enumerate()
            .map(|(lane, policy)| {
                let mut run = PolicyRun::for_policy(&**policy);
                for session in self.sessions() {
                    run.add_node(session.node(), session.shadow_account(lane));
                }
                run
            })
            .collect()
    }
}

/// A fresh session for `node`, built from the server's configuration.
fn new_session(
    node: NodeId,
    config: &ServeConfig,
    sampler: &NodeJobSampler,
    shadow_lanes: usize,
) -> NodeSession {
    NodeSession::new(
        node,
        config.window_start,
        sampler.node_sequence(config.seed, node, config.window_start, config.window_end),
        config.mitigation,
        config.retention,
        shadow_lanes,
    )
}

/// Merge a timeline set into the single fleet-wide, event-time-ordered stream a
/// [`FleetServer`] consumes (time-major; ties broken by node id; a node's equal-time
/// events keep their timeline order — the sort is stable).
pub fn merged_fleet_stream(timelines: &TimelineSet) -> Vec<MergedEvent> {
    let mut events: Vec<MergedEvent> = timelines
        .timelines()
        .iter()
        .flat_map(|t| t.events().iter().cloned())
        .collect();
    events.sort_by_key(|e| (e.time, e.node.0));
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use uerl_core::policies::{AlwaysMitigate, NeverMitigate};

    fn event(node: u32, minute: i64, fatal: bool) -> MergedEvent {
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

    fn config() -> ServeConfig {
        ServeConfig::new(
            SimTime::ZERO,
            SimTime::from_days(10),
            MitigationConfig::paper_default(),
            7,
        )
    }

    fn sampler() -> NodeJobSampler {
        let jobs =
            uerl_jobs::JobTraceGenerator::new(uerl_jobs::JobLogConfig::small(16, 10, 3)).generate();
        NodeJobSampler::from_log(&jobs)
    }

    #[test]
    fn decisions_are_served_when_the_tick_closes() {
        let mut server = FleetServer::new(config(), AlwaysMitigate, sampler());
        let mut out = Vec::new();
        server.ingest(event(1, 10, false), &mut out).unwrap();
        server.ingest(event(2, 10, false), &mut out).unwrap();
        assert!(out.is_empty(), "the tick is still open");
        server.ingest(event(1, 11, false), &mut out).unwrap();
        // The t=10 tick flushed: two decisions, node-id order.
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].node, NodeId(1));
        assert_eq!(out[1].node, NodeId(2));
        assert!(out.iter().all(|d| d.mitigated));
        server.flush(&mut out);
        assert_eq!(out.len(), 3);
        assert_eq!(server.events_ingested(), 3);
        assert_eq!(server.live_nodes(), 2);
    }

    #[test]
    fn out_of_order_events_per_node_are_rejected() {
        let mut server = FleetServer::new(config(), NeverMitigate, sampler());
        let mut out = Vec::new();
        server.ingest(event(1, 10, false), &mut out).unwrap();
        let err = server.ingest(event(1, 5, false), &mut out).unwrap_err();
        assert_eq!(err.node, NodeId(1));
        assert_eq!(err.time, SimTime::from_minutes(5));
        assert_eq!(err.tick, SimTime::from_minutes(10));
        assert!(err.to_string().contains("out-of-order"));
    }

    #[test]
    fn a_stale_event_from_another_node_is_also_rejected() {
        // The server consumes the *merged* fleet stream, so global event-time order is
        // the ingestion contract (which subsumes the per-node one).
        let mut server = FleetServer::new(config(), NeverMitigate, sampler());
        let mut out = Vec::new();
        server.ingest(event(1, 10, false), &mut out).unwrap();
        assert!(server.ingest(event(2, 9, false), &mut out).is_err());
        // Equal-time events are fine: they join the open tick.
        server.ingest(event(2, 10, false), &mut out).unwrap();
    }

    #[test]
    fn fatal_events_produce_no_decision_but_are_accounted() {
        // Full retention: the test inspects the per-node UE record log.
        let mut server = FleetServer::new(
            config().with_retention(RecordRetention::Full),
            NeverMitigate,
            sampler(),
        );
        let mut out = Vec::new();
        server
            .ingest_all([event(1, 10, false), event(1, 600, true)], &mut out)
            .unwrap();
        assert_eq!(out.len(), 1, "only the non-fatal event is a decision");
        let report = server.report();
        assert_eq!(report.ue_count, 1);
        assert!(report.ue_cost >= 0.0);
        assert_eq!(report.mitigations, 0);
        assert_eq!(report.non_mitigations, 1);
        assert_eq!(report.per_node.len(), 1);
        assert_eq!(report.per_node[0].ue_records.len(), 1);
    }

    #[test]
    fn duplicate_timestamps_for_one_node_are_served_in_rounds() {
        // Two same-minute events of one node: the second decision must see the state
        // after the first decision was applied (the offline replay's order), which the
        // round mechanism guarantees even though both share a tick.
        let mut server = FleetServer::new(
            config().with_retention(RecordRetention::Full),
            AlwaysMitigate,
            sampler(),
        );
        let mut out = Vec::new();
        server
            .ingest_all([event(3, 10, false), event(3, 10, false)], &mut out)
            .unwrap();
        assert_eq!(out.len(), 2);
        let session = server.session(NodeId(3)).unwrap();
        assert_eq!(session.account().mitigation_count(), 2);
        assert_eq!(session.account().decisions().len(), 2);

        // Interleaved duplicates of several nodes in one tick: round k serves the k-th
        // event of every node that has one, in node-id order.
        let mut server = FleetServer::new(
            config().with_retention(RecordRetention::Full),
            AlwaysMitigate,
            sampler(),
        );
        let mut out = Vec::new();
        let tick = [5, 3, 5, 1, 3, 5].map(|node| event(node, 10, false));
        server.ingest_all(tick, &mut out).unwrap();
        let order: Vec<u32> = out.iter().map(|d| d.node.0).collect();
        assert_eq!(order, vec![1, 3, 5, 3, 5, 5]);
        for (node, count) in [(1, 1), (3, 2), (5, 3)] {
            let session = server.session(NodeId(node)).unwrap();
            assert_eq!(session.account().decisions().len(), count, "node {node}");
        }
    }

    #[test]
    fn report_accumulates_in_node_id_order_and_charges_training_cost_once() {
        struct Costly;
        impl MitigationPolicy for Costly {
            fn name(&self) -> &str {
                "costly"
            }
            fn decide(&self, _: &StateFeatures) -> bool {
                false
            }
            fn training_cost_node_hours(&self) -> f64 {
                2.5
            }
        }
        let mut server = FleetServer::new(config(), Costly, sampler());
        let mut out = Vec::new();
        server
            .ingest_all(
                [
                    event(5, 10, false),
                    event(1, 11, false),
                    event(3, 12, false),
                ],
                &mut out,
            )
            .unwrap();
        let report = server.report();
        assert_eq!(report.policy, "costly");
        assert!((report.mitigation_cost - 2.5).abs() < 1e-12);
        let ids: Vec<u32> = report.per_node.iter().map(|n| n.node.0).collect();
        assert_eq!(ids, vec![1, 3, 5]);
        let session_ids: Vec<u32> = server.sessions().map(|s| s.node().0).collect();
        assert_eq!(session_ids, vec![1, 3, 5]);
        assert_eq!(report.events, 3);
    }

    #[test]
    fn merged_stream_is_time_ordered_with_node_tiebreak() {
        let timelines = TimelineSet::from_timelines(
            SimTime::ZERO,
            SimTime::from_days(1),
            vec![
                uerl_core::event_stream::NodeTimeline::new(
                    NodeId(2),
                    SimTime::ZERO,
                    SimTime::from_days(1),
                    vec![event(2, 5, false), event(2, 20, false)],
                ),
                uerl_core::event_stream::NodeTimeline::new(
                    NodeId(1),
                    SimTime::ZERO,
                    SimTime::from_days(1),
                    vec![event(1, 5, false), event(1, 30, true)],
                ),
            ],
        );
        let stream = merged_fleet_stream(&timelines);
        let key: Vec<(i64, u32)> = stream.iter().map(|e| (e.time.0, e.node.0)).collect();
        assert_eq!(key, vec![(300, 1), (300, 2), (1200, 2), (1800, 1)]);
    }

    #[test]
    fn for_timelines_accepts_uniform_windows_and_rejects_divergent_ones() {
        let uniform = TimelineSet::from_timelines(
            SimTime::ZERO,
            SimTime::from_days(1),
            vec![uerl_core::event_stream::NodeTimeline::new(
                NodeId(1),
                SimTime::ZERO,
                SimTime::from_days(1),
                vec![event(1, 5, false)],
            )],
        );
        let config = ServeConfig::for_timelines(&uniform, MitigationConfig::paper_default(), 7);
        assert_eq!(config.window_start, SimTime::ZERO);
        assert_eq!(config.window_end, SimTime::from_days(1));

        let divergent = TimelineSet::from_timelines(
            SimTime::ZERO,
            SimTime::from_days(1),
            vec![uerl_core::event_stream::NodeTimeline::new(
                NodeId(1),
                SimTime::from_hours(3), // narrower than the set window
                SimTime::from_days(1),
                vec![event(1, 500, false)],
            )],
        );
        let result = std::panic::catch_unwind(|| {
            ServeConfig::for_timelines(&divergent, MitigationConfig::paper_default(), 7)
        });
        assert!(
            result.is_err(),
            "a timeline window differing from the set's must be rejected"
        );
    }

    #[test]
    fn wide_ticks_account_every_fatal_once_and_emit_decisions_in_node_id_order() {
        // Three 128-node ticks mixing fatal and non-fatal events, each ingested in
        // descending node order: every fatal must be accounted exactly once, and each
        // tick's decisions must come out in ascending node id, one per non-fatal event.
        const NODES: u32 = 128;
        let mut server = FleetServer::new(config(), AlwaysMitigate, sampler());
        let mut out = Vec::new();
        for minute in [10, 20, 30] {
            for node in (0..NODES).rev() {
                server
                    .ingest(event(node, minute, node % 9 == 0), &mut out)
                    .unwrap();
            }
        }
        server.flush(&mut out);
        let fatal_nodes = (0..NODES).filter(|n| n % 9 == 0).count() as u64;
        assert_eq!(server.report().ue_count, 3 * fatal_nodes);
        let ticks: Vec<&[ServedDecision]> = out.chunk_by(|a, b| a.time == b.time).collect();
        assert_eq!(ticks.len(), 3);
        for tick in ticks {
            assert!(tick.windows(2).all(|w| w[0].node < w[1].node));
            assert_eq!(tick.len() as u64, u64::from(NODES) - fatal_nodes);
        }
    }

    #[test]
    fn shadow_lanes_score_baselines_on_the_served_stream() {
        // Serve NeverMitigate with Always/Never shadows. The "never" lane sees the
        // exact stream the served policy sees, so its score must equal the served
        // report; the "always" lane must pay one mitigation per decision.
        let mut server =
            FleetServer::new(config(), NeverMitigate, sampler()).with_shadow_policies(vec![
                Arc::new(AlwaysMitigate) as ShadowPolicy,
                Arc::new(NeverMitigate) as ShadowPolicy,
            ]);
        let mut out = Vec::new();
        let events: Vec<MergedEvent> = (10..20)
            .flat_map(|minute| {
                (0..128).map(move |node| event(node, minute * 60, node % 13 == 0 && minute == 15))
            })
            .collect();
        server.ingest_all(events, &mut out).unwrap();
        server.flush(&mut out);
        let (report, shadows) = (server.report(), server.shadow_report());

        assert_eq!(shadows.len(), 2);
        let always = &shadows[0];
        let never = &shadows[1];
        assert_eq!(always.policy, "Always-mitigate");
        assert_eq!(never.policy, "Never-mitigate");

        // The "never" lane replays the served policy exactly.
        assert_eq!(never.mitigations, report.mitigations);
        assert_eq!(never.non_mitigations, report.non_mitigations);
        assert_eq!(never.ue_count, report.ue_count);
        assert_eq!(never.ue_cost.to_bits(), report.ue_cost.to_bits());
        assert_eq!(
            never.mitigation_cost.to_bits(),
            report.mitigation_cost.to_bits()
        );

        // The "always" lane mitigated every decision and paid for each one.
        assert_eq!(always.non_mitigations, 0);
        assert_eq!(
            always.mitigations,
            report.mitigations + report.non_mitigations
        );
        assert!(always.mitigation_cost > 0.0);
        assert_eq!(always.ue_count, report.ue_count);
        // Mitigation resets the UE reference point, so the always lane cannot lose
        // more node-hours to the fatals than the never lane.
        assert!(always.ue_cost <= never.ue_cost);
    }

    #[test]
    fn shadow_policies_must_have_distinct_names() {
        let server = FleetServer::new(config(), NeverMitigate, sampler());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            server.with_shadow_policies(vec![
                Arc::new(NeverMitigate) as ShadowPolicy,
                Arc::new(NeverMitigate) as ShadowPolicy,
            ])
        }));
        assert!(result.is_err(), "duplicate shadow names must be rejected");
    }
}

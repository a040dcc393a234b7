//! Per-node timelines: the episode substrate for training and evaluation.
//!
//! The environment replays historical (or synthetic) logs one node at a time: an episode
//! is "all events of one node within some time range". [`TimelineSet`] indexes a
//! preprocessed error log by node and hands out [`NodeTimeline`]s; nodes without events
//! never invoke the policy and therefore never appear here.

use rand::Rng;
use serde::{Deserialize, Serialize};
use uerl_trace::log::{ErrorLog, MergedEvent};
use uerl_trace::types::{NodeId, SimTime};

/// The per-minute merged events of one node, in time order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeTimeline {
    node: NodeId,
    window_start: SimTime,
    window_end: SimTime,
    events: Vec<MergedEvent>,
}

impl NodeTimeline {
    /// Build a timeline from already-merged events (must belong to `node` and be sorted).
    pub fn new(
        node: NodeId,
        window_start: SimTime,
        window_end: SimTime,
        events: Vec<MergedEvent>,
    ) -> Self {
        debug_assert!(events.iter().all(|e| e.node == node));
        debug_assert!(events.windows(2).all(|w| w[0].time <= w[1].time));
        Self {
            node,
            window_start,
            window_end,
            events,
        }
    }

    /// The node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Start of the covered window.
    pub fn window_start(&self) -> SimTime {
        self.window_start
    }

    /// End of the covered window.
    pub fn window_end(&self) -> SimTime {
        self.window_end
    }

    /// The merged events.
    pub fn events(&self) -> &[MergedEvent] {
        &self.events
    }

    /// Number of merged events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the timeline has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of fatal (UE / over-temperature) events in the timeline.
    pub fn fatal_count(&self) -> usize {
        self.events.iter().filter(|e| e.fatal).count()
    }

    /// A copy restricted to events in `[start, end)`.
    pub fn slice(&self, start: SimTime, end: SimTime) -> Self {
        Self {
            node: self.node,
            window_start: start,
            window_end: end,
            events: self
                .events
                .iter()
                .filter(|e| e.time >= start && e.time < end)
                .cloned()
                .collect(),
        }
    }
}

/// All node timelines of a log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimelineSet {
    window_start: SimTime,
    window_end: SimTime,
    timelines: Vec<NodeTimeline>,
}

impl TimelineSet {
    /// Build a timeline set from explicit timelines (tests, examples, and slicing).
    /// Timelines with no events are dropped.
    pub fn from_timelines(
        window_start: SimTime,
        window_end: SimTime,
        timelines: Vec<NodeTimeline>,
    ) -> Self {
        Self {
            window_start,
            window_end,
            timelines: timelines.into_iter().filter(|t| !t.is_empty()).collect(),
        }
    }

    /// Build the timeline set of a (preprocessed) error log. Only nodes with at least one
    /// merged event are included.
    ///
    /// Costs O(events) through one pass of [`ErrorLog::merged_by_node`], and allocates
    /// every timeline, and the set itself, at its exact size.
    pub fn from_log(log: &ErrorLog) -> Self {
        let (window_start, window_end) = (log.window_start(), log.window_end());
        Self {
            window_start,
            window_end,
            timelines: log
                .merged_by_node()
                .into_iter()
                .map(|(node, events)| NodeTimeline::new(node, window_start, window_end, events))
                .collect(),
        }
    }

    /// Start of the covered window.
    pub fn window_start(&self) -> SimTime {
        self.window_start
    }

    /// End of the covered window.
    pub fn window_end(&self) -> SimTime {
        self.window_end
    }

    /// The timelines, ordered by node id.
    pub fn timelines(&self) -> &[NodeTimeline] {
        &self.timelines
    }

    /// Number of nodes with events.
    pub fn len(&self) -> usize {
        self.timelines.len()
    }

    /// Whether no node has any event.
    pub fn is_empty(&self) -> bool {
        self.timelines.is_empty()
    }

    /// Total number of merged events across all nodes (the paper's "259,270 events").
    pub fn total_events(&self) -> usize {
        self.timelines.iter().map(NodeTimeline::len).sum()
    }

    /// Total number of fatal events across all nodes.
    pub fn total_fatal(&self) -> usize {
        self.timelines.iter().map(NodeTimeline::fatal_count).sum()
    }

    /// Pick a random node's timeline (uniformly among nodes with events), as done when
    /// assembling a training episode (Section 3.3.3).
    pub fn random_timeline<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&NodeTimeline> {
        if self.timelines.is_empty() {
            None
        } else {
            Some(&self.timelines[rng.gen_range(0..self.timelines.len())])
        }
    }

    /// A copy restricted to the time range `[start, end)` (used by the cross-validation
    /// splits); nodes whose events all fall outside the range are dropped.
    pub fn slice(&self, start: SimTime, end: SimTime) -> Self {
        Self {
            window_start: start,
            window_end: end,
            timelines: self
                .timelines
                .iter()
                .map(|t| t.slice(start, end))
                .filter(|t| !t.is_empty())
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use uerl_trace::generator::{SyntheticLogConfig, TraceGenerator};
    use uerl_trace::reduction::preprocess;

    fn timeline_set() -> TimelineSet {
        let log = TraceGenerator::new(SyntheticLogConfig::small(40, 90, 11)).generate();
        TimelineSet::from_log(&preprocess(&log))
    }

    #[test]
    fn from_log_covers_all_nodes_with_events() {
        let log = TraceGenerator::new(SyntheticLogConfig::small(40, 90, 11)).generate();
        let pre = preprocess(&log);
        let set = TimelineSet::from_log(&pre);
        assert_eq!(set.len(), pre.nodes_with_events().len());
        assert_eq!(set.total_events(), pre.merged_event_count());
        assert!(set.total_fatal() > 0);
    }

    #[test]
    fn timelines_are_time_ordered_and_node_consistent() {
        let set = timeline_set();
        for t in set.timelines() {
            assert!(!t.is_empty());
            assert!(t.events().iter().all(|e| e.node == t.node()));
            assert!(t.events().windows(2).all(|w| w[0].time <= w[1].time));
        }
    }

    #[test]
    fn timeline_lookup_and_random_selection() {
        let set = timeline_set();
        let mut rng = StdRng::seed_from_u64(1);
        let picked = set.random_timeline(&mut rng).unwrap();
        assert!(set.timelines().iter().any(|t| std::ptr::eq(t, picked)));
    }

    #[test]
    fn slicing_restricts_by_time() {
        let set = timeline_set();
        let mid = SimTime::from_days(45);
        let early = set.slice(set.window_start(), mid);
        let late = set.slice(mid, set.window_end());
        assert_eq!(
            early.total_events() + late.total_events(),
            set.total_events()
        );
        for t in early.timelines() {
            assert!(t.events().iter().all(|e| e.time < mid));
        }
        for t in late.timelines() {
            assert!(t.events().iter().all(|e| e.time >= mid));
        }
    }

    #[test]
    fn empty_set_behaviour() {
        let set = TimelineSet {
            window_start: SimTime::ZERO,
            window_end: SimTime::from_days(1),
            timelines: Vec::new(),
        };
        assert!(set.is_empty());
        let mut rng = StdRng::seed_from_u64(2);
        assert!(set.random_timeline(&mut rng).is_none());
    }
}

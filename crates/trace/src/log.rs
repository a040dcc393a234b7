//! The error-log container and per-minute event merging.

use crate::events::{CeDetail, Detector, EventKind, LogEvent};
use crate::fleet::FleetConfig;
use crate::types::{Manufacturer, NodeId, SimTime};
use serde::{Deserialize, Serialize};

/// A complete error log: the fleet it was collected on, the observation window, and the
/// time-ordered sequence of events.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorLog {
    fleet: FleetConfig,
    window_start: SimTime,
    window_end: SimTime,
    events: Vec<LogEvent>,
}

impl ErrorLog {
    /// Build a log from events (sorted internally) over the window `[start, end)`.
    ///
    /// # Panics
    /// Panics if the window is empty.
    pub fn new(
        fleet: FleetConfig,
        mut events: Vec<LogEvent>,
        window_start: SimTime,
        window_end: SimTime,
    ) -> Self {
        assert!(
            window_end > window_start,
            "observation window must be non-empty"
        );
        events.sort_by_key(|e| e.sort_key());
        Self {
            fleet,
            window_start,
            window_end,
            events,
        }
    }

    /// The fleet the log was collected on.
    pub fn fleet(&self) -> &FleetConfig {
        &self.fleet
    }

    /// Start of the observation window.
    pub fn window_start(&self) -> SimTime {
        self.window_start
    }

    /// End of the observation window.
    pub fn window_end(&self) -> SimTime {
        self.window_end
    }

    /// Length of the observation window in days.
    pub fn window_days(&self) -> f64 {
        (self.window_end - self.window_start) as f64 / SimTime::DAY as f64
    }

    /// All events, sorted by time.
    pub fn events(&self) -> &[LogEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the log holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterate over the events of one node, in time order.
    pub fn events_for_node(&self, node: NodeId) -> impl Iterator<Item = &LogEvent> {
        self.events.iter().filter(move |e| e.node == node)
    }

    /// The set of nodes that have at least one event.
    pub fn nodes_with_events(&self) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self.events.iter().map(|e| e.node).collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes.shrink_to_fit();
        nodes
    }

    /// Total number of corrected errors (the sum of record counts, i.e. the "4.5 million
    /// corrected errors" statistic, not the number of CE records).
    pub fn total_corrected_errors(&self) -> u64 {
        self.events
            .iter()
            .map(|e| e.kind.corrected_count() as u64)
            .sum()
    }

    /// Number of events whose kind is fatal (uncorrected errors plus over-temperature
    /// conditions, which the paper counts as UEs).
    pub fn total_uncorrected_errors(&self) -> usize {
        self.events.iter().filter(|e| e.is_fatal()).count()
    }

    /// A copy of this log restricted to the given time range `[start, end)`.
    pub fn slice(&self, start: SimTime, end: SimTime) -> Self {
        Self {
            fleet: self.fleet.clone(),
            window_start: start,
            window_end: end,
            events: self
                .events
                .iter()
                .filter(|e| e.time >= start && e.time < end)
                .copied()
                .collect(),
        }
    }

    /// A copy of this log restricted to the nodes of one DRAM manufacturer, used by the
    /// MN/A, MN/B and MN/C scenarios (Section 4.5).
    pub fn restrict_to_manufacturer(&self, manufacturer: Manufacturer) -> Self {
        let fleet = self.fleet.restricted_to(manufacturer);
        let keep: std::collections::HashSet<NodeId> = fleet.nodes().iter().map(|n| n.id).collect();
        Self {
            fleet,
            window_start: self.window_start,
            window_end: self.window_end,
            events: self
                .events
                .iter()
                .filter(|e| keep.contains(&e.node))
                .copied()
                .collect(),
        }
    }

    /// Merge the log into per-node, per-minute [`MergedEvent`]s, as required by the MDP
    /// formulation ("there is a minimum wallclock time between state transitions of one
    /// minute, so that events occurring within the same minute are combined").
    ///
    /// Returns one entry per node with events, in ascending node order, each holding the
    /// node's minutes in time order. Costs O(events): a stable counting sort of the event
    /// indices by node, then one minute-merge per node. Every vector is allocated at its
    /// exact size. A minute absorbs its events in log order, which is sorted by
    /// [`LogEvent::sort_key`].
    pub fn merged_by_node(&self) -> Vec<(NodeId, Vec<MergedEvent>)> {
        NodeRuns::of(self)
            .iter()
            .map(|(node, run)| {
                let minutes = minute_groups(&self.events, run);
                let mut merged = Vec::with_capacity(minutes.clone().count());
                for minute in minutes {
                    let (mut details, mut retired) = (0, 0);
                    for &i in minute {
                        match self.events[i as usize].kind {
                            EventKind::CorrectedError {
                                detail: Some(_), ..
                            } => details += 1,
                            EventKind::DimmRetirement { .. } => retired += 1,
                            _ => {}
                        }
                    }
                    let mut bucket = MergedEvent {
                        time: self.events[minute[0] as usize].time.floor_minute(),
                        node,
                        ce_count: 0,
                        ce_details: Vec::with_capacity(details),
                        ue_warnings: 0,
                        boots: 0,
                        retired_slots: Vec::with_capacity(retired),
                        fatal: false,
                        ue_detector: None,
                    };
                    for &i in minute {
                        bucket.absorb(&self.events[i as usize]);
                    }
                    merged.push(bucket);
                }
                (node, merged)
            })
            .collect()
    }

    /// Number of per-node, per-minute [`MergedEvent`]s, i.e. the length of
    /// [`ErrorLog::merged_by_node`] summed over nodes, without building them.
    pub fn merged_event_count(&self) -> usize {
        NodeRuns::of(self)
            .iter()
            .map(|(_, run)| minute_groups(&self.events, run).count())
            .sum()
    }
}

/// The indices of a log's events grouped by node: a stable counting sort by node rank,
/// so each node's run keeps the log's time order. Nothing is sized by the node ids.
struct NodeRuns {
    /// The distinct nodes, ascending.
    nodes: Vec<NodeId>,
    /// `order[starts[r]..starts[r + 1]]` are the event indices of `nodes[r]`.
    starts: Vec<usize>,
    order: Vec<u32>,
}

impl NodeRuns {
    fn of(log: &ErrorLog) -> Self {
        let events = log.events();
        assert!(
            events.len() <= u32::MAX as usize,
            "event indices must fit in u32"
        );
        let nodes = log.nodes_with_events();
        let rank = |node| {
            nodes
                .binary_search(&node)
                .expect("every event's node is listed")
        };
        let mut starts = vec![0usize; nodes.len() + 1];
        for event in events {
            starts[rank(event.node) + 1] += 1;
        }
        for r in 0..nodes.len() {
            starts[r + 1] += starts[r];
        }
        let mut next = starts.clone();
        let mut order = vec![0u32; events.len()];
        for (i, event) in events.iter().enumerate() {
            let slot = &mut next[rank(event.node)];
            order[*slot] = i as u32;
            *slot += 1;
        }
        Self {
            nodes,
            starts,
            order,
        }
    }

    /// Each node with its run of event indices.
    fn iter(&self) -> impl Iterator<Item = (NodeId, &[u32])> {
        self.nodes
            .iter()
            .zip(self.starts.windows(2))
            .map(|(&node, w)| (node, &self.order[w[0]..w[1]]))
    }
}

/// Split one node's time-ordered run of event indices into its minutes.
fn minute_groups<'a>(
    events: &'a [LogEvent],
    run: &'a [u32],
) -> impl Iterator<Item = &'a [u32]> + Clone {
    run.chunk_by(move |&a, &b| {
        events[a as usize].time.floor_minute() == events[b as usize].time.floor_minute()
    })
}

/// All events of one node within one minute, combined into a single observation.
///
/// This is the granularity at which the environment invokes the mitigation policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MergedEvent {
    /// Minute (floored) the events belong to.
    pub time: SimTime,
    /// Node the events belong to.
    pub node: NodeId,
    /// Total corrected errors observed in the minute.
    pub ce_count: u32,
    /// Detailed CE samples observed in the minute.
    pub ce_details: Vec<CeDetail>,
    /// Number of firmware UE warnings in the minute.
    pub ue_warnings: u32,
    /// Number of node boots in the minute.
    pub boots: u32,
    /// Slots of DIMMs retired in the minute.
    pub retired_slots: Vec<u8>,
    /// Whether a fatal event (UE or over-temperature) occurred in the minute.
    pub fatal: bool,
    /// Detector of the UE, when `fatal` is due to an uncorrected error.
    pub ue_detector: Option<Detector>,
}

impl MergedEvent {
    /// Fold one raw event into this merged observation.
    fn absorb(&mut self, event: &LogEvent) {
        match &event.kind {
            EventKind::CorrectedError { count, detail } => {
                self.ce_count += count;
                if let Some(d) = detail {
                    self.ce_details.push(*d);
                }
            }
            EventKind::UncorrectedError { detector, .. } => {
                self.fatal = true;
                self.ue_detector = Some(*detector);
            }
            EventKind::OverTemperature => {
                self.fatal = true;
            }
            EventKind::UeWarning { .. } => self.ue_warnings += 1,
            EventKind::NodeBoot => self.boots += 1,
            EventKind::DimmRetirement { slot } => self.retired_slots.push(*slot),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::WarningReason;
    use crate::types::{CellLocation, DimmId};

    fn ce(node: u32, t: i64, count: u32) -> LogEvent {
        LogEvent::new(
            SimTime::from_secs(t),
            NodeId(node),
            EventKind::CorrectedError {
                count,
                detail: Some(CeDetail {
                    dimm: DimmId::new(NodeId(node), 0),
                    location: CellLocation::new(0, 0, 1, 1),
                    detector: Detector::DemandRead,
                }),
            },
        )
    }

    fn ue(node: u32, t: i64) -> LogEvent {
        LogEvent::new(
            SimTime::from_secs(t),
            NodeId(node),
            EventKind::UncorrectedError {
                dimm: DimmId::new(NodeId(node), 0),
                detector: Detector::PatrolScrub,
            },
        )
    }

    fn boot(node: u32, t: i64) -> LogEvent {
        LogEvent::new(SimTime::from_secs(t), NodeId(node), EventKind::NodeBoot)
    }

    fn warning(node: u32, t: i64) -> LogEvent {
        LogEvent::new(
            SimTime::from_secs(t),
            NodeId(node),
            EventKind::UeWarning {
                reason: WarningReason::CeLoggingLimit,
            },
        )
    }

    fn small_log(events: Vec<LogEvent>) -> ErrorLog {
        ErrorLog::new(
            FleetConfig::small(10),
            events,
            SimTime::ZERO,
            SimTime::from_days(30),
        )
    }

    #[test]
    fn events_are_sorted_on_construction() {
        let log = small_log(vec![ce(1, 500, 1), boot(0, 100), ce(2, 200, 3)]);
        let times: Vec<i64> = log.events().iter().map(|e| e.time.as_secs()).collect();
        assert_eq!(times, vec![100, 200, 500]);
    }

    #[test]
    fn totals_count_errors_not_records() {
        let log = small_log(vec![ce(1, 10, 5), ce(1, 20, 7), ue(2, 30)]);
        assert_eq!(log.total_corrected_errors(), 12);
        assert_eq!(log.total_uncorrected_errors(), 1);
        assert_eq!(log.len(), 3);
        assert!(!log.is_empty());
    }

    #[test]
    fn per_node_iteration() {
        let log = small_log(vec![ce(1, 10, 1), ce(2, 20, 1), ce(1, 30, 1)]);
        assert_eq!(log.events_for_node(NodeId(1)).count(), 2);
        assert_eq!(log.events_for_node(NodeId(5)).count(), 0);
        assert_eq!(log.nodes_with_events(), vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn slicing_respects_half_open_range() {
        let log = small_log(vec![ce(1, 10, 1), ce(1, 100, 1), ce(1, 200, 1)]);
        let s = log.slice(SimTime::from_secs(10), SimTime::from_secs(200));
        assert_eq!(s.len(), 2);
        assert_eq!(s.window_start(), SimTime::from_secs(10));
        assert_eq!(s.window_end(), SimTime::from_secs(200));
    }

    #[test]
    fn manufacturer_restriction_keeps_only_matching_nodes() {
        let fleet = FleetConfig::small(30);
        let a_node = fleet.nodes_of(Manufacturer::A)[0];
        let c_node = fleet.nodes_of(Manufacturer::C)[0];
        let log = ErrorLog::new(
            fleet,
            vec![ce(a_node.0, 10, 1), ce(c_node.0, 20, 1)],
            SimTime::ZERO,
            SimTime::from_days(1),
        );
        let only_a = log.restrict_to_manufacturer(Manufacturer::A);
        assert_eq!(only_a.len(), 1);
        assert_eq!(only_a.events()[0].node, a_node);
        assert!(only_a
            .fleet()
            .nodes()
            .iter()
            .all(|n| n.manufacturer == Manufacturer::A));
    }

    fn merged_of(log: &ErrorLog, node: u32) -> Vec<MergedEvent> {
        log.merged_by_node()
            .into_iter()
            .find(|(n, _)| *n == NodeId(node))
            .map(|(_, merged)| merged)
            .unwrap_or_default()
    }

    #[test]
    fn merging_combines_same_minute_same_node() {
        // Two CE records and a warning for node 1 in the same minute, a boot for node 2.
        let log = small_log(vec![
            ce(1, 65, 3),
            ce(1, 100, 4),
            warning(1, 110),
            boot(2, 70),
        ]);
        assert_eq!(log.merged_event_count(), 2);
        let node1 = merged_of(&log, 1);
        assert_eq!(node1.len(), 1);
        assert_eq!(node1[0].time, SimTime::from_minutes(1));
        assert_eq!(node1[0].ce_count, 7);
        assert_eq!(node1[0].ce_details.len(), 2);
        assert_eq!(node1[0].ue_warnings, 1);
        assert!(!node1[0].fatal);
        let node2 = merged_of(&log, 2);
        assert_eq!(node2.len(), 1);
        assert_eq!(node2[0].boots, 1);
    }

    #[test]
    fn merging_keeps_separate_minutes_separate() {
        let log = small_log(vec![ce(1, 30, 1), ce(1, 90, 1)]);
        let merged = merged_of(&log, 1);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].time, SimTime::ZERO);
        assert_eq!(merged[1].time, SimTime::from_minutes(1));
    }

    #[test]
    fn merging_marks_fatal_minutes() {
        let log = small_log(vec![ce(1, 30, 1), ue(1, 45)]);
        let merged = merged_of(&log, 1);
        assert_eq!(merged.len(), 1);
        assert!(merged[0].fatal);
        assert_eq!(merged[0].ue_detector, Some(Detector::PatrolScrub));
        assert_eq!(merged[0].ce_count, 1);
    }

    #[test]
    fn merged_runs_are_node_ordered_and_time_ordered() {
        let log = small_log(vec![
            ce(2, 300, 1),
            ce(1, 30, 1),
            ce(1, 600, 1),
            ce(1, 45, 1),
        ]);
        let merged = log.merged_by_node();
        let nodes: Vec<NodeId> = merged.iter().map(|(node, _)| *node).collect();
        assert_eq!(nodes, vec![NodeId(1), NodeId(2)]);
        let times: Vec<i64> = merged[0].1.iter().map(|m| m.time.as_secs()).collect();
        assert_eq!(times, vec![0, 600]);
        assert_eq!(log.merged_event_count(), 3);
    }

    #[test]
    #[should_panic(expected = "window must be non-empty")]
    fn empty_window_rejected() {
        ErrorLog::new(FleetConfig::small(3), vec![], SimTime::ZERO, SimTime::ZERO);
    }
}

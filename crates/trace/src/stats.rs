//! Quantitative analysis of an error log (the Section 2.1.5 / Zivanovic-style statistics).
//!
//! [`LogStatistics`] summarises a log: event counts by kind, corrected-error totals and
//! concentration, uncorrected-error counts (raw and per manufacturer), and the fraction of
//! effective UEs that have no preceding event within 24 hours (which bounds the recall any
//! event-triggered mitigation policy can achieve — Table 2's 63% ceiling).

use crate::events::EventKind;
use crate::log::ErrorLog;
use crate::types::{DimmId, Manufacturer, NodeId, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// Summary statistics of an error log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogStatistics {
    /// Number of raw log records by event kind name ("CE", "UE", "BOOT", ...).
    pub records_by_kind: BTreeMap<String, usize>,
    /// Total corrected errors (sum of record counts).
    pub total_corrected_errors: u64,
    /// Number of distinct DIMMs with at least one detailed CE record.
    pub dimms_with_ce: usize,
    /// Fraction of all corrected errors produced by the single noisiest DIMM.
    pub top_dimm_ce_share: f64,
    /// Number of fatal events (UEs + over-temperature shutdowns).
    pub uncorrected_errors: usize,
    /// Fatal events per manufacturer (A, B, C).
    pub ue_by_manufacturer: (usize, usize, usize),
    /// Number of fatal events with no other event on the same node in the preceding 24 h.
    pub silent_ue_count: usize,
    /// Number of per-node per-minute merged events.
    pub merged_event_count: usize,
    /// Observation window length in days.
    pub window_days: f64,
}

impl LogStatistics {
    /// Compute the statistics of a log.
    pub fn compute(log: &ErrorLog) -> Self {
        let mut records_by_kind: BTreeMap<String, usize> = BTreeMap::new();
        let mut ce_by_dimm: HashMap<DimmId, u64> = HashMap::new();
        let mut total_ce: u64 = 0;
        let mut ue_by_manufacturer = (0usize, 0usize, 0usize);
        let mut fatal_events: Vec<(NodeId, SimTime)> = Vec::new();

        for event in log.events() {
            *records_by_kind
                .entry(event.kind.name().to_string())
                .or_insert(0) += 1;
            match &event.kind {
                EventKind::CorrectedError { count, detail } => {
                    total_ce += *count as u64;
                    if let Some(d) = detail {
                        *ce_by_dimm.entry(d.dimm).or_insert(0) += *count as u64;
                    }
                }
                EventKind::UncorrectedError { .. } | EventKind::OverTemperature => {
                    fatal_events.push((event.node, event.time));
                    match log.fleet().manufacturer_of(event.node) {
                        Some(Manufacturer::A) => ue_by_manufacturer.0 += 1,
                        Some(Manufacturer::B) => ue_by_manufacturer.1 += 1,
                        Some(Manufacturer::C) => ue_by_manufacturer.2 += 1,
                        None => {}
                    }
                }
                _ => {}
            }
        }

        let top_dimm_ce_share = if total_ce > 0 {
            ce_by_dimm.values().copied().max().unwrap_or(0) as f64 / total_ce as f64
        } else {
            0.0
        };

        // A fatal event is "silent" when the same node has no other event in the 24 hours
        // before it. Walk per-node event times once.
        let mut events_by_node: HashMap<NodeId, Vec<SimTime>> = HashMap::new();
        for event in log.events() {
            events_by_node
                .entry(event.node)
                .or_default()
                .push(event.time);
        }
        let silent_ue_count = fatal_events
            .iter()
            .filter(|(node, t)| {
                let times = &events_by_node[node];
                !times
                    .iter()
                    .any(|&other| other < *t && t.delta_secs(other) <= SimTime::DAY)
            })
            .count();

        Self {
            records_by_kind,
            total_corrected_errors: total_ce,
            dimms_with_ce: ce_by_dimm.len(),
            top_dimm_ce_share,
            uncorrected_errors: fatal_events.len(),
            ue_by_manufacturer,
            silent_ue_count,
            merged_event_count: log.merged_event_count(),
            window_days: log.window_days(),
        }
    }

    /// Fraction of fatal events that are silent (no preceding event within 24 h).
    pub fn silent_ue_fraction(&self) -> f64 {
        if self.uncorrected_errors == 0 {
            0.0
        } else {
            self.silent_ue_count as f64 / self.uncorrected_errors as f64
        }
    }

    /// Render the statistics as a human-readable report.
    pub fn report(&self) -> String {
        let mut out = String::new();
        out.push_str("error-log statistics\n");
        out.push_str(&format!("  window: {:.1} days\n", self.window_days));
        for (kind, count) in &self.records_by_kind {
            out.push_str(&format!("  records[{kind}]: {count}\n"));
        }
        out.push_str(&format!(
            "  corrected errors: {} (on {} DIMMs, top DIMM share {:.1}%)\n",
            self.total_corrected_errors,
            self.dimms_with_ce,
            self.top_dimm_ce_share * 100.0
        ));
        out.push_str(&format!(
            "  fatal events: {} (A={}, B={}, C={}), silent within 24h: {} ({:.0}%)\n",
            self.uncorrected_errors,
            self.ue_by_manufacturer.0,
            self.ue_by_manufacturer.1,
            self.ue_by_manufacturer.2,
            self.silent_ue_count,
            self.silent_ue_fraction() * 100.0
        ));
        out.push_str(&format!(
            "  merged per-minute events: {}\n",
            self.merged_event_count
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{CeDetail, Detector, LogEvent};
    use crate::fleet::FleetConfig;
    use crate::generator::{SyntheticLogConfig, TraceGenerator};
    use crate::types::CellLocation;

    fn detailed_ce(node: u32, slot: u8, t: i64, count: u32) -> LogEvent {
        LogEvent::new(
            SimTime::from_secs(t),
            NodeId(node),
            EventKind::CorrectedError {
                count,
                detail: Some(CeDetail {
                    dimm: DimmId::new(NodeId(node), slot),
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
                detector: Detector::DemandRead,
            },
        )
    }

    #[test]
    fn counts_and_concentration() {
        let fleet = FleetConfig::small(10);
        let log = ErrorLog::new(
            fleet,
            vec![
                detailed_ce(1, 0, 10, 90),
                detailed_ce(2, 1, 20, 10),
                ue(1, SimTime::DAY * 2),
            ],
            SimTime::ZERO,
            SimTime::from_days(10),
        );
        let s = LogStatistics::compute(&log);
        assert_eq!(s.total_corrected_errors, 100);
        assert_eq!(s.dimms_with_ce, 2);
        assert!((s.top_dimm_ce_share - 0.9).abs() < 1e-12);
        assert_eq!(s.uncorrected_errors, 1);
        assert_eq!(s.records_by_kind["CE"], 2);
        assert_eq!(s.records_by_kind["UE"], 1);
    }

    #[test]
    fn silent_ue_detection() {
        let fleet = FleetConfig::small(10);
        let day = SimTime::DAY;
        // Node 1: CE twelve hours before its UE -> not silent.
        // Node 2: UE with nothing before it -> silent.
        let log = ErrorLog::new(
            fleet,
            vec![detailed_ce(1, 0, day / 2, 1), ue(1, day), ue(2, 5 * day)],
            SimTime::ZERO,
            SimTime::from_days(10),
        );
        let s = LogStatistics::compute(&log);
        assert_eq!(s.uncorrected_errors, 2);
        assert_eq!(s.silent_ue_count, 1);
        assert!((s.silent_ue_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn manufacturer_attribution_follows_fleet() {
        let fleet = FleetConfig::small(30);
        let a = fleet.nodes_of(Manufacturer::A)[0];
        let c = fleet.nodes_of(Manufacturer::C)[0];
        let log = ErrorLog::new(
            fleet,
            vec![ue(a.0, 100), ue(c.0, 200), ue(c.0, SimTime::WEEK * 4)],
            SimTime::ZERO,
            SimTime::from_days(60),
        );
        let s = LogStatistics::compute(&log);
        assert_eq!(s.ue_by_manufacturer, (1, 0, 2));
    }

    #[test]
    fn report_mentions_key_numbers() {
        let log = TraceGenerator::new(SyntheticLogConfig::small(20, 30, 2)).generate();
        let s = LogStatistics::compute(&log);
        let report = s.report();
        assert!(report.contains("corrected errors"));
        assert!(report.contains("fatal events"));
        assert!(report.contains("merged per-minute events"));
    }

    #[test]
    fn synthetic_log_statistics_are_consistent() {
        let log = TraceGenerator::new(SyntheticLogConfig::small(40, 60, 3)).generate();
        let s = LogStatistics::compute(&log);
        assert_eq!(s.total_corrected_errors, log.total_corrected_errors());
        assert_eq!(s.uncorrected_errors, log.total_uncorrected_errors());
        assert!(s.merged_event_count <= log.len());
        assert!(s.top_dimm_ce_share > 0.0 && s.top_dimm_ce_share <= 1.0);
    }

    #[test]
    fn empty_log_statistics() {
        let log = ErrorLog::new(
            FleetConfig::small(3),
            vec![],
            SimTime::ZERO,
            SimTime::from_days(1),
        );
        let s = LogStatistics::compute(&log);
        assert_eq!(s.total_corrected_errors, 0);
        assert_eq!(s.uncorrected_errors, 0);
        assert_eq!(s.silent_ue_fraction(), 0.0);
        assert_eq!(s.top_dimm_ce_share, 0.0);
    }
}

//! Integration and property tests of the log substrates: serialisation round-trips and
//! the invariants of the paper's preprocessing steps.

use proptest::prelude::*;
use std::collections::BTreeMap;
use uerl::core::{NodeTimeline, TimelineSet};
use uerl::jobs::{sacct, JobLog, JobLogConfig, JobRecord, JobTraceGenerator};
use uerl::trace::events::{CeDetail, Detector, EventKind, LogEvent, WarningReason};
use uerl::trace::fleet::FleetConfig;
use uerl::trace::generator::{SyntheticLogConfig, TraceGenerator};
use uerl::trace::log::{ErrorLog, MergedEvent};
use uerl::trace::mcelog;
use uerl::trace::reduction::{filter_retirement_bias, preprocess, reduce_ue_bursts};
use uerl::trace::types::{CellLocation, DimmId, NodeId, SimTime};

#[test]
fn mcelog_and_sacct_round_trip_generated_logs() {
    let error_log = TraceGenerator::new(SyntheticLogConfig::small(30, 45, 5)).generate();
    let parsed = mcelog::from_text(&mcelog::to_text(&error_log), error_log.fleet().clone())
        .expect("mcelog parses");
    assert_eq!(parsed.events(), error_log.events());

    let job_log = JobTraceGenerator::new(JobLogConfig::small(32, 20, 5)).generate();
    let parsed_jobs = sacct::from_text(&sacct::to_text(&job_log)).expect("sacct parses");
    assert_eq!(parsed_jobs.records(), job_log.records());
}

#[test]
fn preprocessing_never_increases_counts() {
    let log = TraceGenerator::new(SyntheticLogConfig::small(40, 60, 9)).generate();
    let processed = preprocess(&log);
    assert!(processed.len() <= log.len());
    assert!(processed.total_uncorrected_errors() <= log.total_uncorrected_errors());
    assert!(processed.total_corrected_errors() <= log.total_corrected_errors());
}

/// Strategy producing an arbitrary small event list on a 5-node fleet.
fn arbitrary_events() -> impl Strategy<Value = Vec<LogEvent>> {
    let event = (0u32..5, 0i64..(30 * SimTime::DAY), 0u8..4).prop_map(|(node, secs, kind)| {
        let node = NodeId(node);
        let time = SimTime::from_secs(secs);
        let kind = match kind {
            0 => EventKind::CorrectedError {
                count: 1 + (secs % 7) as u32,
                detail: None,
            },
            1 => EventKind::UncorrectedError {
                dimm: DimmId::new(node, 0),
                detector: Detector::DemandRead,
            },
            2 => EventKind::NodeBoot,
            _ => EventKind::DimmRetirement { slot: 1 },
        };
        LogEvent::new(time, node, kind)
    });
    proptest::collection::vec(event, 0..60)
}

/// Strategy producing event lists that stress the per-minute merge: every event kind,
/// CE details, times packed into four minutes with many equal timestamps, and sparse
/// node ids up to `u32::MAX`.
fn dense_events() -> impl Strategy<Value = Vec<LogEvent>> {
    const NODES: [u32; 7] = [0, 1, 7, 1_000, 65_536, 4_000_000_000, u32::MAX];
    let event = (0usize..NODES.len(), 0i64..4, 0i64..6, 0u8..7, 0u8..4).prop_map(
        |(node, minute, tick, kind, small)| {
            let node = NodeId(NODES[node]);
            let dimm = DimmId::new(node, small);
            let detector = if small % 2 == 0 {
                Detector::DemandRead
            } else {
                Detector::PatrolScrub
            };
            let kind = match kind {
                0 => EventKind::CorrectedError {
                    count: 1 + u32::from(small),
                    detail: None,
                },
                1 => EventKind::CorrectedError {
                    count: 1,
                    detail: Some(CeDetail {
                        dimm,
                        location: CellLocation::new(small, 1, tick as u32, 9),
                        detector,
                    }),
                },
                2 => EventKind::UncorrectedError { dimm, detector },
                3 => EventKind::OverTemperature,
                4 => EventKind::UeWarning {
                    reason: if small % 2 == 0 {
                        WarningReason::CeLoggingLimit
                    } else {
                        WarningReason::ThermalThrottle
                    },
                },
                5 => EventKind::NodeBoot,
                _ => EventKind::DimmRetirement { slot: small },
            };
            LogEvent::new(SimTime::from_secs(minute * 60 + tick * 11), node, kind)
        },
    );
    proptest::collection::vec(event, 0..120)
}

/// The reference timeline build: per node, filter the whole log and fold each minute
/// into a `BTreeMap` bucket.
fn reference_timelines(log: &ErrorLog) -> TimelineSet {
    let timelines = log
        .nodes_with_events()
        .into_iter()
        .map(|node| {
            let mut buckets: BTreeMap<SimTime, MergedEvent> = BTreeMap::new();
            for event in log.events_for_node(node) {
                let time = event.time.floor_minute();
                let merged = buckets.entry(time).or_insert_with(|| MergedEvent {
                    time,
                    node,
                    ce_count: 0,
                    ce_details: Vec::new(),
                    ue_warnings: 0,
                    boots: 0,
                    retired_slots: Vec::new(),
                    fatal: false,
                    ue_detector: None,
                });
                match &event.kind {
                    EventKind::CorrectedError { count, detail } => {
                        merged.ce_count += count;
                        merged.ce_details.extend(detail);
                    }
                    EventKind::UncorrectedError { detector, .. } => {
                        merged.fatal = true;
                        merged.ue_detector = Some(*detector);
                    }
                    EventKind::OverTemperature => merged.fatal = true,
                    EventKind::UeWarning { .. } => merged.ue_warnings += 1,
                    EventKind::NodeBoot => merged.boots += 1,
                    EventKind::DimmRetirement { slot } => merged.retired_slots.push(*slot),
                }
            }
            let events = buckets.into_values().collect();
            NodeTimeline::new(node, log.window_start(), log.window_end(), events)
        })
        .collect();
    TimelineSet::from_timelines(log.window_start(), log.window_end(), timelines)
}

/// Strategy producing a small valid job log.
fn arbitrary_job_log() -> impl Strategy<Value = JobLog> {
    let record = (0i64..1_000, 0i64..100, 0i64..1_000, 1u32..64);
    proptest::collection::vec(record, 0..12).prop_map(|records| {
        let records = records
            .into_iter()
            .enumerate()
            .map(|(id, (submit, wait, run, nodes))| {
                let start = SimTime::from_secs(submit + wait);
                JobRecord::new(
                    id as u64 + 1,
                    SimTime::from_secs(submit),
                    start,
                    start + run,
                    nodes,
                )
            })
            .collect();
        JobLog::new(records, SimTime::ZERO, SimTime::from_days(1), 64)
    })
}

/// Strategy producing up to four `(operation, position, argument)` mutations.
fn mutations() -> impl Strategy<Value = Vec<(u8, u32, u8)>> {
    proptest::collection::vec((0u8..7, any::<u32>(), any::<u8>()), 1..5)
}

/// Apply mutations to a rendered text: delete, replace or duplicate a byte or a token,
/// truncate a line, or splice in an out-of-range number. Invalid UTF-8 is replaced, so
/// some cases also carry non-ASCII bytes.
fn mutate(text: &str, mutations: &[(u8, u32, u8)]) -> String {
    const BYTES: [u8; 10] = [b' ', b'=', b'|', b'-', b'\n', b'#', b'0', b'x', 0x0B, 0xC2];
    const SPLICES: [&str; 3] = ["-1", "256", "4294967296"];
    let mut bytes = text.as_bytes().to_vec();
    for &(op, pos, arg) in mutations {
        if bytes.is_empty() {
            break;
        }
        let at = pos as usize % bytes.len();
        let is_separator = |b: u8| matches!(b, b' ' | b'|' | b'=' | b'\n');
        let token_start = bytes[..at]
            .iter()
            .rposition(|&b| is_separator(b))
            .map_or(0, |i| i + 1);
        let token_end = bytes[at..]
            .iter()
            .position(|&b| is_separator(b))
            .map_or(bytes.len(), |i| at + i);
        let splice = SPLICES[arg as usize % SPLICES.len()].as_bytes();
        match op {
            0 => {
                bytes.remove(at);
            }
            1 => bytes[at] = BYTES[arg as usize % BYTES.len()],
            2 => bytes.insert(at, bytes[at]),
            3 => {
                bytes.drain(token_start..token_end);
            }
            4 => {
                let token = bytes[token_start..token_end].to_vec();
                bytes.splice(token_end..token_end, [b' '].into_iter().chain(token));
            }
            5 => {
                bytes.splice(token_start..token_end, splice.iter().copied());
            }
            _ => {
                let line_end = bytes[at..]
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(bytes.len(), |i| at + i);
                bytes.drain(at..line_end);
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn timelines_from_log_equal_the_reference_build(events in dense_events()) {
        let log = ErrorLog::new(
            FleetConfig::small(5),
            events,
            SimTime::ZERO,
            SimTime::from_days(1),
        );
        for log in [preprocess(&log), log] {
            let timelines = TimelineSet::from_log(&log);
            prop_assert_eq!(&timelines, &reference_timelines(&log));
            prop_assert_eq!(log.merged_event_count(), timelines.total_events());
            let merged = log.merged_by_node();
            prop_assert_eq!(merged.len(), merged.capacity());
            for (_, minutes) in &merged {
                prop_assert_eq!(minutes.len(), minutes.capacity());
                for minute in minutes {
                    prop_assert_eq!(minute.ce_details.len(), minute.ce_details.capacity());
                    prop_assert_eq!(minute.retired_slots.len(), minute.retired_slots.capacity());
                }
            }
        }
    }

    #[test]
    fn mutated_logs_parse_or_fail_typed(
        events in dense_events(),
        jobs in arbitrary_job_log(),
        mcelog_mutations in mutations(),
        sacct_mutations in mutations(),
    ) {
        // Returning at all, `Ok` or a typed `Err`, is the property: a panic fails it.
        let log = ErrorLog::new(FleetConfig::small(5), events, SimTime::ZERO, SimTime::from_days(1));
        let text = mutate(&mcelog::to_text(&log), &mcelog_mutations);
        let _ = mcelog::from_text(&text, FleetConfig::small(5));
        let text = mutate(&sacct::to_text(&jobs), &sacct_mutations);
        let _ = sacct::from_text(&text);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ue_burst_reduction_is_idempotent_and_keeps_a_week_between_fatal_events(
        events in arbitrary_events()
    ) {
        let log = ErrorLog::new(
            FleetConfig::small(5),
            events,
            SimTime::ZERO,
            SimTime::from_days(31),
        );
        let reduced = reduce_ue_bursts(&log);
        // Idempotence.
        let twice = reduce_ue_bursts(&reduced);
        prop_assert_eq!(twice.events(), reduced.events());
        // No node keeps two fatal events within one week of each other.
        for node in reduced.nodes_with_events() {
            let fatal: Vec<_> = reduced
                .events_for_node(node)
                .filter(|e| e.is_fatal())
                .collect();
            for pair in fatal.windows(2) {
                prop_assert!(pair[1].time.delta_secs(pair[0].time) > SimTime::WEEK);
            }
        }
        // Non-fatal events are untouched.
        let non_fatal_before = log.events().iter().filter(|e| !e.is_fatal()).count();
        let non_fatal_after = reduced.events().iter().filter(|e| !e.is_fatal()).count();
        prop_assert_eq!(non_fatal_before, non_fatal_after);
    }

    #[test]
    fn retirement_filtering_removes_every_post_retirement_sample(
        events in arbitrary_events()
    ) {
        let log = ErrorLog::new(
            FleetConfig::small(5),
            events,
            SimTime::ZERO,
            SimTime::from_days(31),
        );
        let filtered = filter_retirement_bias(&log);
        // No retirement events remain, and for every node everything at or after its
        // first retirement is gone.
        for node in log.nodes_with_events() {
            let first_retirement = log
                .events_for_node(node)
                .filter(|e| matches!(e.kind, EventKind::DimmRetirement { .. }))
                .map(|e| e.time)
                .min();
            if let Some(cutoff) = first_retirement {
                for e in filtered.events_for_node(node) {
                    prop_assert!(e.time < cutoff);
                }
            }
        }
        prop_assert!(filtered.len() <= log.len());
    }

    #[test]
    fn mcelog_round_trip_holds_for_arbitrary_event_lists(events in arbitrary_events()) {
        let log = ErrorLog::new(
            FleetConfig::small(5),
            events,
            SimTime::ZERO,
            SimTime::from_days(31),
        );
        let parsed = mcelog::from_text(&mcelog::to_text(&log), log.fleet().clone()).unwrap();
        prop_assert_eq!(parsed.events(), log.events());
    }
}

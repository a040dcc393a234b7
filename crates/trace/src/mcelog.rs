//! An mcelog-inspired plain-text serialization of the error log.
//!
//! The production pipeline stores one line per record; this module provides a similarly
//! shaped, human-greppable text format so synthetic logs can be written to disk, inspected
//! and re-loaded (and so the rest of the system exercises a parse path just as it would
//! with real logs). The format is line-oriented:
//!
//! ```text
//! # uerl-trace v1 nodes=60 dimms=240 window=0..10368000
//! 3600 node-0007 CE count=12 dimm=3 rank=1 bank=4 row=8812 col=112 det=patrol
//! 7200 node-0007 WARN reason=ce-limit
//! 9000 node-0012 UE dimm=0 det=demand
//! 9600 node-0012 BOOT
//! 12000 node-0019 OVERTEMP
//! 15000 node-0021 RETIRE slot=2
//! ```
//!
//! Fields are space-separated `key=value` pairs after the timestamp (seconds), node and
//! event tag. Unknown keys are ignored by the parser so the format can be extended.

use crate::events::{CeDetail, Detector, EventKind, LogEvent, WarningReason};
use crate::fleet::FleetConfig;
use crate::log::ErrorLog;
use crate::types::{CellLocation, DimmId, NodeId, SimTime};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Errors produced when parsing the mcelog-style text format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The header line is missing or malformed.
    BadHeader(String),
    /// A data line could not be parsed.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// Explanation of what went wrong.
        reason: String,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::BadHeader(h) => write!(f, "bad header: {h}"),
            ParseError::BadLine { line, reason } => write!(f, "line {line}: {reason}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Serialize a log to the mcelog-style text format.
pub fn to_text(log: &ErrorLog) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# uerl-trace v1 nodes={} dimms={} window={}..{}",
        log.fleet().node_count(),
        log.fleet().dimm_count(),
        log.window_start().as_secs(),
        log.window_end().as_secs()
    );
    for event in log.events() {
        let _ = writeln!(out, "{}", event_to_line(event));
    }
    out
}

/// Parse a log from the mcelog-style text format, attaching the supplied fleet
/// description (the text format does not carry manufacturer information).
pub fn from_text(text: &str, fleet: FleetConfig) -> Result<ErrorLog, ParseError> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines
        .next()
        .ok_or_else(|| ParseError::BadHeader("empty input".into()))?;
    let (start, end) = parse_header(header)?;
    let mut events = Vec::new();
    for (idx, line) in lines {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        events.push(parse_line(line).map_err(|reason| ParseError::BadLine {
            line: idx + 1,
            reason,
        })?);
    }
    Ok(ErrorLog::new(fleet, events, start, end))
}

fn parse_header(header: &str) -> Result<(SimTime, SimTime), ParseError> {
    if !header.starts_with("# uerl-trace v1") {
        return Err(ParseError::BadHeader(header.to_string()));
    }
    let window = header
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix("window="))
        .ok_or_else(|| ParseError::BadHeader("missing window=".into()))?;
    let (s, e) = window
        .split_once("..")
        .ok_or_else(|| ParseError::BadHeader("malformed window".into()))?;
    let start = s
        .parse::<i64>()
        .map_err(|_| ParseError::BadHeader("bad window start".into()))?;
    let end = e
        .parse::<i64>()
        .map_err(|_| ParseError::BadHeader("bad window end".into()))?;
    if end <= start {
        return Err(ParseError::BadHeader(format!(
            "empty window {start}..{end}"
        )));
    }
    Ok((SimTime::from_secs(start), SimTime::from_secs(end)))
}

fn event_to_line(event: &LogEvent) -> String {
    let t = event.time.as_secs();
    let node = event.node.0;
    match &event.kind {
        EventKind::CorrectedError { count, detail } => {
            match detail {
                Some(d) => format!(
                "{t} node-{node:04} CE count={count} dimm={} rank={} bank={} row={} col={} det={}",
                d.dimm.slot, d.location.rank, d.location.bank, d.location.row, d.location.column,
                d.detector.label()
            ),
                None => format!("{t} node-{node:04} CE count={count}"),
            }
        }
        EventKind::UncorrectedError { dimm, detector } => format!(
            "{t} node-{node:04} UE dimm={} det={}",
            dimm.slot,
            detector.label()
        ),
        EventKind::OverTemperature => format!("{t} node-{node:04} OVERTEMP"),
        EventKind::UeWarning { reason } => {
            format!("{t} node-{node:04} WARN reason={}", reason.label())
        }
        EventKind::NodeBoot => format!("{t} node-{node:04} BOOT"),
        EventKind::DimmRetirement { slot } => {
            format!("{t} node-{node:04} RETIRE slot={slot}")
        }
    }
}

fn parse_line(line: &str) -> Result<LogEvent, String> {
    let mut parts = line.split_whitespace();
    let time: i64 = parts
        .next()
        .ok_or("missing timestamp")?
        .parse()
        .map_err(|_| "bad timestamp".to_string())?;
    let node_tok = parts.next().ok_or("missing node")?;
    let node_num = node_tok
        .strip_prefix("node-")
        .ok_or("node field must start with 'node-'")?
        .parse::<u32>()
        .map_err(|_| "bad node id".to_string())?;
    let node = NodeId(node_num);
    let tag = parts.next().ok_or("missing event tag")?;
    let kv: HashMap<&str, &str> = parts.filter_map(|p| p.split_once('=')).collect();

    let get_u32 = |key: &str| -> Result<u32, String> {
        kv.get(key)
            .ok_or_else(|| format!("missing {key}="))?
            .parse()
            .map_err(|_| format!("bad {key}="))
    };

    let kind = match tag {
        "CE" => {
            let count = get_u32("count")?;
            let detail = if kv.contains_key("dimm") {
                let detector = Detector::from_label(kv.get("det").copied().unwrap_or("demand"))
                    .ok_or("bad det=")?;
                Some(CeDetail {
                    dimm: DimmId::new(node, get_u32("dimm")? as u8),
                    location: CellLocation::new(
                        get_u32("rank")? as u8,
                        get_u32("bank")? as u8,
                        get_u32("row")?,
                        get_u32("col")?,
                    ),
                    detector,
                })
            } else {
                None
            };
            EventKind::CorrectedError { count, detail }
        }
        "UE" => {
            let detector = Detector::from_label(kv.get("det").copied().unwrap_or("demand"))
                .ok_or("bad det=")?;
            EventKind::UncorrectedError {
                dimm: DimmId::new(node, get_u32("dimm")? as u8),
                detector,
            }
        }
        "OVERTEMP" => EventKind::OverTemperature,
        "WARN" => {
            let reason = WarningReason::from_label(kv.get("reason").copied().unwrap_or(""))
                .ok_or("bad reason=")?;
            EventKind::UeWarning { reason }
        }
        "BOOT" => EventKind::NodeBoot,
        "RETIRE" => EventKind::DimmRetirement {
            slot: get_u32("slot")? as u8,
        },
        other => return Err(format!("unknown event tag '{other}'")),
    };
    Ok(LogEvent::new(SimTime::from_secs(time), node, kind))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{SyntheticLogConfig, TraceGenerator};

    #[test]
    fn round_trip_preserves_every_event() {
        let log = TraceGenerator::new(SyntheticLogConfig::small(20, 30, 9)).generate();
        let text = to_text(&log);
        let parsed = from_text(&text, log.fleet().clone()).expect("parse");
        assert_eq!(parsed.events(), log.events());
        assert_eq!(parsed.window_start(), log.window_start());
        assert_eq!(parsed.window_end(), log.window_end());
    }

    #[test]
    fn header_carries_window() {
        let log = TraceGenerator::new(SyntheticLogConfig::small(5, 10, 1)).generate();
        let text = to_text(&log);
        let first = text.lines().next().unwrap();
        assert!(first.starts_with("# uerl-trace v1"));
        assert!(first.contains("window=0.."));
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text =
            "# uerl-trace v1 nodes=3 dimms=12 window=0..86400\n\n# comment\n60 node-0001 BOOT\n";
        let log = from_text(text, FleetConfig::small(3)).unwrap();
        assert_eq!(log.len(), 1);
        assert_eq!(log.events()[0].kind, EventKind::NodeBoot);
    }

    #[test]
    fn rejects_missing_header() {
        let err = from_text("60 node-0001 BOOT\n", FleetConfig::small(3)).unwrap_err();
        assert!(matches!(err, ParseError::BadHeader(_)));
    }

    #[test]
    fn header_windows_parse_or_are_rejected_typed() {
        let cases: [(&str, bool); 5] = [
            ("window=0..86400", true),
            ("window=-60..60", true),
            ("window=5..5", false),
            ("window=9..5", false),
            ("window=5..", false),
        ];
        for (window, accepted) in cases {
            let text = format!("# uerl-trace v1 nodes=3 dimms=12 {window}\n60 node-0001 BOOT\n");
            match from_text(&text, FleetConfig::small(3)) {
                Ok(_) => assert!(accepted, "{window} must be rejected"),
                Err(ParseError::BadHeader(_)) => assert!(!accepted, "{window} must parse"),
                Err(other) => panic!("{window}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_unknown_tag_with_line_number() {
        let text = "# uerl-trace v1 nodes=3 dimms=12 window=0..86400\n60 node-0001 WAT\n";
        let err = from_text(text, FleetConfig::small(3)).unwrap_err();
        match err {
            ParseError::BadLine { line, reason } => {
                assert_eq!(line, 2);
                assert!(reason.contains("unknown event tag"));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_ce() {
        let text = "# uerl-trace v1 nodes=3 dimms=12 window=0..86400\n60 node-0001 CE\n";
        let err = from_text(text, FleetConfig::small(3)).unwrap_err();
        assert!(matches!(err, ParseError::BadLine { .. }));
    }

    #[test]
    fn ce_without_detail_round_trips() {
        let text = "# uerl-trace v1 nodes=3 dimms=12 window=0..86400\n60 node-0002 CE count=5\n";
        let log = from_text(text, FleetConfig::small(3)).unwrap();
        assert_eq!(
            log.events()[0].kind,
            EventKind::CorrectedError {
                count: 5,
                detail: None
            }
        );
        let round = to_text(&log);
        assert!(round.contains("CE count=5"));
    }

    #[test]
    fn error_display_is_informative() {
        let e = ParseError::BadLine {
            line: 7,
            reason: "bad timestamp".into(),
        };
        assert_eq!(e.to_string(), "line 7: bad timestamp");
        let h = ParseError::BadHeader("nope".into());
        assert!(h.to_string().contains("nope"));
    }
}

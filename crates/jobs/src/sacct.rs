//! A `sacct`-style pipe-separated text format for job logs.
//!
//! The production study extracted the MareNostrum 4 job log with Slurm's `sacct` command,
//! which emits pipe-separated records. This module mirrors that interchange shape so that
//! synthetic job logs can be written to disk, inspected, and re-loaded through the same
//! parse path a real log would use:
//!
//! ```text
//! # uerl-jobs v1 machine_nodes=3456 window=0..31536000
//! JobID|Submit|Start|End|NNodes
//! 1|3000|3600|90000|16
//! 2|7000|7200|10800|1
//! ```
//!
//! Times are seconds since the window origin.

use crate::job::{JobLog, JobRecord};
use std::fmt::Write as _;
use uerl_trace::types::SimTime;

/// Errors produced when parsing the sacct-style format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The header line is missing or malformed.
    BadHeader(String),
    /// A record line could not be parsed.
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

/// Serialize a job log to the sacct-style text format.
pub fn to_text(log: &JobLog) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# uerl-jobs v1 machine_nodes={} window={}..{}",
        log.machine_nodes(),
        log.window_start().as_secs(),
        log.window_end().as_secs()
    );
    out.push_str("JobID|Submit|Start|End|NNodes\n");
    for r in log.records() {
        let _ = writeln!(
            out,
            "{}|{}|{}|{}|{}",
            r.job_id,
            r.submit.as_secs(),
            r.start.as_secs(),
            r.end.as_secs(),
            r.nodes
        );
    }
    out
}

/// Parse a job log from the sacct-style text format.
pub fn from_text(text: &str) -> Result<JobLog, ParseError> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines
        .next()
        .ok_or_else(|| ParseError::BadHeader("empty input".into()))?;
    if !header.starts_with("# uerl-jobs v1") {
        return Err(ParseError::BadHeader(header.to_string()));
    }
    let field = |name: &str| -> Result<String, ParseError> {
        header
            .split_whitespace()
            .find_map(|tok| tok.strip_prefix(&format!("{name}=")))
            .map(str::to_string)
            .ok_or_else(|| ParseError::BadHeader(format!("missing {name}=")))
    };
    let machine_nodes: u32 = field("machine_nodes")?
        .parse()
        .map_err(|_| ParseError::BadHeader("bad machine_nodes".into()))?;
    if machine_nodes == 0 {
        return Err(ParseError::BadHeader(
            "machine_nodes must be positive".into(),
        ));
    }
    let window = field("window")?;
    let (s, e) = window
        .split_once("..")
        .ok_or_else(|| ParseError::BadHeader("malformed window".into()))?;
    let start = SimTime::from_secs(
        s.parse()
            .map_err(|_| ParseError::BadHeader("bad window start".into()))?,
    );
    let end = SimTime::from_secs(
        e.parse()
            .map_err(|_| ParseError::BadHeader("bad window end".into()))?,
    );
    if end <= start {
        return Err(ParseError::BadHeader(format!("empty window {window}")));
    }

    let mut records = Vec::new();
    for (idx, line) in lines {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with("JobID|") {
            continue;
        }
        let fields: Vec<&str> = line.split('|').collect();
        if fields.len() != 5 {
            return Err(ParseError::BadLine {
                line: idx + 1,
                reason: format!("expected 5 fields, got {}", fields.len()),
            });
        }
        let line = idx + 1;
        let job_id: u64 = parse_field(fields[0], "JobID", line)?;
        let submit = SimTime::from_secs(parse_field(fields[1], "Submit", line)?);
        let start_t = SimTime::from_secs(parse_field(fields[2], "Start", line)?);
        let end_t = SimTime::from_secs(parse_field(fields[3], "End", line)?);
        let nodes: u32 = parse_field(fields[4], "NNodes", line)?;
        if nodes == 0 || submit > start_t || start_t > end_t {
            return Err(ParseError::BadLine {
                line,
                reason: "inconsistent record".into(),
            });
        }
        records.push(JobRecord::new(job_id, submit, start_t, end_t, nodes));
    }
    Ok(JobLog::new(records, start, end, machine_nodes))
}

/// Parse one record field as its own type, so a negative or oversized id or node
/// count is a typed error instead of a wrapped value.
fn parse_field<T: std::str::FromStr>(s: &str, what: &str, line: usize) -> Result<T, ParseError> {
    s.parse().map_err(|_| ParseError::BadLine {
        line,
        reason: format!("bad {what}: '{s}'"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{JobLogConfig, JobTraceGenerator};

    #[test]
    fn round_trip_preserves_records() {
        let log = JobTraceGenerator::new(JobLogConfig::small(32, 10, 4)).generate();
        let text = to_text(&log);
        let parsed = from_text(&text).expect("parse");
        assert_eq!(parsed.records(), log.records());
        assert_eq!(parsed.machine_nodes(), log.machine_nodes());
        assert_eq!(parsed.window_start(), log.window_start());
        assert_eq!(parsed.window_end(), log.window_end());
    }

    #[test]
    fn header_and_column_row_are_emitted() {
        let log = JobTraceGenerator::new(JobLogConfig::small(4, 2, 1)).generate();
        let text = to_text(&log);
        let mut lines = text.lines();
        assert!(lines.next().unwrap().starts_with("# uerl-jobs v1"));
        assert_eq!(lines.next().unwrap(), "JobID|Submit|Start|End|NNodes");
    }

    #[test]
    fn rejects_missing_header() {
        assert!(matches!(
            from_text("1|0|0|10|1\n"),
            Err(ParseError::BadHeader(_))
        ));
    }

    #[test]
    fn rejects_wrong_field_count() {
        let text = "# uerl-jobs v1 machine_nodes=4 window=0..100\n1|0|0|10\n";
        match from_text(text) {
            Err(ParseError::BadLine { line, reason }) => {
                assert_eq!(line, 2);
                assert!(reason.contains("5 fields"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_inconsistent_record() {
        let text = "# uerl-jobs v1 machine_nodes=4 window=0..100\n1|50|40|60|1\n";
        assert!(matches!(from_text(text), Err(ParseError::BadLine { .. })));
    }

    #[test]
    fn bad_headers_and_out_of_range_fields_are_typed_errors() {
        enum Expect {
            Ok,
            Header,
            Line,
        }
        let cases = [
            ("machine_nodes=4 window=0..100", "1|0|0|10|1", Expect::Ok),
            ("machine_nodes=4 window=5..5", "1|0|0|10|1", Expect::Header),
            ("machine_nodes=4 window=9..5", "1|0|0|10|1", Expect::Header),
            (
                "machine_nodes=0 window=0..100",
                "1|0|0|10|1",
                Expect::Header,
            ),
            ("machine_nodes=4 window=0..100", "1|0|0|10|-1", Expect::Line),
            (
                "machine_nodes=4 window=0..100",
                "1|0|0|10|4294967296",
                Expect::Line,
            ),
            ("machine_nodes=4 window=0..100", "-1|0|0|10|1", Expect::Line),
        ];
        for (header, record, expect) in cases {
            let text = format!("# uerl-jobs v1 {header}\n{record}\n");
            match (from_text(&text), expect) {
                (Ok(_), Expect::Ok)
                | (Err(ParseError::BadHeader(_)), Expect::Header)
                | (Err(ParseError::BadLine { line: 2, .. }), Expect::Line) => {}
                (outcome, _) => panic!("{header} / {record}: unexpected {outcome:?}"),
            }
        }
    }

    #[test]
    fn ignores_comments_and_blank_lines() {
        let text = "# uerl-jobs v1 machine_nodes=4 window=0..100\nJobID|Submit|Start|End|NNodes\n\n# note\n7|1|2|50|3\n";
        let log = from_text(text).unwrap();
        assert_eq!(log.len(), 1);
        assert_eq!(log.records()[0].job_id, 7);
        assert_eq!(log.records()[0].nodes, 3);
    }

    #[test]
    fn error_messages_are_informative() {
        let e = ParseError::BadLine {
            line: 3,
            reason: "bad NNodes: 'x'".into(),
        };
        assert!(e.to_string().contains("line 3"));
    }
}

//! Workload inputs: synthetic logs rendered to mcelog and sacct text.
//!
//! Inputs depend only on the workload and the seed. They are generated in a child
//! process, so the generator's own structures never count towards the measured
//! process's peak memory, and the measured process receives nothing but the two texts.

use uerl_jobs::{sacct, JobLogConfig, JobTraceGenerator};
use uerl_trace::events::EventKind;
use uerl_trace::{
    mcelog, DimmId, ErrorLog, FleetConfig, NodeId, SyntheticLogConfig, TraceGenerator,
};
use uerl_trace::{CeDetail, LogEvent};

use crate::stats::Fnv;

/// Sibling nodes each base record of the shadow-burst fleet is copied onto. Equal to
/// the server's parallel-absorb threshold, so every round of the burst fleet takes the
/// parallel path.
pub const BURST_SIBLINGS: u32 = 64;

/// Base nodes of the shadow-burst fleet, before the sibling copy, and the generated
/// pool they are drawn from.
const BURST_BASE_NODES: u32 = 20;
const BURST_POOL_NODES: u32 = 200;

/// Machine size, days and seed offset of the sacct job log every workload samples
/// job sequences from.
const JOB_LOG_NODES: u32 = 512;
const JOB_LOG_DAYS: i64 = 180;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServePaper,
    ShadowBurst,
    TrainPaper,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ServePaper,
        Workload::ShadowBurst,
        Workload::TrainPaper,
    ];

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServePaper => "serve-paper",
            Workload::ShadowBurst => "shadow-burst",
            Workload::TrainPaper => "train-paper",
        }
    }

    /// The synthetic error log the workload's mcelog text renders.
    fn error_log(self, seed: u64) -> ErrorLog {
        let generate = |nodes, days| {
            TraceGenerator::new(SyntheticLogConfig::small(nodes, days, seed)).generate()
        };
        match self {
            Workload::ServePaper => generate(1200, 30),
            Workload::ShadowBurst => burst_copy(
                &stratified_nodes(&generate(BURST_POOL_NODES, 365), BURST_BASE_NODES),
                BURST_SIBLINGS,
            ),
            Workload::TrainPaper => generate(600, 365),
        }
    }

    /// The fleet description the reader attaches to the mcelog text (the text format
    /// carries node ids but no manufacturer data).
    pub fn fleet(self) -> FleetConfig {
        FleetConfig::small(match self {
            Workload::ServePaper => 1200,
            Workload::ShadowBurst => BURST_BASE_NODES * BURST_SIBLINGS,
            Workload::TrainPaper => 600,
        })
    }
}

/// The two input texts a workload's program receives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputText {
    pub mcelog: String,
    pub sacct: String,
}

const FRAME_TAG: &str = "uerlbench-inputs";

impl InputText {
    /// Generate the inputs of `workload` for `seed`.
    pub fn generate(workload: Workload, seed: u64) -> Self {
        Self::render(&workload.error_log(seed), seed)
    }

    /// Render an error log and the seed's job log to text.
    pub fn render(log: &ErrorLog, seed: u64) -> Self {
        let jobs = JobTraceGenerator::new(JobLogConfig::small(JOB_LOG_NODES, JOB_LOG_DAYS, seed))
            .generate();
        Self {
            mcelog: mcelog::to_text(log),
            sacct: sacct::to_text(&jobs),
        }
    }

    /// FNV-1a digest of both texts.
    pub fn digest(&self) -> u64 {
        let mut fnv = Fnv::default();
        fnv.bytes(self.mcelog.as_bytes());
        fnv.word(u64::MAX);
        fnv.bytes(self.sacct.as_bytes());
        fnv.0
    }

    /// Frame both texts for the pipe from the generating child process.
    pub fn encode(&self) -> Vec<u8> {
        let header = format!("{FRAME_TAG} {} {}\n", self.mcelog.len(), self.sacct.len());
        [
            header.as_bytes(),
            self.mcelog.as_bytes(),
            self.sacct.as_bytes(),
        ]
        .concat()
    }

    pub fn decode(bytes: &[u8]) -> Result<Self, String> {
        let newline = bytes
            .iter()
            .position(|&b| b == b'\n')
            .ok_or("input frame has no header")?;
        let header = std::str::from_utf8(&bytes[..newline]).map_err(|e| e.to_string())?;
        let lengths: Vec<usize> = match header.split(' ').collect::<Vec<_>>().as_slice() {
            [FRAME_TAG, a, b] => [a, b]
                .iter()
                .map(|n| {
                    n.parse()
                        .map_err(|_| format!("bad frame length in {header:?}"))
                })
                .collect::<Result<_, _>>()?,
            _ => return Err(format!("bad input frame header {header:?}")),
        };
        let body = &bytes[newline + 1..];
        if body.len() != lengths[0] + lengths[1] {
            return Err(format!(
                "input frame holds {} bytes, header says {}",
                body.len(),
                lengths[0] + lengths[1]
            ));
        }
        let (mcelog, sacct) = body.split_at(lengths[0]);
        let text = |b: &[u8]| String::from_utf8(b.to_vec()).map_err(|e| e.to_string());
        Ok(Self {
            mcelog: text(mcelog)?,
            sacct: text(sacct)?,
        })
    }
}

/// `event` moved onto `node`, DIMM ids included.
fn moved(event: &LogEvent, node: NodeId) -> LogEvent {
    let move_dimm = |dimm: DimmId| DimmId { node, ..dimm };
    let kind = match event.kind {
        EventKind::CorrectedError { count, detail } => EventKind::CorrectedError {
            count,
            detail: detail.map(|d| CeDetail {
                dimm: move_dimm(d.dimm),
                ..d
            }),
        },
        EventKind::UncorrectedError { dimm, detector } => EventKind::UncorrectedError {
            dimm: move_dimm(dimm),
            detector,
        },
        other => other,
    };
    LogEvent::new(event.time, node, kind)
}

/// A stratified sample of `picks` nodes from `pool`: nodes ranked by record count
/// (descending, ties by id), every `n / picks`-th rank from the middle of the first
/// stratum, renumbered `0..picks` in id order. A few faulty DIMMs produce most
/// records, so a plain sample of a small fleet swings in volume with the seed; the
/// stratified one keeps heavy, typical and quiet nodes in fixed proportions.
pub fn stratified_nodes(pool: &ErrorLog, picks: u32) -> ErrorLog {
    let nodes = pool.fleet().node_count() as u32;
    let stride = (nodes / picks).max(1) as usize;
    let mut counts = vec![0usize; nodes as usize];
    for event in pool.events() {
        counts[event.node.0 as usize] += 1;
    }
    let mut ranked: Vec<u32> = (0..nodes).collect();
    ranked.sort_by_key(|&n| (std::cmp::Reverse(counts[n as usize]), n));
    let mut chosen: Vec<u32> = ranked
        .into_iter()
        .skip(stride / 2)
        .step_by(stride)
        .take(picks as usize)
        .collect();
    chosen.sort_unstable();
    let events = pool
        .events()
        .iter()
        .filter_map(|e| {
            chosen
                .binary_search(&e.node.0)
                .ok()
                .map(|i| moved(e, NodeId(i as u32)))
        })
        .collect();
    ErrorLog::new(
        FleetConfig::small(picks),
        events,
        pool.window_start(),
        pool.window_end(),
    )
}

/// Copy every record of `base` onto `siblings` sibling nodes at the identical
/// timestamp, as a shared-cause burst would: base node `b` becomes nodes
/// `b * siblings .. (b + 1) * siblings`.
pub fn burst_copy(base: &ErrorLog, siblings: u32) -> ErrorLog {
    let fleet = FleetConfig::small(base.fleet().node_count() as u32 * siblings);
    let events = base
        .events()
        .iter()
        .flat_map(|e| (0..siblings).map(move |k| moved(e, NodeId(e.node.0 * siblings + k))))
        .collect();
    ErrorLog::new(fleet, events, base.window_start(), base.window_end())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use uerl_core::TimelineSet;
    use uerl_serve::merged_fleet_stream;
    use uerl_trace::reduction::preprocess;
    use uerl_trace::SimTime;

    fn small_log(nodes: u32, seed: u64) -> ErrorLog {
        TraceGenerator::new(SyntheticLogConfig::small(nodes, 60, seed)).generate()
    }

    #[test]
    fn same_seed_gives_identical_input_digests() {
        let a = InputText::render(&small_log(12, 5), 5);
        let b = InputText::render(&small_log(12, 5), 5);
        let c = InputText::render(&small_log(12, 6), 6);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a, b);
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn input_frame_round_trips() {
        let text = InputText::render(&small_log(6, 2), 2);
        assert_eq!(InputText::decode(&text.encode()).unwrap(), text);
        assert!(InputText::decode(b"uerlbench-inputs 5 5\nabc").is_err());
        assert!(InputText::decode(b"garbage").is_err());
    }

    fn events_per_time(log: &ErrorLog) -> BTreeMap<SimTime, usize> {
        let timelines = TimelineSet::from_log(&preprocess(log));
        let mut counts = BTreeMap::new();
        for event in merged_fleet_stream(&timelines) {
            *counts.entry(event.time).or_default() += 1;
        }
        counts
    }

    #[test]
    fn stratified_sample_renumbers_picked_nodes() {
        let pool = small_log(40, 4);
        let base = stratified_nodes(&pool, 8);
        assert_eq!(base.fleet().node_count(), 8);
        assert!(base.events().iter().all(|e| e.node.0 < 8));
        assert!(!base.is_empty() && base.len() < pool.len());
        assert_eq!(stratified_nodes(&pool, 8).events(), base.events());
    }

    #[test]
    fn burst_copy_puts_sixty_four_events_into_each_base_round() {
        let base = small_log(5, 9);
        let burst = burst_copy(&base, BURST_SIBLINGS);
        assert_eq!(burst.fleet().node_count(), 5 * BURST_SIBLINGS as usize);
        assert_eq!(burst.len(), base.len() * BURST_SIBLINGS as usize);
        let base_counts = events_per_time(&base);
        let burst_counts = events_per_time(&burst);
        assert!(!base_counts.is_empty());
        assert_eq!(base_counts.len(), burst_counts.len());
        for (time, n) in &base_counts {
            assert_eq!(
                burst_counts[time],
                n * BURST_SIBLINGS as usize,
                "at t={}",
                time.0
            );
        }
        // The copies survive the text round trip the program reads them through.
        let text = InputText::render(&burst, 9);
        let parsed = mcelog::from_text(&text.mcelog, burst.fleet().clone()).unwrap();
        assert_eq!(events_per_time(&parsed), burst_counts);
    }
}

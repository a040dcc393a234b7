//! The node job-sequence sampler of Section 3.3.3.
//!
//! Error logs and job logs come from different machines and periods, so the paper
//! combines them by assigning, to each node and each training episode / evaluation pass,
//! a random sequence of jobs drawn from the job log, *weighted by the number of nodes on
//! which they execute* so that a node's view of the workload matches the machine-wide
//! node-hour distribution. Jobs run back-to-back (MareNostrum utilisation was above 95%),
//! and the sequence covers the whole requested time range.

use crate::job::JobLog;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use uerl_stats::{Categorical, Distribution};
use uerl_trace::types::{NodeId, SimTime};

/// Derive the RNG seed for a node's job-sequence assignment: a pure function of the
/// evaluation seed and the node id, never of the policy or the execution path.
///
/// This is the workload-fairness contract of the cost-benefit analysis — every policy
/// replays exactly the same jobs on every node — and it is shared by the offline
/// evaluator's rollouts and the online serving layer, which is what makes served
/// decisions bit-comparable to offline replays of the same timelines.
pub fn node_workload_seed(seed: u64, node: NodeId) -> u64 {
    seed ^ (u64::from(node.0).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// One job placed on a node's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduledJob {
    /// Id of the job-log record the shape was drawn from.
    pub job_id: u64,
    /// When the job starts on this node.
    pub start: SimTime,
    /// When the job ends on this node.
    pub end: SimTime,
    /// Number of nodes the job spans (after any size scaling).
    pub nodes: u32,
}

impl ScheduledJob {
    /// Whether the job is running at `t` (half-open `[start, end)`).
    pub fn running_at(&self, t: SimTime) -> bool {
        t >= self.start && t < self.end
    }

    /// Hours elapsed from the job start (or a later reference point) to `t`, never
    /// negative.
    pub fn elapsed_hours(&self, since: SimTime, t: SimTime) -> f64 {
        let from = self.start.max(since);
        (t.delta_secs(from).max(0)) as f64 / SimTime::HOUR as f64
    }

    /// Wallclock duration of the job in hours.
    pub fn wallclock_hours(&self) -> f64 {
        (self.end - self.start) as f64 / SimTime::HOUR as f64
    }
}

/// A contiguous sequence of jobs covering a node's timeline over some range.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSequence {
    jobs: Vec<ScheduledJob>,
}

impl JobSequence {
    /// Build a sequence from explicit jobs (sorted by start time internally). Mostly
    /// useful in tests and examples; normal use goes through [`NodeJobSampler`].
    pub fn from_jobs(mut jobs: Vec<ScheduledJob>) -> Self {
        jobs.sort_by_key(|j| j.start);
        Self { jobs }
    }

    /// The scheduled jobs, in start-time order.
    pub fn jobs(&self) -> &[ScheduledJob] {
        &self.jobs
    }

    /// Number of jobs in the sequence.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// The job running at instant `t`, if any.
    pub fn job_at(&self, t: SimTime) -> Option<&ScheduledJob> {
        // Jobs are contiguous and sorted; binary search on start time.
        let idx = self.jobs.partition_point(|j| j.start <= t);
        if idx == 0 {
            return None;
        }
        let candidate = &self.jobs[idx - 1];
        candidate.running_at(t).then_some(candidate)
    }

    /// Total node-hours of all jobs in the sequence (as seen from this node's timeline,
    /// i.e. weighting each job by its full node count).
    pub fn total_node_hours(&self) -> f64 {
        self.jobs
            .iter()
            .map(|j| j.nodes as f64 * j.wallclock_hours())
            .sum()
    }
}

/// Samples job sequences for individual nodes from a machine-wide job log.
#[derive(Debug, Clone)]
pub struct NodeJobSampler {
    /// Job shapes: (record id, nodes, wallclock seconds).
    shapes: Vec<(u64, u32, i64)>,
    /// Node-count weights for sampling (Section 3.3.3).
    weights: Categorical,
    /// Job-size scaling factor applied to sampled node counts.
    size_scaling: f64,
}

impl NodeJobSampler {
    /// Build a sampler from a job log.
    ///
    /// # Panics
    /// Panics if the log is empty.
    pub fn from_log(log: &JobLog) -> Self {
        assert!(!log.is_empty(), "cannot sample jobs from an empty job log");
        let shapes: Vec<(u64, u32, i64)> = log
            .records()
            .iter()
            .map(|r| (r.job_id, r.nodes, r.wallclock_secs().max(SimTime::MINUTE)))
            .collect();
        let weights: Vec<f64> = shapes.iter().map(|&(_, nodes, _)| nodes as f64).collect();
        Self {
            shapes,
            weights: Categorical::new(&weights),
            size_scaling: 1.0,
        }
    }

    /// A copy of this sampler with a job-size scaling factor applied to every sampled
    /// job's node count (the Section 5.6 sensitivity knob).
    ///
    /// # Panics
    /// Panics if the factor is not strictly positive and finite.
    pub fn with_size_scaling(mut self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "scaling factor must be positive"
        );
        self.size_scaling = factor;
        self
    }

    /// The configured size scaling factor.
    pub fn size_scaling(&self) -> f64 {
        self.size_scaling
    }

    /// Sample one job shape `(job_id, nodes, wallclock_secs)`, weighted by node count and
    /// with the size scaling applied.
    pub fn sample_shape<R: Rng + ?Sized>(&self, rng: &mut R) -> (u64, u32, i64) {
        let (id, nodes, secs) = self.shapes[self.weights.sample(rng)];
        let scaled = ((nodes as f64 * self.size_scaling).round() as u32).max(1);
        (id, scaled, secs)
    }

    /// Sample a back-to-back job sequence covering `[range_start, range_end)`.
    ///
    /// The first job receives a random phase so that `range_start` does not always
    /// coincide with a job start (a node joining the evaluation mid-window is usually in
    /// the middle of a job).
    ///
    /// # Panics
    /// Panics if the range is empty.
    pub fn sample_sequence<R: Rng + ?Sized>(
        &self,
        range_start: SimTime,
        range_end: SimTime,
        rng: &mut R,
    ) -> JobSequence {
        assert!(
            range_end > range_start,
            "job sequence range must be non-empty"
        );
        let mut jobs = Vec::new();
        // Random initial phase: the first job started some time before the range.
        let (id0, nodes0, secs0) = self.sample_shape(rng);
        let phase = rng.gen_range(0..secs0);
        let mut t = range_start.plus_secs(-phase);
        let mut pending = Some((id0, nodes0, secs0));
        while t < range_end {
            let (job_id, nodes, secs) = pending.take().unwrap_or_else(|| self.sample_shape(rng));
            let start = t;
            let end = t.plus_secs(secs);
            jobs.push(ScheduledJob {
                job_id,
                start,
                end,
                nodes,
            });
            t = end;
        }
        JobSequence { jobs }
    }

    /// The job sequence of `node` over `[range_start, range_end)` for evaluation seed
    /// `seed`: one draw from an RNG seeded by [`node_workload_seed`] alone, so every
    /// policy, the offline evaluator and the server see the same workload on a node.
    ///
    /// # Panics
    /// Panics if the range is empty.
    pub fn node_sequence(
        &self,
        seed: u64,
        node: NodeId,
        range_start: SimTime,
        range_end: SimTime,
    ) -> JobSequence {
        let mut rng = StdRng::seed_from_u64(node_workload_seed(seed, node));
        self.sample_sequence(range_start, range_end, &mut rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{JobLogConfig, JobTraceGenerator};
    use crate::job::JobRecord;

    fn sample_log() -> JobLog {
        JobTraceGenerator::new(JobLogConfig::small(64, 30, 8)).generate()
    }

    fn two_job_log() -> JobLog {
        // Job 1: 1 node, 1 hour. Job 2: 99 nodes, 1 hour.
        let records = vec![
            JobRecord::new(1, SimTime::ZERO, SimTime::ZERO, SimTime::from_hours(1), 1),
            JobRecord::new(2, SimTime::ZERO, SimTime::ZERO, SimTime::from_hours(1), 99),
        ];
        JobLog::new(records, SimTime::ZERO, SimTime::from_days(1), 100)
    }

    #[test]
    fn sequence_is_contiguous_and_covers_range() {
        let sampler = NodeJobSampler::from_log(&sample_log());
        let mut rng = StdRng::seed_from_u64(1);
        let start = SimTime::from_days(3);
        let end = SimTime::from_days(10);
        let seq = sampler.sample_sequence(start, end, &mut rng);
        assert!(!seq.is_empty());
        assert!(seq.jobs()[0].start <= start);
        assert!(seq.jobs().last().unwrap().end >= end);
        for pair in seq.jobs().windows(2) {
            assert_eq!(pair[0].end, pair[1].start, "jobs must be back-to-back");
        }
    }

    #[test]
    fn job_at_finds_the_running_job() {
        let sampler = NodeJobSampler::from_log(&sample_log());
        let mut rng = StdRng::seed_from_u64(2);
        let start = SimTime::ZERO;
        let end = SimTime::from_days(5);
        let seq = sampler.sample_sequence(start, end, &mut rng);
        for j in seq.jobs() {
            let mid = SimTime::from_secs((j.start.as_secs() + j.end.as_secs()) / 2);
            let found = seq.job_at(mid).expect("a job is running");
            assert_eq!(found.job_id, j.job_id);
            assert_eq!(found.start, j.start);
        }
        // Before the first job there is nothing.
        let before = seq.jobs()[0].start.plus_secs(-10);
        assert!(seq.job_at(before).is_none());
    }

    #[test]
    fn sampling_is_weighted_by_node_count() {
        let sampler = NodeJobSampler::from_log(&two_job_log());
        let mut rng = StdRng::seed_from_u64(3);
        let mut big = 0;
        let n = 10_000;
        for _ in 0..n {
            let (_, nodes, _) = sampler.sample_shape(&mut rng);
            if nodes == 99 {
                big += 1;
            }
        }
        let frac = big as f64 / n as f64;
        assert!((frac - 0.99).abs() < 0.02, "99-node job sampled {frac}");
    }

    #[test]
    fn size_scaling_multiplies_node_counts() {
        let sampler = NodeJobSampler::from_log(&two_job_log()).with_size_scaling(10.0);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..100 {
            let (_, nodes, _) = sampler.sample_shape(&mut rng);
            assert!(nodes == 10 || nodes == 990);
        }
        let down = NodeJobSampler::from_log(&two_job_log()).with_size_scaling(0.01);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..100 {
            let (_, nodes, _) = down.sample_shape(&mut rng);
            assert!(nodes >= 1, "scaling down never reaches zero nodes");
        }
    }

    #[test]
    fn elapsed_hours_accounts_for_reference_point() {
        let j = ScheduledJob {
            job_id: 1,
            start: SimTime::from_hours(10),
            end: SimTime::from_hours(20),
            nodes: 4,
        };
        assert!((j.elapsed_hours(SimTime::ZERO, SimTime::from_hours(15)) - 5.0).abs() < 1e-12);
        // A mitigation at hour 12 resets the reference.
        assert!(
            (j.elapsed_hours(SimTime::from_hours(12), SimTime::from_hours(15)) - 3.0).abs() < 1e-12
        );
        // Reference after t clamps to zero.
        assert_eq!(
            j.elapsed_hours(SimTime::from_hours(16), SimTime::from_hours(15)),
            0.0
        );
        assert!((j.wallclock_hours() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn sequences_differ_across_rng_draws() {
        let sampler = NodeJobSampler::from_log(&sample_log());
        let mut rng = StdRng::seed_from_u64(6);
        let a = sampler.sample_sequence(SimTime::ZERO, SimTime::from_days(2), &mut rng);
        let b = sampler.sample_sequence(SimTime::ZERO, SimTime::from_days(2), &mut rng);
        assert_ne!(a, b, "two draws should not produce the identical sequence");
    }

    #[test]
    fn node_sequence_depends_on_seed_and_node_only() {
        let sampler = NodeJobSampler::from_log(&sample_log());
        let (start, end) = (SimTime::ZERO, SimTime::from_days(2));
        let a = sampler.node_sequence(11, NodeId(3), start, end);
        assert_eq!(a, sampler.node_sequence(11, NodeId(3), start, end));
        let mut rng = StdRng::seed_from_u64(node_workload_seed(11, NodeId(3)));
        assert_eq!(a, sampler.sample_sequence(start, end, &mut rng));
        assert_ne!(a, sampler.node_sequence(11, NodeId(4), start, end));
        assert_ne!(a, sampler.node_sequence(12, NodeId(3), start, end));
    }

    #[test]
    fn total_node_hours_is_consistent() {
        let sampler = NodeJobSampler::from_log(&two_job_log());
        let mut rng = StdRng::seed_from_u64(7);
        let seq = sampler.sample_sequence(SimTime::ZERO, SimTime::from_hours(10), &mut rng);
        let manual: f64 = seq
            .jobs()
            .iter()
            .map(|j| j.nodes as f64 * j.wallclock_hours())
            .sum();
        assert!((seq.total_node_hours() - manual).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "empty job log")]
    fn empty_log_rejected() {
        let log = JobLog::new(vec![], SimTime::ZERO, SimTime::from_days(1), 4);
        NodeJobSampler::from_log(&log);
    }
}

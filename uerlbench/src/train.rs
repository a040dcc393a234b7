//! The training workload, train-paper.
//!
//! The main phase drives the episode loop of the paper agent's `TrainingSession`
//! through the public calls the session makes, so every step can be timed: warmed up
//! once, then cloned and trained for a fixed step budget per unit, repeated for
//! `--seconds`. A `TrainingSession` trained to the same point must match the loop bit
//! for bit. The replay phase evaluates the trained agent offline through `run_policy`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use uerl_core::{
    MitigationConfig, MitigationEnv, RecordRetention, RlPolicy, RlTrainer, TimelineSet,
    TrainerConfig, STATE_DIM,
};
use uerl_eval::run_policy;
use uerl_rl::{DqnAgent, Transition};

use crate::bench::{
    load_fleet, on_threads, repeat_setup, replay_phase, time_boxed, traced_run_policy, Fleet,
    Report, Run,
};
use crate::inputs::{InputText, Workload};
use crate::reference::{Reference, ScaledClock};
use crate::stats::{median, percentile_sorted};
use crate::timed::Timed;

/// Env steps each timed training unit runs after the warm-up (a unit stops at the first
/// episode boundary at or past its target). Every one of them is in the steady state,
/// where the network updates every fourth step.
pub const TRAIN_STEP_BUDGET: u64 = 1000;

/// Seed of the agent's weights and of the trainer's episode draws. The agent is part
/// of the system under test and stays fixed; the workload seed varies the input logs.
const TRAINER_SEED: u64 = 0;

/// Every `REPLAY_STRIDE`-th training node is replayed offline with the trained agent.
const REPLAY_STRIDE: usize = 16;

/// What a training run must reproduce: steps, updates and the probe Q-value bits.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Trained {
    steps: u64,
    updates: u64,
    probe_q: Vec<u64>,
}

impl Trained {
    fn of(steps: u64, agent: &DqnAgent) -> Self {
        Self {
            steps,
            updates: agent.updates(),
            probe_q: agent
                .q_values(&[0.1; STATE_DIM])
                .iter()
                .map(|q| q.to_bits())
                .collect(),
        }
    }

    fn finite(&self) -> bool {
        self.probe_q.iter().all(|&q| f64::from_bits(q).is_finite())
    }
}

/// Times of one driven unit, over its steps.
#[derive(Debug, Default)]
struct LoopTimes {
    /// Steps run.
    steps: u64,
    /// Scaled time of each whole update cycle: the steps after one update up to and
    /// including the next one.
    cycle_latencies: Vec<u64>,
    episodes: u64,
    sample_nanos: u64,
    env_nanos: u64,
    act_nanos: u64,
    observe_nanos: u64,
    observe_calls: u64,
    update_nanos: u64,
    update_calls: u64,
    /// Wall time of the unit, reference samples excluded.
    wall_nanos: u64,
    /// The same time scaled by the reference speed, lap by lap.
    scaled_nanos: f64,
}

/// The episode loop of a `TrainingSession`, driven through the public calls it makes,
/// in the same order, so each step can be timed: `random_timeline`, `sample_sequence`,
/// `MitigationEnv::with_retention`/`reset`/`step` and `DqnAgent::act`/`observe`. Its
/// state between episodes is the session's, so a clone continues exactly where the
/// original stopped.
#[derive(Debug, Clone)]
struct Driver {
    agent: DqnAgent,
    rng: StdRng,
    episodes: usize,
    steps: u64,
}

impl Driver {
    fn new(config: &TrainerConfig) -> Self {
        Self {
            agent: DqnAgent::new(config.agent.clone()),
            rng: StdRng::seed_from_u64(config.seed),
            episodes: 0,
            steps: 0,
        }
    }

    fn trained(&self) -> Trained {
        Trained::of(self.steps, &self.agent)
    }

    /// `TrainingSession::train_until_steps(target)`: whole episodes until the step
    /// count reaches `target` or the episode budget runs out. Every update closes a lap
    /// of the scaled clock, so each lap after the first is one update cycle. `detailed`
    /// also times every call inside a step.
    fn run_until(
        &mut self,
        config: &TrainerConfig,
        fleet: &Fleet,
        target: u64,
        reference: Option<&Reference>,
        detailed: bool,
    ) -> LoopTimes {
        let clock = || detailed.then(Instant::now);
        let lap = |t: Option<Instant>| t.map_or(0, |t| t.elapsed().as_nanos() as u64);
        let mut times = LoopTimes::default();
        let mut scaled = ScaledClock::start(reference);
        let mut updated_before = false;
        while self.episodes < config.episodes && self.steps < target {
            let Some(timeline) = fleet.timelines.random_timeline(&mut self.rng) else {
                break;
            };
            let t = clock();
            let sequence = fleet.sampler.sample_sequence(
                timeline.window_start(),
                timeline.window_end(),
                &mut self.rng,
            );
            times.sample_nanos += lap(t);
            let t = clock();
            let mut env = MitigationEnv::with_retention(
                timeline.clone(),
                sequence,
                config.mitigation,
                true,
                RecordRetention::TotalsOnly,
            );
            self.episodes += 1;
            times.episodes += 1;
            let first = env.reset();
            times.env_nanos += lap(t);
            let Some(first) = first else {
                continue;
            };
            let mut state = first.to_vector();
            loop {
                let t = clock();
                let action = self.agent.act(&state);
                times.act_nanos += lap(t);
                let t = clock();
                let outcome = env.step(action == 1);
                times.env_nanos += lap(t);
                self.steps += 1;
                times.steps += 1;
                let updates = self.agent.updates();
                let t = clock();
                let next = outcome.next_state.map(|s| s.to_vector());
                self.agent.observe(match &next {
                    Some(next) => Transition::new(state, action, outcome.reward, next.clone()),
                    None => Transition::terminal(state, action, outcome.reward),
                });
                if self.agent.updates() > updates {
                    times.update_nanos += lap(t);
                    times.update_calls += 1;
                    let before = scaled.scaled_nanos;
                    scaled.lap();
                    if updated_before {
                        let cycle = (scaled.scaled_nanos - before).round() as u64;
                        times.cycle_latencies.push(cycle);
                    }
                    updated_before = true;
                } else {
                    times.observe_nanos += lap(t);
                    times.observe_calls += 1;
                }
                match next {
                    Some(next) => state = next,
                    None => break,
                }
            }
        }
        scaled.lap();
        (times.wall_nanos, times.scaled_nanos) = (scaled.wall_nanos, scaled.scaled_nanos);
        times
    }
}

/// train-paper: the paper's DDDQN+PER agent trained on one thread.
pub fn train_paper(text: &InputText, run: &Run) -> Result<Report, String> {
    on_threads(1, || train_on_pool(text, run))?
}

fn train_on_pool(text: &InputText, run: &Run) -> Result<Report, String> {
    uerl_obs::set_enabled(false);
    let seed = run.seed;
    let config = TrainerConfig::paper().with_seed(TRAINER_SEED);
    // The replay memory fills before the first update; the timed units start there.
    let warmup = config.agent.min_replay as u64;
    let mut report = Report::default();
    let setup_reference = run.reference(Reference::inference);
    let (fleet, mut session) = repeat_setup(&mut report, setup_reference.as_ref(), |t| {
        let fleet = load_fleet(text, Workload::TrainPaper.fleet(), t)?;
        let session = t.span("core.build_session", || {
            RlTrainer::new(config.clone()).session()
        });
        Ok((fleet, session))
    })?;

    // Main phase: the driven loop is warmed up once, untimed, until its replay memory
    // can feed an update. Every unit trains a clone of it for the fixed budget of steady
    // steps, so every unit does the same work.
    let reference = run.reference(Reference::training);
    let mut warm = Driver::new(&config);
    warm.run_until(&config, &fleet, warmup, None, false);
    let mut units: Vec<(Trained, LoopTimes)> = Vec::new();
    let mut train_once = || {
        let mut unit = warm.clone();
        let target = unit.steps + TRAIN_STEP_BUDGET;
        let times = unit.run_until(&config, &fleet, target, reference.as_ref(), run.trace);
        units.push((unit.trained(), times));
    };
    if run.trace {
        train_once();
    } else {
        time_boxed(run.seconds, train_once);
    }
    let shortfall = units
        .iter()
        .map(|(_, times)| TRAIN_STEP_BUDGET.saturating_sub(times.steps))
        .sum();
    report.ops(
        "steady training steps against the budget",
        TRAIN_STEP_BUDGET * units.len() as u64,
        shortfall,
    );
    let (looped, times) = &units[0];
    report.check(
        units.iter().all(|(t, _)| t.finite()),
        "probe Q-values are finite",
    );
    report.check(
        units.iter().all(|(t, _)| t == looped),
        "every unit trains the same bits",
    );

    // The session the loop stands for, warmed up and trained for the same budget: the
    // loop must reproduce it bit for bit. Its steady part is timed for the traced run's
    // overhead figure.
    session.train_until_steps(&fleet.timelines, &fleet.sampler, warmup);
    let target = session.total_steps() + TRAIN_STEP_BUDGET;
    let start = Instant::now();
    session.train_until_steps(&fleet.timelines, &fleet.sampler, target);
    let session_nanos = start.elapsed().as_nanos() as u64;
    report.check(
        Trained::of(session.total_steps(), session.agent()) == *looped,
        "the driven loop reproduces the training session bit for bit",
    );

    let rates: Vec<f64> = units
        .iter()
        .map(|(_, t)| t.steps as f64 / (t.scaled_nanos / 1e9))
        .collect();
    let wall: Vec<f64> = units
        .iter()
        .map(|(_, t)| t.steps as f64 / (t.wall_nanos as f64 / 1e9))
        .collect();
    report.note(format!(
        "train: {} units of {} steady steps, {} steps and {} updates in all; steady steps/s per unit {rates:.2?} scaled, {wall:.2?} wall",
        units.len(),
        times.steps,
        looped.steps,
        looped.updates
    ));
    report.metric("throughput_per_sec", median(&rates), "1/s");
    // Update cycles pooled over all units: one unit holds about 250, too few for a p99
    // with ten cycles beyond it.
    let mut cycles: Vec<u64> = units
        .iter()
        .flat_map(|(_, t)| t.cycle_latencies.iter().copied())
        .collect();
    cycles.sort_unstable();
    let p50 = percentile_sorted(&cycles, 0.50) as f64 / 1e3;
    let p99 = percentile_sorted(&cycles, 0.99) as f64 / 1e3;
    report.note(format!(
        "update cycle latency over {} cycles of {} units: p50 {p50:.3} us, p99 {p99:.3} us ({} cycles beyond p99)",
        cycles.len(),
        units.len(),
        cycles.len() - (cycles.len() as f64 * 0.99).ceil() as usize,
    ));
    report.metric("latency_p50_us", p50, "us");
    report.metric("latency_p99_us", p99, "us");
    if run.trace {
        let per = |nanos: u64, count: u64| nanos as f64 / count.max(1) as f64;
        let steps = times.steps;
        let session_secs = session_nanos as f64 / 1e9;
        let overhead = 100.0 * (times.wall_nanos as f64 / session_nanos as f64 - 1.0);
        report.note(format!(
            "tracing overhead: session {session_secs:.3} s vs traced loop {:.3} s ({overhead:+.2}%); {} episodes",
            times.wall_nanos as f64 / 1e9,
            times.episodes
        ));
        report.metric("bench.trace_overhead_pct", overhead, "%");
        report.metric("core.env_step_us", per(times.env_nanos, steps) / 1e3, "us");
        report.metric(
            "jobs.sample_sequence_us",
            per(times.sample_nanos, times.episodes) / 1e3,
            "us",
        );
        report.metric("rl.act_us", per(times.act_nanos, steps) / 1e3, "us");
        report.metric(
            "rl.observe_us",
            per(times.observe_nanos, times.observe_calls) / 1e3,
            "us",
        );
        report.metric(
            "rl.update_ms",
            per(times.update_nanos, times.update_calls) / 1e6,
            "ms",
        );
        report.metric("rl.updates", times.update_calls as f64, "count");
    }

    // Replay phase: the trained agent evaluated greedily on every REPLAY_STRIDE-th node.
    let mut agent = session.agent().clone();
    agent.compact_for_inference();
    let policy = RlPolicy::new(agent);
    let timed = Timed::new(policy.clone());
    let subset = TimelineSet::from_timelines(
        fleet.timelines.window_start(),
        fleet.timelines.window_end(),
        fleet
            .timelines
            .timelines()
            .iter()
            .step_by(REPLAY_STRIDE)
            .cloned()
            .collect(),
    );
    let runs = replay_phase(&mut report, |report| {
        vec![if run.trace {
            traced_run_policy(report, &timed, &subset, &fleet, seed)
        } else {
            run_policy(
                &policy,
                &subset,
                &fleet.sampler,
                MitigationConfig::paper_default(),
                seed,
            )
        }]
    });
    let fatal: u64 = subset
        .timelines()
        .iter()
        .map(|t| t.fatal_count() as u64)
        .sum();
    let events = subset.total_events() as u64;
    report.check(
        runs[0].mitigations + runs[0].non_mitigations == events - fatal,
        "replay decides every non-fatal event",
    );
    report.check(
        runs[0].ue_count == fatal,
        "replay accounts every fatal event",
    );
    report.note(format!(
        "fingerprint: input={:016x} trained={:x?} replay_cost={:016x}",
        text.digest(),
        looped,
        runs[0].total_cost().to_bits()
    ));
    Ok(report)
}

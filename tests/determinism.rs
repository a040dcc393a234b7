//! Thread-count determinism: every parallel fan-out in the engine (forest fitting,
//! per-node rollouts, per-policy and per-split evaluation, figure drivers) must produce
//! **bit-identical** results whether it runs on one thread or many. Under a thread
//! budget *which thread* runs an item is a race, but results are always reduced in
//! input-index order.
//!
//! The tests pin the thread count with `rayon::ThreadPool::install`, which is the same
//! mechanism the `RAYON_NUM_THREADS` environment variable feeds; running the whole
//! suite under `RAYON_NUM_THREADS=1` therefore exercises the same single-thread path,
//! and CI re-runs it under `RAYON_NUM_THREADS=4` to force the spawning fan-out paths.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uerl::core::policies::RlPolicy;
use uerl::core::state::STATE_DIM;
use uerl::eval::evaluator::{rl_hyper_search, Evaluator};
use uerl::eval::experiments::fig3;
use uerl::eval::scenario::{EvalBudget, ExperimentContext};
use uerl::forest::{Dataset, RandomForest, RandomForestConfig};
use uerl::rl::{AgentConfig, DqnAgent, SearchOutcome, Transition};

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool")
}

/// An imbalanced but learnable dataset, the shape the SC20-RF baseline sees.
fn rf_dataset(n: usize) -> Dataset {
    let mut rng = StdRng::seed_from_u64(99);
    let mut d = Dataset::new();
    for _ in 0..n {
        let x0: f64 = rng.gen();
        let x1: f64 = rng.gen();
        let x2: f64 = rng.gen();
        let positive = x0 + x1 > 1.5;
        if !positive || rng.gen::<f64>() < 0.4 {
            d.push(vec![x0, x1, x2], positive);
        }
    }
    d
}

#[test]
fn forest_fit_is_bit_identical_across_thread_counts() {
    let data = rf_dataset(1500);
    let config = RandomForestConfig::sc20(3, 4242);
    let serial = pool(1).install(|| RandomForest::fit(&data, &config));
    let two = pool(2).install(|| RandomForest::fit(&data, &config));
    let eight = pool(8).install(|| RandomForest::fit(&data, &config));
    // `RandomForest` derives `PartialEq` over every fitted tree, so this compares the
    // full structure, not just a probe prediction.
    assert_eq!(serial, two);
    assert_eq!(serial, eight);
}

#[test]
fn full_evaluation_is_bit_identical_across_thread_counts() {
    let ctx = ExperimentContext::synthetic_small(30, 75, EvalBudget::tiny(), 1234);
    let serial = pool(1).install(|| Evaluator::new().evaluate(&ctx));
    let parallel = pool(4).install(|| Evaluator::new().evaluate(&ctx));
    assert_eq!(serial.totals, parallel.totals);
    assert_eq!(serial.per_split.len(), parallel.per_split.len());
    for (a, b) in serial.per_split.iter().zip(&parallel.per_split) {
        assert_eq!(
            a.runs, b.runs,
            "split {:?} diverged across thread counts",
            a.split
        );
    }
}

#[test]
fn figure3_smoke_output_is_byte_identical_across_thread_counts() {
    let ctx = ExperimentContext::synthetic_small(25, 60, EvalBudget::tiny(), 77);
    let serial = pool(1).install(|| fig3::render(&fig3::run(&ctx, &[2.0, 5.0])));
    let parallel = pool(4).install(|| fig3::render(&fig3::run(&ctx, &[2.0, 5.0])));
    assert_eq!(
        serial, parallel,
        "rendered figure must not depend on the thread count"
    );
    assert!(serial.contains("Figure 3"));
}

/// The production RL search exactly as the evaluator runs it per split, at a fixed
/// thread count.
fn run_production_search(ctx: &ExperimentContext, threads: usize) -> SearchOutcome<RlPolicy> {
    let sampler = ctx.job_sampler(1.0);
    let window = ctx.timelines.window_end() - ctx.timelines.window_start();
    let mid = ctx
        .timelines
        .window_start()
        .plus_secs((window as f64 * 0.7) as i64);
    let train_tl = ctx.timelines.slice(ctx.timelines.window_start(), mid);
    let validate_tl = ctx.timelines.slice(mid, ctx.timelines.window_end());
    pool(threads)
        .install(|| rl_hyper_search(ctx, &train_tl, &validate_tl, &sampler, ctx.mitigation, 8123))
}

#[test]
fn halving_search_is_bit_identical_across_thread_counts() {
    // Enough candidates for several elimination rungs in both rounds.
    let mut budget = EvalBudget::tiny();
    budget.rl_episodes = 6;
    budget.hyper_initial = 6;
    budget.hyper_refined = 3;
    let ctx = ExperimentContext::synthetic_small(18, 50, budget, 2027);

    let one = run_production_search(&ctx, 1);
    let four = run_production_search(&ctx, 4);

    // Winner, full candidate trace and charged search cost — to the bit.
    assert_eq!(one.best_index, four.best_index);
    assert_eq!(one.best_params, four.best_params);
    assert_eq!(one.best_score.to_bits(), four.best_score.to_bits());
    assert_eq!(one.total_cost.to_bits(), four.total_cost.to_bits());
    assert_eq!(one.candidates, four.candidates);

    // The survivor sets of every rung (and their per-rung scores and charged costs)
    // must agree exactly: which candidates were eliminated when is part of the
    // deterministic contract, not just the final winner.
    assert_eq!(one.rungs.len(), four.rungs.len());
    for (a, b) in one.rungs.iter().zip(&four.rungs) {
        assert_eq!(
            a.survivors, b.survivors,
            "rung {} survivors diverged",
            a.rung
        );
        assert_eq!(a.budget, b.budget);
        for (x, y) in a.scores.iter().zip(&b.scores) {
            assert_eq!(x.to_bits(), y.to_bits(), "rung {} scores diverged", a.rung);
        }
        for (x, y) in a.costs.iter().zip(&b.costs) {
            assert_eq!(x.to_bits(), y.to_bits(), "rung {} costs diverged", a.rung);
        }
    }

    // Same winning network, bit for bit.
    let mut rng = StdRng::seed_from_u64(10);
    for _ in 0..16 {
        let probe: Vec<f64> = (0..STATE_DIM).map(|_| rng.gen_range(-1.0..1.0)).collect();
        for (a, b) in one
            .best
            .agent()
            .q_values(&probe)
            .iter()
            .zip(four.best.agent().q_values(&probe))
        {
            assert_eq!(a.to_bits(), b.to_bits(), "Q-values diverged: {a} vs {b}");
        }
    }
}

#[test]
fn nested_fan_out_never_exceeds_the_thread_budget() {
    // Under `install(4)` a nested fan-out — a `par_iter` whose items `join` and fit a
    // small forest, itself a `join` recursion — never has more than 4 closures running
    // at once. A fan-out in which one item panics leaks no slot of the budget: the next
    // fan-out still reaches 4 live closures, which its items check by waiting for each
    // other (a leaked slot leaves one of them waiting until the timeout).
    use rayon::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    let live = AtomicUsize::new(0);
    let max_live = AtomicUsize::new(0);
    let busy = |ms: u64| {
        let now = live.fetch_add(1, Ordering::SeqCst) + 1;
        max_live.fetch_max(now, Ordering::SeqCst);
        std::thread::sleep(std::time::Duration::from_millis(ms));
        live.fetch_sub(1, Ordering::SeqCst);
    };
    let data = rf_dataset(400);
    let config = RandomForestConfig::small(7);
    let serial = pool(1).install(|| RandomForest::fit(&data, &config));
    let four = pool(4);
    let forests: Vec<RandomForest> = four.install(|| {
        (0..12)
            .into_par_iter()
            .map(|_| {
                rayon::join(|| busy(2), || busy(2));
                RandomForest::fit(&data, &config)
            })
            .collect()
    });
    assert!(forests.iter().all(|forest| *forest == serial));
    let peak = max_live.load(Ordering::SeqCst);
    assert!(peak <= 4, "{peak} closures ran at once");

    // One planted panic in a flat fan-out item, one in a `join` branch that runs on a
    // helper thread and unwinds through its slot's drop guard.
    let planted = [
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            four.install(|| {
                (0..8)
                    .into_par_iter()
                    .map(|i| {
                        busy(1);
                        assert_ne!(i, 3, "planted panic");
                    })
                    .collect::<Vec<()>>()
            });
        })),
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            four.install(|| rayon::join(|| busy(5), || panic!("planted panic")));
        })),
    ];
    assert!(planted.iter().all(Result::is_err));
    let arrived = std::sync::Mutex::new(0);
    let all_live = std::sync::Condvar::new();
    let met: Vec<bool> = four.install(|| {
        (0..4)
            .into_par_iter()
            .map(|_| {
                let mut live = arrived.lock().expect("no closure panics holding it");
                *live += 1;
                all_live.notify_all();
                let timeout = std::time::Duration::from_secs(10);
                let (live, _) = all_live
                    .wait_timeout_while(live, timeout, |live| *live < 4)
                    .expect("no closure panics holding it");
                *live == 4
            })
            .collect()
    });
    assert!(
        met.iter().all(|&m| m),
        "a panicked fan-out leaked budget slots"
    );
}

#[test]
fn join_based_forest_recursion_is_bit_identical_under_stealing() {
    // The forest fans out through recursive `rayon::join` halving (not flat chunks);
    // under a 4-thread budget the halves land on whichever threads have a slot free, so
    // this pins that the assembled forest is still bit-identical between the serial
    // path and the spawning one, and stable across repeated runs.
    let data = rf_dataset(1200);
    let config = RandomForestConfig::sc20(3, 99);
    let serial = pool(1).install(|| RandomForest::fit(&data, &config));
    for _ in 0..3 {
        let spawned = pool(4).install(|| RandomForest::fit(&data, &config));
        assert_eq!(
            serial, spawned,
            "the spawning path changed the fitted forest"
        );
    }
}

/// The Q-value and last-loss bits of a trained agent, in a fixed probe order.
fn agent_bits(agent: &DqnAgent, probes: &[Vec<f64>]) -> Vec<u64> {
    let mut bits: Vec<u64> = probes
        .iter()
        .flat_map(|p| agent.q_values(p))
        .map(f64::to_bits)
        .collect();
    bits.push(agent.last_loss().expect("the agent trained").to_bits());
    bits
}

fn assert_bits(label: &str, got: &[u64], want: &[u64]) {
    let hex: Vec<String> = got.iter().map(|b| format!("0x{b:016x}")).collect();
    assert_eq!(
        got,
        want,
        "{label} training bits moved; now [{}]",
        hex.join(", ")
    );
}

/// Training bits pinned across commits, not only across thread counts: the small agent
/// on a two-context bandit whose steps chain into the other context (so double-DQN
/// bootstrapping runs), and a few updates of the paper's 256-256-128-64 agent on random
/// transitions. A change that means to keep every training bit must leave these
/// constants alone; one that moves training on purpose re-captures them.
#[test]
fn agent_training_bits_are_pinned() {
    let mut small = DqnAgent::new(AgentConfig::small(2).with_seed(31));
    let contexts = [vec![1.0, 0.0], vec![0.0, 1.0]];
    for step in 0..600 {
        let s = contexts[step % 2].clone();
        let a = small.act(&s);
        let reward = if a == step % 2 { 1.0 } else { -1.0 };
        let next = contexts[(step + 1) % 2].clone();
        small.observe(if step % 4 == 3 {
            Transition::terminal(s, a, reward)
        } else {
            Transition::new(s, a, reward, next)
        });
    }
    let probes = [contexts[0].clone(), contexts[1].clone(), vec![0.3, -0.7]];
    assert_bits("small", &agent_bits(&small, &probes), &SMALL_BITS);

    let mut paper = DqnAgent::new(AgentConfig::paper(STATE_DIM).with_seed(32));
    let mut rng = StdRng::seed_from_u64(33);
    let mut state = || -> Vec<f64> { (0..STATE_DIM).map(|_| rng.gen_range(-1.0..1.0)).collect() };
    for i in 0..96 {
        let (s, next) = (state(), state());
        let reward = -((i % 5) as f64);
        paper.observe(if i % 3 == 0 {
            Transition::terminal(s, i % 2, reward)
        } else {
            Transition::new(s, i % 2, reward, next)
        });
    }
    for _ in 0..3 {
        paper.train_step().expect("replay holds a batch");
    }
    let probes = [state(), state()];
    assert_bits("paper", &agent_bits(&paper, &probes), &PAPER_BITS);
}

const SMALL_BITS: [u64; 7] = [
    0x400b88f41308516a,
    0x3ff73424c55983ba,
    0x3fde8fd4381db770,
    0x4004107ce1beea14,
    0x3ff9e0c93e722114,
    0x3fe49350d2d647d4,
    0x3fb126ff858752cd,
];
const PAPER_BITS: [u64; 5] = [
    0x3fec6131304ee60e,
    0xbfe585e85883b11e,
    0xbfe147b99f1f50cf,
    0xbfd0e76ac6d918ba,
    0x3fe9099eddcff982,
];

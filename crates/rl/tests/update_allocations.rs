//! `DqnAgent::train_step` and the greedy branch of `DqnAgent::act` allocate nothing
//! once their buffers have seen the largest batch shapes, and neither does the greedy
//! inference of an agent compacted for serving, whose products skip zero inputs. A
//! counting global allocator watches the test thread through updates on the paper
//! network over batches with changing terminal mixes, target-network syncs included,
//! and through `DqnAgent::with_q_values` queries of 1 and 3 states.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use uerl_rl::{AgentConfig, DqnAgent, EpsilonSchedule, Transition};

/// The system allocator, counting the allocations and reallocations a thread makes
/// while its `COUNTING` flag is set.
struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note_allocation() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, so the memory
// handed out and taken back is exactly `System`'s. The counting reads a const-initialised
// thread-local `Cell<bool>` and bumps an atomic, neither of which allocates or unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: `ptr` came from `System` through this allocator with `layout`, and the
        // caller upholds `GlobalAlloc::realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations `f` makes on this thread.
fn allocations_in<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

#[test]
fn train_step_and_greedy_act_allocate_nothing_after_warm_up() {
    const STATE_DIM: usize = 15;
    let config = AgentConfig {
        batch_size: 16,
        replay_capacity: 64,
        min_replay: usize::MAX,
        target_sync_every: 3,
        epsilon: EpsilonSchedule::new(0.0, 0.0, 1),
        ..AgentConfig::paper(STATE_DIM).with_seed(7)
    };
    let mut agent = DqnAgent::new(config);
    let mut rng = StdRng::seed_from_u64(8);
    let mut transition = |terminal: bool| {
        let mut state =
            || -> Vec<f64> { (0..STATE_DIM).map(|_| rng.gen_range(-1.0..1.0)).collect() };
        let (s, next) = (state(), state());
        if terminal {
            Transition::terminal(s, 1, -1.0)
        } else {
            Transition::new(s, 0, 0.5, next)
        }
    };

    // Warm-up on an all-non-terminal replay: every batch and next-state buffer reaches
    // its largest shape, and the lazily built state (metrics, kernel level, optimizer
    // moments, panel buffer) exists.
    for _ in 0..64 {
        agent.observe(transition(false));
    }
    for _ in 0..2 {
        agent.train_step().expect("replay holds a batch");
    }
    let probe = vec![0.25; STATE_DIM];
    agent.act(&probe);

    for round in 0..9 {
        // Pushing builds the transitions' vectors: outside the counted region.
        for i in 0..16 {
            agent.observe(transition((i + round) % 3 == 0 || round >= 6));
        }
        let (allocations, _) = allocations_in(|| {
            agent.train_step().expect("replay holds a batch");
            agent.act(&probe)
        });
        assert_eq!(allocations, 0, "round {round} allocated");
    }
    // Updates 3, 6 and 9 synchronised the target network inside counted rounds.
    assert_eq!(agent.updates(), 11);
}

#[test]
fn compacted_agent_inference_allocates_nothing_after_warm_up() {
    const STATE_DIM: usize = 15;
    let config = AgentConfig {
        epsilon: EpsilonSchedule::new(0.0, 0.0, 1),
        ..AgentConfig::paper(STATE_DIM).with_seed(3)
    };
    let mut agent = DqnAgent::new(config);
    agent.compact_for_inference();
    let mut rng = StdRng::seed_from_u64(4);
    // Features in [0, 1), about one in eight exactly zero, as the served states have.
    let mut feature = move || {
        if rng.gen_range(0..8) == 0 {
            0.0
        } else {
            rng.gen_range(0.0..1.0)
        }
    };
    let mut query = |agent: &DqnAgent, rows: usize| {
        agent.with_q_values(
            rows,
            |_, row| row.iter_mut().for_each(|x| *x = feature()),
            |q| q.data().iter().all(|q| q.is_finite()),
        )
    };
    let probe: Vec<f64> = (0..STATE_DIM).map(|j| (j % 3) as f64 * 0.4).collect();

    // Warm-up: the query buffers reach their 3-row shapes, and the lazily built state
    // (kernel level, the nonzero-input buffer) exists.
    for rows in [3, 1] {
        query(&agent, rows);
    }
    agent.act(&probe);

    for round in 0..6 {
        let (allocations, _) = allocations_in(|| {
            for rows in [1, 3] {
                assert!(query(&agent, rows));
            }
            agent.act(&probe)
        });
        assert_eq!(allocations, 0, "round {round} allocated");
    }
}

//! The paper's agent: a dueling double deep Q-network (DDDQN) trained from prioritized
//! experience replay with Adam.
//!
//! The agent keeps two [`uerl_nn::DuelingQNetwork`]s: the *online* network selects
//! actions and is trained every few environment steps on a mini-batch drawn from
//! [`PrioritizedReplay`]; the *target* network evaluates bootstrapped TD targets and is
//! synchronised with the online network every `target_sync_every` updates. Following
//! double Q-learning, the online network chooses the argmax action for the next state
//! while the target network provides its value, which removes the max-operator
//! overestimation bias.
//!
//! An update forwards each next state it needs once. The sampled batch holds one row
//! per distinct non-terminal slot, however often prioritized replay drew it, and the
//! online network forwards those rows. The target network is fixed between syncs, so
//! the agent keeps its Q-values of every replay slot's next state until the next sync
//! (or until the slot is overwritten) and forwards only the rows of slots it has not
//! valued since. Each row of a batched forward has the same bits as that row forwarded
//! alone, so neither the deduplication nor the cache moves a bit of training.

use crate::metrics::UpdatePhase;
use crate::per::{PrioritizedReplay, SampledBatch};
use crate::schedule::{BetaSchedule, EpsilonSchedule};
use crate::transition::Transition;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use uerl_nn::{Adam, BatchScratch, DuelingQNetwork, Huber, Matrix};

/// Deterministic greedy action over one state's Q-values: the argmax, with exact ties
/// going to the **last** maximal action (via `Iterator::max_by`). Every greedy decision
/// — acting in training, offline evaluation and online serving — reads the Q-values of
/// [`DqnAgent::with_q_values`] through this one helper, so the offline evaluator and the
/// online serving layer cannot diverge on a tie.
///
/// # Panics
/// Panics if a Q-value is NaN.
pub fn greedy_action(q: &[f64]) -> usize {
    q.iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite Q-values"))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// The buffers of one Q-value query: the staged input batch, the network's forward
/// scratch and the Q-values. Overwritten by every query and never observable.
struct QueryBuffers {
    input: Matrix,
    forward: BatchScratch,
    q: Matrix,
}

thread_local! {
    /// The per-thread buffers of [`DqnAgent::with_q_values`], shared by every agent on
    /// the thread. The evaluator replays one shared `&DqnAgent` over many node timelines
    /// in parallel, so the buffers cannot live in the agent; since every query overwrites
    /// them, sharing them across agents is sound.
    static QUERY: RefCell<QueryBuffers> = RefCell::new(QueryBuffers {
        input: Matrix::zeros(1, 1),
        forward: BatchScratch::new(),
        q: Matrix::zeros(1, 1),
    });
}

/// Configuration of a [`DqnAgent`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AgentConfig {
    /// Dimension of the state feature vector.
    pub state_dim: usize,
    /// Number of discrete actions.
    pub n_actions: usize,
    /// Hidden layer widths of the Q-network.
    pub hidden: Vec<usize>,
    /// Discount factor γ.
    pub gamma: f64,
    /// Learning rate of the Adam optimizer.
    pub learning_rate: f64,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Replay memory capacity.
    pub replay_capacity: usize,
    /// Minimum number of stored transitions before training starts.
    pub min_replay: usize,
    /// Train every this many environment steps.
    pub train_every: usize,
    /// Synchronise the target network every this many training updates.
    pub target_sync_every: usize,
    /// PER prioritisation exponent α.
    pub per_alpha: f64,
    /// Exploration schedule.
    pub epsilon: EpsilonSchedule,
    /// PER importance-sampling annealing schedule.
    pub beta: BetaSchedule,
    /// RNG seed (weights, exploration, replay sampling).
    pub seed: u64,
}

impl AgentConfig {
    /// The paper's agent: dueling double DQN with prioritized experience replay and the
    /// 256-256-128-64 network of Section 3.3.2.
    pub fn paper(state_dim: usize) -> Self {
        Self {
            state_dim,
            n_actions: 2,
            hidden: vec![256, 256, 128, 64],
            gamma: 0.99,
            learning_rate: 1e-4,
            batch_size: 64,
            replay_capacity: 100_000,
            min_replay: 1_000,
            train_every: 4,
            target_sync_every: 500,
            per_alpha: 0.6,
            epsilon: EpsilonSchedule::default(),
            beta: BetaSchedule::default(),
            seed: 0,
        }
    }

    /// A small, fast configuration for tests and examples.
    pub fn small(state_dim: usize) -> Self {
        Self {
            state_dim,
            n_actions: 2,
            hidden: vec![32, 32],
            gamma: 0.95,
            learning_rate: 1e-3,
            batch_size: 32,
            replay_capacity: 10_000,
            min_replay: 64,
            train_every: 1,
            target_sync_every: 50,
            per_alpha: 0.6,
            epsilon: EpsilonSchedule::new(1.0, 0.05, 2_000),
            beta: BetaSchedule::new(0.4, 5_000),
            seed: 0,
        }
    }

    /// A copy with a different seed (used when training several agents during
    /// hyperparameter search).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn validate(&self) {
        assert!(self.state_dim > 0, "state_dim must be positive");
        assert!(self.n_actions >= 2, "need at least two actions");
        assert!(!self.hidden.is_empty(), "need at least one hidden layer");
        assert!((0.0..=1.0).contains(&self.gamma), "gamma must be in [0, 1]");
        assert!(self.learning_rate > 0.0, "learning rate must be positive");
        assert!(self.batch_size > 0, "batch size must be positive");
        assert!(
            self.replay_capacity >= self.batch_size,
            "replay must hold a batch"
        );
        assert!(self.train_every > 0, "train_every must be positive");
        assert!(
            self.target_sync_every > 0,
            "target_sync_every must be positive"
        );
    }
}

/// Build one dueling Q-network over `config.state_dim` features: a ReLU trunk of
/// `config.hidden` widths, then the value and advantage heads over `config.n_actions`,
/// all He-normal.
fn q_network(config: &AgentConfig, rng: &mut StdRng) -> DuelingQNetwork {
    DuelingQNetwork::new(config.state_dim, &config.hidden, config.n_actions, rng)
}

/// A deep Q-network agent.
#[derive(Debug, Clone)]
pub struct DqnAgent {
    config: AgentConfig,
    online: DuelingQNetwork,
    target: DuelingQNetwork,
    optimizer: Adam,
    replay: PrioritizedReplay,
    rng: StdRng,
    env_steps: u64,
    updates: u64,
    last_loss: Option<f64>,
    compacted: bool,
    /// The target network's Q-values of the replay slots' next states.
    target_q: TargetCache,
    /// Buffers of one update, overwritten by every `train_step` and never observable.
    update: UpdateBuffers,
}

/// The target network's Q-values of each replay slot's next state: one row per slot,
/// stamped with the target epoch it was computed in. A row is valid while its stamp
/// equals the current epoch. Every target sync starts a new epoch, and storing a
/// transition clears its slot's stamp, so no row outlives its target network or its
/// transition. At most `n_actions + 1` words per slot.
#[derive(Debug, Clone)]
struct TargetCache {
    n_actions: usize,
    /// The current target epoch; it starts at 1, so a cleared stamp is never valid.
    epoch: u64,
    /// Per slot, the epoch its row was computed in (0: none).
    stamps: Vec<u64>,
    /// `n_actions` Q-values per slot.
    q: Vec<f64>,
}

impl TargetCache {
    fn new(n_actions: usize) -> Self {
        Self {
            n_actions,
            epoch: 1,
            stamps: Vec::new(),
            q: Vec::new(),
        }
    }

    /// Forget the row of `slot`, which now holds a new transition; the cache grows to
    /// cover a slot filled for the first time.
    fn invalidate(&mut self, slot: usize) {
        if slot >= self.stamps.len() {
            self.stamps.resize(slot + 1, 0);
            self.q.resize((slot + 1) * self.n_actions, 0.0);
        }
        self.stamps[slot] = 0;
    }

    /// Forget every row: the target network changed.
    fn next_epoch(&mut self) {
        self.epoch += 1;
    }

    /// Whether `slot` has a row from the current target network.
    fn is_fresh(&self, slot: usize) -> bool {
        self.stamps[slot] == self.epoch
    }

    /// Store the current target network's Q-values of `slot`'s next state.
    fn store(&mut self, slot: usize, q: &[f64]) {
        self.q[slot * self.n_actions..(slot + 1) * self.n_actions].copy_from_slice(q);
        self.stamps[slot] = self.epoch;
    }

    /// The stored Q-values of `slot`'s next state.
    fn row(&self, slot: usize) -> &[f64] {
        &self.q[slot * self.n_actions..(slot + 1) * self.n_actions]
    }
}

/// The buffers [`DqnAgent::train_step`] reuses across updates: the sampled batch, the
/// next-state forward scratch, the rows the target network values and their Q-values,
/// the online next-state Q-values, the TD targets, predictions, errors and gradients,
/// and `dL/dQ`.
#[derive(Debug, Clone)]
struct UpdateBuffers {
    batch: SampledBatch,
    forward: BatchScratch,
    target_rows: Vec<usize>,
    target_states: Matrix,
    q_target: Matrix,
    q_online_next: Matrix,
    targets: Vec<f64>,
    predictions: Vec<f64>,
    td_errors: Vec<f64>,
    grads: Vec<f64>,
    grad_q: Matrix,
}

impl UpdateBuffers {
    fn new() -> Self {
        Self {
            batch: SampledBatch::new(),
            forward: BatchScratch::new(),
            target_rows: Vec::new(),
            target_states: Matrix::zeros(1, 1),
            q_target: Matrix::zeros(1, 1),
            q_online_next: Matrix::zeros(1, 1),
            targets: Vec::new(),
            predictions: Vec::new(),
            td_errors: Vec::new(),
            grads: Vec::new(),
            grad_q: Matrix::zeros(1, 1),
        }
    }
}

impl DqnAgent {
    /// Create an agent from a configuration.
    ///
    /// # Panics
    /// Panics if the configuration is internally inconsistent (see [`AgentConfig`]).
    pub fn new(config: AgentConfig) -> Self {
        config.validate();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let online = q_network(&config, &mut rng);
        let mut target = q_network(&config, &mut rng);
        target.sync_from(&online);
        let replay = PrioritizedReplay::new(config.replay_capacity, config.per_alpha);
        let optimizer = Adam::new(config.learning_rate);
        Self {
            online,
            target,
            optimizer,
            replay,
            rng,
            env_steps: 0,
            updates: 0,
            last_loss: None,
            compacted: false,
            target_q: TargetCache::new(config.n_actions),
            update: UpdateBuffers::new(),
            config,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &AgentConfig {
        &self.config
    }

    /// Shrink a trained agent to its inference footprint by dropping the accumulated
    /// replay memory (a fresh minimal buffer keeps the agent valid), its cached target
    /// Q-values and the training buffers of the update and of the online network,
    /// which it freezes for inference
    /// (`DuelingQNetwork::drop_training_buffers`). Greedy inference
    /// ([`DqnAgent::with_q_values`]) keeps its bits; only further training would
    /// differ. The parallel hyperparameter search compacts every
    /// candidate policy so a round of trained agents does not pin one filled replay
    /// buffer per candidate.
    pub fn compact_for_inference(&mut self) {
        self.replay = PrioritizedReplay::new(1, self.config.per_alpha);
        self.target_q = TargetCache::new(self.config.n_actions);
        self.update = UpdateBuffers::new();
        self.online.drop_training_buffers();
        self.compacted = true;
    }

    /// Number of environment steps observed so far.
    #[cfg(test)]
    fn env_steps(&self) -> u64 {
        self.env_steps
    }

    /// Number of transitions currently held in the replay memory.
    #[cfg(test)]
    fn replay_len(&self) -> usize {
        self.replay.len()
    }

    /// Number of gradient updates performed so far.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// The loss of the most recent training step, if any.
    pub fn last_loss(&self) -> Option<f64> {
        self.last_loss
    }

    /// Current exploration rate.
    pub fn epsilon(&self) -> f64 {
        self.config.epsilon.value(self.env_steps)
    }

    /// The one Q-value query of the online network: stages `rows` states (`fill(i, row)`
    /// writes state `i` into its zeroed row), runs them through
    /// [`DuelingQNetwork::forward_batch_into`] in the thread's query buffers and hands
    /// the `rows × n_actions` Q-values to `read`. No allocation after the thread's
    /// buffers have seen the batch shape. Each row is **bit-identical** to querying that
    /// state alone, so decisions do not depend on how states are grouped into batches.
    ///
    /// # Panics
    /// Panics if `rows` is zero, or if `fill` or `read` queries again on the same thread.
    pub fn with_q_values<R>(
        &self,
        rows: usize,
        mut fill: impl FnMut(usize, &mut [f64]),
        read: impl FnOnce(&Matrix) -> R,
    ) -> R {
        QUERY.with(|buffers| {
            let QueryBuffers { input, forward, q } = &mut *buffers.borrow_mut();
            input.reset_to(rows, self.config.state_dim);
            for i in 0..rows {
                fill(i, input.row_mut(i));
            }
            self.online.forward_batch_into(input, forward, q);
            read(q)
        })
    }

    /// Q-values predicted by the online network for one state.
    pub fn q_values(&self, state: &[f64]) -> Vec<f64> {
        self.with_q_values(
            1,
            |_, row| row.copy_from_slice(state),
            |q| q.row(0).to_vec(),
        )
    }

    /// ε-greedy action for training: a uniform action with probability ε, otherwise the
    /// [`greedy_action`] of the online Q-values.
    pub fn act(&mut self, state: &[f64]) -> usize {
        let eps = self.epsilon();
        if self.rng.gen::<f64>() < eps {
            self.rng.gen_range(0..self.config.n_actions)
        } else {
            self.with_q_values(
                1,
                |_, row| row.copy_from_slice(state),
                |q| greedy_action(q.row(0)),
            )
        }
    }

    /// Store one transition and, when due, run a training step.
    pub fn observe(&mut self, transition: Transition) {
        debug_assert!(
            !self.compacted,
            "agent was compacted for inference; training would sample a 1-slot replay"
        );
        debug_assert_eq!(transition.state_dim(), self.config.state_dim);
        let slot = self.replay.push(transition);
        self.target_q.invalidate(slot);
        self.env_steps += 1;
        if self.replay.len() >= self.config.min_replay.max(self.config.batch_size)
            && self
                .env_steps
                .is_multiple_of(self.config.train_every as u64)
        {
            self.train_step();
        }
    }

    /// Synchronise the target network with the online one, which voids every cached
    /// target Q-value.
    fn sync_target(&mut self) {
        self.target.sync_from(&self.online);
        self.target_q.next_epoch();
        crate::metrics::metrics().target_syncs.inc();
    }

    /// Run one gradient update on a replayed mini-batch. Returns the batch loss, or
    /// `None` if the replay memory does not yet hold enough transitions. Every buffer of
    /// the update is the agent's own and reused, so an update allocates nothing once
    /// the batch shapes have been seen.
    pub fn train_step(&mut self) -> Option<f64> {
        debug_assert!(
            !self.compacted,
            "agent was compacted for inference; training would sample a 1-slot replay"
        );
        let batch_size = self.config.batch_size;
        if self.replay.len() < batch_size {
            return None;
        }
        let m = crate::metrics::metrics();
        let UpdateBuffers {
            batch,
            forward,
            target_rows,
            target_states,
            q_target,
            q_online_next,
            targets,
            predictions,
            td_errors,
            grads,
            grad_q,
        } = &mut self.update;

        // Sample a prioritized batch with its importance-sampling weights.
        let beta = self.config.beta.value(self.updates);
        {
            let _span = m.phase(UpdatePhase::Sample).span();
            self.replay.sample(batch_size, beta, &mut self.rng, batch);
        }
        if batch.is_empty() {
            return None;
        }
        let n = batch.len();

        // Next-state values for the non-terminal transitions (zero for the terminal
        // ones). Double Q-learning: the online network picks a* on each distinct next
        // state, and the target network's cached row of the slot values it. Only the
        // slots without a row from the current target network are forwarded.
        targets.clear();
        targets.resize(n, 0.0);
        target_rows.clear();
        if !batch.next_slots.is_empty() {
            {
                let _span = m.phase(UpdatePhase::TargetNext).span();
                let cache = &mut self.target_q;
                target_rows.extend(
                    (0..batch.next_slots.len()).filter(|&r| !cache.is_fresh(batch.next_slots[r])),
                );
                if !target_rows.is_empty() {
                    target_states.reset_to(target_rows.len(), self.config.state_dim);
                    for (k, &r) in target_rows.iter().enumerate() {
                        target_states
                            .row_mut(k)
                            .copy_from_slice(batch.next_states.row(r));
                    }
                    self.target
                        .forward_batch_into(target_states, forward, q_target);
                    for (k, &r) in target_rows.iter().enumerate() {
                        cache.store(batch.next_slots[r], q_target.row(k));
                    }
                }
            }
            {
                let _span = m.phase(UpdatePhase::OnlineNext).span();
                self.online
                    .forward_batch_into(&batch.next_states, forward, q_online_next);
            }
            for (&i, &row) in batch.non_terminal.iter().zip(&batch.next_state_rows) {
                let a_star = q_online_next.row_argmax(row);
                targets[i] = self.target_q.row(batch.next_slots[row])[a_star];
            }
        }

        // Forward the online network, compute the action-gated gradient and step.
        let q_online = {
            let _span = m.phase(UpdatePhase::ForwardTrain).span();
            self.online.forward_train(&batch.states)
        };
        let loss_value = {
            let _span = m.phase(UpdatePhase::Assemble).span();
            let gamma = self.config.gamma;
            for (target, &reward) in targets.iter_mut().zip(&batch.rewards) {
                *target = reward + gamma * *target;
            }
            predictions.clear();
            predictions.extend(
                batch
                    .actions
                    .iter()
                    .enumerate()
                    .map(|(i, &a)| q_online.get(i, a)),
            );
            td_errors.clear();
            td_errors.extend(predictions.iter().zip(targets.iter()).map(|(&p, &y)| p - y));
            let weights = Some(&batch.weights[..]);
            Huber.batch_gradient_into(predictions, targets, weights, grads);
            grad_q.reset_to(n, self.config.n_actions);
            for (i, (&a, &g)) in batch.actions.iter().zip(grads.iter()).enumerate() {
                grad_q.set(i, a, g);
            }
            Huber.batch_value(predictions, targets, weights)
        };
        {
            let _span = m.phase(UpdatePhase::Backward).span();
            self.online.backward(grad_q);
        }
        {
            let _span = m.phase(UpdatePhase::Adam).span();
            self.online.apply_gradients(&mut self.optimizer);
        }

        // Refresh priorities and the target network.
        {
            let _span = m.phase(UpdatePhase::Priorities).span();
            self.replay.update_priorities(&batch.indices, td_errors);
        }
        if uerl_obs::enabled() {
            m.updates.inc();
            m.next_state_rows.add(batch.next_slots.len() as u64);
            m.target_rows.add(target_rows.len() as u64);
            m.replay_len.set(self.replay.len() as f64);
            for &e in td_errors.iter() {
                m.td_error_micros.record_micros(e);
            }
        }
        self.updates += 1;
        if self
            .updates
            .is_multiple_of(self.config.target_sync_every as u64)
        {
            self.sync_target();
        }
        self.last_loss = Some(loss_value);
        Some(loss_value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-context bandit: state [1,0] rewards action 0, state [0,1] rewards action 1.
    fn train_bandit(mut config: AgentConfig, steps: usize) -> DqnAgent {
        config.state_dim = 2;
        let mut agent = DqnAgent::new(config);
        let states = [vec![1.0, 0.0], vec![0.0, 1.0]];
        for step in 0..steps {
            let s = states[step % 2].clone();
            let a = agent.act(&s);
            let correct = if s[0] > 0.5 { 0 } else { 1 };
            let reward = if a == correct { 1.0 } else { -1.0 };
            agent.observe(Transition::terminal(s, a, reward));
        }
        agent
    }

    #[test]
    fn dddqn_with_per_solves_contextual_bandit() {
        let agent = train_bandit(AgentConfig::small(2).with_seed(1), 2_000);
        assert_eq!(greedy_action(&agent.q_values(&[1.0, 0.0])), 0);
        assert_eq!(greedy_action(&agent.q_values(&[0.0, 1.0])), 1);
        assert!(agent.updates() > 0);
        assert!(agent.last_loss().is_some());
    }

    #[test]
    fn compaction_drops_the_replay_but_preserves_inference() {
        let mut agent = train_bandit(AgentConfig::small(2).with_seed(6), 1_000);
        assert!(agent.replay_len() > 0);
        let q0 = agent.q_values(&[1.0, 0.0]);
        let q1 = agent.q_values(&[0.0, 1.0]);
        agent.compact_for_inference();
        assert_eq!(agent.replay_len(), 0);
        for (a, b) in q0.iter().zip(&agent.q_values(&[1.0, 0.0])) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in q1.iter().zip(&agent.q_values(&[0.0, 1.0])) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// The Q-values of `net` for one state through fresh forward buffers.
    fn fresh_q_values(net: &DuelingQNetwork, state: &[f64]) -> Vec<f64> {
        let mut q = Matrix::zeros(1, 1);
        net.forward_batch_into(
            &Matrix::row_from_slice(state),
            &mut BatchScratch::new(),
            &mut q,
        );
        q.data().to_vec()
    }

    #[test]
    fn batched_q_values_are_bit_identical_to_single_state_inference() {
        // Each row of a batched query must match a single-state query of that row to the
        // bit, and the thread's reused query buffers must agree with fresh ones.
        let agent = train_bandit(AgentConfig::small(2).with_seed(21), 500);
        let states = [
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![0.3, -0.7],
            vec![-0.2, 0.9],
            vec![0.0, 0.0],
        ];
        let rows: Vec<Vec<f64>> = agent.with_q_values(
            states.len(),
            |i, row| row.copy_from_slice(&states[i]),
            |q| (0..states.len()).map(|i| q.row(i).to_vec()).collect(),
        );
        for (s, row) in states.iter().zip(&rows) {
            for ((a, b), c) in row
                .iter()
                .zip(agent.q_values(s))
                .zip(fresh_q_values(&agent.online, s))
            {
                assert_eq!(a.to_bits(), b.to_bits());
                assert_eq!(a.to_bits(), c.to_bits());
            }
        }
    }

    #[test]
    fn greedy_action_ties_keep_the_last_maximal_action() {
        // Greedy acting has always resolved exact ties through `max_by`, which returns
        // the last maximal element; the shared helper must preserve that so the batched
        // serving path and the offline evaluator decide identically on ties.
        assert_eq!(greedy_action(&[1.0, 1.0]), 1);
        assert_eq!(greedy_action(&[2.0, 1.0]), 0);
        assert_eq!(greedy_action(&[1.0, 2.0]), 1);
        assert_eq!(greedy_action(&[3.0, 3.0, 1.0]), 1);
    }

    #[test]
    fn bootstrapping_propagates_future_reward() {
        // Two-step chain: s0 --a0--> s1 (r=0), s1 --a0--> terminal (r=1). Action 1 ends
        // the episode immediately with r=0. Q(s0, a0) should approach gamma * 1.
        let mut config = AgentConfig::small(2).with_seed(3);
        config.gamma = 0.9;
        config.epsilon = EpsilonSchedule::new(1.0, 0.2, 1_000);
        let mut agent = DqnAgent::new(config);
        let s0 = vec![1.0, 0.0];
        let s1 = vec![0.0, 1.0];
        for _ in 0..1_500 {
            // From s0.
            let a = agent.act(&s0);
            if a == 0 {
                agent.observe(Transition::new(s0.clone(), 0, 0.0, s1.clone()));
                let a1 = agent.act(&s1);
                let r = if a1 == 0 { 1.0 } else { 0.0 };
                agent.observe(Transition::terminal(s1.clone(), a1, r));
            } else {
                agent.observe(Transition::terminal(s0.clone(), 1, 0.0));
            }
        }
        let q0 = agent.q_values(&s0);
        let q1 = agent.q_values(&s1);
        assert!((q1[0] - 1.0).abs() < 0.2, "Q(s1, continue) = {}", q1[0]);
        assert!(
            (q0[0] - 0.9).abs() < 0.25,
            "Q(s0, continue) = {} should be near gamma",
            q0[0]
        );
        assert!(q0[0] > q0[1], "continuing must beat quitting in s0");
    }

    #[test]
    fn target_network_tracks_online_after_sync() {
        let mut agent = DqnAgent::new(AgentConfig::small(2).with_seed(4));
        let s = [0.5, -0.5];
        // Push enough data and train a few steps so the online network moves.
        for i in 0..200 {
            agent.observe(Transition::terminal(vec![0.5, -0.5], i % 2, 1.0));
        }
        let before_online = agent.q_values(&s);
        let before_target = fresh_q_values(&agent.target, &s);
        assert_ne!(before_online, before_target, "online should have drifted");
        agent.sync_target();
        let after_target = fresh_q_values(&agent.target, &s);
        assert_eq!(agent.q_values(&s), after_target);
    }

    #[test]
    fn exploration_rate_decays_with_steps() {
        let mut agent = DqnAgent::new(AgentConfig::small(2).with_seed(5));
        let eps0 = agent.epsilon();
        for _ in 0..500 {
            agent.observe(Transition::terminal(vec![0.0, 0.0], 0, 0.0));
        }
        assert!(agent.epsilon() < eps0);
        assert!(agent.env_steps() == 500);
    }

    #[test]
    fn train_step_requires_enough_replay() {
        let mut agent = DqnAgent::new(AgentConfig::small(2).with_seed(6));
        assert_eq!(agent.train_step(), None);
    }

    /// Continue the bandit workload on an existing agent for `steps` more steps,
    /// starting the episode pattern at `offset` so resumed runs see the same stream.
    fn continue_bandit(agent: &mut DqnAgent, offset: usize, steps: usize) {
        let states = [vec![1.0, 0.0], vec![0.0, 1.0]];
        for step in offset..offset + steps {
            let s = states[step % 2].clone();
            let a = agent.act(&s);
            let correct = if s[0] > 0.5 { 0 } else { 1 };
            let reward = if a == correct { 1.0 } else { -1.0 };
            agent.observe(Transition::terminal(s, a, reward));
        }
    }

    #[test]
    fn resumed_training_is_bit_equal_to_straight_through() {
        // Train 500 steps, clone, continue both to 1500 — and compare against an agent
        // that trained the same 1500 steps without pausing. Counters, Q-values and the
        // next exploration decisions must agree to the bit: the clone carries the
        // networks, optimizer moments, replay contents/priorities and the RNG.
        let straight = train_bandit(AgentConfig::small(2).with_seed(11), 1_500);
        let mut paused = train_bandit(AgentConfig::small(2).with_seed(11), 500);
        let mut resumed = paused.clone();
        assert_eq!(resumed.env_steps(), 500);
        continue_bandit(&mut paused, 500, 1_000);
        continue_bandit(&mut resumed, 500, 1_000);
        for agent in [&paused, &resumed] {
            assert_eq!(agent.env_steps(), straight.env_steps());
            assert_eq!(agent.updates(), straight.updates());
            assert_eq!(agent.replay_len(), straight.replay_len());
            for probe in [[1.0, 0.0], [0.0, 1.0], [0.3, -0.7]] {
                for (a, b) in agent.q_values(&probe).iter().zip(straight.q_values(&probe)) {
                    assert_eq!(a.to_bits(), b.to_bits(), "Q-values diverged after resume");
                }
            }
        }
    }

    #[test]
    fn same_seed_gives_identical_behaviour() {
        let a = train_bandit(AgentConfig::small(2).with_seed(7), 300);
        let b = train_bandit(AgentConfig::small(2).with_seed(7), 300);
        assert_eq!(a.q_values(&[1.0, 0.0]), b.q_values(&[1.0, 0.0]));
    }

    /// Updates on batches with all, some, none and again all terminal transitions, so
    /// every reused update buffer (the s′ batch above all) shrinks and grows between
    /// updates. Widths 40 and 24 and a 13-row batch straddle the 4-row, 16-lane and
    /// 8-lane tiles; the Q-value and loss bits were captured before the update reused
    /// any buffer.
    #[test]
    fn updates_on_changing_terminal_mixes_keep_their_bits() {
        let config = AgentConfig {
            state_dim: 5,
            hidden: vec![40, 24],
            batch_size: 13,
            replay_capacity: 13,
            min_replay: usize::MAX,
            ..AgentConfig::small(5).with_seed(41)
        };
        let mut agent = DqnAgent::new(config);
        let state = |i: usize| -> Vec<f64> {
            (0..5)
                .map(|j| ((i * 7 + j * 3) as f64 * 0.61).sin())
                .collect()
        };
        let mut pushed = 0usize;
        let mut bits = Vec::new();
        // (transitions pushed before the update, terminal every `period`-th; 1 = all)
        for (count, period) in [(13, 1), (6, 0), (13, 0), (13, 1), (3, 0), (13, 2)] {
            for _ in 0..count {
                let (s, next) = (state(pushed), state(pushed + 1));
                let reward = (pushed % 3) as f64 - 1.0;
                let action = pushed % 2;
                agent.observe(if period != 0 && pushed.is_multiple_of(period) {
                    Transition::terminal(s, action, reward)
                } else {
                    Transition::new(s, action, reward, next)
                });
                pushed += 1;
            }
            let loss = agent.train_step().expect("replay holds a batch");
            bits.push(loss.to_bits());
            for probe in [state(1000), state(1001)] {
                bits.extend(agent.q_values(&probe).iter().map(|q| q.to_bits()));
            }
        }
        let expected: [u64; 30] = UPDATE_MIX_BITS;
        for (i, (got, want)) in bits.iter().zip(&expected).enumerate() {
            assert_eq!(got, want, "value {i}: {got:#018x} != {want:#018x}");
        }
        assert_eq!(bits.len(), expected.len());
    }

    /// Per update: the loss, then the two probes' Q-values.
    const UPDATE_MIX_BITS: [u64; 30] = [
        0x3fe6084cec133c65,
        0x3fd8e38e9bb60b7c,
        0x3ff9da4abec2722a,
        0x3fdcfece2a6cbf4d,
        0x3ff495cf60e275e7,
        0x3fcec8278d79b441,
        0x3fd9641564ca5de6,
        0x3ff96d2deff4baac,
        0x3fdb7a9f896979e4,
        0x3ff40150da949be2,
        0x3fcbc9a0ea547eff,
        0x3fdb183beb76e3c2,
        0x3ff9622afbd62e66,
        0x3fdaa3720383dedb,
        0x3ff3732d40a9b2ae,
        0x3fe3aacbaffd25f1,
        0x3fdc7897705ec584,
        0x3ff92d7f2b94d2b1,
        0x3fd8dab3e3542f27,
        0x3ff2dbaf3e9ba1f2,
        0x3fde6c490b6a8a3f,
        0x3fdd0dcb7a53e388,
        0x3ff8e76764f20ed4,
        0x3fd781090a26b29d,
        0x3ff24bcf27d60abf,
        0x3fd131d737e92931,
        0x3fdc43948826217a,
        0x3ff8a13e58d60d80,
        0x3fd6435279c3e0fb,
        0x3ff1e16f557961aa,
    ];

    /// Updates across target syncs (every 2 updates), ring-buffer wrap (24 slots, 90
    /// pushes) and duplicate draws (one large reward lifts the max priority every new
    /// push inherits), so next-state rows recur within a batch and across updates while
    /// their slots are overwritten and the target network moves. Every loss is folded
    /// into a digest, and every 15 pushes the loss and two probes' Q-values are pinned;
    /// the bits were captured before the next-state rows were deduplicated and cached.
    #[test]
    fn updates_across_syncs_wraps_and_duplicate_draws_keep_their_bits() {
        let config = AgentConfig {
            state_dim: 4,
            hidden: vec![24, 16],
            batch_size: 16,
            replay_capacity: 24,
            min_replay: 16,
            target_sync_every: 2,
            ..AgentConfig::small(4).with_seed(53)
        };
        let mut agent = DqnAgent::new(config);
        let state = |i: usize| -> Vec<f64> {
            (0..4)
                .map(|j| ((i * 5 + j * 11) as f64 * 0.37).cos())
                .collect()
        };
        let (mut digest, mut bits) = (0xcbf2_9ce4_8422_2325u64, Vec::new());
        let mut repeated_next_states = 0;
        for i in 0..90 {
            let (s, action) = (state(i), i % 2);
            let reward = if i == 20 { 40.0 } else { -0.1 * (i % 3) as f64 };
            let updates = agent.updates();
            agent.observe(if i % 5 == 4 {
                Transition::terminal(s, action, reward)
            } else {
                Transition::new(s, action, reward, state(i + 1))
            });
            if agent.updates() > updates {
                let loss = agent.last_loss().expect("an update ran");
                digest = (digest ^ loss.to_bits()).wrapping_mul(0x0100_0000_01b3);
                let batch = &agent.update.batch;
                let slots: Vec<usize> = batch
                    .non_terminal
                    .iter()
                    .map(|&k| batch.indices[k])
                    .collect();
                repeated_next_states += (1..slots.len())
                    .filter(|&k| slots[..k].contains(&slots[k]))
                    .count();
            }
            if i % 15 == 14 && i > 15 {
                bits.push(agent.last_loss().expect("an update ran").to_bits());
                for probe in [state(1000), state(1001)] {
                    bits.extend(agent.q_values(&probe).iter().map(|q| q.to_bits()));
                }
            }
        }
        assert_eq!(agent.updates(), 75);
        assert!(
            repeated_next_states > 75,
            "{repeated_next_states} repeated rows"
        );
        bits.push(digest);
        let expected: [u64; 26] = SYNC_WRAP_DUPLICATE_BITS;
        for (i, (got, want)) in bits.iter().zip(&expected).enumerate() {
            assert_eq!(got, want, "value {i}: {got:#018x} != {want:#018x}");
        }
        assert_eq!(bits.len(), expected.len());
    }

    /// Every 15 pushes: the loss, then the two probes' Q-values; last, the digest of
    /// every update's loss.
    const SYNC_WRAP_DUPLICATE_BITS: [u64; 26] = [
        0x4007fb07c44c1c0a,
        0xbfe9bf1c3511a8f8,
        0x3fa44367b8e2ea20,
        0xbfe152befea8d2fa,
        0xbfc6ebd16d880ec6,
        0x3fbad704fe54a9fe,
        0xbfe08bba9b472154,
        0x3f88c53bd8c55fc0,
        0xbfc9d52820022e9a,
        0x3fc42c8f2218b5d6,
        0x3fa130e6426d7e16,
        0xbfc5fd1b0fd21b3e,
        0x3fc49720502c0790,
        0x3fb3cd0b3800ea7a,
        0x3fddd835771f1074,
        0x3f91c6cee1bd8617,
        0x3fb7731f05f854e8,
        0x3fd998144a10bcc4,
        0x3fc312ac3a361913,
        0x3fe4c3cc616ca604,
        0x3f80cfe6d434e509,
        0x3fd22e4159ae67c6,
        0x3fdf15d0d5d1513e,
        0x3fb9008bcb7c7d2e,
        0x3fe4563631b14747,
        0x6c80373771eb7523,
    ];

    #[test]
    fn paper_config_builds_the_full_architecture() {
        let agent = DqnAgent::new(AgentConfig::paper(14));
        assert_eq!(agent.config().hidden, vec![256, 256, 128, 64]);
        assert_eq!(agent.q_values(&[0.0; 14]).len(), 2);
    }

    #[test]
    #[should_panic(expected = "at least two actions")]
    fn bad_config_rejected() {
        let config = AgentConfig {
            n_actions: 1,
            ..AgentConfig::small(2)
        };
        DqnAgent::new(config);
    }
}

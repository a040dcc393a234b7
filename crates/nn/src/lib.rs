//! # uerl-nn
//!
//! Dense neural-network substrate.
//!
//! The paper's agent approximates its Q-function with a small fully-connected network:
//! the state features feed four hidden layers of 256, 256, 128 and 64 units, and the
//! output is split into a *value* head and an *advantage* head (the dueling architecture
//! of Wang et al.) over the two actions (mitigate / do nothing). There is no mature,
//! offline-usable deep-learning crate in the allowed dependency set, so this crate
//! implements the needed pieces from scratch:
//!
//! * [`matrix`] — a minimal row-major `f64` matrix with cache-blocked, batch-size-
//!   invariant matmul kernels (the operations a dense MLP needs), dispatched at run
//!   time to the CPU's best SIMD level with the same bits at every level
//!   ([`kernel_isa`] reports the level);
//! * [`init`] — He / Xavier weight initialisation;
//! * [`activation`] — ReLU / leaky ReLU / tanh / sigmoid / identity activations;
//! * [`layer`] — a dense (fully-connected) layer with forward and backward passes;
//! * [`loss`] — mean-squared-error and Huber losses with per-sample weights (needed for
//!   the importance-sampling weights of prioritized experience replay);
//! * [`optim`] — the Adam optimizer;
//! * [`network`] — the trunk configuration and the reusable batched-inference scratch;
//! * [`dueling`] — the dueling Q-network: a dense trunk under a value and an advantage
//!   head, recombined as `Q(s, a) = V(s) + A(s, a) − mean(A)`. Its one inference pass
//!   is [`DuelingQNetwork::forward_batch_into`]: serving, evaluation, acting and the
//!   training update's next-state forwards all run through it.
//!
//! Everything is deterministic under a seeded RNG and is exercised by gradient-check
//! tests, which is what makes the RL results reproducible.

pub mod activation;
pub mod dueling;
pub mod init;
pub mod layer;
pub mod loss;
pub mod matrix;
pub mod network;
pub mod optim;

pub use activation::Activation;
pub use dueling::DuelingQNetwork;
pub use init::WeightInit;
pub use layer::DenseLayer;
pub use loss::Loss;
pub use matrix::{kernel_isa, Matrix};
pub use network::{BatchScratch, MlpConfig};
pub use optim::Adam;

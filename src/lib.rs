//! # uerl
//!
//! Facade crate for the UERL workspace: a Rust reproduction of
//! *"Reinforcement Learning-based Adaptive Mitigation of Uncorrected DRAM Errors in the
//! Field"* (Boixaderas et al., HPDC 2024).
//!
//! The workspace is organised as one crate per subsystem; this crate simply re-exports
//! them under stable module names so applications can depend on a single crate:
//!
//! * [`trace`] — MareNostrum-style error-log substrate (fleet, fault processes, synthetic
//!   log generation, mcelog-style I/O, burst reduction).
//! * [`jobs`] — Slurm-style job-log substrate (workload generation, sacct I/O, node job
//!   sequence sampling).
//! * [`nn`] — dense neural-network substrate (matrix kernels, the dueling Q-network,
//!   Adam).
//! * [`rl`] — deep reinforcement-learning substrate (prioritized experience replay and
//!   the paper's dueling double deep Q-network agent).
//! * [`forest`] — random-forest baseline substrate (CART trees, bagging, under-sampling).
//! * [`core`] — the paper's contribution: the MDP formulation of adaptive UE mitigation,
//!   the environment over historical logs, the mitigation policies and the RL trainer.
//! * [`eval`] — evaluation harness: time-series nested cross-validation, cost–benefit
//!   analysis, classical ML metrics and drivers for every figure and table of the paper.
//! * [`serve`] — online fleet-serving subsystem: a long-running mitigation service with
//!   one session map, serial absorb and micro-batched DQN inference, bit-identical
//!   to the offline evaluator on the same timelines.
//! * [`obs`] — observability substrate: the metrics registry, span timers and the
//!   unified `UERL_*` knob parser, runtime-gated by `UERL_METRICS` and provably inert
//!   with respect to decisions and costs.

pub use uerl_core as core;
pub use uerl_eval as eval;
pub use uerl_forest as forest;
pub use uerl_jobs as jobs;
pub use uerl_nn as nn;
pub use uerl_obs as obs;
pub use uerl_rl as rl;
pub use uerl_serve as serve;
pub use uerl_stats as stats;
pub use uerl_trace as trace;

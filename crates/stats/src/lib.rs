//! # uerl-stats
//!
//! Shared statistics substrate for the UERL workspace.
//!
//! The reproduction only depends on the `rand` crate for randomness, which provides uniform
//! variates but none of the distributions needed by the fault-process and workload models
//! (exponential inter-arrival times, log-normal job durations, Pareto-tailed job sizes,
//! Poisson error counts, Gaussian weight initialisation). This crate implements those
//! variate generators from first principles, together with the summary statistics and
//! empirical distributions used by the log-analysis and workload crates.
//!
//! The generators are deliberately simple, deterministic under a seeded RNG, and unit /
//! property tested against their analytic moments, because every downstream experiment
//! (all paper figures) relies on them being correct.

pub mod distributions;
pub mod ecdf;
pub mod summary;

pub use distributions::{
    Bernoulli, Categorical, Distribution, Exponential, LogNormal, Normal, Pareto, Poisson, Uniform,
};
pub use ecdf::Ecdf;
pub use summary::Summary;

//! Random variate distributions built on top of a uniform [`rand::Rng`].
//!
//! Each distribution implements the [`Distribution`] trait and produces `f64` (or integer)
//! variates by transforming uniform randomness: inverse-CDF sampling where a closed form
//! exists (exponential, Pareto), Box–Muller for the normal, and Knuth's product
//! method (with a normal approximation for large means) for the Poisson.

use rand::Rng;

/// A sampleable univariate distribution.
pub trait Distribution {
    /// The type of a single variate.
    type Value;

    /// Draw one variate using the supplied random number generator.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Self::Value;

    /// Draw `n` variates into a vector.
    fn sample_n<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<Self::Value> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

/// Continuous uniform distribution on `[low, high)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    low: f64,
    high: f64,
}

impl Uniform {
    /// Create a uniform distribution on `[low, high)`.
    ///
    /// # Panics
    /// Panics if `low >= high` or either bound is not finite.
    pub fn new(low: f64, high: f64) -> Self {
        assert!(low.is_finite() && high.is_finite(), "bounds must be finite");
        assert!(low < high, "low must be < high (got {low} >= {high})");
        Self { low, high }
    }

    /// Lower bound.
    pub fn low(&self) -> f64 {
        self.low
    }

    /// Upper bound (exclusive).
    pub fn high(&self) -> f64 {
        self.high
    }
}

impl Distribution for Uniform {
    type Value = f64;

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.low + (self.high - self.low) * rng.gen::<f64>()
    }
}

/// Exponential distribution with rate `lambda` (mean `1/lambda`).
///
/// Used for Poisson-process inter-arrival times of corrected-error faults, uncorrected
/// error precursors and node reboots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    lambda: f64,
}

impl Exponential {
    /// Create an exponential distribution with the given rate (events per unit time).
    ///
    /// # Panics
    /// Panics if `lambda` is not strictly positive and finite.
    pub fn new(lambda: f64) -> Self {
        assert!(
            lambda.is_finite() && lambda > 0.0,
            "lambda must be positive and finite (got {lambda})"
        );
        Self { lambda }
    }

    /// Create from the mean (`1 / lambda`).
    pub fn from_mean(mean: f64) -> Self {
        assert!(mean.is_finite() && mean > 0.0, "mean must be positive");
        Self::new(1.0 / mean)
    }

    /// The rate parameter.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// The distribution mean.
    pub fn mean(&self) -> f64 {
        1.0 / self.lambda
    }
}

impl Distribution for Exponential {
    type Value = f64;

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Inverse CDF: -ln(1 - U) / lambda. Guard against ln(0).
        let u: f64 = rng.gen::<f64>();
        let u = if u >= 1.0 { f64::EPSILON } else { 1.0 - u };
        -u.ln() / self.lambda
    }
}

/// Normal (Gaussian) distribution, sampled with the Box–Muller transform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    std_dev: f64,
}

impl Normal {
    /// Create a normal distribution with the given mean and standard deviation.
    ///
    /// # Panics
    /// Panics if `std_dev` is negative or either parameter is not finite.
    pub fn new(mean: f64, std_dev: f64) -> Self {
        assert!(mean.is_finite(), "mean must be finite");
        assert!(
            std_dev.is_finite() && std_dev >= 0.0,
            "std_dev must be non-negative and finite (got {std_dev})"
        );
        Self { mean, std_dev }
    }

    /// Standard normal N(0, 1).
    pub fn standard() -> Self {
        Self::new(0.0, 1.0)
    }

    /// Distribution mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Distribution standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.std_dev
    }
}

impl Distribution for Normal {
    type Value = f64;

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Box–Muller. We draw a fresh pair every call; discarding the second variate keeps
        // the generator stateless, which matters because the same distribution value is
        // shared across threads in the evaluation harness.
        let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        let u2: f64 = rng.gen::<f64>();
        let radius = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.mean + self.std_dev * radius * theta.cos()
    }
}

/// Log-normal distribution parameterised by the mean and standard deviation of the
/// underlying normal (`ln X ~ N(mu, sigma)`).
///
/// Used for job wallclock durations, which on production HPC systems span several orders
/// of magnitude.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    normal: Normal,
}

impl LogNormal {
    /// Create a log-normal with log-space mean `mu` and log-space std `sigma`.
    pub fn new(mu: f64, sigma: f64) -> Self {
        Self {
            normal: Normal::new(mu, sigma),
        }
    }

    /// Construct a log-normal whose *linear-space* median and p95 match the given values.
    ///
    /// The median of a log-normal is `exp(mu)` and the 95th percentile is
    /// `exp(mu + 1.645 sigma)`, so both parameters are recovered in closed form. This is a
    /// convenient way to express workload models ("median job runs 2 h, 5% run > 40 h").
    ///
    /// # Panics
    /// Panics unless `0 < median < p95`.
    pub fn from_median_p95(median: f64, p95: f64) -> Self {
        assert!(median > 0.0 && p95 > median, "need 0 < median < p95");
        let mu = median.ln();
        let sigma = (p95.ln() - mu) / 1.6448536269514722;
        Self::new(mu, sigma)
    }

    /// Log-space mean.
    pub fn mu(&self) -> f64 {
        self.normal.mean()
    }

    /// Log-space standard deviation.
    pub fn sigma(&self) -> f64 {
        self.normal.std_dev()
    }

    /// Linear-space mean, `exp(mu + sigma^2 / 2)`.
    pub fn mean(&self) -> f64 {
        (self.mu() + self.sigma() * self.sigma() / 2.0).exp()
    }
}

impl Distribution for LogNormal {
    type Value = f64;

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.normal.sample(rng).exp()
    }
}

/// Pareto (power-law) distribution with scale `x_min` and shape `alpha`.
///
/// Heavy-tailed; used for HPC job node counts, which are known to span orders of
/// magnitude (most jobs are small, a few are huge).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pareto {
    x_min: f64,
    alpha: f64,
}

impl Pareto {
    /// Create a Pareto distribution.
    ///
    /// # Panics
    /// Panics if either parameter is not strictly positive and finite.
    pub fn new(x_min: f64, alpha: f64) -> Self {
        assert!(x_min.is_finite() && x_min > 0.0, "x_min must be positive");
        assert!(alpha.is_finite() && alpha > 0.0, "alpha must be positive");
        Self { x_min, alpha }
    }

    /// Scale parameter (minimum value).
    pub fn x_min(&self) -> f64 {
        self.x_min
    }

    /// Shape parameter.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }
}

impl Distribution for Pareto {
    type Value = f64;

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen::<f64>();
        let u = (1.0 - u).max(f64::MIN_POSITIVE);
        self.x_min / u.powf(1.0 / self.alpha)
    }
}

/// Poisson distribution with mean `lambda`.
///
/// Used for the number of corrected errors recorded by the monitoring daemon in one
/// sampling period (the MCA registers report a count when more than one error occurs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poisson {
    lambda: f64,
}

impl Poisson {
    /// Create a Poisson distribution with the given mean.
    ///
    /// # Panics
    /// Panics if `lambda` is not strictly positive and finite.
    pub fn new(lambda: f64) -> Self {
        assert!(
            lambda.is_finite() && lambda > 0.0,
            "lambda must be positive and finite (got {lambda})"
        );
        Self { lambda }
    }

    /// Distribution mean.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }
}

impl Distribution for Poisson {
    type Value = u64;

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.lambda < 30.0 {
            // Knuth's product method.
            let threshold = (-self.lambda).exp();
            let mut k: u64 = 0;
            let mut p = 1.0;
            loop {
                p *= rng.gen::<f64>();
                if p <= threshold {
                    return k;
                }
                k += 1;
            }
        } else {
            // Normal approximation with continuity correction, adequate for the large
            // per-interval CE counts seen during error storms.
            let normal = Normal::new(self.lambda, self.lambda.sqrt());
            let v = normal.sample(rng).round();
            if v < 0.0 {
                0
            } else {
                v as u64
            }
        }
    }
}

/// Bernoulli distribution: `true` with probability `p`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bernoulli {
    p: f64,
}

impl Bernoulli {
    /// Create a Bernoulli distribution with success probability `p`.
    ///
    /// # Panics
    /// Panics unless `0 <= p <= 1`.
    pub fn new(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must be in [0, 1] (got {p})");
        Self { p }
    }

    /// Success probability.
    pub fn p(&self) -> f64 {
        self.p
    }
}

impl Distribution for Bernoulli {
    type Value = bool;

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        rng.gen::<f64>() < self.p
    }
}

/// Categorical distribution over `0..n` with arbitrary non-negative weights.
///
/// Used for manufacturer assignment and for sampling jobs weighted by their node count
/// (Section 3.3.3 of the paper: "jobs are weighted by the number of nodes on which they
/// execute, in order to maintain the correct job distribution").
#[derive(Debug, Clone, PartialEq)]
pub struct Categorical {
    cumulative: Vec<f64>,
}

impl Categorical {
    /// Create a categorical distribution from a slice of non-negative weights.
    ///
    /// # Panics
    /// Panics if the slice is empty, any weight is negative or non-finite, or the total
    /// weight is zero.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "weights must not be empty");
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut total = 0.0;
        for (i, &w) in weights.iter().enumerate() {
            assert!(
                w.is_finite() && w >= 0.0,
                "weight {i} must be non-negative and finite (got {w})"
            );
            total += w;
            cumulative.push(total);
        }
        assert!(total > 0.0, "total weight must be positive");
        Self { cumulative }
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// Whether there are no categories (never true for a constructed instance).
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }
}

impl Distribution for Categorical {
    type Value = usize;

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let total = *self.cumulative.last().expect("non-empty");
        let target = rng.gen::<f64>() * total;
        // Binary search for the first cumulative weight >= target.
        match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&target).expect("finite weights"))
        {
            Ok(idx) => idx,
            Err(idx) => idx.min(self.cumulative.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::Summary;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x5eed)
    }

    const N: usize = 20_000;

    #[test]
    fn uniform_bounds_and_mean() {
        let d = Uniform::new(2.0, 6.0);
        let mut r = rng();
        let xs = d.sample_n(&mut r, N);
        assert!(xs.iter().all(|&x| (2.0..6.0).contains(&x)));
        let s = Summary::from_slice(&xs);
        assert!((s.mean() - 4.0).abs() < 0.05, "mean {}", s.mean());
    }

    #[test]
    #[should_panic(expected = "low must be < high")]
    fn uniform_rejects_inverted_bounds() {
        Uniform::new(3.0, 1.0);
    }

    #[test]
    fn exponential_mean_matches() {
        let d = Exponential::from_mean(5.0);
        let mut r = rng();
        let xs = d.sample_n(&mut r, N);
        let s = Summary::from_slice(&xs);
        assert!((s.mean() - 5.0).abs() < 0.2, "mean {}", s.mean());
        assert!(xs.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn exponential_rate_accessors() {
        let d = Exponential::new(0.25);
        assert!((d.lambda() - 0.25).abs() < 1e-12);
        assert!((d.mean() - 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "lambda must be positive")]
    fn exponential_rejects_zero_rate() {
        Exponential::new(0.0);
    }

    #[test]
    fn normal_moments_match() {
        let d = Normal::new(-3.0, 2.0);
        let mut r = rng();
        let xs = d.sample_n(&mut r, N);
        let s = Summary::from_slice(&xs);
        assert!((s.mean() + 3.0).abs() < 0.08, "mean {}", s.mean());
        assert!((s.std_dev() - 2.0).abs() < 0.08, "std {}", s.std_dev());
    }

    #[test]
    fn normal_zero_std_is_constant() {
        let d = Normal::new(7.0, 0.0);
        let mut r = rng();
        assert!(d.sample_n(&mut r, 100).iter().all(|&x| x == 7.0));
    }

    #[test]
    fn lognormal_median_and_p95_match_construction() {
        let d = LogNormal::from_median_p95(2.0, 40.0);
        let mut r = rng();
        let mut xs = d.sample_n(&mut r, N);
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[N / 2];
        let p95 = xs[(N as f64 * 0.95) as usize];
        assert!((median - 2.0).abs() / 2.0 < 0.1, "median {median}");
        assert!((p95 - 40.0).abs() / 40.0 < 0.15, "p95 {p95}");
    }

    #[test]
    fn lognormal_positive() {
        let d = LogNormal::new(0.0, 2.0);
        let mut r = rng();
        assert!(d.sample_n(&mut r, N).iter().all(|&x| x > 0.0));
    }

    #[test]
    fn pareto_respects_minimum_and_tail() {
        let d = Pareto::new(1.0, 1.5);
        let mut r = rng();
        let xs = d.sample_n(&mut r, N);
        assert!(xs.iter().all(|&x| x >= 1.0));
        // Heavy tail: some samples should exceed 10x the minimum.
        assert!(xs.iter().any(|&x| x > 10.0));
    }

    #[test]
    fn poisson_small_lambda_mean() {
        let d = Poisson::new(3.0);
        let mut r = rng();
        let xs: Vec<f64> = d.sample_n(&mut r, N).iter().map(|&x| x as f64).collect();
        let s = Summary::from_slice(&xs);
        assert!((s.mean() - 3.0).abs() < 0.1, "mean {}", s.mean());
    }

    #[test]
    fn poisson_large_lambda_uses_normal_approx() {
        let d = Poisson::new(200.0);
        let mut r = rng();
        let xs: Vec<f64> = d.sample_n(&mut r, N).iter().map(|&x| x as f64).collect();
        let s = Summary::from_slice(&xs);
        assert!((s.mean() - 200.0).abs() < 2.0, "mean {}", s.mean());
        assert!((s.std_dev() - 200.0f64.sqrt()).abs() < 1.0);
    }

    #[test]
    fn bernoulli_frequency_matches_p() {
        let d = Bernoulli::new(0.2);
        let mut r = rng();
        let hits = d.sample_n(&mut r, N).iter().filter(|&&b| b).count();
        let freq = hits as f64 / N as f64;
        assert!((freq - 0.2).abs() < 0.02, "freq {freq}");
    }

    #[test]
    fn bernoulli_extremes() {
        let mut r = rng();
        assert!(!Bernoulli::new(0.0).sample(&mut r));
        assert!(Bernoulli::new(1.0).sample(&mut r));
    }

    #[test]
    fn categorical_respects_weights() {
        let d = Categorical::new(&[1.0, 0.0, 3.0]);
        let mut r = rng();
        let mut counts = [0usize; 3];
        for _ in 0..N {
            counts[d.sample(&mut r)] += 1;
        }
        assert_eq!(counts[1], 0, "zero-weight category must never be drawn");
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "total weight must be positive")]
    fn categorical_rejects_all_zero() {
        Categorical::new(&[0.0, 0.0]);
    }

    #[test]
    fn sample_n_length() {
        let d = Uniform::new(0.0, 1.0);
        let mut r = rng();
        assert_eq!(d.sample_n(&mut r, 17).len(), 17);
    }
}

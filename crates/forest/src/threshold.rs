//! Decision-threshold selection for the SC20-RF baseline.
//!
//! SC20-RF triggers a mitigation when the forest's predicted probability exceeds an
//! externally supplied threshold. The paper gives the baseline "maximum advantage" by
//! using the threshold that minimises the total cost, and also evaluates realistic
//! variants whose threshold is 2% or 5% away from optimal (SC20-RF-2% / SC20-RF-5%).
//!
//! [`optimal_threshold`] sweeps every candidate threshold once in ascending order,
//! maintaining the confusion matrix incrementally — `O(n log n)` for the sort plus
//! `O(1)` per candidate — instead of re-scoring all `n` samples per candidate, which
//! made the previous implementation `O(n²)` on the evaluator's cost path.

/// Confusion counts of the classifier "predict positive iff probability ≥ threshold".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Confusion {
    /// Positive samples predicted positive.
    pub true_positives: usize,
    /// Negative samples predicted positive.
    pub false_positives: usize,
    /// Negative samples predicted negative.
    pub true_negatives: usize,
    /// Positive samples predicted negative.
    pub false_negatives: usize,
}

impl Confusion {
    /// Total number of samples.
    pub fn total(&self) -> usize {
        self.true_positives + self.false_positives + self.true_negatives + self.false_negatives
    }

    /// Number of positive predictions (mitigations an SC20-RF policy would trigger).
    pub fn predicted_positives(&self) -> usize {
        self.true_positives + self.false_positives
    }
}

/// Find the threshold minimising a cost that is a function of the confusion matrix.
///
/// The candidates are the distinct predicted probabilities plus 0 and 1, which is
/// sufficient because the induced classification only changes at those points. The sweep
/// visits candidates in ascending order while flipping the samples whose probability
/// falls below the threshold from predicted-positive to predicted-negative, so `cost` is
/// invoked exactly once per candidate with the up-to-date counts. Ties resolve to the
/// lowest threshold. Returns `(threshold, cost)`.
///
/// # Panics
/// Panics if `probabilities` is empty or the lengths differ.
pub fn optimal_threshold(
    probabilities: &[f64],
    labels: &[bool],
    mut cost: impl FnMut(&Confusion) -> f64,
) -> (f64, f64) {
    assert!(!probabilities.is_empty(), "need at least one probability");
    assert_eq!(
        probabilities.len(),
        labels.len(),
        "probabilities/labels length mismatch"
    );
    let mut samples: Vec<(f64, bool)> = probabilities
        .iter()
        .zip(labels)
        .filter(|(p, _)| p.is_finite())
        .map(|(&p, &l)| (p, l))
        .collect();
    samples.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite probabilities"));

    let mut candidates: Vec<f64> = samples.iter().map(|&(p, _)| p).collect();
    candidates.push(0.0);
    candidates.push(1.0);
    candidates.sort_by(|a, b| a.partial_cmp(b).expect("finite probabilities"));
    candidates.dedup();

    let positives = samples.iter().filter(|&&(_, l)| l).count();
    // At threshold 0 every sample is predicted positive.
    let mut confusion = Confusion {
        true_positives: positives,
        false_positives: samples.len() - positives,
        true_negatives: 0,
        false_negatives: 0,
    };

    let mut best: Option<(f64, f64)> = None;
    let mut cursor = 0usize; // samples with index < cursor are predicted negative
    for &t in &candidates {
        // Flip every sample with probability < t to predicted-negative; each sample
        // flips exactly once over the whole sweep.
        while cursor < samples.len() && samples[cursor].0 < t {
            if samples[cursor].1 {
                confusion.true_positives -= 1;
                confusion.false_negatives += 1;
            } else {
                confusion.false_positives -= 1;
                confusion.true_negatives += 1;
            }
            cursor += 1;
        }
        let c = cost(&confusion);
        if best.is_none_or(|(_, b)| c < b) {
            best = Some((t, c));
        }
    }
    best.expect("candidate list always contains 0 and 1")
}

/// Perturb a threshold away from its optimal value by a relative `fraction` (0.02 for
/// SC20-RF-2%, 0.05 for SC20-RF-5%). The perturbation lowers the threshold (more
/// mitigations) and clamps to `[0, 1]`; lowering is the conservative direction for a
/// mitigation policy, and either direction degrades the cost-optimality.
///
/// # Panics
/// Panics if the threshold is outside `[0, 1]` or the fraction is negative.
pub fn perturb_threshold(threshold: f64, fraction: f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&threshold),
        "threshold must be in [0, 1]"
    );
    assert!(fraction >= 0.0, "fraction must be non-negative");
    // An absolute perturbation of `fraction` (2% / 5% of the probability scale).
    (threshold - fraction).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference implementation: score the confusion matrix from scratch per candidate.
    fn brute_force(
        probabilities: &[f64],
        labels: &[bool],
        cost: impl Fn(&Confusion) -> f64,
    ) -> (f64, f64) {
        let mut candidates: Vec<f64> = probabilities.to_vec();
        candidates.push(0.0);
        candidates.push(1.0);
        candidates.sort_by(|a, b| a.partial_cmp(b).unwrap());
        candidates.dedup();
        let mut best = (candidates[0], f64::INFINITY);
        for &t in &candidates {
            let mut confusion = Confusion::default();
            for (&p, &l) in probabilities.iter().zip(labels) {
                match (p >= t, l) {
                    (true, true) => confusion.true_positives += 1,
                    (true, false) => confusion.false_positives += 1,
                    (false, false) => confusion.true_negatives += 1,
                    (false, true) => confusion.false_negatives += 1,
                }
            }
            let c = cost(&confusion);
            if c < best.1 {
                best = (t, c);
            }
        }
        best
    }

    #[test]
    fn incremental_sweep_matches_brute_force() {
        // A weighted misclassification cost, on a spread of probabilities with ties.
        let probs = [0.1, 0.4, 0.4, 0.6, 0.9, 0.25, 0.6, 0.0, 1.0, 0.75];
        let labels = [
            false, false, true, true, true, false, false, false, true, true,
        ];
        let cost = |c: &Confusion| 3.0 * c.false_negatives as f64 + c.false_positives as f64;
        let fast = optimal_threshold(&probs, &labels, cost);
        let slow = brute_force(&probs, &labels, cost);
        assert_eq!(fast, slow);
    }

    #[test]
    fn sweep_matches_brute_force_on_many_random_inputs() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        for trial in 0..50 {
            let n = rng.gen_range(1..40usize);
            let probs: Vec<f64> = (0..n)
                .map(|_| (rng.gen_range(0..5u32) as f64) / 4.0)
                .collect();
            let labels: Vec<bool> = (0..n).map(|_| rng.gen::<f64>() < 0.3).collect();
            let fp_cost = rng.gen_range(0.1..5.0);
            let fn_cost = rng.gen_range(0.1..5.0);
            let cost = |c: &Confusion| {
                fp_cost * c.false_positives as f64 + fn_cost * c.false_negatives as f64
            };
            let fast = optimal_threshold(&probs, &labels, cost);
            let slow = brute_force(&probs, &labels, cost);
            assert_eq!(
                fast, slow,
                "trial {trial}: probs {probs:?} labels {labels:?}"
            );
        }
    }

    #[test]
    fn finds_the_cost_minimising_threshold() {
        // Perfectly separable at 0.5: zero cost needs zero FP and zero FN, first reached
        // at the lowest positive probability.
        let probs = [0.1, 0.4, 0.6, 0.9];
        let labels = [false, false, true, true];
        let (t, c) = optimal_threshold(&probs, &labels, |conf| {
            (conf.false_positives + conf.false_negatives) as f64
        });
        assert_eq!(t, 0.6);
        assert_eq!(c, 0.0);
    }

    #[test]
    fn always_considers_zero_and_one() {
        // Cost favouring "predict nothing positive": threshold above every probability.
        let probs = [0.5];
        let labels = [false];
        let (t, _) = optimal_threshold(&probs, &labels, |c| c.predicted_positives() as f64);
        assert_eq!(t, 1.0);
        // Cost favouring "predict everything positive": threshold 0.
        let (t, _) = optimal_threshold(&probs, &labels, |c| {
            (c.true_negatives + c.false_negatives) as f64
        });
        assert_eq!(t, 0.0);
    }

    #[test]
    fn ties_resolve_to_the_lowest_threshold() {
        let probs = [0.2, 0.8];
        let labels = [false, true];
        let (t, _) = optimal_threshold(&probs, &labels, |_| 1.0);
        assert_eq!(t, 0.0, "constant cost keeps the first (lowest) candidate");
    }

    #[test]
    fn confusion_helpers_count_correctly() {
        let c = Confusion {
            true_positives: 2,
            false_positives: 3,
            true_negatives: 4,
            false_negatives: 1,
        };
        assert_eq!(c.total(), 10);
        assert_eq!(c.predicted_positives(), 5);
    }

    #[test]
    fn perturbation_moves_and_clamps() {
        assert!((perturb_threshold(0.5, 0.02) - 0.48).abs() < 1e-12);
        assert!((perturb_threshold(0.5, 0.05) - 0.45).abs() < 1e-12);
        assert_eq!(perturb_threshold(0.01, 0.05), 0.0);
        assert_eq!(perturb_threshold(0.7, 0.0), 0.7);
    }

    #[test]
    #[should_panic(expected = "at least one probability")]
    fn empty_probabilities_rejected() {
        optimal_threshold(&[], &[], |_| 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_labels_rejected() {
        optimal_threshold(&[0.5], &[true, false], |_| 0.0);
    }

    #[test]
    #[should_panic(expected = "threshold must be in")]
    fn out_of_range_threshold_rejected() {
        perturb_threshold(1.5, 0.02);
    }
}

//! Bootstrap-aggregated random forests with probability output.
//!
//! Trees are fitted in parallel by recursive [`rayon::join`] splitting over the tree
//! index range: the range halves until single trees remain, and each `join` hands its
//! second half to a helper thread whenever the thread budget has a slot idle (tree
//! costs vary with the bootstrap draw, so a half that finishes early frees its core for
//! the halves still running). Each tree derives its own RNG from the forest seed
//! and its tree index and writes its result into its own index slot, so the fitted
//! forest is **bit-identical at any thread count** — the per-tree work is a pure
//! function of `(dataset, config, tree_idx)`. Per-tree under-sampling and bootstrap
//! resampling are expressed as index views over the shared dataset; no tree ever copies
//! the feature matrix.

use crate::dataset::Dataset;
use crate::sampling::undersample_indices;
use crate::tree::{DecisionTree, TreeConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Golden-ratio multiplier decorrelating per-tree seeds (same mixer the evaluation
/// harness uses for per-node job seeds).
const TREE_SEED_MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// Configuration of a random forest.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RandomForestConfig {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree configuration.
    pub tree: TreeConfig,
    /// Whether each tree is fitted on a bootstrap resample of the training data.
    pub bootstrap: bool,
    /// If set, apply random under-sampling of the negatives (to this negative:positive
    /// ratio) independently for each tree, as in the SC20-RF baseline.
    pub undersample_ratio: Option<f64>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RandomForestConfig {
    fn default() -> Self {
        Self {
            n_trees: 50,
            tree: TreeConfig::default(),
            bootstrap: true,
            undersample_ratio: Some(1.0),
            seed: 0,
        }
    }
}

impl RandomForestConfig {
    /// The SC20-RF baseline configuration: a bagged forest with per-tree random
    /// under-sampling and `sqrt(n_features)` feature subsampling.
    pub fn sc20(n_features: usize, seed: u64) -> Self {
        Self {
            n_trees: 100,
            tree: TreeConfig {
                max_depth: 12,
                min_samples_leaf: 2,
                max_features: Some(((n_features as f64).sqrt().ceil() as usize).max(1)),
            },
            bootstrap: true,
            undersample_ratio: Some(1.0),
            seed,
        }
    }

    /// A small, fast configuration for tests.
    pub fn small(seed: u64) -> Self {
        Self {
            n_trees: 15,
            tree: TreeConfig {
                max_depth: 8,
                min_samples_leaf: 2,
                max_features: None,
            },
            bootstrap: true,
            undersample_ratio: Some(1.0),
            seed,
        }
    }
}

/// A fitted random forest for binary classification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    n_features: usize,
}

impl RandomForest {
    /// Fit a forest to a dataset.
    ///
    /// # Panics
    /// Panics if the dataset is empty or the configuration requests zero trees.
    pub fn fit(dataset: &Dataset, config: &RandomForestConfig) -> Self {
        assert!(
            !dataset.is_empty(),
            "cannot fit a forest to an empty dataset"
        );
        assert!(config.n_trees > 0, "need at least one tree");
        let mut slots: Vec<Option<DecisionTree>> = (0..config.n_trees).map(|_| None).collect();
        Self::fit_tree_range(dataset, config, 0, &mut slots);
        let trees = slots
            .into_iter()
            .map(|slot| slot.expect("every tree slot filled"))
            .collect();
        Self {
            trees,
            n_features: dataset.n_features(),
        }
    }

    /// Fit the trees whose indices start at `first_idx` into `out`, halving the range
    /// via `rayon::join`, so idle budget slots pick up the halves. Each entry of `out` is
    /// filled by tree index, keeping the forest independent of who ran what.
    fn fit_tree_range(
        dataset: &Dataset,
        config: &RandomForestConfig,
        first_idx: usize,
        out: &mut [Option<DecisionTree>],
    ) {
        match out {
            [] => {}
            [slot] => *slot = Some(Self::fit_one_tree(dataset, config, first_idx)),
            _ => {
                let mid = out.len() / 2;
                let (left, right) = out.split_at_mut(mid);
                rayon::join(
                    || Self::fit_tree_range(dataset, config, first_idx, left),
                    || Self::fit_tree_range(dataset, config, first_idx + mid, right),
                );
            }
        }
    }

    /// Fit tree `tree_idx` of a forest: a pure function of `(dataset, config, tree_idx)`
    /// so the parallel fan-out is deterministic at any thread count.
    fn fit_one_tree(
        dataset: &Dataset,
        config: &RandomForestConfig,
        tree_idx: usize,
    ) -> DecisionTree {
        let tree_seed = config.seed ^ (tree_idx as u64).wrapping_mul(TREE_SEED_MIX);
        let mut rng = StdRng::seed_from_u64(tree_seed);
        // Per-tree under-sampling first (keeps all positives), then bootstrap — both as
        // index views over the shared dataset, never copying feature rows.
        let balanced: Vec<usize> = match config.undersample_ratio {
            Some(ratio) => undersample_indices(dataset, ratio, &mut rng),
            None => (0..dataset.len()).collect(),
        };
        let training: Vec<usize> = if config.bootstrap {
            (0..balanced.len())
                .map(|_| balanced[rng.gen_range(0..balanced.len())])
                .collect()
        } else {
            balanced
        };
        DecisionTree::fit_with_indices(dataset, &training, &config.tree, &mut rng)
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Number of features expected at prediction time.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Predicted probability of the positive class: the mean of the per-tree leaf
    /// probabilities.
    pub fn predict_proba(&self, features: &[f64]) -> f64 {
        let sum: f64 = self.trees.iter().map(|t| t.predict_proba(features)).sum();
        sum / self.trees.len() as f64
    }

    /// Hard classification at a decision threshold.
    pub fn predict(&self, features: &[f64], threshold: f64) -> bool {
        self.predict_proba(features) >= threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Imbalanced but separable data: positive iff x0 + x1 > 1.2, with 10x more negatives.
    fn imbalanced(n: usize) -> Dataset {
        let mut d = Dataset::new();
        let mut rng = StdRng::seed_from_u64(1234);
        for _ in 0..n {
            let x0: f64 = rng.gen();
            let x1: f64 = rng.gen();
            let positive = x0 + x1 > 1.2;
            // Thin the positives to create imbalance.
            if !positive || rng.gen::<f64>() < 0.3 {
                d.push(vec![x0, x1], positive);
            }
        }
        d
    }

    #[test]
    fn forest_separates_classes() {
        let d = imbalanced(2000);
        let forest = RandomForest::fit(&d, &RandomForestConfig::small(1));
        assert!(forest.predict_proba(&[0.9, 0.9]) > 0.7);
        assert!(forest.predict_proba(&[0.1, 0.1]) < 0.3);
        assert!(forest.predict(&[0.9, 0.9], 0.5));
        assert!(!forest.predict(&[0.1, 0.1], 0.5));
    }

    #[test]
    fn probabilities_are_in_unit_interval() {
        let d = imbalanced(500);
        let forest = RandomForest::fit(&d, &RandomForestConfig::small(2));
        for x in [[0.0, 0.0], [0.5, 0.5], [1.0, 1.0], [0.3, 0.9]] {
            let p = forest.predict_proba(&x);
            assert!((0.0..=1.0).contains(&p), "p = {p}");
        }
    }

    #[test]
    fn fitting_is_bit_identical_across_thread_counts() {
        let d = imbalanced(800);
        let config = RandomForestConfig::small(9);
        let one = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let four = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        let serial = one.install(|| RandomForest::fit(&d, &config));
        let parallel = four.install(|| RandomForest::fit(&d, &config));
        assert_eq!(
            serial, parallel,
            "forest must not depend on the thread count"
        );
    }

    #[test]
    fn fitting_is_deterministic_per_seed() {
        let d = imbalanced(500);
        let a = RandomForest::fit(&d, &RandomForestConfig::small(7));
        let b = RandomForest::fit(&d, &RandomForestConfig::small(7));
        let c = RandomForest::fit(&d, &RandomForestConfig::small(8));
        let x = [0.6, 0.7];
        assert_eq!(a.predict_proba(&x), b.predict_proba(&x));
        assert_ne!(a.predict_proba(&x), c.predict_proba(&x));
    }

    #[test]
    fn sc20_configuration_uses_sqrt_features() {
        let config = RandomForestConfig::sc20(14, 0);
        assert_eq!(config.tree.max_features, Some(4));
        assert_eq!(config.n_trees, 100);
        assert_eq!(config.undersample_ratio, Some(1.0));
    }

    #[test]
    fn undersampling_improves_recall_on_imbalanced_data() {
        // With heavy imbalance and no under-sampling, the forest is biased towards the
        // negative class; under-sampling should raise the predicted probability of true
        // positives.
        let d = imbalanced(3000);
        let with = RandomForest::fit(
            &d,
            &RandomForestConfig {
                undersample_ratio: Some(1.0),
                ..RandomForestConfig::small(4)
            },
        );
        let without = RandomForest::fit(
            &d,
            &RandomForestConfig {
                undersample_ratio: None,
                ..RandomForestConfig::small(4)
            },
        );
        let positive_sample = [0.75, 0.7];
        assert!(
            with.predict_proba(&positive_sample) >= without.predict_proba(&positive_sample) - 0.05,
            "undersampling should not hurt the positive-class probability much"
        );
    }

    #[test]
    #[should_panic(expected = "at least one tree")]
    fn zero_trees_rejected() {
        let d = imbalanced(100);
        RandomForest::fit(
            &d,
            &RandomForestConfig {
                n_trees: 0,
                ..RandomForestConfig::small(5)
            },
        );
    }
}

//! CART decision trees with Gini impurity.
//!
//! Fitting is allocation-lean: the tree works on an *index view* over one shared
//! [`Dataset`] (so bootstrap/under-sampled trees never copy the feature matrix), and
//! every feature column is sorted **once per tree**. At each split the per-feature
//! sorted orders are maintained by a stable partition into a reused scratch buffer —
//! `O(features · n)` per node instead of the `O(mtry · n log n)` full re-sort the
//! previous implementation paid at every node.
//!
//! On nodes with at least `PARALLEL_SPLIT_MIN_SAMPLES` samples, the candidate
//! features of `best_split` are evaluated in parallel via recursive [`rayon::join`]
//! over the (already rng-drawn) feature list; per-feature minima are reduced in
//! feature order with earlier features winning ties, so the chosen split — and hence
//! the whole tree — is bit-identical to the serial scan at any thread count.

use crate::dataset::Dataset;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Configuration of a single decision tree.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TreeConfig {
    /// Maximum tree depth (the root is depth 0).
    pub max_depth: usize,
    /// Minimum number of samples a leaf must hold.
    pub min_samples_leaf: usize,
    /// Number of features considered at each split (`None` = all features; random forests
    /// typically use `sqrt(n_features)`).
    pub max_features: Option<usize>,
}

impl Default for TreeConfig {
    fn default() -> Self {
        Self {
            max_depth: 12,
            min_samples_leaf: 2,
            max_features: None,
        }
    }
}

/// One node of the fitted tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Node {
    /// A leaf storing the fraction of positive training samples that reached it.
    Leaf { probability: f64 },
    /// An internal split: samples with `feature < threshold` go left, the rest go right.
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// A fitted CART decision tree for binary classification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    n_features: usize,
}

impl DecisionTree {
    /// Fit a tree to a full dataset.
    ///
    /// # Panics
    /// Panics if the dataset is empty.
    pub fn fit<R: Rng + ?Sized>(dataset: &Dataset, config: &TreeConfig, rng: &mut R) -> Self {
        assert!(!dataset.is_empty(), "cannot fit a tree to an empty dataset");
        let indices: Vec<usize> = (0..dataset.len()).collect();
        Self::fit_with_indices(dataset, &indices, config, rng)
    }

    /// Fit a tree to the samples selected by `samples` (duplicates allowed — this is how
    /// bootstrap resamples are expressed without copying the dataset).
    ///
    /// # Panics
    /// Panics if `samples` is empty or the dataset is empty.
    pub fn fit_with_indices<R: Rng + ?Sized>(
        dataset: &Dataset,
        samples: &[usize],
        config: &TreeConfig,
        rng: &mut R,
    ) -> Self {
        assert!(!dataset.is_empty(), "cannot fit a tree to an empty dataset");
        assert!(
            !samples.is_empty(),
            "cannot fit a tree to an empty sample view"
        );
        let mut builder = TreeBuilder::new(dataset, samples, config);
        builder.build(0, samples.len(), 0, rng);
        DecisionTree {
            nodes: builder.nodes,
            n_features: dataset.n_features(),
        }
    }

    /// Number of nodes in the tree.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Depth of the tree (a single leaf has depth 0).
    pub fn depth(&self) -> usize {
        fn depth_of(nodes: &[Node], idx: usize) -> usize {
            match nodes[idx] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => {
                    1 + depth_of(nodes, left).max(depth_of(nodes, right))
                }
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            depth_of(&self.nodes, 0)
        }
    }

    /// Predicted probability that `features` belongs to the positive class.
    ///
    /// # Panics
    /// Panics if the feature dimension does not match the training data.
    pub fn predict_proba(&self, features: &[f64]) -> f64 {
        assert_eq!(
            features.len(),
            self.n_features,
            "feature dimension mismatch"
        );
        let mut idx = 0;
        loop {
            match self.nodes[idx] {
                Node::Leaf { probability } => return probability,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    idx = if features[feature] < threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }

    /// Gini impurity of a sample set described by its positive count and size.
    fn gini(positives: usize, total: usize) -> f64 {
        if total == 0 {
            return 0.0;
        }
        let p = positives as f64 / total as f64;
        2.0 * p * (1.0 - p)
    }
}

/// Nodes smaller than this keep the serial feature scan: below it, the per-feature work
/// is too small to beat the queue round-trip of a `join`. The parallel reduction is
/// bit-identical to the serial scan, so neither this cutoff nor the thread-count
/// fast-path in the gate can affect results.
const PARALLEL_SPLIT_MIN_SAMPLES: usize = 2048;

/// Fitting state: per-feature sorted sample orders plus reused scratch buffers.
///
/// `sorted` holds one length-`m` block per feature; block `f` lists *positions* into
/// `samples` ordered by feature `f`'s value. Every tree node owns a contiguous range
/// `[lo, hi)` of **every** block (the same sample set, differently ordered), so a split
/// only needs a stable two-way partition of each block's range — no sorting.
struct TreeBuilder<'a> {
    dataset: &'a Dataset,
    samples: &'a [usize],
    config: &'a TreeConfig,
    nodes: Vec<Node>,
    /// `n_features` blocks of `m` positions each.
    sorted: Vec<u32>,
    /// Scratch for the stable partition (length `m`).
    scratch: Vec<u32>,
    /// `side[p]` = "position `p` goes left" for the split currently being applied.
    side: Vec<bool>,
    /// Reused candidate-feature buffer for the per-node `mtry` draw.
    feature_buf: Vec<usize>,
}

impl<'a> TreeBuilder<'a> {
    fn new(dataset: &'a Dataset, samples: &'a [usize], config: &'a TreeConfig) -> Self {
        let m = samples.len();
        let d = dataset.n_features();
        let mut sorted = Vec::with_capacity(d * m);
        let mut order: Vec<u32> = (0..m as u32).collect();
        for f in 0..d {
            order.clear();
            order.extend(0..m as u32);
            // Stable sort: ties keep position order, making the fit a pure function of
            // (dataset, samples, config, rng) regardless of thread count.
            order.sort_by(|&a, &b| {
                let va = dataset.value(samples[a as usize], f);
                let vb = dataset.value(samples[b as usize], f);
                va.partial_cmp(&vb).expect("finite features")
            });
            sorted.extend_from_slice(&order);
        }
        Self {
            dataset,
            samples,
            config,
            nodes: Vec::new(),
            sorted,
            scratch: vec![0; m],
            side: vec![false; m],
            feature_buf: Vec::with_capacity(d),
        }
    }

    #[inline]
    fn m(&self) -> usize {
        self.samples.len()
    }

    /// The sorted block of feature `f`, restricted to `[lo, hi)`.
    #[inline]
    fn block(&self, f: usize, lo: usize, hi: usize) -> &[u32] {
        let base = f * self.m();
        &self.sorted[base + lo..base + hi]
    }

    #[inline]
    fn label_at(&self, position: u32) -> bool {
        self.dataset.label_of(self.samples[position as usize])
    }

    #[inline]
    fn value_at(&self, position: u32, f: usize) -> f64 {
        self.dataset.value(self.samples[position as usize], f)
    }

    /// Recursively build the subtree for range `[lo, hi)`, returning the node index.
    fn build<R: Rng + ?Sized>(&mut self, lo: usize, hi: usize, depth: usize, rng: &mut R) -> usize {
        let n = hi - lo;
        let d = self.dataset.n_features();
        let positives = if d == 0 {
            // No features to sort by; count labels directly over the sample view.
            self.samples[lo..hi]
                .iter()
                .filter(|&&i| self.dataset.label_of(i))
                .count()
        } else {
            self.block(0, lo, hi)
                .iter()
                .filter(|&&p| self.label_at(p))
                .count()
        };
        let probability = positives as f64 / n as f64;

        // Stop if pure, featureless, too deep, or too small to split.
        let stop = d == 0
            || positives == 0
            || positives == n
            || depth >= self.config.max_depth
            || n < 2 * self.config.min_samples_leaf;
        if stop {
            self.nodes.push(Node::Leaf { probability });
            return self.nodes.len() - 1;
        }

        match self.best_split(lo, hi, positives, rng) {
            None => {
                self.nodes.push(Node::Leaf { probability });
                self.nodes.len() - 1
            }
            Some((feature, threshold)) => {
                let n_left = self.partition(lo, hi, feature, threshold);
                // Degenerate splits can happen with ties; fall back to a leaf.
                if n_left == 0 || n_left == n {
                    self.nodes.push(Node::Leaf { probability });
                    return self.nodes.len() - 1;
                }
                // Reserve this node's slot, then build children.
                let node_idx = self.nodes.len();
                self.nodes.push(Node::Leaf { probability });
                let left = self.build(lo, lo + n_left, depth + 1, rng);
                let right = self.build(lo + n_left, hi, depth + 1, rng);
                self.nodes[node_idx] = Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                };
                node_idx
            }
        }
    }

    /// Find the `(feature, threshold)` split minimising the weighted Gini impurity over
    /// `[lo, hi)`, or `None` if no split improves on the parent. Walks each candidate
    /// feature's presorted order — no sorting, no allocation. Large nodes fan the
    /// feature scans out over the work-stealing pool; the reduction keeps the earliest
    /// feature on ties, so the result matches the serial scan bit-for-bit.
    fn best_split<R: Rng + ?Sized>(
        &mut self,
        lo: usize,
        hi: usize,
        total_pos: usize,
        rng: &mut R,
    ) -> Option<(usize, f64)> {
        let n = hi - lo;
        let d = self.dataset.n_features();
        let parent_gini = DecisionTree::gini(total_pos, n);

        // Select the candidate feature subset (mtry) into the reused buffer. This is the
        // only rng-dependent step, so it stays serial and the scans below are pure.
        self.feature_buf.clear();
        self.feature_buf.extend(0..d);
        if let Some(mtry) = self.config.max_features {
            self.feature_buf.shuffle(rng);
            self.feature_buf.truncate(mtry.clamp(1, d));
        }
        let features = std::mem::take(&mut self.feature_buf);

        // Accept splits that do not increase the weighted impurity (ties with the parent
        // are allowed: problems like XOR have zero first-level Gini gain but still need
        // the split so that deeper levels can separate the classes).
        let bound = parent_gini + 1e-9;
        let best = if n >= PARALLEL_SPLIT_MIN_SAMPLES
            && features.len() >= 2
            && rayon::current_num_threads() > 1
        {
            self.best_over_features(&features, lo, hi, total_pos, bound)
        } else {
            let mut best: Option<(usize, f64, f64)> = None;
            for &feature in &features {
                if let Some((weighted, threshold)) =
                    self.eval_feature(feature, lo, hi, total_pos, bound)
                {
                    if best.map(|(_, w, _)| weighted < w).unwrap_or(true) {
                        best = Some((feature, weighted, threshold));
                    }
                }
            }
            best
        };
        self.feature_buf = features;
        best.map(|(feature, _, threshold)| (feature, threshold))
    }

    /// The per-feature minimum of [`Self::eval_feature`] over `features`, reduced by
    /// recursive `rayon::join` halving. The combine prefers the left (earlier) half on
    /// equal impurity, which is exactly the tie-break of a serial left-to-right scan
    /// with strict improvement — so the parallel reduction is bit-identical to it.
    fn best_over_features(
        &self,
        features: &[usize],
        lo: usize,
        hi: usize,
        total_pos: usize,
        bound: f64,
    ) -> Option<(usize, f64, f64)> {
        if features.len() <= 1 {
            let feature = *features.first()?;
            return self
                .eval_feature(feature, lo, hi, total_pos, bound)
                .map(|(weighted, threshold)| (feature, weighted, threshold));
        }
        let mid = features.len() / 2;
        let (left_features, right_features) = features.split_at(mid);
        let (left, right) = rayon::join(
            || self.best_over_features(left_features, lo, hi, total_pos, bound),
            || self.best_over_features(right_features, lo, hi, total_pos, bound),
        );
        match (left, right) {
            (Some(l), Some(r)) => Some(if l.1 <= r.1 { l } else { r }),
            (l, r) => l.or(r),
        }
    }

    /// Scan one feature's presorted order over `[lo, hi)` for its impurity-minimal
    /// valid split strictly below `bound`, returning `(weighted_gini, threshold)` of
    /// the first position achieving that minimum. Pure (`&self`), so candidate features
    /// can scan concurrently.
    fn eval_feature(
        &self,
        feature: usize,
        lo: usize,
        hi: usize,
        total_pos: usize,
        bound: f64,
    ) -> Option<(f64, f64)> {
        let n = hi - lo;
        let block = self.block(feature, lo, hi);
        let mut best: Option<(f64, f64)> = None;
        let mut best_gini = bound;
        let mut left_pos = 0usize;
        let mut prev_value = self.value_at(block[0], feature);
        for split_at in 1..n {
            if self.label_at(block[split_at - 1]) {
                left_pos += 1;
            }
            let this_value = self.value_at(block[split_at], feature);
            let boundary = prev_value != this_value;
            let last_prev = prev_value;
            prev_value = this_value;
            if !boundary {
                continue; // cannot split between equal values
            }
            let left_n = split_at;
            let right_n = n - split_at;
            if left_n < self.config.min_samples_leaf || right_n < self.config.min_samples_leaf {
                continue;
            }
            let right_pos = total_pos - left_pos;
            let weighted = (left_n as f64 * DecisionTree::gini(left_pos, left_n)
                + right_n as f64 * DecisionTree::gini(right_pos, right_n))
                / n as f64;
            if weighted < best_gini {
                let threshold = (last_prev + this_value) / 2.0;
                best = Some((weighted, threshold));
                best_gini = weighted;
            }
        }
        best
    }

    /// Stable-partition every feature's sorted range `[lo, hi)` by
    /// `value(·, feature) < threshold`, preserving each side's sorted order. Returns the
    /// left-side count.
    fn partition(&mut self, lo: usize, hi: usize, feature: usize, threshold: f64) -> usize {
        let m = self.m();
        let d = self.dataset.n_features();
        // Mark which side each position of this node goes to (positions are shared by
        // every feature block).
        let mut n_left = 0usize;
        {
            let base = feature * m;
            for k in lo..hi {
                let p = self.sorted[base + k];
                let goes_left = self.value_at(p, feature) < threshold;
                self.side[p as usize] = goes_left;
                n_left += usize::from(goes_left);
            }
        }
        if n_left == 0 || n_left == hi - lo {
            return n_left;
        }
        // Stable two-way partition of each block through the scratch buffer.
        for f in 0..d {
            let base = f * m;
            let mut left_cursor = 0usize;
            let mut right_cursor = n_left;
            for k in lo..hi {
                let p = self.sorted[base + k];
                if self.side[p as usize] {
                    self.scratch[left_cursor] = p;
                    left_cursor += 1;
                } else {
                    self.scratch[right_cursor] = p;
                    right_cursor += 1;
                }
            }
            self.sorted[base + lo..base + hi].copy_from_slice(&self.scratch[..hi - lo]);
        }
        n_left
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Linearly separable data: positive iff x0 > 0.5.
    fn separable(n: usize) -> Dataset {
        let mut d = Dataset::new();
        for i in 0..n {
            let x = i as f64 / n as f64;
            d.push(vec![x, 0.3], x > 0.5);
        }
        d
    }

    #[test]
    fn learns_a_separable_boundary() {
        let d = separable(100);
        let mut rng = StdRng::seed_from_u64(1);
        let tree = DecisionTree::fit(&d, &TreeConfig::default(), &mut rng);
        assert!(tree.predict_proba(&[0.9, 0.3]) > 0.9);
        assert!(tree.predict_proba(&[0.1, 0.3]) < 0.1);
        assert!(tree.depth() >= 1);
    }

    #[test]
    fn pure_dataset_yields_single_leaf() {
        let mut d = Dataset::new();
        for i in 0..10 {
            d.push(vec![i as f64], false);
        }
        let mut rng = StdRng::seed_from_u64(2);
        let tree = DecisionTree::fit(&d, &TreeConfig::default(), &mut rng);
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.predict_proba(&[3.0]), 0.0);
    }

    #[test]
    fn max_depth_limits_the_tree() {
        let d = separable(200);
        let mut rng = StdRng::seed_from_u64(3);
        let config = TreeConfig {
            max_depth: 1,
            ..TreeConfig::default()
        };
        let tree = DecisionTree::fit(&d, &config, &mut rng);
        assert!(tree.depth() <= 1);
    }

    #[test]
    fn min_samples_leaf_prevents_tiny_leaves() {
        let d = separable(20);
        let mut rng = StdRng::seed_from_u64(4);
        let config = TreeConfig {
            min_samples_leaf: 10,
            ..TreeConfig::default()
        };
        let tree = DecisionTree::fit(&d, &config, &mut rng);
        // With 20 samples and a 10-sample minimum there is exactly one possible split.
        assert!(tree.depth() <= 1);
    }

    #[test]
    fn xor_needs_depth_two() {
        // XOR of two binary features: not linearly separable, needs nested splits.
        let mut d = Dataset::new();
        for &(a, b) in &[(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)] {
            for _ in 0..10 {
                d.push(vec![a, b], (a > 0.5) != (b > 0.5));
            }
        }
        let mut rng = StdRng::seed_from_u64(5);
        let config = TreeConfig {
            min_samples_leaf: 1,
            ..TreeConfig::default()
        };
        let tree = DecisionTree::fit(&d, &config, &mut rng);
        assert!(tree.depth() >= 2);
        assert!(tree.predict_proba(&[0.0, 1.0]) > 0.9);
        assert!(tree.predict_proba(&[1.0, 1.0]) < 0.1);
    }

    #[test]
    fn feature_subsampling_still_learns() {
        // Both features carry the signal, so whichever one the per-node subsample keeps,
        // the split separates the classes.
        let mut d = Dataset::new();
        for i in 0..100 {
            let x = i as f64 / 100.0;
            d.push(vec![x, x + 0.01], x > 0.5);
        }
        let mut rng = StdRng::seed_from_u64(6);
        let config = TreeConfig {
            max_features: Some(1),
            ..TreeConfig::default()
        };
        let tree = DecisionTree::fit(&d, &config, &mut rng);
        assert!(tree.predict_proba(&[0.95, 0.96]) > 0.9);
        assert!(tree.predict_proba(&[0.05, 0.06]) < 0.1);
    }

    #[test]
    fn index_view_fit_matches_subset_fit() {
        // Fitting on an index view must behave like fitting on the materialised subset:
        // same RNG, same sample multiset, same resulting predictions.
        let d = separable(60);
        let view: Vec<usize> = (0..60).filter(|i| i % 3 != 0).collect();
        let materialised = d.subset(&view);
        let tree_view = DecisionTree::fit_with_indices(
            &d,
            &view,
            &TreeConfig::default(),
            &mut StdRng::seed_from_u64(9),
        );
        let tree_mat = DecisionTree::fit(
            &materialised,
            &TreeConfig::default(),
            &mut StdRng::seed_from_u64(9),
        );
        assert_eq!(tree_view, tree_mat);
    }

    #[test]
    fn duplicate_indices_act_as_bootstrap_weights() {
        // Repeating a sample shifts the leaf probability exactly as a copy would.
        let d = separable(20);
        let doubled: Vec<usize> = (0..20).chain(0..20).collect();
        let tree = DecisionTree::fit_with_indices(
            &d,
            &doubled,
            &TreeConfig::default(),
            &mut StdRng::seed_from_u64(10),
        );
        assert!(tree.predict_proba(&[0.9, 0.3]) > 0.9);
        assert!(tree.predict_proba(&[0.1, 0.3]) < 0.1);
    }

    #[test]
    #[should_panic(expected = "feature dimension mismatch")]
    fn wrong_dimension_rejected_at_prediction() {
        let d = separable(10);
        let mut rng = StdRng::seed_from_u64(7);
        let tree = DecisionTree::fit(&d, &TreeConfig::default(), &mut rng);
        tree.predict_proba(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_rejected() {
        let mut rng = StdRng::seed_from_u64(8);
        DecisionTree::fit(&Dataset::new(), &TreeConfig::default(), &mut rng);
    }

    #[test]
    #[should_panic(expected = "empty sample view")]
    fn empty_view_rejected() {
        let d = separable(10);
        let mut rng = StdRng::seed_from_u64(8);
        DecisionTree::fit_with_indices(&d, &[], &TreeConfig::default(), &mut rng);
    }
}

//! Feature-matrix / label containers for the tree-based baselines.
//!
//! The feature matrix is stored as one contiguous row-major `Vec<f64>` rather than a
//! `Vec<Vec<f64>>`: one allocation instead of `n + 1`, cache-friendly row access, and
//! cheap column scans during tree fitting. Training code never copies the matrix —
//! under-sampling and bootstrap resampling are expressed as index lists over one shared
//! [`Dataset`] (see [`crate::sampling::undersample_indices`] and
//! [`crate::tree::DecisionTree::fit_with_indices`]).

use serde::{Deserialize, Serialize};

/// A binary-classification dataset: one feature vector and one boolean label per sample,
/// with the feature matrix in a single contiguous row-major buffer.
///
/// For the SC20-RF baseline the label is "an uncorrected error follows this event within
/// the prediction window"; positives are extremely rare, which is why
/// [`crate::sampling::undersample`] exists.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Dataset {
    /// Row-major feature matrix, `len() * n_features` values.
    data: Vec<f64>,
    labels: Vec<bool>,
    n_features: usize,
}

impl Dataset {
    /// Create an empty dataset.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a dataset from parallel feature and label vectors.
    ///
    /// # Panics
    /// Panics if the lengths differ or feature vectors have inconsistent dimensions.
    #[cfg(test)]
    fn from_parts(features: Vec<Vec<f64>>, labels: Vec<bool>) -> Self {
        assert_eq!(
            features.len(),
            labels.len(),
            "features/labels length mismatch"
        );
        let n_features = features.first().map(Vec::len).unwrap_or(0);
        assert!(
            features.iter().all(|f| f.len() == n_features),
            "inconsistent feature dimensions"
        );
        let mut data = Vec::with_capacity(features.len() * n_features);
        for row in &features {
            data.extend_from_slice(row);
        }
        Self {
            data,
            labels,
            n_features,
        }
    }

    /// Create a dataset directly from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != labels.len() * n_features`.
    #[cfg(test)]
    fn from_flat(data: Vec<f64>, n_features: usize, labels: Vec<bool>) -> Self {
        assert_eq!(
            data.len(),
            labels.len() * n_features,
            "flat buffer length must equal samples * features"
        );
        Self {
            data,
            labels,
            n_features,
        }
    }

    /// Append one sample from an owned vector.
    ///
    /// # Panics
    /// Panics if the feature dimension does not match the existing samples.
    pub fn push(&mut self, features: Vec<f64>, label: bool) {
        if self.labels.is_empty() {
            self.n_features = features.len();
        } else {
            assert_eq!(
                self.n_features,
                features.len(),
                "inconsistent feature dimensions"
            );
        }
        self.data.extend_from_slice(&features);
        self.labels.push(label);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of features per sample (0 for an empty dataset).
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// The feature vector of sample `i`.
    #[inline]
    pub fn features_of(&self, i: usize) -> &[f64] {
        &self.data[i * self.n_features..(i + 1) * self.n_features]
    }

    /// One feature value of one sample, without forming the row slice.
    #[inline]
    pub fn value(&self, i: usize, feature: usize) -> f64 {
        debug_assert!(feature < self.n_features);
        self.data[i * self.n_features + feature]
    }

    /// The label of sample `i`.
    #[inline]
    pub fn label_of(&self, i: usize) -> bool {
        self.labels[i]
    }

    /// All labels.
    pub fn labels(&self) -> &[bool] {
        &self.labels
    }

    /// The contiguous row-major feature buffer.
    #[cfg(test)]
    fn flat_data(&self) -> &[f64] {
        &self.data
    }

    /// Number of positive samples.
    pub fn positives(&self) -> usize {
        self.labels.iter().filter(|&&l| l).count()
    }

    /// Number of negative samples.
    pub fn negatives(&self) -> usize {
        self.len() - self.positives()
    }

    /// Fraction of positive samples (0 for an empty dataset).
    pub fn positive_fraction(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.positives() as f64 / self.len() as f64
        }
    }

    /// A new dataset containing the samples at `indices` (duplicates allowed — this is
    /// how bootstrap resampling is expressed when a materialised copy is wanted; the
    /// fitting code itself works on index views and never calls this).
    pub fn subset(&self, indices: &[usize]) -> Self {
        let mut data = Vec::with_capacity(indices.len() * self.n_features);
        for &i in indices {
            data.extend_from_slice(self.features_of(i));
        }
        Self {
            data,
            labels: indices.iter().map(|&i| self.labels[i]).collect(),
            n_features: self.n_features,
        }
    }

    /// Iterate over `(features, label)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&[f64], bool)> {
        self.data
            .chunks_exact(self.n_features.max(1))
            .zip(self.labels.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dataset {
        Dataset::from_parts(
            vec![
                vec![0.0, 1.0],
                vec![1.0, 0.0],
                vec![0.5, 0.5],
                vec![0.9, 0.1],
            ],
            vec![false, true, false, true],
        )
    }

    #[test]
    fn construction_and_counts() {
        let d = sample();
        assert_eq!(d.len(), 4);
        assert_eq!(d.n_features(), 2);
        assert_eq!(d.positives(), 2);
        assert_eq!(d.negatives(), 2);
        assert!((d.positive_fraction() - 0.5).abs() < 1e-12);
        assert!(!d.is_empty());
    }

    #[test]
    fn push_and_access() {
        let mut d = Dataset::new();
        assert_eq!(d.n_features(), 0);
        d.push(vec![1.0, 2.0, 3.0], true);
        d.push(vec![4.0, 5.0, 6.0], false);
        assert_eq!(d.n_features(), 3);
        assert_eq!(d.features_of(1), &[4.0, 5.0, 6.0]);
        assert!(d.label_of(0));
        assert!(!d.label_of(1));
        assert_eq!(d.value(1, 2), 6.0);
    }

    #[test]
    fn flat_buffer_is_row_major() {
        let d = sample();
        assert_eq!(d.flat_data(), &[0.0, 1.0, 1.0, 0.0, 0.5, 0.5, 0.9, 0.1]);
        let e = Dataset::from_flat(vec![1.0, 2.0, 3.0, 4.0], 2, vec![true, false]);
        assert_eq!(e.features_of(1), &[3.0, 4.0]);
    }

    #[test]
    fn subset_allows_duplicates() {
        let d = sample();
        let s = d.subset(&[0, 0, 3]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.features_of(0), s.features_of(1));
        assert!(s.label_of(2));
    }

    #[test]
    fn iteration_pairs_features_and_labels() {
        let d = sample();
        let collected: Vec<bool> = d.iter().map(|(_, l)| l).collect();
        assert_eq!(collected, vec![false, true, false, true]);
        let first: Vec<&[f64]> = d.iter().map(|(f, _)| f).collect();
        assert_eq!(first[0], &[0.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_rejected() {
        Dataset::from_parts(vec![vec![1.0]], vec![true, false]);
    }

    #[test]
    #[should_panic(expected = "inconsistent feature dimensions")]
    fn inconsistent_dimensions_rejected() {
        let mut d = Dataset::new();
        d.push(vec![1.0, 2.0], true);
        d.push(vec![1.0], false);
    }

    #[test]
    #[should_panic(expected = "flat buffer length")]
    fn bad_flat_buffer_rejected() {
        Dataset::from_flat(vec![1.0, 2.0, 3.0], 2, vec![true, false]);
    }
}

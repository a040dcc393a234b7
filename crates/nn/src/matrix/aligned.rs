//! `f64` storage whose first element sits on a 64-byte boundary.

use std::ops::{Deref, DerefMut};

/// Bytes of one cache line, and of one AVX-512 vector of eight `f64`s.
const ALIGN: usize = 64;
/// The most elements a buffer's first 64-byte boundary can lie past the start of its
/// allocation: a `Vec<f64>` starts on an 8-byte boundary.
const SLACK: usize = ALIGN / size_of::<f64>() - 1;

/// A growable `f64` buffer whose first element sits on a 64-byte boundary, with no
/// `unsafe`: the allocation holds [`SLACK`] spare elements and the buffer starts at
/// the first boundary inside it. Like a `Vec`, it keeps its allocation when it
/// shrinks and allocates only to grow past every length it has held.
#[derive(Default)]
pub(super) struct AlignedBuf {
    /// The allocation. Only `raw[start..start + len]` belongs to the buffer.
    raw: Vec<f64>,
    start: usize,
    len: usize,
}

impl AlignedBuf {
    /// An empty buffer, which allocates nothing.
    pub(super) const fn new() -> Self {
        Self {
            raw: Vec::new(),
            start: 0,
            len: 0,
        }
    }

    /// `len` zeros, in one zeroed allocation.
    pub(super) fn zeroed(len: usize) -> Self {
        let raw = vec![0.0; len + SLACK];
        let start = first_boundary(&raw);
        Self { raw, start, len }
    }

    /// A copy of `values`.
    pub(super) fn from_slice(values: &[f64]) -> Self {
        let mut buf = Self::new();
        buf.assign(values);
        buf
    }

    /// Set the length to `len`, leaving stale values for the caller to overwrite.
    pub(super) fn resize_for_overwrite(&mut self, len: usize) {
        if self.start + len > self.raw.len() {
            // A reallocation can move the first boundary; the stale values move with
            // the allocation, not with the boundary.
            self.raw.resize(len + SLACK, 0.0);
            self.start = first_boundary(&self.raw);
        }
        self.len = len;
    }

    /// Set the length to `len` and every element to `+0.0`.
    pub(super) fn resize_zeroed(&mut self, len: usize) {
        self.resize_for_overwrite(len);
        self.fill(0.0);
    }

    /// Set the length and the elements to those of `values`.
    pub(super) fn assign(&mut self, values: &[f64]) {
        self.resize_for_overwrite(values.len());
        self.copy_from_slice(values);
    }
}

/// The index of the first element of `raw` on a 64-byte boundary, at most [`SLACK`].
fn first_boundary(raw: &[f64]) -> usize {
    let start = raw.as_ptr().align_offset(ALIGN);
    debug_assert!(start <= SLACK);
    start
}

impl Deref for AlignedBuf {
    type Target = [f64];

    fn deref(&self) -> &[f64] {
        &self.raw[self.start..self.start + self.len]
    }
}

impl DerefMut for AlignedBuf {
    fn deref_mut(&mut self) -> &mut [f64] {
        &mut self.raw[self.start..self.start + self.len]
    }
}

/// A clone is a fresh allocation, aligned for itself.
impl Clone for AlignedBuf {
    fn clone(&self) -> Self {
        Self::from_slice(self)
    }
}

/// Equal when the elements are: the slack and the offset are not part of the value.
impl PartialEq for AlignedBuf {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl std::fmt::Debug for AlignedBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

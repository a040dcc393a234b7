//! A uniform experience-replay ring buffer.

use crate::transition::Transition;
use rand::Rng;

/// A fixed-capacity ring buffer of transitions with uniform random sampling.
///
/// Used by the non-prioritized agent variants (and as the baseline against which
/// prioritized experience replay is ablated).
#[derive(Debug, Clone)]
pub struct UniformReplay {
    capacity: usize,
    buffer: Vec<Transition>,
    next: usize,
}

impl UniformReplay {
    /// Create a buffer holding at most `capacity` transitions.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "replay capacity must be positive");
        Self {
            capacity,
            buffer: Vec::with_capacity(capacity.min(4096)),
            next: 0,
        }
    }

    /// Maximum number of stored transitions.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of stored transitions.
    pub fn len(&self) -> usize {
        self.buffer.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.buffer.is_empty()
    }

    /// Add a transition, evicting the oldest once the buffer is full.
    pub fn push(&mut self, transition: Transition) {
        if self.buffer.len() < self.capacity {
            self.buffer.push(transition);
        } else {
            self.buffer[self.next] = transition;
        }
        self.next = (self.next + 1) % self.capacity;
    }

    /// Sample `batch` transitions uniformly at random (with replacement).
    ///
    /// Returns fewer than `batch` items only when the buffer is empty.
    pub fn sample<R: Rng + ?Sized>(&self, batch: usize, rng: &mut R) -> Vec<&Transition> {
        if self.buffer.is_empty() {
            return Vec::new();
        }
        (0..batch)
            .map(|_| &self.buffer[rng.gen_range(0..self.buffer.len())])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn t(id: f64) -> Transition {
        Transition::terminal(vec![id], 0, id)
    }

    #[test]
    fn push_and_len() {
        let mut r = UniformReplay::new(3);
        assert!(r.is_empty());
        r.push(t(1.0));
        r.push(t(2.0));
        assert_eq!(r.len(), 2);
        assert_eq!(r.capacity(), 3);
    }

    #[test]
    fn eviction_replaces_oldest() {
        let mut r = UniformReplay::new(2);
        r.push(t(1.0));
        r.push(t(2.0));
        r.push(t(3.0));
        assert_eq!(r.len(), 2);
        let mut rng = StdRng::seed_from_u64(1);
        let rewards: Vec<f64> = r.sample(100, &mut rng).iter().map(|t| t.reward).collect();
        assert!(!rewards.contains(&1.0), "oldest transition must be gone");
        assert!(rewards.contains(&3.0));
    }

    #[test]
    fn sampling_from_empty_buffer_is_empty() {
        let r = UniformReplay::new(4);
        let mut rng = StdRng::seed_from_u64(2);
        assert!(r.sample(8, &mut rng).is_empty());
    }

    #[test]
    fn sampling_covers_contents() {
        let mut r = UniformReplay::new(10);
        for i in 0..10 {
            r.push(t(i as f64));
        }
        let mut rng = StdRng::seed_from_u64(3);
        let sampled: std::collections::HashSet<i64> = r
            .sample(500, &mut rng)
            .iter()
            .map(|t| t.reward as i64)
            .collect();
        assert_eq!(
            sampled.len(),
            10,
            "all entries should eventually be sampled"
        );
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        UniformReplay::new(0);
    }
}

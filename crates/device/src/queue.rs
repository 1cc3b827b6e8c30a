use std::collections::VecDeque;

use crate::{DeviceError, Step};

/// Lifetime counters maintained by a [`Queue`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Requests successfully enqueued.
    pub enqueued: u64,
    /// Requests rejected because the queue was full.
    pub dropped: u64,
    /// Requests dequeued (completed service).
    pub dequeued: u64,
    /// Sum over dequeued requests of slices spent waiting (arrival to
    /// dequeue).
    pub total_wait: u64,
}

impl QueueStats {
    /// Mean waiting time of completed requests, in slices.
    #[must_use]
    pub fn mean_wait(&self) -> f64 {
        if self.dequeued == 0 {
            0.0
        } else {
            self.total_wait as f64 / self.dequeued as f64
        }
    }
}

/// Bounded FIFO service queue storing the arrival time of each request.
///
/// The queue is the SQ component of the classic DPM system model. Arrival
/// timestamps allow per-request latency accounting when requests complete.
///
/// # Example
///
/// ```
/// use qdpm_device::Queue;
///
/// # fn main() -> Result<(), qdpm_device::DeviceError> {
/// let mut q = Queue::new(2)?;
/// assert!(q.push(0));
/// assert!(q.push(1));
/// assert!(!q.push(2)); // full -> dropped
/// assert_eq!(q.pop(5), Some(5)); // waited 5 slices
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Queue {
    capacity: usize,
    arrivals: VecDeque<Step>,
    stats: QueueStats,
}

impl Queue {
    /// Creates an empty queue holding at most `capacity` requests.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::ZeroQueueCapacity`] when `capacity == 0`.
    pub fn new(capacity: usize) -> Result<Self, DeviceError> {
        if capacity == 0 {
            return Err(DeviceError::ZeroQueueCapacity);
        }
        Ok(Queue {
            capacity,
            arrivals: VecDeque::with_capacity(capacity),
            stats: QueueStats::default(),
        })
    }

    /// Maximum number of requests the queue can hold.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of requests currently waiting.
    #[must_use]
    #[inline]
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// Whether the queue is empty.
    #[must_use]
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// Whether the queue is at capacity.
    #[must_use]
    #[inline]
    pub fn is_full(&self) -> bool {
        self.arrivals.len() == self.capacity
    }

    /// Enqueues a request arriving at slice `now`. Returns `false` (and
    /// counts a drop) when the queue is full.
    #[inline]
    pub fn push(&mut self, now: Step) -> bool {
        if self.is_full() {
            self.stats.dropped += 1;
            false
        } else {
            self.arrivals.push_back(now);
            self.stats.enqueued += 1;
            true
        }
    }

    /// Dequeues the oldest request at slice `now`, returning the number of
    /// slices it waited, or `None` when empty.
    #[inline]
    pub fn pop(&mut self, now: Step) -> Option<u64> {
        let arrived = self.arrivals.pop_front()?;
        let wait = now.saturating_sub(arrived);
        self.stats.dequeued += 1;
        self.stats.total_wait += wait;
        Some(wait)
    }

    /// Arrival time of the oldest waiting request.
    #[must_use]
    pub fn head_arrival(&self) -> Option<Step> {
        self.arrivals.front().copied()
    }

    /// Lifetime counters.
    #[must_use]
    pub fn stats(&self) -> &QueueStats {
        &self.stats
    }

    /// Arrival timestamps of all waiting requests, oldest first
    /// (checkpoint capture; pairs with [`Queue::restore`]).
    pub fn arrival_times(&self) -> impl Iterator<Item = Step> + '_ {
        self.arrivals.iter().copied()
    }

    /// Overwrites the waiting requests and lifetime counters wholesale
    /// (checkpoint restore). `arrivals` must be oldest-first, as produced
    /// by [`Queue::arrival_times`].
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::QueueOverflow`] when `arrivals` exceeds this
    /// queue's capacity.
    pub fn restore(&mut self, arrivals: &[Step], stats: QueueStats) -> Result<(), DeviceError> {
        if arrivals.len() > self.capacity {
            return Err(DeviceError::QueueOverflow {
                len: arrivals.len(),
                capacity: self.capacity,
            });
        }
        self.arrivals.clear();
        self.arrivals.extend(arrivals.iter().copied());
        self.stats = stats;
        Ok(())
    }

    /// Empties the queue and zeroes the counters.
    pub fn reset(&mut self) {
        self.arrivals.clear();
        self.stats = QueueStats::default();
    }

    /// Removes every waiting request without dequeuing them, returning how
    /// many were removed. Models a device crash losing (or a coordinator
    /// harvesting) its queue: the lifetime counters are deliberately left
    /// untouched — the removed requests were neither served nor dropped at
    /// admission, so `enqueued` permanently exceeds `dequeued + len` and the
    /// caller must account the stranded requests (as lost, retried, or
    /// shed) in its own books.
    pub fn drain_all(&mut self) -> usize {
        let n = self.arrivals.len();
        self.arrivals.clear();
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_zero_capacity() {
        assert_eq!(Queue::new(0).unwrap_err(), DeviceError::ZeroQueueCapacity);
    }

    #[test]
    fn fifo_order_and_wait_accounting() {
        let mut q = Queue::new(4).unwrap();
        q.push(10);
        q.push(12);
        assert_eq!(q.pop(15), Some(5));
        assert_eq!(q.pop(15), Some(3));
        assert_eq!(q.pop(15), None);
        assert_eq!(q.stats().total_wait, 8);
        assert!((q.stats().mean_wait() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn drops_when_full() {
        let mut q = Queue::new(1).unwrap();
        assert!(q.push(0));
        assert!(!q.push(1));
        assert_eq!(q.stats().dropped, 1);
        assert_eq!(q.stats().enqueued, 1);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn conservation_counter_invariant() {
        let mut q = Queue::new(3).unwrap();
        for now in 0..10 {
            q.push(now);
            if now % 2 == 0 {
                q.pop(now);
            }
        }
        let s = *q.stats();
        assert_eq!(s.enqueued, s.dequeued + q.len() as u64);
        assert_eq!(s.enqueued + s.dropped, 10);
    }

    #[test]
    fn reset_clears_everything() {
        let mut q = Queue::new(2).unwrap();
        q.push(0);
        q.pop(1);
        q.reset();
        assert!(q.is_empty());
        assert_eq!(*q.stats(), QueueStats::default());
    }

    #[test]
    fn head_arrival_peeks_without_removing() {
        let mut q = Queue::new(2).unwrap();
        assert_eq!(q.head_arrival(), None);
        q.push(7);
        assert_eq!(q.head_arrival(), Some(7));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn mean_wait_empty_is_zero() {
        let q = Queue::new(2).unwrap();
        assert_eq!(q.stats().mean_wait(), 0.0);
    }
}

//! Timing delegates: a [`PowerManager`] and a [`RequestGenerator`] that
//! forward every trait method to the wrapped value and time the calls that
//! do the per-slice work.
//!
//! The simulator owns its manager and generator as boxed trait objects, so
//! the totals live in a shared [`Spans`] the benchmark keeps a handle to.
//! Forwarding every method (not only the timed ones) matters: a trait
//! default left in place of the inner override would change the run, and
//! the digest tests would catch it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use qdpm_core::{Observation, PowerManager, StateError, StateReader, StateWriter, StepOutcome};
use qdpm_device::PowerStateId;
use qdpm_workload::{ArrivalGap, RequestGenerator};
use rand::Rng;

/// Total host time and call count of one span name.
#[derive(Debug, Default)]
pub struct Span {
    ns: AtomicU64,
    calls: AtomicU64,
}

impl Span {
    /// Adds one call that started at `start`.
    pub fn add_since(&self, start: Instant) {
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.add(ns);
    }

    /// Adds one call of `ns` nanoseconds.
    pub fn add(&self, ns: u64) {
        // Relaxed: plain statistics, read once the run has finished.
        self.ns.fetch_add(ns, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
    }

    /// Total nanoseconds recorded.
    #[must_use]
    pub fn ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }

    /// Calls recorded.
    #[must_use]
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

/// The spans the single-device delegates record.
#[derive(Debug, Default)]
pub struct Spans {
    /// [`PowerManager::decide`].
    pub decide: Span,
    /// [`PowerManager::observe`] (reward and Q-update).
    pub observe: Span,
    /// [`RequestGenerator::next_arrivals`].
    pub next_arrivals: Span,
}

/// Times `decide` and `observe` of the wrapped manager.
#[derive(Debug)]
pub struct TimedManager {
    inner: Box<dyn PowerManager>,
    spans: Arc<Spans>,
}

impl TimedManager {
    /// Wraps `inner`, recording into `spans`.
    #[must_use]
    pub fn new(inner: Box<dyn PowerManager>, spans: Arc<Spans>) -> Self {
        TimedManager { inner, spans }
    }
}

impl PowerManager for TimedManager {
    fn decide(&mut self, obs: &Observation, rng: &mut dyn Rng) -> PowerStateId {
        let start = Instant::now();
        let command = self.inner.decide(obs, rng);
        self.spans.decide.add_since(start);
        command
    }

    fn observe(&mut self, outcome: &StepOutcome, next_obs: &Observation) {
        let start = Instant::now();
        self.inner.observe(outcome, next_obs);
        self.spans.observe.add_since(start);
    }

    fn commit_quiescent(
        &mut self,
        obs: &Observation,
        per_slice: &StepOutcome,
        max: u64,
        rng: &mut dyn Rng,
    ) -> u64 {
        self.inner.commit_quiescent(obs, per_slice, max, rng)
    }

    fn save_state(&self, w: &mut StateWriter) {
        self.inner.save_state(w);
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        self.inner.load_state(r)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Times `next_arrivals` of the wrapped generator.
#[derive(Debug)]
pub struct TimedGenerator {
    inner: Box<dyn RequestGenerator>,
    spans: Arc<Spans>,
}

impl TimedGenerator {
    /// Wraps `inner`, recording into `spans`.
    #[must_use]
    pub fn new(inner: Box<dyn RequestGenerator>, spans: Arc<Spans>) -> Self {
        TimedGenerator { inner, spans }
    }
}

impl RequestGenerator for TimedGenerator {
    fn next_arrivals(&mut self, rng: &mut dyn Rng) -> u32 {
        let start = Instant::now();
        let count = self.inner.next_arrivals(rng);
        self.spans.next_arrivals.add_since(start);
        count
    }

    fn mode(&self) -> usize {
        self.inner.mode()
    }

    fn n_modes(&self) -> usize {
        self.inner.n_modes()
    }

    fn next_arrival_gap(&mut self, rng: &mut dyn Rng, limit: u64) -> ArrivalGap {
        self.inner.next_arrival_gap(rng, limit)
    }

    fn mean_rate(&self) -> Option<f64> {
        self.inner.mean_rate()
    }

    fn save_state(&self, w: &mut StateWriter) {
        self.inner.save_state(w);
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        self.inner.load_state(r)
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

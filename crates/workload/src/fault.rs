//! Ahead-of-time fault planning and failure-aware retry.
//!
//! The failure domain must obey the same determinism contract as the
//! arrival stream: a fault-injected run is **bit-exact** across engine
//! modes (per-slice vs event-skipping) and across thread counts. Both
//! properties fall out of the same trick the workload split uses — plan
//! everything *ahead of* simulation from seeded, per-device SplitMix64
//! streams, so no fault decision ever reads simulation state or thread
//! timing:
//!
//! * a [`FaultInjector`] is the sampler spec (per-slice crash / fail-stop /
//!   straggle probabilities and the shape of each fault);
//! * [`FaultInjector::plan`] materializes a [`FaultPlan`] — one sorted
//!   `Vec<FaultEvent>` per device over a fixed horizon. The per-device
//!   stream is indexed by `(device, slice)`, so skipping busy slices never
//!   shifts any other device's draws;
//! * a [`RetryQueue`] holds arrivals harvested off a crashed device and
//!   re-dispatches them after a deterministic slice-count backoff, with a
//!   bounded attempt budget; exhaustion sheds with a typed
//!   [`ShedReason`].
//!
//! [`FaultKind`], [`FaultEvent`] and the device-side [`FaultState`](qdpm_device::FaultState)
//! live in `qdpm-device`; this module re-exports the planning-relevant
//! types so fleet code can name them from one place.

use std::collections::VecDeque;

pub use qdpm_device::{FaultEvent, FaultKind};

use qdpm_core::rng_util::splitmix64;
use qdpm_core::state_io::{StateError, StateReader, StateWriter};

use crate::{Step, WorkloadError};

/// Why an arrival was shed (dropped by the coordination layer rather than
/// at a device queue's admission control).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// A rack power budget left no device able to absorb the arrival.
    PowerBudget,
    /// Every device in the fleet was down.
    NoHealthyDevice,
    /// A stranded arrival exhausted its retry budget.
    RetryBudgetExhausted,
}

impl ShedReason {
    /// Short display name for reports.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            ShedReason::PowerBudget => "power-budget",
            ShedReason::NoHealthyDevice => "no-healthy-device",
            ShedReason::RetryBudgetExhausted => "retry-budget-exhausted",
        }
    }
}

/// Seeded sampler spec for ahead-of-time fault planning.
///
/// All rates are per-slice probabilities in `[0, 1]`; their sum must not
/// exceed 1 (each candidate slice draws one uniform and compares it against
/// cumulative thresholds: crash, then fail-stop, then straggle). A device
/// with an active fault draws no new fault until the window expires, and a
/// fail-stop ends its schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultInjector {
    /// Per-slice probability of a transient crash.
    pub crash_rate: f64,
    /// Downtime of a transient crash, in slices (clamped to at least 1).
    pub crash_down: u64,
    /// Per-slice probability of a permanent fail-stop.
    pub fail_stop_rate: f64,
    /// Per-slice probability of a straggler window opening.
    pub straggle_rate: f64,
    /// Straggler service-opportunity divisor (clamped to at least 1).
    pub straggle_slowdown: u64,
    /// Straggler window length, in slices.
    pub straggle_window: u64,
    /// Energy a down device draws per slice.
    pub down_power: f64,
}

impl Default for FaultInjector {
    fn default() -> Self {
        FaultInjector {
            crash_rate: 0.0,
            crash_down: 250,
            fail_stop_rate: 0.0,
            straggle_rate: 0.0,
            straggle_slowdown: 4,
            straggle_window: 500,
            down_power: 0.0,
        }
    }
}

impl FaultInjector {
    /// Validates the rates and shapes.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidProbability`] when any rate is not a
    /// probability, and [`WorkloadError::InvalidFaultSpec`] when the rates
    /// sum past 1 or the down power is non-finite or negative.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        for (what, rate) in [
            ("crash rate", self.crash_rate),
            ("fail-stop rate", self.fail_stop_rate),
            ("straggle rate", self.straggle_rate),
        ] {
            if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
                return Err(WorkloadError::InvalidProbability { what, value: rate });
            }
        }
        let total = self.crash_rate + self.fail_stop_rate + self.straggle_rate;
        if total > 1.0 {
            return Err(WorkloadError::InvalidFaultSpec(format!(
                "fault rates sum to {total}, past 1"
            )));
        }
        if !self.down_power.is_finite() || self.down_power < 0.0 {
            return Err(WorkloadError::InvalidFaultSpec(format!(
                "down power {} must be finite and non-negative",
                self.down_power
            )));
        }
        Ok(())
    }

    /// Whether this spec can ever produce a fault.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.crash_rate > 0.0 || self.fail_stop_rate > 0.0 || self.straggle_rate > 0.0
    }

    /// Materializes the fault schedule for `n_devices` devices over
    /// `horizon` slices.
    ///
    /// Device `i`'s stream is salted with `splitmix64(seed, i)` (the
    /// `derive_cell_seed` idiom) and indexed by absolute slice, so the plan
    /// is independent of engine mode, thread count, and every other
    /// device's faults. Onsets start at slice 1 — slice 0 is the
    /// conventional "fleet starts healthy" boundary.
    #[must_use]
    pub fn plan(&self, n_devices: usize, horizon: u64, seed: u64) -> FaultPlan {
        let crash_t = self.crash_rate;
        let stop_t = crash_t + self.fail_stop_rate;
        let straggle_t = stop_t + self.straggle_rate;
        let mut per_device = Vec::with_capacity(n_devices);
        for device in 0..n_devices {
            let device_seed = splitmix64(seed, device as u64);
            let mut events = Vec::new();
            if self.is_active() {
                let mut busy_until = 0u64;
                for at in 1..horizon {
                    if at < busy_until {
                        continue;
                    }
                    let word = splitmix64(device_seed, at);
                    let u = (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
                    if u < crash_t {
                        let down_for = self.crash_down.max(1);
                        events.push(FaultEvent {
                            at,
                            kind: FaultKind::TransientCrash {
                                down_for,
                                down_power: self.down_power,
                            },
                        });
                        busy_until = at.saturating_add(down_for);
                    } else if u < stop_t {
                        events.push(FaultEvent {
                            at,
                            kind: FaultKind::FailStop {
                                down_power: self.down_power,
                            },
                        });
                        break;
                    } else if u < straggle_t {
                        events.push(FaultEvent {
                            at,
                            kind: FaultKind::Straggler {
                                slowdown: self.straggle_slowdown.max(1),
                                window: self.straggle_window,
                            },
                        });
                        busy_until = at.saturating_add(self.straggle_window);
                    }
                }
            }
            per_device.push(events);
        }
        FaultPlan { per_device }
    }
}

/// A materialized fault schedule: per-device, slice-sorted fault events.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    per_device: Vec<Vec<FaultEvent>>,
}

impl FaultPlan {
    /// An empty plan for `n_devices` devices (no faults anywhere).
    #[must_use]
    pub fn empty(n_devices: usize) -> Self {
        FaultPlan {
            per_device: vec![Vec::new(); n_devices],
        }
    }

    /// Number of devices planned for.
    #[must_use]
    pub fn n_devices(&self) -> usize {
        self.per_device.len()
    }

    /// Device `i`'s schedule, slice-sorted.
    #[must_use]
    pub fn device(&self, i: usize) -> &[FaultEvent] {
        &self.per_device[i]
    }

    /// Whether any device has any fault scheduled.
    #[must_use]
    pub fn any(&self) -> bool {
        self.per_device.iter().any(|d| !d.is_empty())
    }
}

/// One batch of stranded arrivals awaiting re-dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryJob {
    /// How many arrivals this batch carries (all stranded together on the
    /// same device at the same slice).
    pub jobs: u32,
    /// Redispatch attempts already consumed.
    pub attempt: u32,
    /// First slice at which the batch may be re-dispatched.
    pub ready_at: Step,
}

/// Bounded-budget retry of arrivals stranded on a failed device, with
/// deterministic slice-count backoff.
///
/// Each harvested batch waits `backoff_base` slices before its first
/// re-dispatch attempt, and `backoff_base << attempt` before each
/// subsequent one; after `budget` failed attempts the batch is shed with
/// [`ShedReason::RetryBudgetExhausted`]. All waits are slice counts derived
/// from configuration — no randomness, no wall-clock — so retry timing is
/// bit-exact across engine modes and thread counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryQueue {
    jobs: VecDeque<RetryJob>,
    budget: u32,
    backoff_base: u64,
    enqueued: u64,
    redispatched: u64,
    dropped: u64,
}

impl RetryQueue {
    /// Creates a retry queue allowing `budget` re-dispatch attempts per
    /// batch with a base backoff of `backoff_base` slices (both clamped to
    /// at least 1).
    #[must_use]
    pub fn new(budget: u32, backoff_base: u64) -> Self {
        RetryQueue {
            jobs: VecDeque::new(),
            budget: budget.max(1),
            backoff_base: backoff_base.max(1),
            enqueued: 0,
            redispatched: 0,
            dropped: 0,
        }
    }

    /// Enqueues `count` arrivals stranded at slice `now`; they become
    /// eligible for re-dispatch after the base backoff.
    pub fn push(&mut self, count: u32, now: Step) {
        if count == 0 {
            return;
        }
        self.enqueued += u64::from(count);
        self.jobs.push_back(RetryJob {
            jobs: count,
            attempt: 0,
            ready_at: now.saturating_add(self.backoff_base),
        });
    }

    /// Removes and returns the first batch eligible at slice `now`, in
    /// queue order.
    pub fn pop_ready(&mut self, now: Step) -> Option<RetryJob> {
        let idx = self.jobs.iter().position(|j| j.ready_at <= now)?;
        self.jobs.remove(idx)
    }

    /// Records a successful re-dispatch of `job`.
    pub fn mark_redispatched(&mut self, job: &RetryJob) {
        self.redispatched += u64::from(job.jobs);
    }

    /// A popped batch found no healthy target: consumes one attempt and
    /// either re-queues it with doubled backoff (returns `true`) or sheds
    /// it when the budget is exhausted (returns `false`, counting the
    /// drop).
    pub fn requeue(&mut self, mut job: RetryJob, now: Step) -> bool {
        job.attempt += 1;
        if job.attempt >= self.budget {
            self.dropped += u64::from(job.jobs);
            return false;
        }
        let backoff = self
            .backoff_base
            .saturating_mul(1u64.checked_shl(job.attempt).unwrap_or(u64::MAX).max(1));
        job.ready_at = now.saturating_add(backoff);
        self.jobs.push_back(job);
        true
    }

    /// Earliest slice at which any queued batch becomes eligible.
    #[must_use]
    pub fn next_ready(&self) -> Option<Step> {
        self.jobs.iter().map(|j| j.ready_at).min()
    }

    /// Arrivals currently waiting for re-dispatch.
    #[must_use]
    pub fn pending(&self) -> u64 {
        self.jobs.iter().map(|j| u64::from(j.jobs)).sum()
    }

    /// Lifetime arrivals pushed into the retry queue.
    #[must_use]
    pub fn enqueued(&self) -> u64 {
        self.enqueued
    }

    /// Lifetime arrivals successfully re-dispatched.
    #[must_use]
    pub fn redispatched(&self) -> u64 {
        self.redispatched
    }

    /// Lifetime arrivals shed after exhausting the retry budget.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Serializes the queue contents and counters (configuration —
    /// budget and backoff — is rebuilt from config, not checkpointed).
    pub fn save_state(&self, w: &mut StateWriter) {
        w.put_usize(self.jobs.len());
        for job in &self.jobs {
            w.put_u32(job.jobs);
            w.put_u32(job.attempt);
            w.put_u64(job.ready_at);
        }
        w.put_u64(self.enqueued);
        w.put_u64(self.redispatched);
        w.put_u64(self.dropped);
    }

    /// Restores queue contents and counters saved by
    /// [`RetryQueue::save_state`].
    ///
    /// # Errors
    ///
    /// Returns a [`StateError`] on truncated or malformed payloads.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        let len = r.get_usize()?;
        let mut jobs = VecDeque::with_capacity(len);
        for _ in 0..len {
            let count = r.get_u32()?;
            let attempt = r.get_u32()?;
            let ready_at = r.get_u64()?;
            jobs.push_back(RetryJob {
                jobs: count,
                attempt,
                ready_at,
            });
        }
        self.jobs = jobs;
        self.enqueued = r.get_u64()?;
        self.redispatched = r.get_u64()?;
        self.dropped = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crashy() -> FaultInjector {
        FaultInjector {
            crash_rate: 0.001,
            crash_down: 50,
            fail_stop_rate: 0.0002,
            straggle_rate: 0.002,
            straggle_slowdown: 3,
            straggle_window: 100,
            down_power: 0.05,
        }
    }

    #[test]
    fn plan_is_deterministic_and_per_device_independent() {
        let spec = crashy();
        let a = spec.plan(8, 20_000, 77);
        let b = spec.plan(8, 20_000, 77);
        assert_eq!(a, b, "same seed, same plan");
        // Growing the fleet does not disturb existing devices' streams.
        let wider = spec.plan(12, 20_000, 77);
        for i in 0..8 {
            assert_eq!(a.device(i), wider.device(i), "device {i} stream shifted");
        }
        // A different seed produces a different plan somewhere.
        let c = spec.plan(8, 20_000, 78);
        assert_ne!(a, c);
    }

    #[test]
    fn plan_respects_windows_and_fail_stop_finality() {
        let plan = crashy().plan(16, 100_000, 1234);
        assert!(plan.any(), "rates this high must fire somewhere");
        for i in 0..plan.n_devices() {
            let events = plan.device(i);
            let mut busy_until = 0u64;
            for (k, e) in events.iter().enumerate() {
                assert!(e.at >= 1, "onsets start at slice 1");
                assert!(e.at >= busy_until, "device {i} event {k} overlaps");
                match e.kind {
                    FaultKind::TransientCrash { down_for, .. } => {
                        busy_until = e.at + down_for;
                    }
                    FaultKind::Straggler { window, .. } => busy_until = e.at + window,
                    FaultKind::FailStop { .. } => {
                        assert_eq!(k, events.len() - 1, "fail-stop must be terminal");
                    }
                }
            }
        }
    }

    #[test]
    fn zero_rates_plan_nothing() {
        let plan = FaultInjector::default().plan(4, 50_000, 42);
        assert!(!plan.any());
    }

    #[test]
    fn injector_validation_rejects_bad_rates() {
        let mut f = FaultInjector::default();
        assert!(f.validate().is_ok());
        f.crash_rate = 1.5;
        assert!(f.validate().is_err());
        f.crash_rate = 0.6;
        f.straggle_rate = 0.6;
        assert!(f.validate().is_err(), "rates summing past 1 are rejected");
        f.straggle_rate = 0.0;
        f.down_power = -1.0;
        assert!(f.validate().is_err());
    }

    #[test]
    fn retry_backoff_doubles_and_budget_sheds() {
        let mut q = RetryQueue::new(3, 4);
        q.push(5, 100);
        assert_eq!(q.pending(), 5);
        assert_eq!(q.next_ready(), Some(104));
        assert!(q.pop_ready(103).is_none(), "not eligible before backoff");
        let job = q.pop_ready(104).expect("eligible at ready_at");
        assert_eq!(job.jobs, 5);
        // No healthy target: requeue with doubled backoff.
        assert!(q.requeue(job, 104));
        assert_eq!(q.next_ready(), Some(104 + 8));
        let job = q.pop_ready(112).unwrap();
        assert!(q.requeue(job, 112));
        assert_eq!(q.next_ready(), Some(112 + 16));
        let job = q.pop_ready(128).unwrap();
        // Third failed attempt exhausts the budget of 3.
        assert!(!q.requeue(job, 128));
        assert_eq!(q.dropped(), 5);
        assert_eq!(q.pending(), 0);
    }

    #[test]
    fn retry_queue_round_trips_through_state_io() {
        let mut q = RetryQueue::new(5, 2);
        q.push(3, 10);
        q.push(1, 12);
        let job = q.pop_ready(12).unwrap();
        q.mark_redispatched(&job);
        let mut w = StateWriter::new();
        q.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut restored = RetryQueue::new(5, 2);
        restored.load_state(&mut StateReader::new(&bytes)).unwrap();
        assert_eq!(q, restored);
        assert_eq!(restored.redispatched(), 3);
    }
}

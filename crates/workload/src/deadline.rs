//! Deadline-tagged requests: per-request deadline draws and the
//! met/missed/slack ledger.
//!
//! The Q-DPM reproduction's baseline workloads are latency-weighted but
//! deadline-free. This module adds the hard-deadline vocabulary of the
//! integrated DPM+DVFS literature: each arriving request draws a
//! *relative* deadline from a [`DeadlineSpec`] at enqueue time, and a
//! [`DeadlineStats`] ledger classifies every tagged request into exactly
//! one terminal bucket (met, missed, dropped at admission, requeued for
//! retry, or lost to a crash) so fleet-level conservation can be asserted.
//!
//! Draws are *not* taken from the simulation's `StdRng` streams: each
//! request's deadline comes from `splitmix64(deadline_seed, counter)`
//! with a per-device monotone counter. This keeps every existing RNG
//! stream (arrivals, policy, service, noise) byte-identical whether or
//! not deadlines are enabled, and — because the counter only advances on
//! arrival slices, which the event-skipping engine always executes
//! per-slice — keeps deadline draws bit-exact across engine modes and
//! thread counts.

use qdpm_core::rng_util::splitmix64;
use qdpm_core::{StateError, StateReader, StateWriter};

use crate::WorkloadError;

/// How the relative deadline of each tagged request is drawn at enqueue.
///
/// The drawn value is in slices *from the arrival slice*; the absolute
/// deadline of a request arriving at slice `t` is `t + draw`. A request
/// completing at slice `d` with absolute deadline `d` is on time
/// (deadlines are inclusive).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeadlineSpec {
    /// Every request gets the same relative deadline.
    Fixed(
        /// Relative deadline in slices, at least 1.
        u64,
    ),
    /// Relative deadlines drawn uniformly from the inclusive range
    /// `[lo, hi]`.
    Uniform {
        /// Smallest relative deadline, at least 1.
        lo: u64,
        /// Largest relative deadline, `>= lo`.
        hi: u64,
    },
}

impl DeadlineSpec {
    /// A fixed relative deadline of `slices`.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidDeadline`] when `slices == 0` (a
    /// request could never meet it).
    pub fn fixed(slices: u64) -> Result<Self, WorkloadError> {
        if slices == 0 {
            return Err(WorkloadError::InvalidDeadline(
                "fixed deadline must be at least 1 slice".into(),
            ));
        }
        Ok(DeadlineSpec::Fixed(slices))
    }

    /// Uniform relative deadlines over the inclusive range `[lo, hi]`.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidDeadline`] when `lo == 0` or
    /// `hi < lo`.
    pub fn uniform(lo: u64, hi: u64) -> Result<Self, WorkloadError> {
        if lo == 0 {
            return Err(WorkloadError::InvalidDeadline(
                "uniform deadline lower bound must be at least 1 slice".into(),
            ));
        }
        if hi < lo {
            return Err(WorkloadError::InvalidDeadline(format!(
                "uniform deadline range [{lo}, {hi}] is inverted"
            )));
        }
        Ok(DeadlineSpec::Uniform { lo, hi })
    }

    /// The deterministic relative-deadline draw for the `counter`-th
    /// tagged request of the stream seeded by `seed`.
    ///
    /// Uniform draws map a `splitmix64` word into the range by modulo —
    /// the (at most 2⁻⁴⁴ for any practical range) modulo bias is
    /// irrelevant here and the arithmetic is exactly reproducible on
    /// every platform, which is what the engine-conformance contract
    /// needs.
    #[must_use]
    pub fn draw(&self, seed: u64, counter: u64) -> u64 {
        match *self {
            DeadlineSpec::Fixed(d) => d,
            DeadlineSpec::Uniform { lo, hi } => {
                let span = hi - lo + 1;
                lo + splitmix64(seed, counter) % span
            }
        }
    }

    /// Mean relative deadline in slices.
    #[must_use]
    pub fn mean(&self) -> f64 {
        match *self {
            DeadlineSpec::Fixed(d) => d as f64,
            DeadlineSpec::Uniform { lo, hi } => (lo + hi) as f64 / 2.0,
        }
    }
}

/// Ledger of deadline-tagged requests: every tagged arrival lands in
/// exactly one terminal bucket (or is still waiting in a queue), so
///
/// ```text
/// tagged == met + missed + dropped + requeued + lost + in_queue
/// ```
///
/// holds at every slice — the fleet-level conservation law the chaos
/// suite asserts. `requeued` requests re-enter some device's arrival
/// path later and are tagged *again* there (with a fresh deadline), so
/// the identity stays balanced across retry hops.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeadlineStats {
    /// Tagged requests observed at admission (enqueued or dropped).
    pub tagged: u64,
    /// Completed on or before their absolute deadline.
    pub met: u64,
    /// Completed after their absolute deadline.
    pub missed: u64,
    /// Rejected at admission by a full queue (never enqueued).
    pub dropped: u64,
    /// Harvested out of the queue for re-dispatch elsewhere (rack retry);
    /// the re-dispatched copies draw fresh deadlines at their new device.
    pub requeued: u64,
    /// Lost with a crashed device's queue (fault without queue
    /// preservation, or unharvested at the end of a run).
    pub lost: u64,
    /// Sum over met requests of slices of slack (deadline − completion).
    pub slack_sum: u64,
    /// Sum over missed requests of slices of tardiness
    /// (completion − deadline).
    pub tardiness_sum: u64,
}

impl DeadlineStats {
    /// Tagged requests that reached a terminal bucket.
    #[must_use]
    pub fn settled(&self) -> u64 {
        self.met + self.missed + self.dropped + self.requeued + self.lost
    }

    /// Fraction of *completed* tagged requests that missed their
    /// deadline (`missed / (met + missed)`; 0 when none completed).
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        let done = self.met + self.missed;
        if done == 0 {
            0.0
        } else {
            self.missed as f64 / done as f64
        }
    }

    /// Mean slack of met requests, in slices (0 when none met).
    #[must_use]
    pub fn mean_slack(&self) -> f64 {
        if self.met == 0 {
            0.0
        } else {
            self.slack_sum as f64 / self.met as f64
        }
    }

    /// Mean tardiness of missed requests, in slices (0 when none missed).
    #[must_use]
    pub fn mean_tardiness(&self) -> f64 {
        if self.missed == 0 {
            0.0
        } else {
            self.tardiness_sum as f64 / self.missed as f64
        }
    }

    /// Accumulates another ledger into this one (fleet aggregation).
    pub fn merge(&mut self, other: &DeadlineStats) {
        self.tagged += other.tagged;
        self.met += other.met;
        self.missed += other.missed;
        self.dropped += other.dropped;
        self.requeued += other.requeued;
        self.lost += other.lost;
        self.slack_sum += other.slack_sum;
        self.tardiness_sum += other.tardiness_sum;
    }

    /// Checkpoint support: appends the ledger to a payload.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.put_u64(self.tagged);
        w.put_u64(self.met);
        w.put_u64(self.missed);
        w.put_u64(self.dropped);
        w.put_u64(self.requeued);
        w.put_u64(self.lost);
        w.put_u64(self.slack_sum);
        w.put_u64(self.tardiness_sum);
    }

    /// Checkpoint support: restores a ledger written by
    /// [`DeadlineStats::save_state`].
    ///
    /// # Errors
    ///
    /// Returns a [`StateError`] when the payload does not decode.
    pub fn load_state(r: &mut StateReader<'_>) -> Result<Self, StateError> {
        Ok(DeadlineStats {
            tagged: r.get_u64()?,
            met: r.get_u64()?,
            missed: r.get_u64()?,
            dropped: r.get_u64()?,
            requeued: r.get_u64()?,
            lost: r.get_u64()?,
            slack_sum: r.get_u64()?,
            tardiness_sum: r.get_u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_validation() {
        assert!(DeadlineSpec::fixed(1).is_ok());
        assert!(DeadlineSpec::fixed(0).is_err());
        assert!(DeadlineSpec::uniform(2, 10).is_ok());
        assert!(DeadlineSpec::uniform(2, 2).is_ok());
        assert!(DeadlineSpec::uniform(0, 5).is_err());
        assert!(DeadlineSpec::uniform(6, 5).is_err());
    }

    #[test]
    fn fixed_draw_ignores_stream() {
        let spec = DeadlineSpec::fixed(7).unwrap();
        assert_eq!(spec.draw(1, 0), 7);
        assert_eq!(spec.draw(99, 12345), 7);
        assert_eq!(spec.mean(), 7.0);
    }

    #[test]
    fn uniform_draw_stays_in_range_and_is_deterministic() {
        let spec = DeadlineSpec::uniform(3, 9).unwrap();
        for counter in 0..1000 {
            let d = spec.draw(42, counter);
            assert!((3..=9).contains(&d), "draw {d} outside [3, 9]");
            assert_eq!(d, spec.draw(42, counter), "redraw differs");
        }
        // Different seeds give different sequences (probabilistically
        // certain for 1000 draws over 7 values).
        let a: Vec<u64> = (0..1000).map(|c| spec.draw(1, c)).collect();
        let b: Vec<u64> = (0..1000).map(|c| spec.draw(2, c)).collect();
        assert_ne!(a, b);
        assert_eq!(spec.mean(), 6.0);
    }

    #[test]
    fn uniform_draw_covers_the_full_range() {
        let spec = DeadlineSpec::uniform(1, 4).unwrap();
        let mut seen = [false; 5];
        for counter in 0..256 {
            seen[spec.draw(7, counter) as usize] = true;
        }
        assert_eq!(seen, [false, true, true, true, true]);
    }

    #[test]
    fn ledger_conservation_vocabulary() {
        let s = DeadlineStats {
            tagged: 10,
            met: 4,
            missed: 2,
            dropped: 1,
            requeued: 2,
            lost: 1,
            ..Default::default()
        };
        assert_eq!(s.settled(), 10);
        assert!((s.miss_rate() - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn rates_handle_empty_ledgers() {
        let s = DeadlineStats::default();
        assert_eq!(s.miss_rate(), 0.0);
        assert_eq!(s.mean_slack(), 0.0);
        assert_eq!(s.mean_tardiness(), 0.0);
    }

    #[test]
    fn merge_accumulates_everything() {
        let mut a = DeadlineStats {
            tagged: 5,
            met: 3,
            missed: 1,
            dropped: 1,
            requeued: 0,
            lost: 0,
            slack_sum: 9,
            tardiness_sum: 4,
        };
        let b = DeadlineStats {
            tagged: 2,
            met: 1,
            missed: 1,
            dropped: 0,
            requeued: 0,
            lost: 0,
            slack_sum: 2,
            tardiness_sum: 3,
        };
        a.merge(&b);
        assert_eq!(a.tagged, 7);
        assert_eq!(a.met, 4);
        assert_eq!(a.slack_sum, 11);
        assert_eq!(a.tardiness_sum, 7);
        assert!((a.mean_slack() - 11.0 / 4.0).abs() < 1e-12);
        assert!((a.mean_tardiness() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn state_round_trip() {
        let s = DeadlineStats {
            tagged: 11,
            met: 5,
            missed: 2,
            dropped: 1,
            requeued: 2,
            lost: 1,
            slack_sum: 17,
            tardiness_sum: 6,
        };
        let mut w = StateWriter::new();
        s.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        assert_eq!(DeadlineStats::load_state(&mut r).unwrap(), s);
    }
}

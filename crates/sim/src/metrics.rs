use qdpm_core::{RewardWeights, StepOutcome};
use qdpm_device::Step;

/// Aggregate statistics of a simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunStats {
    /// Slices simulated.
    pub steps: Step,
    /// Total energy consumed.
    pub total_energy: f64,
    /// Total weighted cost (energy + weighted perf, the learner's
    /// negated-reward).
    pub total_cost: f64,
    /// Requests that arrived.
    pub arrivals: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests dropped by a full queue.
    pub dropped: u64,
    /// Sum of end-of-slice queue lengths (for the average).
    pub queue_len_sum: f64,
    /// Sum of per-request waiting times of completed requests, in slices.
    pub total_wait: u64,
}

/// Availability accounting of one simulated device under fault injection:
/// counters the fault clock moves alongside the per-slice [`RunStats`].
/// All-zero for fault-free runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Fault events applied to the device (crash, fail-stop or straggler
    /// onsets — expiries are not counted).
    pub faults_injected: u64,
    /// Slices spent down (serving nothing, drawing fault power).
    pub downtime_slices: u64,
    /// Requests lost from the queue at crash onsets (already-admitted
    /// arrivals that were neither served nor dropped at admission). A
    /// coordinator that harvests the queue for retry before the onset
    /// slice leaves this at zero and accounts the strands itself.
    pub queue_lost: u64,
}

impl FaultStats {
    /// Folds another device's counters into these (fleet aggregation).
    pub fn merge(&mut self, other: &FaultStats) {
        self.faults_injected += other.faults_injected;
        self.downtime_slices += other.downtime_slices;
        self.queue_lost += other.queue_lost;
    }
}

impl RunStats {
    /// Creates zeroed statistics.
    #[must_use]
    pub fn new() -> Self {
        RunStats::default()
    }

    /// Folds one slice's outcome into the totals. `wait_of_completed` is
    /// the waiting time recorded when a request completed this slice.
    #[inline]
    pub fn record(
        &mut self,
        outcome: &StepOutcome,
        weights: &RewardWeights,
        wait_of_completed: u64,
    ) {
        self.steps += 1;
        self.total_energy += outcome.energy;
        self.total_cost += -weights.reward(outcome);
        self.arrivals += u64::from(outcome.arrivals);
        self.completed += u64::from(outcome.completed);
        self.dropped += u64::from(outcome.dropped);
        self.queue_len_sum += outcome.queue_len as f64;
        self.total_wait += wait_of_completed;
    }

    /// Folds `slices` identical quiescent slices into the totals — the
    /// closed-form accounting of the event-skipping engine. The outcome
    /// must carry no arrivals, completions or drops (a quiescent slice
    /// moves nothing but energy and time).
    ///
    /// The float totals are accumulated with one addition per slice rather
    /// than a single multiply-add, so the result is bit-identical to
    /// having called [`RunStats::record`] `slices` times (the exact-
    /// equality gate of the event-skip engine depends on this); the
    /// zero-valued queue and wait contributions are exact no-ops and are
    /// skipped.
    pub fn record_quiescent(
        &mut self,
        outcome: &StepOutcome,
        weights: &RewardWeights,
        slices: u64,
    ) {
        debug_assert_eq!(
            (outcome.arrivals, outcome.completed, outcome.dropped),
            (0, 0, 0),
            "quiescent slices move nothing but energy"
        );
        debug_assert_eq!(outcome.queue_len, 0, "quiescent slices have empty queues");
        self.steps += slices;
        let cost = -weights.reward(outcome);
        for _ in 0..slices {
            self.total_energy += outcome.energy;
            self.total_cost += cost;
        }
    }

    /// Folds another run's totals into these, field by field — the
    /// aggregate accounting of the fleet layer. A left fold of per-device
    /// stats in device order is the *defined* aggregation order, so fleet
    /// totals are reproducible bit-for-bit (float addition is not
    /// associative; re-ordering the fold would drift the low bits).
    pub fn merge(&mut self, other: &RunStats) {
        self.steps += other.steps;
        self.total_energy += other.total_energy;
        self.total_cost += other.total_cost;
        self.arrivals += other.arrivals;
        self.completed += other.completed;
        self.dropped += other.dropped;
        self.queue_len_sum += other.queue_len_sum;
        self.total_wait += other.total_wait;
    }

    /// Mean energy per slice (average power).
    #[must_use]
    pub fn avg_power(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.total_energy / self.steps as f64
        }
    }

    /// Mean weighted cost per slice (the quantity the optimal gain bounds).
    #[must_use]
    pub fn avg_cost(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.total_cost / self.steps as f64
        }
    }

    /// Mean end-of-slice queue length.
    #[must_use]
    pub fn avg_queue_len(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.queue_len_sum / self.steps as f64
        }
    }

    /// Mean waiting time of completed requests, in slices.
    #[must_use]
    pub fn mean_wait(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.total_wait as f64 / self.completed as f64
        }
    }

    /// Energy reduction relative to an always-on baseline drawing
    /// `always_on_power` per slice — the paper's headline y-axis.
    #[must_use]
    pub fn energy_reduction_vs(&self, always_on_power: f64) -> f64 {
        let baseline = always_on_power * self.steps as f64;
        if baseline <= 0.0 {
            0.0
        } else {
            (baseline - self.total_energy) / baseline
        }
    }
}

/// One point of a windowed time series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowPoint {
    /// Slice index at the window's end (exclusive).
    pub end: Step,
    /// Mean energy per slice within the window.
    pub energy_per_slice: f64,
    /// Mean weighted cost per slice within the window.
    pub cost_per_slice: f64,
    /// Mean queue length within the window.
    pub avg_queue: f64,
    /// Requests dropped within the window.
    pub dropped: u64,
    /// Energy reduction vs always-on within the window.
    pub energy_reduction: f64,
}

/// Records fixed-width windowed series during a run — the data behind the
/// paper's Fig. 1 and Fig. 2 curves.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesRecorder {
    window: Step,
    always_on_power: f64,
    points: Vec<WindowPoint>,
    // accumulators of the open window
    acc_steps: Step,
    acc_energy: f64,
    acc_cost: f64,
    acc_queue: f64,
    acc_dropped: u64,
    now: Step,
}

impl SeriesRecorder {
    /// Creates a recorder with the given window width (slices) and the
    /// always-on reference power for reduction computation.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    #[must_use]
    pub fn new(window: Step, always_on_power: f64) -> Self {
        assert!(window > 0, "window must be positive");
        SeriesRecorder {
            window,
            always_on_power,
            points: Vec::new(),
            acc_steps: 0,
            acc_energy: 0.0,
            acc_cost: 0.0,
            acc_queue: 0.0,
            acc_dropped: 0,
            now: 0,
        }
    }

    /// Folds one slice's outcome into the open window.
    pub fn record(&mut self, outcome: &StepOutcome, weights: &RewardWeights) {
        self.now += 1;
        self.acc_steps += 1;
        self.acc_energy += outcome.energy;
        self.acc_cost += -weights.reward(outcome);
        self.acc_queue += outcome.queue_len as f64;
        self.acc_dropped += u64::from(outcome.dropped);
        if self.acc_steps == self.window {
            self.flush();
        }
    }

    fn flush(&mut self) {
        if self.acc_steps == 0 {
            return;
        }
        let n = self.acc_steps as f64;
        let baseline = self.always_on_power * n;
        self.points.push(WindowPoint {
            end: self.now,
            energy_per_slice: self.acc_energy / n,
            cost_per_slice: self.acc_cost / n,
            avg_queue: self.acc_queue / n,
            dropped: self.acc_dropped,
            energy_reduction: if baseline > 0.0 {
                (baseline - self.acc_energy) / baseline
            } else {
                0.0
            },
        });
        self.acc_steps = 0;
        self.acc_energy = 0.0;
        self.acc_cost = 0.0;
        self.acc_queue = 0.0;
        self.acc_dropped = 0;
    }

    /// Completed windows so far.
    #[must_use]
    pub fn points(&self) -> &[WindowPoint] {
        &self.points
    }

    /// Flushes any partial window and returns all points.
    #[must_use]
    pub fn finish(mut self) -> Vec<WindowPoint> {
        self.flush();
        self.points
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(energy: f64, q: usize, dropped: u32) -> StepOutcome {
        StepOutcome {
            energy,
            queue_len: q,
            dropped,
            completed: 0,
            arrivals: 1,
            deadline_misses: 0,
        }
    }

    #[test]
    fn stats_accumulate() {
        let w = RewardWeights::default();
        let mut s = RunStats::new();
        s.record(&outcome(2.0, 3, 0), &w, 0);
        s.record(&outcome(1.0, 1, 1), &w, 5);
        assert_eq!(s.steps, 2);
        assert!((s.avg_power() - 1.5).abs() < 1e-12);
        assert!((s.avg_queue_len() - 2.0).abs() < 1e-12);
        assert_eq!(s.dropped, 1);
        assert_eq!(s.arrivals, 2);
        assert_eq!(s.total_wait, 5);
    }

    #[test]
    fn energy_reduction_formula() {
        let w = RewardWeights::default();
        let mut s = RunStats::new();
        for _ in 0..10 {
            s.record(&outcome(0.25, 0, 0), &w, 0);
        }
        // always-on at 1.0: reduction = (10 - 2.5) / 10 = 0.75.
        assert!((s.energy_reduction_vs(1.0) - 0.75).abs() < 1e-12);
        assert_eq!(s.energy_reduction_vs(0.0), 0.0);
    }

    #[test]
    fn mean_wait_averages_completed_requests() {
        let w = RewardWeights::default();
        let mut s = RunStats::new();
        let done = StepOutcome {
            energy: 1.0,
            queue_len: 0,
            dropped: 0,
            completed: 1,
            arrivals: 0,
            deadline_misses: 0,
        };
        s.record(&done, &w, 4);
        s.record(&done, &w, 2);
        assert!((s.mean_wait() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn recorder_windows_align() {
        let w = RewardWeights::default();
        let mut r = SeriesRecorder::new(5, 1.0);
        for i in 0..12 {
            r.record(&outcome(if i < 5 { 1.0 } else { 0.5 }, 0, 0), &w);
        }
        let pts = r.finish();
        assert_eq!(pts.len(), 3); // two full windows + partial flush
        assert_eq!(pts[0].end, 5);
        assert!((pts[0].energy_per_slice - 1.0).abs() < 1e-12);
        assert!((pts[0].energy_reduction - 0.0).abs() < 1e-12);
        assert!((pts[1].energy_per_slice - 0.5).abs() < 1e-12);
        assert!((pts[1].energy_reduction - 0.5).abs() < 1e-12);
        assert_eq!(pts[2].end, 12);
    }

    #[test]
    fn record_quiescent_is_bit_identical_to_repeated_record() {
        let w = RewardWeights::default();
        let quiet = StepOutcome {
            energy: 0.05, // a power that is not exactly representable-sum-friendly
            queue_len: 0,
            dropped: 0,
            completed: 0,
            arrivals: 0,
            deadline_misses: 0,
        };
        let mut folded = RunStats::new();
        // Interleave with a non-trivial starting state.
        folded.record(&outcome(1.7, 2, 0), &w, 3);
        let mut stepped = folded.clone();
        folded.record_quiescent(&quiet, &w, 10_007);
        for _ in 0..10_007 {
            stepped.record(&quiet, &w, 0);
        }
        assert_eq!(folded, stepped);
        assert_eq!(
            folded.total_energy.to_bits(),
            stepped.total_energy.to_bits()
        );
        assert_eq!(folded.total_cost.to_bits(), stepped.total_cost.to_bits());
    }

    #[test]
    fn merge_is_the_field_by_field_fold() {
        let w = RewardWeights::default();
        let mut a = RunStats::new();
        a.record(&outcome(1.7, 2, 0), &w, 3);
        a.record(&outcome(0.3, 1, 1), &w, 0);
        let mut b = RunStats::new();
        b.record(&outcome(0.05, 0, 0), &w, 5);
        // Recording b's slices directly after a's must equal merging.
        let mut direct = a.clone();
        direct.record(&outcome(0.05, 0, 0), &w, 5);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged, direct);
        assert_eq!(merged.total_energy.to_bits(), direct.total_energy.to_bits());
        assert_eq!(merged.steps, 3);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = RunStats::new();
        assert_eq!(s.avg_power(), 0.0);
        assert_eq!(s.avg_cost(), 0.0);
        assert_eq!(s.mean_wait(), 0.0);
    }
}

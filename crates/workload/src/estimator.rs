//! Online workload estimators and change detection.
//!
//! These are the components of the *model-based* adaptive DPM pipeline that
//! the paper argues Q-DPM makes unnecessary: "existing methods need to detect
//! parameter change, perform [estimation], and then perform time consuming
//! policy optimization". The model-based baseline in `qdpm-sim` is assembled
//! from a [`RateEstimator`] (sliding-window ML estimate of the Bernoulli
//! arrival probability), and a [`PageHinkley`] mode-switch detector; its
//! costs are exactly the overheads Fig. 2 and `table_overhead` (T1/T3)
//! quantify.

use std::collections::VecDeque;

/// Sliding-window maximum-likelihood estimator of a per-slice arrival rate.
///
/// Keeps the last `window` slices of arrival indicators; the estimate is the
/// window mean (the ML estimator of a Bernoulli parameter). The window length
/// trades estimation noise against tracking lag — the tension the paper's
/// introduction describes for model-based methods.
#[derive(Debug, Clone, PartialEq)]
pub struct RateEstimator {
    window: usize,
    buf: VecDeque<u32>,
    sum: u64,
}

impl RateEstimator {
    /// Creates an estimator over the last `window` slices (at least 1).
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    #[must_use]
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be at least 1");
        RateEstimator {
            window,
            buf: VecDeque::with_capacity(window),
            sum: 0,
        }
    }

    /// Feeds one slice's arrival count.
    pub fn observe(&mut self, arrivals: u32) {
        if self.buf.len() == self.window {
            let old = self.buf.pop_front().expect("non-empty at capacity");
            self.sum -= u64::from(old);
        }
        self.buf.push_back(arrivals);
        self.sum += u64::from(arrivals);
    }

    /// Current rate estimate (window mean); 0 before any observation.
    #[must_use]
    pub fn estimate(&self) -> f64 {
        if self.buf.is_empty() {
            0.0
        } else {
            self.sum as f64 / self.buf.len() as f64
        }
    }

    /// Number of slices currently in the window.
    #[must_use]
    pub fn fill(&self) -> usize {
        self.buf.len()
    }

    /// Clears all state.
    pub fn reset(&mut self) {
        self.buf.clear();
        self.sum = 0;
    }

    /// Approximate heap footprint, for the memory-comparison table (T2).
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.window * std::mem::size_of::<u32>() + std::mem::size_of::<Self>()
    }
}

/// Page–Hinkley change detector over a Bernoulli-ish stream.
///
/// Tracks the cumulative deviation of observations from their running mean
/// and signals a change when the deviation drifts more than `threshold` from
/// its running extremum. `delta` desensitizes the test to noise. This is the
/// "mode-switch controller" role in the model-based pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageHinkley {
    delta: f64,
    threshold: f64,
    count: u64,
    mean: f64,
    cum_up: f64,
    min_up: f64,
    cum_down: f64,
    max_down: f64,
}

impl PageHinkley {
    /// Creates a detector. `delta` is the tolerated drift per observation,
    /// `threshold` the alarm level on the cumulative statistic.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is negative or non-finite.
    #[must_use]
    pub fn new(delta: f64, threshold: f64) -> Self {
        assert!(delta.is_finite() && delta >= 0.0, "delta must be >= 0");
        assert!(
            threshold.is_finite() && threshold > 0.0,
            "threshold must be > 0"
        );
        PageHinkley {
            delta,
            threshold,
            count: 0,
            mean: 0.0,
            cum_up: 0.0,
            min_up: 0.0,
            cum_down: 0.0,
            max_down: 0.0,
        }
    }

    /// Feeds one observation; returns `true` when a change is detected, at
    /// which point the detector resets itself for the next epoch.
    pub fn observe(&mut self, x: f64) -> bool {
        self.count += 1;
        self.mean += (x - self.mean) / self.count as f64;
        // Upward test: x rising above the historical mean.
        self.cum_up += x - self.mean - self.delta;
        self.min_up = self.min_up.min(self.cum_up);
        // Downward test: x falling below the historical mean.
        self.cum_down += x - self.mean + self.delta;
        self.max_down = self.max_down.max(self.cum_down);

        let alarm = (self.cum_up - self.min_up) > self.threshold
            || (self.max_down - self.cum_down) > self.threshold;
        if alarm {
            self.reset();
        }
        alarm
    }

    /// Number of observations since the last reset/alarm.
    #[must_use]
    pub fn observations(&self) -> u64 {
        self.count
    }

    /// Clears all state (also happens automatically on alarm).
    pub fn reset(&mut self) {
        self.count = 0;
        self.mean = 0.0;
        self.cum_up = 0.0;
        self.min_up = 0.0;
        self.cum_down = 0.0;
        self.max_down = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_estimator_tracks_mean() {
        let mut est = RateEstimator::new(4);
        assert_eq!(est.estimate(), 0.0);
        for &a in &[1, 0, 1, 0] {
            est.observe(a);
        }
        assert!((est.estimate() - 0.5).abs() < 1e-12);
        // Slide: push four 1s; estimate becomes 1.
        for _ in 0..4 {
            est.observe(1);
        }
        assert!((est.estimate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn window_partial_fill_uses_actual_count() {
        let mut est = RateEstimator::new(10);
        est.observe(1);
        est.observe(1);
        assert!((est.estimate() - 1.0).abs() < 1e-12);
        assert_eq!(est.fill(), 2);
    }

    #[test]
    #[should_panic(expected = "window must be at least 1")]
    fn window_zero_panics() {
        let _ = RateEstimator::new(0);
    }

    #[test]
    fn window_reset() {
        let mut est = RateEstimator::new(3);
        est.observe(1);
        est.reset();
        assert_eq!(est.estimate(), 0.0);
        assert_eq!(est.fill(), 0);
    }

    #[test]
    fn page_hinkley_flags_rate_jump() {
        let mut ph = PageHinkley::new(0.005, 5.0);
        // Stable low-rate phase: no alarms.
        let mut alarms = 0;
        for i in 0..500 {
            if ph.observe(f64::from(u8::from(i % 20 == 0))) {
                alarms += 1;
            }
        }
        assert_eq!(alarms, 0, "false alarm during stationary phase");
        // Jump to high rate: alarm within a few hundred slices.
        let mut detected_after = None;
        for i in 0..400 {
            if ph.observe(f64::from(u8::from(i % 2 == 0))) {
                detected_after = Some(i);
                break;
            }
        }
        let lag = detected_after.expect("change never detected");
        assert!(lag < 100, "detection lag {lag} too large");
    }

    #[test]
    fn page_hinkley_detects_rate_drop() {
        let mut ph = PageHinkley::new(0.005, 5.0);
        for i in 0..500 {
            assert!(!ph.observe(f64::from(u8::from(i % 2 == 0))));
        }
        let mut detected = false;
        for _ in 0..400 {
            if ph.observe(0.0) {
                detected = true;
                break;
            }
        }
        assert!(detected, "drop never detected");
    }

    #[test]
    fn page_hinkley_resets_after_alarm() {
        let mut ph = PageHinkley::new(0.0, 0.5);
        for _ in 0..10 {
            ph.observe(0.0);
        }
        let mut fired = false;
        for _ in 0..50 {
            if ph.observe(1.0) {
                fired = true;
                break;
            }
        }
        assert!(fired);
        assert_eq!(ph.observations(), 0);
    }
}

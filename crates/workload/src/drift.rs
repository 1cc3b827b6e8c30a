//! Continuously drifting workloads.
//!
//! The paper's motivation goes beyond step changes: "in most real world
//! systems parameters are undertaking continuous varying, and the varying
//! behavior needs to be rapidly tracked". These generators never settle:
//! a [`SinusoidalRate`] sweeps the arrival probability smoothly (diurnal
//! load), a [`RandomWalkRate`] wanders it stochastically. Against them the
//! model-based pipeline's detect→estimate→re-solve loop is permanently
//! behind, which is experiment F5 of the reproduction.

use rand::Rng;

use crate::generators::uniform;
use crate::{RequestGenerator, Step, WorkloadError};

/// Bernoulli arrivals whose rate follows a sinusoid:
/// `p(t) = base + amplitude * sin(2*pi*t / period)`, clamped to `[0, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct SinusoidalRate {
    base: f64,
    amplitude: f64,
    period: Step,
    t: Step,
}

impl SinusoidalRate {
    /// Creates the generator. `base` must lie in `[0, 1]`, `amplitude`
    /// must be non-negative, and `period` positive. The instantaneous rate
    /// is clamped, so `base ± amplitude` may exceed the unit interval.
    ///
    /// # Errors
    ///
    /// Returns a [`WorkloadError`] on out-of-range parameters.
    pub fn new(base: f64, amplitude: f64, period: Step) -> Result<Self, WorkloadError> {
        if !(base.is_finite() && (0.0..=1.0).contains(&base)) {
            return Err(WorkloadError::InvalidProbability {
                what: "base rate",
                value: base,
            });
        }
        if !(amplitude.is_finite() && amplitude >= 0.0) {
            return Err(WorkloadError::InvalidProbability {
                what: "amplitude",
                value: amplitude,
            });
        }
        if period == 0 {
            return Err(WorkloadError::ZeroPeriod);
        }
        Ok(SinusoidalRate {
            base,
            amplitude,
            period,
            t: 0,
        })
    }

    /// The instantaneous arrival probability at the current slice.
    #[must_use]
    pub fn current_rate(&self) -> f64 {
        let phase = 2.0 * std::f64::consts::PI * (self.t as f64) / (self.period as f64);
        (self.base + self.amplitude * phase.sin()).clamp(0.0, 1.0)
    }
}

impl RequestGenerator for SinusoidalRate {
    fn next_arrivals(&mut self, rng: &mut dyn Rng) -> u32 {
        let p = self.current_rate();
        self.t += 1;
        u32::from(uniform(rng) < p)
    }

    fn mean_rate(&self) -> Option<f64> {
        // Exact when base +- amplitude stays inside [0, 1] (the sinusoid
        // averages out); approximate otherwise because of clamping.
        Some(self.base)
    }

    fn reset(&mut self) {
        self.t = 0;
    }
}

/// Bernoulli arrivals whose rate performs a bounded random walk:
/// every slice the rate moves by a uniform draw in `[-step, +step]` and
/// reflects off `[min, max]`.
#[derive(Debug, Clone, PartialEq)]
pub struct RandomWalkRate {
    rate: f64,
    start: f64,
    step: f64,
    min: f64,
    max: f64,
}

impl RandomWalkRate {
    /// Creates the generator with starting rate `start`, per-slice step
    /// bound `step`, and reflecting bounds `0 <= min < max <= 1`.
    ///
    /// # Errors
    ///
    /// Returns a [`WorkloadError`] on out-of-range parameters.
    pub fn new(start: f64, step: f64, min: f64, max: f64) -> Result<Self, WorkloadError> {
        if !(min.is_finite() && max.is_finite() && 0.0 <= min && min < max && max <= 1.0) {
            return Err(WorkloadError::DimensionMismatch(format!(
                "walk bounds [{min}, {max}] must satisfy 0 <= min < max <= 1"
            )));
        }
        if !(start.is_finite() && (min..=max).contains(&start)) {
            return Err(WorkloadError::InvalidProbability {
                what: "start rate",
                value: start,
            });
        }
        if !(step.is_finite() && step > 0.0 && step < max - min) {
            return Err(WorkloadError::InvalidProbability {
                what: "walk step",
                value: step,
            });
        }
        Ok(RandomWalkRate {
            rate: start,
            start,
            step,
            min,
            max,
        })
    }

    /// The instantaneous arrival probability.
    #[must_use]
    pub fn current_rate(&self) -> f64 {
        self.rate
    }
}

impl RequestGenerator for RandomWalkRate {
    fn next_arrivals(&mut self, rng: &mut dyn Rng) -> u32 {
        let arrived = u32::from(uniform(rng) < self.rate);
        // Reflecting random walk on the rate.
        let delta = (uniform(rng) * 2.0 - 1.0) * self.step;
        let mut next = self.rate + delta;
        if next > self.max {
            next = 2.0 * self.max - next;
        }
        if next < self.min {
            next = 2.0 * self.min - next;
        }
        self.rate = next.clamp(self.min, self.max);
        arrived
    }

    fn mean_rate(&self) -> Option<f64> {
        // The stationary distribution of a reflected uniform walk is
        // uniform on [min, max].
        Some(0.5 * (self.min + self.max))
    }

    fn reset(&mut self) {
        self.rate = self.start;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sinusoid_validates() {
        assert!(SinusoidalRate::new(0.5, 0.3, 100).is_ok());
        assert!(SinusoidalRate::new(1.5, 0.3, 100).is_err());
        assert!(SinusoidalRate::new(0.5, -0.1, 100).is_err());
        assert!(SinusoidalRate::new(0.5, 0.3, 0).is_err());
    }

    #[test]
    fn sinusoid_rate_oscillates() {
        let mut g = SinusoidalRate::new(0.5, 0.4, 100).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut rates = Vec::new();
        for _ in 0..100 {
            rates.push(g.current_rate());
            g.next_arrivals(&mut rng);
        }
        let max = rates.iter().cloned().fold(f64::MIN, f64::max);
        let min = rates.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max > 0.85, "peak {max}");
        assert!(min < 0.15, "trough {min}");
        // Quarter period peak.
        assert!(
            (rates[25] - 0.9).abs() < 0.01,
            "rate at t=25: {}",
            rates[25]
        );
    }

    #[test]
    fn sinusoid_empirical_mean_matches_base() {
        let mut g = SinusoidalRate::new(0.3, 0.2, 1000).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let n = 200_000;
        let total: u32 = (0..n).map(|_| g.next_arrivals(&mut rng)).sum();
        let rate = f64::from(total) / n as f64;
        assert!((rate - 0.3).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn sinusoid_clamps_to_unit_interval() {
        let mut g = SinusoidalRate::new(0.9, 0.5, 40).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..80 {
            let r = g.current_rate();
            assert!((0.0..=1.0).contains(&r), "rate {r}");
            g.next_arrivals(&mut rng);
        }
    }

    #[test]
    fn walk_validates() {
        assert!(RandomWalkRate::new(0.2, 0.01, 0.0, 0.5).is_ok());
        assert!(RandomWalkRate::new(0.6, 0.01, 0.0, 0.5).is_err());
        assert!(RandomWalkRate::new(0.2, 0.0, 0.0, 0.5).is_err());
        assert!(RandomWalkRate::new(0.2, 0.6, 0.0, 0.5).is_err());
        assert!(RandomWalkRate::new(0.2, 0.01, 0.5, 0.4).is_err());
    }

    #[test]
    fn walk_stays_in_bounds() {
        let mut g = RandomWalkRate::new(0.25, 0.02, 0.05, 0.45).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50_000 {
            g.next_arrivals(&mut rng);
            let r = g.current_rate();
            assert!((0.05..=0.45).contains(&r), "rate {r} escaped bounds");
        }
    }

    #[test]
    fn walk_actually_moves() {
        let mut g = RandomWalkRate::new(0.25, 0.02, 0.05, 0.45).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let mut lo = f64::MAX;
        let mut hi = f64::MIN;
        for _ in 0..50_000 {
            g.next_arrivals(&mut rng);
            lo = lo.min(g.current_rate());
            hi = hi.max(g.current_rate());
        }
        assert!(hi - lo > 0.2, "walk range [{lo}, {hi}] too narrow");
    }

    #[test]
    fn reset_restores_start() {
        let mut g = RandomWalkRate::new(0.25, 0.02, 0.05, 0.45).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..100 {
            g.next_arrivals(&mut rng);
        }
        g.reset();
        assert_eq!(g.current_rate(), 0.25);

        let mut s = SinusoidalRate::new(0.5, 0.4, 100).unwrap();
        for _ in 0..30 {
            s.next_arrivals(&mut rng);
        }
        s.reset();
        assert_eq!(s.current_rate(), 0.5);
    }
}

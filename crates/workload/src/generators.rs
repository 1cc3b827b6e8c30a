use crate::{geometric_gap, ArrivalGap, RequestGenerator, WorkloadError};
use qdpm_core::{StateError, StateReader, StateWriter};
use rand::Rng;

// The workspace's canonical samplers (bit-identical everywhere a seed is
// shared); re-exported crate-wide so every generator draws the same way.
pub(crate) use qdpm_core::rng_util::uniform;
use qdpm_core::rng_util::uniform_index;

fn check_probability(what: &'static str, p: f64, allow_zero: bool) -> Result<(), WorkloadError> {
    let ok = p.is_finite() && p <= 1.0 && (p > 0.0 || (allow_zero && p == 0.0));
    if ok {
        Ok(())
    } else {
        Err(WorkloadError::InvalidProbability { what, value: p })
    }
}

/// Memoryless arrivals: one request per slice with fixed probability `p`.
///
/// This is the stationary workload of the paper's Fig. 1 experiment; with a
/// Bernoulli SR the exact DTMDP has a single requester mode, so the Q-DPM
/// agent observes the full Markov state and can converge to the true optimum.
#[derive(Debug, Clone, PartialEq)]
pub struct BernoulliArrivals {
    p: f64,
}

impl BernoulliArrivals {
    /// Creates the generator with per-slice arrival probability `p`.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidProbability`] unless `0 <= p <= 1`.
    pub fn new(p: f64) -> Result<Self, WorkloadError> {
        check_probability("arrival", p, true)?;
        Ok(BernoulliArrivals { p })
    }

    /// The arrival probability.
    #[must_use]
    pub fn p(&self) -> f64 {
        self.p
    }
}

impl RequestGenerator for BernoulliArrivals {
    fn next_arrivals(&mut self, rng: &mut dyn Rng) -> u32 {
        u32::from(uniform(rng) < self.p)
    }

    /// Exact gap sampler: one geometric inversion draw replaces the
    /// per-slice Bernoulli loop. Exact in distribution; the RNG stream
    /// differs from per-slice stepping (fewer draws). Truncation past
    /// `limit` is sound because the geometric law is memoryless.
    fn next_arrival_gap(&mut self, rng: &mut dyn Rng, limit: u64) -> ArrivalGap {
        if limit == 0 {
            return ArrivalGap::Quiet { advanced: 0 };
        }
        let g = geometric_gap(rng, self.p);
        if g > limit {
            ArrivalGap::Quiet { advanced: limit }
        } else {
            ArrivalGap::Arrival {
                empty: g - 1,
                count: 1,
            }
        }
    }

    fn mean_rate(&self) -> Option<f64> {
        Some(self.p)
    }

    fn reset(&mut self) {}
}

/// Markov-modulated arrivals: a hidden Markov chain over modes, each with its
/// own per-slice arrival probability.
///
/// This is the discrete-time analogue of an MMPP and the canonical
/// nontrivial SR of the model-based DPM literature.
#[derive(Debug, Clone, PartialEq)]
pub struct MmppArrivals {
    /// Row-major `n x n` row-stochastic mode transition matrix.
    transition: Vec<f64>,
    /// Per-mode arrival probability.
    arrival_prob: Vec<f64>,
    n: usize,
    mode: usize,
    initial_mode: usize,
}

impl MmppArrivals {
    /// Creates a modulated generator from a row-stochastic `transition`
    /// matrix (row-major, `n*n` entries) and per-mode arrival probabilities.
    ///
    /// # Errors
    ///
    /// Returns a [`WorkloadError`] when dimensions disagree, a row does not
    /// sum to 1 (tolerance `1e-9`), or a probability is out of range.
    pub fn new(transition: Vec<f64>, arrival_prob: Vec<f64>) -> Result<Self, WorkloadError> {
        let n = arrival_prob.len();
        if n == 0 || transition.len() != n * n {
            return Err(WorkloadError::DimensionMismatch(format!(
                "{} modes but {} transition entries",
                n,
                transition.len()
            )));
        }
        for (i, row) in transition.chunks(n).enumerate() {
            let sum: f64 = row.iter().sum();
            if (sum - 1.0).abs() > 1e-9 {
                return Err(WorkloadError::NotStochastic { row: i, sum });
            }
            for &p in row {
                check_probability("mode transition", p, true)?;
            }
        }
        for &p in &arrival_prob {
            check_probability("arrival", p, true)?;
        }
        Ok(MmppArrivals {
            transition,
            arrival_prob,
            n,
            mode: 0,
            initial_mode: 0,
        })
    }

    /// Sets the starting mode (default 0).
    ///
    /// # Panics
    ///
    /// Panics if `mode` is out of range.
    #[must_use]
    pub fn with_initial_mode(mut self, mode: usize) -> Self {
        assert!(mode < self.n, "initial mode out of range");
        self.mode = mode;
        self.initial_mode = mode;
        self
    }

    /// The stationary distribution of the mode chain, by power iteration.
    #[must_use]
    pub fn stationary_distribution(&self) -> Vec<f64> {
        crate::markov::stationary_of(&self.transition, self.n)
    }

    /// Moves the hidden chain to a destination sampled *conditional on
    /// leaving* the current mode (the per-slice CDF scan restricted to
    /// `j != mode`, normalized by `1 - stay`).
    fn leave_mode(&mut self, rng: &mut dyn Rng) {
        let row = &self.transition[self.mode * self.n..(self.mode + 1) * self.n];
        let total = 1.0 - row[self.mode];
        let mut u = uniform(rng) * total;
        let mut next = self.mode;
        for (j, &p) in row.iter().enumerate() {
            if j == self.mode {
                continue;
            }
            next = j;
            u -= p;
            if u < 0.0 {
                break;
            }
        }
        self.mode = next;
    }
}

impl RequestGenerator for MmppArrivals {
    fn next_arrivals(&mut self, rng: &mut dyn Rng) -> u32 {
        let arrived = u32::from(uniform(rng) < self.arrival_prob[self.mode]);
        // Evolve the hidden mode.
        let u = uniform(rng);
        let row = &self.transition[self.mode * self.n..(self.mode + 1) * self.n];
        let mut acc = 0.0;
        let mut next = self.n - 1;
        for (j, &p) in row.iter().enumerate() {
            acc += p;
            if u < acc {
                next = j;
                break;
            }
        }
        self.mode = next;
        arrived
    }

    /// Exact gap sampler by mode-sojourn walking: per sojourn in mode `m`,
    /// the slice of the first arrival (`Geom(p_m)`) and the slice of the
    /// first mode departure (`Geom(1 - T[m][m])`) are sampled with one
    /// draw each — valid because the per-slice arrival and mode-evolution
    /// draws are independent — and the earlier event wins; departures
    /// resample the destination conditional on leaving. Exact in
    /// distribution, draw order differs from per-slice stepping.
    /// Truncation past `limit` is sound by memorylessness of both laws.
    fn next_arrival_gap(&mut self, rng: &mut dyn Rng, limit: u64) -> ArrivalGap {
        let mut consumed = 0u64;
        while consumed < limit {
            let rem = limit - consumed;
            let p = self.arrival_prob[self.mode];
            let stay = self.transition[self.mode * self.n + self.mode];
            let a = geometric_gap(rng, p);
            let c = geometric_gap(rng, 1.0 - stay);
            if a > rem && c > rem {
                return ArrivalGap::Quiet { advanced: limit };
            }
            if a <= c {
                // Arrival on slice `a` of this sojourn; if the chain also
                // departs on that very slice, it does so after the arrival
                // (matching the per-slice draw order).
                if a == c {
                    self.leave_mode(rng);
                }
                return ArrivalGap::Arrival {
                    empty: consumed + a - 1,
                    count: 1,
                };
            }
            // Departure first: `c` arrival-free slices, then a new sojourn.
            consumed += c;
            self.leave_mode(rng);
        }
        ArrivalGap::Quiet { advanced: limit }
    }

    fn mode(&self) -> usize {
        self.mode
    }

    fn n_modes(&self) -> usize {
        self.n
    }

    fn mean_rate(&self) -> Option<f64> {
        let pi = self.stationary_distribution();
        Some(pi.iter().zip(&self.arrival_prob).map(|(a, b)| a * b).sum())
    }

    fn save_state(&self, w: &mut StateWriter) {
        w.put_usize(self.mode);
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        let mode = r.get_usize()?;
        if mode >= self.n {
            return Err(StateError::BadValue(format!(
                "mmpp mode {mode} out of range for {} modes",
                self.n
            )));
        }
        self.mode = mode;
        Ok(())
    }

    fn reset(&mut self) {
        self.mode = self.initial_mode;
    }
}

/// Bursty on/off arrivals: geometric on- and off-sojourns; requests only
/// arrive (with probability `p_arrival_on`) while the source is on.
#[derive(Debug, Clone, PartialEq)]
pub struct OnOffArrivals {
    p_on_to_off: f64,
    p_off_to_on: f64,
    p_arrival_on: f64,
    on: bool,
}

impl OnOffArrivals {
    /// Creates a bursty source. `p_on_to_off` / `p_off_to_on` are the
    /// per-slice switching probabilities; `p_arrival_on` is the arrival
    /// probability while on. The source starts off.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidProbability`] when any parameter is
    /// outside `[0, 1]` or both switching probabilities are zero.
    pub fn new(
        p_on_to_off: f64,
        p_off_to_on: f64,
        p_arrival_on: f64,
    ) -> Result<Self, WorkloadError> {
        check_probability("on->off", p_on_to_off, true)?;
        check_probability("off->on", p_off_to_on, true)?;
        check_probability("arrival", p_arrival_on, true)?;
        if p_on_to_off == 0.0 && p_off_to_on == 0.0 {
            return Err(WorkloadError::InvalidProbability {
                what: "switching",
                value: 0.0,
            });
        }
        Ok(OnOffArrivals {
            p_on_to_off,
            p_off_to_on,
            p_arrival_on,
            on: false,
        })
    }

    /// Long-run fraction of time the source is on.
    #[must_use]
    pub fn duty_cycle(&self) -> f64 {
        self.p_off_to_on / (self.p_off_to_on + self.p_on_to_off)
    }
}

impl RequestGenerator for OnOffArrivals {
    fn next_arrivals(&mut self, rng: &mut dyn Rng) -> u32 {
        let arrived = if self.on {
            u32::from(uniform(rng) < self.p_arrival_on)
        } else {
            0
        };
        let flip = uniform(rng);
        if self.on {
            if flip < self.p_on_to_off {
                self.on = false;
            }
        } else if flip < self.p_off_to_on {
            self.on = true;
        }
        arrived
    }

    fn mode(&self) -> usize {
        usize::from(self.on)
    }

    fn n_modes(&self) -> usize {
        2
    }

    fn mean_rate(&self) -> Option<f64> {
        Some(self.duty_cycle() * self.p_arrival_on)
    }

    fn save_state(&self, w: &mut StateWriter) {
        w.put_bool(self.on);
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        self.on = r.get_bool()?;
        Ok(())
    }

    fn reset(&mut self) {
        self.on = false;
    }
}

/// Heavy-tailed arrivals: Pareto-distributed interarrival gaps, discretized
/// by rounding up to whole slices.
///
/// Heavy tails produce the long idle periods that make timeout policies
/// look good and give learning policies room to exploit deep sleep.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoArrivals {
    /// Tail index; heavier tail for smaller alpha. Must exceed 1 for a
    /// finite mean.
    alpha: f64,
    /// Scale (minimum gap), in slices.
    xm: f64,
    countdown: u64,
}

impl ParetoArrivals {
    /// Creates a Pareto-gap generator with tail index `alpha > 1` and scale
    /// `xm >= 1` slices.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidPareto`] for out-of-range parameters.
    pub fn new(alpha: f64, xm: f64) -> Result<Self, WorkloadError> {
        if !(alpha.is_finite() && alpha > 1.0) {
            return Err(WorkloadError::InvalidPareto(format!(
                "alpha {alpha} must exceed 1 for a finite mean"
            )));
        }
        if !(xm.is_finite() && xm >= 1.0) {
            return Err(WorkloadError::InvalidPareto(format!(
                "xm {xm} must be >= 1 slice"
            )));
        }
        Ok(ParetoArrivals {
            alpha,
            xm,
            countdown: 0,
        })
    }

    fn sample_gap(&self, rng: &mut dyn Rng) -> u64 {
        // Inverse CDF: X = xm / U^(1/alpha), discretized upward.
        let u = uniform(rng).max(f64::MIN_POSITIVE);
        let x = self.xm / u.powf(1.0 / self.alpha);
        x.ceil().min(1e12) as u64
    }
}

impl RequestGenerator for ParetoArrivals {
    fn next_arrivals(&mut self, rng: &mut dyn Rng) -> u32 {
        if self.countdown == 0 {
            self.countdown = self.sample_gap(rng);
        }
        self.countdown -= 1;
        u32::from(self.countdown == 0)
    }

    /// Exact and stream-identical to per-slice stepping: the countdown
    /// already is the gap; it is only consumed in bulk.
    fn next_arrival_gap(&mut self, rng: &mut dyn Rng, limit: u64) -> ArrivalGap {
        if limit == 0 {
            return ArrivalGap::Quiet { advanced: 0 };
        }
        if self.countdown == 0 {
            self.countdown = self.sample_gap(rng);
        }
        if self.countdown > limit {
            self.countdown -= limit;
            ArrivalGap::Quiet { advanced: limit }
        } else {
            let gap = self.countdown;
            self.countdown = 0;
            ArrivalGap::Arrival {
                empty: gap - 1,
                count: 1,
            }
        }
    }

    fn mean_rate(&self) -> Option<f64> {
        // Continuous-Pareto approximation of the discretized mean gap; the
        // ceil() discretization adds at most one slice to the true mean.
        let mean_gap = self.alpha * self.xm / (self.alpha - 1.0);
        Some(1.0 / mean_gap)
    }

    fn save_state(&self, w: &mut StateWriter) {
        w.put_u64(self.countdown);
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        self.countdown = r.get_u64()?;
        Ok(())
    }

    fn reset(&mut self) {
        self.countdown = 0;
    }
}

/// Deterministic arrivals every `period` slices, with optional uniform
/// jitter of up to `jitter` slices either way.
#[derive(Debug, Clone, PartialEq)]
pub struct PeriodicArrivals {
    period: u64,
    jitter: u64,
    countdown: u64,
}

impl PeriodicArrivals {
    /// Creates a periodic source. `jitter` must be strictly less than
    /// `period` so gaps stay positive.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::ZeroPeriod`] when `period == 0`, or a
    /// [`WorkloadError::DimensionMismatch`] when `jitter >= period`.
    pub fn new(period: u64, jitter: u64) -> Result<Self, WorkloadError> {
        if period == 0 {
            return Err(WorkloadError::ZeroPeriod);
        }
        if jitter >= period {
            return Err(WorkloadError::DimensionMismatch(format!(
                "jitter {jitter} must be below period {period}"
            )));
        }
        Ok(PeriodicArrivals {
            period,
            jitter,
            countdown: period,
        })
    }
}

impl RequestGenerator for PeriodicArrivals {
    fn next_arrivals(&mut self, rng: &mut dyn Rng) -> u32 {
        if self.countdown == 0 {
            let spread = 2 * self.jitter + 1;
            let offset = uniform_index(rng, spread as usize) as u64;
            self.countdown = self.period + offset - self.jitter;
        }
        self.countdown -= 1;
        u32::from(self.countdown == 0)
    }

    /// Exact and stream-identical to per-slice stepping: the (possibly
    /// jittered) countdown already is the gap; it is only consumed in bulk.
    fn next_arrival_gap(&mut self, rng: &mut dyn Rng, limit: u64) -> ArrivalGap {
        if limit == 0 {
            return ArrivalGap::Quiet { advanced: 0 };
        }
        if self.countdown == 0 {
            let spread = 2 * self.jitter + 1;
            let offset = uniform_index(rng, spread as usize) as u64;
            self.countdown = self.period + offset - self.jitter;
        }
        if self.countdown > limit {
            self.countdown -= limit;
            ArrivalGap::Quiet { advanced: limit }
        } else {
            let gap = self.countdown;
            self.countdown = 0;
            ArrivalGap::Arrival {
                empty: gap - 1,
                count: 1,
            }
        }
    }

    fn mean_rate(&self) -> Option<f64> {
        Some(1.0 / self.period as f64)
    }

    fn save_state(&self, w: &mut StateWriter) {
        w.put_u64(self.countdown);
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        self.countdown = r.get_u64()?;
        Ok(())
    }

    fn reset(&mut self) {
        self.countdown = self.period;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run(gen: &mut dyn RequestGenerator, steps: u64, seed: u64) -> u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..steps)
            .map(|_| u64::from(gen.next_arrivals(&mut rng)))
            .sum()
    }

    #[test]
    fn bernoulli_validates() {
        assert!(BernoulliArrivals::new(0.0).is_ok());
        assert!(BernoulliArrivals::new(1.0).is_ok());
        assert!(BernoulliArrivals::new(-0.1).is_err());
        assert!(BernoulliArrivals::new(1.5).is_err());
        assert!(BernoulliArrivals::new(f64::NAN).is_err());
    }

    #[test]
    fn bernoulli_empirical_rate_matches() {
        let mut gen = BernoulliArrivals::new(0.3).unwrap();
        let count = run(&mut gen, 100_000, 1);
        let rate = count as f64 / 100_000.0;
        assert!((rate - 0.3).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn bernoulli_extremes() {
        let mut never = BernoulliArrivals::new(0.0).unwrap();
        assert_eq!(run(&mut never, 1000, 2), 0);
        let mut always = BernoulliArrivals::new(1.0).unwrap();
        assert_eq!(run(&mut always, 1000, 3), 1000);
    }

    #[test]
    fn mmpp_validates_dimensions_and_rows() {
        assert!(MmppArrivals::new(vec![1.0], vec![0.5]).is_ok());
        assert!(MmppArrivals::new(vec![0.5, 0.5], vec![0.5]).is_err());
        let bad_row = MmppArrivals::new(vec![0.6, 0.3, 0.5, 0.5], vec![0.1, 0.9]);
        assert!(matches!(
            bad_row,
            Err(WorkloadError::NotStochastic { row: 0, .. })
        ));
    }

    #[test]
    fn mmpp_stationary_distribution_two_modes() {
        // Symmetric chain -> uniform stationary distribution.
        let gen = MmppArrivals::new(vec![0.9, 0.1, 0.1, 0.9], vec![0.0, 1.0]).unwrap();
        let pi = gen.stationary_distribution();
        assert!((pi[0] - 0.5).abs() < 1e-9);
        assert!((pi[1] - 0.5).abs() < 1e-9);
        assert!((gen.mean_rate().unwrap() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn mmpp_empirical_rate_matches_analytic() {
        let mut gen = MmppArrivals::new(vec![0.95, 0.05, 0.20, 0.80], vec![0.02, 0.60]).unwrap();
        let analytic = gen.mean_rate().unwrap();
        let count = run(&mut gen, 200_000, 11);
        let rate = count as f64 / 200_000.0;
        assert!((rate - analytic).abs() < 0.01, "rate {rate} vs {analytic}");
    }

    #[test]
    fn mmpp_mode_tracking_and_reset() {
        let mut gen = MmppArrivals::new(vec![0.0, 1.0, 1.0, 0.0], vec![0.0, 0.0])
            .unwrap()
            .with_initial_mode(1);
        assert_eq!(gen.mode(), 1);
        let mut rng = StdRng::seed_from_u64(5);
        gen.next_arrivals(&mut rng);
        assert_eq!(gen.mode(), 0); // deterministic alternation
        gen.reset();
        assert_eq!(gen.mode(), 1);
        assert_eq!(gen.n_modes(), 2);
    }

    #[test]
    fn onoff_duty_cycle_and_rate() {
        let gen = OnOffArrivals::new(0.1, 0.05, 0.8).unwrap();
        assert!((gen.duty_cycle() - 1.0 / 3.0).abs() < 1e-12);
        assert!((gen.mean_rate().unwrap() - 0.8 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn onoff_empirical_rate() {
        let mut gen = OnOffArrivals::new(0.02, 0.02, 0.5).unwrap();
        let count = run(&mut gen, 400_000, 21);
        let rate = count as f64 / 400_000.0;
        assert!((rate - 0.25).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn onoff_rejects_frozen_chain() {
        assert!(OnOffArrivals::new(0.0, 0.0, 0.5).is_err());
    }

    #[test]
    fn onoff_emits_nothing_while_off() {
        let mut gen = OnOffArrivals::new(0.5, 0.0, 1.0).unwrap(); // never turns on
        assert_eq!(run(&mut gen, 1000, 3), 0);
    }

    #[test]
    fn pareto_validates() {
        assert!(ParetoArrivals::new(1.5, 4.0).is_ok());
        assert!(ParetoArrivals::new(1.0, 4.0).is_err());
        assert!(ParetoArrivals::new(2.0, 0.5).is_err());
    }

    #[test]
    fn pareto_gaps_at_least_scale() {
        let mut gen = ParetoArrivals::new(2.0, 5.0).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let mut last_arrival: Option<i64> = None;
        for t in 0..20_000i64 {
            if gen.next_arrivals(&mut rng) > 0 {
                if let Some(prev) = last_arrival {
                    assert!(t - prev >= 5, "gap {} below scale", t - prev);
                }
                last_arrival = Some(t);
            }
        }
        assert!(last_arrival.is_some(), "no arrivals at all");
    }

    #[test]
    fn pareto_empirical_rate_near_analytic() {
        let mut gen = ParetoArrivals::new(2.5, 3.0).unwrap();
        let analytic = gen.mean_rate().unwrap();
        let count = run(&mut gen, 300_000, 33);
        let rate = count as f64 / 300_000.0;
        // ceil() discretization biases the rate slightly low.
        assert!(
            rate <= analytic * 1.05 && rate > analytic * 0.6,
            "rate {rate} vs {analytic}"
        );
    }

    #[test]
    fn periodic_exact_without_jitter() {
        let mut gen = PeriodicArrivals::new(4, 0).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let pattern: Vec<u32> = (0..12).map(|_| gen.next_arrivals(&mut rng)).collect();
        assert_eq!(pattern, vec![0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1]);
    }

    #[test]
    fn periodic_with_jitter_keeps_mean_rate() {
        let mut gen = PeriodicArrivals::new(10, 3).unwrap();
        let count = run(&mut gen, 100_000, 17);
        let rate = count as f64 / 100_000.0;
        assert!((rate - 0.1).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn periodic_validates() {
        assert!(PeriodicArrivals::new(0, 0).is_err());
        assert!(PeriodicArrivals::new(5, 5).is_err());
        assert!(PeriodicArrivals::new(5, 4).is_ok());
    }

    #[test]
    fn uniform_helper_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(1234);
        for _ in 0..10_000 {
            let u = uniform(&mut rng);
            assert!((0.0..1.0).contains(&u));
        }
    }

    /// Expands gap-API consumption back into a per-slice arrival sequence.
    fn arrivals_via_gaps(
        gen: &mut dyn RequestGenerator,
        rng: &mut dyn Rng,
        steps: u64,
        chunk: u64,
    ) -> Vec<u32> {
        let mut out = Vec::new();
        while (out.len() as u64) < steps {
            let limit = chunk.min(steps - out.len() as u64);
            match gen.next_arrival_gap(rng, limit) {
                ArrivalGap::Arrival { empty, count } => {
                    out.extend(std::iter::repeat_n(0, empty as usize));
                    out.push(count);
                }
                ArrivalGap::Quiet { advanced } => {
                    out.extend(std::iter::repeat_n(0, advanced as usize));
                    assert!(advanced > 0 || limit == 0, "quiet gap must make progress");
                }
            }
        }
        out.truncate(steps as usize);
        out
    }

    #[test]
    fn geometric_gap_edge_cases() {
        let mut rng = StdRng::seed_from_u64(8);
        assert_eq!(geometric_gap(&mut rng, 0.0), u64::MAX);
        assert_eq!(geometric_gap(&mut rng, -0.5), u64::MAX);
        assert_eq!(geometric_gap(&mut rng, 1.0), 1);
        for _ in 0..1000 {
            assert!(geometric_gap(&mut rng, 0.3) >= 1);
        }
    }

    #[test]
    fn geometric_gap_mean_matches_analytic() {
        let mut rng = StdRng::seed_from_u64(77);
        for p in [0.02, 0.1, 0.5, 0.9] {
            let n = 40_000;
            let total: f64 = (0..n).map(|_| geometric_gap(&mut rng, p) as f64).sum();
            let mean = total / n as f64;
            assert!(
                (mean - 1.0 / p).abs() < 0.05 / p,
                "p={p}: mean {mean} vs {}",
                1.0 / p
            );
        }
    }

    #[test]
    fn default_gap_fallback_is_stream_identical_to_per_slice() {
        // OnOff has no override: gap consumption must reproduce the exact
        // per-slice sequence from the same seed.
        let mut a = OnOffArrivals::new(0.05, 0.03, 0.7).unwrap();
        let mut b = a.clone();
        let mut rng_a = StdRng::seed_from_u64(4242);
        let mut rng_b = StdRng::seed_from_u64(4242);
        let per_slice: Vec<u32> = (0..5_000).map(|_| a.next_arrivals(&mut rng_a)).collect();
        let via_gaps = arrivals_via_gaps(&mut b, &mut rng_b, 5_000, 37);
        assert_eq!(per_slice, via_gaps);
    }

    #[test]
    fn pareto_and_periodic_gaps_are_stream_identical() {
        let mut a = ParetoArrivals::new(2.0, 4.0).unwrap();
        let mut b = a.clone();
        let mut rng_a = StdRng::seed_from_u64(9);
        let mut rng_b = StdRng::seed_from_u64(9);
        let per_slice: Vec<u32> = (0..4_000).map(|_| a.next_arrivals(&mut rng_a)).collect();
        assert_eq!(per_slice, arrivals_via_gaps(&mut b, &mut rng_b, 4_000, 23));

        let mut a = PeriodicArrivals::new(10, 3).unwrap();
        let mut b = a.clone();
        let mut rng_a = StdRng::seed_from_u64(17);
        let mut rng_b = StdRng::seed_from_u64(17);
        let per_slice: Vec<u32> = (0..4_000).map(|_| a.next_arrivals(&mut rng_a)).collect();
        assert_eq!(per_slice, arrivals_via_gaps(&mut b, &mut rng_b, 4_000, 7));
    }

    #[test]
    fn bernoulli_gap_rate_matches_per_slice_rate() {
        // Different draw order, same law: empirical rates agree closely.
        let p = 0.04;
        let steps = 400_000;
        let mut per = BernoulliArrivals::new(p).unwrap();
        let count_per = run(&mut per, steps, 311);
        let mut gap = BernoulliArrivals::new(p).unwrap();
        let mut rng = StdRng::seed_from_u64(312);
        let count_gap: u64 = arrivals_via_gaps(&mut gap, &mut rng, steps, 501)
            .iter()
            .map(|&a| u64::from(a))
            .sum();
        let (r1, r2) = (
            count_per as f64 / steps as f64,
            count_gap as f64 / steps as f64,
        );
        assert!((r1 - p).abs() < 0.005, "per-slice rate {r1}");
        assert!((r2 - p).abs() < 0.005, "gap rate {r2}");
    }

    #[test]
    fn bernoulli_gap_extremes() {
        let mut never = BernoulliArrivals::new(0.0).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(
            never.next_arrival_gap(&mut rng, 1000),
            ArrivalGap::Quiet { advanced: 1000 }
        );
        let mut always = BernoulliArrivals::new(1.0).unwrap();
        assert_eq!(
            always.next_arrival_gap(&mut rng, 1000),
            ArrivalGap::Arrival { empty: 0, count: 1 }
        );
        assert_eq!(
            always.next_arrival_gap(&mut rng, 0),
            ArrivalGap::Quiet { advanced: 0 }
        );
    }

    #[test]
    fn mmpp_gap_rate_matches_analytic() {
        let mut gen = MmppArrivals::new(vec![0.98, 0.02, 0.10, 0.90], vec![0.01, 0.30]).unwrap();
        let analytic = gen.mean_rate().unwrap();
        let steps = 400_000;
        let mut rng = StdRng::seed_from_u64(55);
        let count: u64 = arrivals_via_gaps(&mut gen, &mut rng, steps, 701)
            .iter()
            .map(|&a| u64::from(a))
            .sum();
        let rate = count as f64 / steps as f64;
        assert!(
            (rate - analytic).abs() < 0.01,
            "gap rate {rate} vs analytic {analytic}"
        );
    }

    #[test]
    fn mmpp_gap_deterministic_alternation_tracks_modes() {
        // Chain that deterministically alternates; only mode 1 emits.
        let mut gen = MmppArrivals::new(vec![0.0, 1.0, 1.0, 0.0], vec![0.0, 1.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        // Slice pattern: mode 0 (no arrival) -> mode 1 (arrival) -> ...
        let seq = arrivals_via_gaps(&mut gen, &mut rng, 10, 64);
        assert_eq!(seq, vec![0, 1, 0, 1, 0, 1, 0, 1, 0, 1]);
    }
}

/// Streaming summary of a workload's interarrival structure.
///
/// Accumulates per-slice arrival indicators and reports count, mean rate,
/// and the empirical distribution of idle-gap lengths — the quantity that
/// decides whether timeout-style policies can win (long gaps) or not.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InterarrivalStats {
    slices: u64,
    arrivals: u64,
    current_gap: u64,
    gaps: Vec<u64>,
}

impl InterarrivalStats {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        InterarrivalStats::default()
    }

    /// Feeds one slice's arrival count.
    pub fn observe(&mut self, arrivals: u32) {
        self.slices += 1;
        if arrivals > 0 {
            self.arrivals += u64::from(arrivals);
            self.gaps.push(self.current_gap);
            self.current_gap = 0;
        } else {
            self.current_gap += 1;
        }
    }

    /// Slices observed so far.
    #[must_use]
    pub fn slices(&self) -> u64 {
        self.slices
    }

    /// Total requests observed.
    #[must_use]
    pub fn arrivals(&self) -> u64 {
        self.arrivals
    }

    /// Empirical mean arrivals per slice.
    #[must_use]
    pub fn mean_rate(&self) -> f64 {
        if self.slices == 0 {
            0.0
        } else {
            self.arrivals as f64 / self.slices as f64
        }
    }

    /// Completed idle gaps (slices of silence preceding each arrival).
    #[must_use]
    pub fn gaps(&self) -> &[u64] {
        &self.gaps
    }

    /// Mean completed idle-gap length in slices.
    #[must_use]
    pub fn mean_gap(&self) -> f64 {
        if self.gaps.is_empty() {
            0.0
        } else {
            self.gaps.iter().sum::<u64>() as f64 / self.gaps.len() as f64
        }
    }

    /// The `q`-quantile (0..=1) of completed gap lengths, by nearest-rank.
    #[must_use]
    pub fn gap_quantile(&self, q: f64) -> Option<u64> {
        if self.gaps.is_empty() {
            return None;
        }
        let mut sorted = self.gaps.clone();
        sorted.sort_unstable();
        let rank = ((q.clamp(0.0, 1.0)) * (sorted.len() - 1) as f64).round() as usize;
        Some(sorted[rank])
    }

    /// Fraction of completed gaps strictly longer than `threshold` slices —
    /// an upper bound on how often a timeout of that length pays off.
    #[must_use]
    pub fn fraction_gaps_above(&self, threshold: u64) -> f64 {
        if self.gaps.is_empty() {
            return 0.0;
        }
        self.gaps.iter().filter(|&&g| g > threshold).count() as f64 / self.gaps.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(pattern: &[u32]) -> InterarrivalStats {
        let mut s = InterarrivalStats::new();
        for &a in pattern {
            s.observe(a);
        }
        s
    }

    #[test]
    fn counts_and_rate() {
        let s = feed(&[0, 0, 1, 0, 1, 1, 0, 0, 0, 1]);
        assert_eq!(s.slices(), 10);
        assert_eq!(s.arrivals(), 4);
        assert!((s.mean_rate() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn gap_accounting() {
        // Arrivals at indices 2, 4, 5, 9: gaps 2, 1, 0, 3.
        let s = feed(&[0, 0, 1, 0, 1, 1, 0, 0, 0, 1]);
        assert_eq!(s.gaps(), &[2, 1, 0, 3]);
        assert!((s.mean_gap() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn quantiles_nearest_rank() {
        let s = feed(&[0, 0, 1, 0, 1, 1, 0, 0, 0, 1]);
        assert_eq!(s.gap_quantile(0.0), Some(0));
        assert_eq!(s.gap_quantile(1.0), Some(3));
        // sorted gaps 0,1,2,3 -> rank round(0.5 * 3) = 2 -> value 2.
        assert_eq!(s.gap_quantile(0.5), Some(2));
    }

    #[test]
    fn quantile_empty_is_none() {
        let s = InterarrivalStats::new();
        assert_eq!(s.gap_quantile(0.5), None);
        assert_eq!(s.mean_gap(), 0.0);
        assert_eq!(s.mean_rate(), 0.0);
    }

    #[test]
    fn fraction_above_threshold() {
        let s = feed(&[0, 0, 1, 0, 1, 1, 0, 0, 0, 1]);
        // gaps 2,1,0,3: above 1 -> {2,3} = 0.5.
        assert!((s.fraction_gaps_above(1) - 0.5).abs() < 1e-12);
        assert_eq!(s.fraction_gaps_above(10), 0.0);
    }
}

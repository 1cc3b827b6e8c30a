use crate::WorkloadError;

/// Exact Markov description of a workload's arrival process.
///
/// This is the interface between the workload crate and the *model-based*
/// side of the reproduction: when a [`crate::WorkloadSpec`] is Markovian
/// (Bernoulli, MMPP, on/off), it exports this model, and `qdpm-mdp` composes
/// it with a device model into the exact DTMDP whose solution is the paper's
/// "optimal policy derived by analytical techniques which assume model is
/// completely known in prior" (Fig. 1).
#[derive(Debug, Clone, PartialEq)]
pub struct MarkovArrivalModel {
    /// Row-major `n x n` row-stochastic mode transition matrix.
    pub transition: Vec<f64>,
    /// Per-mode probability that one request arrives in a slice.
    pub arrival_prob: Vec<f64>,
}

impl MarkovArrivalModel {
    /// Creates and validates a model.
    ///
    /// # Errors
    ///
    /// Returns a [`WorkloadError`] on dimension mismatch or a non-stochastic
    /// transition row.
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
        }
        for &p in &arrival_prob {
            if !(p.is_finite() && (0.0..=1.0).contains(&p)) {
                return Err(WorkloadError::InvalidProbability {
                    what: "arrival",
                    value: p,
                });
            }
        }
        Ok(MarkovArrivalModel {
            transition,
            arrival_prob,
        })
    }

    /// Single-mode (Bernoulli) model.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidProbability`] when `p` is out of range.
    pub fn bernoulli(p: f64) -> Result<Self, WorkloadError> {
        MarkovArrivalModel::new(vec![1.0], vec![p])
    }

    /// Number of hidden modes.
    #[must_use]
    pub fn n_modes(&self) -> usize {
        self.arrival_prob.len()
    }

    /// Probability of moving from mode `i` to mode `j` in one slice.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range.
    #[must_use]
    pub fn mode_transition(&self, i: usize, j: usize) -> f64 {
        let n = self.n_modes();
        assert!(i < n && j < n);
        self.transition[i * n + j]
    }

    /// Stationary distribution of the mode chain (power iteration).
    #[must_use]
    pub fn stationary_distribution(&self) -> Vec<f64> {
        stationary_of(&self.transition, self.n_modes())
    }

    /// Long-run mean arrivals per slice.
    #[must_use]
    pub fn mean_rate(&self) -> f64 {
        self.stationary_distribution()
            .iter()
            .zip(&self.arrival_prob)
            .map(|(a, b)| a * b)
            .sum()
    }
}

/// Stationary distribution of a row-stochastic `n x n` transition matrix
/// (row-major), by power iteration from the uniform vector. Shared by
/// every mode chain in this crate so tolerance/iteration-cap changes land
/// in one place.
pub(crate) fn stationary_of(transition: &[f64], n: usize) -> Vec<f64> {
    debug_assert_eq!(transition.len(), n * n);
    let mut pi = vec![1.0 / n as f64; n];
    let mut next = vec![0.0; n];
    for _ in 0..10_000 {
        for x in next.iter_mut() {
            *x = 0.0;
        }
        for (i, &p) in pi.iter().enumerate() {
            let row = &transition[i * n..(i + 1) * n];
            for (x, &t) in next.iter_mut().zip(row) {
                *x += p * t;
            }
        }
        let delta: f64 = pi.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
        pi.copy_from_slice(&next);
        if delta < 1e-13 {
            break;
        }
    }
    pi
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bernoulli_model() {
        let m = MarkovArrivalModel::bernoulli(0.2).unwrap();
        assert_eq!(m.n_modes(), 1);
        assert_eq!(m.mode_transition(0, 0), 1.0);
        assert!((m.mean_rate() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_rows() {
        let r = MarkovArrivalModel::new(vec![0.5, 0.4, 0.5, 0.5], vec![0.1, 0.2]);
        assert!(matches!(
            r,
            Err(WorkloadError::NotStochastic { row: 0, .. })
        ));
    }

    #[test]
    fn rejects_bad_arrival_prob() {
        let r = MarkovArrivalModel::new(vec![1.0], vec![1.2]);
        assert!(matches!(r, Err(WorkloadError::InvalidProbability { .. })));
    }

    #[test]
    fn asymmetric_stationary() {
        // off->on 0.2, on->off 0.1 => pi_on = 2/3.
        let m = MarkovArrivalModel::new(vec![0.8, 0.2, 0.1, 0.9], vec![0.0, 0.3]).unwrap();
        let pi = m.stationary_distribution();
        assert!((pi[1] - 2.0 / 3.0).abs() < 1e-9);
        assert!((m.mean_rate() - 0.2).abs() < 1e-9);
    }
}

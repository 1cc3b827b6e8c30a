use crate::MdpError;

/// Weights combining the two cost criteria of the DPM problem into the
/// scalar cost minimized by the unconstrained solvers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostWeights {
    /// Weight on energy consumed per slice.
    pub energy: f64,
    /// Weight on the performance penalty (end-of-slice queue length).
    pub perf: f64,
}

impl CostWeights {
    /// Creates validated weights.
    ///
    /// # Errors
    ///
    /// Returns [`MdpError::BadParameter`] when a weight is negative or
    /// non-finite.
    pub fn new(energy: f64, perf: f64) -> Result<Self, MdpError> {
        if !(energy.is_finite() && energy >= 0.0 && perf.is_finite() && perf >= 0.0) {
            return Err(MdpError::BadParameter(format!(
                "cost weights must be non-negative and finite, got ({energy}, {perf})"
            )));
        }
        Ok(CostWeights { energy, perf })
    }
}

impl Default for CostWeights {
    /// Energy weight 1, performance weight 0.1: the trade-off used by the
    /// reproduction's headline experiments.
    fn default() -> Self {
        CostWeights {
            energy: 1.0,
            perf: 0.1,
        }
    }
}

/// A finite discrete-time Markov decision process with two cost criteria.
///
/// States and actions are dense indices. Transitions are stored sparsely per
/// legal `(state, action)` pair. Two immediate-cost vectors are kept —
/// `energy` and `perf` — matching the DPM formulation: unconstrained solvers
/// minimize a [`CostWeights`] combination, while the constrained LP
/// minimizes energy subject to a bound on performance.
///
/// Build instances with [`MdpBuilder`]; construction validates that every
/// legal pair has a proper probability row and finite costs, and that every
/// state has at least one legal action.
#[derive(Debug, Clone, PartialEq)]
pub struct Mdp {
    n_states: usize,
    n_actions: usize,
    legal: Vec<bool>,
    /// Sparse rows, indexed `s * n_actions + a`; empty when illegal.
    transitions: Vec<Vec<(usize, f64)>>,
    energy: Vec<f64>,
    perf: Vec<f64>,
}

impl Mdp {
    /// Starts building an MDP with the given dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`MdpError::EmptyModel`] when either dimension is zero.
    pub fn builder(n_states: usize, n_actions: usize) -> Result<MdpBuilder, MdpError> {
        if n_states == 0 || n_actions == 0 {
            return Err(MdpError::EmptyModel);
        }
        let n = n_states * n_actions;
        Ok(MdpBuilder {
            mdp: Mdp {
                n_states,
                n_actions,
                legal: vec![false; n],
                transitions: vec![Vec::new(); n],
                energy: vec![0.0; n],
                perf: vec![0.0; n],
            },
        })
    }

    /// Number of states.
    #[must_use]
    pub fn n_states(&self) -> usize {
        self.n_states
    }

    /// Number of actions.
    #[must_use]
    pub fn n_actions(&self) -> usize {
        self.n_actions
    }

    /// Whether action `a` is legal in state `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` or `a` is out of range.
    #[must_use]
    pub fn is_legal(&self, s: usize, a: usize) -> bool {
        self.legal[self.idx(s, a)]
    }

    /// Legal actions of state `s`, in ascending order.
    pub fn legal_actions(&self, s: usize) -> impl Iterator<Item = usize> + '_ {
        let base = s * self.n_actions;
        (0..self.n_actions).filter(move |a| self.legal[base + a])
    }

    /// Sparse transition row of `(s, a)` as `(next_state, probability)`.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    #[must_use]
    pub fn transition_row(&self, s: usize, a: usize) -> &[(usize, f64)] {
        &self.transitions[self.idx(s, a)]
    }

    /// Immediate energy cost of `(s, a)`.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    #[must_use]
    pub fn energy_cost(&self, s: usize, a: usize) -> f64 {
        self.energy[self.idx(s, a)]
    }

    /// Immediate performance cost (expected end-of-slice queue length).
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    #[must_use]
    pub fn perf_cost(&self, s: usize, a: usize) -> f64 {
        self.perf[self.idx(s, a)]
    }

    /// The scalarized cost vector `w.energy * energy + w.perf * perf`,
    /// indexed `s * n_actions + a` (entries of illegal pairs are 0).
    #[must_use]
    pub fn combined_cost(&self, w: CostWeights) -> Vec<f64> {
        self.energy
            .iter()
            .zip(&self.perf)
            .map(|(e, p)| w.energy * e + w.perf * p)
            .collect()
    }

    /// The raw energy-cost vector, indexed `s * n_actions + a`.
    #[must_use]
    pub fn energy_cost_vector(&self) -> &[f64] {
        &self.energy
    }

    /// The raw performance-cost vector, indexed `s * n_actions + a`.
    #[must_use]
    pub fn perf_cost_vector(&self) -> &[f64] {
        &self.perf
    }

    /// Approximate heap footprint of the model in bytes — the model-based
    /// memory baseline of the paper's efficiency comparison (table T2).
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        let pair = std::mem::size_of::<(usize, f64)>();
        self.transitions
            .iter()
            .map(|r| r.len() * pair)
            .sum::<usize>()
            + self.legal.len() * std::mem::size_of::<bool>()
            + (self.energy.len() + self.perf.len()) * std::mem::size_of::<f64>()
    }

    #[inline]
    fn idx(&self, s: usize, a: usize) -> usize {
        assert!(
            s < self.n_states && a < self.n_actions,
            "index out of range"
        );
        s * self.n_actions + a
    }
}

/// Incremental builder for [`Mdp`] (see [`Mdp::builder`]).
#[derive(Debug, Clone)]
pub struct MdpBuilder {
    mdp: Mdp,
}

impl MdpBuilder {
    /// Declares `(s, a)` legal with the given sparse transition row and
    /// immediate costs. Later calls overwrite earlier ones.
    ///
    /// # Panics
    ///
    /// Panics if `s` or `a` is out of range.
    pub fn set_action(
        &mut self,
        s: usize,
        a: usize,
        transitions: Vec<(usize, f64)>,
        energy: f64,
        perf: f64,
    ) -> &mut Self {
        let i = self.mdp.idx(s, a);
        self.mdp.legal[i] = true;
        self.mdp.transitions[i] = transitions;
        self.mdp.energy[i] = energy;
        self.mdp.perf[i] = perf;
        self
    }

    /// Validates and finalizes the model.
    ///
    /// # Errors
    ///
    /// Returns an [`MdpError`] when a state has no legal action, a
    /// transition row does not sum to 1 (tolerance `1e-9`), a next state is
    /// out of range, or a cost is non-finite.
    pub fn build(self) -> Result<Mdp, MdpError> {
        let m = self.mdp;
        for s in 0..m.n_states {
            if !(0..m.n_actions).any(|a| m.legal[s * m.n_actions + a]) {
                return Err(MdpError::NoLegalAction { state: s });
            }
            for a in 0..m.n_actions {
                let i = s * m.n_actions + a;
                if !m.legal[i] {
                    continue;
                }
                let mut sum = 0.0;
                for &(next, p) in &m.transitions[i] {
                    if next >= m.n_states {
                        return Err(MdpError::StateOutOfRange {
                            next,
                            n_states: m.n_states,
                        });
                    }
                    sum += p;
                }
                if (sum - 1.0).abs() > 1e-9 {
                    return Err(MdpError::BadTransitionRow {
                        state: s,
                        action: a,
                        sum,
                    });
                }
                if !m.energy[i].is_finite() || !m.perf[i].is_finite() {
                    return Err(MdpError::NonFiniteCost {
                        state: s,
                        action: a,
                    });
                }
            }
        }
        Ok(m)
    }
}

/// A deterministic stationary policy: one action per state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeterministicPolicy {
    actions: Vec<usize>,
}

impl DeterministicPolicy {
    /// Wraps a per-state action table.
    #[must_use]
    pub fn new(actions: Vec<usize>) -> Self {
        DeterministicPolicy { actions }
    }

    /// The action prescribed in state `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    #[must_use]
    pub fn action(&self, s: usize) -> usize {
        self.actions[s]
    }

    /// Number of states covered.
    #[must_use]
    pub fn n_states(&self) -> usize {
        self.actions.len()
    }

    /// The underlying action table.
    #[must_use]
    pub fn actions(&self) -> &[usize] {
        &self.actions
    }
}

/// A stochastic stationary policy: a distribution over actions per state.
///
/// Constrained MDPs generally need randomized optimal policies; the
/// occupation-measure LP returns one of these.
#[derive(Debug, Clone, PartialEq)]
pub struct StochasticPolicy {
    /// Row-major `n_states x n_actions` action probabilities.
    probs: Vec<f64>,
    n_actions: usize,
}

impl StochasticPolicy {
    /// Wraps a row-major probability table.
    ///
    /// # Errors
    ///
    /// Returns [`MdpError::BadParameter`] when a row does not sum to 1
    /// (tolerance `1e-6`) or contains a negative entry.
    pub fn new(probs: Vec<f64>, n_actions: usize) -> Result<Self, MdpError> {
        if n_actions == 0 || !probs.len().is_multiple_of(n_actions) {
            return Err(MdpError::BadParameter(
                "probability table shape mismatch".into(),
            ));
        }
        for (s, row) in probs.chunks(n_actions).enumerate() {
            let sum: f64 = row.iter().sum();
            if (sum - 1.0).abs() > 1e-6 || row.iter().any(|&p| p < -1e-12) {
                return Err(MdpError::BadParameter(format!(
                    "row {s} is not a distribution (sum {sum})"
                )));
            }
        }
        Ok(StochasticPolicy { probs, n_actions })
    }

    /// Probability of taking `a` in state `s`.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    #[must_use]
    pub fn prob(&self, s: usize, a: usize) -> f64 {
        assert!(a < self.n_actions, "action out of range");
        self.probs[s * self.n_actions + a]
    }

    /// Number of states covered.
    #[must_use]
    pub fn n_states(&self) -> usize {
        self.probs.len() / self.n_actions
    }

    /// Samples an action in state `s` from a uniform draw `u in [0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    #[must_use]
    pub fn sample(&self, s: usize, u: f64) -> usize {
        let row = &self.probs[s * self.n_actions..(s + 1) * self.n_actions];
        let mut acc = 0.0;
        for (a, &p) in row.iter().enumerate() {
            acc += p;
            if u < acc {
                return a;
            }
        }
        self.n_actions - 1
    }

    /// Collapses to the per-state argmax action (loses randomization).
    #[must_use]
    pub fn to_deterministic(&self) -> DeterministicPolicy {
        let actions = self
            .probs
            .chunks(self.n_actions)
            .map(|row| {
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect();
        DeterministicPolicy::new(actions)
    }
}

impl From<DeterministicPolicy> for StochasticPolicy {
    fn from(d: DeterministicPolicy) -> Self {
        let n_states = d.n_states();
        let n_actions = d.actions().iter().max().copied().unwrap_or(0) + 1;
        let mut probs = vec![0.0; n_states * n_actions];
        for (s, &a) in d.actions().iter().enumerate() {
            probs[s * n_actions + a] = 1.0;
        }
        StochasticPolicy { probs, n_actions }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two-state, two-action chain used across the solver tests.
    pub(crate) fn toy_mdp() -> Mdp {
        let mut b = Mdp::builder(2, 2).unwrap();
        // State 0: action 0 stays (cost 1), action 1 moves to 1 (cost 5).
        b.set_action(0, 0, vec![(0, 1.0)], 1.0, 0.0);
        b.set_action(0, 1, vec![(1, 1.0)], 5.0, 0.0);
        // State 1: action 0 stays (cost 0), action 1 moves to 0 (cost 2).
        b.set_action(1, 0, vec![(1, 1.0)], 0.0, 0.0);
        b.set_action(1, 1, vec![(0, 1.0)], 2.0, 0.0);
        b.build().unwrap()
    }

    #[test]
    fn builder_validates_probability_rows() {
        let mut b = Mdp::builder(2, 1).unwrap();
        b.set_action(0, 0, vec![(0, 0.5), (1, 0.4)], 0.0, 0.0);
        b.set_action(1, 0, vec![(1, 1.0)], 0.0, 0.0);
        assert!(matches!(
            b.build(),
            Err(MdpError::BadTransitionRow {
                state: 0,
                action: 0,
                ..
            })
        ));
    }

    #[test]
    fn builder_rejects_missing_actions() {
        let mut b = Mdp::builder(2, 1).unwrap();
        b.set_action(0, 0, vec![(0, 1.0)], 0.0, 0.0);
        assert!(matches!(
            b.build(),
            Err(MdpError::NoLegalAction { state: 1 })
        ));
    }

    #[test]
    fn builder_rejects_out_of_range_next_state() {
        let mut b = Mdp::builder(1, 1).unwrap();
        b.set_action(0, 0, vec![(3, 1.0)], 0.0, 0.0);
        assert!(matches!(
            b.build(),
            Err(MdpError::StateOutOfRange { next: 3, .. })
        ));
    }

    #[test]
    fn builder_rejects_nan_cost() {
        let mut b = Mdp::builder(1, 1).unwrap();
        b.set_action(0, 0, vec![(0, 1.0)], f64::NAN, 0.0);
        assert!(matches!(b.build(), Err(MdpError::NonFiniteCost { .. })));
    }

    #[test]
    fn zero_dimensions_rejected() {
        assert!(matches!(Mdp::builder(0, 2), Err(MdpError::EmptyModel)));
        assert!(matches!(Mdp::builder(2, 0), Err(MdpError::EmptyModel)));
    }

    #[test]
    fn accessors() {
        let m = toy_mdp();
        assert_eq!(m.n_states(), 2);
        assert_eq!(m.n_actions(), 2);
        assert!(m.is_legal(0, 1));
        assert_eq!(m.legal_actions(0).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(m.transition_row(0, 1), &[(1, 1.0)]);
        assert_eq!(m.energy_cost(0, 1), 5.0);
        assert!(m.memory_bytes() > 0);
    }

    #[test]
    fn combined_cost_weighting() {
        let mut b = Mdp::builder(1, 1).unwrap();
        b.set_action(0, 0, vec![(0, 1.0)], 2.0, 3.0);
        let m = b.build().unwrap();
        let w = CostWeights::new(1.0, 0.5).unwrap();
        assert_eq!(m.combined_cost(w), vec![3.5]);
    }

    #[test]
    fn cost_weights_validate() {
        assert!(CostWeights::new(-1.0, 0.0).is_err());
        assert!(CostWeights::new(1.0, f64::NAN).is_err());
        assert!(CostWeights::new(0.0, 0.0).is_ok());
    }

    #[test]
    fn stochastic_policy_sampling() {
        let p = StochasticPolicy::new(vec![0.25, 0.75], 2).unwrap();
        assert_eq!(p.sample(0, 0.1), 0);
        assert_eq!(p.sample(0, 0.3), 1);
        assert_eq!(p.sample(0, 0.999), 1);
        assert_eq!(p.n_states(), 1);
    }

    #[test]
    fn stochastic_policy_validates_rows() {
        assert!(StochasticPolicy::new(vec![0.5, 0.4], 2).is_err());
        assert!(StochasticPolicy::new(vec![1.2, -0.2], 2).is_err());
    }

    #[test]
    fn deterministic_round_trip() {
        let d = DeterministicPolicy::new(vec![1, 0]);
        let s: StochasticPolicy = d.clone().into();
        assert_eq!(s.prob(0, 1), 1.0);
        assert_eq!(s.prob(1, 0), 1.0);
        assert_eq!(s.to_deterministic(), d);
    }
}

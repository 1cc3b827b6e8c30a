use crate::CoreError;

/// Learning-rate schedule for the Q-update (the `gamma` of the paper's
/// Eqn. 3).
///
/// The paper uses a scalar learning rate; we additionally provide the two
/// standard decaying schedules so the ablation bench can quantify the
/// choice (stochastic-approximation theory wants `sum gamma = inf`,
/// `sum gamma^2 < inf` for exact convergence, while a constant rate tracks
/// nonstationarity better — exactly the trade-off Fig. 1 vs Fig. 2 probes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LearningRate {
    /// Fixed rate in `(0, 1]`: tracks nonstationary environments (Fig. 2).
    Constant(f64),
    /// `rate = c / (c + t)` on the global step count `t`.
    GlobalDecay {
        /// Decay scale `c > 0`.
        c: f64,
    },
    /// `rate = 1 / visits(s, a)^omega` with `omega in (0.5, 1]`: the
    /// classic convergent schedule (Watkins' conditions).
    VisitDecay {
        /// Exponent in `(0.5, 1]`.
        omega: f64,
    },
}

impl LearningRate {
    /// Validates the schedule parameters.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadLearningRate`] for out-of-range parameters.
    pub fn validate(&self) -> Result<(), CoreError> {
        match *self {
            LearningRate::Constant(g) => {
                if !(g.is_finite() && g > 0.0 && g <= 1.0) {
                    return Err(CoreError::BadLearningRate(format!(
                        "constant rate {g} not in (0, 1]"
                    )));
                }
            }
            LearningRate::GlobalDecay { c } => {
                if !(c.is_finite() && c > 0.0) {
                    return Err(CoreError::BadLearningRate(format!("decay scale {c} <= 0")));
                }
            }
            LearningRate::VisitDecay { omega } => {
                if !(omega.is_finite() && omega > 0.5 && omega <= 1.0) {
                    return Err(CoreError::BadLearningRate(format!(
                        "visit exponent {omega} not in (0.5, 1]"
                    )));
                }
            }
        }
        Ok(())
    }

    /// The rate to apply for an update at global step `t` (0-based) when
    /// `(s, a)` has been visited `visits` times (including this one).
    #[must_use]
    #[inline]
    pub fn rate(&self, t: u64, visits: u32) -> f64 {
        match *self {
            LearningRate::Constant(g) => g,
            LearningRate::GlobalDecay { c } => c / (c + t as f64),
            LearningRate::VisitDecay { omega } => 1.0 / f64::from(visits.max(1)).powf(omega),
        }
    }
}

impl Default for LearningRate {
    /// The paper's setting: a constant rate (0.1) so the agent keeps
    /// adapting forever.
    fn default() -> Self {
        LearningRate::Constant(0.1)
    }
}

/// Exploration strategy for action selection.
///
/// The paper prescribes epsilon-greedy: "At each state, with probability
/// \[epsilon\] a random action needs to be taken instead of the action
/// recommended by the Q(s, a)." The decaying variant and Boltzmann
/// (softmax) selection are provided for the ablation bench.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Exploration {
    /// Uniform-random action with fixed probability `epsilon`.
    EpsilonGreedy {
        /// Exploration probability in `[0, 1]`.
        epsilon: f64,
    },
    /// Epsilon decaying as `max(min_epsilon, epsilon0 * decay^t)`.
    DecayingEpsilon {
        /// Initial epsilon in `[0, 1]`.
        epsilon0: f64,
        /// Per-step multiplicative decay in `(0, 1]`.
        decay: f64,
        /// Floor epsilon in `[0, 1]`.
        min_epsilon: f64,
    },
    /// Boltzmann (softmax) selection with fixed temperature.
    Boltzmann {
        /// Temperature `> 0`; higher is more random.
        temperature: f64,
    },
}

impl Exploration {
    /// Validates the strategy parameters.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadExploration`] for out-of-range parameters.
    pub fn validate(&self) -> Result<(), CoreError> {
        let unit = |x: f64| x.is_finite() && (0.0..=1.0).contains(&x);
        match *self {
            Exploration::EpsilonGreedy { epsilon } => {
                if !unit(epsilon) {
                    return Err(CoreError::BadExploration(format!(
                        "epsilon {epsilon} not in [0, 1]"
                    )));
                }
            }
            Exploration::DecayingEpsilon {
                epsilon0,
                decay,
                min_epsilon,
            } => {
                if !unit(epsilon0) || !unit(min_epsilon) {
                    return Err(CoreError::BadExploration(format!(
                        "epsilon bounds ({epsilon0}, {min_epsilon}) not in [0, 1]"
                    )));
                }
                if !(decay.is_finite() && decay > 0.0 && decay <= 1.0) {
                    return Err(CoreError::BadExploration(format!(
                        "decay {decay} not in (0, 1]"
                    )));
                }
            }
            Exploration::Boltzmann { temperature } => {
                if !(temperature.is_finite() && temperature > 0.0) {
                    return Err(CoreError::BadExploration(format!(
                        "temperature {temperature} must be positive"
                    )));
                }
            }
        }
        Ok(())
    }

    /// The effective epsilon at global step `t` (1.0 means "always
    /// explore"); Boltzmann reports 0 here because it randomizes through
    /// its softmax instead.
    #[must_use]
    #[inline]
    pub fn epsilon_at(&self, t: u64) -> f64 {
        match *self {
            Exploration::EpsilonGreedy { epsilon } => epsilon,
            Exploration::DecayingEpsilon {
                epsilon0,
                decay,
                min_epsilon,
            } => {
                let e = epsilon0 * decay.powf(t as f64);
                e.max(min_epsilon)
            }
            Exploration::Boltzmann { .. } => 0.0,
        }
    }
}

impl Default for Exploration {
    /// The paper's epsilon-greedy with a small fixed epsilon.
    fn default() -> Self {
        Exploration::EpsilonGreedy { epsilon: 0.05 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_rate_validation() {
        assert!(LearningRate::Constant(0.1).validate().is_ok());
        assert!(LearningRate::Constant(1.0).validate().is_ok());
        assert!(LearningRate::Constant(0.0).validate().is_err());
        assert!(LearningRate::Constant(1.1).validate().is_err());
    }

    #[test]
    fn constant_rate_is_constant() {
        let lr = LearningRate::Constant(0.3);
        assert_eq!(lr.rate(0, 1), 0.3);
        assert_eq!(lr.rate(10_000, 99), 0.3);
    }

    #[test]
    fn global_decay_shrinks() {
        let lr = LearningRate::GlobalDecay { c: 100.0 };
        assert!(lr.rate(0, 1) > lr.rate(100, 1));
        assert!((lr.rate(100, 1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn visit_decay_uses_counts() {
        let lr = LearningRate::VisitDecay { omega: 1.0 };
        assert_eq!(lr.rate(999, 1), 1.0);
        assert_eq!(lr.rate(999, 4), 0.25);
        // Zero visits guarded to 1.
        assert_eq!(lr.rate(0, 0), 1.0);
    }

    #[test]
    fn visit_decay_validation() {
        assert!(LearningRate::VisitDecay { omega: 0.5 }.validate().is_err());
        assert!(LearningRate::VisitDecay { omega: 0.75 }.validate().is_ok());
    }

    #[test]
    fn epsilon_greedy_constant() {
        let e = Exploration::EpsilonGreedy { epsilon: 0.1 };
        assert_eq!(e.epsilon_at(0), 0.1);
        assert_eq!(e.epsilon_at(1_000_000), 0.1);
    }

    #[test]
    fn decaying_epsilon_floors() {
        let e = Exploration::DecayingEpsilon {
            epsilon0: 1.0,
            decay: 0.5,
            min_epsilon: 0.01,
        };
        assert_eq!(e.epsilon_at(0), 1.0);
        assert_eq!(e.epsilon_at(1), 0.5);
        assert_eq!(e.epsilon_at(100), 0.01);
    }

    #[test]
    fn exploration_validation() {
        assert!(Exploration::EpsilonGreedy { epsilon: 1.5 }
            .validate()
            .is_err());
        assert!(Exploration::Boltzmann { temperature: 0.0 }
            .validate()
            .is_err());
        assert!(Exploration::Boltzmann { temperature: 0.5 }
            .validate()
            .is_ok());
        assert!(Exploration::DecayingEpsilon {
            epsilon0: 0.5,
            decay: 0.0,
            min_epsilon: 0.0
        }
        .validate()
        .is_err());
    }

    #[test]
    fn defaults_are_paper_settings() {
        assert_eq!(LearningRate::default(), LearningRate::Constant(0.1));
        assert_eq!(
            Exploration::default(),
            Exploration::EpsilonGreedy { epsilon: 0.05 }
        );
    }
}

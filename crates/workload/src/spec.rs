use crate::generators::{
    BernoulliArrivals, MmppArrivals, OnOffArrivals, ParetoArrivals, PeriodicArrivals,
};
use crate::{
    MarkovArrivalModel, RandomWalkRate, RequestGenerator, SinusoidalRate, TraceReplay,
    WorkloadError,
};

/// One mode of an MMPP workload spec.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MmppMode {
    /// Arrival probability while the chain is in this mode.
    pub arrival_prob: f64,
}

/// Declarative, serializable description of a stationary workload.
///
/// A spec plays two roles:
///
/// 1. [`WorkloadSpec::build`] instantiates the runtime [`RequestGenerator`]
///    that drives the simulator (the "synthetic input" of the paper);
/// 2. [`WorkloadSpec::markov_model`] exports, for Markovian specs, the exact
///    arrival model used by `qdpm-mdp` to derive the model-known optimal
///    policy — the analytic baseline of Fig. 1.
///
/// Non-Markovian specs (Pareto, periodic, trace) return `None` from
/// [`WorkloadSpec::markov_model`]; against them only model-free and
/// heuristic policies can be compared exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// Memoryless arrivals with fixed probability.
    Bernoulli {
        /// Per-slice arrival probability.
        p: f64,
    },
    /// Markov-modulated arrivals.
    Mmpp {
        /// Row-major row-stochastic mode transition matrix.
        transition: Vec<f64>,
        /// Per-mode arrival settings.
        modes: Vec<MmppMode>,
    },
    /// Bursty on/off arrivals.
    OnOff {
        /// Per-slice probability of leaving the on mode.
        p_on_to_off: f64,
        /// Per-slice probability of leaving the off mode.
        p_off_to_on: f64,
        /// Arrival probability while on.
        p_arrival_on: f64,
    },
    /// Heavy-tailed Pareto interarrival gaps.
    Pareto {
        /// Tail index (`> 1`).
        alpha: f64,
        /// Minimum gap in slices (`>= 1`).
        xm: f64,
    },
    /// Deterministic period with optional jitter.
    Periodic {
        /// Slices between arrivals.
        period: u64,
        /// Uniform jitter bound (`< period`).
        jitter: u64,
    },
    /// Replay of a recorded arrival trace (loops at the end).
    Trace {
        /// Arrival counts per slice.
        arrivals: Vec<u32>,
    },
    /// Continuously drifting rate: sinusoidal sweep (diurnal load).
    Sinusoidal {
        /// Mean arrival probability.
        base: f64,
        /// Swing around the mean (clamped into `[0, 1]`).
        amplitude: f64,
        /// Slices per full cycle.
        period: u64,
    },
    /// Continuously drifting rate: bounded reflecting random walk.
    RandomWalk {
        /// Starting arrival probability.
        start: f64,
        /// Per-slice step bound.
        step: f64,
        /// Lower reflecting bound.
        min: f64,
        /// Upper reflecting bound.
        max: f64,
    },
}

impl WorkloadSpec {
    /// Bernoulli spec with validation.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidProbability`] when `p` is out of range.
    pub fn bernoulli(p: f64) -> Result<Self, WorkloadError> {
        BernoulliArrivals::new(p)?;
        Ok(WorkloadSpec::Bernoulli { p })
    }

    /// Two-mode MMPP spec: a slow mode and a fast mode with symmetric
    /// per-slice switching probability `p_switch`.
    ///
    /// # Errors
    ///
    /// Propagates validation errors from the underlying generator.
    pub fn two_mode_mmpp(p_slow: f64, p_fast: f64, p_switch: f64) -> Result<Self, WorkloadError> {
        let transition = vec![1.0 - p_switch, p_switch, p_switch, 1.0 - p_switch];
        MmppArrivals::new(transition.clone(), vec![p_slow, p_fast])?;
        Ok(WorkloadSpec::Mmpp {
            transition,
            modes: vec![
                MmppMode {
                    arrival_prob: p_slow,
                },
                MmppMode {
                    arrival_prob: p_fast,
                },
            ],
        })
    }

    /// Builds the runtime generator for this spec.
    ///
    /// # Panics
    ///
    /// Panics if the spec was hand-constructed with invalid parameters
    /// (specs built through the checked constructors are always valid).
    #[must_use]
    pub fn build(&self) -> Box<dyn RequestGenerator> {
        match self {
            WorkloadSpec::Bernoulli { p } => {
                Box::new(BernoulliArrivals::new(*p).expect("validated spec"))
            }
            WorkloadSpec::Mmpp { transition, modes } => Box::new(
                MmppArrivals::new(
                    transition.clone(),
                    modes.iter().map(|m| m.arrival_prob).collect(),
                )
                .expect("validated spec"),
            ),
            WorkloadSpec::OnOff {
                p_on_to_off,
                p_off_to_on,
                p_arrival_on,
            } => Box::new(
                OnOffArrivals::new(*p_on_to_off, *p_off_to_on, *p_arrival_on)
                    .expect("validated spec"),
            ),
            WorkloadSpec::Pareto { alpha, xm } => {
                Box::new(ParetoArrivals::new(*alpha, *xm).expect("validated spec"))
            }
            WorkloadSpec::Periodic { period, jitter } => {
                Box::new(PeriodicArrivals::new(*period, *jitter).expect("validated spec"))
            }
            WorkloadSpec::Trace { arrivals } => {
                Box::new(TraceReplay::new(arrivals.clone()).expect("validated spec"))
            }
            WorkloadSpec::Sinusoidal {
                base,
                amplitude,
                period,
            } => Box::new(SinusoidalRate::new(*base, *amplitude, *period).expect("validated spec")),
            WorkloadSpec::RandomWalk {
                start,
                step,
                min,
                max,
            } => Box::new(RandomWalkRate::new(*start, *step, *min, *max).expect("validated spec")),
        }
    }

    /// The exact Markov arrival model, when this workload is Markovian.
    #[must_use]
    pub fn markov_model(&self) -> Option<MarkovArrivalModel> {
        match self {
            WorkloadSpec::Bernoulli { p } => MarkovArrivalModel::bernoulli(*p).ok(),
            WorkloadSpec::Mmpp { transition, modes } => MarkovArrivalModel::new(
                transition.clone(),
                modes.iter().map(|m| m.arrival_prob).collect(),
            )
            .ok(),
            WorkloadSpec::OnOff {
                p_on_to_off,
                p_off_to_on,
                p_arrival_on,
            } => MarkovArrivalModel::new(
                vec![
                    1.0 - p_off_to_on,
                    *p_off_to_on,
                    *p_on_to_off,
                    1.0 - p_on_to_off,
                ],
                vec![0.0, *p_arrival_on],
            )
            .ok(),
            WorkloadSpec::Pareto { .. }
            | WorkloadSpec::Periodic { .. }
            | WorkloadSpec::Trace { .. }
            | WorkloadSpec::Sinusoidal { .. }
            | WorkloadSpec::RandomWalk { .. } => None,
        }
    }

    /// Long-run mean arrivals per slice, when analytically defined.
    #[must_use]
    pub fn mean_rate(&self) -> Option<f64> {
        self.build().mean_rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn bernoulli_spec_round_trip() {
        let spec = WorkloadSpec::bernoulli(0.25).unwrap();
        assert_eq!(spec.mean_rate(), Some(0.25));
        let model = spec.markov_model().unwrap();
        assert_eq!(model.n_modes(), 1);
        assert_eq!(model.arrival_prob[0], 0.25);
    }

    #[test]
    fn bernoulli_spec_validates() {
        assert!(WorkloadSpec::bernoulli(2.0).is_err());
    }

    #[test]
    fn two_mode_mmpp_spec() {
        let spec = WorkloadSpec::two_mode_mmpp(0.02, 0.5, 0.05).unwrap();
        let model = spec.markov_model().unwrap();
        assert_eq!(model.n_modes(), 2);
        // Symmetric switching -> stationary 50/50 -> mean (0.02+0.5)/2.
        assert!((model.mean_rate() - 0.26).abs() < 1e-9);
    }

    #[test]
    fn onoff_markov_model_matches_generator() {
        let spec = WorkloadSpec::OnOff {
            p_on_to_off: 0.1,
            p_off_to_on: 0.05,
            p_arrival_on: 0.8,
        };
        let model = spec.markov_model().unwrap();
        let gen_rate = spec.mean_rate().unwrap();
        assert!((model.mean_rate() - gen_rate).abs() < 1e-9);
    }

    #[test]
    fn non_markovian_specs_export_no_model() {
        assert!(WorkloadSpec::Pareto {
            alpha: 2.0,
            xm: 3.0
        }
        .markov_model()
        .is_none());
        assert!(WorkloadSpec::Periodic {
            period: 5,
            jitter: 0
        }
        .markov_model()
        .is_none());
        assert!(WorkloadSpec::Trace { arrivals: vec![1] }
            .markov_model()
            .is_none());
    }

    #[test]
    fn built_generator_runs() {
        let spec = WorkloadSpec::two_mode_mmpp(0.0, 1.0, 0.5).unwrap();
        let mut gen = spec.build();
        let mut rng = StdRng::seed_from_u64(3);
        let total: u32 = (0..100).map(|_| gen.next_arrivals(&mut rng)).sum();
        assert!(total > 0);
    }

    #[test]
    fn trace_spec_builds() {
        let spec = WorkloadSpec::Trace {
            arrivals: vec![1, 0, 0],
        };
        let mut gen = spec.build();
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(gen.next_arrivals(&mut rng), 1);
        assert_eq!(gen.next_arrivals(&mut rng), 0);
    }
}

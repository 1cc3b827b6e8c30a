use crate::DeviceError;

/// How fast a device drains requests while it is in a serving power state.
///
/// The geometric model completes the head-of-line request with a fixed
/// probability per slice, which is the memoryless service assumption used by
/// the DTMDP formulation of DPM. The deterministic model takes an exact
/// number of slices per request and is provided for simulation realism; it is
/// *not* accepted by the exact MDP builder because job progress would enlarge
/// the Markov state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServiceModel {
    /// Each slice, the in-service request completes with probability `p`.
    Geometric {
        /// Per-slice completion probability, in `(0, 1]`.
        p: f64,
    },
    /// Each request takes exactly `steps` slices of service.
    Deterministic {
        /// Slices of service per request, at least 1.
        steps: u32,
    },
}

impl ServiceModel {
    /// Geometric service with per-slice completion probability `p`.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidServiceModel`] unless `0 < p <= 1`.
    pub fn geometric(p: f64) -> Result<Self, DeviceError> {
        if !(p.is_finite() && p > 0.0 && p <= 1.0) {
            return Err(DeviceError::InvalidServiceModel(format!(
                "geometric completion probability {p} not in (0, 1]"
            )));
        }
        Ok(ServiceModel::Geometric { p })
    }

    /// Deterministic service taking `steps` slices per request.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidServiceModel`] when `steps == 0`.
    pub fn deterministic(steps: u32) -> Result<Self, DeviceError> {
        if steps == 0 {
            return Err(DeviceError::InvalidServiceModel(
                "deterministic service needs at least 1 step".into(),
            ));
        }
        Ok(ServiceModel::Deterministic { steps })
    }

    /// Mean number of slices to complete one request.
    #[must_use]
    pub fn mean_service_steps(&self) -> f64 {
        match *self {
            ServiceModel::Geometric { p } => 1.0 / p,
            ServiceModel::Deterministic { steps } => f64::from(steps),
        }
    }

    /// The per-slice completion probability if the model is memoryless.
    #[must_use]
    pub fn completion_probability(&self) -> Option<f64> {
        match *self {
            ServiceModel::Geometric { p } => Some(p),
            ServiceModel::Deterministic { .. } => None,
        }
    }
}

/// Per-slice completion probability of a geometric server running at DVFS
/// frequency multiplier `freq`: `min(p * freq, 1)`.
///
/// This is the single service-scaling law shared bit-exactly by the
/// per-slice engine, the event-skipping engine, the batched cohort engine,
/// and the exact MDP builder — every consumer must call this helper rather
/// than inlining the arithmetic, so all paths produce the identical `f64`.
/// `freq == 1.0` (every non-DVFS model) returns `p` untouched, keeping
/// plain sleep-state simulations bit-identical to their pre-DVFS behavior.
#[must_use]
#[inline]
pub fn scaled_completion(p: f64, freq: f64) -> f64 {
    if freq == 1.0 {
        p
    } else {
        (p * freq).min(1.0)
    }
}

/// Runtime server state: tracks progress of the in-service request.
///
/// Sampling is externalized: the caller draws a uniform `u in [0, 1)` (so the
/// whole simulation shares one seeded RNG) and passes it to
/// [`Server::advance`].
#[derive(Debug, Clone, PartialEq)]
pub struct Server {
    model: ServiceModel,
    progress: u32,
}

impl Server {
    /// Creates an idle server for the given service model.
    #[must_use]
    pub fn new(model: ServiceModel) -> Self {
        Server { model, progress: 0 }
    }

    /// The service model this server animates.
    #[must_use]
    pub fn model(&self) -> &ServiceModel {
        &self.model
    }

    /// Advances the in-service request by one slice and reports whether it
    /// completed. `u` must be a uniform draw in `[0, 1)`.
    ///
    /// For the geometric model the server is memoryless and `u < p` decides
    /// completion. For the deterministic model, `u` is ignored and the
    /// request completes on its final slice.
    pub fn advance(&mut self, u: f64) -> bool {
        self.advance_scaled(u, 1.0)
    }

    /// [`Server::advance`] at a DVFS frequency multiplier: the geometric
    /// completion probability becomes [`scaled_completion`]`(p, freq)`.
    ///
    /// The deterministic model ignores `freq` — its per-request step count
    /// is part of the checkpointed Markov state, so speed-scaling it would
    /// enlarge the state space the exact MDP builder refuses anyway.
    #[inline]
    pub fn advance_scaled(&mut self, u: f64, freq: f64) -> bool {
        match self.model {
            ServiceModel::Geometric { p } => u < scaled_completion(p, freq),
            ServiceModel::Deterministic { steps } => {
                self.progress += 1;
                if self.progress >= steps {
                    self.progress = 0;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Slices of service already applied to the in-flight request
    /// (checkpoint capture; always 0 for the memoryless geometric model).
    #[must_use]
    pub fn progress(&self) -> u32 {
        self.progress
    }

    /// Overwrites the in-flight service progress (checkpoint restore).
    pub fn set_progress(&mut self, progress: u32) {
        self.progress = progress;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_validation() {
        assert!(ServiceModel::geometric(0.5).is_ok());
        assert!(ServiceModel::geometric(1.0).is_ok());
        assert!(ServiceModel::geometric(0.0).is_err());
        assert!(ServiceModel::geometric(-0.1).is_err());
        assert!(ServiceModel::geometric(1.1).is_err());
        assert!(ServiceModel::geometric(f64::NAN).is_err());
    }

    #[test]
    fn deterministic_validation() {
        assert!(ServiceModel::deterministic(1).is_ok());
        assert!(ServiceModel::deterministic(0).is_err());
    }

    #[test]
    fn mean_steps() {
        assert_eq!(
            ServiceModel::geometric(0.25).unwrap().mean_service_steps(),
            4.0
        );
        assert_eq!(
            ServiceModel::deterministic(3).unwrap().mean_service_steps(),
            3.0
        );
    }

    #[test]
    fn scaled_completion_law() {
        // freq 1.0 must return p bit-identically (not via multiplication).
        let p = 0.1 + 0.2; // 0.30000000000000004
        assert_eq!(scaled_completion(p, 1.0).to_bits(), p.to_bits());
        assert!((scaled_completion(0.3, 0.5) - 0.15).abs() < 1e-15);
        assert_eq!(scaled_completion(0.8, 2.0), 1.0); // saturates
    }

    #[test]
    fn advance_scaled_shifts_geometric_threshold() {
        let mut s = Server::new(ServiceModel::geometric(0.4).unwrap());
        assert!(s.advance_scaled(0.59, 1.5)); // 0.4 * 1.5 = 0.6
        assert!(!s.advance_scaled(0.61, 1.5));
        assert!(!s.advance_scaled(0.3, 0.5)); // 0.4 * 0.5 = 0.2
        assert!(s.advance_scaled(0.19, 0.5));
    }

    #[test]
    fn deterministic_ignores_frequency() {
        let mut s = Server::new(ServiceModel::deterministic(2).unwrap());
        assert!(!s.advance_scaled(0.0, 3.0));
        assert!(s.advance_scaled(0.0, 3.0));
    }

    #[test]
    fn geometric_advance_uses_uniform() {
        let mut s = Server::new(ServiceModel::geometric(0.3).unwrap());
        assert!(s.advance(0.0));
        assert!(s.advance(0.29));
        assert!(!s.advance(0.3));
        assert!(!s.advance(0.99));
    }

    #[test]
    fn deterministic_advance_counts() {
        let mut s = Server::new(ServiceModel::deterministic(3).unwrap());
        assert!(!s.advance(0.9));
        assert!(!s.advance(0.9));
        assert!(s.advance(0.9));
        // Progress resets after completion.
        assert!(!s.advance(0.0));
    }

    #[test]
    fn set_progress_restarts_job() {
        let mut s = Server::new(ServiceModel::deterministic(2).unwrap());
        assert!(!s.advance(0.0));
        s.set_progress(0);
        assert!(!s.advance(0.0));
        assert!(s.advance(0.0));
    }

    #[test]
    fn completion_probability_accessor() {
        assert_eq!(
            ServiceModel::geometric(0.4)
                .unwrap()
                .completion_probability(),
            Some(0.4)
        );
        assert_eq!(
            ServiceModel::deterministic(2)
                .unwrap()
                .completion_probability(),
            None
        );
    }
}

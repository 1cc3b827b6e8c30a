//! The model-based adaptive DPM pipeline — the "existing methods" baseline
//! of the paper's Fig. 2.
//!
//! "In contrast to Q-DPM that directly learns optimal state-action mapping,
//! existing methods need to detect parameter change, perform \[estimation\],
//! and then perform time consuming policy optimization. The significant
//! time overhead is removed in Q-DPM."
//!
//! [`ModelBasedAdaptive`] assembles that pipeline explicitly:
//! a sliding-window ML *parameter estimator* over the arrival stream, a
//! Page–Hinkley *mode-switch controller* that decides when the model has
//! drifted, and an exact *policy optimizer* (policy iteration, value
//! iteration, or the LP — configurable) over the re-estimated DTMDP. The
//! optimization latency is modeled explicitly: for `optimization_delay`
//! slices after a detected switch the stale policy keeps running, which is
//! precisely the lag Fig. 2 visualizes. Real wall-clock solve time is also
//! accumulated for the T1/T3 overhead tables.

use std::time::{Duration, Instant};

use rand::Rng;

use qdpm_core::{Observation, PowerManager, RewardWeights, StepOutcome};
use qdpm_device::{PowerModel, PowerStateId, ServiceModel};
use qdpm_mdp::{
    build_dpm_mdp, lp::lp_solve_discounted, solvers, CostWeights, DeterministicPolicy,
    DpmStateSpace,
};
use qdpm_workload::{MarkovArrivalModel, PageHinkley, RateEstimator};

use crate::SimError;

/// Which exact optimizer the pipeline re-runs after a detected switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdaptiveSolver {
    /// Howard policy iteration (the fast exact choice).
    PolicyIteration,
    /// Value iteration to tolerance `1e-9`.
    ValueIteration,
    /// The occupation-measure LP via the dense simplex — the widely applied
    /// (and slow) 2005-era choice the paper calls out.
    Lp,
}

/// Configuration of [`ModelBasedAdaptive`].
#[derive(Debug, Clone)]
pub struct AdaptiveConfig {
    /// Sliding-window length of the rate estimator, in slices.
    pub estimator_window: usize,
    /// Page–Hinkley drift tolerance.
    pub ph_delta: f64,
    /// Page–Hinkley alarm threshold.
    pub ph_threshold: f64,
    /// Simulated optimization latency: slices between detection and the new
    /// policy taking effect (the stale-policy window of Fig. 2).
    pub optimization_delay: u64,
    /// Discount factor of the re-solve.
    pub discount: f64,
    /// Queue capacity of the compiled model (match the simulator's).
    pub queue_cap: usize,
    /// Cost weights (match the simulator's reward weights).
    pub weights: RewardWeights,
    /// Arrival-rate estimate used for the initial policy.
    pub initial_rate: f64,
    /// Lower clamp on rate estimates (avoids degenerate all-sleep models).
    pub min_rate: f64,
    /// The optimizer to run.
    pub solver: AdaptiveSolver,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            estimator_window: 200,
            // Detector tuned to flag genuine rate switches without
            // thrashing on Bernoulli noise.
            ph_delta: 0.01,
            ph_threshold: 8.0,
            // ~2005-era policy-optimization latency on an embedded node,
            // in slices (the paper's "time consuming policy optimization").
            optimization_delay: 2_000,
            discount: 0.95,
            queue_cap: 8,
            weights: RewardWeights::default(),
            initial_rate: 0.1,
            min_rate: 0.005,
            solver: AdaptiveSolver::PolicyIteration,
        }
    }
}

/// The model-based adaptive power manager (estimator + detector +
/// re-optimizer).
#[derive(Debug)]
pub struct ModelBasedAdaptive {
    power: PowerModel,
    service: ServiceModel,
    config: AdaptiveConfig,
    space: DpmStateSpace,
    policy: DeterministicPolicy,
    estimator: RateEstimator,
    detector: PageHinkley,
    /// Slices until the pending re-solve completes.
    resolve_countdown: Option<u64>,
    /// Diagnostics: completed re-optimizations.
    pub n_resolves: u64,
    /// Diagnostics: detector alarms raised.
    pub n_alarms: u64,
    /// Diagnostics: cumulative wall-clock time inside the optimizer.
    pub solve_wall_time: Duration,
    last_estimate: f64,
    name: String,
}

impl ModelBasedAdaptive {
    /// Builds the pipeline and solves the initial policy from
    /// `config.initial_rate`.
    ///
    /// # Errors
    ///
    /// Propagates model-construction or solver errors.
    pub fn new(
        power: &PowerModel,
        service: &ServiceModel,
        config: AdaptiveConfig,
    ) -> Result<Self, SimError> {
        if config.estimator_window == 0 {
            return Err(SimError::BadConfig(
                "estimator window must be positive".into(),
            ));
        }
        let (space, policy, _) = solve_for_rate(power, service, &config, config.initial_rate)?;
        Ok(ModelBasedAdaptive {
            power: power.clone(),
            service: *service,
            estimator: RateEstimator::new(config.estimator_window),
            detector: PageHinkley::new(config.ph_delta, config.ph_threshold),
            space,
            policy,
            resolve_countdown: None,
            n_resolves: 0,
            n_alarms: 0,
            solve_wall_time: Duration::ZERO,
            last_estimate: config.initial_rate,
            config,
            name: "model-based-adaptive".to_string(),
        })
    }

    /// The most recent rate estimate driving the installed policy.
    #[must_use]
    pub fn last_estimate(&self) -> f64 {
        self.last_estimate
    }

    /// Whether a re-solve is pending (stale-policy window).
    #[must_use]
    pub fn resolving(&self) -> bool {
        self.resolve_countdown.is_some()
    }

    fn finish_resolve(&mut self) {
        let rate = self.estimator.estimate().clamp(self.config.min_rate, 1.0);
        let started = Instant::now();
        match solve_for_rate(&self.power, &self.service, &self.config, rate) {
            Ok((space, policy, _)) => {
                self.space = space;
                self.policy = policy;
                self.last_estimate = rate;
                self.n_resolves += 1;
            }
            Err(_) => {
                // Keep the stale policy; a later alarm will retry. This can
                // only happen on a numerically degenerate estimate.
            }
        }
        self.solve_wall_time += started.elapsed();
    }
}

/// Compiles and solves the DTMDP for a Bernoulli rate estimate.
fn solve_for_rate(
    power: &PowerModel,
    service: &ServiceModel,
    config: &AdaptiveConfig,
    rate: f64,
) -> Result<(DpmStateSpace, DeterministicPolicy, f64), SimError> {
    let arrivals =
        MarkovArrivalModel::bernoulli(rate.clamp(0.0, 1.0)).map_err(SimError::Workload)?;
    let model = build_dpm_mdp(
        power,
        service,
        &arrivals,
        config.queue_cap,
        config.weights.drop_penalty,
    )?;
    let cost = model.mdp.combined_cost(
        CostWeights::new(config.weights.energy, config.weights.perf).map_err(SimError::Mdp)?,
    );
    let (policy, objective) = match config.solver {
        AdaptiveSolver::PolicyIteration => {
            let sol = solvers::policy_iteration(&model.mdp, &cost, config.discount)?;
            let mean = sol.values.iter().sum::<f64>() / sol.values.len() as f64;
            (sol.policy, mean)
        }
        AdaptiveSolver::ValueIteration => {
            let sol = solvers::value_iteration(
                &model.mdp,
                &cost,
                solvers::SolveOptions::with_discount(config.discount).map_err(SimError::Mdp)?,
            )?;
            let mean = sol.values.iter().sum::<f64>() / sol.values.len() as f64;
            (sol.policy, mean)
        }
        AdaptiveSolver::Lp => {
            let sol = lp_solve_discounted(&model.mdp, &cost, config.discount)?;
            (sol.policy, sol.objective)
        }
    };
    Ok((model.space, policy, objective))
}

impl PowerManager for ModelBasedAdaptive {
    fn decide(&mut self, obs: &Observation, _rng: &mut dyn Rng) -> PowerStateId {
        let q = obs.queue_len.min(self.space.queue_cap());
        let s = self.space.index_of(0, obs.device_mode, q);
        PowerStateId::from_index(self.policy.action(s))
    }

    fn observe(&mut self, outcome: &StepOutcome, _next_obs: &Observation) {
        // Parameter estimator (always-on overhead of the pipeline).
        self.estimator.observe(outcome.arrivals.min(1));
        // Mode-switch controller.
        let alarmed = self.detector.observe(f64::from(outcome.arrivals.min(1)));
        if alarmed {
            self.n_alarms += 1;
            if self.resolve_countdown.is_none() {
                self.resolve_countdown = Some(self.config.optimization_delay);
            }
        }
        // Pending policy optimization completes after the modeled delay.
        if let Some(c) = self.resolve_countdown.as_mut() {
            if *c == 0 {
                self.resolve_countdown = None;
                self.finish_resolve();
            } else {
                *c -= 1;
            }
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdpm_device::presets;
    use qdpm_device::DeviceMode;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pipeline(delay: u64) -> ModelBasedAdaptive {
        let power = presets::three_state_generic();
        ModelBasedAdaptive::new(
            &power,
            &presets::default_service(),
            AdaptiveConfig {
                optimization_delay: delay,
                estimator_window: 50,
                ph_delta: 0.002,
                ph_threshold: 2.0,
                ..AdaptiveConfig::default()
            },
        )
        .unwrap()
    }

    fn obs(power: &PowerModel, q: usize) -> Observation {
        Observation {
            device_mode: DeviceMode::Operational(power.serving_state()),
            queue_len: q,
            idle_slices: 0,
            sr_mode_hint: None,
        }
    }

    #[test]
    fn initial_policy_is_installed() {
        let power = presets::three_state_generic();
        let mut pm = pipeline(10);
        let mut rng = StdRng::seed_from_u64(0);
        let cmd = pm.decide(&obs(&power, 3), &mut rng);
        assert!(cmd.index() < power.n_states());
        assert_eq!(pm.n_resolves, 0);
    }

    #[test]
    fn detects_and_resolves_after_delay() {
        let power = presets::three_state_generic();
        let mut pm = pipeline(20);
        // Quiet phase then a hard jump to saturation.
        let feed = |pm: &mut ModelBasedAdaptive, arrivals: u32, n: usize| {
            for _ in 0..n {
                let o = obs(&power, 0);
                pm.observe(
                    &StepOutcome {
                        energy: 1.0,
                        queue_len: 0,
                        dropped: 0,
                        completed: 0,
                        arrivals,
                        deadline_misses: 0,
                    },
                    &o,
                );
            }
        };
        feed(&mut pm, 0, 400);
        assert_eq!(pm.n_alarms, 0, "no false alarm in silence");
        feed(&mut pm, 1, 100);
        assert!(pm.n_alarms >= 1, "jump to saturation must alarm");
        // After the alarm the resolve completes within delay + a few slices.
        assert!(pm.n_resolves >= 1, "resolve should have completed");
        assert!(pm.last_estimate() > 0.3, "estimate {}", pm.last_estimate());
    }

    #[test]
    fn stale_policy_window_respected() {
        let power = presets::three_state_generic();
        let mut pm = pipeline(1000);
        let feed = |pm: &mut ModelBasedAdaptive, arrivals: u32, n: usize| {
            for _ in 0..n {
                let o = obs(&power, 0);
                pm.observe(
                    &StepOutcome {
                        energy: 1.0,
                        queue_len: 0,
                        dropped: 0,
                        completed: 0,
                        arrivals,
                        deadline_misses: 0,
                    },
                    &o,
                );
            }
        };
        feed(&mut pm, 0, 400);
        feed(&mut pm, 1, 200); // alarm fires, but delay is 1000
        assert!(pm.resolving(), "re-solve should still be pending");
        assert_eq!(pm.n_resolves, 0);
    }

    #[test]
    fn lp_solver_variant_works() {
        let power = presets::three_state_generic();
        let pm = ModelBasedAdaptive::new(
            &power,
            &presets::default_service(),
            AdaptiveConfig {
                solver: AdaptiveSolver::Lp,
                queue_cap: 3,
                ..AdaptiveConfig::default()
            },
        );
        assert!(pm.is_ok());
    }

    #[test]
    fn rejects_zero_window() {
        let power = presets::three_state_generic();
        let r = ModelBasedAdaptive::new(
            &power,
            &presets::default_service(),
            AdaptiveConfig {
                estimator_window: 0,
                ..AdaptiveConfig::default()
            },
        );
        assert!(matches!(r, Err(SimError::BadConfig(_))));
    }
}

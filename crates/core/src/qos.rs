//! QoS-guaranteed Q-DPM: the paper's first future-work item.
//!
//! "There is still a lot of rewarding research remaining to perform, such as
//! QoS guaranteed Q-DPM..." — we implement it as two-timescale constrained
//! Q-learning: the fast timescale runs ordinary Watkins updates on the
//! Lagrangian reward `-(energy + lambda * perf)`, while the slow timescale
//! adapts the multiplier `lambda` toward the smallest value whose greedy
//! policy satisfies the performance target. This is the model-free analogue
//! of the constrained-LP optimum in `qdpm_mdp::lp::lp_solve_constrained`.

use rand::Rng;

use qdpm_device::{PowerModel, PowerStateId};

use crate::agent::{get_opt_usize, put_opt_usize};
use crate::state_io::{StateError, StateReader, StateWriter};
use crate::{
    CoreError, DpmStateEncoder, Exploration, LearningRate, LegalActionTable, Observation,
    PowerManager, QLearner, StepOutcome,
};

/// Configuration of a [`QosQDpmAgent`].
#[derive(Debug, Clone, PartialEq)]
pub struct QosConfig {
    /// Discount factor of the Q-update.
    pub discount: f64,
    /// Learning-rate schedule of the Q-update (fast timescale).
    pub learning_rate: LearningRate,
    /// Exploration strategy.
    pub exploration: Exploration,
    /// Queue depth represented exactly in the state encoding.
    pub queue_cap: usize,
    /// Performance target: long-run average queue length (Little's-law
    /// proxy for latency) the agent must not exceed.
    pub perf_target: f64,
    /// Extra perf units charged per dropped request.
    pub drop_weight: f64,
    /// Multiplier step size (slow timescale).
    pub lambda_step: f64,
    /// Upper clamp on the multiplier.
    pub lambda_max: f64,
    /// Slices per multiplier adjustment.
    pub window: u64,
}

impl Default for QosConfig {
    fn default() -> Self {
        QosConfig {
            discount: 0.99,
            learning_rate: LearningRate::Constant(0.1),
            exploration: Exploration::EpsilonGreedy { epsilon: 0.05 },
            queue_cap: 8,
            perf_target: 1.0,
            drop_weight: 20.0,
            lambda_step: 0.05,
            lambda_max: 50.0,
            window: 200,
        }
    }
}

/// Constrained (QoS-guaranteed) Q-DPM agent.
///
/// Minimizes energy subject to an average-performance bound by learning on
/// the Lagrangian reward and adapting the multiplier online:
/// when the windowed average performance exceeds the target, `lambda`
/// grows (performance matters more); when comfortably below, it shrinks
/// (energy saving resumes).
#[derive(Debug)]
pub struct QosQDpmAgent {
    learner: QLearner,
    encoder: DpmStateEncoder,
    /// Precomputed per-mode legal-action sets (no per-slice allocation).
    legal: LegalActionTable,
    pending: Option<(usize, usize)>,
    /// Action pre-drawn by a quiescent stay run, to be served verbatim by
    /// the next `decide` (see [`PowerManager::commit_quiescent`]).
    deviation: Option<usize>,
    lambda: f64,
    config: QosConfig,
    window_perf: f64,
    window_count: u64,
    name: String,
}

impl QosQDpmAgent {
    /// Creates a QoS agent for the given device.
    ///
    /// # Errors
    ///
    /// Propagates validation errors; additionally rejects a negative
    /// `perf_target`, non-positive `window`, or bad multiplier parameters
    /// via [`CoreError::BadConstraint`].
    pub fn new(power: &PowerModel, config: QosConfig) -> Result<Self, CoreError> {
        if !(config.perf_target.is_finite() && config.perf_target >= 0.0) {
            return Err(CoreError::BadConstraint(format!(
                "perf target {} must be non-negative",
                config.perf_target
            )));
        }
        if config.window == 0 {
            return Err(CoreError::BadConstraint("window must be positive".into()));
        }
        let lambda_ok = |x: f64| x.is_finite() && x > 0.0;
        if !lambda_ok(config.lambda_step) || !lambda_ok(config.lambda_max) {
            return Err(CoreError::BadConstraint(
                "lambda step and max must be positive".into(),
            ));
        }
        let encoder = DpmStateEncoder::exact(power, config.queue_cap)?;
        let learner = QLearner::new(
            encoder.n_states(),
            power.n_states(),
            config.discount,
            config.learning_rate,
            config.exploration,
        )?;
        Ok(QosQDpmAgent {
            learner,
            encoder,
            legal: LegalActionTable::new(power),
            pending: None,
            deviation: None,
            lambda: 1.0,
            config,
            window_perf: 0.0,
            window_count: 0,
            name: "qos-q-dpm".to_string(),
        })
    }

    /// Current Lagrange multiplier.
    #[must_use]
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Closes the adjustment window if it is full: adapts the multiplier
    /// toward the performance target and resets the accumulators. The one
    /// copy of the slow-timescale law, shared by the per-slice `observe`
    /// and the event-skip window replay.
    fn maybe_close_window(&mut self) {
        if self.window_count >= self.config.window {
            let avg = self.window_perf / self.window_count as f64;
            let violation = avg - self.config.perf_target;
            self.lambda = (self.lambda + self.config.lambda_step * violation)
                .clamp(0.0, self.config.lambda_max);
            self.window_perf = 0.0;
            self.window_count = 0;
        }
    }

    /// Replays the slow-timescale window bookkeeping for `slices`
    /// zero-performance slices: the perf accumulator gains nothing, only
    /// the counter advances, possibly across several multiplier
    /// adjustments.
    fn advance_window(&mut self, slices: u64) {
        let mut left = slices;
        while left > 0 {
            let take = left.min(self.config.window - self.window_count);
            self.window_count += take;
            left -= take;
            self.maybe_close_window();
        }
    }

    /// Read access to the learner.
    #[must_use]
    pub fn learner(&self) -> &QLearner {
        &self.learner
    }
}

impl PowerManager for QosQDpmAgent {
    fn decide(&mut self, obs: &Observation, rng: &mut dyn Rng) -> PowerStateId {
        let s = self.encoder.encode(obs);
        // A stay run pre-drew the action ending the quiescent stretch;
        // serve it verbatim (no redraw — see `commit_quiescent`).
        if let Some(a) = self.deviation.take() {
            self.pending = Some((s, a));
            return PowerStateId::from_index(a);
        }
        let a = self
            .learner
            .select_action(s, self.legal.legal(obs.device_mode), rng);
        self.pending = Some((s, a));
        PowerStateId::from_index(a)
    }

    fn observe(&mut self, outcome: &StepOutcome, next_obs: &Observation) {
        let perf = outcome.queue_len as f64 + self.config.drop_weight * f64::from(outcome.dropped);
        // Fast timescale: Lagrangian Q-update.
        if let Some((s, a)) = self.pending.take() {
            let reward = -(outcome.energy + self.lambda * perf);
            let next_s = self.encoder.encode(next_obs);
            self.learner
                .update(s, a, reward, next_s, self.legal.legal(next_obs.device_mode));
        }
        // Slow timescale: multiplier adaptation on windowed performance.
        self.window_perf += perf;
        self.window_count += 1;
        self.maybe_close_window();
    }

    fn commit_quiescent(
        &mut self,
        obs: &Observation,
        per_slice: &StepOutcome,
        max: u64,
        rng: &mut dyn Rng,
    ) -> u64 {
        if self.deviation.is_some() || self.pending.is_some() {
            return 0;
        }
        if obs.queue_len != 0 {
            return 0;
        }
        // Quiescent slices carry zero performance penalty (empty queue, no
        // drops), so the Lagrangian reward reduces to `-energy` and stays
        // constant even when `lambda` adjusts at a window boundary crossed
        // inside the stretch.
        let perf =
            per_slice.queue_len as f64 + self.config.drop_weight * f64::from(per_slice.dropped);
        let reward = -(per_slice.energy + self.lambda * perf);
        // Mid-transition the decide is pinned to the transition target:
        // replay the per-slice decide/observe pairs verbatim (shared with
        // the plain agent; the Lagrangian reward is this agent's own).
        if obs.device_mode.is_transitioning() {
            let k = crate::agent::replay_transient_march(
                &mut self.learner,
                &self.encoder,
                &self.legal,
                obs,
                reward,
                max,
                rng,
            );
            self.advance_window(k);
            return k;
        }
        let run = crate::agent::commit_operational_stay(
            &mut self.learner,
            &self.encoder,
            &self.legal,
            obs,
            reward,
            max,
            rng,
        );
        self.advance_window(run.slices);
        self.deviation = run.deviation;
        run.slices
    }

    fn save_state(&self, w: &mut StateWriter) {
        put_opt_usize(w, self.pending.map(|(s, _)| s));
        put_opt_usize(w, self.pending.map(|(_, a)| a));
        put_opt_usize(w, self.deviation);
        w.put_f64(self.lambda);
        w.put_f64(self.window_perf);
        w.put_u64(self.window_count);
        self.learner.save_state(w);
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        let s = get_opt_usize(r)?;
        let a = get_opt_usize(r)?;
        self.pending = match (s, a) {
            (Some(s), Some(a)) => Some((s, a)),
            (None, None) => None,
            _ => {
                return Err(StateError::BadValue(
                    "half-present pending transition".to_string(),
                ))
            }
        };
        self.deviation = get_opt_usize(r)?;
        self.lambda = r.get_f64()?;
        self.window_perf = r.get_f64()?;
        self.window_count = r.get_u64()?;
        self.learner.load_state(r)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdpm_device::{presets, DeviceMode};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn obs(power: &PowerModel, q: usize) -> Observation {
        Observation {
            device_mode: DeviceMode::Operational(power.highest_power_state()),
            queue_len: q,
            idle_slices: 0,
            sr_mode_hint: None,
        }
    }

    #[test]
    fn validates_constraint_parameters() {
        let power = presets::three_state_generic();
        assert!(QosQDpmAgent::new(
            &power,
            QosConfig {
                perf_target: -1.0,
                ..QosConfig::default()
            }
        )
        .is_err());
        assert!(QosQDpmAgent::new(
            &power,
            QosConfig {
                window: 0,
                ..QosConfig::default()
            }
        )
        .is_err());
        assert!(QosQDpmAgent::new(
            &power,
            QosConfig {
                lambda_step: 0.0,
                ..QosConfig::default()
            }
        )
        .is_err());
    }

    #[test]
    fn lambda_rises_under_violation() {
        let power = presets::three_state_generic();
        let mut agent = QosQDpmAgent::new(
            &power,
            QosConfig {
                perf_target: 0.5,
                window: 10,
                ..QosConfig::default()
            },
        )
        .unwrap();
        let start = agent.lambda();
        let mut rng = StdRng::seed_from_u64(0);
        // Sustained queue of 5 >> target 0.5 -> lambda must grow.
        for _ in 0..100 {
            let o = obs(&power, 5);
            let _ = agent.decide(&o, &mut rng);
            agent.observe(
                &StepOutcome {
                    energy: 1.0,
                    queue_len: 5,
                    dropped: 0,
                    completed: 0,
                    arrivals: 1,
                    deadline_misses: 0,
                },
                &o,
            );
        }
        assert!(
            agent.lambda() > start,
            "lambda {} should rise",
            agent.lambda()
        );
    }

    #[test]
    fn lambda_falls_when_comfortably_meeting_target() {
        let power = presets::three_state_generic();
        let mut agent = QosQDpmAgent::new(
            &power,
            QosConfig {
                perf_target: 2.0,
                window: 10,
                ..QosConfig::default()
            },
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..200 {
            let o = obs(&power, 0);
            let _ = agent.decide(&o, &mut rng);
            agent.observe(
                &StepOutcome {
                    energy: 1.0,
                    queue_len: 0,
                    dropped: 0,
                    completed: 0,
                    arrivals: 0,
                    deadline_misses: 0,
                },
                &o,
            );
        }
        assert!(
            agent.lambda() < 1.0,
            "lambda {} should fall",
            agent.lambda()
        );
        assert!(agent.lambda() >= 0.0);
    }

    #[test]
    fn lambda_clamped_at_max() {
        let power = presets::three_state_generic();
        let mut agent = QosQDpmAgent::new(
            &power,
            QosConfig {
                perf_target: 0.0,
                window: 1,
                lambda_step: 100.0,
                lambda_max: 5.0,
                ..QosConfig::default()
            },
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..50 {
            let o = obs(&power, 8);
            let _ = agent.decide(&o, &mut rng);
            agent.observe(
                &StepOutcome {
                    energy: 1.0,
                    queue_len: 8,
                    dropped: 1,
                    completed: 0,
                    arrivals: 1,
                    deadline_misses: 0,
                },
                &o,
            );
        }
        assert!((agent.lambda() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn drops_count_into_performance() {
        let power = presets::three_state_generic();
        let mut agent = QosQDpmAgent::new(
            &power,
            QosConfig {
                perf_target: 1.0,
                window: 1,
                drop_weight: 50.0,
                ..QosConfig::default()
            },
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let o = obs(&power, 0);
        let _ = agent.decide(&o, &mut rng);
        let before = agent.lambda();
        agent.observe(
            &StepOutcome {
                energy: 1.0,
                queue_len: 0,
                dropped: 1,
                completed: 0,
                arrivals: 1,
                deadline_misses: 0,
            },
            &o,
        );
        // One drop in a 1-slice window: avg perf 50 >> target.
        assert!(agent.lambda() > before);
    }
}

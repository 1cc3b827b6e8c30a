use rand::Rng;

use qdpm_device::{DeviceMode, LegalActionTable, PowerModel, PowerStateId};

use crate::state_io::{StateError, StateReader, StateWriter};
use crate::variants::TabularLearner;
use crate::{CoreError, DpmStateEncoder, Exploration, LearningRate, Observation, QLearner};

/// Per-slice outcome reported back to a power manager after its command
/// took effect: the raw ingredients of the reinforcement signal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepOutcome {
    /// Energy consumed during the slice (residency + transition share).
    pub energy: f64,
    /// Queue length at the end of the slice.
    pub queue_len: usize,
    /// Requests dropped by a full queue during the slice.
    pub dropped: u32,
    /// Requests completed during the slice.
    pub completed: u32,
    /// Requests that arrived during the slice.
    pub arrivals: u32,
    /// Deadline-tagged requests that completed during the slice *after*
    /// their deadline (0 in untagged workloads, and always 0 during
    /// quiescent stretches — an empty queue has nothing to miss, which is
    /// what keeps event-skip commits exact for deadline-tagged runs).
    pub deadline_misses: u32,
}

/// Weights turning a [`StepOutcome`] into the scalar reinforcement of the
/// paper's Eqn. (3), extended with a deadline term:
/// `reward = -(energy*e + perf*(queue + drop_penalty*drops +
/// deadline_penalty*misses))`.
///
/// This mirrors the cost criteria of the exact DTMDP (energy + weighted
/// performance), so a converged Q-DPM agent and the model-based optimum
/// optimize the same objective. The deadline penalty defaults to `0.0`,
/// which adds an exact floating-point zero for untagged workloads — the
/// reward (and therefore every learned table) is bit-identical to the
/// pre-deadline formula unless a penalty is explicitly configured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RewardWeights {
    /// Weight on energy.
    pub energy: f64,
    /// Weight on the performance penalty.
    pub perf: f64,
    /// Extra performance penalty per dropped request.
    pub drop_penalty: f64,
    /// Extra performance penalty per deadline miss (see
    /// [`StepOutcome::deadline_misses`]).
    pub deadline_penalty: f64,
}

impl RewardWeights {
    /// Creates validated weights with no deadline penalty (see
    /// [`RewardWeights::with_deadline_penalty`]).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadRewardWeight`] for a negative or non-finite
    /// weight.
    pub fn new(energy: f64, perf: f64, drop_penalty: f64) -> Result<Self, CoreError> {
        for (what, v) in [
            ("energy", energy),
            ("perf", perf),
            ("drop_penalty", drop_penalty),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(CoreError::BadRewardWeight { what, value: v });
            }
        }
        Ok(RewardWeights {
            energy,
            perf,
            drop_penalty,
            deadline_penalty: 0.0,
        })
    }

    /// Sets the per-miss deadline penalty.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadRewardWeight`] for a negative or non-finite
    /// penalty.
    pub fn with_deadline_penalty(mut self, deadline_penalty: f64) -> Result<Self, CoreError> {
        if !(deadline_penalty.is_finite() && deadline_penalty >= 0.0) {
            return Err(CoreError::BadRewardWeight {
                what: "deadline_penalty",
                value: deadline_penalty,
            });
        }
        self.deadline_penalty = deadline_penalty;
        Ok(self)
    }

    /// The scalar reward of one slice.
    #[must_use]
    pub fn reward(&self, outcome: &StepOutcome) -> f64 {
        -(self.energy * outcome.energy
            + self.perf
                * (outcome.queue_len as f64
                    + self.drop_penalty * f64::from(outcome.dropped)
                    + self.deadline_penalty * f64::from(outcome.deadline_misses)))
    }
}

impl Default for RewardWeights {
    /// Energy 1.0, perf 0.1, drop penalty 20, no deadline penalty — the
    /// reproduction's standard trade-off (mirrors `CostWeights::default()`
    /// plus the builder's drop penalty).
    fn default() -> Self {
        RewardWeights {
            energy: 1.0,
            perf: 0.1,
            drop_penalty: 20.0,
            deadline_penalty: 0.0,
        }
    }
}

/// A power manager: observes the system each slice and commands a target
/// power state; learning managers also consume the subsequent
/// [`StepOutcome`].
///
/// Implemented by the Q-DPM agents in this crate and by every baseline
/// policy in `qdpm-sim` (timeouts, always-on, the model-based adaptive
/// pipeline, the MDP-optimal controller).
///
/// `Send` is a supertrait so boxed managers (and the simulators owning
/// them) can be driven from worker threads by the parallel experiment
/// runner (`qdpm_sim::parallel`).
pub trait PowerManager: std::fmt::Debug + Send {
    /// Chooses the command for this slice.
    fn decide(&mut self, obs: &Observation, rng: &mut dyn Rng) -> PowerStateId;

    /// Receives the outcome of the slice just simulated and the observation
    /// that opens the next slice. Non-learning policies ignore this.
    fn observe(&mut self, outcome: &StepOutcome, next_obs: &Observation) {
        let _ = (outcome, next_obs);
    }

    /// Event-skip support (`qdpm_sim::EngineMode::EventSkip`): asked at
    /// the start of a quiescent stretch — empty queue, no arrivals for at
    /// least `max` upcoming slices, noise-free observations — how many of
    /// those slices the manager commits to passing without being
    /// consulted.
    ///
    /// Committing `k <= max` slices asserts two things about each of
    /// them: the manager's `decide` would not have changed the slice's
    /// outcome (operational device: it would have commanded the current
    /// state; transitioning device: any command, since commands are
    /// ignored mid-transition), and the manager has itself applied
    /// whatever per-slice bookkeeping its `decide`/`observe` pair would
    /// have performed — the engine calls neither for committed slices.
    /// `per_slice` is the identical outcome every committed slice
    /// produces; `obs` opens the stretch, within which only
    /// `Observation::idle_slices` advances (by 1 per slice).
    ///
    /// Stochastic managers may sample their commitment from `rng` — exact
    /// in distribution but a different draw order than per-slice stepping.
    /// A manager that pre-draws the action *ending* the run must return
    /// exactly that action from its next `decide` without redrawing, or
    /// the run-length law is biased.
    ///
    /// The default commits nothing, making event skipping a strict
    /// per-policy opt-in (managers with per-slice estimators, traces or
    /// per-slice exploration schedules simply keep the default).
    fn commit_quiescent(
        &mut self,
        obs: &Observation,
        per_slice: &StepOutcome,
        max: u64,
        rng: &mut dyn Rng,
    ) -> u64 {
        let _ = (obs, per_slice, max, rng);
        0
    }

    /// Checkpoint support: appends the manager's full mutable state to a
    /// payload (learned tables, pending transitions, internal timers). The
    /// default writes nothing — correct for stateless policies — and is
    /// symmetric with the default [`PowerManager::load_state`], which
    /// reads nothing.
    fn save_state(&self, w: &mut StateWriter) {
        let _ = w;
    }

    /// Checkpoint support: restores state written by
    /// [`PowerManager::save_state`]. Default: reads nothing.
    ///
    /// # Errors
    ///
    /// Returns a [`StateError`] when the payload does not decode or a
    /// restored value is out of range for this manager.
    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        let _ = r;
        Ok(())
    }

    /// Short display name for reports.
    fn name(&self) -> &str;
}

/// Writes an `Option<usize>` pair-of-fields (`flag`, value) — the framing
/// used by every agent checkpoint in this crate.
pub(crate) fn put_opt_usize(w: &mut StateWriter, v: Option<usize>) {
    w.put_bool(v.is_some());
    w.put_usize(v.unwrap_or(0));
}

/// Reads an `Option<usize>` written by [`put_opt_usize`].
pub(crate) fn get_opt_usize(r: &mut StateReader<'_>) -> Result<Option<usize>, StateError> {
    let some = r.get_bool()?;
    let v = r.get_usize()?;
    Ok(some.then_some(v))
}

/// The Q-DPM power manager (the paper's contribution).
///
/// Wraps a [`QLearner`] with a [`DpmStateEncoder`] and [`RewardWeights`]:
/// each slice it encodes the observation, selects a command epsilon-greedily
/// from the Q-table, and on feedback applies Eqn. (3). There is no workload
/// model, no parameter estimator and no mode-switch controller — policy
/// optimization *is* the per-slice table update, which is what makes the
/// response to parameter variation "almost instant" (Fig. 2) and the
/// per-step cost O(|A|) (bench T3).
///
/// # Example
///
/// ```
/// use qdpm_core::{QDpmAgent, QDpmConfig};
/// use qdpm_device::presets;
///
/// # fn main() -> Result<(), qdpm_core::CoreError> {
/// let power = presets::three_state_generic();
/// let agent = QDpmAgent::new(&power, QDpmConfig::default())?;
/// assert!(agent.table_bytes() < 64 * 1024, "fits a tiny embedded budget");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct GenericQDpmAgent<L> {
    learner: L,
    encoder: DpmStateEncoder,
    /// Precomputed per-mode legal-action sets (no per-slice allocation).
    legal: LegalActionTable,
    weights: RewardWeights,
    /// `(state, action)` of the decision awaiting feedback.
    pending: Option<(usize, usize)>,
    /// Action pre-drawn by a quiescent stay run, to be served verbatim by
    /// the next `decide` (see [`PowerManager::commit_quiescent`]).
    deviation: Option<usize>,
    name: String,
}

/// The paper's agent: [`GenericQDpmAgent`] specialized to Watkins
/// one-step Q-learning.
pub type QDpmAgent = GenericQDpmAgent<QLearner>;

/// Configuration of a [`QDpmAgent`].
#[derive(Debug, Clone, PartialEq)]
pub struct QDpmConfig {
    /// Discount factor `beta` of Eqn. (3).
    pub discount: f64,
    /// Learning-rate schedule (`gamma`).
    pub learning_rate: LearningRate,
    /// Exploration strategy (`epsilon`).
    pub exploration: Exploration,
    /// Reward weights.
    pub weights: RewardWeights,
    /// Queue depth represented exactly in the state encoding.
    pub queue_cap: usize,
    /// Optional idle-time thresholds for the state encoding (empty = idle
    /// time not observed; exact-MDP configuration).
    pub idle_thresholds: Vec<u64>,
}

impl Default for QDpmConfig {
    fn default() -> Self {
        QDpmConfig {
            // A long effective horizon (~100 slices) is needed for the
            // learner to connect low-queue states to the eventual
            // queue-full drop penalties; shorter horizons learn to shed
            // load and sleep through light workloads.
            discount: 0.99,
            learning_rate: LearningRate::default(),
            exploration: Exploration::default(),
            weights: RewardWeights::default(),
            queue_cap: 8,
            idle_thresholds: Vec::new(),
        }
    }
}

impl QDpmAgent {
    /// Creates an agent for the given device.
    ///
    /// # Errors
    ///
    /// Propagates parameter validation errors from the learner, encoder and
    /// weights.
    pub fn new(power: &PowerModel, config: QDpmConfig) -> Result<Self, CoreError> {
        let encoder = QDpmConfig::encoder_for(&config, power)?;
        let learner = QLearner::new(
            encoder.n_states(),
            power.n_states(),
            config.discount,
            config.learning_rate,
            config.exploration,
        )?;
        Ok(QDpmAgent {
            learner,
            encoder,
            legal: LegalActionTable::new(power),
            weights: config.weights,
            pending: None,
            deviation: None,
            name: "q-dpm".to_string(),
        })
    }

    /// Read access to the learner (Q-table inspection, step counts).
    #[must_use]
    pub fn learner(&self) -> &QLearner {
        &self.learner
    }

    /// Exact Q-table footprint in bytes (table T2's Q-DPM column).
    #[must_use]
    pub fn table_bytes(&self) -> usize {
        self.learner.table().memory_bytes()
    }

    /// Serializes the learned Q-table for persistence (warm-starting an
    /// embedded node across reboots).
    #[must_use]
    pub fn export_table(&self) -> Vec<u8> {
        self.learner.table().to_bytes()
    }

    /// Restores a Q-table exported by [`QDpmAgent::export_table`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::CorruptTable`] for a damaged blob or one whose
    /// dimensions do not match this agent's encoder/device.
    pub fn import_table(&mut self, bytes: &[u8]) -> Result<(), CoreError> {
        let table = crate::QTable::from_bytes(bytes)?;
        let current = self.learner.table();
        if table.n_states() != current.n_states() || table.n_actions() != current.n_actions() {
            return Err(CoreError::CorruptTable(format!(
                "table is {}x{}, agent expects {}x{}",
                table.n_states(),
                table.n_actions(),
                current.n_states(),
                current.n_actions()
            )));
        }
        self.learner.replace_table(table);
        Ok(())
    }
}

impl QDpmConfig {
    /// Builds the state encoder this configuration describes.
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError::BadEncoder`].
    pub fn encoder_for(&self, power: &PowerModel) -> Result<DpmStateEncoder, CoreError> {
        let idle = if self.idle_thresholds.is_empty() {
            crate::IdleBuckets::None
        } else {
            crate::IdleBuckets::Thresholds(self.idle_thresholds.clone())
        };
        DpmStateEncoder::new(
            power,
            crate::QueueBuckets::Exact {
                cap: self.queue_cap,
            },
            idle,
        )
    }
}

impl<L: TabularLearner> GenericQDpmAgent<L> {
    /// Assembles an agent from an explicit learner (SARSA, Double Q,
    /// Q(lambda), ...). The learner must have been sized for
    /// `config.encoder_for(power).n_states()` states and
    /// `power.n_states()` actions.
    ///
    /// # Errors
    ///
    /// Propagates encoder validation errors.
    pub fn with_learner(
        power: &PowerModel,
        config: &QDpmConfig,
        learner: L,
    ) -> Result<Self, CoreError> {
        let encoder = config.encoder_for(power)?;
        let name = format!("q-dpm[{}]", learner.algorithm());
        Ok(GenericQDpmAgent {
            learner,
            encoder,
            legal: LegalActionTable::new(power),
            weights: config.weights,
            pending: None,
            deviation: None,
            name,
        })
    }

    /// Renames the agent (for side-by-side ablation reports).
    #[must_use]
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Read access to the wrapped learner.
    #[must_use]
    pub fn learner_ref(&self) -> &L {
        &self.learner
    }

    /// Legal command targets in the given device mode: stay or any defined
    /// transition when operational; "stay the course" mid-transition.
    ///
    /// Served from the [`LegalActionTable`] precomputed at construction,
    /// so the call is allocation-free.
    #[must_use]
    pub fn legal_actions(&self, mode: DeviceMode) -> &[usize] {
        self.legal.legal(mode)
    }

    /// The reward the agent derives from an outcome (exposed for tests and
    /// the QoS agent).
    #[must_use]
    pub fn reward(&self, outcome: &StepOutcome) -> f64 {
        self.weights.reward(outcome)
    }

    /// The greedy command in `obs` without exploration or learning — used
    /// for frozen-policy evaluation.
    #[must_use]
    pub fn greedy_action(&self, obs: &Observation) -> PowerStateId {
        let s = self.encoder.encode(obs);
        let legal = self.legal.legal(obs.device_mode);
        PowerStateId::from_index(self.learner.best_action(s, legal))
    }
}

impl<L: TabularLearner> PowerManager for GenericQDpmAgent<L> {
    fn decide(&mut self, obs: &Observation, rng: &mut dyn Rng) -> PowerStateId {
        let s = self.encoder.encode(obs);
        // A stay run pre-drew the action ending the quiescent stretch;
        // serve it verbatim (no redraw — see `commit_quiescent`).
        if let Some(a) = self.deviation.take() {
            self.pending = Some((s, a));
            return PowerStateId::from_index(a);
        }
        // Field-level borrow: the legal slice borrows `self.legal` while
        // the learner is borrowed mutably.
        let a = self
            .learner
            .select_action(s, self.legal.legal(obs.device_mode), rng);
        self.pending = Some((s, a));
        PowerStateId::from_index(a)
    }

    fn observe(&mut self, outcome: &StepOutcome, next_obs: &Observation) {
        let Some((s, a)) = self.pending.take() else {
            return; // no decision awaiting feedback
        };
        let reward = self.weights.reward(outcome);
        let next_s = self.encoder.encode(next_obs);
        self.learner
            .update(s, a, reward, next_s, self.legal.legal(next_obs.device_mode));
    }

    fn commit_quiescent(
        &mut self,
        obs: &Observation,
        per_slice: &StepOutcome,
        max: u64,
        rng: &mut dyn Rng,
    ) -> u64 {
        // A pre-drawn deviation (or an unanswered decide) must drain
        // through the per-slice path first.
        if self.deviation.is_some() || self.pending.is_some() {
            return 0;
        }
        if obs.queue_len != 0 {
            return 0;
        }
        let reward = self.weights.reward(per_slice);
        // Mid-transition the decide is pinned to the transition target,
        // so the per-slice decide/observe pairs can be replayed verbatim
        // (shared with the QoS agent).
        if obs.device_mode.is_transitioning() {
            return replay_transient_march(
                &mut self.learner,
                &self.encoder,
                &self.legal,
                obs,
                reward,
                max,
                rng,
            );
        }
        let run = commit_operational_stay(
            &mut self.learner,
            &self.encoder,
            &self.legal,
            obs,
            reward,
            max,
            rng,
        );
        self.deviation = run.deviation;
        run.slices
    }

    fn save_state(&self, w: &mut StateWriter) {
        put_opt_usize(w, self.pending.map(|(s, _)| s));
        put_opt_usize(w, self.pending.map(|(_, a)| a));
        put_opt_usize(w, self.deviation);
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
        self.learner.load_state(r)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// The operational arm of a learning agent's quiescent commitment: caps
/// the window at the encoder's idle-bucket horizon, checks that staying
/// put is a legal action, and delegates to the learner's
/// [`TabularLearner::commit_stay_run`]. Shared by the plain and QoS Q-DPM
/// agents; the caller supplies its own per-slice `reward` and stores the
/// returned deviation for its next decide.
pub(crate) fn commit_operational_stay<L: TabularLearner>(
    learner: &mut L,
    encoder: &DpmStateEncoder,
    legal_table: &LegalActionTable,
    obs: &Observation,
    reward: f64,
    max: u64,
    rng: &mut dyn Rng,
) -> crate::StayRun {
    let DeviceMode::Operational(state) = obs.device_mode else {
        return crate::StayRun::none();
    };
    // The encoded state must be invariant across the whole stretch (idle
    // time is its only moving part).
    let max = max.min(encoder.idle_invariance_horizon(obs.idle_slices));
    if max == 0 {
        return crate::StayRun::none();
    }
    let s = encoder.encode(obs);
    let legal = legal_table.legal(obs.device_mode);
    let stay = state.index();
    if !legal.contains(&stay) {
        return crate::StayRun::none();
    }
    learner.commit_stay_run(s, stay, legal, reward, max, rng)
}

/// Replays the forced decide/observe march through an in-flight
/// transition for a learning agent, committing up to `max` slices (capped
/// at the transition end and the encoder's idle-bucket horizon).
///
/// Mid-transition the legal set is the single "stay the course" action,
/// so each slice's `select_action` is pinned (and consumes no
/// randomness) while the updates walk through the distinct transient
/// states — calling the very learner methods per-slice stepping would,
/// with the same RNG, making the replay bit-exact and stream-identical
/// for every [`TabularLearner`]. Shared by the plain and QoS Q-DPM
/// agents; the caller supplies its own per-slice `reward`.
pub(crate) fn replay_transient_march<L: TabularLearner>(
    learner: &mut L,
    encoder: &DpmStateEncoder,
    legal: &LegalActionTable,
    obs: &Observation,
    reward: f64,
    max: u64,
    rng: &mut dyn Rng,
) -> u64 {
    let DeviceMode::Transitioning {
        from,
        to,
        remaining,
    } = obs.device_mode
    else {
        return 0;
    };
    let k = max
        .min(u64::from(remaining))
        .min(encoder.idle_invariance_horizon(obs.idle_slices));
    for j in 0..k {
        let rem = remaining - j as u32;
        let mode_j = DeviceMode::Transitioning {
            from,
            to,
            remaining: rem,
        };
        let obs_j = Observation {
            device_mode: mode_j,
            queue_len: 0,
            idle_slices: obs.idle_slices + j,
            sr_mode_hint: None,
        };
        let s = encoder.encode(&obs_j);
        let a = learner.select_action(s, legal.legal(mode_j), rng);
        debug_assert_eq!(a, to.index(), "mid-transition decide is forced");
        let next_mode = if rem <= 1 {
            DeviceMode::Operational(to)
        } else {
            DeviceMode::Transitioning {
                from,
                to,
                remaining: rem - 1,
            }
        };
        let next_obs = Observation {
            device_mode: next_mode,
            queue_len: 0,
            idle_slices: obs.idle_slices + j + 1,
            sr_mode_hint: None,
        };
        let next_s = encoder.encode(&next_obs);
        learner.update(s, a, reward, next_s, legal.legal(next_mode));
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdpm_device::presets;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn observation(power: &PowerModel, state: &str, q: usize) -> Observation {
        Observation {
            device_mode: DeviceMode::Operational(power.state_by_name(state).unwrap()),
            queue_len: q,
            idle_slices: 0,
            sr_mode_hint: None,
        }
    }

    #[test]
    fn reward_weights_validate() {
        assert!(RewardWeights::new(1.0, 0.1, 20.0).is_ok());
        assert!(RewardWeights::new(-1.0, 0.1, 0.0).is_err());
        assert!(RewardWeights::new(1.0, f64::INFINITY, 0.0).is_err());
    }

    #[test]
    fn reward_formula_by_hand() {
        let w = RewardWeights::new(1.0, 0.5, 10.0).unwrap();
        let outcome = StepOutcome {
            energy: 2.0,
            queue_len: 3,
            dropped: 1,
            completed: 0,
            arrivals: 1,
            deadline_misses: 0,
        };
        // -(2.0 + 0.5*(3 + 10)) = -8.5
        assert!((w.reward(&outcome) + 8.5).abs() < 1e-12);
    }

    #[test]
    fn legal_actions_by_mode() {
        let power = presets::three_state_generic();
        let agent = QDpmAgent::new(&power, QDpmConfig::default()).unwrap();
        let active = power.state_by_name("active").unwrap();
        let sleep = power.state_by_name("sleep").unwrap();
        assert_eq!(
            agent.legal_actions(DeviceMode::Operational(active)).len(),
            3
        );
        assert_eq!(
            agent.legal_actions(DeviceMode::Transitioning {
                from: active,
                to: sleep,
                remaining: 2
            }),
            vec![sleep.index()]
        );
    }

    #[test]
    fn decide_then_observe_updates_table() {
        let power = presets::three_state_generic();
        let mut agent = QDpmAgent::new(&power, QDpmConfig::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let obs = observation(&power, "active", 0);
        let _ = agent.decide(&obs, &mut rng);
        assert_eq!(agent.learner().steps(), 0);
        let outcome = StepOutcome {
            energy: 1.0,
            queue_len: 0,
            dropped: 0,
            completed: 0,
            arrivals: 0,
            deadline_misses: 0,
        };
        agent.observe(&outcome, &observation(&power, "active", 0));
        assert_eq!(agent.learner().steps(), 1);
    }

    #[test]
    fn observe_without_decide_is_noop() {
        let power = presets::three_state_generic();
        let mut agent = QDpmAgent::new(&power, QDpmConfig::default()).unwrap();
        let outcome = StepOutcome {
            energy: 1.0,
            queue_len: 0,
            dropped: 0,
            completed: 0,
            arrivals: 0,
            deadline_misses: 0,
        };
        agent.observe(&outcome, &observation(&power, "active", 0));
        assert_eq!(agent.learner().steps(), 0);
    }

    #[test]
    fn transitioning_device_forces_stay_the_course() {
        let power = presets::three_state_generic();
        let mut agent = QDpmAgent::new(&power, QDpmConfig::default()).unwrap();
        let active = power.state_by_name("active").unwrap();
        let sleep = power.state_by_name("sleep").unwrap();
        let obs = Observation {
            device_mode: DeviceMode::Transitioning {
                from: active,
                to: sleep,
                remaining: 1,
            },
            queue_len: 2,
            idle_slices: 0,
            sr_mode_hint: None,
        };
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..10 {
            assert_eq!(agent.decide(&obs, &mut rng), sleep);
        }
    }

    #[test]
    fn q_table_is_small() {
        // The paper's memory claim: a 3-state device with queue cap 8
        // needs only 11 * 9 = 99 states x 3 actions.
        let power = presets::three_state_generic();
        let agent = QDpmAgent::new(&power, QDpmConfig::default()).unwrap();
        assert_eq!(agent.table_bytes(), 99 * 3 * (8 + 4));
    }

    /// Learning sanity: with no arrivals ever, the greedy policy from the
    /// active/empty-queue state should eventually head toward lower power.
    #[test]
    fn learns_to_leave_active_when_idle() {
        let power = presets::three_state_generic();
        let mut agent = QDpmAgent::new(
            &power,
            QDpmConfig {
                exploration: Exploration::EpsilonGreedy { epsilon: 0.2 },
                learning_rate: LearningRate::Constant(0.2),
                ..QDpmConfig::default()
            },
        )
        .unwrap();
        let active = power.state_by_name("active").unwrap();
        let mut rng = StdRng::seed_from_u64(9);

        // Hand-rolled tiny environment: device with no arrivals; we only
        // model operational residency (transitions abstracted to one slice)
        // to check the learning direction, not exact optimality.
        let mut mode = DeviceMode::Operational(active);
        for _ in 0..20_000 {
            let obs = Observation {
                device_mode: mode,
                queue_len: 0,
                idle_slices: 0,
                sr_mode_hint: None,
            };
            let cmd = agent.decide(&obs, &mut rng);
            // Instant-transition toy dynamics.
            let next_mode = DeviceMode::Operational(cmd);
            let energy = power.state(cmd).power;
            let outcome = StepOutcome {
                energy,
                queue_len: 0,
                dropped: 0,
                completed: 0,
                arrivals: 0,
                deadline_misses: 0,
            };
            let next_obs = Observation {
                device_mode: next_mode,
                queue_len: 0,
                idle_slices: 0,
                sr_mode_hint: None,
            };
            agent.observe(&outcome, &next_obs);
            mode = next_mode;
        }
        let greedy = agent.greedy_action(&Observation {
            device_mode: DeviceMode::Operational(active),
            queue_len: 0,
            idle_slices: 0,
            sr_mode_hint: None,
        });
        let sleep = power.state_by_name("sleep").unwrap();
        assert_eq!(greedy, sleep, "idle system should learn to sleep");
    }
}

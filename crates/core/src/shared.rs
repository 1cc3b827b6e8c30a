//! A shareable Q-learner handle: one Q-table, many agents.
//!
//! Fleet-scale DPM (the `qdpm-sim` fleet layer) wants a *population* of
//! identical devices to pool their experience into a single Q-table — every
//! device's updates immediately benefit every other device, which is how a
//! datacenter-scale deployment would amortize exploration. The
//! [`SharedQLearner`] is a cloneable handle to one mutex-guarded
//! [`QLearner`]; each clone plugs into its own
//! [`crate::GenericQDpmAgent`] as a [`TabularLearner`].

use std::sync::{Arc, Mutex};

use rand::Rng;

use crate::state_io::{StateError, StateReader, StateWriter};
use crate::variants::TabularLearner;
use crate::{QLearner, StayRun};

/// A cloneable handle to a [`QLearner`] shared by several agents.
///
/// Every trait call locks the learner for its duration, so concurrent use
/// is memory-safe — but **update order is scheduling-dependent across
/// threads**. Deterministic results therefore require that all agents
/// holding clones of one handle run on a single thread (the fleet runner
/// in `qdpm-sim` enforces exactly that by dropping to serial execution
/// when a fleet contains shared-table members).
///
/// # Example
///
/// ```
/// use qdpm_core::{GenericQDpmAgent, QDpmConfig, QLearner, SharedQLearner};
/// use qdpm_device::presets;
///
/// # fn main() -> Result<(), qdpm_core::CoreError> {
/// let power = presets::three_state_generic();
/// let config = QDpmConfig::default();
/// let encoder = config.encoder_for(&power)?;
/// let shared = SharedQLearner::new(QLearner::new(
///     encoder.n_states(),
///     power.n_states(),
///     config.discount,
///     config.learning_rate,
///     config.exploration,
/// )?);
/// // Two devices learning into the same table.
/// let a = GenericQDpmAgent::with_learner(&power, &config, shared.handle())?;
/// let b = GenericQDpmAgent::with_learner(&power, &config, shared.handle())?;
/// assert_eq!(a.learner_ref().steps(), b.learner_ref().steps());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SharedQLearner {
    inner: Arc<Mutex<QLearner>>,
}

impl SharedQLearner {
    /// Wraps a learner for sharing.
    #[must_use]
    pub fn new(learner: QLearner) -> Self {
        SharedQLearner {
            inner: Arc::new(Mutex::new(learner)),
        }
    }

    /// Another handle to the same underlying table (same as `clone`,
    /// spelled for intent).
    #[must_use]
    pub fn handle(&self) -> Self {
        self.clone()
    }

    /// Number of live handles to this table.
    #[must_use]
    pub fn handles(&self) -> usize {
        Arc::strong_count(&self.inner)
    }

    /// A point-in-time copy of the shared learner (table inspection,
    /// persistence).
    ///
    /// # Panics
    ///
    /// Panics if a previous holder panicked while holding the lock.
    #[must_use]
    pub fn snapshot(&self) -> QLearner {
        self.inner.lock().expect("shared learner poisoned").clone()
    }

    /// Total updates performed on the shared table.
    ///
    /// # Panics
    ///
    /// Panics if a previous holder panicked while holding the lock.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.inner.lock().expect("shared learner poisoned").steps()
    }

    fn with<R>(&self, f: impl FnOnce(&mut QLearner) -> R) -> R {
        f(&mut self.inner.lock().expect("shared learner poisoned"))
    }
}

impl TabularLearner for SharedQLearner {
    fn select_action(&mut self, s: usize, legal: &[usize], rng: &mut dyn Rng) -> usize {
        self.with(|l| l.select_action(s, legal, rng))
    }

    fn best_action(&self, s: usize, legal: &[usize]) -> usize {
        self.with(|l| l.best_action(s, legal))
    }

    fn update(&mut self, s: usize, a: usize, reward: f64, next_s: usize, next_legal: &[usize]) {
        self.with(|l| l.update(s, a, reward, next_s, next_legal));
    }

    fn commit_stay_run(
        &mut self,
        s: usize,
        stay: usize,
        legal: &[usize],
        reward: f64,
        max: u64,
        rng: &mut dyn Rng,
    ) -> StayRun {
        self.with(|l| l.commit_stay_run(s, stay, legal, reward, max, rng))
    }

    fn steps(&self) -> u64 {
        SharedQLearner::steps(self)
    }

    fn save_state(&self, w: &mut StateWriter) {
        self.with(|l| l.save_state(w));
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        self.with(|l| l.load_state(r))
    }

    fn reset(&mut self) {
        self.with(QLearner::reset);
    }

    fn memory_bytes(&self) -> usize {
        self.with(|l| l.table().memory_bytes())
    }

    fn algorithm(&self) -> &'static str {
        "watkins-q-shared"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Exploration, LearningRate};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn learner() -> QLearner {
        QLearner::new(
            4,
            2,
            0.9,
            LearningRate::Constant(0.5),
            Exploration::EpsilonGreedy { epsilon: 0.0 },
        )
        .unwrap()
    }

    #[test]
    fn handles_share_one_table() {
        let shared = SharedQLearner::new(learner());
        let mut a = shared.handle();
        let mut b = shared.handle();
        assert_eq!(shared.handles(), 3);
        a.update(0, 1, -1.0, 1, &[0, 1]);
        b.update(0, 1, -1.0, 1, &[0, 1]);
        // Both updates landed on the same table.
        assert_eq!(shared.steps(), 2);
        assert_eq!(TabularLearner::steps(&a), 2);
    }

    #[test]
    fn shared_matches_exclusive_learner_bit_for_bit() {
        // Driving a shared handle serially must be arithmetic-identical to
        // driving the plain learner.
        let mut plain = learner();
        let mut shared = SharedQLearner::new(learner());
        let mut rng_a = StdRng::seed_from_u64(9);
        let mut rng_b = StdRng::seed_from_u64(9);
        let legal = [0usize, 1];
        for i in 0..200u64 {
            let s = (i % 4) as usize;
            let a1 = plain.select_action(s, &legal, &mut rng_a);
            let a2 = shared.select_action(s, &legal, &mut rng_b);
            assert_eq!(a1, a2);
            let r = -((i % 7) as f64) * 0.25;
            plain.update(s, a1, r, (s + 1) % 4, &legal);
            shared.update(s, a2, r, (s + 1) % 4, &legal);
        }
        assert_eq!(plain, shared.snapshot());
    }

    #[test]
    fn stay_runs_delegate() {
        let mut shared = SharedQLearner::new(learner());
        let mut rng = StdRng::seed_from_u64(1);
        let run = shared.commit_stay_run(0, 0, &[0, 1], -0.5, 100, &mut rng);
        let mut plain = learner();
        let mut rng2 = StdRng::seed_from_u64(1);
        let run2 = plain.commit_stay_run(0, 0, &[0, 1], -0.5, 100, &mut rng2);
        assert_eq!(run, run2);
        assert_eq!(plain, shared.snapshot());
    }

    #[test]
    fn snapshot_is_a_copy() {
        let mut shared = SharedQLearner::new(learner());
        let snap = shared.snapshot();
        shared.update(0, 0, -1.0, 0, &[0, 1]);
        assert_eq!(snap.steps(), 0);
        assert_eq!(shared.steps(), 1);
    }
}

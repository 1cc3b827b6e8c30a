//! Alternative tabular learners: SARSA, Double Q-learning, and Watkins
//! Q(lambda) with eligibility traces.
//!
//! The paper commits to Watkins one-step Q-learning for its simplicity;
//! these are the standard drop-in alternatives any follow-up would try, and
//! each addresses a weakness this reproduction measured:
//!
//! * [`SarsaLearner`] — on-policy: values reflect the epsilon-greedy
//!   behavior actually executed, so the online (exploring) cost curve is
//!   optimized directly rather than the greedy target policy;
//! * [`DoubleQLearner`] — two tables with decoupled selection/evaluation,
//!   removing the max-operator's overestimation bias under reward noise;
//! * [`QLambdaLearner`] — Watkins Q(lambda) with replacing eligibility
//!   traces: one reward updates the whole recent state-action trajectory,
//!   which accelerates credit assignment through long uncontrollable
//!   transients (the IBM-HDD's 20-30-slice spin-ups in table T4).
//!
//! All variants implement [`TabularLearner`], the protocol used by
//! [`crate::GenericQDpmAgent`]; the strict alternation
//! `select_action` -> `update` per slice is part of the contract (the
//! simulator guarantees it).

use std::collections::HashMap;

use rand::Rng;

use crate::rng_util::{uniform, uniform_index};
use crate::state_io::{StateError, StateReader, StateWriter};
use crate::{CoreError, Exploration, LearningRate, QLearner, QTable, StayRun};

/// Protocol shared by all tabular learners usable inside a Q-DPM agent.
///
/// The driver must alternate `select_action(s_t, ...)` and
/// `update(s_t, a_t, r_t, s_{t+1}, ...)` once per slice, in that order;
/// on-policy learners (SARSA) rely on it.
///
/// `Send` is a supertrait so a [`crate::GenericQDpmAgent`] wrapping any
/// learner satisfies [`crate::PowerManager`]'s `Send` bound and can run on
/// a worker thread of the parallel experiment runner.
pub trait TabularLearner: std::fmt::Debug + Send {
    /// Chooses an action in `s` among `legal`, applying exploration.
    fn select_action(&mut self, s: usize, legal: &[usize], rng: &mut dyn Rng) -> usize;

    /// The greedy action (no exploration), for frozen-policy evaluation.
    fn best_action(&self, s: usize, legal: &[usize]) -> usize;

    /// Consumes one observed transition.
    fn update(&mut self, s: usize, a: usize, reward: f64, next_s: usize, next_legal: &[usize]);

    /// Event-skip support: commit up to `max` quiescent self-loop slices
    /// in state `s` (see [`QLearner::commit_stay_run`], the only learner
    /// that implements it). The default commits nothing, so every variant
    /// is stepped per slice by the event-skipping engine — on-policy and
    /// trace-based learners have per-slice state the closed form cannot
    /// replay.
    fn commit_stay_run(
        &mut self,
        s: usize,
        stay: usize,
        legal: &[usize],
        reward: f64,
        max: u64,
        rng: &mut dyn Rng,
    ) -> StayRun {
        let _ = (s, stay, legal, reward, max, rng);
        StayRun::none()
    }

    /// Total updates performed.
    fn steps(&self) -> u64;

    /// Checkpoint support: appends the learner's full mutable state to a
    /// payload. The default writes nothing, paired with the default
    /// [`TabularLearner::load_state`] that reads nothing — symmetric, so a
    /// variant without checkpoint support round-trips as a no-op instead
    /// of corrupting the payload framing.
    fn save_state(&self, w: &mut StateWriter) {
        let _ = w;
    }

    /// Checkpoint support: restores state written by
    /// [`TabularLearner::save_state`]. Default: reads nothing.
    ///
    /// # Errors
    ///
    /// Returns a [`StateError`] when the payload does not decode.
    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        let _ = r;
        Ok(())
    }

    /// Clears learned state.
    fn reset(&mut self);

    /// Heap footprint of the learned tables, in bytes.
    fn memory_bytes(&self) -> usize;

    /// Short display name of the algorithm.
    fn algorithm(&self) -> &'static str;
}

impl TabularLearner for QLearner {
    fn select_action(&mut self, s: usize, legal: &[usize], rng: &mut dyn Rng) -> usize {
        QLearner::select_action(self, s, legal, rng)
    }

    fn best_action(&self, s: usize, legal: &[usize]) -> usize {
        QLearner::best_action(self, s, legal)
    }

    fn update(&mut self, s: usize, a: usize, reward: f64, next_s: usize, next_legal: &[usize]) {
        QLearner::update(self, s, a, reward, next_s, next_legal);
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
        QLearner::commit_stay_run(self, s, stay, legal, reward, max, rng)
    }

    fn steps(&self) -> u64 {
        QLearner::steps(self)
    }

    fn save_state(&self, w: &mut StateWriter) {
        QLearner::save_state(self, w);
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        QLearner::load_state(self, r)
    }

    fn reset(&mut self) {
        QLearner::reset(self);
    }

    fn memory_bytes(&self) -> usize {
        self.table().memory_bytes()
    }

    fn algorithm(&self) -> &'static str {
        "watkins-q"
    }
}

/// On-policy SARSA(0).
///
/// The update target bootstraps on the action the behavior policy
/// *actually selects next* rather than the greedy maximum, so the learned
/// values equal the epsilon-greedy policy's own long-run return. The
/// required next action is captured by deferring each update until the
/// following `select_action` call (the strict alternation contract).
#[derive(Debug, Clone, PartialEq)]
pub struct SarsaLearner {
    table: QTable,
    discount: f64,
    learning_rate: LearningRate,
    exploration: Exploration,
    steps: u64,
    /// Transition awaiting its on-policy bootstrap action.
    pending: Option<PendingSarsa>,
}

#[derive(Debug, Clone, PartialEq)]
struct PendingSarsa {
    s: usize,
    a: usize,
    reward: f64,
    next_s: usize,
}

impl SarsaLearner {
    /// Creates a learner with a zero-initialized table.
    ///
    /// # Errors
    ///
    /// Returns a [`CoreError`] for an invalid discount or schedule.
    pub fn new(
        n_states: usize,
        n_actions: usize,
        discount: f64,
        learning_rate: LearningRate,
        exploration: Exploration,
    ) -> Result<Self, CoreError> {
        if !(discount.is_finite() && (0.0..1.0).contains(&discount)) {
            return Err(CoreError::BadDiscount(discount));
        }
        learning_rate.validate()?;
        exploration.validate()?;
        Ok(SarsaLearner {
            table: QTable::new(n_states, n_actions),
            discount,
            learning_rate,
            exploration,
            steps: 0,
            pending: None,
        })
    }

    /// Read access to the table.
    #[must_use]
    pub fn table(&self) -> &QTable {
        &self.table
    }

    fn apply_pending(&mut self, bootstrap_q: f64) {
        if let Some(p) = self.pending.take() {
            let visits = self.table.record_visit(p.s, p.a);
            let gamma = self.learning_rate.rate(self.steps, visits);
            let old = self.table.get(p.s, p.a);
            let target = p.reward + self.discount * bootstrap_q;
            self.table
                .set(p.s, p.a, (1.0 - gamma) * old + gamma * target);
            self.steps += 1;
        }
    }
}

impl TabularLearner for SarsaLearner {
    fn select_action(&mut self, s: usize, legal: &[usize], rng: &mut dyn Rng) -> usize {
        assert!(!legal.is_empty(), "need at least one legal action");
        let eps = self.exploration.epsilon_at(self.steps);
        let a = if legal.len() > 1 && uniform(rng) < eps {
            legal[uniform_index(rng, legal.len())]
        } else {
            self.table.best_action(s, legal)
        };
        // If a transition is pending and this state continues it, complete
        // the on-policy update with the action just chosen.
        if matches!(&self.pending, Some(p) if p.next_s == s) {
            let q = self.table.get(s, a);
            self.apply_pending(q);
        }
        a
    }

    fn best_action(&self, s: usize, legal: &[usize]) -> usize {
        self.table.best_action(s, legal)
    }

    fn update(&mut self, s: usize, a: usize, reward: f64, next_s: usize, _next_legal: &[usize]) {
        // Flush any stale pending transition (e.g. after an external reset
        // of the environment) with its own greedy bootstrap as a fallback
        // (max over the full action set, straight off the Q-row).
        if let Some(p) = &self.pending {
            if p.next_s != s {
                let q = self
                    .table
                    .row(p.next_s)
                    .iter()
                    .copied()
                    .fold(f64::NEG_INFINITY, f64::max);
                self.apply_pending(q);
            }
        }
        self.pending = Some(PendingSarsa {
            s,
            a,
            reward,
            next_s,
        });
    }

    fn steps(&self) -> u64 {
        self.steps
    }

    fn reset(&mut self) {
        self.table.reset();
        self.steps = 0;
        self.pending = None;
    }

    fn memory_bytes(&self) -> usize {
        self.table.memory_bytes()
    }

    fn algorithm(&self) -> &'static str {
        "sarsa"
    }
}

/// Tiny deterministic PRNG so Double Q's coin flips stay reproducible
/// without threading the caller's RNG through `update`.
#[derive(Debug, Clone, PartialEq)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_f64(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Double Q-learning (van Hasselt): two tables, decoupled action selection
/// and evaluation.
///
/// Each update flips a fair coin: table A is updated toward
/// `r + beta * Q_B(s', argmax_a Q_A(s', a))` (or symmetrically), removing
/// the single-max overestimation bias that plain Q-learning exhibits under
/// stochastic rewards — relevant here because DPM rewards mix stochastic
/// queue/drop penalties into every slice.
#[derive(Debug, Clone, PartialEq)]
pub struct DoubleQLearner {
    a: QTable,
    b: QTable,
    discount: f64,
    learning_rate: LearningRate,
    exploration: Exploration,
    steps: u64,
    coin: SplitMix64,
}

impl DoubleQLearner {
    /// Creates a learner with two zero-initialized tables.
    ///
    /// # Errors
    ///
    /// Returns a [`CoreError`] for an invalid discount or schedule.
    pub fn new(
        n_states: usize,
        n_actions: usize,
        discount: f64,
        learning_rate: LearningRate,
        exploration: Exploration,
    ) -> Result<Self, CoreError> {
        if !(discount.is_finite() && (0.0..1.0).contains(&discount)) {
            return Err(CoreError::BadDiscount(discount));
        }
        learning_rate.validate()?;
        exploration.validate()?;
        Ok(DoubleQLearner {
            a: QTable::new(n_states, n_actions),
            b: QTable::new(n_states, n_actions),
            discount,
            learning_rate,
            exploration,
            steps: 0,
            coin: SplitMix64(0x5eed_5eed_5eed_5eed),
        })
    }

    /// Mean of the two tables' values at `(s, a)` (the acting estimate).
    #[must_use]
    pub fn combined_q(&self, s: usize, a: usize) -> f64 {
        0.5 * (self.a.get(s, a) + self.b.get(s, a))
    }

    fn combined_best(&self, s: usize, legal: &[usize]) -> usize {
        assert!(!legal.is_empty(), "need at least one legal action");
        let mut best = legal[0];
        let mut best_q = self.combined_q(s, legal[0]);
        for &a in &legal[1..] {
            let q = self.combined_q(s, a);
            if q > best_q {
                best_q = q;
                best = a;
            }
        }
        best
    }
}

impl TabularLearner for DoubleQLearner {
    fn select_action(&mut self, s: usize, legal: &[usize], rng: &mut dyn Rng) -> usize {
        assert!(!legal.is_empty(), "need at least one legal action");
        let eps = self.exploration.epsilon_at(self.steps);
        if legal.len() > 1 && uniform(rng) < eps {
            legal[uniform_index(rng, legal.len())]
        } else {
            self.combined_best(s, legal)
        }
    }

    fn best_action(&self, s: usize, legal: &[usize]) -> usize {
        self.combined_best(s, legal)
    }

    fn update(&mut self, s: usize, a: usize, reward: f64, next_s: usize, next_legal: &[usize]) {
        let flip = self.coin.next_f64() < 0.5;
        let (upd, eval) = if flip {
            (&mut self.a, &self.b)
        } else {
            (&mut self.b, &self.a)
        };
        // argmax on the updated table, value from the other.
        let mut best = next_legal[0];
        let mut best_q = upd.get(next_s, next_legal[0]);
        for &cand in &next_legal[1..] {
            let q = upd.get(next_s, cand);
            if q > best_q {
                best_q = q;
                best = cand;
            }
        }
        let bootstrap = eval.get(next_s, best);
        let visits = upd.record_visit(s, a);
        let gamma = self.learning_rate.rate(self.steps, visits);
        let old = upd.get(s, a);
        let target = reward + self.discount * bootstrap;
        upd.set(s, a, (1.0 - gamma) * old + gamma * target);
        self.steps += 1;
    }

    fn steps(&self) -> u64 {
        self.steps
    }

    fn reset(&mut self) {
        self.a.reset();
        self.b.reset();
        self.steps = 0;
    }

    fn memory_bytes(&self) -> usize {
        self.a.memory_bytes() + self.b.memory_bytes()
    }

    fn algorithm(&self) -> &'static str {
        "double-q"
    }
}

/// Watkins Q(lambda) with replacing eligibility traces.
///
/// Each update propagates the TD error over every recently visited
/// state-action pair, weighted by an exponentially decaying trace
/// (`beta * lambda` per slice). Per Watkins' variant, traces are cut
/// whenever the taken action was exploratory, keeping the off-policy
/// target sound. Traces are stored sparsely and culled below `1e-4`.
#[derive(Debug, Clone, PartialEq)]
pub struct QLambdaLearner {
    table: QTable,
    discount: f64,
    lambda: f64,
    learning_rate: LearningRate,
    exploration: Exploration,
    steps: u64,
    traces: HashMap<(usize, usize), f64>,
}

impl QLambdaLearner {
    /// Creates a learner; `lambda` in `[0, 1)` controls the trace decay
    /// (`0` reduces exactly to one-step Q-learning).
    ///
    /// # Errors
    ///
    /// Returns a [`CoreError`] for invalid discount, lambda, or schedule.
    pub fn new(
        n_states: usize,
        n_actions: usize,
        discount: f64,
        lambda: f64,
        learning_rate: LearningRate,
        exploration: Exploration,
    ) -> Result<Self, CoreError> {
        if !(discount.is_finite() && (0.0..1.0).contains(&discount)) {
            return Err(CoreError::BadDiscount(discount));
        }
        if !(lambda.is_finite() && (0.0..1.0).contains(&lambda)) {
            return Err(CoreError::BadLearningRate(format!(
                "trace decay lambda {lambda} not in [0, 1)"
            )));
        }
        learning_rate.validate()?;
        exploration.validate()?;
        Ok(QLambdaLearner {
            table: QTable::new(n_states, n_actions),
            discount,
            lambda,
            learning_rate,
            exploration,
            steps: 0,
            traces: HashMap::new(),
        })
    }

    /// Read access to the table.
    #[must_use]
    pub fn table(&self) -> &QTable {
        &self.table
    }

    /// Number of live eligibility traces.
    #[must_use]
    pub fn n_traces(&self) -> usize {
        self.traces.len()
    }
}

impl TabularLearner for QLambdaLearner {
    fn select_action(&mut self, s: usize, legal: &[usize], rng: &mut dyn Rng) -> usize {
        assert!(!legal.is_empty(), "need at least one legal action");
        let eps = self.exploration.epsilon_at(self.steps);
        if legal.len() > 1 && uniform(rng) < eps {
            legal[uniform_index(rng, legal.len())]
        } else {
            self.table.best_action(s, legal)
        }
    }

    fn best_action(&self, s: usize, legal: &[usize]) -> usize {
        self.table.best_action(s, legal)
    }

    fn update(&mut self, s: usize, a: usize, reward: f64, next_s: usize, next_legal: &[usize]) {
        let visits = self.table.record_visit(s, a);
        let gamma = self.learning_rate.rate(self.steps, visits);
        let bootstrap = self.table.max_q(next_s, next_legal);
        let delta = reward + self.discount * bootstrap - self.table.get(s, a);

        // Replacing trace for the visited pair.
        self.traces.insert((s, a), 1.0);
        // Propagate the TD error along the trace, decay, and cull — all
        // in place, no per-update scratch allocation.
        let decay = self.discount * self.lambda;
        for (&(ts, ta), e) in self.traces.iter_mut() {
            let q = self.table.get(ts, ta);
            self.table.set(ts, ta, q + gamma * delta * *e);
            *e *= decay;
        }
        self.traces.retain(|_, e| *e >= 1e-4);
        // Watkins cut: if the action was exploratory (not greedy in s),
        // the off-policy backup chain is broken — drop all traces. Greedy
        // w.r.t. the full action set (lowest-index tie-break, matching
        // `QTable::best_action`); legality is the caller's concern and
        // exploratory moves are rare.
        let row = self.table.row(s);
        let mut greedy = 0;
        for (cand, &q) in row.iter().enumerate().skip(1) {
            if q > row[greedy] {
                greedy = cand;
            }
        }
        if a != greedy {
            self.traces.clear();
        }
        self.steps += 1;
    }

    fn steps(&self) -> u64 {
        self.steps
    }

    fn reset(&mut self) {
        self.table.reset();
        self.traces.clear();
        self.steps = 0;
    }

    fn memory_bytes(&self) -> usize {
        self.table.memory_bytes() + self.traces.len() * std::mem::size_of::<((usize, usize), f64)>()
    }

    fn algorithm(&self) -> &'static str {
        "q-lambda"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Shared two-state chain: staying in state 1 pays 1, else 0; beta 0.5.
    /// Optimal Q*(1, stay) = 2 (see learner.rs for the derivation).
    fn train(learner: &mut dyn TabularLearner, steps: u64, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = 0usize;
        for _ in 0..steps {
            let a = learner.select_action(s, &[0, 1], &mut rng);
            let next = if a == 0 { s } else { 1 - s };
            let reward = if s == 1 && a == 0 { 1.0 } else { 0.0 };
            learner.update(s, a, reward, next, &[0, 1]);
            s = next;
        }
    }

    #[test]
    fn sarsa_learns_the_chain() {
        let mut l = SarsaLearner::new(
            2,
            2,
            0.5,
            LearningRate::VisitDecay { omega: 0.7 },
            Exploration::EpsilonGreedy { epsilon: 0.2 },
        )
        .unwrap();
        train(&mut l, 150_000, 3);
        // On-policy values are perturbed by exploration, but the greedy
        // ranking must be right: stay in 1 beats leaving.
        assert!(l.table().get(1, 0) > l.table().get(1, 1));
        assert!(
            l.table().get(1, 0) > 1.0,
            "Q(1,stay) = {}",
            l.table().get(1, 0)
        );
        assert_eq!(l.best_action(1, &[0, 1]), 0);
        assert_eq!(l.algorithm(), "sarsa");
    }

    #[test]
    fn double_q_learns_the_chain() {
        let mut l = DoubleQLearner::new(
            2,
            2,
            0.5,
            LearningRate::VisitDecay { omega: 0.7 },
            Exploration::EpsilonGreedy { epsilon: 0.3 },
        )
        .unwrap();
        train(&mut l, 200_000, 5);
        assert!(
            (l.combined_q(1, 0) - 2.0).abs() < 0.1,
            "Q(1,0) = {}",
            l.combined_q(1, 0)
        );
        assert_eq!(l.best_action(1, &[0, 1]), 0);
        assert_eq!(l.algorithm(), "double-q");
    }

    #[test]
    fn q_lambda_learns_the_chain() {
        let mut l = QLambdaLearner::new(
            2,
            2,
            0.5,
            0.8,
            LearningRate::VisitDecay { omega: 0.7 },
            Exploration::EpsilonGreedy { epsilon: 0.3 },
        )
        .unwrap();
        train(&mut l, 200_000, 7);
        assert!(
            (l.table().get(1, 0) - 2.0).abs() < 0.15,
            "Q(1,0) = {}",
            l.table().get(1, 0)
        );
        assert_eq!(l.best_action(1, &[0, 1]), 0);
    }

    #[test]
    fn q_lambda_zero_matches_one_step_q() {
        // lambda = 0 must reduce to plain Watkins: identical tables after
        // identical experience.
        let mut ql = QLambdaLearner::new(
            3,
            2,
            0.9,
            0.0,
            LearningRate::Constant(0.2),
            Exploration::EpsilonGreedy { epsilon: 0.0 },
        )
        .unwrap();
        let mut q = QLearner::new(
            3,
            2,
            0.9,
            LearningRate::Constant(0.2),
            Exploration::EpsilonGreedy { epsilon: 0.0 },
        )
        .unwrap();
        let transitions = [
            (0usize, 1usize, 1.0f64, 1usize),
            (1, 0, -0.5, 2),
            (2, 1, 0.25, 0),
            (0, 0, 0.0, 0),
            (0, 1, 1.0, 1),
        ];
        for &(s, a, r, ns) in &transitions {
            TabularLearner::update(&mut ql, s, a, r, ns, &[0, 1]);
            TabularLearner::update(&mut q, s, a, r, ns, &[0, 1]);
        }
        for s in 0..3 {
            for a in 0..2 {
                assert!(
                    (ql.table().get(s, a) - q.table().get(s, a)).abs() < 1e-12,
                    "divergence at ({s},{a})"
                );
            }
        }
    }

    #[test]
    fn q_lambda_traces_accumulate_and_cull() {
        let mut l = QLambdaLearner::new(
            4,
            2,
            0.9,
            0.9,
            LearningRate::Constant(0.1),
            Exploration::EpsilonGreedy { epsilon: 0.0 },
        )
        .unwrap();
        // Greedy chain of updates (all actions greedy since table is 0 and
        // tie-break picks action 0).
        TabularLearner::update(&mut l, 0, 0, 0.0, 1, &[0, 1]);
        TabularLearner::update(&mut l, 1, 0, 0.0, 2, &[0, 1]);
        TabularLearner::update(&mut l, 2, 0, 1.0, 3, &[0, 1]);
        assert!(l.n_traces() >= 3, "traces {}", l.n_traces());
        // The reward at (2,0) should have propagated back to (0,0).
        assert!(l.table().get(0, 0) > 0.0, "trace propagation failed");
        assert!(l.table().get(1, 0) > l.table().get(0, 0));
    }

    #[test]
    fn q_lambda_validates_lambda() {
        assert!(QLambdaLearner::new(
            2,
            2,
            0.9,
            1.0,
            LearningRate::default(),
            Exploration::default()
        )
        .is_err());
        assert!(QLambdaLearner::new(
            2,
            2,
            0.9,
            -0.1,
            LearningRate::default(),
            Exploration::default()
        )
        .is_err());
    }

    #[test]
    fn double_q_is_deterministic_given_seeds() {
        let mk = || {
            DoubleQLearner::new(
                2,
                2,
                0.5,
                LearningRate::Constant(0.2),
                Exploration::EpsilonGreedy { epsilon: 0.1 },
            )
            .unwrap()
        };
        let mut l1 = mk();
        let mut l2 = mk();
        train(&mut l1, 10_000, 9);
        train(&mut l2, 10_000, 9);
        assert_eq!(l1.combined_q(1, 0), l2.combined_q(1, 0));
    }

    #[test]
    fn memory_accounting_scales() {
        let q = QLearner::new(10, 3, 0.9, LearningRate::default(), Exploration::default()).unwrap();
        let d = DoubleQLearner::new(10, 3, 0.9, LearningRate::default(), Exploration::default())
            .unwrap();
        assert_eq!(d.memory_bytes(), 2 * TabularLearner::memory_bytes(&q));
    }

    #[test]
    fn sarsa_defers_and_flushes_updates() {
        let mut l = SarsaLearner::new(
            2,
            2,
            0.5,
            LearningRate::Constant(0.5),
            Exploration::EpsilonGreedy { epsilon: 0.0 },
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        // update() alone defers...
        TabularLearner::update(&mut l, 0, 0, 1.0, 1, &[0, 1]);
        assert_eq!(l.steps(), 0);
        // ...the next select in the continuation state completes it.
        let _ = l.select_action(1, &[0, 1], &mut rng);
        assert_eq!(l.steps(), 1);
        assert!(l.table().get(0, 0) > 0.0);
    }
}

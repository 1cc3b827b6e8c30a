use rand::Rng;

use crate::rng_util::{geometric_gap, uniform, uniform_index};
use crate::state_io::{StateError, StateReader, StateWriter};
use crate::{CoreError, Exploration, LearningRate, QTable};

/// Outcome of a learner's closed-form quiescent stay run
/// ([`QLearner::commit_stay_run`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StayRun {
    /// Consecutive slices the learner committed to (and already applied
    /// the per-slice self-loop updates for).
    pub slices: u64,
    /// The action ending the run, pre-drawn during the commitment. The
    /// next `select_action` on the same state **must** return it without
    /// consuming randomness — redrawing would bias the run-length law.
    /// `None` when the run ended at the caller's cap instead.
    pub deviation: Option<usize>,
}

impl StayRun {
    /// An empty commitment (the learner opts out of event skipping).
    #[must_use]
    pub fn none() -> Self {
        StayRun {
            slices: 0,
            deviation: None,
        }
    }
}

/// Watkins Q-learning over a discrete state/action space — the algorithmic
/// core of Q-DPM.
///
/// Implements the paper's Eqn. (3) verbatim (reward convention, so the
/// greedy action is the arg-max):
///
/// ```text
/// Q(s,a) <- (1 - gamma) * Q(s,a) + gamma * ( c(s,a,s') + beta * max_b Q(s',b) )
/// ```
///
/// with `gamma` from a [`LearningRate`] schedule and epsilon-greedy (or
/// Boltzmann) exploration per Section 2 of the paper. The learner is
/// domain-agnostic; `qdpm`'s power-management agents wrap it with a state
/// encoder and a reward definition.
///
/// # Example
///
/// ```
/// use qdpm_core::{Exploration, LearningRate, QLearner};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), qdpm_core::CoreError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mut learner = QLearner::new(
///     4,                               // states
///     2,                               // actions
///     0.9,                             // discount beta
///     LearningRate::Constant(0.5),
///     Exploration::EpsilonGreedy { epsilon: 0.1 },
/// )?;
/// let a = learner.select_action(0, &[0, 1], &mut rng);
/// learner.update(0, a, 1.0, 1, &[0, 1]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QLearner {
    table: QTable,
    discount: f64,
    learning_rate: LearningRate,
    exploration: Exploration,
    steps: u64,
}

impl QLearner {
    /// Creates a learner with a zero-initialized table.
    ///
    /// # Errors
    ///
    /// Returns a [`CoreError`] when the discount is outside `[0, 1)` or a
    /// schedule parameter is out of range.
    ///
    /// # Panics
    ///
    /// Panics if `n_states` or `n_actions` is zero.
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
        Ok(QLearner {
            table: QTable::new(n_states, n_actions),
            discount,
            learning_rate,
            exploration,
            steps: 0,
        })
    }

    /// The discount factor `beta`.
    #[must_use]
    pub fn discount(&self) -> f64 {
        self.discount
    }

    /// Read access to the Q-table.
    #[must_use]
    pub fn table(&self) -> &QTable {
        &self.table
    }

    /// Total updates performed.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Selects an action in `s` among `legal` — greedy on the Q-table, with
    /// the exploration strategy's randomization.
    ///
    /// # Panics
    ///
    /// Panics if `legal` is empty or contains an out-of-range action.
    pub fn select_action(&self, s: usize, legal: &[usize], rng: &mut dyn Rng) -> usize {
        select_from_row(self.table.row(s), legal, &self.exploration, self.steps, rng)
    }

    /// The purely greedy action (no exploration), for evaluation runs.
    ///
    /// # Panics
    ///
    /// Panics if `legal` is empty or contains an out-of-range action.
    #[must_use]
    pub fn best_action(&self, s: usize, legal: &[usize]) -> usize {
        self.table.best_action(s, legal)
    }

    /// Applies the paper's Eqn. (3) for the observed transition
    /// `(s, a) --reward--> (next_s with next_legal)`.
    ///
    /// # Panics
    ///
    /// Panics if `next_legal` is empty or any index is out of range.
    pub fn update(&mut self, s: usize, a: usize, reward: f64, next_s: usize, next_legal: &[usize]) {
        let n_actions = self.table.n_actions();
        assert!(
            s < self.table.n_states() && a < n_actions && next_s < self.table.n_states(),
            "q-table index out of range"
        );
        let (q, visits) = self.table.cells_mut();
        update_in_place(
            q,
            visits,
            n_actions,
            self.discount,
            &self.learning_rate,
            self.steps,
            s,
            a,
            reward,
            next_s,
            next_legal,
        );
        self.steps += 1;
    }

    /// Simulates up to `max` consecutive quiescent self-loop slices in
    /// state `s` — each slice `select_action(s, legal)` followed by
    /// `update(s, stay, reward, s, legal)` — and commits exactly the
    /// leading slices whose selected action is `stay`, applying their
    /// updates. The run ends at the first slice that would deviate (its
    /// pre-drawn action is returned in [`StayRun::deviation`] and must be
    /// served by the next `select_action` without redrawing) or at `max`.
    ///
    /// Exact in distribution relative to per-slice stepping: exploration
    /// events are jumped to with one [`geometric_gap`] draw (memoryless,
    /// so truncation at `max` is sound), greedy slices are replayed
    /// against cached row maxima (only `Q(s, stay)` changes during the
    /// run), and the per-slice update arithmetic is replicated operation
    /// for operation — a zero-epsilon run is bit-identical to per-slice
    /// stepping. Fewer RNG draws are consumed, so the policy stream
    /// differs whenever epsilon is positive.
    ///
    /// Only a constant epsilon can commit: a decaying schedule qualifies
    /// once it has frozen (reached its floor, or `decay == 1.0`) and
    /// Boltzmann never does (it draws per slice) — otherwise the
    /// commitment is empty and the engine steps per slice.
    ///
    /// # Panics
    ///
    /// Panics if `legal` is empty, does not contain `stay`, or indexes out
    /// of range.
    pub fn commit_stay_run(
        &mut self,
        s: usize,
        stay: usize,
        legal: &[usize],
        reward: f64,
        max: u64,
        rng: &mut dyn Rng,
    ) -> StayRun {
        assert!(legal.contains(&stay), "stay must be a legal action");
        let eps = match self.exploration {
            Exploration::EpsilonGreedy { epsilon } => epsilon,
            // A decaying schedule is committable once it can no longer
            // move: at its floor (or with decay 1.0), epsilon is constant
            // for every future step — exactly, not approximately.
            Exploration::DecayingEpsilon {
                epsilon0,
                decay,
                min_epsilon,
            } => {
                #[allow(clippy::float_cmp)]
                let frozen =
                    decay == 1.0 || epsilon0 * decay.powf(self.steps as f64) <= min_epsilon;
                if frozen {
                    self.exploration.epsilon_at(self.steps)
                } else {
                    return StayRun::none();
                }
            }
            Exploration::Boltzmann { .. } => return StayRun::none(),
        };
        if max == 0 {
            return StayRun::none();
        }
        // Loop invariants: only Q(s, stay) changes during the run.
        // `pre_max`/`post_max` reproduce `best_action`'s first-strict-
        // maximum tie-breaking (entries before/after `stay` in `legal`);
        // their max joins Q(s, stay) to reproduce `max_q`.
        let (mut pre_max, mut post_max) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        {
            let row = self.table.row(s);
            let mut seen_stay = false;
            for &a in legal {
                if a == stay {
                    seen_stay = true;
                } else if seen_stay {
                    post_max = post_max.max(row[a]);
                } else {
                    pre_max = pre_max.max(row[a]);
                }
            }
        }
        let other_max = pre_max.max(post_max);
        let mut q = self.table.get(s, stay);
        let mut visits = self.table.visits(s, stay);
        let mut slices = 0u64;
        let mut deviation = None;
        // Hoist the schedule dispatch: constant and global-decay rates
        // ignore the visit counter, so it can be reconciled once at the
        // end (`saturating_add` per slice == saturated bulk add).
        let (const_gamma, needs_visits) = match self.learning_rate {
            LearningRate::Constant(g) => (Some(g), false),
            LearningRate::GlobalDecay { .. } => (None, false),
            LearningRate::VisitDecay { .. } => (None, true),
        };

        // One slice of `observe`: the self-loop Q-update, arithmetic
        // replicated from `update` against the cached row maxima.
        macro_rules! apply_update {
            () => {{
                let gamma = match const_gamma {
                    Some(g) => g,
                    None => {
                        if needs_visits {
                            visits = visits.saturating_add(1);
                        }
                        self.learning_rate.rate(self.steps, visits)
                    }
                };
                let bootstrap = other_max.max(q);
                let target = reward + self.discount * bootstrap;
                q = (1.0 - gamma) * q + gamma * target;
                self.steps += 1;
                slices += 1;
            }};
        }

        'run: while slices < max {
            // One draw buys the index of the next exploring slice
            // (geometric on {1, 2, ...}); every earlier slice is greedy.
            let explore_in = if legal.len() == 1 {
                u64::MAX
            } else {
                geometric_gap(rng, eps)
            };
            let greedy_budget = explore_in.saturating_sub(1).min(max - slices);
            let mut done = 0u64;
            // Two-slice history for the numeric-cycle fast path.
            let mut q_prev = f64::NAN;
            while done < greedy_budget {
                // The greedy decide: `stay` must win exactly as
                // `best_action` would pick it — strictly above everything
                // scanned before it, not strictly beaten by anything after
                // (NaN-free by construction, so `!(a > b)` here is plain
                // `a <= b`).
                #[allow(clippy::neg_cmp_op_on_partial_ord)]
                if q > pre_max && !(post_max > q) {
                    let q_before = q;
                    apply_update!();
                    done += 1;
                    // Numeric-cycle fast path (constant rate only — the
                    // update map is then step-invariant): once the float
                    // iteration reaches its fixed point (`f(q) == q`) or a
                    // rounding 2-cycle (`f(f(q)) == q`), every remaining
                    // greedy slice replays known values and only the
                    // counters advance. Both predecessors already passed
                    // the greedy-decide check.
                    if const_gamma.is_some() {
                        let left = greedy_budget - done;
                        if q.to_bits() == q_before.to_bits() {
                            slices += left;
                            self.steps += left;
                            done = greedy_budget;
                        } else if q.to_bits() == q_prev.to_bits() {
                            slices += left;
                            self.steps += left;
                            done = greedy_budget;
                            if left % 2 == 1 {
                                q = q_before; // odd tail ends on f(q)
                            }
                        }
                    }
                    q_prev = q_before;
                } else {
                    // Deterministic deviation: the conditioned-greedy slice
                    // picks the arg-max, which is no longer `stay`.
                    self.table.set(s, stay, q);
                    deviation = Some(self.table.best_action(s, legal));
                    break 'run;
                }
            }
            if slices >= max {
                break; // exploration event beyond the cap: memoryless, drop
            }
            // The exploring slice draws uniformly over the legal set.
            let a = legal[uniform_index(rng, legal.len())];
            if a == stay {
                apply_update!();
            } else {
                deviation = Some(a);
                break;
            }
        }
        self.table.set(s, stay, q);
        if !needs_visits {
            // Reconcile the untouched counter: per-slice `saturating_add`
            // k times == one saturated bulk add.
            visits = u32::try_from((u64::from(visits)).saturating_add(slices)).unwrap_or(u32::MAX);
        }
        self.table.set_visit_count(s, stay, visits);
        StayRun { slices, deviation }
    }

    /// Resets the table and step counter (schedules keep their parameters).
    pub fn reset(&mut self) {
        self.table.reset();
        self.steps = 0;
    }

    /// Appends the learner's full mutable state — the Q-table blob and the
    /// step counter — to a checkpoint payload. Schedule parameters are
    /// configuration, rebuilt identically by the caller, so they are not
    /// persisted; the step counter *is*, because decay schedules key off it.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.put_bytes(&self.table.to_bytes());
        w.put_u64(self.steps);
    }

    /// Restores state written by [`QLearner::save_state`].
    ///
    /// # Errors
    ///
    /// Returns a [`StateError`] when the payload is truncated, the table
    /// blob fails its own validation, or its dimensions do not match this
    /// learner's.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        let table = QTable::from_bytes(r.get_bytes()?)
            .map_err(|e| StateError::BadValue(format!("q-table blob: {e}")))?;
        if (table.n_states(), table.n_actions()) != (self.table.n_states(), self.table.n_actions())
        {
            return Err(StateError::BadValue(format!(
                "q-table dimensions {}x{} do not match learner {}x{}",
                table.n_states(),
                table.n_actions(),
                self.table.n_states(),
                self.table.n_actions()
            )));
        }
        self.table = table;
        self.steps = r.get_u64()?;
        Ok(())
    }

    /// Replaces the Q-table wholesale (warm-start from a persisted blob).
    ///
    /// # Panics
    ///
    /// Panics if the replacement's dimensions differ from the current
    /// table's.
    pub fn replace_table(&mut self, table: QTable) {
        assert_eq!(
            (table.n_states(), table.n_actions()),
            (self.table.n_states(), self.table.n_actions()),
            "replacement table dimensions must match"
        );
        self.table = table;
    }
}

/// Action selection over one borrowed Q-row — the single implementation
/// behind both [`QLearner::select_action`] and
/// [`crate::BatchLearner::select_action`], so the scalar and batched
/// engines consume bit-identical randomness.
///
/// A single legal action is returned without drawing (mid-transition
/// decides must not advance the policy stream). Boltzmann softmax is
/// numerically stabilized and allocation-free; epsilon-greedy draws one
/// uniform for the explore/exploit decision and a second only when
/// exploring.
#[inline]
pub(crate) fn select_from_row<R: Rng + ?Sized>(
    row: &[f64],
    legal: &[usize],
    exploration: &Exploration,
    steps: u64,
    rng: &mut R,
) -> usize {
    assert!(!legal.is_empty(), "need at least one legal action");
    if legal.len() == 1 {
        return legal[0];
    }
    match *exploration {
        Exploration::Boltzmann { temperature } => {
            // Softmax over Q/T, numerically stabilized. Two passes over
            // the Q-row instead of a collected weight vector keep the
            // selection allocation-free; the weights are recomputed in
            // the same order, so the draw is bit-identical to the old
            // collected form.
            let max_q = legal
                .iter()
                .map(|&a| row[a])
                .fold(f64::NEG_INFINITY, f64::max);
            let weight = |a: usize| ((row[a] - max_q) / temperature).exp();
            let total: f64 = legal.iter().map(|&a| weight(a)).sum();
            let mut u = uniform(rng) * total;
            for &a in legal {
                u -= weight(a);
                if u < 0.0 {
                    return a;
                }
            }
            legal[legal.len() - 1]
        }
        _ => {
            let eps = exploration.epsilon_at(steps);
            if uniform(rng) < eps {
                legal[uniform_index(rng, legal.len())]
            } else {
                best_in_row(row, legal)
            }
        }
    }
}

/// [`QTable::best_action`]'s first-strict-maximum scan over a borrowed
/// row (deterministic lowest-index tie-breaking).
#[inline]
pub(crate) fn best_in_row(row: &[f64], legal: &[usize]) -> usize {
    let mut best = legal[0];
    let mut best_q = row[legal[0]];
    for &a in &legal[1..] {
        let q = row[a];
        if q > best_q {
            best_q = q;
            best = a;
        }
    }
    best
}

/// The paper's Eqn. (3) applied in place to a row-major table slice —
/// the single update implementation behind both [`QLearner::update`] and
/// [`crate::BatchLearner::update`]. Operation order (visit increment,
/// rate, bootstrap, blend) replicates the historical `QLearner` body
/// exactly; callers advance their own step counters.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn update_in_place(
    q: &mut [f64],
    visits: &mut [u32],
    n_actions: usize,
    discount: f64,
    learning_rate: &LearningRate,
    steps: u64,
    s: usize,
    a: usize,
    reward: f64,
    next_s: usize,
    next_legal: &[usize],
) {
    assert!(!next_legal.is_empty(), "need at least one legal action");
    let i = s * n_actions + a;
    visits[i] = visits[i].saturating_add(1);
    let gamma = learning_rate.rate(steps, visits[i]);
    let next_row = &q[next_s * n_actions..(next_s + 1) * n_actions];
    let bootstrap = next_legal
        .iter()
        .map(|&b| next_row[b])
        .fold(f64::NEG_INFINITY, f64::max);
    let old = q[i];
    let target = reward + discount * bootstrap;
    q[i] = (1.0 - gamma) * old + gamma * target;
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn learner(discount: f64, rate: f64, eps: f64) -> QLearner {
        QLearner::new(
            4,
            2,
            discount,
            LearningRate::Constant(rate),
            Exploration::EpsilonGreedy { epsilon: eps },
        )
        .unwrap()
    }

    #[test]
    fn rejects_bad_discount() {
        assert!(matches!(
            QLearner::new(2, 2, 1.0, LearningRate::default(), Exploration::default()),
            Err(CoreError::BadDiscount(_))
        ));
        assert!(matches!(
            QLearner::new(2, 2, -0.1, LearningRate::default(), Exploration::default()),
            Err(CoreError::BadDiscount(_))
        ));
    }

    #[test]
    fn update_matches_eqn3_by_hand() {
        let mut l = learner(0.5, 0.25, 0.0);
        l.table.set(1, 0, 8.0); // max_b Q(s'=1, b) = 8
        l.table.set(0, 0, 4.0);
        // Q <- (1-0.25)*4 + 0.25*(2 + 0.5*8) = 3 + 0.25*6 = 4.5
        l.update(0, 0, 2.0, 1, &[0, 1]);
        assert!((l.table().get(0, 0) - 4.5).abs() < 1e-12);
        assert_eq!(l.steps(), 1);
    }

    #[test]
    fn zero_epsilon_is_greedy() {
        let mut l = learner(0.9, 0.1, 0.0);
        l.table.set(0, 1, 1.0);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..50 {
            assert_eq!(l.select_action(0, &[0, 1], &mut rng), 1);
        }
    }

    #[test]
    fn full_epsilon_explores_both_actions() {
        let mut l = learner(0.9, 0.1, 1.0);
        l.table.set(0, 1, 100.0);
        let mut rng = StdRng::seed_from_u64(0);
        let mut seen = [false; 2];
        for _ in 0..100 {
            seen[l.select_action(0, &[0, 1], &mut rng)] = true;
        }
        assert!(seen[0] && seen[1]);
    }

    #[test]
    fn single_legal_action_skips_exploration() {
        let l = learner(0.9, 0.1, 1.0);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(l.select_action(0, &[1], &mut rng), 1);
    }

    #[test]
    fn boltzmann_prefers_higher_q() {
        let mut l = QLearner::new(
            1,
            2,
            0.9,
            LearningRate::default(),
            Exploration::Boltzmann { temperature: 0.5 },
        )
        .unwrap();
        l.table.set(0, 1, 2.0);
        let mut rng = StdRng::seed_from_u64(7);
        let picks_1 = (0..1000)
            .filter(|_| l.select_action(0, &[0, 1], &mut rng) == 1)
            .count();
        // exp(0)/exp(4) ratio: action 1 should dominate but not be exclusive.
        assert!(picks_1 > 900, "picked 1 {picks_1} times");
        assert!(picks_1 < 1000, "boltzmann should still explore");
    }

    /// Q-learning on a known 2-state MDP converges to the optimal Q-values.
    #[test]
    fn converges_on_two_state_chain() {
        // States {0, 1}; action 0 = stay, action 1 = move.
        // Rewards: staying in 1 pays 1, everything else pays 0.
        // beta = 0.5. Optimal: Q*(1,0) = 1/(1-0.5) = 2,
        // Q*(0,1) = 0 + 0.5*2 = 1, Q*(0,0) = 0.5*Q*(0, best) = 0.5*1 = 0.5,
        // Q*(1,1) = 0 + 0.5*1 = ... move from 1 to 0: 0 + 0.5*max_b Q(0,b) = 0.5.
        let mut l = QLearner::new(
            2,
            2,
            0.5,
            LearningRate::VisitDecay { omega: 0.7 },
            Exploration::EpsilonGreedy { epsilon: 0.3 },
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let mut s = 0usize;
        for _ in 0..200_000 {
            let a = l.select_action(s, &[0, 1], &mut rng);
            let next = if a == 0 { s } else { 1 - s };
            let reward = if s == 1 && a == 0 { 1.0 } else { 0.0 };
            l.update(s, a, reward, next, &[0, 1]);
            s = next;
        }
        let t = l.table();
        assert!((t.get(1, 0) - 2.0).abs() < 0.05, "Q(1,0) = {}", t.get(1, 0));
        assert!((t.get(0, 1) - 1.0).abs() < 0.05, "Q(0,1) = {}", t.get(0, 1));
        assert!((t.get(0, 0) - 0.5).abs() < 0.05, "Q(0,0) = {}", t.get(0, 0));
        assert!((t.get(1, 1) - 0.5).abs() < 0.05, "Q(1,1) = {}", t.get(1, 1));
    }

    /// Per-slice reference for the stay run: alternate select/update until
    /// the selection deviates or `max` slices pass. Returns (slices,
    /// deviation).
    fn stay_run_per_slice(
        l: &mut QLearner,
        s: usize,
        stay: usize,
        legal: &[usize],
        reward: f64,
        max: u64,
        rng: &mut StdRng,
    ) -> (u64, Option<usize>) {
        for k in 0..max {
            let a = l.select_action(s, legal, rng);
            if a != stay {
                return (k, Some(a));
            }
            l.update(s, stay, reward, s, legal);
        }
        (max, None)
    }

    #[test]
    fn stay_run_zero_epsilon_is_bit_identical_to_per_slice() {
        for schedule in [
            LearningRate::Constant(0.1),
            LearningRate::GlobalDecay { c: 50.0 },
            LearningRate::VisitDecay { omega: 0.8 },
        ] {
            let build = || {
                let mut l = QLearner::new(
                    3,
                    3,
                    0.95,
                    schedule,
                    Exploration::EpsilonGreedy { epsilon: 0.0 },
                )
                .unwrap();
                // Stay (action 1) starts best; constant entries nearby.
                l.table.set(0, 0, -0.4);
                l.table.set(0, 1, -0.1);
                l.table.set(0, 2, -0.3);
                l
            };
            let mut per = build();
            let mut fast = build();
            let mut rng_a = StdRng::seed_from_u64(1);
            let mut rng_b = StdRng::seed_from_u64(1);
            let legal = [0usize, 1, 2];
            let reward = -0.2;
            let (k_per, dev_per) =
                stay_run_per_slice(&mut per, 0, 1, &legal, reward, 500, &mut rng_a);
            let run = fast.commit_stay_run(0, 1, &legal, reward, 500, &mut rng_b);
            // With eps = 0 nothing is random: the deviation slice (if any)
            // and every Q value must agree exactly.
            assert_eq!(run.slices, k_per, "{schedule:?}");
            assert_eq!(run.deviation, dev_per, "{schedule:?}");
            assert_eq!(per.table(), fast.table(), "{schedule:?}");
            assert_eq!(per.steps(), fast.steps(), "{schedule:?}");
        }
    }

    #[test]
    fn stay_run_detects_greedy_crossing() {
        // Stay's Q drifts toward reward/(1-beta); with a constant rival
        // above that fixed point, the greedy choice eventually flips and
        // the run must stop exactly at the crossing (pinned by the
        // per-slice reference above; here: sanity on the direction).
        let mut l = QLearner::new(
            1,
            2,
            0.5,
            LearningRate::Constant(0.5),
            Exploration::EpsilonGreedy { epsilon: 0.0 },
        )
        .unwrap();
        l.table.set(0, 0, 0.1); // stay
        l.table.set(0, 1, -0.5); // rival, above the fixed point -1.0
        let mut rng = StdRng::seed_from_u64(0);
        let run = l.commit_stay_run(0, 0, &[0, 1], -0.5, 10_000, &mut rng);
        assert_eq!(run.deviation, Some(1), "greedy must flip to the rival");
        assert!(run.slices > 0 && run.slices < 10_000);
        // At the stop point the rival really is the greedy action.
        assert_eq!(l.best_action(0, &[0, 1]), 1);
    }

    #[test]
    fn stay_run_exploration_statistics_match_per_slice() {
        // With eps > 0 the draw order differs, so compare the *law*: mean
        // committed run length over many independent runs.
        let eps = 0.08;
        let runs = 4_000u64;
        let build = || {
            let mut l = QLearner::new(
                1,
                3,
                0.9,
                LearningRate::Constant(0.05),
                Exploration::EpsilonGreedy { epsilon: eps },
            )
            .unwrap();
            // Stay far above rivals: greedy never flips within the cap, so
            // runs end only by exploration (prob eps * 2/3 per slice).
            l.table.set(0, 1, 100.0);
            l
        };
        let mut rng = StdRng::seed_from_u64(7);
        let mut total_fast = 0u64;
        for _ in 0..runs {
            let mut l = build();
            total_fast += l
                .commit_stay_run(0, 1, &[0, 1, 2], -0.1, 100_000, &mut rng)
                .slices;
        }
        let mut total_per = 0u64;
        for _ in 0..runs {
            let mut l = build();
            total_per += stay_run_per_slice(&mut l, 0, 1, &[0, 1, 2], -0.1, 100_000, &mut rng).0;
        }
        let (m_fast, m_per) = (
            total_fast as f64 / runs as f64,
            total_per as f64 / runs as f64,
        );
        let expect = 1.0 / (eps * (2.0 / 3.0)) - 1.0; // slices before the deviating slice
        assert!(
            (m_fast - expect).abs() < 0.06 * expect,
            "fast mean {m_fast} vs analytic {expect}"
        );
        assert!(
            (m_fast - m_per).abs() < 0.06 * expect,
            "fast mean {m_fast} vs per-slice mean {m_per}"
        );
    }

    #[test]
    fn stay_run_opts_out_for_non_constant_exploration() {
        let mut rng = StdRng::seed_from_u64(2);
        for exploration in [
            Exploration::Boltzmann { temperature: 0.5 },
            Exploration::DecayingEpsilon {
                epsilon0: 0.5,
                decay: 0.999,
                min_epsilon: 0.01,
            },
        ] {
            let mut l = QLearner::new(2, 2, 0.9, LearningRate::Constant(0.1), exploration).unwrap();
            let run = l.commit_stay_run(0, 0, &[0, 1], -1.0, 100, &mut rng);
            assert_eq!(run, StayRun::none());
            assert_eq!(l.steps(), 0);
        }
    }

    #[test]
    fn save_load_round_trips_table_and_steps() {
        let mut src = learner(0.9, 0.3, 0.1);
        let mut rng = StdRng::seed_from_u64(5);
        let mut s = 0usize;
        for _ in 0..500 {
            let a = src.select_action(s, &[0, 1], &mut rng);
            let next = (s + a) % 4;
            src.update(s, a, -0.3, next, &[0, 1]);
            s = next;
        }
        let mut w = StateWriter::new();
        src.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut dst = learner(0.9, 0.3, 0.1);
        dst.load_state(&mut StateReader::new(&bytes)).unwrap();
        assert_eq!(dst.table(), src.table());
        assert_eq!(dst.steps(), src.steps());
    }

    #[test]
    fn load_rejects_dimension_mismatch_and_truncation() {
        let src = learner(0.9, 0.3, 0.1);
        let mut w = StateWriter::new();
        src.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut wrong = QLearner::new(
            3,
            3,
            0.9,
            LearningRate::Constant(0.3),
            Exploration::EpsilonGreedy { epsilon: 0.1 },
        )
        .unwrap();
        assert!(wrong.load_state(&mut StateReader::new(&bytes)).is_err());
        let mut same = learner(0.9, 0.3, 0.1);
        assert!(same
            .load_state(&mut StateReader::new(&bytes[..bytes.len() - 4]))
            .is_err());
    }

    #[test]
    fn reset_clears_table_and_steps() {
        let mut l = learner(0.9, 0.5, 0.0);
        l.update(0, 0, 1.0, 0, &[0, 1]);
        l.reset();
        assert_eq!(l.steps(), 0);
        assert_eq!(l.table().get(0, 0), 0.0);
    }
}

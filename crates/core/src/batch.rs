//! Batched Q-learning over striped row-major storage — the learning core
//! of the batched fleet cohorts in `qdpm-sim`.
//!
//! A homogeneous cohort of `m` devices runs `m` *independent* Watkins
//! learners that share every hyperparameter (discount, learning-rate
//! schedule, exploration) and table geometry, but keep private Q-values,
//! visit counts, and step counters. [`BatchLearner`] lays those `m`
//! tables out in one flat buffer, device-major, so stepping a cohort in
//! device order walks contiguous memory instead of chasing `m` boxed
//! learners through the heap.
//!
//! Selection and update execute the exact code paths of
//! [`crate::QLearner`] (`learner::select_from_row` /
//! `learner::update_in_place`), so a batched device consumes bit-identical
//! randomness and produces bit-identical Q-values to a standalone learner
//! fed the same observation/reward stream — the property the fleet
//! conformance suite pins.

use rand::Rng;

use crate::learner::{best_in_row, select_from_row, update_in_place};
use crate::{CoreError, Exploration, LearningRate, QTable};

/// `m` independent tabular Q-learners in one striped row-major buffer.
///
/// Device `d`'s table is the contiguous block
/// `q[d * n_states * n_actions ..][.. n_states * n_actions]`, itself
/// row-major in `(state, action)` exactly like [`QTable`]. All devices
/// share one hyperparameter set; per-device state is limited to the flat
/// value/visit/step arrays.
///
/// # Example
///
/// ```
/// use qdpm_core::{BatchLearner, Exploration, LearningRate};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), qdpm_core::CoreError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mut batch = BatchLearner::new(
///     16,                              // devices
///     4,                               // states
///     2,                               // actions
///     0.9,                             // discount beta
///     LearningRate::Constant(0.5),
///     Exploration::EpsilonGreedy { epsilon: 0.1 },
/// )?;
/// let a = batch.select_action(3, 0, &[0, 1], &mut rng);
/// batch.update(3, 0, a, 1.0, 1, &[0, 1]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BatchLearner {
    n_devices: usize,
    n_states: usize,
    n_actions: usize,
    /// Device-major striped Q-values: `n_devices * n_states * n_actions`.
    q: Vec<f64>,
    /// Visit counters, same layout as `q`.
    visits: Vec<u32>,
    /// Per-device update counters (drive per-device schedules).
    steps: Vec<u64>,
    discount: f64,
    learning_rate: LearningRate,
    exploration: Exploration,
}

impl BatchLearner {
    /// Creates `n_devices` zero-initialized learners with shared
    /// hyperparameters.
    ///
    /// # Errors
    ///
    /// Returns a [`CoreError`] when the discount is outside `[0, 1)` or a
    /// schedule parameter is out of range (same validation as
    /// [`crate::QLearner::new`]).
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(
        n_devices: usize,
        n_states: usize,
        n_actions: usize,
        discount: f64,
        learning_rate: LearningRate,
        exploration: Exploration,
    ) -> Result<Self, CoreError> {
        assert!(
            n_devices > 0 && n_states > 0 && n_actions > 0,
            "batch dimensions must be positive"
        );
        if !(discount.is_finite() && (0.0..1.0).contains(&discount)) {
            return Err(CoreError::BadDiscount(discount));
        }
        learning_rate.validate()?;
        exploration.validate()?;
        let cells = n_devices * n_states * n_actions;
        // Pre-fault the striped buffers at construction: a large
        // `vec![0; n]` is served from demand-zero pages, and without this
        // every first-touch page fault lands inside the first (timed)
        // run. `black_box` keeps the writes from being elided as
        // redundant zero stores.
        let mut q = vec![0.0_f64; cells];
        q.fill(std::hint::black_box(0.0));
        let mut visits = vec![0_u32; cells];
        visits.fill(std::hint::black_box(0));
        Ok(BatchLearner {
            n_devices,
            n_states,
            n_actions,
            q,
            visits,
            steps: vec![0; n_devices],
            discount,
            learning_rate,
            exploration,
        })
    }

    /// Number of devices in the batch.
    #[must_use]
    pub fn n_devices(&self) -> usize {
        self.n_devices
    }

    /// Number of encoded states per device table.
    #[must_use]
    pub fn n_states(&self) -> usize {
        self.n_states
    }

    /// Number of actions per device table.
    #[must_use]
    pub fn n_actions(&self) -> usize {
        self.n_actions
    }

    /// The shared discount factor `beta`.
    #[must_use]
    pub fn discount(&self) -> f64 {
        self.discount
    }

    /// Total updates performed by `device`.
    ///
    /// # Panics
    ///
    /// Panics if `device` is out of range.
    #[must_use]
    #[inline]
    pub fn steps(&self, device: usize) -> u64 {
        self.steps[device]
    }

    /// First flat index of `device`'s table block.
    #[inline]
    fn block(&self, device: usize) -> usize {
        assert!(
            device < self.n_devices,
            "batch device {device} out of range ({})",
            self.n_devices
        );
        device * self.n_states * self.n_actions
    }

    /// The Q-row of `(device, s)` as a borrowed slice (one value per
    /// action).
    ///
    /// # Panics
    ///
    /// Panics if `device` or `s` is out of range.
    #[must_use]
    #[inline]
    pub fn row(&self, device: usize, s: usize) -> &[f64] {
        assert!(
            s < self.n_states,
            "batch state {s} out of range ({})",
            self.n_states
        );
        let base = self.block(device) + s * self.n_actions;
        &self.q[base..base + self.n_actions]
    }

    /// Selects an action for `device` in state `s` among `legal` —
    /// bit-identical to [`crate::QLearner::select_action`] on a standalone
    /// learner with the same table, step count, and RNG stream.
    ///
    /// # Panics
    ///
    /// Panics if `legal` is empty or any index is out of range.
    pub fn select_action<R: Rng + ?Sized>(
        &self,
        device: usize,
        s: usize,
        legal: &[usize],
        rng: &mut R,
    ) -> usize {
        select_from_row(
            self.row(device, s),
            legal,
            &self.exploration,
            self.steps[device],
            rng,
        )
    }

    /// The purely greedy action of `device` in `s` (no exploration), for
    /// evaluation runs.
    ///
    /// # Panics
    ///
    /// Panics if `legal` is empty or any index is out of range.
    #[must_use]
    pub fn best_action(&self, device: usize, s: usize, legal: &[usize]) -> usize {
        assert!(!legal.is_empty(), "need at least one legal action");
        best_in_row(self.row(device, s), legal)
    }

    /// Applies the paper's Eqn. (3) to `device`'s table for the observed
    /// transition `(s, a) --reward--> (next_s with next_legal)` —
    /// bit-identical to [`crate::QLearner::update`].
    ///
    /// # Panics
    ///
    /// Panics if `next_legal` is empty or any index is out of range.
    #[inline]
    pub fn update(
        &mut self,
        device: usize,
        s: usize,
        a: usize,
        reward: f64,
        next_s: usize,
        next_legal: &[usize],
    ) {
        let start = self.block(device);
        assert!(
            s < self.n_states && a < self.n_actions && next_s < self.n_states,
            "batch index out of range"
        );
        let end = start + self.n_states * self.n_actions;
        update_in_place(
            &mut self.q[start..end],
            &mut self.visits[start..end],
            self.n_actions,
            self.discount,
            &self.learning_rate,
            self.steps[device],
            s,
            a,
            reward,
            next_s,
            next_legal,
        );
        self.steps[device] += 1;
    }

    /// Extracts `device`'s table as a standalone [`QTable`] (values and
    /// visit counts), e.g. for persistence or inspection.
    ///
    /// # Panics
    ///
    /// Panics if `device` is out of range.
    #[must_use]
    pub fn device_table(&self, device: usize) -> QTable {
        let start = self.block(device);
        let mut table = QTable::new(self.n_states, self.n_actions);
        for s in 0..self.n_states {
            for a in 0..self.n_actions {
                let i = start + s * self.n_actions + a;
                table.set(s, a, self.q[i]);
                table.set_visit_count(s, a, self.visits[i]);
            }
        }
        table
    }

    /// Exact heap footprint of the striped buffers, in bytes.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.q.len() * std::mem::size_of::<f64>()
            + self.visits.len() * std::mem::size_of::<u32>()
            + self.steps.len() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QLearner;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_bad_hyperparameters() {
        assert!(matches!(
            BatchLearner::new(
                2,
                2,
                2,
                1.0,
                LearningRate::default(),
                Exploration::default()
            ),
            Err(CoreError::BadDiscount(_))
        ));
    }

    #[test]
    #[should_panic(expected = "batch device")]
    fn out_of_range_device_panics() {
        let b = BatchLearner::new(
            2,
            2,
            2,
            0.9,
            LearningRate::default(),
            Exploration::default(),
        )
        .unwrap();
        let _ = b.row(2, 0);
    }

    #[test]
    fn devices_are_independent() {
        let mut b = BatchLearner::new(
            3,
            2,
            2,
            0.5,
            LearningRate::Constant(0.25),
            Exploration::EpsilonGreedy { epsilon: 0.0 },
        )
        .unwrap();
        b.update(1, 0, 0, 2.0, 1, &[0, 1]);
        assert_eq!(b.row(0, 0), &[0.0, 0.0]);
        assert_eq!(b.row(2, 0), &[0.0, 0.0]);
        assert!((b.row(1, 0)[0] - 0.5).abs() < 1e-12); // 0.75*0 + 0.25*2
        assert_eq!(b.steps(0), 0);
        assert_eq!(b.steps(1), 1);
    }

    #[test]
    fn device_table_extraction_round_trips() {
        let mut b = BatchLearner::new(
            2,
            2,
            2,
            0.5,
            LearningRate::Constant(0.25),
            Exploration::EpsilonGreedy { epsilon: 0.0 },
        )
        .unwrap();
        b.update(1, 1, 0, -3.0, 0, &[0, 1]);
        let t = b.device_table(1);
        assert_eq!(t.get(1, 0), b.row(1, 1)[0]);
        assert_eq!(t.visits(1, 0), 1);
        assert_eq!(b.device_table(0), QTable::new(2, 2));
    }

    // The tentpole's exactness property: a batch of `m` devices driven
    // through arbitrary (state, reward, legal-set) schedules matches `m`
    // standalone `QLearner`s fed the same schedules and RNG streams —
    // actions, Q-values, and visit counts all bit-exact.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn batch_matches_independent_scalar_learners(
            seed in 0u64..5_000,
            n_devices in 1usize..6,
            explore_kind in 0usize..4,
        ) {
            let n_states = 4usize;
            let n_actions = 3usize;
            let exploration = match explore_kind {
                0 => Exploration::EpsilonGreedy { epsilon: 0.0 },
                1 => Exploration::EpsilonGreedy { epsilon: 0.1 },
                2 => Exploration::EpsilonGreedy { epsilon: 1.0 },
                _ => Exploration::Boltzmann { temperature: 0.7 },
            };
            let rate = LearningRate::VisitDecay { omega: 0.6 };
            let mut batch = BatchLearner::new(
                n_devices, n_states, n_actions, 0.9, rate, exploration,
            ).unwrap();
            let mut scalars: Vec<QLearner> = (0..n_devices)
                .map(|_| {
                    QLearner::new(n_states, n_actions, 0.9, rate, exploration).unwrap()
                })
                .collect();
            // Distinct RNG stream pairs per device; schedule stream drives
            // the (state, reward, legal) sequence identically for both.
            for (d, scalar) in scalars.iter_mut().enumerate() {
                let mut rng_a = StdRng::seed_from_u64(seed.wrapping_add(d as u64));
                let mut rng_b = StdRng::seed_from_u64(seed.wrapping_add(d as u64));
                let mut sched = StdRng::seed_from_u64(seed ^ (d as u64) << 32 | 1);
                let mut s = 0usize;
                for _ in 0..120 {
                    let legal: &[usize] = match crate::rng_util::uniform_index(&mut sched, 3) {
                        0 => &[0, 1, 2],
                        1 => &[1, 2],
                        _ => &[2],
                    };
                    let a_batch = batch.select_action(d, s, legal, &mut rng_a);
                    let a_scalar = scalar.select_action(s, legal, &mut rng_b);
                    prop_assert_eq!(a_batch, a_scalar);
                    let next_s = crate::rng_util::uniform_index(&mut sched, n_states);
                    let reward = crate::rng_util::uniform(&mut sched) * 4.0 - 2.0;
                    batch.update(d, s, a_batch, reward, next_s, &[0, 1, 2]);
                    scalar.update(s, a_scalar, reward, next_s, &[0, 1, 2]);
                    s = next_s;
                }
            }
            for (d, scalar) in scalars.iter().enumerate() {
                prop_assert_eq!(batch.steps(d), scalar.steps());
                let extracted = batch.device_table(d);
                prop_assert_eq!(&extracted, scalar.table());
                for s in 0..n_states {
                    // Bitwise, not approximate: the fleet exactness
                    // contract is f64-bit equality.
                    for a in 0..n_actions {
                        prop_assert_eq!(
                            extracted.get(s, a).to_bits(),
                            scalar.table().get(s, a).to_bits()
                        );
                    }
                }
            }
        }
    }
}

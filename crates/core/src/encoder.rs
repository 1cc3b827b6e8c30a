use qdpm_device::{DeviceMode, PowerModel, TransientModeIndex};

use crate::CoreError;

/// What the power manager can observe at the start of a slice.
///
/// These are exactly the signals a real PM has access to: its own device's
/// mode (the PM is the driver, so the power state machine is known), the
/// service-queue depth, and how long the input has been silent. The hidden
/// requester mode is *not* observable — being model-free about the workload
/// is the paper's whole point — but white-box baselines may receive it via
/// `sr_mode_hint`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// Current device mode (operational state or in-flight transition).
    pub device_mode: DeviceMode,
    /// Requests currently waiting in the service queue.
    pub queue_len: usize,
    /// Slices since the last request arrival.
    pub idle_slices: u64,
    /// Hidden requester mode, available only to white-box baselines.
    pub sr_mode_hint: Option<usize>,
}

/// How queue depth is quantized by [`DpmStateEncoder`].
#[derive(Debug, Clone, PartialEq)]
pub enum QueueBuckets {
    /// One state per depth `0..=cap` (exact; matches the MDP state space).
    Exact {
        /// Maximum depth represented; deeper queues clamp to `cap`.
        cap: usize,
    },
    /// Logarithmic depth buckets `{0}, {1}, {2..3}, {4..7}, ...` capped at
    /// `n` buckets (compact tables for memory-constrained nodes).
    Log {
        /// Number of buckets, at least 2.
        n: usize,
    },
}

impl QueueBuckets {
    fn n_buckets(&self) -> usize {
        match *self {
            QueueBuckets::Exact { cap } => cap + 1,
            QueueBuckets::Log { n } => n,
        }
    }

    fn bucket(&self, len: usize) -> usize {
        match *self {
            QueueBuckets::Exact { cap } => len.min(cap),
            QueueBuckets::Log { n } => {
                if len == 0 {
                    0
                } else {
                    ((usize::BITS - len.leading_zeros()) as usize).min(n - 1)
                }
            }
        }
    }
}

/// How idle time (slices since the last arrival) is quantized.
#[derive(Debug, Clone, PartialEq)]
pub enum IdleBuckets {
    /// Idle time is ignored (the exact-MDP-matching configuration for
    /// memoryless workloads).
    None,
    /// Bucket `i` holds idle times in `[thresholds[i-1], thresholds[i])`;
    /// the last bucket is open-ended. Thresholds must be strictly
    /// increasing.
    Thresholds(Vec<u64>),
}

impl IdleBuckets {
    fn n_buckets(&self) -> usize {
        match self {
            IdleBuckets::None => 1,
            IdleBuckets::Thresholds(t) => t.len() + 1,
        }
    }

    fn bucket(&self, idle: u64) -> usize {
        match self {
            IdleBuckets::None => 0,
            // Thresholds are validated strictly increasing, so `idle >= th`
            // is monotone over the vector and the bucket is the partition
            // point — O(log n) instead of the former linear scan.
            IdleBuckets::Thresholds(t) => t.partition_point(|&th| idle >= th),
        }
    }

    /// The largest `k` such that `bucket(idle + k) == bucket(idle)`
    /// (`u64::MAX` when the bucket never changes again).
    fn invariance_horizon(&self, idle: u64) -> u64 {
        match self {
            IdleBuckets::None => u64::MAX,
            IdleBuckets::Thresholds(t) => match t.get(self.bucket(idle)) {
                // The bucket holds until the next threshold: it changes at
                // `idle' >= t[b]`, so it is stable through `t[b] - 1`.
                Some(&next) => next - 1 - idle,
                None => u64::MAX, // open-ended last bucket
            },
        }
    }
}

/// The default Q-DPM state encoder: `device mode x queue bucket x idle
/// bucket`.
///
/// Device modes are enumerated exactly (operational states plus every
/// in-flight transition step), mirroring how the PM — being the device
/// driver — knows its own power state machine. With
/// [`QueueBuckets::Exact`] and [`IdleBuckets::None`] on a memoryless
/// workload, the encoded space coincides with the exact DTMDP state space,
/// which is what lets Fig. 1 show convergence *to* the analytic optimum.
#[derive(Debug, Clone, PartialEq)]
pub struct DpmStateEncoder {
    /// Dense O(1) device-mode lookup (operational + transient modes, in
    /// the pinned enumeration order).
    modes: TransientModeIndex,
    queue: QueueBuckets,
    idle: IdleBuckets,
}

impl DpmStateEncoder {
    /// Builds an encoder for `power` with the given bucketing.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadEncoder`] for empty/degenerate bucketings.
    pub fn new(
        power: &PowerModel,
        queue: QueueBuckets,
        idle: IdleBuckets,
    ) -> Result<Self, CoreError> {
        match &queue {
            QueueBuckets::Exact { .. } => {}
            QueueBuckets::Log { n } if *n >= 2 => {}
            QueueBuckets::Log { n } => {
                return Err(CoreError::BadEncoder(format!(
                    "log bucketing needs n >= 2, got {n}"
                )))
            }
        }
        if let IdleBuckets::Thresholds(t) = &idle {
            if t.is_empty() || t.windows(2).any(|w| w[0] >= w[1]) {
                return Err(CoreError::BadEncoder(
                    "idle thresholds must be non-empty and strictly increasing".into(),
                ));
            }
        }
        // Transient modes are enumerated exactly like the device walks
        // them; `TransientModeIndex` pins the order and gives O(1) lookup.
        Ok(DpmStateEncoder {
            modes: TransientModeIndex::new(power),
            queue,
            idle,
        })
    }

    /// Convenience constructor matching the exact DTMDP state space of a
    /// memoryless workload: exact queue depths `0..=queue_cap`, no idle
    /// feature.
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError::BadEncoder`] (cannot occur for this
    /// configuration, kept for API uniformity).
    pub fn exact(power: &PowerModel, queue_cap: usize) -> Result<Self, CoreError> {
        DpmStateEncoder::new(
            power,
            QueueBuckets::Exact { cap: queue_cap },
            IdleBuckets::None,
        )
    }

    /// How many consecutive idle-time increments from `idle` leave the
    /// encoded state unchanged when every other observation field is held
    /// fixed (`u64::MAX` when idle time is unobserved or the last bucket
    /// has been reached). The event-skipping engine must not let an agent
    /// commit a quiescent stretch longer than this, or mid-stretch
    /// Q-updates would land in the wrong row.
    #[must_use]
    pub fn idle_invariance_horizon(&self, idle: u64) -> u64 {
        self.idle.invariance_horizon(idle)
    }

    /// Number of distinct encoded states.
    #[must_use]
    pub fn n_states(&self) -> usize {
        self.modes.n_modes() * self.queue.n_buckets() * self.idle.n_buckets()
    }

    /// Maps an observation onto a dense Q-table state index, always below
    /// [`DpmStateEncoder::n_states`].
    #[inline]
    #[must_use]
    pub fn encode(&self, obs: &Observation) -> usize {
        let dev = self.modes.mode_index(obs.device_mode);
        let qb = self.queue.bucket(obs.queue_len);
        let ib = self.idle.bucket(obs.idle_slices);
        (dev * self.queue.n_buckets() + qb) * self.idle.n_buckets() + ib
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use qdpm_device::{presets, PowerStateId};

    fn obs(mode: DeviceMode, q: usize, idle: u64) -> Observation {
        Observation {
            device_mode: mode,
            queue_len: q,
            idle_slices: idle,
            sr_mode_hint: None,
        }
    }

    #[test]
    fn exact_encoder_counts_match_mdp_space() {
        let power = presets::three_state_generic();
        let enc = DpmStateEncoder::exact(&power, 8).unwrap();
        // 11 device modes (3 operational + 8 transient) x 9 queue depths.
        assert_eq!(enc.n_states(), 11 * 9);
    }

    #[test]
    fn encode_is_injective_on_reachable_observations() {
        let power = presets::three_state_generic();
        let enc = DpmStateEncoder::exact(&power, 4).unwrap();
        let mut seen = std::collections::HashSet::new();
        for s in 0..power.n_states() {
            for q in 0..=4 {
                let o = obs(DeviceMode::Operational(PowerStateId::from_index(s)), q, 0);
                let e = enc.encode(&o);
                assert!(e < enc.n_states());
                assert!(seen.insert(e), "collision at ({s}, {q})");
            }
        }
    }

    #[test]
    fn transient_modes_encode_distinctly() {
        let power = presets::three_state_generic();
        let enc = DpmStateEncoder::exact(&power, 2).unwrap();
        let active = power.state_by_name("active").unwrap();
        let sleep = power.state_by_name("sleep").unwrap();
        let t1 = enc.encode(&obs(
            DeviceMode::Transitioning {
                from: active,
                to: sleep,
                remaining: 1,
            },
            0,
            0,
        ));
        let t2 = enc.encode(&obs(
            DeviceMode::Transitioning {
                from: active,
                to: sleep,
                remaining: 2,
            },
            0,
            0,
        ));
        assert_ne!(t1, t2);
    }

    #[test]
    fn queue_clamps_at_cap() {
        let power = presets::three_state_generic();
        let enc = DpmStateEncoder::exact(&power, 3).unwrap();
        let a = DeviceMode::Operational(PowerStateId::from_index(0));
        assert_eq!(enc.encode(&obs(a, 3, 0)), enc.encode(&obs(a, 99, 0)));
    }

    #[test]
    fn log_buckets_group_depths() {
        let qb = QueueBuckets::Log { n: 4 };
        assert_eq!(qb.bucket(0), 0);
        assert_eq!(qb.bucket(1), 1);
        assert_eq!(qb.bucket(2), 2);
        assert_eq!(qb.bucket(3), 2);
        assert_eq!(qb.bucket(4), 3);
        assert_eq!(qb.bucket(1000), 3); // clamped to last bucket
    }

    #[test]
    fn idle_thresholds_bucket_correctly() {
        let ib = IdleBuckets::Thresholds(vec![2, 10]);
        assert_eq!(ib.n_buckets(), 3);
        assert_eq!(ib.bucket(0), 0);
        assert_eq!(ib.bucket(1), 0);
        assert_eq!(ib.bucket(2), 1);
        assert_eq!(ib.bucket(9), 1);
        assert_eq!(ib.bucket(10), 2);
        assert_eq!(ib.bucket(1_000_000), 2);
    }

    #[test]
    fn idle_feature_multiplies_state_count() {
        let power = presets::three_state_generic();
        let plain = DpmStateEncoder::exact(&power, 4).unwrap();
        let with_idle = DpmStateEncoder::new(
            &power,
            QueueBuckets::Exact { cap: 4 },
            IdleBuckets::Thresholds(vec![2, 8]),
        )
        .unwrap();
        assert_eq!(with_idle.n_states(), plain.n_states() * 3);
    }

    #[test]
    fn idle_invariance_horizon_matches_bucket_function() {
        let ib = IdleBuckets::Thresholds(vec![2, 10]);
        for idle in 0..20u64 {
            let h = ib.invariance_horizon(idle);
            if h == u64::MAX {
                assert_eq!(ib.bucket(idle), 2, "open-ended only in the last bucket");
                continue;
            }
            assert_eq!(ib.bucket(idle + h), ib.bucket(idle), "stable through h");
            assert_ne!(ib.bucket(idle + h + 1), ib.bucket(idle), "h is maximal");
        }
        assert_eq!(IdleBuckets::None.invariance_horizon(123), u64::MAX);

        let power = presets::three_state_generic();
        let enc = DpmStateEncoder::new(
            &power,
            QueueBuckets::Exact { cap: 4 },
            IdleBuckets::Thresholds(vec![5]),
        )
        .unwrap();
        assert_eq!(enc.idle_invariance_horizon(0), 4);
        assert_eq!(enc.idle_invariance_horizon(4), 0);
        assert_eq!(enc.idle_invariance_horizon(5), u64::MAX);
        let exact = DpmStateEncoder::exact(&power, 4).unwrap();
        assert_eq!(exact.idle_invariance_horizon(0), u64::MAX);
    }

    #[test]
    fn rejects_bad_configs() {
        let power = presets::three_state_generic();
        assert!(
            DpmStateEncoder::new(&power, QueueBuckets::Log { n: 1 }, IdleBuckets::None).is_err()
        );
        assert!(DpmStateEncoder::new(
            &power,
            QueueBuckets::Exact { cap: 4 },
            IdleBuckets::Thresholds(vec![5, 5])
        )
        .is_err());
        assert!(DpmStateEncoder::new(
            &power,
            QueueBuckets::Exact { cap: 4 },
            IdleBuckets::Thresholds(vec![])
        )
        .is_err());
    }

    /// SplitMix64 finalizer: a tiny deterministic stream for building
    /// random-but-reproducible threshold vectors inside the property test.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The binary-search bucket must agree with the former linear scan
        /// for arbitrary strictly-increasing threshold vectors and probes.
        #[test]
        fn idle_bucket_matches_linear_scan(seed in 0u64..10_000, idle in 0u64..400) {
            let mut state = seed;
            let len = 1 + (splitmix(&mut state) % 8) as usize;
            let mut thresholds = Vec::with_capacity(len);
            let mut acc = 0u64;
            for _ in 0..len {
                acc += 1 + splitmix(&mut state) % 60; // strictly increasing
                thresholds.push(acc);
            }
            let ib = IdleBuckets::Thresholds(thresholds.clone());
            let linear = thresholds.iter().take_while(|&&th| idle >= th).count();
            prop_assert_eq!(ib.bucket(idle), linear);
            prop_assert!(ib.bucket(idle) < ib.n_buckets());
        }
    }
}

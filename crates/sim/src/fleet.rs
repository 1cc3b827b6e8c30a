//! Fleet-scale simulation: N heterogeneous power-managed devices serving
//! one aggregate workload.
//!
//! The paper evaluates Q-DPM on a single service provider; a production
//! deployment manages *fleets* — thousands of disks, radios, or nodes
//! behind one request stream. This module composes the existing layers
//! into that shape:
//!
//! * a [`qdpm_workload::WorkloadDispatcher`] assigns every aggregate
//!   arrival to exactly one device — a strict partition, none invented,
//!   none lost;
//! * a [`FleetSim`] builds one [`Simulator`] per [`FleetMember`] (mixed
//!   device presets, mixed [`FleetPolicy`] power managers, per-device or
//!   shared Q-tables) and drives them over the horizon, sharded across
//!   worker threads via [`crate::parallel::run_indexed_mut`];
//! * a [`FleetStats`] folds the per-device [`RunStats`] — in device order,
//!   bit-for-bit — and adds fleet-level aggregates: per-device energy and
//!   delay percentiles and the end-of-run device-mode occupancy.
//!
//! # Two execution shapes
//!
//! State-blind dispatchers ([`DispatchPolicy::is_state_blind`]) route from
//! dispatcher-internal state only, so the whole assignment is precomputed:
//! [`qdpm_workload::WorkloadDispatcher::split`] materializes one
//! [`qdpm_workload::SparseTrace`] per device and the per-device runs stay
//! embarrassingly parallel (one thread barrier for the whole run).
//!
//! State-aware dispatchers ([`DispatchPolicy::JoinShortestQueue`],
//! [`DispatchPolicy::SleepAware`]) — or any dispatcher under
//! [`FleetConfig::force_online`] — run the *online dispatch loop* instead:
//! the fleet is driven as one power-cap-less
//! [`crate::hierarchy::RackCoordinator`] rack, where at every aggregate
//! arrival slice the dispatcher reads live [`qdpm_workload::DeviceSnapshot`]s
//! (real queue depths, real power modes), routes the slice's arrivals, and
//! the chosen members absorb them via [`Simulator::inject_arrivals`].
//! Devices advance independently (and in parallel) across the arrival-free
//! gaps between routing points. For a state-blind dispatcher the online
//! loop reproduces the precomputed split *exactly* — same assignment, same
//! per-device streams, bit-identical [`FleetStats`].
//!
//! Both engine modes compose with both shapes: each member's simulator
//! runs under the fleet's [`EngineMode`], and because per-device arrivals
//! are randomness-free (sparse traces, or silent traces plus injection),
//! [`EngineMode::EventSkip`] is *exact* (bit-for-bit equal [`FleetStats`])
//! for every policy whose quiescent commitment consumes no randomness —
//! the fleet conformance suite (`crates/sim/tests/fleet_conformance.rs`)
//! pins this across policies and dispatchers.
//!
//! # Determinism
//!
//! A fleet run is a pure function of (members, aggregate workload,
//! config): the dispatch depends only on the aggregate stream and the
//! (deterministically) simulated device states, every device's simulator
//! seeds its own RNG streams from
//! [`crate::parallel::derive_cell_seed`]`(seed, device_index)`, and results are
//! collected in device order at any thread count. The online loop stays
//! thread-invariant because routing happens serially at arrival slices,
//! after all devices have reached that slice (a barrier per arrival
//! event). The one exception is sharing: a fleet containing
//! [`FleetPolicy::SharedQDpm`] members runs serially regardless of the
//! requested thread count, because concurrent updates to the one shared
//! Q-table would interleave in scheduling order.
//!
//! The clairvoyant [`FleetPolicy::Oracle`] / [`FleetPolicy::OraclePrewake`]
//! members need their device's full dispatched trace ahead of time, which
//! only the precomputed split can provide — building them in an online
//! fleet returns [`SimError::BadConfig`]
//! ([`FleetPolicy::all_online_exact`] is the online-safe population).
//!
//! # Example
//!
//! ```
//! use qdpm_device::presets;
//! use qdpm_sim::fleet::{FleetConfig, FleetMember, FleetPolicy, FleetSim};
//! use qdpm_sim::ScenarioWorkload;
//! use qdpm_workload::{DispatchPolicy, WorkloadSpec};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let members: Vec<FleetMember> = (0..4)
//!     .map(|i| FleetMember {
//!         label: format!("hdd-{i}"),
//!         power: presets::three_state_generic(),
//!         service: presets::default_service(),
//!         policy: FleetPolicy::BreakEvenTimeout,
//!     })
//!     .collect();
//! let aggregate = ScenarioWorkload::Stationary(WorkloadSpec::bernoulli(0.3)?);
//! let fleet = FleetSim::new(
//!     &members,
//!     &aggregate,
//!     &FleetConfig {
//!         horizon: 5_000,
//!         dispatch: DispatchPolicy::LeastLoaded,
//!         ..FleetConfig::default()
//!     },
//! )?;
//! let report = fleet.run(2);
//! assert_eq!(report.stats.devices, 4);
//! assert_eq!(report.stats.total.steps, 4 * 5_000);
//! # Ok(())
//! # }
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;

use qdpm_core::{
    Exploration, GenericQDpmAgent, PowerManager, QDpmAgent, QDpmConfig, QLearner, QosConfig,
    QosQDpmAgent, RewardWeights, SharedQLearner,
};
use qdpm_device::{DeviceMode, PowerModel, PowerStateId, ServiceModel, Step};
use qdpm_workload::{
    DeadlineSpec, DeadlineStats, DispatchPolicy, FaultInjector, FaultPlan, SparseTrace,
    WorkloadDispatcher,
};

use crate::fleet_batch::{group_cohorts, CohortSim};
use crate::hierarchy::{drive_rack, RackCoordinator, RackSpec};
use crate::kernel::DeviceCore;
use crate::parallel::{derive_cell_seed, run_indexed_mut, ScenarioWorkload};
use crate::{
    policies, EngineMode, FaultStats, ObservationNoise, RunStats, SimConfig, SimError, Simulator,
};

/// Declarative power-management policy of one fleet member.
///
/// A fleet spec must be buildable for *any* member device and cloneable
/// across engine modes (the conformance suite builds the identical fleet
/// twice), so policies are described declaratively and instantiated by
/// [`FleetSim::new`] — the clairvoyant oracles against the member's own
/// dispatched trace, the learners from their configs.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetPolicy {
    /// [`policies::AlwaysOn`].
    AlwaysOn,
    /// [`policies::GreedyOff`].
    GreedyOff,
    /// [`policies::FixedTimeout::break_even`].
    BreakEvenTimeout,
    /// [`policies::FixedTimeout`] with an explicit timeout.
    FixedTimeout(u64),
    /// [`policies::AdaptiveTimeout`].
    AdaptiveTimeout,
    /// [`policies::Oracle`] built from the member's dispatched trace
    /// (reactive wake).
    Oracle,
    /// [`policies::Oracle`] with pre-waking.
    OraclePrewake,
    /// [`policies::ChaosMonkey`]: hostile fault injection (uniformly
    /// random commands every slice). Excluded from the engine-exact
    /// populations — it consumes policy randomness per slice.
    ChaosMonkey,
    /// A per-device [`QDpmAgent`] (its own Q-table).
    QDpm(QDpmConfig),
    /// A per-device QoS-constrained agent ([`QosQDpmAgent`]).
    QosQDpm(QosConfig),
    /// A Q-DPM agent learning into the fleet's *shared* Q-table. All
    /// shared members of a fleet must carry the identical config and
    /// identically-dimensioned devices (same encoder/action space); the
    /// first shared member creates the table. See the module notes on
    /// determinism: shared fleets run serially.
    SharedQDpm(QDpmConfig),
}

impl FleetPolicy {
    /// A frozen-exploration (`epsilon = 0`) Q-DPM config — the learner
    /// configuration whose event-skip commitments consume no randomness,
    /// making fleet runs engine-exact.
    #[must_use]
    pub fn frozen_q_dpm() -> FleetPolicy {
        FleetPolicy::QDpm(QDpmConfig {
            exploration: Exploration::EpsilonGreedy { epsilon: 0.0 },
            ..QDpmConfig::default()
        })
    }

    /// A frozen-exploration QoS-constrained config (see
    /// [`FleetPolicy::frozen_q_dpm`]).
    #[must_use]
    pub fn frozen_qos_q_dpm() -> FleetPolicy {
        FleetPolicy::QosQDpm(QosConfig {
            exploration: Exploration::EpsilonGreedy { epsilon: 0.0 },
            ..QosConfig::default()
        })
    }

    /// A frozen-exploration shared-table config (see
    /// [`FleetPolicy::frozen_q_dpm`]).
    #[must_use]
    pub fn frozen_shared_q_dpm() -> FleetPolicy {
        FleetPolicy::SharedQDpm(QDpmConfig {
            exploration: Exploration::EpsilonGreedy { epsilon: 0.0 },
            ..QDpmConfig::default()
        })
    }

    /// Every policy kind in a configuration whose event-skip commitments
    /// consume no randomness, so `PerSlice` and `EventSkip` fleets agree
    /// *exactly* — the population the conformance proptest samples from.
    #[must_use]
    pub fn all_exact() -> Vec<FleetPolicy> {
        vec![
            FleetPolicy::AlwaysOn,
            FleetPolicy::GreedyOff,
            FleetPolicy::BreakEvenTimeout,
            FleetPolicy::FixedTimeout(2),
            FleetPolicy::AdaptiveTimeout,
            FleetPolicy::Oracle,
            FleetPolicy::OraclePrewake,
            FleetPolicy::frozen_q_dpm(),
            FleetPolicy::frozen_qos_q_dpm(),
            FleetPolicy::frozen_shared_q_dpm(),
        ]
    }

    /// [`FleetPolicy::all_exact`] minus the clairvoyant oracles — the
    /// engine-exact policies that can also run under *online* dispatch,
    /// where no precomputed per-device trace exists for an oracle to read.
    #[must_use]
    pub fn all_online_exact() -> Vec<FleetPolicy> {
        FleetPolicy::all_exact()
            .into_iter()
            .filter(|p| !matches!(p, FleetPolicy::Oracle | FleetPolicy::OraclePrewake))
            .collect()
    }

    /// Short display name for reports.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            FleetPolicy::AlwaysOn => "always-on",
            FleetPolicy::GreedyOff => "greedy-off",
            FleetPolicy::BreakEvenTimeout => "break-even-timeout",
            FleetPolicy::FixedTimeout(_) => "fixed-timeout",
            FleetPolicy::AdaptiveTimeout => "adaptive-timeout",
            FleetPolicy::Oracle => "oracle",
            FleetPolicy::OraclePrewake => "oracle-prewake",
            FleetPolicy::ChaosMonkey => "chaos-monkey",
            FleetPolicy::QDpm(_) => "q-dpm",
            FleetPolicy::QosQDpm(_) => "qos-q-dpm",
            FleetPolicy::SharedQDpm(_) => "shared-q-dpm",
        }
    }
}

/// One device of a fleet: a power model, its service process, and the
/// policy managing it.
#[derive(Debug, Clone)]
pub struct FleetMember {
    /// Report label (e.g. the preset name).
    pub label: String,
    /// Device power model.
    pub power: PowerModel,
    /// Service process.
    pub service: ServiceModel,
    /// Power-management policy.
    pub policy: FleetPolicy,
}

/// Fleet-wide simulation parameters.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Queue capacity of every device.
    pub queue_cap: usize,
    /// Reward/cost weights shared by metrics and learners.
    pub weights: RewardWeights,
    /// Master seed: drives the aggregate workload stream and derives every
    /// device's independent simulator seed
    /// ([`derive_cell_seed`]`(seed, device_index)`).
    pub seed: u64,
    /// Engine mode every member's simulator runs under.
    pub engine_mode: EngineMode,
    /// How aggregate arrivals are assigned to devices.
    pub dispatch: DispatchPolicy,
    /// Slices each device simulates (the dispatch horizon).
    pub horizon: Step,
    /// Forces the online dispatch loop even for state-blind dispatchers
    /// (their default is the precomputed split; state-aware dispatchers
    /// always run online). The two shapes produce bit-identical results
    /// for state-blind dispatch — this knob exists so the conformance
    /// suite can pin that equivalence.
    pub force_online: bool,
    /// Runs homogeneous member groups as batched cohorts (see
    /// [`crate::fleet_batch`]). Only preplanned per-slice fleets batch;
    /// groups of ≥ 2 members agreeing on power model, service model, and
    /// a batchable policy become cohorts, everything else stays on the
    /// dynamic per-device path. Results are bit-identical either way
    /// — this knob (default `true`) exists for benchmarking and for the
    /// conformance suites to pin that equivalence.
    pub batch_cohorts: bool,
    /// Seeded fault injection across the fleet (default: none). The plan
    /// is materialized ahead of simulation from per-device
    /// SplitMix64-derived streams
    /// ([`FaultInjector::plan`]`(n_devices, horizon, seed)`), so
    /// fault-injected runs stay bit-exact across engine modes, thread
    /// counts, and batched or dynamic execution.
    pub faults: Option<FaultInjector>,
    /// Deadline tagging applied by every member (default: none), on the
    /// batched and dynamic paths alike; the fleet report merges the
    /// members' ledgers.
    pub deadline: Option<DeadlineSpec>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            queue_cap: 8,
            weights: RewardWeights::default(),
            seed: 42,
            engine_mode: EngineMode::PerSlice,
            dispatch: DispatchPolicy::RoundRobin,
            horizon: 50_000,
            force_online: false,
            batch_cohorts: true,
            faults: None,
            deadline: None,
        }
    }
}

/// The one shared Q-table of a fleet, created by its first
/// [`FleetPolicy::SharedQDpm`] member.
#[derive(Debug)]
pub(crate) struct SharedPool {
    learner: SharedQLearner,
    config: QDpmConfig,
    dims: (usize, usize),
}

/// Builds the boxed power manager for one member. `trace` is the member's
/// precomputed dispatched trace when the fleet dispatch is preplanned;
/// online fleets pass `None`, which makes the clairvoyant oracle policies
/// unbuildable (there is nothing for them to foresee).
pub(crate) fn build_policy(
    member: &FleetMember,
    trace: Option<&SparseTrace>,
    pool: &mut Option<SharedPool>,
) -> Result<Box<dyn PowerManager>, SimError> {
    let power = &member.power;
    let dense_trace = || {
        trace.map(SparseTrace::to_dense).ok_or_else(|| {
            SimError::BadConfig(format!(
                "{}: oracle policies need the precomputed dispatch trace — \
                 use a state-blind dispatcher without force_online",
                member.label
            ))
        })
    };
    Ok(match &member.policy {
        FleetPolicy::AlwaysOn => Box::new(policies::AlwaysOn::new(power)),
        FleetPolicy::GreedyOff => Box::new(policies::GreedyOff::new(power)),
        FleetPolicy::BreakEvenTimeout => Box::new(policies::FixedTimeout::break_even(power)),
        FleetPolicy::FixedTimeout(t) => Box::new(policies::FixedTimeout::new(power, *t)),
        FleetPolicy::AdaptiveTimeout => Box::new(policies::AdaptiveTimeout::new(power)),
        FleetPolicy::Oracle => Box::new(policies::Oracle::from_trace(power, &dense_trace()?)),
        FleetPolicy::OraclePrewake => {
            Box::new(policies::Oracle::from_trace(power, &dense_trace()?).with_prewake())
        }
        FleetPolicy::ChaosMonkey => Box::new(policies::ChaosMonkey::new(power)),
        FleetPolicy::QDpm(config) => Box::new(QDpmAgent::new(power, config.clone())?),
        FleetPolicy::QosQDpm(config) => Box::new(QosQDpmAgent::new(power, config.clone())?),
        FleetPolicy::SharedQDpm(config) => {
            let encoder = config.encoder_for(power)?;
            let dims = (encoder.n_states(), power.n_states());
            let pool = match pool {
                Some(existing) => {
                    if existing.dims != dims {
                        return Err(SimError::BadConfig(format!(
                            "shared-Q-table fleet members must agree on table dimensions: \
                             {:?} vs {dims:?} ({})",
                            existing.dims, member.label
                        )));
                    }
                    if existing.config != *config {
                        return Err(SimError::BadConfig(format!(
                            "shared-Q-table fleet members must carry identical configs \
                             ({} deviates)",
                            member.label
                        )));
                    }
                    existing
                }
                None => {
                    let learner = QLearner::new(
                        dims.0,
                        dims.1,
                        config.discount,
                        config.learning_rate,
                        config.exploration,
                    )?;
                    pool.insert(SharedPool {
                        learner: SharedQLearner::new(learner),
                        config: config.clone(),
                        dims,
                    })
                }
            };
            Box::new(
                GenericQDpmAgent::with_learner(power, config, pool.learner.handle())?
                    .with_name("shared-q-dpm"),
            )
        }
    })
}

/// Draws `horizon` slices of the aggregate workload with the fleet's own
/// seed and returns the nonzero arrival events as `(slice, count)`, in
/// slice order.
///
/// This is the *one* sampling of the aggregate stream: both execution
/// shapes consume the identical per-slice draw order
/// (`StdRng::seed_from_u64(seed)` + one [`next_arrivals`] call per slice),
/// so a preplanned split and an online run of the same fleet see the same
/// arrivals at the same slices.
///
/// [`next_arrivals`]: qdpm_workload::RequestGenerator::next_arrivals
pub(crate) fn materialize_events(
    aggregate: &ScenarioWorkload,
    seed: u64,
    horizon: Step,
) -> Result<Vec<(Step, u32)>, SimError> {
    let mut generator = aggregate.build()?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut events = Vec::new();
    for slice in 0..horizon {
        let count = generator.next_arrivals(&mut rng);
        if count > 0 {
            events.push((slice, count));
        }
    }
    Ok(events)
}

/// The simulator configuration of member `index`: the fleet's queue,
/// weights, engine mode, and deadline tagging, seeded with
/// [`derive_cell_seed`]`(config.seed, index)`. Every execution shape
/// builds its members from this, so they all draw the same streams.
pub(crate) fn member_config(config: &FleetConfig, index: usize) -> SimConfig {
    SimConfig {
        queue_cap: config.queue_cap,
        weights: config.weights,
        seed: derive_cell_seed(config.seed, index as u64),
        expose_sr_mode: false,
        noise: ObservationNoise::none(),
        mode: config.engine_mode,
        deadline: config.deadline,
    }
}

/// Validates and materializes the fleet's fault plan (empty when no
/// injector is configured). Both execution shapes call this with the same
/// `(config, n_devices)`, so preplanned and online runs of the same fleet
/// see the identical fault schedule.
pub(crate) fn plan_faults(config: &FleetConfig, n_devices: usize) -> Result<FaultPlan, SimError> {
    match &config.faults {
        None => Ok(FaultPlan::empty(n_devices)),
        Some(injector) => {
            injector
                .validate()
                .map_err(|e| SimError::BadConfig(format!("fault injector: {e}")))?;
            Ok(injector.plan(n_devices, config.horizon, config.seed))
        }
    }
}

/// Aggregate statistics of a fleet run.
///
/// `total` is the left fold of the per-device [`RunStats`] *in device
/// order* via [`RunStats::merge`] — the defined aggregation order, so the
/// f64 totals are reproducible bit-for-bit at any thread count (the fleet
/// conservation tests pin `total` against a manual fold). The percentile
/// fields are nearest-rank percentiles over per-device values.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetStats {
    /// Number of devices.
    pub devices: usize,
    /// Fold of every device's stats (totals across the fleet).
    pub total: RunStats,
    /// Mean per-device total energy.
    pub mean_energy: f64,
    /// Median per-device total energy (nearest rank).
    pub energy_p50: f64,
    /// 90th-percentile per-device total energy.
    pub energy_p90: f64,
    /// 99th-percentile per-device total energy.
    pub energy_p99: f64,
    /// Fleet-wide mean waiting time of completed requests, in slices.
    pub mean_wait: f64,
    /// Median per-device mean wait.
    pub wait_p50: f64,
    /// 90th-percentile per-device mean wait.
    pub wait_p90: f64,
    /// 99th-percentile per-device mean wait.
    pub wait_p99: f64,
    /// End-of-run device-mode occupancy: fraction of devices resident in
    /// each power-state index (indices beyond a device's model count it
    /// as never occupied). Sums with `transitioning` to 1.
    pub mode_occupancy: Vec<f64>,
    /// Fraction of devices mid-transition at the end of the run.
    pub transitioning: f64,
    /// Availability and failure-handling accounting (all-zero with empty
    /// per-device downtime for fault-free runs).
    pub availability: AvailabilityStats,
    /// Fleet-wide deadline ledger, merged across members in device order
    /// (all zeros when the fleet's workload is untagged).
    pub deadline: DeadlineStats,
}

/// Availability and failure-handling accounting of a fleet run: what the
/// fault clocks did to each device, and what the coordination layer did
/// about it. Preplanned fleets fill only the device-side counters; the
/// retry and shed counters are moved by the online coordinator's
/// failure-aware dispatch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AvailabilityStats {
    /// Fault events applied across the fleet.
    pub faults_injected: u64,
    /// Per-device slices spent down, in device order (empty when no fleet
    /// path filled it, e.g. intermediate aggregates).
    pub downtime_slices: Vec<u64>,
    /// Requests lost from device queues at crash onsets (not harvested for
    /// retry by any coordinator).
    pub queue_lost: u64,
    /// Stranded arrivals harvested into the retry queue.
    pub retries_enqueued: u64,
    /// Retried arrivals successfully re-dispatched to a healthy device.
    pub redispatched: u64,
    /// Retried arrivals still waiting for re-dispatch at the end of the
    /// run.
    pub retry_pending: u64,
    /// Arrivals shed because every device was down
    /// (`ShedReason::NoHealthyDevice`).
    pub shed_no_healthy: u64,
    /// Arrivals shed after exhausting the retry budget
    /// (`ShedReason::RetryBudgetExhausted`).
    pub shed_retry_exhausted: u64,
}

impl AvailabilityStats {
    /// Total downtime slices across the fleet.
    #[must_use]
    pub fn total_downtime(&self) -> u64 {
        self.downtime_slices.iter().sum()
    }

    /// Builds the device-side half from per-device [`FaultStats`] (the
    /// retry/shed counters stay zero; coordinators overwrite them).
    #[must_use]
    pub fn from_device_stats(per_device: &[FaultStats]) -> Self {
        let mut out = AvailabilityStats {
            downtime_slices: per_device.iter().map(|f| f.downtime_slices).collect(),
            ..AvailabilityStats::default()
        };
        for f in per_device {
            out.faults_injected += f.faults_injected;
            out.queue_lost += f.queue_lost;
        }
        out
    }
}

/// Nearest-rank percentile of a sorted sample. `p` must lie in
/// `[0, 100]`: out-of-domain values are a caller bug (caught by a debug
/// assertion) and are clamped to the domain in release builds rather than
/// silently indexing as if the rank formula extrapolated.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    debug_assert!(
        (0.0..=100.0).contains(&p),
        "percentile {p} outside [0, 100]"
    );
    let p = p.clamp(0.0, 100.0);
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

impl FleetStats {
    /// Aggregates per-device stats and final modes (`n_states` is the
    /// widest member model's state count, sizing `mode_occupancy`).
    #[must_use]
    pub fn aggregate(per_device: &[RunStats], final_modes: &[DeviceMode], n_states: usize) -> Self {
        assert_eq!(per_device.len(), final_modes.len());
        let devices = per_device.len();
        let mut total = RunStats::new();
        for stats in per_device {
            total.merge(stats);
        }
        let mut energies: Vec<f64> = per_device.iter().map(|s| s.total_energy).collect();
        energies.sort_by(f64::total_cmp);
        let mut waits: Vec<f64> = per_device.iter().map(RunStats::mean_wait).collect();
        waits.sort_by(f64::total_cmp);
        let mut mode_occupancy = vec![0.0; n_states];
        let mut transitioning = 0.0;
        let share = if devices == 0 {
            0.0
        } else {
            1.0 / devices as f64
        };
        for mode in final_modes {
            match mode {
                DeviceMode::Operational(s) => mode_occupancy[s.index()] += share,
                DeviceMode::Transitioning { .. } => transitioning += share,
            }
        }
        FleetStats {
            devices,
            mean_energy: if devices == 0 {
                0.0
            } else {
                total.total_energy / devices as f64
            },
            energy_p50: percentile(&energies, 50.0),
            energy_p90: percentile(&energies, 90.0),
            energy_p99: percentile(&energies, 99.0),
            mean_wait: if total.completed == 0 {
                0.0
            } else {
                total.total_wait as f64 / total.completed as f64
            },
            wait_p50: percentile(&waits, 50.0),
            wait_p90: percentile(&waits, 90.0),
            wait_p99: percentile(&waits, 99.0),
            mode_occupancy,
            transitioning,
            total,
            availability: AvailabilityStats::default(),
            deadline: DeadlineStats::default(),
        }
    }
}

/// Everything a finished fleet run reports.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Member labels, in device order.
    pub labels: Vec<String>,
    /// Per-device run statistics, in device order.
    pub per_device: Vec<RunStats>,
    /// Each device's mode at the end of the run, in device order.
    pub final_modes: Vec<DeviceMode>,
    /// The fleet aggregate.
    pub stats: FleetStats,
}

/// One independently runnable execution unit of a preplanned fleet:
/// either a single device on the dynamic per-device path or a whole
/// homogeneous cohort on the batched path. Units own disjoint per-device
/// RNG streams and statistics, so any assignment of units to worker
/// threads produces identical results.
#[derive(Debug)]
enum BatchUnit {
    /// One device, dynamic path: boxed policy, boxed trace generator.
    Dynamic {
        /// Global device index.
        index: usize,
        /// The device's simulator (boxed: slim units pack the work list
        /// tighter for the thread fan-out).
        sim: Box<Simulator>,
    },
    /// A homogeneous cohort, batched path (boxed for the same reason).
    Cohort(Box<CohortSim>),
}

/// How a constructed fleet will execute (see the module notes on the two
/// execution shapes).
#[derive(Debug)]
enum FleetInner {
    /// State-blind dispatch, precomputed: devices run independently
    /// end-to-end, singly or batched into homogeneous cohorts.
    Preplanned {
        units: Vec<BatchUnit>,
        labels: Vec<String>,
        n_states: usize,
    },
    /// Online dispatch: a cap-less rack routed live at every aggregate
    /// arrival event. Boxed: a rack (fault barriers, retry queue, budget
    /// plumbing) dwarfs the preplanned variant's three thin vecs.
    Online {
        rack: Box<RackCoordinator>,
        events: Vec<(Step, u32)>,
    },
}

/// A fleet of per-device simulators sharing one dispatched workload,
/// ready to run. See the [module docs](self) for the full picture.
#[derive(Debug)]
pub struct FleetSim {
    inner: FleetInner,
    devices: usize,
    horizon: Step,
    has_shared: bool,
    aggregate_arrivals: u64,
}

impl FleetSim {
    /// Assembles a fleet: draws `config.horizon` slices of the aggregate
    /// workload and builds one seeded simulator per member. State-blind
    /// dispatchers partition the stream ahead of time; state-aware
    /// dispatchers (or [`FleetConfig::force_online`]) set up the online
    /// dispatch loop instead.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for an empty member list, invalid aggregate
    /// workloads, inconsistent shared-table members, clairvoyant oracle
    /// members in an online fleet, or invalid simulator parameters.
    pub fn new(
        members: &[FleetMember],
        aggregate: &ScenarioWorkload,
        config: &FleetConfig,
    ) -> Result<Self, SimError> {
        if members.is_empty() {
            return Err(SimError::BadConfig(
                "a fleet needs at least one member".to_string(),
            ));
        }

        if config.force_online || !config.dispatch.is_state_blind() {
            let events = materialize_events(aggregate, config.seed, config.horizon)?;
            let aggregate_arrivals = events.iter().map(|&(_, c)| u64::from(c)).sum();
            let spec = RackSpec {
                label: "fleet".to_string(),
                members: members.to_vec(),
                power_cap: None,
            };
            let rack = RackCoordinator::new(&spec, config)?;
            return Ok(FleetSim {
                devices: members.len(),
                has_shared: rack.has_shared_table(),
                inner: FleetInner::Online {
                    rack: Box::new(rack),
                    events,
                },
                horizon: config.horizon,
                aggregate_arrivals,
            });
        }

        let fault_plan = plan_faults(config, members.len())?;

        let mut generator = aggregate.build()?;
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut traces: Vec<Option<SparseTrace>> =
            WorkloadDispatcher::new(config.dispatch, members.len())?
                .split(generator.as_mut(), &mut rng, config.horizon)
                .into_iter()
                .map(Some)
                .collect();
        let aggregate_arrivals: u64 = traces
            .iter()
            .flatten()
            .map(SparseTrace::total_arrivals)
            .sum();
        // Homogeneous groups of ≥ 2 batchable members take the batched
        // cohort path; their kernels step the identical arrivals, faults
        // and deadlines the dynamic path would, so batched and dynamic
        // runs agree bit for bit.
        let groups = if config.batch_cohorts && config.engine_mode == EngineMode::PerSlice {
            group_cohorts(members)
        } else {
            Vec::new()
        };
        let mut units = Vec::new();
        for group in groups {
            let member_traces = group
                .iter()
                .map(|&g| traces[g].take().expect("split yields one trace per device"))
                .collect();
            units.push(BatchUnit::Cohort(Box::new(CohortSim::new(
                &members[group[0]],
                group,
                member_traces,
                &fault_plan,
                config,
            )?)));
        }
        let mut pool: Option<SharedPool> = None;
        // Every trace still here belongs to a member on the dynamic path.
        for (index, trace) in traces.into_iter().enumerate() {
            let Some(trace) = trace else { continue };
            let member = &members[index];
            let pm = build_policy(member, Some(&trace), &mut pool)?;
            let mut sim = Simulator::new(
                member.power.clone(),
                member.service,
                Box::new(trace),
                pm,
                member_config(config, index),
            )?;
            sim.set_fault_schedule(fault_plan.device(index).to_vec());
            units.push(BatchUnit::Dynamic {
                index,
                sim: Box::new(sim),
            });
        }
        Ok(FleetSim {
            devices: members.len(),
            inner: FleetInner::Preplanned {
                units,
                labels: members.iter().map(|m| m.label.clone()).collect(),
                n_states: members
                    .iter()
                    .map(|m| m.power.n_states())
                    .max()
                    .unwrap_or(0),
            },
            horizon: config.horizon,
            has_shared: pool.is_some(),
            aggregate_arrivals,
        })
    }

    /// Number of devices.
    #[must_use]
    pub fn len(&self) -> usize {
        self.devices
    }

    /// Whether the fleet has no devices (never true for a constructed
    /// fleet).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.devices == 0
    }

    /// Total arrivals the dispatcher assigned across the horizon — by the
    /// partition property, exactly the aggregate stream's arrivals (the
    /// conservation tests compare this against the summed per-device
    /// [`RunStats::arrivals`]).
    #[must_use]
    pub fn dispatched_arrivals(&self) -> u64 {
        self.aggregate_arrivals
    }

    /// Whether this fleet dispatches online (live routing at every
    /// aggregate arrival event) rather than from a precomputed split.
    #[must_use]
    pub fn is_online(&self) -> bool {
        matches!(self.inner, FleetInner::Online { .. })
    }

    /// Whether this fleet pools experience in a shared Q-table (and will
    /// therefore run serially at any requested thread count).
    #[must_use]
    pub fn has_shared_table(&self) -> bool {
        self.has_shared
    }

    /// Number of homogeneous cohorts running on the batched path (0 for
    /// online fleets, event-skip fleets, fleets built with
    /// [`FleetConfig::batch_cohorts`] off, or fleets with no group of ≥ 2
    /// identical batchable members).
    #[must_use]
    pub fn batched_cohorts(&self) -> usize {
        match &self.inner {
            FleetInner::Preplanned { units, .. } => units
                .iter()
                .filter(|u| matches!(u, BatchUnit::Cohort(_)))
                .count(),
            FleetInner::Online { .. } => 0,
        }
    }

    /// Runs every device for the dispatch horizon on up to `threads`
    /// workers and aggregates the fleet statistics. Results are identical
    /// at any thread count; fleets with a shared Q-table run serially
    /// (see the module notes on determinism).
    #[must_use]
    pub fn run(self, threads: usize) -> FleetReport {
        let threads = if self.has_shared { 1 } else { threads };
        let horizon = self.horizon;
        let devices = self.devices;
        match self.inner {
            FleetInner::Preplanned {
                mut units,
                labels,
                n_states,
            } => {
                run_indexed_mut(&mut units, threads, |_, unit| match unit {
                    BatchUnit::Dynamic { sim, .. } => {
                        sim.run(horizon);
                    }
                    BatchUnit::Cohort(cohort) => cohort.run(horizon),
                });
                // Scatter every member's results back into global device
                // order; the units partition the fleet, so every slot is
                // written exactly once.
                let mut per_device = vec![RunStats::new(); devices];
                let mut final_modes =
                    vec![DeviceMode::Operational(PowerStateId::from_index(0)); devices];
                let mut fault_stats = vec![FaultStats::default(); devices];
                let mut deadline_stats = vec![DeadlineStats::default(); devices];
                let mut scatter = |index: usize, core: &DeviceCore| {
                    per_device[index] = core.stats.clone();
                    final_modes[index] = core.state.mode;
                    fault_stats[index] = core.fault_stats;
                    deadline_stats[index] = core.deadline_stats;
                };
                for unit in &units {
                    match unit {
                        BatchUnit::Dynamic { index, sim } => scatter(*index, sim.core()),
                        BatchUnit::Cohort(cohort) => {
                            for (index, core) in cohort.members() {
                                scatter(index, core);
                            }
                        }
                    }
                }
                let mut stats = FleetStats::aggregate(&per_device, &final_modes, n_states);
                stats.availability = AvailabilityStats::from_device_stats(&fault_stats);
                for d in &deadline_stats {
                    stats.deadline.merge(d);
                }
                FleetReport {
                    labels,
                    per_device,
                    final_modes,
                    stats,
                }
            }
            FleetInner::Online { mut rack, events } => {
                drive_rack(&mut rack, &events, horizon, threads);
                rack.report().fleet
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdpm_device::presets;
    use qdpm_workload::WorkloadSpec;

    fn bernoulli(p: f64) -> ScenarioWorkload {
        ScenarioWorkload::Stationary(WorkloadSpec::bernoulli(p).unwrap())
    }

    fn uniform_fleet(n: usize, policy: FleetPolicy) -> Vec<FleetMember> {
        (0..n)
            .map(|i| FleetMember {
                label: format!("dev-{i}"),
                power: presets::three_state_generic(),
                service: presets::default_service(),
                policy: policy.clone(),
            })
            .collect()
    }

    #[test]
    fn empty_fleet_rejected() {
        let err = FleetSim::new(&[], &bernoulli(0.1), &FleetConfig::default()).unwrap_err();
        assert!(matches!(err, SimError::BadConfig(_)));
    }

    #[test]
    fn fleet_runs_all_devices_for_the_horizon() {
        let members = uniform_fleet(5, FleetPolicy::BreakEvenTimeout);
        let config = FleetConfig {
            horizon: 3_000,
            ..FleetConfig::default()
        };
        let report = FleetSim::new(&members, &bernoulli(0.2), &config)
            .unwrap()
            .run(2);
        assert_eq!(report.per_device.len(), 5);
        assert!(report.per_device.iter().all(|s| s.steps == 3_000));
        assert_eq!(report.stats.total.steps, 5 * 3_000);
        assert_eq!(report.labels[3], "dev-3");
    }

    #[test]
    fn fleet_total_arrivals_match_dispatched() {
        let members = uniform_fleet(4, FleetPolicy::GreedyOff);
        let config = FleetConfig {
            horizon: 5_000,
            dispatch: DispatchPolicy::LeastLoaded,
            ..FleetConfig::default()
        };
        let fleet = FleetSim::new(&members, &bernoulli(0.35), &config).unwrap();
        let dispatched = fleet.dispatched_arrivals();
        assert!(dispatched > 0);
        let report = fleet.run(1);
        assert_eq!(report.stats.total.arrivals, dispatched);
    }

    #[test]
    fn fleet_is_thread_count_invariant() {
        let members = uniform_fleet(7, FleetPolicy::frozen_q_dpm());
        let config = FleetConfig {
            horizon: 2_000,
            ..FleetConfig::default()
        };
        let build = || FleetSim::new(&members, &bernoulli(0.3), &config).unwrap();
        let serial = build().run(1);
        for threads in [2, 4, 8] {
            assert_eq!(serial, build().run(threads), "threads={threads}");
        }
    }

    #[test]
    fn shared_table_fleet_pools_experience_and_forces_serial() {
        let members = uniform_fleet(3, FleetPolicy::frozen_shared_q_dpm());
        let config = FleetConfig {
            horizon: 2_000,
            ..FleetConfig::default()
        };
        let fleet = FleetSim::new(&members, &bernoulli(0.3), &config).unwrap();
        assert!(fleet.has_shared_table());
        // Requesting many threads must still be deterministic (serial).
        let a = FleetSim::new(&members, &bernoulli(0.3), &config)
            .unwrap()
            .run(8);
        let b = fleet.run(1);
        assert_eq!(a, b);
    }

    #[test]
    fn shared_table_dimension_mismatch_is_rejected() {
        let mut members = uniform_fleet(2, FleetPolicy::frozen_shared_q_dpm());
        members[1].power = presets::ibm_hdd(); // 4 states vs 3
        let err = FleetSim::new(&members, &bernoulli(0.1), &FleetConfig::default()).unwrap_err();
        assert!(matches!(err, SimError::BadConfig(_)));
    }

    #[test]
    fn shared_table_config_mismatch_is_rejected() {
        let mut members = uniform_fleet(2, FleetPolicy::frozen_shared_q_dpm());
        members[1].policy = FleetPolicy::SharedQDpm(QDpmConfig::default());
        let err = FleetSim::new(&members, &bernoulli(0.1), &FleetConfig::default()).unwrap_err();
        assert!(matches!(err, SimError::BadConfig(_)));
    }

    #[test]
    fn mixed_fleet_builds_every_policy_kind() {
        let policies = FleetPolicy::all_exact();
        assert!(policies.len() >= 9, "conformance gate needs >= 9 policies");
        let members: Vec<FleetMember> = policies
            .iter()
            .enumerate()
            .map(|(i, policy)| FleetMember {
                label: format!("{}-{i}", policy.name()),
                power: presets::three_state_generic(),
                service: presets::default_service(),
                policy: policy.clone(),
            })
            .collect();
        let config = FleetConfig {
            horizon: 1_000,
            ..FleetConfig::default()
        };
        let report = FleetSim::new(&members, &bernoulli(0.4), &config)
            .unwrap()
            .run(2);
        assert_eq!(report.per_device.len(), policies.len());
    }

    #[test]
    fn fleet_stats_percentiles_and_occupancy() {
        let mk = |energy: f64| {
            let mut s = RunStats::new();
            s.steps = 10;
            s.total_energy = energy;
            s
        };
        let per_device: Vec<RunStats> = (1..=10).map(|i| mk(i as f64)).collect();
        let active = presets::three_state_generic().highest_power_state();
        let modes: Vec<DeviceMode> = (0..10)
            .map(|i| {
                if i < 5 {
                    DeviceMode::Operational(active)
                } else {
                    DeviceMode::Transitioning {
                        from: active,
                        to: active,
                        remaining: 1,
                    }
                }
            })
            .collect();
        let stats = FleetStats::aggregate(&per_device, &modes, 3);
        assert_eq!(stats.devices, 10);
        assert!((stats.total.total_energy - 55.0).abs() < 1e-12);
        assert!((stats.mean_energy - 5.5).abs() < 1e-12);
        assert_eq!(stats.energy_p50, 5.0);
        assert_eq!(stats.energy_p90, 9.0);
        assert_eq!(stats.energy_p99, 10.0);
        assert!((stats.mode_occupancy[active.index()] - 0.5).abs() < 1e-12);
        assert!((stats.transitioning - 0.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_nearest_rank_edges() {
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 0.0), 7.0);
        assert_eq!(percentile(&[7.0], 100.0), 7.0);
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.0);
        assert_eq!(percentile(&[1.0, 2.0], 51.0), 2.0);
        // Exact domain boundaries are valid, not off-by-one.
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 0.0), 1.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 100.0), 3.0);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "outside [0, 100]"))]
    fn percentile_rejects_out_of_domain_p() {
        // Debug builds assert; release builds clamp to the domain edges
        // instead of indexing past the sample.
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 250.0), 3.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], -10.0), 1.0);
    }

    #[test]
    fn online_fleet_matches_preplanned_for_state_blind_dispatch() {
        let members = uniform_fleet(5, FleetPolicy::BreakEvenTimeout);
        for dispatch in DispatchPolicy::state_blind() {
            let config = FleetConfig {
                horizon: 3_000,
                dispatch,
                ..FleetConfig::default()
            };
            let preplanned = FleetSim::new(&members, &bernoulli(0.3), &config).unwrap();
            assert!(!preplanned.is_online());
            let online = FleetSim::new(
                &members,
                &bernoulli(0.3),
                &FleetConfig {
                    force_online: true,
                    ..config
                },
            )
            .unwrap();
            assert!(online.is_online());
            assert_eq!(
                preplanned.dispatched_arrivals(),
                online.dispatched_arrivals()
            );
            assert_eq!(
                preplanned.run(2),
                online.run(2),
                "dispatch={}",
                dispatch.name()
            );
        }
    }

    #[test]
    fn state_aware_dispatch_runs_online_and_conserves_arrivals() {
        let members = uniform_fleet(4, FleetPolicy::BreakEvenTimeout);
        for dispatch in DispatchPolicy::state_aware() {
            let config = FleetConfig {
                horizon: 4_000,
                dispatch,
                ..FleetConfig::default()
            };
            let fleet = FleetSim::new(&members, &bernoulli(0.4), &config).unwrap();
            assert!(fleet.is_online());
            let dispatched = fleet.dispatched_arrivals();
            assert!(dispatched > 0);
            let report = fleet.run(2);
            assert_eq!(report.stats.total.arrivals, dispatched);
            assert_eq!(report.stats.total.steps, 4 * 4_000);
        }
    }

    #[test]
    fn online_fleet_rejects_oracle_members() {
        let members = uniform_fleet(3, FleetPolicy::Oracle);
        let config = FleetConfig {
            horizon: 500,
            dispatch: DispatchPolicy::JoinShortestQueue,
            ..FleetConfig::default()
        };
        let err = FleetSim::new(&members, &bernoulli(0.2), &config).unwrap_err();
        assert!(matches!(err, SimError::BadConfig(_)));
    }

    #[test]
    fn sleep_aware_dispatch_concentrates_load_unlike_round_robin() {
        // A light aggregate load on a large fleet: round-robin spreads
        // arrivals evenly, while sleep-aware routing consolidates them
        // onto the awake subset (sleepers are skipped once they doze off).
        let members = uniform_fleet(8, FleetPolicy::FixedTimeout(20));
        let run = |dispatch| {
            let config = FleetConfig {
                horizon: 5_000,
                dispatch,
                ..FleetConfig::default()
            };
            FleetSim::new(&members, &bernoulli(0.2), &config)
                .unwrap()
                .run(2)
        };
        let rr = run(DispatchPolicy::RoundRobin);
        let sa = run(DispatchPolicy::SleepAware { spill: 4 });
        let hottest = |r: &FleetReport| r.per_device.iter().map(|s| s.arrivals).max().unwrap();
        assert!(
            hottest(&sa) > 2 * hottest(&rr),
            "sa={} rr={}",
            hottest(&sa),
            hottest(&rr)
        );
        assert_eq!(sa.stats.total.arrivals, rr.stats.total.arrivals);
    }
}

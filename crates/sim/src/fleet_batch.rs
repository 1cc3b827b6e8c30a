//! Batched execution of homogeneous fleet cohorts.
//!
//! A fleet of thousands of *identical* devices (same [`PowerModel`], same
//! [`qdpm_device::ServiceModel`], same [`FleetPolicy`]) pays the dynamic
//! path's per-device overheads — a [`crate::Simulator`] with its boxed
//! workload per device, and for Q-DPM one boxed agent per device —
//! thousands of times per slice for code that is byte-for-byte the same.
//! A `CohortSim` holds one shared model, one `DeviceCore` per member
//! stepped by the same slice kernel the simulator uses, each member's
//! dispatched [`SparseTrace`], and one policy resolved at construction:
//! a striped [`BatchLearner`] for Q-DPM cohorts, or the stateless
//! heuristic itself, shared by every member. The run loop is device-major
//! — each member's whole stretch runs before the next starts, so its
//! kernel, trace, and table stripe stay cache-hot — which is sound
//! because cohort devices never interact within a slice.
//!
//! # Exactness contract
//!
//! A cohort run is **bit-exact** against the dynamic path: each member's
//! kernel is seeded exactly as its simulator would be, with the same
//! fault schedule and deadline tagging, and steps the same arrivals from
//! the same [`qdpm_workload::WorkloadDispatcher::split`]. The fleet,
//! fault, and DVFS conformance suites pin batched ≡ dynamic to equal f64
//! bits, faults and deadlines included.
//!
//! Cohorts run only under [`crate::EngineMode::PerSlice`]: an event-skip
//! cohort would need the striped Q-DPM policy to make the exact quiescent
//! stay-run commitment the per-device agent makes.

use rand::rngs::StdRng;

use qdpm_core::{
    BatchLearner, DpmStateEncoder, Observation, PowerManager, QDpmConfig, RewardWeights,
    StepOutcome,
};
use qdpm_device::{LegalActionTable, PowerModel, PowerStateId, Step};
use qdpm_workload::{FaultPlan, SparseTrace};

use crate::fleet::{build_policy, member_config, FleetConfig, FleetMember, FleetPolicy};
use crate::kernel::{BatchPolicy, DeviceCore};
use crate::SimError;

/// Whether a fleet policy can run on the batched cohort path.
///
/// Batchable policies are exactly those whose per-slice behaviour is a
/// pure function of the device's own observation and RNG stream:
/// [`FleetPolicy::AlwaysOn`], [`FleetPolicy::GreedyOff`],
/// [`FleetPolicy::BreakEvenTimeout`], [`FleetPolicy::FixedTimeout`], and
/// [`FleetPolicy::QDpm`] (per-device tables, striped in a
/// [`BatchLearner`]). The rest stay on the dynamic path:
/// [`FleetPolicy::AdaptiveTimeout`] and the oracles carry per-device
/// controller state one shared policy instance cannot hold, and
/// [`FleetPolicy::QosQDpm`] / [`FleetPolicy::SharedQDpm`] learn through
/// machinery (Lagrange multiplier, shared table) that is not per-device.
#[must_use]
pub fn is_batchable(policy: &FleetPolicy) -> bool {
    matches!(
        policy,
        FleetPolicy::AlwaysOn
            | FleetPolicy::GreedyOff
            | FleetPolicy::BreakEvenTimeout
            | FleetPolicy::FixedTimeout(_)
            | FleetPolicy::QDpm(_)
    )
}

/// Partitions a member list into batched cohorts: maximal groups of ≥ 2
/// devices agreeing on power model, service model, and (batchable)
/// policy, each listed in ascending global device order. Singletons and
/// non-batchable members are left for the dynamic path.
#[must_use]
pub(crate) fn group_cohorts(members: &[FleetMember]) -> Vec<Vec<usize>> {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut reps: Vec<usize> = Vec::new();
    for (index, member) in members.iter().enumerate() {
        if !is_batchable(&member.policy) {
            continue;
        }
        match reps.iter().position(|&r| {
            let rep = &members[r];
            rep.power == member.power
                && rep.service == member.service
                && rep.policy == member.policy
        }) {
            Some(g) => groups[g].push(index),
            None => {
                reps.push(index);
                groups.push(vec![index]);
            }
        }
    }
    groups.retain(|g| g.len() >= 2);
    groups
}

/// The cohort's Q-DPM brain: one striped [`BatchLearner`] plus the shared
/// encoder and legal-action table — the batched counterpart of N
/// [`qdpm_core::QDpmAgent`]s.
#[derive(Debug)]
struct QDpmBatch {
    learner: BatchLearner,
    encoder: DpmStateEncoder,
    legal: LegalActionTable,
    /// The agent-side reward weights (from the member's [`QDpmConfig`],
    /// which may differ from the fleet's metrics weights).
    weights: RewardWeights,
    /// `(state, action)` of the in-flight decide, slice-local: every
    /// decide is answered by an observe within the same slice.
    pending: (usize, usize),
    /// Encoded state carried from the previous slice's `next_obs` to the
    /// next `decide`. Nothing moves the device between `observe(t)` and
    /// `decide(t + 1)` unless a down slice intervenes, and the kernel
    /// resyncs the policy then, so re-encoding would be pure waste.
    cached_s: Option<usize>,
}

impl QDpmBatch {
    fn new(power: &PowerModel, config: &QDpmConfig, n_devices: usize) -> Result<Self, SimError> {
        let encoder = config.encoder_for(power)?;
        let learner = BatchLearner::new(
            n_devices,
            encoder.n_states(),
            power.n_states(),
            config.discount,
            config.learning_rate,
            config.exploration,
        )?;
        Ok(QDpmBatch {
            learner,
            encoder,
            legal: LegalActionTable::new(power),
            weights: config.weights,
            pending: (0, 0),
            cached_s: None,
        })
    }
}

impl BatchPolicy for QDpmBatch {
    #[inline]
    fn resync(&mut self, _device: usize) {
        self.cached_s = None;
    }

    #[inline]
    fn decide(&mut self, device: usize, obs: &Observation, rng: &mut StdRng) -> PowerStateId {
        let s = match self.cached_s {
            Some(s) => s,
            None => self.encoder.encode(obs),
        };
        let a = self
            .learner
            .select_action(device, s, self.legal.legal(obs.device_mode), rng);
        self.pending = (s, a);
        PowerStateId::from_index(a)
    }

    #[inline]
    fn observe(&mut self, device: usize, outcome: &StepOutcome, next_obs: &Observation) {
        let (s, a) = self.pending;
        let reward = self.weights.reward(outcome);
        let next_s = self.encoder.encode(next_obs);
        self.learner.update(
            device,
            s,
            a,
            reward,
            next_s,
            self.legal.legal(next_obs.device_mode),
        );
        self.cached_s = Some(next_s);
    }
}

/// The policy of a cohort, resolved once at construction.
#[derive(Debug)]
enum CohortPolicy {
    /// A stateless heuristic, one instance shared by every member.
    Shared(Box<dyn PowerManager>),
    /// Per-device Q-DPM tables, striped.
    QDpm(Box<QDpmBatch>),
}

/// Steps every member through `horizon` slices, device-major.
fn run_members<P: BatchPolicy + ?Sized>(
    model: &PowerModel,
    cores: &mut [DeviceCore],
    traces: &mut [SparseTrace],
    policy: &mut P,
    horizon: Step,
) {
    for (device, (core, trace)) in cores.iter_mut().zip(traces).enumerate() {
        policy.resync(device);
        for _ in 0..horizon {
            core.step(model, policy, device, trace.next_count());
        }
    }
}

/// A homogeneous cohort of a fleet, ready to run batched. Built by
/// [`crate::FleetSim`] for every group of ≥ 2 identical batchable members
/// (see [`is_batchable`]); results are bit-exact against running the same
/// members on the dynamic per-device path.
#[derive(Debug)]
pub(crate) struct CohortSim {
    model: PowerModel,
    policy: CohortPolicy,
    /// Global device indices of the members, ascending (member `i` is
    /// global device `global_indices[i]`).
    global_indices: Vec<usize>,
    cores: Vec<DeviceCore>,
    traces: Vec<SparseTrace>,
}

impl CohortSim {
    /// Assembles a cohort from its representative `member` (all members of
    /// a cohort are equal by construction), the members' global device
    /// indices, their dispatched traces (aligned with the indices), and
    /// the fleet's fault plan.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for a non-batchable policy, a zero queue
    /// capacity, or invalid learner parameters.
    pub(crate) fn new(
        member: &FleetMember,
        global_indices: Vec<usize>,
        traces: Vec<SparseTrace>,
        faults: &FaultPlan,
        config: &FleetConfig,
    ) -> Result<Self, SimError> {
        let policy = match &member.policy {
            FleetPolicy::QDpm(agent_config) => CohortPolicy::QDpm(Box::new(QDpmBatch::new(
                &member.power,
                agent_config,
                global_indices.len(),
            )?)),
            other if is_batchable(other) => {
                CohortPolicy::Shared(build_policy(member, None, &mut None)?)
            }
            other => {
                return Err(SimError::BadConfig(format!(
                    "policy {} cannot run batched",
                    other.name()
                )))
            }
        };
        let cores = global_indices
            .iter()
            .map(|&g| {
                let mut core =
                    DeviceCore::new(&member.power, member.service, &member_config(config, g))?;
                core.set_fault_schedule(faults.device(g).to_vec());
                Ok(core)
            })
            .collect::<Result<_, SimError>>()?;
        Ok(CohortSim {
            model: member.power.clone(),
            policy,
            global_indices,
            cores,
            traces,
        })
    }

    /// Steps every member through `horizon` slices. Stretches compose: a
    /// second call continues where the first stopped, like
    /// [`crate::Simulator::run`].
    pub(crate) fn run(&mut self, horizon: Step) {
        let (model, cores, traces) = (&self.model, &mut self.cores, &mut self.traces);
        match &mut self.policy {
            CohortPolicy::Shared(p) => run_members(model, cores, traces, p.as_mut(), horizon),
            CohortPolicy::QDpm(p) => run_members(model, cores, traces, p.as_mut(), horizon),
        }
    }

    /// `(global index, kernel)` of every member, ascending.
    pub(crate) fn members(&self) -> impl Iterator<Item = (usize, &DeviceCore)> {
        self.global_indices.iter().copied().zip(&self.cores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{FleetReport, FleetSim};
    use crate::parallel::ScenarioWorkload;
    use qdpm_core::{Exploration, QDpmConfig};
    use qdpm_device::presets;
    use qdpm_workload::{DispatchPolicy, WorkloadSpec};
    use rand::SeedableRng;

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

    fn run_both(members: &[FleetMember], config: &FleetConfig) -> (FleetReport, FleetReport) {
        let workload = bernoulli(0.3);
        let batched = FleetSim::new(members, &workload, config).unwrap();
        assert!(batched.batched_cohorts() > 0, "cohorts expected");
        let dynamic = FleetSim::new(
            members,
            &workload,
            &FleetConfig {
                batch_cohorts: false,
                ..config.clone()
            },
        )
        .unwrap();
        assert_eq!(dynamic.batched_cohorts(), 0);
        (batched.run(2), dynamic.run(2))
    }

    #[test]
    fn batchable_policies_are_the_documented_set() {
        assert!(is_batchable(&FleetPolicy::AlwaysOn));
        assert!(is_batchable(&FleetPolicy::GreedyOff));
        assert!(is_batchable(&FleetPolicy::BreakEvenTimeout));
        assert!(is_batchable(&FleetPolicy::FixedTimeout(3)));
        assert!(is_batchable(&FleetPolicy::frozen_q_dpm()));
        assert!(!is_batchable(&FleetPolicy::AdaptiveTimeout));
        assert!(!is_batchable(&FleetPolicy::Oracle));
        assert!(!is_batchable(&FleetPolicy::OraclePrewake));
        assert!(!is_batchable(&FleetPolicy::frozen_qos_q_dpm()));
        assert!(!is_batchable(&FleetPolicy::frozen_shared_q_dpm()));
    }

    #[test]
    fn grouping_is_by_exact_model_service_policy_equality() {
        let mut members = uniform_fleet(6, FleetPolicy::GreedyOff);
        members[2].power = presets::ibm_hdd();
        members[4].policy = FleetPolicy::AdaptiveTimeout; // not batchable
        members[5].service = qdpm_device::ServiceModel::deterministic(2).unwrap();
        let groups = group_cohorts(&members);
        assert_eq!(groups, vec![vec![0, 1, 3]]);
    }

    #[test]
    fn singletons_stay_dynamic() {
        let mut members = uniform_fleet(3, FleetPolicy::GreedyOff);
        members[1].policy = FleetPolicy::AlwaysOn;
        members[2].policy = FleetPolicy::FixedTimeout(4);
        assert!(group_cohorts(&members).is_empty());
    }

    #[test]
    fn batched_matches_dynamic_for_heuristic_cohorts() {
        for policy in [
            FleetPolicy::AlwaysOn,
            FleetPolicy::GreedyOff,
            FleetPolicy::BreakEvenTimeout,
            FleetPolicy::FixedTimeout(5),
        ] {
            let members = uniform_fleet(6, policy.clone());
            let config = FleetConfig {
                horizon: 2_500,
                dispatch: DispatchPolicy::LeastLoaded,
                ..FleetConfig::default()
            };
            let (batched, dynamic) = run_both(&members, &config);
            assert_eq!(batched, dynamic, "{}", policy.name());
        }
    }

    #[test]
    fn batched_matches_dynamic_for_training_q_dpm() {
        // Full exploration schedule (epsilon > 0): the batched learner
        // must consume the per-device policy streams identically.
        let members = uniform_fleet(5, FleetPolicy::QDpm(QDpmConfig::default()));
        let config = FleetConfig {
            horizon: 3_000,
            ..FleetConfig::default()
        };
        let (batched, dynamic) = run_both(&members, &config);
        assert_eq!(batched, dynamic);
    }

    #[test]
    fn batched_matches_dynamic_for_boltzmann_q_dpm() {
        let members = uniform_fleet(
            4,
            FleetPolicy::QDpm(QDpmConfig {
                exploration: Exploration::Boltzmann { temperature: 0.6 },
                ..QDpmConfig::default()
            }),
        );
        let config = FleetConfig {
            horizon: 1_500,
            ..FleetConfig::default()
        };
        let (batched, dynamic) = run_both(&members, &config);
        assert_eq!(batched, dynamic);
    }

    #[test]
    fn mixed_fleet_splits_cohorts_and_dynamic_and_matches() {
        // Two cohorts (greedy-off x3, q-dpm x2), one adaptive singleton,
        // one oracle (dynamic-only), one odd device model.
        let mut members = uniform_fleet(8, FleetPolicy::GreedyOff);
        members[1].policy = FleetPolicy::frozen_q_dpm();
        members[3].policy = FleetPolicy::frozen_q_dpm();
        members[4].policy = FleetPolicy::AdaptiveTimeout;
        members[5].policy = FleetPolicy::Oracle;
        members[6].power = presets::ibm_hdd();
        let config = FleetConfig {
            horizon: 2_000,
            dispatch: DispatchPolicy::RoundRobin,
            ..FleetConfig::default()
        };
        let workload = bernoulli(0.4);
        let batched = FleetSim::new(&members, &workload, &config).unwrap();
        assert_eq!(batched.batched_cohorts(), 2);
        let dynamic = FleetSim::new(
            &members,
            &workload,
            &FleetConfig {
                batch_cohorts: false,
                ..config
            },
        )
        .unwrap();
        assert_eq!(batched.run(3), dynamic.run(1));
    }

    #[test]
    fn deterministic_service_progress_is_tracked_per_device() {
        let mut members = uniform_fleet(4, FleetPolicy::AlwaysOn);
        for m in &mut members {
            m.service = qdpm_device::ServiceModel::deterministic(3).unwrap();
        }
        let config = FleetConfig {
            horizon: 2_000,
            ..FleetConfig::default()
        };
        let (batched, dynamic) = run_both(&members, &config);
        assert_eq!(batched, dynamic);
    }

    #[test]
    fn cohort_rejects_non_batchable_policy() {
        let member = FleetMember {
            label: "x".to_string(),
            power: presets::three_state_generic(),
            service: presets::default_service(),
            policy: FleetPolicy::AdaptiveTimeout,
        };
        let traces = vec![SparseTrace::new(vec![], 100).unwrap(); 2];
        let err = CohortSim::new(
            &member,
            vec![0, 1],
            traces,
            &FaultPlan::empty(2),
            &FleetConfig::default(),
        );
        assert!(matches!(err, Err(SimError::BadConfig(_))));
    }

    #[test]
    fn stretch_runs_compose_like_the_dynamic_path() {
        let members = uniform_fleet(4, FleetPolicy::frozen_q_dpm());
        let workload = bernoulli(0.3);
        let config = FleetConfig {
            horizon: 2_000,
            ..FleetConfig::default()
        };
        // One shot...
        let whole = FleetSim::new(&members, &workload, &config).unwrap().run(1);
        // ...equals two stretches driven through CohortSim::run directly
        // (FleetSim::run runs the horizon in one call).
        let groups = group_cohorts(&members);
        assert_eq!(groups, vec![vec![0, 1, 2, 3]]);
        let mut gen = workload.build().unwrap();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let traces = qdpm_workload::WorkloadDispatcher::new(config.dispatch, members.len())
            .unwrap()
            .split(gen.as_mut(), &mut rng, config.horizon);
        let mut cohort = CohortSim::new(
            &members[0],
            groups[0].clone(),
            traces,
            &FaultPlan::empty(4),
            &config,
        )
        .unwrap();
        cohort.run(800);
        cohort.run(1_200);
        for (g, core) in cohort.members() {
            assert_eq!(core.stats, whole.per_device[g], "device {g}");
            assert_eq!(core.state.mode, whole.final_modes[g]);
        }
    }
}

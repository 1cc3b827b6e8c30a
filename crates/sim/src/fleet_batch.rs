//! Batched execution of homogeneous fleet cohorts.
//!
//! A fleet of thousands of *identical* devices (same [`PowerModel`], same
//! [`qdpm_device::ServiceModel`], same [`FleetPolicy`]) pays the dynamic
//! path's per-device overheads — a [`crate::Simulator`] with its own model
//! clone, its boxed workload and its boxed power manager per device —
//! thousands of times per slice for code that is byte-for-byte the same.
//! A `CohortSim` holds one shared model, one `DeviceCore` per member
//! stepped by the same slice kernel the simulator uses, each member's
//! dispatched [`SparseTrace`], and one power manager per member, built
//! the way the dynamic path builds it: a concrete [`QDpmAgent`] for
//! Q-DPM cohorts, so the kernel's `decide` and `observe` are statically
//! dispatched, and the dynamic path's boxed manager for every other
//! batchable policy. The run loop is device-major — each member's whole
//! stretch runs before the next starts, so its kernel, trace and agent
//! stay cache-hot — which is sound because cohort devices never interact
//! within a slice.
//!
//! # Exactness contract
//!
//! A cohort run is **bit-exact** against the dynamic path: each member's
//! kernel is seeded exactly as its simulator would be, with the same
//! fault schedule and deadline tagging, steps the same arrivals from the
//! same [`qdpm_workload::WorkloadDispatcher::split`], and consults a
//! manager built from the same member spec and trace. The fleet, fault,
//! and DVFS conformance suites pin batched ≡ dynamic to equal f64 bits,
//! faults and deadlines included.
//!
//! Cohorts run only under [`crate::EngineMode::PerSlice`]: the event-skip
//! loop lives in the simulator, not the kernel.

use qdpm_core::{PowerManager, QDpmAgent};
use qdpm_device::{PowerModel, Step};
use qdpm_workload::{FaultPlan, SparseTrace};

use crate::fleet::{build_policy, member_config, FleetConfig, FleetMember, FleetPolicy};
use crate::kernel::DeviceCore;
use crate::SimError;

/// Whether a fleet policy can run on the batched cohort path: every
/// policy but [`FleetPolicy::SharedQDpm`]. Each cohort member gets its own
/// manager, so a member's behaviour depends only on its own observations,
/// trace and RNG stream. Shared members instead update one table, in
/// device order on the dynamic path; a device-major cohort would reorder
/// those updates whenever shared members of two cohorts interleave.
#[must_use]
pub fn is_batchable(policy: &FleetPolicy) -> bool {
    !matches!(policy, FleetPolicy::SharedQDpm(_))
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

/// The members' power managers, aligned with the cohort's members.
#[derive(Debug)]
enum Managers {
    /// Q-DPM members, concrete: the kernel calls the agent statically.
    QDpm(Vec<QDpmAgent>),
    /// Every other batchable policy.
    Boxed(Vec<Box<dyn PowerManager>>),
}

/// Steps every member through `horizon` slices, device-major.
fn run_members<'a, P: PowerManager + ?Sized + 'a>(
    model: &PowerModel,
    cores: &mut [DeviceCore],
    traces: &mut [SparseTrace],
    managers: impl Iterator<Item = &'a mut P>,
    horizon: Step,
) {
    for ((core, trace), pm) in cores.iter_mut().zip(traces).zip(managers) {
        for _ in 0..horizon {
            core.step(model, pm, trace.next_count());
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
    managers: Managers,
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
        let managers = match &member.policy {
            FleetPolicy::QDpm(agent_config) => Managers::QDpm(
                traces
                    .iter()
                    .map(|_| QDpmAgent::new(&member.power, agent_config.clone()))
                    .collect::<Result<_, _>>()?,
            ),
            other if is_batchable(other) => Managers::Boxed(
                traces
                    .iter()
                    .map(|trace| build_policy(member, Some(trace), &mut None))
                    .collect::<Result<_, _>>()?,
            ),
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
            managers,
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
        match &mut self.managers {
            Managers::QDpm(agents) => run_members(model, cores, traces, agents.iter_mut(), horizon),
            Managers::Boxed(boxed) => run_members(
                model,
                cores,
                traces,
                boxed.iter_mut().map(Box::as_mut),
                horizon,
            ),
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
    use rand::rngs::StdRng;
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
        assert!(is_batchable(&FleetPolicy::AdaptiveTimeout));
        assert!(is_batchable(&FleetPolicy::Oracle));
        assert!(is_batchable(&FleetPolicy::OraclePrewake));
        assert!(is_batchable(&FleetPolicy::ChaosMonkey));
        assert!(is_batchable(&FleetPolicy::frozen_qos_q_dpm()));
        assert!(!is_batchable(&FleetPolicy::frozen_shared_q_dpm()));
    }

    #[test]
    fn grouping_is_by_exact_model_service_policy_equality() {
        let mut members = uniform_fleet(6, FleetPolicy::GreedyOff);
        members[2].power = presets::ibm_hdd();
        members[4].policy = FleetPolicy::frozen_shared_q_dpm(); // not batchable
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
            FleetPolicy::AdaptiveTimeout,
            FleetPolicy::Oracle,
            FleetPolicy::OraclePrewake,
            FleetPolicy::frozen_qos_q_dpm(),
            FleetPolicy::ChaosMonkey,
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
        // Two cohorts (greedy-off x3, q-dpm x2), adaptive and oracle
        // singletons, one odd device model.
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
    fn shared_table_members_match_with_batching_on_and_off() {
        // Shared members update one table, in device order on the dynamic
        // path. Two interleaved templates run as device-major cohorts
        // would reorder those updates.
        let mut members = uniform_fleet(4, FleetPolicy::SharedQDpm(QDpmConfig::default()));
        for m in members.iter_mut().skip(1).step_by(2) {
            m.service = qdpm_device::ServiceModel::deterministic(2).unwrap();
        }
        let config = FleetConfig {
            horizon: 2_000,
            ..FleetConfig::default()
        };
        let workload = bernoulli(0.3);
        let batched = FleetSim::new(&members, &workload, &config).unwrap();
        let dynamic = FleetSim::new(
            &members,
            &workload,
            &FleetConfig {
                batch_cohorts: false,
                ..config
            },
        )
        .unwrap();
        assert_eq!(batched.run(1), dynamic.run(1));
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
            policy: FleetPolicy::frozen_shared_q_dpm(),
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

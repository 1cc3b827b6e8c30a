//! DVFS joint-action conformance suite.
//!
//! Fleets of `three-state-dvfs` devices — the joint sleep-state ×
//! operating-point machine (`active@slow` / `active@nominal` /
//! `active@turbo` / `idle` / `sleep`) — with deadline-tagged workloads
//! must be *exactly* engine- and thread-invariant: `EngineMode::PerSlice`
//! at one thread and `EngineMode::EventSkip` at N threads produce
//! bit-identical [`FleetReport`]s, including the [`DeadlineStats`]
//! ledger. The frequency-scaled service law and the deadline side stream
//! (`splitmix64` on a per-device counter that only advances on arrival
//! slices) are both designed to preserve this invariant; this suite pins
//! it under randomness-free-commitment policies, every dispatcher, and
//! random fleet shapes.
//!
//! The deadline ledger's conservation law is asserted on every run:
//!
//! ```text
//! tagged == met + missed + dropped + requeued + lost + in_queue
//! ```
//!
//! with `tagged == arrivals`, `met + missed == completed` and
//! `dropped == RunStats::dropped` on fault-free fleets.
//!
//! A single-simulator section pins the checkpoint contract: a mid-run
//! save/load with deadlines enabled resumes bit-identically (ledger,
//! waiting deadlines and draw counter all travel in the payload), and
//! deadline draws are a pure function of `(seed, counter)` — reruns of
//! an identical configuration reproduce the identical ledger.

use proptest::prelude::*;
use qdpm_core::{StateReader, StateWriter};
use qdpm_device::presets;
use qdpm_sim::fleet::{FleetConfig, FleetMember, FleetPolicy, FleetReport, FleetSim};
use qdpm_sim::{EngineMode, ScenarioWorkload, SimConfig, Simulator};
use qdpm_workload::{DeadlineSpec, DeadlineStats, DispatchPolicy, WorkloadSpec};

/// A homogeneous-dimension DVFS fleet: every member runs the five-state
/// `three-state-dvfs` machine, with the engine-exact policies cycled
/// from `policy_offset`. Homogeneous dimensions keep `SharedQDpm`
/// members legal without special-casing (all tables agree on the joint
/// action space).
fn dvfs_members(size: usize, policy_offset: usize) -> Vec<FleetMember> {
    let policies = FleetPolicy::all_exact();
    (0..size)
        .map(|i| FleetMember {
            label: format!("dvfs-{i}"),
            power: presets::three_state_dvfs(),
            service: presets::default_service(),
            policy: policies[(policy_offset + i) % policies.len()].clone(),
        })
        .collect()
}

fn aggregate_workload(kind: usize, rate: f64) -> ScenarioWorkload {
    match kind {
        0 => ScenarioWorkload::Stationary(WorkloadSpec::bernoulli(rate).unwrap()),
        1 => ScenarioWorkload::Stationary(
            WorkloadSpec::two_mode_mmpp(rate * 0.2, (rate * 4.0).min(0.9), 0.01).unwrap(),
        ),
        _ => ScenarioWorkload::Piecewise(vec![
            (700, WorkloadSpec::bernoulli(rate).unwrap()),
            (500, WorkloadSpec::bernoulli((rate * 3.0).min(0.9)).unwrap()),
        ]),
    }
}

fn dispatcher(id: usize) -> DispatchPolicy {
    DispatchPolicy::all()[id % DispatchPolicy::all().len()]
}

fn deadline_spec(kind: usize) -> DeadlineSpec {
    match kind {
        0 => DeadlineSpec::fixed(6).unwrap(),
        _ => DeadlineSpec::uniform(3, 20).unwrap(),
    }
}

#[allow(clippy::too_many_arguments)]
fn run_dvfs_fleet(
    members: &[FleetMember],
    workload: &ScenarioWorkload,
    dispatch: DispatchPolicy,
    mode: EngineMode,
    horizon: u64,
    seed: u64,
    threads: usize,
    deadline: Option<DeadlineSpec>,
) -> FleetReport {
    FleetSim::new(
        members,
        workload,
        &FleetConfig {
            seed,
            engine_mode: mode,
            dispatch,
            horizon,
            deadline,
            ..FleetConfig::default()
        },
    )
    .expect("dvfs fleet builds")
    .run(threads)
}

/// The ledger conservation law on a fault-free fleet report: every
/// tagged arrival is in exactly one terminal bucket or still waiting.
fn assert_deadline_conservation(report: &FleetReport) {
    let d = &report.stats.deadline;
    let total = &report.stats.total;
    assert_eq!(d.tagged, total.arrivals, "every arrival is tagged");
    assert_eq!(d.met + d.missed, total.completed, "completions classified");
    assert_eq!(d.dropped, total.dropped, "admission drops agree");
    assert_eq!(d.requeued, 0, "no retry coordinator in plain fleets");
    assert_eq!(d.lost, 0, "no crashes in fault-free fleets");
    let in_queue = total.arrivals - total.completed - total.dropped;
    assert_eq!(
        d.tagged,
        d.settled() + in_queue,
        "tagged == met + missed + dropped + requeued + lost + in_queue"
    );
}

/// The joint machine itself: five states, named as the expansion
/// promises, with the nominal point reproducing the base active power.
#[test]
fn dvfs_preset_exposes_the_joint_state_space() {
    let model = presets::by_name("three-state-dvfs").expect("registered preset");
    assert_eq!(model.n_states(), 5);
    let base = presets::three_state_generic();
    // The expansion appends operating points for the serving state and
    // keeps the non-serving states; nominal matches base active power.
    let names: Vec<&str> = (0..model.n_states())
        .map(|i| {
            model
                .state(qdpm_device::PowerStateId::from_index(i))
                .name
                .as_str()
        })
        .collect();
    assert!(names.contains(&"active@slow"));
    assert!(names.contains(&"active@nominal"));
    assert!(names.contains(&"active@turbo"));
    assert!(names.contains(&"idle"));
    assert!(names.contains(&"sleep"));
    let nominal = (0..model.n_states())
        .map(qdpm_device::PowerStateId::from_index)
        .find(|&s| model.state(s).name == "active@nominal")
        .unwrap();
    let base_active = (0..base.n_states())
        .map(qdpm_device::PowerStateId::from_index)
        .find(|&s| base.state(s).name == "active")
        .unwrap();
    assert_eq!(
        model.state(nominal).power.to_bits(),
        base.state(base_active).power.to_bits()
    );
    assert_eq!(model.state(nominal).freq, 1.0);
}

/// Pinned sweep: one DVFS fleet per state-blind dispatcher (the
/// population that supports clairvoyant oracle members), deadlines on —
/// the two engines and 1-vs-4 threads agree on the full report, and the
/// ledger conserves.
#[test]
fn dvfs_deadline_fleet_event_skip_exact_per_dispatcher() {
    let members = dvfs_members(6, 0);
    let workload = aggregate_workload(0, 0.3);
    let deadline = Some(DeadlineSpec::uniform(4, 16).unwrap());
    for id in 0..3 {
        let dispatch = dispatcher(id);
        let per = run_dvfs_fleet(
            &members,
            &workload,
            dispatch,
            EngineMode::PerSlice,
            1_800,
            7,
            1,
            deadline,
        );
        let skip = run_dvfs_fleet(
            &members,
            &workload,
            dispatch,
            EngineMode::EventSkip,
            1_800,
            7,
            4,
            deadline,
        );
        assert_eq!(per.stats, skip.stats, "dispatcher {id}");
        assert_eq!(per.per_device, skip.per_device, "dispatcher {id}");
        assert_eq!(per.final_modes, skip.final_modes, "dispatcher {id}");
        assert!(per.stats.deadline.tagged > 0, "workload actually tagged");
        assert_deadline_conservation(&per);
        assert_deadline_conservation(&skip);
    }
}

/// Deadline-tagged homogeneous DVFS fleets batch into cohorts, and the
/// batched run equals the dynamic per-device run to the f64 bit — the full
/// `FleetReport`, the merged deadline ledger included — at 1 and 2
/// threads.
#[test]
fn tagged_dvfs_cohorts_match_the_dynamic_path() {
    let workload = aggregate_workload(2, 0.35);
    let deadline = Some(DeadlineSpec::uniform(3, 20).unwrap());
    for policy in [
        FleetPolicy::QDpm(qdpm_core::QDpmConfig::default()),
        FleetPolicy::frozen_q_dpm(),
        FleetPolicy::BreakEvenTimeout,
    ] {
        let members: Vec<FleetMember> = (0..6)
            .map(|i| FleetMember {
                label: format!("dvfs-{i}"),
                power: presets::three_state_dvfs(),
                service: presets::default_service(),
                policy: policy.clone(),
            })
            .collect();
        let config = |batch_cohorts| FleetConfig {
            seed: 23,
            horizon: 1_500,
            dispatch: DispatchPolicy::RoundRobin,
            deadline,
            batch_cohorts,
            ..FleetConfig::default()
        };
        let name = policy.name();
        let dynamic = FleetSim::new(&members, &workload, &config(false))
            .unwrap()
            .run(1);
        let d = &dynamic.stats.deadline;
        assert!(
            d.met > 0 && d.missed > 0,
            "{name}: deadlines both met and missed"
        );
        for threads in [1, 2] {
            let fleet = FleetSim::new(&members, &workload, &config(true)).unwrap();
            assert!(fleet.batched_cohorts() > 0, "{name}: tagged members batch");
            let batched = fleet.run(threads);
            assert_eq!(batched, dynamic, "{name} at {threads} threads");
            for (b, d) in batched.per_device.iter().zip(&dynamic.per_device) {
                assert_eq!(b.total_energy.to_bits(), d.total_energy.to_bits(), "{name}");
                assert_eq!(b.total_cost.to_bits(), d.total_cost.to_bits(), "{name}");
            }
            assert_deadline_conservation(&batched);
        }
    }
}

/// Deadline draws are a pure function of `(seed, counter)`: rerunning an
/// identical DVFS+deadline configuration reproduces the identical
/// ledger, and changing only the master seed changes the draws (the side
/// stream is live, not constant).
#[test]
fn deadline_ledger_is_deterministic_and_seed_sensitive() {
    let build = |seed: u64| {
        let power = presets::three_state_dvfs();
        let pm = qdpm_core::QDpmAgent::new(&power, qdpm_core::QDpmConfig::default()).unwrap();
        let mut sim = Simulator::new(
            power,
            presets::default_service(),
            WorkloadSpec::bernoulli(0.35).unwrap().build(),
            Box::new(pm),
            SimConfig {
                seed,
                deadline: Some(DeadlineSpec::uniform(2, 30).unwrap()),
                ..SimConfig::default()
            },
        )
        .unwrap();
        sim.run(2_000);
        sim
    };
    let a = build(11);
    let b = build(11);
    assert_eq!(a.deadline_stats(), b.deadline_stats());
    assert_eq!(a.stats(), b.stats());
    assert!(a.deadline_stats().tagged > 0);
    assert!(a.deadline_stats().met + a.deadline_stats().missed > 0);
    // A different master seed shifts the side stream with everything else.
    let c = build(12);
    assert_ne!(a.deadline_stats(), c.deadline_stats());
}

/// A checkpoint taken mid-run with deadlines enabled restores the
/// waiting requests' deadlines, the draw counter and the ledger: the
/// resumed simulator continues bit-identically in both engine modes.
#[test]
fn save_load_resumes_bit_identically_with_deadlines() {
    for mode in [EngineMode::PerSlice, EngineMode::EventSkip] {
        let build = || {
            let power = presets::three_state_dvfs();
            let pm = qdpm_core::QDpmAgent::new(&power, qdpm_core::QDpmConfig::default()).unwrap();
            Simulator::new(
                power,
                presets::default_service(),
                WorkloadSpec::bernoulli(0.12).unwrap().build(),
                Box::new(pm),
                SimConfig {
                    seed: 29,
                    mode,
                    deadline: Some(DeadlineSpec::uniform(3, 12).unwrap()),
                    ..SimConfig::default()
                },
            )
            .unwrap()
        };
        let mut reference = build();
        let mut first = build();
        reference.run(1_500);
        first.run(1_500);
        let mut payload = StateWriter::new();
        first.save_state(&mut payload);
        let bytes = payload.into_bytes();
        let mut resumed = build();
        resumed.load_state(&mut StateReader::new(&bytes)).unwrap();
        assert_eq!(
            reference.run(1_500),
            resumed.run(1_500),
            "{mode:?}: resumed stretch diverged"
        );
        assert_eq!(
            reference.deadline_stats(),
            resumed.deadline_stats(),
            "{mode:?}: deadline ledger diverged after resume"
        );
        assert_eq!(
            reference.stats().total_energy.to_bits(),
            resumed.stats().total_energy.to_bits(),
            "{mode:?}: energy must match to the bit"
        );
        let d = reference.deadline_stats();
        assert!(d.tagged > 0, "{mode:?}: workload actually tagged");
        assert_eq!(
            d.tagged,
            reference.stats().arrivals,
            "{mode:?}: every arrival tagged"
        );
    }
}

/// Deadline-free DVFS fleets at the nominal-only frequency law are
/// still engine-exact — the frequency scaling itself (turbo completes
/// faster in expectation, slow slower) cannot break conformance.
#[test]
fn dvfs_fleet_without_deadlines_stays_engine_exact() {
    let members = dvfs_members(5, 3);
    let workload = aggregate_workload(2, 0.25);
    let per = run_dvfs_fleet(
        &members,
        &workload,
        dispatcher(1),
        EngineMode::PerSlice,
        1_200,
        3,
        1,
        None,
    );
    let skip = run_dvfs_fleet(
        &members,
        &workload,
        dispatcher(1),
        EngineMode::EventSkip,
        1_200,
        3,
        4,
        None,
    );
    assert_eq!(per.stats, skip.stats);
    assert_eq!(per.per_device, skip.per_device);
    assert_eq!(per.final_modes, skip.final_modes);
    assert_eq!(per.stats.deadline, DeadlineStats::default());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random DVFS fleets with deadline-tagged workloads: `PerSlice` and
    /// `EventSkip` agree exactly on the full `FleetReport` — including
    /// the merged `DeadlineStats` ledger — at any thread count, across
    /// every dispatcher and all ten exact policies, and the ledger
    /// conservation law holds in both engines.
    #[test]
    fn dvfs_deadline_fleets_are_engine_and_thread_exact(
        size in 1usize..10,
        policy_offset in 0usize..10,
        dispatch_id in 0usize..3,
        workload_kind in 0usize..3,
        rate in 0.05f64..0.6,
        horizon in 300u64..2_000,
        seed in 0u64..10_000,
        threads in 1usize..5,
        deadline_kind in 0usize..2,
    ) {
        let members = dvfs_members(size, policy_offset);
        let workload = aggregate_workload(workload_kind, rate);
        let dispatch = dispatcher(dispatch_id);
        let deadline = Some(deadline_spec(deadline_kind));
        let per = run_dvfs_fleet(&members, &workload, dispatch,
                                 EngineMode::PerSlice, horizon, seed, 1, deadline);
        let skip = run_dvfs_fleet(&members, &workload, dispatch,
                                  EngineMode::EventSkip, horizon, seed, threads, deadline);
        prop_assert_eq!(&per.stats, &skip.stats);
        prop_assert_eq!(&per.per_device, &skip.per_device);
        prop_assert_eq!(&per.final_modes, &skip.final_modes);
        assert_deadline_conservation(&per);
        assert_deadline_conservation(&skip);
    }
}

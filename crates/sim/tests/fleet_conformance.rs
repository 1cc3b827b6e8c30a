//! Fleet-level cross-engine conformance and conservation suite.
//!
//! Mirrors `event_skip_equivalence.rs` one level up: a fleet built from
//! randomness-free-commitment policies must produce *exactly* equal
//! [`FleetStats`] (f64 totals bit-for-bit, via `PartialEq`) under
//! `EngineMode::PerSlice` and `EngineMode::EventSkip`, because every
//! per-device workload is a dispatched [`qdpm_workload::SparseTrace`]
//! whose gap sampler consumes no randomness. A property test sweeps
//! random fleets — mixed device presets, all ten [`FleetPolicy`] kinds,
//! every dispatcher — and pinned cases cover each dispatcher explicitly.
//!
//! The same suite pins the fleet conservation laws:
//!
//! * **partition** — the dispatcher assigns every aggregate arrival to
//!   exactly one device (fleet arrivals == dispatched == an independent
//!   re-draw of the aggregate stream);
//! * **fold** — `FleetStats::total` equals the left fold of the
//!   per-device `RunStats` in device order, bit-for-bit.
//!
//! The *online* dispatch loop is gated here too: every dispatcher
//! (state-blind and state-aware) run online must be engine-exact and
//! thread-count-invariant, a state-blind dispatcher run online must
//! reproduce its precomputed split bit-for-bit, and a power-capped
//! [`RackCoordinator`] must satisfy the cap conservation law — summed
//! rack draw `<= cap + CAP_EPS` in *every* slice of randomized racks —
//! while staying engine-exact itself.
//!
//! Batched cohort execution is the third execution
//! axis under test: fleets with repeated member templates must produce
//! identical [`FleetReport`]s with cohort batching on (the default) and
//! off, at 1 and N threads, and agree with `EventSkip` (which never
//! batches) — so batched ≡ dynamic ≡ event-skip, bit-for-bit, across the
//! state-blind dispatchers. The cohort split itself is gated: every
//! device's stats show the full horizon (no member lost or duplicated
//! when the fleet splits into cohorts plus dynamic stragglers), and the
//! fleet totals remain the *device-order* fold of per-device stats no
//! matter how cohort boundaries regroup execution.

use proptest::prelude::*;
use qdpm_device::presets;
use qdpm_sim::fleet::{FleetConfig, FleetMember, FleetPolicy, FleetReport, FleetSim};
use qdpm_sim::hierarchy::{ClusterConfig, ClusterSim, RackCoordinator, RackSpec, CAP_EPS};
use qdpm_sim::{EngineMode, RunStats, ScenarioWorkload, SimConfig};
use qdpm_workload::{DispatchPolicy, WorkloadSpec};

/// The mixed-preset pool fleets draw from.
fn preset_pool() -> Vec<(String, qdpm_device::PowerModel)> {
    ["three-state-generic", "two-state", "ibm-hdd", "wlan-card"]
        .iter()
        .map(|name| {
            (
                (*name).to_string(),
                presets::by_name(name).expect("known preset"),
            )
        })
        .collect()
}

/// Builds a mixed fleet: device presets and exact policies cycled from
/// the given offsets. Shared-table members are pinned to the generic
/// three-state device so their table dimensions agree regardless of the
/// preset cycle.
fn mixed_members(size: usize, policy_offset: usize, preset_offset: usize) -> Vec<FleetMember> {
    let presets_pool = preset_pool();
    let policies = FleetPolicy::all_exact();
    (0..size)
        .map(|i| {
            let policy = policies[(policy_offset + i) % policies.len()].clone();
            let (label, power) = if matches!(policy, FleetPolicy::SharedQDpm(_)) {
                (
                    "three-state-generic".to_string(),
                    presets::three_state_generic(),
                )
            } else {
                presets_pool[(preset_offset + i) % presets_pool.len()].clone()
            };
            FleetMember {
                label: format!("{label}-{i}"),
                power,
                service: presets::default_service(),
                policy,
            }
        })
        .collect()
}

/// Like [`mixed_members`], but cycling only the online-safe exact
/// policies (no clairvoyant oracles) — the population for online-dispatch
/// and rack fleets, where no precomputed per-device trace exists.
fn mixed_online_members(
    size: usize,
    policy_offset: usize,
    preset_offset: usize,
) -> Vec<FleetMember> {
    let presets_pool = preset_pool();
    let policies = FleetPolicy::all_online_exact();
    (0..size)
        .map(|i| {
            let policy = policies[(policy_offset + i) % policies.len()].clone();
            let (label, power) = if matches!(policy, FleetPolicy::SharedQDpm(_)) {
                (
                    "three-state-generic".to_string(),
                    presets::three_state_generic(),
                )
            } else {
                presets_pool[(preset_offset + i) % presets_pool.len()].clone()
            };
            FleetMember {
                label: format!("{label}-{i}"),
                power,
                service: presets::default_service(),
                policy,
            }
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

fn run_fleet(
    members: &[FleetMember],
    workload: &ScenarioWorkload,
    dispatch: DispatchPolicy,
    mode: EngineMode,
    horizon: u64,
    seed: u64,
    threads: usize,
) -> FleetReport {
    FleetSim::new(
        members,
        workload,
        &FleetConfig {
            seed,
            engine_mode: mode,
            dispatch,
            horizon,
            ..FleetConfig::default()
        },
    )
    .expect("fleet builds")
    .run(threads)
}

/// Like [`run_fleet`] but on the online dispatch loop even for
/// state-blind dispatchers: the uncapped rack an online `FleetSim` builds.
fn run_online(
    members: &[FleetMember],
    workload: &ScenarioWorkload,
    dispatch: DispatchPolicy,
    mode: EngineMode,
    horizon: u64,
    seed: u64,
    threads: usize,
) -> FleetReport {
    let spec = RackSpec {
        label: "fleet".to_string(),
        members: members.to_vec(),
        power_cap: None,
    };
    let config = FleetConfig {
        seed,
        engine_mode: mode,
        dispatch,
        horizon,
        ..FleetConfig::default()
    };
    RackCoordinator::new(&spec, &config)
        .expect("online rack builds")
        .run(workload, threads)
        .expect("online rack runs")
        .fleet
}

/// Left fold of per-device stats in device order — the defined
/// aggregation `FleetStats::total` must match bit-for-bit.
fn manual_fold(per_device: &[RunStats]) -> RunStats {
    let mut total = RunStats::new();
    for stats in per_device {
        total.merge(stats);
    }
    total
}

fn assert_conservation(report: &FleetReport, dispatched: u64) {
    // Partition: no aggregate arrival lost or duplicated.
    assert_eq!(report.stats.total.arrivals, dispatched);
    // Fold: fleet totals are exactly the ordered fold of device stats.
    let fold = manual_fold(&report.per_device);
    assert_eq!(report.stats.total, fold);
    assert_eq!(
        report.stats.total.total_energy.to_bits(),
        fold.total_energy.to_bits()
    );
    assert_eq!(
        report.stats.total.total_cost.to_bits(),
        fold.total_cost.to_bits()
    );
}

/// Builds a fleet of `templates` member templates, each repeated
/// `repeat` times consecutively — the population for cohort-batching
/// tests, where repeated templates form homogeneous groups the batched
/// engine is expected to pick up.
fn templated_members(
    templates: usize,
    repeat: usize,
    policy_offset: usize,
    preset_offset: usize,
) -> Vec<FleetMember> {
    let presets_pool = preset_pool();
    let policies = FleetPolicy::all_exact();
    let mut members = Vec::with_capacity(templates * repeat);
    for t in 0..templates {
        let policy = policies[(policy_offset + t) % policies.len()].clone();
        let (label, power) = if matches!(policy, FleetPolicy::SharedQDpm(_)) {
            (
                "three-state-generic".to_string(),
                presets::three_state_generic(),
            )
        } else {
            presets_pool[(preset_offset + t) % presets_pool.len()].clone()
        };
        for r in 0..repeat {
            members.push(FleetMember {
                label: format!("{label}-{t}-{r}"),
                power: power.clone(),
                service: presets::default_service(),
                policy: policy.clone(),
            });
        }
    }
    members
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random mixed fleets: `PerSlice` and `EventSkip` agree exactly on
    /// the full `FleetStats` (totals bit-for-bit, percentiles, occupancy)
    /// across every dispatcher and all ten exact policies, at any thread
    /// count — and both satisfy the conservation laws.
    #[test]
    fn fleet_event_skip_is_exact_on_random_fleets(
        size in 1usize..14,
        policy_offset in 0usize..10,
        preset_offset in 0usize..4,
        dispatch_id in 0usize..3,
        workload_kind in 0usize..3,
        rate in 0.02f64..0.6,
        horizon in 300u64..2_500,
        seed in 0u64..10_000,
        threads in 1usize..5,
    ) {
        let members = mixed_members(size, policy_offset, preset_offset);
        let workload = aggregate_workload(workload_kind, rate);
        let dispatch = dispatcher(dispatch_id);
        let per = run_fleet(&members, &workload, dispatch, EngineMode::PerSlice,
                            horizon, seed, 1);
        let skip = run_fleet(&members, &workload, dispatch, EngineMode::EventSkip,
                             horizon, seed, threads);
        prop_assert_eq!(&per.stats, &skip.stats);
        prop_assert_eq!(&per.per_device, &skip.per_device);
        prop_assert_eq!(&per.final_modes, &skip.final_modes);

        let dispatched = FleetSim::new(&members, &workload, &FleetConfig {
            seed, dispatch, horizon, ..FleetConfig::default()
        }).unwrap().dispatched_arrivals();
        assert_conservation(&per, dispatched);
        assert_conservation(&skip, dispatched);
    }

    /// Random fleets with repeated member templates: the batched cohort
    /// engine (`batch_cohorts: true`, the default) reproduces the
    /// dynamic per-device path bit-for-bit — full `FleetReport` equality
    /// (per-device `RunStats`, final modes, aggregate `FleetStats`) — at
    /// 1 and N threads, and both agree exactly with `EventSkip` (which
    /// never batches), across every state-blind dispatcher.
    ///
    /// The cohort split is gated structurally in the same sweep: every
    /// device's stats carry the full horizon (no member lost or
    /// duplicated when the fleet regroups into cohorts plus dynamic
    /// stragglers), and conservation pins the fleet totals to the
    /// device-order fold regardless of cohort boundaries.
    #[test]
    fn batched_cohorts_equal_dynamic_on_random_fleets(
        templates in 1usize..4,
        repeat in 2usize..6,
        policy_offset in 0usize..10,
        preset_offset in 0usize..4,
        dispatch_id in 0usize..3,
        workload_kind in 0usize..3,
        rate in 0.02f64..0.6,
        horizon in 300u64..2_000,
        seed in 0u64..10_000,
        threads in 2usize..5,
    ) {
        let members = templated_members(templates, repeat, policy_offset, preset_offset);
        let workload = aggregate_workload(workload_kind, rate);
        let dispatch = dispatcher(dispatch_id);
        let config = |batch: bool, mode: EngineMode| FleetConfig {
            seed, dispatch, horizon, engine_mode: mode, batch_cohorts: batch,
            ..FleetConfig::default()
        };
        let build = |cfg: &FleetConfig| {
            FleetSim::new(&members, &workload, cfg).expect("fleet builds")
        };

        let batched_fleet = build(&config(true, EngineMode::PerSlice));
        let any_batchable = members.iter().any(|m| qdpm_sim::is_batchable(&m.policy));
        prop_assert_eq!(batched_fleet.batched_cohorts() > 0, any_batchable);
        let dispatched = batched_fleet.dispatched_arrivals();

        let batched_serial = batched_fleet.run(1);
        let batched_threaded = build(&config(true, EngineMode::PerSlice)).run(threads);
        let dynamic_fleet = build(&config(false, EngineMode::PerSlice));
        prop_assert_eq!(dynamic_fleet.batched_cohorts(), 0);
        prop_assert_eq!(dynamic_fleet.dispatched_arrivals(), dispatched);
        let dynamic = dynamic_fleet.run(1);
        let skip = build(&config(true, EngineMode::EventSkip)).run(threads);

        prop_assert_eq!(&batched_serial, &batched_threaded);
        prop_assert_eq!(&batched_serial, &dynamic);
        prop_assert_eq!(&batched_serial.stats, &skip.stats);
        prop_assert_eq!(&batched_serial.per_device, &skip.per_device);
        prop_assert_eq!(&batched_serial.final_modes, &skip.final_modes);

        // Cohort split structure: the report covers every member exactly
        // once, each with the full horizon of simulated slices.
        prop_assert_eq!(batched_serial.per_device.len(), members.len());
        for stats in &batched_serial.per_device {
            prop_assert_eq!(stats.steps, horizon);
        }
        assert_conservation(&batched_serial, dispatched);
    }

    /// Random fleets under the *online* dispatch loop, across every
    /// dispatcher (state-blind and state-aware): `PerSlice` and
    /// `EventSkip` agree exactly, results are thread-count-invariant,
    /// conservation holds, and a state-blind dispatcher run online
    /// reproduces its precomputed split bit-for-bit.
    #[test]
    fn online_dispatch_is_engine_and_thread_exact_on_random_fleets(
        size in 1usize..12,
        policy_offset in 0usize..8,
        preset_offset in 0usize..4,
        dispatch_id in 0usize..5,
        workload_kind in 0usize..3,
        rate in 0.02f64..0.6,
        horizon in 300u64..2_000,
        seed in 0u64..10_000,
        threads in 2usize..5,
    ) {
        let members = mixed_online_members(size, policy_offset, preset_offset);
        let workload = aggregate_workload(workload_kind, rate);
        let dispatch = DispatchPolicy::all()[dispatch_id % DispatchPolicy::all().len()];

        let reference = run_online(&members, &workload, dispatch,
                                   EngineMode::PerSlice, horizon, seed, 1);
        let per_threaded = run_online(&members, &workload, dispatch,
                                      EngineMode::PerSlice, horizon, seed, threads);
        let skip_serial = run_online(&members, &workload, dispatch,
                                     EngineMode::EventSkip, horizon, seed, 1);
        let skip_threaded = run_online(&members, &workload, dispatch,
                                       EngineMode::EventSkip, horizon, seed, threads);
        prop_assert_eq!(&reference, &per_threaded);
        prop_assert_eq!(&reference, &skip_serial);
        prop_assert_eq!(&reference, &skip_threaded);

        let dispatched = FleetSim::new(&members, &workload, &FleetConfig {
            seed, dispatch, horizon, ..FleetConfig::default()
        }).unwrap().dispatched_arrivals();
        assert_conservation(&reference, dispatched);

        if dispatch.is_state_blind() {
            let preplanned = run_fleet(&members, &workload, dispatch,
                                       EngineMode::PerSlice, horizon, seed, 1);
            prop_assert_eq!(&reference, &preplanned);
        }
    }

    /// Power-cap conservation on randomized capped racks: the summed rack
    /// draw stays `<= cap + CAP_EPS` in every single slice, arrivals are
    /// conserved, the per-slice probed run reproduces the segmented run,
    /// and capped racks stay engine-exact and thread-invariant.
    #[test]
    fn capped_rack_never_exceeds_cap_on_random_racks(
        size in 1usize..9,
        policy_offset in 0usize..8,
        preset_offset in 0usize..4,
        dispatch_id in 0usize..5,
        workload_kind in 0usize..3,
        rate in 0.05f64..0.6,
        headroom in 0.02f64..1.3,
        horizon in 300u64..1_500,
        seed in 0u64..10_000,
        threads in 2usize..5,
    ) {
        let members = mixed_online_members(size, policy_offset, preset_offset);
        let floor: f64 = members.iter()
            .map(|m| m.power.state(m.power.lowest_power_state()).power)
            .sum();
        let peak: f64 = members.iter()
            .map(|m| m.power.state(m.power.highest_power_state()).power)
            .sum();
        let cap = (floor + headroom * (peak - floor + 0.1)).max(0.05);
        let spec = RackSpec {
            label: "rack".to_string(),
            members,
            power_cap: Some(cap),
        };
        let workload = aggregate_workload(workload_kind, rate);
        let dispatch = DispatchPolicy::all()[dispatch_id % DispatchPolicy::all().len()];
        let config = |mode| FleetConfig {
            seed, dispatch, horizon, engine_mode: mode, ..FleetConfig::default()
        };

        let (probed, per_slice) = RackCoordinator::new(&spec, &config(EngineMode::PerSlice))
            .unwrap()
            .run_probed(&workload)
            .unwrap();
        prop_assert_eq!(per_slice.len() as u64, horizon);
        for (slice, &energy) in per_slice.iter().enumerate() {
            prop_assert!(
                energy <= cap + CAP_EPS,
                "slice {} draws {} > cap {}", slice, energy, cap
            );
        }
        // Conservation against an independent redraw of the aggregate:
        // shedding reroutes arrivals and vetoes only delay wakes — the
        // cap never loses a request at the routing layer.
        let direct: u64 = {
            use rand::SeedableRng;
            let mut gen = workload.build().unwrap();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            (0..horizon).map(|_| u64::from(gen.next_arrivals(&mut rng))).sum()
        };
        assert_conservation(&probed.fleet, direct);

        let segmented = RackCoordinator::new(&spec, &config(EngineMode::PerSlice))
            .unwrap()
            .run(&workload, threads)
            .unwrap();
        prop_assert_eq!(&probed, &segmented);
        let skip = RackCoordinator::new(&spec, &config(EngineMode::EventSkip))
            .unwrap()
            .run(&workload, threads)
            .unwrap();
        prop_assert_eq!(&probed, &skip);
    }
}

/// Pinned exact case per state-blind dispatcher: a 10-device fleet
/// carrying every exact policy kind exactly once (including the
/// clairvoyant oracles, which need the precomputed split), on a bursty
/// MMPP aggregate. This is the acceptance gate's canonical scenario:
/// at least 9 policies x all state-blind dispatchers, `PerSlice` ==
/// `EventSkip` exactly.
#[test]
fn fleet_event_skip_pinned_all_policies_all_dispatchers() {
    let policies = FleetPolicy::all_exact();
    assert!(policies.len() >= 9, "gate requires >= 9 policies");
    let members = mixed_members(policies.len(), 0, 0);
    let workload = aggregate_workload(1, 0.3);
    for dispatch in DispatchPolicy::state_blind() {
        let per = run_fleet(
            &members,
            &workload,
            dispatch,
            EngineMode::PerSlice,
            6_000,
            17,
            1,
        );
        let skip = run_fleet(
            &members,
            &workload,
            dispatch,
            EngineMode::EventSkip,
            6_000,
            17,
            4,
        );
        assert_eq!(per.stats, skip.stats, "{}", dispatch.name());
        assert_eq!(per.per_device, skip.per_device, "{}", dispatch.name());
    }
}

/// Pinned batched case: 12-device homogeneous Q-DPM fleets — the batched
/// engine's canonical workload — per state-blind dispatcher. The
/// *training* fleet (live epsilon-greedy exploration) pins batched ≡
/// dynamic with full report equality at 1 and 4 threads; the *frozen*
/// fleet (the exact policy) additionally pins both against `EventSkip`,
/// which never batches.
#[test]
fn batched_cohort_pinned_homogeneous_q_dpm_all_dispatchers() {
    let fleet_of = |policy: FleetPolicy| -> Vec<FleetMember> {
        (0..12)
            .map(|i| FleetMember {
                label: format!("qdpm-{i}"),
                power: presets::three_state_generic(),
                service: presets::default_service(),
                policy: policy.clone(),
            })
            .collect()
    };
    let workload = aggregate_workload(1, 0.35);
    for dispatch in DispatchPolicy::state_blind() {
        let config = |batch: bool, mode: EngineMode| FleetConfig {
            seed: 11,
            dispatch,
            horizon: 4_000,
            engine_mode: mode,
            batch_cohorts: batch,
            ..FleetConfig::default()
        };
        // Training fleet: batched ≡ dynamic under live exploration.
        let members = fleet_of(FleetPolicy::QDpm(qdpm_core::QDpmConfig::default()));
        let batched = FleetSim::new(&members, &workload, &config(true, EngineMode::PerSlice))
            .expect("fleet builds");
        assert_eq!(batched.batched_cohorts(), 1, "{}", dispatch.name());
        let batched = batched.run(1);
        let batched_threaded =
            FleetSim::new(&members, &workload, &config(true, EngineMode::PerSlice))
                .expect("fleet builds")
                .run(4);
        let dynamic = FleetSim::new(&members, &workload, &config(false, EngineMode::PerSlice))
            .expect("fleet builds")
            .run(4);
        assert_eq!(batched, batched_threaded, "{}", dispatch.name());
        assert_eq!(batched, dynamic, "{}", dispatch.name());

        // Frozen fleet: the exact policy, so event-skip joins the
        // three-way equality.
        let members = fleet_of(FleetPolicy::frozen_q_dpm());
        let batched = FleetSim::new(&members, &workload, &config(true, EngineMode::PerSlice))
            .expect("fleet builds")
            .run(1);
        let dynamic = FleetSim::new(&members, &workload, &config(false, EngineMode::PerSlice))
            .expect("fleet builds")
            .run(4);
        let skip = FleetSim::new(&members, &workload, &config(true, EngineMode::EventSkip))
            .expect("fleet builds")
            .run(4);
        assert_eq!(batched, dynamic, "frozen {}", dispatch.name());
        assert_eq!(batched.stats, skip.stats, "frozen {}", dispatch.name());
        assert_eq!(
            batched.per_device,
            skip.per_device,
            "frozen {}",
            dispatch.name()
        );
    }
}

/// Pinned online counterpart: every dispatcher (state-blind ones run on
/// the online loop, plus join-shortest-queue and sleep-aware) over a fleet cycling
/// every online-safe exact policy — `PerSlice` serial == `EventSkip`
/// threaded, bit-for-bit.
#[test]
fn fleet_online_pinned_all_policies_all_dispatchers() {
    let policies = FleetPolicy::all_online_exact();
    assert!(
        policies.len() >= 8,
        "gate requires >= 8 online-safe policies"
    );
    let members = mixed_online_members(policies.len(), 0, 0);
    let workload = aggregate_workload(1, 0.3);
    for dispatch in DispatchPolicy::all() {
        let per = run_online(
            &members,
            &workload,
            dispatch,
            EngineMode::PerSlice,
            6_000,
            17,
            1,
        );
        let skip = run_online(
            &members,
            &workload,
            dispatch,
            EngineMode::EventSkip,
            6_000,
            17,
            4,
        );
        assert_eq!(per.stats, skip.stats, "{}", dispatch.name());
        assert_eq!(per.per_device, skip.per_device, "{}", dispatch.name());
    }
}

/// A two-level cluster (racks under caps, rack-level dispatch) is
/// engine-exact and thread-count-invariant, and conserves the aggregate
/// stream across both dispatch levels.
#[test]
fn cluster_is_engine_exact_and_conserves_arrivals() {
    let rack = |n: usize, cap: Option<f64>, offset: usize| RackSpec {
        label: format!("rack-{offset}"),
        members: mixed_online_members(n, offset, offset),
        power_cap: cap,
    };
    let specs = vec![
        rack(3, Some(5.0), 0),
        rack(2, None, 2),
        rack(4, Some(6.0), 5),
    ];
    let workload = aggregate_workload(1, 0.5);
    let run = |mode, threads| {
        ClusterSim::new(
            &specs,
            &workload,
            &ClusterConfig {
                rack_dispatch: DispatchPolicy::JoinShortestQueue,
                fleet: FleetConfig {
                    seed: 29,
                    horizon: 3_000,
                    dispatch: DispatchPolicy::SleepAware { spill: 4 },
                    engine_mode: mode,
                    ..FleetConfig::default()
                },
            },
        )
        .unwrap()
        .run(threads)
    };
    let reference = run(EngineMode::PerSlice, 1);
    assert_eq!(reference, run(EngineMode::PerSlice, 4));
    assert_eq!(reference, run(EngineMode::EventSkip, 1));
    assert_eq!(reference, run(EngineMode::EventSkip, 4));

    let dispatched = ClusterSim::new(
        &specs,
        &workload,
        &ClusterConfig {
            rack_dispatch: DispatchPolicy::JoinShortestQueue,
            fleet: FleetConfig {
                seed: 29,
                horizon: 3_000,
                dispatch: DispatchPolicy::SleepAware { spill: 4 },
                ..FleetConfig::default()
            },
        },
    )
    .unwrap()
    .dispatched_arrivals();
    assert_eq!(reference.stats.total.arrivals, dispatched);
    for rack_report in &reference.racks {
        assert_conservation(&rack_report.fleet, rack_report.fleet.stats.total.arrivals);
    }
}

/// The fleet's per-device accounting is the single-device simulator's: a
/// one-member fleet reproduces a standalone `Simulator` run over the same
/// dispatched trace, stat for stat.
#[test]
fn one_member_fleet_matches_standalone_simulator() {
    let members = mixed_members(1, 2, 0); // break-even timeout on 3-state
    let workload = aggregate_workload(0, 0.25);
    let horizon = 4_000u64;
    let seed = 5u64;
    let report = run_fleet(
        &members,
        &workload,
        DispatchPolicy::RoundRobin,
        EngineMode::PerSlice,
        horizon,
        seed,
        1,
    );

    // Rebuild the identical dispatched trace by hand: with one device,
    // the dispatch is the aggregate stream itself.
    use rand::SeedableRng;
    let mut gen = workload.build().unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut dispatcher =
        qdpm_workload::WorkloadDispatcher::new(DispatchPolicy::RoundRobin, 1).unwrap();
    let trace = dispatcher.split(gen.as_mut(), &mut rng, horizon).remove(0);

    let power = presets::three_state_generic();
    let pm = qdpm_sim::policies::FixedTimeout::break_even(&power);
    let mut sim = qdpm_sim::Simulator::new(
        power,
        presets::default_service(),
        Box::new(trace),
        Box::new(pm),
        SimConfig {
            seed: qdpm_sim::derive_cell_seed(seed, 0),
            ..SimConfig::default()
        },
    )
    .unwrap();
    let standalone = sim.run(horizon);
    assert_eq!(report.per_device[0], standalone);
    assert_eq!(report.stats.total, standalone);
}

/// Conservation against an independent re-draw of the aggregate stream:
/// the dispatched total is exactly what the aggregate generator emits
/// over the horizon (the dispatcher invents and loses nothing), and the
/// fleet's simulated arrivals agree.
#[test]
fn fleet_arrivals_equal_independent_aggregate_redraw() {
    use rand::SeedableRng;
    let seed = 23u64;
    let horizon = 5_000u64;
    let workload = aggregate_workload(1, 0.4);
    for dispatch in DispatchPolicy::all() {
        // Oracle members need the precomputed split; online (state-aware)
        // dispatchers get the online-safe policy population instead.
        let members = if dispatch.is_state_blind() {
            mixed_members(6, 1, 1)
        } else {
            mixed_online_members(6, 1, 1)
        };
        let fleet = FleetSim::new(
            &members,
            &workload,
            &FleetConfig {
                seed,
                dispatch,
                horizon,
                ..FleetConfig::default()
            },
        )
        .unwrap();
        let dispatched = fleet.dispatched_arrivals();

        // Same seed, same spec: the aggregate stream re-drawn directly.
        let mut gen = workload.build().unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let direct: u64 = (0..horizon)
            .map(|_| u64::from(gen.next_arrivals(&mut rng)))
            .sum();
        assert_eq!(dispatched, direct, "{}", dispatch.name());

        let report = fleet.run(3);
        assert_eq!(report.stats.total.arrivals, direct, "{}", dispatch.name());
        assert_conservation(&report, direct);
    }
}

/// Shared-table fleets conform too: the serialized (forced single-thread)
/// execution is engine-exact, and pooling actually happened (the shared
/// members' devices all contributed updates to one table).
#[test]
fn shared_table_fleet_is_engine_exact() {
    let members: Vec<FleetMember> = (0..5)
        .map(|i| FleetMember {
            label: format!("shared-{i}"),
            power: presets::three_state_generic(),
            service: presets::default_service(),
            policy: FleetPolicy::frozen_shared_q_dpm(),
        })
        .collect();
    let workload = aggregate_workload(0, 0.3);
    let per = run_fleet(
        &members,
        &workload,
        DispatchPolicy::LeastLoaded,
        EngineMode::PerSlice,
        5_000,
        3,
        4,
    );
    let skip = run_fleet(
        &members,
        &workload,
        DispatchPolicy::LeastLoaded,
        EngineMode::EventSkip,
        5_000,
        3,
        4,
    );
    assert_eq!(per.stats, skip.stats);
    assert_eq!(per.per_device, skip.per_device);
}

//! Fault-injection conformance suite: the failure domain under the same
//! determinism contract as everything else.
//!
//! A fault-injected run must be **bit-exact** across `EngineMode::PerSlice`
//! and `EngineMode::EventSkip` and across thread counts, because the fault
//! plan is materialized ahead of simulation from seeded per-device
//! SplitMix64 streams and every coordinator reaction (harvest, retry,
//! budget refresh) happens at barrier slices derived from the plan alone.
//! Property tests sweep random fleets x fault plans x dispatchers over
//! the three execution shapes:
//!
//! * **preplanned fleets** — faulted members batch into cohorts like any
//!   others, batched ≡ dynamic, and the full [`FleetReport`] stays
//!   engine- and thread-exact;
//! * **online dispatch** — down devices are skipped by the state-aware
//!   dispatchers and redirected away from by the router, still exact;
//! * **capped racks** — the budget reclaims a down member's draw, the cap
//!   holds in every slice, and the retry pipeline's conservation law
//!   pins every stranded arrival to exactly one fate.
//!
//! Pinned edge cases cover the all-devices-down shed path (typed reason,
//! no panic), a crash landing mid-service (partial progress reset is
//! engine-exact), and retry backoff timing at 1 vs N threads.

use proptest::prelude::*;
use qdpm_core::QDpmConfig;
use qdpm_device::{presets, DeviceHealth, FaultEvent, FaultKind};
use qdpm_sim::fleet::{FleetConfig, FleetMember, FleetPolicy, FleetReport, FleetSim};
use qdpm_sim::hierarchy::{RackCoordinator, RackSpec, CAP_EPS};
use qdpm_sim::{policies, EngineMode, ScenarioWorkload, SimConfig, Simulator};
use qdpm_workload::{DispatchPolicy, FaultInjector, WorkloadSpec};

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

/// Builds a mixed fleet cycling the online-safe exact policies — the
/// population for every fault test (faults are a runtime perturbation, so
/// clairvoyant oracles are out of scope here).
fn mixed_members(size: usize, policy_offset: usize, preset_offset: usize) -> Vec<FleetMember> {
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

/// A lively injector: rates high enough that 1-2k-slice horizons reliably
/// see crashes, stragglers and the occasional fail-stop.
fn injector(
    crash_rate: f64,
    crash_down: u64,
    fail_stop_rate: f64,
    straggle_rate: f64,
    down_power: f64,
) -> FaultInjector {
    FaultInjector {
        crash_rate,
        crash_down,
        fail_stop_rate,
        straggle_rate,
        straggle_slowdown: 3,
        straggle_window: 120,
        down_power,
    }
}

fn fleet_config(
    faults: &FaultInjector,
    dispatch: DispatchPolicy,
    mode: EngineMode,
    horizon: u64,
    seed: u64,
) -> FleetConfig {
    FleetConfig {
        seed,
        engine_mode: mode,
        dispatch,
        horizon,
        faults: Some(faults.clone()),
        ..FleetConfig::default()
    }
}

#[allow(clippy::too_many_arguments)] // test helper mirroring FleetConfig knobs
fn run_fleet(
    members: &[FleetMember],
    workload: &ScenarioWorkload,
    faults: &FaultInjector,
    dispatch: DispatchPolicy,
    mode: EngineMode,
    horizon: u64,
    seed: u64,
    threads: usize,
) -> FleetReport {
    let config = fleet_config(faults, dispatch, mode, horizon, seed);
    FleetSim::new(members, workload, &config)
        .expect("fleet builds")
        .run(threads)
}

/// Like [`run_fleet`] but on the online dispatch loop even for
/// state-blind dispatchers: the uncapped rack an online `FleetSim` builds.
#[allow(clippy::too_many_arguments)] // test helper mirroring FleetConfig knobs
fn run_online(
    members: &[FleetMember],
    workload: &ScenarioWorkload,
    faults: &FaultInjector,
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
    let config = fleet_config(faults, dispatch, mode, horizon, seed);
    RackCoordinator::new(&spec, &config)
        .expect("online rack builds")
        .run(workload, threads)
        .expect("online rack runs")
        .fleet
}

/// Every stranded arrival has exactly one fate: re-dispatched, still
/// pending, or shed with the typed retry-exhausted reason.
fn assert_retry_conservation(report: &FleetReport) {
    let a = &report.stats.availability;
    assert_eq!(
        a.retries_enqueued,
        a.redispatched + a.retry_pending + a.shed_retry_exhausted,
        "retry pipeline lost or invented a stranded arrival"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Random preplanned fleets under random fault plans: `PerSlice` and
    /// `EventSkip` agree exactly on the full `FleetReport` (per-device
    /// stats, final modes, availability) at any thread count, and the
    /// availability section is structurally sound.
    #[test]
    fn faulted_fleet_is_engine_and_thread_exact(
        size in 1usize..10,
        policy_offset in 0usize..8,
        preset_offset in 0usize..4,
        dispatch_id in 0usize..3,
        workload_kind in 0usize..3,
        rate in 0.05f64..0.6,
        crash_rate in 0.0005f64..0.01,
        crash_down in 20u64..200,
        fail_stop_rate in 0.0f64..0.002,
        straggle_rate in 0.0f64..0.01,
        down_power in 0.0f64..0.3,
        horizon in 400u64..2_000,
        seed in 0u64..10_000,
        threads in 2usize..5,
    ) {
        let members = mixed_members(size, policy_offset, preset_offset);
        let workload = aggregate_workload(workload_kind, rate);
        let faults = injector(crash_rate, crash_down, fail_stop_rate, straggle_rate, down_power);
        let dispatch = DispatchPolicy::state_blind()[dispatch_id % DispatchPolicy::state_blind().len()];

        let reference = run_fleet(&members, &workload, &faults, dispatch,
                                  EngineMode::PerSlice, horizon, seed, 1);
        let threaded = run_fleet(&members, &workload, &faults, dispatch,
                                 EngineMode::PerSlice, horizon, seed, threads);
        let skip = run_fleet(&members, &workload, &faults, dispatch,
                             EngineMode::EventSkip, horizon, seed, threads);
        prop_assert_eq!(&reference, &threaded);
        prop_assert_eq!(&reference, &skip);

        let avail = &reference.stats.availability;
        prop_assert_eq!(avail.downtime_slices.len(), members.len());
        prop_assert!(avail.total_downtime() <= horizon * members.len() as u64);
        if avail.faults_injected == 0 {
            prop_assert_eq!(avail.total_downtime(), 0);
        }
        // Preplanned fleets have no retry coordinator: arrivals dispatched
        // to a down device queue up or are lost at the crash, never retried.
        prop_assert_eq!(avail.retries_enqueued, 0);
        for stats in &reference.per_device {
            prop_assert_eq!(stats.steps, horizon);
        }
    }

    /// Random fleets under the *online* dispatch loop with faults, across
    /// every dispatcher: engine-exact, thread-invariant, and the retry
    /// pipeline conserves every stranded arrival.
    #[test]
    fn faulted_online_dispatch_is_engine_and_thread_exact(
        size in 2usize..9,
        policy_offset in 0usize..8,
        preset_offset in 0usize..4,
        dispatch_id in 0usize..5,
        workload_kind in 0usize..3,
        rate in 0.05f64..0.6,
        crash_rate in 0.001f64..0.01,
        crash_down in 20u64..150,
        fail_stop_rate in 0.0f64..0.002,
        straggle_rate in 0.0f64..0.01,
        down_power in 0.0f64..0.3,
        horizon in 400u64..1_500,
        seed in 0u64..10_000,
        threads in 2usize..5,
    ) {
        let members = mixed_members(size, policy_offset, preset_offset);
        let workload = aggregate_workload(workload_kind, rate);
        let faults = injector(crash_rate, crash_down, fail_stop_rate, straggle_rate, down_power);
        let dispatch = DispatchPolicy::all()[dispatch_id % DispatchPolicy::all().len()];

        let reference = run_online(&members, &workload, &faults, dispatch,
                                   EngineMode::PerSlice, horizon, seed, 1);
        let per_threaded = run_online(&members, &workload, &faults, dispatch,
                                      EngineMode::PerSlice, horizon, seed, threads);
        let skip_serial = run_online(&members, &workload, &faults, dispatch,
                                     EngineMode::EventSkip, horizon, seed, 1);
        let skip_threaded = run_online(&members, &workload, &faults, dispatch,
                                       EngineMode::EventSkip, horizon, seed, threads);
        prop_assert_eq!(&reference, &per_threaded);
        prop_assert_eq!(&reference, &skip_serial);
        prop_assert_eq!(&reference, &skip_threaded);

        assert_retry_conservation(&reference);
        // Online arrival conservation under faults: every external arrival
        // either entered exactly one device queue, was shed because no
        // device was healthy, or is double-counted once per successful
        // re-dispatch after a harvest.
        let external = FleetSim::new(&members, &workload, &FleetConfig {
            seed, dispatch, horizon, ..FleetConfig::default()
        }).unwrap().dispatched_arrivals();
        let avail = &reference.stats.availability;
        prop_assert_eq!(
            reference.stats.total.arrivals,
            external - avail.shed_no_healthy + avail.redispatched
        );
    }

    /// Random capped racks under faults: the summed draw (including the
    /// fault-specified down power) stays `<= cap + CAP_EPS` in every
    /// slice, the probed per-slice run reproduces the segmented run, and
    /// capped faulted racks stay engine- and thread-exact.
    #[test]
    fn faulted_capped_rack_holds_cap_and_stays_exact(
        size in 2usize..7,
        policy_offset in 0usize..8,
        preset_offset in 0usize..4,
        dispatch_id in 0usize..5,
        workload_kind in 0usize..3,
        rate in 0.05f64..0.6,
        headroom in 0.05f64..1.2,
        crash_rate in 0.001f64..0.01,
        crash_down in 20u64..150,
        fail_stop_rate in 0.0f64..0.002,
        down_power in 0.0f64..0.2,
        horizon in 400u64..1_200,
        seed in 0u64..10_000,
        threads in 2usize..5,
    ) {
        let members = mixed_members(size, policy_offset, preset_offset);
        let floor: f64 = members.iter()
            .map(|m| m.power.state(m.power.lowest_power_state()).power)
            .sum();
        let peak: f64 = members.iter()
            .map(|m| m.power.state(m.power.highest_power_state()).power)
            .sum();
        // The cap law is only enforceable for *feasible* caps: a down
        // member's fault-specified draw is physics, not a command the
        // budget can refuse, so the worst-case forced draw — every member
        // down at `max(down_power, floor)` — is the hard lower bound on
        // any cap a controller could hold.
        let forced: f64 = members.iter()
            .map(|m| m.power.state(m.power.lowest_power_state()).power.max(down_power))
            .sum();
        let cap = (forced + headroom * (peak - floor + 0.1)).max(0.05);
        let spec = RackSpec {
            label: "rack".to_string(),
            members,
            power_cap: Some(cap),
        };
        let workload = aggregate_workload(workload_kind, rate);
        let dispatch = DispatchPolicy::all()[dispatch_id % DispatchPolicy::all().len()];
        let faults = injector(crash_rate, crash_down, fail_stop_rate, 0.0, down_power);
        let config = |mode| FleetConfig {
            seed, dispatch, horizon, engine_mode: mode,
            faults: Some(faults.clone()),
            ..FleetConfig::default()
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
        assert_retry_conservation(&probed.fleet);
        prop_assert_eq!(probed.health.len(), spec.members.len());

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

/// Homogeneous fleets under a fault plan batch into cohorts, and the
/// batched run equals the dynamic per-device run to the f64 bit — the full
/// `FleetReport`, availability included — at 1 and 2 threads.
#[test]
fn faulted_cohorts_match_the_dynamic_path() {
    let faults = injector(0.004, 80, 0.0002, 0.006, 0.05);
    let workload = aggregate_workload(2, 0.35);
    for policy in [
        FleetPolicy::QDpm(QDpmConfig::default()),
        FleetPolicy::frozen_q_dpm(),
        FleetPolicy::BreakEvenTimeout,
    ] {
        let members: Vec<FleetMember> = (0..6)
            .map(|i| FleetMember {
                label: format!("dev-{i}"),
                power: presets::three_state_generic(),
                service: presets::default_service(),
                policy: policy.clone(),
            })
            .collect();
        let config = |batch_cohorts| FleetConfig {
            seed: 17,
            horizon: 1_500,
            dispatch: DispatchPolicy::LeastLoaded,
            faults: Some(faults.clone()),
            batch_cohorts,
            ..FleetConfig::default()
        };
        let name = policy.name();
        let dynamic = FleetSim::new(&members, &workload, &config(false))
            .unwrap()
            .run(1);
        let avail = &dynamic.stats.availability;
        assert!(
            avail.faults_injected > 0 && avail.total_downtime() > 0,
            "{name}"
        );
        for threads in [1, 2] {
            let fleet = FleetSim::new(&members, &workload, &config(true)).unwrap();
            assert!(fleet.batched_cohorts() > 0, "{name}: faulted members batch");
            let batched = fleet.run(threads);
            assert_eq!(batched, dynamic, "{name} at {threads} threads");
            for (b, d) in batched.per_device.iter().zip(&dynamic.per_device) {
                assert_eq!(b.total_energy.to_bits(), d.total_energy.to_bits(), "{name}");
                assert_eq!(b.total_cost.to_bits(), d.total_cost.to_bits(), "{name}");
            }
        }
    }
}

/// Every device fail-stops at slice 1: the rack keeps routing without
/// panicking, sheds everything that arrives after the collapse with the
/// typed no-healthy-device reason, and reports every member down.
#[test]
fn all_devices_down_sheds_with_typed_reason() {
    let members = mixed_members(4, 0, 0);
    let spec = RackSpec {
        label: "doomed".to_string(),
        members,
        power_cap: None,
    };
    let workload = aggregate_workload(0, 0.5);
    let faults = FaultInjector {
        fail_stop_rate: 1.0,
        down_power: 0.02,
        ..FaultInjector::default()
    };
    let horizon = 800u64;
    let config = |mode| FleetConfig {
        seed: 91,
        dispatch: DispatchPolicy::JoinShortestQueue,
        horizon,
        engine_mode: mode,
        faults: Some(faults.clone()),
        ..FleetConfig::default()
    };

    let report = RackCoordinator::new(&spec, &config(EngineMode::PerSlice))
        .unwrap()
        .run(&workload, 1)
        .unwrap();
    let avail = &report.fleet.stats.availability;
    assert_eq!(avail.faults_injected, 4, "every member fail-stops");
    assert!(
        avail.shed_no_healthy > 0,
        "a 0.5-rate stream over {horizon} slices must shed after the collapse"
    );
    for (i, health) in report.health.iter().enumerate() {
        assert_eq!(*health, DeviceHealth::Down, "member {i} should stay down");
        assert_eq!(health.name(), "down");
    }
    // Fail-stop at slice 1 means each device is down from slice 1 onward.
    for &downtime in &avail.downtime_slices {
        assert_eq!(downtime, horizon - 1);
    }
    // Whatever was admitted in slice 0 plus the fleet's arrivals must all
    // be accounted: nothing vanishes even when the whole rack dies.
    assert_retry_conservation(&report.fleet);

    // The collapse is engine-exact too.
    let skip = RackCoordinator::new(&spec, &config(EngineMode::EventSkip))
        .unwrap()
        .run(&workload, 4)
        .unwrap();
    assert_eq!(report, skip);
}

/// A transient crash landing mid-service: the in-flight request's partial
/// progress is reset deterministically, downtime and queue-loss accounting
/// match the schedule, and both engine modes agree bit-for-bit.
#[test]
fn crash_mid_service_pins_partial_progress() {
    // A steady trace keeps the server busy, and a burst right before the
    // onset guarantees a backlog the crash can strand (geometric-0.6
    // service outruns the steady 1-in-3 stream on its own).
    let trace: Vec<u32> = (0..400)
        .map(|i| {
            if (50..60).contains(&i) {
                2
            } else {
                u32::from(i % 3 == 0)
            }
        })
        .collect();
    let schedule = vec![FaultEvent {
        at: 60,
        kind: FaultKind::TransientCrash {
            down_for: 45,
            down_power: 0.07,
        },
    }];
    let run = |mode: EngineMode| {
        let power = presets::three_state_generic();
        let pm = policies::FixedTimeout::break_even(&power);
        let mut sim = Simulator::new(
            power,
            presets::default_service(),
            WorkloadSpec::Trace {
                arrivals: trace.clone(),
            }
            .build(),
            Box::new(pm),
            SimConfig {
                seed: 7,
                mode,
                ..SimConfig::default()
            },
        )
        .unwrap();
        sim.set_fault_schedule(schedule.clone());
        let stats = sim.run(400);
        (stats, *sim.fault_stats(), sim.health())
    };

    let (per, per_faults, per_health) = run(EngineMode::PerSlice);
    let (skip, skip_faults, skip_health) = run(EngineMode::EventSkip);
    assert_eq!(per, skip, "crash mid-service must stay engine-exact");
    assert_eq!(per_faults, skip_faults);
    assert_eq!(per_health, skip_health);

    assert_eq!(per_faults.faults_injected, 1);
    assert_eq!(per_faults.downtime_slices, 45);
    assert_eq!(per_health, DeviceHealth::Healthy, "crash window expired");
    // The crash drains the queue: with arrivals every 3 slices against
    // this service rate the queue cannot be empty at slice 60.
    assert!(
        per_faults.queue_lost > 0,
        "slice-60 crash should strand queued work (lost {})",
        per_faults.queue_lost
    );
    // Lost requests are really lost: completions plus the end-of-run queue
    // can never cover all arrivals once the crash drops the backlog.
    assert!(per.completed < per.arrivals);

    // The same run without the fault completes strictly more work — the
    // partial-progress reset is observable, not just bookkeeping.
    let clean = {
        let power = presets::three_state_generic();
        let pm = policies::FixedTimeout::break_even(&power);
        let mut sim = Simulator::new(
            power,
            presets::default_service(),
            WorkloadSpec::Trace {
                arrivals: trace.clone(),
            }
            .build(),
            Box::new(pm),
            SimConfig {
                seed: 7,
                mode: EngineMode::PerSlice,
                ..SimConfig::default()
            },
        )
        .unwrap();
        sim.run(400)
    };
    assert!(clean.completed > per.completed);
}

/// Retry backoff timing is thread-invariant: a crashy uncapped rack whose
/// harvest/redispatch pipeline actually fires produces bit-identical
/// reports (including every retry counter) at 1 and 4 threads, in both
/// engine modes.
#[test]
fn retry_backoff_is_thread_invariant() {
    let members = mixed_members(5, 1, 1);
    let spec = RackSpec {
        label: "crashy".to_string(),
        members,
        power_cap: None,
    };
    let workload = aggregate_workload(2, 0.5);
    let faults = FaultInjector {
        crash_rate: 0.004,
        crash_down: 60,
        down_power: 0.05,
        ..FaultInjector::default()
    };
    let config = |mode| FleetConfig {
        seed: 4242,
        dispatch: DispatchPolicy::LeastLoaded,
        horizon: 1_200,
        engine_mode: mode,
        faults: Some(faults.clone()),
        ..FleetConfig::default()
    };

    let reference = RackCoordinator::new(&spec, &config(EngineMode::PerSlice))
        .unwrap()
        .run(&workload, 1)
        .unwrap();
    let avail = &reference.fleet.stats.availability;
    assert!(
        avail.retries_enqueued > 0,
        "this plan must strand work into the retry queue"
    );
    assert!(
        avail.redispatched > 0,
        "with 5 members some retries must find a healthy target"
    );
    assert_retry_conservation(&reference.fleet);

    for threads in [2usize, 4] {
        let threaded = RackCoordinator::new(&spec, &config(EngineMode::PerSlice))
            .unwrap()
            .run(&workload, threads)
            .unwrap();
        assert_eq!(reference, threaded, "{threads} threads diverged");
        let skip = RackCoordinator::new(&spec, &config(EngineMode::EventSkip))
            .unwrap()
            .run(&workload, threads)
            .unwrap();
        assert_eq!(reference, skip, "event-skip at {threads} threads diverged");
    }
}

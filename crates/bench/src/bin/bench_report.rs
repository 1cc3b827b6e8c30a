//! `bench_report` — records the repo's performance trajectory.
//!
//! Measures steady-state simulation throughput (slices per second) on
//! pinned scenarios — serial single-simulator runs per policy, a parallel
//! grid driven through `qdpm_sim::parallel::run_indexed`, the
//! event-skipping engine on a sparse workload, a 1000-device fleet
//! (`qdpm_sim::fleet`) timed serial vs parallel in both engine modes, a
//! per-dispatcher fleet sweep (all five `DispatchPolicy`s, precomputed
//! and online), a homogeneous training-Q-DPM cohort timed on the batched
//! cohort path against the dynamic per-device path
//! (`fleet.batched`), a joint DVFS + deadline scenario (the five-state
//! `three-state-dvfs` machine with deadline-tagged arrivals — the
//! frequency-scaled service law and per-slice deadline ledger on the hot
//! path), and a pinned power-capped cluster (`qdpm_sim::hierarchy`) with
//! per-rack rows — and writes the result to
//! `BENCH_throughput.json` at the workspace root (schema v6). Each run
//! also *appends* a compact point to the file's `trajectory` array,
//! carrying earlier points forward verbatim, so the committed file holds
//! the throughput trajectory itself, not just its latest point.
//!
//! Usage: `cargo run --release -p qdpm-bench --bin bench_report -- [--quick] [--threads N]`
//!
//! Flags: `--quick` shrinks the slice budgets for CI; `--threads N` pins
//! the parallel-grid worker count (default: host parallelism).

use std::time::{Instant, SystemTime, UNIX_EPOCH};

use qdpm_bench::{has_flag, standard_device, threads_from_args, workspace_root};
use qdpm_core::{
    Exploration, FuzzyConfig, FuzzyQDpmAgent, PowerManager, QDpmAgent, QDpmConfig, QosConfig,
    QosQDpmAgent,
};
use qdpm_device::presets;
use qdpm_sim::fleet::{FleetConfig, FleetMember, FleetPolicy, FleetSim};
use qdpm_sim::hierarchy::{ClusterConfig, ClusterSim, RackSpec};
use qdpm_sim::parallel::{derive_cell_seed, run_indexed};
use qdpm_sim::{policies, EngineMode, ScenarioWorkload, SimConfig, Simulator};
use qdpm_workload::{DeadlineSpec, DispatchPolicy, WorkloadSpec};

/// The pinned serial scenario: the paper's standard three-state device,
/// geometric service, Bernoulli(0.1) arrivals, master seed 42.
const ARRIVAL_P: f64 = 0.1;
/// The pinned event-skip scenario: same device/service, sparse arrivals.
/// Sparse means long quiescent stretches — exactly what `EventSkip`
/// fast-forwards.
const SPARSE_P: f64 = 0.001;
const SEED: u64 = 42;

fn build_pm(policy: &str) -> Box<dyn PowerManager> {
    let (power, _) = standard_device();
    match policy {
        "always_on" => Box::new(policies::AlwaysOn::new(&power)),
        "greedy_off" => Box::new(policies::GreedyOff::new(&power)),
        "fixed_timeout" => Box::new(policies::FixedTimeout::break_even(&power)),
        "q_dpm" => Box::new(QDpmAgent::new(&power, QDpmConfig::default()).unwrap()),
        // Frozen-policy evaluation configuration: exploration off, the
        // learner still updates — the setup of every post-training
        // evaluation stretch in the experiment grids.
        "q_dpm_eval" => Box::new(
            QDpmAgent::new(
                &power,
                QDpmConfig {
                    exploration: Exploration::EpsilonGreedy { epsilon: 0.0 },
                    ..QDpmConfig::default()
                },
            )
            .unwrap(),
        ),
        "qos_q_dpm" => Box::new(QosQDpmAgent::new(&power, QosConfig::default()).unwrap()),
        "fuzzy_q_dpm" => {
            Box::new(FuzzyQDpmAgent::new(&power, FuzzyConfig::standard(8).unwrap()).unwrap())
        }
        other => panic!("unknown policy {other}"),
    }
}

fn build_sim(policy: &str, seed: u64, arrival_p: f64, mode: EngineMode) -> Simulator {
    let (power, service) = standard_device();
    Simulator::new(
        power,
        service,
        WorkloadSpec::bernoulli(arrival_p).unwrap().build(),
        build_pm(policy),
        SimConfig {
            seed,
            mode,
            ..SimConfig::default()
        },
    )
    .unwrap()
}

/// Steady-state slices/sec of one policy: warm up (table population,
/// caches), then time a long stretch.
fn throughput(policy: &str, arrival_p: f64, mode: EngineMode, warmup: u64, measure: u64) -> f64 {
    let mut sim = build_sim(policy, SEED, arrival_p, mode);
    sim.run(warmup);
    let start = Instant::now();
    sim.run(measure);
    measure as f64 / start.elapsed().as_secs_f64()
}

/// Steady-state slices/sec of a training Q-DPM agent on the pinned
/// joint DVFS scenario: the five-state `three-state-dvfs` machine with
/// deadline-tagged Bernoulli arrivals — the operating-frequency service
/// scaling and the per-slice deadline ledger both on the hot path.
fn dvfs_throughput(mode: EngineMode, warmup: u64, measure: u64) -> f64 {
    let power = presets::three_state_dvfs();
    let pm = QDpmAgent::new(&power, QDpmConfig::default()).unwrap();
    let mut sim = Simulator::new(
        power,
        presets::default_service(),
        WorkloadSpec::bernoulli(ARRIVAL_P).unwrap().build(),
        Box::new(pm),
        SimConfig {
            seed: SEED,
            mode,
            deadline: Some(DeadlineSpec::uniform(3, 12).unwrap()),
            ..SimConfig::default()
        },
    )
    .unwrap();
    sim.run(warmup);
    let start = Instant::now();
    sim.run(measure);
    measure as f64 / start.elapsed().as_secs_f64()
}

/// Wall-clock seconds to run `cells` independent Q-DPM simulations of
/// `slices_per_cell` slices each on `threads` workers.
fn grid_seconds(cells: usize, slices_per_cell: u64, threads: usize) -> f64 {
    let seeds: Vec<u64> = (0..cells)
        .map(|i| derive_cell_seed(SEED, i as u64))
        .collect();
    let start = Instant::now();
    let stats = run_indexed(&seeds, threads, |_, &seed| {
        let mut sim = build_sim("q_dpm", seed, ARRIVAL_P, EngineMode::PerSlice);
        sim.run(slices_per_cell)
    });
    let secs = start.elapsed().as_secs_f64();
    assert_eq!(stats.len(), cells, "every cell must complete");
    secs
}

/// The pinned fleet members: `devices` standard three-state devices under
/// break-even timeouts.
fn fleet_members(devices: usize) -> Vec<FleetMember> {
    let (power, service) = standard_device();
    (0..devices)
        .map(|i| FleetMember {
            label: format!("dev-{i}"),
            power: power.clone(),
            service,
            policy: FleetPolicy::BreakEvenTimeout,
        })
        .collect()
}

/// The pinned fleet scenario: `devices` members behind one aggregate
/// Bernoulli(0.5) stream (per-device rate 0.5/devices — the quiescent
/// regime a real fleet lives in) under the given dispatcher.
fn fleet_sim(devices: usize, horizon: u64, mode: EngineMode, dispatch: DispatchPolicy) -> FleetSim {
    let aggregate = ScenarioWorkload::Stationary(WorkloadSpec::bernoulli(0.5).unwrap());
    FleetSim::new(
        &fleet_members(devices),
        &aggregate,
        &FleetConfig {
            seed: SEED,
            engine_mode: mode,
            dispatch,
            horizon,
            ..FleetConfig::default()
        },
    )
    .expect("pinned fleet scenario builds")
}

/// The pinned batched-cohort members: `devices` identical standard
/// three-state devices under *training* Q-DPM (live epsilon-greedy
/// exploration and per-slice table updates — the heaviest per-slice
/// policy, and the batched engine's target workload).
fn cohort_members(devices: usize) -> Vec<FleetMember> {
    let (power, service) = standard_device();
    (0..devices)
        .map(|i| FleetMember {
            label: format!("dev-{i}"),
            power: power.clone(),
            service,
            policy: FleetPolicy::QDpm(QDpmConfig::default()),
        })
        .collect()
}

/// Wall-clock seconds to run the pinned homogeneous Q-DPM cohort fleet —
/// batched (one shared policy over per-device kernels) or dynamic
/// (per-device simulators) —
/// on `threads` workers. Only the `run` call is timed.
fn cohort_seconds(devices: usize, horizon: u64, batched: bool, threads: usize) -> f64 {
    let aggregate = ScenarioWorkload::Stationary(WorkloadSpec::bernoulli(0.5).unwrap());
    let fleet = FleetSim::new(
        &cohort_members(devices),
        &aggregate,
        &FleetConfig {
            seed: SEED,
            dispatch: DispatchPolicy::RoundRobin,
            horizon,
            batch_cohorts: batched,
            ..FleetConfig::default()
        },
    )
    .expect("pinned cohort scenario builds");
    assert_eq!(
        fleet.batched_cohorts(),
        usize::from(batched),
        "cohort grouping must match the requested path"
    );
    let start = Instant::now();
    let report = fleet.run(threads);
    let secs = start.elapsed().as_secs_f64();
    assert_eq!(
        report.stats.total.steps,
        devices as u64 * horizon,
        "every device must run the full horizon"
    );
    secs
}

/// Wall-clock seconds to run the pinned fleet on `threads` workers
/// (construction and dispatch-trace precomputation excluded — only the
/// `run` call is timed, which for online dispatchers includes routing).
fn fleet_seconds(
    devices: usize,
    horizon: u64,
    mode: EngineMode,
    dispatch: DispatchPolicy,
    threads: usize,
) -> f64 {
    let fleet = fleet_sim(devices, horizon, mode, dispatch);
    let start = Instant::now();
    let report = fleet.run(threads);
    let secs = start.elapsed().as_secs_f64();
    assert_eq!(
        report.stats.total.steps,
        devices as u64 * horizon,
        "every device must run the full horizon"
    );
    secs
}

/// Pulls the inner lines of the `"trajectory": [...]` array out of the
/// previously committed report, so each run appends to the series rather
/// than resetting it. Pre-v4 files have no array — the series starts
/// empty. (The workspace has no JSON parser, so this is a string
/// extraction; the array is written one point per line by this binary.)
fn prior_trajectory(text: &str) -> Vec<String> {
    let marker = "\"trajectory\": [";
    let Some(start) = text.find(marker) else {
        return Vec::new();
    };
    let rest = &text[start + marker.len()..];
    let Some(end) = rest.find(']') else {
        return Vec::new();
    };
    rest[..end]
        .lines()
        .map(|line| line.trim().trim_end_matches(',').to_string())
        .filter(|line| !line.is_empty())
        .collect()
}

fn main() {
    let quick = has_flag("--quick");
    let threads_requested = threads_from_args();
    // The event-skip section gets a longer warm-up: at 0.001 arrivals per
    // slice a learning agent needs a few hundred arrival cycles before its
    // greedy policy settles into steady sleep stretches.
    let (warmup, measure, cells, slices_per_cell, skip_warmup, skip_measure) = if quick {
        (
            20_000u64,
            200_000u64,
            8usize,
            50_000u64,
            200_000u64,
            1_000_000u64,
        )
    } else {
        (
            100_000u64,
            2_000_000u64,
            8usize,
            500_000u64,
            1_000_000u64,
            10_000_000u64,
        )
    };
    let (fleet_devices, fleet_horizon) = if quick {
        (1_000usize, 20_000u64)
    } else {
        (1_000usize, 100_000u64)
    };
    // The dispatcher sweep and the capped cluster run smaller pinned
    // populations: the point is comparing routing regimes, not re-timing
    // the 1k-device scaling the `modes` section already covers.
    let (dispatch_devices, dispatch_horizon) = if quick {
        (200usize, 20_000u64)
    } else {
        (200usize, 50_000u64)
    };
    let (hier_racks, hier_rack_devices, hier_cap, hier_horizon) = if quick {
        (4usize, 50usize, 6.0f64, 20_000u64)
    } else {
        (4usize, 50usize, 6.0f64, 50_000u64)
    };

    let policies = [
        "always_on",
        "fixed_timeout",
        "q_dpm",
        "qos_q_dpm",
        "fuzzy_q_dpm",
    ];
    let mut policy_lines = Vec::new();
    let mut serial_q_dpm = 0.0f64;
    for policy in policies {
        let sps = throughput(policy, ARRIVAL_P, EngineMode::PerSlice, warmup, measure);
        eprintln!("serial {policy}: {sps:.0} slices/sec");
        if policy == "q_dpm" {
            serial_q_dpm = sps;
        }
        policy_lines.push(format!("      \"{policy}\": {sps:.1}"));
    }

    // Event-skip section: per-slice vs event-skip on the sparse scenario.
    let skip_policies = [
        "always_on",
        "greedy_off",
        "fixed_timeout",
        "q_dpm",
        "q_dpm_eval",
    ];
    let mut skip_lines = Vec::new();
    let mut skip_q_dpm_eval = 0.0f64;
    for policy in skip_policies {
        let per = throughput(
            policy,
            SPARSE_P,
            EngineMode::PerSlice,
            skip_warmup,
            skip_measure,
        );
        let skip = throughput(
            policy,
            SPARSE_P,
            EngineMode::EventSkip,
            skip_warmup,
            skip_measure,
        );
        let speedup = skip / per;
        if policy == "q_dpm_eval" {
            skip_q_dpm_eval = skip;
        }
        eprintln!(
            "event_skip {policy}: per-slice {per:.0}, event-skip {skip:.0} slices/sec \
             ({speedup:.2}x)"
        );
        skip_lines.push(format!(
            "      \"{policy}\": {{ \"per_slice\": {per:.1}, \"event_skip\": {skip:.1}, \
             \"speedup\": {speedup:.3} }}"
        ));
    }

    // DVFS section: the joint sleep-state x operating-point machine with
    // deadline-tagged arrivals, both engine modes — gates the cost of the
    // frequency-scaled service law and the per-slice deadline ledger.
    let dvfs_per = dvfs_throughput(EngineMode::PerSlice, warmup, measure);
    let dvfs_skip = dvfs_throughput(EngineMode::EventSkip, warmup, measure);
    eprintln!(
        "dvfs q_dpm+deadlines: per-slice {dvfs_per:.0}, event-skip {dvfs_skip:.0} slices/sec"
    );

    // Parallel grid: the speedup is only meaningful when more than one
    // worker can actually run — on a 1-thread configuration the "parallel"
    // run repeats the serial one and the ratio is pure noise, so it is
    // recorded as null (documented in schema_notes).
    let threads_effective = threads_requested.min(cells).max(1);
    let serial_secs = grid_seconds(cells, slices_per_cell, 1);
    let (parallel_secs, speedup_json) = if threads_effective > 1 {
        let psecs = grid_seconds(cells, slices_per_cell, threads_effective);
        (psecs, format!("{:.3}", serial_secs / psecs))
    } else {
        (serial_secs, "null".to_string())
    };
    let grid_slices = (cells as u64 * slices_per_cell) as f64;
    eprintln!(
        "grid ({cells} cells x {slices_per_cell} slices): serial {:.0} slices/sec, \
         {threads_effective}-thread {:.0} slices/sec, speedup {speedup_json}",
        grid_slices / serial_secs,
        grid_slices / parallel_secs,
    );

    // Fleet section: the pinned 1k-device Bernoulli fleet timed serial vs
    // parallel in both engine modes (round-robin dispatch — the cheapest,
    // kept fixed so the series stays comparable across reports). As with
    // the parallel grid, the speedup is only meaningful when more than
    // one worker can run; otherwise it is recorded as null.
    let fleet_threads = threads_requested.min(fleet_devices).max(1);
    let fleet_slices = (fleet_devices as u64 * fleet_horizon) as f64;
    let mut fleet_lines = Vec::new();
    let mut fleet_event_skip_serial = 0.0f64;
    for (key, mode) in [
        ("per_slice", EngineMode::PerSlice),
        ("event_skip", EngineMode::EventSkip),
    ] {
        let serial_secs = fleet_seconds(
            fleet_devices,
            fleet_horizon,
            mode,
            DispatchPolicy::RoundRobin,
            1,
        );
        let (parallel_secs, speedup_json) = if fleet_threads > 1 {
            let psecs = fleet_seconds(
                fleet_devices,
                fleet_horizon,
                mode,
                DispatchPolicy::RoundRobin,
                fleet_threads,
            );
            (psecs, format!("{:.3}", serial_secs / psecs))
        } else {
            (serial_secs, "null".to_string())
        };
        if key == "event_skip" {
            fleet_event_skip_serial = fleet_slices / serial_secs;
        }
        eprintln!(
            "fleet {key} ({fleet_devices} devices x {fleet_horizon} slices): serial {:.0} \
             slices/sec, {fleet_threads}-thread {:.0} slices/sec, speedup {speedup_json}",
            fleet_slices / serial_secs,
            fleet_slices / parallel_secs,
        );
        fleet_lines.push(format!(
            "      \"{key}\": {{ \"serial_slices_per_sec\": {:.1}, \
             \"parallel_slices_per_sec\": {:.1}, \"speedup\": {speedup_json} }}",
            fleet_slices / serial_secs,
            fleet_slices / parallel_secs,
        ));
    }

    // Batched-cohort section: one homogeneous training-Q-DPM cohort,
    // batched vs the dynamic per-device path, serial and (when workers
    // exist) parallel. Throughput is device-slices per second; the
    // headline ratio is batched-serial over dynamic-serial — the per-core
    // win of one striped learner over per-device simulators.
    let (cohort_devices, cohort_horizon) = if quick {
        (1_000usize, 10_000u64)
    } else {
        (4_000usize, 50_000u64)
    };
    let cohort_slices = (cohort_devices as u64 * cohort_horizon) as f64;
    let cohort_threads = threads_requested.max(1);
    let batched_serial_secs = cohort_seconds(cohort_devices, cohort_horizon, true, 1);
    let dynamic_serial_secs = cohort_seconds(cohort_devices, cohort_horizon, false, 1);
    let batched_serial = cohort_slices / batched_serial_secs;
    let dynamic_serial = cohort_slices / dynamic_serial_secs;
    let batched_vs_dynamic = dynamic_serial_secs / batched_serial_secs;
    let (batched_parallel, cohort_parallel_json) = if cohort_threads > 1 {
        let psecs = cohort_seconds(cohort_devices, cohort_horizon, true, cohort_threads);
        (
            cohort_slices / psecs,
            format!("{:.1}", cohort_slices / psecs),
        )
    } else {
        (batched_serial, "null".to_string())
    };
    eprintln!(
        "fleet batched ({cohort_devices} q_dpm devices x {cohort_horizon} slices): \
         batched serial {batched_serial:.0}, dynamic serial {dynamic_serial:.0}, \
         {cohort_threads}-thread batched {batched_parallel:.0} device-slices/sec \
         ({batched_vs_dynamic:.2}x vs dynamic)"
    );

    // Dispatcher sweep: every routing policy on one smaller pinned fleet,
    // EventSkip, serial — the state-blind rows run the precomputed split,
    // the state-aware rows run the online loop (routing cost included).
    let dispatch_slices = (dispatch_devices as u64 * dispatch_horizon) as f64;
    let mut dispatcher_lines = Vec::new();
    for (key, dispatch) in [
        ("round_robin", DispatchPolicy::RoundRobin),
        ("least_loaded", DispatchPolicy::LeastLoaded),
        ("hash_sharded", DispatchPolicy::HashSharded { salt: SEED }),
        ("join_shortest_queue", DispatchPolicy::JoinShortestQueue),
        ("sleep_aware", DispatchPolicy::SleepAware { spill: 4 }),
    ] {
        let secs = fleet_seconds(
            dispatch_devices,
            dispatch_horizon,
            EngineMode::EventSkip,
            dispatch,
            1,
        );
        let sps = dispatch_slices / secs;
        eprintln!("dispatch {key}: {sps:.0} slices/sec (serial, event-skip)");
        dispatcher_lines.push(format!("      \"{key}\": {sps:.1}"));
    }

    // Hierarchy section: a pinned power-capped cluster — racks of
    // break-even-timeout devices under sleep-aware intra-rack dispatch
    // and per-rack caps, join-shortest-queue across racks — with one row
    // per rack (energy, vetoes, sheds) and the serial throughput.
    let hier_devices = hier_racks * hier_rack_devices;
    let hier_specs: Vec<RackSpec> = (0..hier_racks)
        .map(|r| RackSpec {
            label: format!("rack-{r}"),
            members: fleet_members(hier_rack_devices),
            power_cap: Some(hier_cap),
        })
        .collect();
    let hier_aggregate = ScenarioWorkload::Stationary(WorkloadSpec::bernoulli(0.5).unwrap());
    let cluster = ClusterSim::new(
        &hier_specs,
        &hier_aggregate,
        &ClusterConfig {
            rack_dispatch: DispatchPolicy::JoinShortestQueue,
            fleet: FleetConfig {
                seed: SEED,
                engine_mode: EngineMode::EventSkip,
                dispatch: DispatchPolicy::SleepAware { spill: 4 },
                horizon: hier_horizon,
                ..FleetConfig::default()
            },
        },
    )
    .expect("pinned cluster scenario builds");
    let hier_start = Instant::now();
    let cluster_report = cluster.run(1);
    let hier_secs = hier_start.elapsed().as_secs_f64();
    let hier_slices = (hier_devices as u64 * hier_horizon) as f64;
    let hier_sps = hier_slices / hier_secs;
    eprintln!(
        "hierarchy ({hier_racks} racks x {hier_rack_devices} devices, cap {hier_cap}): \
         {hier_sps:.0} slices/sec (serial, event-skip)"
    );
    let rack_lines: Vec<String> = cluster_report
        .racks
        .iter()
        .map(|rack| {
            format!(
                "      {{ \"label\": \"{}\", \"energy\": {:.1}, \"vetoed_wakeups\": {}, \
                 \"shed_arrivals\": {} }}",
                rack.label,
                rack.fleet.stats.total.total_energy,
                rack.vetoed_wakeups,
                rack.shed_arrivals
            )
        })
        .collect();

    let generated_unix = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let path = workspace_root().join("BENCH_throughput.json");

    // The trajectory: earlier points carried forward from the committed
    // file, this run's compact point appended.
    let mut trajectory = std::fs::read_to_string(&path)
        .map(|text| prior_trajectory(&text))
        .unwrap_or_default();
    trajectory.push(format!(
        "{{ \"generated_unix\": {generated_unix}, \"quick\": {quick}, \
         \"serial_q_dpm\": {serial_q_dpm:.1}, \
         \"event_skip_q_dpm_eval\": {skip_q_dpm_eval:.1}, \
         \"fleet_event_skip_serial\": {fleet_event_skip_serial:.1}, \
         \"fleet_batched_serial\": {batched_serial:.1}, \
         \"dvfs_deadline_q_dpm\": {dvfs_per:.1} }}"
    ));
    let trajectory_lines: Vec<String> = trajectory.iter().map(|p| format!("    {p}")).collect();

    let json = format!(
        "{{\n\
         \x20 \"schema\": \"qdpm-bench-throughput/v6\",\n\
         \x20 \"generated_unix\": {generated_unix},\n\
         \x20 \"quick\": {quick},\n\
         \x20 \"machine\": {{\n\
         \x20   \"os\": \"{os}\",\n\
         \x20   \"arch\": \"{arch}\",\n\
         \x20   \"cpus\": {cpus}\n\
         \x20 }},\n\
         \x20 \"serial\": {{\n\
         \x20   \"scenario\": \"three_state_generic + geometric service + bernoulli({p:.2}), seed {seed}\",\n\
         \x20   \"warmup_slices\": {warmup},\n\
         \x20   \"measured_slices\": {measure},\n\
         \x20   \"slices_per_sec\": {{\n{policies}\n\
         \x20   }}\n\
         \x20 }},\n\
         \x20 \"event_skip\": {{\n\
         \x20   \"scenario\": \"three_state_generic + geometric service + bernoulli({sparse_p}), seed {seed}\",\n\
         \x20   \"warmup_slices\": {skip_warmup},\n\
         \x20   \"measured_slices\": {skip_measure},\n\
         \x20   \"slices_per_sec\": {{\n{skips}\n\
         \x20   }}\n\
         \x20 }},\n\
         \x20 \"dvfs\": {{\n\
         \x20   \"scenario\": \"three_state_dvfs (5 joint states) + geometric service + bernoulli({p:.2}) with deadlines uniform[3,12], training q_dpm, seed {seed}\",\n\
         \x20   \"warmup_slices\": {warmup},\n\
         \x20   \"measured_slices\": {measure},\n\
         \x20   \"slices_per_sec\": {{\n\
         \x20     \"per_slice\": {dvfs_per:.1},\n\
         \x20     \"event_skip\": {dvfs_skip:.1}\n\
         \x20   }}\n\
         \x20 }},\n\
         \x20 \"parallel_grid\": {{\n\
         \x20   \"policy\": \"q_dpm\",\n\
         \x20   \"cells\": {cells},\n\
         \x20   \"slices_per_cell\": {slices_per_cell},\n\
         \x20   \"threads_requested\": {threads_requested},\n\
         \x20   \"threads_effective\": {threads_effective},\n\
         \x20   \"serial_slices_per_sec\": {gser:.1},\n\
         \x20   \"parallel_slices_per_sec\": {gpar:.1},\n\
         \x20   \"speedup\": {speedup}\n\
         \x20 }},\n\
         \x20 \"fleet\": {{\n\
         \x20   \"scenario\": \"{fleet_devices} x three_state_generic (break-even timeout) + aggregate bernoulli(0.5) round-robin, seed {seed}\",\n\
         \x20   \"devices\": {fleet_devices},\n\
         \x20   \"horizon_slices\": {fleet_horizon},\n\
         \x20   \"threads_requested\": {threads_requested},\n\
         \x20   \"threads_effective\": {fleet_threads},\n\
         \x20   \"modes\": {{\n{fleet}\n\
         \x20   }},\n\
         \x20   \"batched\": {{\n\
         \x20     \"scenario\": \"{cohort_devices} x three_state_generic (training q_dpm) + aggregate bernoulli(0.5) round-robin, per-slice, seed {seed}\",\n\
         \x20     \"devices\": {cohort_devices},\n\
         \x20     \"horizon_slices\": {cohort_horizon},\n\
         \x20     \"cohorts\": 1,\n\
         \x20     \"threads_effective\": {cohort_threads},\n\
         \x20     \"serial_device_slices_per_sec\": {batched_serial:.1},\n\
         \x20     \"parallel_device_slices_per_sec\": {cohort_parallel},\n\
         \x20     \"dynamic_serial_device_slices_per_sec\": {dynamic_serial:.1},\n\
         \x20     \"speedup_vs_dynamic\": {batched_vs_dynamic:.3}\n\
         \x20   }},\n\
         \x20   \"dispatch_scenario\": \"{dispatch_devices} devices x {dispatch_horizon} slices, aggregate bernoulli(0.5), event-skip, serial\",\n\
         \x20   \"dispatchers\": {{\n{dispatchers}\n\
         \x20   }}\n\
         \x20 }},\n\
         \x20 \"hierarchy\": {{\n\
         \x20   \"scenario\": \"{hier_racks} racks x {hier_rack_devices} x three_state_generic (break-even timeout), cap {hier_cap}/rack, sleep-aware within + join-shortest-queue across, aggregate bernoulli(0.5), event-skip, serial, seed {seed}\",\n\
         \x20   \"racks\": {hier_racks},\n\
         \x20   \"devices_per_rack\": {hier_rack_devices},\n\
         \x20   \"power_cap_per_rack\": {hier_cap},\n\
         \x20   \"horizon_slices\": {hier_horizon},\n\
         \x20   \"serial_slices_per_sec\": {hier_sps:.1},\n\
         \x20   \"per_rack\": [\n{racks}\n\
         \x20   ]\n\
         \x20 }},\n\
         \x20 \"trajectory\": [\n{trajectory}\n\
         \x20 ],\n\
         \x20 \"schema_notes\": [\n\
         \x20   \"speedup is null wherever threads_effective == 1 (single-CPU hosts, or --threads 1): the parallel run would repeat the serial one and the ratio is measurement noise, not data\",\n\
         \x20   \"trajectory appends one compact point per bench_report run (earlier points carried forward verbatim); points are comparable when machine and quick match\",\n\
         \x20   \"dvfs section and the trajectory's dvfs_deadline_q_dpm field are new in v6 (joint sleep+DVFS machine with deadline-tagged arrivals); pre-v6 trajectory points lack the field\"\n\
         \x20 ]\n\
         }}\n",
        os = std::env::consts::OS,
        arch = std::env::consts::ARCH,
        cpus = qdpm_sim::parallel::available_threads(),
        p = ARRIVAL_P,
        sparse_p = SPARSE_P,
        seed = SEED,
        policies = policy_lines.join(",\n"),
        skips = skip_lines.join(",\n"),
        gser = grid_slices / serial_secs,
        gpar = grid_slices / parallel_secs,
        speedup = speedup_json,
        fleet = fleet_lines.join(",\n"),
        cohort_parallel = cohort_parallel_json,
        dispatchers = dispatcher_lines.join(",\n"),
        racks = rack_lines.join(",\n"),
        trajectory = trajectory_lines.join(",\n"),
    );

    // Atomic (tmp + rename, via save_results_in): a crash mid-write keeps
    // the previous complete report instead of leaving a torn JSON.
    match qdpm_bench::save_results_in(&workspace_root(), "BENCH_throughput.json", &json) {
        Some(written) => eprintln!("wrote {}", written.display()),
        None => eprintln!("could not write {}", path.display()),
    }
    print!("{json}");
}

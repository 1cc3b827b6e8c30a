//! Batched cohort execution vs the dynamic per-device path on a
//! 100 000-device homogeneous fleet.
//!
//! Run with: `cargo run --release --example batched_fleet`
//! (optionally: `... --example batched_fleet -- <devices> <horizon> <policy>`
//! where policy is one of `q_dpm`, `always_on`, `greedy_off`,
//! `break_even`)
//!
//! One hundred thousand identical devices under training Q-DPM share a
//! single aggregate request stream. Built with cohort batching on (the
//! default), `FleetSim` recognizes the fleet as one homogeneous cohort
//! and steps every member's device kernel against one shared model and
//! a striped Q-table — no per-device simulators, boxed policies, or
//! boxed workloads. Built with `batch_cohorts: false`, the same fleet runs the
//! classic one-simulator-per-device path. The program times both, prints
//! the device-slices/s ratio, and asserts the two reports are *equal to
//! the f64 bit* — the batched engine is a pure execution-strategy change,
//! not an approximation.

use std::time::Instant;

use qdpm::core::QDpmConfig;
use qdpm::device::presets;
use qdpm::sim::fleet::{FleetConfig, FleetMember, FleetPolicy, FleetReport, FleetSim};
use qdpm::sim::ScenarioWorkload;
use qdpm::workload::{DispatchPolicy, WorkloadSpec};

fn build_and_run(
    members: &[FleetMember],
    workload: &ScenarioWorkload,
    horizon: u64,
    batched: bool,
) -> Result<(FleetReport, f64, usize), Box<dyn std::error::Error>> {
    let fleet = FleetSim::new(
        members,
        workload,
        &FleetConfig {
            seed: 42,
            dispatch: DispatchPolicy::RoundRobin,
            horizon,
            batch_cohorts: batched,
            ..FleetConfig::default()
        },
    )?;
    let cohorts = fleet.batched_cohorts();
    let start = Instant::now();
    let report = fleet.run(1);
    Ok((report, start.elapsed().as_secs_f64(), cohorts))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let devices: usize = args.next().map_or(Ok(100_000), |a| a.parse())?;
    let horizon: u64 = args.next().map_or(Ok(500), |a| a.parse())?;
    let policy_name = args.next().unwrap_or_else(|| "q_dpm".to_string());
    let policy = match policy_name.as_str() {
        "q_dpm" => FleetPolicy::QDpm(QDpmConfig::default()),
        "always_on" => FleetPolicy::AlwaysOn,
        "greedy_off" => FleetPolicy::GreedyOff,
        "break_even" => FleetPolicy::BreakEvenTimeout,
        other => return Err(format!("unknown policy {other}").into()),
    };

    let members: Vec<FleetMember> = (0..devices)
        .map(|i| FleetMember {
            label: format!("node-{i}"),
            power: presets::three_state_generic(),
            service: presets::default_service(),
            policy: policy.clone(),
        })
        .collect();
    // A heavily loaded aggregate: two requests per slice on average,
    // spread across the whole fleet by round-robin.
    let workload = ScenarioWorkload::Stationary(WorkloadSpec::two_mode_mmpp(0.5, 0.9, 0.002)?);

    println!("fleet: {devices} x three-state-generic under {policy_name}, horizon {horizon}");

    let (batched_report, batched_secs, cohorts) =
        build_and_run(&members, &workload, horizon, true)?;
    assert_eq!(cohorts, 1, "a homogeneous fleet must form one cohort");
    let slices = (devices as u64 * horizon) as f64;
    println!(
        "batched (1 cohort):  {:>12.0} device-slices/s  ({batched_secs:.2}s)",
        slices / batched_secs
    );

    let (dynamic_report, dynamic_secs, dyn_cohorts) =
        build_and_run(&members, &workload, horizon, false)?;
    assert_eq!(dyn_cohorts, 0, "batching off must run the dynamic path");
    println!(
        "dynamic (per-device):{:>12.0} device-slices/s  ({dynamic_secs:.2}s)",
        slices / dynamic_secs
    );
    println!("speedup: {:.2}x", dynamic_secs / batched_secs);

    // The tentpole claim, checked in-program: bit-exact equality of the
    // full reports — per-device stats, final modes, fleet aggregate.
    assert_eq!(
        batched_report, dynamic_report,
        "batched and dynamic fleet reports must be identical"
    );
    println!(
        "reports identical: total energy {:.1}, completed {}, dropped {}",
        batched_report.stats.total.total_energy,
        batched_report.stats.total.completed,
        batched_report.stats.total.dropped
    );
    Ok(())
}

//! Q-table persistence: checkpoint a trained policy and warm-start after a
//! "reboot" — the deployment story for the paper's tight-budget embedded
//! nodes, where re-exploring from scratch after every power cycle would
//! waste the very energy DPM is meant to save.
//!
//! Run with: `cargo run --release --example warm_start`

use qdpm::core::{PowerManager, QDpmAgent, QDpmConfig, StateReader, StateWriter};
use qdpm::device::presets;
use qdpm::sim::{SimConfig, Simulator};
use qdpm::workload::WorkloadSpec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let power = presets::three_state_generic();
    let spec = WorkloadSpec::bernoulli(0.05)?;

    // ---- First boot: learn online, then checkpoint. --------------------
    // The simulated agent's saved state loads into a typed agent, which
    // exports the table the node keeps across reboots.
    let mut first_boot = Simulator::new(
        power.clone(),
        presets::default_service(),
        spec.build(),
        Box::new(QDpmAgent::new(&power, QDpmConfig::default())?),
        SimConfig {
            seed: 7,
            ..SimConfig::default()
        },
    )?;
    first_boot.run(150_000);
    let mut saved = StateWriter::new();
    first_boot.pm().save_state(&mut saved);
    let saved = saved.into_bytes();
    let mut agent = QDpmAgent::new(&power, QDpmConfig::default())?;
    agent.load_state(&mut StateReader::new(&saved))?;
    let checkpoint = agent.export_table();
    println!(
        "checkpoint: {} bytes (fits flash on any node)",
        checkpoint.len()
    );

    // ---- Reboot: warm vs cold on the identical workload. ---------------
    let mut warm = QDpmAgent::new(&power, QDpmConfig::default())?;
    warm.import_table(&checkpoint)?;
    let mut warm_sim = Simulator::new(
        power.clone(),
        presets::default_service(),
        spec.build(),
        Box::new(warm),
        SimConfig {
            seed: 3,
            ..SimConfig::default()
        },
    )?;
    let warm_stats = warm_sim.run(20_000);

    let cold = QDpmAgent::new(&power, QDpmConfig::default())?;
    let mut cold_sim = Simulator::new(
        power.clone(),
        presets::default_service(),
        spec.build(),
        Box::new(cold),
        SimConfig {
            seed: 3,
            ..SimConfig::default()
        },
    )?;
    let cold_stats = cold_sim.run(20_000);

    let p_on = power.state(power.highest_power_state()).power;
    println!("\nfirst 20k slices after reboot:");
    println!(
        "  warm start: cost/slice {:.4}, energy reduction {:.1}%",
        warm_stats.avg_cost(),
        100.0 * warm_stats.energy_reduction_vs(p_on)
    );
    println!(
        "  cold start: cost/slice {:.4}, energy reduction {:.1}%",
        cold_stats.avg_cost(),
        100.0 * cold_stats.energy_reduction_vs(p_on)
    );
    println!("\nthe warm node skips the exploratory transient entirely.");
    Ok(())
}

//! Q-table persistence: an embedded node checkpoints its learned table and
//! warm-starts after a reboot instead of re-exploring from scratch.

use qdpm::core::{CoreError, PowerManager, QDpmAgent, QDpmConfig, StateReader, StateWriter};
use qdpm::device::presets;
use qdpm::sim::{SimConfig, Simulator};
use qdpm::workload::WorkloadSpec;

fn sim_with(agent: QDpmAgent, seed: u64) -> Simulator {
    let power = presets::three_state_generic();
    Simulator::new(
        power,
        presets::default_service(),
        WorkloadSpec::bernoulli(0.05).unwrap().build(),
        Box::new(agent),
        SimConfig {
            seed,
            ..SimConfig::default()
        },
    )
    .unwrap()
}

#[test]
fn warm_start_skips_the_learning_transient() {
    let power = presets::three_state_generic();

    // Train a first "boot" of the node in the simulator, then checkpoint
    // it: the simulated agent's saved state loads into a typed agent,
    // which exports the table the node keeps across reboots.
    let trained = {
        let mut sim = sim_with(QDpmAgent::new(&power, QDpmConfig::default()).unwrap(), 7);
        sim.run(150_000);
        let mut saved = StateWriter::new();
        sim.pm().save_state(&mut saved);
        let saved = saved.into_bytes();
        let mut agent = QDpmAgent::new(&power, QDpmConfig::default()).unwrap();
        agent.load_state(&mut StateReader::new(&saved)).unwrap();
        agent.export_table()
    };

    // "Reboot": a fresh agent importing the checkpoint...
    let mut warm = QDpmAgent::new(&power, QDpmConfig::default()).unwrap();
    warm.import_table(&trained).unwrap();
    let mut warm_sim = sim_with(warm, 3);
    let warm_cost = warm_sim.run(20_000).avg_cost();

    // ...versus a cold agent on the identical workload.
    let cold = QDpmAgent::new(&power, QDpmConfig::default()).unwrap();
    let mut cold_sim = sim_with(cold, 3);
    let cold_cost = cold_sim.run(20_000).avg_cost();

    assert!(
        warm_cost < cold_cost * 0.8,
        "warm start {warm_cost} should clearly beat cold start {cold_cost}"
    );
}

#[test]
fn import_validates_dimensions() {
    let power = presets::three_state_generic();
    let small = QDpmAgent::new(
        &power,
        QDpmConfig {
            queue_cap: 4,
            ..QDpmConfig::default()
        },
    )
    .unwrap();
    let blob = small.export_table();
    let mut big = QDpmAgent::new(
        &power,
        QDpmConfig {
            queue_cap: 16,
            ..QDpmConfig::default()
        },
    )
    .unwrap();
    assert!(matches!(
        big.import_table(&blob),
        Err(CoreError::CorruptTable(_))
    ));
}

#[test]
fn export_import_is_lossless() {
    let power = presets::three_state_generic();
    let agent = QDpmAgent::new(&power, QDpmConfig::default()).unwrap();
    let blob = agent.export_table();
    let mut clone = QDpmAgent::new(&power, QDpmConfig::default()).unwrap();
    clone.import_table(&blob).unwrap();
    assert_eq!(clone.export_table(), blob);
}

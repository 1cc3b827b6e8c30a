//! Determinism suite for the parallel experiment runner.
//!
//! The contract of `qdpm_sim::parallel`: the grid runner produces
//! byte-identical TSV to the serial path at any thread count, and
//! re-running the same grid is identical. CI runs this suite in `--release`
//! so the threaded paths are exercised under the optimized scheduling the
//! benchmarks rely on.

use qdpm_core::RewardWeights;
use qdpm_device::presets;
use qdpm_sim::experiment::{run_grid, run_sweep, sweep_rows_to_tsv};
use qdpm_sim::{GridParams, ScenarioGrid, ScenarioWorkload};
use qdpm_workload::WorkloadSpec;

/// A small but diverse grid: two devices, Bernoulli + Markov-modulated +
/// piecewise-stationary workloads, two replicates.
fn diverse_grid() -> ScenarioGrid {
    let devices = vec![
        ("three-state".to_string(), presets::three_state_generic()),
        (
            "two-state".to_string(),
            presets::two_state(1.0, 0.1, 3, 1.2),
        ),
    ];
    let workloads = vec![
        (
            "bern-0.05".to_string(),
            ScenarioWorkload::Stationary(WorkloadSpec::bernoulli(0.05).unwrap()),
        ),
        (
            "mmpp".to_string(),
            ScenarioWorkload::Stationary(WorkloadSpec::two_mode_mmpp(0.02, 0.4, 0.01).unwrap()),
        ),
        (
            "piecewise".to_string(),
            ScenarioWorkload::Piecewise(vec![
                (2_000, WorkloadSpec::bernoulli(0.02).unwrap()),
                (2_000, WorkloadSpec::bernoulli(0.25).unwrap()),
            ]),
        ),
    ];
    let services = vec![presets::default_service()];
    ScenarioGrid::cartesian(
        &devices,
        &workloads,
        &services,
        2,
        &GridParams {
            queue_cap: 8,
            weights: RewardWeights::default(),
            train: 4_000,
            evaluate: 1_000,
            master_seed: 5,
            ..GridParams::default()
        },
    )
}

#[test]
fn grid_runner_is_byte_identical_across_thread_counts() {
    let grid = diverse_grid();
    let serial = sweep_rows_to_tsv(&run_grid(&grid, 1).unwrap());
    assert!(!serial.is_empty());
    for threads in [2, 4] {
        let parallel = sweep_rows_to_tsv(&run_grid(&grid, threads).unwrap());
        assert_eq!(
            serial, parallel,
            "TSV must be byte-identical at {threads} threads"
        );
    }
}

#[test]
fn grid_runner_is_reproducible_across_runs() {
    let grid = diverse_grid();
    let first = sweep_rows_to_tsv(&run_grid(&grid, 4).unwrap());
    let second = sweep_rows_to_tsv(&run_grid(&grid, 4).unwrap());
    assert_eq!(first, second, "re-running the same grid must be identical");
}

#[test]
fn refit_sweep_matches_serial_at_any_thread_count() {
    // The production T4 entry point, shrunk: the exact TSV the bin would
    // save must agree between one worker and several.
    let devices = vec![("three-state".to_string(), presets::three_state_generic())];
    let arrival_ps = [0.02, 0.2];
    let service_ps = [0.6];
    let sweep = |threads| {
        sweep_rows_to_tsv(
            &run_sweep(&devices, &arrival_ps, &service_ps, 5_000, 1_000, 3, threads).unwrap(),
        )
    };
    let serial = sweep(1);
    for threads in [2, 4] {
        let parallel = sweep(threads);
        assert_eq!(serial, parallel, "threads={threads}");
    }
}

#[test]
fn distinct_master_seeds_change_the_rows() {
    // Sanity that the per-cell seeding actually varies with the master
    // seed (otherwise determinism would be trivially satisfied by a
    // constant).
    let devices = vec![("three-state".to_string(), presets::three_state_generic())];
    let a = sweep_rows_to_tsv(&run_sweep(&devices, &[0.2], &[0.6], 3_000, 1_000, 3, 2).unwrap());
    let b = sweep_rows_to_tsv(&run_sweep(&devices, &[0.2], &[0.6], 3_000, 1_000, 4, 2).unwrap());
    assert_ne!(a, b, "different master seeds must produce different runs");
}

//! T4 — the paper's "after studying many cases" robustness sweep.
//!
//! Grid over device presets x arrival rates x service rates: Q-DPM's
//! steady-state cost ratio against the analytic optimum, energy reduction
//! and latency. Cells run on the deterministic parallel grid runner
//! (`qdpm_sim::parallel`): the saved TSV is byte-identical at any worker
//! count, so `--threads` only changes wall-clock time.
//!
//! Run with: `cargo run --release -p qdpm-bench --bin table_sweep --
//! [--threads N] [--compare-serial]`
//!
//! `--compare-serial` additionally times the serial (1-thread) path and
//! reports the speedup on stderr (timings never enter the TSV, which must
//! stay deterministic).

use std::time::Instant;

use qdpm_bench::{has_flag, save_results, threads_from_args};
use qdpm_device::presets;
use qdpm_sim::experiment::{run_sweep, sweep_ratio_summary, sweep_rows_to_tsv};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let devices = vec![
        ("three-state".to_string(), presets::three_state_generic()),
        (
            "two-state".to_string(),
            presets::two_state(1.0, 0.1, 3, 1.2),
        ),
        ("ibm-hdd".to_string(), presets::ibm_hdd()),
    ];
    let arrival_ps = [0.02, 0.05, 0.1, 0.2, 0.4];
    let service_ps = [0.4, 0.6, 0.9];
    let (train, evaluate, seed) = (1_000_000, 300_000, 3);
    let threads = threads_from_args();
    eprintln!(
        "sweep: {} devices x {} rates x {} service rates on {} thread(s)",
        devices.len(),
        arrival_ps.len(),
        service_ps.len(),
        threads
    );

    let start = Instant::now();
    let rows = run_sweep(
        &devices,
        &arrival_ps,
        &service_ps,
        train,
        evaluate,
        seed,
        threads,
    )?;
    let parallel_s = start.elapsed().as_secs_f64();
    eprintln!("parallel path ({threads} threads): {parallel_s:.2}s wall");

    if has_flag("--compare-serial") {
        let start = Instant::now();
        let serial_rows = run_sweep(&devices, &arrival_ps, &service_ps, train, evaluate, seed, 1)?;
        let serial_s = start.elapsed().as_secs_f64();
        assert_eq!(
            sweep_rows_to_tsv(&rows),
            sweep_rows_to_tsv(&serial_rows),
            "parallel TSV must be byte-identical to serial"
        );
        eprintln!(
            "serial path: {serial_s:.2}s wall — speedup {:.2}x on {threads} thread(s)",
            serial_s / parallel_s.max(1e-9)
        );
    }

    let mut out = String::new();
    out.push_str("# table_sweep (T4): q-dpm vs analytic optimum across cases\n");
    out.push_str(&sweep_rows_to_tsv(&rows));
    let (mean, worst, n_valid) = sweep_ratio_summary(&rows);
    out.push_str(&format!(
        "# mean ratio {mean:.3}, worst ratio {worst:.3} over {n_valid} cases\n"
    ));
    print!("{out}");
    if let Some(path) = save_results("table_sweep.tsv", &out) {
        eprintln!("saved {}", path.display());
    }
    Ok(())
}

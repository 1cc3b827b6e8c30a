//! T-DVFS — the joint DVFS + sleep-management frontier.
//!
//! Sweeps the deadline-penalized Q-DPM agent (per-miss reward penalty)
//! and the solved joint-MDP oracle (performance weight) over the
//! five-state `three-state-dvfs` machine with a deadline-tagged
//! Bernoulli workload, and reports each point's energy-per-slice and
//! deadline-miss-rate — the energy / responsiveness frontier of joint
//! sleep-state × operating-point control. The oracle is deadline-blind
//! but queue-aware (deadlines are not MDP state), so its curve is the
//! model-known envelope the model-free agent is measured against; the
//! trailing gap line documents how close the agent gets at matched miss
//! rates.
//!
//! Every point is an independent deterministic simulation, so the saved
//! TSV is byte-identical at any worker count.
//!
//! Run with: `cargo run --release -p qdpm-bench --bin frontier_dvfs --
//! [--threads N]`

use qdpm_bench::{save_results, threads_from_args};
use qdpm_device::presets;
use qdpm_sim::experiment::{
    frontier_gap_summary, frontier_rows_to_tsv, run_dvfs_frontier, FrontierParams,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let power = presets::three_state_dvfs();
    let service = presets::default_service();
    let params = FrontierParams::default();
    let threads = threads_from_args();
    eprintln!(
        "frontier: {} agent + {} oracle points on {} thread(s)",
        params.penalties.len(),
        params.oracle_perf_weights.len(),
        threads
    );

    let rows = run_dvfs_frontier(&power, &service, &params, threads)?;

    let mut out = String::new();
    out.push_str(
        "# frontier_dvfs (T-DVFS): energy vs deadline-miss-rate, \
         q-dpm joint sleep+dvfs agent vs solved mdp oracle\n",
    );
    out.push_str(&format!(
        "# scenario: three-state-dvfs, bernoulli(p={}), deadlines uniform[3,12], \
         queue cap {}, seed {}\n",
        params.arrival_p, params.queue_cap, params.seed
    ));
    out.push_str(&frontier_rows_to_tsv(&rows));
    let (mean_gap, worst_gap, matched) = frontier_gap_summary(&rows);
    out.push_str(&format!(
        "# gap: q-dpm energy within mean {mean_gap:.3}x / worst {worst_gap:.3}x of the \
         oracle frontier at matched miss rate (tol 0.02) over {matched} matched point(s)\n"
    ));
    print!("{out}");
    if let Some(path) = save_results("frontier_dvfs.tsv", &out) {
        eprintln!("saved {}", path.display());
    }
    Ok(())
}

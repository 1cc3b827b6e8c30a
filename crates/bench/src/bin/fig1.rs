//! F1 — regenerates paper Fig. 1 ("Convergence on Optimal Policy").
//!
//! Emits the windowed cost and energy-reduction series of Q-DPM learning
//! from scratch alongside the model-known optimal policy simulated on the
//! same arrival sequence, plus the analytic optimal/always-on gains.
//!
//! Run with: `cargo run --release -p qdpm-bench --bin fig1`

use qdpm_bench::{save_results, standard_device};
use qdpm_sim::experiment::{
    convergence_ratios_over_seeds, mean_and_sd, run_convergence, tail_mean_cost, ConvergenceParams,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (power, service) = standard_device();
    let params = ConvergenceParams::default();
    eprintln!(
        "fig1: bernoulli p={}, horizon {}, window {}",
        params.arrival_p, params.horizon, params.window
    );
    let report = run_convergence(&power, &service, &params)?;

    let mut out = String::new();
    out.push_str(&format!(
        "# fig1 convergence | optimal_gain={:.6} always_on_gain={:.6} final_ratio={:.4}\n",
        report.optimal_gain, report.always_on_gain, report.final_ratio
    ));
    out.push_str("end\tqdpm_cost\tqdpm_reduction\toptimal_cost\toptimal_reduction\toptimal_gain\n");
    for (q, o) in report.qdpm.iter().zip(&report.optimal) {
        out.push_str(&format!(
            "{}\t{:.6}\t{:.6}\t{:.6}\t{:.6}\t{:.6}\n",
            q.end,
            q.cost_per_slice,
            q.energy_reduction,
            o.cost_per_slice,
            o.energy_reduction,
            report.optimal_gain
        ));
    }
    print!("{out}");
    if let Some(path) = save_results("fig1_convergence.tsv", &out) {
        eprintln!("saved {}", path.display());
    }
    eprintln!(
        "summary: qdpm tail cost {:.4} vs optimal gain {:.4} (ratio {:.3}); always-on {:.4}",
        tail_mean_cost(&report.qdpm, 10),
        report.optimal_gain,
        tail_mean_cost(&report.qdpm, 10) / report.optimal_gain,
        report.always_on_gain
    );
    // Seed replication: the dispersion behind the convergence claim.
    let ratios =
        convergence_ratios_over_seeds(&power, &service, &params, &[7, 11, 23, 42, 77], 10, 1)?;
    let (mean, sd) = mean_and_sd(&ratios);
    eprintln!(
        "replication over 5 seeds: tail/optimal ratio {:.3} +/- {:.3} ({:?})",
        mean,
        sd,
        ratios
            .iter()
            .map(|r| (r * 1000.0).round() / 1000.0)
            .collect::<Vec<_>>()
    );
    Ok(())
}

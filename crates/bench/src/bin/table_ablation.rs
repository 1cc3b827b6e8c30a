//! Ablations over the agent's design choices: learning-rate
//! schedule, exploration strategy, state-encoding resolution, and the
//! perf-weight of the reward.
//!
//! Each row: steady-state cost after a fixed training budget on the
//! standard stationary scenario, plus the cost ratio to the analytic
//! optimum. Variants are independent cells, so they run on the
//! deterministic parallel runner — output order (and content) is identical
//! at any worker count.
//!
//! Run with: `cargo run --release -p qdpm-bench --bin table_ablation --
//! [--threads N]`

use qdpm_bench::{save_results, standard_device, threads_from_args};
use qdpm_core::{Exploration, LearningRate, QDpmAgent, QDpmConfig, RewardWeights};
use qdpm_sim::experiment::optimal_gain;
use qdpm_sim::parallel::run_indexed;
use qdpm_sim::{SimConfig, Simulator};
use qdpm_workload::WorkloadSpec;

fn steady_cost(config: QDpmConfig) -> Result<f64, String> {
    let (power, service) = standard_device();
    let agent = QDpmAgent::new(&power, config).map_err(|e| e.to_string())?;
    let mut sim = Simulator::new(
        power,
        service,
        WorkloadSpec::bernoulli(0.08)
            .map_err(|e| e.to_string())?
            .build(),
        Box::new(agent),
        SimConfig {
            seed: 13,
            ..SimConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    sim.run(200_000);
    Ok(sim.run(120_000).avg_cost())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (power, service) = standard_device();
    let weights = RewardWeights::default();
    let optimum = optimal_gain(&power, &service, 0.08, 8, &weights)?;

    let base = QDpmConfig::default();
    let variants: Vec<(&str, QDpmConfig)> = vec![
        ("baseline (const lr 0.1, eps 0.05)", base.clone()),
        (
            "lr const 0.5",
            QDpmConfig {
                learning_rate: LearningRate::Constant(0.5),
                ..base.clone()
            },
        ),
        (
            "lr visit-decay 0.7",
            QDpmConfig {
                learning_rate: LearningRate::VisitDecay { omega: 0.7 },
                ..base.clone()
            },
        ),
        (
            "lr global-decay c=5000",
            QDpmConfig {
                learning_rate: LearningRate::GlobalDecay { c: 5000.0 },
                ..base.clone()
            },
        ),
        (
            "eps 0.2",
            QDpmConfig {
                exploration: Exploration::EpsilonGreedy { epsilon: 0.2 },
                ..base.clone()
            },
        ),
        (
            "eps decaying 0.3->0.005",
            QDpmConfig {
                exploration: Exploration::DecayingEpsilon {
                    epsilon0: 0.3,
                    decay: 0.99996,
                    min_epsilon: 0.005,
                },
                ..base.clone()
            },
        ),
        (
            "boltzmann T=0.5",
            QDpmConfig {
                exploration: Exploration::Boltzmann { temperature: 0.5 },
                ..base.clone()
            },
        ),
        (
            "encoder + idle buckets",
            QDpmConfig {
                idle_thresholds: vec![2, 8, 32],
                ..base.clone()
            },
        ),
        (
            "discount 0.95 (short horizon)",
            QDpmConfig {
                discount: 0.95,
                ..base.clone()
            },
        ),
        (
            "perf weight 0.5",
            QDpmConfig {
                weights: RewardWeights::new(1.0, 0.5, 20.0)?,
                ..base.clone()
            },
        ),
    ];

    let threads = threads_from_args();
    eprintln!(
        "ablation: {} variants on {threads} thread(s)",
        variants.len()
    );
    let costs = run_indexed(&variants, threads, |_, (_, cfg)| steady_cost(cfg.clone()));

    let mut out = String::new();
    out.push_str(&format!(
        "# table_ablation | stationary p=0.08, optimum gain {optimum:.5}\n"
    ));
    out.push_str("variant\tsteady_cost\tratio_to_optimal\n");
    for ((name, _), cost) in variants.iter().zip(costs) {
        let cost = cost?;
        out.push_str(&format!("{name}\t{cost:.5}\t{:.3}\n", cost / optimum));
        eprintln!("{name}: {cost:.5} ({:.3}x)", cost / optimum);
    }
    print!("{out}");
    if let Some(path) = save_results("table_ablation.tsv", &out) {
        eprintln!("saved {}", path.display());
    }
    Ok(())
}

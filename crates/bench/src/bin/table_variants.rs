//! Learner-variant comparison: Watkins (the paper) vs SARSA, Double Q, and
//! Watkins Q(lambda) eligibility traces.
//!
//! Two scenarios: the standard three-state device (short transients) and
//! the IBM-HDD (20-30-slice uncontrollable transients), where traces are
//! expected to accelerate credit assignment. Reported: cost during the
//! learning phase (tracks speed) and at steady state (tracks asymptote),
//! both as ratios to the analytic optimum.
//!
//! Learner variants are independent cells, so each scenario's variant set
//! runs on the deterministic parallel runner (`qdpm_sim::parallel`) —
//! identical output at any worker count.
//!
//! Run with: `cargo run --release -p qdpm-bench --bin table_variants --
//! [--threads N]`

use qdpm_bench::{save_results, standard_device, threads_from_args};
use qdpm_core::{
    DoubleQLearner, Exploration, GenericQDpmAgent, PowerManager, QDpmConfig, QLambdaLearner,
    QLearner, RewardWeights, SarsaLearner,
};
use qdpm_device::{presets, PowerModel, ServiceModel};
use qdpm_sim::experiment::optimal_gain;
use qdpm_sim::parallel::run_indexed;
use qdpm_sim::{SimConfig, Simulator};
use qdpm_workload::WorkloadSpec;

struct Scenario {
    name: &'static str,
    power: PowerModel,
    service: ServiceModel,
    arrival_p: f64,
    train: u64,
    evaluate: u64,
}

fn exploration(train: u64) -> Exploration {
    let eps0: f64 = 0.4;
    let min_epsilon = 0.005;
    Exploration::DecayingEpsilon {
        epsilon0: eps0,
        decay: (min_epsilon / eps0).powf(1.0 / (0.7 * train as f64)),
        min_epsilon,
    }
}

fn run_variant(
    scenario: &Scenario,
    learner: &dyn MakeLearner,
) -> Result<(String, f64, f64), String> {
    let config = QDpmConfig {
        exploration: exploration(scenario.train),
        ..QDpmConfig::default()
    };
    let encoder = config
        .encoder_for(&scenario.power)
        .map_err(|e| e.to_string())?;
    let (name, pm) = learner.make(
        &scenario.power,
        &config,
        encoder.n_states(),
        scenario.power.n_states(),
    )?;
    let mut sim = Simulator::new(
        scenario.power.clone(),
        scenario.service,
        WorkloadSpec::bernoulli(scenario.arrival_p)
            .map_err(|e| e.to_string())?
            .build(),
        pm,
        SimConfig {
            seed: 17,
            ..SimConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let learning = sim.run(scenario.train);
    let steady = sim.run(scenario.evaluate);
    Ok((name, learning.avg_cost(), steady.avg_cost()))
}

/// Factory so each variant builds its own learner sized to the scenario's
/// encoder. `Sync` because the factories are shared across the parallel
/// runner's workers; errors are `String` so results are `Send`.
trait MakeLearner: Sync {
    fn make(
        &self,
        power: &PowerModel,
        config: &QDpmConfig,
        n_states: usize,
        n_actions: usize,
    ) -> Result<(String, Box<dyn PowerManager>), String>;
}

struct Watkins;
struct Sarsa;
struct DoubleQ;
struct QLambda(f64);

impl MakeLearner for Watkins {
    fn make(
        &self,
        power: &PowerModel,
        config: &QDpmConfig,
        n_states: usize,
        n_actions: usize,
    ) -> Result<(String, Box<dyn PowerManager>), String> {
        let l = QLearner::new(
            n_states,
            n_actions,
            config.discount,
            config.learning_rate,
            config.exploration,
        )
        .map_err(|e| e.to_string())?;
        Ok((
            "watkins-q (paper)".into(),
            Box::new(GenericQDpmAgent::with_learner(power, config, l).map_err(|e| e.to_string())?),
        ))
    }
}

impl MakeLearner for Sarsa {
    fn make(
        &self,
        power: &PowerModel,
        config: &QDpmConfig,
        n_states: usize,
        n_actions: usize,
    ) -> Result<(String, Box<dyn PowerManager>), String> {
        let l = SarsaLearner::new(
            n_states,
            n_actions,
            config.discount,
            config.learning_rate,
            config.exploration,
        )
        .map_err(|e| e.to_string())?;
        Ok((
            "sarsa".into(),
            Box::new(GenericQDpmAgent::with_learner(power, config, l).map_err(|e| e.to_string())?),
        ))
    }
}

impl MakeLearner for DoubleQ {
    fn make(
        &self,
        power: &PowerModel,
        config: &QDpmConfig,
        n_states: usize,
        n_actions: usize,
    ) -> Result<(String, Box<dyn PowerManager>), String> {
        let l = DoubleQLearner::new(
            n_states,
            n_actions,
            config.discount,
            config.learning_rate,
            config.exploration,
        )
        .map_err(|e| e.to_string())?;
        Ok((
            "double-q".into(),
            Box::new(GenericQDpmAgent::with_learner(power, config, l).map_err(|e| e.to_string())?),
        ))
    }
}

impl MakeLearner for QLambda {
    fn make(
        &self,
        power: &PowerModel,
        config: &QDpmConfig,
        n_states: usize,
        n_actions: usize,
    ) -> Result<(String, Box<dyn PowerManager>), String> {
        let l = QLambdaLearner::new(
            n_states,
            n_actions,
            config.discount,
            self.0,
            config.learning_rate,
            config.exploration,
        )
        .map_err(|e| e.to_string())?;
        Ok((
            format!("q(lambda={})", self.0),
            Box::new(GenericQDpmAgent::with_learner(power, config, l).map_err(|e| e.to_string())?),
        ))
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (std_power, std_service) = standard_device();
    let scenarios = [
        Scenario {
            name: "three-state p=0.08",
            power: std_power,
            service: std_service,
            arrival_p: 0.08,
            train: 200_000,
            evaluate: 120_000,
        },
        Scenario {
            name: "ibm-hdd p=0.05",
            power: presets::ibm_hdd(),
            service: std_service,
            arrival_p: 0.05,
            train: 600_000,
            evaluate: 200_000,
        },
    ];

    let threads = threads_from_args();
    eprintln!("variants on {threads} thread(s)");
    let mut out = String::new();
    out.push_str("# table_variants: learner algorithms vs the analytic optimum\n");
    out.push_str("scenario\tvariant\tlearning_cost\tsteady_cost\tsteady_ratio\n");
    let weights = RewardWeights::default();
    for scenario in &scenarios {
        let optimum = optimal_gain(
            &scenario.power,
            &scenario.service,
            scenario.arrival_p,
            8,
            &weights,
        )?;
        let variants: Vec<Box<dyn MakeLearner>> = vec![
            Box::new(Watkins),
            Box::new(Sarsa),
            Box::new(DoubleQ),
            Box::new(QLambda(0.5)),
            Box::new(QLambda(0.9)),
        ];
        let results = run_indexed(&variants, threads, |_, v| run_variant(scenario, v.as_ref()));
        for result in results {
            let (name, learning, steady) = result?;
            out.push_str(&format!(
                "{}\t{}\t{:.5}\t{:.5}\t{:.3}\n",
                scenario.name,
                name,
                learning,
                steady,
                steady / optimum
            ));
            eprintln!(
                "{} / {name}: learn {learning:.4} steady {steady:.4} ({:.3}x opt)",
                scenario.name,
                steady / optimum
            );
        }
    }
    print!("{out}");
    if let Some(path) = save_results("table_variants.tsv", &out) {
        eprintln!("saved {}", path.display());
    }
    Ok(())
}

//! The load-bearing contract test: the simulator and the exact DTMDP
//! builder implement *identical* step semantics.
//!
//! For a fixed policy, the long-run average cost measured by simulation
//! must match the policy's analytic average cost computed on the compiled
//! MDP (gain from the bias/gain linear system). If these diverge, the
//! "optimal" baseline of Fig. 1 would be meaningless.

use qdpm::device::{presets, PowerModel, ServiceModel};
use qdpm::mdp::{build_dpm_mdp, solvers, CostWeights, DeterministicPolicy};
use qdpm::sim::{policies::MdpPolicyController, SimConfig, Simulator};
use qdpm::workload::{MarkovArrivalModel, WorkloadSpec};
use qdpm_core::RewardWeights;

const HORIZON: u64 = 400_000;
/// Statistical tolerance: long-run averages over 400k slices.
const REL_TOL: f64 = 0.05;

fn measured_vs_analytic(
    power: &PowerModel,
    service: &ServiceModel,
    arrival_p: f64,
    policy_kind: &str,
) -> (f64, f64) {
    let weights = RewardWeights::default();
    let arrivals = MarkovArrivalModel::bernoulli(arrival_p).unwrap();
    let model = build_dpm_mdp(power, service, &arrivals, 8, weights.drop_penalty).unwrap();
    let cost = model
        .mdp
        .combined_cost(CostWeights::new(weights.energy, weights.perf).unwrap());

    // Pick a policy to compare under.
    let policy: DeterministicPolicy = match policy_kind {
        "optimal" => {
            solvers::relative_value_iteration(&model.mdp, &cost, 1e-10, 500_000)
                .unwrap()
                .policy
        }
        "always-serve" => {
            let serve = power.serving_state().index();
            DeterministicPolicy::new(
                (0..model.mdp.n_states())
                    .map(|s| {
                        let (_, dev, _) = model.space.decompose(s);
                        let legal = model.space.legal_actions(dev);
                        legal
                            .iter()
                            .copied()
                            .find(|&a| a == serve)
                            .unwrap_or(legal[0])
                    })
                    .collect(),
            )
        }
        other => panic!("unknown policy kind {other}"),
    };

    let (analytic_gain, _) = solvers::evaluate_policy_average(&model.mdp, &cost, &policy).unwrap();

    let controller = MdpPolicyController::deterministic(model.space.clone(), policy);
    let mut sim = Simulator::new(
        power.clone(),
        *service,
        WorkloadSpec::bernoulli(arrival_p).unwrap().build(),
        Box::new(controller),
        SimConfig {
            queue_cap: 8,
            weights,
            seed: 1234,
            expose_sr_mode: false,
            ..SimConfig::default()
        },
    )
    .unwrap();
    let stats = sim.run(HORIZON);
    (stats.avg_cost(), analytic_gain)
}

#[test]
fn optimal_policy_measured_cost_matches_gain_light_load() {
    let power = presets::three_state_generic();
    let service = presets::default_service();
    let (measured, analytic) = measured_vs_analytic(&power, &service, 0.05, "optimal");
    assert!(
        (measured - analytic).abs() / analytic < REL_TOL,
        "measured {measured} vs analytic {analytic}"
    );
}

#[test]
fn optimal_policy_measured_cost_matches_gain_heavy_load() {
    let power = presets::three_state_generic();
    let service = presets::default_service();
    let (measured, analytic) = measured_vs_analytic(&power, &service, 0.4, "optimal");
    assert!(
        (measured - analytic).abs() / analytic < REL_TOL,
        "measured {measured} vs analytic {analytic}"
    );
}

#[test]
fn always_serve_policy_matches_gain() {
    let power = presets::three_state_generic();
    let service = presets::default_service();
    let (measured, analytic) = measured_vs_analytic(&power, &service, 0.2, "always-serve");
    assert!(
        (measured - analytic).abs() / analytic < REL_TOL,
        "measured {measured} vs analytic {analytic}"
    );
}

#[test]
fn equivalence_holds_on_two_state_device() {
    let power = presets::two_state(1.0, 0.05, 2, 0.8);
    let service = presets::default_service();
    let (measured, analytic) = measured_vs_analytic(&power, &service, 0.1, "optimal");
    assert!(
        (measured - analytic).abs() / analytic.max(1e-9) < REL_TOL,
        "measured {measured} vs analytic {analytic}"
    );
}

#[test]
fn equivalence_holds_on_hdd_preset() {
    let power = presets::ibm_hdd();
    let service = presets::default_service();
    let (measured, analytic) = measured_vs_analytic(&power, &service, 0.05, "optimal");
    assert!(
        (measured - analytic).abs() / analytic.max(1e-9) < REL_TOL,
        "measured {measured} vs analytic {analytic}"
    );
}

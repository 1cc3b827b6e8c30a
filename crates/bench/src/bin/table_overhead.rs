//! T1 and T3 — the paper's efficiency claims, as two tables.
//!
//! "Even on Pentium III 800MHz PC, the widely applied linear programming
//! policy optimization runs extremely slow. [...] Apparently the run time
//! complexity of Q-DPM is very low."
//!
//! T1: for growing DPM state spaces (queue capacity sweep), measures
//! wall-clock time of: one full LP policy optimization, one policy
//! iteration, one value iteration, versus ONE Q-DPM decide+learn step —
//! the work each approach performs to "refresh" its policy.
//!
//! T3: what each power manager costs the host CPU every time slice
//! ("feasible to implement on almost any low end systems"), including the
//! model-based pipeline's always-on estimator and detector with its
//! re-solve switched off.
//!
//! Both print to stdout only: they are wall-clock times of this host, not
//! a record, so nothing is written under `results/`.
//!
//! Run with: `cargo run --release -p qdpm-bench --bin table_overhead`

use std::time::Instant;

use qdpm_bench::standard_device;
use qdpm_core::{
    FuzzyConfig, FuzzyQDpmAgent, Observation, PowerManager, QDpmAgent, QDpmConfig, QosConfig,
    QosQDpmAgent, StepOutcome,
};
use qdpm_device::DeviceMode;
use qdpm_mdp::{build_dpm_mdp, lp, solvers, CostWeights};
use qdpm_sim::{policies, AdaptiveConfig, ModelBasedAdaptive};
use qdpm_workload::MarkovArrivalModel;
use rand::SeedableRng;

fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64() * 1e6) // microseconds
}

/// Nanoseconds per `decide` + `observe` pair on a hot manager, busy with
/// one queued request: 1 000 warm-up pairs, then a timed batch.
fn step_ns<P: PowerManager + ?Sized>(pm: &mut P) -> f64 {
    let (power, _) = standard_device();
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let obs = Observation {
        device_mode: DeviceMode::Operational(power.highest_power_state()),
        queue_len: 1,
        idle_slices: 0,
        sr_mode_hint: None,
    };
    let outcome = StepOutcome {
        energy: 1.0,
        queue_len: 1,
        dropped: 0,
        completed: 0,
        arrivals: 1,
        deadline_misses: 0,
    };
    for _ in 0..1_000 {
        let _ = pm.decide(&obs, &mut rng);
        pm.observe(&outcome, &obs);
    }
    let iters = 100_000u32;
    let (_, batch_us) = time(|| {
        for _ in 0..iters {
            let _ = pm.decide(&obs, &mut rng);
            pm.observe(&outcome, &obs);
        }
    });
    batch_us * 1e3 / f64::from(iters)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (power, service) = standard_device();
    let arrivals = MarkovArrivalModel::bernoulli(0.1)?;

    let mut out = String::new();
    out.push_str("# table_overhead (T1): policy refresh cost, microseconds\n");
    out.push_str(
        "queue_cap\tn_states\tlp_us\tlp_pivots\tpi_us\tvi_us\tqdpm_step_us\tlp_over_qstep\n",
    );

    for queue_cap in [4usize, 8, 16, 32, 48] {
        let model = build_dpm_mdp(&power, &service, &arrivals, queue_cap, 20.0)?;
        let cost = model.mdp.combined_cost(CostWeights::default());
        let n = model.mdp.n_states();

        let (lp_sol, lp_us) = time(|| lp::lp_solve_discounted(&model.mdp, &cost, 0.95));
        let lp_sol = lp_sol?;
        let (_, pi_us) = time(|| solvers::policy_iteration(&model.mdp, &cost, 0.95).unwrap());
        let (_, vi_us) = time(|| {
            solvers::value_iteration(
                &model.mdp,
                &cost,
                solvers::SolveOptions {
                    discount: 0.95,
                    tol: 1e-9,
                    max_iter: 1_000_000,
                },
            )
            .unwrap()
        });

        // One Q-DPM step, timed on the concrete agent (no dynamic dispatch).
        let mut agent = QDpmAgent::new(
            &power,
            QDpmConfig {
                queue_cap,
                ..QDpmConfig::default()
            },
        )?;
        let qstep_us = step_ns(&mut agent) / 1e3;

        out.push_str(&format!(
            "{queue_cap}\t{n}\t{lp_us:.0}\t{}\t{pi_us:.0}\t{vi_us:.0}\t{qstep_us:.3}\t{:.0}\n",
            lp_sol.pivots,
            lp_us / qstep_us
        ));
        eprintln!("queue_cap {queue_cap} ({n} states): lp {lp_us:.0}us, pi {pi_us:.0}us, vi {vi_us:.0}us, q-step {qstep_us:.3}us");
    }

    let managers: Vec<(&str, Box<dyn PowerManager>)> = vec![
        (
            "q_dpm",
            Box::new(QDpmAgent::new(&power, QDpmConfig::default())?),
        ),
        (
            "qos_q_dpm",
            Box::new(QosQDpmAgent::new(&power, QosConfig::default())?),
        ),
        (
            "fuzzy_q_dpm",
            Box::new(FuzzyQDpmAgent::new(&power, FuzzyConfig::standard(8)?)?),
        ),
        (
            "fixed_timeout",
            Box::new(policies::FixedTimeout::break_even(&power)),
        ),
        (
            "model_based_estimator",
            Box::new(ModelBasedAdaptive::new(
                &power,
                &service,
                AdaptiveConfig {
                    // Never alarm: the always-on estimator + detector
                    // overhead alone, not a re-solve.
                    ph_threshold: 1e12,
                    ..AdaptiveConfig::default()
                },
            )?),
        ),
    ];
    out.push_str("\n# per-slice decide+observe cost (T3), nanoseconds\n");
    out.push_str("policy\tns_per_slice\n");
    for (name, mut pm) in managers {
        out.push_str(&format!("{name}\t{:.1}\n", step_ns(pm.as_mut())));
    }
    print!("{out}");
    Ok(())
}

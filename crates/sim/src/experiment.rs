//! High-level experiment runners reproducing the paper's evaluation.
//!
//! Each runner returns plain data; the `qdpm-bench` binaries format it as
//! TSV for plotting. The experiment IDs (F1, F2, T4, ...) are indexed in
//! the README's "Regenerating the paper's figures and tables".

use rand::rngs::StdRng;
use rand::SeedableRng;

use qdpm_core::{Observation, PowerManager, QDpmAgent, QDpmConfig, RewardWeights, StepOutcome};
use qdpm_device::{DeviceMode, PowerModel, ServiceModel, Step};
use qdpm_mdp::{build_dpm_mdp, solvers, CostWeights};
use qdpm_workload::{PiecewiseStationary, RequestGenerator, Segment, WorkloadSpec};

use crate::parallel::{self, GridParams, ScenarioCell, ScenarioGrid, ScenarioWorkload};
use crate::policies::MdpPolicyController;
use crate::{SimConfig, SimError, Simulator, WindowPoint};

/// Result of the Fig. 1 convergence experiment.
#[derive(Debug, Clone)]
pub struct ConvergenceReport {
    /// Windowed series of the learning Q-DPM agent.
    pub qdpm: Vec<WindowPoint>,
    /// Windowed series of the model-known optimal policy, simulated on the
    /// same arrival sequence.
    pub optimal: Vec<WindowPoint>,
    /// Analytic long-run average cost of the optimal policy (RVI gain).
    pub optimal_gain: f64,
    /// Analytic long-run average cost of always-on.
    pub always_on_gain: f64,
    /// Final-window cost ratio `qdpm / optimal` (1.0 = fully converged).
    pub final_ratio: f64,
}

/// Parameters of the Fig. 1 convergence experiment.
#[derive(Debug, Clone)]
pub struct ConvergenceParams {
    /// Stationary arrival probability (Bernoulli requester).
    pub arrival_p: f64,
    /// Slices to simulate.
    pub horizon: Step,
    /// Window width of the reported series.
    pub window: Step,
    /// Queue capacity.
    pub queue_cap: usize,
    /// Reward/cost weights.
    pub weights: RewardWeights,
    /// Master seed.
    pub seed: u64,
    /// Q-DPM configuration (encoder cap is overridden to `queue_cap`).
    pub agent: QDpmConfig,
}

impl Default for ConvergenceParams {
    fn default() -> Self {
        ConvergenceParams {
            arrival_p: 0.05,
            horizon: 200_000,
            window: 2_000,
            queue_cap: 8,
            weights: RewardWeights::default(),
            seed: 7,
            agent: QDpmConfig {
                // Stationary convergence (Fig. 1) uses decaying exploration:
                // constant epsilon keeps paying random wake-ups forever,
                // bounding the online cost away from the optimum. (Fig. 2
                // keeps the paper's constant epsilon — continual
                // exploration is exactly what makes Q-DPM track parameter
                // changes.)
                exploration: qdpm_core::Exploration::DecayingEpsilon {
                    epsilon0: 0.3,
                    decay: 0.99996,
                    min_epsilon: 0.005,
                },
                ..QDpmConfig::default()
            },
        }
    }
}

/// Runs the Fig. 1 experiment: Q-DPM learning from scratch on a stationary
/// workload vs the analytic optimum with the model known in advance.
///
/// # Errors
///
/// Propagates construction and solver errors.
pub fn run_convergence(
    power: &PowerModel,
    service: &ServiceModel,
    params: &ConvergenceParams,
) -> Result<ConvergenceReport, SimError> {
    let spec = WorkloadSpec::bernoulli(params.arrival_p)?;
    let arrivals = spec.markov_model().expect("bernoulli is markovian");

    // Analytic optimum (model known a priori).
    let model = build_dpm_mdp(
        power,
        service,
        &arrivals,
        params.queue_cap,
        params.weights.drop_penalty,
    )?;
    let cost = model.mdp.combined_cost(
        CostWeights::new(params.weights.energy, params.weights.perf).map_err(SimError::Mdp)?,
    );
    let avg = solvers::relative_value_iteration(&model.mdp, &cost, 1e-9, 500_000)
        .map_err(SimError::Mdp)?;

    // Always-on gain: run the same RVI restricted via its policy? Simpler:
    // evaluate the always-on policy exactly.
    let serve = power.serving_state().index();
    let always_on = qdpm_mdp::DeterministicPolicy::new(
        (0..model.mdp.n_states())
            .map(|s| {
                let (_, dev, _) = model.space.decompose(s);
                // In transients the only legal action is the target.
                let legal = model.space.legal_actions(dev);
                legal
                    .iter()
                    .copied()
                    .find(|&a| a == serve)
                    .unwrap_or(legal[0])
            })
            .collect(),
    );
    let (always_on_gain, _) =
        solvers::evaluate_policy_average(&model.mdp, &cost, &always_on).map_err(SimError::Mdp)?;

    // Simulate Q-DPM (learning online).
    let mut agent_cfg = params.agent.clone();
    agent_cfg.queue_cap = params.queue_cap;
    agent_cfg.weights = params.weights;
    let agent = QDpmAgent::new(power, agent_cfg)?;
    let sim_cfg = SimConfig {
        queue_cap: params.queue_cap,
        weights: params.weights,
        seed: params.seed,
        expose_sr_mode: false,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(
        power.clone(),
        *service,
        spec.build(),
        Box::new(agent),
        sim_cfg.clone(),
    )?;
    sim.attach_recorder(params.window);
    sim.run(params.horizon);
    let qdpm = sim.take_series();

    // Simulate the optimal policy on the identical arrival sequence.
    let controller = MdpPolicyController::deterministic(model.space.clone(), avg.policy.clone());
    let mut sim_opt = Simulator::new(
        power.clone(),
        *service,
        spec.build(),
        Box::new(controller),
        sim_cfg,
    )?;
    sim_opt.attach_recorder(params.window);
    sim_opt.run(params.horizon);
    let optimal = sim_opt.take_series();

    let final_ratio = match (qdpm.last(), optimal.last()) {
        (Some(q), Some(o)) if o.cost_per_slice > 0.0 => q.cost_per_slice / o.cost_per_slice,
        _ => f64::NAN,
    };
    Ok(ConvergenceReport {
        qdpm,
        optimal,
        optimal_gain: avg.gain,
        always_on_gain,
        final_ratio,
    })
}

/// Replicates the F1 convergence experiment over several seeds on up to
/// `threads` workers and returns each run's tail-cost ratio to the
/// analytic optimum — the dispersion behind the "approximates the
/// theoretically optimal policy" claim. Each seed's run is independent,
/// so the ratios are identical at any thread count (seed order is
/// preserved).
///
/// # Errors
///
/// Propagates construction and solver errors.
pub fn convergence_ratios_over_seeds(
    power: &PowerModel,
    service: &ServiceModel,
    params: &ConvergenceParams,
    seeds: &[u64],
    tail_windows: usize,
    threads: usize,
) -> Result<Vec<f64>, SimError> {
    parallel::run_indexed(seeds, threads, |_, &seed| {
        let run = ConvergenceParams {
            seed,
            ..params.clone()
        };
        let report = run_convergence(power, service, &run)?;
        Ok(ratio_to_gain(
            tail_mean_cost(&report.qdpm, tail_windows),
            report.optimal_gain,
        ))
    })
    .into_iter()
    .collect()
}

/// Mean and sample standard deviation of a ratio collection.
#[must_use]
pub fn mean_and_sd(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (f64::NAN, f64::NAN);
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    if xs.len() < 2 {
        return (mean, 0.0);
    }
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
    (mean, var.sqrt())
}

/// Result of the Fig. 2 rapid-response experiment.
#[derive(Debug, Clone)]
pub struct RapidResponseReport {
    /// Windowed series of Q-DPM.
    pub qdpm: Vec<WindowPoint>,
    /// Windowed series of the model-based adaptive pipeline.
    pub model_based: Vec<WindowPoint>,
    /// Windowed series of a clairvoyant per-segment optimal controller
    /// (knows each segment's true parameters, switches instantly).
    pub clairvoyant: Vec<WindowPoint>,
    /// Slice indices of the workload switching points (the vertical lines
    /// of Fig. 2).
    pub switch_points: Vec<Step>,
    /// Diagnostics from the model-based pipeline.
    pub model_based_resolves: u64,
}

/// Parameters of the Fig. 2 experiment.
#[derive(Debug, Clone)]
pub struct RapidResponseParams {
    /// The piecewise-stationary segments (duration, Bernoulli rate).
    pub segments: Vec<(Step, f64)>,
    /// Window width of the reported series.
    pub window: Step,
    /// Queue capacity.
    pub queue_cap: usize,
    /// Reward/cost weights.
    pub weights: RewardWeights,
    /// Master seed.
    pub seed: u64,
    /// Q-DPM configuration.
    pub agent: QDpmConfig,
    /// Model-based pipeline configuration.
    pub adaptive: crate::AdaptiveConfig,
}

impl Default for RapidResponseParams {
    fn default() -> Self {
        RapidResponseParams {
            segments: vec![
                (50_000, 0.02),
                (50_000, 0.25),
                (50_000, 0.05),
                (50_000, 0.15),
            ],
            window: 2_000,
            queue_cap: 8,
            weights: RewardWeights::default(),
            seed: 11,
            agent: QDpmConfig {
                // Tracking needs sustained exploration (the paper's constant
                // epsilon); 2% keeps the high-load exploration tax small.
                exploration: qdpm_core::Exploration::EpsilonGreedy { epsilon: 0.02 },
                ..QDpmConfig::default()
            },
            adaptive: crate::AdaptiveConfig::default(),
        }
    }
}

/// Runs the Fig. 2 experiment: Q-DPM vs the model-based adaptive pipeline
/// on a piecewise-stationary workload with marked switch points.
///
/// # Errors
///
/// Propagates construction and solver errors.
pub fn run_rapid_response(
    power: &PowerModel,
    service: &ServiceModel,
    params: &RapidResponseParams,
) -> Result<RapidResponseReport, SimError> {
    let mk_workload = || -> Result<PiecewiseStationary, SimError> {
        let segments = params
            .segments
            .iter()
            .map(|&(d, p)| Ok(Segment::new(d, WorkloadSpec::bernoulli(p)?)))
            .collect::<Result<Vec<_>, SimError>>()?;
        Ok(PiecewiseStationary::new(segments)?)
    };
    let switch_points = mk_workload()?.switch_points();
    let horizon: Step = params.segments.iter().map(|&(d, _)| d).sum();
    let sim_cfg = SimConfig {
        queue_cap: params.queue_cap,
        weights: params.weights,
        seed: params.seed,
        expose_sr_mode: false,
        ..SimConfig::default()
    };

    // Q-DPM.
    let mut agent_cfg = params.agent.clone();
    agent_cfg.queue_cap = params.queue_cap;
    agent_cfg.weights = params.weights;
    let agent = QDpmAgent::new(power, agent_cfg)?;
    let mut sim = Simulator::new(
        power.clone(),
        *service,
        Box::new(mk_workload()?),
        Box::new(agent),
        sim_cfg.clone(),
    )?;
    sim.attach_recorder(params.window);
    sim.run(horizon);
    let qdpm = sim.take_series();

    // Model-based adaptive pipeline.
    let mut adaptive_cfg = params.adaptive.clone();
    adaptive_cfg.queue_cap = params.queue_cap;
    adaptive_cfg.weights = params.weights;
    adaptive_cfg.initial_rate = params.segments[0].1;
    let adaptive = crate::ModelBasedAdaptive::new(power, service, adaptive_cfg.clone())?;
    let mut sim_mb = Simulator::new(
        power.clone(),
        *service,
        Box::new(mk_workload()?),
        Box::new(adaptive),
        sim_cfg.clone(),
    )?;
    sim_mb.attach_recorder(params.window);
    sim_mb.run(horizon);
    let model_based = sim_mb.take_series();
    let model_based_resolves = count_resolves(
        power,
        service,
        adaptive_cfg,
        &mut mk_workload()?,
        params.seed,
        horizon,
    )?;

    // Clairvoyant per-segment optimum: solve each segment offline, switch
    // policies exactly at the switch points. Each segment runs on a fresh
    // simulator (fresh device and queue state), which is accurate away
    // from the boundary slices.
    let mut clairvoyant_points: Vec<WindowPoint> = Vec::new();
    let mut offset: Step = 0;
    for &(duration, p) in &params.segments {
        let spec = WorkloadSpec::bernoulli(p)?;
        let arrivals = spec.markov_model().expect("bernoulli is markovian");
        let model = build_dpm_mdp(
            power,
            service,
            &arrivals,
            params.queue_cap,
            params.weights.drop_penalty,
        )?;
        let cost = model.mdp.combined_cost(
            CostWeights::new(params.weights.energy, params.weights.perf).map_err(SimError::Mdp)?,
        );
        let sol = solvers::relative_value_iteration(&model.mdp, &cost, 1e-9, 500_000)
            .map_err(SimError::Mdp)?;
        let controller =
            MdpPolicyController::deterministic(model.space.clone(), sol.policy.clone())
                .with_name("clairvoyant");
        let mut s = Simulator::new(
            power.clone(),
            *service,
            spec.build(),
            Box::new(controller),
            SimConfig {
                seed: params.seed.wrapping_add(offset),
                ..sim_cfg.clone()
            },
        )?;
        s.attach_recorder(params.window);
        s.run(duration);
        for mut p in s.take_series() {
            p.end += offset;
            clairvoyant_points.push(p);
        }
        offset += duration;
    }

    Ok(RapidResponseReport {
        qdpm,
        model_based,
        clairvoyant: clairvoyant_points,
        switch_points,
        model_based_resolves,
    })
}

/// Re-optimizations the model-based pipeline performs on `workload`'s
/// arrival stream over `horizon` slices. The simulated pipeline sits
/// type-erased inside its [`Simulator`], so an offline probe of the same
/// configuration is fed the arrivals alone, drawn from a stream seeded
/// like the simulator's workload stream.
fn count_resolves(
    power: &PowerModel,
    service: &ServiceModel,
    adaptive: crate::AdaptiveConfig,
    workload: &mut dyn RequestGenerator,
    seed: u64,
    horizon: Step,
) -> Result<u64, SimError> {
    let mut probe = crate::ModelBasedAdaptive::new(power, service, adaptive)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let serving = Observation {
        device_mode: DeviceMode::Operational(power.serving_state()),
        queue_len: 0,
        idle_slices: 0,
        sr_mode_hint: None,
    };
    for _ in 0..horizon {
        let outcome = StepOutcome {
            energy: 0.0,
            queue_len: 0,
            dropped: 0,
            completed: 0,
            arrivals: workload.next_arrivals(&mut rng),
            deadline_misses: 0,
        };
        probe.observe(&outcome, &serving);
    }
    Ok(probe.n_resolves)
}

/// Result of the F5 continuous-drift experiment.
#[derive(Debug, Clone)]
pub struct DriftReport {
    /// Windowed series of Q-DPM.
    pub qdpm: Vec<WindowPoint>,
    /// Windowed series of the model-based adaptive pipeline.
    pub model_based: Vec<WindowPoint>,
    /// Per-window clairvoyant bound: the optimal gain recomputed for the
    /// workload's true instantaneous rate at each window's midpoint.
    pub clairvoyant_gain: Vec<f64>,
    /// Detector alarms / re-optimizations performed by the pipeline.
    pub model_based_resolves: u64,
}

/// Parameters of the F5 continuous-drift experiment.
#[derive(Debug, Clone)]
pub struct DriftParams {
    /// Mean arrival probability of the sinusoid.
    pub base: f64,
    /// Swing around the mean.
    pub amplitude: f64,
    /// Slices per drift cycle.
    pub period: Step,
    /// Total horizon in slices.
    pub horizon: Step,
    /// Window width of the reported series.
    pub window: Step,
    /// Queue capacity.
    pub queue_cap: usize,
    /// Reward/cost weights.
    pub weights: RewardWeights,
    /// Master seed.
    pub seed: u64,
    /// Q-DPM configuration.
    pub agent: QDpmConfig,
    /// Model-based pipeline configuration.
    pub adaptive: crate::AdaptiveConfig,
}

impl Default for DriftParams {
    fn default() -> Self {
        DriftParams {
            base: 0.15,
            amplitude: 0.13,
            period: 40_000,
            horizon: 240_000,
            window: 2_000,
            queue_cap: 8,
            weights: RewardWeights::default(),
            seed: 23,
            agent: QDpmConfig {
                exploration: qdpm_core::Exploration::EpsilonGreedy { epsilon: 0.02 },
                ..QDpmConfig::default()
            },
            adaptive: crate::AdaptiveConfig::default(),
        }
    }
}

/// Runs the F5 experiment: continuously drifting arrival rate ("in most
/// real world systems parameters are undertaking continuous varying").
/// Q-DPM tracks by per-slice adaptation; the model-based pipeline's
/// detect -> estimate -> re-solve loop is permanently behind the drift.
///
/// # Errors
///
/// Propagates construction and solver errors.
pub fn run_drift(
    power: &PowerModel,
    service: &ServiceModel,
    params: &DriftParams,
) -> Result<DriftReport, SimError> {
    let spec = WorkloadSpec::Sinusoidal {
        base: params.base,
        amplitude: params.amplitude,
        period: params.period,
    };
    let sim_cfg = SimConfig {
        queue_cap: params.queue_cap,
        weights: params.weights,
        seed: params.seed,
        expose_sr_mode: false,
        ..SimConfig::default()
    };

    // Q-DPM.
    let mut agent_cfg = params.agent.clone();
    agent_cfg.queue_cap = params.queue_cap;
    agent_cfg.weights = params.weights;
    let agent = QDpmAgent::new(power, agent_cfg)?;
    let mut sim = Simulator::new(
        power.clone(),
        *service,
        spec.build(),
        Box::new(agent),
        sim_cfg.clone(),
    )?;
    sim.attach_recorder(params.window);
    sim.run(params.horizon);
    let qdpm = sim.take_series();

    // Model-based pipeline.
    let mut adaptive_cfg = params.adaptive.clone();
    adaptive_cfg.queue_cap = params.queue_cap;
    adaptive_cfg.weights = params.weights;
    adaptive_cfg.initial_rate = params.base;
    let adaptive = crate::ModelBasedAdaptive::new(power, service, adaptive_cfg.clone())?;
    let mut sim_mb = Simulator::new(
        power.clone(),
        *service,
        spec.build(),
        Box::new(adaptive),
        sim_cfg,
    )?;
    sim_mb.attach_recorder(params.window);
    sim_mb.run(params.horizon);
    let model_based = sim_mb.take_series();

    let model_based_resolves = count_resolves(
        power,
        service,
        adaptive_cfg,
        spec.build().as_mut(),
        params.seed,
        params.horizon,
    )?;

    // Per-window clairvoyant gain at the window-midpoint instantaneous rate.
    let mut clairvoyant_gain = Vec::with_capacity(qdpm.len());
    for p in &qdpm {
        let mid = p.end.saturating_sub(params.window / 2) as f64;
        let phase = 2.0 * std::f64::consts::PI * mid / params.period as f64;
        let rate = (params.base + params.amplitude * phase.sin()).clamp(0.0, 1.0);
        clairvoyant_gain.push(optimal_gain(
            power,
            service,
            rate,
            params.queue_cap,
            &params.weights,
        )?);
    }

    Ok(DriftReport {
        qdpm,
        model_based,
        clairvoyant_gain,
        model_based_resolves,
    })
}

/// One row of the T4 robustness sweep.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Device preset name.
    pub device: String,
    /// Workload label of the cell.
    pub workload: String,
    /// Mean arrival rate of the workload (`NaN` when not analytically
    /// defined).
    pub arrival_p: f64,
    /// Service completion probability (`NaN` for non-geometric services).
    pub service_p: f64,
    /// Analytic optimal average cost (RVI gain); `NaN` when the workload
    /// exports no Markovian reference model.
    pub optimal_gain: f64,
    /// Q-DPM measured average cost over the evaluation stretch.
    pub qdpm_cost: f64,
    /// Ratio `qdpm_cost / optimal_gain` (1.0 = optimal). `NaN` is the
    /// documented sentinel for a missing or degenerate (non-positive)
    /// reference gain — see [`ratio_to_gain`]; aggregate with
    /// [`sweep_ratio_summary`], which skips it.
    pub ratio: f64,
    /// Q-DPM energy reduction vs always-on over the evaluation stretch.
    pub energy_reduction: f64,
    /// Q-DPM mean waiting time of completed requests.
    pub mean_wait: f64,
    /// The cell's derived seed (reproducibility record).
    pub seed: u64,
}

/// Cost ratio `cost / gain`, guarded: returns the `NaN` sentinel when
/// `gain` is non-finite or non-positive (a degenerate model whose optimal
/// cost is zero, or a non-Markovian workload with no reference at all)
/// instead of dividing. Callers aggregating ratios must skip non-finite
/// values; [`sweep_ratio_summary`] does.
#[must_use]
pub fn ratio_to_gain(cost: f64, gain: f64) -> f64 {
    if gain.is_finite() && gain > 0.0 {
        cost / gain
    } else {
        f64::NAN
    }
}

/// Mean ratio, worst ratio and the count of cells with a *finite* ratio
/// (cells carrying the `NaN` no-reference sentinel are skipped rather than
/// silently poisoning the aggregate).
#[must_use]
pub fn sweep_ratio_summary(rows: &[SweepRow]) -> (f64, f64, usize) {
    let valid: Vec<f64> = rows
        .iter()
        .map(|r| r.ratio)
        .filter(|r| r.is_finite())
        .collect();
    if valid.is_empty() {
        return (f64::NAN, f64::NAN, 0);
    }
    let mean = valid.iter().sum::<f64>() / valid.len() as f64;
    let worst = valid.iter().cloned().fold(f64::MIN, f64::max);
    (mean, worst, valid.len())
}

/// Trains and evaluates Q-DPM on one scenario cell and compares it to the
/// cell's analytic reference (when one exists). This is the unit of work
/// of the parallel grid runner; it depends only on the cell's own content,
/// which is what makes parallel output byte-identical to serial.
///
/// # Errors
///
/// Propagates construction and solver errors.
pub fn run_sweep_cell(cell: &ScenarioCell) -> Result<SweepRow, SimError> {
    let reference =
        cell.kind
            .reference_gain(&cell.power, &cell.service, cell.queue_cap, &cell.weights)?;
    evaluate_cell(cell, reference.unwrap_or(f64::NAN))
}

/// [`run_sweep_cell`] with the analytic reference gain already solved
/// (`NaN` = no reference): lets [`run_grid`] share one RVI solve across
/// replicates of the same scenario instead of re-solving per cell.
fn evaluate_cell(cell: &ScenarioCell, gain: f64) -> Result<SweepRow, SimError> {
    // Exploration schedule scaled to the training budget: decay reaches
    // the floor at ~70% of training, leaving a near-greedy
    // evaluation-ready policy.
    let eps0: f64 = 0.4;
    let min_epsilon = 0.005;
    let decay = (min_epsilon / eps0).powf(1.0 / (0.7 * cell.train as f64).max(1.0));
    let agent = QDpmAgent::new(
        &cell.power,
        QDpmConfig {
            queue_cap: cell.queue_cap,
            weights: cell.weights,
            exploration: qdpm_core::Exploration::DecayingEpsilon {
                epsilon0: eps0,
                decay,
                min_epsilon,
            },
            ..QDpmConfig::default()
        },
    )?;
    let mut sim = Simulator::new(
        cell.power.clone(),
        cell.service,
        cell.kind.build()?,
        Box::new(agent),
        SimConfig {
            seed: cell.seed,
            weights: cell.weights,
            queue_cap: cell.queue_cap,
            mode: cell.engine_mode,
            ..SimConfig::default()
        },
    )?;
    sim.run(cell.train);
    let eval = sim.run(cell.evaluate);
    let p_on = cell.power.state(cell.power.highest_power_state()).power;
    Ok(SweepRow {
        device: cell.device.clone(),
        workload: cell.workload.clone(),
        arrival_p: cell.kind.mean_rate().unwrap_or(f64::NAN),
        service_p: cell.service.completion_probability().unwrap_or(f64::NAN),
        optimal_gain: gain,
        qdpm_cost: eval.avg_cost(),
        ratio: ratio_to_gain(eval.avg_cost(), gain),
        energy_reduction: eval.energy_reduction_vs(p_on),
        mean_wait: eval.mean_wait(),
        seed: cell.seed,
    })
}

/// Whether two cells describe the same scenario up to the seed — i.e.
/// replicates, which share one analytic reference gain.
fn same_scenario(a: &ScenarioCell, b: &ScenarioCell) -> bool {
    a.device == b.device
        && a.workload == b.workload
        && a.kind == b.kind
        && a.service == b.service
        && a.queue_cap == b.queue_cap
        && a.weights == b.weights
}

/// Runs every cell of a [`ScenarioGrid`] on `threads` workers and returns
/// the rows in cell order — byte-identical to the serial (`threads == 1`)
/// path at any worker count.
///
/// The analytic reference gain depends on everything in a cell *except*
/// its seed, so it is solved once per scenario and shared across that
/// scenario's replicates (RVI is deterministic; sharing cannot change any
/// row) instead of re-solving per cell.
///
/// # Errors
///
/// Propagates the first cell error in cell order.
pub fn run_grid(grid: &ScenarioGrid, threads: usize) -> Result<Vec<SweepRow>, SimError> {
    let cells = grid.cells();
    // Replicates are innermost and contiguous in `ScenarioGrid::cartesian`,
    // so a cell's scenario representative sits `replicate` slots back;
    // `same_scenario` re-checks rather than trusting the layout.
    let base_of: Vec<usize> = cells
        .iter()
        .enumerate()
        .map(|(i, cell)| {
            let base = i.saturating_sub(cell.replicate);
            if same_scenario(cell, &cells[base]) {
                base
            } else {
                i
            }
        })
        .collect();
    let bases: Vec<usize> = base_of
        .iter()
        .enumerate()
        .filter(|&(i, &base)| i == base)
        .map(|(i, _)| i)
        .collect();
    let solved = parallel::run_indexed(&bases, threads, |_, &base| {
        let cell = &cells[base];
        cell.kind
            .reference_gain(&cell.power, &cell.service, cell.queue_cap, &cell.weights)
    });
    let mut gain_of_base = vec![f64::NAN; cells.len()];
    for (&base, reference) in bases.iter().zip(solved) {
        gain_of_base[base] = reference?.unwrap_or(f64::NAN);
    }
    parallel::run_indexed(cells, threads, |i, cell| {
        evaluate_cell(cell, gain_of_base[base_of[i]])
    })
    .into_iter()
    .collect()
}

/// Builds the classic T4 grid — devices × Bernoulli arrival rates ×
/// geometric service rates, one replicate — with per-cell derived seeds
/// (`parallel::derive_cell_seed(seed, index)`; every cell draws an
/// independent arrival stream instead of sharing the master seed).
///
/// # Errors
///
/// Propagates workload/service validation errors.
pub fn bernoulli_sweep_grid(
    devices: &[(String, PowerModel)],
    arrival_ps: &[f64],
    service_ps: &[f64],
    train: Step,
    evaluate: Step,
    seed: u64,
) -> Result<ScenarioGrid, SimError> {
    let workloads = arrival_ps
        .iter()
        .map(|&p| {
            Ok((
                format!("bernoulli(p={p})"),
                ScenarioWorkload::Stationary(WorkloadSpec::bernoulli(p)?),
            ))
        })
        .collect::<Result<Vec<_>, SimError>>()?;
    let services = service_ps
        .iter()
        .map(|&sp| Ok(ServiceModel::geometric(sp)?))
        .collect::<Result<Vec<_>, SimError>>()?;
    Ok(ScenarioGrid::cartesian(
        devices,
        &workloads,
        &services,
        1,
        &GridParams {
            queue_cap: 8,
            weights: RewardWeights::default(),
            train,
            evaluate,
            master_seed: seed,
            ..GridParams::default()
        },
    ))
}

/// Runs the "many cases" sweep (T4) on up to `threads` workers: Q-DPM
/// trained then evaluated on a grid of devices and workload/service
/// rates, each compared to its analytic optimum. The rows are
/// byte-identical at any worker count.
///
/// # Errors
///
/// Propagates construction and solver errors.
pub fn run_sweep(
    devices: &[(String, PowerModel)],
    arrival_ps: &[f64],
    service_ps: &[f64],
    train: Step,
    evaluate: Step,
    seed: u64,
    threads: usize,
) -> Result<Vec<SweepRow>, SimError> {
    let grid = bernoulli_sweep_grid(devices, arrival_ps, service_ps, train, evaluate, seed)?;
    run_grid(&grid, threads)
}

/// Formats sweep rows as the canonical T4 TSV body (header + one row per
/// cell). Shared by the `table_sweep` bin and the determinism suite so
/// "byte-identical TSV" is checked against the exact production format.
#[must_use]
pub fn sweep_rows_to_tsv(rows: &[SweepRow]) -> String {
    let mut out = String::from(
        "device\tworkload\tarrival_p\tservice_p\toptimal_gain\tqdpm_cost\tratio\tenergy_reduction\tmean_wait\tseed\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{}\t{}\t{:.4}\t{:.2}\t{:.5}\t{:.5}\t{:.3}\t{:.3}\t{:.2}\t{}\n",
            r.device,
            r.workload,
            r.arrival_p,
            r.service_p,
            r.optimal_gain,
            r.qdpm_cost,
            r.ratio,
            r.energy_reduction,
            r.mean_wait,
            r.seed
        ));
    }
    out
}

/// Analytic optimal average cost for a Bernoulli workload (helper shared by
/// bins and tests).
///
/// # Errors
///
/// Propagates construction and solver errors.
pub fn optimal_gain(
    power: &PowerModel,
    service: &ServiceModel,
    arrival_p: f64,
    queue_cap: usize,
    weights: &RewardWeights,
) -> Result<f64, SimError> {
    let arrivals = qdpm_workload::MarkovArrivalModel::bernoulli(arrival_p)?;
    let model = build_dpm_mdp(power, service, &arrivals, queue_cap, weights.drop_penalty)?;
    let cost = model
        .mdp
        .combined_cost(CostWeights::new(weights.energy, weights.perf).map_err(SimError::Mdp)?);
    let sol = solvers::relative_value_iteration(&model.mdp, &cost, 1e-9, 500_000)
        .map_err(SimError::Mdp)?;
    Ok(sol.gain)
}

/// Mean cost-per-slice of the last `k` windows of a series (convergence
/// summary). `k == 0` means the whole series (previously this divided
/// 0 by 0 and returned `NaN`); an empty series still returns `NaN`.
#[must_use]
pub fn tail_mean_cost(points: &[WindowPoint], k: usize) -> f64 {
    if points.is_empty() {
        return f64::NAN;
    }
    let k = if k == 0 { points.len() } else { k };
    let tail = &points[points.len().saturating_sub(k)..];
    tail.iter().map(|p| p.cost_per_slice).sum::<f64>() / tail.len() as f64
}

/// One point of the DVFS energy / deadline-miss frontier (T-DVFS): a
/// policy evaluated at one knob setting on the joint sleep-state ×
/// operating-point device with a deadline-tagged workload.
#[derive(Debug, Clone)]
pub struct FrontierPoint {
    /// Which policy produced the point (`"q-dpm"` or `"mdp-oracle"`).
    pub policy: &'static str,
    /// The trade-off knob: the agent's per-miss reward penalty, or the
    /// oracle's MDP performance weight.
    pub knob: f64,
    /// Mean energy per slice over the evaluation stretch.
    pub energy_per_slice: f64,
    /// Deadline-miss rate over completions of the evaluation stretch.
    pub miss_rate: f64,
    /// Mean waiting time of completed requests, in slices.
    pub mean_wait: f64,
    /// Deadlines met during evaluation.
    pub met: u64,
    /// Deadlines missed during evaluation.
    pub missed: u64,
}

/// Parameters of the T-DVFS frontier experiment.
#[derive(Debug, Clone)]
pub struct FrontierParams {
    /// Stationary arrival probability (Bernoulli requester).
    pub arrival_p: f64,
    /// Per-request relative-deadline law.
    pub deadline: qdpm_workload::DeadlineSpec,
    /// Agent training slices before its evaluation stretch.
    pub train: Step,
    /// Evaluation slices (both policies measure over this stretch).
    pub evaluate: Step,
    /// Oracle warm-up slices before its evaluation stretch (the solved
    /// policy is stationary; this only flushes the empty-system start).
    pub warmup: Step,
    /// Queue capacity.
    pub queue_cap: usize,
    /// Base reward/cost weights; the agent sweep overrides only
    /// `deadline_penalty`, the oracle sweep only the MDP `perf` weight.
    pub weights: RewardWeights,
    /// Master seed (shared: both policies face identical arrivals).
    pub seed: u64,
    /// Agent sweep: per-miss deadline penalties, one point each.
    pub penalties: Vec<f64>,
    /// Oracle sweep: MDP performance weights, one point each.
    pub oracle_perf_weights: Vec<f64>,
}

impl Default for FrontierParams {
    fn default() -> Self {
        FrontierParams {
            arrival_p: 0.15,
            deadline: qdpm_workload::DeadlineSpec::uniform(3, 12)
                .expect("default deadline range is valid"),
            train: 600_000,
            evaluate: 150_000,
            warmup: 20_000,
            queue_cap: 8,
            weights: RewardWeights::default(),
            seed: 11,
            // The per-miss penalty enters the reward scaled by the perf
            // weight (0.1 by default), so the sweep spans decades to
            // actually trade energy against misses. It stops at 64: the
            // miss penalty fires at *completion* time, so a far larger
            // penalty teaches the agent the degenerate lesson that
            // requests it never serves are never penalized.
            penalties: vec![0.0, 2.0, 8.0, 16.0, 32.0, 64.0],
            oracle_perf_weights: vec![0.02, 0.05, 0.1, 0.3, 1.0, 3.0],
        }
    }
}

/// Builds a [`FrontierPoint`] from one evaluated stretch: energy and
/// wait from the stretch's [`crate::RunStats`], the miss rate from the
/// deadline-ledger delta across the stretch.
fn frontier_point(
    policy: &'static str,
    knob: f64,
    eval: &crate::RunStats,
    before: &qdpm_workload::DeadlineStats,
    after: &qdpm_workload::DeadlineStats,
) -> FrontierPoint {
    let met = after.met - before.met;
    let missed = after.missed - before.missed;
    let done = met + missed;
    FrontierPoint {
        policy,
        knob,
        energy_per_slice: eval.total_energy / eval.steps as f64,
        miss_rate: if done == 0 {
            0.0
        } else {
            missed as f64 / done as f64
        },
        mean_wait: eval.mean_wait(),
        met,
        missed,
    }
}

/// Trains a deadline-penalized Q-DPM agent on the joint DVFS device and
/// evaluates its energy / miss-rate point.
fn frontier_agent_point(
    power: &PowerModel,
    service: &ServiceModel,
    params: &FrontierParams,
    penalty: f64,
) -> Result<FrontierPoint, SimError> {
    let weights = RewardWeights {
        deadline_penalty: penalty,
        ..params.weights
    };
    // Exploration schedule as in the T4 sweep: decay to the floor at
    // ~70% of training, leaving a near-greedy evaluation-ready policy.
    let eps0: f64 = 0.4;
    let min_epsilon = 0.005;
    let decay = (min_epsilon / eps0).powf(1.0 / (0.7 * params.train as f64).max(1.0));
    let agent = QDpmAgent::new(
        power,
        QDpmConfig {
            queue_cap: params.queue_cap,
            weights,
            exploration: qdpm_core::Exploration::DecayingEpsilon {
                epsilon0: eps0,
                decay,
                min_epsilon,
            },
            ..QDpmConfig::default()
        },
    )?;
    let mut sim = Simulator::new(
        power.clone(),
        *service,
        WorkloadSpec::bernoulli(params.arrival_p)?.build(),
        Box::new(agent),
        SimConfig {
            seed: params.seed,
            weights,
            queue_cap: params.queue_cap,
            deadline: Some(params.deadline),
            ..SimConfig::default()
        },
    )?;
    sim.run(params.train);
    let before = *sim.deadline_stats();
    let eval = sim.run(params.evaluate);
    let after = *sim.deadline_stats();
    Ok(frontier_point("q-dpm", penalty, &eval, &before, &after))
}

/// Solves the joint (sleep-state × operating-point) MDP at one
/// performance weight and evaluates the resulting deterministic policy's
/// energy / miss-rate point on the same deadline-tagged workload.
///
/// The oracle is *deadline-blind but queue-aware*: deadlines are not
/// part of the MDP state, so its frontier is traced by sweeping the
/// latency (performance) weight — the model-known upper envelope the
/// learning agent is compared against.
fn frontier_oracle_point(
    power: &PowerModel,
    service: &ServiceModel,
    params: &FrontierParams,
    perf_weight: f64,
) -> Result<FrontierPoint, SimError> {
    let arrivals = qdpm_workload::MarkovArrivalModel::bernoulli(params.arrival_p)?;
    let model = build_dpm_mdp(
        power,
        service,
        &arrivals,
        params.queue_cap,
        params.weights.drop_penalty,
    )?;
    let cost = model.mdp.combined_cost(
        CostWeights::new(params.weights.energy, perf_weight).map_err(SimError::Mdp)?,
    );
    let sol = solvers::relative_value_iteration(&model.mdp, &cost, 1e-9, 500_000)
        .map_err(SimError::Mdp)?;
    let controller = MdpPolicyController::deterministic(model.space.clone(), sol.policy.clone())
        .with_name("dvfs-oracle");
    let mut sim = Simulator::new(
        power.clone(),
        *service,
        WorkloadSpec::bernoulli(params.arrival_p)?.build(),
        Box::new(controller),
        SimConfig {
            seed: params.seed,
            weights: params.weights,
            queue_cap: params.queue_cap,
            deadline: Some(params.deadline),
            ..SimConfig::default()
        },
    )?;
    sim.run(params.warmup);
    let before = *sim.deadline_stats();
    let eval = sim.run(params.evaluate);
    let after = *sim.deadline_stats();
    Ok(frontier_point(
        "mdp-oracle",
        perf_weight,
        &eval,
        &before,
        &after,
    ))
}

/// Runs the T-DVFS frontier: the deadline-penalized Q-DPM agent swept
/// over `penalties` against the solved joint-MDP oracle swept over
/// `oracle_perf_weights`, all on the identical deadline-tagged arrival
/// stream. Points come back agent-first, each sweep in knob order. Every
/// point is an independent simulation on up to `threads` workers, so the
/// rows are identical at any worker count.
///
/// # Errors
///
/// Propagates construction and solver errors.
pub fn run_dvfs_frontier(
    power: &PowerModel,
    service: &ServiceModel,
    params: &FrontierParams,
    threads: usize,
) -> Result<Vec<FrontierPoint>, SimError> {
    #[derive(Clone, Copy)]
    enum Job {
        Agent(f64),
        Oracle(f64),
    }
    let jobs: Vec<Job> = params
        .penalties
        .iter()
        .map(|&p| Job::Agent(p))
        .chain(params.oracle_perf_weights.iter().map(|&w| Job::Oracle(w)))
        .collect();
    parallel::run_indexed(&jobs, threads, |_, job| match *job {
        Job::Agent(p) => frontier_agent_point(power, service, params, p),
        Job::Oracle(w) => frontier_oracle_point(power, service, params, w),
    })
    .into_iter()
    .collect()
}

/// Formats frontier points as the canonical T-DVFS TSV body (header +
/// one row per point). Shared by the `frontier_dvfs` bin and the
/// golden-master suite.
#[must_use]
pub fn frontier_rows_to_tsv(rows: &[FrontierPoint]) -> String {
    let mut out =
        String::from("policy\tknob\tenergy_per_slice\tmiss_rate\tmean_wait\tmet\tmissed\n");
    for r in rows {
        out.push_str(&format!(
            "{}\t{:.3}\t{:.5}\t{:.4}\t{:.2}\t{}\t{}\n",
            r.policy, r.knob, r.energy_per_slice, r.miss_rate, r.mean_wait, r.met, r.missed
        ));
    }
    out
}

/// The agent-vs-oracle gap behind the frontier's headline claim: for
/// each agent point, the cheapest oracle point with a miss rate no worse
/// than the agent's (within an absolute tolerance of 0.02) is its
/// matched reference, and the gap is the agent/oracle energy ratio.
/// Returns `(mean_gap, worst_gap, matched_points)`; agent points whose
/// miss rate undercuts every oracle point are unmatched and excluded.
/// Points that completed nothing (a starved sweep endpoint whose miss
/// rate is vacuous) are excluded from both sides of the match.
#[must_use]
pub fn frontier_gap_summary(rows: &[FrontierPoint]) -> (f64, f64, usize) {
    const MISS_TOL: f64 = 0.02;
    let mut gaps: Vec<f64> = Vec::new();
    for agent in rows
        .iter()
        .filter(|r| r.policy == "q-dpm" && r.met + r.missed > 0)
    {
        let reference = rows
            .iter()
            .filter(|r| {
                r.policy == "mdp-oracle"
                    && r.met + r.missed > 0
                    && r.miss_rate <= agent.miss_rate + MISS_TOL
            })
            .map(|r| r.energy_per_slice)
            .fold(f64::INFINITY, f64::min);
        if reference.is_finite() && reference > 0.0 {
            gaps.push(agent.energy_per_slice / reference);
        }
    }
    if gaps.is_empty() {
        return (f64::NAN, f64::NAN, 0);
    }
    let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
    let worst = gaps.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (mean, worst, gaps.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdpm_device::presets;

    /// A small, fast Fig. 1 shape check: after training, Q-DPM's tail cost
    /// is within 35% of the analytic optimum and clearly better than
    /// always-on.
    #[test]
    fn convergence_shape_small() {
        let power = presets::three_state_generic();
        let service = presets::default_service();
        let mut params = ConvergenceParams {
            horizon: 120_000,
            window: 2_000,
            ..ConvergenceParams::default()
        };
        // Short horizon: decay exploration faster than the 200k-slice
        // default schedule so the tail windows are near-greedy.
        params.agent.exploration = qdpm_core::Exploration::DecayingEpsilon {
            epsilon0: 0.3,
            decay: 0.9999,
            min_epsilon: 0.005,
        };
        let report = run_convergence(&power, &service, &params).unwrap();
        assert!(report.optimal_gain > 0.0);
        assert!(report.always_on_gain > report.optimal_gain);
        let qdpm_tail = tail_mean_cost(&report.qdpm, 5);
        assert!(
            qdpm_tail < report.always_on_gain,
            "q-dpm tail {qdpm_tail} should beat always-on {}",
            report.always_on_gain
        );
        assert!(
            qdpm_tail / report.optimal_gain < 1.6,
            "q-dpm tail {qdpm_tail} too far from optimum {}",
            report.optimal_gain
        );
        // The optimal controller's measured cost must track its gain.
        let opt_tail = tail_mean_cost(&report.optimal, 10);
        assert!(
            (opt_tail - report.optimal_gain).abs() / report.optimal_gain < 0.15,
            "measured optimal {opt_tail} vs analytic {}",
            report.optimal_gain
        );
    }

    #[test]
    fn multi_seed_convergence_is_tight() {
        // Short horizons leave slow seeds mid-transient; 150k slices with a
        // matched decay schedule lets every seed settle.
        let power = presets::three_state_generic();
        let service = presets::default_service();
        let mut params = ConvergenceParams {
            horizon: 150_000,
            window: 2_000,
            ..ConvergenceParams::default()
        };
        params.agent.exploration = qdpm_core::Exploration::DecayingEpsilon {
            epsilon0: 0.3,
            decay: 0.99995,
            min_epsilon: 0.005,
        };
        let ratios =
            convergence_ratios_over_seeds(&power, &service, &params, &[1, 2, 3], 10, 2).unwrap();
        let (mean, sd) = mean_and_sd(&ratios);
        assert!(mean < 1.5, "mean ratio {mean} (per-seed {ratios:?})");
        assert!(
            sd < 0.4,
            "seed dispersion {sd} too wide (per-seed {ratios:?})"
        );
    }

    #[test]
    fn mean_and_sd_edge_cases() {
        assert!(mean_and_sd(&[]).0.is_nan());
        let (m, s) = mean_and_sd(&[2.0]);
        assert_eq!((m, s), (2.0, 0.0));
        let (m, s) = mean_and_sd(&[1.0, 3.0]);
        assert!((m - 2.0).abs() < 1e-12);
        assert!((s - std::f64::consts::SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn rapid_response_smoke() {
        let power = presets::three_state_generic();
        let service = presets::default_service();
        let params = RapidResponseParams {
            segments: vec![(8_000, 0.02), (8_000, 0.3)],
            window: 1_000,
            ..RapidResponseParams::default()
        };
        let report = run_rapid_response(&power, &service, &params).unwrap();
        assert_eq!(report.switch_points, vec![8_000]);
        assert_eq!(report.qdpm.len(), 16);
        assert_eq!(report.model_based.len(), 16);
        assert!(!report.clairvoyant.is_empty());
    }

    #[test]
    fn sweep_rows_cover_grid() {
        let devices = vec![("three-state".to_string(), presets::three_state_generic())];
        let rows = run_sweep(&devices, &[0.02, 0.2], &[0.6], 20_000, 5_000, 3, 2).unwrap();
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!(row.optimal_gain > 0.0);
            assert!(row.qdpm_cost > 0.0);
            assert!(row.ratio.is_finite());
        }
        // The seeding bugfix: cells must not share the master seed — each
        // gets the pinned splitmix derivation of (master, cell index).
        assert_eq!(rows[0].seed, crate::parallel::derive_cell_seed(3, 0));
        assert_eq!(rows[1].seed, crate::parallel::derive_cell_seed(3, 1));
        assert_ne!(rows[0].seed, rows[1].seed);
    }

    #[test]
    fn run_grid_shared_reference_matches_per_cell_solves() {
        // `run_grid` solves the analytic reference once per scenario and
        // shares it across replicates; every row must still equal the
        // unshared `run_sweep_cell` path exactly.
        let devices = vec![("three-state".to_string(), presets::three_state_generic())];
        let workloads = vec![(
            "bern-0.1".to_string(),
            ScenarioWorkload::Stationary(WorkloadSpec::bernoulli(0.1).unwrap()),
        )];
        let services = vec![qdpm_device::presets::default_service()];
        let grid = ScenarioGrid::cartesian(
            &devices,
            &workloads,
            &services,
            2,
            &GridParams {
                train: 3_000,
                evaluate: 1_000,
                master_seed: 9,
                ..GridParams::default()
            },
        );
        let shared = run_grid(&grid, 2).unwrap();
        let per_cell: Vec<SweepRow> = grid
            .cells()
            .iter()
            .map(|c| run_sweep_cell(c).unwrap())
            .collect();
        assert_eq!(sweep_rows_to_tsv(&shared), sweep_rows_to_tsv(&per_cell));
        // Replicates share the gain but not the seed.
        assert_eq!(shared[0].optimal_gain, shared[1].optimal_gain);
        assert_ne!(shared[0].seed, shared[1].seed);
    }

    #[test]
    fn tail_mean_cost_k_zero_is_full_series_mean() {
        let mk = |cost: f64| WindowPoint {
            end: 0,
            energy_per_slice: 0.0,
            cost_per_slice: cost,
            avg_queue: 0.0,
            dropped: 0,
            energy_reduction: 0.0,
        };
        let pts = vec![mk(1.0), mk(2.0), mk(6.0)];
        assert!((tail_mean_cost(&pts, 0) - 3.0).abs() < 1e-12);
        assert!((tail_mean_cost(&pts, 2) - 4.0).abs() < 1e-12);
        // `k` larger than the series is clamped to the whole series.
        assert!((tail_mean_cost(&pts, 10) - 3.0).abs() < 1e-12);
        assert!(tail_mean_cost(&[], 0).is_nan());
        assert!(tail_mean_cost(&[], 5).is_nan());
    }

    #[test]
    fn ratio_guard_sentinels() {
        assert!((ratio_to_gain(2.0, 4.0) - 0.5).abs() < 1e-12);
        assert!(ratio_to_gain(2.0, 0.0).is_nan());
        assert!(ratio_to_gain(2.0, -1.0).is_nan());
        assert!(ratio_to_gain(2.0, f64::NAN).is_nan());
    }

    #[test]
    fn sweep_summary_skips_nan_sentinels() {
        let mk = |ratio: f64| SweepRow {
            device: "d".into(),
            workload: "w".into(),
            arrival_p: 0.1,
            service_p: 0.6,
            optimal_gain: 1.0,
            qdpm_cost: ratio,
            ratio,
            energy_reduction: 0.0,
            mean_wait: 0.0,
            seed: 0,
        };
        let rows = vec![mk(1.0), mk(f64::NAN), mk(3.0)];
        let (mean, worst, n) = sweep_ratio_summary(&rows);
        assert!((mean - 2.0).abs() < 1e-12);
        assert!((worst - 3.0).abs() < 1e-12);
        assert_eq!(n, 2);
        let (mean, worst, n) = sweep_ratio_summary(&[mk(f64::NAN)]);
        assert!(mean.is_nan() && worst.is_nan());
        assert_eq!(n, 0);
    }
}

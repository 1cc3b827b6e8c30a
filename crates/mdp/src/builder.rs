//! Exact compilation of a DPM system (device x workload x queue) into a
//! [`Mdp`].
//!
//! This is the "model completely known in prior" path of the paper's Fig. 1:
//! given the true [`MarkovArrivalModel`], the device's [`PowerModel`], a
//! geometric [`ServiceModel`], and the queue capacity, it constructs the
//! DTMDP whose exact solution (via [`crate::solvers`] or [`crate::lp`]) is
//! the theoretically optimal power-management policy.
//!
//! Each row runs the device's own slice physics: a copy of the row's
//! [`DeviceState`] takes the action through [`DeviceState::command`] and
//! elapses the slice through [`DeviceState::tick`], the calls the
//! simulator's slice kernel makes (see "Dataflow: one slice, one device"
//! in `docs/ARCHITECTURE.md`). Around that step the builder enumerates the
//! arrival, service and requester-mode branches; a conformance test in
//! `qdpm-sim` steps the kernel through every compiled row, branch by
//! branch, and checks it exactly.

use std::collections::HashMap;

use qdpm_device::{
    scaled_completion, DeviceMode, DeviceState, LegalActionTable, PowerModel, PowerStateId,
    ServiceModel,
};
use qdpm_workload::MarkovArrivalModel;

use crate::{Mdp, MdpError};

/// Dense indexing of the compiled DPM state space
/// `(requester mode, device mode, queue length)`.
///
/// Device modes are numbered by the [`LegalActionTable`] the Q-DPM agents
/// use. The same indexer serves the MDP builder and the simulator-side
/// model-based controllers, so both talk about identical states.
#[derive(Debug, Clone, PartialEq)]
pub struct DpmStateSpace {
    n_sr_modes: usize,
    queue_cap: usize,
    legal: LegalActionTable,
    /// The device state of each device mode, in dense-index order: where
    /// each compiled row starts its slice.
    devices: Vec<DeviceState>,
}

impl DpmStateSpace {
    /// Indexes the device modes of `power` and fixes the indexing for
    /// `n_sr_modes` requester modes and queue lengths `0..=queue_cap`.
    #[must_use]
    pub fn new(power: &PowerModel, n_sr_modes: usize, queue_cap: usize) -> Self {
        let legal = LegalActionTable::new(power);
        let devices = legal
            .modes()
            .iter()
            .map(|mode| DeviceState {
                mode,
                active_transition: match mode {
                    DeviceMode::Operational(_) => None,
                    DeviceMode::Transitioning { from, to, .. } => power.transition(from, to),
                },
            })
            .collect();
        DpmStateSpace {
            n_sr_modes,
            queue_cap,
            legal,
            devices,
        }
    }

    /// Number of compiled states.
    #[must_use]
    pub fn n_states(&self) -> usize {
        self.n_sr_modes * self.n_dev_modes() * (self.queue_cap + 1)
    }

    /// Number of actions (= operational power states; action `a` commands
    /// the device toward power state `a`).
    #[must_use]
    pub fn n_actions(&self) -> usize {
        self.legal.modes().n_op()
    }

    /// Number of device macro-modes (operational + transients).
    #[must_use]
    pub fn n_dev_modes(&self) -> usize {
        self.legal.n_modes()
    }

    /// Number of requester modes.
    #[must_use]
    pub fn n_sr_modes(&self) -> usize {
        self.n_sr_modes
    }

    /// Queue capacity baked into the indexing.
    #[must_use]
    pub fn queue_cap(&self) -> usize {
        self.queue_cap
    }

    /// The device mode with dense index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn dev_mode(&self, i: usize) -> DeviceMode {
        self.devices[i].mode
    }

    /// Dense index of `(sr_mode, dev_mode, queue_len)`.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of range.
    #[must_use]
    pub fn index(&self, sr_mode: usize, dev_mode: usize, queue_len: usize) -> usize {
        assert!(sr_mode < self.n_sr_modes, "sr mode out of range");
        assert!(dev_mode < self.n_dev_modes(), "device mode out of range");
        assert!(queue_len <= self.queue_cap, "queue length out of range");
        (sr_mode * self.n_dev_modes() + dev_mode) * (self.queue_cap + 1) + queue_len
    }

    /// Decomposes a dense index back into `(sr_mode, dev_mode, queue_len)`.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    #[must_use]
    pub fn decompose(&self, state: usize) -> (usize, usize, usize) {
        assert!(state < self.n_states(), "state out of range");
        let q = state % (self.queue_cap + 1);
        let rest = state / (self.queue_cap + 1);
        let dev = rest % self.n_dev_modes();
        let sr = rest / self.n_dev_modes();
        (sr, dev, q)
    }

    /// Device-mode index of a live [`DeviceMode`] from the simulator (see
    /// [`LegalActionTable::mode_index`]).
    ///
    /// # Panics
    ///
    /// Panics if the mode refers to a transition this space does not know
    /// (i.e. a different power model).
    #[must_use]
    pub fn dev_index_of(&self, mode: DeviceMode) -> usize {
        self.legal.mode_index(mode)
    }

    /// State index for a live simulator observation.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of range for this space.
    #[must_use]
    pub fn index_of(&self, sr_mode: usize, mode: DeviceMode, queue_len: usize) -> usize {
        self.index(sr_mode, self.dev_index_of(mode), queue_len)
    }

    /// Legal actions in device-mode `dev`, sorted: all reachable
    /// operational targets plus "stay" when operational; the transition
    /// target ("stay the course") when transient.
    ///
    /// # Panics
    ///
    /// Panics if `dev` is out of range.
    #[must_use]
    pub fn legal_actions(&self, dev: usize) -> &[usize] {
        self.legal.legal_by_index(dev)
    }
}

/// A compiled DPM decision process: the [`Mdp`] plus its state indexing.
#[derive(Debug, Clone, PartialEq)]
pub struct DpmModel {
    /// The compiled decision process (energy and perf costs kept separate).
    pub mdp: Mdp,
    /// The state indexing shared with the simulator.
    pub space: DpmStateSpace,
}

/// Compiles the exact DTMDP of a DPM system.
///
/// `queue_cap` bounds the service queue (lengths `0..=queue_cap`); the
/// service model must be geometric (memoryless) for the compilation to be
/// exact. `drop_penalty` is added to the *performance* criterion for every
/// request rejected by a full queue — without it, a saturated bounded-queue
/// system is "optimally" served by sleeping forever and dropping all work,
/// which is not the DPM problem the paper studies. The simulator applies
/// the identical penalty so measured and modeled costs agree.
///
/// # Errors
///
/// Returns [`MdpError::NotMarkovian`] for a non-geometric service model,
/// [`MdpError::BadParameter`] for a zero queue or negative/non-finite
/// penalty, or an [`MdpError`] if internal validation fails (a bug).
pub fn build_dpm_mdp(
    power: &PowerModel,
    service: &ServiceModel,
    arrivals: &MarkovArrivalModel,
    queue_cap: usize,
    drop_penalty: f64,
) -> Result<DpmModel, MdpError> {
    if !(drop_penalty.is_finite() && drop_penalty >= 0.0) {
        return Err(MdpError::BadParameter(format!(
            "drop penalty {drop_penalty} must be non-negative"
        )));
    }
    let Some(serve_p) = service.completion_probability() else {
        return Err(MdpError::NotMarkovian(
            "exact compilation needs a geometric service model".into(),
        ));
    };
    if queue_cap == 0 {
        return Err(MdpError::BadParameter("queue capacity must be >= 1".into()));
    }
    let space = DpmStateSpace::new(power, arrivals.n_modes(), queue_cap);
    let n_actions = space.n_actions();
    let mut builder = Mdp::builder(space.n_states(), n_actions)?;

    for sr in 0..space.n_sr_modes() {
        for (dev, &resident) in space.devices.iter().enumerate() {
            for q in 0..=queue_cap {
                let s_idx = space.index(sr, dev, q);
                for &a in space.legal_actions(dev) {
                    // The kernel's slice, in the kernel's order: the
                    // command takes effect (instant switches pay here),
                    // then the device elapses the slice.
                    let mut device = resident;
                    let command = device.command(power, PowerStateId::from_index(a));
                    let tick = device.tick(power);
                    let energy = command.immediate_energy() + tick.energy;
                    let dev_end = space.dev_index_of(tick.mode_after);
                    // The serving state's operating point scales the
                    // completion probability through the law the kernel's
                    // `Server::advance_scaled` applies, so the compiled MDP
                    // stays exact for DVFS-expanded models.
                    let serve_prob = if tick.can_serve {
                        scaled_completion(serve_p, device.operating_freq(power))
                    } else {
                        0.0
                    };
                    let arrive_p = arrivals.arrival_prob[sr];
                    // Enumerate (arrival?, service?, next sr mode) branches.
                    let mut acc: HashMap<usize, f64> = HashMap::new();
                    let mut perf = 0.0;
                    for (arrived, p_arr) in [(false, 1.0 - arrive_p), (true, arrive_p)] {
                        if p_arr == 0.0 {
                            continue;
                        }
                        let dropped = arrived && q == queue_cap;
                        let q1 = if arrived { (q + 1).min(queue_cap) } else { q };
                        let p_complete = if q1 > 0 { serve_prob } else { 0.0 };
                        for (completed, p_srv) in [(false, 1.0 - p_complete), (true, p_complete)] {
                            if p_srv == 0.0 {
                                continue;
                            }
                            let q2 = if completed { q1 - 1 } else { q1 };
                            let branch = p_arr * p_srv;
                            perf += branch * (q2 as f64 + if dropped { drop_penalty } else { 0.0 });
                            for m2 in 0..space.n_sr_modes() {
                                let p_mode = arrivals.mode_transition(sr, m2);
                                if p_mode == 0.0 {
                                    continue;
                                }
                                let next = space.index(m2, dev_end, q2);
                                *acc.entry(next).or_insert(0.0) += branch * p_mode;
                            }
                        }
                    }
                    let mut row: Vec<(usize, f64)> = acc.into_iter().collect();
                    row.sort_unstable_by_key(|&(s, _)| s);
                    builder.set_action(s_idx, a, row, energy, perf);
                }
            }
        }
    }
    Ok(DpmModel {
        mdp: builder.build()?,
        space,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solvers::{policy_iteration, relative_value_iteration};
    use crate::CostWeights;
    use qdpm_device::presets;

    fn bernoulli(p: f64) -> MarkovArrivalModel {
        MarkovArrivalModel::bernoulli(p).unwrap()
    }

    #[test]
    fn state_space_enumeration_counts() {
        let power = presets::three_state_generic();
        let space = DpmStateSpace::new(&power, 2, 8);
        // Operational: 3. Transients: active->sleep (2) + sleep->active (4)
        // + idle->sleep (2) = 8. Total device modes 11.
        assert_eq!(space.n_dev_modes(), 11);
        assert_eq!(space.n_actions(), 3);
        assert_eq!(space.n_states(), 2 * 11 * 9);
    }

    #[test]
    fn index_decompose_round_trip() {
        let power = presets::three_state_generic();
        let space = DpmStateSpace::new(&power, 2, 5);
        for s in 0..space.n_states() {
            let (sr, dev, q) = space.decompose(s);
            assert_eq!(space.index(sr, dev, q), s);
        }
    }

    #[test]
    fn live_device_mode_maps_into_space() {
        let power = presets::three_state_generic();
        let space = DpmStateSpace::new(&power, 1, 4);
        let active = power.state_by_name("active").unwrap();
        let sleep = power.state_by_name("sleep").unwrap();
        let op = space.dev_index_of(DeviceMode::Operational(active));
        assert_eq!(op, active.index());
        let transient = DeviceMode::Transitioning {
            from: active,
            to: sleep,
            remaining: 2,
        };
        assert_eq!(space.dev_mode(space.dev_index_of(transient)), transient);
        assert!(space.index_of(0, DeviceMode::Operational(active), 3) < space.n_states());
    }

    #[test]
    fn legal_actions_shape() {
        let power = presets::three_state_generic();
        let space = DpmStateSpace::new(&power, 1, 4);
        let active = power.state_by_name("active").unwrap().index();
        let sleep = power.state_by_name("sleep").unwrap().index();
        // From active: stay, go idle, go sleep.
        assert_eq!(space.legal_actions(active).len(), 3);
        // From sleep: stay or wake to active only.
        let sleep_acts = space.legal_actions(sleep);
        assert_eq!(sleep_acts.len(), 2);
        assert!(sleep_acts.contains(&active));
        // Transient: single action.
        let tr = space.dev_index_of(DeviceMode::Transitioning {
            from: PowerStateId::from_index(active),
            to: PowerStateId::from_index(sleep),
            remaining: 1,
        });
        assert_eq!(space.legal_actions(tr), [sleep]);
    }

    #[test]
    fn build_validates_and_row_sums_hold() {
        let power = presets::three_state_generic();
        let service = presets::default_service();
        let model = build_dpm_mdp(&power, &service, &bernoulli(0.1), 6, 10.0).unwrap();
        // Mdp::build already checks rows sum to 1; spot-check cost signs.
        let m = &model.mdp;
        for s in 0..m.n_states() {
            for a in m.legal_actions(s) {
                assert!(m.energy_cost(s, a) >= 0.0);
                assert!(m.perf_cost(s, a) >= 0.0);
                assert!(m.perf_cost(s, a) <= model.space.queue_cap() as f64 + 10.0);
            }
        }
    }

    #[test]
    fn rejects_deterministic_service() {
        let power = presets::three_state_generic();
        let service = ServiceModel::deterministic(3).unwrap();
        assert!(matches!(
            build_dpm_mdp(&power, &service, &bernoulli(0.1), 4, 10.0),
            Err(MdpError::NotMarkovian(_))
        ));
    }

    #[test]
    fn rejects_zero_queue() {
        let power = presets::three_state_generic();
        let service = presets::default_service();
        assert!(matches!(
            build_dpm_mdp(&power, &service, &bernoulli(0.1), 0, 10.0),
            Err(MdpError::BadParameter(_))
        ));
    }

    #[test]
    fn zero_arrivals_optimal_policy_sleeps() {
        // With no arrivals ever, the average-optimal policy parks the
        // device in its cheapest state.
        let power = presets::three_state_generic();
        let service = presets::default_service();
        let model = build_dpm_mdp(&power, &service, &bernoulli(0.0), 4, 10.0).unwrap();
        let cost = model.mdp.combined_cost(CostWeights::default());
        let sol = relative_value_iteration(&model.mdp, &cost, 1e-9, 200_000).unwrap();
        let sleep_power = 0.05;
        assert!(
            (sol.gain - sleep_power).abs() < 1e-6,
            "gain {} should equal sleep power {sleep_power}",
            sol.gain
        );
    }

    #[test]
    fn saturated_arrivals_keep_device_active() {
        // With an arrival every slice, staying active is optimal; the gain
        // approaches active power + small queue penalty.
        let power = presets::three_state_generic();
        let service = presets::default_service();
        // Drop penalty must exceed the marginal energy of serving for the
        // overloaded system to prefer staying active: with perf weight 0.1
        // and service rate 0.6, penalty 50 makes serving clearly worthwhile.
        let model = build_dpm_mdp(&power, &service, &bernoulli(1.0), 4, 50.0).unwrap();
        let cost = model.mdp.combined_cost(CostWeights::default());
        let sol = relative_value_iteration(&model.mdp, &cost, 1e-9, 200_000).unwrap();
        // Active power is 1.0; the system is overloaded (arrivals 1.0 >
        // service 0.6) so drops at rate 0.4 are unavoidable, each costing
        // 50 * 0.1 = 5 in weighted perf: gain = 1.0 + 0.4*5 + queue term.
        assert!(sol.gain >= 3.0, "gain {}", sol.gain);
        assert!(sol.gain < 4.0, "gain {}", sol.gain);
        // The optimal policy never sends the device to sleep from active
        // with a saturated queue... verify on the full-queue active state.
        let active = power.state_by_name("active").unwrap().index();
        let s = model.space.index(0, active, 4);
        assert_eq!(sol.policy.action(s), active);
    }

    #[test]
    fn compiled_rows_charge_a_whole_transition_once() {
        // Walking the compiled rows through a multi-slice transition
        // charges exactly the spec energy over exactly its latency.
        let power = presets::three_state_generic();
        let service = presets::default_service();
        let model = build_dpm_mdp(&power, &service, &bernoulli(0.0), 2, 10.0).unwrap();
        let active = power.state_by_name("active").unwrap();
        let sleep = power.state_by_name("sleep").unwrap();
        let spec = power.transition(active, sleep).unwrap();
        let asleep = model.space.index_of(0, DeviceMode::Operational(sleep), 0);
        let mut s = model.space.index_of(0, DeviceMode::Operational(active), 0);
        let mut total = 0.0;
        let mut slices = 0;
        while s != asleep {
            // Commanding sleep from active, then staying the course.
            total += model.mdp.energy_cost(s, sleep.index());
            let row = model.mdp.transition_row(s, sleep.index());
            assert_eq!(row.len(), 1, "no arrivals: the walk is deterministic");
            s = row[0].0;
            slices += 1;
            assert!(slices < 100, "transition never completed");
        }
        assert_eq!(slices, spec.latency);
        assert!((total - spec.energy).abs() < 1e-12);
    }

    #[test]
    fn discounted_optimum_varies_with_rate() {
        // Higher arrival rates must cost at least as much as lower ones.
        let power = presets::three_state_generic();
        let service = presets::default_service();
        let mut last = 0.0;
        for p in [0.0, 0.05, 0.2, 0.6] {
            let model = build_dpm_mdp(&power, &service, &bernoulli(p), 4, 10.0).unwrap();
            let cost = model.mdp.combined_cost(CostWeights::default());
            let sol = policy_iteration(&model.mdp, &cost, 0.95).unwrap();
            let mean: f64 = sol.values.iter().sum::<f64>() / sol.values.len() as f64;
            assert!(
                mean >= last - 1e-9,
                "optimal cost should grow with rate: {mean} after {last}"
            );
            last = mean;
        }
    }
}

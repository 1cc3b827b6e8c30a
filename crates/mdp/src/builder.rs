//! Exact compilation of a DPM system (device x workload x queue) into a
//! [`Mdp`].
//!
//! This is the "model completely known in prior" path of the paper's Fig. 1:
//! given the true [`MarkovArrivalModel`], the device's [`PowerModel`], a
//! geometric [`ServiceModel`], and the queue capacity, it constructs the
//! DTMDP whose exact solution (via [`crate::solvers`] or [`crate::lp`]) is
//! the theoretically optimal power-management policy.
//!
//! The step semantics here mirror the simulator in `qdpm-sim` *exactly*
//! (see "Dataflow: one slice, one device" in `docs/ARCHITECTURE.md`):
//! command take-effect, arrival, service, accounting, transition
//! countdown. An integration test drives both against each other.

use std::collections::HashMap;

use qdpm_device::{scaled_completion, DeviceMode, PowerModel, PowerStateId, ServiceModel};
use qdpm_workload::MarkovArrivalModel;

use crate::{Mdp, MdpError};

/// A device macro-mode in the compiled state space: either resident in an
/// operational power state or `remaining` slices from completing a
/// transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DevMode {
    /// Resident in operational power state `.0` (device state index).
    Operational(usize),
    /// In flight between two power states.
    Transient {
        /// Source power state index.
        from: usize,
        /// Target power state index.
        to: usize,
        /// Slices left until arrival (1..=latency).
        remaining: u32,
    },
}

/// Dense indexing of the compiled DPM state space
/// `(requester mode, device mode, queue length)`.
///
/// The same indexer is used by the MDP builder and by the simulator-side
/// model-based controllers, guaranteeing both talk about identical states.
#[derive(Debug, Clone, PartialEq)]
pub struct DpmStateSpace {
    n_sr_modes: usize,
    queue_cap: usize,
    dev_modes: Vec<DevMode>,
    transient_lookup: HashMap<(usize, usize, u32), usize>,
    n_power_states: usize,
}

impl DpmStateSpace {
    /// Enumerates the device modes of `power` and fixes the indexing for
    /// `n_sr_modes` requester modes and queue lengths `0..=queue_cap`.
    #[must_use]
    pub fn new(power: &PowerModel, n_sr_modes: usize, queue_cap: usize) -> Self {
        let n_op = power.n_states();
        let mut dev_modes: Vec<DevMode> = (0..n_op).map(DevMode::Operational).collect();
        let mut transient_lookup = HashMap::new();
        for from in 0..n_op {
            for to in power.commands_from(PowerStateId::from_index(from)) {
                let spec = power
                    .transition(PowerStateId::from_index(from), to)
                    .expect("commands_from yields defined transitions");
                for remaining in 1..=spec.latency {
                    let idx = dev_modes.len();
                    dev_modes.push(DevMode::Transient {
                        from,
                        to: to.index(),
                        remaining,
                    });
                    transient_lookup.insert((from, to.index(), remaining), idx);
                }
            }
        }
        DpmStateSpace {
            n_sr_modes,
            queue_cap,
            dev_modes,
            transient_lookup,
            n_power_states: n_op,
        }
    }

    /// Number of compiled states.
    #[must_use]
    pub fn n_states(&self) -> usize {
        self.n_sr_modes * self.dev_modes.len() * (self.queue_cap + 1)
    }

    /// Number of actions (= operational power states; action `a` commands
    /// the device toward power state `a`).
    #[must_use]
    pub fn n_actions(&self) -> usize {
        self.n_power_states
    }

    /// Number of device macro-modes (operational + transients).
    #[must_use]
    pub fn n_dev_modes(&self) -> usize {
        self.dev_modes.len()
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

    /// Descriptor of device-mode index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn dev_mode(&self, i: usize) -> DevMode {
        self.dev_modes[i]
    }

    /// Dense index of `(sr_mode, dev_mode, queue_len)`.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of range.
    #[must_use]
    pub fn index(&self, sr_mode: usize, dev_mode: usize, queue_len: usize) -> usize {
        assert!(sr_mode < self.n_sr_modes, "sr mode out of range");
        assert!(dev_mode < self.dev_modes.len(), "device mode out of range");
        assert!(queue_len <= self.queue_cap, "queue length out of range");
        (sr_mode * self.dev_modes.len() + dev_mode) * (self.queue_cap + 1) + queue_len
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
        let dev = rest % self.dev_modes.len();
        let sr = rest / self.dev_modes.len();
        (sr, dev, q)
    }

    /// Device-mode index of a live [`DeviceMode`] from the simulator.
    ///
    /// # Panics
    ///
    /// Panics if the mode refers to a transition this space does not know
    /// (i.e. a different power model).
    #[must_use]
    pub fn dev_index_of(&self, mode: DeviceMode) -> usize {
        match mode {
            DeviceMode::Operational(s) => s.index(),
            DeviceMode::Transitioning {
                from,
                to,
                remaining,
            } => *self
                .transient_lookup
                .get(&(from.index(), to.index(), remaining))
                .expect("unknown transient mode for this power model"),
        }
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

    /// Legal actions in device-mode `dev` of `power`: all reachable
    /// operational targets plus "stay" when operational; the transition
    /// target ("stay the course") when transient.
    #[must_use]
    pub fn legal_actions(&self, power: &PowerModel, dev: usize) -> Vec<usize> {
        match self.dev_modes[dev] {
            DevMode::Operational(s) => {
                let mut acts = vec![s];
                acts.extend(
                    power
                        .commands_from(PowerStateId::from_index(s))
                        .map(PowerStateId::index),
                );
                acts.sort_unstable();
                acts
            }
            DevMode::Transient { to, .. } => vec![to],
        }
    }

    /// Resolves the device half of one slice under the shared step
    /// semantics: given the device mode index and the commanded target,
    /// returns `(energy_this_slice, can_serve_this_slice,
    /// device_mode_index_at_slice_end)`.
    ///
    /// This is the single source of truth the MDP transition rows are built
    /// from; the simulator's `Device` is tested to agree with it.
    ///
    /// # Panics
    ///
    /// Panics if `action` is not legal in `dev` (use
    /// [`DpmStateSpace::legal_actions`]).
    #[must_use]
    pub fn step_device(&self, power: &PowerModel, dev: usize, action: usize) -> (f64, bool, usize) {
        match self.dev_modes[dev] {
            DevMode::Operational(s) => {
                if action == s {
                    let spec = power.state(PowerStateId::from_index(s));
                    return (spec.power, spec.can_serve, dev);
                }
                let trans = power
                    .transition(
                        PowerStateId::from_index(s),
                        PowerStateId::from_index(action),
                    )
                    .expect("illegal action passed to step_device");
                if trans.latency == 0 {
                    // Instant switch: the device spends the slice in the
                    // target state and pays the switch energy on top.
                    let spec = power.state(PowerStateId::from_index(action));
                    (trans.energy + spec.power, spec.can_serve, action)
                } else {
                    // This slice is the first transition slice.
                    let end = if trans.latency == 1 {
                        action
                    } else {
                        self.transient_lookup[&(s, action, trans.latency - 1)]
                    };
                    (trans.energy_per_step(), false, end)
                }
            }
            DevMode::Transient {
                from,
                to,
                remaining,
            } => {
                assert_eq!(action, to, "only `stay the course` is legal in a transient");
                let trans = power
                    .transition(PowerStateId::from_index(from), PowerStateId::from_index(to))
                    .expect("transient exists only for defined transitions");
                let end = if remaining == 1 {
                    to
                } else {
                    self.transient_lookup[&(from, to, remaining - 1)]
                };
                (trans.energy_per_step(), false, end)
            }
        }
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
        for dev in 0..space.n_dev_modes() {
            for q in 0..=queue_cap {
                let s_idx = space.index(sr, dev, q);
                for a in space.legal_actions(power, dev) {
                    let (energy, serving, dev_end) = space.step_device(power, dev, a);
                    // A serving slice is spent in the operational state
                    // `dev_end` resolves to (stay, or the target of an
                    // instant switch); its operating point scales the
                    // completion probability through the same law the
                    // simulator's `Server::advance_scaled` applies, so the
                    // compiled MDP stays exact for DVFS-expanded models.
                    let serve_prob = if serving {
                        let occupied = match space.dev_mode(dev_end) {
                            DevMode::Operational(s) => PowerStateId::from_index(s),
                            DevMode::Transient { .. } => {
                                unreachable!("serving slice ends in a transient")
                            }
                        };
                        scaled_completion(serve_p, power.state(occupied).freq)
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
        let tr = space.dev_index_of(DeviceMode::Transitioning {
            from: active,
            to: sleep,
            remaining: 2,
        });
        assert!(matches!(
            space.dev_mode(tr),
            DevMode::Transient { remaining: 2, .. }
        ));
        assert!(space.index_of(0, DeviceMode::Operational(active), 3) < space.n_states());
    }

    #[test]
    fn legal_actions_shape() {
        let power = presets::three_state_generic();
        let space = DpmStateSpace::new(&power, 1, 4);
        let active = power.state_by_name("active").unwrap().index();
        let sleep = power.state_by_name("sleep").unwrap().index();
        // From active: stay, go idle, go sleep.
        assert_eq!(space.legal_actions(&power, active).len(), 3);
        // From sleep: stay or wake to active only.
        let sleep_acts = space.legal_actions(&power, sleep);
        assert_eq!(sleep_acts.len(), 2);
        assert!(sleep_acts.contains(&active));
        // Transient: single action.
        let tr = space.dev_index_of(DeviceMode::Transitioning {
            from: PowerStateId::from_index(active),
            to: PowerStateId::from_index(sleep),
            remaining: 1,
        });
        assert_eq!(space.legal_actions(&power, tr), vec![sleep]);
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
    fn step_device_energy_conservation() {
        // Walking a full multi-slice transition charges exactly the spec
        // energy.
        let power = presets::three_state_generic();
        let space = DpmStateSpace::new(&power, 1, 2);
        let active = power.state_by_name("active").unwrap();
        let sleep = power.state_by_name("sleep").unwrap();
        let spec = power.transition(active, sleep).unwrap();
        let mut dev = active.index();
        let mut total = 0.0;
        let mut slices = 0;
        loop {
            let action = if dev == active.index() {
                sleep.index()
            } else {
                match space.dev_mode(dev) {
                    DevMode::Transient { to, .. } => to,
                    DevMode::Operational(s) => s,
                }
            };
            let (e, serving, next) = space.step_device(&power, dev, action);
            assert!(!serving);
            total += e;
            slices += 1;
            dev = next;
            if matches!(space.dev_mode(dev), DevMode::Operational(s) if s == sleep.index()) {
                break;
            }
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

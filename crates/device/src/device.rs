use crate::{FaultState, PowerModel, PowerStateId, TransitionSpec};

/// Instantaneous mode of a runtime [`Device`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceMode {
    /// Resident in a power state; commands are accepted.
    Operational(PowerStateId),
    /// Mid-transition; commands are ignored until the transition completes.
    Transitioning {
        /// State the transition started from.
        from: PowerStateId,
        /// State the transition will land in.
        to: PowerStateId,
        /// Slices left until arrival, at least 1.
        remaining: u32,
    },
}

impl DeviceMode {
    /// The operational state, if not transitioning.
    #[must_use]
    pub fn operational_state(&self) -> Option<PowerStateId> {
        match *self {
            DeviceMode::Operational(s) => Some(s),
            DeviceMode::Transitioning { .. } => None,
        }
    }

    /// Whether the device is mid-transition.
    #[must_use]
    pub fn is_transitioning(&self) -> bool {
        matches!(self, DeviceMode::Transitioning { .. })
    }
}

/// Result of issuing a power command to a [`Device`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CommandOutcome {
    /// The device was already in the commanded state; nothing happened.
    AlreadyThere,
    /// The switch completed within this slice; the transition energy is
    /// reported here and must be accounted by the caller.
    Switched {
        /// Energy of the instantaneous transition.
        energy: f64,
    },
    /// A multi-slice transition began; energy accrues via [`Device::tick`].
    TransitionStarted {
        /// Slices until the transition completes.
        latency: u32,
    },
    /// Command ignored: the device is mid-transition (uncontrollable).
    IgnoredInTransition,
    /// Command ignored: the model defines no such transition.
    IgnoredNoSuchTransition,
}

impl CommandOutcome {
    /// Energy charged at command time (non-zero only for instant switches).
    #[must_use]
    pub fn immediate_energy(&self) -> f64 {
        match *self {
            CommandOutcome::Switched { energy } => energy,
            _ => 0.0,
        }
    }
}

/// Per-slice accounting reported by [`Device::tick`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TickReport {
    /// Energy drawn during this slice (state residency or transition share).
    pub energy: f64,
    /// Whether the device can serve a request during this slice.
    pub can_serve: bool,
    /// Mode after the slice elapsed (transitions complete at slice end).
    pub mode_after: DeviceMode,
}

/// Plain-old-data dynamic state of a power-managed device: the current
/// [`DeviceMode`] plus the [`TransitionSpec`] backing any in-flight
/// transition.
///
/// This is the entire per-device mutable state of the power state machine
/// — the static [`PowerModel`] is passed by reference into
/// [`DeviceState::command`] and [`DeviceState::tick`], so thousands of
/// homogeneous devices can share one model. The simulator keeps one per
/// device next to its [`FaultState`], and [`Device`] wraps this same type
/// for standalone use, so every engine steps the identical transition
/// logic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceState {
    /// Current mode.
    pub mode: DeviceMode,
    /// Transition spec backing the current `Transitioning` mode, if any.
    pub active_transition: Option<TransitionSpec>,
}

impl DeviceState {
    /// State resident in `model`'s highest-power state (the conventional
    /// "everything on" initial condition).
    #[must_use]
    pub fn new(model: &PowerModel) -> Self {
        DeviceState::at(model.highest_power_state())
    }

    /// State resident in a specific operational state (not validated
    /// against any model; out-of-range ids panic in `command`/`tick`).
    #[must_use]
    pub fn at(state: PowerStateId) -> Self {
        DeviceState {
            mode: DeviceMode::Operational(state),
            active_transition: None,
        }
    }

    /// Issues a command targeting power state `target`, resolving it
    /// against `model`.
    ///
    /// Returns how the command was handled; see [`CommandOutcome`]. Energy
    /// of zero-latency switches is reported in the outcome and must be
    /// added to the slice's accounting by the caller.
    ///
    /// # Panics
    ///
    /// Panics if the current state or `target` is out of range for
    /// `model`.
    #[inline]
    pub fn command(&mut self, model: &PowerModel, target: PowerStateId) -> CommandOutcome {
        let current = match self.mode {
            DeviceMode::Transitioning { .. } => return CommandOutcome::IgnoredInTransition,
            DeviceMode::Operational(s) => s,
        };
        if current == target {
            return CommandOutcome::AlreadyThere;
        }
        let Some(spec) = model.transition(current, target) else {
            return CommandOutcome::IgnoredNoSuchTransition;
        };
        if spec.latency == 0 {
            self.mode = DeviceMode::Operational(target);
            CommandOutcome::Switched {
                energy: spec.energy,
            }
        } else {
            self.mode = DeviceMode::Transitioning {
                from: current,
                to: target,
                remaining: spec.latency,
            };
            self.active_transition = Some(spec);
            CommandOutcome::TransitionStarted {
                latency: spec.latency,
            }
        }
    }

    /// Elapses one time slice against `model`: charges residency or
    /// transition energy and completes transitions whose countdown reaches
    /// zero.
    ///
    /// # Panics
    ///
    /// Panics if the current operational state is out of range for
    /// `model`.
    #[inline]
    pub fn tick(&mut self, model: &PowerModel) -> TickReport {
        match self.mode {
            DeviceMode::Operational(s) => {
                let spec = model.state(s);
                TickReport {
                    energy: spec.power,
                    can_serve: spec.can_serve,
                    mode_after: self.mode,
                }
            }
            DeviceMode::Transitioning {
                from,
                to,
                remaining,
            } => {
                let spec = self
                    .active_transition
                    .expect("transitioning device has an active transition spec");
                let energy = spec.energy_per_step();
                if remaining <= 1 {
                    self.mode = DeviceMode::Operational(to);
                    self.active_transition = None;
                } else {
                    self.mode = DeviceMode::Transitioning {
                        from,
                        to,
                        remaining: remaining - 1,
                    };
                }
                TickReport {
                    energy,
                    can_serve: false,
                    mode_after: self.mode,
                }
            }
        }
    }

    /// Per-slice energy of the in-flight transition (`None` when
    /// operational) — what every remaining [`DeviceState::tick`] of the
    /// transition will charge.
    #[must_use]
    pub fn transient_slice_energy(&self) -> Option<f64> {
        self.active_transition
            .as_ref()
            .map(TransitionSpec::energy_per_step)
    }

    /// Service-speed multiplier of the currently occupied state — the
    /// device's DVFS operating point (see
    /// [`crate::PowerStateSpec::freq`]). `1.0` while transitioning (a
    /// transitioning device cannot serve, so no speed applies).
    ///
    /// # Panics
    ///
    /// Panics if the current operational state is out of range for
    /// `model`.
    #[must_use]
    #[inline]
    pub fn operating_freq(&self, model: &PowerModel) -> f64 {
        match self.mode {
            DeviceMode::Operational(s) => model.state(s).freq,
            DeviceMode::Transitioning { .. } => 1.0,
        }
    }
}

/// A runtime power-managed device: a [`PowerModel`] plus its current mode.
///
/// The device follows the shared simulation contract (see "Dataflow: one
/// slice, one device" in `docs/ARCHITECTURE.md`):
/// commands are issued at the start of a slice via [`Device::command`], and
/// [`Device::tick`] then charges the slice's energy and advances any pending
/// transition. Commands issued mid-transition are ignored, which models the
/// uncontrollable transient states of real hardware.
///
/// The dynamic half lives in a plain-old-data [`DeviceState`]; `Device`
/// binds it to an owned model for the common single-device case, while
/// the simulator keeps the state and borrows one shared model per call.
///
/// # Example
///
/// ```
/// use qdpm_device::{presets, Device};
///
/// let mut device = Device::new(presets::three_state_generic());
/// let sleep = device.model().state_by_name("sleep").unwrap();
/// device.command(sleep);
/// while device.mode().is_transitioning() {
///     device.tick();
/// }
/// assert_eq!(device.mode().operational_state(), Some(sleep));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Device {
    model: PowerModel,
    state: DeviceState,
    fault: FaultState,
}

impl Device {
    /// Creates a device resident in the model's highest-power state (the
    /// conventional "everything on" initial condition).
    #[must_use]
    pub fn new(model: PowerModel) -> Self {
        let state = DeviceState::new(&model);
        Device {
            model,
            state,
            fault: FaultState::Healthy,
        }
    }

    /// Creates a device starting in a specific state.
    ///
    /// # Panics
    ///
    /// Panics if `initial` is out of range for `model`.
    #[must_use]
    pub fn with_initial_state(model: PowerModel, initial: PowerStateId) -> Self {
        assert!(
            initial.index() < model.n_states(),
            "initial state out of range"
        );
        Device {
            model,
            state: DeviceState::at(initial),
            fault: FaultState::Healthy,
        }
    }

    /// The static power model this device animates.
    #[must_use]
    pub fn model(&self) -> &PowerModel {
        &self.model
    }

    /// Current mode.
    #[must_use]
    pub fn mode(&self) -> DeviceMode {
        self.state.mode
    }

    /// The plain-old-data dynamic state (mode + in-flight transition).
    #[must_use]
    pub fn state(&self) -> DeviceState {
        self.state
    }

    /// Issues a command targeting power state `target`.
    ///
    /// Returns how the command was handled; see [`CommandOutcome`]. Energy of
    /// zero-latency switches is reported in the outcome and must be added to
    /// the slice's accounting by the caller.
    pub fn command(&mut self, target: PowerStateId) -> CommandOutcome {
        self.state.command(&self.model, target)
    }

    /// Elapses one time slice: charges residency or transition energy and
    /// completes transitions whose countdown reaches zero.
    pub fn tick(&mut self) -> TickReport {
        self.state.tick(&self.model)
    }

    /// Per-slice energy of the in-flight transition (`None` when
    /// operational) — what every remaining [`Device::tick`] of the
    /// transition will charge. The event-skipping engine uses it to
    /// account a transient stretch without inspecting individual ticks.
    #[must_use]
    pub fn transient_slice_energy(&self) -> Option<f64> {
        self.state.transient_slice_energy()
    }

    /// Service-speed multiplier of the currently occupied state (the DVFS
    /// operating point; `1.0` while transitioning). See
    /// [`DeviceState::operating_freq`].
    #[must_use]
    pub fn operating_freq(&self) -> f64 {
        self.state.operating_freq(&self.model)
    }

    /// Overwrites the dynamic state wholesale (checkpoint restore). The
    /// state must have been produced by [`Device::state`] on a device with
    /// the same model; it is not re-validated here beyond the panics the
    /// next `command`/`tick` would raise for out-of-range ids.
    pub fn restore_state(&mut self, state: DeviceState) {
        self.state = state;
    }

    /// Resets the device to a given operational state, cancelling any
    /// in-flight transition (used when reusing a device across runs).
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range for the model.
    pub fn reset_to(&mut self, state: PowerStateId) {
        assert!(state.index() < self.model.n_states(), "state out of range");
        self.state = DeviceState::at(state);
    }

    /// Resets the device to its initial condition (resident in the
    /// highest-power state, no in-flight transition, healthy) without
    /// touching the model — the cheap per-device reset the fleet runner
    /// uses when recycling device instances between runs, avoiding a model
    /// re-clone.
    pub fn reset(&mut self) {
        let initial = self.model.highest_power_state();
        self.reset_to(initial);
        self.fault = FaultState::Healthy;
    }

    /// Current position on the fault axis (see [`FaultState`]).
    ///
    /// Note the engine clears fault windows lazily — an expired window may
    /// still read as `Down`/`Degraded` here until the next slice ticks the
    /// fault clock. Health reporting should normalize against the clock.
    #[must_use]
    pub fn fault(&self) -> FaultState {
        self.fault
    }

    /// Installs a fault state (fault injection / checkpoint restore).
    pub fn set_fault(&mut self, fault: FaultState) {
        self.fault = fault;
    }

    /// Clears any active fault, returning the device to the healthy axis
    /// position. Does not touch the power state machine — a recovering
    /// crashed device must additionally be rebooted via [`Device::reset_to`]
    /// by the caller.
    pub fn clear_fault(&mut self) {
        self.fault = FaultState::Healthy;
    }

    /// The fault-mandated per-slice power draw while down (see
    /// [`FaultState::down_power`]).
    #[must_use]
    pub fn fault_down_power(&self) -> Option<f64> {
        self.fault.down_power()
    }

    /// Gates one service opportunity against the fault axis (see
    /// [`FaultState::service_gate`]).
    pub fn service_gate(&mut self) -> bool {
        self.fault.service_gate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PowerModel;

    fn model() -> PowerModel {
        PowerModel::builder("t")
            .state("on", 1.0, true)
            .state("off", 0.1, false)
            .state("nap", 0.5, false)
            .transition("on", "off", 2, 0.6)
            .transition("off", "on", 3, 0.9)
            .transition("on", "nap", 0, 0.05)
            .transition("nap", "on", 0, 0.05)
            .build()
            .unwrap()
    }

    #[test]
    fn starts_in_highest_power_state() {
        let d = Device::new(model());
        assert_eq!(d.mode().operational_state(), d.model().state_by_name("on"));
    }

    #[test]
    fn instant_switch_reports_energy() {
        let mut d = Device::new(model());
        let nap = d.model().state_by_name("nap").unwrap();
        let out = d.command(nap);
        assert_eq!(out, CommandOutcome::Switched { energy: 0.05 });
        assert_eq!(out.immediate_energy(), 0.05);
        assert_eq!(d.mode().operational_state(), Some(nap));
    }

    #[test]
    fn multi_step_transition_walks_through() {
        let mut d = Device::new(model());
        let off = d.model().state_by_name("off").unwrap();
        let out = d.command(off);
        assert_eq!(out, CommandOutcome::TransitionStarted { latency: 2 });
        assert!(d.mode().is_transitioning());

        let t1 = d.tick();
        assert!((t1.energy - 0.3).abs() < 1e-12);
        assert!(!t1.can_serve);
        assert!(d.mode().is_transitioning());

        let t2 = d.tick();
        assert!((t2.energy - 0.3).abs() < 1e-12);
        assert_eq!(d.mode().operational_state(), Some(off));
        // Total transition energy equals the spec.
        assert!((t1.energy + t2.energy - 0.6).abs() < 1e-12);
    }

    #[test]
    fn commands_ignored_mid_transition() {
        let mut d = Device::new(model());
        let off = d.model().state_by_name("off").unwrap();
        let on = d.model().state_by_name("on").unwrap();
        d.command(off);
        assert_eq!(d.command(on), CommandOutcome::IgnoredInTransition);
    }

    #[test]
    fn command_to_same_state_is_noop() {
        let mut d = Device::new(model());
        let on = d.model().state_by_name("on").unwrap();
        assert_eq!(d.command(on), CommandOutcome::AlreadyThere);
    }

    #[test]
    fn undefined_transition_is_ignored() {
        let mut d = Device::new(model());
        let off = d.model().state_by_name("off").unwrap();
        let nap = d.model().state_by_name("nap").unwrap();
        d.command(off);
        d.tick();
        d.tick();
        // off -> nap is not defined in the model.
        assert_eq!(d.command(nap), CommandOutcome::IgnoredNoSuchTransition);
    }

    #[test]
    fn residency_energy_matches_state_power() {
        let mut d = Device::new(model());
        let t = d.tick();
        assert_eq!(t.energy, 1.0);
        assert!(t.can_serve);
    }

    #[test]
    fn reset_returns_to_initial_condition() {
        let mut d = Device::new(model());
        let off = d.model().state_by_name("off").unwrap();
        d.command(off);
        d.tick();
        d.reset();
        assert_eq!(d, Device::new(model()), "reset restores the fresh state");
    }

    #[test]
    fn device_state_matches_boxed_device_in_lockstep() {
        // Drive a Device and a bare DeviceState through the same command
        // schedule; outcomes, ticks, and modes must agree at every slice.
        let m = model();
        let mut d = Device::new(m.clone());
        let mut s = DeviceState::new(&m);
        let targets: Vec<PowerStateId> = (0..m.n_states()).map(PowerStateId::from_index).collect();
        for step in 0..64usize {
            let target = targets[(step * 7 + 3) % targets.len()];
            assert_eq!(d.command(target), s.command(&m, target), "slice {step}");
            assert_eq!(d.tick(), s.tick(&m), "slice {step}");
            assert_eq!(d.mode(), s.mode, "slice {step}");
            assert_eq!(d.state(), s, "slice {step}");
            assert_eq!(
                d.transient_slice_energy(),
                s.transient_slice_energy(),
                "slice {step}"
            );
        }
    }

    #[test]
    fn reset_cancels_transition() {
        let mut d = Device::new(model());
        let off = d.model().state_by_name("off").unwrap();
        let on = d.model().state_by_name("on").unwrap();
        d.command(off);
        d.reset_to(on);
        assert_eq!(d.mode().operational_state(), Some(on));
        assert_eq!(d.tick().energy, 1.0);
    }

    #[test]
    fn fresh_device_is_healthy_and_serves() {
        let mut d = Device::new(model());
        assert!(d.fault().is_healthy());
        assert_eq!(d.fault_down_power(), None);
        assert!(d.service_gate());
        assert!(d.service_gate(), "healthy gate never closes");
    }

    #[test]
    fn down_device_reports_fault_power_and_blocks_service() {
        let mut d = Device::new(model());
        d.set_fault(FaultState::Down {
            until: 10,
            power: 0.25,
            queue_preserved: false,
        });
        assert_eq!(d.fault_down_power(), Some(0.25));
        assert!(!d.service_gate());
        d.clear_fault();
        assert!(d.fault().is_healthy());
        assert_eq!(d.fault_down_power(), None);
    }

    #[test]
    fn straggler_gate_admits_every_nth_opportunity() {
        let mut d = Device::new(model());
        d.set_fault(FaultState::Degraded {
            slowdown: 3,
            until: 100,
            opportunities: 0,
        });
        let taken: Vec<bool> = (0..7).map(|_| d.service_gate()).collect();
        assert_eq!(
            taken,
            [true, false, false, true, false, false, true],
            "every slowdown-th opportunity is taken, starting with the first"
        );
    }

    #[test]
    fn zero_slowdown_is_clamped_not_a_panic() {
        let mut d = Device::new(model());
        d.set_fault(FaultState::Degraded {
            slowdown: 0,
            until: 100,
            opportunities: 0,
        });
        assert!(d.service_gate());
        assert!(d.service_gate());
    }

    #[test]
    fn reset_clears_faults() {
        let mut d = Device::new(model());
        d.set_fault(FaultState::Down {
            until: u64::MAX,
            power: 0.0,
            queue_preserved: true,
        });
        d.reset();
        assert_eq!(d, Device::new(model()), "reset restores the fresh state");
    }
}

use crate::{PowerModel, PowerStateId, TransitionSpec};

/// Instantaneous mode of a device's power state machine.
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

/// Result of issuing a power command through [`DeviceState::command`].
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
    /// A multi-slice transition began; energy accrues via
    /// [`DeviceState::tick`].
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

/// Per-slice accounting reported by [`DeviceState::tick`].
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
/// homogeneous devices can share one model. These two calls are the one
/// description of a device's per-slice physics: the simulator's slice
/// kernel keeps one `DeviceState` per device next to its
/// [`crate::FaultState`], and the exact MDP builder in `qdpm-mdp` steps a
/// copy from every compiled state, so the simulated device and the
/// model-based optimum run the identical transition logic.
///
/// Each slice follows the shared contract (see "Dataflow: one slice, one
/// device" in `docs/ARCHITECTURE.md`): the slice's command takes effect
/// through [`DeviceState::command`], then [`DeviceState::tick`] charges the
/// slice's energy and advances any pending transition. Commands issued
/// mid-transition are ignored, which models the uncontrollable transient
/// states of real hardware.
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
        let m = model();
        let d = DeviceState::new(&m);
        assert_eq!(d.mode.operational_state(), m.state_by_name("on"));
    }

    #[test]
    fn instant_switch_reports_energy() {
        let m = model();
        let mut d = DeviceState::new(&m);
        let nap = m.state_by_name("nap").unwrap();
        let out = d.command(&m, nap);
        assert_eq!(out, CommandOutcome::Switched { energy: 0.05 });
        assert_eq!(out.immediate_energy(), 0.05);
        assert_eq!(d.mode.operational_state(), Some(nap));
    }

    #[test]
    fn multi_step_transition_walks_through() {
        let m = model();
        let mut d = DeviceState::new(&m);
        let off = m.state_by_name("off").unwrap();
        let out = d.command(&m, off);
        assert_eq!(out, CommandOutcome::TransitionStarted { latency: 2 });
        assert!(d.mode.is_transitioning());

        let t1 = d.tick(&m);
        assert!((t1.energy - 0.3).abs() < 1e-12);
        assert!(!t1.can_serve);
        assert!(d.mode.is_transitioning());

        let t2 = d.tick(&m);
        assert!((t2.energy - 0.3).abs() < 1e-12);
        assert_eq!(d.mode.operational_state(), Some(off));
        // Total transition energy equals the spec.
        assert!((t1.energy + t2.energy - 0.6).abs() < 1e-12);
    }

    #[test]
    fn commands_ignored_mid_transition() {
        let m = model();
        let mut d = DeviceState::new(&m);
        let off = m.state_by_name("off").unwrap();
        let on = m.state_by_name("on").unwrap();
        d.command(&m, off);
        assert_eq!(d.command(&m, on), CommandOutcome::IgnoredInTransition);
    }

    #[test]
    fn command_to_same_state_is_noop() {
        let m = model();
        let mut d = DeviceState::new(&m);
        let on = m.state_by_name("on").unwrap();
        assert_eq!(d.command(&m, on), CommandOutcome::AlreadyThere);
    }

    #[test]
    fn undefined_transition_is_ignored() {
        let m = model();
        let mut d = DeviceState::new(&m);
        let off = m.state_by_name("off").unwrap();
        let nap = m.state_by_name("nap").unwrap();
        d.command(&m, off);
        d.tick(&m);
        d.tick(&m);
        // off -> nap is not defined in the model.
        assert_eq!(d.command(&m, nap), CommandOutcome::IgnoredNoSuchTransition);
    }

    #[test]
    fn residency_energy_matches_state_power() {
        let m = model();
        let mut d = DeviceState::new(&m);
        let t = d.tick(&m);
        assert_eq!(t.energy, 1.0);
        assert!(t.can_serve);
    }
}

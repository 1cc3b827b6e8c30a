use std::fmt;

use crate::DeviceError;

/// Identifier of a power state within a [`PowerModel`].
///
/// The identifier is a dense index (`0..n_states`) so it can be used directly
/// as an array index by state encoders and MDP builders.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PowerStateId(pub(crate) usize);

impl PowerStateId {
    /// Returns the dense index of this state.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }

    /// Creates an identifier from a raw index.
    ///
    /// The index is not validated against any particular model; passing an
    /// out-of-range index to model methods will panic there.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        PowerStateId(index)
    }
}

impl fmt::Display for PowerStateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

impl From<PowerStateId> for usize {
    fn from(id: PowerStateId) -> usize {
        id.0
    }
}

/// Static description of a single power state.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerStateSpec {
    /// Human-readable name, unique within the model (e.g. `"active"`).
    pub name: String,
    /// Energy drawn per time slice while resident in this state.
    pub power: f64,
    /// Whether the device can serve queued requests while in this state.
    pub can_serve: bool,
    /// Service-speed multiplier of this state's operating point (DVFS).
    ///
    /// Scales per-slice service progress while the device serves from this
    /// state: a geometric server's completion probability becomes
    /// `min(p * freq, 1)` (see `qdpm_device::scaled_completion`). `1.0` —
    /// the default, and the only value plain sleep-state models use — is
    /// nominal speed; non-serving states ignore the field. Models with
    /// per-point frequencies are typically produced by
    /// [`crate::dvfs::expand`] rather than written by hand.
    pub freq: f64,
}

/// Cost of moving between two power states.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransitionSpec {
    /// Number of time slices the transition occupies. Zero means the switch
    /// completes within the slice in which it is commanded.
    pub latency: u32,
    /// Total energy consumed by the transition, spread uniformly over its
    /// latency (paid immediately for zero-latency transitions).
    pub energy: f64,
}

impl TransitionSpec {
    /// Convenience constructor.
    #[must_use]
    pub fn new(latency: u32, energy: f64) -> Self {
        TransitionSpec { latency, energy }
    }

    /// Energy charged per slice while the transition is in progress.
    ///
    /// Zero-latency transitions report their full energy here (charged once).
    #[must_use]
    pub fn energy_per_step(&self) -> f64 {
        if self.latency == 0 {
            self.energy
        } else {
            self.energy / f64::from(self.latency)
        }
    }
}

/// A validated power state machine: the static half of a managed device.
///
/// A `PowerModel` lists the power states of a device, the energy each draws
/// per time slice, and the latency/energy of every allowed transition.
/// Instances are created through [`PowerModelBuilder`], which validates the
/// description. Models are immutable once built.
///
/// # Example
///
/// ```
/// use qdpm_device::PowerModel;
///
/// # fn main() -> Result<(), qdpm_device::DeviceError> {
/// let model = PowerModel::builder("demo")
///     .state("on", 1.0, true)
///     .state("off", 0.05, false)
///     .transition("on", "off", 1, 0.3)
///     .transition("off", "on", 3, 0.9)
///     .build()?;
/// assert_eq!(model.n_states(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PowerModel {
    name: String,
    states: Vec<PowerStateSpec>,
    /// Row-major `n x n` transition table; `None` marks a disallowed command.
    transitions: Vec<Option<TransitionSpec>>,
}

impl PowerModel {
    /// Starts building a model with the given display name.
    #[must_use]
    pub fn builder(name: impl Into<String>) -> PowerModelBuilder {
        PowerModelBuilder::new(name)
    }

    /// Display name of the model (e.g. `"ibm-hdd"`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of power states.
    #[must_use]
    pub fn n_states(&self) -> usize {
        self.states.len()
    }

    /// Returns the specification of state `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this model.
    #[must_use]
    pub fn state(&self, id: PowerStateId) -> &PowerStateSpec {
        &self.states[id.0]
    }

    /// Iterates over `(id, spec)` pairs in index order.
    pub fn states(&self) -> impl Iterator<Item = (PowerStateId, &PowerStateSpec)> {
        self.states
            .iter()
            .enumerate()
            .map(|(i, s)| (PowerStateId(i), s))
    }

    /// Looks a state up by name.
    #[must_use]
    pub fn state_by_name(&self, name: &str) -> Option<PowerStateId> {
        self.states
            .iter()
            .position(|s| s.name == name)
            .map(PowerStateId)
    }

    /// Returns the transition spec from `from` to `to`, or `None` when the
    /// command is not allowed. Self-transitions are always allowed and free.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    #[must_use]
    pub fn transition(&self, from: PowerStateId, to: PowerStateId) -> Option<TransitionSpec> {
        assert!(from.0 < self.n_states() && to.0 < self.n_states());
        if from == to {
            return Some(TransitionSpec::new(0, 0.0));
        }
        self.transitions[from.0 * self.n_states() + to.0]
    }

    /// All states reachable by a single command from `from`, excluding `from`
    /// itself.
    pub fn commands_from(&self, from: PowerStateId) -> impl Iterator<Item = PowerStateId> + '_ {
        let n = self.n_states();
        (0..n)
            .filter(move |&j| j != from.0 && self.transitions[from.0 * n + j].is_some())
            .map(PowerStateId)
    }

    /// Identifier of the state with the highest per-slice power; by
    /// convention the fully-on state used as the always-on reference.
    #[must_use]
    pub fn highest_power_state(&self) -> PowerStateId {
        let (i, _) = self
            .states
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.power.total_cmp(&b.1.power))
            .expect("validated model has at least one state");
        PowerStateId(i)
    }

    /// Identifier of the state with the lowest per-slice power.
    #[must_use]
    pub fn lowest_power_state(&self) -> PowerStateId {
        let (i, _) = self
            .states
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.power.total_cmp(&b.1.power))
            .expect("validated model has at least one state");
        PowerStateId(i)
    }

    /// The first serving state in index order (validated to exist).
    #[must_use]
    pub fn serving_state(&self) -> PowerStateId {
        let (i, _) = self
            .states
            .iter()
            .enumerate()
            .find(|(_, s)| s.can_serve)
            .expect("validated model has a serving state");
        PowerStateId(i)
    }

    /// Break-even time, in slices, for parking in `low` instead of idling in
    /// `high`.
    ///
    /// An idle period of length `T` slices is worth spending in `low` iff
    ///
    /// ```text
    /// E(high->low) + P_low * (T - L_down - L_up) + E(low->high)  <  P_high * T
    /// ```
    ///
    /// This returns the smallest integer `T` for which sleeping wins, or
    /// `None` when the round trip is not allowed or can never pay off.
    #[must_use]
    pub fn break_even_steps(&self, high: PowerStateId, low: PowerStateId) -> Option<u64> {
        let down = self.transition(high, low)?;
        let up = self.transition(low, high)?;
        let p_high = self.state(high).power;
        let p_low = self.state(low).power;
        if p_low >= p_high {
            return None;
        }
        let lat = f64::from(down.latency) + f64::from(up.latency);
        // Sleeping wins iff E_down + E_up + p_low * (T - lat) < p_high * T,
        // i.e. T > t where t = (E_down + E_up - p_low * lat) / (p_high - p_low),
        // subject to T >= lat so the round trip fits in the idle period.
        let t = (down.energy + up.energy - p_low * lat) / (p_high - p_low);
        let strictly_above = if t < 0.0 { 0 } else { t.floor() as u64 + 1 };
        Some(strictly_above.max(lat.ceil() as u64))
    }

    /// Break-even time for *reactive* waking: the wake transition happens
    /// after the idle period ends (the arrived request waits through it),
    /// so only the spin-down must fit inside the gap:
    ///
    /// ```text
    /// E(high->low) + P_low * (T - L_down) + E(low->high)  <  P_high * T
    /// ```
    ///
    /// Returns the smallest integer `T >= L_down` for which sleeping wins,
    /// or `None` when the round trip is not allowed or never pays off.
    /// Reactive break-even is shorter than [`PowerModel::break_even_steps`]
    /// because the wake latency is paid in *latency*, not in gap time.
    #[must_use]
    pub fn reactive_break_even_steps(&self, high: PowerStateId, low: PowerStateId) -> Option<u64> {
        let down = self.transition(high, low)?;
        let up = self.transition(low, high)?;
        let p_high = self.state(high).power;
        let p_low = self.state(low).power;
        if p_low >= p_high {
            return None;
        }
        let l_down = f64::from(down.latency);
        let t = (down.energy + up.energy - p_low * l_down) / (p_high - p_low);
        let strictly_above = if t < 0.0 { 0 } else { t.floor() as u64 + 1 };
        Some(strictly_above.max(l_down.ceil() as u64))
    }
}

/// Incremental builder for [`PowerModel`] (see [`PowerModel::builder`]).
#[derive(Debug, Clone)]
pub struct PowerModelBuilder {
    name: String,
    states: Vec<PowerStateSpec>,
    transitions: Vec<(String, String, TransitionSpec)>,
}

impl PowerModelBuilder {
    /// Creates an empty builder with a model display name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        PowerModelBuilder {
            name: name.into(),
            states: Vec::new(),
            transitions: Vec::new(),
        }
    }

    /// Adds a power state. `power` is energy per slice; `can_serve` marks
    /// states in which queued requests are processed. The state runs at
    /// nominal service speed (`freq == 1.0`); see
    /// [`PowerModelBuilder::state_with_freq`] for DVFS operating points.
    #[must_use]
    pub fn state(self, name: impl Into<String>, power: f64, can_serve: bool) -> Self {
        self.state_with_freq(name, power, can_serve, 1.0)
    }

    /// Adds a power state pinned to a DVFS operating point: `freq` scales
    /// per-slice service progress while the device serves from this state
    /// (non-serving states ignore it). See [`PowerStateSpec::freq`].
    #[must_use]
    pub fn state_with_freq(
        mut self,
        name: impl Into<String>,
        power: f64,
        can_serve: bool,
        freq: f64,
    ) -> Self {
        self.states.push(PowerStateSpec {
            name: name.into(),
            power,
            can_serve,
            freq,
        });
        self
    }

    /// Adds a directed transition with `latency` slices and total `energy`.
    #[must_use]
    pub fn transition(
        mut self,
        from: impl Into<String>,
        to: impl Into<String>,
        latency: u32,
        energy: f64,
    ) -> Self {
        self.transitions
            .push((from.into(), to.into(), TransitionSpec::new(latency, energy)));
        self
    }

    /// Validates and finalizes the model.
    ///
    /// # Errors
    ///
    /// Returns a [`DeviceError`] when the model is empty, has no serving
    /// state, duplicates a state name, references an unknown state in a
    /// transition, or contains a non-finite/negative power or energy.
    pub fn build(self) -> Result<PowerModel, DeviceError> {
        if self.states.is_empty() {
            return Err(DeviceError::NoStates);
        }
        if !self.states.iter().any(|s| s.can_serve) {
            return Err(DeviceError::NoServingState);
        }
        for (i, s) in self.states.iter().enumerate() {
            if !s.power.is_finite() || s.power < 0.0 {
                return Err(DeviceError::InvalidPower {
                    state: s.name.clone(),
                    power: s.power,
                });
            }
            if !s.freq.is_finite() || s.freq <= 0.0 {
                return Err(DeviceError::InvalidFrequency {
                    state: s.name.clone(),
                    freq: s.freq,
                });
            }
            if self.states[..i].iter().any(|t| t.name == s.name) {
                return Err(DeviceError::DuplicateStateName(s.name.clone()));
            }
        }
        let n = self.states.len();
        let index_of = |name: &str| -> Result<usize, DeviceError> {
            self.states
                .iter()
                .position(|s| s.name == name)
                .ok_or_else(|| DeviceError::UnknownState(name.to_string()))
        };
        let mut table: Vec<Option<TransitionSpec>> = vec![None; n * n];
        for (from, to, spec) in &self.transitions {
            let (i, j) = (index_of(from)?, index_of(to)?);
            if !spec.energy.is_finite() || spec.energy < 0.0 {
                return Err(DeviceError::InvalidTransitionEnergy {
                    from: from.clone(),
                    to: to.clone(),
                    energy: spec.energy,
                });
            }
            table[i * n + j] = Some(*spec);
        }
        Ok(PowerModel {
            name: self.name,
            states: self.states,
            transitions: table,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_state() -> PowerModel {
        PowerModel::builder("t")
            .state("on", 1.0, true)
            .state("off", 0.1, false)
            .transition("on", "off", 2, 0.5)
            .transition("off", "on", 4, 2.0)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_round_trip() {
        let m = two_state();
        assert_eq!(m.n_states(), 2);
        let on = m.state_by_name("on").unwrap();
        let off = m.state_by_name("off").unwrap();
        assert_eq!(m.state(on).power, 1.0);
        assert!(m.state(on).can_serve);
        assert!(!m.state(off).can_serve);
        let t = m.transition(on, off).unwrap();
        assert_eq!(t.latency, 2);
        assert_eq!(t.energy, 0.5);
    }

    #[test]
    fn self_transition_is_free() {
        let m = two_state();
        let on = m.state_by_name("on").unwrap();
        let t = m.transition(on, on).unwrap();
        assert_eq!(t.latency, 0);
        assert_eq!(t.energy, 0.0);
    }

    #[test]
    fn missing_transition_is_none() {
        let m = PowerModel::builder("t")
            .state("on", 1.0, true)
            .state("off", 0.1, false)
            .transition("on", "off", 2, 0.5)
            .build()
            .unwrap();
        let on = m.state_by_name("on").unwrap();
        let off = m.state_by_name("off").unwrap();
        assert!(m.transition(off, on).is_none());
        assert_eq!(m.commands_from(on).count(), 1);
        assert_eq!(m.commands_from(off).count(), 0);
    }

    #[test]
    fn rejects_empty_model() {
        assert_eq!(
            PowerModel::builder("e").build().unwrap_err(),
            DeviceError::NoStates
        );
    }

    #[test]
    fn rejects_no_serving_state() {
        let err = PowerModel::builder("e")
            .state("off", 0.0, false)
            .build()
            .unwrap_err();
        assert_eq!(err, DeviceError::NoServingState);
    }

    #[test]
    fn rejects_duplicate_names() {
        let err = PowerModel::builder("e")
            .state("x", 1.0, true)
            .state("x", 0.5, false)
            .build()
            .unwrap_err();
        assert_eq!(err, DeviceError::DuplicateStateName("x".into()));
    }

    #[test]
    fn rejects_bad_power() {
        let err = PowerModel::builder("e")
            .state("x", -1.0, true)
            .build()
            .unwrap_err();
        assert!(matches!(err, DeviceError::InvalidPower { .. }));
        let err = PowerModel::builder("e")
            .state("x", f64::NAN, true)
            .build()
            .unwrap_err();
        assert!(matches!(err, DeviceError::InvalidPower { .. }));
    }

    #[test]
    fn rejects_bad_frequency() {
        for freq in [0.0, -0.5, f64::NAN, f64::INFINITY] {
            let err = PowerModel::builder("e")
                .state_with_freq("x", 1.0, true, freq)
                .build()
                .unwrap_err();
            assert!(
                matches!(err, DeviceError::InvalidFrequency { .. }),
                "{freq}"
            );
        }
    }

    #[test]
    fn plain_states_run_at_nominal_frequency() {
        let m = two_state();
        assert!(m.states().all(|(_, s)| s.freq == 1.0));
        let m = PowerModel::builder("t")
            .state_with_freq("slow", 0.6, true, 0.5)
            .build()
            .unwrap();
        let slow = m.state_by_name("slow").unwrap();
        assert_eq!(m.state(slow).freq, 0.5);
    }

    #[test]
    fn rejects_unknown_transition_endpoint() {
        let err = PowerModel::builder("e")
            .state("x", 1.0, true)
            .transition("x", "y", 1, 0.1)
            .build()
            .unwrap_err();
        assert_eq!(err, DeviceError::UnknownState("y".into()));
    }

    #[test]
    fn rejects_bad_transition_energy() {
        let err = PowerModel::builder("e")
            .state("x", 1.0, true)
            .state("y", 0.1, false)
            .transition("x", "y", 1, f64::INFINITY)
            .build()
            .unwrap_err();
        assert!(matches!(err, DeviceError::InvalidTransitionEnergy { .. }));
    }

    #[test]
    fn extreme_state_lookup() {
        let m = two_state();
        assert_eq!(m.highest_power_state(), m.state_by_name("on").unwrap());
        assert_eq!(m.lowest_power_state(), m.state_by_name("off").unwrap());
        assert_eq!(m.serving_state(), m.state_by_name("on").unwrap());
    }

    #[test]
    fn break_even_matches_hand_computation() {
        let m = two_state();
        let on = m.state_by_name("on").unwrap();
        let off = m.state_by_name("off").unwrap();
        // E_down + E_up = 2.5, lat = 6, p_low = 0.1, p_high = 1.0.
        // t = (2.5 - 0.6) / 0.9 = 2.111 -> below lat, so T = lat = 6, and at
        // T = 6 sleeping costs 2.5 < 6.0 of idling.
        let be = m.break_even_steps(on, off).unwrap();
        assert_eq!(be, 6);
    }

    #[test]
    fn break_even_dominated_by_energy_overhead() {
        // Expensive round trip: t = (10 - 0.2) / 0.9 = 10.888 -> T = 11.
        let m = PowerModel::builder("t")
            .state("on", 1.0, true)
            .state("off", 0.1, false)
            .transition("on", "off", 1, 5.0)
            .transition("off", "on", 1, 5.0)
            .build()
            .unwrap();
        let on = m.state_by_name("on").unwrap();
        let off = m.state_by_name("off").unwrap();
        assert_eq!(m.break_even_steps(on, off), Some(11));
    }

    #[test]
    fn break_even_none_when_low_not_cheaper() {
        let m = PowerModel::builder("t")
            .state("a", 1.0, true)
            .state("b", 1.0, false)
            .transition("a", "b", 1, 0.1)
            .transition("b", "a", 1, 0.1)
            .build()
            .unwrap();
        let a = m.state_by_name("a").unwrap();
        let b = m.state_by_name("b").unwrap();
        assert_eq!(m.break_even_steps(a, b), None);
    }

    #[test]
    fn reactive_break_even_is_shorter() {
        let m = two_state();
        let on = m.state_by_name("on").unwrap();
        let off = m.state_by_name("off").unwrap();
        // Reactive: t = (2.5 - 0.1*2) / 0.9 = 2.56 -> T = 3 (>= L_down 2).
        assert_eq!(m.reactive_break_even_steps(on, off), Some(3));
        assert!(m.reactive_break_even_steps(on, off) <= m.break_even_steps(on, off));
    }

    #[test]
    fn reactive_break_even_none_when_low_not_cheaper() {
        let m = PowerModel::builder("t")
            .state("a", 1.0, true)
            .state("b", 1.0, false)
            .transition("a", "b", 1, 0.1)
            .transition("b", "a", 1, 0.1)
            .build()
            .unwrap();
        let a = m.state_by_name("a").unwrap();
        let b = m.state_by_name("b").unwrap();
        assert_eq!(m.reactive_break_even_steps(a, b), None);
    }

    #[test]
    fn transition_energy_per_step() {
        let t = TransitionSpec::new(4, 2.0);
        assert!((t.energy_per_step() - 0.5).abs() < 1e-12);
        let instant = TransitionSpec::new(0, 2.0);
        assert_eq!(instant.energy_per_step(), 2.0);
    }

    #[test]
    fn display_and_index() {
        let id = PowerStateId::from_index(3);
        assert_eq!(id.to_string(), "S3");
        assert_eq!(id.index(), 3);
        assert_eq!(usize::from(id), 3);
    }
}

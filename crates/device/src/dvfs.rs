//! DVFS operating points: expanding a sleep-state power model across
//! voltage/frequency points into a joint (sleep-state × point) machine.
//!
//! The Q-DPM agent, the simulation engines, and the exact MDP builder all
//! key their state spaces off [`PowerModel::n_states`], so DVFS is modeled
//! by *power-state expansion* rather than a separate frequency axis: every
//! serving state of a base model becomes one state per [`OperatingPoint`]
//! (`"active@slow"`, `"active@turbo"`, …), each carrying the point's
//! service-speed multiplier ([`crate::PowerStateSpec::freq`]) and a power
//! draw scaled by the quadratic law [`power_scale`]. Commanding a power
//! state then *is* the joint (sleep-state × operating-point) action —
//! encoders, legal-action tables, batched learners, and MDP solvers widen
//! to the product space with no further changes.
//!
//! Non-serving states are untouched: quiescence is frequency-independent,
//! which is what keeps the event-skipping engine's idle commits exact for
//! DVFS models.

use crate::{DeviceError, PowerModel, PowerStateId, TransitionSpec};

/// A voltage/frequency operating point of a serving power state.
///
/// `freq` is the service-speed multiplier relative to the base model's
/// nominal speed: at `freq = 0.5` the device completes work at half pace
/// (a geometric server's per-slice completion probability halves, see
/// `qdpm_device::scaled_completion`), at `freq = 1.5` it runs 50% faster.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatingPoint {
    /// Point name, unique within an expansion (e.g. `"slow"`, `"turbo"`).
    pub name: String,
    /// Service-speed multiplier, finite and positive.
    pub freq: f64,
}

impl OperatingPoint {
    /// Convenience constructor.
    #[must_use]
    pub fn new(name: impl Into<String>, freq: f64) -> Self {
        OperatingPoint {
            name: name.into(),
            freq,
        }
    }
}

/// Quadratic power-vs-speed law: the per-slice power multiplier of a
/// serving state running at frequency multiplier `freq`.
///
/// Dynamic (switching) power scales roughly with `V² · f`, and voltage
/// scales with frequency over the DVFS range, so the dynamic share goes as
/// `freq²`; leakage and other static draw does not scale. With
/// `static_fraction` of the base power static:
///
/// ```text
/// scale(freq) = static_fraction + (1 - static_fraction) · freq²
/// ```
///
/// At `freq = 1` the scale is exactly `1.0` for any split, so the nominal
/// point reproduces the base model's power bit-for-bit.
#[must_use]
pub fn power_scale(freq: f64, static_fraction: f64) -> f64 {
    static_fraction + (1.0 - static_fraction) * freq * freq
}

/// A base power model expanded across DVFS operating points, with the
/// bookkeeping to map expanded states back to (base state, point).
///
/// Produced by [`expand`]; the expanded [`PowerModel`] is a perfectly
/// ordinary model, so everything downstream (devices, simulators, agents,
/// MDP builders) consumes it unchanged.
#[derive(Debug, Clone, PartialEq)]
pub struct DvfsExpansion {
    model: PowerModel,
    points: Vec<OperatingPoint>,
    /// Per expanded state: index into `points`, `None` for non-serving
    /// states (which carry no operating point).
    point_of: Vec<Option<usize>>,
    /// Per expanded state: index of the originating base-model state.
    base_of: Vec<usize>,
}

impl DvfsExpansion {
    /// The expanded joint power model.
    #[must_use]
    pub fn model(&self) -> &PowerModel {
        &self.model
    }

    /// Consumes the expansion, returning the joint model.
    #[must_use]
    pub fn into_model(self) -> PowerModel {
        self.model
    }

    /// The operating points the model was expanded across.
    #[must_use]
    pub fn points(&self) -> &[OperatingPoint] {
        &self.points
    }

    /// Index (into [`DvfsExpansion::points`]) of the operating point an
    /// expanded state runs at, or `None` for non-serving states.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for the expanded model.
    #[must_use]
    pub fn point_of(&self, id: PowerStateId) -> Option<usize> {
        self.point_of[id.index()]
    }

    /// Identifier, in the *base* model, of the state an expanded state was
    /// derived from.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for the expanded model.
    #[must_use]
    pub fn base_of(&self, id: PowerStateId) -> PowerStateId {
        PowerStateId::from_index(self.base_of[id.index()])
    }
}

/// Expands `base` across `points`: every serving state becomes one state
/// per operating point (named `"state@point"`), with power scaled by
/// [`power_scale`]`(freq, static_fraction)` and service speed set to the
/// point's `freq`; non-serving states pass through untouched.
///
/// Transition wiring, per base transition `a → b` with spec `t`:
/// * every expanded variant of `a` connects to every expanded variant of
///   `b` with `t` — in particular, waking from sleep picks the wake-up
///   operating point, and parking from any point costs the same;
/// * variants of the *same* serving state are additionally fully connected
///   with instantaneous, free transitions — the DVFS switch itself is
///   modeled as cheap relative to a slice, which matches the
///   microsecond-scale relock times of on-die regulators against the
///   millisecond-scale slices of the preset devices.
///
/// # Errors
///
/// Returns [`DeviceError::InvalidDvfs`] when `points` is empty, a point
/// name repeats, or `static_fraction` is not in `[0, 1]`;
/// [`DeviceError::InvalidFrequency`] for a non-finite or non-positive
/// point frequency; and any base-model validation error the expanded
/// builder re-raises (e.g. a name collision with an existing `@` state).
pub fn expand(
    base: &PowerModel,
    points: &[OperatingPoint],
    static_fraction: f64,
) -> Result<DvfsExpansion, DeviceError> {
    if points.is_empty() {
        return Err(DeviceError::InvalidDvfs(
            "expansion needs at least one operating point".into(),
        ));
    }
    if !(static_fraction.is_finite() && (0.0..=1.0).contains(&static_fraction)) {
        return Err(DeviceError::InvalidDvfs(format!(
            "static power fraction {static_fraction} not in [0, 1]"
        )));
    }
    for (i, pt) in points.iter().enumerate() {
        if !pt.freq.is_finite() || pt.freq <= 0.0 {
            return Err(DeviceError::InvalidFrequency {
                state: pt.name.clone(),
                freq: pt.freq,
            });
        }
        if points[..i].iter().any(|q| q.name == pt.name) {
            return Err(DeviceError::InvalidDvfs(format!(
                "duplicate operating point name `{}`",
                pt.name
            )));
        }
    }

    // Expanded states, in base-state index order (variants of one serving
    // state stay adjacent and in `points` order, so the layout is
    // deterministic and easy to reason about in encoders).
    let mut builder = PowerModel::builder(format!("{}+dvfs", base.name()));
    let mut point_of: Vec<Option<usize>> = Vec::new();
    let mut base_of: Vec<usize> = Vec::new();
    // Names of the expanded variants of each base state.
    let mut variants: Vec<Vec<String>> = Vec::with_capacity(base.n_states());
    for (base_id, spec) in base.states() {
        let mut names = Vec::new();
        if spec.can_serve {
            for (k, pt) in points.iter().enumerate() {
                let name = format!("{}@{}", spec.name, pt.name);
                builder = builder.state_with_freq(
                    name.clone(),
                    spec.power * power_scale(pt.freq, static_fraction),
                    true,
                    pt.freq,
                );
                point_of.push(Some(k));
                base_of.push(base_id.index());
                names.push(name);
            }
        } else {
            builder = builder.state_with_freq(spec.name.clone(), spec.power, false, spec.freq);
            point_of.push(None);
            base_of.push(base_id.index());
            names.push(spec.name.clone());
        }
        variants.push(names);
    }

    // Base transitions replicate across the variant product.
    for (from_id, _) in base.states() {
        for to_id in base.commands_from(from_id) {
            let spec = base
                .transition(from_id, to_id)
                .expect("commands_from yields defined transitions");
            for fv in &variants[from_id.index()] {
                for tv in &variants[to_id.index()] {
                    builder = builder.transition(fv.clone(), tv.clone(), spec.latency, spec.energy);
                }
            }
        }
    }
    // Intra-state DVFS switches: instant and free.
    let switch = TransitionSpec::new(0, 0.0);
    for names in &variants {
        for a in names {
            for b in names {
                if a != b {
                    builder =
                        builder.transition(a.clone(), b.clone(), switch.latency, switch.energy);
                }
            }
        }
    }

    let model = builder.build()?;
    Ok(DvfsExpansion {
        model,
        points: points.to_vec(),
        point_of,
        base_of,
    })
}

/// The standard three-point ladder used by the presets and benches:
/// `slow` (0.6×), `nominal` (1.0×), `turbo` (1.4×).
#[must_use]
pub fn standard_points() -> Vec<OperatingPoint> {
    vec![
        OperatingPoint::new("slow", 0.6),
        OperatingPoint::new("nominal", 1.0),
        OperatingPoint::new("turbo", 1.4),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    fn expanded() -> DvfsExpansion {
        expand(&presets::three_state_generic(), &standard_points(), 0.3).unwrap()
    }

    #[test]
    fn serving_states_fan_out_nonserving_pass_through() {
        let x = expanded();
        // 1 serving state × 3 points + 2 untouched sleep states.
        assert_eq!(x.model().n_states(), 5);
        assert!(x.model().state_by_name("active@slow").is_some());
        assert!(x.model().state_by_name("active@nominal").is_some());
        assert!(x.model().state_by_name("active@turbo").is_some());
        assert!(x.model().state_by_name("idle").is_some());
        assert!(x.model().state_by_name("sleep").is_some());
    }

    #[test]
    fn nominal_point_reproduces_base_power_exactly() {
        let x = expanded();
        let base = presets::three_state_generic();
        let nominal = x.model().state_by_name("active@nominal").unwrap();
        let active = base.state_by_name("active").unwrap();
        assert_eq!(
            x.model().state(nominal).power.to_bits(),
            base.state(active).power.to_bits()
        );
        assert_eq!(x.model().state(nominal).freq, 1.0);
    }

    #[test]
    fn quadratic_power_law() {
        // static 0.3: slow = 0.3 + 0.7·0.36 = 0.552; turbo = 0.3 + 0.7·1.96.
        assert!((power_scale(0.6, 0.3) - 0.552).abs() < 1e-12);
        assert!((power_scale(1.4, 0.3) - 1.672).abs() < 1e-12);
        assert_eq!(power_scale(1.0, 0.3), 1.0);
        assert_eq!(power_scale(1.0, 0.0), 1.0);
        let x = expanded();
        let turbo = x.model().state_by_name("active@turbo").unwrap();
        assert!((x.model().state(turbo).power - 1.672).abs() < 1e-12);
        assert!(
            x.model().state(turbo).power
                > x.model()
                    .state(x.model().state_by_name("active@slow").unwrap())
                    .power,
            "faster points draw more"
        );
    }

    #[test]
    fn mappings_round_trip() {
        let x = expanded();
        let base = presets::three_state_generic();
        let slow = x.model().state_by_name("active@slow").unwrap();
        let idle = x.model().state_by_name("idle").unwrap();
        assert_eq!(x.point_of(slow), Some(0));
        assert_eq!(x.point_of(idle), None);
        assert_eq!(x.base_of(slow), base.state_by_name("active").unwrap());
        assert_eq!(x.base_of(idle), base.state_by_name("idle").unwrap());
        assert_eq!(x.points().len(), 3);
    }

    #[test]
    fn transitions_replicate_and_points_interconnect() {
        let x = expanded();
        let m = x.model();
        let slow = m.state_by_name("active@slow").unwrap();
        let turbo = m.state_by_name("active@turbo").unwrap();
        let sleep = m.state_by_name("sleep").unwrap();
        // DVFS switch: instant and free.
        let t = m.transition(slow, turbo).unwrap();
        assert_eq!((t.latency, t.energy), (0, 0.0));
        // Parking costs the base spec from every point; waking picks the
        // point and costs the base wake spec.
        let base = presets::three_state_generic();
        let park = base
            .transition(
                base.state_by_name("active").unwrap(),
                base.state_by_name("sleep").unwrap(),
            )
            .unwrap();
        assert_eq!(m.transition(turbo, sleep), Some(park));
        let wake = base
            .transition(
                base.state_by_name("sleep").unwrap(),
                base.state_by_name("active").unwrap(),
            )
            .unwrap();
        assert_eq!(m.transition(sleep, slow), Some(wake));
        assert_eq!(m.transition(sleep, turbo), Some(wake));
    }

    #[test]
    fn rejects_malformed_expansions() {
        let base = presets::three_state_generic();
        assert!(matches!(
            expand(&base, &[], 0.3),
            Err(DeviceError::InvalidDvfs(_))
        ));
        assert!(matches!(
            expand(&base, &standard_points(), 1.5),
            Err(DeviceError::InvalidDvfs(_))
        ));
        assert!(matches!(
            expand(&base, &[OperatingPoint::new("x", 0.0)], 0.3),
            Err(DeviceError::InvalidFrequency { .. })
        ));
        let dup = vec![OperatingPoint::new("x", 0.5), OperatingPoint::new("x", 1.0)];
        assert!(matches!(
            expand(&base, &dup, 0.3),
            Err(DeviceError::InvalidDvfs(_))
        ));
    }

    #[test]
    fn single_point_expansion_keeps_state_count() {
        let base = presets::three_state_generic();
        let x = expand(&base, &[OperatingPoint::new("nominal", 1.0)], 0.3).unwrap();
        assert_eq!(x.model().n_states(), base.n_states());
    }
}

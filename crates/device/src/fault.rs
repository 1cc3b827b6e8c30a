//! Fault modelling: the failure domain of a power-managed device.
//!
//! Datacenter-scale power management co-exists with component failure as a
//! first-class event: devices crash and reboot, fail permanently, or limp
//! along serving slower than their service model promises. This module
//! extends the Power State Machine view of a managed component with an
//! orthogonal *fault axis*:
//!
//! * a [`FaultKind`] describes one injected fault — a transient crash, a
//!   permanent fail-stop, or a straggler window;
//! * a [`FaultState`] is the device's current position on the fault axis
//!   (healthy, degraded, or down), kept beside the device's power state
//!   machine ([`crate::DeviceState`]);
//! * a [`FaultEvent`] schedules a fault at an absolute slice, the unit of
//!   the ahead-of-time fault plans built in `qdpm-workload`.
//!
//! # Semantics
//!
//! Fault windows use **absolute slice deadlines** (`until`): a fault ends
//! the moment the simulation clock reaches `until`, never by counting down
//! per-tick state. That choice is what keeps injection exact across the
//! event-skipping engine — a quiescent commitment can never mutate fault
//! state, and fault boundaries bound the committable horizon exactly like
//! scheduled arrivals.
//!
//! While **down**, a device drains nothing and consumes the fault-specified
//! power instead of its power model's draw; its power manager is not
//! consulted (no decisions, no observations, no RNG draws), which keeps
//! every RNG stream identical across engine modes. A transient crash loses
//! the queue and any in-service progress at onset and reboots the device
//! into its lowest power state on recovery; a fail-stop freezes the queue
//! forever. While **degraded** (straggling), the device only takes every
//! `slowdown`-th service opportunity — a deterministic modulo gate over
//! opportunities, not a stochastic slowdown, so no randomness is consumed.

use crate::Step;

/// One kind of injectable fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The device crashes, losing its queue and in-service progress, stays
    /// down for `down_for` slices drawing `down_power`, then reboots into
    /// its lowest power state.
    TransientCrash {
        /// Downtime in slices (clamped to at least 1).
        down_for: u64,
        /// Energy drawn per down slice.
        down_power: f64,
    },
    /// The device stops forever. Its queue is preserved (frozen — the
    /// stranded requests stay queued and are never served) and it draws
    /// `down_power` for the rest of the run.
    FailStop {
        /// Energy drawn per down slice.
        down_power: f64,
    },
    /// The device keeps running but serves only every `slowdown`-th
    /// service opportunity for `window` slices.
    Straggler {
        /// Service-opportunity divisor (clamped to at least 1; 1 is no
        /// slowdown).
        slowdown: u64,
        /// Degradation window in slices.
        window: u64,
    },
}

/// A fault scheduled at an absolute slice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Slice at which the fault strikes.
    pub at: Step,
    /// What happens.
    pub kind: FaultKind,
}

/// The device's current position on the fault axis.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum FaultState {
    /// No active fault.
    #[default]
    Healthy,
    /// Straggling: only every `slowdown`-th service opportunity is taken
    /// until the clock reaches `until`.
    Degraded {
        /// Service-opportunity divisor (at least 1).
        slowdown: u64,
        /// First slice at which the device is healthy again.
        until: Step,
        /// Service opportunities seen since onset (the modulo counter).
        opportunities: u64,
    },
    /// Down: serving nothing and drawing `power` per slice until the clock
    /// reaches `until` ([`Step::MAX`] for a fail-stop).
    Down {
        /// First slice at which the device is up again.
        until: Step,
        /// Energy drawn per down slice.
        power: f64,
        /// Whether the queue survives the outage (fail-stop) or was lost
        /// at onset (transient crash).
        queue_preserved: bool,
    },
}

impl FaultState {
    /// Whether no fault is active.
    #[must_use]
    #[inline]
    pub fn is_healthy(&self) -> bool {
        matches!(self, FaultState::Healthy)
    }

    /// The fault-mandated per-slice power draw while down, or `None` when
    /// the device is not down. While this returns `Some`, the power state
    /// machine is suspended: the device neither serves nor ticks, and the
    /// returned draw replaces the model's residency energy.
    #[must_use]
    #[inline]
    pub fn down_power(&self) -> Option<f64> {
        match *self {
            FaultState::Down { power, .. } => Some(power),
            _ => None,
        }
    }

    /// Gates one service opportunity: returns whether the device may
    /// begin/continue service work this slice.
    ///
    /// Healthy devices always may. A degraded (straggling) device takes
    /// only every `slowdown`-th opportunity — the gate counts opportunities
    /// deterministically, consuming no randomness. Callers must invoke this
    /// exactly once per slice in which service would otherwise happen, and
    /// only then (the counter is part of simulation state and is
    /// checkpointed with the device).
    ///
    /// A down device never reaches this gate (the engine short-circuits the
    /// whole slice), so `Down` conservatively returns `false`.
    #[inline]
    pub fn service_gate(&mut self) -> bool {
        match self {
            FaultState::Healthy => true,
            FaultState::Degraded {
                slowdown,
                opportunities,
                ..
            } => {
                let allowed = *opportunities % (*slowdown).max(1) == 0;
                *opportunities = opportunities.wrapping_add(1);
                allowed
            }
            FaultState::Down { .. } => false,
        }
    }
}

/// A device's coarse health, as reported to dispatchers and fleet reports.
///
/// Unlike [`FaultState`] this is *normalized against the clock*: an expired
/// fault window that the engine has not lazily cleared yet still reads as
/// [`DeviceHealth::Healthy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceHealth {
    /// Operating normally.
    Healthy,
    /// Straggling (serving, but slower than its service model).
    Degraded,
    /// Serving nothing.
    Down,
}

impl DeviceHealth {
    /// Short display name for reports.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            DeviceHealth::Healthy => "healthy",
            DeviceHealth::Degraded => "degraded",
            DeviceHealth::Down => "down",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_healthy() {
        assert!(FaultState::default().is_healthy());
        assert!(!FaultState::Down {
            until: 5,
            power: 0.0,
            queue_preserved: false
        }
        .is_healthy());
    }

    #[test]
    fn down_device_reports_fault_power_and_blocks_service() {
        let mut fault = FaultState::Healthy;
        assert_eq!(fault.down_power(), None);
        assert!(fault.service_gate());
        assert!(fault.service_gate(), "healthy gate never closes");
        fault = FaultState::Down {
            until: 10,
            power: 0.25,
            queue_preserved: false,
        };
        assert_eq!(fault.down_power(), Some(0.25));
        assert!(!fault.service_gate());
    }

    #[test]
    fn straggler_gate_admits_every_nth_opportunity() {
        let mut fault = FaultState::Degraded {
            slowdown: 3,
            until: 100,
            opportunities: 0,
        };
        let taken: Vec<bool> = (0..7).map(|_| fault.service_gate()).collect();
        assert_eq!(
            taken,
            [true, false, false, true, false, false, true],
            "every slowdown-th opportunity is taken, starting with the first"
        );
    }

    #[test]
    fn zero_slowdown_is_clamped_not_a_panic() {
        let mut fault = FaultState::Degraded {
            slowdown: 0,
            until: 100,
            opportunities: 0,
        };
        assert!(fault.service_gate());
        assert!(fault.service_gate());
    }

    #[test]
    fn health_names() {
        assert_eq!(DeviceHealth::Healthy.name(), "healthy");
        assert_eq!(DeviceHealth::Degraded.name(), "degraded");
        assert_eq!(DeviceHealth::Down.name(), "down");
    }
}

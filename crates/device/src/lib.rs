//! Power-managed device models for the Q-DPM reproduction.
//!
//! This crate implements the *Service Provider* (SP) and *Service Queue* (SQ)
//! side of the classic stochastic dynamic power management (DPM) system
//! model: a device described by a [`PowerModel`] (a power state machine with
//! per-state power draw and inter-state transition latency/energy), a
//! [`ServiceModel`] describing how fast the device drains requests when it is
//! operational, and a bounded FIFO [`Queue`] holding pending requests.
//!
//! [`DeviceState`] animates a [`PowerModel`]: it accepts power commands
//! from a power manager, walks through (possibly multi-step) transitions,
//! and accounts energy per discrete time slice, borrowing the model on
//! every call so many devices can share one. It is the one description of
//! a device's per-slice physics: the slice kernel in `qdpm-sim` steps it
//! for every simulated device, and the exact DTMDP builder in `qdpm-mdp`
//! steps a copy from every compiled state. The crate also owns the dense
//! device-mode index and the per-mode legal commands
//! ([`TransientModeIndex`], [`LegalActionTable`]) that the Q-DPM agents
//! and the MDP builder number device modes by. All quantities are
//! expressed *per time slice*.
//!
//! # Example
//!
//! ```
//! use qdpm_device::{presets, DeviceState};
//!
//! let model = presets::three_state_generic();
//! let mut device = DeviceState::new(&model);
//! // Command the device into its lowest-power state and let the
//! // transition run out.
//! let sleep = model.state_by_name("sleep").unwrap();
//! device.command(&model, sleep);
//! while device.mode.is_transitioning() {
//!     let tick = device.tick(&model);
//!     assert!(tick.energy >= 0.0 && !tick.can_serve);
//! }
//! assert_eq!(device.mode.operational_state(), Some(sleep));
//! ```

mod device;
pub mod dvfs;
mod error;
pub mod fault;
mod legal;
mod power;
pub mod presets;
mod queue;
mod service;

pub use device::{CommandOutcome, DeviceMode, DeviceState, TickReport};
pub use dvfs::{DvfsExpansion, OperatingPoint};
pub use error::DeviceError;
pub use fault::{DeviceHealth, FaultEvent, FaultKind, FaultState};
pub use legal::{LegalActionTable, TransientModeIndex};
pub use power::{PowerModel, PowerModelBuilder, PowerStateId, PowerStateSpec, TransitionSpec};
pub use queue::{Queue, QueueStats};
pub use service::{scaled_completion, Server, ServiceModel};

/// Discrete simulation time, measured in slices since the start of a run.
pub type Step = u64;

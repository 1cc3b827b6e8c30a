//! Q-DPM: model-free dynamic power management via tabular Q-learning.
//!
//! This crate is the reproduction of the primary contribution of
//! *Q-DPM: An Efficient Model-Free Dynamic Power Management Technique*
//! (Li, Wu, Yao, Yan — DATE 2005). A [`QDpmAgent`] is a power manager that
//! learns its policy online, by trial, from nothing but its own device's
//! power state machine and per-slice reinforcement — no workload model, no
//! parameter estimator, no mode-switch controller, no offline policy
//! optimization:
//!
//! * [`QTable`] — the `|S| x |A|` table of Eqn. (2), with exact memory
//!   accounting for the paper's "little bit memory space" claim;
//! * [`QLearner`] — Watkins Q-learning implementing Eqn. (3) with
//!   [`LearningRate`] schedules and [`Exploration`] strategies (the
//!   paper's epsilon-greedy plus ablation alternatives);
//! * [`DpmStateEncoder`] / [`Observation`] — what a real PM can see,
//!   mapped onto table rows; the exact configuration reproduces the DTMDP
//!   state space so Fig. 1 convergence *to the analytic optimum* is
//!   attainable;
//! * [`QDpmAgent`] — the full power manager ([`PowerManager`] is the
//!   interface shared with every baseline in `qdpm-sim`);
//! * [`QosQDpmAgent`] — QoS-guaranteed Q-DPM (future-work item 1):
//!   two-timescale constrained Q-learning with an adaptive Lagrange
//!   multiplier;
//! * [`fuzzy`] — Fuzzy Q-DPM (future-work item 2): membership-weighted
//!   Q-learning robust to observation noise;
//! * [`SharedQLearner`] — a cloneable handle letting a fleet of identical
//!   devices learn into one shared Q-table (the `qdpm-sim` fleet layer's
//!   experience pooling).
//!
//! # Example
//!
//! ```
//! use qdpm_core::{PowerManager, QDpmAgent, QDpmConfig, Observation};
//! use qdpm_device::{presets, DeviceMode};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), qdpm_core::CoreError> {
//! let power = presets::three_state_generic();
//! let mut agent = QDpmAgent::new(&power, QDpmConfig::default())?;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let obs = Observation {
//!     device_mode: DeviceMode::Operational(power.highest_power_state()),
//!     queue_len: 0,
//!     idle_slices: 12,
//!     sr_mode_hint: None,
//! };
//! let command = agent.decide(&obs, &mut rng);
//! assert!(command.index() < power.n_states());
//! # Ok(())
//! # }
//! ```

mod agent;
mod batch;
mod encoder;
mod error;
pub mod fuzzy;
mod learner;
mod legal;
mod qos;
mod qtable;
pub mod rng_util;
mod schedule;
mod shared;
pub mod state_io;
pub mod variants;

pub use agent::{
    GenericQDpmAgent, PowerManager, QDpmAgent, QDpmConfig, RewardWeights, StepOutcome,
};
pub use batch::BatchLearner;
pub use encoder::{DpmStateEncoder, IdleBuckets, Observation, QueueBuckets};
pub use error::CoreError;
pub use fuzzy::{FuzzyConfig, FuzzyQDpmAgent, FuzzySet, FuzzyVariable};
pub use learner::{QLearner, StayRun};
pub use legal::{LegalActionTable, TransientModeIndex};
pub use qos::{QosConfig, QosQDpmAgent};
pub use qtable::QTable;
pub use schedule::{Exploration, LearningRate};
pub use shared::SharedQLearner;
pub use state_io::{StateError, StateReader, StateWriter};
pub use variants::{DoubleQLearner, QLambdaLearner, SarsaLearner, TabularLearner};

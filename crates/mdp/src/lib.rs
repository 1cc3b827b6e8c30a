//! Discrete-time MDP representation and exact solvers for the model-based
//! side of the Q-DPM reproduction.
//!
//! The Q-DPM paper positions Q-learning against the *model-based* DPM
//! pipeline: build a DTMDP of the system, then optimize a policy with
//! dynamic programming or — in the constrained formulation — linear
//! programming. This crate implements that entire substrate from scratch:
//!
//! * [`Mdp`] — a validated finite DTMDP with separate energy/performance
//!   cost criteria, plus [`DeterministicPolicy`] / [`StochasticPolicy`];
//! * [`solvers`] — discounted value iteration, Howard policy iteration
//!   (exact LU policy evaluation), and relative value iteration for the
//!   average-cost criterion;
//! * [`lp`] — the occupation-measure LP formulation (unconstrained and
//!   performance-constrained) on top of [`simplex`], a two-phase dense
//!   simplex solver written for this reproduction;
//! * [`builder`] — exact compilation of a DPM system (power model x
//!   geometric service x Markov arrivals x bounded queue) into the DTMDP
//!   whose solution is the paper's Fig. 1 "optimal policy";
//! * [`sample`] — deterministic random MDPs for tests and benches.
//!
//! # Example
//!
//! ```
//! use qdpm_device::presets;
//! use qdpm_mdp::{build_dpm_mdp, solvers, CostWeights};
//! use qdpm_workload::MarkovArrivalModel;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let power = presets::three_state_generic();
//! let service = presets::default_service();
//! let arrivals = MarkovArrivalModel::bernoulli(0.05)?;
//! let model = build_dpm_mdp(&power, &service, &arrivals, 8, 20.0)?;
//! let cost = model.mdp.combined_cost(CostWeights::default());
//! let sol = solvers::policy_iteration(&model.mdp, &cost, 0.95)?;
//! assert_eq!(sol.policy.n_states(), model.mdp.n_states());
//! # Ok(())
//! # }
//! ```

pub mod builder;
mod error;
pub mod linalg;
pub mod lp;
mod mdp;
pub mod sample;
pub mod simplex;
pub mod solvers;

pub use builder::{build_dpm_mdp, DpmModel, DpmStateSpace};
pub use error::MdpError;
pub use mdp::{CostWeights, DeterministicPolicy, Mdp, MdpBuilder, StochasticPolicy};

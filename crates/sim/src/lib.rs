//! Discrete-time DPM simulation engine, baseline power managers, metrics
//! and experiment runners for the Q-DPM reproduction.
//!
//! The [`Simulator`] drives any [`qdpm_core::PowerManager`] against a
//! power-managed device, a bounded service queue and a synthetic workload
//! under the exact step semantics shared with the DTMDP builder in
//! `qdpm-mdp` (see "Dataflow: one slice, one device" in
//! `docs/ARCHITECTURE.md`) — so the "theoretically optimal policy"
//! computed from the model and the policies measured here are directly
//! comparable.
//!
//! Provided baselines ([`policies`]):
//!
//! * [`AlwaysOn`] — the energy-reduction reference;
//! * [`GreedyOff`] — sleep immediately when idle;
//! * [`FixedTimeout`] / [`AdaptiveTimeout`] — the classic heuristics;
//! * [`Oracle`] — clairvoyant per-idle-period lower bound;
//! * [`MdpPolicyController`] — executes an exact (deterministic or
//!   randomized) MDP policy;
//! * [`ModelBasedAdaptive`] — the full estimator + change-detector +
//!   re-optimizer pipeline the paper compares against in Fig. 2.
//!
//! The [`experiment`] module packages the paper's evaluation: Fig. 1
//! convergence, Fig. 2 rapid response, and the robustness sweep. The
//! [`parallel`] module scales those evaluations: a deterministic sharded
//! grid runner ([`parallel::run_indexed`]) plus the
//! [`parallel::ScenarioGrid`] abstraction over arbitrary
//! (device × workload × service × replicate) experiment grids — parallel
//! output is byte-identical to the serial path at any thread count.
//!
//! The [`fleet`] module scales along the other axis: one [`FleetSim`]
//! steps N heterogeneous devices (mixed presets, mixed policies,
//! per-device or shared Q-tables) against a single aggregate workload,
//! either strictly partitioned ahead of time by a state-blind
//! [`qdpm_workload::WorkloadDispatcher`] or routed *online* against live
//! device state, with closed-form [`FleetStats`] aggregation. Homogeneous
//! groups of members automatically run as batched cohorts
//! ([`fleet_batch`]): one shared model and policy step every member
//! through the same slice kernel the [`Simulator`] runs, bit-identical to
//! the dynamic path and faster (see `docs/ARCHITECTURE.md` for the
//! measured ratio).
//!
//! The [`hierarchy`] module stacks the datacenter layers on top: a
//! [`RackCoordinator`] enforces a rack-wide power cap over an online fleet
//! (vetoing wakeups and shedding load the budget cannot afford), and a
//! [`ClusterSim`] runs a fleet of racks behind one more dispatcher — the
//! two-level dispatch hierarchy, with per-rack [`FleetStats`] and a
//! cluster-wide ordered fold.

mod adaptive;
mod engine;
mod error;
pub mod experiment;
pub mod fleet;
pub mod fleet_batch;
pub mod hierarchy;
mod kernel;
mod metrics;
pub mod parallel;
pub mod policies;

pub use adaptive::{AdaptiveConfig, AdaptiveSolver, ModelBasedAdaptive};
pub use engine::{EngineMode, ObservationNoise, SimConfig, Simulator};
pub use error::SimError;
pub use fleet::{
    AvailabilityStats, FleetConfig, FleetMember, FleetPolicy, FleetReport, FleetSim, FleetStats,
};
pub use fleet_batch::is_batchable;
pub use hierarchy::{
    ClusterConfig, ClusterReport, ClusterSim, ClusterStats, RackCoordinator, RackReport, RackSpec,
};
pub use metrics::{FaultStats, RunStats, SeriesRecorder, WindowPoint};
pub use parallel::{
    derive_cell_seed, run_indexed, GridParams, ScenarioCell, ScenarioGrid, ScenarioWorkload,
};
pub use policies::{
    AdaptiveTimeout, AlwaysOn, FixedTimeout, GreedyOff, MdpPolicyController, Oracle,
};

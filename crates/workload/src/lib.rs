//! Synthetic and trace-driven request workloads for the Q-DPM reproduction.
//!
//! The Q-DPM paper drives its simulations with "synthetic input", stationary
//! for Fig. 1 and piecewise-stationary ("temporarily stationary synthetic
//! input" with marked switching points) for Fig. 2. This crate implements the
//! *Service Requester* (SR) side of the DPM system model:
//!
//! * [`RequestGenerator`] — the per-slice arrival sampling contract;
//! * stationary generators: [`BernoulliArrivals`], [`MmppArrivals`]
//!   (Markov-modulated), [`OnOffArrivals`] (bursty), [`ParetoArrivals`]
//!   (heavy-tailed interarrivals), [`PeriodicArrivals`];
//! * [`TraceReplay`] and [`TraceRecorder`] for deterministic replay;
//! * [`PiecewiseStationary`] — segments of stationary workloads with explicit
//!   switch points (the Fig. 2 driver);
//! * [`WorkloadDispatcher`] / [`SparseTrace`] / [`DeviceSnapshot`] —
//!   fleet-scale dispatch: one aggregate stream strictly partitioned across
//!   N devices, either precomputed as sparse per-device traces (state-blind
//!   round-robin, least-loaded, hash-sharded) or routed online against live
//!   device snapshots (join-shortest-queue, sleep-aware);
//! * [`WorkloadSpec`] — a plain-data description that both builds a
//!   generator and, when the workload is Markovian, exports the exact
//!   [`MarkovArrivalModel`] consumed by the model-based optimal baseline;
//! * [`DeadlineSpec`] / [`DeadlineStats`] — deadline-tagged requests: each
//!   arrival draws a relative deadline (deterministically, outside the
//!   simulation RNG streams) and the ledger classifies every tagged
//!   request as met, missed, dropped, requeued, or lost;
//! * an online rate estimator ([`RateEstimator`]) and a change detector
//!   ([`PageHinkley`]) used by the model-based adaptive pipeline that
//!   Q-DPM is compared against.
//!
//! # Example
//!
//! ```
//! use qdpm_workload::{RequestGenerator, WorkloadSpec};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let mut gen = WorkloadSpec::bernoulli(0.2).unwrap().build();
//! let arrivals: u32 = (0..1000).map(|_| gen.next_arrivals(&mut rng)).sum();
//! assert!(arrivals > 120 && arrivals < 280); // ~200 expected
//! ```

mod deadline;
mod dispatch;
mod drift;
mod error;
mod estimator;
pub mod fault;
mod generators;
mod markov;
mod piecewise;
mod spec;
mod trace;

use rand::Rng;

pub use deadline::{DeadlineSpec, DeadlineStats};
pub use dispatch::{DeviceSnapshot, DispatchPolicy, SparseTrace, WorkloadDispatcher};
pub use drift::{RandomWalkRate, SinusoidalRate};
pub use error::WorkloadError;
pub use estimator::{PageHinkley, RateEstimator};
pub use fault::{
    FaultEvent, FaultInjector, FaultKind, FaultPlan, RetryJob, RetryQueue, ShedReason,
};
pub use generators::{
    BernoulliArrivals, MmppArrivals, OnOffArrivals, ParetoArrivals, PeriodicArrivals,
};
pub use markov::MarkovArrivalModel;
pub use piecewise::{PiecewiseStationary, Segment};
pub use spec::{MmppMode, WorkloadSpec};
pub use trace::{TraceRecorder, TraceReplay};

/// Discrete simulation time, measured in slices since the start of a run.
pub type Step = u64;

/// Result of fast-forwarding a generator across a run of request-free
/// slices (see [`RequestGenerator::next_arrival_gap`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalGap {
    /// The next `empty` slices carry no arrivals and the slice after them
    /// carries `count >= 1` arrivals; the generator advanced past all
    /// `empty + 1` slices.
    Arrival {
        /// Number of leading arrival-free slices (possibly 0).
        empty: u64,
        /// Arrivals in the slice that ends the gap (at least 1).
        count: u32,
    },
    /// No arrival within the requested window: the generator advanced
    /// exactly `advanced` arrival-free slices (`advanced <= limit`; a
    /// segmented generator may stop early at an internal boundary).
    Quiet {
        /// Arrival-free slices consumed.
        advanced: u64,
    },
}

/// Per-slice request source: the Service Requester of the DPM system model.
///
/// Implementations sample the number of arrivals for the current slice and
/// then advance their internal state (e.g. the hidden Markov mode). Sampling
/// uses an externally supplied RNG so an entire simulation can share one
/// seeded stream.
///
/// `Send` is a supertrait so boxed generators (and the simulators owning
/// them) can be moved onto the worker threads of the parallel experiment
/// runner in `qdpm-sim`.
pub trait RequestGenerator: std::fmt::Debug + Send {
    /// Samples the number of requests arriving in the current slice, then
    /// advances the generator's internal state by one slice.
    fn next_arrivals(&mut self, rng: &mut dyn Rng) -> u32;

    /// Index of the generator's current hidden mode, for white-box policies
    /// and diagnostics. Single-mode generators return 0.
    fn mode(&self) -> usize {
        0
    }

    /// Number of hidden modes (1 for memoryless generators).
    fn n_modes(&self) -> usize {
        1
    }

    /// Fast-forwards the generator to the next arrival, up to `limit`
    /// slices ahead — the primitive behind the event-skipping simulation
    /// engine (`qdpm_sim::EngineMode::EventSkip`).
    ///
    /// Semantically equivalent to calling [`RequestGenerator::next_arrivals`]
    /// until it returns a positive count or `limit` slices elapse, and the
    /// default implementation does exactly that (bit-identical RNG stream
    /// to per-slice stepping). Generators with a closed-form interarrival
    /// law override it with a direct gap draw — exact in *distribution*
    /// but using fewer RNG draws, so the stream differs from per-slice
    /// stepping (callers that require bit-identical streams must step per
    /// slice).
    ///
    /// `limit == 0` returns [`ArrivalGap::Quiet`] with nothing consumed.
    fn next_arrival_gap(&mut self, rng: &mut dyn Rng, limit: u64) -> ArrivalGap {
        for empty in 0..limit {
            let count = self.next_arrivals(rng);
            if count > 0 {
                return ArrivalGap::Arrival { empty, count };
            }
        }
        ArrivalGap::Quiet { advanced: limit }
    }

    /// Long-run mean arrivals per slice, when analytically defined.
    fn mean_rate(&self) -> Option<f64>;

    /// Checkpoint support: appends the generator's resumable position (a
    /// trace cursor, a recorded gap position) to a payload. The default
    /// writes nothing, symmetric with the default
    /// [`RequestGenerator::load_state`] — correct for generators whose
    /// entire evolution lives in the RNG stream the caller checkpoints
    /// separately.
    fn save_state(&self, w: &mut qdpm_core::StateWriter) {
        let _ = w;
    }

    /// Checkpoint support: restores a position written by
    /// [`RequestGenerator::save_state`]. Default: reads nothing.
    ///
    /// # Errors
    ///
    /// Returns a [`qdpm_core::StateError`] when the payload does not
    /// decode or the restored position is out of range.
    fn load_state(
        &mut self,
        r: &mut qdpm_core::StateReader<'_>,
    ) -> Result<(), qdpm_core::StateError> {
        let _ = r;
        Ok(())
    }

    /// Restores the generator to its initial state.
    fn reset(&mut self);
}

// The geometric gap draw shared with the learners (one inversion draw for
// "slices until the next Bernoulli success") lives with the other canonical
// samplers in `qdpm_core::rng_util`; re-exported here because it is the
// natural vocabulary of workload gap sampling.
pub use qdpm_core::rng_util::geometric_gap;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trait_is_object_safe() {
        fn assert_obj(_: &dyn RequestGenerator) {}
        let gen = BernoulliArrivals::new(0.5).unwrap();
        assert_obj(&gen);
    }
}

//! The slice kernel: one device's dynamic state and the one per-slice
//! body every execution path steps.
//!
//! A [`DeviceCore`] owns everything that changes while a device runs —
//! its power state machine ([`DeviceState`]) and fault-axis position
//! ([`FaultState`]), the waiting [`Queue`], service progress, the idle
//! timer, the policy and service RNG streams, the [`RunStats`], the clock,
//! the fault clock, and the deadline FIFO and ledger — and borrows the
//! static [`PowerModel`] on every call, so a cohort of identical devices
//! shares one model. [`DeviceCore::step`] is the slice body, generic over
//! the [`BatchPolicy`] it consults: [`crate::Simulator`] drives it with
//! `dyn PowerManager`, a batched cohort with its own policy, so both
//! execute the identical operations in the identical order.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::SeedableRng;

use qdpm_core::rng_util::uniform;
use qdpm_core::{Observation, PowerManager, RewardWeights, StepOutcome};
use qdpm_device::{
    DeviceHealth, DeviceMode, DeviceState, FaultEvent, FaultKind, FaultState, PowerModel,
    PowerStateId, Queue, Server, ServiceModel, Step,
};
use qdpm_workload::{DeadlineSpec, DeadlineStats};

use crate::{FaultStats, RunStats, SimConfig, SimError};

/// The per-slice decision/feedback interface [`DeviceCore::step`] drives:
/// [`PowerManager`] with the device's index threaded through, so one
/// cohort policy can address per-device state (a learner's table stripe).
/// Every power manager is one through the blanket impl.
pub(crate) trait BatchPolicy {
    /// The device's observation moved without a decide/observe pair (a
    /// new device stretch begins, or the device sat out a down slice):
    /// drop anything carried over from the last `observe`.
    fn resync(&mut self, _device: usize) {}

    /// Chooses the command for `device`'s current slice.
    fn decide(&mut self, device: usize, obs: &Observation, rng: &mut StdRng) -> PowerStateId;

    /// Receives the outcome of `device`'s slice (paired with the
    /// immediately preceding `decide` for the same device).
    fn observe(&mut self, device: usize, outcome: &StepOutcome, next_obs: &Observation);
}

impl<P: PowerManager + ?Sized> BatchPolicy for P {
    #[inline]
    fn decide(&mut self, _device: usize, obs: &Observation, rng: &mut StdRng) -> PowerStateId {
        PowerManager::decide(self, obs, rng)
    }

    #[inline]
    fn observe(&mut self, _device: usize, outcome: &StepOutcome, next_obs: &Observation) {
        PowerManager::observe(self, outcome, next_obs);
    }
}

/// One device's dynamic state plus the slice body (see the module docs).
///
/// Fields are crate-visible so the simulator's checkpoint codec and the
/// fleet's report scatter read them in place.
#[derive(Debug)]
pub(crate) struct DeviceCore {
    /// Device mode and in-flight transition.
    pub(crate) state: DeviceState,
    /// Position on the fault axis (cleared lazily by the fault clock).
    pub(crate) fault: FaultState,
    /// Waiting requests.
    pub(crate) queue: Queue,
    /// Service model and in-flight progress.
    pub(crate) server: Server,
    /// Reward/cost weights of the statistics fold.
    pub(crate) weights: RewardWeights,
    /// The stream the policy decides from.
    pub(crate) rng_policy: StdRng,
    /// The stream service completions draw from.
    pub(crate) rng_service: StdRng,
    /// First unsimulated slice.
    pub(crate) now: Step,
    /// Consecutive arrival-free slices.
    pub(crate) idle_slices: u64,
    /// Cumulative statistics.
    pub(crate) stats: RunStats,
    /// Slice-sorted fault schedule; empty for fault-free runs.
    pub(crate) faults: Vec<FaultEvent>,
    /// Next unconsumed entry of `faults`.
    pub(crate) fault_pos: usize,
    /// Availability accounting the fault clock maintains.
    pub(crate) fault_stats: FaultStats,
    /// Deadline tagging (`None`: untagged, and the deadline machinery
    /// below stays inert).
    pub(crate) deadline: Option<DeadlineSpec>,
    /// Absolute deadlines of the waiting requests, parallel to the queue
    /// (front = oldest). Kept beside the queue so the untagged hot path
    /// and the queue's own codec stay untouched.
    pub(crate) deadlines: VecDeque<u64>,
    /// Index of the next tagged request: the deadline draw position. Only
    /// advances on arrival slices, which both engine modes execute per
    /// slice — the determinism anchor.
    pub(crate) deadline_counter: u64,
    /// Seed of the deadline side stream.
    pub(crate) deadline_seed: u64,
    /// The met/missed/slack ledger.
    pub(crate) deadline_stats: DeadlineStats,
}

impl DeviceCore {
    /// A fresh device resident in `model`'s highest-power state, with its
    /// streams derived from `config.seed` (the simulator derives its
    /// workload and noise streams from the same seed).
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] when the queue capacity is zero.
    pub(crate) fn new(
        model: &PowerModel,
        service: ServiceModel,
        config: &SimConfig,
    ) -> Result<Self, SimError> {
        Ok(DeviceCore {
            state: DeviceState::new(model),
            fault: FaultState::Healthy,
            queue: Queue::new(config.queue_cap)?,
            server: Server::new(service),
            weights: config.weights,
            rng_policy: StdRng::seed_from_u64(config.seed.wrapping_add(0x9e37_79b9)),
            rng_service: StdRng::seed_from_u64(config.seed.wrapping_add(0x3c6e_f372)),
            now: 0,
            idle_slices: 0,
            stats: RunStats::new(),
            faults: Vec::new(),
            fault_pos: 0,
            fault_stats: FaultStats::default(),
            deadline: config.deadline,
            deadlines: VecDeque::new(),
            deadline_counter: 0,
            deadline_seed: config.seed.wrapping_add(0x94d0_49bb),
            deadline_stats: DeadlineStats::default(),
        })
    }

    /// The true observation at the current slice boundary (no requester
    /// hint: that lives with the simulator's workload).
    #[inline]
    pub(crate) fn observation(&self) -> Observation {
        Observation {
            device_mode: self.state.mode,
            queue_len: self.queue.len(),
            idle_slices: self.idle_slices,
            sr_mode_hint: None,
        }
    }

    /// Installs the slice-sorted fault schedule (see
    /// [`crate::Simulator::set_fault_schedule`]).
    ///
    /// # Panics
    ///
    /// Panics if called after the clock has advanced or if `events` is not
    /// sorted by slice.
    pub(crate) fn set_fault_schedule(&mut self, events: Vec<FaultEvent>) {
        assert_eq!(
            self.now, 0,
            "fault schedules must be installed before the run starts"
        );
        assert!(
            events.windows(2).all(|w| w[0].at <= w[1].at),
            "fault schedule must be slice-sorted"
        );
        self.faults = events;
        self.fault_pos = 0;
    }

    /// Health normalized against the clock (see
    /// [`crate::Simulator::health`]).
    pub(crate) fn health(&self) -> DeviceHealth {
        match self.fault {
            FaultState::Degraded { until, .. } if self.now < until => DeviceHealth::Degraded,
            FaultState::Down { until, .. } if self.now < until => DeviceHealth::Down,
            _ => DeviceHealth::Healthy,
        }
    }

    /// Whether an expired crash window still awaits its reboot (see
    /// [`crate::Simulator::pending_revival`]).
    pub(crate) fn pending_revival(&self) -> bool {
        matches!(self.fault, FaultState::Down { until, .. } if self.now >= until)
    }

    /// Whether the next scheduled fault is due at the current slice.
    pub(crate) fn fault_due(&self) -> bool {
        self.faults
            .get(self.fault_pos)
            .is_some_and(|e| e.at <= self.now)
    }

    /// Slices until the next scheduled fault strikes (`u64::MAX` when
    /// none is left).
    pub(crate) fn slices_to_next_fault(&self) -> u64 {
        self.faults
            .get(self.fault_pos)
            .map_or(u64::MAX, |e| e.at.saturating_sub(self.now))
    }

    /// Whether the fault clock has anything left to do — unconsumed
    /// schedule entries or an active fault window. False for the entire
    /// lifetime of a fault-free run: the per-slice hot path stays a single
    /// predictable branch.
    #[inline]
    fn fault_clock_pending(&self) -> bool {
        self.fault_pos < self.faults.len() || !self.fault.is_healthy()
    }

    /// Advances the fault axis to the current slice: expires fault windows
    /// whose deadline has been reached (rebooting a recovered crash into
    /// the lowest-power state), then applies any scheduled fault due now.
    /// Idempotent at a fixed `now`.
    fn tick_fault_clock(&mut self, model: &PowerModel) {
        match self.fault {
            FaultState::Down { until, .. } if self.now >= until => {
                // Reboot: back in the lowest-power state, no in-flight
                // transition.
                self.fault = FaultState::Healthy;
                self.state = DeviceState::at(model.lowest_power_state());
            }
            FaultState::Degraded { until, .. } if self.now >= until => {
                self.fault = FaultState::Healthy;
            }
            _ => {}
        }
        while let Some(&event) = self.faults.get(self.fault_pos) {
            if event.at > self.now {
                break;
            }
            self.fault_pos += 1;
            if event.at < self.now {
                // Stale entry (scheduled inside another fault's window and
                // skipped past): drop it rather than firing late.
                continue;
            }
            if self.fault.down_power().is_some() {
                // A down device cannot fault again.
                continue;
            }
            self.apply_fault(event.kind);
        }
    }

    /// Applies one fault to the device, moving the availability books.
    fn apply_fault(&mut self, kind: FaultKind) {
        self.fault_stats.faults_injected += 1;
        self.fault = match kind {
            FaultKind::TransientCrash {
                down_for,
                down_power,
            } => {
                let lost = self.queue.drain_all() as u64;
                self.fault_stats.queue_lost += lost;
                if self.deadline.is_some() {
                    self.deadline_stats.lost += lost;
                    self.deadlines.clear();
                }
                self.server.set_progress(0);
                FaultState::Down {
                    until: self.now.saturating_add(down_for.max(1)),
                    power: down_power,
                    queue_preserved: false,
                }
            }
            FaultKind::FailStop { down_power } => FaultState::Down {
                until: Step::MAX,
                power: down_power,
                queue_preserved: true,
            },
            FaultKind::Straggler { slowdown, window } => FaultState::Degraded {
                slowdown: slowdown.max(1),
                until: self.now.saturating_add(window),
                opportunities: 0,
            },
        };
    }

    /// Removes every admitted-but-unserved request and any partial service
    /// progress, returning how many were stranded (see
    /// [`crate::Simulator::harvest_stranded`]).
    pub(crate) fn harvest_stranded(&mut self) -> u64 {
        let n = self.queue.drain_all() as u64;
        self.server.set_progress(0);
        if self.deadline.is_some() {
            // Harvested requests re-enter some device's arrival path and
            // are tagged again there with fresh deadlines.
            self.deadline_stats.requeued += n;
            self.deadlines.clear();
        }
        n
    }

    /// Admits this slice's arrivals under queue admission control —
    /// tagging each admitted request with an absolute deadline when tagging
    /// is enabled — and restarts or advances the idle timer; returns the
    /// number rejected by a full queue.
    #[inline]
    fn admit(&mut self, arrivals: u32) -> u32 {
        let mut dropped = 0u32;
        if let Some(spec) = self.deadline {
            for _ in 0..arrivals {
                self.deadline_stats.tagged += 1;
                if self.queue.push(self.now) {
                    let rel = spec.draw(self.deadline_seed, self.deadline_counter);
                    self.deadline_counter += 1;
                    self.deadlines.push_back(self.now.saturating_add(rel));
                } else {
                    dropped += 1;
                    self.deadline_stats.dropped += 1;
                }
            }
        } else {
            for _ in 0..arrivals {
                if !self.queue.push(self.now) {
                    dropped += 1;
                }
            }
        }
        self.idle_slices = if arrivals > 0 {
            0
        } else {
            self.idle_slices + 1
        };
        dropped
    }

    /// Classifies the completion popped at the current slice against its
    /// deadline, moving the ledger; returns 1 when the deadline was
    /// missed (the `deadline_misses` contribution), 0 otherwise.
    #[inline]
    fn settle_completion(&mut self) -> u32 {
        if self.deadline.is_none() {
            return 0;
        }
        let dl = self
            .deadlines
            .pop_front()
            .expect("tagged queue carries one deadline per waiting request");
        if self.now <= dl {
            self.deadline_stats.met += 1;
            self.deadline_stats.slack_sum += dl - self.now;
            0
        } else {
            self.deadline_stats.missed += 1;
            self.deadline_stats.tardiness_sum += self.now - dl;
            1
        }
    }

    /// One slice, with `arrivals` landing in it. Per slice, in order: the
    /// fault clock ticks (a down device sits the slice out: no decision,
    /// no device tick, no service, no RNG draw — the policy is only told
    /// to resync); the policy decides from the slice-opening observation;
    /// the command takes effect; arrivals enqueue; the device elapses the
    /// slice; service completes, gated by the fault axis; the statistics
    /// fold the outcome; the policy observes it.
    #[inline]
    pub(crate) fn step<P: BatchPolicy + ?Sized>(
        &mut self,
        model: &PowerModel,
        policy: &mut P,
        device: usize,
        arrivals: u32,
    ) -> StepOutcome {
        if self.fault_clock_pending() {
            self.tick_fault_clock(model);
            if let Some(power) = self.fault.down_power() {
                policy.resync(device);
                return self.down_slice(power, arrivals);
            }
        }
        let command = policy.decide(device, &self.observation(), &mut self.rng_policy);
        // Instant switches pay their energy at command time.
        let cmd_energy = self.state.command(model, command).immediate_energy();
        let dropped = self.admit(arrivals);
        let tick = self.state.tick(model);

        // Service, gated by the fault axis: a straggling device takes only
        // every slowdown-th opportunity, and a gated (or idle) slice draws
        // nothing from the service stream. The serving state's operating
        // point scales the completion law (DVFS) — the identity at nominal
        // frequency, so models without operating points stay bit-identical.
        let mut completed = 0u32;
        let mut wait_of_completed = 0u64;
        let mut deadline_misses = 0u32;
        if tick.can_serve && !self.queue.is_empty() && self.fault.service_gate() {
            let u = uniform(&mut self.rng_service);
            if self
                .server
                .advance_scaled(u, self.state.operating_freq(model))
            {
                wait_of_completed = self
                    .queue
                    .pop(self.now)
                    .expect("non-empty queue pops successfully");
                completed = 1;
                deadline_misses = self.settle_completion();
            }
        }

        let outcome = StepOutcome {
            energy: cmd_energy + tick.energy,
            queue_len: self.queue.len(),
            dropped,
            completed,
            arrivals,
            deadline_misses,
        };
        self.now += 1;
        self.stats
            .record(&outcome, &self.weights, wait_of_completed);
        policy.observe(device, &outcome, &self.observation());
        outcome
    }

    /// One slice of downtime: the device draws the fault-specified `power`
    /// and arrivals keep landing on the queue under normal admission
    /// control. Suspending the policy keeps every RNG stream identical
    /// across engine modes — down slices execute per slice in both.
    fn down_slice(&mut self, power: f64, arrivals: u32) -> StepOutcome {
        let dropped = self.admit(arrivals);
        let outcome = StepOutcome {
            energy: power,
            queue_len: self.queue.len(),
            dropped,
            completed: 0,
            arrivals,
            deadline_misses: 0,
        };
        self.now += 1;
        self.stats.record(&outcome, &self.weights, 0);
        self.fault_stats.downtime_slices += 1;
        outcome
    }

    /// The outcome of one quiescent slice (empty queue, no arrival) and how
    /// many of the `window` arrival-free slices may be offered for a
    /// closed-form commitment: all of them while operational, up to the
    /// transition's end while transitioning.
    pub(crate) fn quiescent_offer(&self, model: &PowerModel, window: u64) -> (StepOutcome, u64) {
        let (energy, offered) = match self.state.mode {
            DeviceMode::Operational(state) => (model.state(state).power, window),
            DeviceMode::Transitioning { remaining, .. } => (
                self.state
                    .transient_slice_energy()
                    .expect("transitioning device has an active transition"),
                window.min(u64::from(remaining)),
            ),
        };
        let per_slice = StepOutcome {
            energy,
            queue_len: 0,
            dropped: 0,
            completed: 0,
            arrivals: 0,
            deadline_misses: 0,
        };
        (per_slice, offered)
    }

    /// Accounts `k` committed quiescent slices in closed form: the books
    /// move, the clock and idle timer advance, and an in-flight transition
    /// counts down (residency in an operational state leaves the device
    /// untouched).
    pub(crate) fn skip(&mut self, model: &PowerModel, per_slice: &StepOutcome, k: u64) {
        if k == 0 {
            return;
        }
        if self.state.mode.is_transitioning() {
            for _ in 0..k {
                let tick = self.state.tick(model);
                debug_assert_eq!(tick.energy, per_slice.energy);
            }
        }
        self.stats.record_quiescent(per_slice, &self.weights, k);
        self.now += k;
        self.idle_slices += k;
    }
}

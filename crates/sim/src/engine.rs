use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::SeedableRng;

use qdpm_core::rng_util::uniform;
use qdpm_core::{
    Observation, PowerManager, RewardWeights, StateError, StateReader, StateWriter, StepOutcome,
};
use qdpm_device::{
    DeviceHealth, DeviceMode, DeviceState, FaultEvent, FaultState, PowerModel, PowerStateId,
    QueueStats, ServiceModel, Step, TransitionSpec,
};
use qdpm_workload::{ArrivalGap, DeadlineSpec, DeadlineStats, RequestGenerator};

use crate::kernel::{BatchPolicy, DeviceCore};
use crate::{FaultStats, RunStats, SeriesRecorder, SimError, WindowPoint};

/// How [`Simulator::run`] advances simulated time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum EngineMode {
    /// Execute every slice (the reference semantics; default).
    #[default]
    PerSlice,
    /// Fast-forward quiescent stretches: while the queue is empty, the
    /// engine prefetches the gap to the next arrival from the workload
    /// ([`RequestGenerator::next_arrival_gap`]) and asks the power manager
    /// to commit slices it will pass without per-slice consultation
    /// ([`PowerManager::commit_quiescent`]); committed slices are
    /// accounted in closed form. Slices nobody commits to — non-empty
    /// queues, arrival slices, managers that opt out — run through the
    /// ordinary per-slice body.
    ///
    /// Equivalence to [`EngineMode::PerSlice`]: *exact* (equal metrics)
    /// whenever neither the workload gap sampler nor the manager's
    /// commitment consumes randomness differently — trace-driven/countdown
    /// workloads with deterministic baselines, or a zero-epsilon Q-DPM
    /// agent; *statistical* (identical law, different RNG draw order) for
    /// stochastic workloads/managers with closed-form gap draws. With
    /// observation noise, an attached series recorder, or exposed
    /// requester modes the engine silently falls back to per-slice
    /// stepping, which needs no further qualification.
    EventSkip,
}

/// Prefetched workload state while fast-forwarding: how far away the next
/// arrival is and how large it will be.
#[derive(Debug, Clone, Copy)]
struct PendingGap {
    /// Arrival-free slices left before `arrival` lands.
    empty_left: u64,
    /// Arrivals of the slice that ends the gap (`None`: quiet prefetch —
    /// nothing known beyond the empty slices).
    arrival: Option<u32>,
}

/// Observation noise injected between the system and the power manager
/// (the "noisy environment" of the Fuzzy Q-DPM experiment, F4).
///
/// Noise corrupts only what the PM *sees*; energy/latency accounting uses
/// the true state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObservationNoise {
    /// Probability that the reported queue length is off by one (direction
    /// uniform, clamped at 0).
    pub queue_misread_prob: f64,
    /// Maximum uniform jitter added to the reported idle time, in slices.
    pub idle_jitter: u64,
}

impl ObservationNoise {
    /// No noise.
    #[must_use]
    pub fn none() -> Self {
        ObservationNoise {
            queue_misread_prob: 0.0,
            idle_jitter: 0,
        }
    }

    /// Whether any noise is configured.
    fn is_active(&self) -> bool {
        self.queue_misread_prob > 0.0 || self.idle_jitter > 0
    }

    /// The PM's corrupted view of `obs`, drawn from `rng`.
    fn corrupt(&self, obs: Observation, rng: &mut StdRng) -> Observation {
        let mut out = obs;
        if self.queue_misread_prob > 0.0 && uniform(rng) < self.queue_misread_prob {
            let up = uniform(rng) < 0.5;
            out.queue_len = if up {
                out.queue_len + 1
            } else {
                out.queue_len.saturating_sub(1)
            };
        }
        if self.idle_jitter > 0 {
            let j = (uniform(rng) * (2 * self.idle_jitter + 1) as f64) as u64;
            out.idle_slices = (out.idle_slices + j).saturating_sub(self.idle_jitter);
        }
        out
    }
}

impl Default for ObservationNoise {
    fn default() -> Self {
        ObservationNoise::none()
    }
}

/// Configuration of a [`Simulator`].
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Queue capacity.
    pub queue_cap: usize,
    /// Reward/cost weights (shared by metrics and learning agents).
    pub weights: RewardWeights,
    /// Master seed; the simulator derives independent streams for the
    /// workload, the policy, the service process and observation noise, so
    /// different policies face *identical* arrival sequences.
    pub seed: u64,
    /// Whether the hidden requester mode is exposed to the PM
    /// (`sr_mode_hint`); true only for white-box model-based baselines.
    pub expose_sr_mode: bool,
    /// Observation noise (F4).
    pub noise: ObservationNoise,
    /// How `run` advances time (default: per-slice).
    pub mode: EngineMode,
    /// Deadline tagging of arriving requests (default: `None` — untagged).
    /// When set, every admitted request draws an absolute deadline from a
    /// deterministic side stream (see [`qdpm_workload::DeadlineSpec::draw`])
    /// and the simulator maintains a [`DeadlineStats`] ledger; completions
    /// past their deadline surface as [`StepOutcome::deadline_misses`] so
    /// deadline-aware reward weights can penalize them.
    pub deadline: Option<DeadlineSpec>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            queue_cap: 8,
            weights: RewardWeights::default(),
            seed: 42,
            expose_sr_mode: false,
            noise: ObservationNoise::none(),
            mode: EngineMode::PerSlice,
            deadline: None,
        }
    }
}

/// Discrete-time DPM simulator: drives a [`PowerManager`] against a device,
/// queue and workload under the exact step semantics shared with the MDP
/// builder (`docs/ARCHITECTURE.md`, "Dataflow: one slice, one device").
///
/// Per slice, in order: PM decides; command takes effect; arrivals enqueue;
/// service completes (geometric); energy and performance are accounted;
/// transition countdowns advance; the PM receives the outcome. The slice
/// body itself belongs to the device kernel the batched fleet cohorts step
/// too; the simulator adds what is its own — the workload and its
/// event-skip prefetch, injected arrivals, observation noise, the
/// requester-mode hint, and the series recorder.
///
/// # Example
///
/// ```
/// use qdpm_core::{QDpmAgent, QDpmConfig};
/// use qdpm_device::presets;
/// use qdpm_sim::{SimConfig, Simulator};
/// use qdpm_workload::WorkloadSpec;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let power = presets::three_state_generic();
/// let agent = QDpmAgent::new(&power, QDpmConfig::default())?;
/// let mut sim = Simulator::new(
///     power.clone(),
///     presets::default_service(),
///     WorkloadSpec::bernoulli(0.05)?.build(),
///     Box::new(agent),
///     SimConfig::default(),
/// )?;
/// let stats = sim.run(10_000);
/// assert_eq!(stats.steps, 10_000);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Simulator {
    model: PowerModel,
    core: DeviceCore,
    generator: Box<dyn RequestGenerator>,
    pm: Box<dyn PowerManager>,
    expose_sr_mode: bool,
    noise: ObservationNoise,
    rng_workload: StdRng,
    rng_noise: StdRng,
    recorder: Option<SeriesRecorder>,
    mode: EngineMode,
    /// Workload prefetch of the event-skipping engine; per-slice stepping
    /// drains it before touching the live generator again.
    pending_gap: Option<PendingGap>,
    /// The noisy observation handed to the PM as `next_obs` at the end of
    /// the previous slice, carried over so the next `decide` sees the
    /// *same* corrupted view (noise is drawn once per slice boundary).
    carried_obs: Option<Observation>,
    /// Arrivals injected from outside ([`Simulator::inject_arrivals`]),
    /// consumed — on top of the workload's own arrivals — by the next
    /// executed slice. The online fleet dispatcher routes aggregate
    /// arrivals through this door.
    injected: u32,
}

/// The simulator's view of its power manager: stamps the requester-mode
/// hint on both observations (the opening one read before the slice's
/// arrival draw, the closing one after it) and, under noise, corrupts
/// them, carrying the corrupted `next_obs` so the next `decide` sees it.
struct Sighted<'a> {
    pm: &'a mut dyn PowerManager,
    hints: [Option<usize>; 2],
    noise: ObservationNoise,
    rng_noise: &'a mut StdRng,
    carried: &'a mut Option<Observation>,
}

impl Sighted<'_> {
    fn view(&mut self, obs: Observation, hint: Option<usize>) -> Observation {
        let obs = Observation {
            sr_mode_hint: hint,
            ..obs
        };
        if self.noise.is_active() {
            self.noise.corrupt(obs, self.rng_noise)
        } else {
            obs
        }
    }
}

impl BatchPolicy for Sighted<'_> {
    fn decide(&mut self, _device: usize, obs: &Observation, rng: &mut StdRng) -> PowerStateId {
        let seen = match self.carried.take() {
            Some(carried) => carried,
            None => self.view(*obs, self.hints[0]),
        };
        self.pm.decide(&seen, rng)
    }

    fn observe(&mut self, _device: usize, outcome: &StepOutcome, next_obs: &Observation) {
        let seen = self.view(*next_obs, self.hints[1]);
        self.pm.observe(outcome, &seen);
        if self.noise.is_active() {
            *self.carried = Some(seen);
        }
    }
}

impl Simulator {
    /// Assembles a simulator.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] when the queue capacity is zero.
    pub fn new(
        power: PowerModel,
        service: ServiceModel,
        generator: Box<dyn RequestGenerator>,
        pm: Box<dyn PowerManager>,
        config: SimConfig,
    ) -> Result<Self, SimError> {
        Ok(Simulator {
            core: DeviceCore::new(&power, service, &config)?,
            model: power,
            generator,
            pm,
            expose_sr_mode: config.expose_sr_mode,
            noise: config.noise,
            rng_workload: StdRng::seed_from_u64(config.seed),
            rng_noise: StdRng::seed_from_u64(config.seed.wrapping_add(0x1446_14e5)),
            recorder: None,
            mode: config.mode,
            pending_gap: None,
            carried_obs: None,
            injected: 0,
        })
    }

    /// Attaches a windowed series recorder (Fig. 1/2 curves). The always-on
    /// reference is the device's highest-power state.
    pub fn attach_recorder(&mut self, window: Step) {
        let p_on = self.model.state(self.model.highest_power_state()).power;
        self.recorder = Some(SeriesRecorder::new(window, p_on));
    }

    /// Takes the recorded series, flushing a partial window.
    #[must_use]
    pub fn take_series(&mut self) -> Vec<WindowPoint> {
        self.recorder
            .take()
            .map(SeriesRecorder::finish)
            .unwrap_or_default()
    }

    /// Current slice index.
    #[must_use]
    pub fn now(&self) -> Step {
        self.core.now
    }

    /// The engine mode `run` advances time under (fixed at construction).
    #[must_use]
    pub fn engine_mode(&self) -> EngineMode {
        self.mode
    }

    /// Statistics accumulated so far.
    #[must_use]
    pub fn stats(&self) -> &RunStats {
        &self.core.stats
    }

    /// The device kernel (fleet report scatter).
    pub(crate) fn core(&self) -> &DeviceCore {
        &self.core
    }

    /// Read access to the power manager.
    #[must_use]
    pub fn pm(&self) -> &dyn PowerManager {
        self.pm.as_ref()
    }

    /// The true (noise-free) observation at the start of the current slice.
    #[must_use]
    pub fn observation(&self) -> Observation {
        Observation {
            sr_mode_hint: self.sr_mode_hint(),
            ..self.core.observation()
        }
    }

    /// The requester mode the PM may see, if exposed.
    fn sr_mode_hint(&self) -> Option<usize> {
        self.expose_sr_mode.then(|| self.generator.mode())
    }

    /// This slice's arrival count: drains the event-skip prefetch buffer
    /// first (in per-slice mode the buffer is always empty and this is a
    /// single predictable branch), then the live generator — plus any
    /// externally injected arrivals ([`Simulator::inject_arrivals`]),
    /// which ride on top of the workload's own stream without touching it.
    #[inline]
    fn slice_arrivals(&mut self) -> u32 {
        let own = match self.pending_gap {
            None => self.generator.next_arrivals(&mut self.rng_workload),
            Some(mut gap) => {
                if gap.empty_left > 0 {
                    gap.empty_left -= 1;
                    self.pending_gap = if gap.empty_left == 0 && gap.arrival.is_none() {
                        None
                    } else {
                        Some(gap)
                    };
                    0
                } else if let Some(count) = gap.arrival {
                    self.pending_gap = None;
                    count
                } else {
                    // Fully drained quiet prefetch: back to the live
                    // generator.
                    self.pending_gap = None;
                    self.generator.next_arrivals(&mut self.rng_workload)
                }
            }
        };
        own + std::mem::take(&mut self.injected)
    }

    /// Queues `count` externally dispatched arrivals for the *next executed
    /// slice*, on top of whatever the simulator's own workload emits there.
    ///
    /// This is the online-dispatch door: a fleet coordinator routes each
    /// aggregate arrival against live device state and injects it into the
    /// chosen member just before stepping that member's arrival slice. The
    /// injection is deterministic — it changes no RNG stream — and both
    /// engine modes honour it ([`Simulator::run`] under
    /// [`EngineMode::EventSkip`] refuses to fast-forward past pending
    /// injected arrivals).
    pub fn inject_arrivals(&mut self, count: u32) {
        self.injected += count;
    }

    /// Moves the device into `state` (cancelling any in-flight transition)
    /// without touching queue, clock, statistics or RNG streams. Intended
    /// before the first slice — e.g. a power-capped rack cold-boots its
    /// members in their lowest-power state so the cap holds from slice 0.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range for the device's power model.
    pub fn reset_device_to(&mut self, state: PowerStateId) {
        assert!(state.index() < self.model.n_states(), "state out of range");
        self.core.state = DeviceState::at(state);
    }

    /// Installs the slice-sorted fault schedule this simulator will replay
    /// (see `qdpm_workload::FaultInjector::plan`). The schedule is part of
    /// the run's deterministic plan: injection consults only the simulation
    /// clock, never thread timing or live state, so fault-injected runs
    /// stay bit-exact across engine modes and thread counts.
    ///
    /// # Panics
    ///
    /// Panics if called after the clock has advanced or if `events` is not
    /// sorted by slice.
    pub fn set_fault_schedule(&mut self, events: Vec<FaultEvent>) {
        self.core.set_fault_schedule(events);
    }

    /// The device's current health, normalized against the clock (an
    /// expired fault window the lazy fault clock has not cleared yet reads
    /// healthy).
    #[must_use]
    pub fn health(&self) -> DeviceHealth {
        self.core.health()
    }

    /// Whether a fault window has expired but the lazy fault clock has not
    /// applied the revival reset yet. In this gap [`Simulator::health`]
    /// already reads healthy while [`Simulator::observation`] still shows
    /// the stale pre-crash device mode; the device's true post-revival
    /// state is its lowest power state. A capped rack's budget refresh
    /// must bound such a member at its floor, not at the stale mode's
    /// demand.
    #[must_use]
    pub fn pending_revival(&self) -> bool {
        self.core.pending_revival()
    }

    /// The fault-specified slice draw while the device is down
    /// (normalized like [`Simulator::health`]), `None` otherwise. A capped
    /// rack reclaims the rest of the member's nominal budget from this.
    #[must_use]
    pub fn fault_down_power(&self) -> Option<f64> {
        if self.health() == DeviceHealth::Down {
            self.core.fault.down_power()
        } else {
            None
        }
    }

    /// Availability accounting maintained by the fault clock.
    #[must_use]
    pub fn fault_stats(&self) -> &FaultStats {
        &self.core.fault_stats
    }

    /// The deadline ledger (all zeros when the workload is untagged).
    ///
    /// Conservation invariant (asserted by the chaos suite): at every
    /// slice boundary,
    /// `tagged == met + missed + dropped + requeued + lost + queue_len` —
    /// every tagged arrival is waiting or in exactly one terminal bucket.
    #[must_use]
    pub fn deadline_stats(&self) -> &DeadlineStats {
        &self.core.deadline_stats
    }

    /// Removes every admitted-but-unserved request from the queue (and any
    /// partial service progress), returning how many were stranded. A fleet
    /// coordinator calls this at a crash-onset barrier to move the doomed
    /// queue into its retry machinery *before* the onset slice executes;
    /// the crash itself then finds an empty queue and loses nothing. The
    /// harvested requests must be re-accounted by the caller — they are no
    /// longer visible in this simulator's queue or stats.
    pub fn harvest_stranded(&mut self) -> u64 {
        self.core.harvest_stranded()
    }

    /// Checkpoint support: appends the simulator's entire dynamic state —
    /// device mode and in-flight transition, waiting queue and its
    /// counters, service progress, all four RNG streams, the clock, the
    /// cumulative [`RunStats`], the event-skip prefetch, the carried noisy
    /// observation, pending injected arrivals, the deadline ledger and the
    /// waiting requests' deadlines, and the workload's and power
    /// manager's own state ([`RequestGenerator::save_state`],
    /// [`PowerManager::save_state`]) — to a payload.
    ///
    /// Restoring the payload into a freshly built simulator with the same
    /// configuration ([`Simulator::load_state`]) continues the run
    /// bit-identically to never having stopped. An attached
    /// [`SeriesRecorder`] is *not* checkpointed; long-running serving does
    /// not use one.
    pub fn save_state(&self, w: &mut StateWriter) {
        let core = &self.core;
        put_device_state(w, core.state);
        let waiting: Vec<Step> = core.queue.arrival_times().collect();
        w.put_usize(waiting.len());
        for t in waiting {
            w.put_u64(t);
        }
        let qs = *core.queue.stats();
        w.put_u64(qs.enqueued);
        w.put_u64(qs.dropped);
        w.put_u64(qs.dequeued);
        w.put_u64(qs.total_wait);
        w.put_u32(core.server.progress());
        for rng in [
            &self.rng_workload,
            &core.rng_policy,
            &core.rng_service,
            &self.rng_noise,
        ] {
            for word in rng.state() {
                w.put_u64(word);
            }
        }
        w.put_u64(core.now);
        w.put_u64(core.idle_slices);
        w.put_u64(core.stats.steps);
        w.put_f64(core.stats.total_energy);
        w.put_f64(core.stats.total_cost);
        w.put_u64(core.stats.arrivals);
        w.put_u64(core.stats.completed);
        w.put_u64(core.stats.dropped);
        w.put_f64(core.stats.queue_len_sum);
        w.put_u64(core.stats.total_wait);
        match self.pending_gap {
            None => w.put_bool(false),
            Some(gap) => {
                w.put_bool(true);
                w.put_u64(gap.empty_left);
                match gap.arrival {
                    None => w.put_bool(false),
                    Some(count) => {
                        w.put_bool(true);
                        w.put_u32(count);
                    }
                }
            }
        }
        match &self.carried_obs {
            None => w.put_bool(false),
            Some(obs) => {
                w.put_bool(true);
                put_observation(w, obs);
            }
        }
        w.put_u32(self.injected);
        put_fault_state(w, core.fault);
        w.put_usize(core.fault_pos);
        w.put_u64(core.fault_stats.faults_injected);
        w.put_u64(core.fault_stats.downtime_slices);
        w.put_u64(core.fault_stats.queue_lost);
        w.put_usize(core.deadlines.len());
        for &d in &core.deadlines {
            w.put_u64(d);
        }
        w.put_u64(core.deadline_counter);
        core.deadline_stats.save_state(w);
        self.generator.save_state(w);
        self.pm.save_state(w);
    }

    /// Checkpoint support: restores state written by
    /// [`Simulator::save_state`] into a simulator built with the same
    /// configuration (model, service, workload spec, power manager kind,
    /// seed, engine mode).
    ///
    /// # Errors
    ///
    /// Returns a [`StateError`] when the payload does not decode or a
    /// restored value is out of range for this simulator's models. On
    /// error the simulator may be partially restored and must be
    /// discarded, not resumed.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        let n_states = self.model.n_states();
        let device = get_device_state(r, n_states)?;
        let n_waiting = r.get_usize()?;
        if n_waiting > self.core.queue.capacity() {
            return Err(StateError::BadValue(format!(
                "restored queue of {n_waiting} requests exceeds capacity {}",
                self.core.queue.capacity()
            )));
        }
        let mut waiting = Vec::with_capacity(n_waiting);
        for _ in 0..n_waiting {
            waiting.push(r.get_u64()?);
        }
        let qstats = QueueStats {
            enqueued: r.get_u64()?,
            dropped: r.get_u64()?,
            dequeued: r.get_u64()?,
            total_wait: r.get_u64()?,
        };
        let progress = r.get_u32()?;
        let mut rng_states = [[0u64; 4]; 4];
        for state in &mut rng_states {
            for word in state.iter_mut() {
                *word = r.get_u64()?;
            }
        }
        let now = r.get_u64()?;
        let idle_slices = r.get_u64()?;
        let stats = RunStats {
            steps: r.get_u64()?,
            total_energy: r.get_f64()?,
            total_cost: r.get_f64()?,
            arrivals: r.get_u64()?,
            completed: r.get_u64()?,
            dropped: r.get_u64()?,
            queue_len_sum: r.get_f64()?,
            total_wait: r.get_u64()?,
        };
        let pending_gap = if r.get_bool()? {
            let empty_left = r.get_u64()?;
            let arrival = if r.get_bool()? {
                Some(r.get_u32()?)
            } else {
                None
            };
            Some(PendingGap {
                empty_left,
                arrival,
            })
        } else {
            None
        };
        let carried_obs = if r.get_bool()? {
            Some(get_observation(r, n_states)?)
        } else {
            None
        };
        let injected = r.get_u32()?;
        let fault = get_fault_state(r)?;
        let fault_pos = r.get_usize()?;
        if fault_pos > self.core.faults.len() {
            return Err(StateError::BadValue(format!(
                "restored fault cursor {fault_pos} past schedule of {} events",
                self.core.faults.len()
            )));
        }
        let fault_stats = FaultStats {
            faults_injected: r.get_u64()?,
            downtime_slices: r.get_u64()?,
            queue_lost: r.get_u64()?,
        };
        let n_deadlines = r.get_usize()?;
        let tagged = self.core.deadline.is_some();
        let expected_deadlines = if tagged { n_waiting } else { 0 };
        if n_deadlines != expected_deadlines {
            return Err(StateError::BadValue(format!(
                "restored {n_deadlines} deadlines for a queue of {n_waiting} \
                 requests (tagging {})",
                if tagged { "on" } else { "off" }
            )));
        }
        let mut deadlines = VecDeque::with_capacity(n_deadlines);
        for _ in 0..n_deadlines {
            deadlines.push_back(r.get_u64()?);
        }
        let deadline_counter = r.get_u64()?;
        let deadline_stats = DeadlineStats::load_state(r)?;
        let core = &mut self.core;
        core.state = device;
        core.fault = fault;
        core.fault_pos = fault_pos;
        core.fault_stats = fault_stats;
        core.queue
            .restore(&waiting, qstats)
            .map_err(|e| StateError::BadValue(e.to_string()))?;
        core.server.set_progress(progress);
        self.rng_workload = StdRng::from_state(rng_states[0]);
        core.rng_policy = StdRng::from_state(rng_states[1]);
        core.rng_service = StdRng::from_state(rng_states[2]);
        self.rng_noise = StdRng::from_state(rng_states[3]);
        core.now = now;
        core.idle_slices = idle_slices;
        core.stats = stats;
        core.deadlines = deadlines;
        core.deadline_counter = deadline_counter;
        core.deadline_stats = deadline_stats;
        self.pending_gap = pending_gap;
        self.carried_obs = carried_obs;
        self.injected = injected;
        self.generator.load_state(r)?;
        self.pm.load_state(r)
    }

    /// Advances the simulation by one slice and returns its outcome.
    ///
    /// A manager without noise or a requester hint is handed to the device
    /// kernel directly; otherwise through a view that stamps the hint and
    /// applies the noise, dropping a carried noisy view once a reboot
    /// makes it stale.
    pub fn step(&mut self) -> StepOutcome {
        let outcome = if self.expose_sr_mode || self.noise.is_active() {
            let opening = self.sr_mode_hint();
            let arrivals = self.slice_arrivals();
            let closing = self.sr_mode_hint();
            if self.core.pending_revival() {
                self.carried_obs = None;
            }
            let mut sighted = Sighted {
                pm: self.pm.as_mut(),
                hints: [opening, closing],
                noise: self.noise,
                rng_noise: &mut self.rng_noise,
                carried: &mut self.carried_obs,
            };
            self.core.step(&self.model, &mut sighted, 0, arrivals)
        } else {
            let arrivals = self.slice_arrivals();
            self.core.step(&self.model, self.pm.as_mut(), 0, arrivals)
        };
        if let Some(rec) = &mut self.recorder {
            rec.record(&outcome, &self.core.weights);
        }
        outcome
    }

    /// Makes sure the gap to the next arrival is prefetched (drawing from
    /// the workload when nothing is buffered; the prefetch window is
    /// `limit` slices) and returns how many arrival-free slices lie ahead.
    fn ensure_gap(&mut self, limit: u64) -> u64 {
        if self.pending_gap.is_none() {
            let gap = self
                .generator
                .next_arrival_gap(&mut self.rng_workload, limit);
            self.pending_gap = Some(match gap {
                ArrivalGap::Arrival { empty, count } => PendingGap {
                    empty_left: empty,
                    arrival: Some(count),
                },
                ArrivalGap::Quiet { advanced } => PendingGap {
                    empty_left: advanced,
                    arrival: None,
                },
            });
        }
        self.pending_gap.map_or(0, |g| g.empty_left)
    }

    /// The event-skipping run loop (see [`EngineMode::EventSkip`]).
    ///
    /// Per iteration: a non-empty queue or an imminent arrival runs one
    /// ordinary slice; otherwise the manager is offered the arrival-free
    /// window (capped to the in-flight transition, if any) and every slice
    /// it commits to is accounted in closed form — no decide/observe, no
    /// device/queue/service work, no RNG. A zero commitment also runs one
    /// ordinary slice, so every iteration makes progress.
    fn run_event_skip(&mut self, steps: Step) -> RunStats {
        // Per-slice-only machinery configured: fall back wholesale onto
        // per-slice stepping.
        if self.noise.is_active() || self.recorder.is_some() || self.expose_sr_mode {
            return self.run_per_slice(steps);
        }
        let before = self.core.stats.clone();
        let mut remaining = steps;
        while remaining > 0 {
            // An active fault window (down or degraded) or a fault due at
            // this slice pins per-slice execution: downtime and degraded
            // service are accounted slice by slice in both engine modes,
            // which keeps fault-injected runs bit-exact by construction. A
            // non-empty queue or pending injected arrivals pin it too —
            // fast-forwarding would land the injection on the wrong slice.
            if !self.core.fault.is_healthy()
                || self.core.fault_due()
                || !self.core.queue.is_empty()
                || self.injected > 0
            {
                self.step();
                remaining -= 1;
                continue;
            }
            // A scheduled fault bounds the commit-quiescent horizon exactly
            // like an arrival: never prefetch or commit past its onset.
            let window = remaining.min(self.core.slices_to_next_fault());
            let empty_ahead = self.ensure_gap(window).min(window);
            if empty_ahead == 0 {
                self.step();
                remaining -= 1;
                continue;
            }
            // The transient arm caps the offer at the transition end,
            // which is not a decline.
            let (per_slice, offered) = self.core.quiescent_offer(&self.model, empty_ahead);
            let obs = self.core.observation();
            let committed = self
                .pm
                .commit_quiescent(&obs, &per_slice, offered, &mut self.core.rng_policy)
                .min(offered); // never trust a manager past its window
            self.core.skip(&self.model, &per_slice, committed);
            if let Some(gap) = &mut self.pending_gap {
                gap.empty_left -= committed;
            }
            remaining -= committed;
            // The manager declined (part of) the offered window: the next
            // slice is its decision epoch — run it per slice right away
            // instead of re-offering a window it just turned down. The
            // declined slice lies strictly inside the fault-free window
            // (committed < offered <= window), so it cannot cross an onset.
            if committed < offered && remaining > 0 {
                self.step();
                remaining -= 1;
            }
        }
        diff_stats(&self.core.stats, &before)
    }

    /// Runs `steps` slices and returns the statistics of that stretch.
    ///
    /// In [`EngineMode::PerSlice`] (the default) this is
    /// [`Simulator::step`] in a loop. In [`EngineMode::EventSkip`]
    /// quiescent stretches are fast-forwarded instead (see the mode's
    /// documentation for the exact equivalence contract); calling
    /// [`Simulator::step`] directly always executes a single ordinary
    /// slice in either mode.
    pub fn run(&mut self, steps: Step) -> RunStats {
        if self.mode == EngineMode::EventSkip {
            return self.run_event_skip(steps);
        }
        self.run_per_slice(steps)
    }

    /// The per-slice run loop.
    fn run_per_slice(&mut self, steps: Step) -> RunStats {
        let before = self.core.stats.clone();
        for _ in 0..steps {
            self.step();
        }
        diff_stats(&self.core.stats, &before)
    }
}

/// Reads a power state id, validated against the model's state count.
fn get_state_id(r: &mut StateReader<'_>, n_states: usize) -> Result<PowerStateId, StateError> {
    let index = r.get_usize()?;
    if index >= n_states {
        return Err(StateError::BadValue(format!(
            "power state {index} out of range for model of {n_states} states"
        )));
    }
    Ok(PowerStateId::from_index(index))
}

/// Appends a [`DeviceMode`] (tag byte plus fields).
fn put_device_mode(w: &mut StateWriter, mode: DeviceMode) {
    match mode {
        DeviceMode::Operational(state) => {
            w.put_u8(0);
            w.put_usize(state.index());
        }
        DeviceMode::Transitioning {
            from,
            to,
            remaining,
        } => {
            w.put_u8(1);
            w.put_usize(from.index());
            w.put_usize(to.index());
            w.put_u32(remaining);
        }
    }
}

/// Reads a [`DeviceMode`] written by [`put_device_mode`].
fn get_device_mode(r: &mut StateReader<'_>, n_states: usize) -> Result<DeviceMode, StateError> {
    match r.get_u8()? {
        0 => Ok(DeviceMode::Operational(get_state_id(r, n_states)?)),
        1 => {
            let from = get_state_id(r, n_states)?;
            let to = get_state_id(r, n_states)?;
            let remaining = r.get_u32()?;
            if remaining == 0 {
                return Err(StateError::BadValue(
                    "transitioning device with zero slices remaining".into(),
                ));
            }
            Ok(DeviceMode::Transitioning {
                from,
                to,
                remaining,
            })
        }
        tag => Err(StateError::BadValue(format!(
            "unknown device mode tag {tag}"
        ))),
    }
}

/// Appends a [`DeviceState`] (mode plus any in-flight transition spec).
fn put_device_state(w: &mut StateWriter, state: DeviceState) {
    put_device_mode(w, state.mode);
    match state.active_transition {
        None => w.put_bool(false),
        Some(spec) => {
            w.put_bool(true);
            w.put_u32(spec.latency);
            w.put_f64(spec.energy);
        }
    }
}

/// Reads a [`DeviceState`] written by [`put_device_state`].
fn get_device_state(r: &mut StateReader<'_>, n_states: usize) -> Result<DeviceState, StateError> {
    let mode = get_device_mode(r, n_states)?;
    let active_transition = if r.get_bool()? {
        Some(TransitionSpec {
            latency: r.get_u32()?,
            energy: r.get_f64()?,
        })
    } else {
        None
    };
    if mode.is_transitioning() && active_transition.is_none() {
        return Err(StateError::BadValue(
            "transitioning device without an active transition spec".into(),
        ));
    }
    Ok(DeviceState {
        mode,
        active_transition,
    })
}

/// Appends a [`FaultState`] (tag byte plus fields).
fn put_fault_state(w: &mut StateWriter, fault: FaultState) {
    match fault {
        FaultState::Healthy => w.put_u8(0),
        FaultState::Degraded {
            slowdown,
            until,
            opportunities,
        } => {
            w.put_u8(1);
            w.put_u64(slowdown);
            w.put_u64(until);
            w.put_u64(opportunities);
        }
        FaultState::Down {
            until,
            power,
            queue_preserved,
        } => {
            w.put_u8(2);
            w.put_u64(until);
            w.put_f64(power);
            w.put_bool(queue_preserved);
        }
    }
}

/// Reads a [`FaultState`] written by [`put_fault_state`].
fn get_fault_state(r: &mut StateReader<'_>) -> Result<FaultState, StateError> {
    match r.get_u8()? {
        0 => Ok(FaultState::Healthy),
        1 => {
            let slowdown = r.get_u64()?;
            if slowdown == 0 {
                return Err(StateError::BadValue(
                    "degraded device with zero slowdown".into(),
                ));
            }
            Ok(FaultState::Degraded {
                slowdown,
                until: r.get_u64()?,
                opportunities: r.get_u64()?,
            })
        }
        2 => Ok(FaultState::Down {
            until: r.get_u64()?,
            power: r.get_f64()?,
            queue_preserved: r.get_bool()?,
        }),
        tag => Err(StateError::BadValue(format!(
            "unknown fault state tag {tag}"
        ))),
    }
}

/// Appends an [`Observation`] (the carried noisy view).
fn put_observation(w: &mut StateWriter, obs: &Observation) {
    put_device_mode(w, obs.device_mode);
    w.put_usize(obs.queue_len);
    w.put_u64(obs.idle_slices);
    match obs.sr_mode_hint {
        None => w.put_bool(false),
        Some(mode) => {
            w.put_bool(true);
            w.put_usize(mode);
        }
    }
}

/// Reads an [`Observation`] written by [`put_observation`].
fn get_observation(r: &mut StateReader<'_>, n_states: usize) -> Result<Observation, StateError> {
    let device_mode = get_device_mode(r, n_states)?;
    let queue_len = r.get_usize()?;
    let idle_slices = r.get_u64()?;
    let sr_mode_hint = if r.get_bool()? {
        Some(r.get_usize()?)
    } else {
        None
    };
    Ok(Observation {
        device_mode,
        queue_len,
        idle_slices,
        sr_mode_hint,
    })
}

/// Subtracts two cumulative statistics (run-stretch accounting).
fn diff_stats(after: &RunStats, before: &RunStats) -> RunStats {
    RunStats {
        steps: after.steps - before.steps,
        total_energy: after.total_energy - before.total_energy,
        total_cost: after.total_cost - before.total_cost,
        arrivals: after.arrivals - before.arrivals,
        completed: after.completed - before.completed,
        dropped: after.dropped - before.dropped,
        queue_len_sum: after.queue_len_sum - before.queue_len_sum,
        total_wait: after.total_wait - before.total_wait,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::AlwaysOn;
    use qdpm_device::presets;
    use qdpm_workload::WorkloadSpec;

    fn sim_with(p_arrival: f64, seed: u64) -> Simulator {
        let power = presets::three_state_generic();
        let pm = AlwaysOn::new(&power);
        Simulator::new(
            power,
            presets::default_service(),
            WorkloadSpec::bernoulli(p_arrival).unwrap().build(),
            Box::new(pm),
            SimConfig {
                seed,
                ..SimConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn always_on_energy_is_exact() {
        let mut sim = sim_with(0.0, 1);
        let stats = sim.run(1000);
        // Highest-power state draws 1.0 per slice, no transitions.
        assert!((stats.total_energy - 1000.0).abs() < 1e-9);
        assert_eq!(stats.completed, 0);
        assert_eq!(stats.dropped, 0);
    }

    #[test]
    fn conservation_arrivals_completed_dropped_queued() {
        let mut sim = sim_with(0.3, 7);
        let stats = sim.run(5000);
        let queued = sim.observation().queue_len as u64;
        assert_eq!(stats.arrivals, stats.completed + stats.dropped + queued);
    }

    #[test]
    fn same_seed_same_workload_across_policies() {
        // Two different policy RNG consumption patterns must not change
        // the arrival sequence.
        let mut a = sim_with(0.3, 99);
        let mut b = sim_with(0.3, 99);
        let sa = a.run(2000);
        // run b in two chunks to desync any shared state hypothetically
        let sb1 = b.run(1000);
        let sb2 = b.run(1000);
        assert_eq!(sa.arrivals, sb1.arrivals + sb2.arrivals);
    }

    #[test]
    fn idle_slices_resets_on_arrival() {
        let power = presets::three_state_generic();
        let pm = AlwaysOn::new(&power);
        let mut sim = Simulator::new(
            power,
            presets::default_service(),
            WorkloadSpec::Trace {
                arrivals: vec![0, 0, 1, 0],
            }
            .build(),
            Box::new(pm),
            SimConfig::default(),
        )
        .unwrap();
        sim.step();
        sim.step();
        assert_eq!(sim.observation().idle_slices, 2);
        sim.step(); // arrival
        assert_eq!(sim.observation().idle_slices, 0);
        sim.step();
        assert_eq!(sim.observation().idle_slices, 1);
    }

    #[test]
    fn recorder_produces_windows() {
        let mut sim = sim_with(0.2, 3);
        sim.attach_recorder(100);
        sim.run(1000);
        let series = sim.take_series();
        assert_eq!(series.len(), 10);
        assert!(series.iter().all(|p| p.energy_per_slice > 0.0));
    }

    #[test]
    fn noise_perturbs_only_observation() {
        let power = presets::three_state_generic();
        let pm = AlwaysOn::new(&power);
        let mut sim = Simulator::new(
            power,
            presets::default_service(),
            WorkloadSpec::bernoulli(0.5).unwrap().build(),
            Box::new(pm),
            SimConfig {
                noise: ObservationNoise {
                    queue_misread_prob: 1.0,
                    idle_jitter: 3,
                },
                ..SimConfig::default()
            },
        )
        .unwrap();
        // Energy accounting must stay exact despite noise.
        let stats = sim.run(500);
        assert!((stats.total_energy - 500.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_service_takes_exact_slices() {
        // One arrival at slice 0; deterministic 3-slice service while
        // always-on: completion should land exactly at slice 2 (service
        // progresses during slices 0, 1, 2).
        let power = presets::three_state_generic();
        let pm = AlwaysOn::new(&power);
        let mut sim = Simulator::new(
            power,
            qdpm_device::ServiceModel::deterministic(3).unwrap(),
            WorkloadSpec::Trace {
                arrivals: vec![1, 0, 0, 0, 0],
            }
            .build(),
            Box::new(pm),
            SimConfig::default(),
        )
        .unwrap();
        let o0 = sim.step();
        assert_eq!(o0.completed, 0);
        let o1 = sim.step();
        assert_eq!(o1.completed, 0);
        let o2 = sim.step();
        assert_eq!(o2.completed, 1, "deterministic(3) completes on slice 3");
        assert_eq!(sim.stats().completed, 1);
        assert_eq!(sim.stats().total_wait, 2);
    }

    /// Records every observation the engine hands to a PM (shared handles,
    /// because the simulator owns the PM), acting like always-on.
    #[derive(Debug)]
    struct ObsProbe {
        target: qdpm_device::PowerStateId,
        decides: std::sync::Arc<std::sync::Mutex<Vec<Observation>>>,
        observes: std::sync::Arc<std::sync::Mutex<Vec<Observation>>>,
    }

    impl PowerManager for ObsProbe {
        fn decide(
            &mut self,
            obs: &Observation,
            _rng: &mut dyn rand::Rng,
        ) -> qdpm_device::PowerStateId {
            self.decides.lock().unwrap().push(*obs);
            self.target
        }

        fn observe(&mut self, _outcome: &StepOutcome, next_obs: &Observation) {
            self.observes.lock().unwrap().push(*next_obs);
        }

        fn name(&self) -> &str {
            "obs-probe"
        }
    }

    /// Regression for the F4 double-draw bug: under certain misread noise
    /// the observation a PM decides from must be the exact `next_obs` it
    /// received at the end of the preceding slice — not a fresh re-roll of
    /// the noise on the same true state.
    #[test]
    fn noisy_decide_obs_equals_preceding_next_obs() {
        let decides = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let observes = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let power = presets::three_state_generic();
        let probe = ObsProbe {
            target: power.highest_power_state(),
            decides: decides.clone(),
            observes: observes.clone(),
        };
        let mut sim = Simulator::new(
            power,
            presets::default_service(),
            WorkloadSpec::bernoulli(0.4).unwrap().build(),
            Box::new(probe),
            SimConfig {
                noise: ObservationNoise {
                    queue_misread_prob: 1.0,
                    idle_jitter: 2,
                },
                ..SimConfig::default()
            },
        )
        .unwrap();
        let steps = 200;
        for _ in 0..steps {
            sim.step();
        }
        let decides = decides.lock().unwrap();
        let observes = observes.lock().unwrap();
        assert_eq!(decides.len(), steps);
        assert_eq!(observes.len(), steps);
        for i in 1..steps {
            assert_eq!(
                decides[i],
                observes[i - 1],
                "slice {i}: decide must reuse the preceding observe's next_obs"
            );
        }
    }

    /// An exposed requester mode is read on both sides of the slice's
    /// arrival draw: `decide` sees the mode the slice opens in, `observe`
    /// the mode it closes in.
    #[test]
    fn sr_mode_hint_brackets_the_arrival_draw() {
        let decides = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let observes = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let power = presets::three_state_generic();
        let probe = ObsProbe {
            target: power.highest_power_state(),
            decides: decides.clone(),
            observes: observes.clone(),
        };
        let spec = WorkloadSpec::two_mode_mmpp(0.05, 0.6, 0.2).unwrap();
        let mut sim = Simulator::new(
            power,
            presets::default_service(),
            spec.build(),
            Box::new(probe),
            SimConfig {
                seed: 31,
                expose_sr_mode: true,
                ..SimConfig::default()
            },
        )
        .unwrap();
        sim.run(300);
        // Replay the workload stream the simulator seeds from `seed`.
        let mut generator = spec.build();
        let mut rng = StdRng::seed_from_u64(31);
        let mut switches = 0;
        for (decided, observed) in decides
            .lock()
            .unwrap()
            .iter()
            .zip(&*observes.lock().unwrap())
        {
            let opening = generator.mode();
            generator.next_arrivals(&mut rng);
            let closing = generator.mode();
            switches += usize::from(opening != closing);
            assert_eq!(decided.sr_mode_hint, Some(opening));
            assert_eq!(observed.sr_mode_hint, Some(closing));
        }
        assert!(switches > 0, "the stream must switch modes mid-run");
    }

    /// `run` must be stream-identical to calling `step` slice by slice, in
    /// every (noise, recorder) configuration — stats and recorded series
    /// alike.
    #[test]
    fn run_matches_manual_steps_in_every_configuration() {
        for (misread, jitter) in [(0.0, 0), (0.35, 2)] {
            for with_recorder in [false, true] {
                let build = || {
                    let power = presets::three_state_generic();
                    let pm = qdpm_core::QDpmAgent::new(&power, qdpm_core::QDpmConfig::default())
                        .unwrap();
                    let mut sim = Simulator::new(
                        power,
                        presets::default_service(),
                        WorkloadSpec::bernoulli(0.2).unwrap().build(),
                        Box::new(pm),
                        SimConfig {
                            seed: 77,
                            noise: ObservationNoise {
                                queue_misread_prob: misread,
                                idle_jitter: jitter,
                            },
                            ..SimConfig::default()
                        },
                    )
                    .unwrap();
                    if with_recorder {
                        sim.attach_recorder(100);
                    }
                    sim
                };
                let mut via_run = build();
                let mut via_step = build();
                let run_stats = via_run.run(700);
                for _ in 0..700 {
                    via_step.step();
                }
                assert_eq!(
                    &run_stats,
                    via_step.stats(),
                    "noise=({misread},{jitter}) recorder={with_recorder}"
                );
                if with_recorder {
                    assert_eq!(via_run.take_series(), via_step.take_series());
                }
            }
        }
    }

    #[test]
    fn run_returns_stretch_stats() {
        let mut sim = sim_with(0.1, 5);
        let first = sim.run(100);
        let second = sim.run(100);
        assert_eq!(first.steps, 100);
        assert_eq!(second.steps, 100);
        assert_eq!(sim.stats().steps, 200);
    }

    /// Builds a simulator over a sparse looping trace (long sleepable gaps
    /// plus short ones around the break-even point) with the given policy
    /// and engine mode.
    fn trace_sim(pm: Box<dyn PowerManager>, mode: EngineMode) -> Simulator {
        let mut arrivals = vec![0u32; 64];
        arrivals[3] = 1;
        arrivals[5] = 2;
        arrivals[30] = 1;
        arrivals[33] = 1;
        arrivals[60] = 1;
        Simulator::new(
            presets::three_state_generic(),
            presets::default_service(),
            WorkloadSpec::Trace { arrivals }.build(),
            pm,
            SimConfig {
                seed: 11,
                mode,
                ..SimConfig::default()
            },
        )
        .unwrap()
    }

    /// Event skipping on a trace workload with deterministic policies must
    /// reproduce the per-slice metrics *exactly* (bit-for-bit f64 totals),
    /// transitions and timeouts included.
    #[test]
    fn event_skip_is_exact_on_traces_for_deterministic_policies() {
        type PmBuilder<'a> = Box<dyn Fn() -> Box<dyn PowerManager> + 'a>;
        let power = presets::three_state_generic();
        let builders: Vec<(&str, PmBuilder)> = vec![
            ("always-on", Box::new(|| Box::new(AlwaysOn::new(&power)))),
            (
                "greedy-off",
                Box::new(|| Box::new(crate::policies::GreedyOff::new(&power))),
            ),
            (
                "fixed-timeout",
                Box::new(|| Box::new(crate::policies::FixedTimeout::new(&power, 6))),
            ),
            (
                "adaptive-timeout",
                Box::new(|| Box::new(crate::policies::AdaptiveTimeout::new(&power))),
            ),
        ];
        for (name, build) in builders {
            let mut per = trace_sim(build(), EngineMode::PerSlice);
            let mut skip = trace_sim(build(), EngineMode::EventSkip);
            let a = per.run(5_000);
            let b = skip.run(5_000);
            assert_eq!(a, b, "{name}: stats must match exactly");
            assert_eq!(
                per.observation(),
                skip.observation(),
                "{name}: end state must match"
            );
            // A second stretch exercises stretches spanning run() calls.
            assert_eq!(per.run(777), skip.run(777), "{name}: second stretch");
        }
    }

    /// A zero-epsilon Q-DPM agent consumes no randomness, so event
    /// skipping must be metric-exact for it too (the learner's stay run
    /// replicates the update arithmetic bit for bit).
    #[test]
    fn event_skip_is_exact_for_greedy_q_dpm_on_traces() {
        let build = || {
            let power = presets::three_state_generic();
            let agent = qdpm_core::QDpmAgent::new(
                &power,
                qdpm_core::QDpmConfig {
                    exploration: qdpm_core::Exploration::EpsilonGreedy { epsilon: 0.0 },
                    ..qdpm_core::QDpmConfig::default()
                },
            )
            .unwrap();
            Box::new(agent) as Box<dyn PowerManager>
        };
        let mut per = trace_sim(build(), EngineMode::PerSlice);
        let mut skip = trace_sim(build(), EngineMode::EventSkip);
        assert_eq!(per.run(20_000), skip.run(20_000));
        assert_eq!(per.observation(), skip.observation());
    }

    /// With observation noise configured the event-skip engine falls back
    /// to per-slice stepping wholesale, which is stream-identical.
    #[test]
    fn event_skip_with_noise_is_stream_identical_fallback() {
        let build = |mode| {
            let power = presets::three_state_generic();
            let pm = qdpm_core::QDpmAgent::new(&power, qdpm_core::QDpmConfig::default()).unwrap();
            Simulator::new(
                power,
                presets::default_service(),
                WorkloadSpec::bernoulli(0.1).unwrap().build(),
                Box::new(pm),
                SimConfig {
                    seed: 3,
                    mode,
                    noise: ObservationNoise {
                        queue_misread_prob: 0.3,
                        idle_jitter: 1,
                    },
                    ..SimConfig::default()
                },
            )
            .unwrap()
        };
        let mut per = build(EngineMode::PerSlice);
        let mut skip = build(EngineMode::EventSkip);
        assert_eq!(per.run(3_000), skip.run(3_000));
    }

    /// A silent own-workload simulator driven purely by injected arrivals —
    /// the online fleet dispatch shape — must account them exactly, and
    /// identically in both engine modes.
    #[test]
    fn injected_arrivals_land_on_the_next_slice_in_both_modes() {
        let build = |mode| {
            let power = presets::three_state_generic();
            let pm = crate::policies::FixedTimeout::new(&power, 4);
            Simulator::new(
                power,
                presets::default_service(),
                Box::new(qdpm_workload::SparseTrace::new(vec![], 10_000).unwrap()),
                Box::new(pm),
                SimConfig {
                    seed: 9,
                    mode,
                    ..SimConfig::default()
                },
            )
            .unwrap()
        };
        let mut per = build(EngineMode::PerSlice);
        let mut skip = build(EngineMode::EventSkip);
        // Inject at irregular gaps; run the gap, inject, step the arrival
        // slice — exactly the online coordinator's drive pattern.
        for (gap, count) in [(0u64, 1u32), (7, 2), (1, 1), (40, 3), (2, 1)] {
            for sim in [&mut per, &mut skip] {
                sim.run(gap);
                sim.inject_arrivals(count);
                let out = sim.step();
                assert_eq!(out.arrivals, count, "injection lands on its slice");
            }
        }
        per.run(300);
        skip.run(300);
        assert_eq!(per.stats(), skip.stats());
        assert_eq!(per.observation(), skip.observation());
        assert_eq!(per.stats().arrivals, 8);
    }

    /// `run` under `EventSkip` must not fast-forward past arrivals that
    /// were injected before the call.
    #[test]
    fn event_skip_run_honours_pending_injection() {
        let power = presets::three_state_generic();
        let pm = crate::policies::GreedyOff::new(&power);
        let mut sim = Simulator::new(
            power,
            presets::default_service(),
            Box::new(qdpm_workload::SparseTrace::new(vec![], 1_000).unwrap()),
            Box::new(pm),
            SimConfig {
                mode: EngineMode::EventSkip,
                ..SimConfig::default()
            },
        )
        .unwrap();
        sim.inject_arrivals(2);
        let stats = sim.run(100);
        assert_eq!(stats.arrivals, 2);
        // The arrivals landed on the first slice of the run: they were
        // already queued (or served) rather than skipped over.
        assert_eq!(
            stats.completed + u64::from(sim.observation().queue_len as u32),
            2
        );
    }

    /// A checkpoint taken mid-run and restored into a freshly built
    /// simulator must continue bit-identically to never having stopped —
    /// learning agent, stochastic workload, both engine modes.
    #[test]
    fn save_load_resumes_bit_identically() {
        for mode in [EngineMode::PerSlice, EngineMode::EventSkip] {
            let build = || {
                let power = presets::three_state_generic();
                let pm =
                    qdpm_core::QDpmAgent::new(&power, qdpm_core::QDpmConfig::default()).unwrap();
                Simulator::new(
                    power,
                    presets::default_service(),
                    WorkloadSpec::bernoulli(0.08).unwrap().build(),
                    Box::new(pm),
                    SimConfig {
                        seed: 21,
                        mode,
                        ..SimConfig::default()
                    },
                )
                .unwrap()
            };
            let mut reference = build();
            let mut first = build();
            reference.run(1_500);
            first.run(1_500);
            let mut payload = StateWriter::new();
            first.save_state(&mut payload);
            let bytes = payload.into_bytes();
            let mut resumed = build();
            resumed.load_state(&mut StateReader::new(&bytes)).unwrap();
            let a = reference.run(1_500);
            let b = resumed.run(1_500);
            assert_eq!(a, b, "{mode:?}: resumed stretch diverged");
            assert_eq!(
                reference.stats().total_energy.to_bits(),
                resumed.stats().total_energy.to_bits(),
                "{mode:?}: energy must match to the bit"
            );
            assert_eq!(
                reference.stats().total_cost.to_bits(),
                resumed.stats().total_cost.to_bits(),
                "{mode:?}: cost must match to the bit"
            );
            assert_eq!(reference.observation(), resumed.observation(), "{mode:?}");
        }
    }

    /// With observation noise the carried corrupted view is part of the
    /// checkpoint: a restore mid-slice-boundary must replay the identical
    /// noisy stream.
    #[test]
    fn save_load_preserves_carried_noisy_observation() {
        let build = || {
            let power = presets::three_state_generic();
            let pm = qdpm_core::QDpmAgent::new(&power, qdpm_core::QDpmConfig::default()).unwrap();
            Simulator::new(
                power,
                presets::default_service(),
                WorkloadSpec::bernoulli(0.3).unwrap().build(),
                Box::new(pm),
                SimConfig {
                    seed: 5,
                    noise: ObservationNoise {
                        queue_misread_prob: 0.4,
                        idle_jitter: 2,
                    },
                    ..SimConfig::default()
                },
            )
            .unwrap()
        };
        let mut reference = build();
        let mut first = build();
        reference.run(701);
        first.run(701);
        let mut payload = StateWriter::new();
        first.save_state(&mut payload);
        let bytes = payload.into_bytes();
        let mut resumed = build();
        resumed.load_state(&mut StateReader::new(&bytes)).unwrap();
        assert_eq!(reference.run(900), resumed.run(900));
        assert_eq!(reference.stats(), resumed.stats());
    }

    /// Truncated or out-of-range payloads are rejected with an error, not
    /// a panic.
    #[test]
    fn load_rejects_truncated_and_corrupt_payloads() {
        let mut sim = sim_with(0.2, 13);
        sim.run(200);
        let mut payload = StateWriter::new();
        sim.save_state(&mut payload);
        let bytes = payload.into_bytes();
        // Truncation at any prefix must error cleanly.
        for cut in [0, 1, 8, bytes.len() / 2, bytes.len() - 1] {
            let mut target = sim_with(0.2, 13);
            assert!(
                target
                    .load_state(&mut StateReader::new(&bytes[..cut]))
                    .is_err(),
                "cut at {cut} must not load"
            );
        }
        // A device-mode tag from the future is rejected.
        let mut corrupt = bytes.clone();
        corrupt[0] = 0xff;
        let mut target = sim_with(0.2, 13);
        assert!(target.load_state(&mut StateReader::new(&corrupt)).is_err());
    }

    /// Event skipping on a sparse Bernoulli workload changes RNG draw
    /// order but not the law: long-run averages must agree closely for a
    /// learning agent.
    #[test]
    fn event_skip_sparse_bernoulli_averages_agree() {
        let build = |mode| {
            let power = presets::three_state_generic();
            let pm = qdpm_core::QDpmAgent::new(&power, qdpm_core::QDpmConfig::default()).unwrap();
            Simulator::new(
                power,
                presets::default_service(),
                WorkloadSpec::bernoulli(0.03).unwrap().build(),
                Box::new(pm),
                SimConfig {
                    seed: 19,
                    mode,
                    ..SimConfig::default()
                },
            )
            .unwrap()
        };
        let mut per = build(EngineMode::PerSlice);
        let mut skip = build(EngineMode::EventSkip);
        let a = per.run(120_000);
        let b = skip.run(120_000);
        let rel = |x: f64, y: f64| (x - y).abs() / x.abs().max(1e-12);
        assert!(
            rel(a.avg_power(), b.avg_power()) < 0.05,
            "avg power {} vs {}",
            a.avg_power(),
            b.avg_power()
        );
        assert!(
            rel(a.avg_cost(), b.avg_cost()) < 0.05,
            "avg cost {} vs {}",
            a.avg_cost(),
            b.avg_cost()
        );
        // Arrival laws agree (different draws, same Bernoulli rate).
        let (ra, rb) = (
            a.arrivals as f64 / a.steps as f64,
            b.arrivals as f64 / b.steps as f64,
        );
        assert!((ra - 0.03).abs() < 0.003, "per-slice rate {ra}");
        assert!((rb - 0.03).abs() < 0.003, "event-skip rate {rb}");
    }
}

//! Hierarchical coordination: racks under a power cap, clusters of racks.
//!
//! The Q-DPM paper manages one device; the energy-efficiency literature the
//! ROADMAP targets (Rizvandi & Zomaya's survey) frames datacenter DPM as a
//! *hierarchical, load-aware* coordination problem: local per-device
//! policies, a rack-level coordinator enforcing an electrical budget, and a
//! cluster-level balancer spreading the aggregate stream across racks. This
//! module supplies those two upper layers on top of the fleet machinery:
//!
//! * a [`RackCoordinator`] drives N fleet members under *online* dispatch
//!   (live [`DeviceSnapshot`]s at every aggregate arrival slice) and,
//!   optionally, a rack-wide **power cap**: a hard ceiling on the rack's
//!   summed per-slice energy draw, enforced by vetoing power-state commands
//!   the budget cannot absorb and by shedding load routed toward sleepers
//!   the budget cannot afford to wake;
//! * a [`ClusterSim`] is a fleet of fleets: one more [`DispatchPolicy`]
//!   routes each aggregate arrival slice across racks (by summed queue
//!   depth and rack wakefulness), then each rack routes its share
//!   internally — a two-level dispatch hierarchy with per-rack
//!   [`FleetStats`] and a cluster-wide ordered fold.
//!
//! # The power-cap mechanism
//!
//! The cap is enforced through a *budget of nominal draws*: the coordinator
//! tracks, per device, a conservative bound `nominal[i]` on the device's
//! per-slice energy draw, maintaining the invariant `Σ nominal <= cap` at
//! every slice. A capped rack cold-boots with every device in its lowest
//! power state (the only configuration whose feasibility can be guaranteed
//! up front; a rack whose sleeping draw already exceeds the cap is rejected
//! as [`SimError::BadConfig`]). Each device's power manager is wrapped so
//! that a commanded state change must fit the budget:
//!
//! * a command whose worst-case slice draw is within the device's own
//!   current `nominal[i]` is always allowed (and shrinks `nominal[i]` —
//!   budgets consolidate as devices power down);
//! * a command needing *more* than `nominal[i]` (a wakeup, typically) is
//!   granted only at **grant slices** — the serially-stepped slices where
//!   arrivals land and the slice immediately after (where wake decisions
//!   react to the new queue) — and only if the rack-wide sum stays under
//!   the cap; otherwise the command is vetoed and the device holds its
//!   current state ([`RackReport::vetoed_wakeups`] counts these);
//! * at every grant slice the nominals are refreshed down to each device's
//!   *actual* draw bound, releasing budget that finished transitions no
//!   longer need.
//!
//! Routing cooperates with the budget: arrivals the dispatcher aims at a
//! sleeping device whose wake the budget cannot cover are *shed* to the
//! least-loaded already-awake device instead
//! ([`RackReport::shed_arrivals`]); with the whole rack asleep and no
//! budget headroom they stay queued on the sleeper until a grant succeeds.
//!
//! # Determinism
//!
//! The hierarchy inherits the fleet determinism contract wholesale. Device
//! seeds derive from the rack seed via
//! [`derive_cell_seed`]`(seed, device_index)`; rack seeds derive from the
//! cluster seed the same way (`derive_cell_seed(seed, rack_index)`).
//! Arrival slices and grant slices are stepped serially in device order
//! (they are single slices; the arrival-free gaps between them carry the
//! parallelism), so budget arbitration has one defined order at any thread
//! count. Between grant slices a device only ever reads and writes its own
//! budget slot, so gap-slice parallelism cannot reorder budget decisions.
//! Engine modes stay *exact*: grant and arrival slices execute as ordinary
//! slices in both modes, and a quiescent device whose manager would act
//! (and could therefore touch the budget) declines to commit the stretch,
//! forcing per-slice execution at the same slices in either mode. The
//! conformance suite (`crates/sim/tests/fleet_conformance.rs`) pins
//! engine-mode equality, thread-count invariance, and the per-slice cap
//! invariant on randomized racks.

use std::sync::{Arc, Mutex};

use rand::Rng;

use qdpm_core::{Observation, PowerManager, StateError, StateReader, StateWriter, StepOutcome};
use qdpm_device::{DeviceHealth, DeviceMode, FaultKind, PowerModel, PowerStateId, Step};
use qdpm_workload::{DeviceSnapshot, DispatchPolicy, RetryQueue, SparseTrace, WorkloadDispatcher};

use crate::fleet::{
    build_policy, materialize_events, member_config, plan_faults, AvailabilityStats, FleetConfig,
    FleetMember, FleetReport, FleetStats, SharedPool,
};
use crate::parallel::{derive_cell_seed, run_indexed_mut, ScenarioWorkload};
use crate::{FaultStats, RunStats, SimError, Simulator};

/// Slack added to every cap comparison, absorbing the accumulated f64
/// rounding of repeated budget arithmetic (the conformance invariant uses
/// the same slack).
pub const CAP_EPS: f64 = 1e-9;

/// Re-dispatch attempts a stranded arrival batch gets before the rack
/// sheds it ([`qdpm_workload::ShedReason::RetryBudgetExhausted`]).
pub const RETRY_BUDGET: u32 = 3;

/// Slices between a crash harvest and the first re-dispatch attempt;
/// subsequent attempts double it ([`RetryQueue`]'s deterministic backoff).
pub const RETRY_BACKOFF_BASE: u64 = 8;

/// A slice where the rack must regain serial control to react to a
/// scheduled fault: harvest a crashing member's queue into the retry
/// machinery, or refresh the command budget around a health change.
#[derive(Debug, Clone, Copy, PartialEq)]
struct FaultBarrier {
    /// The slice *before* which the rack acts (the fault clock fires
    /// inside this slice).
    at: Step,
    /// What the rack does there.
    kind: BarrierKind,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum BarrierKind {
    /// A transient crash fires at this slice: move the member's queue
    /// into the retry queue before the crash drains it, and (capped
    /// racks) pin the member's nominal to the fault draw for the onset
    /// slice — the fault clock flips health *inside* the slice, after
    /// the budget refresh would otherwise have read the stale demand.
    Harvest { member: usize, draw: f64 },
    /// A fail-stop fires at this slice (capped racks only): pin the
    /// member's nominal to the fault draw for the onset slice, exactly
    /// like the harvest barrier does for crashes — without it the onset
    /// slice draws `down_power` against a budget that still accounts the
    /// pre-fault demand, and the cap can be pierced.
    Onset { member: usize, draw: f64 },
    /// A member's health changed in the previous slice: force a grant
    /// slice so [`RackCoordinator`]'s budget refresh sees the new state
    /// (reclaiming a down member's nominal, or re-flooring a revived one).
    Refresh,
}

/// Materializes the serial stops a rack needs for a fault plan: a harvest
/// barrier at every transient-crash onset, an onset barrier at every
/// fail-stop (capped racks), and — capped racks only — a budget-refresh
/// barrier on the slice after every onset and revival.
/// Sorted by slice (ties: device order, harvests first).
fn build_barriers(
    plan: &qdpm_workload::FaultPlan,
    capped: bool,
    horizon: Step,
) -> Vec<FaultBarrier> {
    let mut barriers = Vec::new();
    for member in 0..plan.n_devices() {
        for event in plan.device(member) {
            match event.kind {
                FaultKind::TransientCrash {
                    down_for,
                    down_power,
                } => {
                    barriers.push(FaultBarrier {
                        at: event.at,
                        kind: BarrierKind::Harvest {
                            member,
                            draw: down_power,
                        },
                    });
                    if capped {
                        let revival = event.at.saturating_add(down_for.max(1));
                        for t in [event.at + 1, revival.saturating_add(1)] {
                            if t < horizon {
                                barriers.push(FaultBarrier {
                                    at: t,
                                    kind: BarrierKind::Refresh,
                                });
                            }
                        }
                    }
                }
                FaultKind::FailStop { down_power } => {
                    if capped {
                        barriers.push(FaultBarrier {
                            at: event.at,
                            kind: BarrierKind::Onset {
                                member,
                                draw: down_power,
                            },
                        });
                        if event.at + 1 < horizon {
                            barriers.push(FaultBarrier {
                                at: event.at + 1,
                                kind: BarrierKind::Refresh,
                            });
                        }
                    }
                }
                // A straggler keeps serving (slowly); nothing for the
                // coordinator to do.
                FaultKind::Straggler { .. } => {}
            }
        }
    }
    barriers.sort_by_key(|b| {
        let (order, member) = match b.kind {
            BarrierKind::Harvest { member, .. } => (0, member),
            BarrierKind::Onset { member, .. } => (1, member),
            BarrierKind::Refresh => (2, usize::MAX),
        };
        (b.at, order, member)
    });
    barriers.dedup();
    barriers
}

/// Specification of one rack: a label, its member devices, and an optional
/// power cap.
#[derive(Debug, Clone)]
pub struct RackSpec {
    /// Report label.
    pub label: String,
    /// The rack's devices, in device order.
    pub members: Vec<FleetMember>,
    /// Hard ceiling on the rack's summed per-slice energy draw, or `None`
    /// for an uncapped rack. A capped rack cold-boots with every device in
    /// its lowest power state (see the [module docs](self)).
    pub power_cap: Option<f64>,
}

/// The rack-wide command budget shared by the wrapped power managers.
#[derive(Debug)]
struct Budget {
    /// The cap (validated finite and positive).
    cap: f64,
    /// Per-device bound on the slice draw; `Σ nominal <= cap` always.
    nominal: Vec<f64>,
    /// Device index currently allowed to *grow* its nominal (set only
    /// while the coordinator serially steps a grant slice).
    grant_open: Option<usize>,
    /// Commands refused for lack of budget.
    vetoed: u64,
}

impl Budget {
    fn total(&self) -> f64 {
        self.nominal.iter().sum()
    }
}

/// Worst-case per-slice energy draw of commanding `from -> to`, covering
/// the command slice, every transition slice, and residency at `to`
/// afterwards. `None` when the model has no such transition (the device
/// would ignore the command).
fn command_demand(model: &PowerModel, from: PowerStateId, to: PowerStateId) -> Option<f64> {
    let t = model.transition(from, to)?;
    let to_power = model.state(to).power;
    Some(if t.latency == 0 {
        // Instant switch: the full transition energy and the first slice of
        // residency land in the same slice.
        t.energy + to_power
    } else {
        t.energy_per_step().max(to_power)
    })
}

/// The conservative draw bound of a device's *current* mode: residency
/// power when operational, the in-flight transition's per-slice energy
/// (covering the arrival at `to` as well) when transitioning.
fn mode_demand(model: &PowerModel, mode: DeviceMode) -> f64 {
    match mode {
        DeviceMode::Operational(s) => model.state(s).power,
        DeviceMode::Transitioning { from, to, .. } => model
            .transition(from, to)
            .map(|t| t.energy_per_step())
            .unwrap_or(0.0)
            .max(model.state(to).power),
    }
}

/// A [`PowerManager`] decorator that submits every state-changing command
/// of the wrapped manager to the rack [`Budget`] and holds the current
/// state when the budget refuses (see the [module docs](self)).
#[derive(Debug)]
struct CappedPolicy {
    inner: Box<dyn PowerManager>,
    index: usize,
    model: PowerModel,
    budget: Arc<Mutex<Budget>>,
}

impl PowerManager for CappedPolicy {
    fn decide(&mut self, obs: &Observation, rng: &mut dyn Rng) -> PowerStateId {
        let target = self.inner.decide(obs, rng);
        // Mid-transition the device ignores commands, and a stay command
        // changes nothing: both are budget-neutral, which keeps the budget
        // stream identical between engine modes (per-slice stepping makes
        // extra `decide` calls exactly where the manager would stay).
        let DeviceMode::Operational(current) = obs.device_mode else {
            return target;
        };
        if target == current {
            return target;
        }
        let Some(demand) = command_demand(&self.model, current, target) else {
            return target; // no such edge: the device ignores it anyway
        };
        let mut b = self.budget.lock().expect("rack budget poisoned");
        if demand <= b.nominal[self.index] + CAP_EPS {
            // Fits the device's own slot: always allowed, and the slot
            // shrinks to the new bound (own-slot only, so gap-slice
            // parallelism cannot reorder budget decisions).
            b.nominal[self.index] = demand;
            return target;
        }
        if b.grant_open == Some(self.index) {
            let others = b.total() - b.nominal[self.index];
            if others + demand <= b.cap + CAP_EPS {
                b.nominal[self.index] = demand;
                return target;
            }
        }
        b.vetoed += 1;
        current
    }

    fn observe(&mut self, outcome: &StepOutcome, next_obs: &Observation) {
        self.inner.observe(outcome, next_obs);
    }

    fn commit_quiescent(
        &mut self,
        obs: &Observation,
        per_slice: &StepOutcome,
        max: u64,
        rng: &mut dyn Rng,
    ) -> u64 {
        // Delegation is sound: the inner manager only commits slices where
        // its `decide` would hold the current state, and a held state never
        // touches the budget.
        self.inner.commit_quiescent(obs, per_slice, max, rng)
    }

    fn save_state(&self, w: &mut StateWriter) {
        // The budget itself is rack-level state, checkpointed once by
        // [`RackCoordinator::save_state`]; the decorator only carries the
        // wrapped manager's state.
        self.inner.save_state(w);
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        self.inner.load_state(r)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Everything a finished rack run reports.
#[derive(Debug, Clone, PartialEq)]
pub struct RackReport {
    /// The rack's label.
    pub label: String,
    /// The enforced power cap, if any.
    pub power_cap: Option<f64>,
    /// The rack's fleet-level report (per-device stats, final modes, and
    /// the ordered [`FleetStats`] fold).
    pub fleet: FleetReport,
    /// Power-state commands the budget refused (0 for uncapped racks).
    pub vetoed_wakeups: u64,
    /// Arrivals rerouted away from sleepers the budget could not wake
    /// (0 for uncapped racks).
    pub shed_arrivals: u64,
    /// Each device's health at the end of the run, in device order (a
    /// fail-stopped member reports [`DeviceHealth::Down`] forever).
    pub health: Vec<DeviceHealth>,
}

/// Drives one rack of devices under online dispatch and an optional power
/// cap. See the [module docs](self) for the mechanism and determinism
/// contract.
///
/// # Example
///
/// A four-disk rack under a cap tight enough that at most one disk can
/// serve at a time — the budget vetoes surplus wakeups and the run never
/// exceeds the cap in any slice:
///
/// ```
/// use qdpm_device::presets;
/// use qdpm_sim::fleet::{FleetConfig, FleetMember, FleetPolicy};
/// use qdpm_sim::hierarchy::{RackCoordinator, RackSpec, CAP_EPS};
/// use qdpm_sim::ScenarioWorkload;
/// use qdpm_workload::{DispatchPolicy, WorkloadSpec};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let spec = RackSpec {
///     label: "rack-0".to_string(),
///     members: (0..4)
///         .map(|i| FleetMember {
///             label: format!("hdd-{i}"),
///             power: presets::three_state_generic(),
///             service: presets::default_service(),
///             policy: FleetPolicy::BreakEvenTimeout,
///         })
///         .collect(),
///     power_cap: Some(3.0),
/// };
/// let config = FleetConfig {
///     horizon: 2_000,
///     dispatch: DispatchPolicy::SleepAware { spill: 4 },
///     ..FleetConfig::default()
/// };
/// let aggregate = ScenarioWorkload::Stationary(WorkloadSpec::bernoulli(0.4)?);
///
/// let rack = RackCoordinator::new(&spec, &config)?;
/// let (report, per_slice) = rack.run_probed(&aggregate)?;
/// assert!(per_slice.iter().all(|&e| e <= 3.0 + CAP_EPS));
/// assert_eq!(report.fleet.stats.devices, 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct RackCoordinator {
    label: String,
    sims: Vec<Simulator>,
    models: Vec<PowerModel>,
    labels: Vec<String>,
    n_states: usize,
    dispatcher: WorkloadDispatcher,
    budget: Option<Arc<Mutex<Budget>>>,
    /// Whether the slice after the last grant slice still needs granting
    /// (wake decisions react to arrivals one slice later).
    grant_pending: bool,
    shed: u64,
    has_shared: bool,
    horizon: Step,
    seed: u64,
    /// Reused per-slice assignment buffer.
    assign: Vec<u32>,
    /// Per-device lowest-state draw (the budget floor a down member keeps
    /// reserved so its revival slice is always affordable).
    floors: Vec<f64>,
    /// Transient per-member nominal override for a fault-onset slice: the
    /// fault clock flips health *inside* the slice, so the onset barrier
    /// pins the budget to the fault draw here one slice early. Consumed by
    /// the next budget refresh; always `None` between slices (never
    /// checkpointed).
    onset_draw: Vec<Option<f64>>,
    /// Serial stops of the fault plan, slice-sorted.
    barriers: Vec<FaultBarrier>,
    /// First unconsumed barrier.
    barrier_pos: usize,
    /// Arrival batches harvested off crashing members, awaiting
    /// re-dispatch with exponential slice backoff.
    retry: RetryQueue,
    /// Arrivals shed because every member was down when they arrived.
    shed_no_healthy: u64,
    /// The rack clock: slices executed so far (all member sims agree).
    now: Step,
}

impl RackCoordinator {
    /// Assembles a rack: one seeded simulator per member on a silent
    /// arrival trace (all arrivals are injected by the online dispatch
    /// loop), the configured intra-rack dispatcher, and — when
    /// `spec.power_cap` is set — the shared command budget, with every
    /// device cold-booted into its lowest power state.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadConfig`] for an empty member list, a
    /// non-finite or non-positive cap, a cap below the rack's all-asleep
    /// draw, clairvoyant oracle members (online dispatch has no
    /// precomputed trace for them to read), or inconsistent shared-table
    /// members; propagates simulator construction errors.
    pub fn new(spec: &RackSpec, config: &FleetConfig) -> Result<Self, SimError> {
        if spec.members.is_empty() {
            return Err(SimError::BadConfig(format!(
                "rack {} needs at least one member",
                spec.label
            )));
        }
        let dispatcher = WorkloadDispatcher::new(config.dispatch, spec.members.len())?;

        let budget = match spec.power_cap {
            None => None,
            Some(cap) => {
                if !(cap.is_finite() && cap > 0.0) {
                    return Err(SimError::BadConfig(format!(
                        "rack {}: power cap must be finite and positive, got {cap}",
                        spec.label
                    )));
                }
                let floor: Vec<f64> = spec
                    .members
                    .iter()
                    .map(|m| m.power.state(m.power.lowest_power_state()).power)
                    .collect();
                let floor_total: f64 = floor.iter().sum();
                if floor_total > cap + CAP_EPS {
                    return Err(SimError::BadConfig(format!(
                        "rack {}: cap {cap} is below the all-asleep draw {floor_total}",
                        spec.label
                    )));
                }
                Some(Arc::new(Mutex::new(Budget {
                    cap,
                    nominal: floor,
                    grant_open: None,
                    vetoed: 0,
                })))
            }
        };

        let fault_plan = plan_faults(config, spec.members.len())?;

        let mut pool: Option<SharedPool> = None;
        let mut sims = Vec::with_capacity(spec.members.len());
        for (index, member) in spec.members.iter().enumerate() {
            let mut pm = build_policy(member, None, &mut pool)?;
            if let Some(budget) = &budget {
                pm = Box::new(CappedPolicy {
                    inner: pm,
                    index,
                    model: member.power.clone(),
                    budget: Arc::clone(budget),
                });
            }
            let silent = SparseTrace::new(vec![], config.horizon)?;
            let mut sim = Simulator::new(
                member.power.clone(),
                member.service,
                Box::new(silent),
                pm,
                member_config(config, index),
            )?;
            if budget.is_some() {
                sim.reset_device_to(member.power.lowest_power_state());
            }
            sim.set_fault_schedule(fault_plan.device(index).to_vec());
            sims.push(sim);
        }
        let barriers = build_barriers(&fault_plan, budget.is_some(), config.horizon);

        Ok(RackCoordinator {
            label: spec.label.clone(),
            models: spec.members.iter().map(|m| m.power.clone()).collect(),
            labels: spec.members.iter().map(|m| m.label.clone()).collect(),
            n_states: spec
                .members
                .iter()
                .map(|m| m.power.n_states())
                .max()
                .unwrap_or(0),
            assign: vec![0; sims.len()],
            floors: spec
                .members
                .iter()
                .map(|m| m.power.state(m.power.lowest_power_state()).power)
                .collect(),
            onset_draw: vec![None; sims.len()],
            sims,
            dispatcher,
            budget,
            grant_pending: false,
            shed: 0,
            has_shared: pool.is_some(),
            horizon: config.horizon,
            seed: config.seed,
            barriers,
            barrier_pos: 0,
            retry: RetryQueue::new(RETRY_BUDGET, RETRY_BACKOFF_BASE),
            shed_no_healthy: 0,
            now: 0,
        })
    }

    /// Number of devices in the rack.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sims.len()
    }

    /// Whether the rack has no devices (never true once constructed).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sims.is_empty()
    }

    /// Whether this rack pools experience in a shared Q-table (and will
    /// therefore advance its gaps serially at any requested thread count).
    #[must_use]
    pub fn has_shared_table(&self) -> bool {
        self.has_shared
    }

    /// Live per-device snapshots for the dispatcher (a transitioning
    /// device counts as `waking` when its transition lands in a serving
    /// state; a down device is flagged so health-aware policies route
    /// around it).
    fn snapshots(&self) -> Vec<DeviceSnapshot> {
        self.sims
            .iter()
            .zip(&self.models)
            .map(|(sim, model)| {
                let obs = sim.observation();
                let down = sim.health() == DeviceHealth::Down;
                match obs.device_mode {
                    DeviceMode::Operational(s) => DeviceSnapshot {
                        queue_len: obs.queue_len,
                        awake: model.state(s).can_serve,
                        waking: false,
                        down,
                    },
                    DeviceMode::Transitioning { to, .. } => DeviceSnapshot {
                        queue_len: obs.queue_len,
                        awake: false,
                        waking: model.state(to).can_serve,
                        down,
                    },
                }
            })
            .collect()
    }

    /// One rack-level snapshot for the cluster dispatcher: summed queue
    /// depth, awake if *any* device serves, waking if any is on its way,
    /// down only if *every* device is down.
    fn snapshot(&self) -> DeviceSnapshot {
        let mut agg = DeviceSnapshot {
            queue_len: 0,
            awake: false,
            waking: false,
            down: true,
        };
        for s in self.snapshots() {
            agg.queue_len += s.queue_len;
            agg.awake |= s.awake && !s.down;
            agg.waking |= s.waking && !s.down;
            agg.down &= s.down;
        }
        agg
    }

    /// Recomputes every nominal down to the device's actual draw bound,
    /// releasing budget that finished transitions no longer hold. Only
    /// called at grant slices (serial). A *down* member's bound is its
    /// fault-specified draw — the rest of its reservation is reclaimed so
    /// capped racks consolidate onto the survivors — floored at the
    /// member's sleeping draw so the revival slice (which resets the
    /// device to its lowest state) is always pre-reserved. A fault whose
    /// `down_power` exceeds the member's normal envelope erodes the cap's
    /// slack instead: fault physics outrank the planner. A member whose
    /// fault fires *this* slice is bounded by the onset barrier's pinned
    /// draw (`onset_draw`), consumed here — its health still reads
    /// healthy until the slice executes. A member whose fault window just
    /// expired is bounded at its floor: the revival reset (to the lowest
    /// state) applies lazily inside its next step, so its observation
    /// still shows the stale pre-crash mode — trusting that would hand a
    /// revived sleeper its old active-state slot for free.
    fn refresh_nominals(&mut self) {
        let Some(budget) = &self.budget else { return };
        let mut b = budget.lock().expect("rack budget poisoned");
        for (i, sim) in self.sims.iter().enumerate() {
            b.nominal[i] = if let Some(power) = self.onset_draw[i].take() {
                power.max(self.floors[i])
            } else if sim.pending_revival() {
                self.floors[i]
            } else {
                match sim.fault_down_power() {
                    Some(power) => power.max(self.floors[i]),
                    None => mode_demand(&self.models[i], sim.observation().device_mode),
                }
            };
        }
    }

    /// Performs the serial fault work due at the current slice, *before*
    /// the slice executes: consume due barriers (harvesting a crashing
    /// member's queue into [`RetryQueue`] so the crash finds nothing to
    /// lose), then re-dispatch every retry batch whose backoff has
    /// elapsed to the least-loaded healthy member — preferring serving or
    /// waking ones — re-queueing with doubled backoff (or shedding, once
    /// the attempt budget is spent) when the whole rack is down. Any
    /// action on a capped rack forces the slice to be a grant slice, so
    /// the budget refresh sees health changes and injected batches can
    /// fund a wake.
    fn fault_barrier_slice(&mut self) {
        let mut acted = false;
        while self
            .barriers
            .get(self.barrier_pos)
            .is_some_and(|b| b.at <= self.now)
        {
            let barrier = self.barriers[self.barrier_pos];
            self.barrier_pos += 1;
            if barrier.at < self.now {
                continue; // passed while quiescent; nothing left to do
            }
            acted = true;
            match barrier.kind {
                BarrierKind::Harvest { member, draw } => {
                    let stranded = self.sims[member].harvest_stranded();
                    if stranded > 0 {
                        let count = u32::try_from(stranded).unwrap_or(u32::MAX);
                        self.retry.push(count, self.now);
                    }
                    if self.budget.is_some() {
                        self.onset_draw[member] = Some(draw);
                    }
                }
                BarrierKind::Onset { member, draw } => {
                    if self.budget.is_some() {
                        self.onset_draw[member] = Some(draw);
                    }
                }
                BarrierKind::Refresh => {}
            }
        }
        while let Some(job) = self.retry.pop_ready(self.now) {
            let snaps = self.snapshots();
            let healthy = |i: &usize| !snaps[*i].down;
            let target = (0..snaps.len())
                .filter(|&i| snaps[i].available())
                .min_by_key(|&i| (snaps[i].queue_len, i))
                .or_else(|| {
                    (0..snaps.len())
                        .filter(healthy)
                        .min_by_key(|&i| (snaps[i].queue_len, i))
                });
            match target {
                Some(t) => {
                    self.sims[t].inject_arrivals(job.jobs);
                    self.retry.mark_redispatched(&job);
                    acted = true;
                }
                // Whole rack down: back off again (sheds once the
                // budget is spent). The new ready slice is strictly in
                // the future, so this loop terminates.
                None => {
                    self.retry.requeue(job, self.now);
                }
            }
        }
        if acted && self.budget.is_some() {
            self.grant_pending = true;
        }
    }

    /// The next future slice where the rack must regain serial control
    /// for fault handling (barrier or retry re-dispatch), if any.
    fn next_fault_stop(&self) -> Option<Step> {
        let barrier = self.barriers.get(self.barrier_pos).map(|b| b.at);
        let retry = self.retry.next_ready();
        match (barrier, retry) {
            (Some(b), Some(r)) => Some(b.min(r)),
            (stop, None) | (None, stop) => stop,
        }
    }

    /// Steps every device through one *grant* slice, serially in device
    /// order, opening the budget for exactly one device at a time.
    fn grant_step_all(&mut self) -> f64 {
        self.refresh_nominals();
        let budget = Arc::clone(self.budget.as_ref().expect("grant slices need a cap"));
        let mut energy = 0.0;
        for (i, sim) in self.sims.iter_mut().enumerate() {
            budget.lock().expect("rack budget poisoned").grant_open = Some(i);
            energy += sim.step().energy;
        }
        budget.lock().expect("rack budget poisoned").grant_open = None;
        energy
    }

    /// Steps every device through one ordinary slice, serially.
    fn plain_step_all(&mut self) -> f64 {
        self.sims.iter_mut().map(|sim| sim.step().energy).sum()
    }

    /// Routes one arrival slice: snapshot, dispatch, failure- and
    /// budget-aware load shedding, and injection into the chosen members'
    /// simulators.
    fn prepare_arrivals(&mut self, count: u32) {
        let mut snaps = self.snapshots();
        if snaps.iter().all(|s| s.down) {
            // Nothing can absorb the slice: shed it with a typed reason
            // ([`qdpm_workload::ShedReason::NoHealthyDevice`]) rather
            // than queue onto devices that may never revive.
            self.shed_no_healthy += u64::from(count);
            self.assign.iter_mut().for_each(|a| *a = 0);
            return;
        }
        let pre_available: Vec<bool> = snaps.iter().map(DeviceSnapshot::available).collect();
        self.dispatcher
            .route_slice(count, &mut snaps, &mut self.assign);

        // State-blind policies route without reading snapshots: strip
        // their assignments off down members onto the least-loaded
        // healthy one (state-aware policies already skip them).
        for i in 0..self.assign.len() {
            if self.assign[i] > 0 && snaps[i].down {
                let t = (0..snaps.len())
                    .filter(|&j| !snaps[j].down)
                    .min_by_key(|&j| (snaps[j].queue_len, j))
                    .expect("a healthy device exists past the all-down check");
                let moved = self.assign[i];
                self.assign[t] += moved;
                snaps[t].queue_len += moved as usize;
                self.assign[i] = 0;
            }
        }

        if let Some(budget) = &self.budget {
            // Shed arrivals aimed at sleepers the budget cannot wake: a
            // planning pass over the nominals, reserving each affordable
            // wake so one slice's wakes are budgeted jointly.
            let b = budget.lock().expect("rack budget poisoned");
            let mut planned = b.nominal.clone();
            drop(b);
            for i in 0..self.assign.len() {
                if self.assign[i] == 0 || pre_available[i] {
                    continue;
                }
                let model = &self.models[i];
                let from = match self.sims[i].observation().device_mode {
                    DeviceMode::Operational(s) => s,
                    DeviceMode::Transitioning { to, .. } => to,
                };
                let demand = command_demand(model, from, model.serving_state())
                    .unwrap_or_else(|| model.state(model.serving_state()).power);
                let others: f64 = planned.iter().sum::<f64>() - planned[i];
                let cap = budget.lock().expect("rack budget poisoned").cap;
                if others + demand <= cap + CAP_EPS {
                    planned[i] = planned[i].max(demand);
                    continue;
                }
                // Unaffordable wake: reroute to the least-loaded device
                // that was awake before routing, if there is one.
                let target = (0..self.assign.len())
                    .filter(|&j| j != i && pre_available[j])
                    .min_by_key(|&j| (snaps[j].queue_len, j));
                if let Some(t) = target {
                    let moved = self.assign[i];
                    self.assign[t] += moved;
                    snaps[t].queue_len += moved as usize;
                    self.shed += u64::from(moved);
                    self.assign[i] = 0;
                }
                // No awake device at all: leave the arrivals queued on the
                // sleeper; vetoes delay its wake until budget frees up.
            }
        }

        for (i, sim) in self.sims.iter_mut().enumerate() {
            if self.assign[i] > 0 {
                sim.inject_arrivals(self.assign[i]);
            }
        }
    }

    /// Executes one aggregate arrival slice: route `count` arrivals, then
    /// step every device through the slice (a grant slice when capped).
    /// Arrival slices are stepped serially — they are single slices; the
    /// gaps between them carry the parallelism. Returns the rack's summed
    /// energy draw of the slice.
    ///
    /// Public so external drivers (the `qdpm-serve` daemon) can feed the
    /// rack one event at a time, interleaving checkpoints; batch callers
    /// use [`RackCoordinator::run`].
    pub fn arrival_slice(&mut self, count: u32) -> f64 {
        self.fault_barrier_slice();
        self.prepare_arrivals(count);
        let energy = if self.budget.is_some() {
            let energy = self.grant_step_all();
            self.grant_pending = true;
            energy
        } else {
            self.plain_step_all()
        };
        self.now += 1;
        energy
    }

    /// Advances every device across `gap` arrival-free slices. When a
    /// grant is pending (the slice right after arrivals, where wake
    /// decisions land) its slice is stepped serially first; the remainder
    /// runs on up to `threads` workers (budget operations in the remainder
    /// are own-slot only, so the interleaving cannot change results).
    ///
    /// The gap is internally chunked at fault stops — crash-harvest
    /// barriers, budget-refresh slices, retry-backoff expiries — where
    /// the rack regains serial control ([`RackCoordinator`] docs). Chunk
    /// boundaries depend only on the fault plan and retry state, never on
    /// `threads`, so results stay identical at any thread count.
    pub fn advance_gap(&mut self, gap: u64, threads: usize) {
        let threads = if self.has_shared { 1 } else { threads };
        let end = self.now + gap;
        while self.now < end {
            self.fault_barrier_slice();
            let stop = self
                .next_fault_stop()
                .unwrap_or(end)
                .clamp(self.now + 1, end);
            let chunk = stop - self.now;
            self.dispatcher.advance_quiet(chunk);
            let mut left = chunk;
            if self.budget.is_some() && self.grant_pending {
                self.grant_step_all();
                left -= 1;
            }
            self.grant_pending = false;
            if left > 0 {
                run_indexed_mut(&mut self.sims, threads, |_, sim| {
                    sim.run(left);
                });
            }
            self.now = stop;
        }
    }

    /// The rack's report from its current state.
    #[must_use]
    pub fn report(&self) -> RackReport {
        let per_device: Vec<RunStats> = self.sims.iter().map(|s| s.stats().clone()).collect();
        let final_modes: Vec<DeviceMode> = self
            .sims
            .iter()
            .map(|s| s.observation().device_mode)
            .collect();
        let mut stats = FleetStats::aggregate(&per_device, &final_modes, self.n_states);
        let fault_stats: Vec<FaultStats> = self.sims.iter().map(|s| *s.fault_stats()).collect();
        stats.availability = AvailabilityStats::from_device_stats(&fault_stats);
        stats.availability.retries_enqueued = self.retry.enqueued();
        stats.availability.redispatched = self.retry.redispatched();
        stats.availability.retry_pending = self.retry.pending();
        stats.availability.shed_no_healthy = self.shed_no_healthy;
        stats.availability.shed_retry_exhausted = self.retry.dropped();
        for sim in &self.sims {
            stats.deadline.merge(sim.deadline_stats());
        }
        RackReport {
            label: self.label.clone(),
            power_cap: self
                .budget
                .as_ref()
                .map(|b| b.lock().expect("rack budget poisoned").cap),
            fleet: FleetReport {
                labels: self.labels.clone(),
                per_device,
                final_modes,
                stats,
            },
            vetoed_wakeups: self
                .budget
                .as_ref()
                .map_or(0, |b| b.lock().expect("rack budget poisoned").vetoed),
            shed_arrivals: self.shed,
            health: self.sims.iter().map(Simulator::health).collect(),
        }
    }

    /// Checkpoint support: appends the rack's entire dynamic state — every
    /// member simulator ([`Simulator::save_state`], fault clock included),
    /// the intra-rack dispatcher, the command budget's nominals and veto
    /// counter, the pending-grant flag, the shed counters, the rack clock,
    /// the fault-barrier cursor, and the retry queue — to a payload.
    ///
    /// Must be called *between* slices (never mid-grant); the budget's
    /// transient `grant_open` marker is always clear there and is not
    /// persisted.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.put_usize(self.sims.len());
        for sim in &self.sims {
            sim.save_state(w);
        }
        self.dispatcher.save_state(w);
        match &self.budget {
            None => w.put_bool(false),
            Some(budget) => {
                let b = budget.lock().expect("rack budget poisoned");
                w.put_bool(true);
                w.put_usize(b.nominal.len());
                for &n in &b.nominal {
                    w.put_f64(n);
                }
                w.put_u64(b.vetoed);
            }
        }
        w.put_bool(self.grant_pending);
        w.put_u64(self.shed);
        w.put_u64(self.now);
        w.put_usize(self.barrier_pos);
        self.retry.save_state(w);
        w.put_u64(self.shed_no_healthy);
    }

    /// Checkpoint support: restores state written by
    /// [`RackCoordinator::save_state`] into a rack built from the same
    /// spec and config.
    ///
    /// # Errors
    ///
    /// Returns a [`StateError`] when the payload does not decode, the
    /// member count or budget shape disagrees with this rack, or a member
    /// simulator rejects its share. On error the rack may be partially
    /// restored and must be discarded, not resumed.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        let n = r.get_usize()?;
        if n != self.sims.len() {
            return Err(StateError::BadValue(format!(
                "checkpoint holds {n} rack members, this rack has {}",
                self.sims.len()
            )));
        }
        for sim in &mut self.sims {
            sim.load_state(r)?;
        }
        self.dispatcher.load_state(r)?;
        let has_budget = r.get_bool()?;
        if has_budget != self.budget.is_some() {
            return Err(StateError::BadValue(format!(
                "checkpoint capped={has_budget}, this rack capped={}",
                self.budget.is_some()
            )));
        }
        if let Some(budget) = &self.budget {
            let len = r.get_usize()?;
            if len != self.sims.len() {
                return Err(StateError::BadValue(format!(
                    "budget for {len} devices does not fit rack of {}",
                    self.sims.len()
                )));
            }
            let mut nominal = Vec::with_capacity(len);
            for _ in 0..len {
                nominal.push(r.get_f64()?);
            }
            let vetoed = r.get_u64()?;
            let mut b = budget.lock().expect("rack budget poisoned");
            if nominal.iter().sum::<f64>() > b.cap + CAP_EPS {
                return Err(StateError::BadValue(
                    "restored nominals exceed the rack cap".into(),
                ));
            }
            b.nominal = nominal;
            b.vetoed = vetoed;
            b.grant_open = None;
        }
        self.grant_pending = r.get_bool()?;
        self.shed = r.get_u64()?;
        self.now = r.get_u64()?;
        let barrier_pos = r.get_usize()?;
        if barrier_pos > self.barriers.len() {
            return Err(StateError::BadValue(format!(
                "barrier cursor {barrier_pos} beyond the {}-entry fault plan",
                self.barriers.len()
            )));
        }
        self.barrier_pos = barrier_pos;
        self.retry.load_state(r)?;
        self.shed_no_healthy = r.get_u64()?;
        Ok(())
    }

    /// Runs the rack over its horizon against `aggregate`, routing every
    /// arrival slice online, on up to `threads` workers. Results are
    /// identical at any thread count.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] when the aggregate workload fails to build.
    pub fn run(
        mut self,
        aggregate: &ScenarioWorkload,
        threads: usize,
    ) -> Result<RackReport, SimError> {
        let horizon = self.horizon;
        let events = materialize_events(aggregate, self.seed, horizon)?;
        drive_rack(&mut self, &events, horizon, threads);
        Ok(self.report())
    }

    /// Like [`RackCoordinator::run`], but executes every slice one by one
    /// (serially) and returns the rack's summed energy draw of *each*
    /// slice alongside the report — the probe the power-cap conservation
    /// tests assert `energy <= cap + `[`CAP_EPS`] on. Produces the same
    /// report as [`RackCoordinator::run`] for engine-exact policies.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] when the aggregate workload fails to build.
    pub fn run_probed(
        mut self,
        aggregate: &ScenarioWorkload,
    ) -> Result<(RackReport, Vec<f64>), SimError> {
        let events = materialize_events(aggregate, self.seed, self.horizon)?;
        let mut next = 0usize;
        let mut per_slice = Vec::with_capacity(self.horizon as usize);
        for slice in 0..self.horizon {
            self.fault_barrier_slice();
            let arrival = (next < events.len() && events[next].0 == slice).then(|| {
                let count = events[next].1;
                next += 1;
                count
            });
            if let Some(count) = arrival {
                self.prepare_arrivals(count);
            } else {
                self.dispatcher.advance_quiet(1);
            }
            let capped = self.budget.is_some();
            let grant = capped && (arrival.is_some() || self.grant_pending);
            self.grant_pending = capped && arrival.is_some();
            per_slice.push(if grant {
                self.grant_step_all()
            } else {
                self.plain_step_all()
            });
            self.now += 1;
        }
        Ok((self.report(), per_slice))
    }
}

/// Drives a rack across a materialized aggregate event list: arrival-free
/// gaps in parallel, each arrival slice routed and stepped at a barrier.
pub(crate) fn drive_rack(
    rack: &mut RackCoordinator,
    events: &[(Step, u32)],
    horizon: Step,
    threads: usize,
) {
    let mut now = 0;
    for &(slice, count) in events {
        rack.advance_gap(slice - now, threads);
        rack.arrival_slice(count);
        now = slice + 1;
    }
    rack.advance_gap(horizon - now, threads);
}

/// Cluster-wide simulation parameters.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// How aggregate arrival slices are routed *across racks* (rack-level
    /// snapshots: summed queue depth, any-awake, any-waking).
    pub rack_dispatch: DispatchPolicy,
    /// Per-rack fleet parameters. `fleet.seed` is the cluster master seed
    /// (rack `r` derives [`derive_cell_seed`]`(seed, r)`); `fleet.dispatch`
    /// routes within each rack; `fleet.horizon` is the cluster horizon.
    pub fleet: FleetConfig,
}

/// Cluster-level aggregate statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterStats {
    /// Number of racks.
    pub racks: usize,
    /// Each rack's [`FleetStats`], in rack order.
    pub per_rack: Vec<FleetStats>,
    /// Left fold of the rack totals in rack order via [`RunStats::merge`]
    /// — reproducible bit-for-bit at any thread count.
    pub total: RunStats,
}

/// Everything a finished cluster run reports.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    /// Rack labels, in rack order.
    pub rack_labels: Vec<String>,
    /// Per-rack reports (fleet stats, veto and shed counters).
    pub racks: Vec<RackReport>,
    /// The cluster aggregate.
    pub stats: ClusterStats,
}

/// A fleet of fleets: racks under one aggregate stream, with a two-level
/// online dispatch hierarchy (cluster dispatcher across racks, each rack's
/// own dispatcher within it) and per-rack power caps.
///
/// # Example
///
/// ```
/// use qdpm_device::presets;
/// use qdpm_sim::fleet::{FleetConfig, FleetMember, FleetPolicy};
/// use qdpm_sim::hierarchy::{ClusterConfig, ClusterSim, RackSpec};
/// use qdpm_sim::ScenarioWorkload;
/// use qdpm_workload::{DispatchPolicy, WorkloadSpec};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let rack = |r: usize| RackSpec {
///     label: format!("rack-{r}"),
///     members: (0..3)
///         .map(|i| FleetMember {
///             label: format!("hdd-{r}-{i}"),
///             power: presets::three_state_generic(),
///             service: presets::default_service(),
///             policy: FleetPolicy::BreakEvenTimeout,
///         })
///         .collect(),
///     power_cap: Some(4.0),
/// };
/// let cluster = ClusterSim::new(
///     &[rack(0), rack(1)],
///     &ScenarioWorkload::Stationary(WorkloadSpec::bernoulli(0.5)?),
///     &ClusterConfig {
///         rack_dispatch: DispatchPolicy::JoinShortestQueue,
///         fleet: FleetConfig {
///             horizon: 2_000,
///             dispatch: DispatchPolicy::SleepAware { spill: 4 },
///             ..FleetConfig::default()
///         },
///     },
/// )?;
/// let report = cluster.run(2);
/// assert_eq!(report.stats.racks, 2);
/// assert_eq!(report.stats.total.steps, 2 * 3 * 2_000);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ClusterSim {
    racks: Vec<RackCoordinator>,
    rack_dispatcher: WorkloadDispatcher,
    events: Vec<(Step, u32)>,
    horizon: Step,
    aggregate_arrivals: u64,
}

impl ClusterSim {
    /// Assembles a cluster: materializes the aggregate event stream from
    /// the cluster seed and builds every rack with its derived seed.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadConfig`] for an empty rack list and
    /// propagates rack construction and workload errors.
    pub fn new(
        specs: &[RackSpec],
        aggregate: &ScenarioWorkload,
        config: &ClusterConfig,
    ) -> Result<Self, SimError> {
        if specs.is_empty() {
            return Err(SimError::BadConfig(
                "a cluster needs at least one rack".to_string(),
            ));
        }
        let events = materialize_events(aggregate, config.fleet.seed, config.fleet.horizon)?;
        let aggregate_arrivals = events.iter().map(|&(_, c)| u64::from(c)).sum();
        let rack_dispatcher = WorkloadDispatcher::new(config.rack_dispatch, specs.len())?;
        let racks: Vec<RackCoordinator> = specs
            .iter()
            .enumerate()
            .map(|(r, spec)| {
                RackCoordinator::new(
                    spec,
                    &FleetConfig {
                        seed: derive_cell_seed(config.fleet.seed, r as u64),
                        ..config.fleet.clone()
                    },
                )
            })
            .collect::<Result<_, _>>()?;
        Ok(ClusterSim {
            racks,
            rack_dispatcher,
            events,
            horizon: config.fleet.horizon,
            aggregate_arrivals,
        })
    }

    /// Number of racks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.racks.len()
    }

    /// Whether the cluster has no racks (never true once constructed).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.racks.is_empty()
    }

    /// Total arrivals in the materialized aggregate stream (the
    /// conservation tests compare this against the cluster total).
    #[must_use]
    pub fn dispatched_arrivals(&self) -> u64 {
        self.aggregate_arrivals
    }

    /// Runs the cluster on up to `threads` workers — racks advance their
    /// gaps in parallel and every arrival slice is routed serially at a
    /// barrier, so results are identical at any thread count.
    #[must_use]
    pub fn run(mut self, threads: usize) -> ClusterReport {
        let n = self.racks.len();
        let mut snaps = vec![
            DeviceSnapshot {
                queue_len: 0,
                awake: false,
                waking: false,
                down: false,
            };
            n
        ];
        let mut assign = vec![0u32; n];
        let mut now = 0;
        let gap_all = |racks: &mut Vec<RackCoordinator>, gap: u64| {
            if gap > 0 {
                run_indexed_mut(racks, threads, |_, rack| rack.advance_gap(gap, 1));
            }
        };
        for &(slice, count) in &self.events.clone() {
            gap_all(&mut self.racks, slice - now);
            for (r, rack) in self.racks.iter().enumerate() {
                snaps[r] = rack.snapshot();
            }
            self.rack_dispatcher
                .route_slice(count, &mut snaps, &mut assign);
            let assign_now = assign.clone();
            // Every rack steps the arrival slice (possibly with zero
            // arrivals) so the cluster stays slice-aligned.
            run_indexed_mut(&mut self.racks, threads, |r, rack| {
                rack.arrival_slice(assign_now[r]);
            });
            now = slice + 1;
        }
        gap_all(&mut self.racks, self.horizon - now);

        let racks: Vec<RackReport> = self.racks.iter().map(RackCoordinator::report).collect();
        let per_rack: Vec<FleetStats> = racks.iter().map(|r| r.fleet.stats.clone()).collect();
        let mut total = RunStats::new();
        for stats in &per_rack {
            total.merge(&stats.total);
        }
        ClusterReport {
            rack_labels: racks.iter().map(|r| r.label.clone()).collect(),
            stats: ClusterStats {
                racks: racks.len(),
                per_rack,
                total,
            },
            racks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::FleetPolicy;
    use crate::EngineMode;
    use qdpm_core::QDpmConfig;
    use qdpm_device::presets;
    use qdpm_workload::WorkloadSpec;

    fn bernoulli(p: f64) -> ScenarioWorkload {
        ScenarioWorkload::Stationary(WorkloadSpec::bernoulli(p).unwrap())
    }

    fn rack(n: usize, cap: Option<f64>) -> RackSpec {
        RackSpec {
            label: "rack".to_string(),
            members: (0..n)
                .map(|i| FleetMember {
                    label: format!("dev-{i}"),
                    power: presets::three_state_generic(),
                    service: presets::default_service(),
                    policy: FleetPolicy::BreakEvenTimeout,
                })
                .collect(),
            power_cap: cap,
        }
    }

    fn config(horizon: Step, dispatch: DispatchPolicy) -> FleetConfig {
        FleetConfig {
            horizon,
            dispatch,
            ..FleetConfig::default()
        }
    }

    #[test]
    fn empty_rack_rejected() {
        let err = RackCoordinator::new(&rack(0, None), &FleetConfig::default()).unwrap_err();
        assert!(matches!(err, SimError::BadConfig(_)));
    }

    #[test]
    fn infeasible_and_invalid_caps_rejected() {
        for cap in [0.0, -1.0, f64::NAN, f64::INFINITY, 1e-6] {
            let err =
                RackCoordinator::new(&rack(4, Some(cap)), &FleetConfig::default()).unwrap_err();
            assert!(matches!(err, SimError::BadConfig(_)), "cap={cap}");
        }
    }

    #[test]
    fn capped_rack_never_exceeds_its_cap_in_any_slice() {
        let cap = 3.0;
        let spec = rack(4, Some(cap));
        let cfg = config(3_000, DispatchPolicy::SleepAware { spill: 3 });
        let (report, per_slice) = RackCoordinator::new(&spec, &cfg)
            .unwrap()
            .run_probed(&bernoulli(0.5))
            .unwrap();
        assert_eq!(per_slice.len(), 3_000);
        let max = per_slice.iter().cloned().fold(0.0, f64::max);
        assert!(max <= cap + CAP_EPS, "max slice draw {max} > cap {cap}");
        // The cap binds: an uncapped run of the same rack draws more at
        // peak, and the capped run actually had to intervene.
        assert!(report.vetoed_wakeups + report.shed_arrivals > 0);
        // Conservation: every aggregate arrival is accounted for.
        let (uncapped, _) = RackCoordinator::new(&rack(4, None), &cfg)
            .unwrap()
            .run_probed(&bernoulli(0.5))
            .unwrap();
        assert_eq!(
            report.fleet.stats.total.arrivals,
            uncapped.fleet.stats.total.arrivals
        );
    }

    #[test]
    fn probed_run_matches_segmented_run() {
        for cap in [None, Some(3.0)] {
            let spec = rack(4, cap);
            let cfg = config(2_000, DispatchPolicy::SleepAware { spill: 3 });
            let probed = RackCoordinator::new(&spec, &cfg)
                .unwrap()
                .run_probed(&bernoulli(0.4))
                .unwrap()
                .0;
            let segmented = RackCoordinator::new(&spec, &cfg)
                .unwrap()
                .run(&bernoulli(0.4), 3)
                .unwrap();
            assert_eq!(probed, segmented, "cap={cap:?}");
        }
    }

    /// Checkpointing a rack mid-stream and restoring into a freshly built
    /// rack must finish with a report bit-identical to never having
    /// stopped — capped and uncapped, learning members included.
    #[test]
    fn rack_save_load_resumes_bit_identically() {
        for cap in [None, Some(3.5)] {
            let mut spec = rack(4, cap);
            spec.members[1].policy = FleetPolicy::QDpm(QDpmConfig::default());
            spec.members[2].policy = FleetPolicy::AdaptiveTimeout;
            let cfg = config(3_000, DispatchPolicy::SleepAware { spill: 3 });
            let workload = bernoulli(0.4);
            let events = materialize_events(&workload, cfg.seed, cfg.horizon).unwrap();
            let split = events.len() / 2;

            let reference = RackCoordinator::new(&spec, &cfg)
                .unwrap()
                .run(&workload, 2)
                .unwrap();

            let mut first = RackCoordinator::new(&spec, &cfg).unwrap();
            let mut now = 0;
            for &(slice, count) in &events[..split] {
                first.advance_gap(slice - now, 2);
                first.arrival_slice(count);
                now = slice + 1;
            }
            let mut w = StateWriter::new();
            first.save_state(&mut w);
            let bytes = w.into_bytes();

            let mut resumed = RackCoordinator::new(&spec, &cfg).unwrap();
            resumed.load_state(&mut StateReader::new(&bytes)).unwrap();
            for &(slice, count) in &events[split..] {
                resumed.advance_gap(slice - now, 2);
                resumed.arrival_slice(count);
                now = slice + 1;
            }
            resumed.advance_gap(cfg.horizon - now, 2);
            assert_eq!(reference, resumed.report(), "cap={cap:?}");
        }
    }

    /// Rack checkpoints refuse shape mismatches instead of resuming into
    /// the wrong topology.
    #[test]
    fn rack_load_rejects_mismatched_shapes() {
        let cfg = config(1_000, DispatchPolicy::RoundRobin);
        let mut donor = RackCoordinator::new(&rack(3, None), &cfg).unwrap();
        donor.advance_gap(10, 1);
        let mut w = StateWriter::new();
        donor.save_state(&mut w);
        let bytes = w.into_bytes();
        // Wrong member count.
        let mut wrong_n = RackCoordinator::new(&rack(4, None), &cfg).unwrap();
        assert!(wrong_n.load_state(&mut StateReader::new(&bytes)).is_err());
        // Capped rack fed an uncapped checkpoint.
        let mut capped = RackCoordinator::new(&rack(3, Some(5.0)), &cfg).unwrap();
        assert!(capped.load_state(&mut StateReader::new(&bytes)).is_err());
    }

    #[test]
    fn capped_rack_is_engine_mode_and_thread_exact() {
        let spec = rack(5, Some(4.0));
        let run = |mode, threads| {
            let cfg = FleetConfig {
                engine_mode: mode,
                ..config(2_500, DispatchPolicy::JoinShortestQueue)
            };
            RackCoordinator::new(&spec, &cfg)
                .unwrap()
                .run(&bernoulli(0.3), threads)
                .unwrap()
        };
        let reference = run(EngineMode::PerSlice, 1);
        assert_eq!(reference, run(EngineMode::PerSlice, 4));
        assert_eq!(reference, run(EngineMode::EventSkip, 1));
        assert_eq!(reference, run(EngineMode::EventSkip, 4));
    }

    #[test]
    fn capped_rack_cold_boots_asleep() {
        let spec = rack(3, Some(10.0));
        let rack = RackCoordinator::new(&spec, &FleetConfig::default()).unwrap();
        for (sim, model) in rack.sims.iter().zip(&rack.models) {
            assert_eq!(
                sim.observation().device_mode,
                DeviceMode::Operational(model.lowest_power_state())
            );
        }
    }

    #[test]
    fn oracle_members_rejected_in_racks() {
        let mut spec = rack(2, None);
        spec.members[1].policy = FleetPolicy::Oracle;
        let err = RackCoordinator::new(&spec, &FleetConfig::default()).unwrap_err();
        assert!(matches!(err, SimError::BadConfig(_)));
    }

    #[test]
    fn cluster_conserves_arrivals_and_folds_in_rack_order() {
        let specs = vec![rack(3, Some(4.0)), rack(2, None), rack(4, Some(5.0))];
        let cfg = ClusterConfig {
            rack_dispatch: DispatchPolicy::JoinShortestQueue,
            fleet: config(2_000, DispatchPolicy::SleepAware { spill: 4 }),
        };
        let cluster = ClusterSim::new(&specs, &bernoulli(0.6), &cfg).unwrap();
        assert_eq!(cluster.len(), 3);
        let dispatched = cluster.dispatched_arrivals();
        assert!(dispatched > 0);
        let report = cluster.run(2);
        assert_eq!(report.stats.racks, 3);
        assert_eq!(report.stats.total.arrivals, dispatched);
        assert_eq!(report.stats.total.steps, (3 + 2 + 4) * 2_000);
        let mut manual = RunStats::new();
        for stats in &report.stats.per_rack {
            manual.merge(&stats.total);
        }
        assert_eq!(report.stats.total, manual);
        assert_eq!(report.rack_labels.len(), 3);
    }

    #[test]
    fn cluster_is_thread_count_invariant() {
        let specs = vec![rack(3, Some(4.0)), rack(3, None)];
        let cfg = ClusterConfig {
            rack_dispatch: DispatchPolicy::SleepAware { spill: 6 },
            fleet: config(1_500, DispatchPolicy::JoinShortestQueue),
        };
        let reference = ClusterSim::new(&specs, &bernoulli(0.5), &cfg)
            .unwrap()
            .run(1);
        for threads in [2, 4] {
            let report = ClusterSim::new(&specs, &bernoulli(0.5), &cfg)
                .unwrap()
                .run(threads);
            assert_eq!(reference, report, "threads={threads}");
        }
    }

    #[test]
    fn empty_cluster_rejected() {
        let cfg = ClusterConfig {
            rack_dispatch: DispatchPolicy::RoundRobin,
            fleet: FleetConfig::default(),
        };
        let err = ClusterSim::new(&[], &bernoulli(0.1), &cfg).unwrap_err();
        assert!(matches!(err, SimError::BadConfig(_)));
    }

    #[test]
    fn command_demand_covers_instant_and_latent_transitions() {
        let model = presets::three_state_generic();
        let high = model.highest_power_state();
        let low = model.lowest_power_state();
        let t = model.transition(high, low).unwrap();
        let expected = if t.latency == 0 {
            t.energy + model.state(low).power
        } else {
            t.energy_per_step().max(model.state(low).power)
        };
        assert_eq!(command_demand(&model, high, low), Some(expected));
        // Self-transitions are free, so their demand is pure residency.
        assert_eq!(
            command_demand(&model, high, high),
            Some(model.state(high).power)
        );
    }
}

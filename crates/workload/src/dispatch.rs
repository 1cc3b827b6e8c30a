//! Splitting one aggregate arrival stream across a fleet of devices.
//!
//! The fleet layer in `qdpm-sim` models a service population (millions of
//! users) as a *single* aggregate [`RequestGenerator`] whose arrivals are
//! assigned to individual devices by a [`WorkloadDispatcher`]. The split is
//! a strict partition — every aggregate arrival lands on exactly one
//! device, none are invented — which the fleet conservation property tests
//! in `qdpm-sim` pin.
//!
//! Dispatch comes in two flavours:
//!
//! * **state-blind** policies ([`DispatchPolicy::is_state_blind`]) route
//!   from dispatcher-internal state only, so the whole assignment can be
//!   precomputed: [`WorkloadDispatcher::split`] materializes one
//!   [`SparseTrace`] per device over a fixed horizon and the per-device
//!   simulations stay embarrassingly parallel;
//! * **state-aware** policies ([`DispatchPolicy::JoinShortestQueue`],
//!   [`DispatchPolicy::SleepAware`]) read live [`DeviceSnapshot`]s —
//!   real queue depths and power modes — through
//!   [`WorkloadDispatcher::route_slice`], so routing reacts to what the
//!   devices are actually doing. The fleet engine in `qdpm-sim` feeds
//!   snapshots refreshed at every arrival slice, which keeps the
//!   assignment deterministic (it depends only on the aggregate stream
//!   and the simulated device states, never on thread scheduling).

use rand::Rng;

use crate::{ArrivalGap, RequestGenerator, WorkloadError};

/// What a state-aware dispatch policy sees of one device when routing an
/// arrival: the live queue depth and a coarse view of the power mode.
///
/// The fleet engine refreshes snapshots from the simulated devices at every
/// arrival slice; [`WorkloadDispatcher::route_slice`] then mutates them as
/// it assigns arrivals (incrementing `queue_len`, marking routed sleepers
/// `waking`) so that several arrivals in one slice spread out instead of
/// all piling onto the pre-slice minimum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceSnapshot {
    /// Requests currently queued on the device.
    pub queue_len: usize,
    /// Whether the device is resident in a state that can serve requests.
    pub awake: bool,
    /// Whether the device is mid-transition *toward* a serving state (it
    /// will be able to serve soon without a fresh wake command).
    pub waking: bool,
    /// Whether the device is down (faulted): serving nothing and unable to
    /// accept a wake command. State-aware policies route around down
    /// devices whenever any healthy device exists.
    pub down: bool,
}

impl DeviceSnapshot {
    /// Whether the device can absorb work without a wake command: either
    /// serving now or already on its way up — and not down.
    #[must_use]
    pub fn available(&self) -> bool {
        !self.down && (self.awake || self.waking)
    }
}

/// How a [`WorkloadDispatcher`] assigns each aggregate arrival to a device.
///
/// The first three policies are *state-blind*: they route from
/// dispatcher-internal state only and support ahead-of-time
/// [`WorkloadDispatcher::split`]. [`DispatchPolicy::JoinShortestQueue`] and
/// [`DispatchPolicy::SleepAware`] are *state-aware*: they read live
/// [`DeviceSnapshot`]s via [`WorkloadDispatcher::route_slice`] and cannot
/// be precomputed.
///
/// # Example
///
/// Online routing against live snapshots — the sleep-aware policy
/// consolidates load onto the awake device until its queue reaches the
/// spill threshold:
///
/// ```
/// use qdpm_workload::{DeviceSnapshot, DispatchPolicy, WorkloadDispatcher};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut d = WorkloadDispatcher::new(DispatchPolicy::SleepAware { spill: 2 }, 3)?;
/// let mut snaps = vec![
///     DeviceSnapshot { queue_len: 0, awake: true, waking: false, down: false },
///     DeviceSnapshot { queue_len: 0, awake: false, waking: false, down: false },
///     DeviceSnapshot { queue_len: 0, awake: false, waking: false, down: false },
/// ];
/// let mut assign = vec![0u32; 3];
/// // Three arrivals: two consolidate onto awake device 0; the third sees
/// // its queue at the spill threshold and wakes a sleeping device.
/// d.route_slice(3, &mut snaps, &mut assign);
/// assert_eq!(assign, vec![2, 1, 0]);
/// assert!(snaps[1].waking, "the routed sleeper is now waking");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchPolicy {
    /// Arrival `i` goes to device `i mod n` (in arrival order, across
    /// slices).
    RoundRobin,
    /// Each arrival goes to the device with the smallest *nominal backlog*:
    /// the count of requests assigned to it so far minus a unit-rate drain
    /// (each device sheds at most one outstanding request per slice, the
    /// single-server queue's best case). Ties rotate fairly: among the
    /// minimal-backlog devices, the one at or after a moving cursor wins —
    /// without the rotation, any stream sparser than one arrival per slice
    /// has all backlogs pinned at zero and every arrival would land on
    /// device 0. The drain is a deterministic stand-in for the actual
    /// stochastic service process — the dispatcher never inspects live
    /// queues, so the split stays precomputable and device-independent.
    LeastLoaded,
    /// Arrival `i` goes to device `splitmix64(salt, i) mod n` — a
    /// stateless, salted shard assignment (the fleet analog of consistent
    /// hashing on a request key).
    HashSharded {
        /// Salt mixed into the per-arrival hash.
        salt: u64,
    },
    /// State-aware: each arrival joins the device with the shortest *live*
    /// queue (ties rotate via the cursor, like
    /// [`DispatchPolicy::LeastLoaded`]). Routed arrivals increment the
    /// snapshot's queue so same-slice arrivals spread. Requires
    /// [`WorkloadDispatcher::route_slice`].
    JoinShortestQueue,
    /// State-aware and wake-avoiding: arrivals consolidate onto the
    /// shortest-queued device that is awake or already waking, spilling to
    /// a sleeping device (waking it) only when every available device's
    /// queue has reached `spill`; when the whole fleet is asleep, one
    /// sleeper is woken and the slice's load consolidates onto it.
    /// Requires [`WorkloadDispatcher::route_slice`].
    SleepAware {
        /// Queue depth at which load spills from available devices onto a
        /// sleeping one (0 never consolidates: any sleeper beats any
        /// queue).
        spill: usize,
    },
}

impl DispatchPolicy {
    /// Short display name for reports.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            DispatchPolicy::RoundRobin => "round-robin",
            DispatchPolicy::LeastLoaded => "least-loaded",
            DispatchPolicy::HashSharded { .. } => "hash-sharded",
            DispatchPolicy::JoinShortestQueue => "join-shortest-queue",
            DispatchPolicy::SleepAware { .. } => "sleep-aware",
        }
    }

    /// Whether the policy routes without looking at device state, so the
    /// whole assignment can be precomputed by
    /// [`WorkloadDispatcher::split`]. State-aware policies
    /// ([`DispatchPolicy::JoinShortestQueue`],
    /// [`DispatchPolicy::SleepAware`]) must be driven online through
    /// [`WorkloadDispatcher::route_slice`].
    #[must_use]
    pub fn is_state_blind(&self) -> bool {
        !matches!(
            self,
            DispatchPolicy::JoinShortestQueue | DispatchPolicy::SleepAware { .. }
        )
    }

    /// All policy kinds with default parameters, for sweep harnesses and
    /// the fleet conformance suite. State-blind policies come first, in
    /// [`DispatchPolicy::state_blind`] order.
    #[must_use]
    pub fn all() -> Vec<DispatchPolicy> {
        let mut all = DispatchPolicy::state_blind();
        all.extend(DispatchPolicy::state_aware());
        all
    }

    /// The state-blind policy kinds (precomputable via
    /// [`WorkloadDispatcher::split`]).
    #[must_use]
    pub fn state_blind() -> Vec<DispatchPolicy> {
        vec![
            DispatchPolicy::RoundRobin,
            DispatchPolicy::LeastLoaded,
            DispatchPolicy::HashSharded { salt: 0 },
        ]
    }

    /// The state-aware policy kinds (online-only, via
    /// [`WorkloadDispatcher::route_slice`]), with default parameters.
    #[must_use]
    pub fn state_aware() -> Vec<DispatchPolicy> {
        vec![
            DispatchPolicy::JoinShortestQueue,
            DispatchPolicy::SleepAware { spill: 4 },
        ]
    }
}

// The workspace's one keyed SplitMix64 hash (shared with the parallel
// runner's per-cell seed derivation), used here for stateless shard
// hashing.
use qdpm_core::rng_util::splitmix64;

/// Assigns the arrivals of an aggregate stream to `n` devices, slice by
/// slice, under a [`DispatchPolicy`].
///
/// The dispatcher is deterministic: given the same aggregate per-slice
/// counts it produces the same assignment, independent of anything the
/// devices do. Its only state is the policy's own (round-robin cursor,
/// nominal backlogs, arrival sequence number).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadDispatcher {
    policy: DispatchPolicy,
    n_devices: usize,
    /// Next device for round-robin assignment.
    cursor: usize,
    /// Aggregate arrivals assigned so far (the hash-shard key).
    seq: u64,
    /// Nominal per-device backlog for least-loaded assignment.
    backlog: Vec<u64>,
}

impl WorkloadDispatcher {
    /// Creates a dispatcher over `n_devices` devices.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::EmptyFleet`] when `n_devices` is zero.
    pub fn new(policy: DispatchPolicy, n_devices: usize) -> Result<Self, WorkloadError> {
        if n_devices == 0 {
            return Err(WorkloadError::EmptyFleet);
        }
        Ok(WorkloadDispatcher {
            policy,
            n_devices,
            cursor: 0,
            seq: 0,
            backlog: vec![0; n_devices],
        })
    }

    /// The dispatch policy.
    #[must_use]
    pub fn policy(&self) -> DispatchPolicy {
        self.policy
    }

    /// Number of devices arrivals are split across.
    #[must_use]
    pub fn n_devices(&self) -> usize {
        self.n_devices
    }

    /// Assigns one slice's `count` aggregate arrivals across the devices,
    /// writing per-device counts into `assign` (zeroed first). The sum of
    /// `assign` always equals `count` — a strict partition.
    ///
    /// # Panics
    ///
    /// Panics if `assign.len() != n_devices`, or if the policy is
    /// state-aware (use [`WorkloadDispatcher::route_slice`] instead).
    pub fn dispatch_slice(&mut self, count: u32, assign: &mut [u32]) {
        assert!(
            self.policy.is_state_blind(),
            "{} is state-aware: dispatch it online via route_slice",
            self.policy.name()
        );
        self.route_inner(count, None, assign);
    }

    /// Assigns one slice's `count` aggregate arrivals across the devices
    /// using the live [`DeviceSnapshot`]s, writing per-device counts into
    /// `assign` (zeroed first). The sum of `assign` always equals `count`.
    ///
    /// For state-blind policies the assignment is identical to
    /// [`WorkloadDispatcher::dispatch_slice`] (snapshots are ignored), so
    /// an online fleet run with a state-blind dispatcher reproduces the
    /// precomputed split exactly. State-aware policies read and *mutate*
    /// the snapshots: each routed arrival increments its target's
    /// `queue_len`, and a routed sleeper is marked `waking`, so several
    /// arrivals within one slice spread out deterministically.
    ///
    /// # Panics
    ///
    /// Panics if `assign.len() != n_devices` or
    /// `snapshots.len() != n_devices`.
    pub fn route_slice(
        &mut self,
        count: u32,
        snapshots: &mut [DeviceSnapshot],
        assign: &mut [u32],
    ) {
        assert_eq!(
            snapshots.len(),
            self.n_devices,
            "snapshot buffer must have one slot per device"
        );
        self.route_inner(count, Some(snapshots), assign);
    }

    /// The shared per-slice routing body. `snapshots` is `None` only on
    /// the state-blind [`WorkloadDispatcher::dispatch_slice`] path.
    fn route_inner(
        &mut self,
        count: u32,
        mut snapshots: Option<&mut [DeviceSnapshot]>,
        assign: &mut [u32],
    ) {
        assert_eq!(
            assign.len(),
            self.n_devices,
            "assignment buffer must have one slot per device"
        );
        assign.fill(0);
        let n = self.n_devices;
        for _ in 0..count {
            // Cyclic distance from the rotating cursor — the shared
            // tie-breaker that spreads minimum-ties fairly instead of
            // piling them onto device 0.
            let cursor = self.cursor;
            let cyc = move |i: usize| (i + n - cursor % n) % n;
            let target = match self.policy {
                DispatchPolicy::RoundRobin => {
                    let t = self.cursor;
                    self.cursor = (self.cursor + 1) % n;
                    t
                }
                DispatchPolicy::LeastLoaded => {
                    // Smallest nominal backlog; ties rotate via the cursor.
                    let t = self
                        .backlog
                        .iter()
                        .enumerate()
                        .min_by_key(|&(i, &b)| (b, cyc(i)))
                        .map(|(i, _)| i)
                        .expect("dispatcher has at least one device");
                    self.backlog[t] += 1;
                    self.cursor = (t + 1) % n;
                    t
                }
                DispatchPolicy::HashSharded { salt } => {
                    (splitmix64(salt, self.seq) % n as u64) as usize
                }
                DispatchPolicy::JoinShortestQueue => {
                    let snaps = snapshots
                        .as_deref_mut()
                        .expect("state-aware policy routed without snapshots");
                    // Down devices are skipped whenever any healthy device
                    // exists; with the whole fleet down the assignment
                    // stays total (the coordinator sheds before routing).
                    let t = snaps
                        .iter()
                        .enumerate()
                        .filter(|(_, s)| !s.down)
                        .min_by_key(|&(i, s)| (s.queue_len, cyc(i)))
                        .or_else(|| {
                            snaps
                                .iter()
                                .enumerate()
                                .min_by_key(|&(i, s)| (s.queue_len, cyc(i)))
                        })
                        .map(|(i, _)| i)
                        .expect("dispatcher has at least one device");
                    snaps[t].queue_len += 1;
                    self.cursor = (t + 1) % n;
                    t
                }
                DispatchPolicy::SleepAware { spill } => {
                    let snaps = snapshots
                        .as_deref_mut()
                        .expect("state-aware policy routed without snapshots");
                    let best_available = snaps
                        .iter()
                        .enumerate()
                        .filter(|(_, s)| s.available())
                        .min_by_key(|&(i, s)| (s.queue_len, cyc(i)))
                        .map(|(i, _)| i);

                    // Sleepers worth waking exclude down devices — a wake
                    // command cannot revive a faulted member.
                    let first_sleeper = || {
                        snaps
                            .iter()
                            .enumerate()
                            .filter(|(_, s)| !s.available() && !s.down)
                            .min_by_key(|&(i, _)| cyc(i))
                            .map(|(i, _)| i)
                    };
                    let t = match best_available {
                        // Consolidate onto the best available device until
                        // its queue hits the spill threshold; then wake
                        // the next sleeper instead.
                        Some(b) if snaps[b].queue_len < spill => b,
                        Some(b) => first_sleeper().unwrap_or(b),
                        // Whole fleet asleep: wake one. With every device
                        // down the assignment stays total by falling back
                        // to the cursor-nearest device (the coordinator
                        // sheds before routing in that case).
                        None => first_sleeper().unwrap_or_else(|| {
                            snaps
                                .iter()
                                .enumerate()
                                .min_by_key(|&(i, _)| cyc(i))
                                .map(|(i, _)| i)
                                .expect("dispatcher has at least one device")
                        }),
                    };
                    snaps[t].queue_len += 1;
                    if !snaps[t].awake {
                        snaps[t].waking = true;
                    }
                    self.cursor = (t + 1) % n;
                    t
                }
            };
            self.seq += 1;
            assign[target] += 1;
        }
        if self.policy == DispatchPolicy::LeastLoaded {
            // End of slice: nominal unit-rate drain.
            for b in &mut self.backlog {
                *b = b.saturating_sub(1);
            }
        }
    }

    /// Applies the end-of-slice bookkeeping of `slices` arrival-free
    /// slices in one step (for [`DispatchPolicy::LeastLoaded`], the
    /// nominal unit-rate drain; the other policies are stateless across
    /// quiet slices). `saturating_sub` makes the bulk drain exactly equal
    /// to `slices` repeated [`WorkloadDispatcher::dispatch_slice`]`(0, ..)`
    /// calls.
    pub fn advance_quiet(&mut self, slices: u64) {
        if self.policy == DispatchPolicy::LeastLoaded && slices > 0 {
            for b in &mut self.backlog {
                *b = b.saturating_sub(slices);
            }
        }
    }

    /// Draws `slices` slices from `aggregate` and splits them into one
    /// [`SparseTrace`] per device over that horizon. The returned traces
    /// partition the aggregate stream: summed per slice they reproduce the
    /// aggregate counts exactly, and the assignment is identical to
    /// driving [`WorkloadDispatcher::dispatch_slice`] slice by slice
    /// (quiet slices drain via [`WorkloadDispatcher::advance_quiet`]).
    ///
    /// # Panics
    ///
    /// Panics if the policy is state-aware — those assignments depend on
    /// live device state and cannot be precomputed; drive them online via
    /// [`WorkloadDispatcher::route_slice`].
    pub fn split(
        &mut self,
        aggregate: &mut dyn RequestGenerator,
        rng: &mut dyn Rng,
        slices: u64,
    ) -> Vec<SparseTrace> {
        let mut events: Vec<Vec<(u64, u32)>> = vec![Vec::new(); self.n_devices];
        let mut assign = vec![0u32; self.n_devices];
        let mut quiet = 0u64;
        for now in 0..slices {
            let count = aggregate.next_arrivals(rng);
            if count == 0 {
                quiet += 1;
                continue;
            }
            self.advance_quiet(quiet);
            quiet = 0;
            self.dispatch_slice(count, &mut assign);
            for (device, &c) in assign.iter().enumerate() {
                if c > 0 {
                    events[device].push((now, c));
                }
            }
        }
        self.advance_quiet(quiet);
        events
            .into_iter()
            .map(|ev| SparseTrace::new(ev, slices).expect("split emits sorted in-horizon events"))
            .collect()
    }

    /// Restores the dispatcher's initial state.
    pub fn reset(&mut self) {
        self.cursor = 0;
        self.seq = 0;
        self.backlog.fill(0);
    }

    /// Checkpoint support: appends the routing cursor, arrival sequence
    /// number, and nominal backlogs to a payload (pairs with
    /// [`WorkloadDispatcher::load_state`]).
    pub fn save_state(&self, w: &mut qdpm_core::StateWriter) {
        w.put_usize(self.cursor);
        w.put_u64(self.seq);
        w.put_usize(self.backlog.len());
        for &b in &self.backlog {
            w.put_u64(b);
        }
    }

    /// Checkpoint support: restores state written by
    /// [`WorkloadDispatcher::save_state`].
    ///
    /// # Errors
    ///
    /// Returns a [`qdpm_core::StateError`] when the payload does not decode
    /// or the backlog length does not match this dispatcher's fleet size.
    pub fn load_state(
        &mut self,
        r: &mut qdpm_core::StateReader<'_>,
    ) -> Result<(), qdpm_core::StateError> {
        let cursor = r.get_usize()?;
        let seq = r.get_u64()?;
        let len = r.get_usize()?;
        if len != self.n_devices {
            return Err(qdpm_core::StateError::BadValue(format!(
                "dispatcher backlog for {len} devices does not fit fleet of {}",
                self.n_devices
            )));
        }
        let mut backlog = Vec::with_capacity(len);
        for _ in 0..len {
            backlog.push(r.get_u64()?);
        }
        self.cursor = cursor;
        self.seq = seq;
        self.backlog = backlog;
        Ok(())
    }
}

/// A non-looping arrival trace stored sparsely as `(slice, count)` events
/// over a fixed horizon — the per-device output of a fleet dispatch.
///
/// Beyond the horizon the trace is quiet forever (unlike [`crate::TraceReplay`],
/// which wraps around); fleet simulations run exactly the horizon, so the
/// tail is never observed. [`RequestGenerator::next_arrival_gap`] is
/// overridden with an exact, randomness-free jump to the next event, so
/// the event-skipping engine is *bit-exact* against per-slice stepping on
/// these traces.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseTrace {
    /// `(slice, count)` events, strictly increasing in slice, counts >= 1.
    events: Vec<(u64, u32)>,
    /// Slices the trace is defined over; events all land before it.
    horizon: u64,
    /// Next event index.
    pos: usize,
    /// Current slice.
    now: u64,
}

impl SparseTrace {
    /// Creates a sparse trace from sorted events over `horizon` slices.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::UnsortedEvents`] when slices are not
    /// strictly increasing, a count is zero, or an event lies at or beyond
    /// the horizon.
    pub fn new(events: Vec<(u64, u32)>, horizon: u64) -> Result<Self, WorkloadError> {
        let mut last: Option<u64> = None;
        for &(slice, count) in &events {
            if count == 0 || slice >= horizon || last.is_some_and(|l| slice <= l) {
                return Err(WorkloadError::UnsortedEvents { slice, count });
            }
            last = Some(slice);
        }
        Ok(SparseTrace {
            events,
            horizon,
            pos: 0,
            now: 0,
        })
    }

    /// The horizon (slices the trace is defined over).
    #[must_use]
    pub fn horizon(&self) -> u64 {
        self.horizon
    }

    /// The `(slice, count)` events.
    #[must_use]
    pub fn events(&self) -> &[(u64, u32)] {
        &self.events
    }

    /// Total arrivals across the horizon.
    #[must_use]
    pub fn total_arrivals(&self) -> u64 {
        self.events.iter().map(|&(_, c)| u64::from(c)).sum()
    }

    /// The current slice's arrival count, advancing one slice — what
    /// [`RequestGenerator::next_arrivals`] returns, without the RNG the
    /// trace never reads.
    #[inline]
    pub fn next_count(&mut self) -> u32 {
        let count = match self.events.get(self.pos) {
            Some(&(slice, count)) if slice == self.now => {
                self.pos += 1;
                count
            }
            _ => 0,
        };
        self.now += 1;
        count
    }

    /// Expands to a dense per-slice count vector of horizon length (for
    /// consumers that need random access, e.g. the clairvoyant oracle).
    /// Costs `O(horizon)` memory — intended for test- and report-sized
    /// horizons, not million-slice fleets.
    #[must_use]
    pub fn to_dense(&self) -> Vec<u32> {
        let mut dense = vec![0u32; usize::try_from(self.horizon).expect("horizon fits usize")];
        for &(slice, count) in &self.events {
            dense[usize::try_from(slice).expect("event within horizon")] = count;
        }
        dense
    }
}

impl RequestGenerator for SparseTrace {
    fn next_arrivals(&mut self, _rng: &mut dyn Rng) -> u32 {
        self.next_count()
    }

    fn next_arrival_gap(&mut self, _rng: &mut dyn Rng, limit: u64) -> ArrivalGap {
        // Exact, randomness-free: identical arrival sequence to per-slice
        // stepping, no RNG consumed either way.
        match self.events.get(self.pos) {
            Some(&(slice, count)) if slice - self.now < limit => {
                let empty = slice - self.now;
                self.now = slice + 1;
                self.pos += 1;
                ArrivalGap::Arrival { empty, count }
            }
            _ => {
                self.now += limit;
                ArrivalGap::Quiet { advanced: limit }
            }
        }
    }

    fn mean_rate(&self) -> Option<f64> {
        if self.horizon == 0 {
            return None;
        }
        Some(self.total_arrivals() as f64 / self.horizon as f64)
    }

    fn save_state(&self, w: &mut qdpm_core::StateWriter) {
        w.put_usize(self.pos);
        w.put_u64(self.now);
    }

    fn load_state(
        &mut self,
        r: &mut qdpm_core::StateReader<'_>,
    ) -> Result<(), qdpm_core::StateError> {
        let pos = r.get_usize()?;
        if pos > self.events.len() {
            return Err(qdpm_core::StateError::BadValue(format!(
                "trace cursor {pos} out of range for {} events",
                self.events.len()
            )));
        }
        self.pos = pos;
        self.now = r.get_u64()?;
        Ok(())
    }

    fn reset(&mut self) {
        self.pos = 0;
        self.now = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BernoulliArrivals, WorkloadSpec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn replayed(traces: &[SparseTrace], slices: u64) -> Vec<Vec<u32>> {
        let mut rng = StdRng::seed_from_u64(0);
        traces
            .iter()
            .map(|t| {
                let mut t = t.clone();
                (0..slices).map(|_| t.next_arrivals(&mut rng)).collect()
            })
            .collect()
    }

    #[test]
    fn zero_devices_rejected() {
        assert_eq!(
            WorkloadDispatcher::new(DispatchPolicy::RoundRobin, 0).unwrap_err(),
            WorkloadError::EmptyFleet
        );
    }

    #[test]
    fn round_robin_cycles_across_slices() {
        let mut d = WorkloadDispatcher::new(DispatchPolicy::RoundRobin, 3).unwrap();
        let mut a = vec![0u32; 3];
        d.dispatch_slice(4, &mut a);
        assert_eq!(a, vec![2, 1, 1]);
        d.dispatch_slice(2, &mut a);
        // Cursor carried over: next arrivals land on devices 1 and 2.
        assert_eq!(a, vec![0, 1, 1]);
    }

    #[test]
    fn least_loaded_prefers_emptiest_and_drains() {
        let mut d = WorkloadDispatcher::new(DispatchPolicy::LeastLoaded, 2).unwrap();
        let mut a = vec![0u32; 2];
        // Burst of 3: device 0 gets 2 (ties break low), device 1 gets 1.
        d.dispatch_slice(3, &mut a);
        assert_eq!(a, vec![2, 1]);
        // After the unit drain backlogs are [1, 0]: next arrival goes to 1.
        d.dispatch_slice(1, &mut a);
        assert_eq!(a, vec![0, 1]);
    }

    #[test]
    fn hash_sharded_is_stateless_in_position_but_keyed_by_seq() {
        let mut d = WorkloadDispatcher::new(DispatchPolicy::HashSharded { salt: 7 }, 4).unwrap();
        let mut a = vec![0u32; 4];
        d.dispatch_slice(100, &mut a);
        let first: u32 = a.iter().sum();
        assert_eq!(first, 100);
        // A different salt shards differently.
        let mut d2 = WorkloadDispatcher::new(DispatchPolicy::HashSharded { salt: 8 }, 4).unwrap();
        let mut b = vec![0u32; 4];
        d2.dispatch_slice(100, &mut b);
        assert_ne!(a, b, "salts must change the assignment");
    }

    #[test]
    fn split_partitions_the_aggregate_stream() {
        for policy in DispatchPolicy::state_blind() {
            let slices = 500u64;
            let mut gen = BernoulliArrivals::new(0.4).unwrap();
            let mut rng = StdRng::seed_from_u64(11);
            let mut d = WorkloadDispatcher::new(policy, 3).unwrap();
            let traces = d.split(&mut gen, &mut rng, slices);

            // Re-draw the identical aggregate stream.
            let mut gen2 = BernoulliArrivals::new(0.4).unwrap();
            let mut rng2 = StdRng::seed_from_u64(11);
            let aggregate: Vec<u32> = (0..slices).map(|_| gen2.next_arrivals(&mut rng2)).collect();

            let per_device = replayed(&traces, slices);
            for (t, agg) in (0..slices as usize).map(|t| (t, aggregate[t])) {
                let sum: u32 = per_device.iter().map(|d| d[t]).sum();
                assert_eq!(sum, agg, "{}: slice {t} not partitioned", policy.name());
            }
        }
    }

    #[test]
    fn split_matches_slice_by_slice_dispatch() {
        // Bursts followed by long quiet gaps, so the least-loaded drain
        // actually has backlog to shed across the gaps.
        let pattern = vec![5u32, 0, 0, 2, 0, 0, 0, 0, 3, 0, 1, 0, 0, 0, 0, 4];
        let slices = 400u64;
        for policy in DispatchPolicy::state_blind() {
            let mut gen = crate::TraceReplay::new(pattern.clone()).unwrap();
            let mut rng = StdRng::seed_from_u64(77);
            let mut d = WorkloadDispatcher::new(policy, 4).unwrap();
            let traces = d.split(&mut gen, &mut rng, slices);
            let via_split = replayed(&traces, slices);

            let mut gen2 = crate::TraceReplay::new(pattern.clone()).unwrap();
            let mut rng2 = StdRng::seed_from_u64(77);
            let mut d2 = WorkloadDispatcher::new(policy, 4).unwrap();
            let mut assign = vec![0u32; 4];
            let mut manual = vec![vec![0u32; slices as usize]; 4];
            for t in 0..slices as usize {
                let count = gen2.next_arrivals(&mut rng2);
                d2.dispatch_slice(count, &mut assign);
                for (device, row) in manual.iter_mut().enumerate() {
                    row[t] = assign[device];
                }
            }
            assert_eq!(via_split, manual, "{}", policy.name());
        }
    }

    fn snaps(spec: &[(usize, bool, bool)]) -> Vec<DeviceSnapshot> {
        spec.iter()
            .map(|&(queue_len, awake, waking)| DeviceSnapshot {
                queue_len,
                awake,
                waking,
                down: false,
            })
            .collect()
    }

    #[test]
    fn route_slice_matches_dispatch_slice_for_state_blind_policies() {
        for policy in DispatchPolicy::state_blind() {
            let mut blind = WorkloadDispatcher::new(policy, 4).unwrap();
            let mut aware = blind.clone();
            let mut a = vec![0u32; 4];
            let mut b = vec![0u32; 4];
            let mut s = snaps(&[(3, true, false); 4]);
            for count in [5u32, 0, 2, 1, 7] {
                blind.dispatch_slice(count, &mut a);
                aware.route_slice(count, &mut s, &mut b);
                assert_eq!(a, b, "{}", policy.name());
            }
            assert_eq!(blind, aware, "{}: internal state must agree", policy.name());
        }
    }

    #[test]
    fn join_shortest_queue_follows_live_queues() {
        let mut d = WorkloadDispatcher::new(DispatchPolicy::JoinShortestQueue, 3).unwrap();
        let mut s = snaps(&[(4, true, false), (1, true, false), (2, true, false)]);
        let mut assign = vec![0u32; 3];
        // First arrival joins device 1 (queue 1); its queue becomes 2,
        // tying device 2 — the cursor (now 2) breaks the tie toward 2.
        d.route_slice(2, &mut s, &mut assign);
        assert_eq!(assign, vec![0, 1, 1]);
        assert_eq!(s[1].queue_len, 2);
        assert_eq!(s[2].queue_len, 3);
    }

    #[test]
    fn sleep_aware_consolidates_then_spills_and_wakes() {
        let mut d = WorkloadDispatcher::new(DispatchPolicy::SleepAware { spill: 3 }, 3).unwrap();
        let mut s = snaps(&[(0, true, false), (0, false, false), (0, false, false)]);
        let mut assign = vec![0u32; 3];
        // Five arrivals: three consolidate onto awake device 0, the fourth
        // spills to sleeping device 1 (marking it waking), the fifth joins
        // the now-waking device 1 (queue 1 < spill).
        d.route_slice(5, &mut s, &mut assign);
        assert_eq!(assign, vec![3, 2, 0]);
        assert!(s[1].waking);
        assert!(!s[2].waking, "only one sleeper woken");
    }

    #[test]
    fn sleep_aware_wakes_one_device_when_all_asleep() {
        let mut d = WorkloadDispatcher::new(DispatchPolicy::SleepAware { spill: 4 }, 4).unwrap();
        let mut s = snaps(&[(0, false, false); 4]);
        let mut assign = vec![0u32; 4];
        d.route_slice(3, &mut s, &mut assign);
        // All asleep: the cursor-first sleeper (device 0) wakes and the
        // whole slice consolidates onto it.
        assert_eq!(assign, vec![3, 0, 0, 0]);
        assert!(s[0].waking);
        assert_eq!(s.iter().filter(|x| x.waking).count(), 1);
    }

    #[test]
    fn sleep_aware_prefers_waking_devices_over_fresh_wakes() {
        let mut d = WorkloadDispatcher::new(DispatchPolicy::SleepAware { spill: 8 }, 3).unwrap();
        // Device 1 is already on its way up; nobody is serving yet.
        let mut s = snaps(&[(2, false, false), (0, false, true), (0, false, false)]);
        let mut assign = vec![0u32; 3];
        d.route_slice(2, &mut s, &mut assign);
        assert_eq!(assign, vec![0, 2, 0], "waking device absorbs the load");
    }

    #[test]
    #[should_panic(expected = "state-aware")]
    fn state_aware_split_panics() {
        let mut gen = BernoulliArrivals::new(0.2).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut d = WorkloadDispatcher::new(DispatchPolicy::JoinShortestQueue, 2).unwrap();
        let _ = d.split(&mut gen, &mut rng, 100);
    }

    #[test]
    fn policy_lists_cover_all_kinds() {
        assert_eq!(DispatchPolicy::all().len(), 5);
        assert!(DispatchPolicy::state_blind()
            .iter()
            .all(DispatchPolicy::is_state_blind));
        assert!(DispatchPolicy::state_aware()
            .iter()
            .all(|p| !p.is_state_blind()));
    }

    #[test]
    fn advance_quiet_equals_repeated_empty_slices() {
        let mut bulk = WorkloadDispatcher::new(DispatchPolicy::LeastLoaded, 3).unwrap();
        let mut step = bulk.clone();
        let mut assign = vec![0u32; 3];
        bulk.dispatch_slice(7, &mut assign);
        step.dispatch_slice(7, &mut assign);
        bulk.advance_quiet(5);
        for _ in 0..5 {
            step.dispatch_slice(0, &mut assign);
        }
        assert_eq!(bulk, step);
    }

    #[test]
    fn sparse_trace_validates() {
        assert!(SparseTrace::new(vec![(0, 1), (5, 2)], 10).is_ok());
        assert!(SparseTrace::new(vec![(5, 1), (5, 2)], 10).is_err()); // duplicate
        assert!(SparseTrace::new(vec![(5, 1), (3, 2)], 10).is_err()); // unsorted
        assert!(SparseTrace::new(vec![(5, 0)], 10).is_err()); // zero count
        assert!(SparseTrace::new(vec![(10, 1)], 10).is_err()); // beyond horizon
        assert!(SparseTrace::new(vec![], 10).is_ok()); // all-quiet is fine
    }

    #[test]
    fn sparse_trace_replays_and_is_quiet_past_horizon() {
        let mut t = SparseTrace::new(vec![(1, 2), (3, 1)], 5).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let seq: Vec<u32> = (0..8).map(|_| t.next_arrivals(&mut rng)).collect();
        assert_eq!(seq, vec![0, 2, 0, 1, 0, 0, 0, 0]);
        t.reset();
        assert_eq!(t.next_arrivals(&mut rng), 0);
        assert_eq!(t.next_arrivals(&mut rng), 2);
    }

    #[test]
    fn sparse_trace_gap_matches_per_slice_stepping_exactly() {
        let trace = SparseTrace::new(vec![(2, 1), (3, 2), (40, 1)], 64).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        // Walk via gaps with varying limits and mirror per-slice.
        let mut via_gap = trace.clone();
        let mut via_step = trace.clone();
        let mut gap_seq = Vec::new();
        let mut consumed = 0u64;
        for limit in [1u64, 2, 5, 64, 7, 64] {
            match via_gap.next_arrival_gap(&mut rng, limit) {
                ArrivalGap::Arrival { empty, count } => {
                    gap_seq.extend(std::iter::repeat_n(0, empty as usize));
                    gap_seq.push(count);
                    consumed += empty + 1;
                }
                ArrivalGap::Quiet { advanced } => {
                    gap_seq.extend(std::iter::repeat_n(0, advanced as usize));
                    consumed += advanced;
                }
            }
        }
        let step_seq: Vec<u32> = (0..consumed)
            .map(|_| via_step.next_arrivals(&mut rng))
            .collect();
        assert_eq!(gap_seq, step_seq);
    }

    #[test]
    fn sparse_trace_mean_rate_and_dense() {
        let t = SparseTrace::new(vec![(0, 1), (7, 3)], 8).unwrap();
        assert_eq!(t.total_arrivals(), 4);
        assert!((t.mean_rate().unwrap() - 0.5).abs() < 1e-12);
        assert_eq!(t.to_dense(), vec![1, 0, 0, 0, 0, 0, 0, 3]);
    }

    #[test]
    fn least_loaded_split_spreads_same_slice_bursts() {
        // Degeneracy regression: a burst inside one slice must spread
        // across the devices exactly as the per-device snapshot mutation
        // in `route_slice` spreads it — not collapse onto the first device
        // because the nominal backlogs missed the intra-slice updates.
        let slices = 32u64;
        let pattern = vec![6u32, 0, 0, 0, 4];
        let mut gen = crate::TraceReplay::new(pattern.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let mut d = WorkloadDispatcher::new(DispatchPolicy::LeastLoaded, 4).unwrap();
        let traces = d.split(&mut gen, &mut rng, slices);

        let mut gen2 = crate::TraceReplay::new(pattern).unwrap();
        let mut rng2 = StdRng::seed_from_u64(9);
        let mut aware = WorkloadDispatcher::new(DispatchPolicy::LeastLoaded, 4).unwrap();
        let mut assign = vec![0u32; 4];
        let mut snapshots = snaps(&[(0, true, false); 4]);
        let mut expected: Vec<Vec<(u64, u32)>> = vec![Vec::new(); 4];
        for now in 0..slices {
            let count = gen2.next_arrivals(&mut rng2);
            aware.route_slice(count, &mut snapshots, &mut assign);
            for (device, &c) in assign.iter().enumerate() {
                if c > 0 {
                    expected[device].push((now, c));
                }
            }
        }
        for (device, trace) in traces.iter().enumerate() {
            assert_eq!(
                trace.events(),
                expected[device].as_slice(),
                "device {device}"
            );
        }
        // The slice-0 burst of 6 over 4 empty devices really did spread.
        assert!(
            traces
                .iter()
                .all(|t| t.events().first().is_some_and(|e| e.0 == 0)),
            "burst must hit every device"
        );
    }

    #[test]
    fn split_of_spec_built_generator_runs() {
        let mut gen = WorkloadSpec::two_mode_mmpp(0.05, 0.6, 0.01)
            .unwrap()
            .build();
        let mut rng = StdRng::seed_from_u64(5);
        let mut d = WorkloadDispatcher::new(DispatchPolicy::LeastLoaded, 8).unwrap();
        let traces = d.split(gen.as_mut(), &mut rng, 2_000);
        assert_eq!(traces.len(), 8);
        let total: u64 = traces.iter().map(SparseTrace::total_arrivals).sum();
        assert!(total > 0);
    }
}

//! The three benchmark workloads: inputs generated from a seed, one
//! construction call, one measured run, correctness checks, and a traced
//! variant that times the calls into each layer from outside.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use qdpm_core::rng_util::{splitmix64, uniform};
use qdpm_core::{PowerManager, QDpmAgent, QDpmConfig, StateWriter};
use qdpm_device::{presets, DeviceMode};
use qdpm_serve::{
    render_report, run_serve, CheckpointStore, DevicePreset, ServeConfig, ServeOptions,
};
use qdpm_sim::hierarchy::RackReport;
use qdpm_sim::{
    EngineMode, FleetConfig, FleetMember, FleetPolicy, FleetReport, FleetSim, RunStats,
    ScenarioWorkload, SimConfig, Simulator,
};
use qdpm_workload::{
    DispatchPolicy, PiecewiseStationary, RequestGenerator, Segment, WorkloadDispatcher,
    WorkloadSpec,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::delegates::{Spans, TimedGenerator, TimedManager};
use crate::sys;

/// Queue capacity of every simulated device.
pub const QUEUE_CAP: usize = 8;

/// Workload names, in the order the traced run measures them.
pub const NAMES: [&str; 3] = ["paper_single", "cohort_fleet", "serve_rack"];

/// What one run of a workload simulated. Every field is a pure function of
/// the workload's inputs; the digest covers the exact `f64` bits of the
/// final statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Device-slices simulated (devices × slices).
    pub device_slices: u64,
    /// Simulated energy over all devices.
    pub energy: f64,
    /// Requests offered to the system.
    pub offered: u64,
    /// Requests completed.
    pub completed: u64,
    /// Summed wait of completed requests, in slices.
    pub total_wait: u64,
    /// Requests the system refused (queue-full drops; none of the
    /// workloads injects faults, so nothing is lost to a crash).
    pub refused: u64,
    /// FNV-1a digest of the final statistics.
    pub digest: u64,
}

impl Outcome {
    /// Mean simulated power per device-slice.
    #[must_use]
    pub fn energy_per_device_slice(&self) -> f64 {
        self.energy / self.device_slices as f64
    }

    /// Mean wait of completed requests, in slices.
    #[must_use]
    pub fn mean_wait_slices(&self) -> f64 {
        self.total_wait as f64 / self.completed as f64
    }

    /// Share of offered requests the system refused.
    #[must_use]
    pub fn drop_frac(&self) -> f64 {
        self.refused as f64 / self.offered as f64
    }
}

/// FNV-1a over little-endian words.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mixes one word in.
    pub fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mixes every field of `s` in, floats by their exact bits.
    pub fn stats(&mut self, s: &RunStats) {
        for v in [
            s.steps,
            s.total_energy.to_bits(),
            s.total_cost.to_bits(),
            s.arrivals,
            s.completed,
            s.dropped,
            s.queue_len_sum.to_bits(),
            s.total_wait,
        ] {
            self.word(v);
        }
    }

    /// Mixes a device mode in.
    pub fn mode(&mut self, mode: DeviceMode) {
        match mode {
            DeviceMode::Operational(s) => {
                self.word(0);
                self.word(s.index() as u64);
            }
            DeviceMode::Transitioning {
                from,
                to,
                remaining,
            } => {
                self.word(1);
                self.word(from.index() as u64);
                self.word(to.index() as u64);
                self.word(u64::from(remaining));
            }
        }
    }

    /// The digest value.
    #[must_use]
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Checks that every device conserved its requests: what arrived was
/// completed, dropped, or is still queued (`0..=QUEUE_CAP` left over,
/// since fleet reports do not expose final queue lengths).
fn check_device_conservation(per_device: &[RunStats]) -> Result<(), String> {
    for (i, s) in per_device.iter().enumerate() {
        let settled = s.completed + s.dropped;
        if settled > s.arrivals || s.arrivals - settled > QUEUE_CAP as u64 {
            return Err(format!(
                "device {i}: arrivals {} vs completed {} + dropped {} (queue cap {QUEUE_CAP})",
                s.arrivals, s.completed, s.dropped
            ));
        }
    }
    Ok(())
}

fn elapsed_s(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

fn ns_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

// ---------------------------------------------------------------------------
// paper_single

/// The paper's own experiment: one training Q-DPM agent on the
/// three-state device under piecewise-stationary Bernoulli arrivals.
#[derive(Debug, Clone)]
pub struct PaperSingle {
    seed: u64,
}

/// Per-layer totals of traced `paper_single` runs.
#[derive(Debug, Default, Clone, Copy)]
pub struct SingleLayers {
    /// Host ns inside `Simulator::step`, summed.
    pub step_ns: u64,
    /// `Simulator::step` calls.
    pub steps: u64,
    /// `PowerManager::decide` ns and calls.
    pub decide: (u64, u64),
    /// `PowerManager::observe` ns and calls.
    pub observe: (u64, u64),
    /// `RequestGenerator::next_arrivals` ns and calls.
    pub next_arrivals: (u64, u64),
}

impl SingleLayers {
    /// Step time not covered by the three delegate spans: device tick,
    /// service, queue, and the `RunStats` fold.
    #[must_use]
    pub fn engine_self_ns(&self) -> u64 {
        self.step_ns - self.decide.0 - self.observe.0 - self.next_arrivals.0
    }

    /// Adds another run's totals.
    pub fn add(&mut self, o: &SingleLayers) {
        self.step_ns += o.step_ns;
        self.steps += o.steps;
        for (a, b) in [
            (&mut self.decide, o.decide),
            (&mut self.observe, o.observe),
            (&mut self.next_arrivals, o.next_arrivals),
        ] {
            a.0 += b.0;
            a.1 += b.1;
        }
    }
}

impl PaperSingle {
    /// Slices per run.
    pub const HORIZON: u64 = 8_000_000;
    /// Slices per stationary segment.
    pub const SEGMENT: u64 = 100_000;
    /// Segment arrival rates, alternating.
    pub const RATES: [f64; 2] = [0.05, 0.30];

    /// The workload for `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        PaperSingle { seed }
    }

    fn generator() -> Box<dyn RequestGenerator> {
        let segments = (0..Self::HORIZON.div_ceil(Self::SEGMENT))
            .map(|i| {
                let spec = WorkloadSpec::bernoulli(Self::RATES[(i % 2) as usize])
                    .expect("segment rates are probabilities");
                Segment::new(Self::SEGMENT, spec)
            })
            .collect();
        Box::new(PiecewiseStationary::new(segments).expect("segments are non-empty"))
    }

    /// The construction call: agent, generator and `Simulator::new`, with
    /// the timing delegates in place when `spans` is given.
    #[must_use]
    pub fn build(&self, spans: Option<&Arc<Spans>>) -> Simulator {
        let power = presets::three_state_generic();
        let agent = QDpmAgent::new(&power, QDpmConfig::default()).expect("default config");
        let (generator, pm): (Box<dyn RequestGenerator>, Box<dyn PowerManager>) = match spans {
            None => (Self::generator(), Box::new(agent)),
            Some(spans) => (
                Box::new(TimedGenerator::new(Self::generator(), Arc::clone(spans))),
                Box::new(TimedManager::new(Box::new(agent), Arc::clone(spans))),
            ),
        };
        let config = SimConfig {
            queue_cap: QUEUE_CAP,
            seed: self.seed,
            mode: EngineMode::PerSlice,
            ..SimConfig::default()
        };
        Simulator::new(power, presets::default_service(), generator, pm, config)
            .expect("queue cap is positive")
    }

    /// The checked outcome of a finished run.
    ///
    /// # Errors
    ///
    /// A failed check, described.
    fn outcome(sim: &Simulator) -> Result<Outcome, String> {
        let s = sim.stats();
        if s.steps != Self::HORIZON {
            return Err(format!("{} steps, expected {}", s.steps, Self::HORIZON));
        }
        let obs = sim.observation();
        let queued = obs.queue_len as u64;
        if s.arrivals != s.completed + s.dropped + queued {
            return Err(format!(
                "arrivals {} != completed {} + dropped {} + queued {queued}",
                s.arrivals, s.completed, s.dropped
            ));
        }
        let mut d = Digest::default();
        d.stats(s);
        d.mode(obs.device_mode);
        d.word(queued);
        Ok(Outcome {
            device_slices: s.steps,
            energy: s.total_energy,
            offered: s.arrivals,
            completed: s.completed,
            total_wait: s.total_wait,
            refused: s.dropped,
            digest: d.value(),
        })
    }

    /// Builds and runs untraced; returns the outcome and the run's host
    /// seconds.
    ///
    /// # Errors
    ///
    /// A failed check.
    pub fn run(&self) -> Result<(Outcome, f64), String> {
        let mut sim = self.build(None);
        let start = Instant::now();
        sim.run(Self::HORIZON);
        let secs = elapsed_s(start);
        Ok((Self::outcome(&sim)?, secs))
    }

    /// Builds with the timing delegates and steps slice by slice, timing
    /// each `Simulator::step`; returns the outcome, host seconds, and the
    /// layer totals.
    ///
    /// # Errors
    ///
    /// A failed check.
    pub fn run_traced(&self) -> Result<(Outcome, f64, SingleLayers), String> {
        let spans = Arc::new(Spans::default());
        let mut sim = self.build(Some(&spans));
        let mut step_ns = 0u64;
        let start = Instant::now();
        for _ in 0..Self::HORIZON {
            let t = Instant::now();
            sim.step();
            step_ns += ns_since(t);
        }
        let secs = elapsed_s(start);
        let layers = SingleLayers {
            step_ns,
            steps: Self::HORIZON,
            decide: (spans.decide.ns(), spans.decide.calls()),
            observe: (spans.observe.ns(), spans.observe.calls()),
            next_arrivals: (spans.next_arrivals.ns(), spans.next_arrivals.calls()),
        };
        Ok((Self::outcome(&sim)?, secs, layers))
    }

    /// Q-table footprint of the agent this workload runs.
    #[must_use]
    pub fn table_bytes() -> usize {
        QDpmAgent::new(&presets::three_state_generic(), QDpmConfig::default())
            .expect("default config")
            .table_bytes()
    }
}

// ---------------------------------------------------------------------------
// cohort_fleet

/// A preplanned fleet of training Q-DPM devices, two presets, run on the
/// batched cohort path.
#[derive(Debug, Clone)]
pub struct CohortFleet {
    members: Vec<FleetMember>,
    aggregate: ScenarioWorkload,
    config: FleetConfig,
    workers: usize,
}

/// Layer measurements of one traced `cohort_fleet` run.
#[derive(Debug, Clone, Copy)]
pub struct FleetLayers {
    /// `FleetSim::new` seconds.
    pub build_s: f64,
    /// `WorkloadDispatcher::split` seconds on the same stream and seed.
    pub split_s: f64,
    /// `FleetSim::run` seconds.
    pub run_s: f64,
    /// `FleetSim::batched_cohorts()`.
    pub batched_cohorts: usize,
    /// Process CPU seconds during the run over (wall seconds × workers).
    pub cpu_util: f64,
}

impl CohortFleet {
    /// Devices in the fleet.
    pub const DEVICES: usize = 1_000;
    /// Slices every device simulates.
    pub const HORIZON: u64 = 10_000;
    /// Slices per stationary segment.
    pub const SEGMENT: u64 = 1_000;
    /// Per-device arrival rates of the segments, alternating (the
    /// paper's time-varying setting, at fleet scale).
    pub const RATES: [f64; 2] = [0.05, 0.30];
    /// Worker threads wanted (capped at the machine's parallelism).
    pub const WORKERS: usize = 2;

    /// The workload for `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let members = (0..Self::DEVICES)
            .map(|i| {
                let (label, power) = if i % 2 == 0 {
                    ("three-state", presets::three_state_generic())
                } else {
                    ("wlan", presets::wlan_card())
                };
                FleetMember {
                    label: format!("{label}-{i}"),
                    power,
                    service: presets::default_service(),
                    policy: FleetPolicy::QDpm(QDpmConfig::default()),
                }
            })
            .collect();
        // Every slice, each device's share of the stream is a Bernoulli
        // draw at the segment's rate; the aggregate is their sum.
        let mut rng = StdRng::seed_from_u64(splitmix64(seed, 2));
        let arrivals = (0..Self::HORIZON)
            .map(|t| {
                let rate = Self::RATES[((t / Self::SEGMENT) % 2) as usize];
                let count = (0..Self::DEVICES)
                    .filter(|_| uniform(&mut rng) < rate)
                    .count();
                u32::try_from(count).expect("at most one arrival per device")
            })
            .collect();
        let aggregate = ScenarioWorkload::Stationary(WorkloadSpec::Trace { arrivals });
        let config = FleetConfig {
            queue_cap: QUEUE_CAP,
            seed,
            engine_mode: EngineMode::PerSlice,
            dispatch: DispatchPolicy::RoundRobin,
            horizon: Self::HORIZON,
            batch_cohorts: true,
            ..FleetConfig::default()
        };
        CohortFleet {
            members,
            aggregate,
            config,
            workers: sys::workers(Self::WORKERS),
        }
    }

    /// Worker threads the run uses.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The construction call: stream draw, grouped split, cohort build.
    #[must_use]
    pub fn build(&self) -> FleetSim {
        FleetSim::new(&self.members, &self.aggregate, &self.config).expect("valid fleet")
    }

    /// The preplanned split of the aggregate stream, drawn exactly as
    /// `FleetSim::new` draws it: per-device arrival totals.
    #[must_use]
    pub fn split_totals(&self) -> Vec<u64> {
        let mut generator = self.aggregate.build().expect("stationary workload");
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut dispatcher = WorkloadDispatcher::new(self.config.dispatch, Self::DEVICES)
            .expect("fleet is non-empty");
        dispatcher
            .split(generator.as_mut(), &mut rng, self.config.horizon)
            .iter()
            .map(qdpm_workload::SparseTrace::total_arrivals)
            .collect()
    }

    fn outcome(&self, fleet_arrivals: u64, report: &FleetReport) -> Result<Outcome, String> {
        let devices = Self::DEVICES as u64;
        let total = &report.stats.total;
        if total.steps != devices * Self::HORIZON {
            return Err(format!(
                "fleet steps {} != devices {devices} x horizon {}",
                total.steps,
                Self::HORIZON
            ));
        }
        if let Some(i) = report
            .per_device
            .iter()
            .position(|s| s.steps != Self::HORIZON)
        {
            return Err(format!(
                "device {i} ran {} steps",
                report.per_device[i].steps
            ));
        }
        check_device_conservation(&report.per_device)?;
        if total.arrivals != fleet_arrivals {
            return Err(format!(
                "devices saw {} arrivals, the dispatcher assigned {fleet_arrivals}",
                total.arrivals
            ));
        }
        let mut d = Digest::default();
        for (s, &mode) in report.per_device.iter().zip(&report.final_modes) {
            d.stats(s);
            d.mode(mode);
        }
        d.stats(total);
        Ok(Outcome {
            device_slices: total.steps,
            energy: total.total_energy,
            offered: fleet_arrivals,
            completed: total.completed,
            total_wait: total.total_wait,
            refused: total.dropped,
            digest: d.value(),
        })
    }

    /// Builds and runs; returns the outcome and the run's host seconds.
    ///
    /// # Errors
    ///
    /// A failed check.
    pub fn run(&self) -> Result<(Outcome, f64), String> {
        let fleet = self.build();
        let assigned = fleet.dispatched_arrivals();
        let start = Instant::now();
        let report = fleet.run(self.workers);
        let secs = elapsed_s(start);
        Ok((self.outcome(assigned, &report)?, secs))
    }

    /// The traced run: the split timed on its own, then the timed
    /// construction and run. Also checks every device's arrivals against
    /// the benchmark's own split of the stream.
    ///
    /// # Errors
    ///
    /// A failed check.
    pub fn run_traced(&self) -> Result<(Outcome, f64, FleetLayers), String> {
        let start = Instant::now();
        let split = self.split_totals();
        let split_s = elapsed_s(start);

        let start = Instant::now();
        let fleet = self.build();
        let build_s = elapsed_s(start);
        let batched_cohorts = fleet.batched_cohorts();
        let assigned = fleet.dispatched_arrivals();

        let cpu0 = sys::process_cpu_seconds();
        let start = Instant::now();
        let report = fleet.run(self.workers);
        let run_s = elapsed_s(start);
        let cpu_util = (sys::process_cpu_seconds() - cpu0) / (run_s * self.workers as f64);

        if let Some(i) = (0..Self::DEVICES).find(|&i| report.per_device[i].arrivals != split[i]) {
            return Err(format!(
                "device {i} saw {} arrivals, the split assigned it {}",
                report.per_device[i].arrivals, split[i]
            ));
        }
        let outcome = self.outcome(assigned, &report)?;
        Ok((
            outcome,
            run_s,
            FleetLayers {
                build_s,
                split_s,
                run_s,
                batched_cohorts,
                cpu_util,
            },
        ))
    }
}

// ---------------------------------------------------------------------------
// serve_rack

/// The serving daemon over an in-memory trace: a capped, sleep-aware rack
/// under event skipping, checkpointing at a fixed cadence.
#[derive(Debug, Clone)]
pub struct ServeRack {
    config: ServeConfig,
    counts: Vec<u32>,
}

/// Layer measurements of traced `serve_rack` runs.
#[derive(Debug, Default, Clone)]
pub struct RackLayers {
    /// Microseconds of each `RackCoordinator::arrival_slice`.
    pub arrival_slice_us: Vec<f64>,
    /// Host ns in `RackCoordinator::advance_gap`, summed.
    pub advance_gap_ns: u64,
    /// Device-slices the gaps covered (gap slices × devices).
    pub gap_device_slices: u64,
    /// Milliseconds of each `RackCoordinator::save_state`.
    pub encode_ms: Vec<f64>,
    /// Milliseconds of each `CheckpointStore::save`.
    pub write_ms: Vec<f64>,
    /// Payload length of each checkpoint.
    pub bytes: Vec<f64>,
    /// `RackReport::vetoed_wakeups` (equal on every run of one seed).
    pub vetoed_wakeups: u64,
    /// `RackReport::shed_arrivals`: arrivals the cap moved off a sleeper
    /// it could not wake onto an awake member (equal on every run of one
    /// seed).
    pub shed_arrivals: u64,
}

impl RackLayers {
    /// Adds another run's samples.
    pub fn add(&mut self, o: &RackLayers) {
        self.arrival_slice_us.extend(&o.arrival_slice_us);
        self.advance_gap_ns += o.advance_gap_ns;
        self.gap_device_slices += o.gap_device_slices;
        self.encode_ms.extend(&o.encode_ms);
        self.write_ms.extend(&o.write_ms);
        self.bytes.extend(&o.bytes);
        self.vetoed_wakeups = o.vetoed_wakeups;
        self.shed_arrivals = o.shed_arrivals;
    }
}

/// A fresh, empty checkpoint directory under the scratch root, removed on
/// drop.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

static SCRATCH_SEQ: AtomicU64 = AtomicU64::new(0);

impl ScratchDir {
    /// Creates a unique directory.
    ///
    /// # Errors
    ///
    /// The directory cannot be created.
    pub fn new() -> Result<Self, String> {
        let seq = SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = sys::scratch_root().join(format!("ckpt-{}-{seq}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(ScratchDir(dir))
    }

    /// The directory.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

impl ServeRack {
    /// Trace length in slices.
    pub const SLICES: usize = 400_000;
    /// Devices in the rack.
    pub const DEVICES: usize = 200;
    /// Rack power cap (W).
    pub const CAP: f64 = 12.0;
    /// Checkpoint cadence in slices.
    pub const EVERY: u64 = 1_000;
    /// Worker threads for gap advancement (the daemon's default).
    pub const THREADS: usize = 1;

    /// The workload for `seed`: the trace is a two-mode MMPP stream drawn
    /// from a seed derived from `seed`. The cap binds: it admits about two
    /// awake devices above the all-asleep floor of 10 W.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self::with_slices(seed, Self::SLICES)
    }

    /// [`ServeRack::new`] with a shorter or longer trace.
    #[must_use]
    pub fn with_slices(seed: u64, slices: usize) -> Self {
        let mut generator = WorkloadSpec::two_mode_mmpp(0.01, 0.5, 0.02)
            .expect("valid MMPP")
            .build();
        let mut rng = StdRng::seed_from_u64(splitmix64(seed, 1));
        let counts = (0..slices)
            .map(|_| generator.next_arrivals(&mut rng))
            .collect();
        let config = ServeConfig {
            devices: Self::DEVICES,
            policies: vec![
                FleetPolicy::QDpm(QDpmConfig::default()),
                FleetPolicy::BreakEvenTimeout,
            ],
            preset: DevicePreset::ThreeState,
            power_cap: Some(Self::CAP),
            seed,
            engine_mode: EngineMode::EventSkip,
            dispatch: DispatchPolicy::SleepAware { spill: 4 },
            queue_cap: QUEUE_CAP,
            faults: None,
        };
        ServeRack { config, counts }
    }

    /// Trace slices.
    #[must_use]
    pub fn slices(&self) -> u64 {
        self.counts.len() as u64
    }

    /// The construction call, `ServeConfig::build_rack`, timed and dropped.
    #[must_use]
    pub fn time_build(&self) -> f64 {
        let start = Instant::now();
        let rack = self
            .config
            .build_rack(self.slices())
            .expect("valid rack config");
        let secs = elapsed_s(start);
        drop(rack);
        secs
    }

    fn expected_checkpoints(&self) -> u64 {
        let slices = self.slices();
        slices.div_ceil(Self::EVERY)
    }

    fn outcome(&self, report: &RackReport, text: &str, written: u64) -> Result<Outcome, String> {
        let expected = self.expected_checkpoints();
        if written != expected {
            return Err(format!(
                "{written} checkpoints written, cadence implies {expected}"
            ));
        }
        let fleet = &report.fleet;
        let total = &fleet.stats.total;
        let devices = Self::DEVICES as u64;
        if total.steps != devices * self.slices() {
            return Err(format!(
                "rack steps {} != devices {devices} x slices {}",
                total.steps,
                self.slices()
            ));
        }
        check_device_conservation(&fleet.per_device)?;
        let offered: u64 = self.counts.iter().map(|&c| u64::from(c)).sum();
        if total.arrivals != offered {
            return Err(format!(
                "devices saw {} arrivals, the trace offered {offered}",
                total.arrivals
            ));
        }
        Ok(Outcome {
            device_slices: total.steps,
            energy: total.total_energy,
            offered,
            completed: total.completed,
            total_wait: total.total_wait,
            refused: total.dropped,
            digest: qdpm_serve::fnv1a64(text.as_bytes()),
        })
    }

    /// Serves the trace with `run_serve`; returns the outcome, the host
    /// seconds of the call, and the rendered report.
    ///
    /// # Errors
    ///
    /// A serve error or a failed check.
    pub fn run(&self) -> Result<(Outcome, f64, String), String> {
        let dir = ScratchDir::new()?;
        let opts = ServeOptions {
            checkpoint_dir: Some(dir.path().to_path_buf()),
            checkpoint_every: Self::EVERY,
            threads: Self::THREADS,
            ..ServeOptions::in_memory(self.config.clone(), self.counts.clone())
        };
        let start = Instant::now();
        let summary = run_serve(&opts).map_err(|e| format!("run_serve: {e}"))?;
        let secs = elapsed_s(start);
        let outcome = self.outcome(
            &summary.report,
            &summary.report_text,
            summary.checkpoints_written,
        )?;
        Ok((outcome, secs, summary.report_text))
    }

    /// Drives the rack through the same public calls `run_serve` makes, in
    /// the same order and at the same cadence, timing each one. Returns
    /// the outcome, host seconds, the rendered report, and the layer
    /// samples.
    ///
    /// # Errors
    ///
    /// A serve error or a failed check.
    pub fn run_traced(&self) -> Result<(Outcome, f64, String, RackLayers), String> {
        let dir = ScratchDir::new()?;
        let err = |e: qdpm_serve::ServeError| e.to_string();
        let threads = Self::THREADS;
        let devices = Self::DEVICES as u64;
        let mut layers = RackLayers::default();

        let start = Instant::now();
        let horizon = self.slices();
        let hash = self.config.config_hash();
        let mut rack = self.config.build_rack(horizon).map_err(err)?;
        let mut store = CheckpointStore::open(dir.path(), hash).map_err(err)?;
        let mut written = 0u64;
        let mut last_saved = None;

        let advance = |rack: &mut qdpm_sim::RackCoordinator, gap: u64, l: &mut RackLayers| {
            let t = Instant::now();
            rack.advance_gap(gap, threads);
            l.advance_gap_ns += ns_since(t);
            l.gap_device_slices += gap * devices;
        };
        let save = |rack: &qdpm_sim::RackCoordinator,
                    store: &mut CheckpointStore,
                    done: u64,
                    l: &mut RackLayers|
         -> Result<(), String> {
            let t = Instant::now();
            let mut w = StateWriter::new();
            rack.save_state(&mut w);
            let bytes = w.into_bytes();
            l.encode_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            store.save(done, &bytes).map_err(err)?;
            l.write_ms.push(t.elapsed().as_secs_f64() * 1e3);
            l.bytes.push(bytes.len() as f64);
            Ok(())
        };

        let mut gap = 0u64;
        for slice in 0..horizon {
            let count = self.counts[slice as usize];
            if count > 0 {
                advance(&mut rack, gap, &mut layers);
                gap = 0;
                let t = Instant::now();
                rack.arrival_slice(count);
                layers
                    .arrival_slice_us
                    .push(t.elapsed().as_secs_f64() * 1e6);
            } else {
                gap += 1;
            }
            let done = slice + 1;
            if done % Self::EVERY == 0 {
                advance(&mut rack, gap, &mut layers);
                gap = 0;
                save(&rack, &mut store, done, &mut layers)?;
                written += 1;
                last_saved = Some(done);
            }
        }
        advance(&mut rack, gap, &mut layers);
        if last_saved != Some(horizon) {
            save(&rack, &mut store, horizon, &mut layers)?;
            written += 1;
        }
        let report = rack.report();
        let text = render_report(&report, hash, horizon);
        let secs = elapsed_s(start);

        layers.vetoed_wakeups = report.vetoed_wakeups;
        layers.shed_arrivals = report.shed_arrivals;
        let outcome = self.outcome(&report, &text, written)?;
        Ok((outcome, secs, text, layers))
    }
}

//! The command: argument parsing, the untraced repeated-trial run, the
//! traced layer ladder, and the two result lines (a detail object, then the
//! summary object as the last line of standard output).

use std::process::ExitCode;
use std::time::{Duration, Instant};

use crate::delegates::Span;
use crate::report::{median, percentile, Json};
use crate::sys;
use crate::workloads::{
    CohortFleet, FleetLayers, Outcome, PaperSingle, RackLayers, ServeRack, SingleLayers, NAMES,
};

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 42;

/// Construction samples are taken in a burst before every measured run,
/// so they span the same stretch of time as the runs; a burst lasts at
/// least this long.
const SETUP_BURST: Duration = Duration::from_millis(10);

/// `paper_single` is built this many times per construction sample (all
/// kept alive, then dropped untimed): one build takes a few microseconds,
/// and a batch spreads it over many heap addresses.
const PAPER_SETUP_BATCH: usize = 100;

/// Measured runs per invocation, at the least.
const MIN_TRIALS: u64 = 3;

const USAGE: &str = "usage: qdpm-perfbench --workload <paper_single|cohort_fleet|serve_rack> \
     [--seed N] [--seconds N] [--trace 0|1]";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Measured window in seconds.
    pub seconds: u64,
    /// Run the traced layer ladder instead of the untraced trials.
    pub trace: bool,
}

impl Args {
    /// Parses `--flag value` pairs.
    ///
    /// # Errors
    ///
    /// Unknown flags, missing or malformed values, or an unknown workload.
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut parsed = Args {
            workload: String::new(),
            seed: DEFAULT_SEED,
            seconds: 10,
            trace: false,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|e| format!("{flag} {value:?}: {e}"))
            };
            match flag.as_str() {
                "--workload" => parsed.workload.clone_from(value),
                "--seed" => parsed.seed = number()?,
                "--seconds" => parsed.seconds = number()?.max(1),
                "--trace" => {
                    parsed.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace {other:?}: expected 0 or 1")),
                    }
                }
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        if !NAMES.contains(&parsed.workload.as_str()) {
            return Err(format!("unknown workload {:?}", parsed.workload));
        }
        Ok(parsed)
    }
}

/// One workload, its inputs generated from the seed.
#[derive(Debug, Clone)]
pub enum Workload {
    /// `paper_single`.
    Paper(PaperSingle),
    /// `cohort_fleet`.
    Fleet(CohortFleet),
    /// `serve_rack`.
    Serve(ServeRack),
}

impl Workload {
    /// The named workload for `seed`; `None` for an unknown name.
    #[must_use]
    pub fn new(name: &str, seed: u64) -> Option<Workload> {
        match name {
            "paper_single" => Some(Workload::Paper(PaperSingle::new(seed))),
            "cohort_fleet" => Some(Workload::Fleet(CohortFleet::new(seed))),
            "serve_rack" => Some(Workload::Serve(ServeRack::new(seed))),
            _ => None,
        }
    }

    /// The workload's name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Paper(_) => "paper_single",
            Workload::Fleet(_) => "cohort_fleet",
            Workload::Serve(_) => "serve_rack",
        }
    }

    /// Worker threads the workload runs on.
    #[must_use]
    pub fn workers(&self) -> usize {
        match self {
            Workload::Paper(_) => 1,
            Workload::Fleet(f) => f.workers(),
            Workload::Serve(_) => ServeRack::THREADS,
        }
    }

    /// Host seconds of one construction call (results are dropped
    /// untimed).
    #[must_use]
    pub fn time_setup(&self) -> f64 {
        match self {
            Workload::Paper(p) => {
                let start = Instant::now();
                let sims: Vec<_> = (0..PAPER_SETUP_BATCH).map(|_| p.build(None)).collect();
                let secs = start.elapsed().as_secs_f64() / PAPER_SETUP_BATCH as f64;
                drop(sims);
                secs
            }
            Workload::Fleet(f) => {
                let start = Instant::now();
                let fleet = f.build();
                let secs = start.elapsed().as_secs_f64();
                drop(fleet);
                secs
            }
            Workload::Serve(r) => r.time_build(),
        }
    }

    /// One untraced run: the outcome and the measured host seconds.
    ///
    /// # Errors
    ///
    /// A failed check.
    pub fn run(&self) -> Result<(Outcome, f64), String> {
        match self {
            Workload::Paper(p) => p.run(),
            Workload::Fleet(f) => f.run(),
            Workload::Serve(r) => r.run().map(|(o, s, _)| (o, s)),
        }
    }
}

/// Operations attempted and checks failed.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    /// Counts one operation; keeps its value or records its failure.
    fn op<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                let line = format!("{what}: {e}");
                eprintln!("check failed: {line}");
                self.failures.push(line);
                None
            }
        }
    }

    /// Counts one check.
    fn check(&mut self, what: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.op(what, if ok { Ok(()) } else { Err(detail()) });
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Samples the value was derived from.
    samples: u64,
    /// Workload the metric was measured on.
    workload: &'static str,
}

fn fingerprint(workers: Json) -> Json {
    Json::obj([
        ("cpu_model", Json::Str(sys::cpu_model())),
        ("nproc", Json::Int(sys::nproc() as u64)),
        ("workers", workers),
        ("rustc", Json::str(sys::RUSTC)),
        ("profile", Json::str(sys::PROFILE)),
    ])
}

fn all_equal(outcomes: &[Outcome]) -> bool {
    outcomes.windows(2).all(|w| w[0] == w[1])
}

/// The untraced run: construction samples, then measured runs for the
/// window, then the end-to-end metrics.
fn untraced(args: &Args, tally: &mut Tally) -> (Vec<Metric>, Json) {
    let w = Workload::new(&args.workload, args.seed).expect("parsed workload name");

    let window = Duration::from_secs(args.seconds);
    let mut setup = Vec::new();
    let mut rates = Vec::new();
    let mut run_s = Vec::new();
    let mut outcomes = Vec::new();
    let start = Instant::now();
    while tally.attempted < MIN_TRIALS || start.elapsed() < window {
        let burst = Instant::now();
        setup.push(w.time_setup());
        while burst.elapsed() < SETUP_BURST {
            setup.push(w.time_setup());
        }
        if let Some((o, secs)) = tally.op("run", w.run()) {
            rates.push(o.device_slices as f64 / secs);
            run_s.push(secs);
            outcomes.push(o);
        }
    }
    tally.check("repeat", all_equal(&outcomes), || {
        "repeated runs of one seed simulated different results".to_string()
    });

    let peak_rss = tally.op("peak_rss", sys::peak_rss_mib());
    // Throughput is the fastest run's. On a shared host, neighbours slow
    // runs down for seconds at a time, and the median jumps with the share
    // of the window they take. No run can beat the code's own speed, so the
    // fastest run is steady across invocations. The median stays in the
    // detail line.
    let fastest = rates.iter().copied().reduce(f64::max);
    let mut metrics = Vec::new();
    if let (Some(o), Some(rate), Some(setup_s), Some(peak_rss)) =
        (outcomes.first(), fastest, median(&setup), peak_rss)
    {
        let n = rates.len() as u64;
        let m = |name, value, unit, samples| Metric {
            name,
            value,
            unit,
            samples,
            workload: w.name(),
        };
        metrics = vec![
            m("device_slices_per_s", rate, "device-slices/s", n),
            m("setup_s", setup_s, "s", setup.len() as u64),
            m("peak_rss_mb", peak_rss, "MiB", 1),
            m(
                "energy_per_device_slice",
                o.energy_per_device_slice(),
                "energy/dev-slice",
                o.device_slices,
            ),
            m(
                "mean_wait_slices",
                o.mean_wait_slices(),
                "slices",
                o.completed,
            ),
            m("drop_frac", o.drop_frac(), "ratio", o.offered),
        ];
    }
    let detail = Json::obj([
        ("fingerprint", fingerprint(Json::Int(w.workers() as u64))),
        (
            "raw",
            Json::obj([
                (
                    "device_slices_per_s_median",
                    median(&rates).map_or(Json::Num(f64::NAN), Json::Num),
                ),
                ("device_slices_per_s", Json::nums(&rates)),
                ("run_s", Json::nums(&run_s)),
                ("setup_s", Json::nums(&setup)),
            ]),
        ),
        (
            "digest",
            Json::Str(
                outcomes
                    .first()
                    .map_or(String::new(), |o| format!("{:016x}", o.digest)),
            ),
        ),
    ]);
    (metrics, detail)
}

/// Layer results gathered by the traced ladder.
#[derive(Debug, Default)]
struct Ladder {
    single: SingleLayers,
    table_bytes: usize,
    /// Cost of one empty span, in ns.
    span_ns: f64,
    fleet: Vec<FleetLayers>,
    rack: RackLayers,
    rack_runs: u64,
}

/// The traced ladder: every workload, each given a third of the window,
/// alternating untraced and traced runs of the same seed. Every traced
/// invocation reports the whole layer table, each layer measured on the
/// workload that exercises it.
fn traced(args: &Args, tally: &mut Tally) -> (Vec<Metric>, Json) {
    let share = Duration::from_secs(args.seconds).div_f64(NAMES.len() as f64);
    let mut ladder = Ladder {
        table_bytes: PaperSingle::table_bytes(),
        span_ns: empty_span_ns(),
        ..Ladder::default()
    };
    let mut overhead = Vec::new();
    let mut workers = Vec::new();
    for name in NAMES {
        let w = Workload::new(name, args.seed).expect("known workload");
        workers.push((name, Json::Int(w.workers() as u64)));
        let mut plain_rates = Vec::new();
        let mut traced_rates = Vec::new();
        let mut outcomes = Vec::new();
        let mut plain_text = None;
        let start = Instant::now();
        while traced_rates.is_empty() || plain_rates.is_empty() || start.elapsed() < share {
            let plain = match &w {
                Workload::Serve(r) => tally.op(name, r.run()).map(|(o, s, text)| {
                    plain_text = Some(text);
                    (o, s)
                }),
                _ => tally.op(name, w.run()),
            };
            let traced = match &w {
                Workload::Paper(p) => tally.op(name, p.run_traced()).map(|(o, s, l)| {
                    ladder.single.add(&l);
                    (o, s)
                }),
                Workload::Fleet(f) => tally.op(name, f.run_traced()).map(|(o, s, l)| {
                    ladder.fleet.push(l);
                    (o, s)
                }),
                Workload::Serve(r) => tally.op(name, r.run_traced()).map(|(o, s, text, l)| {
                    let same = plain_text.as_deref() == Some(text.as_str());
                    tally.check("serve_rack traced report", same, || {
                        "the traced driver's report differs from run_serve's".to_string()
                    });
                    ladder.rack.add(&l);
                    ladder.rack_runs += 1;
                    (o, s)
                }),
            };
            for (rates, run) in [(&mut plain_rates, plain), (&mut traced_rates, traced)] {
                if let Some((o, secs)) = run {
                    rates.push(o.device_slices as f64 / secs);
                    outcomes.push(o);
                }
            }
            if tally.failed > 0 {
                break;
            }
        }
        tally.check(name, all_equal(&outcomes), || {
            "traced and untraced runs of one seed simulated different results".to_string()
        });
        if let (Some(plain), Some(traced)) = (median(&plain_rates), median(&traced_rates)) {
            overhead.push((
                name,
                Json::obj([
                    ("untraced_device_slices_per_s", Json::Num(plain)),
                    ("traced_device_slices_per_s", Json::Num(traced)),
                    ("slowdown", Json::Num(plain / traced)),
                    ("untraced_raw", Json::nums(&plain_rates)),
                    ("traced_raw", Json::nums(&traced_rates)),
                ]),
            ));
        }
    }
    let metrics = layer_metrics(&ladder, tally);
    let s = &ladder.single;
    let detail = Json::obj([
        ("fingerprint", fingerprint(Json::obj(workers))),
        ("tracing_overhead", Json::obj(overhead)),
        (
            "paper_single_step_sum_ns",
            Json::obj([
                ("step", Json::Int(s.step_ns)),
                (
                    "decide+observe+next_arrivals+engine_self",
                    Json::Int(s.decide.0 + s.observe.0 + s.next_arrivals.0 + s.engine_self_ns()),
                ),
            ]),
        ),
    ]);
    (metrics, detail)
}

/// Host ns one span adds around an empty body: two clock reads and the
/// two counter updates. Every span in the traced run carries this cost.
fn empty_span_ns() -> f64 {
    const CALLS: u32 = 1_000_000;
    let span = Span::default();
    let start = Instant::now();
    for _ in 0..CALLS {
        span.add_since(std::hint::black_box(Instant::now()));
    }
    start.elapsed().as_secs_f64() * 1e9 / f64::from(CALLS)
}

fn layer_metrics(l: &Ladder, tally: &mut Tally) -> Vec<Metric> {
    let mut out = Vec::new();
    let mut push = |name, value: Option<f64>, unit, samples: usize, workload, tally: &mut Tally| {
        let value = tally.op(
            name,
            value.ok_or_else(|| format!("{samples} samples are too few to report it")),
        );
        if let Some(value) = value {
            out.push(Metric {
                name,
                value,
                unit,
                samples: samples as u64,
                workload,
            });
        }
    };
    let s = &l.single;
    let steps = s.steps as usize;
    let per = |ns: u64, calls: u64| (calls > 0).then(|| ns as f64 / calls as f64);
    tally.check(
        "paper_single spans",
        s.decide.1 == s.steps && s.observe.1 == s.steps && s.next_arrivals.1 == s.steps,
        || "a delegate span was not entered once per slice".to_string(),
    );
    let ps = "paper_single";
    push(
        "core.decide_ns",
        per(s.decide.0, s.decide.1),
        "ns",
        steps,
        ps,
        tally,
    );
    push(
        "core.observe_ns",
        per(s.observe.0, s.observe.1),
        "ns",
        steps,
        ps,
        tally,
    );
    push(
        "workload.next_arrivals_ns",
        per(s.next_arrivals.0, s.next_arrivals.1),
        "ns",
        steps,
        ps,
        tally,
    );
    push(
        "engine.self_ns",
        per(s.engine_self_ns(), s.steps),
        "ns",
        steps,
        ps,
        tally,
    );
    push(
        "engine.step_ns",
        per(s.step_ns, s.steps),
        "ns",
        steps,
        ps,
        tally,
    );
    push(
        "core.table_bytes",
        Some(l.table_bytes as f64),
        "bytes",
        1,
        ps,
        tally,
    );
    push("trace.span_ns", Some(l.span_ns), "ns", 1_000_000, ps, tally);

    let f = &l.fleet;
    let cf = "cohort_fleet";
    let col = |g: fn(&FleetLayers) -> f64| median(&f.iter().map(g).collect::<Vec<_>>());
    tally.check(
        "cohort_fleet cohorts",
        !f.is_empty() && f.iter().all(|x| x.batched_cohorts == 2),
        || "the fleet did not run as two batched cohorts".to_string(),
    );
    push("fleet.build_s", col(|x| x.build_s), "s", f.len(), cf, tally);
    push(
        "dispatch.split_s",
        col(|x| x.split_s),
        "s",
        f.len(),
        cf,
        tally,
    );
    push("fleet.run_s", col(|x| x.run_s), "s", f.len(), cf, tally);
    push(
        "fleet.batched_cohorts",
        col(|x| x.batched_cohorts as f64),
        "count",
        f.len(),
        cf,
        tally,
    );
    push(
        "parallel.cpu_util",
        col(|x| x.cpu_util),
        "ratio",
        f.len(),
        cf,
        tally,
    );

    let r = &l.rack;
    let sr = "serve_rack";
    let arrivals = r.arrival_slice_us.len();
    push(
        "hierarchy.arrival_slice_us.p50",
        percentile(&r.arrival_slice_us, 50.0),
        "us",
        arrivals,
        sr,
        tally,
    );
    push(
        "hierarchy.arrival_slice_us.p99",
        percentile(&r.arrival_slice_us, 99.0),
        "us",
        arrivals,
        sr,
        tally,
    );
    push(
        "hierarchy.arrival_slices",
        (l.rack_runs > 0).then(|| arrivals as f64 / l.rack_runs as f64),
        "count",
        arrivals,
        sr,
        tally,
    );
    push(
        "hierarchy.advance_gap_ns_per_device_slice",
        per(r.advance_gap_ns, r.gap_device_slices),
        "ns/device-slice",
        r.gap_device_slices as usize,
        sr,
        tally,
    );
    let ckpts = r.encode_ms.len();
    push(
        "checkpoint.encode_ms.p50",
        percentile(&r.encode_ms, 50.0),
        "ms",
        ckpts,
        sr,
        tally,
    );
    push(
        "checkpoint.encode_ms.p90",
        percentile(&r.encode_ms, 90.0),
        "ms",
        ckpts,
        sr,
        tally,
    );
    push(
        "checkpoint.write_ms.p50",
        percentile(&r.write_ms, 50.0),
        "ms",
        ckpts,
        sr,
        tally,
    );
    push(
        "checkpoint.write_ms.p90",
        percentile(&r.write_ms, 90.0),
        "ms",
        ckpts,
        sr,
        tally,
    );
    push(
        "checkpoint.bytes",
        median(&r.bytes),
        "bytes",
        ckpts,
        sr,
        tally,
    );
    let runs = l.rack_runs as usize;
    let has_runs = runs > 0;
    push(
        "hierarchy.vetoed_wakeups",
        has_runs.then_some(r.vetoed_wakeups as f64),
        "count",
        runs,
        sr,
        tally,
    );
    push(
        "hierarchy.shed_arrivals",
        has_runs.then_some(r.shed_arrivals as f64),
        "count",
        runs,
        sr,
        tally,
    );
    out
}

/// Runs the command on `args` (without the program name).
#[must_use]
pub fn main_with(args: &[String]) -> ExitCode {
    let args = match Args::parse(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut tally = Tally::default();
    let (metrics, extra) = if args.trace {
        traced(&args, &mut tally)
    } else {
        untraced(&args, &mut tally)
    };
    for m in &metrics {
        eprintln!(
            "{:<44} {:>16.6} {:<20} n={:<9} ({})",
            m.name, m.value, m.unit, m.samples, m.workload
        );
    }
    let correct = tally.failed == 0;
    let mut detail: Vec<(String, Json)> = [
        ("workload", Json::str(args.workload.clone())),
        ("seed", Json::Int(args.seed)),
        ("seconds", Json::Int(args.seconds)),
        ("trace", Json::Int(u64::from(args.trace))),
    ]
    .map(|(k, v)| (k.to_string(), v))
    .into();
    if let Json::Obj(pairs) = extra {
        detail.extend(pairs);
    }
    detail.push((
        "metrics".to_string(),
        Json::Arr(
            metrics
                .iter()
                .map(|m| {
                    Json::obj([
                        ("name", Json::str(m.name)),
                        ("value", Json::Num(m.value)),
                        ("unit", Json::str(m.unit)),
                        ("samples", Json::Int(m.samples)),
                        ("workload", Json::str(m.workload)),
                    ])
                })
                .collect(),
        ),
    ));
    detail.push((
        "failures".to_string(),
        Json::Arr(
            tally
                .failures
                .iter()
                .map(|f| Json::str(f.clone()))
                .collect(),
        ),
    ));
    println!("{}", Json::obj(detail));
    let summary = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(tally.attempted)),
        ("failed", Json::Int(tally.failed)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|m| {
                (
                    m.name,
                    Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                )
            })),
        ),
    ]);
    println!("{summary}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

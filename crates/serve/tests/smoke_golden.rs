//! Pins the bundled smoke trace to its committed golden reports: any
//! change to the engine, checkpoint chunking, dispatch, power-cap
//! arbitration, or report format that shifts a single bit shows up as a
//! diff here (and in the CI smoke steps, which drive the same pairs
//! through the real binary).
//!
//! Two configurations share the trace: an uncapped rack (`smoke.golden`)
//! and a capped, event-skipping, sleep-aware rack whose cap binds
//! (`smoke_capped.golden`: thousands of vetoes and shed arrivals).

use std::path::PathBuf;

use qdpm_serve::{run_serve, ServeConfig, ServeOptions, TraceSource};
use qdpm_sim::{EngineMode, FleetPolicy};
use qdpm_workload::DispatchPolicy;

fn data(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(name)
}

#[test]
fn bundled_trace_reproduces_the_committed_golden_report() {
    let uncapped = ServeConfig {
        devices: 3,
        policies: vec![
            FleetPolicy::QDpm(qdpm_core::QDpmConfig::default()),
            FleetPolicy::AdaptiveTimeout,
        ],
        seed: 2026,
        ..ServeConfig::default()
    };
    let capped = ServeConfig {
        devices: 6,
        policies: vec![
            FleetPolicy::QDpm(qdpm_core::QDpmConfig::default()),
            FleetPolicy::BreakEvenTimeout,
        ],
        power_cap: Some(1.5),
        dispatch: DispatchPolicy::SleepAware { spill: 4 },
        engine_mode: EngineMode::EventSkip,
        seed: 2026,
        ..ServeConfig::default()
    };
    for (config, golden) in [(uncapped, "smoke.golden"), (capped, "smoke_capped.golden")] {
        let summary = run_serve(&ServeOptions {
            trace: TraceSource::File(data("smoke.trace")),
            checkpoint_every: 100,
            ..ServeOptions::in_memory(config, Vec::new())
        })
        .unwrap();
        let expected = std::fs::read_to_string(data(golden)).unwrap();
        assert_eq!(
            summary.report_text, expected,
            "smoke report diverged from tests/data/{golden} — if the \
             change is intentional, regenerate the golden with the same \
             qdpm-serve invocation documented in .github/workflows/ci.yml"
        );
    }
}

//! The timing delegates must be invisible to the simulation: every trait
//! method forwards to the wrapped value, so a wrapped run simulates exactly
//! what an unwrapped one does.

use std::sync::Arc;

use qdpm_core::{PowerManager, QDpmAgent, QDpmConfig, StateReader, StateWriter};
use qdpm_device::presets;
use qdpm_perfbench::delegates::{Spans, TimedGenerator, TimedManager};
use qdpm_perfbench::workloads::Digest;
use qdpm_sim::{EngineMode, SimConfig, Simulator};
use qdpm_workload::{RequestGenerator, WorkloadSpec};

fn sim(mode: EngineMode, spans: Option<&Arc<Spans>>) -> Simulator {
    let power = presets::three_state_generic();
    let agent = QDpmAgent::new(&power, QDpmConfig::default()).unwrap();
    let generator = WorkloadSpec::two_mode_mmpp(0.02, 0.4, 0.01)
        .unwrap()
        .build();
    let (generator, pm): (Box<dyn RequestGenerator>, Box<dyn PowerManager>) = match spans {
        None => (generator, Box::new(agent)),
        Some(s) => (
            Box::new(TimedGenerator::new(generator, Arc::clone(s))),
            Box::new(TimedManager::new(Box::new(agent), Arc::clone(s))),
        ),
    };
    let config = SimConfig {
        seed: 5,
        mode,
        ..SimConfig::default()
    };
    Simulator::new(power, presets::default_service(), generator, pm, config).unwrap()
}

fn digest(sim: &Simulator) -> (u64, Vec<u8>) {
    let mut d = Digest::default();
    d.stats(sim.stats());
    d.mode(sim.observation().device_mode);
    let mut w = StateWriter::new();
    sim.save_state(&mut w);
    (d.value(), w.into_bytes())
}

#[test]
fn wrapped_runs_match_plain_runs_in_both_engine_modes() {
    // Event skipping exercises `commit_quiescent` and `next_arrival_gap`,
    // the per-slice mode `decide`, `observe` and `next_arrivals`; the
    // checkpoint bytes cover `save_state` of both delegates.
    for mode in [EngineMode::PerSlice, EngineMode::EventSkip] {
        let spans = Arc::new(Spans::default());
        let mut plain = sim(mode, None);
        let mut wrapped = sim(mode, Some(&spans));
        plain.run(30_000);
        wrapped.run(30_000);
        assert_eq!(digest(&plain), digest(&wrapped), "{mode:?}");
        assert!(spans.decide.calls() > 0 && spans.observe.calls() > 0);
        assert_eq!(wrapped.pm().name(), plain.pm().name());
    }
}

#[test]
fn wrapped_state_round_trips_through_load_state() {
    let spans = Arc::new(Spans::default());
    let mut source = sim(EngineMode::PerSlice, None);
    source.run(5_000);
    let mut w = StateWriter::new();
    source.save_state(&mut w);
    let bytes = w.into_bytes();

    let mut restored = sim(EngineMode::PerSlice, Some(&spans));
    restored.load_state(&mut StateReader::new(&bytes)).unwrap();
    source.run(5_000);
    restored.run(5_000);
    assert_eq!(digest(&source).1, digest(&restored).1);
}

#[test]
fn generator_delegate_forwards_mode_queries_and_reset() {
    let spans = Arc::new(Spans::default());
    let spec = WorkloadSpec::two_mode_mmpp(0.02, 0.4, 0.01).unwrap();
    let mut plain = spec.build();
    let mut wrapped = TimedGenerator::new(spec.build(), Arc::clone(&spans));
    assert_eq!(wrapped.n_modes(), plain.n_modes());
    assert_eq!(wrapped.mean_rate(), plain.mean_rate());
    let mut rng_a = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
    let mut rng_b = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
    for _ in 0..500 {
        assert_eq!(
            wrapped.next_arrivals(&mut rng_b),
            plain.next_arrivals(&mut rng_a)
        );
        assert_eq!(wrapped.mode(), plain.mode());
    }
    wrapped.reset();
    plain.reset();
    assert_eq!(wrapped.mode(), plain.mode());
    assert_eq!(spans.next_arrivals.calls(), 500);
}

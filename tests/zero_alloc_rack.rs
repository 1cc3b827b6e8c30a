//! Steady-state allocation gate for the online rack loop.
//!
//! `RackCoordinator::arrival_slice` (snapshot, dispatch, budget-aware
//! shedding, the serial grant step) and `advance_gap` (the arrival-free
//! stretch between them) run once per aggregate event in the serving
//! daemon, so once a rack is warmed up neither may touch the heap: the
//! dispatcher snapshots, the pre-routing availability flags and the
//! wake-planning nominals all live in rack-owned buffers rebuilt in
//! place.
//!
//! Two racks are checked, both on one thread with `EventSkip` members
//! alternating training Q-DPM and break-even timeouts under sleep-aware
//! dispatch: one whose power cap binds (so every arrival slice runs the
//! budget's shedding pass and grants, and the cap vetoes wakeups) and one
//! uncapped.
//!
//! This file holds exactly one test so the counting global allocator
//! cannot race with unrelated tests in the same binary.

// A counting global allocator requires `unsafe impl GlobalAlloc`; the
// workspace denies unsafe code everywhere else.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use qdpm::core::QDpmConfig;
use qdpm::device::presets;
use qdpm::sim::{EngineMode, FleetConfig, FleetMember, FleetPolicy, RackCoordinator, RackSpec};
use qdpm::workload::DispatchPolicy;

/// Forwards to the system allocator, counting every allocation event
/// (fresh allocations and reallocations; frees are not counted).
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const WARM_PAIRS: u64 = 2_000;
const MEASURED_PAIRS: u64 = 5_000;
/// Arrival-free slices between consecutive arrival slices.
const GAP: u64 = 3;

fn rack(power_cap: Option<f64>) -> RackCoordinator {
    let spec = RackSpec {
        label: "rack".to_string(),
        members: (0..8)
            .map(|i| FleetMember {
                label: format!("dev-{i}"),
                power: presets::three_state_generic(),
                service: presets::default_service(),
                policy: if i % 2 == 0 {
                    FleetPolicy::QDpm(QDpmConfig::default())
                } else {
                    FleetPolicy::BreakEvenTimeout
                },
            })
            .collect(),
        power_cap,
    };
    let config = FleetConfig {
        horizon: (WARM_PAIRS + MEASURED_PAIRS) * (GAP + 1),
        dispatch: DispatchPolicy::SleepAware { spill: 4 },
        engine_mode: EngineMode::EventSkip,
        ..FleetConfig::default()
    };
    RackCoordinator::new(&spec, &config).unwrap()
}

/// Allocations over `MEASURED_PAIRS` arrival-slice + gap pairs after
/// `WARM_PAIRS` warm-up pairs. Arrival counts cycle 1..=3 so queues fill
/// and drain.
fn count_steady_state(rack: &mut RackCoordinator) -> u64 {
    let pair = |k: u64, rack: &mut RackCoordinator| {
        rack.arrival_slice(1 + (k % 3) as u32);
        rack.advance_gap(GAP, 1);
    };
    for k in 0..WARM_PAIRS {
        pair(k, rack);
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for k in WARM_PAIRS..WARM_PAIRS + MEASURED_PAIRS {
        pair(k, rack);
    }
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn rack_arrival_slice_and_gap_are_allocation_free_in_steady_state() {
    // 8 sleepers draw 8 × 0.05 W; a 1.5 W cap admits about one awake device.
    for cap in [Some(1.5), None] {
        let mut rack = rack(cap);
        let allocations = count_steady_state(&mut rack);
        let report = rack.report();
        assert_eq!(
            allocations, 0,
            "cap {cap:?}: {allocations} allocations over {MEASURED_PAIRS} arrival-slice + \
             advance_gap pairs"
        );
        // The gate is not vacuous: the run served traffic, and the cap
        // actually bound.
        assert!(report.fleet.stats.total.arrivals > 0);
        if cap.is_some() {
            assert!(report.vetoed_wakeups > 0, "the cap never bound");
        }
    }
}

//! The traced `serve_rack` driver makes the same calls `run_serve` makes,
//! so it must render a byte-identical report and write the same number of
//! checkpoints.

use qdpm_perfbench::workloads::ServeRack;

#[test]
fn traced_driver_reproduces_run_serve() {
    // 3 500 slices: three cadence checkpoints plus the final one the
    // partial last stretch needs.
    let rack = ServeRack::with_slices(9, 3_500);
    let (plain, _, plain_text) = rack.run().unwrap();
    let (traced, _, traced_text, layers) = rack.run_traced().unwrap();
    assert_eq!(plain_text, traced_text);
    assert_eq!(plain, traced);
    assert_eq!(layers.encode_ms.len(), 4);
    assert_eq!(layers.write_ms.len(), 4);
    assert!(!layers.arrival_slice_us.is_empty());
}

#[test]
fn different_seeds_serve_different_traces() {
    let (a, _, _) = ServeRack::with_slices(1, 2_000).run().unwrap();
    let (b, _, _) = ServeRack::with_slices(2, 2_000).run().unwrap();
    assert_ne!(a.digest, b.digest);
}

//! Process resource usage and the machine fingerprint (Linux).

use std::path::PathBuf;

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime_sec: i64,
    utime_usec: i64,
    stime_sec: i64,
    stime_usec: i64,
    /// `ru_maxrss` and the other counters, unread.
    longs: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

fn self_usage() -> RUsage {
    let mut usage = RUsage::default();
    // SAFETY: `usage` is a live, writable `struct rusage` of the 64-bit
    // Linux layout (`#[repr(C)]`, 144 bytes), which is all getrusage
    // writes; RUSAGE_SELF is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with valid arguments"
    );
    usage
}

/// User plus system CPU seconds of the whole process, all threads.
#[must_use]
pub fn process_cpu_seconds() -> f64 {
    let u = self_usage();
    (u.utime_sec + u.stime_sec) as f64 + (u.utime_usec + u.stime_usec) as f64 * 1e-6
}

/// Peak resident set size of this process image so far, in MiB: the
/// `VmHWM` line of `/proc/self/status`. (`getrusage`'s `ru_maxrss` is not
/// used because it survives `execve`, so it would report the launching
/// process's footprint when that was larger.)
///
/// # Errors
///
/// The status file is unreadable or has no `VmHWM` line.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())?;
    Ok(kib / 1024.0)
}

/// Worker threads the benchmark may use: `wanted`, capped at the
/// machine's available parallelism.
#[must_use]
pub fn workers(wanted: usize) -> usize {
    wanted.min(nproc()).max(1)
}

/// `std::thread::available_parallelism`, 1 when unknown.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The CPU model string from `/proc/cpuinfo`.
#[must_use]
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The compiler that built this binary (`rustc --version`).
pub const RUSTC: &str = env!("PERFBENCH_RUSTC");

/// The Cargo profile this binary was built with.
pub const PROFILE: &str = env!("PERFBENCH_PROFILE");

/// Scratch space for checkpoint directories: inside the build directory,
/// so the benchmark writes nothing outside the tree it runs from.
#[must_use]
pub fn scratch_root() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from)
        .join("perfbench-scratch")
}

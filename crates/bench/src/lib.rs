//! Shared scaffolding for the figure and table binaries.
//!
//! The binaries in `src/bin/` regenerate every figure and table of the
//! paper's evaluation (the README's "Regenerating the paper's figures and
//! tables" indexes them). They print TSV to stdout, and all but
//! `table_overhead` mirror it into `results/` at the workspace root;
//! `table_overhead` times the runtime claims (T1 and T3) and only prints,
//! because wall-clock times are not a record. Throughput is measured by
//! the repeated-trial benchmark in `perfbench/`.

use std::fs;
use std::path::{Path, PathBuf};

use qdpm_device::{presets, PowerModel, ServiceModel};

/// The standard scenario of the headline experiments: generic three-state
/// device with geometric service.
#[must_use]
pub fn standard_device() -> (PowerModel, ServiceModel) {
    (presets::three_state_generic(), presets::default_service())
}

/// Parses a `--threads N` knob out of an argument list: `Ok(None)` when
/// absent, `Ok(Some(n))` for a positive count, and `Err` for a malformed
/// or zero value — never a silent fallback, since the knob pins benchmark
/// conditions. Shared by the grid-running bins (`table_sweep`,
/// `table_ablation`, `table_variants`).
///
/// # Errors
///
/// Returns a message naming the offending value.
pub fn parse_threads(args: &[String]) -> Result<Option<usize>, String> {
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let value = if arg == "--threads" {
            Some(it.next().map(String::as_str).unwrap_or_default())
        } else {
            arg.strip_prefix("--threads=")
        };
        let Some(value) = value else { continue };
        return match value.parse::<usize>() {
            Ok(n) if n > 0 => Ok(Some(n)),
            _ => Err(format!(
                "--threads expects a positive integer, got {value:?}"
            )),
        };
    }
    Ok(None)
}

/// Worker count for a bin: `--threads N` from `std::env::args`, else the
/// host's available parallelism. Exits with an error on a malformed value
/// rather than silently benchmarking a different configuration.
#[must_use]
pub fn threads_from_args() -> usize {
    let args: Vec<String> = std::env::args().collect();
    match parse_threads(&args) {
        Ok(Some(n)) => n,
        Ok(None) => qdpm_sim::parallel::available_threads(),
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    }
}

/// Whether a bare flag (e.g. `--compare-serial`) was passed to the bin.
#[must_use]
pub fn has_flag(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
}

/// Walks up from `start` to the *nearest* ancestor whose `Cargo.toml`
/// declares a `[workspace]` table — this crate's workspace root, wherever
/// the crate ends up nested. (If the repo itself were vendored inside a
/// larger workspace, the inner qdpm root still wins, which is where
/// `results/` belongs.)
fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    start
        .ancestors()
        .find(|dir| {
            fs::read_to_string(dir.join("Cargo.toml"))
                .is_ok_and(|manifest| manifest_declares_workspace(&manifest))
        })
        .map(Path::to_path_buf)
}

/// Line-anchored check for a `[workspace]` (or `[workspace.*]`) table
/// header, so commented-out headers or the literal string inside some
/// other value don't count.
fn manifest_declares_workspace(manifest: &str) -> bool {
    manifest.lines().any(|line| {
        let line = line.trim();
        line == "[workspace]" || line.starts_with("[workspace.")
    })
}

/// The workspace root this crate lives in (nearest ancestor whose manifest
/// declares `[workspace]`), or `.` when none is found — the parent of
/// [`results_dir`]'s default `results/`.
fn workspace_root() -> PathBuf {
    find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).unwrap_or_else(|| PathBuf::from("."))
}

/// The directory results files are mirrored into: `$QDPM_RESULTS_DIR` when
/// set, else `<workspace root>/results`, else `./results` as a last resort
/// (e.g. binaries run outside any Cargo checkout).
#[must_use]
pub fn results_dir() -> PathBuf {
    if let Some(dir) = std::env::var_os("QDPM_RESULTS_DIR") {
        return PathBuf::from(dir);
    }
    workspace_root().join("results")
}

/// Writes `content` to [`results_dir`]`/<name>` (best effort) and returns
/// the path.
pub fn save_results(name: &str, content: &str) -> Option<PathBuf> {
    save_results_in(&results_dir(), name, content)
}

/// [`save_results`] with an explicit target directory (created on demand).
///
/// The write is crash-safe: content lands in a temp file *in the target
/// directory* and is renamed over the final name, so a crash mid-write
/// leaves either the previous complete file or no file — never a
/// half-written result a downstream plot script would silently ingest.
pub fn save_results_in(dir: &Path, name: &str, content: &str) -> Option<PathBuf> {
    fs::create_dir_all(dir).ok()?;
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let path = dir.join(name);
    let tmp = dir.join(format!(".{name}.tmp"));
    {
        use std::io::Write as _;
        let mut f = fs::File::create(&tmp).ok()?;
        f.write_all(content.as_bytes()).ok()?;
        f.sync_all().ok()?;
    }
    if fs::rename(&tmp, &path).is_err() {
        let _ = fs::remove_file(&tmp);
        return None;
    }
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_device_is_valid() {
        let (power, service) = standard_device();
        assert!(power.n_states() >= 3);
        assert!(service.completion_probability().is_some());
    }

    #[test]
    fn parse_threads_forms() {
        let args = |s: &[&str]| s.iter().map(ToString::to_string).collect::<Vec<_>>();
        assert_eq!(
            parse_threads(&args(&["bin", "--threads", "4"])),
            Ok(Some(4))
        );
        assert_eq!(parse_threads(&args(&["bin", "--threads=2"])), Ok(Some(2)));
        assert_eq!(parse_threads(&args(&["bin"])), Ok(None));
        // Malformed values must error loudly, not fall back silently.
        assert!(parse_threads(&args(&["bin", "--threads", "zero"])).is_err());
        assert!(parse_threads(&args(&["bin", "--threads", "0"])).is_err());
        assert!(parse_threads(&args(&["bin", "--threads="])).is_err());
        assert!(parse_threads(&args(&["bin", "--threads"])).is_err());
    }

    #[test]
    fn workspace_root_is_found_from_manifest_dir() {
        let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
            .expect("this crate lives inside the qdpm workspace");
        // The root manifest declares the workspace and its members; the
        // old `../..` scheme only matched the original nesting depth.
        let manifest = fs::read_to_string(root.join("Cargo.toml")).unwrap();
        assert!(manifest_declares_workspace(&manifest));
        assert!(manifest.contains("crates/bench"));
        assert!(root.join("crates").is_dir());
    }

    #[test]
    fn find_workspace_root_skips_package_only_manifests() {
        // Environment-independent: whatever the temp dir's ancestors hold,
        // a directory with a package-only Cargo.toml must never be
        // reported as the workspace root itself.
        let dir = std::env::temp_dir().join("qdpm-bench-package-only-selftest");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            dir.join("Cargo.toml"),
            "[package]\nname = \"not-a-workspace\"\n",
        )
        .unwrap();
        assert_ne!(find_workspace_root(&dir), Some(dir.clone()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn workspace_detection_is_line_anchored() {
        assert!(manifest_declares_workspace("[workspace]\nmembers = []\n"));
        assert!(manifest_declares_workspace("  [workspace.dependencies]\n"));
        assert!(!manifest_declares_workspace("# [workspace]\n[package]\n"));
        assert!(!manifest_declares_workspace(
            "description = \"mentions [workspace] in prose\"\n"
        ));
        assert!(!manifest_declares_workspace("[workspace-tools]\n"));
    }

    #[test]
    fn save_results_in_round_trips_and_creates_the_dir() {
        // Hermetic: an explicit temp target, independent of the
        // QDPM_RESULTS_DIR environment and of the checkout's results/.
        let dir = std::env::temp_dir().join("qdpm-bench-save-results-selftest");
        let _ = fs::remove_dir_all(&dir);
        let name = "selftest.tsv";
        let path = save_results_in(&dir, name, "end\tcost\n0\t1.0\n").expect("save_results_in");
        assert!(path.ends_with(name));
        assert_eq!(
            fs::read_to_string(&path).unwrap(),
            "end\tcost\n0\t1.0\n",
            "content must round-trip"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_results_is_atomic_and_leaves_no_temp_files() {
        let dir = std::env::temp_dir().join("qdpm-bench-save-results-atomic-selftest");
        let _ = fs::remove_dir_all(&dir);
        let name = "atomic.tsv";
        // Overwriting an existing result must swap in the new content
        // whole, and the temp file must not linger.
        save_results_in(&dir, name, "old\n").unwrap();
        let path = save_results_in(&dir, name, "new\n").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "new\n");
        let canon = dir.canonicalize().unwrap();
        let leftovers: Vec<_> = fs::read_dir(&canon)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n != name)
            .collect();
        assert!(leftovers.is_empty(), "stray files: {leftovers:?}");
        let _ = fs::remove_dir_all(&dir);
    }
}

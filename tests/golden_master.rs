//! Golden-master gate: every committed `results/*.tsv` must regenerate
//! byte-identically from the current code.
//!
//! The published TSVs are produced by the `qdpm-bench` binaries under
//! pinned seeds and the repo's deterministic parallel runner (output is
//! byte-identical at any thread count), so any diff — a reordered float
//! fold, a drifted RNG stream, a changed default — is a behavior change
//! that must be intentional and reviewed, not incidental. This pins the
//! single-device pipeline through fleet-scale refactors.
//!
//! The regeneration runs in the default suite: once the bench binaries
//! are built it takes a few seconds. To refresh the masters
//! intentionally, run the binaries (they mirror into `results/`) and
//! commit the diff.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Which binary regenerates which committed results file.
const REGENERATORS: &[(&str, &str)] = &[
    ("table_memory", "table_memory.tsv"),
    ("table_ablation", "table_ablation.tsv"),
    ("fig2", "fig2_rapid_response.tsv"),
    ("table_sweep", "table_sweep.tsv"),
    ("frontier_dvfs", "frontier_dvfs.tsv"),
    ("fig1", "fig1_convergence.tsv"),
    ("fig3_qos", "fig3_qos.tsv"),
    ("fig4_fuzzy", "fig4_fuzzy.tsv"),
    ("fig5_drift", "fig5_drift.tsv"),
    ("table_variants", "table_variants.tsv"),
];

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// First line where two texts differ, for a reviewable failure message.
fn first_diff_line(fresh: &str, golden: &str) -> String {
    for (i, (f, g)) in fresh.lines().zip(golden.lines()).enumerate() {
        if f != g {
            return format!("line {}: fresh {f:?} vs golden {g:?}", i + 1);
        }
    }
    format!(
        "line counts differ: fresh {} vs golden {}",
        fresh.lines().count(),
        golden.lines().count()
    )
}

#[test]
fn results_tsvs_regenerate_byte_identically() {
    let root = workspace_root();
    let results = root.join("results");

    // Every committed TSV must have a known regenerator — a new results
    // file without a golden-master entry silently escapes the gate.
    let committed: Vec<String> = std::fs::read_dir(&results)
        .expect("results/ exists")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".tsv"))
        .collect();
    assert!(!committed.is_empty(), "no committed results to pin");
    for name in &committed {
        assert!(
            REGENERATORS.iter().any(|(_, file)| file == name),
            "results/{name} has no entry in the golden-master map — add its \
             regenerating binary to REGENERATORS"
        );
    }
    // ...and every regenerator must have its committed TSV: deleting a
    // golden must fail here rather than silently drop its gate.
    for (bin, file) in REGENERATORS {
        assert!(
            committed.iter().any(|name| name == file),
            "results/{file} (regenerated by {bin}) is not committed — every \
             golden-master entry needs its committed master"
        );
    }

    let fresh_dir = std::env::temp_dir().join("qdpm-golden-master");
    let _ = std::fs::remove_dir_all(&fresh_dir);
    std::fs::create_dir_all(&fresh_dir).expect("create fresh results dir");
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());

    for (bin, file) in REGENERATORS {
        let status = Command::new(&cargo)
            .args(["run", "--release", "-q", "-p", "qdpm-bench", "--bin", bin])
            .env("QDPM_RESULTS_DIR", &fresh_dir)
            .current_dir(&root)
            .stdout(std::process::Stdio::null())
            .status()
            .unwrap_or_else(|e| panic!("failed to spawn {bin}: {e}"));
        assert!(status.success(), "{bin} exited with {status}");
        let fresh = std::fs::read(fresh_dir.join(file))
            .unwrap_or_else(|e| panic!("{bin} produced no {file}: {e}"));
        let golden = std::fs::read(results.join(file))
            .unwrap_or_else(|e| panic!("missing committed results/{file}: {e}"));
        assert!(
            fresh == golden,
            "{bin}: fresh {file} differs from the committed master — {}",
            first_diff_line(
                &String::from_utf8_lossy(&fresh),
                &String::from_utf8_lossy(&golden)
            )
        );
    }

    let _ = std::fs::remove_dir_all(&fresh_dir);
}

/// The map itself stays valid: regenerator binaries must exist as bench
/// targets (cheap guard that runs in the default suite).
#[test]
fn golden_master_map_names_real_binaries() {
    let bins_dir = workspace_root().join("crates/bench/src/bin");
    for (bin, _) in REGENERATORS {
        assert!(
            bins_dir.join(format!("{bin}.rs")).is_file(),
            "golden-master map names unknown binary {bin}"
        );
    }
}

/// Paths referenced by the gate exist (cheap guard in the default suite).
fn assert_dir(p: &Path) {
    assert!(p.is_dir(), "{} missing", p.display());
}

#[test]
fn golden_master_paths_exist() {
    assert_dir(&workspace_root().join("results"));
    assert_dir(&workspace_root().join("crates/bench/src/bin"));
}

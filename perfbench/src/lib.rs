//! Repeated-trial benchmark of the Q-DPM workspace.
//!
//! One invocation runs one workload (`paper_single`, `cohort_fleet` or
//! `serve_rack`) with inputs generated from `--seed`, repeats it for
//! `--seconds`, checks the simulated results, and prints the end-to-end
//! metrics; `--trace 1` instead runs the traced layer ladder. Every layer
//! is timed from outside, around calls into its public functions. See
//! `perfbench/README.md`.

pub mod bench;
pub mod delegates;
pub mod report;
pub mod sys;
pub mod workloads;

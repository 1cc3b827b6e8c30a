//! `qdpm-perfbench --workload <name> [--seed N] [--seconds N] [--trace 0|1]`

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    qdpm_perfbench::bench::main_with(&args)
}

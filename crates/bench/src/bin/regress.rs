//! The unified bench-regression gate: rebuilds every perf-trajectory
//! report in-process and diffs it against the committed `BENCH_*.json`
//! baselines (schema, key sets, invariants; throughput on full grids).
//!
//! ```bash
//! # the CI gate — quick grids, structure + invariants only:
//! cargo run -p multihonest-bench --release --bin regress -- --quick
//! # the full gate — published grids, plus throughput within tolerance:
//! cargo run -p multihonest-bench --release --bin regress -- --tolerance 0.5
//! # one target against baselines in another directory:
//! cargo run -p multihonest-bench --release --bin regress -- --quick --only sweep --dir snapshots/
//! ```
//!
//! Exits 0 when every check passes, 1 on any check failure or missing
//! baseline, 2 on a malformed command line.

use multihonest_bench::cli::{self, flag_value, or_usage, parsed_flag, reject_unknown_flags};
use multihonest_bench::regress::{render_outcomes, run_regress, RegressOptions, REGRESS_TARGETS};

const USAGE: &str =
    "regress [--quick] [--tolerance <f64>] [--only <target>] [--dir <path>] [--threads <n>]";

const SWITCHES: [&str; 1] = ["--quick"];

const VALUE_FLAGS: [&str; 4] = ["--tolerance", "--only", "--dir", "--threads"];

const WORDS: [&str; 0] = [];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    or_usage(
        reject_unknown_flags(&args, &SWITCHES, &VALUE_FLAGS, &WORDS),
        USAGE,
    );
    let mut opts = RegressOptions {
        quick: args.iter().any(|a| a == "--quick"),
        ..RegressOptions::default()
    };
    if let Some(t) = or_usage(parsed_flag(&args, "--tolerance"), USAGE) {
        opts.tolerance = t;
    }
    if !(0.0..1.0).contains(&opts.tolerance) {
        eprintln!("error: --tolerance must be in [0, 1)\nusage: {USAGE}");
        std::process::exit(2);
    }
    if let Some(dir) = or_usage(flag_value(&args, "--dir"), USAGE) {
        opts.baseline_dir = dir.into();
    }
    opts.threads = or_usage(cli::threads(&args), USAGE);
    let targets: Vec<&'static str> = match or_usage(flag_value(&args, "--only"), USAGE) {
        Some(name) => match REGRESS_TARGETS.iter().find(|t| **t == name) {
            Some(t) => vec![t],
            None => {
                eprintln!(
                    "error: unknown target {name:?} (expected one of {REGRESS_TARGETS:?})\n\
                     usage: {USAGE}"
                );
                std::process::exit(2);
            }
        },
        None => Vec::new(),
    };

    let outcomes = match run_regress(&targets, &opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    print!("{}", render_outcomes(&outcomes));
    let (passed, total) = (
        outcomes.iter().filter(|o| o.passed()).count(),
        outcomes.len(),
    );
    let checks: usize = outcomes.iter().map(|o| o.checks).sum();
    if passed == total {
        eprintln!(
            "bench-regress: {total} targets ok ({checks} checks, {} grids)",
            if opts.quick { "quick" } else { "full" }
        );
    } else {
        eprintln!(
            "bench-regress: {} of {total} targets FAILED",
            total - passed
        );
        std::process::exit(1);
    }
}

//! `mh`: the one command line of the bench harness — paper Table 1, the
//! experiments, the simulator and scenario tables, long horizons,
//! campaign sweeps, the seven `BENCH_*.json` reports and their
//! regression gate.
//!
//! ```bash
//! cargo run -p multihonest-bench --release --bin mh -- table1 --quick
//! cargo run -p multihonest-bench --release --bin mh -- bench sweep --quick --out /tmp/b.json
//! cargo run -p multihonest-bench --release --bin mh -- regress --quick
//! ```
//!
//! Exits 0 on success, 1 on a runtime or I/O failure (including a failed
//! regression check), 2 on a malformed command line.

use multihonest_bench::{cli, commands};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = cli::parse(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    if let Err(e) = commands::run(&cmd) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

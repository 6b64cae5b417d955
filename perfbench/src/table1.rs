//! The `table1` workload: the paper's Table 1 through
//! `generate_table1_threads` on two threads — 6 α × 6 ratios × 5 k = 180
//! cells from 36 banded-DP passes (`ExactSettlement`), each advancing the
//! margin lattice over k_max = 500 characteristic-string slots. The
//! workload has no randomness; the seed is only recorded.
//!
//! A traced operation follows a plain one: the table through
//! `bench_report` on the same two-thread pool, which times each pass,
//! giving the pass-time distribution and the workers' idle share; the
//! cells must equal the plain run's bit for bit.

use std::time::Instant;

use multihonest_bench::{
    bench_report, generate_table1_threads, table1_condition, Table1Cell, TABLE1_ALPHAS, TABLE1_KS,
    TABLE1_RATIOS,
};
use multihonest_margin::ExactSettlement;

use crate::{Checks, Sample, Traced, Verdict, Workload};

/// The published sanity cell: α = 0.1, ratio = 1, k = 100.
const SANITY: (f64, f64, usize, &str) = (0.1, 1.0, 100, "5.10e-18");

/// DP passes per table: one per (α, ratio) pair.
const PAIRS: usize = TABLE1_ALPHAS.len() * TABLE1_RATIOS.len();

/// Characteristic-string slots one pass advances the lattice over.
fn pass_slots() -> usize {
    *TABLE1_KS.iter().max().expect("Table 1 has k rows")
}

pub struct Table1 {
    /// The first table's probabilities (bits); later ones must match.
    reference: Option<Vec<u64>>,
}

impl Table1 {
    /// One plain table through `generate_table1_threads`, checked.
    fn plain(&mut self, op: &str, checks: &mut Checks) -> Sample {
        let t0 = Instant::now();
        let cells =
            generate_table1_threads(&TABLE1_ALPHAS, &TABLE1_RATIOS, &TABLE1_KS, Table1::THREADS);
        let secs = t0.elapsed().as_secs_f64();
        let v = self.check(&cells);
        checks.record(op, v);
        Sample {
            secs,
            slots: (PAIRS * pass_slots()) as f64,
            cells: cells.len() as f64,
            rss_bytes: 0,
        }
    }

    fn check(&mut self, cells: &[Table1Cell]) -> Verdict {
        let mut v = Verdict::default();
        v.require(cells.len() == PAIRS * TABLE1_KS.len(), || {
            format!("{} cells", cells.len())
        });
        for c in cells {
            v.require((0.0..=1.0).contains(&c.probability), || {
                format!(
                    "cell (α={}, ratio={}, k={}) = {} outside [0, 1]",
                    c.alpha, c.ratio, c.k, c.probability
                )
            });
        }
        let (alpha, ratio, k, printed) = SANITY;
        let sanity = cells
            .iter()
            .find(|c| c.alpha == alpha && c.ratio == ratio && c.k == k)
            .map(|c| format!("{:.2e}", c.probability));
        v.require(sanity.as_deref() == Some(printed), || {
            format!("sanity cell prints {sanity:?}, expected {printed}")
        });
        let bits: Vec<u64> = cells.iter().map(|c| c.probability.to_bits()).collect();
        match &self.reference {
            None => self.reference = Some(bits),
            Some(first) => v.require(*first == bits, || {
                "probabilities differ from the first table's".to_string()
            }),
        }
        v
    }
}

impl Workload for Table1 {
    const THREADS: usize = 2;

    fn setup(_seed: u64, _dir: &std::path::Path) -> Table1 {
        // Warm-up: one pass at the sanity cell's depth.
        let (alpha, ratio, k, _) = SANITY;
        let p = ExactSettlement::new(table1_condition(alpha, ratio)).violation_probabilities(&[k]);
        assert!(p.iter().all(|x| x.is_finite()), "warm-up pass is finite");
        Table1 { reference: None }
    }

    fn sample(&mut self, index: usize, checks: &mut Checks) -> Sample {
        self.plain(&format!("table1[{index}]"), checks)
    }

    fn traced(&mut self, checks: &mut Checks) -> Traced {
        let plain_s = self.plain("table1.plain", checks).secs;
        let t0 = Instant::now();
        let (cells, report) =
            bench_report(&TABLE1_ALPHAS, &TABLE1_RATIOS, &TABLE1_KS, Table1::THREADS);
        let e2e_s = t0.elapsed().as_secs_f64();
        let v = self.check(&cells);
        checks.record("table1.traced", v);

        // Pass time in wall-clock equivalents (thread-seconds / threads);
        // the residual is the workers' idle tail and the pool's overhead.
        let threads = Table1::THREADS as f64;
        let busy_s = report.pair_seconds_mean * PAIRS as f64;
        Traced {
            e2e_s,
            plain_s,
            independent: true,
            parts: vec![("dp", busy_s / threads)],
            layers: vec![
                ("dp.pair_ms.p50", report.pair_seconds_median * 1e3),
                ("dp.pair_ms.max", report.pair_seconds_max * 1e3),
                (
                    "dp.idle_share",
                    1.0 - busy_s / (threads * report.total_seconds),
                ),
            ],
        }
    }
}

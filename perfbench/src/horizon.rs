//! The `horizon` workload: one bounded-memory `run_horizon` execution of
//! the `scenario horizon` CLI shape (10 nodes, α = 0.3, f = 0.25, Δ = 2,
//! private withholding) with a write-ahead log, on one thread.
//!
//! Segments are 2¹⁶ slots rather than the default 2²⁰, so that within a
//! few seconds the run crosses 63 segment boundaries and compacts and
//! appends to the WAL many times. Peak memory depends on the longest run
//! of boundaries where compaction is refused, which the seed decides, so
//! operations cycle over a fixed set of sixteen sub-seeds drawn from
//! `--seed` (every report of a sub-seed must equal its first), and each
//! end-to-end metric weighs every sub-seed the same. However many
//! operations fit in a run, a given `--seed` measures the same inputs.
//!
//! A traced operation runs the first sub-seed plain, then through
//! `run_horizon_observed` with an `ObsRecorder` (its segment, compaction
//! and WAL-append spans), and times the segments' schedule sampling
//! alone on the same draws, which splits each segment span into sampling
//! and the slot kernel.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use multihonest_obs::ObsRecorder;
use multihonest_scenario::{
    run_horizon, run_horizon_observed, ColumnarSchedule, HorizonOptions, HorizonReport, LeaderProbs,
};
use multihonest_sim::{SimConfig, Strategy, TieBreak};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::stats::median;
use crate::{Checks, Sample, ScratchDir, Traced, Verdict, Workload};

/// Slots per execution: 64 segments.
const SLOTS: usize = 1 << 22;

/// Slots per segment (and per compaction attempt).
const SEGMENT: usize = 1 << 16;

/// Slots of the set-up warm-up execution: two segments, so one boundary.
const WARMUP_SLOTS: usize = 2 * SEGMENT;

/// The `scenario horizon` CLI shape over `slots` slots.
fn config(slots: usize) -> SimConfig {
    SimConfig {
        honest_nodes: 10,
        adversarial_stake: 0.3,
        active_slot_coeff: 0.25,
        delta: 2,
        slots,
        tie_break: TieBreak::AdversarialOrder,
        strategy: Strategy::PrivateWithholding,
    }
}

/// SplitMix64: sub-seed `i` of the run's seed.
fn sub_seed(seed: u64, i: u64) -> u64 {
    let mut z = (seed ^ i.wrapping_mul(0xD1B5_4A32_D192_ED03)).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub struct Horizon {
    seed: u64,
    probs: LeaderProbs,
    dir: ScratchDir,
    /// The first report of each sub-seed; later ones must equal it.
    reports: BTreeMap<u64, HorizonReport>,
}

impl Horizon {
    fn options(&self) -> HorizonOptions {
        let wal = self.dir.path().join("horizon.wal");
        // An existing WAL with the same parameters would resume the run.
        let _ = std::fs::remove_file(&wal);
        HorizonOptions {
            segment_slots: SEGMENT,
            wal: Some(wal),
            ..HorizonOptions::default()
        }
    }

    fn wal_path(&self) -> PathBuf {
        self.dir.path().join("horizon.wal")
    }

    /// One plain execution of sub-seed `seed`, checked.
    fn plain(&mut self, op: &str, seed: u64, checks: &mut Checks) -> Sample {
        let opts = self.options();
        let t0 = Instant::now();
        let result = run_horizon(&config(SLOTS), &self.probs, seed, &opts);
        let secs = t0.elapsed().as_secs_f64();
        match result {
            Ok(report) => {
                let cells = report.violating_anchors.len() as f64;
                let v = self.check(seed, report);
                checks.record(op, v);
                Sample {
                    secs,
                    slots: SLOTS as f64,
                    cells,
                    rss_bytes: 0,
                }
            }
            Err(e) => {
                checks.error(op, e);
                Sample {
                    secs: f64::NAN,
                    ..Sample::default()
                }
            }
        }
    }

    fn check(&mut self, seed: u64, report: HorizonReport) -> Verdict {
        let mut v = Verdict::default();
        v.require(report.metrics.slots == SLOTS, || {
            format!("covered {} of {SLOTS} slots", report.metrics.slots)
        });
        v.require(report.resumed_at.is_none(), || {
            "resumed from a stale WAL".to_string()
        });
        match self.reports.get(&seed) {
            Some(first) => v.require(*first == report, || {
                format!("sub-seed {seed:#x}: report differs from its first run")
            }),
            None => {
                self.reports.insert(seed, report);
            }
        }
        v
    }
}

impl Workload for Horizon {
    const THREADS: usize = 1;
    const INPUTS: usize = 16;

    fn setup(seed: u64, dir: &Path) -> Horizon {
        let probs = LeaderProbs::uniform(10, 0.3, 0.25);
        let dir = ScratchDir::create(dir);
        let horizon = Horizon {
            seed,
            probs,
            dir,
            reports: BTreeMap::new(),
        };
        run_horizon(
            &config(WARMUP_SLOTS),
            &horizon.probs,
            seed,
            &horizon.options(),
        )
        .expect("warm-up horizon runs");
        horizon
    }

    fn sample(&mut self, index: usize, checks: &mut Checks) -> Sample {
        let seed = sub_seed(self.seed, (index % Horizon::INPUTS) as u64);
        self.plain(&format!("horizon[{index}]"), seed, checks)
    }

    fn traced(&mut self, checks: &mut Checks) -> Traced {
        let seed = sub_seed(self.seed, 0);
        let plain_s = self.plain("horizon.plain", seed, checks).secs;
        let opts = self.options();
        let mut rec = ObsRecorder::new();
        let t0 = Instant::now();
        let result = run_horizon_observed(&config(SLOTS), &self.probs, seed, &opts, &mut rec, None);
        let e2e_s = t0.elapsed().as_secs_f64();
        let wal_bytes = std::fs::metadata(self.wal_path()).map_or(0, |m| m.len());
        let report = match result {
            Ok(report) => {
                let v = self.check(seed, report.clone());
                checks.record("horizon.observed", v);
                report
            }
            Err(e) => {
                checks.error("horizon.observed", e);
                return Traced::default();
            }
        };

        // The segments' schedule sampling alone, on the same draws.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut schedule = ColumnarSchedule::empty();
        let t0 = Instant::now();
        let mut done = 0;
        while done < SLOTS {
            let len = SEGMENT.min(SLOTS - done);
            schedule.resample_segment(&self.probs, len, &mut rng);
            done += len;
        }
        let schedule_s = t0.elapsed().as_secs_f64();

        let spans_ms = |name: &str| -> Vec<f64> {
            rec.events()
                .iter()
                .filter(|e| e.name == name)
                .map(|e| e.dur_us as f64 / 1e3)
                .collect()
        };
        let segments = spans_ms("horizon.segment");
        let compactions = spans_ms("horizon.compaction");
        let wal_appends = spans_ms("horizon.wal_append");
        let total_s = |v: &[f64]| v.iter().sum::<f64>() / 1e3;
        let engine_s = total_s(&segments) - schedule_s;
        let slots = SLOTS as f64;
        let boundaries = (SLOTS.div_ceil(SEGMENT) - 1) as f64;
        Traced {
            e2e_s,
            plain_s,
            independent: true,
            parts: vec![
                ("schedule", schedule_s),
                ("engine", engine_s),
                ("compaction", total_s(&compactions)),
                ("wal_append", total_s(&wal_appends)),
            ],
            layers: vec![
                ("schedule.ns_per_slot", schedule_s / slots * 1e9),
                ("schedule.share", schedule_s / e2e_s),
                ("engine.ns_per_slot", engine_s / slots * 1e9),
                ("engine.share", engine_s / e2e_s),
                ("engine.blocks", report.metrics.chain_blocks as f64),
                ("engine.rollbacks", report.metrics.rollback_count as f64),
                ("horizon.segment_ms.p50", median(&segments)),
                ("horizon.compaction_ms.p50", median(&compactions)),
                ("horizon.compactions", report.compactions as f64),
                (
                    "horizon.compaction_accept_ratio",
                    report.compactions as f64 / boundaries,
                ),
                ("horizon.wal_append_ms.p50", median(&wal_appends)),
                ("horizon.wal_bytes", wal_bytes as f64),
                ("horizon.peak_live_blocks", report.peak_live_blocks as f64),
            ],
        }
    }
}

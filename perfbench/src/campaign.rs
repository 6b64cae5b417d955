//! The `campaign` workload: `run_campaign` on the default 24-cell grid
//! with a checkpoint file, then `campaign_report`, on two threads.
//!
//! A traced operation runs the same campaign four times:
//!
//! - plain on two threads, the base of `trace.overhead`;
//! - through `run_campaign_observed` on two threads with an
//!   `ObsRecorder`: the traced end-to-end time, split into the worker
//!   pool's `sweep.unit` spans, its `sweep.checkpoint_write_us`
//!   histogram and `campaign_report`, with the pool's idle time as the
//!   residual;
//! - plain on one thread (two-thread rate over one-thread rate is
//!   `sweep.scaling`);
//! - cell by cell through `BatchExecution::run` on one thread, stamping
//!   time in its strategy and output callbacks, which splits the trials'
//!   time into schedule sampling, the slot kernel and aggregation.

use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::time::Instant;

use multihonest_obs::ObsRecorder;
use multihonest_scenario::{BatchExecution, LeaderProbs};
use multihonest_sweep::{
    campaign_report, run_campaign, run_campaign_observed, CampaignOutcome, CampaignReport,
    CampaignSpec, CellAggregate, RunOptions,
};

use crate::stats::{median, quantile};
use crate::{Checks, Sample, ScratchDir, Traced, Verdict, Workload};

/// Trials per cell: 8 work units of 64 trials per cell, about 1.2·10⁷
/// slots per campaign (the default grid's 4200 would take ~12 s).
const TRIALS_PER_CELL: u64 = 512;

/// Trials per cell of the set-up warm-up campaign.
const WARMUP_TRIALS_PER_CELL: u64 = 8;

/// The default grid at `trials_per_cell` trials per cell, seeded by `seed`.
fn campaign_spec(seed: u64, trials_per_cell: u64) -> CampaignSpec {
    CampaignSpec {
        trials_per_cell,
        seed,
        ..CampaignSpec::default_grid()
    }
}

/// The order-invariant checksum of a campaign's aggregates.
fn checksum<'a>(aggregates: impl IntoIterator<Item = &'a CellAggregate>) -> u64 {
    aggregates
        .into_iter()
        .fold(0u64, |acc, a| acc.wrapping_add(a.fingerprint))
}

/// Every Wilson interval and every present theory column is finite.
fn report_is_finite(report: &CampaignReport) -> bool {
    report.cells.iter().all(|cell| {
        cell.settlement.iter().all(|s| {
            [
                s.frequency,
                s.wilson_low,
                s.wilson_high,
                s.mean_violating_anchors,
            ]
            .iter()
            .chain(s.theorem7_bound.iter())
            .chain(s.exact_reduced.iter())
            .all(|v| v.is_finite())
        })
    })
}

pub struct Campaign {
    spec: CampaignSpec,
    probs: Vec<LeaderProbs>,
    dir: ScratchDir,
    /// Aggregates of the first plain operation; later ones must match.
    reference: Option<Vec<CellAggregate>>,
}

impl Campaign {
    fn checkpoint_path(&self) -> PathBuf {
        let path = self.dir.path().join("campaign.ckpt");
        // A leftover checkpoint would turn the next run into a resume.
        let _ = std::fs::remove_file(&path);
        path
    }

    fn options(&self, threads: usize) -> RunOptions {
        RunOptions {
            threads,
            checkpoint: Some(self.checkpoint_path()),
            stop_after_cells: None,
        }
    }

    /// Checks one finished campaign against the first one.
    fn check(&mut self, op: &str, outcome: &CampaignOutcome, report: &CampaignReport) -> Verdict {
        let mut v = Verdict::default();
        v.require(outcome.is_complete(), || "campaign incomplete".to_string());
        v.require(report_is_finite(report), || {
            "a Wilson interval or theory column is not finite".to_string()
        });
        let aggregates: Vec<CellAggregate> = outcome.aggregates.iter().flatten().cloned().collect();
        match &self.reference {
            None => self.reference = Some(aggregates),
            Some(reference) => v.require(*reference == aggregates, || {
                format!(
                    "{op}: checksum {:x} differs from the first run's {:x}",
                    checksum(&aggregates),
                    checksum(reference)
                )
            }),
        }
        v
    }

    /// One campaign through `run_campaign` and `campaign_report`,
    /// returning its seconds, or `None` on error.
    fn plain(&mut self, op: &str, threads: usize, checks: &mut Checks) -> Option<f64> {
        let opts = self.options(threads);
        let t0 = Instant::now();
        let result = run_campaign(&self.spec, &opts).map(|outcome| {
            let report = campaign_report(&self.spec, &outcome);
            (outcome, report)
        });
        let secs = t0.elapsed().as_secs_f64();
        match result {
            Ok((outcome, report)) => {
                let v = self.check(op, &outcome, &report);
                checks.record(op, v);
                Some(secs)
            }
            Err(e) => {
                checks.error(op, e);
                None
            }
        }
    }
}

impl Workload for Campaign {
    const THREADS: usize = 2;

    fn setup(seed: u64, dir: &Path) -> Campaign {
        let spec = campaign_spec(seed, TRIALS_PER_CELL);
        let probs = spec
            .cells()
            .iter()
            .map(|cell| {
                LeaderProbs::weighted(
                    &spec.stakes_for(cell),
                    spec.adversarial_stake,
                    spec.active_slot_coeff,
                )
            })
            .collect();
        let dir = ScratchDir::create(dir);
        let campaign = Campaign {
            spec,
            probs,
            dir,
            reference: None,
        };
        // The warm-up writes no checkpoint: a set-up would otherwise be
        // mostly 24 fsyncs, whose latency is the disk's, not the code's.
        let warmup = campaign_spec(seed, WARMUP_TRIALS_PER_CELL);
        let opts = RunOptions {
            checkpoint: None,
            ..campaign.options(Campaign::THREADS)
        };
        run_campaign(&warmup, &opts).expect("warm-up campaign runs");
        campaign
    }

    fn sample(&mut self, index: usize, checks: &mut Checks) -> Sample {
        let secs = self
            .plain(&format!("campaign[{index}]"), Campaign::THREADS, checks)
            .unwrap_or(f64::NAN);
        Sample {
            secs,
            slots: self.spec.executions() as f64 * self.spec.slots as f64,
            cells: (self.spec.cell_count() * self.spec.ks.len()) as f64,
            rss_bytes: 0,
        }
    }

    /// Recomputes one cell (picked by the seed) trial by trial through a
    /// `BatchExecution` and checks it equals the campaign's aggregate.
    fn after_samples(&mut self, checks: &mut Checks) {
        let cells = self.spec.cells();
        let index = (self.spec.seed % cells.len() as u64) as usize;
        let cell = &cells[index];
        let mut agg = CellAggregate::new(self.spec.ks.len());
        BatchExecution::new().run(
            &self.spec.config_for(cell),
            &self.probs[index],
            &cell.fault.plan(self.spec.honest_nodes, self.spec.slots),
            (0..self.spec.trials_per_cell).map(|t| self.spec.trial_seed(index, t)),
            |_| cell.strategy.instantiate(),
            |out| {
                agg.record(
                    out.seed,
                    &out.metrics,
                    &out.divergence,
                    &self.spec.ks,
                    self.spec.slots,
                );
                agg.record_faults(&out.ledger);
            },
        );
        let mut v = Verdict::default();
        if let Some(reference) = &self.reference {
            v.require(reference[index] == agg, || {
                format!("cell {index} recomputed alone differs from the campaign's")
            });
        }
        checks.record("campaign.cell_recompute", v);
    }

    fn traced(&mut self, checks: &mut Checks) -> Traced {
        let plain_2t = self
            .plain("campaign.plain_2t", Campaign::THREADS, checks)
            .unwrap_or(f64::NAN);
        let pool = self.observed(checks);
        let plain_1t = self
            .plain("campaign.plain_1t", 1, checks)
            .unwrap_or(f64::NAN);
        let trials = self.batched(checks);

        let spec = &self.spec;
        let slots = spec.executions() as f64 * spec.slots as f64;
        let threads = Campaign::THREADS as f64;
        let units_s: f64 = pool.units_ms.iter().sum::<f64>() / 1e3;
        Traced {
            e2e_s: pool.e2e_s,
            plain_s: plain_2t,
            independent: true,
            // Worker-seconds in wall-clock equivalents (÷ threads); the
            // residual is the pool's idle time and bookkeeping.
            parts: vec![
                ("sweep.unit", units_s / threads),
                ("checkpoint", pool.checkpoint_s / threads),
                ("report", pool.report_s),
            ],
            layers: vec![
                ("schedule.ns_per_slot", trials.schedule_s / slots * 1e9),
                ("schedule.share", trials.schedule_s / trials.e2e_s),
                ("engine.ns_per_slot", trials.engine_s / slots * 1e9),
                ("engine.share", trials.engine_s / trials.e2e_s),
                ("engine.blocks", trials.blocks as f64),
                ("engine.rollbacks", trials.rollbacks as f64),
                (
                    "aggregate.ns_per_trial",
                    trials.aggregate_s / spec.executions() as f64 * 1e9,
                ),
                ("sweep.unit_ms.p50", median(&pool.units_ms)),
                ("sweep.unit_ms.p90", quantile(&pool.units_ms, 0.9)),
                ("sweep.units", pool.units_ms.len() as f64),
                (
                    "sweep.idle_share",
                    1.0 - units_s / (threads * pool.campaign_s),
                ),
                ("sweep.scaling", plain_1t / plain_2t),
                ("checkpoint.write_ms.p50", pool.checkpoint_p50_us / 1e3),
                (
                    "checkpoint.write_ms.mean",
                    pool.checkpoint_s / pool.checkpoint_writes.max(1) as f64 * 1e3,
                ),
                ("checkpoint.writes", pool.checkpoint_writes as f64),
                ("checkpoint.bytes", pool.checkpoint_bytes as f64),
                ("report.ms", pool.report_s * 1e3),
            ],
        }
    }
}

/// What the observed two-thread campaign recorded.
#[derive(Debug, Default)]
struct PoolTimes {
    /// `run_campaign_observed` plus `campaign_report`, seconds.
    e2e_s: f64,
    /// `run_campaign_observed` alone, seconds.
    campaign_s: f64,
    report_s: f64,
    units_ms: Vec<f64>,
    checkpoint_writes: u64,
    /// All checkpoint writes together, seconds.
    checkpoint_s: f64,
    /// The write histogram's p50: the upper bound of its power-of-two
    /// bucket, as the recorder keeps only buckets, count and sum.
    checkpoint_p50_us: f64,
    checkpoint_bytes: u64,
}

/// What the batched one-thread pass over the cells measured.
#[derive(Debug, Default)]
struct TrialTimes {
    e2e_s: f64,
    schedule_s: f64,
    engine_s: f64,
    aggregate_s: f64,
    blocks: u64,
    rollbacks: u64,
}

impl Campaign {
    /// The campaign through `run_campaign_observed` on two threads, then
    /// `campaign_report`: the worker pool's spans and checkpoint writes.
    fn observed(&mut self, checks: &mut Checks) -> PoolTimes {
        let opts = self.options(Campaign::THREADS);
        let mut rec = ObsRecorder::new();
        let t0 = Instant::now();
        let outcome = run_campaign_observed(&self.spec, &opts, Some(&mut rec), None);
        let t1 = Instant::now();
        let report = outcome
            .as_ref()
            .ok()
            .map(|outcome| campaign_report(&self.spec, outcome));
        let t2 = Instant::now();
        match (outcome, report) {
            (Ok(outcome), Some(report)) => {
                let v = self.check("campaign.observed", &outcome, &report);
                checks.record("campaign.observed", v);
            }
            (Err(e), _) => checks.error("campaign.observed", e),
            (Ok(_), None) => unreachable!("a report is built for every outcome"),
        }
        let units_ms = rec
            .events()
            .iter()
            .filter(|e| e.name == "sweep.unit")
            .map(|e| e.dur_us as f64 / 1e3)
            .collect();
        let (writes, sum_us, p50_us) = rec
            .registry()
            .histogram("sweep.checkpoint_write_us")
            .map_or((0, 0, 0), |h| (h.count(), h.sum(), h.quantile(0.5)));
        PoolTimes {
            e2e_s: (t2 - t0).as_secs_f64(),
            campaign_s: (t1 - t0).as_secs_f64(),
            report_s: (t2 - t1).as_secs_f64(),
            units_ms,
            checkpoint_writes: writes,
            checkpoint_s: sum_us as f64 / 1e6,
            checkpoint_p50_us: p50_us as f64,
            checkpoint_bytes: opts
                .checkpoint
                .as_ref()
                .and_then(|p| std::fs::metadata(p).ok())
                .map_or(0, |m| m.len()),
        }
    }

    /// The campaign's trials cell by cell through `BatchExecution::run`
    /// on one thread. Time is stamped when the batch asks for a trial's
    /// strategy (after it has sampled the schedule) and when it hands
    /// over the trial's output: from one output's end to the next
    /// strategy is schedule sampling, from the strategy to the output
    /// is the slot kernel, and the output callback is aggregation. The
    /// aggregates must equal the two-thread campaign's.
    fn batched(&mut self, checks: &mut Checks) -> TrialTimes {
        let spec = self.spec.clone();
        let mut t = TrialTimes::default();
        let mut batch = BatchExecution::new();
        let mut aggregates = Vec::with_capacity(spec.cell_count());
        let start = Instant::now();
        for (index, cell) in spec.cells().iter().enumerate() {
            let config = spec.config_for(cell);
            let plan = cell.fault.plan(spec.honest_nodes, spec.slots);
            let mut agg = CellAggregate::new(spec.ks.len());
            let mark = Cell::new(Instant::now());
            let (schedule_s, engine_s) = (Cell::new(0.0), Cell::new(0.0));
            batch.run(
                &config,
                &self.probs[index],
                &plan,
                (0..spec.trials_per_cell).map(|trial| spec.trial_seed(index, trial)),
                |_| {
                    let now = Instant::now();
                    schedule_s.set(schedule_s.get() + (now - mark.get()).as_secs_f64());
                    mark.set(now);
                    cell.strategy.instantiate()
                },
                |out| {
                    let t0 = Instant::now();
                    engine_s.set(engine_s.get() + (t0 - mark.get()).as_secs_f64());
                    agg.record(
                        out.seed,
                        &out.metrics,
                        &out.divergence,
                        &spec.ks,
                        spec.slots,
                    );
                    agg.record_faults(&out.ledger);
                    t.blocks += out.metrics.chain_blocks as u64;
                    t.rollbacks += out.metrics.rollback_count as u64;
                    let t1 = Instant::now();
                    t.aggregate_s += (t1 - t0).as_secs_f64();
                    mark.set(t1);
                },
            );
            t.schedule_s += schedule_s.get();
            t.engine_s += engine_s.get();
            aggregates.push(Some(agg));
        }
        t.e2e_s = start.elapsed().as_secs_f64();

        let outcome = CampaignOutcome {
            completed_cells: aggregates.len(),
            aggregates,
            resumed_cells: 0,
            executions_run: spec.executions(),
        };
        let report = campaign_report(&spec, &outcome);
        let v = self.check("campaign.batched", &outcome, &report);
        checks.record("campaign.batched", v);
        t
    }
}

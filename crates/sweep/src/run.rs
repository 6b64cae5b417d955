//! The work-stealing campaign executor.
//!
//! The campaign is flattened into `(cell, trial-chunk)` work units that
//! the workers of [`multihonest_core::pool`] claim one at a time — the
//! pool behind every parallel site, so a fast worker drains what a slow
//! one never claims and the partition of work onto threads is
//! load-driven. Results cannot depend on that partition:
//! every trial's seed is a pure function of `(root, cell, trial)` and
//! every per-cell fold is commutative ([`CellAggregate`]), so 1, 4 and 8
//! threads produce bit-identical aggregates.
//!
//! Each worker owns one [`BatchExecution`] (arena + schedule buffer) and
//! drives a whole trial chunk through it at once: the `φ(stake)` table
//! is built once per chunk ([`LeaderProbs`]), the schedule is resampled
//! in place per seed, and every execution streams through the reused
//! arena. Memory stays bounded by `O(threads · arena + cells ·
//! aggregate)` — independent of the trial count — and by the batch law
//! (see `multihonest_scenario::batch`) the aggregates are identical to
//! one-trial-at-a-time execution.
//!
//! When a checkpoint path is set, the worker that lands a cell's **last**
//! chunk flushes a [`Checkpoint`] of all completed cells (atomic
//! temp-file + rename, serialized by a flush lock). An interrupted
//! campaign therefore loses at most the cells in flight; resuming
//! validates the spec fingerprint, pre-fills the completed cells, and
//! recomputes only the remainder — byte-identical to an uninterrupted
//! run.

use std::io;
use std::ops::ControlFlow;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use multihonest_core::pool;
use multihonest_obs::{Heartbeat, ObsRecorder};
use multihonest_scenario::{BatchExecution, LeaderProbs};

use crate::aggregate::CellAggregate;
use crate::checkpoint::{Checkpoint, CompletedCell};
use crate::spec::{CampaignSpec, CellSpec};

/// Trials per work unit: small enough to load-balance a 24-cell grid
/// over 8 workers, large enough that claiming is noise.
const CHUNK: u64 = 64;

/// Execution options of a campaign run.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Worker threads (0 or 1 = single-threaded).
    pub threads: usize,
    /// Checkpoint file to resume from and flush completed cells to.
    pub checkpoint: Option<PathBuf>,
    /// Stop claiming new work once this many cells completed **in this
    /// run** (resumed cells don't count) — the interrupt injection used
    /// by the resume tests and the CI interrupt/resume smoke.
    pub stop_after_cells: Option<usize>,
}

/// The outcome of [`run_campaign`].
#[derive(Debug)]
pub struct CampaignOutcome {
    /// Per-cell aggregates; `None` for cells not completed (only under
    /// [`RunOptions::stop_after_cells`] or a checkpoint write failure).
    pub aggregates: Vec<Option<CellAggregate>>,
    /// Cells complete at the end of this run (including resumed ones).
    pub completed_cells: usize,
    /// Cells pre-filled from the checkpoint.
    pub resumed_cells: usize,
    /// Executions actually run (excludes resumed cells' trials).
    pub executions_run: u64,
}

impl CampaignOutcome {
    /// Whether every cell of the grid is complete.
    pub fn is_complete(&self) -> bool {
        self.completed_cells == self.aggregates.len()
    }
}

/// Per-cell shared state of one run.
struct CellSlot {
    agg: Mutex<CellAggregate>,
    /// Chunks still outstanding; 0 = cell complete.
    remaining: AtomicU64,
}

/// Runs (or resumes) a campaign. See the module docs for the
/// determinism and checkpoint contracts.
///
/// # Errors
///
/// Fails when the checkpoint file exists but is malformed, belongs to a
/// different spec, or cannot be written.
pub fn run_campaign(spec: &CampaignSpec, opts: &RunOptions) -> io::Result<CampaignOutcome> {
    run_campaign_observed(spec, opts, None, None)
}

/// [`run_campaign`] with observability attached: each worker records
/// into an [`ObsRecorder`] shard (shared epoch, per-worker `tid`) —
/// per-unit `sweep.unit` spans, a `sweep.queue_depth` gauge, a
/// `sweep.checkpoint_write_us` histogram — and the shards merge into
/// `obs` when the run finishes. `heartbeat` gates a periodic stderr
/// progress line (cells done, executions, slots-per-second, ETA).
///
/// Recording is observation-only: aggregates, checkpoints and outcome
/// counters are bit-identical to [`run_campaign`]'s (which delegates
/// here with both hooks disabled).
pub fn run_campaign_observed(
    spec: &CampaignSpec,
    opts: &RunOptions,
    obs: Option<&mut ObsRecorder>,
    heartbeat: Option<&mut Heartbeat>,
) -> io::Result<CampaignOutcome> {
    let cells = spec.cells();
    let num_ks = spec.ks.len();
    let fingerprint = spec.fingerprint();

    // Resume: pre-fill completed cells from the checkpoint, if any.
    let mut prefilled: Vec<Option<CellAggregate>> = vec![None; cells.len()];
    let mut resumed_cells = 0usize;
    if let Some(path) = &opts.checkpoint {
        if let Some(checkpoint) = Checkpoint::load(path, fingerprint)? {
            for done in checkpoint.completed {
                let i = done.cell as usize;
                if i >= cells.len()
                    || done.aggregate.trials != spec.trials_per_cell
                    || done.aggregate.violating_executions.len() != num_ks
                {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("checkpoint cell {i} does not fit the campaign grid"),
                    ));
                }
                resumed_cells += usize::from(prefilled[i].is_none());
                prefilled[i] = Some(done.aggregate);
            }
        }
    }

    // Work units over the incomplete cells.
    let chunks_of = |trials: u64| trials.div_ceil(CHUNK);
    let slots: Vec<CellSlot> = prefilled
        .iter()
        .map(|pre| match pre {
            Some(agg) => CellSlot {
                agg: Mutex::new(agg.clone()),
                remaining: AtomicU64::new(0),
            },
            None => CellSlot {
                agg: Mutex::new(CellAggregate::new(num_ks)),
                remaining: AtomicU64::new(chunks_of(spec.trials_per_cell)),
            },
        })
        .collect();
    let mut units: Vec<(usize, u64, u64)> = Vec::new();
    for (i, pre) in prefilled.iter().enumerate() {
        if pre.is_none() {
            let mut start = 0;
            while start < spec.trials_per_cell {
                let end = (start + CHUNK).min(spec.trials_per_cell);
                units.push((i, start, end));
                start = end;
            }
        }
    }

    let completed_this_run = AtomicUsize::new(0);
    let executions_run = AtomicU64::new(0);
    let flush_lock = Mutex::new(());
    let flush_error: Mutex<Option<io::Error>> = Mutex::new(None);

    // Observability plumbing: workers record into per-thread shards
    // (same epoch, distinct tids) handed back by the pool and merged at
    // the end; the heartbeat is shared behind a try_lock so contention
    // never blocks a worker.
    let total_units = units.len();
    let total_execs: u64 = units.iter().map(|&(_, s, e)| e - s).sum();
    let shard_proto: Option<ObsRecorder> = obs.as_ref().map(|o| o.shard(0));
    let hb: Option<Mutex<&mut Heartbeat>> = heartbeat.map(Mutex::new);

    let workers = pool::claim(
        total_units,
        opts.threads,
        |worker| {
            let rec = shard_proto.as_ref().map(|p| p.shard(worker as u32 + 1));
            (rec, BatchExecution::new())
        },
        |(rec, batch), u| {
            let (cell_index, start, end) = units[u];
            if let Some(r) = rec.as_mut() {
                use multihonest_obs::Recorder as _;
                r.gauge(
                    "sweep.queue_depth",
                    total_units.saturating_sub(u + 1) as i64,
                );
                r.span_begin("sweep.unit");
            }
            let cell: &CellSpec = &cells[cell_index];
            let config = spec.config_for(cell);
            let stakes = spec.stakes_for(cell);
            let plan = cell.fault.plan(spec.honest_nodes, spec.slots);
            let probs =
                LeaderProbs::weighted(&stakes, spec.adversarial_stake, spec.active_slot_coeff);
            let mut chunk = CellAggregate::new(num_ks);
            batch.run(
                &config,
                &probs,
                &plan,
                (start..end).map(|trial| spec.trial_seed(cell_index, trial)),
                |_| cell.strategy.instantiate(),
                |out| {
                    chunk.record(
                        out.seed,
                        &out.metrics,
                        &out.divergence,
                        &spec.ks,
                        spec.slots,
                    );
                    chunk.record_faults(&out.ledger);
                },
            );
            executions_run.fetch_add(end - start, Ordering::Relaxed);
            if let Some(r) = rec.as_mut() {
                use multihonest_obs::Recorder as _;
                r.span_end("sweep.unit");
                r.counter("sweep.executions", end - start);
            }
            if let Some(hb) = hb.as_ref() {
                if let Ok(mut h) = hb.try_lock() {
                    if let Some(elapsed) = h.due() {
                        let execs = executions_run.load(Ordering::Relaxed);
                        let cells_done = resumed_cells + completed_this_run.load(Ordering::Relaxed);
                        let slot_rate = execs as f64 * spec.slots as f64 / elapsed;
                        let eta = if execs > 0 {
                            (total_execs.saturating_sub(execs)) as f64 * elapsed / execs as f64
                        } else {
                            0.0
                        };
                        eprintln!(
                            "heartbeat[sweep]: cells {cells_done}/{}, {execs}/{total_execs} exec, \
                             {:.2} Mslots/s, ETA {eta:.0}s",
                            cells.len(),
                            slot_rate / 1e6
                        );
                    }
                }
            }
            slots[cell_index]
                .agg
                .lock()
                .expect("poisoned")
                .merge(&chunk);
            let left = slots[cell_index].remaining.fetch_sub(1, Ordering::AcqRel) - 1;
            if left > 0 {
                return ControlFlow::Continue(());
            }
            // This worker landed the cell's last chunk: count it and
            // flush the completed prefix.
            let finished = completed_this_run.fetch_add(1, Ordering::AcqRel) + 1;
            let mut flow = if opts.stop_after_cells.is_some_and(|limit| finished >= limit) {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            };
            if let Some(path) = &opts.checkpoint {
                let _serialize_writes = flush_lock.lock().expect("poisoned");
                let write_start = rec.is_some().then(Instant::now);
                let mut snapshot = Checkpoint::empty(fingerprint);
                snapshot.completed = slots
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.remaining.load(Ordering::Acquire) == 0)
                    .map(|(i, s)| CompletedCell {
                        cell: i as u64,
                        aggregate: s.agg.lock().expect("poisoned").clone(),
                    })
                    .collect();
                let written = snapshot.write(path);
                if let (Some(r), Some(t0)) = (rec.as_mut(), write_start) {
                    use multihonest_obs::Recorder as _;
                    r.observe("sweep.checkpoint_write_us", t0.elapsed().as_micros() as u64);
                }
                if let Err(e) = written {
                    *flush_error.lock().expect("poisoned") = Some(e);
                    flow = ControlFlow::Break(());
                }
            }
            flow
        },
    );

    if let Some(o) = obs {
        // Worker order is tid order, so the combined timeline is
        // deterministic for a given work partition.
        for shard in workers.into_iter().filter_map(|(rec, _)| rec) {
            o.merge(shard);
        }
    }

    if let Some(e) = flush_error.lock().expect("poisoned").take() {
        return Err(e);
    }

    let aggregates: Vec<Option<CellAggregate>> = slots
        .into_iter()
        .map(|s| {
            (s.remaining.load(Ordering::Acquire) == 0)
                .then(|| s.agg.into_inner().expect("poisoned"))
        })
        .collect();
    let completed_cells = aggregates.iter().flatten().count();
    Ok(CampaignOutcome {
        aggregates,
        completed_cells,
        resumed_cells,
        executions_run: executions_run.into_inner(),
    })
}

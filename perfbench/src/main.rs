//! The repository benchmark: four named workloads, each a fixed batch of
//! work run as a closed loop from one process, with end-to-end metrics
//! and a traced per-layer decomposition.
//!
//! ```bash
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload campaign --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Run it from the repository root. Every run sets its workload up,
//! then repeats the workload's operation until `--seconds` have passed,
//! checking each output and timing a group of fresh set-ups after each
//! operation (`setup_s` is the median of the groups' mean set-up times).
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` part of the time goes to plain operations and the
//! rest to traced operations, each paired with a plain run of the same
//! operation, whose per-layer parts plus a named residual add up to
//! their end-to-end time. The line before the last holds the run's
//! provenance, samples and check failures. See `perfbench/README.md` for
//! the workloads and metrics.

mod campaign;
mod horizon;
mod provenance;
mod stats;
mod table1;
mod validated;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use serde::{Serialize, Value};

use crate::stats::median;

const USAGE: &str = "perfbench --workload <campaign|horizon|validated|table1> --seed <u64> \
                     --seconds <n> --trace <0|1>";

/// The workload names, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = ["campaign", "horizon", "validated", "table1"];

/// Share of each operation's time spent, after it, on a group of set-ups
/// that are timed for `setup_s` and dropped (at least one).
const SETUP_SHARE: f64 = 0.1;

/// Share of a traced run's time given to plain operations (which carry
/// the output checks); the rest goes to traced operations.
const TRACED_PLAIN_SHARE: f64 = 0.35;

/// How far the per-layer parts plus the residual may miss the traced
/// end-to-end time: the residual (time no layer accounts for) must stay
/// within this share of it.
const RESIDUAL_TOLERANCE: f64 = 0.10;

/// The end-to-end metrics with their units (`--trace 0`).
const END_TO_END: [(&str, &str); 4] = [
    ("slots_per_s", "1/s"),
    ("dp_cells_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// The per-layer metrics with their units (`--trace 1`). A workload
/// reports 0 for a layer it does not run.
const PER_LAYER: [(&str, &str); 33] = [
    ("schedule.ns_per_slot", "ns"),
    ("schedule.share", "ratio"),
    ("engine.ns_per_slot", "ns"),
    ("engine.share", "ratio"),
    ("engine.blocks", "count"),
    ("engine.rollbacks", "count"),
    ("aggregate.ns_per_trial", "ns"),
    ("sweep.unit_ms.p50", "ms"),
    ("sweep.unit_ms.p90", "ms"),
    ("sweep.units", "count"),
    ("sweep.idle_share", "ratio"),
    ("sweep.scaling", "ratio"),
    ("checkpoint.write_ms.p50", "ms"),
    ("checkpoint.write_ms.mean", "ms"),
    ("checkpoint.writes", "count"),
    ("checkpoint.bytes", "bytes"),
    ("report.ms", "ms"),
    ("horizon.segment_ms.p50", "ms"),
    ("horizon.compaction_ms.p50", "ms"),
    ("horizon.compactions", "count"),
    ("horizon.compaction_accept_ratio", "ratio"),
    ("horizon.wal_append_ms.p50", "ms"),
    ("horizon.wal_bytes", "bytes"),
    ("horizon.peak_live_blocks", "count"),
    ("pipeline.ns_per_slot", "ns"),
    ("pipeline.share", "ratio"),
    ("pipeline.vertices", "count"),
    ("pipeline.margin_events", "count"),
    ("dp.pair_ms.p50", "ms"),
    ("dp.pair_ms.max", "ms"),
    ("dp.idle_share", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.residual_share", "ratio"),
];

/// One plain operation of a workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sample {
    /// Wall-clock seconds of the operation.
    pub secs: f64,
    /// Slots the operation covered (see the workload docs for the unit).
    pub slots: f64,
    /// Settlement cells the operation produced.
    pub cells: f64,
    /// Peak resident memory during the operation, in bytes.
    pub rss_bytes: u64,
}

/// The result of one traced operation.
#[derive(Debug, Clone, Default)]
pub struct Traced {
    /// Wall-clock seconds of the traced operation.
    pub e2e_s: f64,
    /// Seconds of the same operation run plain just before it (the base
    /// of `trace.overhead`).
    pub plain_s: f64,
    /// Whether the parts are timed apart from `e2e_s`, so that the
    /// reconciliation can fail and is a checked operation. Where a part
    /// is `e2e_s` less the others, the sum holds by construction and is
    /// only reported.
    pub independent: bool,
    /// The layers' parts of `e2e_s`, in wall-clock seconds; the residual
    /// is what they leave over.
    pub parts: Vec<(&'static str, f64)>,
    /// Per-layer metric values (names from [`PER_LAYER`]).
    pub layers: Vec<(&'static str, f64)>,
}

/// The failed conditions of one checked operation.
#[derive(Debug, Default)]
pub struct Verdict(Vec<String>);

impl Verdict {
    /// Records `what` as failed unless `ok`.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.0.push(what());
        }
    }
}

/// Operations attempted and failed in one run: the source of
/// `attempted`, `failed` and the error rate.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Checks {
    /// Counts one operation, failed when `verdict` holds any failure.
    pub fn record(&mut self, op: &str, verdict: Verdict) {
        self.attempted += 1;
        if !verdict.0.is_empty() {
            self.failed += 1;
            self.failures
                .push(format!("{op}: {}", verdict.0.join("; ")));
        }
    }

    /// Counts one operation that returned an error.
    pub fn error(&mut self, op: &str, err: impl std::fmt::Display) {
        let mut v = Verdict::default();
        v.require(false, || format!("returned Err: {err}"));
        self.record(op, v);
    }
}

/// A workload: set-up, one plain operation, and one traced operation.
pub trait Workload: Sized {
    /// Worker threads the workload runs on.
    const THREADS: usize;

    /// Distinct inputs the operations cycle over: operation `i` runs
    /// input `i % INPUTS`. A plain run makes at least one operation on
    /// each, and an end-to-end metric is the median over the inputs of
    /// each input's median, so every input weighs the same however many
    /// operations fit in a run.
    const INPUTS: usize = 1;

    /// Builds the workload's inputs from `seed`, creating its scratch
    /// directory `dir`, and warms it up. Dropping it removes `dir`.
    fn setup(seed: u64, dir: &Path) -> Self;

    /// Runs and checks plain operation number `index`.
    fn sample(&mut self, index: usize, checks: &mut Checks) -> Sample;

    /// Cross-checks the plain operations once they are done (untimed).
    fn after_samples(&mut self, _checks: &mut Checks) {}

    /// Runs and checks one traced operation, right after a plain run of
    /// the same operation.
    fn traced(&mut self, checks: &mut Checks) -> Traced;
}

/// A scratch directory inside the checkout, removed on drop.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates `path` (and its parents).
    pub fn create(path: &Path) -> ScratchDir {
        std::fs::create_dir_all(path).expect("create a scratch directory in the checkout");
        ScratchDir(path.to_path_buf())
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[derive(Debug)]
struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .filter(|v| !v.starts_with("--"))
            .ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value.as_str())
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must be in 1..=600".to_string());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    /// glibc: returns the heap's free memory to the kernel.
    fn malloc_trim(pad: usize) -> std::os::raw::c_int;
}

/// Resets the kernel's peak-RSS mark (`VmHWM`) to the current RSS, so
/// the next read covers one operation. Returns whether it worked; where
/// it does not, the process-wide peak is reported instead.
///
/// Memory that earlier operations freed is first handed back to the
/// kernel, so that every operation starts from the same resident
/// baseline rather than from whatever the allocator happened to keep.
fn reset_peak_rss() -> bool {
    // SAFETY: `malloc_trim` only releases free heap pages; it takes no
    // pointers and is safe to call at any time.
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    unsafe {
        malloc_trim(0);
    }
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Everything one run measured, ready to print.
struct RunResult {
    threads: usize,
    inputs: usize,
    setup_secs: Vec<Vec<f64>>,
    samples: Vec<Sample>,
    peak_reset: bool,
    traced: Vec<Traced>,
    checks: Checks,
}

fn run<W: Workload>(args: &Args, scratch: &Path) -> RunResult {
    let mut checks = Checks::default();
    let mut setups = 0;
    let mut setup = || {
        setups += 1;
        let t0 = Instant::now();
        let workload = W::setup(args.seed, &scratch.join(format!("setup{setups}")));
        (workload, t0.elapsed().as_secs_f64())
    };
    let (mut workload, first_setup_s) = setup();
    // Set-up seconds in groups: the first set-up alone, then the group
    // after each operation.
    let mut setup_secs = vec![vec![first_setup_s]];

    let start = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let (plain_budget, min_samples) = if args.trace {
        (budget.mul_f64(TRACED_PLAIN_SHARE), 2)
    } else {
        (budget, W::INPUTS.max(3))
    };
    // Start another operation only if it is likely to end within the
    // budget: the run stays close to `--seconds` whatever an operation
    // takes.
    let due = |last_secs: f64, budget: Duration| {
        start.elapsed().as_secs_f64() + last_secs / 2.0 < budget.as_secs_f64()
    };
    let mut samples: Vec<Sample> = Vec::new();
    let mut peak_reset = true;
    while samples.len() < min_samples || due(samples.last().map_or(0.0, |s| s.secs), plain_budget) {
        peak_reset &= reset_peak_rss();
        let mut sample = workload.sample(samples.len(), &mut checks);
        sample.rss_bytes = multihonest_obs::peak_rss_bytes().unwrap_or(0);
        // Fresh set-ups after each operation, timed and dropped, for
        // `SETUP_SHARE` of its time: the groups span the run as the
        // operations do, and each group's mean spans phases of host
        // load as an operation does, where one short set-up falls in a
        // single phase.
        let t0 = Instant::now();
        let mut group = Vec::new();
        while group.is_empty() || t0.elapsed().as_secs_f64() < SETUP_SHARE * sample.secs {
            let (dropped, secs) = setup();
            drop(dropped);
            group.push(secs);
        }
        setup_secs.push(group);
        samples.push(sample);
    }
    workload.after_samples(&mut checks);
    let mut traced = Vec::new();
    let mut last_secs = 0.0;
    while args.trace && (traced.is_empty() || due(last_secs, budget)) {
        let t0 = Instant::now();
        traced.push(workload.traced(&mut checks));
        last_secs = t0.elapsed().as_secs_f64();
    }
    RunResult {
        threads: W::THREADS,
        inputs: W::INPUTS,
        setup_secs,
        samples,
        peak_reset,
        traced,
        checks,
    }
}

/// A JSON object with `members` in order.
pub fn object<'a>(members: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
    Value::Object(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The per-layer metric values of a traced run, in [`PER_LAYER`] order,
/// each the median over its traced operations, plus the reconciliation
/// (parts, residual); an operation whose parts are timed apart from its
/// end-to-end time is checked against it.
fn per_layer(ops: &[Traced], checks: &mut Checks) -> (Vec<f64>, Value) {
    let mut residuals = Vec::with_capacity(ops.len());
    for (i, op) in ops.iter().enumerate() {
        let parts_sum: f64 = op.parts.iter().map(|&(_, s)| s).sum();
        let residual = op.e2e_s - parts_sum;
        let share = residual / op.e2e_s;
        let mut v = Verdict::default();
        v.require(share.abs() <= RESIDUAL_TOLERANCE, || {
            format!(
                "parts sum to {parts_sum:.4}s of {:.4}s traced: residual share {share:.4} \
                 outside ±{RESIDUAL_TOLERANCE}",
                op.e2e_s
            )
        });
        for &(name, secs) in &op.parts {
            v.require(secs >= 0.0, || format!("part {name} is negative ({secs}s)"));
        }
        if op.independent {
            checks.record(&format!("trace.reconcile[{i}]"), v);
        }
        residuals.push(residual);
    }
    let over_ops = |f: &dyn Fn(&Traced) -> f64| median(&ops.iter().map(f).collect::<Vec<_>>());
    let values = PER_LAYER
        .iter()
        .map(|&(name, _)| match name {
            "trace.overhead" => over_ops(&|op| op.e2e_s / op.plain_s),
            "trace.residual_share" => median(
                &ops.iter()
                    .zip(&residuals)
                    .map(|(op, r)| r / op.e2e_s)
                    .collect::<Vec<_>>(),
            ),
            // A layer the workload does not run reads 0.
            _ => over_ops(&|op| {
                op.layers
                    .iter()
                    .find(|&&(n, _)| n == name)
                    .map_or(0.0, |&(_, v)| v)
            }),
        })
        .collect();

    let part_names = ops.first().map_or(&[][..], |op| &op.parts[..]);
    let parts = part_names
        .iter()
        .enumerate()
        .map(|(i, &(name, _))| {
            let part = over_ops(&|op| op.parts.get(i).map_or(f64::NAN, |p| p.1));
            (name, part.to_value())
        })
        .chain([("residual", median(&residuals).to_value())]);
    let reconciliation = object([
        ("operations", ops.len().to_value()),
        (
            "checked",
            ops.first().is_some_and(|op| op.independent).to_value(),
        ),
        ("traced_e2e_s", over_ops(&|op| op.e2e_s).to_value()),
        ("plain_e2e_s", over_ops(&|op| op.plain_s).to_value()),
        ("parts_s", object(parts)),
        ("residual_tolerance", RESIDUAL_TOLERANCE.to_value()),
    ]);
    (values, reconciliation)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\nusage: {USAGE}");
            std::process::exit(2);
        }
    };
    let scratch = ScratchDir::create(&PathBuf::from(format!(
        ".perfbench_tmp/{}-{}",
        args.workload,
        std::process::id()
    )));
    let result = match args.workload {
        "campaign" => run::<campaign::Campaign>(&args, scratch.path()),
        "horizon" => run::<horizon::Horizon>(&args, scratch.path()),
        "validated" => run::<validated::Validated>(&args, scratch.path()),
        "table1" => run::<table1::Table1>(&args, scratch.path()),
        other => unreachable!("parse_args admits only known workloads, got {other}"),
    };
    drop(scratch);
    let _ = std::fs::remove_dir(".perfbench_tmp");
    let RunResult {
        threads,
        inputs,
        setup_secs,
        samples,
        peak_reset,
        traced,
        mut checks,
    } = result;

    let rate = |f: fn(&Sample) -> f64| {
        let per_input: Vec<f64> = (0..inputs)
            .map(|input| {
                let values: Vec<f64> = samples.iter().skip(input).step_by(inputs).map(f).collect();
                median(&values)
            })
            .take(samples.len())
            .collect();
        median(&per_input)
    };
    let end_to_end = vec![
        rate(|s| s.slots / s.secs),
        rate(|s| s.cells / s.secs),
        rate(|s| s.rss_bytes as f64 / 1e6),
        median(
            &setup_secs
                .iter()
                .map(|g| g.iter().sum::<f64>() / g.len() as f64)
                .collect::<Vec<_>>(),
        ),
    ];
    let (names, values, reconciliation) = if traced.is_empty() {
        (&END_TO_END[..], end_to_end.clone(), None)
    } else {
        let (values, reconciliation) = per_layer(&traced, &mut checks);
        (&PER_LAYER[..], values, Some(reconciliation))
    };
    let mut v = Verdict::default();
    for (&(name, _), value) in names.iter().zip(&values) {
        v.require(value.is_finite(), || format!("metric {name} is not finite"));
    }
    checks.record("metrics", v);

    // The line before the last: what produced the run, and its detail.
    let error_rate = checks.failed as f64 / checks.attempted.max(1) as f64;
    let e2e = END_TO_END
        .iter()
        .zip(&end_to_end)
        .map(|(&(name, _), value)| (name, value.to_value()))
        .chain([("error_rate", error_rate.to_value())]);
    let mut detail = vec![
        ("workload", args.workload.to_value()),
        (
            "provenance",
            provenance::collect(args.seed, threads, args.seconds, args.trace),
        ),
        ("error_rate", error_rate.to_value()),
        ("setup_s", setup_secs.to_value()),
        (
            "sample_s",
            samples
                .iter()
                .map(|s| s.secs)
                .collect::<Vec<_>>()
                .to_value(),
        ),
        (
            "sample_rss_mb",
            samples
                .iter()
                .map(|s| s.rss_bytes as f64 / 1e6)
                .collect::<Vec<_>>()
                .to_value(),
        ),
        ("peak_rss_per_sample", peak_reset.to_value()),
        ("end_to_end", object(e2e)),
    ];
    detail.extend(reconciliation.map(|r| ("reconciliation", r)));
    detail.push(("failures", checks.failures.to_value()));
    println!("{}", to_line(&object(detail)));

    let metrics = names.iter().zip(values).map(|(&(name, unit), value)| {
        (
            name,
            object([("value", value.to_value()), ("unit", unit.to_value())]),
        )
    });
    let result = object([
        ("correct", (checks.failed == 0).to_value()),
        ("attempted", checks.attempted.to_value()),
        ("failed", checks.failed.to_value()),
        ("metrics", object(metrics)),
    ]);
    println!("{}", to_line(&result));
}

/// One line of JSON.
fn to_line(value: &Value) -> String {
    serde_json::to_string(value).expect("a Value always renders")
}

//! The `validated` workload: a 10⁶-slot private-withholding execution
//! (6 nodes, α = 0.3, f = 0.3, Δ = 2) through `run_streaming_validated`,
//! the slot kernel with the streaming fork pipeline attached, on one
//! thread. One operation samples the schedule from the seed, runs the
//! validated execution, and counts the settlement violations at the
//! horizon report's `k`s on its divergence index.
//!
//! A traced operation follows a plain one: its three calls are timed
//! apart, and the kernel alone (`run_streaming_in` on the same schedule,
//! no hook) is timed beside it. The validated time minus the kernel-only
//! time is the fork pipeline's part, an ablation differential rather
//! than a stamp inside the slot loop. Since that part is the rest of the
//! validated call's time, the parts add up to the operation's time by
//! construction: the reconciliation is reported, not checked.

use std::time::Instant;

use multihonest_scenario::{
    run_streaming_validated, ColumnarSchedule, ColumnarSimulation, ExecutionArena, LeaderProbs,
    ValidatedExecution,
};
use multihonest_sim::metrics::{Metrics, MetricsSink};
use multihonest_sim::{SimConfig, Strategy, TieBreak};

use crate::{Checks, Sample, Traced, Verdict, Workload};

/// Slots per execution.
const SLOTS: usize = 1_000_000;

/// Slots of the set-up warm-up execution.
const WARMUP_SLOTS: usize = 20_000;

/// Settlement parameters counted on the divergence index.
const KS: [usize; 4] = [16, 32, 64, 128];

/// The `forkflow` shape over `slots` slots.
fn config(slots: usize) -> SimConfig {
    SimConfig {
        honest_nodes: 6,
        adversarial_stake: 0.3,
        active_slot_coeff: 0.3,
        delta: 2,
        slots,
        tie_break: TieBreak::AdversarialOrder,
        strategy: Strategy::PrivateWithholding,
    }
}

/// Counts the margin channel's `on_margin` calls.
#[derive(Debug, Default)]
struct MarginEvents(u64);

impl MetricsSink for MarginEvents {
    fn on_margin(&mut self, _slot: usize, _rho: i64, _margin: i64) {
        self.0 += 1;
    }
}

/// Everything one operation's output is checked on.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    valid: bool,
    vertices: usize,
    margin_events: u64,
    rho: i64,
    margin: i64,
    metrics: Metrics,
    violating_anchors: Vec<usize>,
}

/// Seconds of one operation's calls.
#[derive(Debug, Clone, Copy)]
struct Times {
    schedule_s: f64,
    validated_s: f64,
    count_s: f64,
    total_s: f64,
}

pub struct Validated {
    seed: u64,
    probs: LeaderProbs,
    schedule: ColumnarSchedule,
    /// The first operation's outcome; later ones must equal it.
    reference: Option<Outcome>,
}

impl Validated {
    /// One operation: schedule, validated execution, violation counts.
    fn operation(&mut self, slots: usize) -> (Outcome, Times) {
        let config = config(slots);
        let t0 = Instant::now();
        self.schedule
            .resample_from_probs(&self.probs, slots, self.seed);
        let mut strategy = config.strategy.instantiate();
        let t1 = Instant::now();
        let mut events = MarginEvents::default();
        let out: ValidatedExecution =
            run_streaming_validated(&config, &self.schedule, strategy.as_mut(), &mut events);
        let t2 = Instant::now();
        let violating_anchors = KS
            .iter()
            .map(|&k| out.divergence.count_violations(k, slots))
            .collect();
        let t3 = Instant::now();
        let outcome = Outcome {
            valid: out.pipeline.validation.is_ok(),
            vertices: out.pipeline.fork.vertex_count(),
            margin_events: events.0,
            rho: out.pipeline.rho,
            margin: out.pipeline.margin,
            metrics: out.metrics,
            violating_anchors,
        };
        let times = Times {
            schedule_s: (t1 - t0).as_secs_f64(),
            validated_s: (t2 - t1).as_secs_f64(),
            count_s: (t3 - t2).as_secs_f64(),
            total_s: (t3 - t0).as_secs_f64(),
        };
        (outcome, times)
    }

    /// One plain operation, checked.
    fn plain(&mut self, op: &str, checks: &mut Checks) -> Sample {
        let (outcome, times) = self.operation(SLOTS);
        let cells = outcome.violating_anchors.len() as f64;
        let v = self.check(outcome);
        checks.record(op, v);
        Sample {
            secs: times.total_s,
            slots: SLOTS as f64,
            cells,
            rss_bytes: 0,
        }
    }

    fn check(&mut self, outcome: Outcome) -> Verdict {
        let mut v = Verdict::default();
        v.require(outcome.valid, || "fork verdict is not Ok(())".to_string());
        match &self.reference {
            None => self.reference = Some(outcome),
            Some(first) => v.require(*first == outcome, || {
                format!(
                    "{} vertices / {} margin events differ from the first run's {} / {}",
                    outcome.vertices, outcome.margin_events, first.vertices, first.margin_events
                )
            }),
        }
        v
    }
}

impl Workload for Validated {
    const THREADS: usize = 1;

    fn setup(seed: u64, _dir: &std::path::Path) -> Validated {
        let mut validated = Validated {
            seed,
            probs: LeaderProbs::uniform(6, 0.3, 0.3),
            schedule: ColumnarSchedule::empty(),
            reference: None,
        };
        let (warmup, _) = validated.operation(WARMUP_SLOTS);
        assert!(warmup.valid, "warm-up execution validates");
        validated
    }

    fn sample(&mut self, index: usize, checks: &mut Checks) -> Sample {
        self.plain(&format!("validated[{index}]"), checks)
    }

    fn traced(&mut self, checks: &mut Checks) -> Traced {
        let plain_s = self.plain("validated.plain", checks).secs;
        let (outcome, times) = self.operation(SLOTS);
        let config = config(SLOTS);
        let mut strategy = config.strategy.instantiate();
        let t0 = Instant::now();
        ColumnarSimulation::run_streaming_in(
            &mut ExecutionArena::new(),
            &config,
            &self.schedule,
            strategy.as_mut(),
            &mut (),
        );
        let engine_s = t0.elapsed().as_secs_f64();
        let v = self.check(outcome.clone());
        checks.record("validated.traced", v);
        let Times {
            schedule_s,
            validated_s,
            count_s,
            total_s: e2e_s,
        } = times;
        let pipeline_s = validated_s - engine_s;
        let slots = SLOTS as f64;
        Traced {
            e2e_s,
            plain_s,
            independent: false,
            parts: vec![
                ("schedule", schedule_s),
                ("engine", engine_s),
                ("pipeline", pipeline_s),
                ("aggregate", count_s),
            ],
            layers: vec![
                ("schedule.ns_per_slot", schedule_s / slots * 1e9),
                ("schedule.share", schedule_s / e2e_s),
                ("engine.ns_per_slot", engine_s / slots * 1e9),
                ("engine.share", engine_s / e2e_s),
                ("engine.blocks", outcome.metrics.chain_blocks as f64),
                ("engine.rollbacks", outcome.metrics.rollback_count as f64),
                ("aggregate.ns_per_trial", count_s * 1e9),
                ("pipeline.ns_per_slot", pipeline_s / slots * 1e9),
                ("pipeline.share", pipeline_s / e2e_s),
                ("pipeline.vertices", outcome.vertices as f64),
                ("pipeline.margin_events", outcome.margin_events as f64),
            ],
        }
    }
}

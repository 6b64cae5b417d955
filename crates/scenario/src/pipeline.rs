//! The streaming fork pipeline: online Δ-axiom validation and margin
//! tracking inside the columnar slot loop.
//!
//! A `ForkPipeline` rides the engine as a per-slot hook: at the end of
//! every slot it classifies the slot from the schedule, folds the slot's
//! freshly minted blocks into a [`ForkFold`] (the incremental fork
//! builder with its slot-ordered, `O(1)`-per-vertex axiom checks), and
//! drives a **margin channel** — the streaming Δ-reduction `ρ_Δ`
//! ([`StreamingReduction`]) feeding the Theorem 5 [`MarginState`]
//! recurrence, with each reduced symbol's `(ρ, µ)` reported through
//! [`MetricsSink::on_margin`].
//!
//! The payoff is the acceptance bar of the streaming refactor: a
//! 10⁶-slot columnar execution leaves [`Execution::validated`] with
//! its fork built, its (F1)–(F3)+(F4Δ) verdict decided and its margin
//! trajectory streamed, in one pass, with **no** reference-engine replay
//! and no post-hoc `validate_delta` sweep over the finished fork.
//!
//! Two invariants make the fold cheap:
//!
//! * the columnar engine mints every block at the *current* slot (the
//!   `SlotContext` pins the mint slot), so the store's tail between two
//!   hook calls is exactly the new slot's blocks, in mint order — the
//!   fold's slot-ordered contract;
//! * block ids are dense with genesis `0`, so fork vertex ids equal
//!   block ids and a block's parent is its parent's vertex.

use multihonest_chars::{Reduction, SemiString, StreamingReduction, Symbol};
use multihonest_fork::{Fork, ForkError, ForkFold, VertexId};
use multihonest_margin::recurrence::MarginState;
use multihonest_obs::Recorder;
use multihonest_sim::consistency::DivergenceIndex;
use multihonest_sim::fault::DegradationLedger;
use multihonest_sim::metrics::{Metrics, MetricsSink};
use multihonest_sim::strategy::AdversaryStrategy;
use multihonest_sim::SimConfig;

use crate::engine::{Execution, SlotHook};
use crate::schedule::ColumnarSchedule;
use crate::store::ColumnarStore;

/// The streaming fork pipeline: a [`SlotHook`] that builds the
/// execution's fork, validates the Δ-axioms and streams the margin
/// channel while the columnar engine runs. [`Execution::validated`]
/// attaches one and calls [`finish`](ForkPipeline::finish) after the run.
#[derive(Debug)]
pub(crate) struct ForkPipeline<'a> {
    schedule: &'a ColumnarSchedule,
    fold: ForkFold,
    /// Blocks consumed from the store so far (genesis pre-consumed).
    synced: usize,
    reduction: StreamingReduction,
    margin: MarginState,
    /// Scratch for the reduction's per-push emissions.
    reduced: Vec<(usize, Symbol)>,
}

impl<'a> ForkPipeline<'a> {
    /// A pipeline for delay bound `delta` over `schedule` (which supplies
    /// the per-slot classification the store alone cannot).
    pub(crate) fn new(delta: usize, schedule: &'a ColumnarSchedule) -> ForkPipeline<'a> {
        ForkPipeline {
            schedule,
            fold: ForkFold::new(delta),
            synced: 1,
            reduction: Reduction::new(delta).streaming(),
            margin: MarginState::at_split(0),
            reduced: Vec::new(),
        }
    }

    /// Finishes the pipeline: flushes the reduction's pending window
    /// (emitting any final margin observations into `sink`), closes the
    /// (F3) completeness check and hands back fork and verdicts.
    pub(crate) fn finish<S: MetricsSink>(self, sink: &mut S) -> PipelineOutput {
        let ForkPipeline {
            fold,
            reduction,
            mut margin,
            mut reduced,
            ..
        } = self;
        reduced.clear();
        reduction.finish(&mut reduced);
        for &(slot, sym) in &reduced {
            margin.step(sym);
            sink.on_margin(slot, margin.rho(), margin.mu());
        }
        let streamed = fold.finish();
        PipelineOutput {
            fork: streamed.fork,
            characteristic_string: streamed.semi,
            validation: streamed.validation,
            rho: margin.rho(),
            margin: margin.mu(),
        }
    }
}

impl<S: MetricsSink> SlotHook<S> for ForkPipeline<'_> {
    fn on_slot_end(&mut self, slot: usize, store: &ColumnarStore, sink: &mut S) {
        let sym = self.schedule.classify(slot);
        self.fold.push_symbol(sym);
        // The store's tail since the last call is exactly this slot's
        // mints (engine contexts pin the mint slot to the current slot).
        while self.synced < store.len() {
            let id = self.synced as u32;
            assert_eq!(
                store.slot(id),
                slot,
                "columnar blocks are minted at the current slot"
            );
            let parent = store.parent(id).expect("non-genesis") as usize;
            let v = self.fold.push_vertex(VertexId::from_index(parent));
            debug_assert_eq!(v.index(), self.synced, "dense block/vertex id alignment");
            self.synced += 1;
        }
        // Margin channel: Δ-reduce this slot's symbol; every reduced
        // symbol it resolves advances the Theorem 5 recurrence.
        self.reduced.clear();
        self.reduction.push(sym, &mut self.reduced);
        for &(original_slot, reduced_sym) in &self.reduced {
            self.margin.step(reduced_sym);
            sink.on_margin(original_slot, self.margin.rho(), self.margin.mu());
        }
    }
}

/// The fork and verdicts of a validated execution.
#[derive(Debug, Clone)]
pub struct PipelineOutput {
    /// The execution's fork (block ids ↔ vertex ids, genesis ↔ root).
    pub fork: Fork,
    /// The execution's semi-synchronous characteristic string.
    pub characteristic_string: SemiString,
    /// The online (F1)–(F3)+(F4Δ) verdict — `validate_delta`-equivalent
    /// at the `is_ok` level, with no second pass over the fork.
    pub validation: Result<(), ForkError>,
    /// Final reach `ρ` of the Δ-reduced characteristic string.
    pub rho: i64,
    /// Final relative margin `µ_ε` of the Δ-reduced string (`≥ 0` means
    /// the string admits two maximum-length tines diverging at genesis).
    pub margin: i64,
}

/// A fully validated streaming execution: engine outputs plus the
/// pipeline's fork and verdicts.
#[derive(Debug, Clone)]
pub struct ValidatedExecution {
    /// End-of-run metrics.
    pub metrics: Metrics,
    /// The settlement index.
    pub divergence: DivergenceIndex,
    /// The fault-degradation ledger (empty for fault-free runs).
    pub ledger: DegradationLedger,
    /// The pipeline's fork and verdicts.
    pub pipeline: PipelineOutput,
}

impl<S: MetricsSink, R: Recorder> Execution<'_, S, R> {
    /// Runs streaming with the fork pipeline attached: one pass over the
    /// horizon yields metrics, settlement index, fault ledger, the
    /// execution's fork, its online Δ-axiom verdict and the margin
    /// trajectory (streamed through the sink's
    /// [`on_margin`](MetricsSink::on_margin)). The pipeline only observes,
    /// so metrics, index and ledger equal those of [`Execution::stream`].
    pub fn validated(mut self) -> ValidatedExecution {
        let mut pipeline = ForkPipeline::new(self.config.delta, self.schedule);
        let (out, ledger, _) = self.drive(false, &mut pipeline);
        ValidatedExecution {
            metrics: out.metrics,
            divergence: out.divergence,
            ledger,
            pipeline: pipeline.finish(&mut self.sink),
        }
    }
}

/// A fault-free validated execution on a fresh arena — shorthand for
/// `Execution::new(..).sink(sink).validated()`.
pub fn run_streaming_validated<S: MetricsSink>(
    config: &SimConfig,
    schedule: &ColumnarSchedule,
    strategy: &mut dyn AdversaryStrategy,
    sink: &mut S,
) -> ValidatedExecution {
    Execution::new(config, schedule, strategy)
        .sink(sink)
        .validated()
}

#[cfg(test)]
mod tests {
    use super::*;
    use multihonest_fork::validate::validate_delta;
    use multihonest_margin::recurrence;
    use multihonest_sim::{LeaderSchedule, Simulation, Strategy, TieBreak};

    fn cfg(strategy: Strategy, delta: usize, slots: usize) -> SimConfig {
        SimConfig {
            honest_nodes: 6,
            adversarial_stake: 0.3,
            active_slot_coeff: 0.3,
            delta,
            slots,
            tie_break: TieBreak::AdversarialOrder,
            strategy,
        }
    }

    /// Collects the margin channel.
    #[derive(Default)]
    struct MarginLog(Vec<(usize, i64, i64)>);
    impl MetricsSink for MarginLog {
        fn on_margin(&mut self, slot: usize, rho: i64, margin: i64) {
            self.0.push((slot, rho, margin));
        }
    }

    #[test]
    fn validated_run_matches_reference_fork_and_batch_oracle() {
        for strategy in Strategy::ALL {
            for delta in [0usize, 2] {
                let config = cfg(strategy, delta, 300);
                let seed = 11;
                let schedule = ColumnarSchedule::for_config(&config, seed);
                let mut s1 = config.strategy.instantiate();
                let mut log = MarginLog::default();
                let out = run_streaming_validated(&config, &schedule, s1.as_mut(), &mut log);
                // Online verdict ≡ batch oracle over the streamed fork.
                assert_eq!(
                    out.pipeline.validation.is_ok(),
                    validate_delta(
                        &out.pipeline.fork,
                        &out.pipeline.characteristic_string,
                        delta
                    )
                    .is_ok(),
                    "parity broke for {strategy} delta {delta}"
                );
                assert_eq!(out.pipeline.validation, Ok(()), "{strategy} delta {delta}");
                // The streamed fork is bit-identical to the reference
                // engine's extraction (same mint order, dense ids).
                let refr = Simulation::run(&config, seed);
                assert_eq!(
                    &out.pipeline.fork,
                    refr.fork().fork(),
                    "fork diverged for {strategy} delta {delta}"
                );
                assert_eq!(
                    out.pipeline.characteristic_string,
                    schedule.characteristic_string()
                );
                // Metrics and index are those of the unhooked run — the
                // hook observes, never perturbs.
                let mut s2 = config.strategy.instantiate();
                let (metrics, index, _) = Execution::new(&config, &schedule, s2.as_mut()).stream();
                assert_eq!(out.metrics, metrics);
                assert_eq!(out.divergence, index);
            }
        }
    }

    #[test]
    fn margin_channel_matches_batch_reduction_and_recurrence() {
        for delta in [0usize, 1, 3] {
            let config = cfg(Strategy::PrivateWithholding, delta, 400);
            let schedule = ColumnarSchedule::for_config(&config, 23);
            let mut strategy = config.strategy.instantiate();
            let mut log = MarginLog::default();
            let out = run_streaming_validated(&config, &schedule, strategy.as_mut(), &mut log);
            // Expected channel: batch-reduce the characteristic string,
            // then walk the Theorem 5 recurrence prefix by prefix.
            let reduced = Reduction::new(delta).apply(&schedule.characteristic_string());
            let trace = recurrence::margin_trace(reduced.reduced(), 0);
            assert_eq!(log.0.len(), reduced.len(), "one event per reduced symbol");
            let mut reach = recurrence::ReachState::new();
            for (j, &(slot, rho, margin)) in log.0.iter().enumerate() {
                assert_eq!(slot, reduced.original_slot(j + 1), "slot alignment at {j}");
                reach.step(reduced.reduced().get(j + 1));
                assert_eq!(rho, reach.rho(), "ρ at reduced symbol {j}");
                assert_eq!(margin, trace[j + 1], "µ at reduced symbol {j}");
            }
            assert_eq!(out.pipeline.rho, reach.rho());
            assert_eq!(out.pipeline.margin, *trace.last().unwrap());
        }
    }

    #[test]
    fn validated_run_under_faults_stays_consistent() {
        use multihonest_sim::{FaultDirective, FaultPlan};
        // A partition lasting 6 slots: at Δ = 2 it *breaks* Δ-synchrony
        // (honest deliveries stall past the window, so honest blocks stop
        // gaining depth — a genuine (F4Δ) violation the validator must
        // observe), while at Δ = 8 the stalls stay inside the window and
        // the axioms hold. Either way the streaming verdict must agree
        // with the batch oracle and the fork must match the reference
        // engine's extraction.
        let plan = FaultPlan::new().with(FaultDirective::Partition {
            groups: vec![vec![0, 1, 2], vec![3, 4, 5]],
            start: 40,
            heal_slot: 46,
        });
        let mut arena = crate::ExecutionArena::new();
        for (delta, expect_ok) in [(2usize, false), (8, true)] {
            let config = cfg(Strategy::PrivateWithholding, delta, 300);
            let schedule = ColumnarSchedule::for_config(&config, 13);
            let mut strategy = config.strategy.instantiate();
            let out = Execution::new(&config, &schedule, strategy.as_mut())
                .faults(&plan)
                .arena(&mut arena)
                .validated();
            assert_eq!(
                out.pipeline.validation.is_ok(),
                expect_ok,
                "Δ = {delta}: partition vs window"
            );
            assert_eq!(
                out.pipeline.validation.is_ok(),
                validate_delta(
                    &out.pipeline.fork,
                    &out.pipeline.characteristic_string,
                    delta
                )
                .is_ok(),
                "parity broke under faults at Δ = {delta}"
            );
            assert!(out.ledger.deferred > 0, "the partition must bite");
            // Faulty executions stay trace-identical across engines, so
            // the streamed fork still matches the reference extraction.
            let rs = LeaderSchedule::for_config(&config, 13);
            let mut s2 = config.strategy.instantiate();
            let (refr, _) = Simulation::run_with_schedule_faults(&config, rs, s2.as_mut(), &plan);
            assert_eq!(&out.pipeline.fork, refr.fork().fork());
        }
    }
}

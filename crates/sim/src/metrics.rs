//! Execution metrics: chain growth, chain quality, divergence.
//!
//! Metrics are **streamed**: both execution engines (the reference
//! [`Simulation`](crate::Simulation) and the columnar scenario core) fold
//! their per-slot observations through a [`MetricsAccumulator`] as the run
//! progresses, so finishing a million-slot execution never requires
//! holding `O(slots)` metric buffers. Callers that want their own per-slot
//! hooks (progress bars, histogram sinks, trace writers) implement
//! [`MetricsSink`] and receive the same observation stream the accumulator
//! does.

/// A per-slot observation stream from an execution engine.
///
/// Implementations must not assume anything beyond the documented call
/// order: `on_slot` fires exactly once per simulated slot, in increasing
/// slot order, after that slot's deliveries have been applied;
/// `on_rollback` fires zero or more times per slot, *before* that slot's
/// `on_slot` call, once per honest node that switched onto a
/// non-descendant chain.
///
/// The unit type `()` is the no-op sink.
pub trait MetricsSink {
    /// One honest node rolled its chain back at `slot`: its previous tip
    /// (height `old_height`) was abandoned for a non-descendant chain of
    /// height `new_height`.
    fn on_rollback(&mut self, slot: usize, old_height: usize, new_height: usize) {
        let _ = (slot, old_height, new_height);
    }

    /// End-of-slot summary: the number of distinct honest tips, the best
    /// (maximum) height among them, and the largest slot divergence
    /// between any two of them observed at this boundary.
    fn on_slot(
        &mut self,
        slot: usize,
        distinct_tips: usize,
        best_height: usize,
        divergence: usize,
    ) {
        let _ = (slot, distinct_tips, best_height, divergence);
    }

    /// Fault injection parked a delivery for `recipient` at `slot`,
    /// deferring it to `deferred_to` at the earliest. Fires zero or more
    /// times per slot, before that slot's `on_slot`, and only when a
    /// non-empty fault plan is active — fault-free runs never see it.
    fn on_fault_deferral(&mut self, slot: usize, recipient: usize, deferred_to: usize) {
        let _ = (slot, recipient, deferred_to);
    }

    /// A margin observation from a streaming margin channel (e.g. the
    /// columnar fork pipeline): at the execution slot `slot`, the reach
    /// `ρ` and relative margin `µ` of the Δ-reduced characteristic string
    /// consumed so far. Fires once per *reduced* symbol, at most `Δ` slots
    /// after the symbol's originating slot (the reduction's emission lag).
    fn on_margin(&mut self, slot: usize, rho: i64, margin: i64) {
        let _ = (slot, rho, margin);
    }
}

/// The no-op sink: million-slot runs that only want the final [`Metrics`]
/// pass `&mut ()` and pay nothing per slot.
impl MetricsSink for () {}

/// Forwarding makes `&mut S` usable wherever a sink value is expected,
/// so callers can lend one sink to a run and read it afterwards.
impl<S: MetricsSink + ?Sized> MetricsSink for &mut S {
    #[inline]
    fn on_rollback(&mut self, slot: usize, old_height: usize, new_height: usize) {
        (**self).on_rollback(slot, old_height, new_height);
    }

    #[inline]
    fn on_slot(&mut self, slot: usize, distinct_tips: usize, best_height: usize, div: usize) {
        (**self).on_slot(slot, distinct_tips, best_height, div);
    }

    #[inline]
    fn on_fault_deferral(&mut self, slot: usize, recipient: usize, deferred_to: usize) {
        (**self).on_fault_deferral(slot, recipient, deferred_to);
    }

    #[inline]
    fn on_margin(&mut self, slot: usize, rho: i64, margin: i64) {
        (**self).on_margin(slot, rho, margin);
    }
}

/// Streaming accumulator behind [`Metrics`]: folds the per-slot
/// observation stream into `O(1)` state. Engines drive it through the
/// [`MetricsSink`] impl and call [`MetricsAccumulator::finish`] with the
/// end-of-run facts (final chain shape, settlement lag) once the loop
/// ends.
#[derive(Debug, Clone, Default)]
pub struct MetricsAccumulator {
    slots: usize,
    max_divergence: usize,
    rollbacks: usize,
}

impl MetricsAccumulator {
    /// A fresh accumulator (no slots observed).
    pub fn new() -> MetricsAccumulator {
        MetricsAccumulator::default()
    }

    /// The largest slot divergence observed so far.
    pub fn max_slot_divergence(&self) -> usize {
        self.max_divergence
    }

    /// The raw fold state `(slots, max_divergence, rollbacks)` — what an
    /// execution checkpoint must persist to resume the fold mid-run.
    pub fn state(&self) -> (usize, usize, usize) {
        (self.slots, self.max_divergence, self.rollbacks)
    }

    /// Rebuilds an accumulator from
    /// [`state`](MetricsAccumulator::state), continuing the fold exactly
    /// where the checkpointed run left off.
    pub fn restore(slots: usize, max_divergence: usize, rollbacks: usize) -> MetricsAccumulator {
        MetricsAccumulator {
            slots,
            max_divergence,
            rollbacks,
        }
    }

    /// Completes the fold with the end-of-run facts that are not per-slot
    /// observations: active-slot count (a schedule property), the final
    /// chain shape read off the best tip, and the maximum settlement lag
    /// read off the divergence index.
    pub fn finish(
        self,
        active_slots: usize,
        final_height: usize,
        chain_blocks: usize,
        honest_chain_blocks: usize,
        max_settlement_lag: Option<usize>,
    ) -> Metrics {
        Metrics {
            slots: self.slots,
            active_slots,
            final_height,
            chain_blocks,
            honest_chain_blocks,
            max_slot_divergence: self.max_divergence,
            rollback_count: self.rollbacks,
            max_settlement_lag,
        }
    }
}

impl MetricsSink for MetricsAccumulator {
    fn on_rollback(&mut self, _slot: usize, _old_height: usize, _new_height: usize) {
        self.rollbacks += 1;
    }

    fn on_slot(
        &mut self,
        slot: usize,
        _distinct_tips: usize,
        _best_height: usize,
        divergence: usize,
    ) {
        self.slots = self.slots.max(slot);
        self.max_divergence = self.max_divergence.max(divergence);
    }
}

/// Fans the observation stream out to two sinks — how an engine drives
/// its internal [`MetricsAccumulator`] and a caller-supplied sink in one
/// pass.
#[derive(Debug)]
pub struct TeeSink<'a, A, B> {
    /// First sink.
    pub a: &'a mut A,
    /// Second sink.
    pub b: &'a mut B,
}

impl<A: MetricsSink, B: MetricsSink> MetricsSink for TeeSink<'_, A, B> {
    fn on_rollback(&mut self, slot: usize, old_height: usize, new_height: usize) {
        self.a.on_rollback(slot, old_height, new_height);
        self.b.on_rollback(slot, old_height, new_height);
    }

    fn on_slot(&mut self, slot: usize, distinct_tips: usize, best_height: usize, div: usize) {
        self.a.on_slot(slot, distinct_tips, best_height, div);
        self.b.on_slot(slot, distinct_tips, best_height, div);
    }

    fn on_fault_deferral(&mut self, slot: usize, recipient: usize, deferred_to: usize) {
        self.a.on_fault_deferral(slot, recipient, deferred_to);
        self.b.on_fault_deferral(slot, recipient, deferred_to);
    }

    fn on_margin(&mut self, slot: usize, rho: i64, margin: i64) {
        self.a.on_margin(slot, rho, margin);
        self.b.on_margin(slot, rho, margin);
    }
}

/// Summary statistics of a finished execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metrics {
    /// Total slots simulated.
    pub slots: usize,
    /// Slots with at least one leader.
    pub active_slots: usize,
    /// Height of the longest honest-held chain at the end.
    pub final_height: usize,
    /// Blocks (excluding genesis) on node 0's final chain.
    pub chain_blocks: usize,
    /// Honest blocks among [`Metrics::chain_blocks`].
    pub honest_chain_blocks: usize,
    /// The largest slot divergence ever observed between two honest
    /// nodes' chains at a slot boundary (paper Definition 25's metric,
    /// applied to the honest views): an observed `k`-CP^slot violation
    /// exists exactly when this exceeds `k`.
    pub max_slot_divergence: usize,
    /// Number of recorded honest rollbacks (tip switches onto
    /// non-descendant chains) across the whole execution.
    pub rollback_count: usize,
    /// The largest `k` for which some anchor slot's `k`-settlement was
    /// observably violated (paper Definition 3): the maximum over anchors
    /// `s` of `latest diverging observation − s`, `None` when no
    /// divergence prior to any anchor was ever observed.
    pub max_settlement_lag: Option<usize>,
}

impl Metrics {
    /// Chain growth rate: final height per slot. In the honest-only
    /// synchronous setting this approaches the active-slot density.
    pub fn chain_growth(&self) -> f64 {
        if self.slots == 0 {
            return 0.0;
        }
        self.final_height as f64 / self.slots as f64
    }

    /// Chain quality: fraction of honest blocks on the final chain.
    pub fn chain_quality(&self) -> f64 {
        if self.chain_blocks == 0 {
            return 1.0;
        }
        self.honest_chain_blocks as f64 / self.chain_blocks as f64
    }

    /// Whether the execution exhibited a `k`-CP^slot violation between
    /// honest views.
    pub fn observed_cp_violation(&self, k: usize) -> bool {
        self.max_slot_divergence > k
    }

    /// Whether **any** anchor slot's `k`-settlement was observably
    /// violated — the `O(1)` emptiness check behind
    /// [`Simulation::first_violating_slot`](crate::Simulation::first_violating_slot).
    pub fn observed_settlement_violation(&self, k: usize) -> bool {
        self.max_settlement_lag.is_some_and(|lag| lag >= k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_rates() {
        let m = Metrics {
            slots: 100,
            active_slots: 40,
            final_height: 30,
            chain_blocks: 30,
            honest_chain_blocks: 24,
            max_slot_divergence: 5,
            rollback_count: 2,
            max_settlement_lag: Some(7),
        };
        assert!((m.chain_growth() - 0.3).abs() < 1e-12);
        assert!((m.chain_quality() - 0.8).abs() < 1e-12);
        assert!(m.observed_cp_violation(4));
        assert!(!m.observed_cp_violation(5));
        assert!(m.observed_settlement_violation(7));
        assert!(!m.observed_settlement_violation(8));
    }

    #[test]
    fn degenerate_cases() {
        let m = Metrics {
            slots: 0,
            active_slots: 0,
            final_height: 0,
            chain_blocks: 0,
            honest_chain_blocks: 0,
            max_slot_divergence: 0,
            rollback_count: 0,
            max_settlement_lag: None,
        };
        assert_eq!(m.chain_growth(), 0.0);
        assert_eq!(m.chain_quality(), 1.0);
        assert!(!m.observed_settlement_violation(0));
    }

    #[test]
    fn accumulator_streams_divergence_and_rollbacks() {
        let mut acc = MetricsAccumulator::new();
        acc.on_slot(1, 1, 1, 0);
        acc.on_rollback(2, 3, 4);
        acc.on_slot(2, 2, 2, 5);
        acc.on_rollback(3, 1, 2);
        acc.on_slot(3, 1, 3, 2);
        assert_eq!(acc.max_slot_divergence(), 5);
        let m = acc.finish(2, 3, 3, 2, Some(1));
        assert_eq!(m.slots, 3);
        assert_eq!(m.max_slot_divergence, 5);
        assert_eq!(m.rollback_count, 2);
        assert_eq!(m.chain_blocks, 3);
    }

    #[test]
    fn tee_sink_feeds_both() {
        let mut a = MetricsAccumulator::new();
        let mut b = MetricsAccumulator::new();
        let mut tee = TeeSink {
            a: &mut a,
            b: &mut b,
        };
        tee.on_slot(1, 1, 1, 7);
        tee.on_rollback(1, 0, 1);
        assert_eq!(a.max_slot_divergence(), 7);
        assert_eq!(b.max_slot_divergence(), 7);
    }
}

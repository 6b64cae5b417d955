//! The Δ-conservatism validation harness.
//!
//! The fault layer's core guarantee is **deferral, not loss**: every
//! honest delivery of a bounded fault plan arrives within
//! `Δ′ = Δ + worst_case_extra_delay` slots of its broadcast
//! ([`FaultPlan::worst_case_delta`]). A faulty Δ-synchronous execution
//! is therefore *also* a fault-free Δ′-synchronous execution, and the
//! paper's Δ′-model must bound it: the empirical per-anchor
//! settlement-violation frequency of a faulty campaign may not exceed
//! the Δ′-reduced model's per-anchor violation probability — neither
//! the **exact** margin DP value ([`ExactSettlement`], the optimal
//! rushing adversary in the Δ′ model) nor the looser closed-form
//! **Theorem 7** tail bound.
//!
//! [`check_conservatism`] runs one [`FaultScenario`] for a batch of
//! seeded trials, measures the violation tail and the degradation
//! ledger, evaluates both Δ′-model predictions, and reports per-`k`
//! verdicts. Scenarios with unbounded plans (a never-recovering crash)
//! have no Δ′ and get no verdict — the model makes no claim there.
//!
//! [`FaultPlan::worst_case_delta`]: multihonest_sim::FaultPlan::worst_case_delta

use multihonest_analytic::theorem7_bound;
use multihonest_margin::ExactSettlement;
use multihonest_scenario::{Execution, ExecutionArena, FaultScenario};
use serde::Serialize;

use crate::report::leadership_condition;
use crate::spec::mix;

/// The per-`k` verdict of one scenario.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ConservatismEstimate {
    /// Settlement parameter.
    pub k: u64,
    /// Executions with ≥ 1 violating anchor.
    pub violating_executions: u64,
    /// Total violating anchor slots over all executions.
    pub violating_anchors: u64,
    /// Empirical per-anchor violation frequency:
    /// `violating_anchors / (trials × slots)`.
    pub per_anchor_frequency: f64,
    /// Exact margin-DP per-anchor violation probability in the Δ′ model
    /// (`None` when Δ′ is unbounded or inadmissible).
    pub exact_reduced: Option<f64>,
    /// Theorem 7 closed-form per-anchor tail bound at Δ′.
    pub theorem7_bound: Option<f64>,
    /// Whether every available Δ′-model prediction bounds the empirical
    /// frequency; `None` when no prediction is available.
    pub conservative: Option<bool>,
}

/// The conservatism verdict of one [`FaultScenario`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ScenarioConservatism {
    /// [`FaultScenario::name`].
    ///
    /// [`FaultScenario::name`]: multihonest_scenario::FaultScenario
    pub scenario: String,
    /// The scenario's base network delay bound Δ.
    pub delta: u64,
    /// The plan's static Δ′ bound (`None` = unbounded plan).
    pub delta_prime: Option<u64>,
    /// Worst observed effective Δ over all trials — must stay ≤ Δ′.
    pub observed_effective_delta: u64,
    /// Fault-deferred delivery events over all trials.
    pub deferred: u64,
    /// Deliveries dropped at the horizon over all trials (non-zero only
    /// for unbounded plans).
    pub dropped: u64,
    /// Seeded trials run.
    pub trials: u64,
    /// Per-`k` verdicts, aligned with the requested `ks`.
    pub rows: Vec<ConservatismEstimate>,
    /// The scenario verdict: `Some(false)` if any row's prediction was
    /// exceeded **or** the observed effective Δ escaped the static Δ′
    /// bound, `None` if no row had a prediction, `Some(true)` otherwise.
    pub conservative: Option<bool>,
}

/// Runs `trials` seeded executions of `scenario` and checks the
/// Δ′-model's conservatism (module docs). Deterministic in
/// `(scenario, trials, ks, seed)`.
pub fn check_conservatism(
    scenario: &FaultScenario,
    trials: u64,
    ks: &[usize],
    seed: u64,
) -> ScenarioConservatism {
    let config = &scenario.config;
    let slots = config.slots;
    let mut arena = ExecutionArena::new();
    let mut violating_executions = vec![0u64; ks.len()];
    let mut violating_anchors = vec![0u64; ks.len()];
    let mut observed_effective_delta = 0usize;
    let mut deferred = 0u64;
    let mut dropped = 0u64;
    for trial in 0..trials {
        let trial_seed = mix(mix(seed ^ mix(trial)) ^ 0xFA_0715);
        let schedule = scenario.schedule(trial_seed);
        let mut strategy = config.strategy.instantiate();
        let (_, index, ledger) = Execution::new(config, &schedule, strategy.as_mut())
            .faults(&scenario.plan)
            .arena(&mut arena)
            .stream();
        for (i, &k) in ks.iter().enumerate() {
            let anchors = index.count_violations(k, slots) as u64;
            violating_anchors[i] += anchors;
            violating_executions[i] += u64::from(anchors > 0);
        }
        observed_effective_delta = observed_effective_delta.max(ledger.worst_effective_delta);
        deferred += ledger.deferred;
        dropped += ledger.dropped;
    }

    let delta_prime = scenario.worst_case_delta();
    let stakes =
        vec![(1.0 - config.adversarial_stake) / config.honest_nodes as f64; config.honest_nodes];
    let condition =
        leadership_condition(config.active_slot_coeff, config.adversarial_stake, &stakes);
    let exact_probs: Option<Vec<f64>> = condition
        .as_ref()
        .ok()
        .zip(delta_prime)
        .and_then(|(c, dp)| c.reduced_condition(dp).ok())
        .map(|reduced| ExactSettlement::new(reduced).violation_probabilities(ks));
    let anchors_total = (trials * slots as u64).max(1) as f64;
    let rows: Vec<ConservatismEstimate> = ks
        .iter()
        .enumerate()
        .map(|(i, &k)| {
            let per_anchor_frequency = violating_anchors[i] as f64 / anchors_total;
            let exact_reduced = exact_probs.as_ref().map(|p| p[i]);
            let t7 = condition
                .as_ref()
                .ok()
                .zip(delta_prime)
                .and_then(|(c, dp)| theorem7_bound(c, dp, k).ok());
            let bounds: Vec<f64> = exact_reduced.iter().chain(t7.iter()).copied().collect();
            let conservative = (!bounds.is_empty())
                .then(|| bounds.iter().all(|&b| per_anchor_frequency <= b + 1e-12));
            ConservatismEstimate {
                k: k as u64,
                violating_executions: violating_executions[i],
                violating_anchors: violating_anchors[i],
                per_anchor_frequency,
                exact_reduced,
                theorem7_bound: t7,
                conservative,
            }
        })
        .collect();
    let verdicts: Vec<bool> = rows.iter().filter_map(|r| r.conservative).collect();
    let within_bound = delta_prime.is_none_or(|dp| observed_effective_delta <= dp);
    let conservative = (!verdicts.is_empty()).then(|| within_bound && verdicts.iter().all(|&v| v));
    ScenarioConservatism {
        scenario: scenario.name.to_string(),
        delta: config.delta as u64,
        delta_prime: delta_prime.map(|d| d as u64),
        observed_effective_delta: observed_effective_delta as u64,
        deferred,
        dropped,
        trials,
        rows,
        conservative,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multihonest_scenario::fault_library;

    #[test]
    fn fault_library_is_conservative_under_the_delta_prime_model() {
        for sc in fault_library(400) {
            let verdict = check_conservatism(&sc, 12, &[8, 24], 0xC0FFEE);
            assert_eq!(verdict.trials, 12, "{}", sc.name);
            assert_eq!(
                verdict.dropped, 0,
                "{}: bounded plans drop nothing",
                sc.name
            );
            let dp = verdict.delta_prime.expect("library plans are bounded");
            assert!(
                verdict.observed_effective_delta <= dp,
                "{}: observed {} > Δ′ {dp}",
                sc.name,
                verdict.observed_effective_delta
            );
            assert_eq!(
                verdict.conservative,
                Some(true),
                "{}: Δ′-model prediction exceeded: {:?}",
                sc.name,
                verdict.rows
            );
        }
    }

    #[test]
    fn verdicts_are_deterministic() {
        let lib = fault_library(400);
        let a = check_conservatism(&lib[0], 6, &[8], 7);
        let b = check_conservatism(&lib[0], 6, &[8], 7);
        assert_eq!(a, b);
    }

    #[test]
    fn unbounded_plans_get_no_verdict() {
        use multihonest_sim::{FaultDirective, FaultPlan};
        let mut sc = fault_library(400).remove(0);
        sc.plan = FaultPlan::new().with(FaultDirective::Crash {
            node: 0,
            at: 10,
            recover_slot: usize::MAX,
        });
        let verdict = check_conservatism(&sc, 4, &[8], 3);
        assert_eq!(verdict.delta_prime, None);
        assert_eq!(verdict.conservative, None);
        for row in &verdict.rows {
            assert_eq!(row.exact_reduced, None);
            assert_eq!(row.conservative, None);
        }
        assert!(verdict.dropped > 0, "never-recovering crash drops");
    }
}

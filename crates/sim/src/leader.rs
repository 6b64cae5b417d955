//! Leader election.
//!
//! Ouroboros-family protocols elect leaders with a verifiable random
//! function evaluated against the stake distribution: node `i` with
//! relative stake `α_i` leads a slot independently with probability
//! `φ_f(α_i) = 1 − (1 − f)^{α_i}` — the *independent aggregation* property
//! that makes the per-slot outcome a product of per-node Bernoulli draws.
//! The analysis never inspects VRF internals, only the induced per-slot
//! classification, so we sample the Bernoulli draws directly from a seeded
//! PRNG. The classification matches paper Definitions 1 and 20:
//!
//! * no leader → `⊥`;
//! * at least one adversarial leader → `A`;
//! * exactly one (honest) leader → `h`;
//! * several honest leaders, no adversarial → `H`.

use multihonest_chars::{SemiString, SemiSymbol};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::SimConfig;

/// Validates a heterogeneous stake partition: every honest stake is
/// non-negative and the stakes plus the adversarial stake sum to 1.
///
/// The sum is computed with **compensated (Kahan) summation** and checked
/// against a tolerance that scales with the profile size: a naive f64 sum
/// of `n` normalized weights carries `O(n·ε)` rounding, so for large
/// profiles (e.g. a 10⁴-node Zipf stake distribution) an absolute `1e-9`
/// check on the naive sum can spuriously reject stakes that *do*
/// partition the total. This helper is the single validation path shared
/// by [`LeaderSchedule::sample_weighted`] and the columnar schedule's
/// counterpart, so the two can never drift apart again.
///
/// # Panics
///
/// Panics if a stake is negative or the compensated total differs from 1
/// beyond the size-scaled tolerance.
pub fn validate_stake_partition(honest_stakes: &[f64], adversarial_stake: f64) {
    assert!(
        honest_stakes.iter().all(|&s| s >= 0.0),
        "stakes are non-negative"
    );
    // Kahan summation: the compensated error is O(ε), independent of n.
    let mut sum = adversarial_stake;
    let mut c = 0.0f64;
    for &s in honest_stakes {
        let y = s - c;
        let t = sum + y;
        c = (t - sum) - y;
        sum = t;
    }
    // The target total is 1, so this is a relative tolerance too: 1e-9
    // for algorithmic mistakes (stakes that genuinely don't partition),
    // plus an n-scaled ulp allowance for the rounding already baked into
    // the caller's normalization of the individual stakes.
    let tolerance = 1e-9 + 4.0 * honest_stakes.len() as f64 * f64::EPSILON;
    assert!(
        (sum - 1.0).abs() <= tolerance,
        "stakes must partition the total (got {sum})"
    );
}

/// The leaders of a single slot.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SlotLeaders {
    /// Indices of honest leader nodes.
    pub honest: Vec<usize>,
    /// Whether any adversarial stake led this slot (the adversary pools
    /// its stake, so a single flag suffices: one adversarial leader can
    /// sign arbitrarily many equivocating blocks anyway).
    pub adversarial: bool,
}

impl SlotLeaders {
    /// The characteristic-string classification of this slot.
    pub fn classify(&self) -> SemiSymbol {
        if self.adversarial {
            SemiSymbol::Adversarial
        } else {
            match self.honest.len() {
                0 => SemiSymbol::Empty,
                1 => SemiSymbol::UniqueHonest,
                _ => SemiSymbol::MultiHonest,
            }
        }
    }
}

/// The full leader schedule of an execution.
///
/// The schedule is drawn up-front: the paper's model hands the adversary
/// full knowledge of the future schedule ("public leader schedules",
/// Section 2.2), which only strengthens the adversary.
#[derive(Debug, Clone)]
pub struct LeaderSchedule {
    slots: Vec<SlotLeaders>,
}

impl LeaderSchedule {
    /// Samples a schedule for `slots` slots.
    ///
    /// `honest_nodes` honest parties share the honest stake equally; the
    /// adversary holds relative stake `adversarial_stake ∈ [0, 1)`. The
    /// active-slot coefficient `f ∈ (0, 1)` fixes
    /// `Pr[some leader in a slot] = f` via `φ_f`.
    ///
    /// # Panics
    ///
    /// Panics if the parameters leave their documented ranges or
    /// `honest_nodes == 0`.
    pub fn sample(
        honest_nodes: usize,
        adversarial_stake: f64,
        active_slot_coeff: f64,
        slots: usize,
        seed: u64,
    ) -> LeaderSchedule {
        assert!(honest_nodes > 0, "need at least one honest node");
        let honest_share = (1.0 - adversarial_stake) / honest_nodes as f64;
        LeaderSchedule::sample_weighted(
            &vec![honest_share; honest_nodes],
            adversarial_stake,
            active_slot_coeff,
            slots,
            seed,
        )
    }

    /// Samples the uniform-stake schedule `config` describes —
    /// [`LeaderSchedule::sample`] over its node count, stake,
    /// active-slot coefficient and horizon.
    pub fn for_config(config: &SimConfig, seed: u64) -> LeaderSchedule {
        LeaderSchedule::sample(
            config.honest_nodes,
            config.adversarial_stake,
            config.active_slot_coeff,
            config.slots,
            seed,
        )
    }

    /// Samples a schedule with **heterogeneous** honest stake: node `i`
    /// holds absolute relative stake `honest_stakes[i]`, leading each slot
    /// independently with probability `φ_f(honest_stakes[i])`. The stakes
    /// plus the adversarial stake must partition the total (sum to 1).
    ///
    /// [`LeaderSchedule::sample`] is the uniform special case and draws
    /// **identically** for equal stakes: the per-node Bernoulli draws
    /// happen in node order, then the adversarial draw, per slot.
    ///
    /// # Panics
    ///
    /// Panics if the parameters leave their documented ranges, a stake is
    /// negative, or the stakes do not sum (with the adversary) to 1.
    pub fn sample_weighted(
        honest_stakes: &[f64],
        adversarial_stake: f64,
        active_slot_coeff: f64,
        slots: usize,
        seed: u64,
    ) -> LeaderSchedule {
        assert!(!honest_stakes.is_empty(), "need at least one honest node");
        assert!(
            (0.0..1.0).contains(&adversarial_stake),
            "adversarial stake in [0, 1)"
        );
        assert!(
            active_slot_coeff > 0.0 && active_slot_coeff < 1.0,
            "active slot coefficient in (0, 1)"
        );
        validate_stake_partition(honest_stakes, adversarial_stake);
        let mut rng = StdRng::seed_from_u64(seed);
        let phi = |alpha: f64| 1.0 - (1.0 - active_slot_coeff).powf(alpha);
        let p_honest: Vec<f64> = honest_stakes.iter().map(|&s| phi(s)).collect();
        let p_adv = phi(adversarial_stake);
        let mut out = Vec::with_capacity(slots);
        for _ in 0..slots {
            let mut leaders = SlotLeaders::default();
            for (node, &p) in p_honest.iter().enumerate() {
                if rng.gen::<f64>() < p {
                    leaders.honest.push(node);
                }
            }
            leaders.adversarial = rng.gen::<f64>() < p_adv;
            out.push(leaders);
        }
        LeaderSchedule { slots: out }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Returns `true` when the schedule covers no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The leaders of `slot` (1-based).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is 0 or exceeds the schedule length.
    pub fn leaders(&self, slot: usize) -> &SlotLeaders {
        assert!(
            slot >= 1 && slot <= self.slots.len(),
            "slot {slot} out of range"
        );
        &self.slots[slot - 1]
    }

    /// The semi-synchronous characteristic string of the schedule.
    pub fn characteristic_string(&self) -> SemiString {
        self.slots.iter().map(SlotLeaders::classify).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        let s = SlotLeaders {
            honest: vec![],
            adversarial: false,
        };
        assert_eq!(s.classify(), SemiSymbol::Empty);
        let s = SlotLeaders {
            honest: vec![3],
            adversarial: false,
        };
        assert_eq!(s.classify(), SemiSymbol::UniqueHonest);
        let s = SlotLeaders {
            honest: vec![1, 2],
            adversarial: false,
        };
        assert_eq!(s.classify(), SemiSymbol::MultiHonest);
        let s = SlotLeaders {
            honest: vec![1],
            adversarial: true,
        };
        assert_eq!(s.classify(), SemiSymbol::Adversarial);
    }

    #[test]
    fn schedule_is_deterministic_in_seed() {
        let a = LeaderSchedule::sample(5, 0.2, 0.1, 200, 9);
        let b = LeaderSchedule::sample(5, 0.2, 0.1, 200, 9);
        assert_eq!(a.characteristic_string(), b.characteristic_string());
        let c = LeaderSchedule::sample(5, 0.2, 0.1, 200, 10);
        assert_ne!(a.characteristic_string(), c.characteristic_string());
    }

    #[test]
    fn frequencies_match_phi() {
        let f = 0.2;
        let adv = 0.3;
        let nodes = 4;
        let slots = 200_000;
        let sched = LeaderSchedule::sample(nodes, adv, f, slots, 31);
        let w = sched.characteristic_string();
        // Pr[slot has any leader]: 1 − (1−f)^{total stake = 1} = f.
        let active =
            w.symbols().iter().filter(|s| !s.is_empty_slot()).count() as f64 / slots as f64;
        assert!((active - f).abs() < 0.01, "active = {active}");
        // Pr[A] = φ(adv stake).
        let p_adv = 1.0 - (1.0 - f).powf(adv);
        let fa = w.symbols().iter().filter(|s| s.is_adversarial()).count() as f64 / slots as f64;
        assert!((fa - p_adv).abs() < 0.01, "fa = {fa} vs {p_adv}");
    }

    #[test]
    fn aggregate_independence() {
        // φ_f's defining property: total leadership probability depends
        // only on total stake, not on how it is split among nodes.
        let f = 0.15;
        let slots = 200_000;
        let few = LeaderSchedule::sample(2, 0.0, f, slots, 1).characteristic_string();
        let many = LeaderSchedule::sample(20, 0.0, f, slots, 2).characteristic_string();
        let active = |w: &SemiString| {
            w.symbols().iter().filter(|s| !s.is_empty_slot()).count() as f64 / slots as f64
        };
        assert!((active(&few) - f).abs() < 0.01);
        assert!((active(&many) - f).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "at least one honest node")]
    fn zero_honest_nodes_rejected() {
        let _ = LeaderSchedule::sample(0, 0.2, 0.1, 10, 1);
    }

    #[test]
    fn large_normalized_profiles_validate() {
        // Regression: the old validation summed naively and checked an
        // absolute 1e-9, which large normalized profiles can exceed
        // through accumulated rounding alone. A 10⁴-node Zipf-like
        // profile must sample without a stake-sum panic.
        let n = 10_000usize;
        let weights: Vec<f64> = (0..n).map(|i| 1.0 / (i + 1) as f64).collect();
        let sum: f64 = weights.iter().sum();
        let stakes: Vec<f64> = weights.iter().map(|&w| 0.7 * w / sum).collect();
        let sched = LeaderSchedule::sample_weighted(&stakes, 0.3, 0.25, 3, 7);
        assert_eq!(sched.len(), 3);
        // The n-scaled tolerance also covers a million-entry profile.
        validate_stake_partition(&vec![0.6 / 1e6; 1_000_000], 0.4);
    }

    #[test]
    #[should_panic(expected = "partition the total")]
    fn genuinely_broken_partition_still_rejected() {
        validate_stake_partition(&[0.35, 0.35], 0.3 - 1e-3);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_stake_rejected() {
        validate_stake_partition(&[0.8, -0.1], 0.3);
    }
}

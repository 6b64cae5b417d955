//! The streaming-pipeline law suite: the online `ForkFold` verdict must
//! equal the batch `validate_delta` oracle (at the `is_ok` level — the
//! streaming parity contract) over random strategy × Δ × fault
//! executions on **both** engines and over random slot-ordered vertex
//! streams (where the out-of-order `StreamValidator` must agree too),
//! the streamed columnar fork must be bit-identical to the reference
//! engine's extraction, and the frozen 10⁵-slot streaming-validation
//! fingerprints in `testutil` must reproduce exactly.

use multihonest::fork::validate::validate_delta;
use multihonest::prelude::*;
use multihonest::scenario::{ColumnarSchedule, Execution};
use multihonest::sim::{FaultDirective, FaultPlan};
// `Strategy` would be ambiguous between the prelude's enum and
// proptest's trait under two glob imports — pin the enum explicitly.
use multihonest::sim::Strategy;
use multihonest_testutil::golden;
use proptest::prelude::*;

#[test]
fn streaming_validation_pins_reproduce() {
    golden::assert_streaming_validation_pins();
}

/// The fault plan of one proptest case: `0` is the empty plan, the rest
/// cycle through the directive kinds with proptest-chosen windows.
fn plan_for(kind: usize, start: usize, len: usize) -> FaultPlan {
    let start = start.max(1);
    match kind {
        0 => FaultPlan::default(),
        1 => FaultPlan::new().with(FaultDirective::Partition {
            groups: vec![vec![0, 1, 2], vec![3, 4, 5]],
            start,
            heal_slot: start + len,
        }),
        2 => FaultPlan::new().with(FaultDirective::Crash {
            node: 1,
            at: start,
            recover_slot: start + len,
        }),
        _ => FaultPlan::new().with(FaultDirective::MessageLoss {
            p: 0.5,
            salt: 0xF00D,
            start,
            until: start + len,
        }),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// streaming `ForkFold` ≡ batch `validate_delta` on random
    /// strategy × Δ × fault executions, on both engines — and the two
    /// engines stream the same fork.
    #[test]
    fn streaming_verdict_matches_batch_oracle(
        strategy_idx in 0usize..3,
        delta in 0usize..4,
        slots in 60usize..300,
        seed in 0u64..1_000,
        fault_kind in 0usize..4,
        fault_start in 1usize..200,
        fault_len in 1usize..12,
    ) {
        let config = SimConfig {
            honest_nodes: 6,
            adversarial_stake: 0.3,
            active_slot_coeff: 0.3,
            delta,
            slots,
            tie_break: TieBreak::AdversarialOrder,
            strategy: Strategy::ALL[strategy_idx],
        };
        let plan = plan_for(fault_kind, fault_start.min(slots - 1), fault_len);

        // Columnar engine: one pass builds, validates and margin-tracks
        // the fork online.
        let schedule = ColumnarSchedule::for_config(&config, seed);
        let mut s1 = config.strategy.instantiate();
        let out = Execution::new(&config, &schedule, s1.as_mut()).faults(&plan).validated();
        let batch = validate_delta(
            &out.pipeline.fork,
            &out.pipeline.characteristic_string,
            delta,
        );
        prop_assert_eq!(
            out.pipeline.validation.is_ok(),
            batch.is_ok(),
            "columnar streaming/batch parity broke: streaming {:?}, batch {:?}",
            out.pipeline.validation,
            batch
        );

        // Reference engine: extraction streams through the same ForkFold;
        // its verdict must agree with its own batch oracle, and its fork
        // with the columnar pipeline's.
        let rs = multihonest::sim::LeaderSchedule::for_config(&config, seed);
        let mut s2 = config.strategy.instantiate();
        let (refr, _) =
            Simulation::run_with_schedule_faults(&config, rs, s2.as_mut(), &plan);
        let extracted = refr.fork();
        prop_assert_eq!(
            extracted.streaming_validation().is_ok(),
            extracted.validate_against_axioms().is_ok(),
            "reference streaming/batch parity broke"
        );
        prop_assert_eq!(&out.pipeline.fork, extracted.fork(), "forks diverged across engines");
    }
}

/// A random slot-ordered vertex stream: a semi-synchronous string of
/// `len` slots and, per slot, the parent (a dense vertex index, root `0`)
/// of each vertex labelled with that slot. At `noise = 0` it follows the
/// honest rules — one vertex per `h`, one to three per `H`, each under a
/// deepest vertex of an earlier slot — so every Δ accepts it. Each unit
/// of noise adds a 5% chance per draw of a missing `h`/`H` vertex, a
/// duplicate `h` vertex, or an honest vertex under a random earlier
/// vertex (a wrong depth). Adversarial slots carry zero to two vertices
/// under random earlier vertices either way.
fn slot_ordered_stream(len: usize, seed: u64, noise: u32) -> (SemiString, Vec<Vec<usize>>) {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let glitch = |rng: &mut rand::rngs::StdRng| rng.gen_range(0..20u32) < noise;
    let mut depth = vec![0usize];
    let mut deepest = 0usize;
    let mut syms = Vec::with_capacity(len);
    let mut parents = Vec::with_capacity(len);
    for _ in 0..len {
        let sym = match rng.gen_range(0..8) {
            0 => SemiSymbol::Empty,
            1..=3 => SemiSymbol::UniqueHonest,
            4 | 5 => SemiSymbol::MultiHonest,
            _ => SemiSymbol::Adversarial,
        };
        let count = match sym {
            SemiSymbol::Empty => 0,
            SemiSymbol::UniqueHonest if glitch(&mut rng) => 2 * rng.gen_range(0..2),
            SemiSymbol::UniqueHonest => 1,
            SemiSymbol::MultiHonest if glitch(&mut rng) => 0,
            SemiSymbol::MultiHonest => rng.gen_range(1..=3),
            SemiSymbol::Adversarial => rng.gen_range(0..=2),
        };
        let earlier = depth.len();
        let slot_parents: Vec<usize> = (0..count)
            .map(|_| {
                if sym.is_honest() && !glitch(&mut rng) {
                    deepest
                } else {
                    rng.gen_range(0..earlier)
                }
            })
            .collect();
        for &p in &slot_parents {
            depth.push(depth[p] + 1);
        }
        for v in earlier..depth.len() {
            if depth[v] > depth[deepest] {
                deepest = v;
            }
        }
        syms.push(sym);
        parents.push(slot_parents);
    }
    (syms.into_iter().collect(), parents)
}

/// `(ForkFold, validate_delta, replayed StreamValidator)` verdicts on one
/// slot-ordered stream, at the `is_ok` level.
fn stream_verdicts(semi: &SemiString, parents: &[Vec<usize>], delta: usize) -> [bool; 3] {
    use multihonest::fork::{ForkFold, StreamValidator};
    let mut fold = ForkFold::new(delta);
    for ((_, sym), slot_parents) in semi.iter_slots().zip(parents) {
        fold.push_symbol(sym);
        for &p in slot_parents {
            fold.push_vertex(VertexId::from_index(p));
        }
    }
    let out = fold.finish();
    let mut validator = StreamValidator::new(delta);
    for (_, sym) in semi.iter_slots() {
        validator.push_symbol(sym);
    }
    for v in out.fork.vertices().skip(1) {
        validator.observe(out.fork.label(v), out.fork.depth(v));
    }
    [
        out.validation.is_ok(),
        validate_delta(&out.fork, semi, delta).is_ok(),
        validator.finish().is_ok(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The slot-ordered `ForkFold` ≡ batch `validate_delta` ≡ the
    /// out-of-order `StreamValidator` on random slot-ordered streams with
    /// misplaced, missing and duplicate honest vertices.
    #[test]
    fn slot_ordered_fold_matches_batch_and_validator(
        len in 1usize..40,
        seed in any::<u64>(),
        noise in 0u32..4,
    ) {
        let (semi, parents) = slot_ordered_stream(len, seed, noise);
        for delta in 0..4 {
            let [fold, batch, validator] = stream_verdicts(&semi, &parents, delta);
            prop_assert_eq!(fold, batch, "fold vs batch on {:?} Δ={}", semi, delta);
            prop_assert_eq!(validator, batch, "validator vs batch on {:?} Δ={}", semi, delta);
        }
    }
}

/// The stream generator above exercises both verdicts at every Δ, so the
/// property cannot pass vacuously.
#[test]
fn slot_ordered_streams_exercise_both_verdicts() {
    for delta in 0..4 {
        let mut seen = [0usize; 2];
        for seed in 0..200u64 {
            let (semi, parents) =
                slot_ordered_stream(5 + seed as usize % 30, seed, seed as u32 % 4);
            let [fold, batch, _] = stream_verdicts(&semi, &parents, delta);
            assert_eq!(fold, batch);
            seen[usize::from(fold)] += 1;
        }
        assert!(seen[0] > 0 && seen[1] > 0, "Δ = {delta}: {seen:?}");
    }
}

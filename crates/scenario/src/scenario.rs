//! The scenario library: parameterized attacks, network schedules and
//! node profiles, composed into named [`Scenario`]s.
//!
//! A scenario bundles a base [`SimConfig`] with three orthogonal knobs
//! the abstract model grants the adversary:
//!
//! * a **network schedule** ([`NetworkSchedule`]) deciding *when inside
//!   the Δ window* each honest broadcast reaches each node — constant
//!   edge-of-window delays, Δ-bursts, or per-(slot, recipient) jitter;
//! * a **node profile** ([`NodeProfile`]) giving honest nodes
//!   heterogeneous stake (leader-election weight) and per-node extra
//!   latency;
//! * a **release lag** `L` generalising the withholding attack: the
//!   private chain is revealed `L` slots after the adversary decides to
//!   release it.
//!
//! All of it compiles down to an ordinary [`AdversaryStrategy`], so every
//! scenario runs unchanged on both engines — and none of it can break the
//! Δ axiom, because both engines clamp honest deliveries into
//! `[slot, slot + Δ]` regardless of what a strategy requests.

use multihonest_sim::strategy::{AdversaryStrategy, SlotContext};
use multihonest_sim::{BlockId, FaultDirective, FaultPlan, SimConfig, Strategy};

use crate::schedule::ColumnarSchedule;

/// When, inside the Δ window, honest broadcasts reach their recipients.
/// The engines clamp every request into `[slot, slot + Δ]`, so a
/// schedule can only choose *where in the window* a delivery lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetworkSchedule {
    /// Every delivery at the edge of the window (`slot + Δ`) — the
    /// maximally slow network the withholding attack assumes.
    EdgeOfWindow,
    /// Every delivery immediately (`slot`) — the synchronous best case.
    Immediate,
    /// Δ-bursts: slots with `slot % period < width` suffer the full Δ
    /// delay, all others deliver immediately — modelling periodic
    /// congestion/outage windows.
    Burst {
        /// Burst cycle length in slots.
        period: usize,
        /// Leading slots of each cycle that are delayed.
        width: usize,
    },
    /// Deterministic per-(slot, recipient) jitter uniform over
    /// `0..=Δ` — a well-behaved but non-constant network.
    Jitter {
        /// Salt decorrelating different jitter schedules.
        salt: u64,
    },
}

impl NetworkSchedule {
    /// The requested extra delay (on top of the broadcast slot) for a
    /// delivery to `recipient` broadcast at `slot`, always `≤ delta`.
    pub fn delay(&self, slot: usize, recipient: usize, delta: usize) -> usize {
        match *self {
            NetworkSchedule::EdgeOfWindow => delta,
            NetworkSchedule::Immediate => 0,
            NetworkSchedule::Burst { period, width } => {
                if period > 0 && slot % period < width {
                    delta
                } else {
                    0
                }
            }
            NetworkSchedule::Jitter { salt } => {
                if delta == 0 {
                    return 0;
                }
                let mut z = salt
                    .wrapping_add((slot as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                    .wrapping_add((recipient as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9));
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                ((z ^ (z >> 31)) % (delta as u64 + 1)) as usize
            }
        }
    }

    /// A short machine-friendly name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            NetworkSchedule::EdgeOfWindow => "edge-of-window",
            NetworkSchedule::Immediate => "immediate",
            NetworkSchedule::Burst { .. } => "burst",
            NetworkSchedule::Jitter { .. } => "jitter",
        }
    }
}

/// Heterogeneous honest-node profile: per-node stake weights (leader
/// election) and per-node extra delivery latency. The default profile is
/// uniform stake and zero latency — exactly the reference setting.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NodeProfile {
    /// Relative per-node stake weights (normalised internally); empty
    /// means uniform.
    pub stake_weights: Vec<f64>,
    /// Per-node extra delivery delay in slots (clamped into the Δ window
    /// by the engines); empty means zero everywhere.
    pub latency: Vec<usize>,
}

impl NodeProfile {
    /// The uniform, zero-latency profile.
    pub fn uniform() -> NodeProfile {
        NodeProfile::default()
    }

    /// A Zipf-like skewed stake profile: node `i` weighs `1 / (i + 1)`.
    pub fn zipf(nodes: usize) -> NodeProfile {
        NodeProfile {
            stake_weights: (0..nodes).map(|i| 1.0 / (i + 1) as f64).collect(),
            latency: Vec::new(),
        }
    }

    /// Adds a per-node latency vector.
    pub fn with_latency(mut self, latency: Vec<usize>) -> NodeProfile {
        self.latency = latency;
        self
    }

    /// The extra latency of `recipient`.
    #[inline]
    pub fn latency_of(&self, recipient: usize) -> usize {
        self.latency.get(recipient).copied().unwrap_or(0)
    }

    /// The absolute honest stake shares for `nodes` honest nodes holding
    /// `1 − adversarial_stake` of the total: normalised weights, or the
    /// uniform split when no weights are set.
    ///
    /// # Panics
    ///
    /// Panics if weights are set but their count differs from `nodes`, or
    /// if any weight is non-positive.
    pub fn stakes(&self, nodes: usize, adversarial_stake: f64) -> Vec<f64> {
        let honest_total = 1.0 - adversarial_stake;
        if self.stake_weights.is_empty() {
            return vec![honest_total / nodes as f64; nodes];
        }
        assert_eq!(
            self.stake_weights.len(),
            nodes,
            "stake weights must cover every honest node"
        );
        assert!(
            self.stake_weights.iter().all(|&w| w > 0.0),
            "stake weights must be positive"
        );
        let sum: f64 = self.stake_weights.iter().sum();
        self.stake_weights
            .iter()
            .map(|&w| honest_total * w / sum)
            .collect()
    }
}

/// The generalized withholding attack: the private chain is grown as in
/// the classic attack, honest broadcasts are routed by a
/// [`NetworkSchedule`] plus per-node latency, and each release is
/// revealed `release_lag` slots after the decision — `L = 0` with the
/// [`NetworkSchedule::EdgeOfWindow`] schedule and zero latency is
/// **exactly** the built-in
/// [`WithholdingStrategy`](multihonest_sim::WithholdingStrategy).
#[derive(Debug, Clone)]
pub struct LaggedWithholding {
    private_tip: BlockId,
    public_best: BlockId,
    /// Slots between the release decision and the delivery of the
    /// withheld chain.
    pub release_lag: usize,
    /// Honest-broadcast routing.
    pub net: NetworkSchedule,
    /// Per-node extra latency.
    pub profile: NodeProfile,
}

impl LaggedWithholding {
    /// A fresh instance.
    pub fn new(
        release_lag: usize,
        net: NetworkSchedule,
        profile: NodeProfile,
    ) -> LaggedWithholding {
        LaggedWithholding {
            private_tip: BlockId::GENESIS,
            public_best: BlockId::GENESIS,
            release_lag,
            net,
            profile,
        }
    }
}

impl AdversaryStrategy for LaggedWithholding {
    fn name(&self) -> &'static str {
        "lagged-withholding"
    }

    fn passive_without_leaders(&self) -> bool {
        true // acts only on minted blocks and adversarial slot wins
    }

    fn lookahead(&self, delta: usize) -> usize {
        delta + self.release_lag
    }

    fn on_slot(&mut self, ctx: &mut dyn SlotContext, minted: &[BlockId]) {
        let slot = ctx.slot();
        let delta = ctx.delta();
        if ctx.adversarial_leader() {
            if ctx.height_of(self.private_tip) + 2 < ctx.height_of(self.public_best) {
                self.private_tip = self.public_best;
            }
            self.private_tip = ctx.mint_adversarial(self.private_tip);
        }
        for &b in minted {
            if ctx.height_of(b) > ctx.height_of(self.public_best) {
                self.public_best = b;
            }
            for r in 0..ctx.honest_nodes() {
                let delay = self.net.delay(slot, r, delta) + self.profile.latency_of(r);
                ctx.deliver_honest(slot + delay, r, b); // clamped into the Δ window
            }
        }
        if ctx.height_of(self.private_tip) > ctx.height_of(self.public_best) {
            let released = self.private_tip;
            for r in 0..ctx.honest_nodes() {
                ctx.deliver_adversarial(slot + self.release_lag, r, released);
            }
            if ctx.height_of(released) > ctx.height_of(self.public_best) {
                self.public_best = released;
            }
        }
    }
}

/// Honest-mirror play over a non-trivial network: adversarial leaders
/// behave honestly, but honest broadcasts are routed by the scenario's
/// [`NetworkSchedule`] and latency profile — isolating the network's
/// contribution to divergence from any chain-level attack.
#[derive(Debug, Clone)]
pub struct ScheduledHonest {
    public_best: BlockId,
    /// Honest-broadcast routing.
    pub net: NetworkSchedule,
    /// Per-node extra latency.
    pub profile: NodeProfile,
}

impl ScheduledHonest {
    /// A fresh instance.
    pub fn new(net: NetworkSchedule, profile: NodeProfile) -> ScheduledHonest {
        ScheduledHonest {
            public_best: BlockId::GENESIS,
            net,
            profile,
        }
    }
}

impl AdversaryStrategy for ScheduledHonest {
    fn name(&self) -> &'static str {
        "scheduled-honest"
    }

    fn passive_without_leaders(&self) -> bool {
        true // acts only on minted blocks and adversarial slot wins
    }

    fn on_slot(&mut self, ctx: &mut dyn SlotContext, minted: &[BlockId]) {
        let slot = ctx.slot();
        let delta = ctx.delta();
        if ctx.adversarial_leader() {
            let b = ctx.mint_adversarial(self.public_best);
            for r in 0..ctx.honest_nodes() {
                ctx.deliver_adversarial(slot, r, b);
            }
            if ctx.height_of(b) > ctx.height_of(self.public_best) {
                self.public_best = b;
            }
        }
        for &b in minted {
            if ctx.height_of(b) > ctx.height_of(self.public_best) {
                self.public_best = b;
            }
            for r in 0..ctx.honest_nodes() {
                let delay = self.net.delay(slot, r, delta) + self.profile.latency_of(r);
                ctx.deliver_honest(slot + delay, r, b);
            }
        }
    }
}

/// A named, fully specified workload: base config plus the scenario
/// knobs. [`Scenario::strategy`] compiles it to a fresh strategy object;
/// [`Scenario::schedule`] samples its (possibly stake-weighted) leader
/// schedule.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Report/table name.
    pub name: &'static str,
    /// Base configuration (nodes, stake, f, Δ, slots, tie-break, base
    /// strategy).
    pub config: SimConfig,
    /// Honest-node stake/latency profile.
    pub profile: NodeProfile,
    /// Honest-broadcast routing.
    pub net: NetworkSchedule,
    /// Withholding release lag `L` (ignored by non-withholding bases).
    pub release_lag: usize,
}

impl Scenario {
    /// A scenario that reproduces a built-in strategy exactly.
    pub fn builtin(name: &'static str, config: SimConfig) -> Scenario {
        let net = match config.strategy {
            Strategy::PrivateWithholding => NetworkSchedule::EdgeOfWindow,
            _ => NetworkSchedule::Immediate,
        };
        Scenario {
            name,
            config,
            profile: NodeProfile::uniform(),
            net,
            release_lag: 0,
        }
    }

    /// Compiles the scenario to a fresh strategy object for one run.
    ///
    /// Withholding bases become [`LaggedWithholding`] (which, at
    /// `L = 0`/edge-of-window/zero-latency, plays identically to the
    /// built-in); honest bases become [`ScheduledHonest`]; the balance
    /// attack keeps its built-in routing (its first-seen races *are* the
    /// attack).
    pub fn strategy(&self) -> Box<dyn AdversaryStrategy> {
        match self.config.strategy {
            Strategy::PrivateWithholding => Box::new(LaggedWithholding::new(
                self.release_lag,
                self.net,
                self.profile.clone(),
            )),
            Strategy::Honest => Box::new(ScheduledHonest::new(self.net, self.profile.clone())),
            Strategy::BalanceAttack => self.config.strategy.instantiate(),
        }
    }

    /// Samples the scenario's columnar leader schedule (stake-weighted
    /// when the profile sets weights).
    pub fn schedule(&self, seed: u64) -> ColumnarSchedule {
        ColumnarSchedule::sample_weighted(
            &self
                .profile
                .stakes(self.config.honest_nodes, self.config.adversarial_stake),
            self.config.adversarial_stake,
            self.config.active_slot_coeff,
            self.config.slots,
            seed,
        )
    }

    /// Samples the same schedule in the reference engine's layout — how
    /// the equivalence harness replays a scenario on `sim::reference`.
    pub fn reference_schedule(&self, seed: u64) -> multihonest_sim::LeaderSchedule {
        multihonest_sim::LeaderSchedule::sample_weighted(
            &self
                .profile
                .stakes(self.config.honest_nodes, self.config.adversarial_stake),
            self.config.adversarial_stake,
            self.config.active_slot_coeff,
            self.config.slots,
            seed,
        )
    }
}

/// The canonical scenario grid swept by `mh scenario`: the three
/// built-ins plus the new parameterized workloads, all at the same base
/// parameters.
pub fn scenario_library(slots: usize) -> Vec<Scenario> {
    let base = SimConfig {
        honest_nodes: 10,
        adversarial_stake: 0.3,
        active_slot_coeff: 0.25,
        delta: 2,
        slots,
        tie_break: multihonest_sim::TieBreak::AdversarialOrder,
        strategy: Strategy::PrivateWithholding,
    };
    let honest = SimConfig {
        strategy: Strategy::Honest,
        ..base
    };
    let balance = SimConfig {
        strategy: Strategy::BalanceAttack,
        active_slot_coeff: 0.5,
        ..base
    };
    vec![
        Scenario::builtin("honest", honest),
        Scenario::builtin("private-withholding", base),
        Scenario::builtin("balance-attack", balance),
        Scenario {
            name: "withholding-lag4",
            release_lag: 4,
            ..Scenario::builtin("", base)
        },
        Scenario {
            name: "withholding-lag16",
            release_lag: 16,
            ..Scenario::builtin("", base)
        },
        Scenario {
            name: "withholding-burst",
            net: NetworkSchedule::Burst {
                period: 16,
                width: 4,
            },
            ..Scenario::builtin("", base)
        },
        Scenario {
            name: "withholding-jitter",
            net: NetworkSchedule::Jitter { salt: 0xC0FFEE },
            ..Scenario::builtin("", base)
        },
        Scenario {
            name: "honest-jitter",
            net: NetworkSchedule::Jitter { salt: 0xBEEF },
            ..Scenario::builtin("", honest)
        },
        Scenario {
            name: "withholding-zipf-stake",
            profile: NodeProfile::zipf(base.honest_nodes),
            ..Scenario::builtin("", base)
        },
        Scenario {
            name: "withholding-slow-half",
            // Latency only matters under a fast schedule: extra delay on
            // top of edge-of-window delivery would clamp back to Δ.
            net: NetworkSchedule::Immediate,
            profile: NodeProfile::uniform().with_latency(
                (0..base.honest_nodes)
                    .map(|i| (i % 2) * base.delta)
                    .collect(),
            ),
            ..Scenario::builtin("", base)
        },
    ]
}

/// A named faulty workload: a base config plus a [`FaultPlan`]. Unlike
/// [`Scenario`] (whose knobs ride *inside* the Δ window), a fault
/// scenario degrades the network *beyond* Δ — which is exactly what the
/// conservatism harness quantifies: every plan here is **bounded**
/// ([`FaultPlan::worst_case_delta`] is `Some`), and the induced Δ′ stays
/// inside Theorem 7's admissible region for the sparse base parameters
/// (`f = 0.05`, 10% adversarial stake admit `Δ′ ≲ 11`).
#[derive(Debug, Clone)]
pub struct FaultScenario {
    /// Report/table name.
    pub name: &'static str,
    /// Base configuration (sparse `f`, small Δ — see [`fault_library`]).
    pub config: SimConfig,
    /// The injected faults.
    pub plan: FaultPlan,
}

impl FaultScenario {
    /// Samples the scenario's columnar leader schedule.
    pub fn schedule(&self, seed: u64) -> ColumnarSchedule {
        ColumnarSchedule::for_config(&self.config, seed)
    }

    /// Samples the same schedule in the reference engine's layout — how
    /// the equivalence harness replays a faulty scenario on
    /// `sim::reference`.
    pub fn reference_schedule(&self, seed: u64) -> multihonest_sim::LeaderSchedule {
        multihonest_sim::LeaderSchedule::for_config(&self.config, seed)
    }

    /// The plan's static Δ′ bound over the scenario's base Δ.
    pub fn worst_case_delta(&self) -> Option<usize> {
        self.plan.worst_case_delta(self.config.delta)
    }
}

/// The canonical fault grid swept by `mh bench faults`: partitions,
/// eclipses, crash–recovery (including a crash at genesis), windowed
/// message loss, a chained compound window, and one fault × attack
/// combination — all over the same sparse base (10 nodes, 10%
/// adversarial stake, `f = 0.05`, `Δ = 1`) so the Δ′-model stays
/// admissible. Windows are placed at fixed fractions of the horizon and
/// kept short (≤ 6 slots): the static Δ′ bound is a window-run length,
/// not a fraction of the run.
///
/// # Panics
///
/// Panics when `slots < 80` (the windows would collide or escape the
/// horizon).
pub fn fault_library(slots: usize) -> Vec<FaultScenario> {
    assert!(slots >= 80, "fault_library needs at least 80 slots");
    let base = SimConfig {
        honest_nodes: 10,
        adversarial_stake: 0.1,
        active_slot_coeff: 0.05,
        delta: 1,
        slots,
        tie_break: multihonest_sim::TieBreak::AdversarialOrder,
        strategy: Strategy::Honest,
    };
    let withholding = SimConfig {
        strategy: Strategy::PrivateWithholding,
        ..base
    };
    let halves = || {
        vec![
            (0..base.honest_nodes / 2).collect::<Vec<_>>(),
            (base.honest_nodes / 2..base.honest_nodes).collect(),
        ]
    };
    let stride = slots / 8;
    vec![
        FaultScenario {
            name: "partition-halves",
            config: base,
            plan: FaultPlan::new()
                .with(FaultDirective::Partition {
                    groups: halves(),
                    start: stride,
                    heal_slot: stride + 4,
                })
                .with(FaultDirective::Partition {
                    groups: halves(),
                    start: 4 * stride,
                    heal_slot: 4 * stride + 4,
                }),
        },
        FaultScenario {
            name: "eclipse-victim",
            config: base,
            plan: FaultPlan::new()
                .with(FaultDirective::Eclipse {
                    node: 3,
                    start: 2 * stride,
                    until: 2 * stride + 5,
                })
                .with(FaultDirective::Eclipse {
                    node: 3,
                    start: 6 * stride,
                    until: 6 * stride + 3,
                }),
        },
        FaultScenario {
            name: "crash-recover",
            config: base,
            plan: FaultPlan::new().with(FaultDirective::Crash {
                node: 7,
                at: 3 * stride,
                recover_slot: 3 * stride + 6,
            }),
        },
        FaultScenario {
            name: "crash-at-genesis",
            config: base,
            plan: FaultPlan::new().with(FaultDirective::Crash {
                node: 0,
                at: 1,
                recover_slot: 5,
            }),
        },
        FaultScenario {
            name: "lossy-window",
            config: base,
            plan: FaultPlan::new()
                .with(FaultDirective::MessageLoss {
                    p: 0.4,
                    salt: 0xFA17,
                    start: 2 * stride,
                    until: 2 * stride + 5,
                })
                .with(FaultDirective::MessageLoss {
                    p: 0.4,
                    salt: 0x5EED,
                    start: 5 * stride,
                    until: 5 * stride + 5,
                }),
        },
        FaultScenario {
            name: "compound-chain",
            config: base,
            // Eclipse chains into an overlapping loss window: the merged
            // run [stride, stride + 6) bounds the extra delay at 6, not
            // at the longest single window.
            plan: FaultPlan::new()
                .with(FaultDirective::Eclipse {
                    node: 1,
                    start: stride,
                    until: stride + 3,
                })
                .with(FaultDirective::MessageLoss {
                    p: 0.5,
                    salt: 0xC0DE,
                    start: stride + 2,
                    until: stride + 6,
                })
                .with(FaultDirective::Crash {
                    node: 4,
                    at: 5 * stride,
                    recover_slot: 5 * stride + 3,
                }),
        },
        FaultScenario {
            name: "partition-withholding",
            config: withholding,
            plan: FaultPlan::new().with(FaultDirective::Partition {
                groups: halves(),
                start: 3 * stride,
                heal_slot: 3 * stride + 4,
            }),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ColumnarSimulation, Execution};
    use multihonest_sim::{Simulation, TieBreak};

    fn base(slots: usize) -> SimConfig {
        SimConfig {
            honest_nodes: 6,
            adversarial_stake: 0.35,
            active_slot_coeff: 0.3,
            delta: 3,
            slots,
            tie_break: TieBreak::AdversarialOrder,
            strategy: Strategy::PrivateWithholding,
        }
    }

    #[test]
    fn lag_zero_plays_identically_to_builtin_withholding() {
        let config = base(400);
        let mut lagged =
            LaggedWithholding::new(0, NetworkSchedule::EdgeOfWindow, NodeProfile::uniform());
        let schedule = ColumnarSchedule::for_config(&config, 9);
        let (a, _) = Execution::new(&config, &schedule, &mut lagged).trace();
        let b = ColumnarSimulation::run(&config, 9);
        assert_eq!(a.metrics(), b.metrics());
        assert_eq!(a.rollbacks(), b.rollbacks());
        for t in 1..=config.slots {
            assert_eq!(a.tips_at(t), b.tips_at(t), "slot {t}");
        }
    }

    #[test]
    fn immediate_scheduled_honest_matches_builtin_honest() {
        let mut config = base(300);
        config.strategy = Strategy::Honest;
        let mut sch = ScheduledHonest::new(NetworkSchedule::Immediate, NodeProfile::uniform());
        let schedule = ColumnarSchedule::for_config(&config, 5);
        let (a, _) = Execution::new(&config, &schedule, &mut sch).trace();
        let b = ColumnarSimulation::run(&config, 5);
        assert_eq!(a.metrics(), b.metrics());
    }

    #[test]
    fn release_lag_defers_rollbacks() {
        // A single honest node cannot roll back on its own (its chain
        // only ever extends between adversarial deliveries), so every
        // rollback is a release landing — and a lag-L release cannot land
        // before the eager one it defers.
        let config = SimConfig {
            honest_nodes: 1,
            adversarial_stake: 0.4,
            ..base(2_000)
        };
        let run = |lag: usize| {
            let mut s =
                LaggedWithholding::new(lag, NetworkSchedule::EdgeOfWindow, NodeProfile::uniform());
            let schedule = ColumnarSchedule::for_config(&config, 3);
            Execution::new(&config, &schedule, &mut s).trace().0
        };
        let eager = run(0);
        let lagged = run(8);
        assert!(eager.metrics().rollback_count > 0, "attack must bite");
        assert!(
            lagged.metrics().rollback_count > 0,
            "lagged attack must bite"
        );
        // Both runs are identical up to the first release decision; the
        // lagged run delivers nothing adversarial for 8 further slots, so
        // its first rollback comes strictly later.
        assert!(
            lagged.rollbacks()[0].0 >= eager.rollbacks()[0].0 + 8,
            "first rollback must be deferred: {} vs {}",
            eager.rollbacks()[0].0,
            lagged.rollbacks()[0].0
        );
        assert_ne!(eager.rollbacks(), lagged.rollbacks());
    }

    #[test]
    fn network_schedules_respect_delta_on_the_reference_engine() {
        // Run scenario strategies on the *reference* engine and validate
        // the extracted fork against the Δ axioms — no schedule, lag or
        // latency profile can break (F4Δ), because the clamp is
        // engine-side.
        let config = base(250);
        let scenarios = [
            NetworkSchedule::EdgeOfWindow,
            NetworkSchedule::Immediate,
            NetworkSchedule::Burst {
                period: 8,
                width: 3,
            },
            NetworkSchedule::Jitter { salt: 7 },
        ];
        for net in scenarios {
            let profile = NodeProfile::uniform().with_latency(vec![0, 9, 1, 2, 0, 5]);
            let mut s = LaggedWithholding::new(5, net, profile);
            let sim = Simulation::run_with(&config, 21, &mut s);
            assert_eq!(
                sim.fork().validate_against_axioms(),
                Ok(()),
                "schedule {net:?} broke the Δ axioms"
            );
        }
    }

    #[test]
    fn schedule_delays_stay_in_window() {
        for net in [
            NetworkSchedule::EdgeOfWindow,
            NetworkSchedule::Immediate,
            NetworkSchedule::Burst {
                period: 5,
                width: 2,
            },
            NetworkSchedule::Jitter { salt: 99 },
        ] {
            for delta in [0usize, 1, 4] {
                for slot in 1..100 {
                    for r in 0..8 {
                        assert!(net.delay(slot, r, delta) <= delta, "{net:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn zipf_profile_shifts_stake() {
        let p = NodeProfile::zipf(4);
        let stakes = p.stakes(4, 0.2);
        assert!((stakes.iter().sum::<f64>() - 0.8).abs() < 1e-12);
        assert!(stakes[0] > stakes[3]);
        let u = NodeProfile::uniform().stakes(4, 0.2);
        assert!(u.iter().all(|&s| (s - 0.2).abs() < 1e-12));
    }

    #[test]
    fn fault_library_is_bounded_and_admissible() {
        let lib = fault_library(400);
        assert!(lib.len() >= 7);
        let names: std::collections::HashSet<&str> = lib.iter().map(|s| s.name).collect();
        assert_eq!(
            names.len(),
            lib.len(),
            "fault scenario names must be unique"
        );
        for sc in &lib {
            sc.plan.validate(sc.config.honest_nodes);
            assert!(
                !sc.plan.is_empty(),
                "{}: library plans must inject",
                sc.name
            );
            let dp = sc
                .worst_case_delta()
                .unwrap_or_else(|| panic!("{}: library plans must be bounded", sc.name));
            assert!(
                dp <= 11,
                "{}: Δ′ = {dp} escapes the admissible region of the sparse base",
                sc.name
            );
        }
        let compound = lib.iter().find(|s| s.name == "compound-chain").unwrap();
        assert_eq!(
            compound.plan.worst_case_extra_delay(),
            Some(6),
            "chained windows must merge in the bound"
        );
    }

    #[test]
    fn fault_scenarios_degrade_but_stay_within_the_static_bound() {
        for sc in fault_library(400) {
            let schedule = sc.schedule(11);
            let mut strategy = sc.config.strategy.instantiate();
            let (sim, ledger) = Execution::new(&sc.config, &schedule, strategy.as_mut())
                .faults(&sc.plan)
                .trace();
            assert_eq!(sim.metrics().slots, 400, "{}", sc.name);
            assert_eq!(ledger.dropped, 0, "{}: bounded plans drop nothing", sc.name);
            let bound = sc.worst_case_delta().unwrap();
            assert!(
                ledger.worst_effective_delta <= bound,
                "{}: observed effective Δ {} exceeds the static bound {bound}",
                sc.name,
                ledger.worst_effective_delta
            );
            // A chained window may re-park what an earlier one released,
            // so per-window healing is bounded by the latest window end
            // in the plan, not by each window's own end.
            let last_end = ledger.windows.iter().map(|w| w.end).max().unwrap();
            for w in &ledger.windows {
                if let Some(healed) = w.healed_by {
                    assert!(
                        healed <= last_end,
                        "{}: window {} healed at {healed}, after the last window end {last_end}",
                        sc.name,
                        w.directive
                    );
                }
            }
        }
    }

    #[test]
    fn library_covers_the_advertised_grid() {
        let lib = scenario_library(500);
        assert!(lib.len() >= 9);
        let names: std::collections::HashSet<&str> = lib.iter().map(|s| s.name).collect();
        assert_eq!(names.len(), lib.len(), "scenario names must be unique");
        let mut fingerprints = std::collections::HashMap::new();
        for sc in &lib {
            // Every scenario compiles and runs on the columnar engine.
            let mut strategy = sc.strategy();
            let schedule = sc.schedule(2);
            let (sim, _) = Execution::new(&sc.config, &schedule, strategy.as_mut()).trace();
            assert_eq!(sim.metrics().slots, 500, "{}", sc.name);
            // No scenario may be a disguised duplicate of another (e.g. a
            // latency profile swallowed by the Δ clamp).
            if let Some(prev) = fingerprints.insert(crate::execution_fingerprint(&sim), sc.name) {
                panic!("scenarios {prev:?} and {:?} execute identically", sc.name);
            }
        }
    }
}

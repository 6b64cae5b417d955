//! The bench-target registry and the baseline regression gate.
//!
//! Every perf-trajectory report is one [`BenchTarget`] in [`TARGETS`]:
//! its quick and full grid, default seed, invariants and headline field
//! are written here once. `mh bench <name>` builds a target's report and
//! writes it; `mh regress` rebuilds every target in-process and diffs it
//! against the committed `BENCH_<name>.json` baseline in three layers:
//!
//! 1. **schema + shape** — both reports carry the tag
//!    `multihonest-bench-<name>/v1` and identical top-level key sets (a
//!    report field added or removed without regenerating the baseline
//!    fails loudly);
//! 2. **invariants** — the target's correctness facts (engine-equivalence
//!    counts, conservatism verdicts, `ρ`-agreement totals, executions
//!    laws), on the fresh report and, where stated, on the baseline;
//! 3. **throughput** *(full grids only)* — the target's headline figure
//!    must stay within `tolerance` (a relative regression fraction) of
//!    the committed number. Quick grids skip this layer: their shapes are
//!    incomparable to the full-grid baselines, and timing on shared CI
//!    runners is noise.
//!
//! The fresh quick report is the object `mh bench <name> --quick`
//! writes, so a gate failure always reproduces from the command line.

use std::path::{Path, PathBuf};

use serde::{Serialize, Value};

use multihonest::sim::SimConfig;
use multihonest_scenario::ScenarioBenchReport;
use multihonest_sweep::CampaignSpec;

/// One report of the perf trajectory.
pub(crate) trait BenchTarget: Sync {
    /// The `mh bench` word; the report diffs against `BENCH_<name>.json`
    /// and carries the schema tag `multihonest-bench-<name>/v1`.
    fn name(&self) -> &'static str;
    /// The default seed; `None` for a seedless report (`--seed` is then
    /// refused).
    fn seed(&self) -> Option<u64>;
    /// Whether the report fans out over workers; a serial one refuses
    /// `--threads`.
    fn threaded(&self) -> bool {
        true
    }
    /// Builds the report on the quick or the full grid.
    fn build(&self, quick: bool, threads: usize, seed: u64) -> Value;
    /// The target's invariants over the fresh report and the baseline.
    fn invariants(&self, _fresh: &Value, _base: &Value, _c: &mut Checks) {}
    /// The headline throughput field (bigger is better) checked on full
    /// grids; `None` when the headline lives in a test.
    fn headline(&self) -> Option<&'static str>;
}

/// The registry, in gate order.
pub(crate) const TARGETS: [&dyn BenchTarget; 7] =
    [&Margin, &Sim, &Astar, &Scenario, &Sweep, &Faults, &Forkflow];

/// The registry entry called `name`.
pub(crate) fn target(name: &str) -> Option<&'static dyn BenchTarget> {
    TARGETS.iter().copied().find(|t| t.name() == name)
}

/// The Table-1 grid `(alphas, ratios, ks)`: a 3 × 2 × 2 corner, or the
/// published 6 × 6 × 5 table.
pub(crate) fn table1_grid(quick: bool) -> (Vec<f64>, Vec<f64>, Vec<usize>) {
    if quick {
        (vec![0.10, 0.30, 0.40], vec![1.0, 0.5], vec![100, 200])
    } else {
        (
            crate::TABLE1_ALPHAS.to_vec(),
            crate::TABLE1_RATIOS.to_vec(),
            crate::TABLE1_KS.to_vec(),
        )
    }
}

/// The settlement sweep's execution and its `k` column.
pub(crate) fn settlement_grid(quick: bool) -> (SimConfig, Vec<usize>) {
    (
        crate::sim_bench_config(if quick { 600 } else { 2_000 }),
        vec![5, 10, 20, 40, 80, 160],
    )
}

/// The scenario report: equivalence grid, table rows and headline run.
pub(crate) fn scenario_report(quick: bool, seed: u64, threads: usize) -> ScenarioBenchReport {
    let ks = [5, 20, 80];
    let (equivalence, grid, headline) = if quick {
        (600, 20_000, 100_000)
    } else {
        (2_000, 200_000, 1_000_000)
    };
    multihonest_scenario::scenario_bench_report(equivalence, grid, headline, seed, &ks, threads)
}

/// The campaign grid of `mh sweep` and of the sweep target.
pub(crate) fn campaign_spec(quick: bool) -> CampaignSpec {
    if quick {
        CampaignSpec::quick_grid()
    } else {
        CampaignSpec::default_grid()
    }
}

struct Margin;

impl BenchTarget for Margin {
    fn name(&self) -> &'static str {
        "margin"
    }
    fn seed(&self) -> Option<u64> {
        None
    }
    fn build(&self, quick: bool, threads: usize, _seed: u64) -> Value {
        let (alphas, ratios, ks) = table1_grid(quick);
        crate::bench_report(&alphas, &ratios, &ks, threads)
            .1
            .to_value()
    }
    fn invariants(&self, fresh: &Value, _base: &Value, c: &mut Checks) {
        let (a, r, k) = (
            c.array_len(fresh, "fresh", "alphas"),
            c.array_len(fresh, "fresh", "ratios"),
            c.array_len(fresh, "fresh", "ks"),
        );
        let cells = c.u64_field(fresh, "fresh", "cells");
        c.check(cells as usize == a * r * k, || {
            format!("fresh cells {cells} != alphas×ratios×ks = {}", a * r * k)
        });
        let checksum = c.f64_field(fresh, "fresh", "probability_checksum");
        c.check(checksum.is_finite() && checksum > 0.0, || {
            format!("fresh probability_checksum {checksum} not a positive finite number")
        });
    }
    fn headline(&self) -> Option<&'static str> {
        Some("cells_per_second")
    }
}

/// Schema and key-set layers carry this target; the builder itself
/// asserts indexed/oracle bit-identity before timing.
struct Sim;

impl BenchTarget for Sim {
    fn name(&self) -> &'static str {
        "sim"
    }
    fn seed(&self) -> Option<u64> {
        Some(9)
    }
    fn threaded(&self) -> bool {
        false
    }
    fn build(&self, quick: bool, _threads: usize, seed: u64) -> Value {
        let (cfg, ks) = settlement_grid(quick);
        crate::sim_bench_report(&cfg, seed, &ks).to_value()
    }
    fn headline(&self) -> Option<&'static str> {
        Some("sweep_speedup")
    }
}

struct Astar;

impl BenchTarget for Astar {
    fn name(&self) -> &'static str {
        "astar"
    }
    fn seed(&self) -> Option<u64> {
        Some(4)
    }
    fn build(&self, quick: bool, threads: usize, seed: u64) -> Value {
        let (ns, oracle_ns, mc_len, mc_trials): (&[usize], &[usize], usize, u64) = if quick {
            (&[100, 400], &[100, 400], 1_000, 8)
        } else {
            (&[200, 800, 3_000, 10_000], &[200, 800], 10_000, 32)
        };
        crate::astar_bench_report(ns, oracle_ns, mc_len, mc_trials, threads, seed).to_value()
    }
    fn invariants(&self, fresh: &Value, base: &Value, c: &mut Checks) {
        for (who, v) in [("fresh", fresh), ("baseline", base)] {
            let agreements = c.u64_field(v, who, "mc_rho_agreements");
            let trials = c.u64_field(v, who, "mc_trials");
            c.check(agreements == trials, || {
                format!("{who} mc_rho_agreements {agreements} != mc_trials {trials}")
            });
        }
    }
    fn headline(&self) -> Option<&'static str> {
        Some("speedup_at_largest_oracle_n")
    }
}

struct Scenario;

impl BenchTarget for Scenario {
    fn name(&self) -> &'static str {
        "scenario"
    }
    fn seed(&self) -> Option<u64> {
        Some(9)
    }
    fn build(&self, quick: bool, threads: usize, seed: u64) -> Value {
        scenario_report(quick, seed, threads).to_value()
    }
    fn invariants(&self, fresh: &Value, base: &Value, c: &mut Checks) {
        let fe = c.u64_field(fresh, "fresh", "equivalence_scenarios");
        let be = c.u64_field(base, "baseline", "equivalence_scenarios");
        c.check(fe == be, || {
            format!("equivalence_scenarios differ: fresh {fe} vs baseline {be}")
        });
        let (fn_, bn) = (names(fresh, "rows", "name"), names(base, "rows", "name"));
        c.check(!fn_.is_empty() && fn_ == bn, || {
            format!("scenario rosters differ: fresh {fn_:?} vs baseline {bn:?}")
        });
    }
    fn headline(&self) -> Option<&'static str> {
        Some("million_slots_per_second")
    }
}

struct Sweep;

impl BenchTarget for Sweep {
    fn name(&self) -> &'static str {
        "sweep"
    }
    fn seed(&self) -> Option<u64> {
        Some(CampaignSpec::default_grid().seed)
    }
    fn build(&self, quick: bool, threads: usize, seed: u64) -> Value {
        let spec = CampaignSpec {
            seed,
            ..campaign_spec(quick)
        };
        crate::sweep_bench_report(&spec, threads).1.to_value()
    }
    fn invariants(&self, fresh: &Value, base: &Value, c: &mut Checks) {
        for (who, v) in [("fresh", fresh), ("baseline", base)] {
            let cells = c.u64_field(v, who, "cells");
            c.check(cells == 24, || format!("{who} cells {cells} != 24"));
            let executions = c.u64_field(v, who, "executions");
            let trials = c.u64_field(v, who, "trials_per_cell");
            c.check(executions == cells * trials, || {
                format!("{who} executions {executions} != cells {cells} × trials {trials}")
            });
        }
    }
    fn headline(&self) -> Option<&'static str> {
        Some("executions_per_second")
    }
}

/// The Δ-conservatism verdict table; its headline lives in the builder's
/// own assertions.
struct Faults;

impl BenchTarget for Faults {
    fn name(&self) -> &'static str {
        "faults"
    }
    fn seed(&self) -> Option<u64> {
        Some(0xC0FFEE)
    }
    /// Full: the horizon of the scenario fingerprint pins, with enough
    /// trials for the empirical frequencies to mean something. Quick:
    /// the smallest grid that still activates every fault window.
    fn build(&self, quick: bool, threads: usize, seed: u64) -> Value {
        let (slots, trials, ks): (usize, u64, &[usize]) = if quick {
            (160, 8, &[8, 24])
        } else {
            (400, 48, &[8, 16, 32])
        };
        crate::faults_bench_report(slots, trials, ks, threads, seed).to_value()
    }
    fn invariants(&self, fresh: &Value, base: &Value, c: &mut Checks) {
        let (fr, br) = (
            names(fresh, "scenarios", "scenario"),
            names(base, "scenarios", "scenario"),
        );
        c.check(!fr.is_empty() && fr == br, || {
            format!("fault-scenario rosters differ: fresh {fr:?} vs baseline {br:?}")
        });
        for (who, v) in [("fresh", fresh), ("baseline", base)] {
            let all = v.get("all_conservative").and_then(Value::as_bool) == Some(true);
            c.check(all, || format!("{who} all_conservative is not true"));
            let scenarios = v.get("scenarios").and_then(Value::as_array).unwrap_or(&[]);
            for s in scenarios {
                let name = s.get("scenario").and_then(Value::as_str).unwrap_or("?");
                c.check(
                    s.get("conservative").and_then(Value::as_bool) == Some(true),
                    || format!("{who} scenario {name:?} not conservative"),
                );
                c.check(s.get("dropped").and_then(Value::as_u64) == Some(0), || {
                    format!("{who} scenario {name:?} dropped deliveries != 0")
                });
            }
        }
    }
    fn headline(&self) -> Option<&'static str> {
        None
    }
}

struct Forkflow;

impl BenchTarget for Forkflow {
    fn name(&self) -> &'static str {
        "forkflow"
    }
    fn seed(&self) -> Option<u64> {
        Some(0xF0_12D)
    }
    fn threaded(&self) -> bool {
        false
    }
    /// Full: the million-slot headline, with the validation comparison
    /// at the same horizon — the batch (F4Δ) sweep is quadratic in the
    /// honest-slot count, exactly the scale gate the streaming pipeline
    /// removes. µ_x lengths stay small: the rebuild baseline is the
    /// definitional O(V²) pair scan per step, cubic in the horizon.
    /// Quick: the smallest grid that still exercises every path.
    fn build(&self, quick: bool, _threads: usize, seed: u64) -> Value {
        let (slots, baseline_slots, mu_len) = if quick {
            (20_000, 10_000, 150)
        } else {
            (1_000_000, 1_000_000, 600)
        };
        crate::forkflow_bench_report(slots, baseline_slots, mu_len, seed).to_value()
    }
    fn invariants(&self, fresh: &Value, base: &Value, c: &mut Checks) {
        for (who, v) in [("fresh", fresh), ("baseline", base)] {
            let valid = c.bool_field(v, who, "streaming_valid");
            c.check(valid, || format!("{who} streaming_valid is not true"));
            let events = c.u64_field(v, who, "streaming_margin_events");
            c.check(events > 0, || format!("{who} streaming_margin_events == 0"));
            let checks = c.u64_field(v, who, "mu_checks");
            let mu_len = c.u64_field(v, who, "mu_len");
            let cuts = c.array_len(v, who, "mu_cuts");
            c.check(checks == mu_len * cuts as u64, || {
                format!("{who} mu_checks {checks} != mu_len {mu_len} × cuts {cuts}")
            });
        }
        let speedup = c.f64_field(base, "baseline", "validation_speedup");
        c.check(speedup >= 10.0, || {
            format!("baseline validation_speedup {speedup:.2} < 10")
        });
    }
    fn headline(&self) -> Option<&'static str> {
        Some("validation_speedup")
    }
}

/// The `key` strings of the objects in array `list` of `v`.
fn names(v: &Value, list: &str, key: &str) -> Vec<String> {
    v.get(list)
        .and_then(Value::as_array)
        .map(|items| {
            items
                .iter()
                .filter_map(|item| item.get(key).and_then(Value::as_str))
                .map(str::to_string)
                .collect()
        })
        .unwrap_or_default()
}

/// The schema tag of a target's report.
fn schema_tag(name: &str) -> String {
    format!("multihonest-bench-{name}/v1")
}

/// The committed baseline file a target diffs against.
pub(crate) fn baseline_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("BENCH_{name}.json"))
}

/// Check accumulator: every assertion lands here, failures carry a
/// rendered description instead of panicking so one broken target still
/// reports every divergence it has.
pub(crate) struct Checks {
    /// Checks evaluated.
    pub(crate) n: usize,
    /// A description of every failed check.
    pub(crate) failures: Vec<String>,
}

impl Checks {
    fn new() -> Checks {
        Checks {
            n: 0,
            failures: Vec::new(),
        }
    }

    fn check(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        self.n += 1;
        if !ok {
            self.failures.push(describe());
        }
    }

    /// Top-level key sets of fresh and baseline are identical.
    fn key_sets_match(&mut self, fresh: &Value, base: &Value) {
        let keys = |v: &Value| -> Vec<String> {
            match v {
                Value::Object(entries) => {
                    let mut ks: Vec<String> = entries.iter().map(|(k, _)| k.clone()).collect();
                    ks.sort();
                    ks
                }
                _ => Vec::new(),
            }
        };
        let (f, b) = (keys(fresh), keys(base));
        self.check(!f.is_empty() && f == b, || {
            format!("top-level key sets differ: fresh {f:?} vs baseline {b:?}")
        });
    }

    /// `report["schema"]` is the expected tag, in both reports.
    fn schemas_match(&mut self, fresh: &Value, base: &Value, expected: &str) {
        for (who, v) in [("fresh", fresh), ("baseline", base)] {
            let got = v.get("schema").and_then(Value::as_str);
            self.check(got == Some(expected), || {
                format!("{who} schema {got:?}, expected {expected:?}")
            });
        }
    }

    fn u64_field(&mut self, v: &Value, who: &str, key: &str) -> u64 {
        let got = v.get(key).and_then(Value::as_u64);
        self.check(got.is_some(), || {
            format!("{who} field {key:?} missing or not a u64")
        });
        got.unwrap_or(0)
    }

    fn f64_field(&mut self, v: &Value, who: &str, key: &str) -> f64 {
        let got = v.get(key).and_then(Value::as_f64);
        self.check(got.is_some(), || {
            format!("{who} field {key:?} missing or not a number")
        });
        got.unwrap_or(f64::NAN)
    }

    fn bool_field(&mut self, v: &Value, who: &str, key: &str) -> bool {
        let got = v.get(key).and_then(Value::as_bool);
        self.check(got.is_some(), || {
            format!("{who} field {key:?} missing or not a bool")
        });
        got.unwrap_or(false)
    }

    fn array_len(&mut self, v: &Value, who: &str, key: &str) -> usize {
        let got = v.get(key).and_then(Value::as_array).map(<[Value]>::len);
        self.check(got.is_some(), || {
            format!("{who} field {key:?} missing or not an array")
        });
        got.unwrap_or(0)
    }

    /// Full-grid throughput layer: fresh ≥ (1 − tolerance) × baseline.
    fn throughput_within(&mut self, fresh: &Value, base: &Value, key: &str, tolerance: f64) {
        let f = self.f64_field(fresh, "fresh", key);
        let b = self.f64_field(base, "baseline", key);
        let floor = b * (1.0 - tolerance);
        self.check(f.is_finite() && f >= floor, || {
            format!(
                "throughput regression: fresh {key} = {f:.4} below floor {floor:.4} \
                 (baseline {b:.4}, tolerance {tolerance})"
            )
        });
    }
}

/// Rebuilds `t`'s report and diffs it against the baseline in `dir`.
///
/// # Errors
///
/// An unreadable or unparsable baseline; check *failures* land in the
/// returned [`Checks`] instead.
pub(crate) fn regress(
    t: &dyn BenchTarget,
    quick: bool,
    threads: usize,
    tolerance: f64,
    dir: &Path,
) -> Result<Checks, String> {
    let path = baseline_path(dir, t.name());
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read baseline {}: {e}", path.display()))?;
    let base = serde_json::from_str(&text)
        .map_err(|e| format!("baseline {} is not JSON: {e}", path.display()))?;
    let fresh = t.build(quick, threads, t.seed().unwrap_or(0));
    let mut c = Checks::new();
    c.schemas_match(&fresh, &base, &schema_tag(t.name()));
    c.key_sets_match(&fresh, &base);
    t.invariants(&fresh, &base, &mut c);
    if let (false, Some(field)) = (quick, t.headline()) {
        c.throughput_within(&fresh, &base, field, tolerance);
    }
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_table_covers_every_target() {
        for (i, t) in TARGETS.iter().enumerate() {
            assert_eq!(target(t.name()).map(|f| f.name()), Some(t.name()));
            assert!(
                TARGETS[..i].iter().all(|u| u.name() != t.name()),
                "{}",
                t.name()
            );
        }
        assert_eq!(schema_tag("margin"), "multihonest-bench-margin/v1");
        assert!(target("nonsense").is_none());
    }

    #[test]
    fn baseline_paths_follow_the_bench_convention() {
        let p = baseline_path(Path::new("/x"), "margin");
        assert_eq!(p, PathBuf::from("/x/BENCH_margin.json"));
    }

    #[test]
    fn mismatched_schema_and_keys_are_reported_not_panicked() {
        let fresh = serde_json::from_str(r#"{"schema": "a/v1", "cells": 3}"#).unwrap();
        let base = serde_json::from_str(r#"{"schema": "b/v1", "extra": 1}"#).unwrap();
        let mut c = Checks::new();
        c.schemas_match(&fresh, &base, "a/v1");
        c.key_sets_match(&fresh, &base);
        assert_eq!(c.n, 3);
        assert_eq!(c.failures.len(), 2, "{:?}", c.failures);
    }

    #[test]
    fn throughput_floor_is_tolerance_scaled() {
        let fresh = serde_json::from_str(r#"{"rate": 6.0}"#).unwrap();
        let base = serde_json::from_str(r#"{"rate": 10.0}"#).unwrap();
        let mut c = Checks::new();
        c.throughput_within(&fresh, &base, "rate", 0.5);
        assert!(c.failures.is_empty(), "6 >= 10×0.5: {:?}", c.failures);
        c.throughput_within(&fresh, &base, "rate", 0.2);
        assert_eq!(c.failures.len(), 1, "6 < 10×0.8");
    }

    #[test]
    fn forkflow_invariants_accept_a_consistent_report() {
        let doc = r#"{
            "schema": "multihonest-bench-forkflow/v1",
            "streaming_valid": true,
            "streaming_margin_events": 12,
            "mu_checks": 300,
            "mu_len": 150,
            "mu_cuts": [10, 75],
            "validation_speedup": 25.0
        }"#;
        let fresh = serde_json::from_str(doc).unwrap();
        let base = serde_json::from_str(doc).unwrap();
        let mut c = Checks::new();
        Forkflow.invariants(&fresh, &base, &mut c);
        assert!(c.failures.is_empty(), "{:?}", c.failures);
    }
}

//! The unified bench-regression gate: rebuild every perf-trajectory
//! report in-process and diff it against the committed `BENCH_*.json`
//! baseline with an explicit tolerance.
//!
//! This replaces the previous per-binary CI smoke steps (seven separate
//! `cargo run … | python3` blocks) with one auditable gate. For every
//! target the gate re-runs the exact grid its binary would run, parses
//! both the fresh report and the committed baseline into the vendored
//! [`Value`] tree, and checks three layers:
//!
//! 1. **schema + shape** — the schema tags match the expected constant
//!    and the top-level key sets are identical (a report field added or
//!    removed without regenerating the baseline fails loudly);
//! 2. **invariants** — the per-target correctness facts the old CI
//!    asserted in python (engine-equivalence counts, conservatism
//!    verdicts, `ρ`-agreement totals, executions laws), applied to the
//!    fresh report *and* re-checked on the committed baseline;
//! 3. **throughput** *(full grids only)* — the target's headline
//!    throughput figure must stay within `tolerance` (a relative
//!    regression fraction) of the committed number. Quick grids skip
//!    this layer: their shapes are intentionally incomparable to the
//!    full-grid baselines, and timing on shared CI runners is noise.
//!
//! Every numeric parameter here mirrors its binary's defaults — the
//! fresh quick report is the same object `<bin> bench-report --quick`
//! writes, so a gate failure always reproduces from the command line.

use serde::Value;
use std::path::{Path, PathBuf};

/// The regression targets, in gate order. Each `t` diffs against
/// `BENCH_<t>.json`.
pub const REGRESS_TARGETS: [&str; 7] = [
    "margin", "sim", "astar", "scenario", "sweep", "faults", "forkflow",
];

/// Options for one gate run.
#[derive(Debug, Clone)]
pub struct RegressOptions {
    /// Rebuild the reduced grids (the CI mode). `false` re-runs the
    /// full published grids and adds the throughput layer.
    pub quick: bool,
    /// Allowed relative throughput regression on full grids: fresh
    /// headline ≥ `(1 − tolerance) ×` baseline. Ignored when `quick`.
    pub tolerance: f64,
    /// Directory holding the committed `BENCH_*.json` baselines.
    pub baseline_dir: PathBuf,
    /// Worker threads for the targets that fan out.
    pub threads: usize,
}

impl Default for RegressOptions {
    fn default() -> RegressOptions {
        RegressOptions {
            quick: true,
            tolerance: 0.5,
            baseline_dir: PathBuf::from("."),
            threads: multihonest::core::pool::default_threads(),
        }
    }
}

/// The verdict for one target: every failed check, with the check count
/// for context.
#[derive(Debug)]
pub struct TargetOutcome {
    /// Which target ran.
    pub target: &'static str,
    /// The baseline file it diffed against.
    pub baseline_path: PathBuf,
    /// Checks evaluated.
    pub checks: usize,
    /// Human-readable descriptions of every failed check.
    pub failures: Vec<String>,
}

impl TargetOutcome {
    /// `true` when every check passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The expected schema tag of a target's report.
pub fn expected_schema(target: &str) -> Option<&'static str> {
    Some(match target {
        "margin" => "multihonest-bench-margin/v1",
        "sim" => "multihonest-bench-sim/v1",
        "astar" => "multihonest-bench-astar/v1",
        "scenario" => "multihonest-bench-scenario/v1",
        "sweep" => "multihonest-bench-sweep/v1",
        "faults" => "multihonest-bench-faults/v1",
        "forkflow" => "multihonest-bench-forkflow/v1",
        _ => return None,
    })
}

/// The committed baseline file a target diffs against.
pub fn baseline_path(dir: &Path, target: &str) -> PathBuf {
    dir.join(format!("BENCH_{target}.json"))
}

/// Check accumulator: every assertion lands here, failures carry a
/// rendered description instead of panicking so one broken target still
/// reports every divergence it has.
struct Checks {
    n: usize,
    failures: Vec<String>,
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

    /// `report[key]` is the expected schema string, in both reports.
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

/// Loads and parses one committed baseline.
fn load_baseline(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read baseline {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("baseline {} is not JSON: {e}", path.display()))
}

/// Serializes a fresh report back through the same JSON pipeline the
/// binaries use and reparses it, so fresh and baseline are compared as
/// identical tree shapes.
fn reparse<T: serde::Serialize>(report: &T) -> Result<Value, String> {
    let text = serde_json::to_string(report).map_err(|e| format!("serialize fresh report: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("reparse fresh report: {e}"))
}

/// Rebuilds the target's report on the grid its binary would run.
fn build_fresh(target: &str, opts: &RegressOptions) -> Result<Value, String> {
    let quick = opts.quick;
    let threads = opts.threads;
    match target {
        "margin" => {
            let (alphas, ratios, ks): (Vec<f64>, Vec<f64>, Vec<usize>) = if quick {
                (vec![0.10, 0.30, 0.40], vec![1.0, 0.5], vec![100, 200])
            } else {
                (
                    crate::TABLE1_ALPHAS.to_vec(),
                    crate::TABLE1_RATIOS.to_vec(),
                    crate::TABLE1_KS.to_vec(),
                )
            };
            let (_cells, report) = crate::bench_report(&alphas, &ratios, &ks, threads);
            reparse(&report)
        }
        "sim" => {
            let cfg = crate::sim_bench_config(if quick { 600 } else { 2_000 });
            let ks: Vec<usize> = vec![5, 10, 20, 40, 80, 160];
            reparse(&crate::sim_bench_report(&cfg, 9, &ks))
        }
        "astar" => {
            let (ns, oracle_ns, mc_len, mc_trials): (&[usize], &[usize], usize, u64) = if quick {
                (&[100, 400], &[100, 400], 1_000, 8)
            } else {
                (&[200, 800, 3_000, 10_000], &[200, 800], 10_000, 32)
            };
            reparse(&crate::astar_bench_report(
                ns, oracle_ns, mc_len, mc_trials, threads, 4,
            ))
        }
        "scenario" => {
            let ks: Vec<usize> = vec![5, 20, 80];
            let report = if quick {
                multihonest_scenario::scenario_bench_report(600, 20_000, 100_000, 9, &ks, threads)
            } else {
                multihonest_scenario::scenario_bench_report(
                    2_000, 200_000, 1_000_000, 9, &ks, threads,
                )
            };
            reparse(&report)
        }
        "sweep" => {
            let spec = if quick {
                multihonest_sweep::CampaignSpec::quick_grid()
            } else {
                multihonest_sweep::CampaignSpec::default_grid()
            };
            let (_campaign, bench) = crate::sweep_bench_report(&spec, threads);
            reparse(&bench)
        }
        "faults" => {
            let (slots, trials, ks): (usize, u64, &[usize]) = if quick {
                (160, 8, &[8, 24])
            } else {
                (400, 48, &[8, 16, 32])
            };
            reparse(&crate::faults_bench_report(
                slots, trials, ks, threads, 0xC0FFEE,
            ))
        }
        "forkflow" => {
            let (slots, baseline_slots, mu_len) = if quick {
                (20_000, 10_000, 150)
            } else {
                (1_000_000, 1_000_000, 600)
            };
            reparse(&crate::forkflow_bench_report(
                slots,
                baseline_slots,
                mu_len,
                0xF0_12D,
            ))
        }
        other => Err(format!("unknown regress target {other:?}")),
    }
}

/// Per-target invariant layer: the correctness facts the old per-binary
/// CI smokes asserted, applied to the fresh report and re-checked on the
/// committed baseline.
fn check_invariants(target: &str, fresh: &Value, base: &Value, c: &mut Checks) {
    match target {
        "margin" => {
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
        "sim" => {
            // Schema + key-set layers carry this target; the builder
            // itself asserts indexed/oracle bit-identity before timing.
        }
        "astar" => {
            for (who, v) in [("fresh", fresh), ("baseline", base)] {
                let agreements = c.u64_field(v, who, "mc_rho_agreements");
                let trials = c.u64_field(v, who, "mc_trials");
                c.check(agreements == trials, || {
                    format!("{who} mc_rho_agreements {agreements} != mc_trials {trials}")
                });
            }
        }
        "scenario" => {
            let fe = c.u64_field(fresh, "fresh", "equivalence_scenarios");
            let be = c.u64_field(base, "baseline", "equivalence_scenarios");
            c.check(fe == be, || {
                format!("equivalence_scenarios differ: fresh {fe} vs baseline {be}")
            });
            let names = |v: &Value| -> Vec<String> {
                v.get("rows")
                    .and_then(Value::as_array)
                    .map(|rows| {
                        rows.iter()
                            .filter_map(|row| row.get("name").and_then(Value::as_str))
                            .map(str::to_string)
                            .collect()
                    })
                    .unwrap_or_default()
            };
            let (fn_, bn) = (names(fresh), names(base));
            c.check(!fn_.is_empty() && fn_ == bn, || {
                format!("scenario rosters differ: fresh {fn_:?} vs baseline {bn:?}")
            });
        }
        "sweep" => {
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
        "faults" => {
            let roster = |v: &Value| -> Vec<String> {
                v.get("scenarios")
                    .and_then(Value::as_array)
                    .map(|ss| {
                        ss.iter()
                            .filter_map(|s| s.get("scenario").and_then(Value::as_str))
                            .map(str::to_string)
                            .collect()
                    })
                    .unwrap_or_default()
            };
            let (fr, br) = (roster(fresh), roster(base));
            c.check(!fr.is_empty() && fr == br, || {
                format!("fault-scenario rosters differ: fresh {fr:?} vs baseline {br:?}")
            });
            for (who, v) in [("fresh", fresh), ("baseline", base)] {
                c.check(c.bool_probe(v, "all_conservative"), || {
                    format!("{who} all_conservative is not true")
                });
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
        "forkflow" => {
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
        _ => {}
    }
}

impl Checks {
    /// Reads a bool field without registering a check (for composite
    /// assertions that phrase their own failure).
    fn bool_probe(&self, v: &Value, key: &str) -> bool {
        v.get(key).and_then(Value::as_bool) == Some(true)
    }
}

/// The headline throughput field diffed on full grids (bigger is
/// better). `None` for targets whose headline lives in a lib test.
fn throughput_field(target: &str) -> Option<&'static str> {
    match target {
        "margin" => Some("cells_per_second"),
        "sim" => Some("sweep_speedup"),
        "astar" => Some("speedup_at_largest_oracle_n"),
        "scenario" => Some("million_slots_per_second"),
        "sweep" => Some("executions_per_second"),
        "forkflow" => Some("validation_speedup"),
        _ => None,
    }
}

/// Runs one target's regression gate.
///
/// # Errors
///
/// Returns `Err` only for environmental failures — an unknown target
/// name, an unreadable or unparsable baseline file. Check *failures*
/// land in the returned [`TargetOutcome`] instead.
pub fn regress_target(
    target: &'static str,
    opts: &RegressOptions,
) -> Result<TargetOutcome, String> {
    let baseline = baseline_path(&opts.baseline_dir, target);
    let base = load_baseline(&baseline)?;
    let fresh = build_fresh(target, opts)?;
    let mut c = Checks::new();
    let expected = expected_schema(target).ok_or_else(|| format!("unknown target {target:?}"))?;
    c.schemas_match(&fresh, &base, expected);
    c.key_sets_match(&fresh, &base);
    check_invariants(target, &fresh, &base, &mut c);
    if !opts.quick {
        if let Some(field) = throughput_field(target) {
            c.throughput_within(&fresh, &base, field, opts.tolerance);
        }
    }
    Ok(TargetOutcome {
        target,
        baseline_path: baseline,
        checks: c.n,
        failures: c.failures,
    })
}

/// Runs the gate over `targets` in order (the full roster when empty).
///
/// # Errors
///
/// Propagates the first environmental failure (see [`regress_target`]).
pub fn run_regress(
    targets: &[&'static str],
    opts: &RegressOptions,
) -> Result<Vec<TargetOutcome>, String> {
    let roster: Vec<&'static str> = if targets.is_empty() {
        REGRESS_TARGETS.to_vec()
    } else {
        targets.to_vec()
    };
    roster.iter().map(|t| regress_target(t, opts)).collect()
}

/// Renders the outcome table: one line per target, then every failure.
pub fn render_outcomes(outcomes: &[TargetOutcome]) -> String {
    let mut out = String::new();
    for o in outcomes {
        out.push_str(&format!(
            "regress {:<9} {:>4} checks  {}  vs {}\n",
            o.target,
            o.checks,
            if o.passed() { "ok  " } else { "FAIL" },
            o.baseline_path.display()
        ));
    }
    for o in outcomes {
        for f in &o.failures {
            out.push_str(&format!("  {}: {f}\n", o.target));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_table_covers_every_target() {
        for t in REGRESS_TARGETS {
            assert!(expected_schema(t).is_some(), "{t}");
        }
        assert!(expected_schema("nonsense").is_none());
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
        check_invariants("forkflow", &fresh, &base, &mut c);
        assert!(c.failures.is_empty(), "{:?}", c.failures);
    }
}

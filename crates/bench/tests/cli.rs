//! Property coverage for the hardened CLI parser: over arbitrary
//! flag/value/positional interleavings, `flag_value` never hands a flag
//! back as a value, errors exactly when the grammar says it must, and
//! `positionals` partitions cleanly against the flags. End-to-end checks
//! run the binaries themselves with an unknown flag, a stray word, a bad
//! value or `--threads 0`.

use multihonest_bench::cli::{flag_value, parsed_flag, positionals, reject_unknown_flags};
use proptest::prelude::*;

/// A small but adversarial token alphabet: value-taking flags, boolean
/// flags, plausible values, and things that look like values of the
/// wrong type.
fn arb_token() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("--seed".to_string()),
        Just("--threads".to_string()),
        Just("--out".to_string()),
        Just("--trace".to_string()),
        Just("--heartbeat".to_string()),
        Just("--quick".to_string()),
        Just("--json".to_string()),
        Just("bench-report".to_string()),
        Just("abc".to_string()),
        Just("out.json".to_string()),
        Just("trace.json".to_string()),
        (0u64..10_000).prop_map(|n| n.to_string()),
    ]
}

fn arb_args() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec(arb_token(), 0..=8)
}

const VALUE_FLAGS: [&str; 5] = ["--seed", "--threads", "--out", "--trace", "--heartbeat"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// The bugfix property: whatever the interleaving, a returned value
    /// is never `--`-prefixed, and an error is returned exactly when the
    /// token after the flag's first occurrence is missing or a flag.
    #[test]
    fn values_are_never_flags(args in arb_args(), which in 0usize..5) {
        let flag = VALUE_FLAGS[which];
        let parsed = flag_value(&args, flag);
        match args.iter().position(|a| a == flag) {
            None => prop_assert_eq!(parsed, Ok(None)),
            Some(i) => match args.get(i + 1) {
                Some(v) if !v.starts_with("--") => {
                    prop_assert_eq!(parsed, Ok(Some(v.as_str())));
                }
                _ => prop_assert!(parsed.is_err(), "{flag} at {i} in {args:?}"),
            },
        }
    }

    /// Planting `flag value` into any argument vector that does not
    /// already mention the flag always parses back to exactly `value`.
    #[test]
    fn planted_flag_round_trips(
        base in arb_args(),
        at in 0usize..9,
        which in 0usize..5,
        value in 0u64..1_000_000,
    ) {
        let flag = VALUE_FLAGS[which];
        let mut args: Vec<String> = base.into_iter().filter(|a| a != flag).collect();
        let at = at.min(args.len());
        args.splice(at..at, [flag.to_string(), value.to_string()]);
        prop_assert_eq!(flag_value(&args, flag), Ok(Some(value.to_string().as_str())));
        prop_assert_eq!(parsed_flag::<u64>(&args, flag), Ok(Some(value)));
    }

    /// `parsed_flag` agrees with `flag_value` + `str::parse` everywhere.
    #[test]
    fn parsed_flag_matches_manual_parse(args in arb_args(), which in 0usize..5) {
        let flag = VALUE_FLAGS[which];
        let manual = match flag_value(&args, flag) {
            Err(_) => None,
            Ok(None) => Some(None),
            Ok(Some(v)) => v.parse::<u64>().ok().map(Some),
        };
        match (parsed_flag::<u64>(&args, flag), manual) {
            (Ok(got), Some(want)) => prop_assert_eq!(got, want),
            (Err(_), None) => {}
            (got, want) => prop_assert!(false, "{got:?} vs {want:?} on {args:?}"),
        }
    }

    /// `positionals` returns exactly the non-flag tokens that do not sit
    /// immediately after a value-taking flag, in order.
    #[test]
    fn positionals_partition_the_vector(args in arb_args()) {
        let pos = positionals(&args, &VALUE_FLAGS);
        let expected: Vec<&str> = args
            .iter()
            .enumerate()
            .filter(|(i, a)| {
                !a.starts_with("--")
                    && (*i == 0 || !VALUE_FLAGS.contains(&args[i - 1].as_str()))
            })
            .map(|(_, a)| a.as_str())
            .collect();
        prop_assert_eq!(pos.clone(), expected);
        for p in pos {
            prop_assert!(!p.starts_with("--"));
        }
    }

    /// The unknown-argument guard accepts exactly the vectors whose `--`
    /// tokens all come from the known flags and whose positional words
    /// (tokens not following a value-taking flag) all come from the known
    /// words.
    #[test]
    fn unknown_flag_guard_is_exact(args in arb_args()) {
        let switches = ["--quick"];
        let values = ["--seed", "--threads", "--out"];
        let words = ["bench-report"];
        let ok = reject_unknown_flags(&args, &switches, &values, &words).is_ok();
        let expect = args.iter().enumerate().all(|(i, a)| {
            if a.starts_with("--") {
                switches.contains(&a.as_str()) || values.contains(&a.as_str())
            } else {
                words.contains(&a.as_str()) || (i > 0 && values.contains(&args[i - 1].as_str()))
            }
        });
        prop_assert_eq!(ok, expect, "{:?}", args);
    }
}

/// Runs `bin` with `args` and asserts a usage error: exit 2 with `needle`
/// on stderr.
fn assert_usage_error(bin: &str, args: &[&str], needle: &str) {
    let out = std::process::Command::new(bin)
        .args(args)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(needle), "{bin} {args:?}: {stderr}");
}

/// The `table1` binary refuses a flag it does not know instead of running
/// the table with it silently ignored.
#[test]
fn table1_rejects_unknown_flags() {
    assert_usage_error(
        env!("CARGO_BIN_EXE_table1"),
        &["--bogus", "--quick"],
        "--bogus",
    );
}

#[test]
fn astar_rejects_unknown_flags() {
    assert_usage_error(
        env!("CARGO_BIN_EXE_astar"),
        &["--bogus", "--quick"],
        "--bogus",
    );
}

#[test]
fn settlement_rejects_unknown_flags() {
    assert_usage_error(
        env!("CARGO_BIN_EXE_settlement"),
        &["--bogus", "--quick"],
        "--bogus",
    );
}

/// `experiments` keeps its positional section names but refuses unknown
/// flags among them.
#[test]
fn experiments_rejects_unknown_flags() {
    assert_usage_error(
        env!("CARGO_BIN_EXE_experiments"),
        &["tiebreak", "--bogus", "--quick"],
        "--bogus",
    );
}

/// `scenario horizon --segment 0` is a usage error, not a panic.
#[test]
fn scenario_horizon_rejects_zero_segment() {
    assert_usage_error(
        env!("CARGO_BIN_EXE_scenario"),
        &["horizon", "--slots", "1000", "--segment", "0"],
        "--segment",
    );
}

/// Stray positional words, `--threads 0` and `scenario`'s horizon-only
/// flags without `horizon` are usage errors in every binary — each of
/// these command lines used to run (or half-run) and exit 0.
#[test]
fn binaries_reject_stray_words_and_zero_threads() {
    let astar = env!("CARGO_BIN_EXE_astar");
    let experiments = env!("CARGO_BIN_EXE_experiments");
    let faults = env!("CARGO_BIN_EXE_faults");
    let forkflow = env!("CARGO_BIN_EXE_forkflow");
    let regress = env!("CARGO_BIN_EXE_regress");
    let scenario = env!("CARGO_BIN_EXE_scenario");
    let settlement = env!("CARGO_BIN_EXE_settlement");
    let sweep = env!("CARGO_BIN_EXE_sweep");
    let table1 = env!("CARGO_BIN_EXE_table1");
    let cases: &[(&str, &[&str], &str)] = &[
        (scenario, &["horzion", "--quick"], "'horzion'"),
        (scenario, &["bench-reprot", "--quick"], "'bench-reprot'"),
        (experiments, &["bogus", "--quick"], "'bogus'"),
        (table1, &["bogus", "--quick"], "'bogus'"),
        (sweep, &["bogus", "--quick"], "'bogus'"),
        (astar, &["bogus", "--quick"], "'bogus'"),
        (settlement, &["bogus", "--quick"], "'bogus'"),
        (faults, &["bogus", "--quick"], "'bogus'"),
        (forkflow, &["bogus", "--quick"], "'bogus'"),
        (regress, &["bogus", "--quick"], "'bogus'"),
        (
            table1,
            &["bench-report", "--quick", "--threads", "0"],
            "--threads",
        ),
        (faults, &["--quick", "--threads", "0"], "--threads"),
        (
            scenario,
            &["bench-report", "--quick", "--threads", "0"],
            "--threads",
        ),
        (sweep, &["--quick", "--threads", "0"], "--threads"),
        (astar, &["--quick", "--threads", "0"], "--threads"),
        (experiments, &["--quick", "--threads", "0"], "--threads"),
        (regress, &["--quick", "--threads", "0"], "--threads"),
        (scenario, &["--quick", "--slots", "1000"], "--slots"),
        (scenario, &["--quick", "--segment", "64"], "--segment"),
        (scenario, &["--quick", "--wal", "w.wal"], "--wal"),
        (scenario, &["--quick", "--trace", "t.json"], "--trace"),
        (scenario, &["--quick", "--events", "e.jsonl"], "--events"),
        (scenario, &["--quick", "--heartbeat", "0"], "--heartbeat"),
    ];
    for &(bin, args, needle) in cases {
        assert_usage_error(bin, args, needle);
    }
}

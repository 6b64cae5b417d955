//! Property coverage for the hardened CLI parser: over arbitrary
//! flag/value/positional interleavings, `flag_value` never hands a flag
//! back as a value, errors exactly when the grammar says it must, and
//! `positionals` partitions cleanly against the flags; over arbitrary
//! `mh` argument vectors, `parse` never panics, fails exactly when a
//! restated grammar says it must, and round-trips planted flags.
//! End-to-end checks run `mh` itself: a malformed command line exits 2,
//! an unwritable output or other runtime failure exits 1, never 101.

use multihonest_bench::cli::{
    flag_value, parse, parsed_flag, positionals, reject_unknown_flags, Command,
};
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

/// `mh`'s grammar, restated independently of `cli.rs`: subcommand,
/// switches, value-taking flags, positional words.
type Rule = (
    &'static str,
    &'static [&'static str],
    &'static [&'static str],
    &'static [&'static str],
);

const SECTIONS: [&str; 5] = [
    "bound-vs-exact",
    "tiebreak",
    "delta-sync",
    "thresholds",
    "catalan-tails",
];

const GRAMMAR: [Rule; 9] = [
    ("table1", &["--quick", "--json"], &["--threads"], &[]),
    (
        "experiments",
        &["--quick", "--json"],
        &["--threads"],
        &SECTIONS,
    ),
    ("settlement", &["--quick"], &["--seed"], &[]),
    ("astar", &["--quick"], &["--seed", "--threads"], &[]),
    (
        "scenario",
        &["--quick", "--profile"],
        &["--seed", "--threads"],
        &[],
    ),
    (
        "horizon",
        &[],
        &[
            "--seed",
            "--slots",
            "--segment",
            "--wal",
            "--trace",
            "--events",
            "--heartbeat",
        ],
        &[],
    ),
    (
        "sweep",
        &["--quick"],
        &[
            "--seed",
            "--threads",
            "--out",
            "--csv",
            "--checkpoint",
            "--stop-after-cells",
            "--trace",
            "--heartbeat",
        ],
        &[],
    ),
    (
        "bench",
        &["--quick"],
        &["--seed", "--threads", "--out"],
        &[],
    ),
    (
        "regress",
        &["--quick"],
        &["--tolerance", "--only", "--dir", "--threads"],
        &[],
    ),
];

/// `bench` targets: (name, takes `--seed`, takes `--threads`).
const TARGETS: [(&str, bool, bool); 7] = [
    ("margin", false, true),
    ("sim", true, false),
    ("astar", true, true),
    ("scenario", true, true),
    ("sweep", true, true),
    ("faults", true, true),
    ("forkflow", true, false),
];

/// Every flag of every subcommand, two junk flags, every word, and
/// junk words; values follow in [`VALUES`].
const TOKENS: [&str; 36] = [
    "--quick",
    "--json",
    "--profile",
    "--seed",
    "--threads",
    "--out",
    "--csv",
    "--checkpoint",
    "--stop-after-cells",
    "--trace",
    "--events",
    "--heartbeat",
    "--slots",
    "--segment",
    "--wal",
    "--tolerance",
    "--only",
    "--dir",
    "--bogus",
    "--thread",
    "bound-vs-exact",
    "tiebreak",
    "delta-sync",
    "thresholds",
    "catalan-tails",
    "margin",
    "sim",
    "astar",
    "scenario",
    "sweep",
    "faults",
    "forkflow",
    "bench-report",
    "horzion",
    "nonsense",
    "abc",
];

/// Values: in range, zero, fractional, out of range, negative,
/// unparsable, paths, target names.
const VALUES: [&str; 10] = [
    "0", "1", "7", "0.5", "1.5", "-2", "nan", "x.json", "sweep", "--quick",
];

fn value_ok(flag: &str, v: &str) -> bool {
    match flag {
        "--seed" | "--heartbeat" => v.parse::<u64>().is_ok(),
        "--slots" => v.parse::<usize>().is_ok(),
        "--threads" | "--segment" | "--stop-after-cells" => {
            v.parse::<usize>().is_ok_and(|n| n >= 1)
        }
        "--tolerance" => v.parse::<f64>().is_ok_and(|t| (0.0..1.0).contains(&t)),
        "--only" => TARGETS.iter().any(|t| t.0 == v),
        _ => true,
    }
}

/// The restated grammar's verdict: a left-to-right scan.
fn model_accepts(argv: &[String]) -> bool {
    let Some((sub, mut rest)) = argv.split_first() else {
        return false;
    };
    let Some(&(_, switches, values, words)) = GRAMMAR.iter().find(|g| g.0 == sub) else {
        return false;
    };
    let mut values = values.to_vec();
    if sub == "bench" {
        let Some((t, r)) = rest.split_first() else {
            return false;
        };
        let Some(&(_, seed, threads)) = TARGETS.iter().find(|x| x.0 == t) else {
            return false;
        };
        values.retain(|f| (*f != "--seed" || seed) && (*f != "--threads" || threads));
        rest = r;
    }
    let mut seen: Vec<&str> = Vec::new();
    let mut i = 0;
    while i < rest.len() {
        let tok = rest[i].as_str();
        if !tok.starts_with("--") {
            if !words.contains(&tok) {
                return false; // stray word
            }
            i += 1;
            continue;
        }
        if seen.contains(&tok) {
            return false; // repeated flag
        }
        seen.push(tok);
        if switches.contains(&tok) {
            i += 1;
        } else if !values.contains(&tok) {
            return false; // unknown flag
        } else {
            match rest.get(i + 1) {
                Some(v) if !v.starts_with("--") && value_ok(tok, v) => i += 2,
                _ => return false, // missing, flag-shaped, unparsable or out of bounds
            }
        }
    }
    !seen.contains(&"--stop-after-cells") || seen.contains(&"--checkpoint")
}

/// The field `flag` landed in, rendered back to its token.
fn planted(cmd: &Command, flag: &str) -> Option<String> {
    let path = |p: &Option<std::path::PathBuf>| p.as_ref().map(|p| p.display().to_string());
    match flag {
        "--seed" => cmd.seed.map(|v| v.to_string()),
        "--threads" => Some(cmd.threads.to_string()),
        "--out" => path(&cmd.out),
        "--csv" => path(&cmd.csv),
        "--checkpoint" => path(&cmd.checkpoint),
        "--stop-after-cells" => cmd.stop_after_cells.map(|v| v.to_string()),
        "--trace" => path(&cmd.trace),
        "--events" => path(&cmd.events),
        "--heartbeat" => cmd.heartbeat.map(|v| v.to_string()),
        "--slots" => cmd.slots.map(|v| v.to_string()),
        "--segment" => cmd.segment.map(|v| v.to_string()),
        "--wal" => path(&cmd.wal),
        "--tolerance" => cmd.tolerance.map(|v| v.to_string()),
        "--only" => cmd.only.map(str::to_string),
        "--dir" => path(&cmd.dir),
        other => panic!("no field for {other}"),
    }
}

/// A subcommand (or a junk one), a `bench` target word, then pieces: a
/// token, optionally followed by a value.
fn arb_argv() -> impl Strategy<Value = Vec<String>> {
    (
        0usize..GRAMMAR.len() + 1,
        0usize..TARGETS.len() + 1,
        prop::collection::vec((0usize..TOKENS.len(), 0usize..VALUES.len() * 2), 0..=7),
    )
        .prop_map(|(sub, target, pieces)| {
            let mut argv = vec![GRAMMAR.get(sub).map_or("horzion", |g| g.0).to_string()];
            if argv[0] == "bench" {
                argv.push(TARGETS.get(target).map_or("nonsense", |t| t.0).to_string());
            }
            for (t, v) in pieces {
                argv.push(TOKENS[t].to_string());
                if let Some(v) = VALUES.get(v) {
                    argv.push(v.to_string());
                }
            }
            argv
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    /// `parse` never panics and fails exactly when the restated grammar
    /// refuses the vector: an unknown or repeated flag, a stray word, a
    /// missing, flag-shaped or unparsable value, or a violated bound.
    #[test]
    fn parse_fails_exactly_on_malformed_argv(argv in arb_argv()) {
        let got = parse(&argv);
        prop_assert_eq!(got.is_ok(), model_accepts(&argv), "{:?} -> {:?}", argv, got);
    }

    /// Valid flags planted in any order into a valid vector round-trip
    /// into their fields.
    #[test]
    fn planted_mh_flags_round_trip(
        sub in 0usize..GRAMMAR.len(),
        target in 0usize..TARGETS.len(),
        mask in any::<u32>(),
        keys in prop::collection::vec(any::<u32>(), 12),
        numbers in prop::collection::vec(1u64..1_000_000, 12),
    ) {
        let (name, switches, values, words) = GRAMMAR[sub];
        let mut values = values.to_vec();
        let mut argv = vec![name.to_string()];
        if name == "bench" {
            let (t, seed, threads) = TARGETS[target];
            values.retain(|f| (*f != "--seed" || seed) && (*f != "--threads" || threads));
            argv.push(t.to_string());
        }
        let mut pieces: Vec<Vec<String>> = Vec::new();
        let mut expect: Vec<(&str, String)> = Vec::new();
        for (i, flag) in switches.iter().chain(&values).enumerate() {
            if mask >> i & 1 == 0 && *flag != "--checkpoint" {
                continue;
            }
            if switches.contains(flag) {
                pieces.push(vec![flag.to_string()]);
                continue;
            }
            let v = match *flag {
                "--tolerance" => format!("0.{}", 1 + numbers[i] % 9),
                "--only" => TARGETS[numbers[i] as usize % TARGETS.len()].0.to_string(),
                "--out" | "--csv" | "--checkpoint" | "--trace" | "--events" | "--wal" | "--dir" => {
                    format!("p{}.json", numbers[i])
                }
                _ => numbers[i].to_string(),
            };
            pieces.push(vec![flag.to_string(), v.clone()]);
            expect.push((flag, v));
        }
        if name == "experiments" {
            for (i, w) in words.iter().enumerate() {
                if mask >> (16 + i) & 1 == 1 {
                    pieces.push(vec![w.to_string()]);
                }
            }
        }
        let mut order: Vec<usize> = (0..pieces.len()).collect();
        order.sort_by_key(|&i| keys[i % keys.len()].wrapping_mul(i as u32 + 1));
        for i in order {
            argv.extend(pieces[i].iter().cloned());
        }
        let cmd = parse(&argv).unwrap_or_else(|e| panic!("{argv:?}: {e}"));
        for (flag, v) in expect {
            prop_assert_eq!(planted(&cmd, flag), Some(v), "{} in {:?}", flag, argv);
        }
        prop_assert_eq!(cmd.quick, argv.iter().any(|a| a == "--quick"));
        prop_assert_eq!(cmd.json, argv.iter().any(|a| a == "--json"));
        prop_assert_eq!(cmd.profile, argv.iter().any(|a| a == "--profile"));
    }
}

const MH: &str = env!("CARGO_BIN_EXE_mh");

/// Runs `mh args` and asserts a usage error: exit 2 with `needle` on
/// stderr.
fn assert_usage_error(args: &[&str], needle: &str) {
    let out = std::process::Command::new(MH)
        .args(args)
        .output()
        .expect("mh runs");
    assert_eq!(out.status.code(), Some(2), "mh {args:?}: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(needle), "mh {args:?}: {stderr}");
}

/// `mh table1` refuses a flag it does not know instead of running the
/// table with it silently ignored.
#[test]
fn table1_rejects_unknown_flags() {
    assert_usage_error(&["table1", "--bogus", "--quick"], "--bogus");
}

#[test]
fn astar_rejects_unknown_flags() {
    assert_usage_error(&["astar", "--bogus", "--quick"], "--bogus");
}

#[test]
fn settlement_rejects_unknown_flags() {
    assert_usage_error(&["settlement", "--bogus", "--quick"], "--bogus");
}

/// `experiments` keeps its positional section names but refuses unknown
/// flags among them.
#[test]
fn experiments_rejects_unknown_flags() {
    assert_usage_error(
        &["experiments", "tiebreak", "--bogus", "--quick"],
        "--bogus",
    );
}

/// `horizon --segment 0` is a usage error, not a panic.
#[test]
fn scenario_horizon_rejects_zero_segment() {
    assert_usage_error(
        &["horizon", "--slots", "1000", "--segment", "0"],
        "--segment",
    );
}

/// Stray positional words, `--threads 0`, flags a subcommand does not
/// take, a repeated flag and the `--stop-after-cells` rules are usage
/// errors in every subcommand.
#[test]
fn binaries_reject_stray_words_and_zero_threads() {
    let cases: &[(&[&str], &str)] = &[
        (&["horzion", "--quick"], "'horzion'"),
        (&["scenario", "horzion", "--quick"], "'horzion'"),
        (&["scenario", "bench-reprot", "--quick"], "'bench-reprot'"),
        (&["experiments", "bogus", "--quick"], "'bogus'"),
        (&["table1", "bogus", "--quick"], "'bogus'"),
        (&["sweep", "bogus", "--quick"], "'bogus'"),
        (&["astar", "bogus", "--quick"], "'bogus'"),
        (&["settlement", "bogus", "--quick"], "'bogus'"),
        (&["bench", "faults", "bogus", "--quick"], "'bogus'"),
        (&["bench", "forkflow", "bogus", "--quick"], "'bogus'"),
        (&["bench", "bogus", "--quick"], "'bogus'"),
        (&["bench", "--quick"], "target"),
        (&["regress", "bogus", "--quick"], "'bogus'"),
        (&["regress", "--quick", "--only", "bogus"], "'bogus'"),
        (&["regress", "--quick", "--tolerance", "1.5"], "--tolerance"),
        (&["table1", "--quick", "--threads", "0"], "--threads"),
        (
            &["bench", "margin", "--quick", "--threads", "0"],
            "--threads",
        ),
        (
            &["bench", "faults", "--quick", "--threads", "0"],
            "--threads",
        ),
        (
            &["bench", "scenario", "--quick", "--threads", "0"],
            "--threads",
        ),
        (&["scenario", "--quick", "--threads", "0"], "--threads"),
        (&["sweep", "--quick", "--threads", "0"], "--threads"),
        (&["astar", "--quick", "--threads", "0"], "--threads"),
        (&["experiments", "--quick", "--threads", "0"], "--threads"),
        (&["regress", "--quick", "--threads", "0"], "--threads"),
        (&["scenario", "--quick", "--slots", "1000"], "--slots"),
        (&["scenario", "--quick", "--segment", "64"], "--segment"),
        (&["scenario", "--quick", "--wal", "w.wal"], "--wal"),
        (&["scenario", "--quick", "--trace", "t.json"], "--trace"),
        (&["scenario", "--quick", "--events", "e.jsonl"], "--events"),
        (&["scenario", "--quick", "--heartbeat", "0"], "--heartbeat"),
        (&["horizon", "--quick"], "--quick"),
        (&["bench", "margin", "--quick", "--seed", "3"], "--seed"),
        (&["bench", "sim", "--quick", "--threads", "2"], "--threads"),
        (
            &["bench", "forkflow", "--quick", "--slots", "10"],
            "--slots",
        ),
        (&["bench", "faults", "--quick", "--trials", "0"], "--trials"),
        (&["bench", "sweep", "--quick", "--csv", "c.csv"], "--csv"),
        (
            &["sweep", "--quick", "--seed", "1", "--seed", "2"],
            "more than once",
        ),
        (
            &[
                "sweep",
                "--quick",
                "--stop-after-cells",
                "0",
                "--out",
                "s.json",
            ],
            "--stop-after-cells",
        ),
        (
            &[
                "sweep",
                "--quick",
                "--stop-after-cells",
                "2",
                "--out",
                "s.json",
            ],
            "--checkpoint",
        ),
        (
            &[
                "sweep",
                "--quick",
                "--checkpoint",
                "c.ck",
                "--stop-after-cells",
                "0",
            ],
            "at least 1",
        ),
    ];
    for &(args, needle) in cases {
        assert_usage_error(args, needle);
    }
}

/// A fresh scratch directory under the system temp dir.
fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mh-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Every `--out` / `--csv` / `--trace` / `--events` write goes through
/// one writer: an unwritable path prints `error: cannot write <path>`
/// and exits 1 instead of panicking with 101.
#[test]
fn unwritable_outputs_exit_1_not_101() {
    let dir = scratch("unwritable");
    let missing = dir.join("no-such-dir").join("x.json");
    let missing = missing.to_str().unwrap();
    let report = dir.join("s.json");
    let report = report.to_str().unwrap();
    let cases: &[&[&str]] = &[
        &["bench", "margin", "--quick", "--out", missing],
        &["sweep", "--quick", "--out", missing],
        &["sweep", "--quick", "--out", report, "--csv", missing],
        &["sweep", "--quick", "--out", report, "--trace", missing],
        &[
            "horizon",
            "--slots",
            "1000",
            "--segment",
            "64",
            "--trace",
            missing,
        ],
        &[
            "horizon",
            "--slots",
            "1000",
            "--segment",
            "64",
            "--events",
            missing,
        ],
    ];
    for args in cases {
        let out = std::process::Command::new(MH)
            .args(*args)
            .output()
            .expect("mh runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "mh {args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("error: cannot write {missing}")),
            "mh {args:?}: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The checkpoint repro: after an edit to cell 0's counts, the resumed
/// campaign recomputes that cell and renders a report byte-identical to
/// the uninterrupted one.
#[test]
fn edited_sweep_checkpoint_is_recomputed_not_resumed() {
    let dir = scratch("checkpoint");
    let (ck, base, again) = (
        dir.join("c.ck"),
        dir.join("base.json"),
        dir.join("again.json"),
    );
    let sweep = |out: &std::path::Path| {
        std::process::Command::new(MH)
            .args(["sweep", "--quick", "--threads", "2", "--checkpoint"])
            .arg(&ck)
            .arg("--out")
            .arg(out)
            .output()
            .expect("mh runs")
    };
    assert!(sweep(&base).status.success());
    let text = std::fs::read_to_string(&ck).unwrap();
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let key = "\"violating_anchors\":[";
    let at = lines[1].find(key).expect("cell 0 counts") + key.len();
    let end = at + lines[1][at..].find(',').unwrap();
    let edited = lines[1][at..end].parse::<u64>().unwrap() + 1;
    lines[1].replace_range(at..end, &edited.to_string());
    std::fs::write(&ck, lines.join("\n") + "\n").unwrap();

    let out = sweep(&again);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("fails its checksum"), "{stderr}");
    assert_eq!(
        std::fs::read(&base).unwrap(),
        std::fs::read(&again).unwrap()
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

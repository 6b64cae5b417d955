//! The `mh` command line: one grammar table, one pure [`parse`].
//!
//! Bare `std::env::args` handling (no argument-parser crate offline).
//! Malformed command lines are reported, not panicked on: [`parse`]
//! returns a [`CliError`] naming what was wrong plus the subcommand's
//! usage, and `mh` turns it into exit status 2. The grammar is strict:
//!
//! * a `--` token the subcommand does not know is an error (`--thread`);
//! * so is a positional word it does not take (`horzion`);
//! * a value-taking flag needs a value that is not itself `--`-shaped
//!   (so `--seed --quick` cannot take `--quick` as the seed) and that
//!   parses;
//! * every flag is given at most once;
//! * bounds: `--threads 0`, `--segment 0`, `--stop-after-cells 0`,
//!   `--stop-after-cells` without `--checkpoint`, a `--tolerance`
//!   outside `[0, 1)` and an unknown `--only` target are refused.

use std::fmt;
use std::path::PathBuf;
use std::str::FromStr;

use multihonest::core::pool;

use crate::regress::{target, TARGETS};

/// A malformed command line, human-readable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// The value following `--flag`.
///
/// `Ok(None)` when the flag is absent; an error when the flag is
/// present but followed by nothing or by another `--`-prefixed
/// token (which is a flag, not a value).
pub fn flag_value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, CliError> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    match args.get(i + 1).map(String::as_str) {
        Some(v) if !v.starts_with("--") => Ok(Some(v)),
        Some(v) => Err(CliError(format!(
            "{flag} expects a value, found flag '{v}'"
        ))),
        None => Err(CliError(format!("{flag} expects a value"))),
    }
}

/// The value of `--flag` parsed as `T`; `Ok(None)` when absent.
pub fn parsed_flag<T: FromStr>(args: &[String], flag: &str) -> Result<Option<T>, CliError> {
    match flag_value(args, flag)? {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| CliError(format!("{flag}: invalid value '{v}'"))),
    }
}

/// Fails on any `--` token outside `switches` and `value_flags`, and
/// on any positional word outside `words` (a value-taking flag's value
/// is not positional) — catches typos like `--thread` or `horzion`
/// before they are silently ignored.
pub fn reject_unknown_flags(
    args: &[String],
    switches: &[&str],
    value_flags: &[&str],
    words: &[&str],
) -> Result<(), CliError> {
    let known = |a: &str| switches.contains(&a) || value_flags.contains(&a);
    if let Some(flag) = args.iter().find(|a| a.starts_with("--") && !known(a)) {
        return Err(CliError(format!("unknown flag '{flag}'")));
    }
    match positionals(args, value_flags)
        .into_iter()
        .find(|w| !words.contains(w))
    {
        Some(word) => Err(CliError(format!("unknown argument '{word}'"))),
        None => Ok(()),
    }
}

/// The `--threads` worker count: all cores when absent, and an error
/// for 0 — a run needs at least one worker.
fn threads(args: &[String]) -> Result<usize, CliError> {
    match parsed_flag(args, "--threads")? {
        Some(0) => Err(CliError("--threads must be at least 1".to_string())),
        Some(n) => Ok(n),
        None => Ok(pool::default_threads()),
    }
}

/// Positional (non-`--`) arguments, excluding the values consumed by
/// the listed value-taking flags.
pub fn positionals<'a>(args: &'a [String], value_flags: &[&str]) -> Vec<&'a str> {
    args.iter()
        .enumerate()
        .filter(|(i, a)| {
            !a.starts_with("--")
                && !i
                    .checked_sub(1)
                    .map(|p| value_flags.contains(&args[p].as_str()))
                    .unwrap_or(false)
        })
        .map(|(_, a)| a.as_str())
        .collect()
}

/// The `mh` subcommands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sub {
    /// Paper Table 1 from the exact margin DP.
    Table1,
    /// The E6–E10 comparisons.
    Experiments,
    /// Observed settlement violations of the withholding execution.
    Settlement,
    /// Canonical-fork Monte Carlo statistics.
    Astar,
    /// The scenario grid table.
    Scenario,
    /// One bounded-memory long-horizon execution.
    Horizon,
    /// A checkpointed campaign sweep.
    Sweep,
    /// One registry target's report.
    Bench,
    /// The baseline regression gate over the registry.
    Regress,
}

/// One subcommand's grammar: its name, switches, value-taking flags and
/// the positional words it takes. Usage lines are derived from it.
type Grammar = (Sub, &'static str, Tokens, Tokens, Tokens);

type Tokens = &'static [&'static str];

const SECTIONS: Tokens = &[
    "bound-vs-exact",
    "tiebreak",
    "delta-sync",
    "thresholds",
    "catalan-tails",
];

/// Every subcommand's grammar. `bench` lists each flag a target may
/// take; the chosen target drops those it does not (a seedless target
/// refuses `--seed`, a serial one `--threads`).
#[rustfmt::skip]
const GRAMMARS: [Grammar; 9] = [
    (Sub::Table1, "table1", &["--quick", "--json"], &["--threads"], &[]),
    (Sub::Experiments, "experiments", &["--quick", "--json"], &["--threads"], SECTIONS),
    (Sub::Settlement, "settlement", &["--quick"], &["--seed"], &[]),
    (Sub::Astar, "astar", &["--quick"], &["--seed", "--threads"], &[]),
    (Sub::Scenario, "scenario", &["--quick", "--profile"], &["--seed", "--threads"], &[]),
    (Sub::Horizon, "horizon", &[],
        &["--seed", "--slots", "--segment", "--wal", "--trace", "--events", "--heartbeat"], &[]),
    (Sub::Sweep, "sweep", &["--quick"],
        &["--seed", "--threads", "--out", "--csv", "--checkpoint", "--stop-after-cells",
          "--trace", "--heartbeat"], &[]),
    (Sub::Bench, "bench", &["--quick"], &["--seed", "--threads", "--out"], &[]),
    (Sub::Regress, "regress", &["--quick"], &["--tolerance", "--only", "--dir", "--threads"], &[]),
];

/// The usage line of `mh <head>` with the given grammar.
fn usage(head: &str, switches: &[&str], values: &[&str], words: &[&str]) -> String {
    let mut u = format!("mh {head}");
    for s in switches {
        u += &format!(" [{s}]");
    }
    for v in values {
        u += &format!(" [{v} <value>]");
    }
    if !words.is_empty() {
        u += &format!(" [{}]...", words.join("|"));
    }
    u
}

/// A parsed `mh` command line. Fields a subcommand does not take stay
/// `None` / `false`; `threads` is 1 for subcommands that run serially.
/// Each `Option` field holds its flag's value (`out` is `--out`, …).
#[derive(Debug, Clone, PartialEq)]
pub struct Command {
    pub sub: Sub,
    /// `bench`'s registry target.
    pub target: Option<&'static str>,
    /// `experiments`' section names (all sections when empty).
    pub sections: Vec<String>,
    pub quick: bool,
    pub json: bool,
    pub profile: bool,
    pub threads: usize,
    pub seed: Option<u64>,
    pub out: Option<PathBuf>,
    pub csv: Option<PathBuf>,
    pub checkpoint: Option<PathBuf>,
    /// At least 1, and only with `--checkpoint`.
    pub stop_after_cells: Option<usize>,
    pub trace: Option<PathBuf>,
    pub events: Option<PathBuf>,
    /// Heartbeat period in seconds.
    pub heartbeat: Option<u64>,
    pub slots: Option<usize>,
    /// At least 1.
    pub segment: Option<usize>,
    pub wal: Option<PathBuf>,
    /// In `[0, 1)`.
    pub tolerance: Option<f64>,
    /// `regress --only`'s registry target.
    pub only: Option<&'static str>,
    pub dir: Option<PathBuf>,
}

/// Parses `mh`'s arguments (without the program name). Pure: it reads
/// nothing but `argv` and the core count (the `--threads` default).
///
/// # Errors
///
/// A [`CliError`] carrying the reason and the usage line.
pub fn parse(argv: &[String]) -> Result<Command, CliError> {
    let names: Vec<&str> = GRAMMARS.iter().map(|g| g.1).collect();
    let top = format!("mh <{}> [flags...]", names.join("|"));
    let Some((first, mut args)) = argv.split_first() else {
        return Err(CliError(format!("missing subcommand\nusage: {top}")));
    };
    let Some(&(sub, name, switches, values, words)) = GRAMMARS.iter().find(|g| g.1 == first) else {
        return Err(CliError(format!(
            "unknown subcommand '{first}'\nusage: {top}"
        )));
    };
    let mut values = values.to_vec();
    let mut head = name.to_string();
    let mut bench_target = None;
    if sub == Sub::Bench {
        let targets: Vec<&str> = TARGETS.iter().map(|t| t.name()).collect();
        head = format!("bench <{}>", targets.join("|"));
        let Some(t) = args.first().and_then(|w| target(w)) else {
            let found = args
                .first()
                .map_or("nothing".to_string(), |w| format!("'{w}'"));
            let usage = usage(&head, switches, &values, words);
            return Err(CliError(format!(
                "bench expects a target, found {found}\nusage: {usage}"
            )));
        };
        values.retain(|f| match *f {
            "--seed" => t.seed().is_some(),
            "--threads" => t.threaded(),
            _ => true,
        });
        head = format!("bench {}", t.name());
        bench_target = Some(t.name());
        args = &args[1..];
    }
    parse_args(sub, args, switches, &values, words)
        .map(|cmd| Command {
            target: bench_target,
            ..cmd
        })
        .map_err(|e| {
            let usage = usage(&head, switches, &values, words);
            CliError(format!("{e}\nusage: {usage}"))
        })
}

fn parse_args(
    sub: Sub,
    args: &[String],
    switches: &[&str],
    values: &[&str],
    words: &[&str],
) -> Result<Command, CliError> {
    reject_unknown_flags(args, switches, values, words)?;
    if let Some((_, flag)) = args
        .iter()
        .enumerate()
        .find(|(i, a)| a.starts_with("--") && args[..*i].contains(a))
    {
        return Err(CliError(format!("{flag} given more than once")));
    }
    let has = |flag: &str| args.iter().any(|a| a == flag);
    let path = |flag: &str| flag_value(args, flag).map(|v| v.map(PathBuf::from));
    let only = match flag_value(args, "--only")? {
        None => None,
        Some(name) => Some(
            target(name)
                .ok_or_else(|| CliError(format!("unknown target '{name}'")))?
                .name(),
        ),
    };
    let cmd = Command {
        sub,
        target: None,
        sections: positionals(args, values)
            .into_iter()
            .map(str::to_string)
            .collect(),
        quick: has("--quick"),
        json: has("--json"),
        profile: has("--profile"),
        threads: if values.contains(&"--threads") {
            threads(args)?
        } else {
            1
        },
        seed: parsed_flag(args, "--seed")?,
        out: path("--out")?,
        csv: path("--csv")?,
        checkpoint: path("--checkpoint")?,
        stop_after_cells: parsed_flag(args, "--stop-after-cells")?,
        trace: path("--trace")?,
        events: path("--events")?,
        heartbeat: parsed_flag(args, "--heartbeat")?,
        slots: parsed_flag(args, "--slots")?,
        segment: parsed_flag(args, "--segment")?,
        wal: path("--wal")?,
        tolerance: parsed_flag(args, "--tolerance")?,
        only,
        dir: path("--dir")?,
    };
    let bound = |msg: &str| Err(CliError(msg.to_string()));
    if cmd.segment == Some(0) {
        return bound("--segment must be positive");
    }
    if cmd.stop_after_cells == Some(0) {
        return bound("--stop-after-cells must be at least 1");
    }
    if cmd.stop_after_cells.is_some() && cmd.checkpoint.is_none() {
        return bound(
            "--stop-after-cells requires --checkpoint (without one the run keeps nothing)",
        );
    }
    if cmd.tolerance.is_some_and(|t| !(0.0..1.0).contains(&t)) {
        return bound("--tolerance must be in [0, 1)");
    }
    Ok(cmd)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(tokens: &[&str]) -> Vec<String> {
        tokens.iter().map(|t| t.to_string()).collect()
    }

    #[test]
    fn absent_flag_is_none() {
        assert_eq!(flag_value(&args(&["--quick"]), "--seed"), Ok(None));
        assert_eq!(parsed_flag::<u64>(&args(&[]), "--seed"), Ok(None));
    }

    #[test]
    fn present_flag_yields_its_value() {
        let a = args(&["--seed", "17", "--quick"]);
        assert_eq!(flag_value(&a, "--seed"), Ok(Some("17")));
        assert_eq!(parsed_flag::<u64>(&a, "--seed"), Ok(Some(17)));
    }

    #[test]
    fn flag_shaped_value_rejected() {
        // The bug this module's rewrite fixes: "--seed --quick" must
        // not parse "--quick" as the seed.
        let a = args(&["--seed", "--quick"]);
        let err = flag_value(&a, "--seed").unwrap_err();
        assert!(err.to_string().contains("found flag '--quick'"), "{err}");
        assert!(parsed_flag::<u64>(&a, "--seed").is_err());
    }

    #[test]
    fn trailing_flag_without_value_rejected() {
        let err = flag_value(&args(&["--out"]), "--out").unwrap_err();
        assert_eq!(err.to_string(), "--out expects a value");
    }

    #[test]
    fn unparseable_value_names_the_flag() {
        let err = parsed_flag::<u64>(&args(&["--seed", "abc"]), "--seed").unwrap_err();
        assert_eq!(err.to_string(), "--seed: invalid value 'abc'");
    }

    #[test]
    fn unknown_flags_are_caught() {
        let a = args(&["--thread", "4"]);
        assert!(reject_unknown_flags(&a, &[], &["--threads"], &[]).is_err());
        assert_eq!(reject_unknown_flags(&a, &[], &["--thread"], &[]), Ok(()));
    }

    #[test]
    fn positionals_skip_flag_values() {
        let a = args(&["run", "--seed", "3", "fast", "--quick"]);
        assert_eq!(positionals(&a, &["--seed"]), vec!["run", "fast"]);
    }
}

//! What produced a result: revision, toolchain, host and inputs.
//!
//! The benchmark may run from a plain copy of the repository with no git
//! metadata, so besides the git revision (when there is one) it records a
//! digest of the sources it builds from, which names the code either way.

use std::path::{Path, PathBuf};
use std::process::Command;

use serde::{Serialize, Value};

use crate::object;

/// The first line of a command's stdout, or `"unknown"`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .filter(|l| !l.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checked-out git revision, or `"unknown"` when the working
/// directory is not the top of a git work tree (a plain copy of the
/// repository, or one nested inside some other repository).
fn git_rev() -> String {
    let top = command_line("git", &["rev-parse", "--show-toplevel"]);
    let here = std::env::current_dir().and_then(|d| d.canonicalize());
    let top = Path::new(&top).canonicalize();
    match (here, top) {
        (Ok(here), Ok(top)) if here == top => command_line("git", &["rev-parse", "HEAD"]),
        _ => "unknown".to_string(),
    }
}

/// Every file under `dir` with one of `exts`, recursively.
fn files_under(dir: &Path, exts: &[&str], out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            files_under(&path, exts, out);
        } else if path
            .extension()
            .and_then(|e| e.to_str())
            .is_some_and(|e| exts.contains(&e))
        {
            out.push(path);
        }
    }
}

/// FNV-1a (64-bit) over the sorted paths and contents of the Rust sources
/// and manifests the benchmark builds from.
fn source_digest() -> String {
    let mut files = Vec::new();
    for dir in ["crates", "vendor", "perfbench/src"] {
        files_under(Path::new(dir), &["rs", "toml"], &mut files);
    }
    files.extend(
        ["Cargo.toml", "Cargo.lock", "perfbench/Cargo.toml"]
            .iter()
            .map(PathBuf::from),
    );
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for file in &files {
        if let Ok(content) = std::fs::read(file) {
            feed(file.to_string_lossy().as_bytes());
            feed(&content);
        }
    }
    format!("fnv1a64:{h:016x} over {} files", files.len())
}

/// `YYYY-MM-DDTHH:MM:SSZ` for a Unix time.
fn utc(unix: u64) -> String {
    let (days, secs) = (unix / 86_400, unix % 86_400);
    // Civil-from-days (proleptic Gregorian), after H. Hinnant.
    let z = days as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z",
        secs / 3600,
        secs % 3600 / 60,
        secs % 60
    )
}

/// The first `model name` of `/proc/cpuinfo`, or `"unknown"`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The provenance block of one run.
pub fn collect(seed: u64, threads: usize, seconds: u64, trace: bool) -> Value {
    let unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|h| h.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    object([
        ("git_rev", git_rev().to_value()),
        ("source_digest", source_digest().to_value()),
        ("rustc", command_line("rustc", &["-V"]).to_value()),
        ("nproc", nproc.to_value()),
        ("threads", threads.to_value()),
        ("host", host.to_value()),
        ("cpu", cpu_model().to_value()),
        ("utc", utc(unix).to_value()),
        ("seed", seed.to_value()),
        ("seconds", seconds.to_value()),
        ("trace", trace.to_value()),
    ])
}

#[cfg(test)]
mod tests {
    use super::utc;

    #[test]
    fn utc_formats_known_instants() {
        assert_eq!(utc(0), "1970-01-01T00:00:00Z");
        assert_eq!(utc(951_782_400), "2000-02-29T00:00:00Z");
        assert_eq!(utc(1_700_000_000), "2023-11-14T22:13:20Z");
    }
}

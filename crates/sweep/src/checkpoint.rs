//! Campaign checkpoints: atomic, line-oriented snapshots of completed
//! cells.
//!
//! ## Format (`multihonest-sweep-checkpoint/v4`)
//!
//! One compact-JSON object per line — a header, then one completed cell
//! per line:
//!
//! ```text
//! {"schema":"multihonest-sweep-checkpoint/v4","spec_fingerprint":1234567890,"kernel_version":1}
//! {"crc":<u32>,"cell":0,"aggregate":{ ...CellAggregate... }}
//! {"crc":<u32>,"cell":3,"aggregate":{ ... }}
//! ```
//!
//! `crc` is the CRC-32 ([`crc32`]) of the cell's canonical bytes: the
//! line without its `crc` field, `{"cell":…,"aggregate":{…}}`, exactly as
//! [`CompletedCell`] serializes. Loading re-renders every parsed cell
//! and compares, so an edited count, index or fingerprint is caught
//! even though it still parses. (`CellAggregate::fingerprint` hashes
//! the trials, so it cannot be recomputed from the stored counts.)
//!
//! `kernel_version` pins the execution engine revision
//! ([`ENGINE_KERNEL_VERSION`]) the snapshot's aggregates were computed
//! with. A campaign resumed under a different kernel would silently mix
//! aggregates from two different samplers into one grid, so a mismatch
//! is rejected with the same hard error as a wrong spec fingerprint.
//! (v2 snapshots carried no kernel tag and are likewise rejected — the
//! cells they hold cannot be attributed to a kernel.)
//!
//! Only **whole completed cells** are checkpointed: a cell's aggregate is
//! flushed once its last trial chunk lands, so every snapshot is a valid
//! prefix of the campaign regardless of where execution was interrupted.
//! Writes go to a temp file in the same directory, **fsync**, then
//! rename, so a kill mid-write leaves the previous snapshot intact and a
//! power loss cannot publish an unsynced rename. Should a snapshot still
//! arrive truncated or corrupted (torn tail, non-atomic filesystem, a
//! flipped byte), loading **drops the tail from the first malformed or
//! checksum-failing line with a logged warning** and salvages the intact
//! prefix — every line is a self-contained cell, so a prefix is always a
//! valid (smaller) checkpoint and the dropped cells are simply
//! recomputed. A malformed *header* stays a hard error, as does a
//! [`CampaignSpec::fingerprint`] mismatch: those are not torn writes but
//! wrong files, and silently merging incompatible aggregates would
//! corrupt the campaign.
//!
//! [`CampaignSpec::fingerprint`]: crate::CampaignSpec::fingerprint

use std::fs;
use std::io::{self, Write as _};
use std::path::Path;

use multihonest_core::crc::crc32;
use multihonest_scenario::ENGINE_KERNEL_VERSION;
use serde::Serialize;
use serde::Value;

use crate::aggregate::CellAggregate;

/// Schema tag of the checkpoint format.
pub const CHECKPOINT_SCHEMA: &str = "multihonest-sweep-checkpoint/v4";

/// One completed cell in a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct CompletedCell {
    /// The cell's row-major grid index.
    pub cell: u64,
    /// Its finished aggregate.
    pub aggregate: CellAggregate,
}

/// A checkpoint: the completed prefix of a campaign.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Checkpoint {
    /// Always [`CHECKPOINT_SCHEMA`].
    pub schema: String,
    /// [`CampaignSpec::fingerprint`](crate::CampaignSpec::fingerprint)
    /// of the campaign this snapshot belongs to.
    pub spec_fingerprint: u64,
    /// [`ENGINE_KERNEL_VERSION`] of the engine that computed the
    /// aggregates.
    pub kernel_version: u32,
    /// Completed cells, sorted by cell index.
    pub completed: Vec<CompletedCell>,
}

impl Checkpoint {
    /// A checkpoint with no completed cells, stamped with the running
    /// engine's [`ENGINE_KERNEL_VERSION`].
    pub fn empty(spec_fingerprint: u64) -> Checkpoint {
        Checkpoint {
            schema: CHECKPOINT_SCHEMA.to_string(),
            spec_fingerprint,
            kernel_version: ENGINE_KERNEL_VERSION,
            completed: Vec::new(),
        }
    }

    /// Renders the line-oriented byte stream of the checkpoint.
    fn render(&self) -> String {
        let mut out = format!(
            "{{\"schema\":{},\"spec_fingerprint\":{},\"kernel_version\":{}}}\n",
            serde_json::to_string(&self.schema).expect("serializable"),
            self.spec_fingerprint,
            self.kernel_version
        );
        for cell in &self.completed {
            let canonical = serde_json::to_string(cell).expect("serializable");
            // `{"cell":…}` → `{"crc":N,"cell":…}`.
            out.push_str(&format!(
                "{{\"crc\":{},{}\n",
                crc32(canonical.as_bytes()),
                &canonical[1..]
            ));
        }
        out
    }

    /// Writes the checkpoint atomically: temp file + fsync + rename. The
    /// fsync orders the data before the rename publishes it, so a crash
    /// cannot leave the *renamed* path holding unsynced garbage.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let mut file = fs::File::create(&tmp)?;
        file.write_all(self.render().as_bytes())?;
        file.sync_all()?;
        drop(file);
        fs::rename(&tmp, path)
    }

    /// Loads and validates a checkpoint. Returns `Ok(None)` when `path`
    /// does not exist (a fresh campaign), an error when the file exists
    /// but has a malformed header or belongs to a different campaign
    /// spec. A malformed **tail** (torn write) is not an error, and
    /// neither is a cell line whose checksum fails: the intact prefix of
    /// cell lines is salvaged and the rest dropped with a warning on
    /// stderr — dropped cells are recomputed on resume.
    pub fn load(path: &Path, spec_fingerprint: u64) -> io::Result<Option<Checkpoint>> {
        let text = match fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        let mut lines = text.lines();
        let header = lines
            .next()
            .ok_or_else(|| bad_data("checkpoint is empty".to_string()))?;
        let header = serde_json::from_str(header)
            .map_err(|e| bad_data(format!("checkpoint header is not valid JSON: {e}")))?;
        let schema = field(&header, "schema")?
            .as_str()
            .ok_or_else(|| bad_data("checkpoint schema is not a string".to_string()))?;
        if schema != CHECKPOINT_SCHEMA {
            return Err(bad_data(format!(
                "unsupported checkpoint schema '{schema}' (expected '{CHECKPOINT_SCHEMA}')"
            )));
        }
        let found_fingerprint = field_u64(&header, "spec_fingerprint")?;
        if found_fingerprint != spec_fingerprint {
            return Err(bad_data(format!(
                "checkpoint belongs to a different campaign \
                 (spec fingerprint {found_fingerprint:#x}, expected {spec_fingerprint:#x})"
            )));
        }
        let found_kernel = field_u64(&header, "kernel_version")?;
        if found_kernel != u64::from(ENGINE_KERNEL_VERSION) {
            return Err(bad_data(format!(
                "checkpoint was computed by engine kernel v{found_kernel}, but this \
                 build runs kernel v{ENGINE_KERNEL_VERSION}; resuming would mix \
                 aggregates from two different samplers — delete the checkpoint \
                 (or rerun under the matching build) to proceed"
            )));
        }
        let mut completed = Vec::new();
        for (i, line) in lines.enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let parsed = serde_json::from_str(line)
                .map_err(|e| bad_data(format!("cell line is not valid JSON: {e}")))
                .and_then(|v| parse_checked_cell(&v));
            match parsed {
                Ok(cell) => completed.push(cell),
                Err(e) => {
                    // Torn or corrupted tail: everything from the first
                    // bad line on is dropped; the prefix is a valid
                    // checkpoint.
                    eprintln!(
                        "warning: {}: dropping malformed checkpoint tail \
                         from line {} ({}); {} completed cell(s) salvaged",
                        path.display(),
                        i + 2,
                        e,
                        completed.len()
                    );
                    break;
                }
            }
        }
        Ok(Some(Checkpoint {
            schema: schema.to_string(),
            spec_fingerprint: found_fingerprint,
            kernel_version: found_kernel as u32,
            completed,
        }))
    }
}

fn bad_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn field<'a>(value: &'a Value, key: &str) -> io::Result<&'a Value> {
    value
        .get(key)
        .ok_or_else(|| bad_data(format!("checkpoint field '{key}' is missing")))
}

fn field_u64(value: &Value, key: &str) -> io::Result<u64> {
    field(value, key)?.as_u64().ok_or_else(|| {
        bad_data(format!(
            "checkpoint field '{key}' is not an unsigned integer"
        ))
    })
}

fn field_i64(value: &Value, key: &str) -> io::Result<i64> {
    field(value, key)?
        .as_i64()
        .ok_or_else(|| bad_data(format!("checkpoint field '{key}' is not an integer")))
}

fn field_u64_array(value: &Value, key: &str) -> io::Result<Vec<u64>> {
    field(value, key)?
        .as_array()
        .ok_or_else(|| bad_data(format!("checkpoint field '{key}' is not an array")))?
        .iter()
        .map(|v| {
            v.as_u64()
                .ok_or_else(|| bad_data(format!("'{key}' holds a non-integer entry")))
        })
        .collect()
}

/// Parses one cell line and checks its `crc` against the CRC-32 of the
/// parsed cell's canonical rendering.
fn parse_checked_cell(value: &Value) -> io::Result<CompletedCell> {
    let stored = field_u64(value, "crc")?;
    let cell = parse_completed_cell(value)?;
    let canonical = serde_json::to_string(&cell).expect("serializable");
    let actual = crc32(canonical.as_bytes());
    if stored != u64::from(actual) {
        return Err(bad_data(format!(
            "cell {} fails its checksum (stored {stored:#010x}, computed {actual:#010x})",
            cell.cell
        )));
    }
    Ok(cell)
}

fn parse_completed_cell(value: &Value) -> io::Result<CompletedCell> {
    let agg = field(value, "aggregate")?;
    let violating_executions = field_u64_array(agg, "violating_executions")?;
    let violating_anchors = field_u64_array(agg, "violating_anchors")?;
    if violating_executions.len() != violating_anchors.len() {
        return Err(bad_data(
            "aggregate per-k arrays have mismatched lengths".to_string(),
        ));
    }
    Ok(CompletedCell {
        cell: field_u64(value, "cell")?,
        aggregate: CellAggregate {
            trials: field_u64(agg, "trials")?,
            violating_executions,
            violating_anchors,
            rollbacks: field_u64(agg, "rollbacks")?,
            max_slot_divergence: field_u64(agg, "max_slot_divergence")?,
            max_settlement_lag: field_i64(agg, "max_settlement_lag")?,
            chain_blocks: field_u64(agg, "chain_blocks")?,
            honest_chain_blocks: field_u64(agg, "honest_chain_blocks")?,
            final_height: field_u64(agg, "final_height")?,
            active_slots: field_u64(agg, "active_slots")?,
            deferred_deliveries: field_u64(agg, "deferred_deliveries")?,
            dropped_deliveries: field_u64(agg, "dropped_deliveries")?,
            worst_effective_delta: field_u64(agg, "worst_effective_delta")?,
            fingerprint: field_u64(agg, "fingerprint")?,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        let mut agg = CellAggregate::new(3);
        agg.trials = 40;
        agg.violating_executions = vec![5, 2, 0];
        agg.violating_anchors = vec![31, 7, 0];
        agg.rollbacks = 12;
        agg.max_slot_divergence = 9;
        agg.max_settlement_lag = 17;
        agg.chain_blocks = 4000;
        agg.honest_chain_blocks = 3300;
        agg.final_height = 3900;
        agg.active_slots = 11_000;
        agg.deferred_deliveries = 23;
        agg.dropped_deliveries = 1;
        agg.worst_effective_delta = 7;
        agg.fingerprint = u64::MAX - 3; // exercise full u64 range
        let mut none_yet = CellAggregate::new(3);
        none_yet.trials = 40;
        none_yet.max_settlement_lag = -1;
        Checkpoint {
            schema: CHECKPOINT_SCHEMA.to_string(),
            spec_fingerprint: 0xDEAD_BEEF_DEAD_BEEF,
            kernel_version: ENGINE_KERNEL_VERSION,
            completed: vec![
                CompletedCell {
                    cell: 0,
                    aggregate: agg,
                },
                CompletedCell {
                    cell: 3,
                    aggregate: none_yet,
                },
            ],
        }
    }

    #[test]
    fn roundtrips_through_disk() {
        let dir = std::env::temp_dir().join("multihonest-sweep-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.json");
        let original = sample();
        original.write(&path).unwrap();
        let loaded = Checkpoint::load(&path, original.spec_fingerprint)
            .unwrap()
            .expect("file exists");
        assert_eq!(loaded, original);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_a_fresh_campaign() {
        let path = std::env::temp_dir().join("multihonest-sweep-ckpt-missing.json");
        assert_eq!(Checkpoint::load(&path, 7).unwrap(), None);
    }

    #[test]
    fn wrong_spec_fingerprint_rejected() {
        let dir = std::env::temp_dir().join("multihonest-sweep-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wrong-spec.json");
        sample().write(&path).unwrap();
        let err = Checkpoint::load(&path, 1).unwrap_err();
        assert!(err.to_string().contains("different campaign"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn stale_kernel_version_rejected() {
        let dir = std::env::temp_dir().join("multihonest-sweep-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stale-kernel.json");
        let mut stale = sample();
        stale.kernel_version = ENGINE_KERNEL_VERSION + 1;
        stale.write(&path).unwrap();
        let err = Checkpoint::load(&path, stale.spec_fingerprint).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("engine kernel"), "{err}");
        // A v2 header (no kernel tag at all) is rejected for the missing
        // field, not silently accepted.
        std::fs::write(
            &path,
            format!(
                "{{\"schema\":\"{CHECKPOINT_SCHEMA}\",\"spec_fingerprint\":{}}}\n",
                stale.spec_fingerprint
            ),
        )
        .unwrap();
        let err = Checkpoint::load(&path, stale.spec_fingerprint).unwrap_err();
        assert!(err.to_string().contains("kernel_version"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn malformed_header_rejected() {
        let dir = std::env::temp_dir().join("multihonest-sweep-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("malformed.json");
        std::fs::write(&path, "{\"schema\": 12").unwrap();
        assert!(Checkpoint::load(&path, 7).is_err());
        std::fs::write(&path, "{\"schema\": \"other/v9\"}").unwrap();
        let err = Checkpoint::load(&path, 7).unwrap_err();
        assert!(err.to_string().contains("unsupported checkpoint schema"));
        std::fs::write(&path, "").unwrap();
        assert!(Checkpoint::load(&path, 7).is_err(), "empty file");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_salvaged_at_every_truncation_point() {
        let dir = std::env::temp_dir().join("multihonest-sweep-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.json");
        let original = sample();
        original.write(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let header_end = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        let first_cell_end = header_end
            + bytes[header_end..]
                .iter()
                .position(|&b| b == b'\n')
                .unwrap()
            + 1;
        // Any truncation inside the cell lines salvages the parseable
        // prefix: a cell line counts once its full JSON content is
        // present (the trailing newline is optional at EOF). Never an
        // error.
        for cut in header_end..bytes.len() {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let loaded = Checkpoint::load(&path, original.spec_fingerprint)
                .unwrap_or_else(|e| panic!("cut at byte {cut}: {e}"))
                .expect("file exists");
            let expect = if cut >= bytes.len() - 1 {
                2
            } else {
                usize::from(cut >= first_cell_end - 1)
            };
            assert_eq!(loaded.completed.len(), expect, "cut at byte {cut}");
            assert_eq!(
                loaded.completed,
                original.completed[..expect],
                "salvaged prefix must be exact (cut {cut})"
            );
        }
        // A clean write loads whole.
        original.write(&path).unwrap();
        let full = Checkpoint::load(&path, original.spec_fingerprint)
            .unwrap()
            .unwrap();
        assert_eq!(full, original);
        std::fs::remove_file(&path).unwrap();
    }

    /// Every single-byte edit of a rendered checkpoint either fails the
    /// load or leaves cells that each equal the original cell at their
    /// index: a corrupted line is dropped with its tail, never resumed
    /// with different counts.
    #[test]
    fn byte_edits_are_rejected_or_salvaged_never_resumed_changed() {
        let dir = std::env::temp_dir().join("multihonest-sweep-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("edited.json");
        let original = sample();
        let bytes = original.render().into_bytes();
        for at in 0..bytes.len() {
            for with in [
                b'0',
                b'1',
                b'9',
                b'-',
                b' ',
                b'"',
                b',',
                b'}',
                b'\n',
                bytes[at] ^ 1,
            ] {
                if with == bytes[at] {
                    continue;
                }
                let mut edited = bytes.clone();
                edited[at] = with;
                std::fs::write(&path, &edited).unwrap();
                if let Ok(Some(loaded)) = Checkpoint::load(&path, original.spec_fingerprint) {
                    assert!(
                        loaded.completed.len() <= original.completed.len(),
                        "byte {at} -> {with:#x} grew the checkpoint"
                    );
                    for (got, want) in loaded.completed.iter().zip(&original.completed) {
                        assert_eq!(got, want, "byte {at} -> {with:#x} resumed a changed cell");
                    }
                }
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn v3_checkpoint_is_an_unsupported_schema() {
        let dir = std::env::temp_dir().join("multihonest-sweep-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("v3.json");
        let original = sample();
        let v3 = original
            .render()
            .replace(CHECKPOINT_SCHEMA, "multihonest-sweep-checkpoint/v3");
        std::fs::write(&path, v3).unwrap();
        let err = Checkpoint::load(&path, original.spec_fingerprint).unwrap_err();
        assert!(
            err.to_string().contains("unsupported checkpoint schema"),
            "{err}"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_header_is_an_error_not_a_salvage() {
        let dir = std::env::temp_dir().join("multihonest-sweep-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn-header.json");
        let original = sample();
        original.write(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let header_end = bytes.iter().position(|&b| b == b'\n').unwrap();
        for cut in [1usize, header_end / 2, header_end.saturating_sub(1)] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            assert!(
                Checkpoint::load(&path, original.spec_fingerprint).is_err(),
                "cut at byte {cut} must not pass header validation"
            );
        }
        std::fs::remove_file(&path).unwrap();
    }
}

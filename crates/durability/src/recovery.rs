//! Crash recovery: newest valid checkpoint + gapless WAL tail replay.
//!
//! ## The recovery state machine
//!
//! 1. **Pick a checkpoint.** Checkpoints are tried newest-first; a
//!    checkpoint that fails validation (torn `.tmp` never counts — it
//!    was never renamed) falls back to the next older one. No valid
//!    checkpoint at all is [`DurabilityError::CheckpointMissing`].
//! 2. **Scan the segments.** Every record is length- and CRC-validated.
//!    An invalid record is classified by *lookahead*: if a valid record
//!    parses right after it (using its stated length), the log continues
//!    past the damage — that is mid-log corruption
//!    ([`DurabilityError::ChecksumMismatch`], a hard error, because
//!    truncating would drop acknowledged commits). If nothing valid
//!    follows and we are in the last segment, it is the expected torn
//!    tail of a crash mid-append: recovery truncates there. Anywhere
//!    else it is a hard error.
//! 3. **Order, dedup, check contiguity.** Records are deduplicated by
//!    version (a duplicated tail record is a legal crash artifact),
//!    records at or below the checkpoint are skipped (their effects are
//!    inside it), and the rest must form a gapless `checkpoint+1..`
//!    sequence — a gap is [`DurabilityError::VersionGap`].
//! 4. **Replay.** The caller (the transaction store) applies the
//!    surviving commits through its normal commit machinery, rebuilding
//!    the in-memory root and history.
//!
//! The contract proven by the crash-sweep tests: for *every* crash
//! point, this procedure yields exactly a prefix of the committed
//! history, and the prefix covers every commit whose fsync completed.

use crate::checkpoint::{list_checkpoints, load_checkpoint};
use crate::codec::{crc32, OpsDecoder};
use crate::error::{DurabilityError, Result};
use crate::wal::{
    parse_segment_name, DurabilityConfig, MAX_RECORD_BYTES, RECORD_HEADER, WAL_MAGIC,
};
use fdm_core::{DatabaseF, Op};
use fdm_storage::Version;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Everything recovery found in a durability directory.
///
/// `Debug` summarizes versions and counts — it deliberately does not
/// dump the recovered database value.
pub struct Recovered {
    /// Version of the checkpoint that anchors the rebuild.
    pub checkpoint_version: Version,
    /// The checkpointed database value.
    pub db: DatabaseF,
    /// Commits after the checkpoint, gapless and version-ordered: each
    /// one's version and decoded writeset.
    pub commits: Vec<(Version, Vec<Op>)>,
    /// `true` if a torn tail was found (and will be truncated on resume).
    pub torn: bool,
    /// The next version the resumed WAL should expect.
    pub next_version: Version,
    /// Repair point for [`crate::wal::Wal::resume`]: the last segment and
    /// its valid byte length. `None` if no segment file exists.
    pub tail: Option<(PathBuf, u64)>,
}

impl std::fmt::Debug for Recovered {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recovered")
            .field("checkpoint_version", &self.checkpoint_version)
            .field("commits", &self.commits.len())
            .field("torn", &self.torn)
            .field("next_version", &self.next_version)
            .finish()
    }
}

/// Integrity report of a durability directory (the fsck output).
#[derive(Clone, Debug)]
pub struct IntegrityReport {
    /// Every checkpoint present, with its validation result.
    pub checkpoints: Vec<(Version, bool)>,
    /// Number of WAL segment files.
    pub segments: usize,
    /// Number of valid WAL records across all segments.
    pub records: usize,
    /// The checkpoint recovery would anchor on.
    pub checkpoint_version: Version,
    /// The last version recovery would reach after replay.
    pub replay_to: Version,
    /// `true` if the log ends in a (repairable) torn tail.
    pub torn_tail: bool,
}

/// What a segment scan found.
struct SegmentScan {
    /// Valid records: `(version, ops payload)` in file order.
    records: Vec<(Version, Vec<u8>)>,
    /// Byte offset just past the last valid record.
    valid_bytes: u64,
    /// First invalid record, if any.
    anomaly: Option<Anomaly>,
}

enum Anomaly {
    /// Partial/corrupt record with nothing valid after it.
    Torn { offset: u64 },
    /// Corrupt record with valid data following — not a crash artifact.
    Checksum { offset: u64 },
}

/// Parses one segment's bytes into records, classifying any damage.
fn scan_segment(bytes: &[u8]) -> Result<SegmentScan> {
    if bytes.len() < WAL_MAGIC.len() {
        // a torn segment creation (partial or empty magic)
        return Ok(SegmentScan {
            records: Vec::new(),
            valid_bytes: 0,
            anomaly: Some(Anomaly::Torn { offset: 0 }),
        });
    }
    if &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return Err(DurabilityError::Corrupt {
            detail: "bad WAL segment magic".into(),
        });
    }
    let mut records = Vec::new();
    let mut pos = WAL_MAGIC.len();
    let mut anomaly = None;
    while pos < bytes.len() {
        match parse_record_at(bytes, pos) {
            ParsedRecord::Valid { version, ops, end } => {
                records.push((version, ops));
                pos = end;
            }
            ParsedRecord::Invalid => {
                // lookahead: does a valid record follow at the stated
                // boundary? then the log continues and this is mid-log
                // corruption, not a torn tail.
                let looks_continued = stated_end(bytes, pos)
                    .map(|end| matches!(parse_record_at(bytes, end), ParsedRecord::Valid { .. }))
                    .unwrap_or(false);
                anomaly = Some(if looks_continued {
                    Anomaly::Checksum { offset: pos as u64 }
                } else {
                    Anomaly::Torn { offset: pos as u64 }
                });
                break;
            }
        }
    }
    Ok(SegmentScan {
        records,
        valid_bytes: pos as u64,
        anomaly,
    })
}

enum ParsedRecord {
    Valid {
        version: Version,
        ops: Vec<u8>,
        end: usize,
    },
    Invalid,
}

/// Where the record starting at `pos` claims to end, if its header is
/// readable and the claim is sane.
fn stated_end(bytes: &[u8], pos: usize) -> Option<usize> {
    if bytes.len() - pos < RECORD_HEADER {
        return None;
    }
    let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes"));
    if len > MAX_RECORD_BYTES {
        return None;
    }
    let end = pos + RECORD_HEADER + len as usize;
    (end <= bytes.len()).then_some(end)
}

fn parse_record_at(bytes: &[u8], pos: usize) -> ParsedRecord {
    let Some(end) = stated_end(bytes, pos) else {
        return ParsedRecord::Invalid;
    };
    let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
    let payload = &bytes[pos + RECORD_HEADER..end];
    if payload.len() < 8 || crc32(payload) != crc {
        return ParsedRecord::Invalid;
    }
    let version = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
    ParsedRecord::Valid {
        version,
        ops: payload[8..].to_vec(),
        end,
    }
}

/// Lists WAL segments in `dir`, sorted ascending by start version.
fn list_segments(dir: &Path) -> Result<Vec<(Version, PathBuf)>> {
    let mut segs = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(name) = entry.file_name().to_str() {
            if let Some(v) = parse_segment_name(name) {
                segs.push((v, entry.path()));
            }
        }
    }
    segs.sort();
    Ok(segs)
}

fn file_label(path: &Path) -> String {
    path.file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("<segment>")
        .to_string()
}

/// Recovers the durable state of `cfg.dir`: checkpoint, replayable
/// commits, and the tail repair point. Read-only — the actual tail
/// truncation happens when the WAL resumes.
pub fn recover(cfg: &DurabilityConfig) -> Result<Recovered> {
    let ckpts = list_checkpoints(&cfg.dir)?;
    if ckpts.is_empty() {
        return Err(DurabilityError::CheckpointMissing {
            dir: cfg.dir.display().to_string(),
        });
    }
    let mut anchor = None;
    let mut newest_err = None;
    for (v, path) in ckpts.iter().rev() {
        match load_checkpoint(path) {
            Ok((loaded_v, db)) => {
                anchor = Some((loaded_v, db));
                break;
            }
            Err(e) => {
                if newest_err.is_none() {
                    newest_err = Some((*v, e));
                }
            }
        }
    }
    let Some((checkpoint_version, db)) = anchor else {
        let (_, e) = newest_err.expect("at least one checkpoint failed");
        return Err(e);
    };

    let segments = list_segments(&cfg.dir)?;
    let mut by_version: BTreeMap<Version, Vec<u8>> = BTreeMap::new();
    let mut torn = false;
    let mut tail = None;
    let last_idx = segments.len().saturating_sub(1);
    for (i, (_, path)) in segments.iter().enumerate() {
        let bytes = std::fs::read(path)?;
        let scan = scan_segment(&bytes)?;
        let is_last = i == last_idx;
        match scan.anomaly {
            Some(Anomaly::Checksum { offset }) => {
                return Err(DurabilityError::ChecksumMismatch {
                    file: file_label(path),
                    offset,
                });
            }
            Some(Anomaly::Torn { offset }) => {
                if !is_last {
                    // torn data mid-log with later segments following:
                    // not a crash tail, refuse
                    return Err(DurabilityError::ChecksumMismatch {
                        file: file_label(path),
                        offset,
                    });
                }
                torn = true;
            }
            None => {}
        }
        for (v, ops) in scan.records {
            // duplicate tail records are legal crash artifacts: first wins
            by_version.entry(v).or_insert(ops);
        }
        if is_last {
            tail = Some((path.clone(), scan.valid_bytes));
        }
    }

    let mut commits = Vec::new();
    let mut decoder = OpsDecoder::default();
    for (expected, (v, ops_bytes)) in
        (checkpoint_version + 1..).zip(by_version.range(checkpoint_version + 1..))
    {
        if *v != expected {
            return Err(DurabilityError::VersionGap {
                expected,
                found: *v,
            });
        }
        commits.push((*v, decoder.decode(ops_bytes)?));
    }

    let next_version = commits.last().map_or(checkpoint_version, |c| c.0) + 1;
    Ok(Recovered {
        checkpoint_version,
        db,
        commits,
        torn,
        next_version,
        tail,
    })
}

/// Full fsck of a durability directory: validates every checkpoint and
/// every WAL record (including op decode), and reports what recovery
/// would do. Hard corruption (mid-log checksum damage, version gaps, no
/// valid checkpoint) is an error; a torn tail is a *finding*, not an
/// error — it is exactly what a crash leaves behind.
pub fn verify_integrity(cfg: &DurabilityConfig) -> Result<IntegrityReport> {
    let mut checkpoints = Vec::new();
    for (v, path) in list_checkpoints(&cfg.dir)? {
        checkpoints.push((v, load_checkpoint(&path).is_ok()));
    }
    let recovered = recover(cfg)?;
    let segments = list_segments(&cfg.dir)?.len();
    Ok(IntegrityReport {
        checkpoints,
        segments,
        records: recovered.commits.len(),
        checkpoint_version: recovered.checkpoint_version,
        replay_to: recovered.next_version - 1,
        torn_tail: recovered.torn,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::write_checkpoint;
    use crate::codec::encode_ops;
    use crate::wal::{append, build_record, segment_path, Wal};
    use fdm_core::{Name, RelationF, TupleF, Value};
    use std::sync::Arc;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fdm-rec-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn base_db() -> DatabaseF {
        DatabaseF::new("db").with_relation(RelationF::new("r", &["k"]))
    }

    fn upsert(k: i64, v: i64) -> Vec<u8> {
        encode_ops(&[Op::Upsert {
            rel: Name::from("r"),
            key: Value::Int(k),
            tuple: Arc::new(TupleF::builder("t").attr("v", v).build()),
        }])
        .unwrap()
    }

    /// A directory with checkpoint v0 and commits 1..=n in the WAL.
    fn store_dir(tag: &str, n: u64) -> (PathBuf, DurabilityConfig) {
        let dir = scratch(tag);
        let cfg = DurabilityConfig::new(&dir);
        write_checkpoint(&dir, 0, &base_db()).unwrap();
        let wal = Wal::create(&cfg, 1).unwrap();
        for v in 1..=n {
            append(&wal, v, &upsert(v as i64, (v * 10) as i64)).unwrap();
        }
        (dir, cfg)
    }

    #[test]
    fn clean_log_recovers_fully() {
        let (dir, cfg) = store_dir("clean", 5);
        let rec = recover(&cfg).unwrap();
        assert_eq!(rec.checkpoint_version, 0);
        assert_eq!(rec.commits.len(), 5);
        assert_eq!(rec.next_version, 6);
        assert!(!rec.torn);
        let report = verify_integrity(&cfg).unwrap();
        assert_eq!(report.replay_to, 5);
        assert!(!report.torn_tail);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_recovers_the_prefix() {
        let (dir, cfg) = store_dir("torn", 5);
        let seg = segment_path(&dir, 1);
        let bytes = std::fs::read(&seg).unwrap();
        // cut the last record in half
        std::fs::write(&seg, &bytes[..bytes.len() - 10]).unwrap();
        let rec = recover(&cfg).unwrap();
        assert!(rec.torn);
        assert_eq!(rec.commits.len(), 4, "prefix: last commit lost to the tear");
        assert_eq!(rec.next_version, 5);
        let report = verify_integrity(&cfg).unwrap();
        assert!(report.torn_tail);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_log_bit_flip_is_a_hard_error() {
        let (dir, cfg) = store_dir("flip", 5);
        let seg = segment_path(&dir, 1);
        let mut bytes = std::fs::read(&seg).unwrap();
        // flip one bit in the payload of an early record (well before the tail)
        bytes[20] ^= 0x04;
        std::fs::write(&seg, &bytes).unwrap();
        let err = recover(&cfg).unwrap_err();
        assert!(
            matches!(err, DurabilityError::ChecksumMismatch { .. }),
            "damage with valid data after it must NOT be truncated away: {err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicated_tail_record_is_deduplicated() {
        let (dir, cfg) = store_dir("dup", 3);
        let seg = segment_path(&dir, 1);
        let mut bytes = std::fs::read(&seg).unwrap();
        let dup = build_record(3, &upsert(3, 30));
        bytes.extend_from_slice(&dup);
        std::fs::write(&seg, &bytes).unwrap();
        let rec = recover(&cfg).unwrap();
        assert_eq!(rec.commits.len(), 3, "duplicate v3 collapsed");
        assert_eq!(rec.next_version, 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_gap_is_a_hard_error() {
        let dir = scratch("gap");
        let cfg = DurabilityConfig::new(&dir);
        write_checkpoint(&dir, 0, &base_db()).unwrap();
        // hand-build a segment with v1 then v3
        let mut bytes = Vec::new();
        bytes.extend_from_slice(WAL_MAGIC);
        bytes.extend_from_slice(&build_record(1, &upsert(1, 10)));
        bytes.extend_from_slice(&build_record(3, &upsert(3, 30)));
        std::fs::write(segment_path(&dir, 1), &bytes).unwrap();
        let err = recover(&cfg).unwrap_err();
        assert!(
            matches!(
                err,
                DurabilityError::VersionGap {
                    expected: 2,
                    found: 3
                }
            ),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_checkpoint_is_a_typed_error() {
        let dir = scratch("nockpt");
        let cfg = DurabilityConfig::new(&dir);
        let wal = Wal::create(&cfg, 1).unwrap();
        append(&wal, 1, &upsert(1, 10)).unwrap();
        assert!(matches!(
            recover(&cfg).unwrap_err(),
            DurabilityError::CheckpointMissing { .. }
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_newest_checkpoint_falls_back_to_older() {
        let (dir, cfg) = store_dir("fallback", 4);
        // checkpoint at v2 and v4, then corrupt v4
        let db2 = base_db();
        write_checkpoint(&dir, 2, &db2).unwrap();
        let p4 = write_checkpoint(&dir, 4, &db2).unwrap();
        let mut bytes = std::fs::read(&p4).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&p4, &bytes).unwrap();
        let rec = recover(&cfg).unwrap();
        assert_eq!(rec.checkpoint_version, 2, "fell back past the corrupt v4");
        assert_eq!(rec.commits.len(), 2, "v3, v4 replay from the WAL");
        assert_eq!(rec.next_version, 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn records_below_the_checkpoint_are_skipped() {
        let (dir, cfg) = store_dir("skip", 6);
        write_checkpoint(&dir, 4, &base_db()).unwrap();
        let rec = recover(&cfg).unwrap();
        assert_eq!(rec.checkpoint_version, 4);
        let versions: Vec<Version> = rec.commits.iter().map(|c| c.0).collect();
        assert_eq!(versions, vec![5, 6]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_tail_segment_is_fine() {
        let (dir, cfg) = store_dir("emptyseg", 2);
        // simulate a crash right after rotation: magic-only next segment
        std::fs::write(segment_path(&dir, 3), WAL_MAGIC).unwrap();
        let rec = recover(&cfg).unwrap();
        assert_eq!(rec.commits.len(), 2);
        assert!(!rec.torn);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

//! Checkpoints: the canonical serialization of the whole database value
//! at one committed version.
//!
//! Because the database is a persistent value, a checkpoint requires no
//! quiescence and no fuzzy-checkpoint protocol: the writer serializes an
//! immutable snapshot while commits keep installing new roots. The file
//! layout is
//!
//! ```text
//! 8  bytes  magic "FDMCKPT1"
//! u32       payload length
//! u32       CRC-32 (IEEE) of the payload
//! payload   u64 version (LE) ‖ codec::encode_database bytes
//! ```
//!
//! written to `checkpoint-<version, 20 digits>.ckpt.tmp` and atomically
//! renamed, so a crash mid-checkpoint leaves either the complete old
//! file set or the complete new one — never a half checkpoint under the
//! real name. Retention keeps the newest N checkpoints
//! ([`crate::DurabilityConfig::retain_checkpoints`]); WAL segments wholly below
//! the oldest retained checkpoint are pruned with them.

use crate::codec::{crc32, decode_database, encode_database};
use crate::error::{DurabilityError, Result};
use crate::wal::{parse_segment_name, sync_dir};
use fdm_core::DatabaseF;
use fdm_storage::Version;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

#[cfg(any(test, feature = "fault-injection"))]
use crate::crash::CrashPlan;
#[cfg(any(test, feature = "fault-injection"))]
use std::sync::Arc;

/// Magic bytes opening every checkpoint file.
pub(crate) const CKPT_MAGIC: &[u8; 8] = b"FDMCKPT1";

/// Path of the checkpoint for `version`.
pub(crate) fn checkpoint_path(dir: &Path, version: Version) -> PathBuf {
    dir.join(format!("checkpoint-{version:020}.ckpt"))
}

/// Parses `checkpoint-<v>.ckpt` back to its version.
pub(crate) fn parse_checkpoint_name(name: &str) -> Option<Version> {
    name.strip_prefix("checkpoint-")?
        .strip_suffix(".ckpt")?
        .parse()
        .ok()
}

/// Rejects a checkpoint payload whose length cannot be stated in the
/// format's `u32` field. Writing it anyway would wrap the stated
/// length, producing a file `load_checkpoint` always rejects — and with
/// retention pruning older checkpoints, repeated auto-checkpoints could
/// leave the directory with no loadable checkpoint at all.
pub(crate) fn check_checkpoint_payload(version: Version, len: u64) -> Result<()> {
    if len > u32::MAX as u64 {
        return Err(DurabilityError::TooLarge {
            what: format!("checkpoint v{version} payload"),
            bytes: len,
            max: u32::MAX as u64,
        });
    }
    Ok(())
}

/// Writes the checkpoint for `version` atomically (tmp + rename + dir
/// fsync) and returns its final path.
pub fn write_checkpoint(dir: &Path, version: Version, db: &DatabaseF) -> Result<PathBuf> {
    write_checkpoint_impl(
        dir,
        version,
        db,
        #[cfg(any(test, feature = "fault-injection"))]
        None,
    )
}

/// [`write_checkpoint`] with an injected crash plan on the write path
/// (fault injection only): a cut mid-checkpoint leaves a torn `.tmp`
/// file that never reaches the real name.
#[cfg(any(test, feature = "fault-injection"))]
pub fn write_checkpoint_faulty(
    dir: &Path,
    version: Version,
    db: &DatabaseF,
    plan: &Arc<CrashPlan>,
) -> Result<PathBuf> {
    write_checkpoint_impl(dir, version, db, Some(plan))
}

fn write_checkpoint_impl(
    dir: &Path,
    version: Version,
    db: &DatabaseF,
    #[cfg(any(test, feature = "fault-injection"))] plan: Option<&Arc<CrashPlan>>,
) -> Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let mut payload = Vec::new();
    payload.extend_from_slice(&version.to_le_bytes());
    payload.extend_from_slice(&encode_database(db)?);
    check_checkpoint_payload(version, payload.len() as u64)?;
    let mut bytes = Vec::with_capacity(16 + payload.len());
    bytes.extend_from_slice(CKPT_MAGIC);
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
    bytes.extend_from_slice(&payload);

    let path = checkpoint_path(dir, version);
    let tmp = path.with_extension("ckpt.tmp");
    let mut file = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(&tmp)?;
    #[cfg(any(test, feature = "fault-injection"))]
    if let Some(plan) = plan {
        let mut buf = bytes.clone();
        let n = plan
            .filter_write(&mut buf)
            .ok_or(DurabilityError::Crashed)?;
        file.write_all(&buf[..n])?;
        if n < bytes.len() {
            let _ = file.sync_data();
            return Err(DurabilityError::Crashed);
        }
        file.sync_data()?;
        std::fs::rename(&tmp, &path)?;
        sync_dir(dir)?;
        return Ok(path);
    }
    file.write_all(&bytes)?;
    file.sync_data()?;
    std::fs::rename(&tmp, &path)?;
    sync_dir(dir)?;
    Ok(path)
}

/// Lists checkpoint files in `dir`, sorted ascending by version.
/// Leftover `.tmp` files from a crashed checkpoint are ignored.
pub fn list_checkpoints(dir: &Path) -> Result<Vec<(Version, PathBuf)>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(name) = entry.file_name().to_str() {
            if let Some(v) = parse_checkpoint_name(name) {
                out.push((v, entry.path()));
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Loads and validates one checkpoint file: magic, length, CRC, and
/// agreement between the payload version and the file name.
pub(crate) fn load_checkpoint(path: &Path) -> Result<(Version, DatabaseF)> {
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("<checkpoint>")
        .to_string();
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    if bytes.len() < 16 || &bytes[..8] != CKPT_MAGIC {
        return Err(DurabilityError::Corrupt {
            detail: format!("{file_name}: bad checkpoint magic"),
        });
    }
    let len = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")) as usize;
    let crc = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes"));
    if bytes.len() != 16 + len {
        return Err(DurabilityError::Corrupt {
            detail: format!(
                "{file_name}: stated payload {len} bytes, file holds {}",
                bytes.len().saturating_sub(16)
            ),
        });
    }
    let payload = &bytes[16..];
    if crc32(payload) != crc {
        return Err(DurabilityError::ChecksumMismatch {
            file: file_name,
            offset: 16,
        });
    }
    if payload.len() < 8 {
        return Err(DurabilityError::Corrupt {
            detail: format!("{file_name}: payload shorter than its version header"),
        });
    }
    let version = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
    if let Some(named) = parse_checkpoint_name(&file_name) {
        if named != version {
            return Err(DurabilityError::Corrupt {
                detail: format!("{file_name}: payload is for v{version}"),
            });
        }
    }
    let db = decode_database(&payload[8..])?;
    Ok((version, db))
}

/// Applies retention: keeps the newest `retain` checkpoints, removes
/// older checkpoint files and every WAL segment wholly below the oldest
/// retained checkpoint. Returns the removed paths.
pub fn prune_checkpoints(dir: &Path, retain: usize) -> Result<Vec<PathBuf>> {
    let retain = retain.max(1);
    let ckpts = list_checkpoints(dir)?;
    let mut removed = Vec::new();
    if ckpts.len() <= retain {
        return Ok(removed);
    }
    let cut = ckpts.len() - retain;
    let oldest_kept = ckpts[cut].0;
    for (_, path) in &ckpts[..cut] {
        std::fs::remove_file(path)?;
        removed.push(path.clone());
    }
    // A segment is removable iff the *next* segment also starts at or
    // below the oldest kept checkpoint — then every record in it is below
    // the checkpoint. The last segment always stays.
    let mut segs: Vec<(Version, PathBuf)> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(name) = entry.file_name().to_str() {
            if let Some(v) = parse_segment_name(name) {
                segs.push((v, entry.path()));
            }
        }
    }
    segs.sort();
    for i in 0..segs.len() {
        let next_start = segs.get(i + 1).map(|(v, _)| *v);
        if let Some(next) = next_start {
            if next <= oldest_kept + 1 {
                std::fs::remove_file(&segs[i].1)?;
                removed.push(segs[i].1.clone());
            }
        }
    }
    sync_dir(dir)?;
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdm_core::{RelationF, TupleF, Value};

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fdm-ckpt-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn small_db(n: i64) -> DatabaseF {
        let mut r = RelationF::new("r", &["k"]);
        for i in 0..n {
            r = r
                .insert(
                    Value::Int(i),
                    TupleF::builder("t").attr("v", i * 10).build(),
                )
                .unwrap();
        }
        DatabaseF::new("db").with_relation(r)
    }

    #[test]
    fn checkpoint_roundtrips() {
        let dir = scratch("roundtrip");
        let db = small_db(5);
        let path = write_checkpoint(&dir, 7, &db).unwrap();
        let (v, back) = load_checkpoint(&path).unwrap();
        assert_eq!(v, 7);
        assert_eq!(back.relation("r").unwrap().len(), 5);
        assert_eq!(list_checkpoints(&dir).unwrap(), vec![(7, path)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checkpoints_are_detected() {
        let dir = scratch("corrupt");
        let path = write_checkpoint(&dir, 3, &small_db(3)).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // flip a payload bit
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            load_checkpoint(&path).unwrap_err(),
            DurabilityError::ChecksumMismatch { .. }
        ));
        // truncated file
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(matches!(
            load_checkpoint(&path).unwrap_err(),
            DurabilityError::Corrupt { .. }
        ));
        // bad magic
        std::fs::write(&path, b"NOTMAGIC").unwrap();
        assert!(load_checkpoint(&path).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_name_mismatch_is_detected() {
        let dir = scratch("mismatch");
        let path = write_checkpoint(&dir, 4, &small_db(1)).unwrap();
        let renamed = checkpoint_path(&dir, 9);
        std::fs::rename(&path, &renamed).unwrap();
        let err = load_checkpoint(&renamed).unwrap_err();
        assert!(
            matches!(&err, DurabilityError::Corrupt { detail } if detail.contains("v4")),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_prunes_old_checkpoints() {
        let dir = scratch("prune");
        for v in [2u64, 5, 9] {
            write_checkpoint(&dir, v, &small_db(v as i64)).unwrap();
        }
        let removed = prune_checkpoints(&dir, 2).unwrap();
        assert_eq!(removed.len(), 1);
        let left: Vec<Version> = list_checkpoints(&dir)
            .unwrap()
            .into_iter()
            .map(|(v, _)| v)
            .collect();
        assert_eq!(left, vec![5, 9]);
        // pruning below the retention count is a no-op
        assert!(prune_checkpoints(&dir, 5).unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_checkpoint_payloads_are_rejected() {
        // the guard fires exactly where the u32 length field would wrap
        // (a >4 GiB database is not buildable in a test, so the bound
        // is pinned directly)
        assert!(check_checkpoint_payload(7, u32::MAX as u64).is_ok());
        let err = check_checkpoint_payload(7, u32::MAX as u64 + 1).unwrap_err();
        assert!(
            matches!(&err, DurabilityError::TooLarge { what, .. } if what.contains("v7")),
            "{err}"
        );
    }

    #[test]
    fn tmp_files_are_ignored_by_listing() {
        let dir = scratch("tmp");
        write_checkpoint(&dir, 1, &small_db(1)).unwrap();
        std::fs::write(
            dir.join("checkpoint-00000000000000000002.ckpt.tmp"),
            b"junk",
        )
        .unwrap();
        let listed = list_checkpoints(&dir).unwrap();
        assert_eq!(listed.len(), 1);
        assert_eq!(listed[0].0, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

//! The append-only segmented write-ahead log.
//!
//! ## Record format
//!
//! Every committed writeset becomes one length-prefixed, CRC-guarded
//! record:
//!
//! ```text
//! u32 len   — payload length in bytes (little-endian)
//! u32 crc   — CRC-32 (IEEE) of the payload
//! payload   — u64 version (LE) ‖ canonical op encoding (codec::encode_ops)
//! ```
//!
//! Records live in segment files `wal-<start-version, 20 digits>.seg`,
//! each beginning with the 8-byte magic `FDMWAL01`; a segment is named
//! after the first version written into it, so the segment list sorts by
//! both name and version. Segments rotate when they exceed
//! [`DurabilityConfig::segment_bytes`].
//!
//! ## Ordering
//!
//! The transaction store appends from inside its commit sequencer, so
//! records arrive in version order *by construction*: [`Wal::enqueue`]
//! accepts exactly the next version and rejects anything else as
//! [`DurabilityError::Corrupt`]. The on-disk sequence is therefore always
//! gapless, which is what lets recovery equate "contiguous prefix of
//! records" with "prefix of committed history".
//!
//! ## The group buffer
//!
//! `enqueue` only frames the record into an in-memory *group buffer* — no
//! syscall, so it is safe inside the sequencer. The committer that
//! *closes* a group ([`Wal::complete`]) hands everything buffered to the
//! OS in **one `write`** and, unless the policy is `Never`, makes it
//! durable with **one `fsync`**, holding no lock another committer's
//! `enqueue` needs; it then advances the watermarks and wakes the
//! waiters. [`SyncPolicy`] decides who closes: under `EveryN(n)` the
//! committer of every n-th record; under `Always` every committer waits
//! for its own version and the first waiter writes and fsyncs whatever is
//! buffered (leader/follower — one fsync can cover many commits, and no
//! commit is acknowledged before an fsync covers it); under `Never` the
//! committer that fills [`NEVER_GROUP_BYTES`]. [`Wal::sync`], segment
//! rotation and `Drop` close whatever is open. A failed write or fsync is
//! sticky: the group's closer and every later caller get the error.

use crate::codec::crc32;
use crate::error::{DurabilityError, Result};
use fdm_storage::Version;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex, MutexGuard};

#[cfg(any(test, feature = "fault-injection"))]
use crate::crash::CrashPlan;
#[cfg(any(test, feature = "fault-injection"))]
use std::sync::Arc;

/// Buffered bytes at which a committer closes the group under
/// [`SyncPolicy::Never`] (one `write`, no fsync).
pub const NEVER_GROUP_BYTES: usize = 64 * 1024;

/// Magic bytes opening every WAL segment file.
pub(crate) const WAL_MAGIC: &[u8; 8] = b"FDMWAL01";
/// Byte length of a record header (`u32 len` + `u32 crc`).
pub(crate) const RECORD_HEADER: usize = 8;
/// Upper bound on a single record payload. Recovery treats a stated
/// length above this as corruption rather than attempting it as an
/// allocation, so the write side ([`check_record_payload`]) must reject
/// anything that large *before* it is appended and acknowledged.
pub const MAX_RECORD_BYTES: u32 = 256 * 1024 * 1024;

/// Rejects an ops payload too large to become a valid WAL record (the
/// record payload is the 8-byte version header plus these bytes, and
/// its stated length must stay within [`MAX_RECORD_BYTES`]). This is
/// the write-side twin of recovery's corruption bound: an oversized
/// writeset must fail the commit before it installs — appending it
/// anyway would produce an acknowledged record that the next open
/// classifies as a torn tail and silently truncates.
pub fn check_record_payload(ops_payload_len: usize) -> Result<()> {
    let bytes = ops_payload_len as u64 + 8;
    if bytes > MAX_RECORD_BYTES as u64 {
        return Err(DurabilityError::TooLarge {
            what: "WAL record payload".into(),
            bytes,
            max: MAX_RECORD_BYTES as u64,
        });
    }
    Ok(())
}

/// When the WAL calls `fsync`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Every commit waits until an fsync covers it. Strict durability:
    /// an acknowledged commit is on the medium. The default.
    Always,
    /// Group commit: one write and one fsync per `n` appends (and on
    /// demand). A crash can lose at most the un-synced suffix, never an
    /// fsynced commit.
    EveryN(u64),
    /// Fsync only on segment rotation, explicit [`Wal::sync`] and close
    /// (`Drop`) — for benchmarks and bulk loads where the tail is
    /// expendable.
    Never,
}

/// Configuration of the durability subsystem for one store directory.
#[derive(Clone, Debug)]
pub struct DurabilityConfig {
    /// Directory holding WAL segments and checkpoints.
    pub dir: PathBuf,
    /// Fsync cadence.
    pub sync: SyncPolicy,
    /// Segment rotation threshold in bytes.
    pub segment_bytes: u64,
    /// How many checkpoints to retain; WAL segments wholly below the
    /// oldest retained checkpoint are pruned with it.
    pub retain_checkpoints: usize,
    /// Write an automatic checkpoint every this many commits
    /// (`None` = only explicit checkpoints).
    pub checkpoint_every: Option<u64>,
}

impl DurabilityConfig {
    /// Defaults for `dir`: fsync always, 8 MiB segments, 2 retained
    /// checkpoints, auto-checkpoint every 256 commits.
    pub fn new(dir: impl Into<PathBuf>) -> DurabilityConfig {
        DurabilityConfig {
            dir: dir.into(),
            sync: SyncPolicy::Always,
            segment_bytes: 8 * 1024 * 1024,
            retain_checkpoints: 2,
            checkpoint_every: Some(256),
        }
    }

    /// Sets the fsync cadence.
    pub fn with_sync(mut self, sync: SyncPolicy) -> Self {
        self.sync = sync;
        self
    }

    /// Sets the segment rotation threshold.
    pub fn with_segment_bytes(mut self, bytes: u64) -> Self {
        self.segment_bytes = bytes.max(64);
        self
    }

    /// Sets the checkpoint retention count (min 1).
    pub fn with_retain_checkpoints(mut self, n: usize) -> Self {
        self.retain_checkpoints = n.max(1);
        self
    }

    /// Sets the auto-checkpoint cadence (`None` disables).
    pub fn with_checkpoint_every(mut self, every: Option<u64>) -> Self {
        self.checkpoint_every = every.map(|n| n.max(1));
        self
    }
}

/// Path of the segment whose first record is `start`.
pub(crate) fn segment_path(dir: &Path, start: Version) -> PathBuf {
    dir.join(format!("wal-{start:020}.seg"))
}

/// Parses `wal-<v>.seg` back to its start version.
pub(crate) fn parse_segment_name(name: &str) -> Option<Version> {
    name.strip_prefix("wal-")?
        .strip_suffix(".seg")?
        .parse()
        .ok()
}

/// Where one appended commit stands relative to the durable watermark.
#[cfg(test)]
#[derive(Debug)]
pub(crate) struct Appended {
    /// `true` if the version is already on the medium (its fsync ran).
    pub(crate) durable: bool,
    /// The highest version known durable after the append.
    pub(crate) synced_version: Version,
}

/// [`Wal::enqueue`] then, if the record closes its group,
/// [`Wal::complete`]: the whole append, for a test with no lock to
/// release in between.
#[cfg(test)]
pub(crate) fn append(wal: &Wal, version: Version, ops_payload: &[u8]) -> Result<Appended> {
    if wal.enqueue(version, ops_payload)? {
        wal.complete(version)?;
    }
    let synced_version = wal.synced_version();
    Ok(Appended {
        durable: synced_version >= version,
        synced_version,
    })
}

/// The on-disk bytes of one record.
#[cfg(test)]
pub(crate) fn build_record(version: Version, ops_payload: &[u8]) -> Vec<u8> {
    let mut rec = Vec::new();
    frame_record(&mut rec, version, ops_payload);
    rec
}

/// Appends the on-disk bytes of one record to `out`.
fn frame_record(out: &mut Vec<u8>, version: Version, ops_payload: &[u8]) {
    let start = out.len();
    out.extend_from_slice(&((8 + ops_payload.len()) as u32).to_le_bytes());
    out.extend_from_slice(&[0; 4]); // the CRC, once the payload is in place
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(ops_payload);
    let crc = crc32(&out[start + RECORD_HEADER..]);
    out[start + 4..start + RECORD_HEADER].copy_from_slice(&crc.to_le_bytes());
}

/// The live append half of the write-ahead log.
///
/// Shared by every committer of the transaction store; all methods take
/// `&self`. Reading the log back is the recovery module's job.
pub struct Wal {
    cfg: DurabilityConfig,
    /// Held only for memory operations, never across a syscall.
    state: Mutex<State>,
    /// Signalled whenever a group's closer has finished: the watermarks
    /// moved, or the writer failed.
    closed: Condvar,
}

struct State {
    /// Framed records not yet handed to the OS, in version order.
    group: Vec<u8>,
    /// The next version [`Wal::enqueue`] accepts.
    next_version: Version,
    /// Records enqueued since a closer was last elected (drives
    /// [`SyncPolicy::EveryN`]).
    open: u64,
    /// Last version handed to the OS (written, not necessarily synced).
    written_version: Version,
    /// Last version the writer believes durable (see `drop_fsync` faults
    /// for why "believes").
    synced_version: Version,
    /// The segment file. The committer closing a group takes it out for
    /// the duration of its write + fsync, so `None` means "a closer is at
    /// work": whoever finds it absent waits on [`Wal::closed`].
    segment: Option<Segment>,
    /// The first failed write or fsync; sticky.
    failed: Option<DurabilityError>,
}

/// The current segment file, owned by one closer at a time.
struct Segment {
    file: File,
    /// Bytes written to the segment (including magic).
    file_bytes: u64,
    written_version: Version,
    synced_version: Version,
    #[cfg(any(test, feature = "fault-injection"))]
    plan: Option<Arc<CrashPlan>>,
}

impl Wal {
    /// Creates the WAL for a fresh store: first record will be version
    /// `first` (normally 1; version 0 is the creation checkpoint).
    pub fn create(cfg: &DurabilityConfig, first: Version) -> Result<Wal> {
        std::fs::create_dir_all(&cfg.dir)?;
        let file = create_segment(&cfg.dir, first)?;
        Ok(Wal::over(cfg, file, WAL_MAGIC.len() as u64, first))
    }

    /// Resumes appending after recovery. `next` is the next version to
    /// log; `tail` is the last valid segment and its valid byte length
    /// (the recovery module's repair point). The tail segment is always
    /// truncated to that length — repairing any torn suffix in place —
    /// then appended to if it has room, otherwise a fresh segment starts.
    pub fn resume(
        cfg: &DurabilityConfig,
        next: Version,
        tail: Option<(PathBuf, u64)>,
    ) -> Result<Wal> {
        if let Some((path, valid_len)) = tail {
            if valid_len < WAL_MAGIC.len() as u64 {
                // not even a whole magic survived: the file is useless,
                // drop it so a later scan doesn't trip over it
                std::fs::remove_file(&path)?;
                sync_dir(&cfg.dir)?;
            } else {
                let mut file = OpenOptions::new().write(true).open(&path)?;
                file.set_len(valid_len)?;
                file.sync_data()?;
                if valid_len < cfg.segment_bytes {
                    use std::io::Seek;
                    file.seek(std::io::SeekFrom::Start(valid_len))?;
                    return Ok(Wal::over(cfg, file, valid_len, next));
                }
            }
        }
        Wal::create(cfg, next)
    }

    fn over(cfg: &DurabilityConfig, file: File, file_bytes: u64, next: Version) -> Wal {
        let durable = next.saturating_sub(1);
        Wal {
            cfg: cfg.clone(),
            state: Mutex::new(State {
                group: Vec::new(),
                next_version: next,
                open: 0,
                written_version: durable,
                synced_version: durable,
                segment: Some(Segment {
                    file,
                    file_bytes,
                    written_version: durable,
                    synced_version: durable,
                    #[cfg(any(test, feature = "fault-injection"))]
                    plan: None,
                }),
                failed: None,
            }),
            closed: Condvar::new(),
        }
    }

    /// Locks the state, recovering from poison: every update below leaves
    /// it valid at each step.
    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Installs a crash plan on this writer (fault injection only).
    #[cfg(any(test, feature = "fault-injection"))]
    pub fn install_crash_plan(&self, plan: Arc<CrashPlan>) {
        let mut st = self.state();
        loop {
            if let Some(segment) = st.segment.as_mut() {
                segment.plan = Some(plan);
                return;
            }
            st = self.closed.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// The highest version the writer believes durable.
    pub fn synced_version(&self) -> Version {
        self.state().synced_version
    }

    /// Frames the encoded writeset of `version` into the group buffer —
    /// memory only, no syscall. `version` must be exactly the next one:
    /// the caller's commit order *is* the log order. Returns `true` when
    /// this record closes its group: the caller must then call
    /// [`Wal::complete`] with the same version (after releasing whatever
    /// lock serialized its `enqueue`) before acknowledging the commit.
    pub fn enqueue(&self, version: Version, ops_payload: &[u8]) -> Result<bool> {
        check_record_payload(ops_payload.len())?;
        let mut st = self.state();
        if let Some(e) = &st.failed {
            return Err(e.clone());
        }
        if version != st.next_version {
            return Err(DurabilityError::Corrupt {
                detail: format!(
                    "WAL append of v{version} out of order: the log expects v{}",
                    st.next_version
                ),
            });
        }
        frame_record(&mut st.group, version, ops_payload);
        st.next_version = version + 1;
        st.open += 1;
        let closes = match self.cfg.sync {
            SyncPolicy::Always => true,
            SyncPolicy::EveryN(n) => st.open >= n.max(1),
            SyncPolicy::Never => st.group.len() >= NEVER_GROUP_BYTES,
        };
        if closes {
            st.open = 0;
        }
        Ok(closes)
    }

    /// Closes the group `version` belongs to: returns once the record is
    /// handed to the OS and — unless the policy is [`SyncPolicy::Never`]
    /// — covered by an fsync. If another committer is already writing,
    /// waits for it and re-checks; otherwise writes and fsyncs whatever
    /// is buffered itself.
    pub fn complete(&self, version: Version) -> Result<()> {
        self.close_through(version, self.cfg.sync != SyncPolicy::Never)
    }

    /// Forces a write and an fsync, making every enqueued record durable.
    pub fn sync(&self) -> Result<()> {
        let last = self.state().next_version.saturating_sub(1);
        self.close_through(last, true)
    }

    fn close_through(&self, version: Version, durable: bool) -> Result<()> {
        let mut st = self.state();
        loop {
            let reached = if durable {
                st.synced_version
            } else {
                st.written_version
            };
            if reached >= version {
                return Ok(());
            }
            if let Some(e) = &st.failed {
                return Err(e.clone());
            }
            let Some(mut segment) = st.segment.take() else {
                // another closer is at work; it may cover this version
                st = self.closed.wait(st).unwrap_or_else(|e| e.into_inner());
                continue;
            };
            let mut group = std::mem::take(&mut st.group);
            drop(st);
            let outcome = segment.write_group(&self.cfg, &group, durable);
            st = self.state();
            st.written_version = segment.written_version;
            st.synced_version = segment.synced_version;
            st.segment = Some(segment);
            if let Err(e) = outcome {
                st.failed = Some(e);
            }
            if st.group.capacity() == 0 {
                group.clear();
                st.group = group;
            }
            self.closed.notify_all();
        }
    }
}

impl Drop for Wal {
    /// Close: the buffered tail is written and fsynced, best effort.
    /// Nothing is done once a write or fsync has failed — what a crash
    /// lost stays lost.
    fn drop(&mut self) {
        let cfg = &self.cfg;
        let st = self.state.get_mut().unwrap_or_else(|e| e.into_inner());
        if st.failed.is_some() {
            return;
        }
        if let Some(segment) = st.segment.as_mut() {
            if !st.group.is_empty() || segment.synced_version < segment.written_version {
                let _ = segment.write_group(cfg, &st.group, true);
            }
        }
    }
}

impl Segment {
    /// Hands `group` (whole framed records) to the OS — one `write`
    /// unless a record would overflow the segment, which then rotates at
    /// that record's boundary — and fsyncs if `durable`.
    fn write_group(&mut self, cfg: &DurabilityConfig, group: &[u8], durable: bool) -> Result<()> {
        let mut start = 0usize; // first byte of `group` not yet written
        let mut last = self.written_version;
        for (version, record) in framed_records(group) {
            let filled = self.file_bytes + (record.start - start) as u64;
            if filled > WAL_MAGIC.len() as u64 && filled + record.len() as u64 > cfg.segment_bytes {
                self.write_bytes(&group[start..record.start])?;
                self.written_version = last;
                self.rotate(cfg, version)?;
                start = record.start;
            }
            last = version;
        }
        self.write_bytes(&group[start..])?;
        self.written_version = last;
        #[cfg(any(test, feature = "fault-injection"))]
        if self.plan.as_ref().is_some_and(|p| p.take_duplicate()) {
            // the group's tail record, a second time
            if let Some((_, tail)) = framed_records(group).last() {
                self.write_bytes(&group[tail])?;
            }
        }
        if durable {
            self.fsync()?;
        }
        Ok(())
    }

    fn rotate(&mut self, cfg: &DurabilityConfig, next_start: Version) -> Result<()> {
        self.fsync()?;
        self.file = create_segment(&cfg.dir, next_start)?;
        self.file_bytes = WAL_MAGIC.len() as u64;
        Ok(())
    }

    /// Writes raw bytes through the (possibly faulty) medium.
    fn write_bytes(&mut self, bytes: &[u8]) -> Result<()> {
        if bytes.is_empty() {
            return Ok(());
        }
        #[cfg(any(test, feature = "fault-injection"))]
        if let Some(plan) = self.plan.clone() {
            let mut buf = bytes.to_vec();
            let n = plan
                .filter_write(&mut buf)
                .ok_or(DurabilityError::Crashed)?;
            self.file.write_all(&buf[..n])?;
            self.file_bytes += n as u64;
            if n < bytes.len() {
                // torn write: flush what the OS got, then die
                let _ = self.file.sync_data();
                return Err(DurabilityError::Crashed);
            }
            return Ok(());
        }
        self.file.write_all(bytes)?;
        self.file_bytes += bytes.len() as u64;
        Ok(())
    }

    fn fsync(&mut self) -> Result<()> {
        #[cfg(any(test, feature = "fault-injection"))]
        if let Some(plan) = self.plan.clone() {
            match plan.filter_fsync() {
                None => return Err(DurabilityError::Crashed),
                Some(false) => {
                    // swallowed: the writer is lied to and advances its
                    // watermark; CrashPlan::durable_bytes keeps the truth
                    self.synced_version = self.written_version;
                    return Ok(());
                }
                Some(true) => {}
            }
        }
        self.file.sync_data()?;
        self.synced_version = self.written_version;
        Ok(())
    }
}

/// The `(version, byte range)` of each framed record in `bytes`, which
/// must hold whole records only.
fn framed_records(bytes: &[u8]) -> impl Iterator<Item = (Version, Range<usize>)> + '_ {
    let mut at = 0usize;
    std::iter::from_fn(move || {
        if at >= bytes.len() {
            return None;
        }
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes")) as usize;
        let payload = at + RECORD_HEADER;
        let version = u64::from_le_bytes(bytes[payload..payload + 8].try_into().expect("8 bytes"));
        let record = at..payload + len;
        at = record.end;
        Some((version, record))
    })
}

/// Creates the segment whose first record is `start`, magic written and
/// the file and its directory entry fsynced.
fn create_segment(dir: &Path, start: Version) -> Result<File> {
    let mut file = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(segment_path(dir, start))?;
    file.write_all(WAL_MAGIC)?;
    file.sync_data()?;
    sync_dir(dir)?;
    Ok(file)
}

/// Fsyncs a directory so a freshly created/renamed file inside it
/// survives a crash.
pub(crate) fn sync_dir(dir: &Path) -> Result<()> {
    File::open(dir)?.sync_all()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::encode_ops;
    use std::sync::atomic::Ordering;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fdm-wal-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The versions of the records in the one segment starting at `first`.
    fn versions_on_disk(dir: &Path, first: Version) -> Vec<Version> {
        let bytes = std::fs::read(segment_path(dir, first)).unwrap();
        assert_eq!(&bytes[..8], WAL_MAGIC);
        framed_records(&bytes[8..]).map(|(v, _)| v).collect()
    }

    /// Replaces `appends_are_written_in_version_order`: the WAL no longer
    /// reorders, it *requires* order — the commit sequencer provides it —
    /// and a version other than the next one is a typed error that
    /// buffers nothing.
    #[test]
    fn out_of_order_append_is_a_typed_error_not_a_buffer() {
        let dir = scratch("order");
        let cfg = DurabilityConfig::new(&dir);
        let wal = Wal::create(&cfg, 1).unwrap();
        let payload = encode_ops(&[]).unwrap();
        for wrong in [2, 0, 7] {
            let err = append(&wal, wrong, &payload).unwrap_err();
            assert!(matches!(err, DurabilityError::Corrupt { .. }), "{err}");
        }
        let ack = append(&wal, 1, &payload).unwrap();
        assert!(ack.durable);
        assert!(
            append(&wal, 1, &payload).is_err(),
            "a duplicate is out of order too"
        );
        assert!(append(&wal, 2, &payload).unwrap().durable);
        assert_eq!(versions_on_disk(&dir, 1), vec![1, 2]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_commit_is_one_write_and_one_fsync_per_group() {
        let dir = scratch("group");
        let cfg = DurabilityConfig::new(&dir).with_sync(SyncPolicy::EveryN(3));
        let wal = Wal::create(&cfg, 1).unwrap();
        let plan = CrashPlan::new();
        plan.drop_fsync(); // counts every fsync the writer asks for
        wal.install_crash_plan(Arc::clone(&plan));
        let payload = encode_ops(&[]).unwrap();
        assert!(!append(&wal, 1, &payload).unwrap().durable);
        assert!(!append(&wal, 2, &payload).unwrap().durable);
        assert_eq!(plan.written_bytes(), 0, "an open group is memory only");
        let ack = append(&wal, 3, &payload).unwrap();
        assert!(ack.durable, "the third append closes the group");
        assert_eq!(ack.synced_version, 3);
        assert_eq!(plan.fsyncs_dropped.load(Ordering::SeqCst), 1);
        // explicit sync closes a partial group
        assert!(!append(&wal, 4, &payload).unwrap().durable);
        wal.sync().unwrap();
        assert_eq!(wal.synced_version(), 4);
        assert_eq!(plan.fsyncs_dropped.load(Ordering::SeqCst), 2);
        assert_eq!(versions_on_disk(&dir, 1), vec![1, 2, 3, 4]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn segments_rotate_at_the_size_threshold() {
        let dir = scratch("rotate");
        let cfg = DurabilityConfig::new(&dir).with_segment_bytes(64);
        let wal = Wal::create(&cfg, 1).unwrap();
        let payload = encode_ops(&[]).unwrap();
        for v in 1..=10 {
            append(&wal, v, &payload).unwrap();
        }
        let mut segs: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| parse_segment_name(e.unwrap().file_name().to_str().unwrap()))
            .collect();
        segs.sort();
        assert!(segs.len() > 1, "rotation happened: {segs:?}");
        assert_eq!(segs[0], 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One group larger than a segment splits at record boundaries, each
    /// segment named after its first record — the same layout appending
    /// one record at a time produces.
    #[test]
    fn a_group_that_overflows_the_segment_rotates_at_a_record_boundary() {
        let payload = encode_ops(&[]).unwrap();
        let layout = |tag: &str, sync: SyncPolicy| {
            let dir = scratch(tag);
            let cfg = DurabilityConfig::new(&dir)
                .with_segment_bytes(64)
                .with_sync(sync);
            let wal = Wal::create(&cfg, 1).unwrap();
            for v in 1..=10 {
                append(&wal, v, &payload).unwrap();
            }
            wal.sync().unwrap();
            let mut segs: Vec<(Version, u64)> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap())
                .filter_map(|e| {
                    let start = parse_segment_name(e.file_name().to_str().unwrap())?;
                    Some((start, e.metadata().unwrap().len()))
                })
                .collect();
            segs.sort();
            let _ = std::fs::remove_dir_all(&dir);
            segs
        };
        let one_by_one = layout("split-always", SyncPolicy::Always);
        assert!(one_by_one.len() > 1);
        assert_eq!(layout("split-group", SyncPolicy::EveryN(10)), one_by_one);
        assert_eq!(layout("split-never", SyncPolicy::Never), one_by_one);
    }

    #[test]
    fn oversized_payloads_are_rejected_before_append() {
        // the bound is exact: a record payload of 8 (version) + len
        // bytes must state a length within MAX_RECORD_BYTES
        assert!(check_record_payload(MAX_RECORD_BYTES as usize - 8).is_ok());
        assert!(matches!(
            check_record_payload(MAX_RECORD_BYTES as usize - 7),
            Err(DurabilityError::TooLarge { .. })
        ));
        // wired into append: rejected before anything is buffered or
        // written, and the writer stays usable
        let dir = scratch("oversize");
        let cfg = DurabilityConfig::new(&dir);
        let wal = Wal::create(&cfg, 1).unwrap();
        let big = vec![0u8; MAX_RECORD_BYTES as usize];
        let err = append(&wal, 1, &big).unwrap_err();
        assert!(matches!(err, DurabilityError::TooLarge { .. }), "{err}");
        assert_eq!(wal.synced_version(), 0);
        let payload = encode_ops(&[]).unwrap();
        assert!(append(&wal, 1, &payload).unwrap().durable);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The WAL's close: under `Never` nothing but rotation, `sync` and
    /// `Drop` reaches the file, so dropping the writer must write the
    /// buffered tail.
    #[test]
    fn drop_writes_the_buffered_tail() {
        let dir = scratch("drop");
        let cfg = DurabilityConfig::new(&dir).with_sync(SyncPolicy::Never);
        let wal = Wal::create(&cfg, 1).unwrap();
        let payload = encode_ops(&[]).unwrap();
        for v in 1..=5 {
            assert!(!append(&wal, v, &payload).unwrap().durable);
        }
        assert!(versions_on_disk(&dir, 1).is_empty(), "still buffered");
        drop(wal);
        assert_eq!(versions_on_disk(&dir, 1), vec![1, 2, 3, 4, 5]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// ...and must not once the writer has failed: a simulated crash
    /// keeps what it lost.
    #[test]
    fn drop_after_a_failed_write_flushes_nothing() {
        let dir = scratch("drop-crashed");
        let cfg = DurabilityConfig::new(&dir).with_sync(SyncPolicy::EveryN(2));
        let wal = Wal::create(&cfg, 1).unwrap();
        let plan = CrashPlan::new();
        wal.install_crash_plan(Arc::clone(&plan));
        let payload = encode_ops(&[]).unwrap();
        append(&wal, 1, &payload).unwrap();
        append(&wal, 2, &payload).unwrap();
        let group_bytes = plan.written_bytes();
        plan.cut_write_at(group_bytes + 3); // dies 3 bytes into the next group
        append(&wal, 3, &payload).unwrap();
        let err = append(&wal, 4, &payload).unwrap_err();
        assert_eq!(err, DurabilityError::Crashed);
        // the failure is sticky: later appends and syncs fail the same way
        assert_eq!(
            append(&wal, 5, &payload).unwrap_err(),
            DurabilityError::Crashed
        );
        assert_eq!(wal.sync().unwrap_err(), DurabilityError::Crashed);
        assert_eq!(wal.synced_version(), 2);
        let len_before = std::fs::metadata(segment_path(&dir, 1)).unwrap().len();
        drop(wal);
        let len_after = std::fs::metadata(segment_path(&dir, 1)).unwrap().len();
        assert_eq!(len_after, len_before, "Drop after a crash writes nothing");
        assert_eq!(len_after, 8 + group_bytes + 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Leader/follower under `Always`: committers enqueue in version
    /// order (as the store's sequencer makes them) and then all wait for
    /// their own version. Every acknowledgement is covered by an fsync,
    /// and concurrent waiters share fsyncs.
    #[test]
    fn always_acknowledges_only_what_an_fsync_covers() {
        let dir = scratch("leader");
        let cfg = DurabilityConfig::new(&dir);
        let wal = Wal::create(&cfg, 1).unwrap();
        let plan = CrashPlan::new();
        plan.drop_fsync();
        wal.install_crash_plan(Arc::clone(&plan));
        let payload = encode_ops(&[]).unwrap();
        let next = Mutex::new(1u64); // stands in for the commit sequencer
        const PER_THREAD: u64 = 50;
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..PER_THREAD {
                        let version = {
                            let mut next = next.lock().unwrap();
                            let v = *next;
                            assert!(wal.enqueue(v, &payload).unwrap());
                            *next += 1;
                            v
                        };
                        wal.complete(version).unwrap();
                        assert!(wal.synced_version() >= version, "no false ack");
                    }
                });
            }
        });
        let commits = 4 * PER_THREAD;
        assert_eq!(wal.synced_version(), commits);
        assert!(plan.fsyncs_dropped.load(Ordering::SeqCst) as u64 <= commits);
        assert_eq!(versions_on_disk(&dir, 1), (1..=commits).collect::<Vec<_>>());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn segment_names_roundtrip() {
        let p = segment_path(Path::new("/x"), 42);
        let name = p.file_name().unwrap().to_str().unwrap().to_string();
        assert_eq!(parse_segment_name(&name), Some(42));
        assert_eq!(parse_segment_name("wal-.seg"), None);
        assert_eq!(parse_segment_name("checkpoint-1.ckpt"), None);
    }
}

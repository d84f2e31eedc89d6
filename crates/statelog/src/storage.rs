//! Stable storage for group state: append-only update logs plus
//! atomically replaced snapshots, with crash recovery.
//!
//! The paper's server logs all multicast messages "both in memory and
//! on stable storage, thus ensuring persistence of shared state and
//! fault tolerance" (§3.2). Layout on disk, under a store root:
//!
//! ```text
//! <root>/g<group>/snapshot.corona   checkpoint (tmp+rename, atomic)
//! <root>/g<group>/log.corona        append-only update records
//! ```
//!
//! Every record and the snapshot body use the same CRC-checked frame
//! format as the wire ([`corona_types::frame`]), so a torn tail write
//! (power loss mid-append) is detected on recovery and the log is
//! truncated back to its last complete record — matching the paper's
//! §6 discussion: the newest unsynced updates may be lost on a crash
//! and are re-fetched from replicas or the original sender.

use crate::memlog::GroupLog;
use bytes::{BufMut, BytesMut};
use corona_metrics::{Counter, Histogram, Registry};
use corona_types::error::CodecError;
use corona_types::frame::{read_frame, write_frame};
use corona_types::id::{GroupId, SeqNo};
use corona_types::policy::Persistence;
use corona_types::state::{LoggedUpdate, SharedState};
use corona_types::wire::{Decode, Encode, Reader};
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufReader, BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Metric handles for stable-storage operations, resolved once from a
/// registry and shared by every [`GroupStore`] the store hands out.
///
/// Names (latencies in microseconds, sizes in bytes):
/// `statelog.append_us`, `statelog.fsync_us`, `statelog.replay_us`,
/// `statelog.snapshot_bytes`, `statelog.reduction_saved_bytes`.
#[derive(Debug, Clone)]
pub struct StorageMetrics {
    append_us: Arc<Histogram>,
    fsync_us: Arc<Histogram>,
    replay_us: Arc<Histogram>,
    snapshot_bytes: Arc<Histogram>,
    reduction_saved_bytes: Arc<Counter>,
}

impl StorageMetrics {
    /// Resolves the storage metric set from `registry`.
    pub fn new(registry: &Registry) -> Self {
        StorageMetrics {
            append_us: registry.histogram("statelog.append_us"),
            fsync_us: registry.histogram("statelog.fsync_us"),
            replay_us: registry.histogram("statelog.replay_us"),
            snapshot_bytes: registry.histogram("statelog.snapshot_bytes"),
            reduction_saved_bytes: registry.counter("statelog.reduction_saved_bytes"),
        }
    }
}

/// When the store calls `fsync` on the update log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// Never fsync explicitly; rely on OS write-back. This is the
    /// paper's operating point: logging is off the critical path and
    /// the newest updates may be lost on a crash.
    #[default]
    OsDefault,
    /// fsync after every appended record (durable but slow; used by the
    /// ABL-LOG ablation benchmark to quantify the cost the paper's
    /// design avoids).
    EveryRecord,
    /// fsync after every `n` records.
    EveryN(u32),
}

/// Result of recovering one group from stable storage.
#[derive(Debug)]
pub struct RecoveredGroup {
    /// Group lifetime semantics recorded at creation.
    pub persistence: Persistence,
    /// The recovered in-memory log (checkpoint + replayed suffix).
    pub log: GroupLog,
    /// Number of complete update records replayed from the log file.
    pub replayed: usize,
    /// Whether a torn tail was detected and truncated away.
    pub truncated_tail: bool,
}

const SNAPSHOT_FILE: &str = "snapshot.corona";
const LOG_FILE: &str = "log.corona";

const REC_CREATED: u8 = 0;
const REC_UPDATE: u8 = 1;

/// A stable store rooted at a directory, holding one subdirectory per
/// group.
#[derive(Debug)]
pub struct StableStore {
    root: PathBuf,
    sync: SyncPolicy,
    metrics: Option<StorageMetrics>,
}

impl StableStore {
    /// Opens (creating if necessary) a store rooted at `root`.
    ///
    /// # Errors
    ///
    /// Any I/O error creating the root directory.
    pub fn open(root: impl Into<PathBuf>, sync: SyncPolicy) -> io::Result<Self> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(StableStore {
            root,
            sync,
            metrics: None,
        })
    }

    /// Records storage timings/sizes into `registry` (builder-style);
    /// every [`GroupStore`] handed out afterwards inherits the handles.
    #[must_use]
    pub fn with_metrics(mut self, registry: &Registry) -> Self {
        self.metrics = Some(StorageMetrics::new(registry));
        self
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn group_dir(&self, group: GroupId) -> PathBuf {
        self.root.join(format!("g{}", group.raw()))
    }

    /// Creates on-disk state for a new group and returns the append
    /// handle.
    ///
    /// # Errors
    ///
    /// `AlreadyExists` if the group directory exists; other I/O errors.
    pub fn create_group(
        &self,
        group: GroupId,
        persistence: Persistence,
        initial: &SharedState,
    ) -> io::Result<GroupStore> {
        let dir = self.group_dir(group);
        if dir.exists() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!("group {group} already stored"),
            ));
        }
        fs::create_dir_all(&dir)?;
        let log_path = dir.join(LOG_FILE);
        let file = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(&log_path)?;
        let mut store = GroupStore {
            dir,
            writer: BufWriter::new(file),
            sync: self.sync,
            unsynced: 0,
            metrics: self.metrics.clone(),
            record: BytesMut::new(),
        };
        let mut body = BytesMut::new();
        encode_created_record(persistence, initial, &mut body);
        write_frame(&mut store.writer, &body)?;
        store.flush_and_maybe_sync(true)?;
        Ok(store)
    }

    /// Whether the group has on-disk state.
    pub fn group_exists(&self, group: GroupId) -> bool {
        self.group_dir(group).join(LOG_FILE).exists()
            || self.group_dir(group).join(SNAPSHOT_FILE).exists()
    }

    /// Lists every group with on-disk state.
    ///
    /// # Errors
    ///
    /// I/O errors reading the root directory.
    pub fn list_groups(&self) -> io::Result<Vec<GroupId>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.root)? {
            let entry = entry?;
            if !entry.file_type()?.is_dir() {
                continue;
            }
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(raw) = name.strip_prefix('g').and_then(|s| s.parse::<u64>().ok()) {
                out.push(GroupId::new(raw));
            }
        }
        out.sort();
        Ok(out)
    }

    /// Permanently removes a group's on-disk state (the `deleteGroup`
    /// path; "the shared state of a deleted group is lost", §3.2).
    ///
    /// # Errors
    ///
    /// I/O errors removing the directory. Missing state is not an
    /// error.
    pub fn delete_group(&self, group: GroupId) -> io::Result<()> {
        let dir = self.group_dir(group);
        match fs::remove_dir_all(&dir) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Recovers a group: loads the snapshot (if any), replays the
    /// suffix of complete log records, truncates any torn tail, and
    /// returns the reconstructed [`GroupLog`] plus an append handle.
    ///
    /// Returns `Ok(None)` if the group has no on-disk state.
    ///
    /// # Errors
    ///
    /// I/O errors, or `InvalidData` if the log is structurally corrupt
    /// beyond a torn tail (e.g. missing creation record).
    pub fn recover_group(
        &self,
        group: GroupId,
    ) -> io::Result<Option<(RecoveredGroup, GroupStore)>> {
        let dir = self.group_dir(group);
        let log_path = dir.join(LOG_FILE);
        if !log_path.exists() {
            return Ok(None);
        }
        let replay_started = Instant::now();

        // 1. Snapshot, if present.
        let snapshot = read_snapshot(&dir.join(SNAPSHOT_FILE))?;

        // 2. Scan the log, collecting complete records.
        let mut file = File::open(&log_path)?;
        let mut reader = BufReader::new(&mut file);
        let mut good_end: u64 = 0;
        let mut truncated_tail = false;
        let mut created: Option<(Persistence, SharedState)> = None;
        let mut updates: Vec<LoggedUpdate> = Vec::new();
        loop {
            match read_frame(&mut reader) {
                Ok(None) => break,
                Ok(Some(body)) => {
                    let mut r = Reader::new(&body);
                    match parse_record(&mut r) {
                        Ok(Record::Created {
                            persistence,
                            initial,
                        }) => created = Some((persistence, initial)),
                        Ok(Record::Update(u)) => updates.push(u),
                        Err(_) => {
                            truncated_tail = true;
                            break;
                        }
                    }
                    good_end += 8 + body.len() as u64;
                }
                Err(e)
                    if e.kind() == io::ErrorKind::UnexpectedEof
                        || e.kind() == io::ErrorKind::InvalidData =>
                {
                    truncated_tail = true;
                    break;
                }
                Err(e) => return Err(e),
            }
        }
        drop(reader);

        // 3. Truncate a torn tail so future appends start clean.
        if truncated_tail {
            let f = OpenOptions::new().write(true).open(&log_path)?;
            f.set_len(good_end)?;
            f.sync_all()?;
        }

        // 4. Reconstruct the in-memory log.
        let (persistence, checkpoint, checkpoint_seq) = match (snapshot, created) {
            (Some(snap), _) => (snap.persistence, snap.state, snap.through),
            (None, Some((persistence, initial))) => (persistence, initial, SeqNo::ZERO),
            (None, None) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("group {group}: no snapshot and no creation record"),
                ))
            }
        };
        // Keep only updates newer than the checkpoint (the log may
        // retain a prefix if a crash hit between snapshot rename and
        // log rewrite — that ordering makes this safe).
        updates.retain(|u| u.seq > checkpoint_seq);
        let replayed = updates.len();
        // Drop anything after a gap: records past a hole cannot be
        // applied consistently.
        let mut contiguous = Vec::with_capacity(updates.len());
        let mut expect = checkpoint_seq.next();
        for u in updates {
            if u.seq == expect {
                expect = expect.next();
                contiguous.push(u);
            } else {
                truncated_tail = true;
                break;
            }
        }
        let replayed = replayed.min(contiguous.len());
        let log = GroupLog::restore(group, checkpoint, checkpoint_seq, contiguous);

        let file = OpenOptions::new().append(true).open(&log_path)?;
        let store = GroupStore {
            dir,
            writer: BufWriter::new(file),
            sync: self.sync,
            unsynced: 0,
            metrics: self.metrics.clone(),
            record: BytesMut::new(),
        };
        if let Some(m) = &self.metrics {
            m.replay_us.record_duration(replay_started.elapsed());
        }
        Ok(Some((
            RecoveredGroup {
                persistence,
                log,
                replayed,
                truncated_tail,
            },
            store,
        )))
    }
}

// Each on-disk layout has one writer and one reader, side by side.

enum Record {
    Created {
        persistence: Persistence,
        initial: SharedState,
    },
    Update(LoggedUpdate),
}

/// `REC_CREATED ∥ persistence ∥ initial state`: a log's first record.
fn encode_created_record(persistence: Persistence, initial: &SharedState, body: &mut BytesMut) {
    body.put_u8(REC_CREATED);
    persistence.encode(body);
    initial.encode(body);
}

/// `REC_UPDATE ∥ update`, for `append_update` and for the suffix that
/// `write_checkpoint` rewrites.
fn encode_update_record(update: &LoggedUpdate, body: &mut BytesMut) {
    body.put_u8(REC_UPDATE);
    update.encode(body);
}

fn parse_record(r: &mut Reader<'_>) -> Result<Record, CodecError> {
    match r.read_u8()? {
        REC_CREATED => Ok(Record::Created {
            persistence: Persistence::decode(r)?,
            initial: SharedState::decode(r)?,
        }),
        REC_UPDATE => Ok(Record::Update(LoggedUpdate::decode(r)?)),
        tag => Err(CodecError::InvalidTag {
            context: "log record",
            tag,
        }),
    }
}

struct Snapshot {
    persistence: Persistence,
    through: SeqNo,
    state: SharedState,
}

/// `persistence ∥ through ∥ state`: the snapshot body.
fn encode_snapshot(
    persistence: Persistence,
    through: SeqNo,
    state: &SharedState,
    body: &mut BytesMut,
) {
    persistence.encode(body);
    through.encode(body);
    state.encode(body);
}

fn parse_snapshot(r: &mut Reader<'_>) -> Result<Snapshot, CodecError> {
    Ok(Snapshot {
        persistence: Persistence::decode(r)?,
        through: SeqNo::decode(r)?,
        state: SharedState::decode(r)?,
    })
}

fn read_snapshot(path: &Path) -> io::Result<Option<Snapshot>> {
    let file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let mut reader = BufReader::new(file);
    let body = match read_frame(&mut reader)? {
        Some(b) => b,
        // Empty or truncated snapshot file: ignore it (the rename was
        // atomic, so this only happens with external interference).
        None => return Ok(None),
    };
    parse_snapshot(&mut Reader::new(&body))
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Append handle for one group's on-disk log.
///
/// Owned by the server's logger thread; all methods take `&mut self`.
#[derive(Debug)]
pub struct GroupStore {
    dir: PathBuf,
    writer: BufWriter<File>,
    sync: SyncPolicy,
    unsynced: u32,
    metrics: Option<StorageMetrics>,
    /// The record being appended, encoded here: kept between appends,
    /// so that an append allocates nothing once it has held the
    /// largest record so far.
    record: BytesMut,
}

impl GroupStore {
    /// Appends one sequenced update record.
    ///
    /// # Errors
    ///
    /// Any I/O error from the underlying file.
    pub fn append_update(&mut self, update: &LoggedUpdate) -> io::Result<()> {
        let started = Instant::now();
        self.record.clear();
        encode_update_record(update, &mut self.record);
        let bytes = self.record.len() as u64;
        write_frame(&mut self.writer, &self.record)?;
        self.flush_and_maybe_sync(false)?;
        if let Some(m) = &self.metrics {
            m.append_us.record_duration(started.elapsed());
        }
        // Infrastructure span (no trace id): the storage-level append
        // cost, with the record size as argument.
        corona_trace::record(
            corona_trace::Hop::LogAppend,
            corona_trace::TraceId::NONE,
            started.elapsed().as_micros() as u64,
            bytes,
        );
        Ok(())
    }

    fn flush_and_maybe_sync(&mut self, force_sync: bool) -> io::Result<()> {
        self.writer.flush()?;
        self.unsynced += 1;
        let should_sync = force_sync
            || match self.sync {
                SyncPolicy::OsDefault => false,
                SyncPolicy::EveryRecord => true,
                SyncPolicy::EveryN(n) => self.unsynced >= n,
            };
        if should_sync {
            self.timed_sync_data()?;
            self.unsynced = 0;
        }
        Ok(())
    }

    fn timed_sync_data(&mut self) -> io::Result<()> {
        let started = Instant::now();
        self.writer.get_ref().sync_data()?;
        if let Some(m) = &self.metrics {
            m.fsync_us.record_duration(started.elapsed());
        }
        corona_trace::record(
            corona_trace::Hop::LogFsync,
            corona_trace::TraceId::NONE,
            started.elapsed().as_micros() as u64,
            0,
        );
        Ok(())
    }

    /// Durably records a checkpoint: writes the snapshot atomically
    /// (tmp + rename), then rewrites the log to contain only the
    /// retained suffix. Crash-safe in either order of survival (see
    /// module docs).
    ///
    /// # Errors
    ///
    /// Any I/O error from the underlying files.
    pub fn write_checkpoint(
        &mut self,
        persistence: Persistence,
        through: SeqNo,
        state: &SharedState,
        suffix: &[LoggedUpdate],
    ) -> io::Result<()> {
        // 1. Snapshot, atomically.
        let snap_tmp = self.dir.join("snapshot.tmp");
        let snap_final = self.dir.join(SNAPSHOT_FILE);
        {
            let mut body = BytesMut::new();
            encode_snapshot(persistence, through, state, &mut body);
            if let Some(m) = &self.metrics {
                m.snapshot_bytes.record(body.len() as u64);
            }
            let mut f = File::create(&snap_tmp)?;
            write_frame(&mut f, &body)?;
            f.sync_all()?;
        }
        fs::rename(&snap_tmp, &snap_final)?;
        let old_log_bytes = fs::metadata(self.dir.join(LOG_FILE)).map(|m| m.len()).ok();

        // 2. Rewrite the log with only the suffix, atomically.
        let log_tmp = self.dir.join("log.tmp");
        let log_final = self.dir.join(LOG_FILE);
        {
            let mut f = BufWriter::new(File::create(&log_tmp)?);
            for u in suffix {
                self.record.clear();
                encode_update_record(u, &mut self.record);
                write_frame(&mut f, &self.record)?;
            }
            f.flush()?;
            f.get_ref().sync_all()?;
        }
        // Bytes the reduction reclaimed from the on-disk log.
        if let (Some(m), Some(old)) = (&self.metrics, old_log_bytes) {
            let new = fs::metadata(&log_tmp).map(|m| m.len()).unwrap_or(old);
            m.reduction_saved_bytes.add(old.saturating_sub(new));
        }
        fs::rename(&log_tmp, &log_final)?;

        // 3. Swap the append handle to the new file.
        let mut file = OpenOptions::new().append(true).open(&log_final)?;
        file.seek(SeekFrom::End(0))?;
        self.writer = BufWriter::new(file);
        self.unsynced = 0;
        Ok(())
    }

    /// Flushes buffered records and syncs to disk. Used at orderly
    /// shutdown (destructors must not fail, so `Drop` only flushes).
    ///
    /// # Errors
    ///
    /// Any I/O error from the underlying file.
    pub fn sync(&mut self) -> io::Result<()> {
        self.writer.flush()?;
        self.timed_sync_data()?;
        self.unsynced = 0;
        Ok(())
    }
}

impl Drop for GroupStore {
    fn drop(&mut self) {
        // Best effort: never fail in a destructor. Records appended
        // since the last fsync (up to n−1 under `SyncPolicy::EveryN`)
        // were already acknowledged to clients, so a clean shutdown
        // must not leave them in the page cache only.
        let _ = self.writer.flush();
        if self.unsynced > 0 {
            let _ = self.timed_sync_data();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corona_types::id::{ClientId, ObjectId};
    use corona_types::state::{StateUpdate, Timestamp};

    fn tmpdir(tag: &str) -> PathBuf {
        let mut dir = std::env::temp_dir();
        dir.push(format!(
            "corona-statelog-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn logged(seq: u64, payload: &str) -> LoggedUpdate {
        LoggedUpdate {
            seq: SeqNo::new(seq),
            sender: ClientId::new(1),
            timestamp: Timestamp::from_micros(seq),
            update: StateUpdate::incremental(ObjectId::new(1), payload.as_bytes().to_vec()),
        }
    }

    #[test]
    fn create_append_recover() {
        let root = tmpdir("basic");
        let store = StableStore::open(&root, SyncPolicy::OsDefault).unwrap();
        let initial = SharedState::from_objects([(ObjectId::new(1), &b"init:"[..])]);
        let mut gs = store
            .create_group(GroupId::new(7), Persistence::Persistent, &initial)
            .unwrap();
        gs.append_update(&logged(1, "a")).unwrap();
        gs.append_update(&logged(2, "b")).unwrap();
        gs.sync().unwrap();
        drop(gs);

        let (rec, _handle) = store.recover_group(GroupId::new(7)).unwrap().unwrap();
        assert_eq!(rec.persistence, Persistence::Persistent);
        assert_eq!(rec.replayed, 2);
        assert!(!rec.truncated_tail);
        assert_eq!(rec.log.last_seq(), SeqNo::new(2));
        assert_eq!(
            rec.log
                .current_state()
                .object(ObjectId::new(1))
                .unwrap()
                .materialize()
                .as_ref(),
            b"init:ab"
        );
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn golden_log_is_byte_stable_and_recovers() {
        // A log written by the one-byte table CRC kernel: creation
        // record ("init:" in object 1) and updates 1 "a", 2 "b". What
        // is on disk today must keep recovering, and what is written
        // today must be what an older build recovers.
        const GOLDEN: &[u8] = b"\x0b\x00\x00\x00\x54\xbb\xe8\xdb\x00\x00\x01\x01\x05init:\x00\
            \x08\x00\x00\x00\x8b\x43\x13\x63\x01\x01\x01\x01\x01\x01\x01a\
            \x08\x00\x00\x00\x7c\x72\x52\x8c\x01\x02\x01\x02\x01\x01\x01b";
        let root = tmpdir("golden");
        let store = StableStore::open(&root, SyncPolicy::OsDefault).unwrap();
        let initial = SharedState::from_objects([(ObjectId::new(1), &b"init:"[..])]);
        let mut gs = store
            .create_group(GroupId::new(9), Persistence::Persistent, &initial)
            .unwrap();
        gs.append_update(&logged(1, "a")).unwrap();
        gs.append_update(&logged(2, "b")).unwrap();
        gs.sync().unwrap();
        drop(gs);
        let log_path = root.join("g9").join(LOG_FILE);
        assert_eq!(fs::read(&log_path).unwrap(), GOLDEN);

        fs::create_dir_all(root.join("g10")).unwrap();
        fs::write(root.join("g10").join(LOG_FILE), GOLDEN).unwrap();
        let (rec, _handle) = store.recover_group(GroupId::new(10)).unwrap().unwrap();
        assert_eq!(rec.replayed, 2);
        assert!(!rec.truncated_tail);
        let object = rec.log.current_state().object(ObjectId::new(1)).cloned();
        assert_eq!(object.unwrap().materialize().as_ref(), b"init:ab");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn recover_missing_group_is_none() {
        let root = tmpdir("missing");
        let store = StableStore::open(&root, SyncPolicy::OsDefault).unwrap();
        assert!(store.recover_group(GroupId::new(1)).unwrap().is_none());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn duplicate_create_rejected() {
        let root = tmpdir("dup");
        let store = StableStore::open(&root, SyncPolicy::OsDefault).unwrap();
        store
            .create_group(GroupId::new(1), Persistence::Transient, &SharedState::new())
            .unwrap();
        let err = store
            .create_group(GroupId::new(1), Persistence::Transient, &SharedState::new())
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn list_and_delete_groups() {
        let root = tmpdir("list");
        let store = StableStore::open(&root, SyncPolicy::OsDefault).unwrap();
        for g in [3u64, 1, 2] {
            store
                .create_group(
                    GroupId::new(g),
                    Persistence::Persistent,
                    &SharedState::new(),
                )
                .unwrap();
        }
        assert_eq!(
            store.list_groups().unwrap(),
            vec![GroupId::new(1), GroupId::new(2), GroupId::new(3)]
        );
        store.delete_group(GroupId::new(2)).unwrap();
        assert_eq!(
            store.list_groups().unwrap(),
            vec![GroupId::new(1), GroupId::new(3)]
        );
        assert!(!store.group_exists(GroupId::new(2)));
        store.delete_group(GroupId::new(2)).unwrap(); // idempotent
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn drop_syncs_acknowledged_records() {
        // Regression: `GroupStore::drop` only flushed, so with
        // `SyncPolicy::EveryN(n)` up to n−1 acknowledged records sat in
        // the page cache after a clean shutdown. Drop must fsync when
        // unsynced records remain — observable via the fsync metric —
        // and a reopen must replay every record.
        let root = tmpdir("dropsync");
        let registry = corona_metrics::Registry::new();
        let store = StableStore::open(&root, SyncPolicy::EveryN(10))
            .expect("open store")
            .with_metrics(&registry);
        let mut gs = store
            .create_group(
                GroupId::new(1),
                Persistence::Persistent,
                &SharedState::new(),
            )
            .unwrap();
        let fsyncs_before = registry
            .snapshot()
            .histogram("statelog.fsync_us")
            .map_or(0, |h| h.count);
        gs.append_update(&logged(1, "a")).unwrap();
        gs.append_update(&logged(2, "b")).unwrap();
        gs.append_update(&logged(3, "c")).unwrap();
        // Below the EveryN threshold: nothing synced yet.
        assert_eq!(
            registry
                .snapshot()
                .histogram("statelog.fsync_us")
                .map_or(0, |h| h.count),
            fsyncs_before,
            "EveryN(10) must not sync after 3 records"
        );
        drop(gs);
        assert!(
            registry
                .snapshot()
                .histogram("statelog.fsync_us")
                .map_or(0, |h| h.count)
                > fsyncs_before,
            "drop must fsync the unsynced tail"
        );
        let (rec, _handle) = store.recover_group(GroupId::new(1)).unwrap().unwrap();
        assert_eq!(rec.replayed, 3);
        assert_eq!(rec.log.last_seq(), SeqNo::new(3));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_continue() {
        let root = tmpdir("torn");
        let store = StableStore::open(&root, SyncPolicy::EveryRecord).unwrap();
        let mut gs = store
            .create_group(
                GroupId::new(1),
                Persistence::Persistent,
                &SharedState::new(),
            )
            .unwrap();
        gs.append_update(&logged(1, "one")).unwrap();
        gs.append_update(&logged(2, "two")).unwrap();
        drop(gs);

        // Simulate a torn write: chop bytes off the log tail.
        let log_path = root.join("g1").join(LOG_FILE);
        let len = fs::metadata(&log_path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&log_path).unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);

        let (rec, mut handle) = store.recover_group(GroupId::new(1)).unwrap().unwrap();
        assert!(rec.truncated_tail);
        assert_eq!(rec.replayed, 1, "only the first record survived");
        assert_eq!(rec.log.last_seq(), SeqNo::new(1));

        // The truncated log must accept new appends cleanly.
        handle.append_update(&logged(2, "two again")).unwrap();
        handle.sync().unwrap();
        drop(handle);
        let (rec2, _) = store.recover_group(GroupId::new(1)).unwrap().unwrap();
        assert_eq!(rec2.log.last_seq(), SeqNo::new(2));
        assert!(!rec2.truncated_tail);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn checkpoint_then_recover_uses_snapshot() {
        let root = tmpdir("ckpt");
        let store = StableStore::open(&root, SyncPolicy::OsDefault).unwrap();
        let mut gs = store
            .create_group(
                GroupId::new(1),
                Persistence::Persistent,
                &SharedState::new(),
            )
            .unwrap();
        let mut log = GroupLog::new(GroupId::new(1), SharedState::new());
        for i in 1..=6u64 {
            let u = log.append(
                ClientId::new(1),
                StateUpdate::incremental(ObjectId::new(1), format!("{i};").into_bytes()),
                Timestamp::ZERO,
            );
            gs.append_update(&u).unwrap();
        }
        log.reduce(SeqNo::new(4)).unwrap();
        let suffix: Vec<_> = log.suffix_iter().cloned().collect();
        gs.write_checkpoint(
            Persistence::Persistent,
            log.checkpoint_seq(),
            log.checkpoint_state(),
            &suffix,
        )
        .unwrap();
        // Post-checkpoint appends land in the rewritten log.
        let u7 = log.append(
            ClientId::new(1),
            StateUpdate::incremental(ObjectId::new(1), &b"7;"[..]),
            Timestamp::ZERO,
        );
        gs.append_update(&u7).unwrap();
        gs.sync().unwrap();
        drop(gs);

        let (rec, _) = store.recover_group(GroupId::new(1)).unwrap().unwrap();
        assert_eq!(rec.log.checkpoint_seq(), SeqNo::new(4));
        assert_eq!(rec.log.last_seq(), SeqNo::new(7));
        assert_eq!(rec.replayed, 3, "two suffix + one post-checkpoint");
        assert_eq!(
            rec.log
                .current_state()
                .object(ObjectId::new(1))
                .unwrap()
                .materialize()
                .as_ref(),
            b"1;2;3;4;5;6;7;"
        );
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn crash_between_snapshot_and_log_rewrite_is_safe() {
        // Simulate: snapshot written, but the log still holds ALL
        // records (the rewrite "didn't happen"). Recovery must skip
        // records <= checkpoint.
        let root = tmpdir("crash-order");
        let store = StableStore::open(&root, SyncPolicy::OsDefault).unwrap();
        let mut gs = store
            .create_group(
                GroupId::new(1),
                Persistence::Persistent,
                &SharedState::new(),
            )
            .unwrap();
        let mut log = GroupLog::new(GroupId::new(1), SharedState::new());
        for i in 1..=4u64 {
            let u = log.append(
                ClientId::new(1),
                StateUpdate::incremental(ObjectId::new(1), format!("{i}").into_bytes()),
                Timestamp::ZERO,
            );
            gs.append_update(&u).unwrap();
        }
        gs.sync().unwrap();
        drop(gs);

        // Write ONLY the snapshot (as write_checkpoint step 1 would).
        log.reduce(SeqNo::new(3)).unwrap();
        let snap_tmp = root.join("g1").join("snapshot.tmp");
        let snap_final = root.join("g1").join(SNAPSHOT_FILE);
        {
            let mut body = BytesMut::new();
            encode_snapshot(
                Persistence::Persistent,
                SeqNo::new(3),
                log.checkpoint_state(),
                &mut body,
            );
            let mut f = File::create(&snap_tmp).unwrap();
            write_frame(&mut f, &body).unwrap();
        }
        fs::rename(&snap_tmp, &snap_final).unwrap();

        let (rec, _) = store.recover_group(GroupId::new(1)).unwrap().unwrap();
        assert_eq!(rec.log.checkpoint_seq(), SeqNo::new(3));
        assert_eq!(rec.log.last_seq(), SeqNo::new(4));
        assert_eq!(
            rec.log
                .current_state()
                .object(ObjectId::new(1))
                .unwrap()
                .materialize()
                .as_ref(),
            b"1234"
        );
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn persistence_survives_restart_with_null_membership() {
        // The defining property of a persistent group (§3.1): state
        // outlives all members AND the server process itself.
        let root = tmpdir("persist");
        {
            let store = StableStore::open(&root, SyncPolicy::OsDefault).unwrap();
            let initial = SharedState::from_objects([(ObjectId::new(1), &b"durable"[..])]);
            let mut gs = store
                .create_group(GroupId::new(9), Persistence::Persistent, &initial)
                .unwrap();
            gs.sync().unwrap();
        } // store dropped: "server crash"
        {
            let store = StableStore::open(&root, SyncPolicy::OsDefault).unwrap();
            let (rec, _) = store.recover_group(GroupId::new(9)).unwrap().unwrap();
            assert_eq!(
                rec.log
                    .current_state()
                    .object(ObjectId::new(1))
                    .unwrap()
                    .materialize()
                    .as_ref(),
                b"durable"
            );
        }
        fs::remove_dir_all(&root).unwrap();
    }
}

//! # wal — group-commit write-ahead logging and crash recovery
//!
//! The store's group-commit front-end already produces the exact durable
//! unit a write-ahead log wants: one commit timestamp, one atomic cut,
//! per-key outcomes reconstructible from the ingest fold. This crate
//! logs per *group*, so the classic WAL fsync amortization falls out of
//! the batch that already exists — the same piggybacking the bundling
//! paper exploits for range-query metadata.
//!
//! ## Pieces
//!
//! * [`GroupWal`] — an append-only, CRC-checksummed, length-prefixed
//!   group log implementing [`store::CommitLog`]. Attach it to a
//!   [`store::BundledStore`] (before sharing) and every committing
//!   write group is appended — and, per [`SyncPolicy`], fsynced —
//!   *between* validation and finalization, while concurrent readers
//!   still spin on the group's pending bundle entries. The durable
//!   prefix of the log is therefore always a prefix of the visible
//!   history, and an `ingest` ticket (resolved after the group commits)
//!   implies durability under [`SyncPolicy::Always`].
//! * [`SyncPolicy`] — `Always` (fsync every group), `EveryNGroups`
//!   (bounded-loss batching), `Off` (the default: explicit
//!   [`store::CommitLog::sync`] barriers only; segment rotation still
//!   syncs).
//! * Segment rotation — the log is a directory of `wal-<seq>.log`
//!   files, rotated at a configurable size. Rotation fsyncs the old
//!   segment before opening the next, so only the newest segment can
//!   ever hold a torn tail.
//! * [`WalRecovery`] — scans the log, truncates the torn tail
//!   (tolerating a crash at any byte boundary), and replays the valid
//!   prefix into a fresh store through the same `apply_grouped`
//!   pipeline that produced it.
//! * Observability — [`GroupWal::attach_obs`] registers `wal.append_ns`
//!   / `wal.fsync_ns` histograms and `wal.bytes` / `wal.groups`
//!   counters; [`WalRecovery::replay`] counts
//!   `wal.recovery_replayed_groups`. All export through the existing
//!   `/metrics` endpoint.
//!
//! The crate is pure `std` — no new shims (see `shims/README.md`).
//!
//! ## Crash model
//!
//! `log_group` returns only after `write(2)` (plus `fsync(2)` when the
//! policy says so) succeeds. A crash can cut the log at **any byte
//! boundary** of the newest segment: recovery decodes frames until the
//! first one that is short, checksum-invalid, or structurally malformed,
//! and discards from there. Because groups are logged before they become
//! visible, the recovered store is the visible history truncated at the
//! last durable group boundary — never a state the live store could not
//! have shown.

#![forbid(unsafe_code)]

mod codec;
mod recovery;

pub use codec::{
    crc32, decode_frame, encode_frame, GroupOp, GroupRecord, WalValue, FRAME_HEADER, MAX_PAYLOAD,
    SEGMENT_MAGIC,
};
pub use recovery::{RecoveryStats, ScanOutcome, WalRecovery};

use obs::{Counter, Histogram, MetricsRegistry};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;
use store::TxnOp;

/// When the log forces appended groups to stable storage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SyncPolicy {
    /// fsync after every appended group: an acknowledged operation is a
    /// durable operation. The fsync is amortized over the whole group —
    /// the ingest committers pay one per published super-batch.
    Always,
    /// fsync once every `n` appended groups (`n >= 1`; `1` behaves like
    /// [`SyncPolicy::Always`]). A crash loses at most the last `n`
    /// groups' acknowledgements.
    EveryNGroups(u32),
    /// Never fsync on append — only explicit [`store::CommitLog::sync`]
    /// barriers ([`Ingest::flush`], shutdown) and segment rotation
    /// reach stable storage. The default.
    ///
    /// [`Ingest::flush`]: ../ingest/struct.Ingest.html#method.flush
    #[default]
    Off,
}

impl SyncPolicy {
    /// Parse a CLI spelling: `always`, `every=N`, or `off`.
    #[must_use]
    pub fn parse(s: &str) -> Option<SyncPolicy> {
        match s {
            "always" => Some(SyncPolicy::Always),
            "off" => Some(SyncPolicy::Off),
            _ => {
                let n: u32 = s.strip_prefix("every=")?.parse().ok()?;
                (n >= 1).then_some(SyncPolicy::EveryNGroups(n))
            }
        }
    }

    /// The label a caller exports as the `durability` dimension of
    /// `store_build_info`.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            SyncPolicy::Always => "always".to_string(),
            SyncPolicy::EveryNGroups(n) => format!("every={n}"),
            SyncPolicy::Off => "off".to_string(),
        }
    }
}

/// A position in the log: a segment sequence number and a byte offset
/// within that segment. Ordered lexicographically, which is log order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct LogPosition {
    /// Segment sequence number (`wal-<segment>.log`).
    pub segment: u64,
    /// Byte offset within the segment (includes the 8-byte header).
    pub bytes: u64,
}

/// Observability instruments of one log (see [`GroupWal::attach_obs`]).
struct WalObs {
    append_ns: Histogram,
    fsync_ns: Histogram,
    bytes: Counter,
    groups: Counter,
}

struct Inner {
    file: File,
    /// Sequence number of the open segment.
    seq: u64,
    /// Bytes written to the open segment (header included).
    len: u64,
    /// Groups appended since the last fsync.
    since_sync: u64,
    /// Log position at the last fsync: everything at or before it
    /// survives a crash.
    durable: LogPosition,
}

/// The group-commit write-ahead log: a directory of `wal-<seq>.log`
/// segment files appended under an internal mutex (group commit already
/// serializes overlapping writers through the store's intent locks; the
/// mutex orders the disjoint remainder).
///
/// Attach to a store with [`store::BundledStore::attach_commit_log`];
/// recover with [`WalRecovery::replay`]. I/O errors on the append path
/// panic: a write-ahead log that silently drops groups would let the
/// store acknowledge operations that were never durable.
pub struct GroupWal<K, V> {
    dir: PathBuf,
    policy: SyncPolicy,
    segment_bytes: u64,
    inner: Mutex<Inner>,
    obs: Option<WalObs>,
    _marker: PhantomData<fn(K, V)>,
}

/// Default segment rotation threshold (64 MiB).
pub const DEFAULT_SEGMENT_BYTES: u64 = 64 << 20;

fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:06}.log"))
}

/// Parse `wal-<seq>.log` back to `seq`.
pub(crate) fn segment_seq(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?
        .strip_suffix(".log")?
        .parse()
        .ok()
}

fn fsync_dir(dir: &Path) -> std::io::Result<()> {
    // Durability of segment creation itself (metadata). Directories can
    // be opened and synced on the platforms we run on; if the platform
    // refuses, the data fsyncs still hold for existing files.
    if let Ok(d) = File::open(dir) {
        d.sync_all()?;
    }
    Ok(())
}

impl<K, V> GroupWal<K, V> {
    /// Create a fresh log in `dir` (created if missing). Fails with
    /// [`std::io::ErrorKind::AlreadyExists`] if `dir` already holds
    /// segment files — a fresh log never silently appends to (or
    /// clobbers) an existing history; recover or remove it explicitly.
    pub fn create(dir: impl AsRef<Path>, policy: SyncPolicy) -> std::io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            if segment_seq(&entry.file_name().to_string_lossy()).is_some() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::AlreadyExists,
                    format!("{} already holds WAL segments", dir.display()),
                ));
            }
        }
        let (file, len) = Self::new_segment(&dir, 1)?;
        Ok(GroupWal {
            dir,
            policy,
            segment_bytes: DEFAULT_SEGMENT_BYTES,
            inner: Mutex::new(Inner {
                file,
                seq: 1,
                len,
                since_sync: 0,
                durable: LogPosition {
                    segment: 1,
                    bytes: len,
                },
            }),
            obs: None,
            _marker: PhantomData,
        })
    }

    /// Open an existing log for appending: validates the record stream,
    /// physically truncates any torn tail (see [`WalRecovery`]), and
    /// positions the writer at the end of the newest surviving segment.
    /// An empty or missing directory behaves like [`GroupWal::create`].
    pub fn open(dir: impl AsRef<Path>, policy: SyncPolicy) -> std::io::Result<Self>
    where
        K: WalValue + Ord,
        V: WalValue,
    {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let end = WalRecovery::truncate_torn::<K, V>(&dir)?;
        let Some(end) = end else {
            return Self::create(dir, policy);
        };
        let file = OpenOptions::new()
            .append(true)
            .open(segment_path(&dir, end.segment))?;
        Ok(GroupWal {
            dir,
            policy,
            segment_bytes: DEFAULT_SEGMENT_BYTES,
            inner: Mutex::new(Inner {
                file,
                seq: end.segment,
                len: end.bytes,
                since_sync: 0,
                durable: end,
            }),
            obs: None,
            _marker: PhantomData,
        })
    }

    /// Set the segment rotation threshold (builder-style; the default is
    /// [`DEFAULT_SEGMENT_BYTES`]). A segment rotates after the append
    /// that carries it past the threshold, so segments exceed it by at
    /// most one frame.
    #[must_use]
    pub fn with_segment_bytes(mut self, bytes: u64) -> Self {
        self.segment_bytes = bytes.max(codec::SEGMENT_MAGIC.len() as u64 + 1);
        self
    }

    /// Register the `wal.*` instruments (`wal.append_ns`, `wal.fsync_ns`
    /// histograms; `wal.bytes`, `wal.groups` counters) in `registry`.
    /// Without this — or with a disabled registry — the log records
    /// nothing.
    pub fn attach_obs(&mut self, registry: &MetricsRegistry) {
        self.obs = Some(WalObs {
            append_ns: registry.histogram("wal.append_ns"),
            fsync_ns: registry.histogram("wal.fsync_ns"),
            bytes: registry.counter("wal.bytes"),
            groups: registry.counter("wal.groups"),
        });
    }

    /// The configured sync policy.
    #[must_use]
    pub fn policy(&self) -> SyncPolicy {
        self.policy
    }

    /// The log directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The position of the last fsync: everything at or before it is
    /// stable. The crash-simulation harness samples this (without
    /// flushing!) to cut the log where a real crash could.
    #[must_use]
    pub fn durable_position(&self) -> LogPosition {
        self.inner.lock().expect("wal mutex poisoned").durable
    }

    /// The current end-of-log write position (`>=` the durable position).
    #[must_use]
    pub fn position(&self) -> LogPosition {
        let inner = self.inner.lock().expect("wal mutex poisoned");
        LogPosition {
            segment: inner.seq,
            bytes: inner.len,
        }
    }

    fn new_segment(dir: &Path, seq: u64) -> std::io::Result<(File, u64)> {
        let mut file = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(segment_path(dir, seq))?;
        file.write_all(&codec::SEGMENT_MAGIC)?;
        file.sync_data()?;
        fsync_dir(dir)?;
        Ok((file, codec::SEGMENT_MAGIC.len() as u64))
    }

    fn fsync_locked(&self, inner: &mut Inner, tid: usize) {
        let t0 = self.obs.as_ref().map(|_| Instant::now());
        inner.file.sync_data().expect("wal fsync failed");
        inner.since_sync = 0;
        inner.durable = LogPosition {
            segment: inner.seq,
            bytes: inner.len,
        };
        if let (Some(obs), Some(t0)) = (&self.obs, t0) {
            obs.fsync_ns.record(tid, t0.elapsed().as_nanos() as u64);
        }
    }

    /// Rotate: fsync the finished segment (a rotation is always a
    /// durability point — only the newest segment can hold a torn
    /// tail), then open the next.
    fn rotate_locked(&self, inner: &mut Inner, tid: usize) {
        self.fsync_locked(inner, tid);
        let seq = inner.seq + 1;
        let (file, len) = Self::new_segment(&self.dir, seq).expect("wal segment rotation failed");
        inner.file = file;
        inner.seq = seq;
        inner.len = len;
        inner.since_sync = 0;
        // The new segment's header was fsynced by new_segment.
        inner.durable = LogPosition {
            segment: seq,
            bytes: len,
        };
    }
}

impl<K, V> store::CommitLog<K, V> for GroupWal<K, V>
where
    K: WalValue + Send + Sync,
    V: WalValue + Send + Sync,
{
    fn log_group(
        &self,
        tid: usize,
        ts: u64,
        ops: &[TxnOp<K, V>],
        order: &[usize],
        applied: &[bool],
        shards: &[usize],
    ) {
        let t0 = self.obs.as_ref().map(|_| Instant::now());
        let mut frame = Vec::with_capacity(64 + order.len() * 24);
        codec::encode_frame(ts, ops, order, applied, shards, &mut frame);
        let mut inner = self.inner.lock().expect("wal mutex poisoned");
        let inner = &mut *inner;
        inner.file.write_all(&frame).expect("wal append failed");
        inner.len += frame.len() as u64;
        inner.since_sync += 1;
        if let (Some(obs), Some(t0)) = (&self.obs, t0) {
            obs.append_ns.record(tid, t0.elapsed().as_nanos() as u64);
            obs.bytes.add(tid, frame.len() as u64);
            obs.groups.incr(tid);
        }
        let want_sync = match self.policy {
            SyncPolicy::Always => true,
            SyncPolicy::EveryNGroups(n) => inner.since_sync >= u64::from(n),
            SyncPolicy::Off => false,
        };
        if want_sync {
            self.fsync_locked(inner, tid);
        }
        if inner.len >= self.segment_bytes {
            self.rotate_locked(inner, tid);
        }
    }

    fn sync(&self) {
        let mut inner = self.inner.lock().expect("wal mutex poisoned");
        let inner = &mut *inner;
        let at_end = inner.durable.segment == inner.seq && inner.durable.bytes == inner.len;
        if !at_end || inner.since_sync > 0 {
            self.fsync_locked(inner, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use store::CommitLog;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "wal-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn put(k: u64) -> TxnOp<u64, u64> {
        TxnOp::Put(k, k * 10)
    }

    fn log_keys(wal: &GroupWal<u64, u64>, ts: u64, keys: &[u64]) {
        let ops: Vec<_> = keys.iter().map(|&k| put(k)).collect();
        let order: Vec<usize> = (0..ops.len()).collect();
        let applied = vec![true; ops.len()];
        wal.log_group(0, ts, &ops, &order, &applied, &[0]);
    }

    #[test]
    fn sync_policy_parse_and_label() {
        assert_eq!(SyncPolicy::parse("always"), Some(SyncPolicy::Always));
        assert_eq!(SyncPolicy::parse("off"), Some(SyncPolicy::Off));
        assert_eq!(
            SyncPolicy::parse("every=8"),
            Some(SyncPolicy::EveryNGroups(8))
        );
        assert_eq!(SyncPolicy::parse("every=0"), None);
        assert_eq!(SyncPolicy::parse("sometimes"), None);
        assert_eq!(SyncPolicy::EveryNGroups(8).label(), "every=8");
        assert_eq!(SyncPolicy::default(), SyncPolicy::Off);
    }

    #[test]
    fn create_refuses_existing_segments() {
        let dir = tmpdir("create-refuses");
        {
            let _wal = GroupWal::<u64, u64>::create(&dir, SyncPolicy::Off).unwrap();
        }
        let err = match GroupWal::<u64, u64>::create(&dir, SyncPolicy::Off) {
            Err(e) => e,
            Ok(_) => panic!("create over an existing log must fail"),
        };
        assert_eq!(err.kind(), std::io::ErrorKind::AlreadyExists);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn always_policy_advances_durable_position_per_group() {
        let dir = tmpdir("always-durable");
        let wal = GroupWal::<u64, u64>::create(&dir, SyncPolicy::Always).unwrap();
        let before = wal.durable_position();
        log_keys(&wal, 1, &[1, 2, 3]);
        let after = wal.durable_position();
        assert!(after > before);
        assert_eq!(after, wal.position(), "Always: durable == written");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn off_policy_leaves_tail_volatile_until_sync() {
        let dir = tmpdir("off-volatile");
        let wal = GroupWal::<u64, u64>::create(&dir, SyncPolicy::Off).unwrap();
        let durable0 = wal.durable_position();
        log_keys(&wal, 1, &[1]);
        log_keys(&wal, 2, &[2]);
        assert_eq!(wal.durable_position(), durable0, "Off: no fsync on append");
        assert!(wal.position() > durable0);
        wal.sync();
        assert_eq!(wal.durable_position(), wal.position());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_n_policy_syncs_on_the_nth_group() {
        let dir = tmpdir("every-n");
        let wal = GroupWal::<u64, u64>::create(&dir, SyncPolicy::EveryNGroups(3)).unwrap();
        let durable0 = wal.durable_position();
        log_keys(&wal, 1, &[1]);
        log_keys(&wal, 2, &[2]);
        assert_eq!(wal.durable_position(), durable0);
        log_keys(&wal, 3, &[3]);
        assert_eq!(wal.durable_position(), wal.position());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_starts_new_segments_and_keeps_old_ones_durable() {
        let dir = tmpdir("rotate");
        let wal = GroupWal::<u64, u64>::create(&dir, SyncPolicy::Off)
            .unwrap()
            .with_segment_bytes(96);
        for ts in 1..=8 {
            log_keys(&wal, ts, &[ts]);
        }
        let pos = wal.position();
        assert!(pos.segment > 1, "log must have rotated");
        // Every finished segment exists on disk with the header magic.
        for seq in 1..pos.segment {
            let bytes = std::fs::read(segment_path(&dir, seq)).unwrap();
            assert_eq!(&bytes[..8], &codec::SEGMENT_MAGIC);
            assert!(bytes.len() as u64 >= 96 - 8, "rotated past threshold");
        }
        // Rotation is a durability point: only the open segment can be
        // ahead of the durable position.
        assert_eq!(wal.durable_position().segment, pos.segment);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

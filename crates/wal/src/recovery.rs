//! Crash recovery: scan the log, truncate the torn tail, replay the
//! valid prefix into a fresh store.
//!
//! The recovery contract (see the crate docs' crash model): a crash may
//! cut the log at **any byte boundary**. Recovery accepts the longest
//! prefix of frames that parse — per segment, in segment order — and
//! treats the first short, checksum-invalid, or structurally malformed
//! frame as the start of the torn tail. Because rotation fsyncs a
//! segment before opening its successor, only the newest segment can be
//! torn in a genuine crash; recovery nevertheless validates everything,
//! so silent corruption in an old segment is also caught (and bounded:
//! everything after it is discarded rather than replayed out of
//! context).

use crate::codec::{self, GroupRecord, WalValue};
use crate::{segment_seq, LogPosition};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use store::{BundledStore, ShardBackend, TxnOp};

/// What a scan or replay found.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Segments contributing to the valid prefix.
    pub segments: u64,
    /// Groups decoded (and, for [`WalRecovery::replay`], re-applied).
    pub groups: u64,
    /// Operations across those groups.
    pub ops: u64,
    /// Bytes of valid frames (headers included, segment magic excluded).
    pub bytes: u64,
    /// Bytes discarded as the torn tail (across all affected segments).
    pub truncated_bytes: u64,
    /// The newest commit timestamp in the valid prefix (`0` if none) —
    /// the maximum, not the last frame's: committers log in timestamp
    /// order only where their groups conflict (see
    /// [`WalRecovery::replay`]), so the last frame need not carry the
    /// newest timestamp. These are the *original* run's timestamps; a
    /// replayed store draws fresh ones from its own clock.
    pub last_ts: u64,
}

/// A decoded log: the valid group prefix plus its [`RecoveryStats`].
pub struct ScanOutcome<K, V> {
    /// Every group of the valid prefix, in log (= replay) order.
    pub records: Vec<GroupRecord<K, V>>,
    /// What the scan measured.
    pub stats: RecoveryStats,
}

struct ScanState<K, V> {
    records: Vec<GroupRecord<K, V>>,
    stats: RecoveryStats,
    /// End of the valid prefix; `None` when no segment has a valid
    /// header (recovery of an empty or unborn log).
    end: Option<LogPosition>,
    /// Segments wholly past the valid prefix (deleted by truncation).
    doomed: Vec<PathBuf>,
}

/// Namespace for the recovery entry points ([`WalRecovery::scan`],
/// [`WalRecovery::truncate_torn`], [`WalRecovery::replay`]) and the
/// crash-simulation helper ([`WalRecovery::cut`]).
pub struct WalRecovery;

impl WalRecovery {
    /// List `wal-<seq>.log` segments in `dir`, ascending by sequence.
    fn segments(dir: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
        let mut segs = Vec::new();
        match std::fs::read_dir(dir) {
            Ok(entries) => {
                for entry in entries {
                    let entry = entry?;
                    if let Some(seq) = segment_seq(&entry.file_name().to_string_lossy()) {
                        segs.push((seq, entry.path()));
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        segs.sort_unstable_by_key(|(seq, _)| *seq);
        Ok(segs)
    }

    fn scan_state<K, V>(dir: &Path) -> std::io::Result<ScanState<K, V>>
    where
        K: WalValue + Ord,
        V: WalValue,
    {
        let mut state = ScanState {
            records: Vec::new(),
            stats: RecoveryStats::default(),
            end: None,
            doomed: Vec::new(),
        };
        let mut torn = false;
        let mut expected_seq = None;
        for (seq, path) in Self::segments(dir)? {
            // A sequence gap means the intermediate segment is gone:
            // nothing after the gap can be trusted in log order.
            let contiguous = expected_seq.is_none_or(|e| seq == e);
            expected_seq = Some(seq + 1);
            if torn || !contiguous {
                torn = true;
                state.stats.truncated_bytes += std::fs::metadata(&path)?.len();
                state.doomed.push(path);
                continue;
            }
            let data = std::fs::read(&path)?;
            let magic = codec::SEGMENT_MAGIC.len();
            if data.len() < magic || data[..magic] != codec::SEGMENT_MAGIC {
                // Empty or partial-header file: torn at byte 0.
                torn = true;
                state.stats.truncated_bytes += data.len() as u64;
                state.doomed.push(path);
                continue;
            }
            state.stats.segments += 1;
            let mut at = magic;
            state.end = Some(LogPosition {
                segment: seq,
                bytes: at as u64,
            });
            while at < data.len() {
                let Some((record, used)) = codec::decode_frame::<K, V>(&data[at..]) else {
                    break;
                };
                let ascending = record.ops.windows(2).all(|w| w[0].op.key() < w[1].op.key());
                if !ascending {
                    // Structurally impossible for a pipeline-produced
                    // group: treat like any other malformed frame.
                    break;
                }
                state.stats.groups += 1;
                state.stats.ops += record.ops.len() as u64;
                state.stats.bytes += used as u64;
                state.stats.last_ts = state.stats.last_ts.max(record.ts);
                state.records.push(record);
                at += used;
                state.end = Some(LogPosition {
                    segment: seq,
                    bytes: at as u64,
                });
            }
            if at < data.len() {
                torn = true;
                state.stats.truncated_bytes += (data.len() - at) as u64;
            }
        }
        Ok(state)
    }

    /// Decode the valid group prefix of the log in `dir` without
    /// touching the files. Tolerates a missing directory, empty or
    /// partial-header segments, torn trailing frames, CRC corruption,
    /// and sequence gaps — everything from the first defect on is
    /// counted in [`RecoveryStats::truncated_bytes`] and excluded.
    pub fn scan<K, V>(dir: impl AsRef<Path>) -> std::io::Result<ScanOutcome<K, V>>
    where
        K: WalValue + Ord,
        V: WalValue,
    {
        let state = Self::scan_state::<K, V>(dir.as_ref())?;
        Ok(ScanOutcome {
            records: state.records,
            stats: state.stats,
        })
    }

    /// Physically truncate the torn tail found by [`WalRecovery::scan`]:
    /// the segment holding the end of the valid prefix is truncated to
    /// it, and every later (or headerless) segment file is deleted.
    /// Returns the end of the surviving log, or `None` if nothing
    /// valid survives (all segments removed).
    pub fn truncate_torn<K, V>(dir: impl AsRef<Path>) -> std::io::Result<Option<LogPosition>>
    where
        K: WalValue + Ord,
        V: WalValue,
    {
        let dir = dir.as_ref();
        let state = Self::scan_state::<K, V>(dir)?;
        for path in &state.doomed {
            std::fs::remove_file(path)?;
        }
        if let Some(end) = state.end {
            let path = dir.join(format!("wal-{:06}.log", end.segment));
            let file = std::fs::OpenOptions::new().write(true).open(&path)?;
            if file.metadata()?.len() > end.bytes {
                file.set_len(end.bytes)?;
                file.sync_data()?;
            }
        }
        Ok(state.end)
    }

    /// Crash simulation: cut the log to `pos` plus `extra` bytes, as a
    /// kill at that moment could leave it. Segments before `pos.segment`
    /// survive whole, the segment at `pos` keeps `pos.bytes + extra`
    /// bytes (a non-zero `extra` models unsynced page-cache writeback
    /// reaching disk — usually a torn frame), later segments are lost.
    /// Returns the number of bytes dropped.
    pub fn cut(dir: impl AsRef<Path>, pos: LogPosition, extra: u64) -> std::io::Result<u64> {
        let dir = dir.as_ref();
        let mut dropped = 0u64;
        for (seq, path) in Self::segments(dir)? {
            if seq < pos.segment {
                continue;
            }
            let len = std::fs::metadata(&path)?.len();
            if seq > pos.segment {
                dropped += len;
                std::fs::remove_file(&path)?;
            } else {
                let keep = (pos.bytes + extra).min(len);
                if len > keep {
                    dropped += len - keep;
                    let file = std::fs::OpenOptions::new().write(true).open(&path)?;
                    file.set_len(keep)?;
                    file.sync_data()?;
                }
            }
        }
        Ok(dropped)
    }

    /// Rebuild a store from the log: scan the valid prefix and re-apply
    /// every group, in log order, through `store`'s own
    /// [`BundledStore::apply_grouped`] pipeline. `store` must be fresh
    /// (empty); pass a store built with the same shard splits as the
    /// original so the shard sets stay meaningful.
    ///
    /// Replay is deterministic: each op's outcome depends only on its
    /// key's prior state, and the log orders any two groups sharing a
    /// key or a pinned gap — both held a node lock pinning it across
    /// their log call (write-only groups additionally hold their shards'
    /// intents exclusively) — while all other pairs commute. So the
    /// re-applied outcomes must equal the logged ones, which is
    /// debug-asserted. Timestamps are drawn fresh from the recovered
    /// store's clock; [`RecoveryStats::last_ts`] reports the original
    /// run's newest group timestamp.
    ///
    /// If the store carries an [`obs::MetricsRegistry`], the replayed
    /// group count is exported as `wal.recovery_replayed_groups`.
    pub fn replay<K, V, S>(
        dir: impl AsRef<Path>,
        store: &Arc<BundledStore<K, V, S>>,
    ) -> std::io::Result<RecoveryStats>
    where
        K: WalValue + Copy + Ord + Default + Send + Sync,
        V: WalValue + Clone + Send + Sync,
        S: ShardBackend<K, V>,
    {
        let outcome = Self::scan::<K, V>(dir.as_ref())?;
        let handle = store.register();
        let mut ops: Vec<TxnOp<K, V>> = Vec::new();
        for record in &outcome.records {
            ops.clear();
            ops.extend(record.ops.iter().map(|g| g.op.clone()));
            let receipt = handle.apply_grouped(&ops);
            debug_assert_eq!(
                receipt.applied,
                record.ops.iter().map(|g| g.applied).collect::<Vec<_>>(),
                "replay outcomes diverged from the logged fold (ts {})",
                record.ts
            );
        }
        if let Some(registry) = store.obs_registry() {
            registry
                .counter("wal.recovery_replayed_groups")
                .add(handle.tid(), outcome.stats.groups);
        }
        Ok(outcome.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GroupWal, SyncPolicy};
    use std::path::PathBuf;
    use store::CommitLog;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "wal-rec-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn log_keys(wal: &GroupWal<u64, u64>, ts: u64, keys: &[u64]) {
        let ops: Vec<TxnOp<u64, u64>> = keys.iter().map(|&k| TxnOp::Put(k, k * 10)).collect();
        let order: Vec<usize> = (0..ops.len()).collect();
        let applied = vec![true; ops.len()];
        wal.log_group(0, ts, &ops, &order, &applied, &[0]);
    }

    fn write_n_groups(dir: &Path, n: u64, policy: SyncPolicy) {
        let wal = GroupWal::<u64, u64>::create(dir, policy).unwrap();
        for ts in 1..=n {
            log_keys(&wal, ts, &[ts, ts + 1000]);
        }
        wal.sync();
    }

    #[test]
    fn scan_reads_back_everything() {
        let dir = tmpdir("scan-all");
        write_n_groups(&dir, 5, SyncPolicy::Off);
        let out = WalRecovery::scan::<u64, u64>(&dir).unwrap();
        assert_eq!(out.stats.groups, 5);
        assert_eq!(out.stats.ops, 10);
        assert_eq!(out.stats.truncated_bytes, 0);
        assert_eq!(out.stats.last_ts, 5);
        assert_eq!(out.records[2].ops[1].op, TxnOp::Put(1003, 10030));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn last_ts_is_the_newest_timestamp_not_the_last_frame() {
        // Two committers on disjoint keys may reach the log out of
        // timestamp order; the torn tail must not count either.
        let dir = tmpdir("scan-max-ts");
        let wal = GroupWal::<u64, u64>::create(&dir, SyncPolicy::Off).unwrap();
        for ts in [3, 7, 5, 9] {
            log_keys(&wal, ts, &[ts]);
        }
        wal.sync();
        drop(wal);
        let all = WalRecovery::scan::<u64, u64>(&dir).unwrap();
        assert_eq!((all.stats.groups, all.stats.last_ts), (4, 9));
        // Tear the last frame (the one carrying timestamp 9) in half.
        let frame = all.stats.bytes / 4;
        let torn = crate::LogPosition {
            segment: 1,
            bytes: codec::SEGMENT_MAGIC.len() as u64 + 3 * frame,
        };
        WalRecovery::cut(&dir, torn, frame / 2).unwrap();
        let cut = WalRecovery::scan::<u64, u64>(&dir).unwrap();
        assert_eq!((cut.stats.groups, cut.stats.last_ts), (3, 7));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_or_empty_dir_scans_empty() {
        let dir = tmpdir("scan-missing");
        let out = WalRecovery::scan::<u64, u64>(&dir).unwrap();
        assert_eq!(out.stats, RecoveryStats::default());
        assert!(out.records.is_empty());
        assert_eq!(WalRecovery::truncate_torn::<u64, u64>(&dir).unwrap(), None);
    }

    #[test]
    fn torn_tail_at_every_byte_boundary() {
        let dir = tmpdir("torn-sweep");
        write_n_groups(&dir, 3, SyncPolicy::Off);
        let full = std::fs::read(dir.join("wal-000001.log")).unwrap();
        let boundaries: Vec<usize> = {
            let out = WalRecovery::scan::<u64, u64>(&dir).unwrap();
            let mut at = codec::SEGMENT_MAGIC.len();
            let mut b = vec![at];
            for _ in 0..out.stats.groups {
                let (_, used) = codec::decode_frame::<u64, u64>(&full[at..]).unwrap();
                at += used;
                b.push(at);
            }
            b
        };
        // Cut the single segment at EVERY byte length; the valid prefix
        // must be exactly the groups whose frames fit entirely.
        for cut in 0..=full.len() {
            std::fs::write(dir.join("wal-000001.log"), &full[..cut]).unwrap();
            let out = WalRecovery::scan::<u64, u64>(&dir).unwrap();
            let expect = if cut < codec::SEGMENT_MAGIC.len() {
                0
            } else {
                boundaries.iter().filter(|&&b| b <= cut).count() as u64 - 1
            };
            assert_eq!(out.stats.groups, expect, "cut at byte {cut}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncate_torn_physically_removes_the_tail() {
        let dir = tmpdir("truncate");
        write_n_groups(&dir, 3, SyncPolicy::Off);
        let path = dir.join("wal-000001.log");
        let full = std::fs::read(&path).unwrap();
        // Chop mid-frame: drop the last 5 bytes.
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();
        let end = WalRecovery::truncate_torn::<u64, u64>(&dir)
            .unwrap()
            .unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), end.bytes);
        let out = WalRecovery::scan::<u64, u64>(&dir).unwrap();
        assert_eq!(out.stats.groups, 2);
        assert_eq!(
            out.stats.truncated_bytes, 0,
            "tail is gone after truncation"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crc_corruption_cuts_the_prefix_there() {
        let dir = tmpdir("crc");
        write_n_groups(&dir, 4, SyncPolicy::Off);
        let path = dir.join("wal-000001.log");
        let mut data = std::fs::read(&path).unwrap();
        // Flip one payload byte of the SECOND frame.
        let at = codec::SEGMENT_MAGIC.len();
        let (_, used) = codec::decode_frame::<u64, u64>(&data[at..]).unwrap();
        let victim = at + used + codec::FRAME_HEADER + 3;
        data[victim] ^= 0x01;
        std::fs::write(&path, &data).unwrap();
        let out = WalRecovery::scan::<u64, u64>(&dir).unwrap();
        assert_eq!(
            out.stats.groups, 1,
            "valid prefix stops before the corrupt frame"
        );
        assert!(out.stats.truncated_bytes > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn partial_header_segment_is_discarded() {
        let dir = tmpdir("partial-header");
        write_n_groups(&dir, 2, SyncPolicy::Off);
        // A crash right after rotation created the file: 3 header bytes.
        std::fs::write(dir.join("wal-000002.log"), &codec::SEGMENT_MAGIC[..3]).unwrap();
        let out = WalRecovery::scan::<u64, u64>(&dir).unwrap();
        assert_eq!(out.stats.groups, 2);
        assert_eq!(out.stats.truncated_bytes, 3);
        let end = WalRecovery::truncate_torn::<u64, u64>(&dir)
            .unwrap()
            .unwrap();
        assert_eq!(end.segment, 1);
        assert!(!dir.join("wal-000002.log").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_boundaries_recover_across_segments() {
        let dir = tmpdir("rotate-rec");
        let wal = GroupWal::<u64, u64>::create(&dir, SyncPolicy::Off)
            .unwrap()
            .with_segment_bytes(128);
        // Append until the log spans 3+ segments AND the open segment
        // holds at least one frame (so the torn-tail cut below bites).
        let mut appended = 0u64;
        loop {
            appended += 1;
            log_keys(&wal, appended, &[appended]);
            let pos = wal.position();
            if pos.segment >= 3 && pos.bytes > codec::SEGMENT_MAGIC.len() as u64 {
                break;
            }
        }
        let pos = wal.position();
        drop(wal);
        let out = WalRecovery::scan::<u64, u64>(&dir).unwrap();
        assert_eq!(out.stats.groups, appended);
        assert_eq!(out.stats.segments, pos.segment);
        // Torn tail in the NEWEST segment only loses that segment's
        // trailing frames, not the rotated ones.
        let newest = dir.join(format!("wal-{:06}.log", pos.segment));
        let data = std::fs::read(&newest).unwrap();
        std::fs::write(&newest, &data[..data.len().saturating_sub(3)]).unwrap();
        let out = WalRecovery::scan::<u64, u64>(&dir).unwrap();
        assert_eq!(out.stats.groups, appended - 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sequence_gap_invalidates_later_segments() {
        let dir = tmpdir("gap");
        let wal = GroupWal::<u64, u64>::create(&dir, SyncPolicy::Off)
            .unwrap()
            .with_segment_bytes(64);
        for ts in 1..=10 {
            log_keys(&wal, ts, &[ts]);
        }
        assert!(wal.position().segment >= 3);
        drop(wal);
        let before = WalRecovery::scan::<u64, u64>(&dir).unwrap().stats.groups;
        std::fs::remove_file(dir.join("wal-000002.log")).unwrap();
        let out = WalRecovery::scan::<u64, u64>(&dir).unwrap();
        assert!(out.stats.groups < before);
        assert_eq!(
            out.stats.segments, 1,
            "only segment 1 is trusted past the gap"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cut_then_reopen_appends_after_surviving_prefix() {
        let dir = tmpdir("cut-reopen");
        {
            let wal = GroupWal::<u64, u64>::create(&dir, SyncPolicy::EveryNGroups(2)).unwrap();
            for ts in 1..=5 {
                log_keys(&wal, ts, &[ts]);
            }
            // 4 groups durable (every=2), group 5 in the volatile tail.
            let durable = wal.durable_position();
            WalRecovery::cut(&dir, durable, 3).unwrap();
        }
        let wal = GroupWal::<u64, u64>::open(&dir, SyncPolicy::Always).unwrap();
        log_keys(&wal, 6, &[6]);
        drop(wal);
        let out = WalRecovery::scan::<u64, u64>(&dir).unwrap();
        let ts: Vec<u64> = out.records.iter().map(|r| r.ts).collect();
        assert_eq!(
            ts,
            vec![1, 2, 3, 4, 6],
            "durable prefix + post-reopen append"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

//! Output checks. Every workload's results are compared against
//! something the program under test did not compute: the key/value
//! relation the generator fixed, a sequential model replayed from
//! outcome flags, conserved sums, and the flushed bytes of the log.

use std::path::Path;
use std::sync::Arc;

use bundle::api::{ConcurrentSet, RangeQuerySet};
use store::{uniform_splits, SkipListStore};
use wal::{LogPosition, WalRecovery};

use crate::gen::{value_of, Write};

/// A range result must be strictly ascending, inside `[low, high]`, and
/// carry the value `value_ok` accepts for each key.
pub fn check_range(
    out: &[(u64, u64)],
    low: u64,
    high: u64,
    value_ok: impl Fn(u64, u64) -> bool,
) -> Result<(), String> {
    let mut prev = None;
    for &(k, v) in out {
        if k < low || k > high {
            return Err(format!("key {k} outside [{low}, {high}]"));
        }
        if prev.is_some_and(|p| p >= k) {
            return Err(format!(
                "keys not strictly ascending at {k} in [{low}, {high}]"
            ));
        }
        if !value_ok(k, v) {
            return Err(format!("key {k} carries value {v}"));
        }
        prev = Some(k);
    }
    Ok(())
}

pub fn plain_value(k: u64, v: u64) -> bool {
    v == value_of(k)
}

/// Sequential model of a set written by one stream: the outcome flag
/// each write must report, and the key set that must remain.
pub struct SetModel {
    present: Vec<bool>,
}

impl SetModel {
    pub fn new(key_range: u64, prefill: &[u64]) -> Self {
        let mut present = vec![false; key_range as usize];
        for &k in prefill {
            present[k as usize] = true;
        }
        SetModel { present }
    }

    /// Apply `w`; returns the `applied` flag a linearizable set reports.
    #[inline]
    pub fn apply(&mut self, w: Write) -> bool {
        let slot = &mut self.present[w.key as usize];
        let applied = *slot != w.put;
        *slot = w.put;
        applied
    }

    pub fn key_count(&self) -> usize {
        self.present.iter().filter(|p| **p).count()
    }

    /// `scan` (a full range query) must hold exactly the model's keys.
    pub fn check_scan(&self, scan: &[(u64, u64)]) -> Result<(), String> {
        check_range(scan, 0, self.present.len() as u64 - 1, plain_value)?;
        if scan.len() != self.key_count() {
            return Err(format!(
                "scan holds {} keys, model {}",
                scan.len(),
                self.key_count()
            ));
        }
        match scan.iter().find(|(k, _)| !self.present[*k as usize]) {
            Some((k, _)) => Err(format!("scan holds key {k}, which the model removed")),
            None => Ok(()),
        }
    }
}

/// Acked implies recoverable from flushed bytes only: cut the log in
/// `dir` at `durable` (dropping whatever the OS still held), replay it
/// into a fresh store prefilled like the original, and require the
/// result to equal the acked `model`.
pub fn check_recovery(
    dir: &Path,
    durable: LogPosition,
    key_range: u64,
    shards: usize,
    prefill: &[u64],
    model: &SetModel,
) -> Result<(), String> {
    WalRecovery::cut(dir, durable, 0).map_err(|e| format!("cutting the log: {e}"))?;
    let store = Arc::new(SkipListStore::<u64, u64>::new(
        2,
        uniform_splits(shards, key_range),
    ));
    for &k in prefill {
        store.insert(0, k, value_of(k));
    }
    let stats = WalRecovery::replay(dir, &store).map_err(|e| format!("replaying the log: {e}"))?;
    if stats.truncated_bytes != 0 {
        return Err(format!(
            "{} bytes before the durable position did not parse",
            stats.truncated_bytes
        ));
    }
    let scan = store.range_query_vec(0, &0, &(key_range - 1));
    model
        .check_scan(&scan)
        .map_err(|e| format!("recovered store: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use store::{CommitLog, TxnOp};
    use wal::{GroupWal, SyncPolicy};

    #[test]
    fn range_check_catches_each_kind_of_violation() {
        let ok = [(3, value_of(3)), (5, value_of(5))];
        assert!(check_range(&ok, 3, 5, plain_value).is_ok());
        assert!(check_range(&ok, 4, 5, plain_value).is_err(), "below low");
        assert!(check_range(&ok, 0, 4, plain_value).is_err(), "above high");
        let unsorted = [(5, value_of(5)), (3, value_of(3))];
        assert!(check_range(&unsorted, 0, 9, plain_value).is_err());
        let dup = [(3, value_of(3)), (3, value_of(3))];
        assert!(check_range(&dup, 0, 9, plain_value).is_err());
        assert!(
            check_range(&[(3, 1)], 0, 9, plain_value).is_err(),
            "wrong value"
        );
    }

    #[test]
    fn model_reports_set_semantics() {
        let mut m = SetModel::new(10, &[1, 2]);
        assert!(!m.apply(Write { put: true, key: 1 }), "already present");
        assert!(m.apply(Write { put: false, key: 1 }));
        assert!(!m.apply(Write { put: false, key: 1 }));
        assert!(m.apply(Write { put: true, key: 7 }));
        assert_eq!(m.key_count(), 2);
        assert!(m.check_scan(&[(2, value_of(2)), (7, value_of(7))]).is_ok());
        assert!(m.check_scan(&[(2, value_of(2))]).is_err(), "missing key");
        assert!(
            m.check_scan(&[(1, value_of(1)), (2, value_of(2))]).is_err(),
            "stale key"
        );
    }

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("benchmark-oracle-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Log three groups, then check recovery against the right model, a
    /// wrong model, and a log with one corrupted byte.
    #[test]
    fn recovery_oracle_accepts_the_log_and_rejects_a_corrupted_byte() {
        let dir = scratch("recovery");
        let prefill = [10u64, 20];
        let mut model = SetModel::new(100, &prefill);
        let wal = GroupWal::<u64, u64>::create(&dir, SyncPolicy::Always).unwrap();
        for (ts, w) in [
            (1, Write { put: true, key: 5 }),
            (
                2,
                Write {
                    put: false,
                    key: 10,
                },
            ),
            (3, Write { put: true, key: 60 }),
        ] {
            let op = if w.put {
                TxnOp::Put(w.key, value_of(w.key))
            } else {
                TxnOp::Remove(w.key)
            };
            wal.log_group(0, ts, &[op], &[0], &[model.apply(w)], &[0]);
        }
        let durable = wal.durable_position();
        drop(wal);
        assert!(check_recovery(&dir, durable, 100, 4, &prefill, &model).is_ok());

        let wrong = SetModel::new(100, &prefill);
        assert!(check_recovery(&dir, durable, 100, 4, &prefill, &wrong).is_err());

        let segment = dir.join("wal-000001.log");
        let mut bytes = std::fs::read(&segment).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&segment, bytes).unwrap();
        let err = check_recovery(&dir, durable, 100, 4, &prefill, &model).unwrap_err();
        assert!(err.contains("did not parse"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

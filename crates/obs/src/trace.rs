//! Flight recorder: per-thread, lock-free, fixed-capacity ring buffers
//! of compact [`TraceEvent`]s, always overwriting the oldest entry.
//!
//! Aggregate metrics (the rest of this crate) answer "how much / how
//! slow overall"; the recorder answers **"what happened around *this*
//! abort"**: every instrumented site appends a 32-byte event to its
//! thread's ring, and [`TraceRecorder::dump`] merges the rings into one
//! time-ordered stream after the fact. An anomaly hook
//! ([`TraceRecorder::note_anomaly`]) snapshots the tail of the merged
//! stream the moment something suspicious happens (a stale-read abort, a
//! conflict-retry burst, an ingest queue rejection), so the interesting
//! interleaving survives even if the rings wrap long before shutdown.
//!
//! ## Recording cost and the disabled mode
//!
//! [`TraceRecorder::record`] is wait-free: one monotonic clock read, one
//! relaxed `fetch_add` to reserve a slot, four plain atomic stores. No
//! allocation, no locks, no branches that depend on ring occupancy.
//! Components hold an `Option<Arc<TraceRecorder>>` and skip the call
//! entirely on `None` — the same never-taken-branch contract as the
//! metric handles, so an uninstrumented store pays nothing.
//!
//! ## Torn-event freedom
//!
//! Each slot is guarded by a per-slot sequence word (a seqlock): a
//! writer publishes `2·turn + 1` before touching the payload words and
//! `2·turn + 2` after, so a reader that observes an even sequence both
//! before and after its payload loads — with the fences below — has read
//! one intact event. Readers *skip* in-flight or contended slots instead
//! of spinning; a dump is best-effort by design but never fabricates a
//! mixed event. Each thread id owns one ring (`tid % threads`), so the
//! common case is single-writer and the merged dump preserves every
//! thread's own program order. Several threads *may* share a ring (e.g.
//! anonymous producers reporting under a shard id): slot reservation via
//! `fetch_add` keeps them on distinct slots, and a torn read would
//! additionally require one writer to lap the whole ring while another
//! is mid-event — unreachable in practice at the default capacity.

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Default per-thread ring capacity (events), a power of two. At ~32
/// bytes per slot this is ~128 KiB per thread — several milliseconds of
/// history on a saturated commit path.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// Events captured in an anomaly snapshot (the merged-stream tail).
pub const ANOMALY_TAIL: usize = 128;

/// Snapshots retained per recorder; later anomalies only bump
/// [`TraceRecorder::anomaly_total`] (keeps a pathological abort storm
/// from turning the hook into an allocation loop).
const MAX_ANOMALIES: usize = 32;

/// `shard` value for events that are not tied to any shard.
pub const NO_SHARD: u32 = u32::MAX;

/// What an event records. See each variant for how the event's `shard`
/// and `payload` fields are used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TraceKind {
    /// A commit-pipeline stage is starting. `shard` carries the *stage
    /// index* (0..5, see the store's stage table); `payload` the attempt
    /// number within the current transaction.
    StageBegin = 0,
    /// A commit-pipeline stage finished. `shard` carries the stage
    /// index; `payload` the stage's wall latency in nanoseconds.
    StageEnd = 1,
    /// A pipeline-internal lock race forced a transaction retry.
    /// `shard` is the shard that lost the race; `payload` packs
    /// `(attempt << 1) | cause` with cause 0 = prepare, 1 = validate.
    Conflict = 2,
    /// A validated read went stale; the transaction aborts to the
    /// caller. `shard` is the shard whose validation failed; `payload`
    /// the attempt number.
    AbortInvalidated = 3,
    /// The `txn` crate re-ran a read-write closure after an abort.
    /// `shard` is [`NO_SHARD`]; `payload` is unused (0).
    RwRetry = 4,
    /// The ingest front-end published one group. `shard` is the group's
    /// shard; `payload` the ops in the group.
    GroupPublish = 5,
    /// Linger-window fill measured at group publish. `shard` is the
    /// group's shard; `payload` the occupancy in percent of
    /// `max_group_ops`.
    LingerFill = 6,
    /// A committer drained its queue. `shard` is the committer's shard;
    /// `payload` the submissions scooped in this drain.
    DrainScoop = 7,
    /// A bounded ingest queue rejected a submission. `shard` is the full
    /// queue's shard; `payload` the rejected op count.
    QueueFull = 8,
}

impl TraceKind {
    fn from_u8(v: u8) -> Option<TraceKind> {
        Some(match v {
            0 => TraceKind::StageBegin,
            1 => TraceKind::StageEnd,
            2 => TraceKind::Conflict,
            3 => TraceKind::AbortInvalidated,
            4 => TraceKind::RwRetry,
            5 => TraceKind::GroupPublish,
            6 => TraceKind::LingerFill,
            7 => TraceKind::DrainScoop,
            8 => TraceKind::QueueFull,
            _ => return None,
        })
    }
}

/// One decoded flight-recorder event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Monotonic nanoseconds since the recorder was built (one clock for
    /// every thread, so merged dumps are globally ordered).
    pub ts_ns: u64,
    /// Recording thread id (dense store tid; ingest producers without a
    /// tid report under their shard id).
    pub tid: u32,
    /// What happened.
    pub kind: TraceKind,
    /// Shard the event concerns, or a kind-specific discriminator — see
    /// [`TraceKind`] ([`NO_SHARD`] when not applicable).
    pub shard: u32,
    /// Kind-specific payload — see [`TraceKind`].
    pub payload: u64,
}

/// Why an anomaly snapshot was captured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnomalyCause {
    /// The store recorded `store.txn.aborts.invalidated` (a validated
    /// read went stale).
    InvalidatedAbort,
    /// One transaction's conflict-retry count crossed the store's burst
    /// threshold.
    ConflictBurst,
    /// A bounded ingest queue rejected a submission.
    QueueFull,
}

/// The last-[`ANOMALY_TAIL`] merged events at the moment an anomaly was
/// noted, plus the trigger.
#[derive(Debug, Clone)]
pub struct AnomalySnapshot {
    /// The trigger.
    pub cause: AnomalyCause,
    /// Thread that noted the anomaly.
    pub tid: u32,
    /// Monotonic nanoseconds (recorder clock) the anomaly was noted at.
    pub at_ns: u64,
    /// Tail of the merged event stream at capture time, time-ordered.
    pub events: Vec<TraceEvent>,
}

/// One ring slot: a seqlock word plus the three payload words of an
/// event. 32 bytes, no alignment padding — adjacent slots of one ring
/// share lines, but a ring has (in the common case) exactly one writer.
struct Slot {
    /// 0 = never written; odd = write in flight; even `2·turn + 2` =
    /// event of lap `turn` is stable.
    seq: AtomicU64,
    ts_ns: AtomicU64,
    /// `tid << 40 | kind << 32 | shard`.
    meta: AtomicU64,
    payload: AtomicU64,
}

struct Ring {
    /// Next global slot index (monotonic; slot = `head & mask`,
    /// lap = `head / capacity`).
    head: AtomicU64,
    slots: Box<[Slot]>,
}

impl Ring {
    fn new(capacity: usize) -> Ring {
        Ring {
            head: AtomicU64::new(0),
            slots: (0..capacity)
                .map(|_| Slot {
                    seq: AtomicU64::new(0),
                    ts_ns: AtomicU64::new(0),
                    meta: AtomicU64::new(0),
                    payload: AtomicU64::new(0),
                })
                .collect(),
        }
    }
}

#[inline]
fn pack_meta(tid: usize, kind: TraceKind, shard: u32) -> u64 {
    ((tid as u64) & 0xFF_FFFF) << 40 | (kind as u64) << 32 | u64::from(shard)
}

#[inline]
fn unpack_meta(meta: u64) -> (u32, Option<TraceKind>, u32) {
    (
        (meta >> 40) as u32,
        TraceKind::from_u8(((meta >> 32) & 0xFF) as u8),
        (meta & 0xFFFF_FFFF) as u32,
    )
}

/// The flight recorder: one ring per thread id, one shared monotonic
/// clock, and a bounded set of anomaly snapshots. See the module docs
/// for the recording contract.
pub struct TraceRecorder {
    start: Instant,
    capacity: u64,
    mask: u64,
    rings: Box<[Ring]>,
    anomalies: Mutex<Vec<AnomalySnapshot>>,
    anomaly_total: AtomicU64,
}

impl TraceRecorder {
    /// A recorder with one `capacity`-slot ring per thread (`capacity`
    /// is rounded up to a power of two; both arguments are clamped to at
    /// least 1). Thread `tid` records into ring `tid % threads`.
    #[must_use]
    pub fn new(threads: usize, capacity: usize) -> TraceRecorder {
        let capacity = capacity.max(1).next_power_of_two();
        TraceRecorder {
            start: Instant::now(),
            capacity: capacity as u64,
            mask: capacity as u64 - 1,
            rings: (0..threads.max(1)).map(|_| Ring::new(capacity)).collect(),
            anomalies: Mutex::new(Vec::new()),
            anomaly_total: AtomicU64::new(0),
        }
    }

    /// Rings (= thread slots) in this recorder.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.rings.len()
    }

    /// Slots per ring.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity as usize
    }

    /// Nanoseconds elapsed on the recorder's clock (the `ts_ns` domain).
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Append one event to thread `tid`'s ring, overwriting the oldest
    /// entry when full. Wait-free; see the module docs.
    #[inline]
    pub fn record(&self, tid: usize, kind: TraceKind, shard: u32, payload: u64) {
        let ts = self.now_ns();
        let ring = &self.rings[tid % self.rings.len()];
        let idx = ring.head.fetch_add(1, Ordering::Relaxed);
        let slot = &ring.slots[(idx & self.mask) as usize];
        let turn = idx / self.capacity;
        // Seqlock write: odd marks the slot in flight; the Release fence
        // orders the odd mark before the payload stores, and the final
        // Release store publishes the payload with the even mark.
        slot.seq.store(2 * turn + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        slot.ts_ns.store(ts, Ordering::Relaxed);
        slot.meta
            .store(pack_meta(tid, kind, shard), Ordering::Relaxed);
        slot.payload.store(payload, Ordering::Relaxed);
        slot.seq.store(2 * turn + 2, Ordering::Release);
    }

    /// Seqlock-read one slot; `None` when empty, in flight, or overwritten
    /// mid-read. Returns the event and its global ring index (lap-aware,
    /// for per-thread order tiebreaks).
    fn read_slot(&self, ring: &Ring, pos: u64) -> Option<(u64, TraceEvent)> {
        let slot = &ring.slots[pos as usize];
        for _ in 0..4 {
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 == 0 {
                return None; // never written
            }
            if s1 & 1 == 1 {
                std::hint::spin_loop();
                continue; // write in flight; retry briefly, then skip
            }
            let ts_ns = slot.ts_ns.load(Ordering::Relaxed);
            let meta = slot.meta.load(Ordering::Relaxed);
            let payload = slot.payload.load(Ordering::Relaxed);
            // Pairs with the writer's Release fence: if any load above saw
            // a newer write, the re-read below sees its odd mark.
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != s1 {
                continue;
            }
            let (tid, kind, shard) = unpack_meta(meta);
            let turn = s1 / 2 - 1;
            return kind.map(|kind| {
                (
                    turn * self.capacity + pos,
                    TraceEvent {
                        ts_ns,
                        tid,
                        kind,
                        shard,
                        payload,
                    },
                )
            });
        }
        None
    }

    /// Merge every ring into one time-ordered stream (ties broken by
    /// ring and slot order, so one thread's events never reorder).
    /// Best-effort while writers are active: in-flight slots are
    /// skipped, never fabricated.
    #[must_use]
    pub fn dump(&self) -> Vec<TraceEvent> {
        let mut tagged: Vec<(u64, usize, u64, TraceEvent)> = Vec::new();
        for (ri, ring) in self.rings.iter().enumerate() {
            for pos in 0..self.capacity {
                if let Some((idx, ev)) = self.read_slot(ring, pos) {
                    tagged.push((ev.ts_ns, ri, idx, ev));
                }
            }
        }
        tagged.sort_unstable_by_key(|(ts, ri, idx, _)| (*ts, *ri, *idx));
        tagged.into_iter().map(|(_, _, _, ev)| ev).collect()
    }

    /// The last `n` events of the merged stream (what an anomaly
    /// snapshot captures).
    #[must_use]
    pub fn last_n(&self, n: usize) -> Vec<TraceEvent> {
        let mut all = self.dump();
        if all.len() > n {
            all.drain(..all.len() - n);
        }
        all
    }

    /// Capture an anomaly: snapshot the last [`ANOMALY_TAIL`] merged
    /// events under `cause`. After [`MAX_ANOMALIES`](self) snapshots
    /// only the total is counted (an abort storm stays cheap).
    pub fn note_anomaly(&self, cause: AnomalyCause, tid: usize) {
        self.anomaly_total.fetch_add(1, Ordering::Relaxed);
        let mut g = self.anomalies.lock().unwrap_or_else(|p| p.into_inner());
        if g.len() >= MAX_ANOMALIES {
            return;
        }
        let at_ns = self.now_ns();
        let events = self.last_n(ANOMALY_TAIL);
        g.push(AnomalySnapshot {
            cause,
            tid: tid as u32,
            at_ns,
            events,
        });
    }

    /// The retained anomaly snapshots, in capture order.
    #[must_use]
    pub fn anomalies(&self) -> Vec<AnomalySnapshot> {
        self.anomalies
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// Anomalies noted over the recorder's lifetime (including those past
    /// the retention cap).
    #[must_use]
    pub fn anomaly_total(&self) -> u64 {
        self.anomaly_total.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn events_round_trip_through_a_ring() {
        let rec = TraceRecorder::new(2, 8);
        rec.record(0, TraceKind::StageBegin, 0, 7);
        rec.record(1, TraceKind::Conflict, 3, (2 << 1) | 1);
        rec.record(0, TraceKind::StageEnd, 0, 1234);
        let dump = rec.dump();
        assert_eq!(dump.len(), 3);
        // Time-ordered, and every field survives the packing.
        assert!(dump.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        let conflict = dump.iter().find(|e| e.kind == TraceKind::Conflict).unwrap();
        assert_eq!(conflict.tid, 1);
        assert_eq!(conflict.shard, 3);
        assert_eq!(conflict.payload, 5);
    }

    #[test]
    fn rings_overwrite_oldest() {
        let rec = TraceRecorder::new(1, 4);
        for i in 0..10u64 {
            rec.record(0, TraceKind::RwRetry, NO_SHARD, i);
        }
        let dump = rec.dump();
        assert_eq!(dump.len(), 4, "capacity bounds the ring");
        let payloads: Vec<u64> = dump.iter().map(|e| e.payload).collect();
        assert_eq!(payloads, vec![6, 7, 8, 9], "oldest overwritten first");
    }

    #[test]
    fn last_n_keeps_the_newest_events() {
        let rec = TraceRecorder::new(1, 16);
        for i in 0..6u64 {
            rec.record(0, TraceKind::GroupPublish, 2, i * 10);
        }
        let tail = rec.last_n(2);
        let payloads: Vec<u64> = tail.iter().map(|e| e.payload).collect();
        assert_eq!(payloads, vec![40, 50]);
        assert!(tail
            .iter()
            .all(|e| e.kind == TraceKind::GroupPublish && e.shard == 2));
        assert_eq!(rec.last_n(100).len(), 6, "a short history comes back whole");
    }

    #[test]
    fn anomaly_snapshots_capture_the_tail_and_cap_out() {
        let rec = TraceRecorder::new(1, 64);
        for i in 0..10u64 {
            rec.record(0, TraceKind::StageEnd, 1, i);
        }
        rec.note_anomaly(AnomalyCause::InvalidatedAbort, 0);
        let snaps = rec.anomalies();
        assert_eq!(snaps.len(), 1);
        assert_eq!(snaps[0].cause, AnomalyCause::InvalidatedAbort);
        assert_eq!(snaps[0].events.len(), 10, "whole (short) history captured");
        assert!(snaps[0].at_ns >= snaps[0].events.last().unwrap().ts_ns);
        for _ in 0..100 {
            rec.note_anomaly(AnomalyCause::QueueFull, 0);
        }
        assert_eq!(rec.anomalies().len(), MAX_ANOMALIES, "retention capped");
        assert_eq!(rec.anomaly_total(), 101, "but every anomaly is counted");
    }

    #[test]
    fn capacity_rounds_up_and_arguments_clamp_to_one() {
        let rec = TraceRecorder::new(0, 0);
        assert_eq!((rec.threads(), rec.capacity()), (1, 1));
        rec.record(7, TraceKind::RwRetry, NO_SHARD, 1);
        rec.record(9, TraceKind::RwRetry, NO_SHARD, 2);
        assert_eq!(rec.dump().iter().map(|e| e.tid).collect::<Vec<_>>(), [9]);
        assert_eq!(TraceRecorder::new(3, 5).capacity(), 8);
    }

    #[test]
    fn empty_recorder_notes_an_anomaly_with_an_empty_tail() {
        let rec = TraceRecorder::new(4, 16);
        assert!(rec.dump().is_empty() && rec.last_n(5).is_empty());
        rec.note_anomaly(AnomalyCause::ConflictBurst, 3);
        let a = &rec.anomalies()[0];
        assert_eq!((a.cause, a.tid), (AnomalyCause::ConflictBurst, 3));
        assert!(a.events.is_empty());
    }

    #[test]
    fn every_kind_and_field_extreme_survives_packing() {
        let rec = TraceRecorder::new(1, 16);
        for v in 0..9 {
            let kind = TraceKind::from_u8(v).unwrap();
            rec.record(0xFF_FFFF, kind, NO_SHARD, u64::MAX);
        }
        rec.record((1 << 24) | 5, TraceKind::QueueFull, 0, 0);
        let dump = rec.dump();
        for (v, e) in dump[..9].iter().enumerate() {
            let fields = (e.tid, e.kind as usize, e.shard, e.payload);
            assert_eq!(fields, (0xFF_FFFF, v, NO_SHARD, u64::MAX));
        }
        assert_eq!(dump[9].tid, 5, "a tid keeps its low 24 bits");
    }

    #[test]
    fn threads_beyond_the_ring_count_share_rings_by_modulo() {
        let rec = TraceRecorder::new(2, 4);
        for tid in [0, 2, 4, 6, 1, 8] {
            rec.record(tid, TraceKind::DrainScoop, 0, 0);
        }
        let mut tids: Vec<u32> = rec.dump().iter().map(|e| e.tid).collect();
        tids.sort_unstable();
        // tid 8 evicts tid 0's event from their shared ring, not tid 1's.
        assert_eq!(tids, [1, 2, 4, 6, 8]);
    }

    #[test]
    fn anomaly_tail_holds_only_the_newest_events() {
        let rec = TraceRecorder::new(1, 1024);
        (0..500).for_each(|i| rec.record(0, TraceKind::StageEnd, 2, i));
        rec.note_anomaly(AnomalyCause::QueueFull, 0);
        let a = rec.anomalies();
        let tail: Vec<u64> = a[0].events.iter().map(|e| e.payload).collect();
        assert_eq!(tail, (500 - ANOMALY_TAIL as u64..500).collect::<Vec<_>>());
    }

    #[test]
    fn merged_dump_orders_events_across_rings_by_time() {
        let rec = TraceRecorder::new(3, 16);
        for i in 0..12 {
            rec.record((i * 2 % 3) as usize, TraceKind::GroupPublish, 0, i);
            let t = rec.now_ns();
            while rec.now_ns() == t {} // the next event gets a later stamp
        }
        let payloads: Vec<u64> = rec.dump().iter().map(|e| e.payload).collect();
        assert_eq!(payloads, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn a_ring_filled_exactly_to_capacity_loses_nothing() {
        let rec = TraceRecorder::new(1, 8);
        (0..8).for_each(|i| rec.record(0, TraceKind::LingerFill, 0, i));
        let payloads: Vec<u64> = rec.dump().iter().map(|e| e.payload).collect();
        assert_eq!(payloads, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn events_are_stamped_by_the_recorder_clock() {
        let rec = TraceRecorder::new(1, 8);
        let before = rec.now_ns();
        rec.record(0, TraceKind::StageBegin, 0, 0);
        assert!((before..=rec.now_ns()).contains(&rec.dump()[0].ts_ns));
    }

    /// Satellite: 8 threads wrap their rings many times over while a
    /// reader dumps concurrently; no dump may contain a torn event
    /// (fields from two different writes) and the final merged dump must
    /// preserve each thread's own program order.
    #[test]
    fn concurrent_ring_wrap_hammer() {
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 40_000; // 156× the ring capacity
        let rec = Arc::new(TraceRecorder::new(THREADS, 256));
        let mut handles = Vec::new();
        for tid in 0..THREADS {
            let rec = Arc::clone(&rec);
            handles.push(std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    // Self-checking event: shard and payload both derive
                    // from (tid, i), so a torn slot is detectable.
                    rec.record(tid, TraceKind::StageEnd, tid as u32, (tid as u64) << 32 | i);
                }
            }));
        }
        // Concurrent dumps while the rings churn: every event read must
        // be internally consistent even mid-overwrite.
        for _ in 0..50 {
            for ev in rec.dump() {
                assert_eq!(ev.shard, ev.tid, "torn event: shard/tid mismatch");
                assert_eq!(
                    ev.payload >> 32,
                    u64::from(ev.tid),
                    "torn event: payload from another thread"
                );
            }
        }
        for h in handles {
            h.join().unwrap();
        }
        let dump = rec.dump();
        assert_eq!(dump.len(), THREADS * 256, "every ring full");
        let mut last_per_tid = [None::<u64>; THREADS];
        for ev in &dump {
            assert_eq!(ev.shard, ev.tid);
            assert_eq!(ev.payload >> 32, u64::from(ev.tid));
            let seq = ev.payload & 0xFFFF_FFFF;
            let last = &mut last_per_tid[ev.tid as usize];
            if let Some(prev) = *last {
                assert!(
                    seq > prev,
                    "thread {} order broken in merged dump: {seq} after {prev}",
                    ev.tid
                );
            }
            *last = Some(seq);
        }
        for (tid, last) in last_per_tid.iter().enumerate() {
            assert_eq!(
                *last,
                Some(PER_THREAD - 1),
                "thread {tid}'s newest event missing"
            );
        }
    }
}

//! The on-disk group record format.
//!
//! A segment file is an 8-byte header (`GWALSEG1`: magic + format
//! version) followed by length-prefixed, CRC-checksummed **frames**, one
//! per committed group:
//!
//! ```text
//! [len: u32 LE] [crc32: u32 LE] [payload: len bytes]
//! ```
//!
//! `crc32` is the CRC-32 (IEEE / zlib polynomial) of the payload alone;
//! `len` is bounded by [`MAX_PAYLOAD`] so a corrupt length prefix cannot
//! trigger a huge allocation. The payload is the [`GroupRecord`]:
//!
//! ```text
//! ts: u64            the group's single commit timestamp
//! shards: u32, [u32] shard-set length, then ascending shard indices
//! ops: u32, [op]     op count, then key-ascending operations:
//!   kind: u8           0 = Put, 1 = Set, 2 = Remove
//!   applied: u8        the pipeline fold's final outcome (1 = applied)
//!   key: K             via WalValue
//!   value: V           via WalValue (Put/Set only)
//! ```
//!
//! Everything is little-endian. Any decode failure — short frame header,
//! out-of-range length, CRC mismatch, trailing payload bytes, a key
//! order violation — is treated identically by recovery: the log is
//! valid exactly up to the last frame that parses, the rest is a torn
//! tail.

use store::TxnOp;

/// Segment file header: 7-byte magic plus a format-version byte.
pub const SEGMENT_MAGIC: [u8; 8] = *b"GWALSEG1";

/// Frame header size: `len` + `crc32`.
pub const FRAME_HEADER: usize = 8;

/// Upper bound on a frame payload (64 MiB). A group is bounded by the
/// ingest queue depths, orders of magnitude below this; the bound
/// exists so a corrupt length prefix is rejected instead of allocated.
pub const MAX_PAYLOAD: usize = 1 << 26;

/// CRC-32 (IEEE 802.3 / zlib polynomial, reflected), the checksum
/// guarding every frame payload.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = crc32_table();
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ TABLE[((crc ^ u32::from(b)) & 0xff) as usize];
    }
    !crc
}

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// A key or value type the log knows how to put on disk.
///
/// Implementations must round-trip: `decode(encode(x)) == x` consuming
/// exactly the encoded bytes. The store's benchmark keyspace is `u64`,
/// provided here; applications with richer types implement this for
/// their own keys/values.
pub trait WalValue: Sized {
    /// Append the encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decode one value from the front of `buf`; returns the value and
    /// the number of bytes consumed, or `None` if `buf` is malformed.
    fn decode(buf: &[u8]) -> Option<(Self, usize)>;
}

impl WalValue for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn decode(buf: &[u8]) -> Option<(Self, usize)> {
        let bytes: [u8; 8] = buf.get(..8)?.try_into().ok()?;
        Some((u64::from_le_bytes(bytes), 8))
    }
}

/// One operation of a logged group: the op plus the commit pipeline's
/// final outcome for it (`applied == false` is a fold-decided no-op,
/// e.g. a `Put` on an already-present key).
#[derive(Clone, Debug, PartialEq)]
pub struct GroupOp<K, V> {
    /// The operation, exactly as the pipeline committed it.
    pub op: TxnOp<K, V>,
    /// Whether the pipeline applied it (insert took / remove removed).
    pub applied: bool,
}

/// A decoded group record: one commit timestamp, the shard set, and the
/// key-ascending operations with their final outcomes.
#[derive(Clone, Debug, PartialEq)]
pub struct GroupRecord<K, V> {
    /// The single commit timestamp every op of the group published at.
    pub ts: u64,
    /// Ascending indices of the shards the group wrote.
    pub shards: Vec<u32>,
    /// Key-ascending operations (the order `apply_grouped` wants).
    pub ops: Vec<GroupOp<K, V>>,
}

const KIND_PUT: u8 = 0;
const KIND_SET: u8 = 1;
const KIND_REMOVE: u8 = 2;

/// Encode one complete frame (header + payload) for a committed group
/// straight from the commit pipeline's hook arguments, appending to
/// `out`. `order[i]` is the caller index of the `i`-th op in
/// key-ascending order; `applied` is indexed by caller position.
pub fn encode_frame<K: WalValue, V: WalValue>(
    ts: u64,
    ops: &[TxnOp<K, V>],
    order: &[usize],
    applied: &[bool],
    shards: &[usize],
    out: &mut Vec<u8>,
) {
    let start = out.len();
    out.extend_from_slice(&[0u8; FRAME_HEADER]);
    out.extend_from_slice(&ts.to_le_bytes());
    out.extend_from_slice(&(shards.len() as u32).to_le_bytes());
    for &s in shards {
        out.extend_from_slice(&(s as u32).to_le_bytes());
    }
    out.extend_from_slice(&(order.len() as u32).to_le_bytes());
    for &pos in order {
        let (kind, outcome) = (op_kind(&ops[pos]), u8::from(applied[pos]));
        out.push(kind);
        out.push(outcome);
        match &ops[pos] {
            TxnOp::Put(k, v) | TxnOp::Set(k, v) => {
                k.encode(out);
                v.encode(out);
            }
            TxnOp::Remove(k) => k.encode(out),
        }
    }
    let payload_len = out.len() - start - FRAME_HEADER;
    assert!(
        payload_len <= MAX_PAYLOAD,
        "group record exceeds MAX_PAYLOAD"
    );
    let crc = crc32(&out[start + FRAME_HEADER..]);
    out[start..start + 4].copy_from_slice(&(payload_len as u32).to_le_bytes());
    out[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
}

fn op_kind<K, V>(op: &TxnOp<K, V>) -> u8 {
    match op {
        TxnOp::Put(..) => KIND_PUT,
        TxnOp::Set(..) => KIND_SET,
        TxnOp::Remove(..) => KIND_REMOVE,
    }
}

/// Decode one frame from the front of `buf`. Returns the record and the
/// total bytes consumed (header + payload), or `None` if the prefix of
/// `buf` is not a complete, checksum-valid, well-formed frame — the torn
/// tail condition.
pub fn decode_frame<K: WalValue, V: WalValue>(buf: &[u8]) -> Option<(GroupRecord<K, V>, usize)> {
    let header = buf.get(..FRAME_HEADER)?;
    let len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
    if len > MAX_PAYLOAD {
        return None;
    }
    let crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
    let payload = buf.get(FRAME_HEADER..FRAME_HEADER + len)?;
    if crc32(payload) != crc {
        return None;
    }
    let record = decode_payload(payload)?;
    Some((record, FRAME_HEADER + len))
}

/// Decode a checksum-verified payload into a [`GroupRecord`]. `None` on
/// any structural violation, including trailing bytes (the length prefix
/// and the structure must agree exactly).
fn decode_payload<K: WalValue, V: WalValue>(payload: &[u8]) -> Option<GroupRecord<K, V>> {
    let mut at = 0usize;
    let ts = u64::from_le_bytes(payload.get(at..at + 8)?.try_into().ok()?);
    at += 8;
    let nshards = u32::from_le_bytes(payload.get(at..at + 4)?.try_into().ok()?) as usize;
    at += 4;
    let mut shards = Vec::with_capacity(nshards.min(1024));
    for _ in 0..nshards {
        shards.push(u32::from_le_bytes(
            payload.get(at..at + 4)?.try_into().ok()?,
        ));
        at += 4;
    }
    let nops = u32::from_le_bytes(payload.get(at..at + 4)?.try_into().ok()?) as usize;
    at += 4;
    let mut ops = Vec::with_capacity(nops.min(4096));
    for _ in 0..nops {
        let kind = *payload.get(at)?;
        let applied = match *payload.get(at + 1)? {
            0 => false,
            1 => true,
            _ => return None,
        };
        at += 2;
        let (key, used) = K::decode(payload.get(at..)?)?;
        at += used;
        let op = match kind {
            KIND_PUT | KIND_SET => {
                let (value, used) = V::decode(payload.get(at..)?)?;
                at += used;
                if kind == KIND_PUT {
                    TxnOp::Put(key, value)
                } else {
                    TxnOp::Set(key, value)
                }
            }
            KIND_REMOVE => TxnOp::Remove(key),
            _ => return None,
        };
        ops.push(GroupOp { op, applied });
    }
    if at != payload.len() {
        return None;
    }
    Some(GroupRecord { ts, shards, ops })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn frame_round_trips() {
        let ops: Vec<TxnOp<u64, u64>> =
            vec![TxnOp::Put(3, 30), TxnOp::Set(7, 70), TxnOp::Remove(9)];
        let order = [0usize, 1, 2];
        let applied = [true, true, false];
        let mut buf = Vec::new();
        encode_frame(42, &ops, &order, &applied, &[0, 1], &mut buf);
        let (rec, used) = decode_frame::<u64, u64>(&buf).expect("frame decodes");
        assert_eq!(used, buf.len());
        assert_eq!(rec.ts, 42);
        assert_eq!(rec.shards, vec![0, 1]);
        assert_eq!(rec.ops.len(), 3);
        assert_eq!(rec.ops[0].op, TxnOp::Put(3, 30));
        assert!(rec.ops[0].applied);
        assert_eq!(rec.ops[2].op, TxnOp::Remove(9));
        assert!(!rec.ops[2].applied);
    }

    #[test]
    fn frame_respects_sort_order_indirection() {
        // Caller order 9, 3; `order` maps to key-ascending 3, 9.
        let ops: Vec<TxnOp<u64, u64>> = vec![TxnOp::Put(9, 90), TxnOp::Put(3, 30)];
        let order = [1usize, 0];
        let applied = [false, true];
        let mut buf = Vec::new();
        encode_frame(7, &ops, &order, &applied, &[0], &mut buf);
        let (rec, _) = decode_frame::<u64, u64>(&buf).unwrap();
        assert_eq!(rec.ops[0].op, TxnOp::Put(3, 30));
        assert!(rec.ops[0].applied);
        assert_eq!(rec.ops[1].op, TxnOp::Put(9, 90));
        assert!(!rec.ops[1].applied);
    }

    #[test]
    fn corrupt_and_truncated_frames_are_rejected() {
        let ops: Vec<TxnOp<u64, u64>> = vec![TxnOp::Put(1, 10)];
        let mut buf = Vec::new();
        encode_frame(1, &ops, &[0], &[true], &[0], &mut buf);

        // Every strict prefix is torn.
        for cut in 0..buf.len() {
            assert!(
                decode_frame::<u64, u64>(&buf[..cut]).is_none(),
                "prefix of {cut} bytes must not decode"
            );
        }
        // Any single flipped payload byte fails the CRC.
        for i in FRAME_HEADER..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x40;
            assert!(decode_frame::<u64, u64>(&bad).is_none());
        }
        // A corrupt length prefix larger than MAX_PAYLOAD is rejected
        // without allocating.
        let mut bad = buf.clone();
        bad[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_frame::<u64, u64>(&bad).is_none());
    }
}

//! Every input the workloads consume, generated from `--seed` before
//! timing starts. The program under test only ever sees these tapes; a
//! tape is finite and the load threads cycle through it.

use rand::prelude::*;

use crate::spec::*;

/// The value stored under `key` by every workload that does not move
/// balances: the range oracles check `value == value_of(key)`.
#[inline]
pub fn value_of(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9).wrapping_add(7)
}

/// An independent stream seed per (seed, workload, stream).
pub fn sub_seed(seed: u64, workload: usize, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((workload as u64) << 32)
        .wrapping_add(stream);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn rng_for(seed: u64, workload: &str, stream: u64) -> SmallRng {
    let w = workload_index(workload).expect("a workload of the table");
    SmallRng::seed_from_u64(sub_seed(seed, w, stream))
}

/// `0..n` in a seeded random order (Fisher-Yates).
pub fn shuffled(n: u64, rng: &mut SmallRng) -> Vec<u64> {
    let mut v: Vec<u64> = (0..n).collect();
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
    v
}

/// A random half of `0..range`, in random order (random insertion order
/// is what keeps the unbalanced Citrus tree shallow).
fn prefill_keys(range: u64, count: usize, rng: &mut SmallRng) -> Vec<u64> {
    let mut v = shuffled(range, rng);
    v.truncate(count);
    v
}

/// Zipf over ranks `0..n` with exponent `theta`, by inverse CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(theta);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SmallRng) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// FNV-1a over a stream of words: the op-stream fingerprint.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    pub fn words(&mut self, ws: impl IntoIterator<Item = u64>) {
        for w in ws {
            self.word(w);
        }
    }
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PaperOp {
    Insert(u64),
    Remove(u64),
    Contains(u64),
    /// Range query over `[low, low + RQ_LEN - 1]`.
    Rq(u64),
}

pub struct PaperInputs {
    pub prefill: Vec<u64>,
    pub tapes: [Vec<PaperOp>; 2],
}

const PAPER_TAPE: usize = 1 << 20;
const TAPE: usize = 1 << 18;

impl PaperInputs {
    /// 50-40-10: half of the updates insert, half remove.
    pub fn generate(seed: u64) -> Self {
        let tape = |stream| {
            let mut rng = rng_for(seed, "paper_mix", stream);
            (0..PAPER_TAPE)
                .map(|_| {
                    let key = rng.gen_range(0..KEY_RANGE);
                    match rng.gen_range(0u32..100) {
                        0..=24 => PaperOp::Insert(key),
                        25..=49 => PaperOp::Remove(key),
                        50..=89 => PaperOp::Contains(key),
                        _ => PaperOp::Rq(key.min(KEY_RANGE - RQ_LEN)),
                    }
                })
                .collect()
        };
        PaperInputs {
            prefill: prefill_keys(KEY_RANGE, PREFILL, &mut rng_for(seed, "paper_mix", 0)),
            tapes: [tape(1), tape(2)],
        }
    }

    pub fn hash(&self) -> u64 {
        let mut h = Fnv::default();
        h.words(self.prefill.iter().copied());
        for t in &self.tapes {
            for op in t {
                let (kind, key) = match *op {
                    PaperOp::Insert(k) => (0, k),
                    PaperOp::Remove(k) => (1, k),
                    PaperOp::Contains(k) => (2, k),
                    PaperOp::Rq(k) => (3, k),
                };
                h.words([kind, key]);
            }
        }
        h.finish()
    }
}

/// A single-key write: `insert` (or `Put`) when `put`, else remove.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Write {
    pub put: bool,
    pub key: u64,
}

fn write_tape(range: u64, rng: &mut SmallRng) -> Vec<Write> {
    (0..TAPE)
        .map(|_| Write {
            put: rng.gen_range(0u32..2) == 0,
            key: rng.gen_range(0..range),
        })
        .collect()
}

fn hash_writes(h: &mut Fnv, writes: &[Write]) {
    for w in writes {
        h.words([u64::from(w.put), w.key]);
    }
}

pub struct ScanInputs {
    pub prefill: Vec<u64>,
    /// Low keys of the `SCAN_SPAN`-key range queries.
    pub rq_lows: Vec<u64>,
    pub writes: Vec<Write>,
}

impl ScanInputs {
    pub fn generate(seed: u64) -> Self {
        let mut rq = rng_for(seed, "rq_scan", 1);
        ScanInputs {
            prefill: prefill_keys(
                SCAN_KEY_RANGE,
                SCAN_PREFILL,
                &mut rng_for(seed, "rq_scan", 0),
            ),
            rq_lows: (0..TAPE)
                .map(|_| rq.gen_range(0..=SCAN_KEY_RANGE - SCAN_SPAN))
                .collect(),
            writes: write_tape(SCAN_KEY_RANGE, &mut rng_for(seed, "rq_scan", 2)),
        }
    }

    pub fn hash(&self) -> u64 {
        let mut h = Fnv::default();
        h.words(self.prefill.iter().copied());
        h.words(self.rq_lows.iter().copied());
        hash_writes(&mut h, &self.writes);
        h.finish()
    }
}

/// Inputs of both ingest workloads (each draws its own from its name).
pub struct IngestInputs {
    pub prefill: Vec<u64>,
    pub writes: Vec<Write>,
    /// Low keys of the probe's `RQ_LEN`-key range queries.
    pub probes: Vec<u64>,
}

impl IngestInputs {
    pub fn generate(seed: u64, workload: &str) -> Self {
        let mut probe = rng_for(seed, workload, 2);
        IngestInputs {
            prefill: prefill_keys(KEY_RANGE, PREFILL, &mut rng_for(seed, workload, 0)),
            writes: write_tape(KEY_RANGE, &mut rng_for(seed, workload, 1)),
            probes: (0..TAPE)
                .map(|_| probe.gen_range(0..=KEY_RANGE - RQ_LEN))
                .collect(),
        }
    }

    pub fn hash(&self) -> u64 {
        let mut h = Fnv::default();
        h.words(self.prefill.iter().copied());
        hash_writes(&mut h, &self.writes);
        h.words(self.probes.iter().copied());
        h.finish()
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxnInput {
    /// Read four distinct hot keys and a `TXN_RANGE_LEN`-key range, then
    /// move one unit `keys[0] -> keys[1]` and one `keys[2] -> keys[3]`.
    Transfer {
        keys: [u64; TXN_GETS],
        range_low: u64,
    },
    /// A standalone range query over `[low, low + RQ_LEN - 1]`.
    Rq(u64),
}

pub struct TxnInputs {
    /// Every even key, in random order; the hot keys among them start at
    /// `TXN_INITIAL_BALANCE`, the rest at `value_of(key)`.
    pub prefill: Vec<u64>,
    /// Hot key of each Zipf rank: the multiples of ten, permuted, so hot
    /// ranks spread over all shards.
    pub hot: Vec<u64>,
    pub tapes: [Vec<TxnInput>; 2],
}

impl TxnInputs {
    pub fn generate(seed: u64) -> Self {
        let mut rng = rng_for(seed, "txn_contended", 0);
        let mut prefill = shuffled(KEY_RANGE / 2, &mut rng);
        for k in &mut prefill {
            *k *= 2;
        }
        let stride = KEY_RANGE / TXN_HOT_KEYS as u64;
        let mut hot = shuffled(TXN_HOT_KEYS as u64, &mut rng);
        for k in &mut hot {
            *k *= stride;
        }
        let zipf = Zipf::new(TXN_HOT_KEYS, TXN_ZIPF_THETA);
        let tape = |stream| {
            let mut rng = rng_for(seed, "txn_contended", stream);
            (0..TAPE)
                .map(|_| {
                    if rng.gen_range(0u32..5) == 0 {
                        return TxnInput::Rq(rng.gen_range(0..=KEY_RANGE - RQ_LEN));
                    }
                    let mut keys = [u64::MAX; TXN_GETS];
                    for i in 0..TXN_GETS {
                        keys[i] = loop {
                            let k = hot[zipf.sample(&mut rng)];
                            if !keys[..i].contains(&k) {
                                break k;
                            }
                        };
                    }
                    let range_low = hot[zipf.sample(&mut rng)].min(KEY_RANGE - TXN_RANGE_LEN);
                    TxnInput::Transfer { keys, range_low }
                })
                .collect()
        };
        let tapes = [tape(1), tape(2)];
        TxnInputs {
            prefill,
            hot,
            tapes,
        }
    }

    pub fn hash(&self) -> u64 {
        let mut h = Fnv::default();
        h.words(self.prefill.iter().copied());
        h.words(self.hot.iter().copied());
        for t in &self.tapes {
            for op in t {
                match *op {
                    TxnInput::Transfer { keys, range_low } => {
                        h.word(0);
                        h.words(keys);
                        h.word(range_low);
                    }
                    TxnInput::Rq(low) => h.words([1, low]),
                }
            }
        }
        h.finish()
    }
}

/// Fingerprint of everything `workload` would be fed at `seed`.
pub fn stream_hash(workload: &str, seed: u64) -> u64 {
    match workload {
        "paper_mix" => PaperInputs::generate(seed).hash(),
        "rq_scan" => ScanInputs::generate(seed).hash(),
        "ingest_pipelined" | "ingest_durable" => IngestInputs::generate(seed, workload).hash(),
        "txn_contended" => TxnInputs::generate(seed).hash(),
        other => panic!("unknown workload {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        for w in &WORKLOADS {
            let a = stream_hash(w.name, 1);
            assert_eq!(a, stream_hash(w.name, 1), "{} repeats", w.name);
            assert_ne!(a, stream_hash(w.name, 2), "{} varies with the seed", w.name);
        }
        assert_ne!(
            stream_hash("ingest_pipelined", 1),
            stream_hash("ingest_durable", 1),
            "the two ingest workloads draw separate streams"
        );
    }

    #[test]
    fn zipf_mass_on_the_top_one_percent() {
        // Analytically, ranks 1..=100 of 10_000 at theta 0.99 hold
        // H(100, .99) / H(10_000, .99) = 0.5178 of the mass.
        let zipf = Zipf::new(TXN_HOT_KEYS, TXN_ZIPF_THETA);
        let mut rng = SmallRng::seed_from_u64(9);
        let draws = 200_000;
        let top = (0..draws).filter(|_| zipf.sample(&mut rng) < 100).count();
        let share = top as f64 / draws as f64;
        assert!((share - 0.5178).abs() < 0.01, "top-1% share {share}");
        assert!((0..1000).all(|_| zipf.sample(&mut rng) < TXN_HOT_KEYS));
    }

    #[test]
    fn paper_mix_is_50_40_10() {
        let inputs = PaperInputs::generate(3);
        let tape = &inputs.tapes[0];
        let share = |f: fn(&PaperOp) -> bool| {
            tape.iter().filter(|op| f(op)).count() as f64 / tape.len() as f64
        };
        let updates = share(|op| matches!(op, PaperOp::Insert(_) | PaperOp::Remove(_)));
        let contains = share(|op| matches!(op, PaperOp::Contains(_)));
        let rqs = share(|op| matches!(op, PaperOp::Rq(_)));
        assert!((updates - 0.5).abs() < 0.005, "{updates}");
        assert!((contains - 0.4).abs() < 0.005, "{contains}");
        assert!((rqs - 0.1).abs() < 0.005, "{rqs}");
        assert_eq!(inputs.prefill.len(), PREFILL);
    }

    #[test]
    fn transfers_name_four_distinct_prefilled_hot_keys() {
        let inputs = TxnInputs::generate(5);
        assert_eq!(inputs.hot.len(), TXN_HOT_KEYS);
        for op in inputs.tapes.iter().flatten() {
            if let TxnInput::Transfer { keys, range_low } = op {
                for (i, k) in keys.iter().enumerate() {
                    assert!(k % 2 == 0 && *k < KEY_RANGE, "hot keys are prefilled");
                    assert!(!keys[..i].contains(k), "distinct");
                }
                assert!(range_low + TXN_RANGE_LEN <= KEY_RANGE);
            }
        }
    }
}

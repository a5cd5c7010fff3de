//! Spans recorded from the benchmark's own files, around the calls into
//! each layer. Nothing in `crates/` knows about them.
//!
//! A thread records a span when it *ends*, into a thread-local buffer;
//! buffers are handed to a global sink when their thread exits (or calls
//! [`flush_thread`]) and written out after the run. Because one thread's
//! spans nest properly and children end before their parents, parent
//! links and self time are recovered afterwards from completion order
//! alone ([`link`]), so starting a span costs one clock read.
//!
//! Request ids: spans are recorded with `req == 0` and [`stamp`]ed once
//! the id is known. Committer-side spans take the commit timestamp (from
//! `txn_finalize`), which joins them to `IngestOutcome::ts` /
//! `TxnReceipt::commit_ts` on the client side.

use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// What a span measures; the table maps each kind to its layer (a crate
/// name) and span name.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    /// `paper_mix`: one sampled primitive on the raw skiplist.
    ListUpdate,
    ListContains,
    ListRq,
    /// `Timed<S>`: one prepare cursor's lifetime (`count` = ops staged).
    BackendCursor,
    BackendFinalize,
    BackendValidate,
    BackendRangeAt,
    /// `StoreHandle::range_query` as the client calls it.
    StoreRangeQuery,
    /// Direct `StoreHandle::insert` / `remove`.
    StoreWrite,
    /// Panel: one direct `apply_grouped` call (`count` = ops).
    StoreApplyGrouped,
    TxnGet,
    TxnRange,
    TxnCommit,
    /// One whole transaction, first begin to commit (`count` = attempts).
    TxnRequest,
    /// Time inside `submit` / `submit_all` (`count` = ops).
    IngestSubmit,
    /// Client call start to last ticket resolved (`count` = ops).
    IngestRequest,
    /// `TimedLog`: one `log_group` (`count` = ops).
    WalLogGroup,
    WalSync,
}

impl Kind {
    pub fn layer(self) -> &'static str {
        match self {
            Kind::ListUpdate | Kind::ListContains | Kind::ListRq => "skiplist",
            Kind::BackendCursor
            | Kind::BackendFinalize
            | Kind::BackendValidate
            | Kind::BackendRangeAt => "backend",
            Kind::StoreRangeQuery | Kind::StoreWrite | Kind::StoreApplyGrouped => "store",
            Kind::TxnGet | Kind::TxnRange | Kind::TxnCommit | Kind::TxnRequest => "txn",
            Kind::IngestSubmit | Kind::IngestRequest => "ingest",
            Kind::WalLogGroup | Kind::WalSync => "wal",
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::ListUpdate => "update",
            Kind::ListContains => "contains",
            Kind::ListRq => "range_query",
            Kind::BackendCursor => "cursor",
            Kind::BackendFinalize => "txn_finalize",
            Kind::BackendValidate => "txn_validate",
            Kind::BackendRangeAt => "range_query_at",
            Kind::StoreRangeQuery => "range_query",
            Kind::StoreWrite => "write",
            Kind::StoreApplyGrouped => "apply_grouped",
            Kind::TxnGet => "get",
            Kind::TxnRange => "range",
            Kind::TxnCommit => "commit",
            Kind::TxnRequest => "request",
            Kind::IngestSubmit => "submit",
            Kind::IngestRequest => "request",
            Kind::WalLogGroup => "log_group",
            Kind::WalSync => "sync",
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub kind: Kind,
    pub start_ns: u64,
    pub end_ns: u64,
    pub req: u64,
    pub count: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Tracing on/off for the whole process (the traced run alternates it
/// per slice; the untraced run never turns it on).
static ON: AtomicBool = AtomicBool::new(false);
static SINK: Mutex<Vec<Vec<Span>>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

struct Local {
    /// Client threads sample requests; threads the benchmark does not
    /// own (ingest committers) record everything while tracing is on.
    sampled: bool,
    spans: Vec<Span>,
    /// `spans[unstamped..]` still carry `req == 0`.
    unstamped: usize,
}

impl Drop for Local {
    fn drop(&mut self) {
        if !self.spans.is_empty() {
            if let Ok(mut sink) = SINK.lock() {
                sink.push(std::mem::take(&mut self.spans));
            }
        }
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = const {
        RefCell::new(Local { sampled: true, spans: Vec::new(), unstamped: 0 })
    };
}

pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

pub fn set_on(on: bool) {
    // Fix the epoch before the first span so offsets never go backwards.
    now_ns();
    ON.store(on, Ordering::Relaxed);
}

/// Sample (or stop sampling) the calling thread's next spans.
pub fn set_sampled(sampled: bool) {
    LOCAL.with(|l| l.borrow_mut().sampled = sampled);
}

#[inline]
fn active() -> bool {
    ON.load(Ordering::Relaxed) && LOCAL.with(|l| l.borrow().sampled)
}

/// An open span; records itself when dropped.
pub struct Guard {
    kind: Kind,
    start_ns: u64,
    pub count: u32,
}

/// Open a span if the calling thread is tracing, else `None` (one
/// relaxed load and a thread-local read).
#[inline]
pub fn span(kind: Kind) -> Option<Guard> {
    active().then(|| Guard {
        kind,
        start_ns: now_ns(),
        count: 1,
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        let span = Span {
            kind: self.kind,
            start_ns: self.start_ns,
            end_ns: now_ns(),
            req: 0,
            count: self.count,
        };
        LOCAL.with(|l| l.borrow_mut().spans.push(span));
    }
}

/// The request id of a request that has no commit timestamp to join
/// on (a range query, a direct write): the thread's `n`-th, top bit set.
pub fn local_req(n: usize) -> u64 {
    1 << 63 | n as u64
}

/// Give every span this thread recorded since the last stamp the
/// request id `req`.
pub fn stamp(req: u64) {
    LOCAL.with(|l| {
        let l = &mut *l.borrow_mut();
        for s in &mut l.spans[l.unstamped..] {
            s.req = req;
        }
        l.unstamped = l.spans.len();
    });
}

/// Hand the calling thread's spans to the sink now (scoped threads do
/// this before their closure returns; other threads do it at exit).
pub fn flush_thread() {
    LOCAL.with(|l| {
        let l = &mut *l.borrow_mut();
        if !l.spans.is_empty() {
            SINK.lock()
                .expect("a tracing thread panicked")
                .push(std::mem::take(&mut l.spans));
        }
        l.unstamped = 0;
    });
}

/// Take every flushed thread's spans (one `Vec` per thread, each in
/// completion order).
pub fn drain() -> Vec<Vec<Span>> {
    std::mem::take(&mut *SINK.lock().expect("a tracing thread panicked"))
}

/// A span with its place in the tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Linked {
    pub span: Span,
    pub id: u32,
    /// `None` for a root.
    pub parent: Option<u32>,
    /// Duration minus the part its direct children cover.
    pub self_ns: u64,
}

/// Recover parents and self time for one thread's spans (in completion
/// order). `first_id` makes ids unique across threads.
pub fn link(spans: &[Span], first_id: u32) -> Vec<Linked> {
    let mut out: Vec<Linked> = spans
        .iter()
        .enumerate()
        .map(|(i, &span)| Linked {
            span,
            id: first_id + i as u32,
            parent: None,
            self_ns: span.dur_ns(),
        })
        .collect();
    // Completed spans still waiting for their parent to complete.
    let mut orphans: Vec<usize> = Vec::new();
    for i in 0..out.len() {
        let start = out[i].span.start_ns;
        while let Some(&child) = orphans.last() {
            if out[child].span.start_ns < start {
                break;
            }
            orphans.pop();
            out[child].parent = Some(out[i].id);
            out[i].self_ns = out[i].self_ns.saturating_sub(out[child].span.dur_ns());
        }
        orphans.push(i);
    }
    out
}

/// Link every thread's spans into one list.
pub fn link_all(threads: &[Vec<Span>]) -> Vec<Linked> {
    let mut out = Vec::new();
    for spans in threads {
        out.extend(link(spans, out.len() as u32));
    }
    out
}

/// One line per span: `id, parent, req, layer, name, start_ns, end_ns,
/// count`.
pub fn write_jsonl(path: &std::path::Path, spans: &[Linked]) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for l in spans {
        let parent = l.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            f,
            "{{\"id\":{},\"parent\":{},\"req\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"count\":{}}}",
            l.id,
            parent,
            l.span.req,
            l.span.kind.layer(),
            l.span.kind.name(),
            l.span.start_ns,
            l.span.end_ns,
            l.span.count
        )?;
    }
    f.flush()
}

/// Totals of one span kind.
#[derive(Clone, Debug, Default)]
pub struct Agg {
    pub spans: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub count: u64,
    pub durs_ns: Vec<u64>,
}

impl Agg {
    pub fn mean_ns(&self) -> f64 {
        if self.spans == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.spans as f64
        }
    }
}

pub fn aggregate(spans: &[Linked], kind: Kind) -> Agg {
    let mut a = Agg::default();
    for l in spans.iter().filter(|l| l.span.kind == kind) {
        a.spans += 1;
        a.total_ns += l.span.dur_ns();
        a.self_ns += l.self_ns;
        a.count += u64::from(l.span.count);
        a.durs_ns.push(l.span.dur_ns());
    }
    a.durs_ns.sort_unstable();
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(kind: Kind, start_ns: u64, end_ns: u64) -> Span {
        Span {
            kind,
            start_ns,
            end_ns,
            req: 0,
            count: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // request [0,100] { commit [10,90] { cursor [20,40], finalize [50,60] } }
        // then an unrelated root [200,250]; completion order.
        let spans = [
            s(Kind::BackendCursor, 20, 40),
            s(Kind::BackendFinalize, 50, 60),
            s(Kind::TxnCommit, 10, 90),
            s(Kind::TxnRequest, 0, 100),
            s(Kind::StoreRangeQuery, 200, 250),
        ];
        let linked = link(&spans, 7);
        assert_eq!(linked[0].parent, Some(9));
        assert_eq!(linked[1].parent, Some(9));
        assert_eq!(linked[2].parent, Some(10));
        assert_eq!(linked[3].parent, None);
        assert_eq!(linked[4].parent, None);
        assert_eq!(linked[0].self_ns, 20);
        assert_eq!(
            linked[2].self_ns,
            80 - 20 - 10,
            "commit minus its two children"
        );
        assert_eq!(
            linked[3].self_ns,
            100 - 80,
            "request minus commit, not grandchildren"
        );
        assert_eq!(linked[4].self_ns, 50);
        let agg = aggregate(&linked, Kind::TxnCommit);
        assert_eq!((agg.spans, agg.total_ns, agg.self_ns), (1, 80, 50));
    }

    #[test]
    fn spans_record_only_while_on_and_sampled_and_stamp_in_batches() {
        // Runs on its own thread so the thread-local state is fresh.
        std::thread::spawn(|| {
            assert!(span(Kind::TxnGet).is_none(), "off by default");
            set_on(true);
            {
                let _outer = span(Kind::TxnRequest);
                let mut inner = span(Kind::TxnGet).unwrap();
                inner.count = 3;
            }
            stamp(42);
            set_sampled(false);
            assert!(span(Kind::TxnGet).is_none(), "unsampled request");
            set_sampled(true);
            drop(span(Kind::TxnCommit));
            stamp(43);
            flush_thread();
            set_on(false);
        })
        .join()
        .unwrap();
        let mine: Vec<Vec<Span>> = drain()
            .into_iter()
            .filter(|t| t.iter().any(|s| s.req == 42))
            .collect();
        assert_eq!(mine.len(), 1);
        let spans = &mine[0];
        assert_eq!(spans.len(), 3);
        assert_eq!(
            (spans[0].kind, spans[0].count, spans[0].req),
            (Kind::TxnGet, 3, 42)
        );
        assert_eq!((spans[1].kind, spans[1].req), (Kind::TxnRequest, 42));
        assert_eq!((spans[2].kind, spans[2].req), (Kind::TxnCommit, 43));
        assert!(spans[1].start_ns <= spans[0].start_ns && spans[0].end_ns <= spans[1].end_ns);
    }
}

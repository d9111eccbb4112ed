//! Spans and totals recorded from benchmark code around calls into the
//! `Storage` and `Application` a replica is given. Nothing here exists in an
//! end-to-end run.

use bytes::Bytes;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use zab_benchmark::apps::{Bench, Ops};
use zab_benchmark::procfs;
use zab_core::{Epoch, Txn, Zxid};
use zab_log::{LogMetrics, Recovered, Storage, StorageError};
use zab_node::Application;

/// One span: a stretch of time in which `calls` calls into one layer
/// operation of one replica did `busy_us` of work on transactions
/// `first..=last` (zxids). Frequent operations are recorded as one span per
/// [`SPAN_SLICE`], rare ones (compaction, snapshot) one span per call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub replica: u64,
    pub start_us: u64,
    pub end_us: u64,
    pub busy_us: u64,
    pub calls: u64,
    pub first: u64,
    pub last: u64,
}

/// A frequent operation's calls are folded into spans this long.
const SPAN_SLICE: Duration = Duration::from_millis(10);

/// All spans of a run, kept in memory until the run ends.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Trace {
    pub fn new() -> Arc<Trace> {
        Arc::new(Trace { origin: Instant::now(), spans: Mutex::new(Vec::new()) })
    }

    fn us(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_micros() as u64
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("no thread panics holding the trace").push(span);
    }

    /// Records one call as a span of its own: busy from `start` to `end`, on
    /// the state up to zxid `last`. Replica 0 is benchmark code itself (the
    /// window).
    pub fn call(&self, name: &'static str, replica: u64, start: Instant, end: Instant, last: u64) {
        let (start_us, end_us) = (self.us(start), self.us(end));
        let busy_us = end_us - start_us;
        self.push(Span { name, replica, start_us, end_us, busy_us, calls: 1, first: 0, last });
    }

    /// The trace as a JSON document: every span names its parent, the
    /// `window` span of the harness.
    pub fn to_json(&self, workload: &str) -> String {
        let spans = self.spans.lock().expect("no thread panics holding the trace");
        let mut out = format!("{{\"workload\": \"{workload}\", \"unit\": \"us\", \"spans\": [\n");
        for (i, s) in spans.iter().enumerate() {
            let parent = if s.name == "window" { "null" } else { "\"window\"" };
            out.push_str(&format!(
                "{}{{\"name\": \"{}\", \"replica\": {}, \"start\": {}, \"end\": {}, \"busy\": {}, \
                 \"calls\": {}, \"first_zxid\": {}, \"last_zxid\": {}, \"parent\": {parent}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.replica,
                s.start_us,
                s.end_us,
                s.busy_us,
                s.calls,
                s.first,
                s.last,
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Folds the calls of one frequent operation into spans.
#[derive(Debug)]
struct Folder {
    name: &'static str,
    open: Option<(Instant, Span)>,
}

impl Folder {
    fn new(name: &'static str) -> Folder {
        Folder { name, open: None }
    }

    fn add(
        &mut self,
        trace: &Trace,
        replica: u64,
        start: Instant,
        end: Instant,
        zxids: (u64, u64),
    ) {
        let busy_us = end.saturating_duration_since(start).as_micros() as u64;
        let (_, span) = self.open.get_or_insert_with(|| {
            let at = trace.us(start);
            let span = Span {
                name: self.name,
                replica,
                start_us: at,
                end_us: at,
                busy_us: 0,
                calls: 0,
                first: zxids.0,
                last: zxids.1,
            };
            (start, span)
        });
        span.end_us = trace.us(end);
        span.busy_us += busy_us;
        span.calls += 1;
        span.last = zxids.1;
        if self.open.as_ref().is_some_and(|(since, _)| end.duration_since(*since) >= SPAN_SLICE) {
            self.flush(trace);
        }
    }

    fn flush(&mut self, trace: &Trace) {
        if let Some((_, span)) = self.open.take() {
            trace.push(span);
        }
    }
}

/// Running totals of one replica (all its incarnations), read at the edges of
/// the window. `counts` is indexed by the constants of [`total`].
#[derive(Debug, Default)]
pub struct Totals {
    counts: [AtomicU64; total::LEN],
    /// Longest single compaction, ns.
    pub compact_max_ns: AtomicU64,
    /// Kernel id of the thread that last called `Storage::append_txns`: the
    /// replica's disk thread.
    pub disk_tid: AtomicU64,
    /// Kernel id of the thread that last called `Application::apply`: the
    /// replica's event loop.
    pub loop_tid: AtomicU64,
}

/// What [`Totals`] counts: for each timed operation its busy nanoseconds and
/// its calls (for appends also transactions and bytes).
pub mod total {
    pub const APPEND_NS: usize = 0;
    pub const APPEND_TXNS: usize = 1;
    pub const APPEND_BYTES: usize = 2;
    pub const FLUSH_NS: usize = 3;
    pub const FLUSHES: usize = 4;
    pub const COMPACT_NS: usize = 5;
    pub const COMPACTIONS: usize = 6;
    pub const EXECUTE_NS: usize = 7;
    pub const APPLY_NS: usize = 8;
    pub const APPLIES: usize = 9;
    pub const SNAPSHOT_NS: usize = 10;
    pub const SNAPSHOTS: usize = 11;
    pub const LEN: usize = 12;
}

/// [`Totals`] at one instant, or the difference of two.
pub type TotalsAt = [u64; total::LEN];

impl Totals {
    pub fn read(&self) -> TotalsAt {
        std::array::from_fn(|i| self.counts[i].load(Relaxed))
    }

    fn add(&self, what: usize, n: u64) {
        self.counts[what].fetch_add(n, Relaxed);
    }
}

/// What happened between `earlier` and `later`.
pub fn since(later: &TotalsAt, earlier: &TotalsAt) -> TotalsAt {
    std::array::from_fn(|i| later[i] - earlier[i])
}

fn ns(from: Instant, to: Instant) -> u64 {
    to.saturating_duration_since(from).as_nanos() as u64
}

fn note_thread(slot: &AtomicU64) {
    if slot.load(Relaxed) == 0 {
        slot.store(procfs::current_tid().unwrap_or(0), Relaxed);
    }
}

/// A `Storage` that times the calls into the one it wraps.
pub struct TimedStorage {
    inner: Box<dyn Storage + Send>,
    replica: u64,
    totals: Arc<Totals>,
    trace: Arc<Trace>,
    appends: Folder,
    flushes: Folder,
    /// Zxids appended since the last flush, for the flush span.
    unflushed: (u64, u64),
}

impl TimedStorage {
    pub fn new(
        inner: Box<dyn Storage + Send>,
        replica: u64,
        totals: Arc<Totals>,
        trace: Arc<Trace>,
    ) -> TimedStorage {
        // A new incarnation runs on new threads.
        totals.disk_tid.store(0, Relaxed);
        TimedStorage {
            inner,
            replica,
            totals,
            trace,
            appends: Folder::new("zab-log.append"),
            flushes: Folder::new("zab-log.flush"),
            unflushed: (0, 0),
        }
    }
}

impl Drop for TimedStorage {
    fn drop(&mut self) {
        self.appends.flush(&self.trace);
        self.flushes.flush(&self.trace);
    }
}

impl Storage for TimedStorage {
    fn set_accepted_epoch(&mut self, epoch: Epoch) -> Result<(), StorageError> {
        self.inner.set_accepted_epoch(epoch)
    }

    fn set_current_epoch(&mut self, epoch: Epoch) -> Result<(), StorageError> {
        self.inner.set_current_epoch(epoch)
    }

    fn append_txns(&mut self, txns: &[Txn]) -> Result<(), StorageError> {
        note_thread(&self.totals.disk_tid);
        let start = Instant::now();
        let result = self.inner.append_txns(txns);
        let end = Instant::now();
        if let (Some(first), Some(last)) = (txns.first(), txns.last()) {
            self.totals.add(total::APPEND_NS, ns(start, end));
            self.totals.add(total::APPEND_TXNS, txns.len() as u64);
            let bytes: usize = txns.iter().map(|t| 8 + t.data.len()).sum();
            self.totals.add(total::APPEND_BYTES, bytes as u64);
            let zxids = (first.zxid.0, last.zxid.0);
            self.appends.add(&self.trace, self.replica, start, end, zxids);
            self.unflushed =
                (if self.unflushed.0 == 0 { zxids.0 } else { self.unflushed.0 }, zxids.1);
        }
        result
    }

    fn truncate(&mut self, to: Zxid) -> Result<(), StorageError> {
        self.inner.truncate(to)
    }

    fn reset_to_snapshot(&mut self, snapshot: Bytes, zxid: Zxid) -> Result<(), StorageError> {
        self.inner.reset_to_snapshot(snapshot, zxid)
    }

    fn compact(&mut self, snapshot: Bytes, zxid: Zxid) -> Result<(), StorageError> {
        let start = Instant::now();
        let result = self.inner.compact(snapshot, zxid);
        let end = Instant::now();
        self.totals.add(total::COMPACT_NS, ns(start, end));
        self.totals.add(total::COMPACTIONS, 1);
        self.totals.compact_max_ns.fetch_max(ns(start, end), Relaxed);
        self.trace.call("zab-log.compact", self.replica, start, end, zxid.0);
        result
    }

    fn flush(&mut self) -> Result<(), StorageError> {
        let start = Instant::now();
        let result = self.inner.flush();
        let end = Instant::now();
        self.totals.add(total::FLUSH_NS, ns(start, end));
        self.totals.add(total::FLUSHES, 1);
        self.flushes.add(&self.trace, self.replica, start, end, self.unflushed);
        self.unflushed = (0, 0);
        result
    }

    fn recover(&self) -> Result<Recovered, StorageError> {
        self.inner.recover()
    }

    fn set_metrics(&mut self, metrics: LogMetrics) {
        self.inner.set_metrics(metrics);
    }
}

/// An `Application` that times the calls into the one it wraps.
pub struct TimedApp<A> {
    inner: A,
    replica: u64,
    totals: Arc<Totals>,
    trace: Arc<Trace>,
    executes: Folder,
    applies: Folder,
}

impl<A> TimedApp<A> {
    pub fn new(inner: A, replica: u64, totals: Arc<Totals>, trace: Arc<Trace>) -> TimedApp<A> {
        totals.loop_tid.store(0, Relaxed);
        TimedApp {
            inner,
            replica,
            totals,
            trace,
            executes: Folder::new("zab-kv.execute"),
            applies: Folder::new("zab-kv.apply"),
        }
    }
}

impl<A> Drop for TimedApp<A> {
    fn drop(&mut self) {
        self.executes.flush(&self.trace);
        self.applies.flush(&self.trace);
    }
}

impl<A: Application> Application for TimedApp<A> {
    fn execute(&mut self, request: &[u8]) -> Result<Vec<u8>, String> {
        let start = Instant::now();
        let result = self.inner.execute(request);
        let end = Instant::now();
        self.totals.add(total::EXECUTE_NS, ns(start, end));
        // The zxid is not assigned yet; the span covers what was applied so far.
        let at = self.inner.applied_to().0;
        self.executes.add(&self.trace, self.replica, start, end, (at, at));
        result
    }

    fn apply(&mut self, txn: &Txn) {
        note_thread(&self.totals.loop_tid);
        let start = Instant::now();
        self.inner.apply(txn);
        let end = Instant::now();
        self.totals.add(total::APPLY_NS, ns(start, end));
        self.totals.add(total::APPLIES, 1);
        self.applies.add(&self.trace, self.replica, start, end, (txn.zxid.0, txn.zxid.0));
    }

    fn snapshot(&self) -> Vec<u8> {
        let start = Instant::now();
        let snapshot = self.inner.snapshot();
        let end = Instant::now();
        self.totals.add(total::SNAPSHOT_NS, ns(start, end));
        self.totals.add(total::SNAPSHOTS, 1);
        self.trace.call("zab-kv.snapshot", self.replica, start, end, self.inner.applied_to().0);
        snapshot
    }

    fn install(&mut self, snapshot: &[u8], zxid: Zxid) -> Result<(), String> {
        self.inner.install(snapshot, zxid)
    }

    fn applied_to(&self) -> Zxid {
        self.inner.applied_to()
    }

    fn on_role_change(&mut self, is_primary: bool) {
        self.inner.on_role_change(is_primary);
    }
}

impl<A: Bench> Bench for TimedApp<A> {
    fn delivered_id(data: &[u8]) -> u64 {
        A::delivered_id(data)
    }

    fn last_applied_id(&self) -> u64 {
        self.inner.last_applied_id()
    }

    fn holds(&self, ops: &Ops, last_id: u64) -> Result<(), String> {
        self.inner.holds(ops, last_id)
    }
}

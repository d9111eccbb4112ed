//! Per-transaction flight recorder (DESIGN.md §9).
//!
//! Zab's correctness argument is *causal*: every committed transaction has
//! a precise lifecycle — admit → submit → propose-enqueue → wire-out →
//! wire-in → ack-rx → quorum → commit-out → watermark-advance → deliver —
//! whose
//! interleaving across replicas is exactly what the paper's primary-order
//! guarantee constrains. Aggregate metrics (`zab-metrics`) say *how often*
//! and *how slow*; this crate records *where zxid ⟨e, c⟩ spent its time,
//! and on which replica*.
//!
//! ## Design
//!
//! - [`TraceEvent`] is a fixed-size `Copy` record: `{ts_us, dur_us, node,
//!   zxid, zxid_end, stage, peer}`. The zxid **is** the trace id — it is
//!   globally unique, totally ordered, and already on every PROPOSE / ACK /
//!   COMMIT frame, so cross-node correlation needs **no new wire bytes**:
//!   the receive side simply re-keys on the decoded zxid.
//! - [`Recorder`] owns per-thread ring buffers with a configurable
//!   capacity and overwrite-oldest semantics: memory is bounded at
//!   `threads × capacity × size_of::<TraceEvent>()` no matter how long the
//!   node runs. Each thread writes only to its own single-producer ring;
//!   readers snapshot slots through atomics, so there is no lock on the
//!   record path at all. The fast path lives in one thread-local cache
//!   line (`HotRing`): recorder id, a mirrored head, the raw slot
//!   pointer, and an inlined TSC→µs timestamp scale. A hit is one
//!   (possibly cold) load of that line, a `rdtsc`, and buffered slot
//!   stores — ~6-7 ns marginal cost even with caches thrashed, because
//!   there is no dependent pointer chase left to stall on. Misses
//!   (first event on a thread, or a thread alternating recorders) fall
//!   back to a registry walk that re-primes the line.
//! - [`Tracer`] is the cheap, cloneable handle threaded through the
//!   layers. A disabled tracer (the default everywhere) is a no-op that
//!   costs one branch.
//! - The exporter merges rings into per-zxid causal timelines
//!   ([`timelines`]) and renders Chrome trace-event JSON
//!   ([`chrome_trace_json`]) loadable in `chrome://tracing` or Perfetto:
//!   one process per node, one track per zxid, storage spans on track 0.
//!
//! Deterministic simulations drive the recorder from a
//! [`zab_metrics::ManualClock`]; real nodes use [`zab_metrics::WallClock`].
//! No external dependencies, consistent with the vendored-offline policy.

#![deny(missing_docs)]

pub mod align;
pub mod health;

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Weak};
use zab_metrics::Clock;

/// Where in the transaction lifecycle an event was recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Stage {
    /// A client arrived at the admission gate (before any queueing). The
    /// delta to [`Stage::Submit`] is exactly the admission cost: gate
    /// wait plus command-queue time, the quantity that grows first under
    /// overload.
    Admit,
    /// A client handed the payload to the replica (leader submit gate).
    Submit,
    /// The leader assigned a zxid and enqueued the proposal.
    ProposeEnqueue,
    /// A frame carrying this zxid was enqueued to a peer connection.
    WireOut,
    /// A frame carrying this zxid was decoded off a peer connection.
    WireIn,
    /// The leader received (or self-generated) an ack covering this zxid.
    AckRx,
    /// A quorum of acks formed; the transaction is committed.
    Quorum,
    /// The commit watermark covering this zxid was broadcast.
    CommitOut,
    /// A follower advanced its commit watermark to this zxid.
    WatermarkAdvance,
    /// The transaction was handed to the application.
    Deliver,
    /// Storage appended a batch covering `zxid..=zxid_end` (span).
    LogAppend,
    /// Storage flushed (fsync) the batch covering `zxid..=zxid_end` (span).
    LogFsync,
}

impl Stage {
    /// Every stage, in lifecycle order.
    pub const ALL: [Stage; 12] = [
        Stage::Admit,
        Stage::Submit,
        Stage::ProposeEnqueue,
        Stage::WireOut,
        Stage::WireIn,
        Stage::AckRx,
        Stage::Quorum,
        Stage::CommitOut,
        Stage::WatermarkAdvance,
        Stage::Deliver,
        Stage::LogAppend,
        Stage::LogFsync,
    ];

    /// Inverse of [`Stage::as_str`]: parses a stable stage name back, for
    /// tools that re-ingest exported traces.
    pub fn parse(s: &str) -> Option<Stage> {
        Stage::ALL.into_iter().find(|st| st.as_str() == s)
    }

    /// Stable human-readable name (used in exports and endpoints).
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Admit => "admit",
            Stage::Submit => "submit",
            Stage::ProposeEnqueue => "propose-enqueue",
            Stage::WireOut => "wire-out",
            Stage::WireIn => "wire-in",
            Stage::AckRx => "ack-rx",
            Stage::Quorum => "quorum",
            Stage::CommitOut => "commit-out",
            Stage::WatermarkAdvance => "watermark-advance",
            Stage::Deliver => "deliver",
            Stage::LogAppend => "log-append",
            Stage::LogFsync => "log-fsync",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One fixed-size flight-recorder record.
///
/// `zxid` is the packed `(epoch << 32) | counter` transaction id. Point
/// events have `zxid_end == zxid` and `dur_us == 0`; storage spans cover
/// the inclusive zxid range `zxid..=zxid_end` and carry a duration.
/// `peer == 0` means "no peer" (server ids start at 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Monotonic microseconds (recorder clock origin).
    pub ts_us: u64,
    /// Span duration in microseconds; 0 for instant events.
    pub dur_us: u64,
    /// Recording node's server id.
    pub node: u64,
    /// Packed zxid (range start for storage spans).
    pub zxid: u64,
    /// Packed zxid range end (== `zxid` for point events).
    pub zxid_end: u64,
    /// Lifecycle stage.
    pub stage: Stage,
    /// Peer server id involved, or 0.
    pub peer: u64,
}

impl TraceEvent {
    /// True when this event covers a zxid range (storage span).
    pub fn is_span(&self) -> bool {
        self.zxid_end != self.zxid || self.dur_us != 0
    }

    /// True when this event belongs to `zxid`: a point event on it, or a
    /// storage span whose inclusive range covers it (the append or fsync
    /// the transaction rode in).
    pub fn covers(&self, zxid: u64) -> bool {
        if self.is_span() && self.zxid_end >= self.zxid {
            self.zxid <= zxid && zxid <= self.zxid_end
        } else {
            self.zxid == zxid
        }
    }
}

/// Renders a packed zxid as the conventional `epoch:counter`.
pub fn zxid_display(zxid: u64) -> String {
    format!("{}:{}", zxid >> 32, zxid & 0xffff_ffff)
}

/// Parses a zxid as packed decimal (`4294967299`) or `epoch:counter`
/// (`1:3`); `None` when it is neither, or a part overflows 32 bits.
pub fn parse_zxid(s: &str) -> Option<u64> {
    match s.split_once(':') {
        Some((e, c)) => {
            Some((u64::from(e.parse::<u32>().ok()?) << 32) | u64::from(c.parse::<u32>().ok()?))
        }
        None => s.parse().ok(),
    }
}

/// Escapes `s` for use inside a JSON string literal: quotes, backslashes
/// and every control character.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// One event slot, stored as seven relaxed atomics (a [`TraceEvent`]'s
/// fields word by word; `stage` travels as its discriminant index).
struct Slot {
    words: [AtomicU64; 7],
}

impl Slot {
    fn empty() -> Slot {
        Slot { words: [0, 0, 0, 0, 0, 0, 0].map(AtomicU64::new) }
    }

    fn store(&self, ev: &TraceEvent) {
        let w = [ev.ts_us, ev.dur_us, ev.node, ev.zxid, ev.zxid_end, ev.stage as u64, ev.peer];
        for (slot, v) in self.words.iter().zip(w) {
            slot.store(v, Ordering::Relaxed);
        }
    }

    fn load(&self) -> Option<TraceEvent> {
        let w: [u64; 7] = [0usize, 1, 2, 3, 4, 5, 6].map(|i| self.words[i].load(Ordering::Relaxed));
        let stage = Stage::ALL.get(w[5] as usize).copied()?;
        Some(TraceEvent {
            ts_us: w[0],
            dur_us: w[1],
            node: w[2],
            zxid: w[3],
            zxid_end: w[4],
            stage,
            peer: w[6],
        })
    }
}

/// Fixed-capacity overwrite-oldest event ring; one per recording thread,
/// so the write side is **single-producer by construction** and needs no
/// lock: a push is seven relaxed word stores plus one release bump of
/// `head`. Readers (rare: `/trace` scrapes, test snapshots) copy slots
/// and then conservatively discard any slot the writer could have been
/// rewriting during the copy — the ring trades a slot or two of
/// freshness under concurrent load for a record path with zero atomic
/// read-modify-writes.
struct Ring {
    slots: Box<[Slot]>,
    /// Number of completed events ever pushed; slot `head % cap` is
    /// written *before* `head` is bumped (release), so every event with
    /// index < head is fully stored.
    head: AtomicU64,
    /// Events with index < `cleared` are hidden from readers.
    cleared: AtomicU64,
    /// The single producing thread. A reader on this thread knows no
    /// push is in flight and can skip the overwrite guard.
    owner: std::thread::ThreadId,
}

/// Recovers from mutex poisoning: the guarded data is plain-old-data
/// whose invariants hold after any partial write, so continuing is safe.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl Ring {
    /// A ring owned by the calling thread (the one that will push).
    fn new(cap: usize) -> Ring {
        let slots: Vec<Slot> = (0..cap.max(1)).map(|_| Slot::empty()).collect();
        Ring {
            slots: slots.into(),
            head: AtomicU64::new(0),
            cleared: AtomicU64::new(0),
            owner: std::thread::current().id(),
        }
    }

    /// Single-producer push of event index `h` (each ring is owned by
    /// exactly one recording thread; see [`THREAD_RINGS`]). The caller
    /// supplies `h` from its private head cache so the hot path issues
    /// only *stores* — between two records the workload has usually
    /// evicted the ring's lines, and a store merely queues in the store
    /// buffer where a load of `head` would stall on the miss.
    fn push_at(&self, h: u64, ev: TraceEvent) {
        let cap = self.slots.len() as u64;
        if let Some(slot) = self.slots.get((h % cap) as usize) {
            slot.store(&ev);
        }
        self.head.store(h + 1, Ordering::Release);
    }

    /// Events oldest → newest.
    ///
    /// Any slot the writer may have touched during the copy is discarded:
    /// after copying, the head is re-read as `h2`; the writer has begun
    /// at most event `h2`, so only slots holding events with index
    /// strictly above `h2 − cap` are certainly intact.
    fn events(&self) -> Vec<TraceEvent> {
        let cap = self.slots.len() as u64;
        let h1 = self.head.load(Ordering::Acquire);
        let lo = self.cleared.load(Ordering::Acquire).max(h1.saturating_sub(cap));
        let copied: Vec<(u64, Option<TraceEvent>)> = (lo..h1)
            .map(|e| (e, self.slots.get((e % cap) as usize).and_then(Slot::load)))
            .collect();
        let h2 = self.head.load(Ordering::Acquire);
        // On the owning thread no push can be in flight, so event `h2`
        // has not begun and the `+ 1` in-flight guard is unnecessary.
        let reserve = if std::thread::current().id() == self.owner { 0 } else { 1 };
        let safe_lo = lo.max((h2 + reserve).saturating_sub(cap));
        copied.into_iter().filter(|(e, _)| *e >= safe_lo).filter_map(|(_, ev)| ev).collect()
    }

    fn clear(&self) {
        self.cleared.store(self.head.load(Ordering::Acquire), Ordering::Release);
    }

    fn dropped(&self) -> u64 {
        // Events evicted by overwrite: everything pushed beyond capacity.
        self.head.load(Ordering::Acquire).saturating_sub(self.slots.len() as u64)
    }
}

static NEXT_RECORDER_ID: AtomicU64 = AtomicU64::new(1);

/// One thread-local registry entry: this thread's ring in recorder `id`,
/// held *strongly* so the raw pointers in [`HOT`] stay valid — no
/// `Weak::upgrade`, no `Arc` clone, zero refcount traffic per event.
/// `alive` mirrors the owning recorder's liveness token; entries whose
/// recorder has dropped are pruned on the next cache miss (recorder ids
/// are never reused, so a stale entry can only waste memory, never alias
/// a new recorder).
struct ThreadRing {
    id: u64,
    ring: Arc<Ring>,
    alive: Weak<()>,
}

/// The registry vector, wrapped so its drop (thread teardown) also wipes
/// [`HOT`] — after the `Arc<Ring>`s here are gone, the hot entry's raw
/// pointers must never be dereferenced again.
struct RingRegistry(Vec<ThreadRing>);

impl Drop for RingRegistry {
    fn drop(&mut self) {
        let _ = HOT.try_with(|h| h.set(HotRing::EMPTY));
    }
}

/// The timestamp source, denormalized into [`HotRing`] so the hot path
/// reads the clock without touching the (usually cache-cold) clock
/// object behind the recorder's `Arc<dyn Clock>`.
#[derive(Clone, Copy)]
enum HotClock {
    /// `µs = (rdtsc − origin) × mult >> 32`, from
    /// [`Clock::raw_tsc_scale`] — the read is pure register arithmetic.
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    Tsc { origin: u64, mult: u64 },
    /// Anything else (manual clocks, non-TSC hosts): fall back to the
    /// recorder's `dyn Clock`.
    Fallback,
}

impl HotClock {
    fn of(clock: &dyn Clock) -> HotClock {
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        if let Some((origin, mult)) = clock.raw_tsc_scale() {
            return HotClock::Tsc { origin, mult };
        }
        let _ = clock;
        HotClock::Fallback
    }

    fn now(self, fallback: &dyn Clock) -> u64 {
        match self {
            #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
            HotClock::Tsc { origin, mult } => {
                // SAFETY: `_rdtsc` reads the time-stamp counter register;
                // it accesses no memory and exists on every x86-64 CPU.
                let t = unsafe { core::arch::x86_64::_rdtsc() };
                ((u128::from(t.wrapping_sub(origin)) * u128::from(mult)) >> 32) as u64
            }
            HotClock::Fallback => fallback.now_micros(),
        }
    }
}

/// The single-cache-line fast path: everything one record needs, flat.
///
/// Rationale: a replica records ~16 events per transaction, and between
/// two events the workload evicts whatever the recorder touched, so at
/// saturation every pointer the record path chases is a cold load. The
/// natural chain — TLS vec → entry → `Arc<Ring>` → slots — is three
/// *dependent* misses (~100 ns/event measured, vs ~30 ns warm). This
/// struct flattens the chain: slot pointer, capacity, producer head, and
/// the TSC clock scale all live in one thread-local line, so a hit costs
/// one potentially-cold load plus stores (which only queue in the store
/// buffer, never stall).
///
/// # Safety invariants
///
/// `slots`/`shared_head` point into the `Ring` of the [`ThreadRing`]
/// entry with the same `id` in this thread's [`THREAD_RINGS`], which
/// holds the ring strongly. They are dereferenced only when `id` matches
/// the *calling* recorder — proof the recorder is alive, so registry
/// pruning (dead recorders only) cannot have dropped that entry. The
/// registry's drop wipes this cache, covering thread teardown.
#[derive(Clone, Copy)]
struct HotRing {
    /// Owning recorder id; 0 (never allocated) marks the empty cache.
    id: u64,
    /// Producer's exact copy of `Ring::head` (this thread is the only
    /// writer; the cold path re-reads the shared head, so the two can
    /// never diverge).
    head: u64,
    /// Ring capacity (≥ 1).
    cap: u64,
    slots: *const Slot,
    shared_head: *const AtomicU64,
    clock: HotClock,
}

impl HotRing {
    const EMPTY: HotRing = HotRing {
        id: 0,
        head: 0,
        cap: 1,
        slots: std::ptr::null(),
        shared_head: std::ptr::null(),
        clock: HotClock::Fallback,
    };
}

thread_local! {
    /// One-entry direct-mapped record cache (see [`HotRing`]). Threads
    /// recording into several recorders alternately (the simulator) miss
    /// here and take the registry path below, which is merely the old
    /// speed.
    static HOT: Cell<HotRing> = const { Cell::new(HotRing::EMPTY) };

    /// Per-thread registry: recorder id → this thread's ring in that
    /// recorder. Owns the `Arc<Ring>`s that keep [`HOT`]'s pointers valid.
    static THREAD_RINGS: RefCell<RingRegistry> = const { RefCell::new(RingRegistry(Vec::new())) };
}

/// A node's flight recorder: the set of per-thread rings plus the clock
/// they timestamp against.
///
/// Memory is bounded by `ring_count() × capacity × size_of::<TraceEvent>()`
/// where `ring_count` is the number of distinct threads that ever recorded
/// (event-loop, disk thread, per-connection reader threads).
pub struct Recorder {
    id: u64,
    node: u64,
    capacity: usize,
    clock: Arc<dyn Clock>,
    rings: Mutex<Vec<Arc<Ring>>>,
    /// Liveness token observed (weakly) by thread-local cache entries.
    alive: Arc<()>,
}

impl fmt::Debug for Recorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Recorder")
            .field("node", &self.node)
            .field("capacity", &self.capacity)
            .field("rings", &self.ring_count())
            .finish_non_exhaustive()
    }
}

impl Recorder {
    /// A recorder for `node` with per-thread ring capacity `capacity`
    /// (clamped to ≥ 1), timestamping from `clock`.
    pub fn new(node: u64, capacity: usize, clock: Arc<dyn Clock>) -> Arc<Recorder> {
        Arc::new(Recorder {
            id: NEXT_RECORDER_ID.fetch_add(1, Ordering::Relaxed),
            node,
            capacity: capacity.max(1),
            clock,
            rings: Mutex::new(Vec::new()),
            alive: Arc::new(()),
        })
    }

    /// The node id stamped on every event.
    pub fn node(&self) -> u64 {
        self.node
    }

    /// Per-thread ring capacity, in events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of per-thread rings allocated so far.
    pub fn ring_count(&self) -> usize {
        lock(&self.rings).len()
    }

    /// Upper bound on resident events: `ring_count × capacity`. The
    /// recorder never holds more than this regardless of traffic.
    pub fn max_resident_events(&self) -> usize {
        self.ring_count() * self.capacity
    }

    /// Current recorder clock, microseconds.
    pub fn now_us(&self) -> u64 {
        self.clock.now_micros()
    }

    /// Total events evicted by overwrite across all rings.
    pub fn dropped(&self) -> u64 {
        lock(&self.rings).iter().map(|r| r.dropped()).sum()
    }

    /// Records an instant event at the current clock reading.
    pub fn record(&self, stage: Stage, zxid: u64, peer: u64) {
        HOT.with(|hot| {
            let h = hot.get();
            let ts_us =
                if h.id == self.id { h.clock.now(&*self.clock) } else { self.clock.now_micros() };
            let ev =
                TraceEvent { ts_us, dur_us: 0, node: self.node, zxid, zxid_end: zxid, stage, peer };
            self.push_event(hot, h, ev);
        });
    }

    /// Records a span covering zxids `zxid..=zxid_end` from `start_us` to
    /// `end_us` (recorder clock readings; see [`Recorder::now_us`]).
    pub fn record_span(&self, stage: Stage, zxid: u64, zxid_end: u64, start_us: u64, end_us: u64) {
        let ev = TraceEvent {
            ts_us: start_us,
            dur_us: end_us.saturating_sub(start_us),
            node: self.node,
            zxid,
            zxid_end: zxid_end.max(zxid),
            stage,
            peer: 0,
        };
        HOT.with(|hot| self.push_event(hot, hot.get(), ev));
    }

    /// Pushes `ev` through the single-line fast path when the hot cache
    /// is ours, else through the registry (creating this thread's ring on
    /// first use) and re-primes the cache.
    fn push_event(&self, hot: &Cell<HotRing>, h: HotRing, ev: TraceEvent) {
        if h.id == self.id {
            let idx = (h.head % h.cap) as usize;
            // SAFETY: `h.id == self.id` means this *live* recorder's
            // entry in THREAD_RINGS still holds the `Arc<Ring>` these
            // pointers target (pruning removes dead recorders only, and
            // registry drop wipes the cache), `idx < cap == slots.len()`,
            // and this thread is the ring's only producer.
            unsafe {
                (*h.slots.add(idx)).store(&ev);
                (*h.shared_head).store(h.head + 1, Ordering::Release);
            }
            hot.set(HotRing { head: h.head + 1, ..h });
            return;
        }
        self.push_cold(hot, ev);
    }

    /// Registry-path push: find or create this thread's ring, push via
    /// the shared head (the producer-side truth the fast path mirrors),
    /// and take over the hot cache for this recorder.
    fn push_cold(&self, hot: &Cell<HotRing>, ev: TraceEvent) {
        THREAD_RINGS.with(|cell| {
            let mut reg = cell.borrow_mut();
            let entry = match reg.0.iter().position(|e| e.id == self.id) {
                Some(i) => &reg.0[i],
                None => {
                    // Miss: prune entries whose recorders have dropped,
                    // then register a new ring for this (thread, recorder).
                    reg.0.retain(|e| e.alive.strong_count() > 0);
                    let ring = Arc::new(Ring::new(self.capacity));
                    lock(&self.rings).push(Arc::clone(&ring));
                    reg.0.push(ThreadRing {
                        id: self.id,
                        ring,
                        alive: Arc::downgrade(&self.alive),
                    });
                    match reg.0.last() {
                        Some(e) => e,
                        None => return, // unreachable: just pushed
                    }
                }
            };
            let ring = &entry.ring;
            let head = ring.head.load(Ordering::Relaxed);
            ring.push_at(head, ev);
            hot.set(HotRing {
                id: self.id,
                head: head + 1,
                cap: ring.slots.len() as u64,
                slots: ring.slots.as_ptr(),
                shared_head: &ring.head,
                clock: HotClock::of(&*self.clock),
            });
        });
    }

    /// Copies out every ring, merged and sorted by `(ts_us, node)`.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let rings: Vec<Arc<Ring>> = lock(&self.rings).clone();
        let mut out: Vec<TraceEvent> = rings.iter().flat_map(|r| r.events()).collect();
        out.sort_by_key(|e| (e.ts_us, e.zxid, e.stage));
        out
    }

    /// Like [`Recorder::snapshot`] but clears the rings afterwards.
    pub fn drain(&self) -> Vec<TraceEvent> {
        let rings: Vec<Arc<Ring>> = lock(&self.rings).clone();
        let mut out: Vec<TraceEvent> = rings.iter().flat_map(|r| r.events()).collect();
        for r in &rings {
            r.clear();
        }
        out.sort_by_key(|e| (e.ts_us, e.zxid, e.stage));
        out
    }
}

/// The cheap handle layers record through. Disabled by default (one-branch
/// no-op), so standalone automata and tests pay nothing.
#[derive(Clone, Default)]
pub struct Tracer(Option<Arc<Recorder>>);

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Some(r) => write!(f, "Tracer(node {})", r.node()),
            None => f.write_str("Tracer(disabled)"),
        }
    }
}

impl Tracer {
    /// A no-op tracer.
    pub fn disabled() -> Tracer {
        Tracer(None)
    }

    /// A tracer recording into `recorder`.
    pub fn new(recorder: Arc<Recorder>) -> Tracer {
        Tracer(Some(recorder))
    }

    /// True when events are actually recorded.
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// The backing recorder, if enabled.
    pub fn recorder(&self) -> Option<&Arc<Recorder>> {
        self.0.as_ref()
    }

    /// Current recorder clock in microseconds (0 when disabled).
    pub fn now_us(&self) -> u64 {
        self.0.as_ref().map_or(0, |r| r.now_us())
    }

    /// Records an instant event (no-op when disabled).
    #[inline]
    pub fn instant(&self, stage: Stage, zxid: u64, peer: u64) {
        if let Some(r) = &self.0 {
            r.record(stage, zxid, peer);
        }
    }

    /// Records a zxid-range span (no-op when disabled).
    #[inline]
    pub fn span(&self, stage: Stage, zxid: u64, zxid_end: u64, start_us: u64, end_us: u64) {
        if let Some(r) = &self.0 {
            r.record_span(stage, zxid, zxid_end, start_us, end_us);
        }
    }
}

/// Merges event sets from several recorders (e.g. every node of an
/// ensemble) into one stream sorted by `(ts_us, node)`.
pub fn merge(groups: Vec<Vec<TraceEvent>>) -> Vec<TraceEvent> {
    let mut out: Vec<TraceEvent> = groups.into_iter().flatten().collect();
    out.sort_by_key(|e| (e.ts_us, e.node, e.zxid, e.stage));
    out
}

/// Groups events into per-zxid causal timelines, each sorted by
/// `(ts_us, node)`.
///
/// Keys are the zxids of point events; a storage span covering
/// `zxid..=zxid_end` is attached to every key inside its range, so a
/// transaction's timeline includes the append/fsync it rode in.
pub fn timelines(events: &[TraceEvent]) -> BTreeMap<u64, Vec<TraceEvent>> {
    let mut map: BTreeMap<u64, Vec<TraceEvent>> = BTreeMap::new();
    for e in events {
        if !e.is_span() {
            map.entry(e.zxid).or_default();
        }
    }
    for e in events {
        if e.is_span() {
            // Attach to existing point-event keys inside the range only:
            // bounded by the number of transactions actually observed.
            let keys: Vec<u64> = map.range(e.zxid..=e.zxid_end).map(|(&z, _)| z).collect();
            for z in keys {
                if let Some(v) = map.get_mut(&z) {
                    v.push(*e);
                }
            }
        } else if let Some(v) = map.get_mut(&e.zxid) {
            v.push(*e);
        }
    }
    for v in map.values_mut() {
        v.sort_by_key(|e| (e.ts_us, e.node, e.stage));
    }
    map
}

/// Time spent between two consecutive lifecycle stages of one transaction
/// on one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageDelta {
    /// Recording node.
    pub node: u64,
    /// Transaction.
    pub zxid: u64,
    /// Earlier stage.
    pub from: Stage,
    /// Later stage.
    pub to: Stage,
    /// Microseconds between the two events.
    pub delta_us: u64,
}

/// Computes consecutive-stage deltas per `(node, zxid)`: the time-in-stage
/// breakdown of each transaction on each replica.
/// Storage spans are excluded (they cover ranges, not one transaction).
pub fn stage_deltas(events: &[TraceEvent]) -> Vec<StageDelta> {
    let mut per_key: BTreeMap<(u64, u64), Vec<&TraceEvent>> = BTreeMap::new();
    for e in events {
        if !e.is_span() {
            per_key.entry((e.node, e.zxid)).or_default().push(e);
        }
    }
    let mut out = Vec::new();
    for ((node, zxid), mut evs) in per_key {
        evs.sort_by_key(|e| (e.ts_us, e.stage));
        for w in evs.windows(2) {
            out.push(StageDelta {
                node,
                zxid,
                from: w[0].stage,
                to: w[1].stage,
                delta_us: w[1].ts_us.saturating_sub(w[0].ts_us),
            });
        }
    }
    out
}

/// Renders events as Chrome trace-event JSON (the `{"traceEvents": [...]}`
/// object format), loadable in `chrome://tracing` and Perfetto.
///
/// Layout: one *process* per node; *thread* 0 is the storage lane
/// (append/fsync spans, `ph:"X"`); each distinct zxid gets its own
/// numbered track shared across nodes, so one transaction's lifecycle
/// lines up vertically across the ensemble. Instant events use `ph:"i"`
/// with thread scope.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    // Stable lane per zxid, shared across nodes.
    let mut lanes: BTreeMap<u64, u64> = BTreeMap::new();
    for e in events {
        if !e.is_span() {
            let next = lanes.len() as u64 + 1;
            lanes.entry(e.zxid).or_insert(next);
        }
    }
    let mut nodes: Vec<u64> = events.iter().map(|e| e.node).collect();
    nodes.sort_unstable();
    nodes.dedup();

    let mut s = String::with_capacity(events.len() * 96 + 1024);
    s.push_str("{\"traceEvents\":[");
    let mut first = true;
    let mut push = |s: &mut String, item: &str| {
        if !first {
            s.push(',');
        }
        first = false;
        s.push_str(item);
    };
    for &n in &nodes {
        push(
            &mut s,
            &format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{n},\"tid\":0,\
                 \"args\":{{\"name\":\"zab node {n}\"}}}}"
            ),
        );
        push(
            &mut s,
            &format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{n},\"tid\":0,\
                 \"args\":{{\"name\":\"storage\"}}}}"
            ),
        );
        for (&zxid, &lane) in &lanes {
            push(
                &mut s,
                &format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{n},\"tid\":{lane},\
                     \"args\":{{\"name\":\"zxid {}\"}}}}",
                    zxid_display(zxid)
                ),
            );
        }
    }
    for e in events {
        let mut item = String::with_capacity(128);
        if e.is_span() {
            let _ = write!(
                item,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":0,\
                 \"args\":{{\"zxid_first\":\"{}\",\"zxid_last\":\"{}\"}}}}",
                e.stage,
                e.ts_us,
                e.dur_us,
                e.node,
                zxid_display(e.zxid),
                zxid_display(e.zxid_end)
            );
        } else {
            let lane = lanes.get(&e.zxid).copied().unwrap_or(0);
            let _ = write!(
                item,
                "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":{},\"tid\":{},\
                 \"args\":{{\"zxid\":\"{}\"",
                e.stage,
                e.ts_us,
                e.node,
                lane,
                zxid_display(e.zxid)
            );
            if e.peer != 0 {
                let _ = write!(item, ",\"peer\":{}", e.peer);
            }
            item.push_str("}}");
        }
        push(&mut s, &item);
    }
    s.push_str("]}");
    s
}

/// Renders events as a flat JSON array of objects with the raw
/// [`TraceEvent`] fields (`ts_us`, `dur_us`, `node`, `zxid`, `zxid_end`,
/// `stage`, `peer`) — the machine-readable counterpart of
/// [`chrome_trace_json`], served by the admin endpoint's
/// `/trace?format=raw` for ensemble tools that re-ingest events (see
/// `zab-ops`). Stages use their [`Stage::as_str`] names; parse back with
/// [`Stage::parse`].
pub fn raw_trace_json(events: &[TraceEvent]) -> String {
    let mut s = String::with_capacity(events.len() * 96 + 16);
    s.push('[');
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"ts_us\":{},\"dur_us\":{},\"node\":{},\"zxid\":{},\"zxid_end\":{},\
             \"stage\":\"{}\",\"peer\":{}}}",
            e.ts_us, e.dur_us, e.node, e.zxid, e.zxid_end, e.stage, e.peer
        );
    }
    s.push(']');
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use zab_metrics::ManualClock;

    fn recorder(cap: usize) -> (Arc<Recorder>, Arc<ManualClock>) {
        let clock = Arc::new(ManualClock::new());
        (Recorder::new(7, cap, clock.clone()), clock)
    }

    #[test]
    fn records_and_snapshots_in_time_order() {
        let (rec, clock) = recorder(16);
        let t = Tracer::new(rec.clone());
        clock.set_micros(10);
        t.instant(Stage::Submit, 1, 0);
        clock.set_micros(30);
        t.instant(Stage::Deliver, 1, 0);
        clock.set_micros(20);
        t.instant(Stage::ProposeEnqueue, 1, 0);
        let evs = rec.snapshot();
        assert_eq!(evs.len(), 3);
        assert_eq!(
            evs.iter().map(|e| e.ts_us).collect::<Vec<_>>(),
            vec![10, 20, 30],
            "snapshot must sort by timestamp"
        );
        assert!(evs.iter().all(|e| e.node == 7));
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let (rec, clock) = recorder(4);
        let t = Tracer::new(rec.clone());
        for i in 0..10u64 {
            clock.set_micros(i);
            t.instant(Stage::WireOut, i, 0);
        }
        let evs = rec.snapshot();
        assert_eq!(evs.len(), 4, "bounded at capacity");
        assert_eq!(evs.iter().map(|e| e.zxid).collect::<Vec<_>>(), vec![6, 7, 8, 9]);
        assert_eq!(rec.dropped(), 6);
    }

    #[test]
    fn memory_stays_bounded_under_load() {
        let (rec, _clock) = recorder(128);
        let t = Tracer::new(rec.clone());
        for i in 0..100_000u64 {
            t.instant(Stage::WireIn, i, 1);
        }
        assert!(rec.snapshot().len() <= rec.max_resident_events());
        assert_eq!(rec.ring_count(), 1, "single thread → single ring");
    }

    #[test]
    fn each_thread_gets_its_own_ring() {
        let (rec, clock) = recorder(64);
        clock.set_micros(5);
        let handles: Vec<_> = (0..4u64)
            .map(|i| {
                let t = Tracer::new(rec.clone());
                std::thread::spawn(move || {
                    for j in 0..10 {
                        t.instant(Stage::WireIn, i * 100 + j, i + 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("thread");
        }
        assert_eq!(rec.ring_count(), 4);
        assert_eq!(rec.snapshot().len(), 40);
    }

    #[test]
    fn drain_clears() {
        let (rec, _clock) = recorder(8);
        let t = Tracer::new(rec.clone());
        t.instant(Stage::Quorum, 3, 0);
        assert_eq!(rec.drain().len(), 1);
        assert!(rec.snapshot().is_empty());
    }

    #[test]
    fn disabled_tracer_is_a_noop() {
        let t = Tracer::disabled();
        assert!(!t.enabled());
        t.instant(Stage::Submit, 1, 0);
        t.span(Stage::LogAppend, 1, 2, 0, 10);
        assert_eq!(t.now_us(), 0);
    }

    #[test]
    fn two_recorders_on_one_thread_do_not_cross_streams() {
        let clock = Arc::new(ManualClock::new());
        let a = Recorder::new(1, 8, clock.clone());
        let b = Recorder::new(2, 8, clock);
        Tracer::new(a.clone()).instant(Stage::Submit, 10, 0);
        Tracer::new(b.clone()).instant(Stage::Deliver, 20, 0);
        assert_eq!(a.snapshot().len(), 1);
        assert_eq!(a.snapshot()[0].zxid, 10);
        assert_eq!(b.snapshot().len(), 1);
        assert_eq!(b.snapshot()[0].zxid, 20);
    }

    #[test]
    fn timelines_group_by_zxid_and_attach_covering_spans() {
        let (rec, clock) = recorder(32);
        let t = Tracer::new(rec.clone());
        let z1 = (4u64 << 32) | 1;
        let z2 = (4u64 << 32) | 2;
        clock.set_micros(10);
        t.instant(Stage::ProposeEnqueue, z1, 0);
        clock.set_micros(11);
        t.instant(Stage::ProposeEnqueue, z2, 0);
        t.span(Stage::LogFsync, z1, z2, 12, 40);
        clock.set_micros(50);
        t.instant(Stage::Deliver, z1, 0);
        let tl = timelines(&rec.snapshot());
        assert_eq!(tl.len(), 2);
        let t1 = &tl[&z1];
        assert_eq!(
            t1.iter().map(|e| e.stage).collect::<Vec<_>>(),
            vec![Stage::ProposeEnqueue, Stage::LogFsync, Stage::Deliver]
        );
        assert!(tl[&z2].iter().any(|e| e.stage == Stage::LogFsync), "span covers z2 too");
    }

    #[test]
    fn stage_deltas_pair_consecutive_stages() {
        let (rec, clock) = recorder(32);
        let t = Tracer::new(rec.clone());
        clock.set_micros(100);
        t.instant(Stage::Submit, 9, 0);
        clock.set_micros(130);
        t.instant(Stage::ProposeEnqueue, 9, 0);
        clock.set_micros(190);
        t.instant(Stage::Deliver, 9, 0);
        let deltas = stage_deltas(&rec.snapshot());
        assert_eq!(deltas.len(), 2);
        assert_eq!(deltas[0].from, Stage::Submit);
        assert_eq!(deltas[0].to, Stage::ProposeEnqueue);
        assert_eq!(deltas[0].delta_us, 30);
        assert_eq!(deltas[1].delta_us, 60);
    }

    #[test]
    fn chrome_export_shape() {
        let (rec, clock) = recorder(32);
        let t = Tracer::new(rec.clone());
        let z = (3u64 << 32) | 7;
        clock.set_micros(1000);
        t.instant(Stage::Submit, z, 0);
        clock.set_micros(1500);
        t.instant(Stage::AckRx, z, 2);
        t.span(Stage::LogAppend, z, z, 1100, 1300);
        let json = chrome_trace_json(&rec.snapshot());
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("zab node 7"));
        assert!(json.contains("\"zxid\":\"3:7\""));
        assert!(json.contains("\"peer\":2"));
        assert!(json.contains("\"ph\":\"X\""), "storage span rendered as complete event");
        assert!(json.contains("\"dur\":200"));
        // Balanced braces — cheap well-formedness check.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn merge_sorts_across_nodes() {
        let clock = Arc::new(ManualClock::new());
        let a = Recorder::new(1, 8, clock.clone());
        let b = Recorder::new(2, 8, clock.clone());
        clock.set_micros(20);
        Tracer::new(a.clone()).instant(Stage::WireOut, 5, 2);
        clock.set_micros(10);
        Tracer::new(b.clone()).instant(Stage::WireIn, 5, 1);
        let merged = merge(vec![a.snapshot(), b.snapshot()]);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].node, 2);
        assert_eq!(merged[1].node, 1);
    }

    #[test]
    fn zxid_display_unpacks() {
        assert_eq!(zxid_display((4 << 32) | 17), "4:17");
        assert_eq!(zxid_display(0), "0:0");
    }

    #[test]
    fn parse_zxid_accepts_both_forms() {
        assert_eq!(parse_zxid("4294967299"), Some((1 << 32) | 3));
        assert_eq!(parse_zxid("1:3"), Some((1 << 32) | 3));
        assert_eq!(parse_zxid("0:0"), Some(0));
        for bad in ["x", "1:x", "4:", "4294967296:1", "1:4294967296"] {
            assert_eq!(parse_zxid(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn covers_matches_points_and_spans() {
        let z = (1u64 << 32) | 5;
        let event = |zxid, zxid_end, dur_us| TraceEvent {
            ts_us: 1,
            dur_us,
            node: 1,
            zxid,
            zxid_end,
            stage: Stage::LogAppend,
            peer: 0,
        };
        assert!(event(z, z, 0).covers(z));
        assert!(event((1 << 32) | 3, (1 << 32) | 7, 9).covers(z));
        assert!(!event((1 << 32) | 6, (1 << 32) | 6, 0).covers(z));
        assert!(!event((1 << 32) | 3, (1 << 32) | 7, 9).covers((9 << 32) | 1));
        // A span whose end lies before its start (a raw event with no
        // `zxid_end`) belongs to its start zxid only.
        assert!(event(z, 0, 4).covers(z));
        assert!(!event(z, 0, 4).covers(1));
    }

    #[test]
    fn json_escape_covers_quotes_backslashes_and_controls() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c\nd\te\u{1}"), "a\\\"b\\\\c\\nd\\u0009e\\u0001");
    }
}

//! Lock-light metrics and structured-tracing primitives for the Zab
//! reproduction.
//!
//! The DSN'11 evaluation is built around measured quantities — throughput
//! vs. ensemble size, latency vs. offered load, the win from multiple
//! outstanding transactions — so every layer of this workspace reports
//! into the same small vocabulary:
//!
//! - [`Counter`]: monotone `u64`, one atomic add on the hot path.
//! - [`Gauge`]: signed instantaneous level (queue depths, window sizes).
//! - [`Histogram`]: fixed log2-bucket latency/size distribution. Recording
//!   is three relaxed atomic ops; no allocation, no locking, no floats.
//! - [`Registry`]: name → instrument table. Registration takes a mutex;
//!   recorded values never do — callers hold `Arc` handles to the atomics.
//! - [`Snapshot`]: a point-in-time copy of everything, rendered for
//!   scrapers in the Prometheus text format ([`Snapshot::to_prometheus`]).
//! - [`Clock`] / [`Span`]: the tracing seam. A [`Span`] is a scoped timer
//!   that records its lifetime into a histogram on drop, so the hot path
//!   (request → propose → quorum ack → commit → deliver) reads as nested
//!   spans while costing two clock reads.
//!
//! Deterministic simulations plug in a [`ManualClock`] driven by virtual
//! time; real nodes use [`WallClock`] (monotonic `Instant`-based). Either
//! way the histograms are comparable and, crucially, *assertable*: the
//! chaos harness treats metric convergence across survivors as a
//! correctness oracle, not just an ops dashboard.
//!
//! No external dependencies, consistent with the vendored-offline policy
//! (DESIGN.md §5): everything here is `std`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A monotonically increasing counter.
///
/// ```
/// let c = zab_metrics::Counter::default();
/// c.inc();
/// c.add(2);
/// assert_eq!(c.get(), 3);
/// ```
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous level (queue depth, window size, …).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the level.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative via [`Gauge::sub`]).
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of log2 buckets. Bucket `i` (for `i >= 1`) covers values in
/// `[2^(i-1), 2^i)`; bucket 0 holds exact zeros. 64 buckets cover the
/// full `u64` range, so no value is ever clamped.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A fixed-bucket log2-scale histogram.
///
/// Values land in power-of-two buckets, giving ~2x resolution over the
/// whole `u64` range with a constant 65-slot footprint. Recording is
/// wait-free: one `fetch_add` into the bucket, one into `count`, one into
/// `sum`, plus a CAS loop for `max` (uncontended in practice).
///
/// ```
/// let h = zab_metrics::Histogram::default();
/// h.record(0);
/// h.record(1);
/// h.record(1000);
/// let s = h.snapshot();
/// assert_eq!(s.count, 3);
/// assert_eq!(s.sum, 1001);
/// assert_eq!(s.max, 1000);
/// ```
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// Bucket index for a value: 0 for 0, else `64 - leading_zeros` (so 1 → 1,
/// 2..4 → 2..3, etc.).
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive lower bound of bucket `i`.
fn bucket_lower_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        _ => 1u64 << (i - 1),
    }
}

/// Inclusive upper bound of bucket `i` (used as the percentile estimate).
fn bucket_upper_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        64 => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

impl Histogram {
    /// Records one observation.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Interpolated `q`-quantile of the live histogram — a snapshot plus
    /// [`HistogramSnapshot::quantile`]. Convenience for one-off reads
    /// (health summaries); take one snapshot yourself to read several
    /// quantiles consistently.
    pub fn quantile(&self, q: f64) -> u64 {
        self.snapshot().quantile(q)
    }

    /// Point-in-time copy. Concurrent recorders may land between field
    /// reads; the snapshot is internally *near*-consistent, which is all a
    /// monitoring read needs (deterministic tests snapshot quiesced state).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                buckets.push((bucket_lower_bound(i), n));
            }
        }
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// Frozen copy of a [`Histogram`]: `(bucket_lower_bound, count)` pairs for
/// the non-empty buckets, plus totals.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Largest observed value (0 if empty).
    pub max: u64,
    /// Non-empty buckets as `(inclusive lower bound, count)`, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Mean observation, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Interpolated estimate of the `q`-quantile (`q` in `[0, 1]`).
    ///
    /// Finds the log₂ bucket holding the rank-`⌈q·count⌉` observation and
    /// linearly interpolates the rank's position across the bucket's
    /// `[lower, upper]` value range — the standard assumption that
    /// observations are uniformly spread within a bucket. The top bucket's
    /// upper edge is clamped to the observed `max`, so the estimate never
    /// exceeds a value actually recorded. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let target = target.max(1);
        let mut cum = 0u64;
        for &(lo, n) in &self.buckets {
            if cum + n >= target {
                let hi = bucket_upper_bound(bucket_index(lo)).min(self.max);
                if hi <= lo {
                    return lo.min(self.max);
                }
                // Rank's fractional position within this bucket, in (0, 1].
                let frac = (target - cum) as f64 / n as f64;
                let est = lo as f64 + frac * (hi - lo) as f64;
                return (est.round() as u64).clamp(lo, hi);
            }
            cum += n;
        }
        self.max
    }
}

/// A point-in-time copy of every instrument in a [`Registry`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge levels by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// Counter value, or 0 if absent (an instrument nobody touched is
    /// indistinguishable from one at zero, by design).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge level, or 0 if absent.
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Histogram snapshot, if the histogram exists.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Sum of all counters whose name starts with `prefix` (per-peer
    /// rollups: `transport.bytes_out.` etc.).
    pub fn counter_sum(&self, prefix: &str) -> u64 {
        self.counters.iter().filter(|(k, _)| k.starts_with(prefix)).map(|(_, v)| v).sum()
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// (version 0.0.4): one `# TYPE` line per metric, names mangled via
    /// [`mangle_name`] (`.` → `_`), histograms as cumulative
    /// `_bucket{le="..."}` series (monotone by construction) closed by
    /// `le="+Inf"` equal to `_count`, plus `_sum` and `_count`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(2048);
        for (k, v) in &self.counters {
            let name = mangle_name(k);
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {v}");
        }
        for (k, v) in &self.gauges {
            let name = mangle_name(k);
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {v}");
        }
        for (k, h) in &self.histograms {
            let name = mangle_name(k);
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut cum = 0u64;
            for &(lo, n) in &h.buckets {
                cum += n;
                let ub = bucket_upper_bound(bucket_index(lo));
                // The top bucket's upper edge is unbounded; it is covered
                // by the mandatory +Inf series below.
                if ub != u64::MAX {
                    let _ = writeln!(out, "{name}_bucket{{le=\"{ub}\"}} {cum}");
                }
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
            let _ = writeln!(out, "{name}_sum {}", h.sum);
            let _ = writeln!(out, "{name}_count {}", h.count);
        }
        out
    }
}

/// Mangles an instrument name (`layer.metric[_unit][.peer]`) into a valid
/// Prometheus metric name (`[a-zA-Z_:][a-zA-Z0-9_:]*`): every other
/// character becomes `_`, and a leading digit gains a `_` prefix.
pub fn mangle_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
            out.push(c);
        } else if ok {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Sanitizes one dotted-key *component* (a peer id in the
/// `layer.metric.peer` convention): anything outside `[A-Za-z0-9_-]` —
/// most importantly `.`, which would make the key ambiguous to split —
/// becomes `_`. An empty component becomes `_`.
pub fn sanitize_component(component: &str) -> String {
    if component.is_empty() {
        return "_".to_string();
    }
    component
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '_' || c == '-' { c } else { '_' })
        .collect()
}

/// Builds a per-peer metric key `base.peer` with the peer component
/// sanitized via [`sanitize_component`], so `layer.metric.peer` keys stay
/// unambiguous to parse no matter what the peer id contains.
pub fn peer_metric(base: &str, peer: impl std::fmt::Display) -> String {
    format!("{base}.{}", sanitize_component(&peer.to_string()))
}

/// Interior tables of a [`Registry`].
#[derive(Debug, Default)]
struct Tables {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<Histogram>>,
}

/// A name → instrument table.
///
/// Registration (`counter`/`gauge`/`histogram`) takes a mutex and is
/// expected at setup time or on rare events (a new peer connecting);
/// recording through the returned `Arc` handles is lock-free. Naming
/// convention (see DESIGN.md §9): `layer.metric[_unit][.peer]`, e.g.
/// `core.quorum_ack_latency_us` or `transport.bytes_out.3`.
#[derive(Debug, Default)]
pub struct Registry {
    tables: Mutex<Tables>,
}

/// A locked registry table, recovered from poisoning: metrics must never
/// amplify a panic elsewhere into a second one.
fn lock_tables(tables: &Mutex<Tables>) -> std::sync::MutexGuard<'_, Tables> {
    match tables.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Get-or-create the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut t = lock_tables(&self.tables);
        match t.counters.get(name) {
            Some(c) => Arc::clone(c),
            None => {
                let c = Arc::new(Counter::default());
                t.counters.insert(name.to_string(), Arc::clone(&c));
                c
            }
        }
    }

    /// Get-or-create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut t = lock_tables(&self.tables);
        match t.gauges.get(name) {
            Some(g) => Arc::clone(g),
            None => {
                let g = Arc::new(Gauge::default());
                t.gauges.insert(name.to_string(), Arc::clone(&g));
                g
            }
        }
    }

    /// Get-or-create the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut t = lock_tables(&self.tables);
        match t.histograms.get(name) {
            Some(h) => Arc::clone(h),
            None => {
                let h = Arc::new(Histogram::default());
                t.histograms.insert(name.to_string(), Arc::clone(&h));
                h
            }
        }
    }

    /// Copies every instrument into a [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        let t = lock_tables(&self.tables);
        Snapshot {
            counters: t.counters.iter().map(|(k, c)| (k.clone(), c.get())).collect(),
            gauges: t.gauges.iter().map(|(k, g)| (k.clone(), g.get())).collect(),
            histograms: t.histograms.iter().map(|(k, h)| (k.clone(), h.snapshot())).collect(),
        }
    }
}

/// The time source metrics timers read. Real nodes use [`WallClock`];
/// deterministic simulations drive a [`ManualClock`] from virtual time so
/// latency histograms are exactly reproducible.
pub trait Clock: Send + Sync {
    /// Monotonic microseconds since an arbitrary origin.
    fn now_micros(&self) -> u64;

    /// Monotonic milliseconds since the same origin.
    fn now_millis(&self) -> u64 {
        self.now_micros() / 1_000
    }

    /// When `now_micros` is exactly `(rdtsc() − origin) × mult >> 32`,
    /// returns `Some((origin, mult))` so hot paths (the flight recorder's
    /// record call) can inline the read and skip the virtual dispatch —
    /// the clock data then travels in the caller's own cache lines
    /// instead of forcing a cold load of the clock object per event.
    /// Default `None`: callers must fall back to [`Clock::now_micros`].
    fn raw_tsc_scale(&self) -> Option<(u64, u64)> {
        None
    }
}

/// Monotonic wall clock: microseconds since construction, backed by
/// [`std::time::Instant`] (never goes backwards, unaffected by NTP steps —
/// the property `replica.rs` needs when comparing timestamps across an
/// election restart).
///
/// On Linux/x86-64 hosts whose kernel clocksource is already `tsc`, reads
/// come from a raw `rdtsc` scaled by a once-per-process calibration
/// instead of `clock_gettime`. The flight recorder stamps every pipeline
/// stage, so at saturation the clock read is the single largest per-event
/// cost; skipping the vdso's seqlock and ns conversion cuts it from
/// ~35 ns to ~10 ns. The kernel-clocksource gate matters: it is the
/// kernel's own attestation that the TSC is invariant and synchronized
/// across cores, exactly the property `clock_gettime` would have relied
/// on. Anywhere that doesn't hold, construction falls back to `Instant`.
#[derive(Debug, Clone)]
pub struct WallClock {
    origin: Instant,
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    tsc: Option<TscScale>,
}

impl WallClock {
    /// A clock whose origin is "now".
    pub fn new() -> WallClock {
        WallClock {
            origin: Instant::now(),
            #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
            tsc: TscScale::capture(),
        }
    }
}

impl Default for WallClock {
    fn default() -> WallClock {
        WallClock::new()
    }
}

impl Clock for WallClock {
    fn now_micros(&self) -> u64 {
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        if let Some(t) = self.tsc {
            return t.micros_since_origin();
        }
        // Saturating: a u64 of microseconds is ~584k years of uptime.
        u64::try_from(self.origin.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    fn raw_tsc_scale(&self) -> Option<(u64, u64)> {
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        {
            self.tsc.map(|t| (t.origin, t.mult))
        }
        #[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
        {
            None
        }
    }
}

/// Scale factor mapping raw TSC ticks to microseconds:
/// `µs = (ticks × mult) >> 32` (32.32 fixed point, so quantization error
/// is sub-ppm). All
/// clocks in a process share one calibration, which keeps their *rates*
/// identical — cross-node trace stitching inside one bench process then
/// sees pure offsets, never skew.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
#[derive(Debug, Clone, Copy)]
struct TscScale {
    origin: u64,
    mult: u64,
}

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
impl TscScale {
    fn capture() -> Option<TscScale> {
        let mult = tsc_mult()?;
        // SAFETY: `_rdtsc` reads the time-stamp counter register; it
        // accesses no memory and is available on every x86-64 CPU.
        let origin = unsafe { core::arch::x86_64::_rdtsc() };
        Some(TscScale { origin, mult })
    }

    fn micros_since_origin(self) -> u64 {
        // SAFETY: as in `capture`.
        let now = unsafe { core::arch::x86_64::_rdtsc() };
        let ticks = now.wrapping_sub(self.origin);
        // u128 intermediate: ticks × mult can exceed 64 bits long before
        // the clock itself would overflow.
        ((u128::from(ticks) * u128::from(self.mult)) >> 32) as u64
    }
}

/// Once-per-process TSC calibration: `Some(mult)` when the kernel's
/// clocksource is `tsc` (its guarantee that the counter is invariant and
/// core-synchronized), `None` otherwise. Calibrates ticks-per-µs against
/// `Instant` over a ~5 ms sleep — sampling jitter of ~100 ns on a 5 ms
/// baseline bounds the rate error around 20 ppm, far below what µs
/// timestamps can express across a trace window.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn tsc_mult() -> Option<u64> {
    use std::sync::OnceLock;
    static MULT: OnceLock<Option<u64>> = OnceLock::new();
    *MULT.get_or_init(|| {
        let src = std::fs::read_to_string(
            "/sys/devices/system/clocksource/clocksource0/current_clocksource",
        )
        .ok()?;
        if src.trim() != "tsc" {
            return None;
        }
        let wall = Instant::now();
        // SAFETY: as in `TscScale::capture`.
        let t0 = unsafe { core::arch::x86_64::_rdtsc() };
        std::thread::sleep(std::time::Duration::from_millis(5));
        let elapsed = wall.elapsed();
        // SAFETY: as in `TscScale::capture`.
        let t1 = unsafe { core::arch::x86_64::_rdtsc() };
        let ticks = t1.wrapping_sub(t0);
        let us = u64::try_from(elapsed.as_micros()).ok()?;
        if ticks == 0 || us == 0 {
            return None;
        }
        u64::try_from((u128::from(us) << 32) / u128::from(ticks)).ok()
    })
}

/// Manually driven clock for deterministic tests and the simulator.
#[derive(Debug, Default)]
pub struct ManualClock(AtomicU64);

impl ManualClock {
    /// A clock at time zero.
    pub fn new() -> ManualClock {
        ManualClock::default()
    }

    /// Sets the absolute time in microseconds.
    pub fn set_micros(&self, us: u64) {
        self.0.store(us, Ordering::Relaxed);
    }

    /// Advances the clock by `us` microseconds.
    pub fn advance_micros(&self, us: u64) {
        self.0.fetch_add(us, Ordering::Relaxed);
    }
}

impl Clock for ManualClock {
    fn now_micros(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A scoped timer: starts on construction, records elapsed microseconds
/// into its histogram when dropped (or explicitly via [`Span::finish`]).
/// This is the tracing primitive — nest spans to trace the
/// propose→ack→commit→deliver pipeline.
///
/// ```
/// use zab_metrics::{Clock, ManualClock, Registry, Span};
/// let reg = Registry::new();
/// let clock = std::sync::Arc::new(ManualClock::new());
/// {
///     let _span = Span::start(reg.histogram("demo.latency_us"), clock.clone());
///     clock.advance_micros(250);
/// } // drop records 250
/// assert_eq!(reg.snapshot().histogram("demo.latency_us").unwrap().sum, 250);
/// ```
pub struct Span {
    hist: Arc<Histogram>,
    clock: Arc<dyn Clock>,
    start_us: u64,
    done: bool,
}

impl Span {
    /// Starts timing now.
    pub fn start(hist: Arc<Histogram>, clock: Arc<dyn Clock>) -> Span {
        let start_us = clock.now_micros();
        Span { hist, clock, start_us, done: false }
    }

    /// Stops the timer, records the elapsed microseconds, and returns them.
    pub fn finish(mut self) -> u64 {
        self.done = true;
        let elapsed = self.clock.now_micros().saturating_sub(self.start_us);
        self.hist.record(elapsed);
        elapsed
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.done {
            let elapsed = self.clock.now_micros().saturating_sub(self.start_us);
            self.hist.record(elapsed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::default();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        let g = Gauge::default();
        g.set(5);
        g.add(3);
        g.sub(10);
        assert_eq!(g.get(), -2);
    }

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        // Bounds agree with the index mapping at every power of two.
        for i in 1..64 {
            let lo = bucket_lower_bound(i);
            assert_eq!(bucket_index(lo), i);
            assert_eq!(bucket_index(bucket_upper_bound(i)), i);
        }
    }

    #[test]
    fn histogram_records_and_snapshots() {
        let h = Histogram::default();
        h.record(0);
        h.record(1);
        h.record(3);
        h.record(1000);
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 1004);
        assert_eq!(s.max, 1000);
        // 0 → bucket 0; 1 → [1,2); 3 → [2,4); 1000 → [512,1024).
        assert_eq!(s.buckets, vec![(0, 1), (1, 1), (2, 1), (512, 1)]);
        assert!((s.mean() - 251.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_quantiles_interpolate_within_buckets() {
        let h = Histogram::default();
        for _ in 0..90 {
            h.record(10); // bucket [8,15]
        }
        for _ in 0..10 {
            h.record(1_000_000); // bucket [2^19, 2^20)
        }
        let s = h.snapshot();
        // Rank 50 of 90 in [8,15]: 8 + (50/90)·7 ≈ 11.9 → 12.
        assert_eq!(s.quantile(0.5), 12);
        // p99 (rank 99) is the 9th of 10 observations in the top bucket,
        // whose upper edge clamps to max = 1,000,000.
        let p99 = s.quantile(0.99);
        assert!((524_288..=1_000_000).contains(&p99), "p99 = {p99}");
        assert!(p99 > 900_000, "rank near bucket top: {p99}");
        // q=0 resolves to rank 1, the bottom of the first non-empty bucket.
        assert!((8..=15).contains(&s.quantile(0.0)));
        // q=1 never exceeds the observed max.
        assert_eq!(s.quantile(1.0), s.max);
        let empty = HistogramSnapshot::default();
        assert_eq!(empty.quantile(0.5), 0);
    }

    #[test]
    fn histogram_quantile_is_monotone_and_bounded() {
        let h = Histogram::default();
        for v in [0u64, 1, 2, 3, 5, 9, 17, 40, 100, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        let mut prev = 0;
        for i in 0..=100 {
            let q = s.quantile(i as f64 / 100.0);
            assert!(q >= prev, "quantile not monotone at q={i}: {q} < {prev}");
            assert!(q <= s.max);
            prev = q;
        }
        // Convenience form on the live histogram matches the snapshot.
        assert_eq!(h.quantile(0.5), s.quantile(0.5));
    }

    #[test]
    fn histogram_quantile_exact_for_single_value_buckets() {
        // Values 0 and 1 live in width-1 buckets: interpolation must be
        // exact, not merely close.
        let h = Histogram::default();
        for _ in 0..4 {
            h.record(0);
        }
        for _ in 0..6 {
            h.record(1);
        }
        let s = h.snapshot();
        assert_eq!(s.quantile(0.25), 0);
        assert_eq!(s.quantile(0.9), 1);
    }

    #[test]
    fn registry_get_or_create_shares_instruments() {
        let reg = Registry::new();
        reg.counter("a").inc();
        reg.counter("a").inc();
        reg.gauge("g").set(7);
        reg.histogram("h").record(9);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("a"), 2);
        assert_eq!(snap.counter("missing"), 0);
        assert_eq!(snap.gauge("g"), 7);
        assert_eq!(snap.histogram("h").map(|h| h.count), Some(1));
    }

    #[test]
    fn counter_sum_rolls_up_prefix() {
        let reg = Registry::new();
        reg.counter("transport.bytes_out.1").add(10);
        reg.counter("transport.bytes_out.2").add(20);
        reg.counter("transport.bytes_in.1").add(99);
        let snap = reg.snapshot();
        assert_eq!(snap.counter_sum("transport.bytes_out."), 30);
    }

    #[test]
    fn manual_clock_and_span() {
        let clock = Arc::new(ManualClock::new());
        clock.set_micros(100);
        assert_eq!(clock.now_micros(), 100);
        assert_eq!(clock.now_millis(), 0);
        clock.advance_micros(2_000);
        assert_eq!(clock.now_millis(), 2);

        let reg = Registry::new();
        let span = Span::start(reg.histogram("span_us"), clock.clone());
        clock.advance_micros(500);
        assert_eq!(span.finish(), 500);
        // Drop path records too.
        {
            let _s = Span::start(reg.histogram("span_us"), clock.clone());
            clock.advance_micros(7);
        }
        let snap = reg.snapshot();
        let h = snap.histogram("span_us").cloned().unwrap_or_default();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 507);
    }

    #[test]
    fn wall_clock_is_monotonic() {
        let c = WallClock::new();
        let a = c.now_micros();
        let b = c.now_micros();
        assert!(b >= a);
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let reg = Arc::new(Registry::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let reg = Arc::clone(&reg);
            handles.push(std::thread::spawn(move || {
                let c = reg.counter("shared");
                let h = reg.histogram("shared_h");
                for i in 0..1000u64 {
                    c.inc();
                    h.record(i);
                }
            }));
        }
        for h in handles {
            let _ = h.join();
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counter("shared"), 4000);
        assert_eq!(snap.histogram("shared_h").map(|h| h.count), Some(4000));
    }

    #[test]
    fn mangle_name_maps_dots_and_edge_cases() {
        assert_eq!(mangle_name("core.proposals_committed"), "core_proposals_committed");
        assert_eq!(mangle_name("transport.bytes_out.2"), "transport_bytes_out_2");
        assert_eq!(mangle_name("weird name-here"), "weird_name_here");
        assert_eq!(mangle_name("2fast"), "_2fast");
        assert_eq!(mangle_name(""), "_");
    }

    #[test]
    fn peer_component_with_dot_is_sanitized() {
        // The bug: "transport.bytes_out" + peer "10.0.0.1" used to yield
        // "transport.bytes_out.10.0.0.1" — ambiguous to split on '.'.
        assert_eq!(peer_metric("transport.bytes_out", "10.0.0.1"), "transport.bytes_out.10_0_0_1");
        assert_eq!(peer_metric("transport.frames_in", 3u64), "transport.frames_in.3");
        assert_eq!(sanitize_component("a.b"), "a_b");
        assert_eq!(sanitize_component("ok_name-7"), "ok_name-7");
        assert_eq!(sanitize_component("sp ace/slash"), "sp_ace_slash");
        assert_eq!(sanitize_component(""), "_");
        // Sanitized keys split unambiguously: exactly one extra component.
        let key = peer_metric("layer.metric", "evil.peer.name");
        assert_eq!(key.matches('.').count(), "layer.metric".matches('.').count() + 1);
    }

    #[test]
    fn peer_metric_collision_domain_is_understood() {
        // Sanitization is lossy by design: every rejected character maps to
        // `_`, so distinct raw peers CAN collide. Pin the collision classes
        // so a future "fix" that silently changes key shapes trips here.
        assert_eq!(peer_metric("t.b", "10.0.0.1"), peer_metric("t.b", "10 0 0 1"));
        assert_eq!(peer_metric("t.b", "a.b"), peer_metric("t.b", "a/b"));
        assert_eq!(sanitize_component("."), sanitize_component(" "));
        // The empty peer collides with a single rejected character…
        assert_eq!(peer_metric("t.b", ""), peer_metric("t.b", "."));
        // …but survivor characters never collide with each other: the map
        // is the identity on `[A-Za-z0-9_-]`, so the ids we actually use
        // (numeric ServerIds, hostnames without dots) stay injective.
        for a in 0u64..20 {
            for b in 0u64..20 {
                if a != b {
                    assert_ne!(
                        peer_metric("core.follower_lag", a),
                        peer_metric("core.follower_lag", b)
                    );
                }
            }
        }
        assert_eq!(sanitize_component("node-7_x"), "node-7_x");
        // A registry keyed by sanitized names merges colliding peers into
        // one instrument rather than corrupting anything.
        let reg = Registry::new();
        reg.counter(&peer_metric("t.c", "a.b")).inc();
        reg.counter(&peer_metric("t.c", "a_b")).inc();
        assert_eq!(reg.snapshot().counter("t.c.a_b"), 2);
    }

    /// Minimal Prometheus text-format parser for the round-trip test:
    /// returns `(metric_name, le_label_if_any, value)` per sample line.
    fn parse_prometheus(text: &str) -> Vec<(String, Option<String>, f64)> {
        let mut out = Vec::new();
        for line in text.lines() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (name_part, value) = line.rsplit_once(' ').expect("sample line has a value");
            let value: f64 = value.parse().expect("numeric value");
            let (name, le) = match name_part.split_once('{') {
                None => (name_part.to_string(), None),
                Some((n, rest)) => {
                    let labels = rest.strip_suffix('}').expect("closed label set");
                    let le = labels
                        .strip_prefix("le=\"")
                        .and_then(|s| s.strip_suffix('"'))
                        .map(|s| s.to_string());
                    assert!(le.is_some(), "only le labels are emitted: {line}");
                    (n.to_string(), le)
                }
            };
            out.push((name, le, value));
        }
        out
    }

    #[test]
    fn prometheus_renderer_round_trips() {
        let reg = Registry::new();
        reg.counter("core.proposals_committed").add(42);
        reg.gauge("node.commit_inflight").set(-3);
        let h = reg.histogram("node.commit_latency_ms");
        for v in [0, 1, 1, 3, 9, 200, 70_000] {
            h.record(v);
        }
        let snap = reg.snapshot();
        let text = snap.to_prometheus();

        let samples = parse_prometheus(&text);
        let get = |name: &str| -> f64 {
            samples
                .iter()
                .find(|(n, le, _)| n == name && le.is_none())
                .map(|(_, _, v)| *v)
                .unwrap_or_else(|| panic!("missing sample {name}"))
        };
        assert_eq!(get("core_proposals_committed"), 42.0);
        assert_eq!(get("node_commit_inflight"), -3.0);
        assert_eq!(get("node_commit_latency_ms_count"), 7.0);
        assert_eq!(get("node_commit_latency_ms_sum"), f64::from(1 + 1 + 3 + 9 + 200 + 70_000));

        // Bucket series: le edges strictly increasing, cumulative counts
        // monotone, and +Inf equals _count.
        let buckets: Vec<(f64, f64)> = samples
            .iter()
            .filter(|(n, le, _)| n == "node_commit_latency_ms_bucket" && le.is_some())
            .map(|(_, le, v)| {
                let le = le.as_deref().expect("le present");
                let edge =
                    if le == "+Inf" { f64::INFINITY } else { le.parse().expect("numeric le") };
                (edge, *v)
            })
            .collect();
        assert!(buckets.len() >= 2, "expected several buckets, got {buckets:?}");
        assert!(buckets.windows(2).all(|w| w[0].0 < w[1].0), "le edges not monotone");
        assert!(buckets.windows(2).all(|w| w[0].1 <= w[1].1), "cumulative counts not monotone");
        let (last_edge, last_cum) = buckets[buckets.len() - 1];
        assert_eq!(last_edge, f64::INFINITY, "bucket series must end at +Inf");
        assert_eq!(last_cum, 7.0, "+Inf bucket must equal _count");

        // Every non-comment line lints as `name[{le="..."}] value`.
        for line in text.lines().filter(|l| !l.is_empty() && !l.starts_with('#')) {
            let name = line.split([' ', '{']).next().expect("name");
            assert!(
                !name.is_empty()
                    && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
                    && !name.starts_with(|c: char| c.is_ascii_digit()),
                "invalid exposition name in line: {line}"
            );
        }
    }

    #[test]
    fn prometheus_types_precede_samples() {
        let reg = Registry::new();
        reg.counter("a.count").inc();
        reg.histogram("b.lat_us").record(5);
        let text = reg.snapshot().to_prometheus();
        let lines: Vec<&str> = text.lines().collect();
        let type_a = lines.iter().position(|l| *l == "# TYPE a_count counter").expect("TYPE a");
        let sample_a = lines.iter().position(|l| *l == "a_count 1").expect("sample a");
        assert!(type_a < sample_a);
        assert!(lines.contains(&"# TYPE b_lat_us histogram"));
    }

    #[test]
    fn wall_clock_is_monotone_and_tracks_real_time() {
        // Exercises whichever backend construction picked (calibrated TSC
        // on eligible hosts, `Instant` elsewhere): readings never go
        // backwards and a real 50 ms sleep registers as at least ~45 ms.
        // No tight upper bound — CI sleeps can overshoot arbitrarily.
        let clock = WallClock::new();
        let mut last = clock.now_micros();
        for _ in 0..10_000 {
            let now = clock.now_micros();
            assert!(now >= last, "clock went backwards: {now} < {last}");
            last = now;
        }
        let before = clock.now_micros();
        std::thread::sleep(std::time::Duration::from_millis(50));
        let elapsed = clock.now_micros() - before;
        assert!(elapsed >= 45_000, "50 ms sleep measured as {elapsed} µs");
        assert!(clock.now_millis() >= elapsed / 1_000);
    }
}

//! Storage-layer metrics (DESIGN.md §9).
//!
//! [`LogMetrics`] bundles the instruments both storage implementations
//! record into: append/flush latency histograms (wall microseconds by
//! default — a [`zab_metrics::ManualClock`] can be injected for
//! deterministic tests), fsync and append counters, compaction count and
//! latency, recovery truncations, and injected-fault counts from the
//! [`crate::fault`] plan.
//!
//! Storage objects default to a standalone bundle; drivers surface the
//! numbers by building one with [`LogMetrics::registered`] and injecting
//! it via [`crate::Storage::set_metrics`].

use std::fmt;
use std::sync::Arc;
use zab_metrics::{Clock, Counter, Histogram, Registry, WallClock};
use zab_trace::Tracer;

/// Instrument bundle recorded by [`crate::MemStorage`] and
/// [`crate::FileStorage`].
#[derive(Clone)]
pub struct LogMetrics {
    /// `append_txns` calls that succeeded.
    pub appends: Arc<Counter>,
    /// Latency of successful appends, in clock microseconds.
    pub append_latency_us: Arc<Histogram>,
    /// Durability barriers performed (`sync_data` for the file store,
    /// journal migration for the memory store).
    pub fsyncs: Arc<Counter>,
    /// Latency of successful flushes, in clock microseconds.
    pub flush_latency_us: Arc<Histogram>,
    /// Successful `compact` and `reset_to_snapshot` calls.
    pub compactions: Arc<Counter>,
    /// Latency of those calls, in clock microseconds: the stall a
    /// compaction puts in front of the appends queued behind it.
    pub compact_latency_us: Arc<Histogram>,
    /// Torn log tails discarded during recovery.
    pub recovery_truncations: Arc<Counter>,
    /// Faults fired by an installed [`crate::FaultPlan`].
    pub injected_faults: Arc<Counter>,
    /// Time source for the latency histograms.
    pub clock: Arc<dyn Clock>,
    /// Flight-recorder handle: append/fsync spans attributed to the zxid
    /// range they cover (disabled by default).
    pub tracer: Tracer,
}

impl fmt::Debug for LogMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LogMetrics")
            .field("appends", &self.appends.get())
            .field("fsyncs", &self.fsyncs.get())
            .field("compactions", &self.compactions.get())
            .field("recovery_truncations", &self.recovery_truncations.get())
            .field("injected_faults", &self.injected_faults.get())
            .finish_non_exhaustive()
    }
}

impl LogMetrics {
    /// Fresh instruments not attached to any registry, timed by a wall
    /// clock. The storage implementations default to this.
    pub fn standalone() -> LogMetrics {
        LogMetrics {
            appends: Arc::new(Counter::default()),
            append_latency_us: Arc::new(Histogram::default()),
            fsyncs: Arc::new(Counter::default()),
            flush_latency_us: Arc::new(Histogram::default()),
            compactions: Arc::new(Counter::default()),
            compact_latency_us: Arc::new(Histogram::default()),
            recovery_truncations: Arc::new(Counter::default()),
            injected_faults: Arc::new(Counter::default()),
            clock: Arc::new(WallClock::new()),
            tracer: Tracer::disabled(),
        }
    }

    /// Instruments registered under the `log.` namespace of `reg`.
    pub fn registered(reg: &Registry) -> LogMetrics {
        LogMetrics {
            appends: reg.counter("log.appends"),
            append_latency_us: reg.histogram("log.append_latency_us"),
            fsyncs: reg.counter("log.fsyncs"),
            flush_latency_us: reg.histogram("log.flush_latency_us"),
            compactions: reg.counter("log.compactions"),
            compact_latency_us: reg.histogram("log.compact_latency_us"),
            recovery_truncations: reg.counter("log.recovery_truncations"),
            injected_faults: reg.counter("log.injected_faults"),
            clock: Arc::new(WallClock::new()),
            tracer: Tracer::disabled(),
        }
    }

    /// Replaces the latency clock (deterministic tests inject a
    /// [`zab_metrics::ManualClock`]).
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> LogMetrics {
        self.clock = clock;
        self
    }

    /// Counts one finished compaction (or snapshot reset) that began at
    /// `start_us` on the bundle's clock.
    pub(crate) fn record_compaction(&self, start_us: u64) {
        self.compactions.inc();
        self.compact_latency_us.record(self.clock.now_micros().saturating_sub(start_us));
    }

    /// Attaches a flight-recorder handle; storage then records
    /// append/fsync spans attributed to the zxid range of each batch.
    /// The tracer should share the bundle's clock so span timestamps and
    /// lifecycle events live on one timeline.
    pub fn with_tracer(mut self, tracer: Tracer) -> LogMetrics {
        self.tracer = tracer;
        self
    }
}

impl Default for LogMetrics {
    fn default() -> LogMetrics {
        LogMetrics::standalone()
    }
}

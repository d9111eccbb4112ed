//! Bounded admission control for the submit path (DESIGN.md §5c).
//!
//! Two pieces, both owned by the [`crate::Replica`]:
//!
//! - [`SubmitGate`]: a counting gate over the replica's own in-flight
//!   submissions. The PR-4 gate was a single mutex whose `release` called
//!   `Condvar::notify_all` — under producer contention every blocked
//!   thread woke for each freed slot, stampeded the mutex, and all but
//!   one went back to sleep (a thundering herd that grows with the
//!   producer count). This gate counts waiters and hands freed slots off
//!   with at most one `notify_one` per slot. It also exposes
//!   *non-blocking* admission ([`SubmitGate::try_acquire`]) and
//!   deadline-bounded admission, so callers can **shed** load visibly
//!   instead of queueing without bound.
//! - [`AdaptiveWindow`]: a latency-target AIMD controller that moves the
//!   gate's capacity toward the commit pipeline's observed sweet spot.
//!   `throughput_vs_outstanding` (BENCH_broadcast.json) shows the
//!   throughput knee between 128 and 512 outstanding on the reference
//!   box, so the window is seeded at 256 and then steered: when the
//!   observed commit latency climbs well past the no-load floor the
//!   window only buys queueing delay, so it shrinks multiplicatively;
//!   when latency sits at the floor there is headroom, so it grows.
//!
//! Shed-don't-queue is the paper-shaped overload behavior: Figure 2's
//! latency-vs-load curve is flat to a knee near saturation and then
//! *plateaus*, which is only possible if offered load past capacity is
//! refused at admission. A gate that blocks (or a queue that grows)
//! converts overload into unbounded latency for every accepted request —
//! the measured 36 s p99 cliff this module replaces.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Instant;

/// Outcome of an admission attempt against the gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admission {
    /// A slot was taken; the caller must arrange exactly one release.
    Admitted,
    /// The window is full; nothing was queued and no slot is held.
    Shed,
}

struct GateState {
    in_flight: usize,
    /// Producers currently blocked in a timed or untimed wait.
    waiters: usize,
    /// Times any waiter returned from `Condvar::wait*` (herd diagnostic:
    /// with slot handoff this tracks releases, not releases × waiters).
    wakeups: u64,
    closed: bool,
}

/// Counting admission gate with `notify_one` slot handoff.
///
/// Capacity is dynamic ([`SubmitGate::set_cap`]): the adaptive controller
/// retunes it live. Shrinking never evicts in-flight submissions — the
/// gate simply refuses new admissions until deliveries drain below the
/// new cap.
pub(crate) struct SubmitGate {
    cap: AtomicUsize,
    /// Mirror of `GateState::in_flight`, written under the lock and read
    /// without it by [`SubmitGate::try_acquire`]'s shed fast path. Under
    /// heavy overload the shed rate can exceed the commit rate by an
    /// order of magnitude; deciding those sheds with two relaxed loads
    /// instead of a lock keeps the refusal path from contending with the
    /// event loop's release path for the gate mutex.
    in_flight_hint: AtomicUsize,
    /// Mirror of `GateState::closed` for the same fast path.
    closed_hint: AtomicBool,
    state: Mutex<GateState>,
    freed: Condvar,
}

impl SubmitGate {
    pub(crate) fn new(cap: usize) -> SubmitGate {
        SubmitGate {
            cap: AtomicUsize::new(cap.max(1)),
            in_flight_hint: AtomicUsize::new(0),
            closed_hint: AtomicBool::new(false),
            state: Mutex::new(GateState { in_flight: 0, waiters: 0, wakeups: 0, closed: false }),
            freed: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, GateState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Current capacity (the adaptive window's live value).
    pub(crate) fn cap(&self) -> usize {
        self.cap.load(Ordering::Relaxed)
    }

    /// Retunes the capacity. Growth wakes just enough blocked producers
    /// to fill the new slots; shrinking lets in-flight drain naturally.
    pub(crate) fn set_cap(&self, new_cap: usize) {
        let new_cap = new_cap.max(1);
        let old = self.cap.swap(new_cap, Ordering::Relaxed);
        if new_cap > old {
            let s = self.lock();
            let wake = (new_cap - old).min(s.waiters);
            drop(s);
            for _ in 0..wake {
                self.freed.notify_one();
            }
        }
    }

    /// Non-blocking admission: takes a slot if the window has room,
    /// sheds otherwise. A closed gate admits (the caller's send will
    /// fail and release the slot; this preserves shutdown semantics).
    pub(crate) fn try_acquire(&self) -> Admission {
        // Lock-free shed fast path: the hint lags the canonical count by
        // at most an in-progress release, so a full-looking gate may shed
        // an op that a microsecond-fresher view would have admitted —
        // harmless for an overload refusal, and it keeps the (possibly
        // very hot) shed path off the mutex. Admission itself is always
        // decided exactly, under the lock.
        if self.in_flight_hint.load(Ordering::Relaxed) >= self.cap()
            && !self.closed_hint.load(Ordering::Relaxed)
        {
            return Admission::Shed;
        }
        let mut s = self.lock();
        if s.in_flight >= self.cap() && !s.closed {
            return Admission::Shed;
        }
        s.in_flight += 1;
        self.in_flight_hint.store(s.in_flight, Ordering::Relaxed);
        Admission::Admitted
    }

    /// Blocking admission with an optional deadline. `None` waits until a
    /// slot frees or the gate closes (the legacy closed-loop behavior);
    /// `Some(deadline)` sheds if no slot frees in time.
    pub(crate) fn acquire(&self, deadline: Option<Instant>) -> Admission {
        let mut s = self.lock();
        while s.in_flight >= self.cap() && !s.closed {
            s.waiters += 1;
            let (guard, timed_out) = match deadline {
                None => (self.freed.wait(s).unwrap_or_else(PoisonError::into_inner), false),
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        s.waiters -= 1;
                        return Admission::Shed;
                    }
                    let (g, r) =
                        self.freed.wait_timeout(s, d - now).unwrap_or_else(PoisonError::into_inner);
                    (g, r.timed_out())
                }
            };
            s = guard;
            s.waiters -= 1;
            s.wakeups += 1;
            if timed_out && s.in_flight >= self.cap() && !s.closed {
                return Admission::Shed;
            }
        }
        s.in_flight += 1;
        self.in_flight_hint.store(s.in_flight, Ordering::Relaxed);
        Admission::Admitted
    }

    /// Returns `n` slots and wakes at most `n` blocked producers — one
    /// `notify_one` per freed slot, never a herd.
    pub(crate) fn release(&self, n: usize) {
        if n == 0 {
            return;
        }
        let mut s = self.lock();
        s.in_flight = s.in_flight.saturating_sub(n);
        self.in_flight_hint.store(s.in_flight, Ordering::Relaxed);
        let wake = n.min(s.waiters);
        drop(s);
        for _ in 0..wake {
            self.freed.notify_one();
        }
    }

    /// Unblocks every waiter for good (shutdown). The one justified
    /// `notify_all`: the condition is terminal, so every woken thread
    /// makes progress.
    pub(crate) fn close(&self) {
        let mut s = self.lock();
        s.closed = true;
        self.closed_hint.store(true, Ordering::Relaxed);
        drop(s);
        self.freed.notify_all();
    }

    /// Own submissions currently holding slots.
    #[cfg(test)]
    pub(crate) fn in_flight(&self) -> usize {
        self.lock().in_flight
    }

    /// Cumulative waiter wakeups (see [`GateState::wakeups`]).
    #[cfg(test)]
    pub(crate) fn wakeups(&self) -> u64 {
        self.lock().wakeups
    }
}

/// Latency-target AIMD controller for the gate capacity.
///
/// Feeds on the primary's own commit latencies (submit accepted →
/// delivered, in driver milliseconds) and periodically re-targets the
/// window:
///
/// - A **no-load floor** is tracked as a windowed minimum of per-interval
///   latency minima (two rotating buckets, so a stale floor ages out in
///   bounded time instead of pinning the target forever).
/// - The target is `floor × 4 + 1 ms`: by Little's law the knee sits
///   where added depth buys only queueing delay, and ~4× the no-load
///   round trip is past the knee on every measured curve
///   (`throughput_vs_outstanding`: 128 → 2.8 ms/39 k, 512 → 8.8 ms/55 k).
/// - Above target: multiplicative decrease (−1/8). Far below target
///   (< half): multiplicative increase (+1/2) so a freshly seeded window
///   reaches a deep closed-loop's capacity in a few intervals. Mildly
///   below: additive-ish increase (+1/16).
///
/// All arithmetic is integer/f64 on caller-provided timestamps — no
/// hidden clock, so tests drive it deterministically.
pub(crate) struct AdaptiveWindow {
    cap: usize,
    min: usize,
    max: usize,
    /// Milliseconds between adjustments (driver clock).
    adjust_every_ms: u64,
    last_adjust_ms: u64,
    /// Samples since the last adjustment.
    sum_ms: u64,
    count: u64,
    interval_min_ms: u64,
    /// Two-bucket windowed floor: minimum interval-latency seen in the
    /// current and previous floor windows.
    floor_cur_ms: u64,
    floor_prev_ms: u64,
    intervals_in_window: u32,
    /// Cumulative shed count at the last adjustment (see `observe`).
    last_sheds: u64,
}

impl AdaptiveWindow {
    /// Intervals per floor-window rotation: the no-load floor estimate
    /// forgets a regime ~2 × 32 intervals old.
    const FLOOR_WINDOW_INTERVALS: u32 = 32;
    /// Minimum samples before an adjustment is meaningful.
    const MIN_SAMPLES: u64 = 8;

    /// Floor of the window (clamped to the ceiling). Deep enough that the
    /// pipeline stays busy even when the controller is maximally
    /// defensive: the measured `throughput_vs_outstanding` curve still
    /// does ~26 k ops/s at depth 32 and ~75% of peak at 64.
    pub(crate) const FLOOR: usize = 64;
    /// Seed of the window (clamped between floor and ceiling): the middle
    /// of the measured throughput knee (the `throughput_vs_outstanding`
    /// curve flattens between 128 and 512).
    pub(crate) const SEED: usize = 256;

    pub(crate) fn new(min: usize, initial: usize, max: usize) -> AdaptiveWindow {
        let max = max.max(1);
        let min = min.clamp(1, max);
        let cap = initial.clamp(min, max);
        AdaptiveWindow {
            cap,
            min,
            max,
            adjust_every_ms: 25,
            last_adjust_ms: 0,
            sum_ms: 0,
            count: 0,
            interval_min_ms: u64::MAX,
            floor_cur_ms: u64::MAX,
            floor_prev_ms: u64::MAX,
            intervals_in_window: 0,
            last_sheds: 0,
        }
    }

    /// The current window (the gate capacity this controller last chose).
    pub(crate) fn cap(&self) -> usize {
        self.cap
    }

    /// Feeds one commit-latency sample; returns `Some(new_cap)` when an
    /// adjustment interval completes with a changed window.
    ///
    /// `sheds` is the cumulative count of submissions shed at the gate.
    /// While it is advancing the gate is saturated, and the interval's
    /// latency samples are *loaded* measurements — feeding them into the
    /// no-load floor would ratchet the floor toward whatever latency the
    /// current window produces, which inflates the target, which grows
    /// the window, which raises the latency: the runaway feedback loop
    /// that drives the window to the ceiling and re-creates deep-queue
    /// collapse under sustained overload. Shedding intervals therefore
    /// leave the floor (and with it the target) **frozen**; the window
    /// still adjusts against that pinned target, so under overload it
    /// settles at the knee — depth ≈ target × capacity — instead of
    /// either runaway growth or being pinned at the minimum. (Bootstrap
    /// exception: a never-set floor takes its first interval's minimum
    /// even under shedding, else the target would be unbounded.)
    pub(crate) fn observe(&mut self, latency_ms: u64, now_ms: u64, sheds: u64) -> Option<usize> {
        self.sum_ms += latency_ms;
        self.count += 1;
        self.interval_min_ms = self.interval_min_ms.min(latency_ms);
        if now_ms < self.last_adjust_ms.saturating_add(self.adjust_every_ms)
            || self.count < Self::MIN_SAMPLES
        {
            return None;
        }
        let avg_ms = self.sum_ms as f64 / self.count as f64;
        let shed_this_interval = sheds != self.last_sheds;
        self.last_sheds = sheds;
        // Update and rotate the no-load floor — but only from intervals
        // with no shedding (see the method doc: loaded samples would
        // ratchet the floor and unpin the target).
        let floor_unset = self.floor_cur_ms == u64::MAX && self.floor_prev_ms == u64::MAX;
        if !shed_this_interval || floor_unset {
            self.floor_cur_ms = self.floor_cur_ms.min(self.interval_min_ms);
            self.intervals_in_window += 1;
            if self.intervals_in_window >= Self::FLOOR_WINDOW_INTERVALS {
                self.floor_prev_ms = self.floor_cur_ms;
                self.floor_cur_ms = self.interval_min_ms;
                self.intervals_in_window = 0;
            }
        }
        let floor_ms = self.floor_cur_ms.min(self.floor_prev_ms).max(1) as f64;
        let target_ms = floor_ms * 4.0 + 1.0;
        self.last_adjust_ms = now_ms;
        self.sum_ms = 0;
        self.count = 0;
        self.interval_min_ms = u64::MAX;
        let old = self.cap;
        self.cap = if avg_ms > target_ms {
            // Queueing regime: each in-flight slot is buying delay, not
            // throughput. Shrink multiplicatively toward the knee.
            old.saturating_sub((old / 8).max(1)).clamp(self.min, self.max)
        } else if avg_ms < target_ms / 2.0 {
            // Far under target: clear headroom, open up fast (a seeded
            // 256-window reaches a 1000-cap pipeline in ~4 intervals).
            (old + (old / 2).max(1)).clamp(self.min, self.max)
        } else {
            // Near target: creep upward, probing for more.
            (old + (old / 16).max(1)).clamp(self.min, self.max)
        };
        (self.cap != old).then_some(self.cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn try_acquire_sheds_at_cap_without_blocking() {
        let g = SubmitGate::new(2);
        assert_eq!(g.try_acquire(), Admission::Admitted);
        assert_eq!(g.try_acquire(), Admission::Admitted);
        // Full: the third attempt sheds immediately — no queueing, no
        // blocking, no slot held.
        let t0 = Instant::now();
        assert_eq!(g.try_acquire(), Admission::Shed);
        assert!(t0.elapsed() < Duration::from_millis(50), "try_acquire blocked");
        assert_eq!(g.in_flight(), 2);
        g.release(1);
        assert_eq!(g.try_acquire(), Admission::Admitted);
    }

    #[test]
    fn deadline_acquire_times_out_cleanly() {
        let g = SubmitGate::new(1);
        assert_eq!(g.try_acquire(), Admission::Admitted);
        let t0 = Instant::now();
        let got = g.acquire(Some(Instant::now() + Duration::from_millis(30)));
        assert_eq!(got, Admission::Shed);
        assert!(t0.elapsed() >= Duration::from_millis(25), "returned before the deadline");
        // The timed-out waiter must not have leaked a slot or a waiter.
        assert_eq!(g.in_flight(), 1);
        g.release(1);
        assert_eq!(
            g.acquire(Some(Instant::now() + Duration::from_millis(30))),
            Admission::Admitted
        );
    }

    #[test]
    fn deadline_acquire_gets_slot_when_released() {
        let g = Arc::new(SubmitGate::new(1));
        assert_eq!(g.try_acquire(), Admission::Admitted);
        let waiter = {
            let g = Arc::clone(&g);
            std::thread::spawn(move || g.acquire(Some(Instant::now() + Duration::from_secs(10))))
        };
        std::thread::sleep(Duration::from_millis(20));
        g.release(1);
        assert_eq!(waiter.join().expect("join"), Admission::Admitted);
        assert_eq!(g.in_flight(), 1);
    }

    #[test]
    fn close_unblocks_every_waiter() {
        let g = Arc::new(SubmitGate::new(1));
        assert_eq!(g.try_acquire(), Admission::Admitted);
        let waiters: Vec<_> = (0..8)
            .map(|_| {
                let g = Arc::clone(&g);
                std::thread::spawn(move || g.acquire(None))
            })
            .collect();
        std::thread::sleep(Duration::from_millis(30));
        g.close();
        for w in waiters {
            // A closed gate admits; the caller's send fails and releases.
            assert_eq!(w.join().expect("join"), Admission::Admitted);
        }
    }

    /// The herd regression: with `notify_all`, k releases across w blocked
    /// producers cost O(k·w) wakeups (every release wakes everyone); with
    /// slot handoff they cost O(k). The bound below fails by an order of
    /// magnitude if `notify_all` creeps back into `release`.
    #[test]
    fn contended_producers_wake_once_per_slot_not_per_herd() {
        const PRODUCERS: usize = 16;
        const OPS_PER_PRODUCER: usize = 64;
        let g = Arc::new(SubmitGate::new(1));
        let admitted = Arc::new(AtomicUsize::new(0));
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|_| {
                let g = Arc::clone(&g);
                let admitted = Arc::clone(&admitted);
                std::thread::spawn(move || {
                    for _ in 0..OPS_PER_PRODUCER {
                        assert_eq!(g.acquire(None), Admission::Admitted);
                        admitted.fetch_add(1, Ordering::SeqCst);
                        g.release(1);
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().expect("producer");
        }
        let total = (PRODUCERS * OPS_PER_PRODUCER) as u64;
        assert_eq!(admitted.load(Ordering::SeqCst) as u64, total);
        // Every acquire that blocked costs ≥1 wakeup; with handoff each
        // release wakes ≤1 producer, so wakeups ≤ total releases (plus a
        // sliver of spurious wakeups the platform may add). notify_all
        // would cost up to (waiters × releases) ≈ 15× this bound.
        let wakeups = g.wakeups();
        assert!(wakeups <= total * 2, "thundering herd: {wakeups} wakeups for {total} releases");
    }

    #[test]
    fn release_never_leaks_slots_under_hammer() {
        const PRODUCERS: usize = 8;
        const OPS: usize = 500;
        let g = Arc::new(SubmitGate::new(4));
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|i| {
                let g = Arc::clone(&g);
                std::thread::spawn(move || {
                    for k in 0..OPS {
                        // Mix all three admission paths.
                        match (i + k) % 3 {
                            0 => {
                                if g.try_acquire() == Admission::Admitted {
                                    g.release(1);
                                }
                            }
                            1 => {
                                if g.acquire(Some(Instant::now() + Duration::from_millis(5)))
                                    == Admission::Admitted
                                {
                                    g.release(1);
                                }
                            }
                            _ => {
                                assert_eq!(g.acquire(None), Admission::Admitted);
                                g.release(1);
                            }
                        }
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().expect("producer");
        }
        assert_eq!(g.in_flight(), 0, "slots leaked");
        // All slots free: a full window admits back-to-back.
        for _ in 0..4 {
            assert_eq!(g.try_acquire(), Admission::Admitted);
        }
        assert_eq!(g.try_acquire(), Admission::Shed);
    }

    #[test]
    fn growing_cap_wakes_waiters() {
        let g = Arc::new(SubmitGate::new(1));
        assert_eq!(g.try_acquire(), Admission::Admitted);
        let waiter = {
            let g = Arc::clone(&g);
            std::thread::spawn(move || g.acquire(None))
        };
        std::thread::sleep(Duration::from_millis(20));
        g.set_cap(2);
        assert_eq!(waiter.join().expect("join"), Admission::Admitted);
        assert_eq!(g.cap(), 2);
    }

    fn drive(w: &mut AdaptiveWindow, latency_ms: u64, start_ms: u64, intervals: u32) -> u64 {
        let mut now = start_ms;
        for _ in 0..intervals {
            now += 25;
            for _ in 0..16 {
                w.observe(latency_ms, now, 0);
            }
        }
        now
    }

    #[test]
    fn window_shrinks_under_queueing_and_recovers() {
        let mut w = AdaptiveWindow::new(64, 256, 1000);
        assert_eq!(w.cap(), 256);
        // Establish a 1 ms no-load floor.
        let now = drive(&mut w, 1, 0, 4);
        // Sustained 100 ms latency: pure queueing — the window must fall.
        let now = drive(&mut w, 100, now, 40);
        assert_eq!(w.cap(), 64, "window did not shrink to the floor under queueing");
        // Latency back at the floor: the window must recover to the cap.
        drive(&mut w, 1, now, 40);
        assert_eq!(w.cap(), 1000, "window did not recover after the queueing cleared");
    }

    #[test]
    fn window_respects_bounds_and_seed_clamping() {
        // Seed above max clamps down; min above max clamps to max.
        let w = AdaptiveWindow::new(64, 256, 128);
        assert_eq!(w.cap(), 128);
        let w = AdaptiveWindow::new(64, 8, 128);
        assert_eq!(w.cap(), 64);
        let w = AdaptiveWindow::new(500, 256, 128);
        assert_eq!(w.cap(), 128);
    }

    /// The overload feedback loop: under sustained saturation every
    /// latency sample is a *loaded* measurement, so feeding them into
    /// the no-load floor ratchets floor → target → window → latency to
    /// the ceiling (the deep-queue collapse). Shedding intervals must
    /// freeze the floor, so that against the pinned target the window
    /// *equilibrates at the knee* — simulated here with Little's-law
    /// physics (latency = depth / capacity) — neither running away to
    /// the ceiling nor getting pinned at the minimum.
    #[test]
    fn shedding_freezes_floor_so_window_settles_at_the_knee() {
        let mut w = AdaptiveWindow::new(64, 256, 4096);
        // Establish a 2 ms no-load floor (target = 9 ms) while unloaded.
        let mut now = drive(&mut w, 2, 0, 4);
        // Sustained overload: the gate sheds every interval, and the
        // pipeline drains 50 ops/ms — so commit latency is depth/50 ms.
        let mut sheds = 0;
        for _ in 0..200 {
            now += 25;
            sheds += 100;
            let latency_ms = (w.cap() as u64 / 50).max(1);
            for _ in 0..16 {
                w.observe(latency_ms, now, sheds);
            }
        }
        // Equilibrium sits where latency ≈ target (9 ms × 50 ops/ms =
        // depth 450), well off both bounds. A ratcheting floor would hit
        // the 4096 ceiling (200 intervals is ~6 rotations, plenty);
        // growth suppression would sit at 256 or fall to 64.
        let cap = w.cap();
        assert!(
            (300..=700).contains(&cap),
            "window {cap} not at the knee (expected ~450): floor ratcheted or growth pinned"
        );
        // Overload clears: the floor thaws and fast growth resumes.
        drive(&mut w, 2, now, 40);
        assert_eq!(w.cap(), 4096, "growth never resumed after shedding stopped");
    }

    /// A replica overloaded from its very first interval has no no-load
    /// measurement; the floor must bootstrap from the first (loaded)
    /// interval rather than leaving the target unbounded (an unset floor
    /// reads as `u64::MAX`, whose target would admit runaway growth).
    #[test]
    fn overloaded_from_birth_bootstraps_a_floor() {
        let mut w = AdaptiveWindow::new(64, 256, 4096);
        let mut now = 0;
        let mut sheds = 0;
        for _ in 0..40 {
            now += 25;
            sheds += 100;
            let latency_ms = (w.cap() as u64 / 50).max(1);
            for _ in 0..16 {
                w.observe(latency_ms, now, sheds);
            }
        }
        // First interval: depth 256 / 50 = 5 ms floor → target 21 ms →
        // knee ≈ 1050. The exact point matters less than boundedness:
        // never the ceiling, never the minimum.
        let cap = w.cap();
        assert!((300..=2000).contains(&cap), "bootstrapped window {cap} ran away or collapsed");
    }

    #[test]
    fn stale_floor_ages_out() {
        let mut w = AdaptiveWindow::new(64, 256, 1000);
        // A 1 ms floor from a cold regime...
        let now = drive(&mut w, 1, 0, 4);
        // ...then the true service time becomes 12 ms (e.g. disk added).
        // After the floor window rotates twice, 12 ms *is* the floor, the
        // target becomes 49 ms, and the window stops shrinking — it must
        // sit at a real cap, not pinned at `min` by a stale 1 ms floor.
        drive(&mut w, 12, now, 2 * AdaptiveWindow::FLOOR_WINDOW_INTERVALS + 8);
        assert!(w.cap() > 64, "stale floor pinned the window at min (cap {})", w.cap());
    }
}

//! The paper's evaluation, as assertions.
//!
//! Each test reruns one figure or table of the DSN'11 evaluation on the
//! deterministic simulator and checks its *shape*. Every band is derived
//! from the simulator's resource model, never copied from a captured run:
//! 1 Gb/s (125 B/µs) node egress, rounded up to whole µs per send; one-way
//! links uniform in 100–200 µs; a 1 ms disk flush that group-commits
//! whatever was written while it ran; a 1 ms tick. A test that overrides
//! one of these says so. The derivation sits beside each bound.
//!
//! Experiment ids follow `DESIGN.md` §3. T1 has no test here: its
//! Multi-Paxos half is `zab-baselines`' `pipelined_crashy_lossy_runs_do_violate_po`
//! and `single_outstanding_never_violates_po`, its Zab half is
//! `tests/simulation_safety.rs`.
//!
//! Each test prints its rows; to see them:
//! `cargo test --release --test paper_shapes -- --nocapture`.

use zab_simnet::{ClosedLoopSpec, LatencyStats, OpenLoopSpec, Sim, SimBuilder};

const SEC: u64 = 1_000_000;

/// Node egress, bytes per µs (1 Gb/s).
const EGRESS_B_PER_US: usize = 125;
/// Wire bytes of a PROPOSE beyond its payload in the simulator's size
/// model: 8 (frame) + 1 (tag) + 8 (watermark) + 8 (zxid) + 4 (length).
const PROPOSE_OVERHEAD: usize = 29;
/// Default one-way link latency range (µs) and disk flush (µs).
const L_MIN: u64 = 100;
const L_MAX: u64 = 200;
const L_MEAN: u64 = (L_MIN + L_MAX) / 2;
const FLUSH: u64 = 1_000;
/// Closed-loop clients of a saturated run.
const CLIENTS: usize = 200;

/// The leader-egress bound on ops/s: each op is one PROPOSE to each of
/// the n−1 followers, and each send occupies the NIC for whole µs.
fn egress_bound(n: u64, payload: usize) -> f64 {
    let per_follower_us = (payload + PROPOSE_OVERHEAD).div_ceil(EGRESS_B_PER_US) as u64;
    SEC as f64 / ((n - 1) * per_follower_us) as f64
}

/// `SimStats::throughput_ops_per_sec` divides all `ops` completions by
/// the span from the first to the last, which serves only `ops − 1` of
/// them: a rate bound on the workload scales by this factor.
fn fencepost(ops: u64) -> f64 {
    ops as f64 / (ops - 1) as f64
}

/// Boots `builder`'s cluster, runs `clients` closed-loop clients to `ops`
/// completions and returns (ops/s, latency). The PO safety checker runs
/// on every measured run.
fn saturated(builder: SimBuilder, clients: usize, payload: usize, ops: u64) -> (f64, LatencyStats) {
    let mut sim = booted(builder);
    sim.install_closed_loop(ClosedLoopSpec::saturating(clients, payload, ops));
    completed(sim, ops)
}

fn booted(builder: SimBuilder) -> Sim {
    let mut sim = builder.build();
    sim.run_until_leader(30 * SEC).expect("leader");
    sim
}

fn completed(mut sim: Sim, ops: u64) -> (f64, LatencyStats) {
    assert!(sim.run_until_completed(ops, 3_600 * SEC), "workload stalled");
    sim.check_invariants().expect("safety");
    let stats = sim.stats();
    (stats.throughput_ops_per_sec().expect("ops/s"), stats.latency().expect("latency"))
}

fn ms(us: f64) -> f64 {
    us / 1_000.0
}

/// **F1** — saturated throughput falls as 1/(n−1): the leader unicasts
/// every PROPOSE to each follower, so its egress binds.
#[test]
fn f1_throughput_times_followers_is_the_leader_egress() {
    // 1 KiB: ceil(1053 B / 125 B/µs) = 9 µs per follower → ops/s·(n−1) ≤ 111 111.
    let bound = egress_bound(2, 1024) * fencepost(2_000);
    for n in [3u64, 5, 7, 9] {
        let (tput, lat) = saturated(SimBuilder::new(n), CLIENTS, 1024, 2_000);
        let per_follower = tput * (n - 1) as f64;
        println!(
            "F1 n={n}: {tput:.0} ops/s, x(n-1) = {per_follower:.0}, mean {:.2} ms",
            ms(lat.mean_us)
        );
        // Above: the egress model itself. Below: 95 % — the NIC only also
        // carries heartbeats and the 1 µs COMMITs a piggybacked watermark
        // could not cover.
        assert!(
            (0.95 * bound..=bound).contains(&per_follower),
            "n={n}: ops/s x (n-1) = {per_follower:.0} outside [{:.0}, {bound:.0}]",
            0.95 * bound
        );
    }
}

/// **F2** — latency stays at the protocol floor until saturation, then
/// queueing takes over.
#[test]
fn f2_latency_is_flat_below_saturation_then_rises() {
    let (sat, _) = saturated(SimBuilder::new(3), CLIENTS, 1024, 2_000);
    let mean_at = |pct: u64, ops: u64| {
        let rate = (sat * pct as f64 / 100.0) as u64;
        let mut sim = booted(SimBuilder::new(3).seed(7 + pct));
        sim.install_open_loop(OpenLoopSpec::at_rate(rate, 1024, ops));
        let (_, lat) = completed(sim, ops);
        println!(
            "F2 {pct}% of {sat:.0} ops/s: mean {:.2} ms, p99 {:.2} ms",
            ms(lat.mean_us),
            ms(lat.p99_us as f64)
        );
        lat.mean_us
    };
    // Without queueing a commit is PROPOSE (L) + follower flush (F) + ACK
    // (L), and an op that lands mid-flush waits for it (≤ F): every op
    // takes between 2·L_MIN + F = 1.2 ms and 2·L_MAX + 2F = 2.4 ms.
    let (floor, ceiling) = ((2 * L_MIN + FLUSH) as f64, (2 * L_MAX + 2 * FLUSH) as f64);
    for pct in [10, 50, 90] {
        let mean = mean_at(pct, 2_000);
        assert!(
            (floor..=ceiling).contains(&mean),
            "{pct}%: mean {mean:.0} µs outside [{floor}, {ceiling}]"
        );
    }
    // At 110 % the backlog grows by 0.1·sat per second: over 5 000 ops
    // (T = 5 000 / 1.1·sat ≈ 83 ms) the mean op queues ≈ (0.1/1.1)·T/2 ≈
    // 3.8 ms on top of the floor, past the no-queueing ceiling.
    let overloaded = mean_at(110, 5_000);
    assert!(overloaded > ceiling, "110%: mean {overloaded:.0} µs within the no-queueing band");
}

/// **F3** — pipelining (the paper's requirement 1) multiplies throughput.
#[test]
fn f3_pipelining_multiplies_throughput() {
    let mut previous = 0.0;
    let mut first = None;
    for window in [1usize, 10, 100, 1000] {
        let ops = if window < 10 { 300 } else { 2_000 };
        let builder = SimBuilder::new(3).max_outstanding(window);
        let (tput, lat) = saturated(builder, window.max(8) * 2, 1024, ops);
        println!("F3 window {window}: {tput:.0} ops/s, mean {:.2} ms", ms(lat.mean_us));
        // A deeper window only adds work in flight: it never idles the
        // bottleneck longer.
        assert!(
            tput >= previous,
            "window {window}: {tput:.0} ops/s below the shallower window's {previous:.0}"
        );
        previous = tput;
        first.get_or_insert(tput);
    }
    // Window 1 pays a round trip and a flush per op: ≤ 1/(2·L_MIN + F) =
    // 833 ops/s. Window 1000 reaches the egress bound (55 555 ops/s, F1's
    // 95 %): a gain of ≥ 63×.
    let gain = previous / first.expect("window 1 ran");
    assert!(gain >= 50.0, "window 1000 is only {gain:.1}x window 1");
}

/// **F4** — small ops are bound per op, large ops by the leader's bytes.
#[test]
fn f4_large_payloads_saturate_leader_egress_small_ones_do_not() {
    let run = |payload: usize, ops: u64| {
        let (tput, _) = saturated(SimBuilder::new(3), CLIENTS, payload, ops);
        let mb_s = tput * payload as f64 / 1e6;
        println!("F4 {payload} B: {tput:.0} ops/s, {mb_s:.2} payload MB/s");
        (tput, mb_s)
    };
    // Payload is below the wire bytes, so payload MB/s ≤ BW/(n−1) = 62.5.
    // From 4 KiB up the 29 B overhead and µs rounding cost < 1 %, and F1's
    // 95 % covers the rest.
    let share = EGRESS_B_PER_US as f64 / 2.0;
    for (payload, ops) in [(4096, 2_000), (16_384, 1_000), (65_536, 400)] {
        let (_, mb_s) = run(payload, ops);
        let (low, high) = (0.95 * share, share * fencepost(ops));
        assert!(
            (low..=high).contains(&mb_s),
            "{payload} B: {mb_s:.2} MB/s outside [{low:.2}, {high:.2}]"
        );
    }
    // 32 B and 128 B sit far below their egress bounds (500 000 and
    // 250 000 ops/s): both are bound by 200 clients over the same commit
    // latency, so ops/s barely moves.
    let (small, _) = run(32, 2_000);
    let (larger, _) = run(128, 2_000);
    assert!(larger < egress_bound(3, 128) / 2.0, "128 B ops reach the egress regime");
    assert!(
        (0.9..=1.1).contains(&(larger / small)),
        "ops/s moved {small:.0} -> {larger:.0} from 32 B to 128 B"
    );
}

/// **T2** — step accounting: a quiet commit costs two message delays plus
/// one durable write; a failover costs detection plus election plus a
/// few round trips.
#[test]
fn t2_commit_and_failover_follow_the_step_counts() {
    for (l, f) in [(100u64, 0u64), (100, 1_000), (500, 1_000), (2_000, 5_000)] {
        // Fixed links and no egress cost isolate the protocol's delays.
        let builder =
            SimBuilder::new(3).seed(3).latency_us(l, l).egress_bandwidth(None).flush_latency_us(f);
        let (_, lat) = saturated(builder, 1, 64, 50);
        let predicted = (2 * l + f) as f64;
        println!("T2 commit L={l} F={f}: {:.0} µs, predicted {predicted}", lat.mean_us);
        // The leader's own flush overlaps the round trip; the simulator's
        // FIFO tie-break adds 1 µs to a same-instant arrival. One more
        // message delay would add L ≥ 100 µs.
        assert!(
            (predicted..=predicted + 5.0).contains(&lat.mean_us),
            "L={l} F={f}: mean {:.0} µs, predicted 2L+F = {predicted}",
            lat.mean_us
        );
    }
    for l in [100u64, 1_000, 5_000] {
        let mut sim = booted(SimBuilder::new(3).seed(5).latency_us(l, l).timeouts_ms(200, 200, 25));
        let leader = sim.leader().expect("leader");
        sim.run_for(SEC);
        let crashed_at = sim.now_us();
        sim.crash(leader);
        while sim.leader().is_none() && sim.now_us() < crashed_at + 60 * SEC {
            sim.run_for(1_000);
        }
        assert!(sim.leader().is_some(), "no failover at L={l}");
        let took = sim.now_us() - crashed_at;
        println!("T2 failover L={l}: {:.1} ms", ms(took as f64));
        // Floor: 10 ms disconnect detection + 200 ms election finalize
        // window. On top: ≤ 4 round trips (votes, then discovery and
        // sync), ≤ 3 flushes (accepted epoch, current epoch, synced
        // history) and ≤ 2 ticks of timer quantisation.
        let floor = 10_000 + 200_000;
        let ceiling = floor + 4 * 2 * l + 3 * FLUSH + 2 * 1_000;
        assert!(
            (floor..=ceiling).contains(&took),
            "L={l}: failover {took} µs outside [{floor}, {ceiling}]"
        );
    }
}

/// **A1** — group commit × pipelining: without a window every op pays the
/// flush; a deep window amortises it over whole batches.
#[test]
fn a1_deep_window_amortises_the_flush() {
    for f in [0u64, 500, 1_000, 5_000, 10_000] {
        let builder = SimBuilder::new(3).flush_latency_us(f);
        let (stop_and_wait, _) = saturated(builder.clone().max_outstanding(1), 2, 1024, 200);
        let (deep, _) = saturated(builder, CLIENTS, 1024, 2_000);
        let gain = deep / stop_and_wait;
        println!(
            "A1 F={f}: window 1 {stop_and_wait:.0} ops/s, window 1000 {deep:.0} ops/s, {gain:.1}x"
        );
        // Window 1: one op per 2·L_MEAN + F; the quorum's faster follower,
        // the 9 µs sends and FIFO ticks move it by < 10 %.
        let predicted = SEC as f64 / (2 * L_MEAN + f) as f64;
        assert!(
            (0.9..=1.1).contains(&(stop_and_wait / predicted)),
            "F={f}: window 1 at {stop_and_wait:.0} ops/s, predicted {predicted:.0}"
        );
        // Deep window: ≥ min(egress 55 555, 200 clients / (2·L_MAX + 2F))
        // against window 1's ≤ 1/(2·L_MIN + F): ≥ 38× for any F ≥ 500 µs.
        if f >= 500 {
            assert!(gain >= 10.0, "F={f}: the deep window gains only {gain:.1}x");
        }
    }
}

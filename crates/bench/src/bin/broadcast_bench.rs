//! **Broadcast saturation bench — the paper's three headline figures on
//! real TCP.**
//!
//! Drives real localhost ensembles (in-memory storage, so the disk does
//! not confound the network path) to saturation and emits
//! `BENCH_broadcast.json` at the repo root with three datasets:
//!
//! 1. saturated throughput vs. ensemble size (n = 3/5/7/9), with the
//!    leader's measured egress bytes per committed txn,
//! 2. p50/p99 commit latency vs. offered load (fractions of the measured
//!    3-node saturation point, including over-saturation at 1.1× and
//!    1.5×),
//! 3. throughput vs. maximum outstanding proposals (1/8/32/128),
//! 4. a virtual-time simnet scaling curve at n = 9/15/33 (`scaling_simnet`
//!    rows) where the 1-CPU container cannot distort per-peer socket
//!    costs, extending the curve past what real localhost TCP can host
//!    here.
//!
//! The offered-load axis is an *honest* open loop: submissions go
//! through the non-blocking `try_submit`, ops shed at the admission
//! gate are counted (`shed_ops_per_sec` per row) and excluded from the
//! latency quantiles, and over-saturation is expected to plateau —
//! achieved throughput holds near the saturation point while the gate
//! sheds the excess — rather than collapse. The generator treats a
//! refusal as backpressure (1 ms probe backoff, shedding arrivals due
//! meanwhile locally): everything shares one core here, so a client
//! that re-probes per arrival would starve the pipeline it measures.
//!
//! Wall-clock numbers depend on the host; EXPERIMENTS.md records the
//! shapes and the before/after of the cumulative-commit + frame-coalescing
//! work. `--quick` shrinks every axis for CI smoke (schema-identical
//! output).
//!
//! Run: `cargo run --release -p zab-bench --bin broadcast_bench
//! [--quick] [--trace-out PATH]`
//! Output: `BENCH_broadcast.json` at the repo root (`BENCH_OUT` overrides).
//! With `--trace-out`, the merged flight-recorder dump of the 3-node
//! saturation run is written to PATH as Chrome trace-event JSON
//! (Perfetto loadable) and per-stage latency breakdowns are printed for
//! both the saturation run and the most-overloaded offered-load run
//! (whose admit → submit delta is the cost of the admission gate).

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use zab_bench::{fmt_f, print_header, OpenLoopStats};
use zab_core::ServerId;
use zab_node::{apps::BytesApp, NodeConfig, NodeEvent, Replica, Role, SubmitError};
use zab_simnet::workload::ClosedLoopSpec;
use zab_simnet::SimBuilder;
use zab_trace::{chrome_trace_json, merge, stage_deltas, TraceEvent};

const PAYLOAD: usize = 1024;

struct Cluster {
    replicas: BTreeMap<ServerId, Replica<BytesApp>>,
    leader: ServerId,
}

impl Cluster {
    /// Boots an n-server localhost ensemble and waits for an established
    /// leader.
    fn start(n: u64, max_outstanding: usize) -> Cluster {
        Cluster::start_with(n, max_outstanding, |cfg| cfg)
    }

    /// [`Cluster::start`] with a per-node config hook (the observability
    /// on/off cells toggle tracing and the admin endpoint through it).
    fn start_with(
        n: u64,
        max_outstanding: usize,
        customize: impl Fn(NodeConfig) -> NodeConfig,
    ) -> Cluster {
        let book: BTreeMap<ServerId, SocketAddr> = (1..=n)
            .map(|i| {
                let l = TcpListener::bind("127.0.0.1:0").expect("bind");
                let addr = l.local_addr().expect("addr");
                drop(l);
                (ServerId(i), addr)
            })
            .collect();
        let replicas: BTreeMap<ServerId, Replica<BytesApp>> = book
            .keys()
            .map(|&id| {
                let mut cfg = NodeConfig::new(id, book.clone());
                cfg.cluster.max_outstanding = max_outstanding;
                let cfg = customize(cfg);
                (id, Replica::start(cfg, BytesApp::new()).expect("start"))
            })
            .collect();
        let deadline = Instant::now() + Duration::from_secs(30);
        let leader = loop {
            if let Some((&id, _)) = replicas
                .iter()
                .find(|(_, r)| matches!(r.role(), Role::Leading { established: true, .. }))
            {
                break id;
            }
            assert!(Instant::now() < deadline, "no leader elected");
            std::thread::sleep(Duration::from_millis(10));
        };
        Cluster { replicas, leader }
    }

    fn leader(&self) -> &Replica<BytesApp> {
        &self.replicas[&self.leader]
    }

    /// Flips the flight recorder on every replica at runtime. F5 uses
    /// this to compare observed and dark slices on the *same booted
    /// ensemble*: two fresh boots of identical config differ by a
    /// persistent few percent on this host (allocator layout and thread
    /// placement are decided at boot and never re-rolled), which is the
    /// size of the effect under measurement, so a two-cluster
    /// comparison measures the boot, not the plane.
    fn set_recording(&self, on: bool) {
        for r in self.replicas.values() {
            r.trace_recorder().set_enabled(on);
        }
    }

    /// Discards leader events until the stream stays silent, so a
    /// backlog left by one (possibly over-saturating) run can never leak
    /// deliveries into the next measurement on the same cluster.
    fn drain_to_quiescence(&self) {
        while self.leader().events().recv_timeout(Duration::from_millis(300)).is_ok() {}
    }

    /// Re-locates the established leader (an over-saturating run may have
    /// forced a failover) and waits until one exists.
    fn refresh_leader(&mut self) {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Some((&id, _)) = self
                .replicas
                .iter()
                .find(|(_, r)| matches!(r.role(), Role::Leading { established: true, .. }))
            {
                self.leader = id;
                return;
            }
            assert!(Instant::now() < deadline, "no leader re-established");
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

/// The op id embedded in the first 8 payload bytes, if present.
fn op_id(data: &[u8]) -> Option<u64> {
    data.get(..8).map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
}

fn payload(op: u64) -> Vec<u8> {
    let mut p = vec![0u8; PAYLOAD];
    p[..8].copy_from_slice(&op.to_le_bytes());
    p
}

/// Commit latencies in milliseconds, plus the measurement wall-clock span.
struct Measured {
    latencies_ms: Vec<f64>,
    elapsed_s: f64,
}

impl Measured {
    fn ops_per_sec(&self) -> f64 {
        self.latencies_ms.len() as f64 / self.elapsed_s
    }

    fn percentile_ms(&self, p: f64) -> f64 {
        if self.latencies_ms.is_empty() {
            return 0.0;
        }
        let mut v = self.latencies_ms.clone();
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let idx = ((v.len() as f64 - 1.0) * p).round() as usize;
        v[idx]
    }
}

/// Closed-loop saturation: keep `window` ops in flight until `ops`
/// complete on the leader.
fn run_closed_loop(cluster: &Cluster, window: usize, ops: u64) -> Measured {
    let leader = cluster.leader();
    let mut in_flight: BTreeMap<u64, Instant> = BTreeMap::new();
    let mut issued = 0u64;
    let mut latencies = Vec::with_capacity(ops as usize);
    let t0 = Instant::now();
    while issued < window.min(ops as usize) as u64 {
        in_flight.insert(issued, Instant::now());
        leader.submit(payload(issued));
        issued += 1;
    }
    let deadline = Instant::now() + Duration::from_secs(180);
    while (latencies.len() as u64) < ops && Instant::now() < deadline {
        match leader.events().recv_timeout(Duration::from_millis(500)) {
            Ok(NodeEvent::Delivered(txn)) => {
                let Some(op) = op_id(&txn.data) else { continue };
                if let Some(start) = in_flight.remove(&op) {
                    latencies.push(start.elapsed().as_secs_f64() * 1000.0);
                    if issued < ops {
                        in_flight.insert(issued, Instant::now());
                        leader.submit(payload(issued));
                        issued += 1;
                    }
                }
            }
            Ok(NodeEvent::Rejected { request, .. }) => {
                // A rejected op never commits; resubmit it so the closed
                // loop still completes exactly `ops` measurements. The
                // pause keeps a not-yet-reestablished leader from turning
                // this into a hot reject spin.
                let Some(op) = op_id(&request) else { continue };
                if in_flight.remove(&op).is_some() {
                    std::thread::sleep(Duration::from_millis(1));
                    in_flight.insert(op, Instant::now());
                    leader.submit(request.to_vec());
                }
            }
            _ => {}
        }
    }
    assert_eq!(latencies.len() as u64, ops, "closed-loop run did not complete");
    Measured { latencies_ms: latencies, elapsed_s: t0.elapsed().as_secs_f64() }
}

/// Open-loop offered load: submit at `rate` ops/s for `duration`,
/// measuring the latency of everything that commits.
///
/// Honest open loop: submissions go through [`Replica::try_submit`],
/// which **never blocks** — when the admission window is full the op is
/// shed at the gate, counted, and dropped. The old harness blocked in
/// `submit()` instead, which silently turned the open loop into a
/// closed loop *and* stopped this thread from draining the event
/// stream, the first domino of the congestion collapse this bench now
/// guards against. Quantiles come only from delivered ops
/// ([`OpenLoopStats`]); shed and rejected ops appear as achieved
/// falling under offered, plus an explicit shed rate.
fn run_offered_load(cluster: &Cluster, rate: f64, duration: Duration) -> (OpenLoopStats, f64) {
    let leader = cluster.leader();
    let interval = Duration::from_secs_f64(1.0 / rate);
    let mut in_flight: BTreeMap<u64, Instant> = BTreeMap::new();
    let mut issued = 0u64;
    let mut stats = OpenLoopStats::new();
    let t0 = Instant::now();
    let mut next_due = t0;
    let t_end = t0 + duration;
    let mut spare: Option<Vec<u8>> = None;
    let mut backoff_until: Option<Instant> = None;
    const BACKOFF: Duration = Duration::from_millis(1);
    loop {
        let now = Instant::now();
        if now >= t_end {
            break;
        }
        // Submit everything due by now. An overloaded gate sheds each op
        // in O(1), so even a far-over-saturation rate cannot stall this
        // loop or grow any queue. A shed hands the payload buffer back;
        // restamping its op-id header keeps the shed path allocation-free
        // (at 1.5x saturation the generator sheds tens of thousands of
        // 1 KiB ops per second — re-allocating each would bill the gate
        // for the load generator's own malloc traffic).
        //
        // Refusal is also a backpressure *signal*, and the generator
        // honors it: after a shed it stops probing for BACKOFF and fails
        // arrivals due in that window locally (still counted as shed).
        // A client that re-probes every arrival against a refusing gate
        // bills the server for its own attempt CPU — on this one-core
        // box the generator's wakeups alone would crowd out the very
        // pipeline being measured, turning far-over-saturation rates
        // into an artificial throughput decay.
        if backoff_until.is_some_and(|until| now < until) {
            while next_due <= now {
                next_due += interval;
                stats.record_shed();
                issued += 1;
            }
        } else {
            backoff_until = None;
            while next_due <= now {
                next_due += interval;
                let buf = match spare.take() {
                    Some(mut b) => {
                        b[..8].copy_from_slice(&issued.to_be_bytes());
                        b
                    }
                    None => payload(issued),
                };
                match leader.try_submit(buf) {
                    Ok(()) => {
                        in_flight.insert(issued, Instant::now());
                    }
                    Err(SubmitError::Overloaded(returned)) => {
                        spare = Some(returned);
                        stats.record_shed();
                        issued += 1;
                        backoff_until = Some(now + BACKOFF);
                        while next_due <= now {
                            next_due += interval;
                            stats.record_shed();
                            issued += 1;
                        }
                        break;
                    }
                    Err(SubmitError::Closed(_)) => panic!("leader closed during offered-load run"),
                }
                issued += 1;
            }
        }
        // Deliveries wake the recv below immediately; the timeout only
        // bounds how long an idle or backed-off generator naps.
        let wait = backoff_until
            .unwrap_or(next_due)
            .min(t_end)
            .saturating_duration_since(Instant::now())
            .min(Duration::from_millis(1));
        match leader.events().recv_timeout(wait) {
            Ok(NodeEvent::Delivered(txn)) => {
                let Some(op) = op_id(&txn.data) else { continue };
                if let Some(start) = in_flight.remove(&op) {
                    stats.record_delivered(start.elapsed().as_secs_f64() * 1000.0);
                }
            }
            Ok(NodeEvent::Rejected { request, .. }) => {
                // Admitted but refused downstream (leadership churn, core
                // queue limit): a lost op, never a latency sample.
                if let Some(op) = op_id(&request) {
                    if in_flight.remove(&op).is_some() {
                        stats.record_rejected();
                    }
                }
            }
            _ => {}
        }
    }
    // Achieved/shed rates are per second of *measurement window*; the
    // tail drain below only harvests latency samples for ops submitted
    // inside the window, it never extends the denominator.
    let measured_s = t0.elapsed().as_secs_f64();
    let drain_deadline = Instant::now() + Duration::from_secs(10);
    while !in_flight.is_empty() && Instant::now() < drain_deadline {
        match leader.events().recv_timeout(Duration::from_millis(200)) {
            Ok(NodeEvent::Delivered(txn)) => {
                let Some(op) = op_id(&txn.data) else { continue };
                if let Some(start) = in_flight.remove(&op) {
                    stats.record_delivered(start.elapsed().as_secs_f64() * 1000.0);
                }
            }
            Ok(NodeEvent::Rejected { request, .. }) => {
                if let Some(op) = op_id(&request) {
                    if in_flight.remove(&op).is_some() {
                        stats.record_rejected();
                    }
                }
            }
            _ => {}
        }
    }
    (stats, measured_s)
}

struct Row {
    fields: Vec<(&'static str, String)>,
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.2}")
    } else {
        "0".to_string()
    }
}

fn rows_to_json(rows: &[Row]) -> String {
    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            let fields: Vec<String> =
                r.fields.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
            format!("    {{{}}}", fields.join(", "))
        })
        .collect();
    format!("[\n{}\n  ]", body.join(",\n"))
}

fn out_path() -> PathBuf {
    if let Some(p) = std::env::var_os("BENCH_OUT") {
        return PathBuf::from(p);
    }
    // crates/bench → repo root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_broadcast.json")
}

/// Prints the mean latency of every adjacent stage transition observed in
/// `events` (one line per `node / from→to` pair with ≥ 1 sample): where a
/// transaction's wall time actually goes, broken down by pipeline stage.
fn print_stage_breakdown(events: &[TraceEvent]) {
    let mut agg: BTreeMap<(u64, &'static str, &'static str), (u64, u64)> = BTreeMap::new();
    for d in stage_deltas(events) {
        let e = agg.entry((d.node, d.from.as_str(), d.to.as_str())).or_insert((0, 0));
        e.0 += 1;
        e.1 += d.delta_us;
    }
    if agg.is_empty() {
        println!("  (no stage transitions recorded)");
        return;
    }
    print_header(&["node", "transition", "samples", "mean (µs)"]);
    for ((node, from, to), (count, sum_us)) in agg {
        println!("| {node} | {from} → {to} | {count} | {} |", fmt_f(sum_us as f64 / count as f64));
    }
}

/// One simnet scaling cell: a saturating closed loop against an
/// `n`-node virtual-time cluster, reporting committed throughput in
/// *virtual* ops/s and the leader's egress bytes per committed txn.
/// Virtual time is what makes the n=33 row honest on a 1-CPU container:
/// every per-peer serialization delay is modeled (125 B/µs NIC), none is
/// distorted by the host actually multiplexing 33 event loops.
fn run_simnet_cell(n: u64, ops: u64) -> (f64, f64, f64, f64) {
    // Failure-detection timeouts sized like a deployment's: well above
    // the saturated p99 commit latency. The chaos tests deliberately run
    // tighter ones; here a timeout inside the queueing tail would read
    // as phantom stalls.
    let mut sim =
        SimBuilder::new(n).seed(1).timeouts_ms(2_000, 2_000, 100).max_outstanding(512).build();
    let leader = sim.run_until_leader(10_000_000).expect("simnet leader");
    // Warm up to steady state before measuring, as F1 does: one-time
    // establishment transients must not be billed to the steady-state
    // row.
    let warmup = (ops / 5).max(200);
    sim.install_closed_loop(ClosedLoopSpec::saturating(256, PAYLOAD, warmup));
    let deadline = sim.now_us() + 600_000_000;
    assert!(sim.run_until_completed(warmup, deadline), "simnet n={n} warmup did not complete");
    sim.stop_workload();
    sim.run_for(500_000);
    let done0 = sim.stats().ops.len();
    let egress0 = sim.egress_bytes(leader);
    sim.install_closed_loop(ClosedLoopSpec::saturating(256, PAYLOAD, ops));
    let deadline = sim.now_us() + 600_000_000;
    assert!(
        sim.run_until_completed(done0 as u64 + ops, deadline),
        "simnet n={n} did not complete {ops} ops"
    );
    sim.stop_workload();
    // Measurement slice: only the post-warmup completions.
    let measured = &sim.stats().ops[done0..];
    let (first, last) = measured
        .iter()
        .fold((u64::MAX, 0u64), |(lo, hi), o| (lo.min(o.completed_us), hi.max(o.completed_us)));
    let tput = measured.len() as f64 * 1_000_000.0 / (last - first).max(1) as f64;
    let lat = zab_simnet::stats::LatencyStats::from_samples(
        measured.iter().map(|o| o.completed_us - o.issued_us).collect(),
    )
    .expect("latency samples");
    let bytes_per_txn = (sim.egress_bytes(leader) - egress0) as f64 / measured.len() as f64;
    (tput, lat.p50_us as f64 / 1000.0, lat.p99_us as f64 / 1000.0, bytes_per_txn)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let args: Vec<String> = std::env::args().collect();
    let trace_out: Option<PathBuf> = args
        .iter()
        .position(|a| a == "--trace-out")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from);
    // Axis sizes: --quick is the CI smoke (schema-identical, seconds);
    // the full run is the EXPERIMENTS.md record.
    let (ensemble_sizes, sat_ops, windows, load_fractions, load_secs): (
        &[u64],
        u64,
        &[usize],
        &[f64],
        f64,
    ) = if quick {
        // 5 exercises a mid-size real-TCP ensemble in CI; 9 pins the far
        // end of the scaling curve schema.
        (&[3, 5, 9], 500, &[1, 32], &[0.5, 0.9, 1.5], 1.0)
    } else {
        (&[3, 5, 7, 9], 20_000, &[1, 8, 32, 128], &[0.25, 0.5, 0.75, 0.9, 1.1, 1.5], 3.0)
    };
    const SAT_WINDOW: usize = 512;

    // Figure 1: saturated throughput vs. ensemble size.
    println!("F1: saturated throughput vs. ensemble size ({sat_ops} x {PAYLOAD} B ops)\n");
    print_header(&["servers", "window", "ops/s", "p50 (ms)", "p99 (ms)", "ldr B/txn"]);
    let mut fig1 = Vec::new();
    let mut sat3 = 0.0f64;
    let mut sat3_traces: Vec<TraceEvent> = Vec::new();
    let mut commit_quantiles_ms = (0u64, 0u64, 0u64);
    for &n in ensemble_sizes {
        let mut cluster = Cluster::start_with(n, 1000, |cfg| cfg.with_submit_window(SAT_WINDOW));
        // Settle before measuring (the fix for the old n=5 p99
        // outlier, 124 ms against 40 ms at n=7): a freshly booted
        // ensemble is still absorbing establishment traffic — late
        // joiners reconnecting — and F1 used to start its stopwatch
        // straight into that. A short warm-up burst followed by a
        // drain gets every one-time transient out of the measured
        // window, exactly as F2 already did per row.
        let warmup = (sat_ops / 10).clamp(100, 2_000);
        run_closed_loop(&cluster, SAT_WINDOW.min(64), warmup);
        cluster.drain_to_quiescence();
        cluster.refresh_leader();
        let before = cluster.leader().metrics_snapshot();
        let m = run_closed_loop(&cluster, SAT_WINDOW, sat_ops);
        let after = cluster.leader().metrics_snapshot();
        let (tput, p50, p99) = (m.ops_per_sec(), m.percentile_ms(0.50), m.percentile_ms(0.99));
        // The leader's egress cost per committed txn, from its own
        // transport counters: O(N) under star dissemination.
        let d_bytes =
            after.counter_sum("transport.bytes_out.") - before.counter_sum("transport.bytes_out.");
        let d_committed =
            after.counter("core.proposals_committed") - before.counter("core.proposals_committed");
        let bytes_per_txn = d_bytes as f64 / d_committed.max(1) as f64;
        if n == 3 {
            sat3 = tput;
            // Histogram-side commit latency (leader's own measurement,
            // independent of the closed loop's client-side stopwatch).
            if let Some(h) = cluster.leader().metrics_snapshot().histogram("node.commit_latency_ms")
            {
                commit_quantiles_ms = (h.quantile(0.50), h.quantile(0.95), h.quantile(0.99));
            }
            // Flight-recorder dump of the saturation run, and the memory
            // bound it must honor even at full load.
            for r in cluster.replicas.values() {
                assert!(
                    r.trace_events().len() <= r.trace_recorder().max_resident_events(),
                    "flight recorder exceeded its configured memory bound under saturation"
                );
            }
            sat3_traces = merge(cluster.replicas.values().map(|r| r.trace_events()).collect());
        }
        println!(
            "| {n} | {SAT_WINDOW} | {} | {} | {} | {} |",
            fmt_f(tput),
            fmt_f(p50),
            fmt_f(p99),
            fmt_f(bytes_per_txn)
        );
        fig1.push(Row {
            fields: vec![
                ("n", n.to_string()),
                ("window", SAT_WINDOW.to_string()),
                ("ops_per_sec", num(tput)),
                ("p50_ms", num(p50)),
                ("p99_ms", num(p99)),
                ("leader_bytes_out_per_txn", num(bytes_per_txn)),
            ],
        });
    }

    // Figure 2: latency vs. offered load (3 servers, fractions of the
    // measured saturation point; the >1 points must *plateau*, with the
    // admission gate shedding the excess, not collapse).
    println!("\nF2: p50/p99 latency vs. offered load (3 servers, sat = {} ops/s)\n", fmt_f(sat3));
    print_header(&["offered ops/s", "achieved ops/s", "shed ops/s", "p50 (ms)", "p99 (ms)"]);
    let mut fig2 = Vec::new();
    let mut overload_traces: Vec<TraceEvent> = Vec::new();
    {
        // A fresh ensemble per row, like F1/F3 cells: the logs and
        // in-memory history are append-only, so a shared cluster makes
        // each row inherit every prior row's accumulated state — by the
        // 1.5x row that run-length decay (B1's caveat) dwarfs the effect
        // of offered load itself and reads as a phantom collapse.
        for &f in load_fractions {
            let mut cluster = Cluster::start(3, 1000);
            cluster.drain_to_quiescence();
            cluster.refresh_leader();
            let rate = (sat3 * f).max(10.0);
            let (stats, elapsed_s) =
                run_offered_load(&cluster, rate, Duration::from_secs_f64(load_secs));
            let (ach, shed_rate, p50, p99) = (
                stats.achieved_ops_per_sec(elapsed_s),
                stats.shed_ops_per_sec(elapsed_s),
                stats.percentile_ms(0.50),
                stats.percentile_ms(0.99),
            );
            println!(
                "| {} | {} | {} | {} | {} |",
                fmt_f(rate),
                fmt_f(ach),
                fmt_f(shed_rate),
                fmt_f(p50),
                fmt_f(p99)
            );
            fig2.push(Row {
                fields: vec![
                    ("n", "3".to_string()),
                    ("offered_ops_per_sec", num(rate)),
                    ("achieved_ops_per_sec", num(ach)),
                    ("shed_ops_per_sec", num(shed_rate)),
                    ("p50_ms", num(p50)),
                    ("p99_ms", num(p99)),
                ],
            });
            // Fractions ascend, so the rings harvested from the last
            // row's cluster hold the most-overloaded run: the one whose
            // admit-stage spans show what admission control costs when
            // it is actually working.
            overload_traces = merge(cluster.replicas.values().map(|r| r.trace_events()).collect());
        }
    }

    // Figure 3: throughput vs. max outstanding proposals (3 servers).
    // The submit window tracks the protocol window so the closed loop
    // exercises exactly the pipelining depth under test.
    println!("\nF3: throughput vs. max outstanding (3 servers)\n");
    print_header(&["max outstanding", "ops/s", "p50 (ms)"]);
    let mut fig3 = Vec::new();
    for &w in windows {
        let cluster = Cluster::start(3, w);
        let ops = if quick { sat_ops } else { (sat_ops / 4).max(500) * (w.min(8) as u64) };
        let m = run_closed_loop(&cluster, w, ops);
        let (tput, p50) = (m.ops_per_sec(), m.percentile_ms(0.50));
        println!("| {w} | {} | {} |", fmt_f(tput), fmt_f(p50));
        fig3.push(Row {
            fields: vec![
                ("n", "3".to_string()),
                ("max_outstanding", w.to_string()),
                ("ops_per_sec", num(tput)),
                ("p50_ms", num(p50)),
            ],
        });
    }

    // Figure 4: the virtual-time scaling curve. Real TCP on this 1-CPU
    // box stops being a fair referee past n≈9 (the host multiplexing N
    // event loops becomes the bottleneck, not the protocol), so the
    // 15/33-node rows come from the simnet where per-peer NIC
    // serialization is modeled exactly.
    let sim_sizes: &[u64] = &[9, 15, 33];
    let sim_ops: u64 = if quick { 1_000 } else { 10_000 };
    println!("\nF4: simnet scaling curve ({sim_ops} x {PAYLOAD} B ops, virtual time)\n");
    print_header(&["servers", "ops/s (virtual)", "p50 (ms)", "p99 (ms)", "ldr B/txn"]);
    let mut fig4 = Vec::new();
    for &n in sim_sizes {
        let (tput, p50, p99, bytes_per_txn) = run_simnet_cell(n, sim_ops);
        println!(
            "| {n} | {} | {} | {} | {} |",
            fmt_f(tput),
            fmt_f(p50),
            fmt_f(p99),
            fmt_f(bytes_per_txn)
        );
        fig4.push(Row {
            fields: vec![
                ("n", n.to_string()),
                ("ops_per_sec", num(tput)),
                ("p50_ms", num(p50)),
                ("p99_ms", num(p99)),
                ("leader_bytes_out_per_txn", num(bytes_per_txn)),
            ],
        });
    }

    // Figure 5: what the observability plane itself costs. One live
    // ensemble, booted in the observed configuration (flight recorder
    // on, admin endpoint bound), measured in alternating saturation
    // sub-windows: "observed" slices record every stage event and serve
    // /health scrapes at zabctl-watch cadence (an *operated* node, not
    // an idle endpoint); "dark" slices flip every replica's recorder
    // off (`Recorder::set_enabled`) and pause the scraper. Two
    // estimator lessons are baked in. First, on this shared 1-CPU box
    // external load comes in multi-second phases that swing throughput
    // by 10-30% — far more than the effect under measurement — so
    // slices alternate (order flipping every round) and each adjacent
    // pair sees the same phase; the per-round ratio isolates the plane.
    // Second — the reason this is ONE cluster and not an observed/dark
    // pair — two freshly booted ensembles of *identical* config differ
    // by a persistent few percent on this host: a null A/A test read
    // 0.2% on one boot pair and 4.6% on the next, and swapping which
    // cluster carried tracing flipped the sign of the "overhead".
    // Allocator layout and thread placement are rolled once at boot, so
    // inter-cluster deltas measure the boot, not the plane; toggling
    // recording inside one boot cancels that bias exactly. The residual
    // blind spot is the admin thread's idle accept-poll (a 20 ms sleep
    // loop), which rides in both slices; it is a few microsecond-scale
    // wakes per scrape interval, far below this bench's resolution.
    // The reported figure is the median over all per-round ratios; the
    // acceptance bar is overhead within 5% of saturated throughput.
    println!("\nF5: observability overhead (3 servers, tracing+admin+scrape vs dark slices)\n");
    print_header(&["mode", "trial", "median ops/s", "p50 (ms)", "p99 (ms)"]);
    let mut fig5 = Vec::new();
    let mut round_pct: Vec<f64> = Vec::new();
    let rounds: usize = if quick { 8 } else { 12 };
    let sub_ops: u64 = 6_000; // ~130 ms per sub-window at saturation
    let trials = 3; // 2 modes x 3 trials: CI asserts >= 6 F5 rows, quick included
    for trial in 0..trials {
        let mut cluster = Cluster::start_with(3, 1000, |cfg| {
            cfg.with_tracing(true)
                .with_admin("127.0.0.1:0".parse().expect("addr"))
                .with_submit_window(SAT_WINDOW)
        });
        run_closed_loop(&cluster, SAT_WINDOW.min(64), 2_000);
        cluster.drain_to_quiescence();
        cluster.refresh_leader();
        // Scrape the leader's /health at watch cadence, but only while
        // an observed slice is running — a scrape landing in a dark
        // slice would slow *dark* down and flatter the estimate.
        let scrape_on = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let scraper = {
            let addr = cluster.leader().admin_addr().expect("admin bound");
            let (scrape_on, stop) =
                (std::sync::Arc::clone(&scrape_on), std::sync::Arc::clone(&stop));
            std::thread::spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    if scrape_on.load(std::sync::atomic::Ordering::Relaxed) {
                        if let Ok(mut s) = std::net::TcpStream::connect(addr) {
                            use std::io::{Read, Write};
                            let _ = s.write_all(b"GET /health HTTP/1.0\r\nHost: b\r\n\r\n");
                            let mut buf = String::new();
                            let _ = s.read_to_string(&mut buf);
                        }
                    }
                    std::thread::sleep(Duration::from_millis(100));
                }
            })
        };
        let mut mode_runs: [Vec<Measured>; 2] = [Vec::new(), Vec::new()]; // [observed, dark]
        for round in 0..rounds {
            let order: [usize; 2] = if round % 2 == 0 { [0, 1] } else { [1, 0] };
            let mut pair = [0.0f64; 2];
            for slot in order {
                // Flush stragglers from the previous slice so reused op
                // ids cannot be miscounted, then flip the plane.
                cluster.drain_to_quiescence();
                cluster.set_recording(slot == 0);
                scrape_on.store(slot == 0, std::sync::atomic::Ordering::Relaxed);
                let m = run_closed_loop(&cluster, SAT_WINDOW, sub_ops);
                scrape_on.store(false, std::sync::atomic::Ordering::Relaxed);
                pair[slot] = m.ops_per_sec();
                mode_runs[slot].push(m);
            }
            round_pct.push((pair[1] - pair[0]) / pair[1].max(1.0) * 100.0);
        }
        cluster.set_recording(true);
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let _ = scraper.join();
        for (slot, mode) in [(0usize, "observed"), (1usize, "dark")] {
            let runs = &mode_runs[slot];
            let mut tputs: Vec<f64> = runs.iter().map(|m| m.ops_per_sec()).collect();
            tputs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let med = tputs[tputs.len() / 2];
            let mid = runs
                .iter()
                .min_by(|a, b| {
                    (a.ops_per_sec() - med)
                        .abs()
                        .partial_cmp(&(b.ops_per_sec() - med).abs())
                        .expect("finite")
                })
                .expect("at least one round");
            let (p50, p99) = (mid.percentile_ms(0.50), mid.percentile_ms(0.99));
            println!("| {mode} | {trial} | {} | {} | {} |", fmt_f(med), fmt_f(p50), fmt_f(p99));
            fig5.push(Row {
                fields: vec![
                    ("n", "3".to_string()),
                    ("mode", format!("\"{mode}\"")),
                    ("trial", trial.to_string()),
                    ("tracing", (slot == 0).to_string()),
                    ("admin", (slot == 0).to_string()),
                    ("ops_per_sec", num(med)),
                    ("p50_ms", num(p50)),
                    ("p99_ms", num(p99)),
                ],
            });
        }
    }
    round_pct.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let obs_overhead_pct = round_pct[round_pct.len() / 2];
    println!(
        "observability overhead (median of {} interleaved rounds): {}% of dark \
         throughput (bar: <= 5%)",
        round_pct.len(),
        fmt_f(obs_overhead_pct)
    );

    // Schema-additive: the histogram-side commit quantiles, the F1
    // egress column, and the simnet scaling rows all ride
    // along under new keys; every v1 consumer keeps parsing.
    let (q50, q95, q99) = commit_quantiles_ms;
    let json = format!(
        "{{\n  \"schema\": \"zab-broadcast-bench/v1\",\n  \"quick\": {quick},\n  \
         \"payload_bytes\": {PAYLOAD},\n  \
         \"commit_latency_quantiles_ms\": {{\"p50\": {q50}, \"p95\": {q95}, \"p99\": {q99}}},\n  \
         \"throughput_vs_ensemble\": {},\n  \
         \"latency_vs_load\": {},\n  \"throughput_vs_outstanding\": {},\n  \
         \"scaling_simnet\": {},\n  \
         \"observability_overhead\": {},\n  \
         \"observability_overhead_pct\": {}\n}}\n",
        rows_to_json(&fig1),
        rows_to_json(&fig2),
        rows_to_json(&fig3),
        rows_to_json(&fig4),
        rows_to_json(&fig5),
        num(obs_overhead_pct),
    );
    let path = out_path();
    std::fs::write(&path, json).expect("write BENCH_broadcast.json");
    println!("\nwrote {}", path.display());
    println!("commit latency (leader histogram): p50 {q50} ms, p95 {q95} ms, p99 {q99} ms");

    if let Some(trace_path) = trace_out {
        println!("\nstage-latency breakdown (3-server saturation run)\n");
        print_stage_breakdown(&sat3_traces);
        println!("\nstage-latency breakdown (most-overloaded offered-load run)\n");
        print_stage_breakdown(&overload_traces);
        std::fs::write(&trace_path, chrome_trace_json(&sat3_traces)).expect("write trace");
        println!(
            "\nwrote {} ({} trace events; load in Perfetto / chrome://tracing)",
            trace_path.display(),
            sat3_traces.len()
        );
    }
}

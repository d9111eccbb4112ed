//! **F — Production-scale recovery on a live TCP ensemble.**
//!
//! Crashes a follower under a saturated closed loop, lets the rest of
//! the ensemble commit a controlled amount of lag, restarts the victim
//! on its surviving disk state, and measures the catch-up:
//!
//!  - **catch-up vs lag** — DIFF when the leader's log still covers the
//!    victim's gap, SNAP once compaction has advanced the horizon past
//!    it (this is where `fig_recovery`'s simulator crossover table moved
//!    to: same question, answered on real sockets and a real disk);
//!  - **throughput dip** — live commit throughput while the paced,
//!    ack-gated sync ships (EXPERIMENTS.md §F keeps the record of the
//!    one-burst path it replaced).
//!
//! Writes `BENCH_recovery.json` (schema `zab-recovery-bench/v1`) at the
//! repo root, or to `$BENCH_OUT`. `--quick` shrinks every axis for CI
//! smoke (schema-identical output, seconds instead of minutes).
//!
//! Run: `cargo run --release -p zab-bench --bin recovery_bench [-- --quick]`

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use zab_bench::{fmt_f, print_header};
use zab_core::ServerId;
use zab_node::{apps::BytesApp, NodeConfig, NodeEvent, Replica, Role};

/// Live-throughput sampling bucket during catch-up.
const BUCKET_MS: u64 = 100;

/// Shape of one recovery scenario.
#[derive(Debug, Clone)]
struct Scenario {
    n: u64,
    window: usize,
    payload: usize,
    /// Log compaction cadence (applied txns); `None` keeps the whole log.
    snapshot_every: Option<u64>,
    /// Leader sync token bucket.
    sync_rate_bytes_per_sec: u64,
    /// Ops committed with all replicas up before the crash.
    baseline_ops: u64,
    /// Ops committed while the victim is down (its lag at rejoin).
    lag_ops: u64,
    /// Keep the closed loop running while the victim catches up. `true`
    /// measures the live-throughput dip (the sync plan then also covers
    /// whatever commits during the rejoin handshake); `false` quiesces
    /// first, so sync cost is a pure function of the lag.
    live_catchup: bool,
    /// Cap the closed loop's issue rate (ops/s); `None` saturates the
    /// window. The dip comparison runs at a moderate rate: pacing can
    /// only protect live traffic when the configured sync rate exceeds
    /// the live commit byte rate — a fully saturated loop just grows
    /// backlog that any recovery must ship (and compete for) regardless.
    target_ops_per_sec: Option<u64>,
}

struct Cluster {
    book: BTreeMap<ServerId, SocketAddr>,
    cfgs: BTreeMap<ServerId, NodeConfig>,
    replicas: BTreeMap<ServerId, Replica<BytesApp>>,
    leader: ServerId,
}

impl Cluster {
    /// Boots an n-server localhost ensemble on file-backed storage under
    /// `scratch` and waits for an established leader.
    fn start(s: &Scenario, scratch: &Path) -> Cluster {
        let book: BTreeMap<ServerId, SocketAddr> = (1..=s.n)
            .map(|i| {
                let l = TcpListener::bind("127.0.0.1:0").expect("bind");
                let addr = l.local_addr().expect("addr");
                drop(l);
                (ServerId(i), addr)
            })
            .collect();
        let cfgs: BTreeMap<ServerId, NodeConfig> = book
            .keys()
            .map(|&id| {
                let mut cfg = NodeConfig::new(id, book.clone())
                    .with_data_dir(scratch.join(format!("n{}", id.0)));
                cfg.cluster.max_outstanding = s.window;
                cfg.cluster.sync_rate_bytes_per_sec = s.sync_rate_bytes_per_sec;
                if let Some(k) = s.snapshot_every {
                    cfg = cfg.with_snapshot_every(k);
                }
                (id, cfg)
            })
            .collect();
        let replicas: BTreeMap<ServerId, Replica<BytesApp>> = cfgs
            .iter()
            .map(|(&id, cfg)| (id, Replica::start(cfg.clone(), BytesApp::new()).expect("start")))
            .collect();
        let mut cluster = Cluster { book, cfgs, replicas, leader: ServerId(0) };
        cluster.refresh_leader();
        cluster
    }

    fn leader(&self) -> &Replica<BytesApp> {
        &self.replicas[&self.leader]
    }

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
            assert!(Instant::now() < deadline, "no leader established");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Any ensemble member that is not the leader.
    fn a_follower(&self) -> ServerId {
        *self.book.keys().find(|&&id| id != self.leader).expect("ensemble has a follower")
    }

    /// Fail-stops `id` (drops the replica; its data dir survives).
    fn crash(&mut self, id: ServerId) {
        let victim = self.replicas.remove(&id).expect("victim is running");
        drop(victim);
    }

    /// Reboots `id` from its surviving data dir.
    fn restart(&mut self, id: ServerId) {
        let cfg = self.cfgs[&id].clone();
        let replica = Replica::start(cfg, BytesApp::new()).expect("restart");
        self.replicas.insert(id, replica);
    }

    /// Applied-log length of `id`'s application.
    fn applied_len(&self, id: ServerId) -> u64 {
        self.replicas[&id].with_app(|a| a.log().len() as u64)
    }
}

fn op_id(data: &[u8]) -> Option<u64> {
    data.get(..8).map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
}

fn payload(op: u64, size: usize) -> Vec<u8> {
    let mut p = vec![0u8; size.max(8)];
    p[..8].copy_from_slice(&op.to_le_bytes());
    p
}

/// Closed-loop bookkeeping that survives across phases of one run.
#[derive(Default)]
struct LoopState {
    in_flight: BTreeMap<u64, Instant>,
    issued: u64,
    completed: u64,
    /// Wall-clock commit instants, for bucketed live throughput.
    commits: Vec<Instant>,
}

/// When to stop pumping the closed loop.
enum Until {
    /// `completed` reaches this count.
    Completed(u64),
    /// This replica's applied log reaches this length (polled between
    /// events; the loop keeps the window full the whole time).
    Applied(ServerId, u64),
}

/// Pumps the closed loop: keeps `window` ops in flight on the leader and
/// records every commit, until the `until` condition holds.
fn pump(cluster: &Cluster, s: &Scenario, st: &mut LoopState, until: Until) {
    let leader = cluster.leader();
    let deadline = Instant::now() + Duration::from_secs(60);
    let pace_start = Instant::now();
    let issued_at_start = st.issued;
    // The applied-log poll locks the target replica's app mutex, so rate-
    // limit it: probing on every event would contend with the victim's
    // own apply path and distort the throughput it is measuring.
    let mut last_poll = Instant::now() - Duration::from_secs(1);
    loop {
        match until {
            Until::Completed(target) if st.completed >= target => return,
            Until::Applied(id, len) if last_poll.elapsed() >= Duration::from_millis(10) => {
                last_poll = Instant::now();
                if cluster.applied_len(id) >= len {
                    return;
                }
            }
            _ => {}
        }
        if Instant::now() >= deadline {
            for (&id, r) in &cluster.replicas {
                eprintln!("  stall: n{} role {:?}", id.0, r.role());
            }
            eprintln!(
                "  stall: completed {} issued {} in_flight {}",
                st.completed,
                st.issued,
                st.in_flight.len()
            );
            panic!("closed loop stalled");
        }
        while st.in_flight.len() < s.window {
            if let Some(target) = s.target_ops_per_sec {
                let allowed = (pace_start.elapsed().as_secs_f64() * target as f64) as u64;
                if st.issued - issued_at_start >= allowed {
                    break;
                }
            }
            st.in_flight.insert(st.issued, Instant::now());
            leader.submit(payload(st.issued, s.payload));
            st.issued += 1;
        }
        match leader.events().recv_timeout(Duration::from_millis(100)) {
            Ok(NodeEvent::Delivered(txn)) => {
                let Some(op) = op_id(&txn.data) else { continue };
                if st.in_flight.remove(&op).is_some() {
                    st.completed += 1;
                    st.commits.push(Instant::now());
                }
            }
            Ok(NodeEvent::Rejected { request, .. }) => {
                // Resubmit so the loop keeps its window under churn.
                let Some(op) = op_id(&request) else { continue };
                if st.in_flight.remove(&op).is_some() {
                    std::thread::sleep(Duration::from_millis(1));
                    st.in_flight.insert(op, Instant::now());
                    leader.submit(request.to_vec());
                }
            }
            _ => {}
        }
    }
}

/// Stops issuing and waits for every in-flight op to commit (rejected
/// ops are abandoned), leaving the cluster quiescent.
fn drain(cluster: &Cluster, st: &mut LoopState) {
    let leader = cluster.leader();
    let deadline = Instant::now() + Duration::from_secs(60);
    while !st.in_flight.is_empty() && Instant::now() < deadline {
        match leader.events().recv_timeout(Duration::from_millis(200)) {
            Ok(NodeEvent::Delivered(txn)) => {
                let Some(op) = op_id(&txn.data) else { continue };
                if st.in_flight.remove(&op).is_some() {
                    st.completed += 1;
                    st.commits.push(Instant::now());
                }
            }
            Ok(NodeEvent::Rejected { request, .. }) => {
                if let Some(op) = op_id(&request) {
                    st.in_flight.remove(&op);
                }
            }
            _ => {}
        }
    }
    assert!(st.in_flight.is_empty(), "drain stalled");
}

/// One measured recovery.
struct Recovery {
    /// Restart → victim has applied everything committed before rejoin.
    catchup_ms: f64,
    /// Leader `core.sync_bytes_sent` delta across the catch-up.
    sync_mb: f64,
    /// `"DIFF"` or `"SNAP"`, from the leader's sync counters.
    served: &'static str,
    /// Steady-state commit throughput with the victim down.
    baseline_ops_s: f64,
    /// Worst 500 ms sliding window of live throughput while the sync shipped.
    worst_window_ops_s: f64,
    /// `100 * (1 - worst_window / baseline)`, floored at 0.
    dip_pct: f64,
    /// Longest gap between consecutive live commits during the catch-up:
    /// how long client traffic froze outright while the sync shipped.
    max_stall_ms: f64,
}

/// Drives one crash/lag/rejoin cycle under a continuous closed loop and
/// measures the catch-up. The closed loop never pauses: the sync stream
/// competes with live PROPOSE traffic exactly as it would in production.
fn recovery_run(s: &Scenario, scratch: &Path) -> Recovery {
    let mut cluster = Cluster::start(s, scratch);
    let victim = cluster.a_follower();
    let mut st = LoopState::default();

    // Phase A: all replicas up; make sure the victim has durably applied
    // the baseline before it "crashes".
    pump(&cluster, s, &mut st, Until::Completed(s.baseline_ops));
    let wait_deadline = Instant::now() + Duration::from_secs(60);
    while cluster.applied_len(victim) < s.baseline_ops {
        assert!(Instant::now() < wait_deadline, "victim never applied the baseline");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Phase B: crash the victim, commit its lag on the surviving quorum.
    cluster.crash(victim);
    let lag_start = st.commits.len();
    pump(&cluster, s, &mut st, Until::Completed(s.baseline_ops + s.lag_ops));
    // Baseline = steady state of the second half of the lag phase (the
    // first half absorbs the crash transient).
    let lag_commits = &st.commits[lag_start..];
    let half = &lag_commits[lag_commits.len() / 2..];
    let baseline_ops_s = if half.len() >= 2 {
        let span = half.last().expect("nonempty").duration_since(half[0]).as_secs_f64();
        if span > 0.0 {
            (half.len() - 1) as f64 / span
        } else {
            0.0
        }
    } else {
        0.0
    };

    // Phase C: restart and let the victim catch up — under continuing
    // live load (dip measurement) or on a quiesced cluster (pure sync
    // cost). Done when the victim has applied everything committed
    // before it rejoined.
    if !s.live_catchup {
        drain(&cluster, &mut st);
    }
    let committed_at_restart = st.completed;
    let before = cluster.leader().metrics_snapshot();
    let t_restart = Instant::now();
    cluster.restart(victim);
    let sync_window_start = st.commits.len();
    if s.live_catchup {
        pump(&cluster, s, &mut st, Until::Applied(victim, committed_at_restart));
    } else {
        let deadline = Instant::now() + Duration::from_secs(300);
        while cluster.applied_len(victim) < committed_at_restart {
            assert!(Instant::now() < deadline, "catch-up stalled");
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    let catchup_ms = t_restart.elapsed().as_secs_f64() * 1000.0;
    let after = cluster.leader().metrics_snapshot();

    if std::env::var_os("RECOVERY_BENCH_DEBUG").is_some() {
        for k in ["core.sync_bytes_sent", "core.diff_syncs", "core.snap_syncs"] {
            eprintln!("  debug {k}: {} -> {}", before.counter(k), after.counter(k));
        }
    }
    let sync_bytes = after.counter("core.sync_bytes_sent") - before.counter("core.sync_bytes_sent");
    let served = if after.counter("core.snap_syncs") > before.counter("core.snap_syncs") {
        "SNAP"
    } else {
        "DIFF"
    };

    // Live-traffic impact while the sync shipped, only meaningful when
    // the load kept running. Measured from the first post-restart commit
    // (the bench's serial restart plus the issue-rate ramp make the
    // instants right after `restart()` artificially quiet). The primary
    // signal is the longest inter-commit stall — how long clients froze
    // outright; the worst 500 ms sliding window (5 consecutive 100 ms
    // buckets, partial tail dropped) adds a throughput-floor view. A
    // single 100 ms bucket is too fine on localhost: ambient fsync /
    // scheduler stalls of ~100-150 ms zero out one bucket in every mode,
    // while a 500 ms window only collapses when a genuine multi-bucket
    // freeze (an unthrottled sync burst) lands inside it.
    let (worst_window_ops_s, dip_pct, max_stall_ms) = if s.live_catchup {
        let sync_commits = &st.commits[sync_window_start..];
        let mut max_stall_ms = 0f64;
        for w in sync_commits.windows(2) {
            max_stall_ms = max_stall_ms.max(w[1].duration_since(w[0]).as_secs_f64() * 1000.0);
        }
        let (first, last) = match (sync_commits.first(), sync_commits.last()) {
            (Some(f), Some(l)) => (*f, *l),
            _ => (t_restart, t_restart),
        };
        let span_ms = last.duration_since(first).as_millis() as u64;
        let full_buckets = (span_ms / BUCKET_MS).max(1);
        let mut buckets = vec![0u64; full_buckets as usize];
        for t in sync_commits {
            let b = t.duration_since(first).as_millis() as u64 / BUCKET_MS;
            if let Some(slot) = buckets.get_mut(b as usize) {
                *slot += 1;
            }
        }
        if std::env::var_os("RECOVERY_BENCH_DEBUG").is_some() {
            eprintln!("  debug catch-up buckets (ops/{BUCKET_MS}ms): {buckets:?}");
        }
        const WINDOW_BUCKETS: usize = 5;
        let worst_window = if buckets.len() >= WINDOW_BUCKETS {
            buckets.windows(WINDOW_BUCKETS).map(|w| w.iter().sum::<u64>()).min().unwrap_or(0) as f64
                * (1000.0 / (BUCKET_MS as f64 * WINDOW_BUCKETS as f64))
        } else {
            // Catch-up shorter than one window: fall back to the mean.
            let span = buckets.len().max(1) as f64 * BUCKET_MS as f64;
            buckets.iter().sum::<u64>() as f64 * 1000.0 / span
        };
        let dip = if baseline_ops_s > 0.0 {
            (100.0 * (1.0 - worst_window / baseline_ops_s)).max(0.0)
        } else {
            0.0
        };
        (worst_window, dip, max_stall_ms)
    } else {
        (0.0, 0.0, 0.0)
    };

    drop(cluster);
    Recovery {
        catchup_ms,
        sync_mb: sync_bytes as f64 / (1024.0 * 1024.0),
        served,
        baseline_ops_s,
        worst_window_ops_s,
        dip_pct,
        max_stall_ms,
    }
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
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_recovery.json")
}

/// A fresh scratch dir per run; every replica's data dir nests under it.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("zab-recovery-bench-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");

    // Axis sizes: --quick is the CI smoke (schema-identical, seconds).
    let (baseline_ops, diff_lags, snap_lag, pacing_lag, pacing_payload): (
        u64,
        Vec<u64>,
        u64,
        u64,
        usize,
    ) = if quick {
        (128, vec![64, 256], 256, 6144, 4096)
    } else {
        (256, vec![256, 1024, 4096], 2048, 8192, 8192)
    };

    println!("F: live-ensemble recovery bench (real TCP, file-backed storage)");
    println!("   quick={quick}\n");

    // ── F.1: catch-up vs lag, DIFF vs SNAP ────────────────────────────
    // DIFF rows keep the whole log (no compaction); the SNAP row compacts
    // every 32 applied txns, so by rejoin time the leader's log starts
    // past the victim's last zxid and the sync must be served from the
    // retained snapshot — the compaction-horizon path.
    println!("F.1: catch-up vs lag (3 servers, 1 KiB ops, paced at the default rate)\n");
    print_header(&["lag (ops)", "compaction", "served", "catch-up (ms)", "sync (MB)"]);
    let mut f1 = Vec::new();
    let mut runs: Vec<(u64, Option<u64>)> = diff_lags.iter().map(|&lag| (lag, None)).collect();
    runs.push((snap_lag, Some(32)));
    for (i, &(lag, snapshot_every)) in runs.iter().enumerate() {
        let s = Scenario {
            n: 3,
            window: 64,
            payload: 1024,
            snapshot_every,
            sync_rate_bytes_per_sec: 64 << 20,
            baseline_ops,
            lag_ops: lag,
            live_catchup: false,
            target_ops_per_sec: None,
        };
        let scratch = scratch_dir(&format!("f1-{i}"));
        let r = recovery_run(&s, &scratch);
        let _ = std::fs::remove_dir_all(&scratch);
        let compaction = snapshot_every.map_or("off".to_string(), |k| format!("every {k}"));
        println!(
            "| {lag} | {compaction} | {} | {} | {} |",
            r.served,
            fmt_f(r.catchup_ms),
            fmt_f(r.sync_mb)
        );
        f1.push(Row {
            fields: vec![
                ("lag_ops", lag.to_string()),
                ("snapshot_every", snapshot_every.unwrap_or(0).to_string()),
                ("served", format!("\"{}\"", r.served)),
                ("catchup_ms", num(r.catchup_ms)),
                ("sync_mb", num(r.sync_mb)),
            ],
        });
    }

    // ── F.2: live-throughput dip under the paced sync ─────────────────
    // Big payloads and a deep lag make the sync stream heavy enough to
    // contend with PROPOSE fan-out; the leader ack-gates chunks against
    // the token bucket, trading catch-up time for a smaller hole in live
    // throughput. The live load runs at a moderate fixed rate whose
    // commit byte rate sits below the sync budget — the regime pacing is
    // for (a saturated loop would grow backlog faster than any throttled
    // stream could drain it).
    let rate: u64 = 16 << 20;
    let target_ops: u64 = 1000;
    println!(
        "\nF.2: live-throughput dip during catch-up (3 servers, {pacing_payload} B ops, \
         {pacing_lag}-op lag, {target_ops} ops/s offered)\n"
    );
    print_header(&[
        "pacing",
        "catch-up (ms)",
        "baseline (ops/s)",
        "max stall (ms)",
        "worst 500ms window (ops/s)",
        "dip (%)",
        "sync (MB)",
    ]);
    let s = Scenario {
        n: 3,
        window: 64,
        payload: pacing_payload,
        snapshot_every: None,
        sync_rate_bytes_per_sec: rate,
        baseline_ops,
        lag_ops: pacing_lag,
        live_catchup: true,
        target_ops_per_sec: Some(target_ops),
    };
    // Median-of-3 by stall: single localhost runs are noisy (host
    // scheduling moves both the baseline and the worst bucket), so
    // report the middle trial as the representative row.
    let mut trials = Vec::new();
    for t in 0..3 {
        let scratch = scratch_dir(&format!("f2-{t}"));
        trials.push(recovery_run(&s, &scratch));
        let _ = std::fs::remove_dir_all(&scratch);
    }
    trials.sort_by(|a, b| a.max_stall_ms.partial_cmp(&b.max_stall_ms).expect("finite stall"));
    let r = trials.swap_remove(trials.len() / 2);
    println!(
        "| on | {} | {} | {} | {} | {} | {} |",
        fmt_f(r.catchup_ms),
        fmt_f(r.baseline_ops_s),
        fmt_f(r.max_stall_ms),
        fmt_f(r.worst_window_ops_s),
        fmt_f(r.dip_pct),
        fmt_f(r.sync_mb)
    );
    let f2 = vec![Row {
        fields: vec![
            ("pacing", "\"on\"".to_string()),
            ("rate_bytes_per_sec", rate.to_string()),
            ("offered_ops_per_sec", target_ops.to_string()),
            ("catchup_ms", num(r.catchup_ms)),
            ("baseline_ops_s", num(r.baseline_ops_s)),
            ("max_stall_ms", num(r.max_stall_ms)),
            ("worst_window_ops_s", num(r.worst_window_ops_s)),
            ("dip_pct", num(r.dip_pct)),
            ("sync_mb", num(r.sync_mb)),
        ],
    }];

    let json = format!(
        "{{\n  \"schema\": \"zab-recovery-bench/v1\",\n  \"quick\": {quick},\n  \
         \"catchup_vs_lag\": {},\n  \"pacing_dip\": {}\n}}\n",
        rows_to_json(&f1),
        rows_to_json(&f2),
    );
    let path = out_path();
    std::fs::write(&path, json).expect("write BENCH_recovery.json");
    println!("\nwrote {}", path.display());
}

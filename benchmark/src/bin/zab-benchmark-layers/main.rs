//! Traced run of one workload: the per-layer metrics.
//!
//! Replicas are given a timed `Storage` and a timed `Application`
//! ([`timed`]), replica metrics and per-thread CPU are read at the edges of
//! the window ([`LayerProbe`]), and afterwards each layer is driven on its own
//! from a single thread ([`drives`]). Everything is measured from benchmark
//! code around calls into public functions of the repository; the spans are
//! written to `benchmark/out/trace-<workload>.json`.

mod drives;
mod timed;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Duration;
use timed::{total, TimedApp, TimedStorage, Totals, TotalsAt, Trace};
use zab_benchmark::apps::{Bench, DigestApp};
use zab_benchmark::cli::{self, Args, Measured};
use zab_benchmark::ensemble::Ensemble;
use zab_benchmark::gen::Payloads;
use zab_benchmark::procfs::{self, ThreadCpu};
use zab_benchmark::report::{self, metric, Metric};
use zab_benchmark::workload::{self, AppKind, Attempt, Load, Params, Probe, Spec};
use zab_core::ServerId;
use zab_log::{FileStorage, MemStorage, Storage};
use zab_metrics::Snapshot;
use zab_node::{KvApp, NodeConfig, Replica};

/// A metric whose source (a counter, a thread) was not found is reported as
/// this, never as 0: a removed counter must not read as "no cost".
const ABSENT: f64 = -1.0;

/// What was read at one edge of the window.
struct Edge {
    totals: Vec<TotalsAt>,
    metrics: BTreeMap<ServerId, Snapshot>,
    threads: Vec<ThreadCpu>,
}

/// Reads replica metrics, layer totals and per-thread CPU at the edges of the
/// window.
struct LayerProbe {
    totals: Vec<Arc<Totals>>,
    start: Option<Edge>,
    end: Option<(Edge, Option<ServerId>)>,
    /// `core.sync_bytes_sent` of leaders killed inside the window.
    sync_bytes_of_killed: u64,
}

impl LayerProbe {
    fn edge<A: Bench>(&self, ensemble: &Ensemble<'_, A>) -> Edge {
        Edge {
            totals: self.totals.iter().map(|t| t.read()).collect(),
            metrics: ensemble
                .ids()
                .filter_map(|id| Some((id, ensemble.with(id, Replica::metrics_snapshot)?)))
                .collect(),
            threads: procfs::threads_cpu(),
        }
    }
}

impl<A: Bench> Probe<A> for LayerProbe {
    fn window_start(&mut self, ensemble: &Ensemble<'_, A>) {
        self.start = Some(self.edge(ensemble));
    }

    fn before_kill(&mut self, replica: &Replica<A>) {
        self.sync_bytes_of_killed += replica.metrics_snapshot().counter("core.sync_bytes_sent");
        // Its next incarnation counts from zero again.
        if let Some(start) = &mut self.start {
            start.metrics.remove(&replica.id());
        }
    }

    fn window_end(&mut self, ensemble: &Ensemble<'_, A>) {
        self.end = Some((self.edge(ensemble), ensemble.leader()));
    }
}

/// Sum of the counters named `prefix*` at an edge; `None` if there is none.
fn counters(snapshot: &Snapshot, prefix: &str) -> Option<u64> {
    let mut found = snapshot.counters.iter().filter(|(k, _)| k.starts_with(prefix)).peekable();
    found.peek()?;
    Some(found.map(|(_, v)| v).sum())
}

/// `(count, sum)` over the histograms named `prefix*`; `None` if there is none.
fn histograms(snapshot: &Snapshot, prefix: &str) -> Option<(u64, u64)> {
    let mut found = snapshot.histograms.iter().filter(|(k, _)| k.starts_with(prefix)).peekable();
    found.peek()?;
    Some(found.fold((0, 0), |(count, sum), (_, h)| (count + h.count, sum + h.sum)))
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

impl LayerProbe {
    /// The per-layer metrics of the window.
    fn metrics(&self, spec: &Spec, attempt: &Attempt) -> Result<Vec<Metric>, String> {
        let (Some(start), Some((end, leader))) = (&self.start, &self.end) else {
            return Err("the window's edges were not read".to_string());
        };
        let leader = leader.ok_or("no leader when the window closed")?;
        let commits = attempt.acks_in_window as f64;
        let window_s = (attempt.window.1 - attempt.window.0).as_secs_f64();
        let index = |id: ServerId| (id.0 - 1) as usize;
        let delta: Vec<TotalsAt> =
            end.totals.iter().zip(&start.totals).map(|(e, s)| timed::since(e, s)).collect();
        let lead = &delta[index(leader)];
        let followers: Vec<ServerId> =
            (1..=spec.n).map(ServerId).filter(|&id| id != leader).collect();
        let us = |ns: u64| ns as f64 / 1e3;

        // CPU seconds a thread used inside the window, if it lived through it.
        let thread_cpu = |pick: &dyn Fn(&ThreadCpu) -> bool| -> Option<f64> {
            let after = end.threads.iter().find(|t| pick(t))?;
            let before = start.threads.iter().find(|t| t.tid == after.tid)?;
            Some(after.cpu_s - before.cpu_s)
        };
        let by_tid = |tid: u64| thread_cpu(&|t: &ThreadCpu| tid != 0 && t.tid == tid);
        let by_name = |name: String| thread_cpu(&|t: &ThreadCpu| t.name == name);
        let us_per_commit = |cpu_s: Option<f64>| cpu_s.map_or(ABSENT, |s| ratio(s * 1e6, commits));
        let mean_of_followers = |f: &dyn Fn(ServerId) -> Option<f64>| {
            let found: Vec<f64> = followers.iter().filter_map(|&id| f(id)).collect();
            (!found.is_empty()).then(|| found.iter().sum::<f64>() / found.len() as f64)
        };
        let loop_cpu = |id: ServerId| by_tid(self.totals[index(id)].loop_tid.load(Relaxed));
        let wire_cpu = |id: ServerId| by_name(format!("zab-wire-{}", id.0));

        // Leader counters over the window; absent if the leader's metrics
        // lack them at the end, 0 if it was not yet up at the start.
        let lead_metrics = (start.metrics.get(&leader), end.metrics.get(&leader));
        let counter_delta = |prefix: &str| {
            let (before, after) = lead_metrics;
            Some(counters(after?, prefix)? - before.and_then(|b| counters(b, prefix)).unwrap_or(0))
        };
        let histogram_delta = |prefix: &str| {
            let (before, after) = lead_metrics;
            let (count, sum) = histograms(after?, prefix)?;
            let (count0, sum0) = before.and_then(|b| histograms(b, prefix)).unwrap_or((0, 0));
            Some((count - count0, sum - sum0))
        };
        let per_commit = |n: Option<u64>| n.map_or(ABSENT, |n| ratio(n as f64, commits));
        let writes = histogram_delta("transport.batch_frames.");
        let sync_bytes: Option<u64> = end
            .metrics
            .iter()
            .map(|(id, m)| {
                let before = start.metrics.get(id).map_or(0, |b| b.counter("core.sync_bytes_sent"));
                Some(counters(m, "core.sync_bytes_sent")?.saturating_sub(before))
            })
            .sum();
        let rejoins = attempt.kills.iter().filter(|k| k.rejoined_at.is_some()).count() as f64;
        let mut wait = attempt.submit_wait_ns.clone();
        wait.sort_unstable();

        Ok(vec![
            metric(
                "zab-kv.execute_us_per_commit",
                ratio(us(lead[total::EXECUTE_NS]), commits),
                "us",
            ),
            metric(
                "zab-kv.apply_us_per_commit",
                ratio(
                    delta.iter().map(|d| us(d[total::APPLY_NS])).sum(),
                    delta.iter().map(|d| d[total::APPLIES] as f64).sum(),
                ),
                "us",
            ),
            metric(
                "zab-kv.snapshot_ms_mean",
                ratio(
                    delta.iter().map(|d| us(d[total::SNAPSHOT_NS]) / 1e3).sum(),
                    delta.iter().map(|d| d[total::SNAPSHOTS] as f64).sum(),
                ),
                "ms",
            ),
            metric("zab-node.leader_loop_cpu_us_per_commit", us_per_commit(loop_cpu(leader)), "us"),
            metric(
                "zab-node.follower_loop_cpu_us_per_commit",
                us_per_commit(mean_of_followers(&loop_cpu)),
                "us",
            ),
            metric(
                "zab-node.admit_wait_us_p50",
                report::percentile_or_zero(&wait, 0.5) / 1e3,
                "us",
            ),
            metric(
                "zab-node.submit_window_end",
                end.metrics.get(&leader).map_or(ABSENT, |m| {
                    m.gauges.get("node.submit_window").map_or(ABSENT, |&g| g as f64)
                }),
                "count",
            ),
            metric(
                "zab-node.rejected_share",
                ratio(attempt.rejected as f64, attempt.lat_us.len() as f64),
                "share",
            ),
            metric(
                "zab-transport.leader_wire_cpu_us_per_commit",
                us_per_commit(wire_cpu(leader)),
                "us",
            ),
            metric(
                "zab-transport.follower_wire_cpu_us_per_commit",
                us_per_commit(mean_of_followers(&wire_cpu)),
                "us",
            ),
            metric(
                "zab-transport.leader_bytes_out_per_commit",
                per_commit(counter_delta("transport.bytes_out.")),
                "B",
            ),
            metric(
                "zab-transport.leader_frames_per_write",
                writes.map_or(ABSENT, |(count, sum)| ratio(sum as f64, count as f64)),
                "count",
            ),
            metric(
                "zab-transport.leader_writes_per_commit",
                per_commit(writes.map(|(count, _)| count)),
                "count",
            ),
            metric(
                "zab-log.append_us_per_commit",
                ratio(us(lead[total::APPEND_NS]), lead[total::APPEND_TXNS] as f64),
                "us",
            ),
            metric(
                "zab-log.flush_us_mean",
                ratio(us(lead[total::FLUSH_NS]), lead[total::FLUSHES] as f64),
                "us",
            ),
            metric(
                "zab-log.commits_per_flush",
                ratio(lead[total::APPEND_TXNS] as f64, lead[total::FLUSHES] as f64),
                "count",
            ),
            metric(
                "zab-log.bytes_appended_per_commit",
                ratio(lead[total::APPEND_BYTES] as f64, lead[total::APPEND_TXNS] as f64),
                "B",
            ),
            metric(
                "zab-log.disk_cpu_us_per_commit",
                us_per_commit(by_tid(self.totals[index(leader)].disk_tid.load(Relaxed))),
                "us",
            ),
            metric(
                "zab-log.busy_share",
                (lead[total::APPEND_NS] + lead[total::FLUSH_NS] + lead[total::COMPACT_NS]) as f64
                    / 1e9
                    / window_s,
                "share",
            ),
            metric("zab-log.compactions", lead[total::COMPACTIONS] as f64, "count"),
            metric(
                "zab-log.compact_ms_mean",
                ratio(us(lead[total::COMPACT_NS]) / 1e3, lead[total::COMPACTIONS] as f64),
                "ms",
            ),
            metric(
                "zab-log.compact_ms_max",
                self.totals.iter().map(|t| t.compact_max_ns.load(Relaxed)).max().unwrap_or(0)
                    as f64
                    / 1e6,
                "ms",
            ),
            metric(
                "zab-core.sync_bytes_per_rejoin",
                sync_bytes
                    .map_or(ABSENT, |b| ratio((b + self.sync_bytes_of_killed) as f64, rejoins)),
                "B",
            ),
        ])
    }
}

fn open_storage(cfg: &NodeConfig) -> Result<Box<dyn Storage + Send>, String> {
    Ok(match &cfg.data_dir {
        Some(dir) => Box::new(FileStorage::open(dir).map_err(|e| e.to_string())?),
        None => Box::new(MemStorage::new()),
    })
}

/// One traced attempt of the workload, on application `A`.
fn traced<A: Bench>(
    params: Params<'_>,
    trace: &Arc<Trace>,
    new_app: fn() -> A,
) -> Result<Measured, String> {
    let totals: Vec<Arc<Totals>> = (0..params.spec.n).map(|_| Arc::default()).collect();
    let spawn = |cfg: NodeConfig| {
        let id = cfg.id.0;
        let totals = &totals[(id - 1) as usize];
        let storage =
            TimedStorage::new(open_storage(&cfg)?, id, Arc::clone(totals), Arc::clone(trace));
        let app = TimedApp::new(new_app(), id, Arc::clone(totals), Arc::clone(trace));
        Replica::start_with_storage(cfg, app, Box::new(storage)).map_err(|e| e.to_string())
    };
    let mut probe =
        LayerProbe { totals: totals.clone(), start: None, end: None, sync_bytes_of_killed: 0 };
    let attempt = workload::run(params, &spawn, &mut probe)?;
    trace.call("window", 0, attempt.window.0, attempt.window.1, 0);
    let layers = probe.metrics(params.spec, &attempt)?;
    Ok(Measured { attempt, layers })
}

/// The workload's replica alone: an ensemble of one, saturated for a second.
/// Loop, core, log and application, no transport.
fn single_node(args: &Args, data_dir: &Path) -> Result<Metric, String> {
    let spec = Spec { n: 1, load: Load::Closed { in_flight: 256 }, kills: false, ..*args.spec };
    let params = Params {
        spec: &spec,
        seed: args.seed,
        warmup: Duration::from_millis(300),
        window: Duration::from_secs(1),
        setups: 1,
        data_dir,
    };
    let attempt = workload::run_end_to_end(params)?;
    if !attempt.violations.is_empty() {
        return Err(format!("single-node run: {}", attempt.violations.join("; ")));
    }
    let window_us = (attempt.window.1 - attempt.window.0).as_secs_f64() * 1e6;
    Ok(metric("zab-node.n1_us_per_commit", ratio(window_us, attempt.acks_in_window as f64), "us"))
}

/// `1 − traced ÷ untraced commit_ops_s`, against the last end-to-end run of
/// the same workload in this checkout; absent if there was none.
fn trace_overhead(args: &Args, traced_ops_s: f64) -> Metric {
    let untraced =
        std::fs::read_to_string(cli::result_path(args.spec.name)).ok().and_then(|json| {
            let after = json.split("\"commit_ops_s\": {\"value\": ").nth(1)?;
            after.split(',').next()?.parse::<f64>().ok()
        });
    let share = untraced.map_or(ABSENT, |u| 1.0 - traced_ops_s / u);
    metric("harness.trace_overhead_share", share, "share")
}

fn run(args: &Args, data_dir: &Path) -> Result<bool, String> {
    print!("{}", cli::stamp(args, data_dir));
    let trace = Trace::new();
    let ran = cli::attempts(args, data_dir, |params| match params.spec.app {
        AppKind::Kv => traced(params, &trace, KvApp::new),
        AppKind::Digest => traced(params, &trace, DigestApp::new),
    });
    let (summary, mut layers, correct) = ran?;
    let payloads = Payloads::new(args.seed, args.spec.payload);
    let mut drives = vec![single_node(args, data_dir)?];
    drives.extend(drives::codec(&payloads));
    drives.extend(drives::transport_pair(&payloads)?);
    drives.extend(drives::core_pump(&payloads)?);
    drives.extend(drives::simnet(args.seed, args.spec.payload)?);
    let traced_ops_s =
        summary.end_to_end.iter().find(|m| m.name == "commit_ops_s").map_or(0.0, |m| m.value);
    drives.push(trace_overhead(args, traced_ops_s));
    print!("{}", report::lines(&drives));

    let trace_path = cli::out_dir().join(format!("trace-{}.json", args.spec.name));
    let _ = std::fs::create_dir_all(cli::out_dir());
    std::fs::write(&trace_path, trace.to_json(args.spec.name))
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    println!("# spans written to {}", trace_path.display());

    layers.extend(summary.harness);
    layers.extend(drives);
    let layers = report::per_layer(layers)?;
    println!("{}", report::result_json(correct, summary.attempted, summary.failed, &layers));
    Ok(correct)
}

fn main() -> ExitCode {
    // One set-up is enough: `setup_s` is not a per-layer metric.
    let data_dir = cli::data_dir();
    let ran = cli::args_for(true).and_then(|args| run(&Args { setups: 1, ..args }, &data_dir));
    let _ = std::fs::remove_dir_all(&data_dir);
    match ran {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("zab-benchmark-layers: {e}");
            ExitCode::FAILURE
        }
    }
}

//! Turns what an attempt measured into named metrics, and prints them.

use crate::stats::{median, median_of_slices, percentile, slice_stats, SliceStats, UNACKED};
use crate::workload::{Attempt, Spec, GAP_SLICE};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end metrics, every one reported on every workload.
pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "commit_ops_s", unit: "1/s", better: Better::Higher, bound: 0.15 },
    EndToEnd { name: "commit_p50_ms", unit: "ms", better: Better::Lower, bound: 0.20 },
    EndToEnd { name: "commit_p999_ms", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "slo_10ms_share", unit: "share", better: Better::Higher, bound: 0.05 },
    EndToEnd { name: "committed_ops_share", unit: "share", better: Better::Higher, bound: 0.02 },
    EndToEnd { name: "cpu_us_per_commit", unit: "us", better: Better::Lower, bound: 0.15 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "service_gap_ms", unit: "ms", better: Better::Lower, bound: 0.25 },
];

/// The per-layer metrics, every one reported by every traced run.
pub const PER_LAYER: [(&str, &str, Better); 56] = [
    ("zab-kv.execute_us_per_commit", "us", Better::Lower),
    ("zab-kv.apply_us_per_commit", "us", Better::Lower),
    ("zab-kv.snapshot_ms_mean", "ms", Better::Lower),
    ("zab-node.leader_loop_cpu_us_per_commit", "us", Better::Lower),
    ("zab-node.follower_loop_cpu_us_per_commit", "us", Better::Lower),
    ("zab-node.admit_wait_us_p50", "us", Better::Lower),
    ("zab-node.submit_window_end", "count", Better::Higher),
    ("zab-node.rejected_share", "share", Better::Lower),
    ("zab-transport.leader_wire_cpu_us_per_commit", "us", Better::Lower),
    ("zab-transport.follower_wire_cpu_us_per_commit", "us", Better::Lower),
    ("zab-transport.leader_bytes_out_per_commit", "B", Better::Lower),
    ("zab-transport.leader_frames_per_write", "count", Better::Higher),
    ("zab-transport.leader_writes_per_commit", "count", Better::Lower),
    ("zab-log.append_us_per_commit", "us", Better::Lower),
    ("zab-log.flush_us_mean", "us", Better::Lower),
    ("zab-log.commits_per_flush", "count", Better::Higher),
    ("zab-log.bytes_appended_per_commit", "B", Better::Lower),
    ("zab-log.disk_cpu_us_per_commit", "us", Better::Lower),
    ("zab-log.busy_share", "share", Better::Lower),
    ("zab-log.compactions", "count", Better::Lower),
    ("zab-log.compact_ms_mean", "ms", Better::Lower),
    ("zab-log.compact_ms_max", "ms", Better::Lower),
    ("zab-core.sync_bytes_per_rejoin", "B", Better::Lower),
    ("harness.ensemble_ready_s", "s", Better::Lower),
    ("harness.steal_share", "share", Better::Lower),
    ("harness.gen_late_p99_ms", "ms", Better::Lower),
    ("harness.gen_cpu_share", "share", Better::Lower),
    ("harness.commit_p99_ms", "ms", Better::Lower),
    ("harness.failed_ops_share_raw", "share", Better::Lower),
    ("harness.rss_end_mb", "MB", Better::Lower),
    ("harness.kills", "count", Better::Higher),
    ("zab-node.shed_share", "share", Better::Lower),
    ("zab-election.decide_ms_p50", "ms", Better::Lower),
    ("zab-election.establish_ms_p50", "ms", Better::Lower),
    ("zab-election.first_commit_ms_p50", "ms", Better::Lower),
    ("zab-election.unavailable_max_ms", "ms", Better::Lower),
    ("zab-election.role_transitions_per_kill", "count", Better::Lower),
    ("zab-core.rejoin_ms_p50", "ms", Better::Lower),
    ("zab-node.n1_us_per_commit", "us", Better::Lower),
    ("zab-core.propose_encode_ns", "ns", Better::Lower),
    ("zab-core.propose_decode_ns", "ns", Better::Lower),
    ("zab-wire.frame_encode_ns", "ns", Better::Lower),
    ("zab-wire.frame_decode_ns", "ns", Better::Lower),
    ("zab-wire.crc32c_ns_per_kib", "ns", Better::Lower),
    ("zab-transport.pair_rtt_us_p50", "us", Better::Lower),
    ("zab-transport.pair_send_us_per_frame", "us", Better::Lower),
    ("zab-core.leader_handle_us_per_commit", "us", Better::Lower),
    ("zab-core.follower_handle_us_per_commit", "us", Better::Lower),
    ("zab-core.msgs_per_commit", "count", Better::Lower),
    ("zab-core.bytes_per_commit", "B", Better::Lower),
    ("zab-core.persists_per_commit", "count", Better::Lower),
    ("zab-simnet.msgs_per_commit", "count", Better::Lower),
    ("zab-simnet.bytes_per_commit", "B", Better::Lower),
    ("zab-simnet.virtual_ops_s", "1/s", Better::Higher),
    ("zab-simnet.wall_us_per_commit", "us", Better::Lower),
    ("harness.trace_overhead_share", "share", Better::Lower),
];

/// A run whose host stole more than this share of CPU time is disturbed.
pub const MAX_STEAL_SHARE: f64 = 0.02;
/// An open-loop run whose generator noticed ops this late (p99) is disturbed.
pub const MAX_GEN_LATE_P99_MS: f64 = 5.0;
/// A failover run with fewer complete kill cycles than this (or than one per
/// 4 s of window, if that is fewer) is invalid.
pub const MIN_KILL_CYCLES: usize = 4;

/// One named value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// A named value.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// An attempt, summarised.
#[derive(Debug, Clone)]
pub struct Summary {
    /// The nine end-to-end metrics, in [`END_TO_END`] order.
    pub end_to_end: Vec<Metric>,
    /// What the harness and the failover controller saw: validity of the run
    /// and the election timeline, reported with the per-layer metrics.
    pub harness: Vec<Metric>,
    /// One line per slice: what the medians were taken over.
    pub slices: Vec<String>,
    /// Ops of the window.
    pub attempted: u64,
    /// Of those, never acknowledged.
    pub failed: u64,
    /// Why the attempt should be repeated on a quieter host, if it should.
    pub disturbed: Option<String>,
    /// Why the attempt should be repeated whatever the host did, if it
    /// should: too few kill cycles completed for their median to mean much.
    pub invalid: Option<String>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A stretch of the window and the ops that belong to it: those that came
/// due (open loop) or were submitted (closed loop) inside it.
struct Slice {
    from: Instant,
    to: Instant,
    ops: std::ops::Range<usize>,
}

/// Every statistic of a run that is made of op outcomes is computed per slice
/// and reported as the median over slices, so that one livelocked election or
/// one burst of interference from a neighbour cannot decide the run. A slice
/// is a complete kill cycle (kill → next kill, or → end of window for the
/// last) where leaders are killed, else [`GAP_SLICE`] of the window.
fn slices(a: &Attempt) -> Vec<Slice> {
    let Some((schedule, first)) = a.due else {
        let marks = a.marks.windows(2);
        return marks.map(|m| Slice { from: m[0].0, to: m[1].0, ops: m[0].1..m[1].1 }).collect();
    };
    let op_at =
        |t: Instant| (schedule.due_count(t).saturating_sub(first - 1) as usize).min(a.lat_us.len());
    let slice = |from: Instant, to: Instant| Slice { from, to, ops: op_at(from)..op_at(to) };
    if a.kills.is_empty() {
        // The window is a whole number of slices give or take the rounding
        // of the op period.
        let window = a.window.1 - a.window.0;
        let n = (window.as_secs_f64() / GAP_SLICE.as_secs_f64()).round() as u32;
        let edge = |i: u32| if i == n { a.window.1 } else { a.window.0 + GAP_SLICE * i };
        return (0..n).map(|i| slice(edge(i), edge(i + 1))).collect();
    }
    // A cycle is complete once the victim has rejoined inside it.
    let ends = a.kills.iter().skip(1).map(|k| k.at).chain([a.window.1]);
    let cycles =
        a.kills.iter().zip(ends).filter(|(k, end)| k.rejoined_at.is_some_and(|t| t <= *end));
    cycles.map(|(k, end)| slice(k.at, end)).collect()
}

/// Commits per second and the longest time an op waited with nothing
/// acknowledged, in one slice.
fn service(a: &Attempt, slice: &Slice) -> (f64, Option<f64>) {
    let acks = a.acks.iter().filter(|b| slice.from <= b.at && b.at < slice.to);
    let (ops, gap) = acks.fold((0, None), |(ops, gap), b| (ops + b.ops, gap.max(Some(b.gap))));
    (ops as f64 / (slice.to - slice.from).as_secs_f64(), gap.map(ms))
}

fn p50_since_kill(a: &Attempt, event: impl Fn(&crate::workload::Kill) -> Option<Instant>) -> f64 {
    let v: Vec<f64> = a.kills.iter().filter_map(|k| Some(ms(event(k)? - k.at))).collect();
    median(&v).unwrap_or(0.0)
}

/// Summarises an attempt.
///
/// # Errors
///
/// Nothing was acknowledged inside the window: there is nothing to report.
pub fn summarise(spec: &Spec, a: &Attempt) -> Result<Summary, String> {
    let window_s = (a.window.1 - a.window.0).as_secs_f64();
    let attempted = a.lat_us.len() as u64;
    let failed = a.lat_us.iter().filter(|&&l| l == UNACKED).count() as u64;
    let mut slices = slices(a);
    // A short window (a smoke run) is not asked for that many cycles.
    let cycles_needed = MIN_KILL_CYCLES.min((window_s / 4.0) as usize);
    let invalid = (spec.kills && slices.len() < cycles_needed)
        .then(|| format!("{} complete kill cycles, {cycles_needed} needed", slices.len()));
    if slices.is_empty() {
        // A window with no complete slice is one slice.
        slices.push(Slice { from: a.window.0, to: a.window.1, ops: 0..a.lat_us.len() });
    }
    let per_slice: Vec<Option<SliceStats>> =
        slices.iter().map(|s| slice_stats(&a.lat_us[s.ops.clone()])).collect();
    let stats = median_of_slices(&per_slice.iter().flatten().copied().collect::<Vec<_>>());
    let service: Vec<(f64, Option<f64>)> = slices.iter().map(|s| service(a, s)).collect();
    let ops_s = median(&service.iter().map(|s| s.0).collect::<Vec<_>>());
    let gap = median(&service.iter().filter_map(|s| s.1).collect::<Vec<_>>());
    let commits = a.acks_in_window as f64;
    let setup_s = median(&a.setup_s).expect("at least one set-up");
    let (Some(stats), Some(ops_s), Some(gap), true) = (stats, ops_s, gap, a.acks_in_window > 0)
    else {
        return Err("nothing was acknowledged inside the window".to_string());
    };
    let values = [
        setup_s + a.warmup_s,
        ops_s,
        stats.p50_ms,
        stats.p999_ms,
        stats.slo_10ms_share,
        1.0 - failed as f64 / attempted as f64,
        a.cpu_s * 1e6 / commits,
        a.peak_rss_mb,
        gap,
    ];
    let end_to_end =
        END_TO_END.iter().zip(values).map(|(m, v)| metric(m.name, v, m.unit)).collect();

    let mut late = a.gen_late_us.clone();
    late.sort_unstable();
    let gen_late_p99_ms = percentile_or_zero(&late, 0.99) / 1e3;
    let unavailable: Vec<f64> =
        a.kills.iter().filter_map(|k| Some(ms(k.first_commit_at? - k.at))).collect();
    let harness = vec![
        metric("harness.ensemble_ready_s", setup_s, "s"),
        metric("harness.steal_share", a.steal_share, "share"),
        metric("harness.gen_late_p99_ms", gen_late_p99_ms, "ms"),
        metric("harness.gen_cpu_share", a.gen_cpu_s / window_s, "share"),
        metric("harness.commit_p99_ms", stats.p99_ms, "ms"),
        metric("harness.failed_ops_share_raw", failed as f64 / attempted as f64, "share"),
        metric("harness.rss_end_mb", a.rss_end_mb, "MB"),
        metric("harness.kills", a.kills.len() as f64, "count"),
        metric("zab-node.shed_share", a.shed as f64 / attempted as f64, "share"),
        metric("zab-election.decide_ms_p50", p50_since_kill(a, |k| k.decided_at), "ms"),
        metric("zab-election.establish_ms_p50", p50_since_kill(a, |k| k.established_at), "ms"),
        metric("zab-election.first_commit_ms_p50", p50_since_kill(a, |k| k.first_commit_at), "ms"),
        metric(
            "zab-election.unavailable_max_ms",
            unavailable.iter().copied().fold(0.0, f64::max),
            "ms",
        ),
        metric(
            "zab-election.role_transitions_per_kill",
            if a.kills.is_empty() { 0.0 } else { a.role_changes as f64 / a.kills.len() as f64 },
            "count",
        ),
        metric(
            "zab-core.rejoin_ms_p50",
            median(
                &a.kills
                    .iter()
                    .filter_map(|k| Some(ms(k.rejoined_at? - k.established_at?)))
                    .collect::<Vec<_>>(),
            )
            .unwrap_or(0.0),
            "ms",
        ),
    ];
    let mut disturbed = None;
    if a.steal_share > MAX_STEAL_SHARE {
        disturbed = Some(format!("host stole {:.1} % of CPU time", a.steal_share * 100.0));
    } else if gen_late_p99_ms > MAX_GEN_LATE_P99_MS {
        disturbed = Some(format!("generator ran {gen_late_p99_ms:.1} ms late at p99"));
    }
    let slices = slices
        .iter()
        .zip(per_slice.iter().zip(&service))
        .map(|(s, (lat, (ops_s, gap)))| {
            format!(
                "at {:.3} s for {:.3} s: {} ops, {ops_s:.0} commits/s, p50 {:.3} ms, p99.9 {:.3} ms, \
                 within 10 ms {:.4}, longest gap {:.3} ms",
                (s.from - a.window.0).as_secs_f64(),
                (s.to - s.from).as_secs_f64(),
                s.ops.len(),
                lat.map_or(f64::NAN, |l| l.p50_ms),
                lat.map_or(f64::NAN, |l| l.p999_ms),
                lat.map_or(f64::NAN, |l| l.slo_10ms_share),
                gap.unwrap_or(f64::NAN),
            )
        })
        .collect();
    Ok(Summary { end_to_end, harness, slices, attempted, failed, disturbed, invalid })
}

/// The `q`-quantile of ascending integer samples as a float, 0 if there is
/// none.
pub fn percentile_or_zero(sorted: &[u32], q: f64) -> f64 {
    percentile(sorted, q).map_or(0.0, f64::from)
}

/// The per-layer metrics of a traced run in the order [`PER_LAYER`] declares
/// them.
///
/// # Errors
///
/// A declared metric was not measured, or a measured one is not declared (or
/// has another unit): `BENCHMARK.json` promises exactly that list.
pub fn per_layer(mut measured: Vec<Metric>) -> Result<Vec<Metric>, String> {
    let mut ordered = Vec::with_capacity(PER_LAYER.len());
    for (name, unit, _) in PER_LAYER {
        let at = measured
            .iter()
            .position(|m| m.name == name && m.unit == unit)
            .ok_or_else(|| format!("per-layer metric {name} ({unit}) was not measured"))?;
        ordered.push(measured.swap_remove(at));
    }
    match measured.first() {
        Some(extra) => Err(format!("measured metric {} is not declared per-layer", extra.name)),
        None => Ok(ordered),
    }
}

/// `name value unit` lines, one per metric.
pub fn lines(metrics: &[Metric]) -> String {
    metrics.iter().fold(String::new(), |mut out, m| {
        let _ = writeln!(out, "{} {} {}", m.name, m.value, m.unit);
        out
    })
}

/// The result line the builder's contract specifies: one JSON object with
/// exactly the keys `correct`, `attempted`, `failed` and `metrics`.
///
/// # Panics
///
/// A metric is not finite (JSON has no way to write it, and nothing the
/// benchmark measures should be).
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out =
        format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, m) in metrics.iter().enumerate() {
        assert!(m.value.is_finite(), "metric {} is {}", m.name, m.value);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let metrics = [metric("latency_ms", 1.2034, "ms"), metric("setup_s", 0.8127, "s")];
        assert_eq!(
            result_json(true, 1000, 0, &metrics),
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        assert_eq!(lines(&metrics), "latency_ms 1.2034 ms\nsetup_s 0.8127 s\n");
    }

    #[test]
    fn traced_output_must_be_the_declared_list() {
        let all: Vec<Metric> = PER_LAYER.iter().rev().map(|(n, u, _)| metric(n, 1.0, u)).collect();
        let ordered = per_layer(all.clone()).expect("complete");
        assert!(ordered.iter().zip(PER_LAYER).all(|(m, (name, _, _))| m.name == name));
        assert!(per_layer(all[1..].to_vec()).unwrap_err().contains("was not measured"));
        let mut extra = all;
        extra.push(metric("zab-log.made_up", 1.0, "us"));
        assert!(per_layer(extra).unwrap_err().contains("not declared"));
    }

    #[test]
    #[should_panic(expected = "metric bad is NaN")]
    fn a_metric_that_is_not_a_number_is_refused() {
        let _ = result_json(true, 1, 0, &[metric("bad", f64::NAN, "ms")]);
    }

    /// `BENCHMARK.json` is written by hand; this keeps it and the code from
    /// drifting apart. The file is read as text: names, units, directions
    /// and bounds must appear exactly as [`END_TO_END`] and the workload
    /// table have them.
    #[test]
    fn benchmark_json_declares_what_the_code_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for m in END_TO_END {
            let better = if m.better == Better::Lower { "lower" } else { "higher" };
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\", \"bound\": {}}}",
                m.name, m.unit, m.bound
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
            assert!(m.bound <= 0.25, "{}: the contract caps bounds at 0.25", m.name);
        }
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
        for (name, unit, better) in PER_LAYER {
            let better = if better == Better::Lower { "lower" } else { "higher" };
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(json.matches("\"better\"").count(), END_TO_END.len() + PER_LAYER.len());
        for spec in crate::workload::SPECS {
            assert!(json.contains(&format!("{{\"name\": \"{}\", \"why\": \"", spec.name)));
            assert!(spec.why.len() <= 200 && !spec.why.contains('\n'));
        }
    }
}

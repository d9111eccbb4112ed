//! Seeded chaos sweep driver.
//!
//! ```text
//! chaos_search [START_SEED] [COUNT]
//! ```
//!
//! Runs `COUNT` (default 64) chaos schedules starting at `START_SEED`
//! (default 0) with the default [`zab_simnet::ChaosConfig`] — including
//! the post-convergence metrics cross-check. On the first failure it
//! prints the replayable `(seed, schedule)` report, writes it to
//! `chaos-failure.txt` (or `$CHAOS_ARTIFACT` if set) for CI artifact
//! upload alongside one `chaos-trace-n<ID>.json` flight-recorder dump
//! per node (Chrome trace-event format, loadable in Perfetto), and exits
//! nonzero. On success it writes an aggregate metrics summary as JSON to
//! `chaos-metrics.json` (or `$CHAOS_METRICS`).
//!
//! Malformed arguments print usage and exit with status 2; they never
//! panic.

use zab_simnet::chaos::{self, ChaosConfig, ChaosReport};
use zab_trace::json::Json;

fn usage(reason: &str) -> ! {
    eprintln!("error: {reason}");
    eprintln!("usage: chaos_search [START_SEED] [COUNT]");
    eprintln!("  START_SEED  first seed to run (u64, default 0)");
    eprintln!("  COUNT       number of seeds to run (u64, default 64)");
    std::process::exit(2);
}

fn parse_arg(arg: Option<String>, name: &str, default: u64) -> u64 {
    match arg {
        None => default,
        Some(a) => match a.parse() {
            Ok(v) => v,
            Err(_) => usage(&format!("{name} must be a u64, got {a:?}")),
        },
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let start = parse_arg(args.next(), "START_SEED", 0);
    let count = parse_arg(args.next(), "COUNT", 64);
    let cfg = ChaosConfig::default();
    if let Some(extra) = args.next() {
        usage(&format!("unexpected argument {extra:?}"));
    }

    println!(
        "chaos sweep: seeds {start}..{} ({} nodes, {} steps/run, disk faults {}, \
         clock skew {}, metrics checks {})",
        start.saturating_add(count),
        cfg.nodes,
        cfg.steps,
        if cfg.disk_faults { "on" } else { "off" },
        if cfg.clock_skew { "on" } else { "off" },
        if cfg.check_metrics { "on" } else { "off" },
    );

    match chaos::sweep(start, count, &cfg) {
        Ok(reports) => {
            let sum = |f: fn(&ChaosReport) -> u64| reports.iter().map(f).sum::<u64>();
            let runs = reports.len();
            let ops = sum(|r| r.ops_completed);
            let msgs = sum(|r| r.messages_delivered);
            let dropped = sum(|r| r.messages_dropped);
            let elections = sum(|r| r.elections_started);
            let faults = sum(|r| r.storage_faults);
            let virt_s = sum(|r| r.end_us) as f64 / 1_000_000.0;
            println!(
                "PASS: {runs} runs, {virt_s:.1}s virtual time, {ops} ops committed, \
                 {msgs} msgs delivered ({dropped} dropped), {elections} elections, \
                 {faults} injected storage fail-stops",
            );
            // The same totals as a small flat JSON object.
            let summary = Json::obj([
                ("runs", runs.into()),
                ("ops_completed", ops.into()),
                ("messages_delivered", msgs.into()),
                ("messages_dropped", dropped.into()),
                ("elections_started", elections.into()),
                ("storage_faults", faults.into()),
                ("virtual_seconds", Json::fixed(virt_s, 3)),
            ]);
            let path =
                std::env::var("CHAOS_METRICS").unwrap_or_else(|_| "chaos-metrics.json".to_string());
            match std::fs::write(&path, summary.to_string()) {
                Ok(()) => println!("metrics summary written to {path}"),
                Err(e) => eprintln!("could not write metrics summary {path}: {e}"),
            }
        }
        Err(failure) => {
            let report = failure.to_string();
            eprintln!("{report}");
            let path =
                std::env::var("CHAOS_ARTIFACT").unwrap_or_else(|_| "chaos-failure.txt".to_string());
            if let Err(e) = std::fs::write(&path, &report) {
                eprintln!("could not write failure artifact {path}: {e}");
            } else {
                eprintln!("failure artifact written to {path}");
            }
            // Flight-recorder dumps land next to the failure report: the
            // causal history of every node leading into the violation.
            let dir = std::path::Path::new(&path).parent().unwrap_or(std::path::Path::new("."));
            for (node, events) in &failure.traces {
                let trace_path = dir.join(format!("chaos-trace-n{node}.json"));
                match std::fs::write(&trace_path, zab_trace::chrome_trace_json(events).to_string())
                {
                    Ok(()) => eprintln!(
                        "flight recorder ({} events) written to {}",
                        events.len(),
                        trace_path.display()
                    ),
                    Err(e) => eprintln!("could not write trace {}: {e}", trace_path.display()),
                }
            }
            std::process::exit(1);
        }
    }
}

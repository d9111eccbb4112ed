//! `zabctl` — ensemble inspector for the Zab reproduction.
//!
//! ```text
//! zabctl --nodes 127.0.0.1:7461,127.0.0.1:7462,127.0.0.1:7463 status [--json]
//! zabctl --nodes ... trace <zxid> [--json]       zxid: packed or epoch:counter
//! zabctl --nodes ... audit [--watch] [--interval-ms N] [--rounds N] [--json]
//! ```
//!
//! `--nodes` may also come from the `ZABCTL_NODES` environment variable.
//! Exit codes: 0 clean, 1 violations found or nothing scrapable, 2 usage.

use std::process::ExitCode;
use std::time::Duration;
use zab_ops::audit::{self, AuditState};
use zab_ops::{scrape, status};

const USAGE: &str = "usage: zabctl --nodes <addr,addr,...> [--json] [--timeout-ms N] \
                     <status | trace <zxid> | audit [--watch] [--interval-ms N] [--rounds N]>";

struct Opts {
    nodes: Vec<String>,
    json: bool,
    timeout: Duration,
    watch: bool,
    interval: Duration,
    rounds: Option<u64>,
    cmd: Cmd,
}

enum Cmd {
    Status,
    Trace(u64),
    Audit,
}

fn parse_args(mut args: Vec<String>) -> Result<Opts, String> {
    let mut nodes: Option<String> = std::env::var("ZABCTL_NODES").ok();
    let mut json = false;
    let mut timeout_ms = 3000u64;
    let mut watch = false;
    let mut interval_ms = 1000u64;
    let mut rounds: Option<u64> = None;
    let mut positional: Vec<String> = Vec::new();

    let next_value = |args: &mut Vec<String>, flag: &str| -> Result<String, String> {
        if args.is_empty() {
            return Err(format!("{flag} needs a value"));
        }
        Ok(args.remove(0))
    };
    while !args.is_empty() {
        let a = args.remove(0);
        match a.as_str() {
            "--nodes" => nodes = Some(next_value(&mut args, "--nodes")?),
            "--json" => json = true,
            "--timeout-ms" => {
                timeout_ms = next_value(&mut args, "--timeout-ms")?
                    .parse()
                    .map_err(|_| "--timeout-ms needs an integer".to_string())?;
            }
            "--watch" => watch = true,
            "--once" => watch = false,
            "--interval-ms" => {
                interval_ms = next_value(&mut args, "--interval-ms")?
                    .parse()
                    .map_err(|_| "--interval-ms needs an integer".to_string())?;
            }
            "--rounds" => {
                rounds = Some(
                    next_value(&mut args, "--rounds")?
                        .parse()
                        .map_err(|_| "--rounds needs an integer".to_string())?,
                );
            }
            "--help" | "-h" => return Err(String::new()),
            other if other.starts_with("--") => return Err(format!("unknown flag {other:?}")),
            _ => positional.push(a),
        }
    }
    let nodes: Vec<String> = nodes
        .ok_or("--nodes (or ZABCTL_NODES) is required")?
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    if nodes.is_empty() {
        return Err("--nodes list is empty".to_string());
    }
    let cmd = match positional.first().map(String::as_str) {
        Some("status") => Cmd::Status,
        Some("trace") => {
            let z = positional.get(1).ok_or("trace needs a zxid")?;
            Cmd::Trace(
                zab_trace::parse_zxid(z)
                    .ok_or_else(|| format!("bad zxid {z:?} (packed or epoch:counter)"))?,
            )
        }
        Some("audit") => Cmd::Audit,
        Some(other) => return Err(format!("unknown command {other:?}")),
        None => return Err("a command is required".to_string()),
    };
    Ok(Opts {
        nodes,
        json,
        timeout: Duration::from_millis(timeout_ms.max(1)),
        watch,
        interval: Duration::from_millis(interval_ms.max(10)),
        rounds,
        cmd,
    })
}

fn run_status(opts: &Opts) -> ExitCode {
    let snap = scrape::ensemble(&opts.nodes, opts.timeout);
    if opts.json {
        println!("{}", status::render_status_json(&snap));
    } else {
        print!("{}", status::render_status_text(&snap));
    }
    if snap.nodes.is_empty() {
        eprintln!("zabctl: no node answered /health");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn run_trace(opts: &Opts, zxid: u64) -> ExitCode {
    let snap = scrape::ensemble(&opts.nodes, opts.timeout);
    let reference = snap
        .leader()
        .map(|l| l.node)
        .unwrap_or_else(|| snap.nodes.first().map_or(0, |(_, n)| n.node));
    let (events, errors) = scrape::traces(&opts.nodes, opts.timeout);
    for (addr, err) in &errors {
        eprintln!("zabctl: trace scrape failed for {addr}: {err}");
    }
    if events.is_empty() && !errors.is_empty() {
        eprintln!("zabctl: no node answered /trace");
        return ExitCode::FAILURE;
    }
    // Align on the full event set (more wire edges -> better offsets),
    // then narrow to the requested zxid.
    let (aligned, offsets) = zab_trace::align::stitch(&events, reference);
    let timeline: Vec<_> = aligned.into_iter().filter(|e| e.covers(zxid)).collect();
    if opts.json {
        println!("{}", status::render_timeline_json(zxid, &timeline, &offsets));
    } else {
        print!("{}", status::render_timeline_text(zxid, &timeline, &offsets));
    }
    ExitCode::SUCCESS
}

fn run_audit(opts: &Opts) -> ExitCode {
    let mut state = AuditState::new();
    let mut total = 0u64;
    let max_rounds = opts.rounds.unwrap_or(if opts.watch { u64::MAX } else { 1 });
    for round in 0..max_rounds {
        if round > 0 {
            std::thread::sleep(opts.interval);
        }
        let snap = scrape::ensemble(&opts.nodes, opts.timeout);
        let violations = state.check_round(&snap, opts.watch);
        total += violations.len() as u64;
        if opts.json {
            println!("{}", audit::render_round_json(round, snap.nodes.len(), &violations));
        } else {
            if violations.is_empty() {
                println!(
                    "audit round {round}: ok ({} nodes, {} unreachable)",
                    snap.nodes.len(),
                    snap.errors.len()
                );
            }
            for v in &violations {
                println!("audit round {round}: VIOLATION {v}");
            }
        }
        if snap.nodes.is_empty() && !opts.watch {
            eprintln!("zabctl: no node answered /health");
            return ExitCode::FAILURE;
        }
    }
    if total > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(args) {
        Ok(o) => o,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("zabctl: {msg}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match opts.cmd {
        Cmd::Status => run_status(&opts),
        Cmd::Trace(z) => run_trace(&opts, z),
        Cmd::Audit => run_audit(&opts),
    }
}

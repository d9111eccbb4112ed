//! **Admin-endpoint smoke driver for CI.**
//!
//! ```text
//! admin_smoke [--hold-secs S] [--base-port P]
//! ```
//!
//! Boots a real 3-node localhost ensemble with the admin endpoint
//! enabled on every node (ports `P`, `P+1`, `P+2`; ephemeral if no
//! `--base-port`), waits for a fully active ensemble, commits a batch of
//! transactions, and writes the merged flight-recorder dump to
//! `trace-sample.json` (`$TRACE_OUT` overrides) as Chrome trace-event
//! JSON. It then prints one `admin <id> <addr>` line per node plus
//! `READY`, and holds the cluster up for `--hold-secs` (default 0) so an
//! external prober — CI `curl` — can exercise `/metrics`, `/health`, and
//! `/trace` against live replicas.
//!
//! Exits nonzero (with a message) if the ensemble fails to elect, sync,
//! or commit; malformed arguments print usage and exit 2.

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener};
use std::time::{Duration, Instant};
use zab_core::ServerId;
use zab_node::{apps::BytesApp, NodeConfig, NodeEvent, Replica, Role};
use zab_trace::{chrome_trace_json, merge};

const N: u64 = 3;
const OPS: u32 = 25;

fn usage(reason: &str) -> ! {
    eprintln!("error: {reason}");
    eprintln!("usage: admin_smoke [--hold-secs S] [--base-port P]");
    std::process::exit(2);
}

fn parse_flag(args: &[String], flag: &str) -> Option<u64> {
    args.iter().position(|a| a == flag).map(|i| match args.get(i + 1).map(|v| v.parse()) {
        Some(Ok(v)) => v,
        _ => usage(&format!("{flag} needs a numeric value")),
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let hold_secs = parse_flag(&args, "--hold-secs").unwrap_or(0);
    let base_port = parse_flag(&args, "--base-port").unwrap_or(0);

    let book: BTreeMap<ServerId, SocketAddr> = (1..=N)
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
            let admin_port = if base_port == 0 { 0 } else { base_port + id.0 - 1 };
            let admin: SocketAddr = format!("127.0.0.1:{admin_port}").parse().expect("admin addr");
            let cfg = NodeConfig::new(id, book.clone()).with_admin(admin);
            (id, Replica::start(cfg, BytesApp::new()).expect("start replica"))
        })
        .collect();

    // Elect, and wait for every follower to finish syncing so the batch
    // below travels the broadcast path (and therefore the trace).
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
    while !replicas.values().all(|r| {
        matches!(
            r.role(),
            Role::Leading { established: true, .. } | Role::Following { active: true, .. }
        )
    }) {
        assert!(Instant::now() < deadline, "ensemble never became fully active");
        std::thread::sleep(Duration::from_millis(10));
    }

    for i in 0..OPS {
        replicas[&leader].submit(i.to_le_bytes().to_vec());
    }
    for (&id, r) in &replicas {
        let mut got = 0;
        let deadline = Instant::now() + Duration::from_secs(30);
        while got < OPS && Instant::now() < deadline {
            if let Ok(NodeEvent::Delivered(_)) = r.events().recv_timeout(Duration::from_millis(100))
            {
                got += 1;
            }
        }
        assert_eq!(got, OPS, "replica {id} missed deliveries");
    }

    let trace_path = std::env::var("TRACE_OUT").unwrap_or_else(|_| "trace-sample.json".to_string());
    let merged = merge(replicas.values().map(Replica::trace_events).collect());
    std::fs::write(&trace_path, chrome_trace_json(&merged).to_string())
        .expect("write trace sample");
    println!("trace sample ({} events) written to {trace_path}", merged.len());

    for (&id, r) in &replicas {
        let addr = r.admin_addr().expect("admin endpoint bound");
        println!("admin {} {addr}", id.0);
    }
    println!("READY");

    let hold_until = Instant::now() + Duration::from_secs(hold_secs);
    while Instant::now() < hold_until {
        std::thread::sleep(Duration::from_millis(100));
    }
}

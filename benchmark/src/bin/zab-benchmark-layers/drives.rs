//! Single-threaded drives of one layer at a time, through its public
//! functions: the codec loops, a transport pair, a hand-pumped leader with
//! two followers, and a seeded simulator run. No other thread competes, so
//! these are the steadiest numbers the benchmark has, and the counts among
//! them repeat exactly.

use bytes::Bytes;
use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::net::{SocketAddr, TcpListener};
use std::time::{Duration, Instant};
use zab_benchmark::gen::Payloads;
use zab_benchmark::report::{metric, Metric};
use zab_benchmark::stats::percentile;
use zab_core::{
    Action, ClusterConfig, Epoch, Follower, Input, Leader, Message, PersistentState, ServerId, Txn,
    Zxid,
};
use zab_simnet::{ClosedLoopSpec, SimBuilder};
use zab_transport::{Transport, TransportEvent, TransportMsg};
use zab_wire::crc32c::crc32c;
use zab_wire::{encode_frame, FrameDecoder};

/// Mean nanoseconds per call of `f` over `iterations` calls.
fn ns_per_call(iterations: u32, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iterations {
        f();
    }
    start.elapsed().as_nanos() as f64 / f64::from(iterations)
}

fn propose(payload: Vec<u8>, counter: u32) -> Message {
    Message::Propose {
        txn: Txn::new(Zxid::new(Epoch(1), counter), payload),
        commit_up_to: Zxid::new(Epoch(1), counter - 1),
    }
}

/// `zab-wire` framing and CRC, and the `Message` codec, on the workload's
/// payload size.
pub fn codec(payloads: &Payloads) -> Vec<Metric> {
    const ITERATIONS: u32 = 50_000;
    let msg = propose(payloads.get(1), 2);
    let encoded = msg.encode();
    let shared = Bytes::from(encoded.clone());
    let frame = encode_frame(&encoded);
    let mut decoder = FrameDecoder::new();
    let block = vec![0xA5u8; 64 << 10];
    vec![
        metric(
            "zab-core.propose_encode_ns",
            ns_per_call(ITERATIONS, || drop(black_box(black_box(&msg).encode()))),
            "ns",
        ),
        metric(
            "zab-core.propose_decode_ns",
            ns_per_call(ITERATIONS, || {
                black_box(Message::decode_bytes(black_box(shared.clone())).expect("own encoding"));
            }),
            "ns",
        ),
        metric(
            "zab-wire.frame_encode_ns",
            ns_per_call(ITERATIONS, || drop(black_box(encode_frame(black_box(&encoded))))),
            "ns",
        ),
        metric(
            "zab-wire.frame_decode_ns",
            ns_per_call(ITERATIONS, || {
                decoder.extend(black_box(&frame));
                black_box(decoder.next_frame().expect("intact frame").expect("whole frame"));
            }),
            "ns",
        ),
        metric(
            "zab-wire.crc32c_ns_per_kib",
            ns_per_call(2_000, || {
                black_box(crc32c(black_box(&block)));
            }) / 64.0,
            "ns",
        ),
    ]
}

fn free_addr() -> std::io::Result<SocketAddr> {
    TcpListener::bind("127.0.0.1:0")?.local_addr()
}

fn next_message(t: &Transport, within: Duration) -> Result<(), String> {
    let deadline = Instant::now() + within;
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        match t.events().recv_timeout(left) {
            Ok(TransportEvent::Message { .. }) => return Ok(()),
            Ok(_) => {}
            Err(_) => return Err(format!("transport {} heard nothing for {within:?}", t.id())),
        }
    }
}

/// A `Transport` pair over loopback, both ends driven by this thread: the
/// round trip is the floor under any commit latency, the send cost is what
/// the leader pays per follower and frame.
pub fn transport_pair(payloads: &Payloads) -> Result<Vec<Metric>, String> {
    const ROUND_TRIPS: usize = 2_000;
    const BURST: u32 = 64;
    const BURSTS: u32 = 200;
    let (a, b) = (ServerId(1), ServerId(2));
    let book: BTreeMap<ServerId, SocketAddr> = [a, b]
        .into_iter()
        .map(|id| Ok((id, free_addr()?)))
        .collect::<std::io::Result<_>>()
        .map_err(|e| e.to_string())?;
    let start = |id| Transport::start(id, book[&id], book.clone()).map_err(|e| e.to_string());
    let (ta, tb) = (start(a)?, start(b)?);
    let msg = |n| TransportMsg::Zab(propose(payloads.get(1), n));
    // Frames queued before the mesh connects are dropped: knock until heard.
    let connected = Instant::now() + Duration::from_secs(10);
    loop {
        ta.queue(b, msg(2));
        ta.flush();
        if next_message(&tb, Duration::from_millis(20)).is_ok() {
            break;
        }
        if Instant::now() >= connected {
            return Err("transport pair did not connect".to_string());
        }
    }
    tb.queue(a, msg(2));
    tb.flush();
    next_message(&ta, Duration::from_secs(5))?;
    while tb.events().try_recv().is_ok() {}

    let mut rtt_ns = Vec::with_capacity(ROUND_TRIPS);
    for _ in 0..ROUND_TRIPS {
        let sent = Instant::now();
        ta.queue(b, msg(2));
        ta.flush();
        next_message(&tb, Duration::from_secs(5))?;
        tb.queue(a, msg(2));
        tb.flush();
        next_message(&ta, Duration::from_secs(5))?;
        rtt_ns.push(sent.elapsed().as_nanos() as u64);
    }
    rtt_ns.sort_unstable();
    let mut sending = Duration::ZERO;
    for _ in 0..BURSTS {
        let started = Instant::now();
        for n in 0..BURST {
            ta.queue(b, msg(n + 2));
        }
        ta.flush();
        sending += started.elapsed();
        for _ in 0..BURST {
            next_message(&tb, Duration::from_secs(5))?;
        }
    }
    Ok(vec![
        metric(
            "zab-transport.pair_rtt_us_p50",
            percentile(&rtt_ns, 0.5).expect("round trips") as f64 / 1e3,
            "us",
        ),
        metric(
            "zab-transport.pair_send_us_per_frame",
            sending.as_secs_f64() * 1e6 / f64::from(BURST * BURSTS),
            "us",
        ),
    ])
}

/// A leader and two followers pumped by hand: every `Send`/`Broadcast`
/// becomes a `Message` input at once, every `Persist` is `Persisted` at once,
/// `Deliver`s on the leader are counted. No clock advances, nothing is lost,
/// so the message, byte and persist counts are exact.
struct Pump {
    leader: Leader,
    followers: BTreeMap<ServerId, Follower>,
    queue: VecDeque<(ServerId, Input)>,
    leader_busy: Duration,
    follower_busy: Duration,
    messages: u64,
    bytes: u64,
    persists: u64,
    commits: u64,
}

impl Pump {
    const LEADER: ServerId = ServerId(1);

    fn new() -> Pump {
        let ids = [ServerId(1), ServerId(2), ServerId(3)];
        let cfg = ClusterConfig::majority(ids);
        let (leader, actions) =
            Leader::new(Pump::LEADER, cfg.clone(), PersistentState::default(), Zxid::ZERO, 0);
        let mut pump = Pump {
            leader,
            followers: BTreeMap::new(),
            queue: VecDeque::new(),
            leader_busy: Duration::ZERO,
            follower_busy: Duration::ZERO,
            messages: 0,
            bytes: 0,
            persists: 0,
            commits: 0,
        };
        pump.route(Pump::LEADER, actions);
        for &id in &ids[1..] {
            let (follower, actions) = Follower::new(
                id,
                Pump::LEADER,
                cfg.clone(),
                PersistentState::default(),
                Zxid::ZERO,
                0,
            );
            pump.followers.insert(id, follower);
            pump.route(id, actions);
        }
        pump.run();
        pump
    }

    fn route(&mut self, from: ServerId, actions: Vec<Action>) {
        for action in actions {
            match action {
                Action::Send { to, msg } => self.post(from, to, msg),
                Action::Broadcast { to, msg } => {
                    for to in to {
                        self.post(from, to, msg.clone());
                    }
                }
                Action::Persist { token, .. } => {
                    self.persists += 1;
                    self.queue.push_back((from, Input::Persisted { token }));
                }
                Action::Deliver { .. } if from == Pump::LEADER => self.commits += 1,
                _ => {}
            }
        }
    }

    fn post(&mut self, from: ServerId, to: ServerId, msg: Message) {
        self.messages += 1;
        self.bytes += msg.encode().len() as u64;
        self.queue.push_back((to, Input::Message { from, msg }));
    }

    fn run(&mut self) {
        while let Some((to, input)) = self.queue.pop_front() {
            let started = Instant::now();
            let actions = match self.followers.get_mut(&to) {
                Some(follower) => follower.handle(input),
                None => self.leader.handle(input),
            };
            let busy = started.elapsed();
            if to == Pump::LEADER {
                self.leader_busy += busy;
            } else {
                self.follower_busy += busy;
            }
            self.route(to, actions);
        }
    }
}

/// The `zab-core` automata alone.
pub fn core_pump(payloads: &Payloads) -> Result<Vec<Metric>, String> {
    const BATCH: u64 = 64;
    const OPS: u64 = 320 * BATCH;
    let mut pump = Pump::new();
    if !pump.leader.is_established() {
        return Err("hand-pumped leader did not establish".to_string());
    }
    let base = (pump.messages, pump.bytes, pump.persists, pump.leader_busy, pump.follower_busy);
    let mut id = 0;
    while id < OPS {
        for _ in 0..BATCH {
            id += 1;
            let data = Bytes::from(payloads.get(id));
            pump.queue.push_back((Pump::LEADER, Input::ClientRequest { data }));
        }
        pump.run();
    }
    if pump.commits != OPS {
        return Err(format!("hand-pumped leader delivered {} of {OPS} ops", pump.commits));
    }
    let per_commit = |n: u64| n as f64 / OPS as f64;
    let us_per_commit = |d: Duration| d.as_secs_f64() * 1e6 / OPS as f64;
    Ok(vec![
        metric(
            "zab-core.leader_handle_us_per_commit",
            us_per_commit(pump.leader_busy - base.3),
            "us",
        ),
        metric(
            "zab-core.follower_handle_us_per_commit",
            us_per_commit(pump.follower_busy - base.4) / 2.0,
            "us",
        ),
        metric("zab-core.msgs_per_commit", per_commit(pump.messages - base.0), "count"),
        metric("zab-core.bytes_per_commit", per_commit(pump.bytes - base.1), "B"),
        metric("zab-core.persists_per_commit", per_commit(pump.persists - base.2), "count"),
    ])
}

/// A seeded `zab-simnet` run: a saturating closed loop on three simulated
/// nodes, then a leader crash that discards everything after its last sync,
/// a restart, and the primary-order and convergence checks. Virtual time and
/// one seeded scheduler, so the counts repeat exactly for a seed.
pub fn simnet(seed: u64, payload: usize) -> Result<Vec<Metric>, String> {
    const OPS: u64 = 4_000;
    const SEC: u64 = 1_000_000;
    let mut sim = SimBuilder::new(3).seed(seed).build();
    let leader = sim.run_until_leader(30 * SEC).ok_or("simulated ensemble elected nobody")?;
    let (messages, bytes) = (sim.stats().messages_delivered, sim.stats().bytes_delivered);
    sim.install_closed_loop(ClosedLoopSpec::saturating(64, payload, OPS));
    let started = Instant::now();
    if !sim.run_until_completed(OPS, 600 * SEC) {
        return Err("simulated workload stalled".to_string());
    }
    let wall = started.elapsed();
    let stats = sim.stats();
    let results = vec![
        metric(
            "zab-simnet.msgs_per_commit",
            (stats.messages_delivered - messages) as f64 / OPS as f64,
            "count",
        ),
        metric(
            "zab-simnet.bytes_per_commit",
            (stats.bytes_delivered - bytes) as f64 / OPS as f64,
            "B",
        ),
        metric(
            "zab-simnet.virtual_ops_s",
            stats.throughput_ops_per_sec().ok_or("simulated run completed too few ops")?,
            "1/s",
        ),
        metric("zab-simnet.wall_us_per_commit", wall.as_secs_f64() * 1e6 / OPS as f64, "us"),
    ];
    sim.stop_workload();
    sim.crash(leader);
    sim.run_for(2 * SEC);
    sim.restart(leader);
    sim.run_for(5 * SEC);
    sim.check_invariants().map_err(|e| format!("simulated run broke primary order: {e:?}"))?;
    sim.check_converged()?;
    Ok(results)
}

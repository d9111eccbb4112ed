//! # zab-transport — TCP mesh for Zab replicas
//!
//! Zab assumes FIFO channels that either deliver intact, in-order bytes or
//! break visibly — exactly TCP's contract. This crate provides that
//! substrate for real deployments:
//!
//! - every node keeps **one outgoing connection per peer**, used only for
//!   its own sends (so each direction is an independent FIFO channel and
//!   no connection-dueling logic is needed),
//! - connections carry an 8-byte handshake (the sender's [`ServerId`])
//!   followed by checksummed frames ([`zab_wire::frame`]), each framing a
//!   1-byte channel tag (Zab protocol vs. leader election) plus the
//!   encoded message,
//! - a broken connection surfaces as [`TransportEvent::PeerDisconnected`]
//!   and queued unsent messages are *dropped* — the protocol automata
//!   treat a channel break as fatal to the session and resynchronize, so
//!   delivering stale traffic on a fresh connection would be wrong; every
//!   such drop (and every send to an unknown or unreachable peer) ticks
//!   the `transport.send_dropped` counter,
//! - outgoing connections retry with **capped exponential backoff plus
//!   deterministic jitter** (seeded from the `(me, peer)` pair, so retry
//!   timing replays in tests and peers don't thundering-herd a rebooted
//!   node), and every failed dial surfaces as
//!   [`TransportEvent::ConnectFailed`] rather than vanishing.
//!
//! ## Architecture: corked sends, one readiness loop
//!
//! Sends run on the **caller's** thread, in two steps.
//! [`Transport::queue`] / [`Transport::queue_broadcast`] encode the
//! message once into a refcounted [`Frame`](conn::Frame) (payload bytes
//! *and* checksum computed exactly once, shared across every target peer)
//! and cork it into each peer's write buffer. [`Transport::flush`], at the
//! caller's batch boundary, takes each touched peer's write lock and
//! writes its accumulated burst straight into the nonblocking socket — one
//! vectored write covering up to 64 frames / 256 KiB per syscall, resuming
//! partial writes from a cursor ([`conn::WriteBuf`]). The hot path costs
//! no cross-thread handoff and no wakeup, and nothing reaches a peer
//! before `flush`.
//!
//! Everything asynchronous — accepting, reading inbound frames, dialing
//! with backoff, and draining a socket that went `WouldBlock` under a
//! flush — belongs to **a single I/O thread per node**: an event-driven
//! readiness loop ([`wire_loop`]) over nonblocking sockets and `poll(2)`
//! ([`poller`]). A choked flush pokes the loop's waker; the loop arms
//! `POLLOUT` and finishes the job as readiness arrives.
//!
//! The payoff is flat ensemble scaling: where the old design spent
//! 2(N−1)+1 threads per node (and a kernel wakeup per peer per message),
//! a 9-node mesh now costs each node one I/O thread and a pollfd set,
//! and a leader PROPOSE is one encode plus N−1 iovec references.

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use zab_core::{Message, ServerId};
use zab_election::Notification;
use zab_metrics::{Counter, Registry};
use zab_trace::{Stage, Tracer};

mod backoff;
mod conn;
mod poller;
mod wire_loop;

use conn::Frame;
use poller::Waker;
use wire_loop::{Outbound, WireLoop};

/// A message on the mesh: protocol or election traffic.
#[derive(Debug, Clone)]
pub enum TransportMsg {
    /// Zab protocol message.
    Zab(Message),
    /// Fast-leader-election notification.
    Election(Notification),
}

impl TransportMsg {
    /// Encodes channel tag + message into one buffer, returned as
    /// refcounted [`Bytes`]: fanning the same message out to several peers
    /// clones the handle, never the encoded bytes.
    fn encode(&self) -> Bytes {
        let mut buf = Vec::with_capacity(16);
        match self {
            TransportMsg::Zab(m) => {
                buf.push(0u8);
                m.encode_into(&mut buf);
            }
            TransportMsg::Election(n) => {
                buf.push(1u8);
                buf.extend(n.encode());
            }
        }
        Bytes::from(buf)
    }

    /// The zxid to attribute this message to in the flight recorder.
    /// Only the broadcast-path messages (PROPOSE/ACK/COMMIT) are traced;
    /// heartbeats, election traffic, and sync streams would drown the
    /// per-transaction timelines in noise.
    pub(crate) fn traced_zxid(&self) -> Option<u64> {
        match self {
            TransportMsg::Zab(Message::Propose { txn, .. }) => Some(txn.zxid.0),
            TransportMsg::Zab(Message::Ack { zxid })
            | TransportMsg::Zab(Message::Commit { zxid }) => Some(zxid.0),
            _ => None,
        }
    }

    /// Decodes a channel-tagged frame payload. Zab transaction payloads
    /// come back as zero-copy views of `data`.
    pub(crate) fn decode(data: Bytes) -> Option<TransportMsg> {
        let &tag = data.first()?;
        let rest = data.slice(1..);
        match tag {
            0 => Message::decode_bytes(rest).ok().map(TransportMsg::Zab),
            1 => Notification::decode(&rest).ok().map(TransportMsg::Election),
            _ => None,
        }
    }
}

/// Events surfaced to the replica's event loop.
#[derive(Debug, Clone)]
pub enum TransportEvent {
    /// A message arrived from `from`.
    Message {
        /// Sending server.
        from: ServerId,
        /// The message.
        msg: TransportMsg,
    },
    /// The FIFO channel to/from `peer` broke (either direction).
    PeerDisconnected {
        /// The peer.
        peer: ServerId,
    },
    /// An outgoing dial to `peer` failed; the sender is backing off.
    /// Surfaced so operators see unreachable peers instead of silence.
    ConnectFailed {
        /// The peer.
        peer: ServerId,
        /// Consecutive failures so far (0 = first).
        attempt: u32,
        /// The dial error.
        error: String,
    },
}

/// The TCP mesh endpoint for one replica.
///
/// Create with [`Transport::start`]; send with [`Transport::queue`] and
/// [`Transport::flush`]; drain [`Transport::events`] from the replica's
/// event loop. Dropping the transport stops the I/O thread, joins it, and
/// closes every socket — after `drop` returns, no further event can be
/// emitted.
pub struct Transport {
    id: ServerId,
    /// Each peer's shared write half: senders cork into and flush these.
    outs: BTreeMap<ServerId, Arc<Outbound>>,
    waker: Waker,
    events_rx: Receiver<TransportEvent>,
    stop: Arc<AtomicBool>,
    io_thread: Mutex<Option<JoinHandle<()>>>,
    local_addr: SocketAddr,
    /// Metrics registry shared with the wire loop
    /// (per-peer instruments under `transport.*.<peer>`).
    metrics: Arc<Registry>,
    /// Sends that went nowhere. Counted here for an unknown peer or an
    /// unframeable message, by the peer's [`Outbound`] for frames that
    /// were dropped with their channel.
    send_dropped: Arc<Counter>,
    /// Flight-recorder handle: wire-out/wire-in instants for broadcast
    /// traffic (disabled unless built via [`Transport::start_traced`]).
    tracer: Tracer,
}

impl Transport {
    /// Binds `listen` and spawns the wire loop — one I/O thread driving
    /// the listener and every peer connection (peers may be down; the
    /// loop re-dials forever).
    ///
    /// Metrics are recorded into a private registry and nothing is traced;
    /// use [`Transport::start_traced`] to share the replica's registry and
    /// flight recorder.
    ///
    /// # Errors
    ///
    /// Fails if the listen socket cannot be bound.
    pub fn start(
        id: ServerId,
        listen: SocketAddr,
        peers: BTreeMap<ServerId, SocketAddr>,
    ) -> std::io::Result<Transport> {
        Transport::start_traced(id, listen, peers, Arc::new(Registry::new()), Tracer::disabled())
    }

    /// [`Transport::start`] recording into `metrics` — per-peer
    /// `transport.{bytes,frames}_{in,out}.<peer>`,
    /// `transport.{connects,connect_failures,disconnects}.<peer>`,
    /// `transport.send_queue_depth.<peer>` and per-flush
    /// `transport.batch_{frames,bytes}.<peer>`, plus the node-wide
    /// `transport.send_dropped` — and into `tracer`: every traced Zab
    /// message (PROPOSE/ACK/COMMIT) records a `wire-out` instant when
    /// queued and a `wire-in` instant when decoded off a peer's
    /// connection, keyed by the zxid carried in the frame (no extra wire
    /// bytes). Both are constructor arguments because the wire loop
    /// captures them at spawn.
    ///
    /// # Errors
    ///
    /// Fails if the listen socket cannot be bound or the I/O thread
    /// cannot be spawned.
    pub fn start_traced(
        id: ServerId,
        listen: SocketAddr,
        peers: BTreeMap<ServerId, SocketAddr>,
        metrics: Arc<Registry>,
        tracer: Tracer,
    ) -> std::io::Result<Transport> {
        let listener = TcpListener::bind(listen)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let (events_tx, events_rx) = unbounded();
        let (waker, wake_rx) = poller::waker()?;
        let stop = Arc::new(AtomicBool::new(false));
        let send_dropped = metrics.counter("transport.send_dropped");
        // Built on the caller's thread so every instrument exists before
        // the constructor returns.
        let wire_loop = WireLoop::new(
            id,
            listener,
            &peers,
            wake_rx,
            events_tx,
            Arc::clone(&stop),
            Arc::clone(&metrics),
            tracer.clone(),
        );
        let outs = wire_loop.outbound_handles();
        let io_thread = std::thread::Builder::new()
            .name(format!("zab-wire-{}", id.0))
            .spawn(move || wire_loop.run())?;
        Ok(Transport {
            id,
            outs,
            waker,
            events_rx,
            stop,
            io_thread: Mutex::new(Some(io_thread)),
            local_addr,
            metrics,
            send_dropped,
            tracer,
        })
    }

    /// The registry this transport records into.
    pub fn metrics(&self) -> &Arc<Registry> {
        &self.metrics
    }

    /// This endpoint's server id.
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// The bound listen address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Corks `msg` into `peer`'s write buffer without flushing: the
    /// one-target case of [`Transport::queue_broadcast`].
    pub fn queue(&self, peer: ServerId, msg: TransportMsg) {
        self.queue_broadcast(&[peer], msg);
    }

    /// Corks `msg` into the write buffer of every peer in `peers`,
    /// encoding it exactly once: one frame (payload + checksum) is built
    /// and every target holds a refcounted handle to it, so the per-peer
    /// cost is independent of the payload size. Nothing is written until
    /// [`Transport::flush`]: callers own the batch boundary, and after
    /// queueing everything an event batch produced, one flush sends it all
    /// in one vectored write per peer.
    ///
    /// `self` is skipped. A message to an unknown peer, or to one that is
    /// unreachable (dropped with its channel before it was written), goes
    /// nowhere without panicking — the protocol treats the channel as
    /// broken either way — and is counted in `transport.send_dropped`.
    pub fn queue_broadcast(&self, peers: &[ServerId], msg: TransportMsg) {
        let traced = msg.traced_zxid();
        // Encoded lazily, at most once — a broadcast whose every target is
        // unknown never encodes at all; targets clone handles, never
        // bytes. The inner `None` is a message over MAX_FRAME_LEN.
        let mut frame: Option<Option<Frame>> = None;
        let mut need_wake = false;
        for &peer in peers {
            if peer == self.id {
                continue;
            }
            let Some(out) = self.outs.get(&peer) else {
                self.send_dropped.inc();
                continue;
            };
            if let Some(zxid) = traced {
                self.tracer.instant(Stage::WireOut, zxid, peer.0);
            }
            match frame.get_or_insert_with(|| Frame::try_new(msg.encode())) {
                Some(f) => out.queue(f.clone()),
                None => {
                    // Unframeable: skipping it would silently violate
                    // FIFO, so break every reachable target's channel
                    // visibly — the protocol's normal recovery for a
                    // broken channel takes over.
                    self.send_dropped.inc();
                    need_wake |= out.poison();
                }
            }
        }
        if need_wake {
            self.waker.wake();
        }
    }

    /// Flushes every peer with corked frames — the batch boundary. Peers
    /// untouched since the last flush cost one atomic load each. Wakes
    /// the wire loop at most once, and only if some socket couldn't take
    /// its whole batch.
    pub fn flush(&self) {
        let mut need_wake = false;
        for out in self.outs.values() {
            need_wake |= out.flush_pending();
        }
        if need_wake {
            self.waker.wake();
        }
    }

    /// The inbound event stream.
    pub fn events(&self) -> &Receiver<TransportEvent> {
        &self.events_rx
    }
}

impl Drop for Transport {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
        if let Some(t) = self.io_thread.lock().take() {
            let _ = t.join();
        }
        // The loop closes every socket and drops the only events sender
        // on its way out; repeat the outbound shutdown here so even an
        // abnormal loop exit cannot leak a socket past this point.
        for out in self.outs.values() {
            out.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conn::MAX_BATCH_FRAMES;
    use std::thread;
    use std::time::{Duration, Instant};
    use zab_core::{Epoch, Txn, Zxid};
    use zab_wire::frame::HEADER_LEN;

    fn wait_msg(t: &Transport, timeout: Duration) -> Option<TransportEvent> {
        t.events().recv_timeout(timeout).ok()
    }

    /// Reserves `n` ephemeral loopback ports (ids `1..=n`); nothing
    /// listens on them until a transport is started there.
    fn book(n: u64) -> BTreeMap<ServerId, SocketAddr> {
        (1..=n)
            .map(|i| {
                let l = TcpListener::bind("127.0.0.1:0").expect("bind");
                (ServerId(i), l.local_addr().expect("addr"))
            })
            .collect()
    }

    fn start(id: u64, book: &BTreeMap<ServerId, SocketAddr>) -> Transport {
        Transport::start(ServerId(id), book[&ServerId(id)], book.clone()).expect("start")
    }

    fn mesh(n: u64) -> Vec<Transport> {
        let book = book(n);
        (1..=n).map(|id| start(id, &book)).collect()
    }

    /// One complete send: cork `msg` for `peer`, then the batch boundary.
    fn ship(t: &Transport, peer: ServerId, msg: TransportMsg) {
        t.queue(peer, msg);
        t.flush();
    }

    fn ack(counter: u32) -> TransportMsg {
        TransportMsg::Zab(Message::Ack { zxid: Zxid::new(Epoch(1), counter) })
    }

    fn ping() -> TransportMsg {
        TransportMsg::Zab(Message::Ping { last_committed: Zxid::ZERO })
    }

    /// Ships pings `from → to` until one arrives (`queue` drops while
    /// disconnected), then drains `to` until it is quiet.
    fn bring_up(from: &Transport, to: &Transport) {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            ship(from, to.id(), ping());
            if wait_msg(to, Duration::from_millis(300)).is_some() {
                break;
            }
            assert!(Instant::now() < deadline, "channel never came up");
        }
        while wait_msg(to, Duration::from_millis(50)).is_some() {}
    }

    /// Polls `t`'s metrics until `counter` reaches `at_least`.
    fn wait_counter(t: &Transport, counter: &str, at_least: u64) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while t.metrics().snapshot().counter(counter) < at_least {
            assert!(Instant::now() < deadline, "{counter} never reached {at_least}");
            thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn dial_failures_surface_as_connect_failed_events() {
        // Peer 2's address is reserved but nothing listens on it.
        let t = start(1, &book(2));
        ship(&t, ServerId(2), ack(1));

        let mut attempts = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        while attempts.len() < 3 && Instant::now() < deadline {
            if let Some(TransportEvent::ConnectFailed { peer, attempt, error }) =
                wait_msg(&t, Duration::from_millis(300))
            {
                assert_eq!(peer, ServerId(2));
                assert!(!error.is_empty());
                attempts.push(attempt);
            }
        }
        // Consecutive failures are counted, proving the backoff advances.
        assert_eq!(attempts, vec![0, 1, 2], "expected escalating attempt counts");
    }

    #[test]
    fn message_round_trip_between_two_nodes() {
        let mesh = mesh(2);
        let msg = Message::Ack { zxid: Zxid::new(Epoch(1), 7) };
        // Retry: the receiver's accept loop may still be settling.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            ship(&mesh[0], ServerId(2), TransportMsg::Zab(msg.clone()));
            if let Some(TransportEvent::Message { from, msg: got }) =
                wait_msg(&mesh[1], Duration::from_millis(300))
            {
                assert_eq!(from, ServerId(1));
                match got {
                    TransportMsg::Zab(m) => assert_eq!(m, msg),
                    other => panic!("wrong channel: {other:?}"),
                }
                break;
            }
            assert!(Instant::now() < deadline, "message never arrived");
        }
    }

    #[test]
    fn broadcast_reaches_every_peer_with_one_encoding() {
        let mesh = mesh(3);
        let msg = Message::Commit { zxid: Zxid::new(Epoch(2), 5) };
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut got = [false; 2];
        loop {
            mesh[0].queue_broadcast(&[ServerId(2), ServerId(3)], TransportMsg::Zab(msg.clone()));
            mesh[0].flush();
            for (i, t) in mesh[1..].iter().enumerate() {
                if let Some(TransportEvent::Message { from, msg: TransportMsg::Zab(m) }) =
                    wait_msg(t, Duration::from_millis(300))
                {
                    assert_eq!(from, ServerId(1));
                    assert_eq!(m, msg);
                    got[i] = true;
                }
            }
            if got.iter().all(|&g| g) {
                break;
            }
            assert!(Instant::now() < deadline, "broadcast never fully arrived");
        }
    }

    #[test]
    fn oversized_message_breaks_channel_instead_of_panicking() {
        let mesh = mesh(2);
        bring_up(&mesh[0], &mesh[1]);
        // A payload over MAX_FRAME_LEN cannot be framed. The contract is
        // a *visible* channel break (FIFO must never silently skip), not
        // a panic on the sending thread.
        // The realistic overflow shape: a sync DIFF whose many individually
        // small transactions add up past the frame limit.
        let chunk = 1 << 20;
        let giant = Message::SyncDiff {
            txns: (0..(zab_wire::frame::MAX_FRAME_LEN / chunk + 2) as u32)
                .map(|i| Txn {
                    zxid: Zxid::new(Epoch(1), i + 2),
                    data: Bytes::from(vec![0u8; chunk]),
                })
                .collect(),
        };
        let dropped_before = mesh[0].metrics().snapshot().counter("transport.send_dropped");
        ship(&mesh[0], ServerId(2), TransportMsg::Zab(giant));
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match wait_msg(&mesh[0], Duration::from_millis(300)) {
                Some(TransportEvent::PeerDisconnected { peer }) => {
                    assert_eq!(peer, ServerId(2));
                    break;
                }
                _ => assert!(Instant::now() < deadline, "channel never broke"),
            }
        }
        let dropped_after = mesh[0].metrics().snapshot().counter("transport.send_dropped");
        assert_eq!(dropped_after, dropped_before + 1);
    }

    #[test]
    fn corked_batch_flushes_in_order() {
        let mesh = mesh(2);
        bring_up(&mesh[0], &mesh[1]);
        // Cork a burst, then release it with one flush; every frame must
        // arrive, in order, behind that single batch boundary.
        let n = 32u32;
        for i in 0..n {
            mesh[0].queue(ServerId(2), ack(i + 10));
        }
        // Nothing leaves before the batch boundary.
        assert!(wait_msg(&mesh[1], Duration::from_millis(200)).is_none(), "sent before flush");
        mesh[0].flush();
        for i in 0..n {
            match wait_msg(&mesh[1], Duration::from_secs(5)) {
                Some(TransportEvent::Message {
                    from,
                    msg: TransportMsg::Zab(Message::Ack { zxid }),
                }) => {
                    assert_eq!(from, ServerId(1));
                    assert_eq!(zxid, Zxid::new(Epoch(1), i + 10), "batch arrived out of order");
                }
                other => panic!("expected ack {i}, got {other:?}"),
            }
        }
        // The whole burst shared one vectored write: the per-peer batch
        // histogram must have seen a multi-frame flush.
        let snap = mesh[0].metrics().snapshot();
        let max_batch = snap.histogram("transport.batch_frames.2").map_or(0, |h| h.max);
        assert!(max_batch >= 2, "expected a coalesced flush, max batch = {max_batch}");
    }

    /// The "no stale traffic" contract of `Outbound::queue`: frames corked
    /// against one incarnation of a channel die with it — counted as
    /// dropped, never delivered on the redialled connection.
    #[test]
    fn corked_frames_die_with_their_channel_and_are_counted() {
        let book = book(2);
        let sender = start(1, &book);
        let receiver = start(2, &book);
        bring_up(&sender, &receiver);
        let corked = 5u32;
        for i in 0..corked {
            sender.queue(ServerId(2), ack(i + 10));
        }
        let dropped_before = sender.metrics().snapshot().counter("transport.send_dropped");
        // Peer 2 dies; the sender's wire loop sees EOF and tears down.
        drop(receiver);
        wait_counter(&sender, "transport.disconnects.2", 1);
        let dropped_after = sender.metrics().snapshot().counter("transport.send_dropped");
        assert_eq!(dropped_after, dropped_before + u64::from(corked), "cleared frames uncounted");
        // Peer 2 comes back on the same address; the late flush and the
        // fresh channel must carry pings only, never the dead acks.
        let receiver = start(2, &book);
        sender.flush();
        bring_up(&sender, &receiver);
        ship(&sender, ServerId(2), ping());
        let mut pings = 0;
        while let Some(ev) = wait_msg(&receiver, Duration::from_millis(200)) {
            match ev {
                TransportEvent::Message {
                    msg: TransportMsg::Zab(Message::Ping { .. }), ..
                } => pings += 1,
                TransportEvent::Message { msg, .. } => panic!("stale traffic delivered: {msg:?}"),
                _ => {}
            }
        }
        assert_eq!(pings, 1, "the fresh channel must deliver");
    }

    #[test]
    fn per_peer_metrics_count_frames_and_bytes() {
        let mesh = mesh(2);
        bring_up(&mesh[0], &mesh[1]);
        let sender = mesh[0].metrics().snapshot();
        assert!(sender.counter("transport.connects.2") >= 1);
        assert!(sender.counter("transport.frames_out.2") >= 1);
        // Every frame carries a header plus a non-empty payload.
        assert!(sender.counter("transport.bytes_out.2") > HEADER_LEN as u64);
        let receiver = mesh[1].metrics().snapshot();
        assert!(receiver.counter("transport.frames_in.1") >= 1);
        assert!(receiver.counter_sum("transport.bytes_in.") > HEADER_LEN as u64);
    }

    #[test]
    fn connect_failures_are_counted() {
        let t = start(1, &book(2));
        ship(&t, ServerId(2), ack(1));
        wait_counter(&t, "transport.connect_failures.2", 1);
    }

    #[test]
    fn election_channel_is_distinguished() {
        let mesh = mesh(2);
        let n = Notification {
            round: 3,
            state: zab_election::NodeState::Looking,
            vote: zab_election::Vote {
                peer_epoch: Epoch(1),
                last_zxid: Zxid::new(Epoch(1), 4),
                leader: ServerId(2),
            },
        };
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            ship(&mesh[1], ServerId(1), TransportMsg::Election(n));
            if let Some(TransportEvent::Message { from, msg }) =
                wait_msg(&mesh[0], Duration::from_millis(300))
            {
                assert_eq!(from, ServerId(2));
                match msg {
                    TransportMsg::Election(got) => assert_eq!(got, n),
                    other => panic!("wrong channel: {other:?}"),
                }
                break;
            }
            assert!(Instant::now() < deadline, "notification never arrived");
        }
    }

    #[test]
    fn fifo_order_preserved_under_burst() {
        let mesh = mesh(2);
        let count = 500u32;
        bring_up(&mesh[0], &mesh[1]);
        for c in 1..=count {
            let txn = Txn::new(Zxid::new(Epoch(1), c), c.to_le_bytes().to_vec());
            ship(
                &mesh[0],
                ServerId(2),
                TransportMsg::Zab(Message::Propose { txn, commit_up_to: Zxid::ZERO }),
            );
        }
        let mut seen = 0u32;
        let deadline = Instant::now() + Duration::from_secs(10);
        while seen < count && Instant::now() < deadline {
            if let Some(TransportEvent::Message {
                msg: TransportMsg::Zab(Message::Propose { txn, commit_up_to: Zxid::ZERO }),
                ..
            }) = wait_msg(&mesh[1], Duration::from_millis(500))
            {
                seen += 1;
                assert_eq!(txn.zxid.counter(), seen, "reordered at {seen}");
            }
        }
        assert_eq!(seen, count, "lost messages on a healthy connection");

        // The burst flowed through the coalescing flush: the per-batch
        // histograms must account for exactly the frames and bytes the
        // counters saw (every frame left in some batch, never outside one).
        let snap = mesh[0].metrics().snapshot();
        let frames = snap.counter("transport.frames_out.2");
        let bytes = snap.counter("transport.bytes_out.2");
        let bf = snap.histogram("transport.batch_frames.2").cloned().unwrap_or_default();
        let bb = snap.histogram("transport.batch_bytes.2").cloned().unwrap_or_default();
        assert_eq!(bf.sum, frames, "batch_frames histogram must cover every frame");
        assert!(bf.count >= 1 && bf.count <= frames, "batches outnumber frames");
        assert_eq!(bb.sum, bytes, "batch_bytes histogram must cover every byte");
        assert!(bf.max as usize <= MAX_BATCH_FRAMES, "batch exceeded the frame cap");
    }

    #[test]
    fn send_to_unknown_peer_is_dropped_silently_and_counted() {
        let mesh = mesh(1);
        ship(&mesh[0], ServerId(99), ping());
        assert!(wait_msg(&mesh[0], Duration::from_millis(100)).is_none());
        // The no-panic contract holds, but the drop is no longer silent
        // to operators.
        assert_eq!(mesh[0].metrics().snapshot().counter("transport.send_dropped"), 1);
        mesh[0].queue_broadcast(&[ServerId(99), ServerId(1)], ping());
        mesh[0].flush();
        assert_eq!(mesh[0].metrics().snapshot().counter("transport.send_dropped"), 2);
    }

    #[test]
    fn send_while_peer_unreachable_is_counted_as_dropped() {
        let t = start(1, &book(2));
        // Wait until the first dial has already failed (peer marked
        // unreachable), then send into the backoff window.
        wait_counter(&t, "transport.connect_failures.2", 1);
        ship(&t, ServerId(2), ping());
        wait_counter(&t, "transport.send_dropped", 1);
    }

    /// Satellite: deterministic shutdown. Every mesh's I/O threads must
    /// join cleanly on `Drop` with no lingering sockets — 50 rounds of
    /// create/traffic/drop would hang or leak fds within the suite's
    /// timeout if teardown ever raced.
    #[test]
    fn shutdown_hammer_creates_and_drops_fifty_meshes() {
        let everyone = [ServerId(1), ServerId(2), ServerId(3)];
        for round in 0..50 {
            let m = mesh(3);
            // Exercise all states: some traffic in flight, some corked and
            // never flushed, some meshes dropped before any connection
            // establishes.
            if round % 3 != 2 {
                for t in &m {
                    t.queue_broadcast(&everyone, ping());
                    if round % 3 == 0 {
                        t.flush();
                    }
                }
            }
            drop(m);
        }
    }

    #[test]
    fn transport_msg_decode_rejects_garbage() {
        assert!(TransportMsg::decode(Bytes::new()).is_none());
        assert!(TransportMsg::decode(Bytes::from_static(&[7, 1, 2, 3])).is_none());
        assert!(TransportMsg::decode(Bytes::from_static(&[0, 0xFF])).is_none());
    }

    #[test]
    fn encode_round_trips_through_decode() {
        let txn = Txn::new(Zxid::new(Epoch(2), 9), Bytes::from(vec![0xAB; 4096]));
        let msg = TransportMsg::Zab(Message::Propose { txn, commit_up_to: Zxid::ZERO });
        let encoded = msg.encode();
        match TransportMsg::decode(encoded).expect("decodes") {
            TransportMsg::Zab(Message::Propose { txn, commit_up_to: Zxid::ZERO }) => {
                assert_eq!(txn.zxid, Zxid::new(Epoch(2), 9));
                assert_eq!(txn.data.as_ref(), &[0xAB; 4096][..]);
            }
            other => panic!("wrong decode: {other:?}"),
        }
    }
}

//! The event-driven readiness side of the transport: **one** I/O thread
//! per node drives the listener, every outbound dial, every inbound frame
//! stream, and any outbound socket that went `WouldBlock` — via
//! nonblocking TCP and `poll(2)`.
//!
//! Sends do **not** pass through this thread. [`Outbound::queue`] and
//! [`Outbound::flush_pending`] run on the caller: the first corks a
//! refcounted frame handle into the peer's write buffer, the second takes
//! the peer's write lock and flushes the batch straight into the socket.
//! Only when the socket can't take more (`WouldBlock`) does the caller
//! poke the waker so the loop arms `POLLOUT` and drains the residue as
//! readiness arrives.
//!
//! ```text
//!  user threads                        the wire loop (1 thread)
//!  ────────────                        ───────────────────────────
//!  queue()… flush()                    poll(waker, listener, conns…)
//!    │ lock peer ──► wbuf ──► socket     │
//!    │    (one vectored write / batch)   ├─ accept new inbound conns
//!    └─ wake only on WouldBlock ────►    ├─ read frames → events_tx
//!                                        ├─ finish / schedule dials
//!                                        └─ drain blocked write buffers
//! ```
//!
//! On a loaded box this split matters: the hot path costs the sender one
//! lock and one vectored write — no cross-thread handoff, no wakeup, no
//! extra scheduler hop — while the loop's poll set stays parked unless
//! bytes actually arrive or a socket backs up. Adding a follower adds
//! **two fds** (one per direction), not two threads, so the per-node
//! thread count is flat in ensemble size.
//!
//! Liveness invariants:
//!
//! - a caller whose flush ended `blocked` (or `broken`) always wakes the
//!   loop, and the waker flag is disarmed before the pipe is drained, so
//!   a backed-up socket is never left unarmed longer than one poll;
//! - dials are scheduled by deadline ([`Backoff`] owns the cadence) and
//!   the poll timeout is clamped to the earliest deadline, so redials
//!   fire even when the mesh is completely idle;
//! - the loop owns the only `events_tx`, so once [`WireLoop::run`]
//!   returns — which [`crate::Transport`]'s `Drop` waits for — no event
//!   can ever be emitted again.

use crate::backoff::Backoff;
use crate::conn::{Frame, ReadBuf, WriteBuf};
use crate::poller::{
    connect_nonblocking, poll_fds, take_socket_error, ConnectProgress, PollFd, WakeRx, POLLIN,
    POLLOUT,
};
use crate::{TransportEvent, TransportMsg};
use bytes::Bytes;
use crossbeam::channel::Sender;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use zab_core::ServerId;
use zab_metrics::{peer_metric, Counter, Gauge, Histogram, Registry};
use zab_trace::{Stage, Tracer};

/// Dial deadline (the old blocking transport's connect timeout).
const CONNECT_TIMEOUT: Duration = Duration::from_millis(200);
/// Poll ceiling while nothing is scheduled; the waker is the real wakeup.
const IDLE_POLL: Duration = Duration::from_millis(500);
/// Socket reads per connection per wakeup. Level-triggered polling
/// re-reports leftover readability, so this bounds how long one noisy
/// peer can monopolize the loop without losing data.
const MAX_READS_PER_WAKE: usize = 8;

/// Outbound connection lifecycle. The stream lives inside the state so a
/// transition is also the close of the previous socket.
enum ConnState {
    /// Disconnected; the next dial may start at `next_attempt`.
    Idle { next_attempt: Instant },
    /// Nonblocking connect in flight; resolved by `POLLOUT` + `SO_ERROR`
    /// or the deadline.
    Connecting { stream: TcpStream, deadline: Instant },
    /// Established: frames flow. `broken` records a caller-side write
    /// error; the loop performs the actual teardown (events + redial).
    Up { stream: TcpStream, broken: bool },
}

/// Everything a sender needs, guarded by one lock.
struct OutInner {
    conn: ConnState,
    wbuf: WriteBuf,
}

/// One peer's outbound half, shared between sender threads and the wire
/// loop. Senders cork with [`Outbound::queue`] and write with
/// [`Outbound::flush_pending`]; the loop dials, tears down, and drains
/// whatever a flush left behind on `WouldBlock`.
/// The instrument names are unchanged from the thread-per-peer transport,
/// so dashboards and BENCH history stay comparable.
pub(crate) struct Outbound {
    inner: Mutex<OutInner>,
    /// Caller → loop: "lock me at the next sweep" (blocked or broken
    /// socket). Swapped off by the sweep, so a healthy peer costs the
    /// loop one relaxed load per cycle instead of a mutex acquisition.
    attention: AtomicBool,
    /// A flush left residue behind `WouldBlock`: the pollfd builder arms
    /// `POLLOUT` from this flag without taking the lock.
    armed_pollout: AtomicBool,
    /// Corked frames await [`Outbound::flush_pending`] — lets the sender
    /// skip the lock for peers it didn't touch this batch.
    has_pending: AtomicBool,
    bytes_out: Arc<Counter>,
    frames_out: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    batch_frames: Arc<Histogram>,
    batch_bytes: Arc<Histogram>,
    /// The node-wide `transport.send_dropped`: every frame handed to this
    /// half that never reached the socket.
    send_dropped: Arc<Counter>,
}

impl Outbound {
    fn new(metrics: &Registry, id: ServerId) -> Outbound {
        Outbound {
            inner: Mutex::new(OutInner {
                conn: ConnState::Idle { next_attempt: Instant::now() },
                wbuf: WriteBuf::new(),
            }),
            attention: AtomicBool::new(false),
            armed_pollout: AtomicBool::new(false),
            has_pending: AtomicBool::new(false),
            bytes_out: metrics.counter(&peer_metric("transport.bytes_out", id.0)),
            frames_out: metrics.counter(&peer_metric("transport.frames_out", id.0)),
            queue_depth: metrics.gauge(&peer_metric("transport.send_queue_depth", id.0)),
            batch_frames: metrics.histogram(&peer_metric("transport.batch_frames", id.0)),
            batch_bytes: metrics.histogram(&peer_metric("transport.batch_bytes", id.0)),
            send_dropped: metrics.counter("transport.send_dropped"),
        }
    }

    /// Corks a frame: appends to the write buffer *without* flushing, so
    /// a batch of sends — every PROPOSE the leader emits while draining
    /// its event backlog, every ACK a follower owes for a burst — leaves
    /// in one vectored write when [`Outbound::flush_pending`] runs.
    ///
    /// While disconnected the frame is dropped (and counted) instead: the
    /// protocol treats a down channel as broken and resynchronizes, so
    /// buffering for a dead peer would only deliver stale traffic. Frames
    /// queued while a dial is in flight are kept (they go out right
    /// behind the handshake) and die with the dial if it fails.
    pub(crate) fn queue(&self, frame: Frame) {
        let mut g = self.inner.lock();
        if matches!(g.conn, ConnState::Idle { .. }) {
            self.send_dropped.inc();
            return;
        }
        g.wbuf.push_frame(frame);
        self.queue_depth.set(g.wbuf.queued_frames() as i64);
        self.has_pending.store(true, Ordering::Release);
    }

    /// Flushes whatever [`Outbound::queue`] corked since the last batch
    /// boundary. Returns `true` when the wire loop needs a wake (socket
    /// blocked or broke mid-flush). A peer with nothing pending costs
    /// one relaxed load — no lock.
    pub(crate) fn flush_pending(&self) -> bool {
        if !self.has_pending.swap(false, Ordering::AcqRel) {
            return false;
        }
        let mut g = self.inner.lock();
        if self.flush_locked(&mut g) {
            false
        } else {
            self.attention.store(true, Ordering::Release);
            true
        }
    }

    /// Vectored flush until clean, blocked, or broken; records the
    /// throughput instruments. Returns `false` when the loop's attention
    /// is needed (`POLLOUT` to arm, or a broken socket to tear down).
    fn flush_locked(&self, g: &mut OutInner) -> bool {
        let OutInner { conn, wbuf } = g;
        let ConnState::Up { stream, broken } = conn else { return true };
        if *broken {
            return false;
        }
        let mut blocked = false;
        let clean = loop {
            if wbuf.is_empty() {
                break true;
            }
            match wbuf.flush(stream) {
                Ok(f) if f.blocked => {
                    blocked = true;
                    break false;
                }
                Ok(f) => {
                    if f.frames > 0 {
                        self.frames_out.add(f.frames);
                        self.batch_frames.record(f.frames);
                    }
                    if f.bytes > 0 {
                        self.bytes_out.add(f.bytes);
                        self.batch_bytes.record(f.bytes);
                    }
                }
                Err(_) => {
                    // Teardown (events, redial schedule) belongs to the
                    // loop; just flag the carcass and get it looked at.
                    *broken = true;
                    break false;
                }
            }
        };
        self.armed_pollout.store(blocked, Ordering::Release);
        self.queue_depth.set(g.wbuf.queued_frames() as i64);
        clean
    }

    /// Marks a live channel broken from the caller side — used when a
    /// message cannot be framed at all (over `MAX_FRAME_LEN`): FIFO
    /// would be silently violated by skipping it, so the channel must
    /// break visibly instead. Returns `true` when the loop needs a wake
    /// to perform the teardown.
    pub(crate) fn poison(&self) -> bool {
        let mut g = self.inner.lock();
        if let ConnState::Up { broken, .. } = &mut g.conn {
            *broken = true;
            self.attention.store(true, Ordering::Release);
            true
        } else {
            false
        }
    }

    /// Channel teardown: every frame still queued dies with the channel,
    /// each counted as a send that went nowhere.
    fn drop_queued(&self, wbuf: &mut WriteBuf) {
        self.send_dropped.add(wbuf.queued_frames() as u64);
        wbuf.clear();
        self.queue_depth.set(0);
        self.armed_pollout.store(false, Ordering::Release);
    }

    /// Closes any live socket and drops queued frames (final shutdown).
    pub(crate) fn shutdown(&self) {
        let mut g = self.inner.lock();
        g.conn = ConnState::Idle { next_attempt: Instant::now() };
        g.wbuf.clear();
        self.armed_pollout.store(false, Ordering::Release);
        self.queue_depth.set(0);
    }
}

/// The loop's lock-free shadow of a peer's [`ConnState`]. Every state
/// transition happens on the loop thread (callers only flag `broken`),
/// so the loop can keep this copy plus the fd and the next deadline in
/// plain fields — pollfd building and timeout math then never touch the
/// peer mutex.
#[derive(Clone, Copy, PartialEq)]
enum Phase {
    Idle,
    Connecting,
    Up,
}

/// Loop-private per-peer state: dial logic and its accounting. The
/// shared write half lives behind `out`.
struct Peer {
    id: ServerId,
    addr: SocketAddr,
    out: Arc<Outbound>,
    backoff: Backoff,
    handshake: Bytes,
    /// Loop-cached mirror of `out.inner.conn`'s variant.
    phase: Phase,
    /// Raw fd of the current socket; valid while `phase != Idle`.
    fd: i32,
    /// Next dial attempt (Idle) or connect deadline (Connecting).
    wake_at: Option<Instant>,
    connects: Arc<Counter>,
    connect_failures: Arc<Counter>,
    disconnects: Arc<Counter>,
}

impl Peer {
    /// Starts a dial if one is due. The write buffer restarts from just
    /// the handshake: anything queued against a previous incarnation of
    /// the channel died with it.
    fn maybe_dial(&mut self, now: Instant, events_tx: &Sender<TransportEvent>) {
        let out = Arc::clone(&self.out);
        let mut g = out.inner.lock();
        let ConnState::Idle { next_attempt } = g.conn else { return };
        if now < next_attempt {
            return;
        }
        match connect_nonblocking(&self.addr) {
            Ok(ConnectProgress::Connected(stream)) => {
                g.wbuf.clear();
                g.wbuf.push_raw(self.handshake.clone());
                self.establish(&mut g, stream);
            }
            Ok(ConnectProgress::InProgress(stream)) => {
                g.wbuf.clear();
                g.wbuf.push_raw(self.handshake.clone());
                let deadline = now + CONNECT_TIMEOUT;
                self.phase = Phase::Connecting;
                self.fd = stream.as_raw_fd();
                self.wake_at = Some(deadline);
                g.conn = ConnState::Connecting { stream, deadline };
            }
            Err(e) => self.fail_dial(&mut g, &e, events_tx),
        }
    }

    /// Resolves an in-flight dial after `POLLOUT` (or the deadline).
    fn finish_dial(&mut self, writable: bool, now: Instant, events_tx: &Sender<TransportEvent>) {
        let out = Arc::clone(&self.out);
        let mut g = out.inner.lock();
        let ConnState::Connecting { deadline, .. } = g.conn else { return };
        if writable {
            let ConnState::Connecting { stream, .. } =
                std::mem::replace(&mut g.conn, ConnState::Idle { next_attempt: now })
            else {
                unreachable!("matched Connecting above");
            };
            match take_socket_error(&stream) {
                Ok(()) => self.establish(&mut g, stream),
                Err(e) => self.fail_dial(&mut g, &e, events_tx),
            }
        } else if now >= deadline {
            // Drop the half-open stream, then schedule the re-dial.
            g.conn = ConnState::Idle { next_attempt: now };
            self.fail_dial(&mut g, &io::Error::from(io::ErrorKind::TimedOut), events_tx);
        }
    }

    fn establish(&mut self, g: &mut OutInner, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        self.backoff.reset();
        self.connects.inc();
        self.phase = Phase::Up;
        self.fd = stream.as_raw_fd();
        self.wake_at = None;
        g.conn = ConnState::Up { stream, broken: false };
        // Push the handshake (and anything queued behind it) out now:
        // with sweeps skipped for healthy peers, nobody else would. A
        // blocked or broken result flags attention so the next sweep
        // keeps draining / tears down.
        if !self.out.flush_locked(g) {
            self.out.attention.store(true, Ordering::Release);
        }
    }

    fn fail_dial(
        &mut self,
        g: &mut OutInner,
        error: &io::Error,
        events_tx: &Sender<TransportEvent>,
    ) {
        let attempt = self.backoff.attempt();
        self.out.drop_queued(&mut g.wbuf);
        let next_attempt = Instant::now() + self.backoff.next_delay();
        self.phase = Phase::Idle;
        self.wake_at = Some(next_attempt);
        g.conn = ConnState::Idle { next_attempt };
        self.connect_failures.inc();
        let _ = events_tx.send(TransportEvent::ConnectFailed {
            peer: self.id,
            attempt,
            error: error.to_string(),
        });
    }

    /// A live connection broke (write error or read-side EOF/reset).
    /// One immediate re-dial, then backoff — as before the rewrite.
    fn disconnect(&mut self, g: &mut OutInner, events_tx: &Sender<TransportEvent>) {
        self.out.drop_queued(&mut g.wbuf);
        let next_attempt = Instant::now();
        self.phase = Phase::Idle;
        self.wake_at = Some(next_attempt);
        g.conn = ConnState::Idle { next_attempt };
        self.disconnects.inc();
        let _ = events_tx.send(TransportEvent::PeerDisconnected { peer: self.id });
    }

    /// Tears down broken sockets, resolves dial timeouts, starts due
    /// dials, and drains whatever a blocked sender left queued. The
    /// steady-state path — peer up, nothing flagged — is two relaxed
    /// loads and no lock, so per-cycle cost doesn't grow with healthy
    /// ensemble size.
    fn sweep(&mut self, now: Instant, events_tx: &Sender<TransportEvent>) {
        if self.phase == Phase::Up {
            let flagged = self.out.attention.swap(false, Ordering::AcqRel)
                || self.out.armed_pollout.load(Ordering::Acquire);
            if !flagged {
                return;
            }
            let out = Arc::clone(&self.out);
            let mut g = out.inner.lock();
            match g.conn {
                ConnState::Up { broken: true, .. } => {
                    self.disconnect(&mut g, events_tx); // redial next cycle
                }
                ConnState::Up { .. } => {
                    if !g.wbuf.is_empty() && !out.flush_locked(&mut g) {
                        // Still blocked (POLLOUT stays armed) — unless
                        // the flush broke the socket, which we tear down.
                        if let ConnState::Up { broken: true, .. } = g.conn {
                            self.disconnect(&mut g, events_tx);
                        }
                    }
                }
                ConnState::Idle { .. } | ConnState::Connecting { .. } => {}
            }
            return;
        }
        if let Some(at) = self.wake_at {
            if now < at {
                return;
            }
        }
        // Connecting timeouts don't produce readiness, so sweep them
        // here (a no-op unless the deadline passed).
        self.finish_dial(false, now, events_tx);
        self.maybe_dial(now, events_tx);
    }

    /// Readiness interest for the pollfd set, from the loop-side cache —
    /// no lock. `POLLIN` on an outbound half detects peer-side close
    /// promptly (this direction of the mesh never carries inbound
    /// payload); `POLLOUT` only while a sender's flush got choked.
    fn interest(&self) -> Option<(i32, i16)> {
        match self.phase {
            Phase::Idle => None,
            Phase::Connecting => Some((self.fd, POLLOUT)),
            Phase::Up => {
                let mut ev = POLLIN;
                if self.out.armed_pollout.load(Ordering::Acquire) {
                    ev |= POLLOUT;
                }
                Some((self.fd, ev))
            }
        }
    }

    /// Handles readiness on the outbound socket.
    fn on_ready(&mut self, fd: PollFd, now: Instant, events_tx: &Sender<TransportEvent>) {
        enum Step {
            Dialing,
            Readable,
            Other,
        }
        let step = {
            let g = self.out.inner.lock();
            match g.conn {
                ConnState::Connecting { .. } => Step::Dialing,
                ConnState::Up { .. } if fd.readable() => Step::Readable,
                _ => Step::Other,
            }
        };
        match step {
            Step::Dialing => self.finish_dial(fd.writable(), now, events_tx),
            Step::Readable => {
                // Inbound data on the outbound half can only mean EOF or
                // reset. Read without the lock (reads and writes on one
                // socket don't race), then tear down if it's dead.
                let mut scratch = [0u8; 256];
                let out = Arc::clone(&self.out);
                let mut g = out.inner.lock();
                if let ConnState::Up { stream, .. } = &mut g.conn {
                    match stream.read(&mut scratch) {
                        Ok(0) => self.disconnect(&mut g, events_tx),
                        Ok(_) => {}
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(_) => self.disconnect(&mut g, events_tx),
                    }
                }
            }
            // Writable-readiness work (dial completion aside) happens in
            // the sweep, which runs right after dispatch every cycle.
            Step::Other => {}
        }
    }
}

/// One accepted inbound connection: handshake, then a frame stream.
struct Inbound {
    stream: TcpStream,
    rbuf: ReadBuf,
    peer: Option<ServerId>,
    counters: Option<(Arc<Counter>, Arc<Counter>)>,
}

/// What reading an inbound connection concluded.
enum ReadOutcome {
    Open,
    Closed,
}

/// The readiness loop's owned state; [`WireLoop::run`] is the I/O
/// thread's body.
pub(crate) struct WireLoop {
    listener: TcpListener,
    peers: BTreeMap<ServerId, Peer>,
    inbound: Vec<Inbound>,
    wake_rx: WakeRx,
    events_tx: Sender<TransportEvent>,
    stop: Arc<AtomicBool>,
    metrics: Arc<Registry>,
    tracer: Tracer,
    fds: Vec<PollFd>,
    tokens: Vec<Token>,
    read_buf: Box<[u8; 64 * 1024]>,
}

#[derive(Clone, Copy)]
enum Token {
    Waker,
    Listener,
    Out(ServerId),
    In(usize),
}

impl WireLoop {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        me: ServerId,
        listener: TcpListener,
        book: &BTreeMap<ServerId, SocketAddr>,
        wake_rx: WakeRx,
        events_tx: Sender<TransportEvent>,
        stop: Arc<AtomicBool>,
        metrics: Arc<Registry>,
        tracer: Tracer,
    ) -> WireLoop {
        let handshake = Bytes::copy_from_slice(&me.0.to_le_bytes());
        let peers = book
            .iter()
            .filter(|&(&id, _)| id != me)
            .map(|(&id, &addr)| {
                let peer = Peer {
                    id,
                    addr,
                    out: Arc::new(Outbound::new(&metrics, id)),
                    backoff: Backoff::new(me, id),
                    handshake: handshake.clone(),
                    phase: Phase::Idle,
                    fd: -1,
                    wake_at: Some(Instant::now()),
                    connects: metrics.counter(&peer_metric("transport.connects", id.0)),
                    connect_failures: metrics
                        .counter(&peer_metric("transport.connect_failures", id.0)),
                    disconnects: metrics.counter(&peer_metric("transport.disconnects", id.0)),
                };
                (id, peer)
            })
            .collect();
        WireLoop {
            listener,
            peers,
            inbound: Vec::new(),
            wake_rx,
            events_tx,
            stop,
            metrics,
            tracer,
            fds: Vec::new(),
            tokens: Vec::new(),
            read_buf: Box::new([0u8; 64 * 1024]),
        }
    }

    /// The senders' handles to every peer's shared write half; cloned by
    /// [`crate::Transport`] before the loop thread is spawned.
    pub(crate) fn outbound_handles(&self) -> BTreeMap<ServerId, Arc<Outbound>> {
        self.peers.iter().map(|(&id, p)| (id, Arc::clone(&p.out))).collect()
    }

    pub(crate) fn run(mut self) {
        while !self.stop.load(Ordering::SeqCst) {
            self.build_pollfds();
            let timeout = self.poll_timeout();
            if poll_fds(&mut self.fds, timeout).is_err() {
                // poll(2) itself failing (EINVAL/ENOMEM) is unrecoverable
                // for the loop; teardown closes every socket.
                break;
            }
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            // Disarm-then-drain: a producer that saw the armed flag is
            // guaranteed its state change lands in this very cycle's sweep.
            self.wake_rx.drain();
            let now = Instant::now();
            self.dispatch_ready(now);
            for peer in self.peers.values_mut() {
                peer.sweep(now, &self.events_tx);
            }
        }
        // Teardown: close every socket *before* returning, so that after
        // `Transport::drop` joins this thread nothing lingers — senders
        // hold `Arc<Outbound>` handles, which would otherwise keep
        // streams alive past the loop's death.
        for peer in self.peers.values() {
            peer.out.shutdown();
        }
    }

    fn build_pollfds(&mut self) {
        self.fds.clear();
        self.tokens.clear();
        self.fds.push(PollFd::new(self.wake_rx.fd(), POLLIN));
        self.tokens.push(Token::Waker);
        self.fds.push(PollFd::new(self.listener.as_raw_fd(), POLLIN));
        self.tokens.push(Token::Listener);
        for (&id, peer) in &self.peers {
            if let Some((fd, events)) = peer.interest() {
                self.fds.push(PollFd::new(fd, events));
                self.tokens.push(Token::Out(id));
            }
        }
        for (i, conn) in self.inbound.iter().enumerate() {
            self.fds.push(PollFd::new(conn.stream.as_raw_fd(), POLLIN));
            self.tokens.push(Token::In(i));
        }
    }

    /// Milliseconds until the earliest dial/connect deadline, capped at
    /// [`IDLE_POLL`] and rounded *up* so a sub-millisecond remainder
    /// cannot spin the loop hot. Reads only the loop-side deadline cache
    /// — when every peer is up there's nothing scheduled and the answer
    /// is `IDLE_POLL` without so much as a clock read.
    fn poll_timeout(&self) -> i32 {
        let mut earliest: Option<Instant> = None;
        for peer in self.peers.values() {
            if let Some(at) = peer.wake_at {
                earliest = Some(earliest.map_or(at, |e| e.min(at)));
            }
        }
        let wait = match earliest {
            None => IDLE_POLL,
            Some(at) => IDLE_POLL.min(at.saturating_duration_since(Instant::now())),
        };
        if wait.is_zero() {
            0
        } else {
            (wait.as_millis() as i32).max(1)
        }
    }

    fn dispatch_ready(&mut self, now: Instant) {
        // Take the vectors out of `self` so the iteration doesn't hold a
        // borrow across the `&mut self` handlers — no per-cycle allocation.
        let fds = std::mem::take(&mut self.fds);
        let tokens = std::mem::take(&mut self.tokens);
        let mut dead_inbound: Vec<usize> = Vec::new();
        for (&token, &fd) in tokens.iter().zip(&fds) {
            if fd.revents == 0 {
                continue;
            }
            match token {
                Token::Waker => {} // drained every iteration already
                Token::Listener => self.accept_all(),
                Token::Out(id) => {
                    if let Some(peer) = self.peers.get_mut(&id) {
                        peer.on_ready(fd, now, &self.events_tx);
                    }
                }
                Token::In(i) => {
                    if matches!(self.read_inbound(i), ReadOutcome::Closed) {
                        dead_inbound.push(i);
                    }
                }
            }
        }
        self.fds = fds;
        self.tokens = tokens;
        // Remove dead inbound connections back-to-front so the indices
        // collected above stay valid.
        dead_inbound.sort_unstable();
        for i in dead_inbound.into_iter().rev() {
            let conn = self.inbound.swap_remove(i);
            if let Some(peer) = conn.peer {
                let _ = self.events_tx.send(TransportEvent::PeerDisconnected { peer });
            }
        }
    }

    fn accept_all(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    self.inbound.push(Inbound {
                        stream,
                        rbuf: ReadBuf::new(),
                        peer: None,
                        counters: None,
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Transient accept failures (e.g. the peer reset before
                // we got to it): keep serving the loop.
                Err(_) => return,
            }
        }
    }

    /// Reads one inbound connection until it blocks, closes, or the
    /// per-wake budget runs out; decodes and publishes complete frames.
    fn read_inbound(&mut self, i: usize) -> ReadOutcome {
        let conn = &mut self.inbound[i];
        let buf = &mut self.read_buf[..];
        for _ in 0..MAX_READS_PER_WAKE {
            match conn.stream.read(buf) {
                Ok(0) => return ReadOutcome::Closed,
                Ok(n) => {
                    if let Some(raw) = conn.rbuf.ingest(&buf[..n]) {
                        let peer = ServerId(raw);
                        conn.peer = Some(peer);
                        conn.counters = Some((
                            self.metrics.counter(&peer_metric("transport.bytes_in", raw)),
                            self.metrics.counter(&peer_metric("transport.frames_in", raw)),
                        ));
                    }
                    if let (Some(peer), Some((bytes_in, frames_in))) = (conn.peer, &conn.counters) {
                        bytes_in.add(n as u64);
                        loop {
                            match conn.rbuf.decoder.next_frame() {
                                Ok(Some(payload)) => {
                                    frames_in.inc();
                                    if let Some(msg) = TransportMsg::decode(payload) {
                                        if let Some(zxid) = msg.traced_zxid() {
                                            self.tracer.instant(Stage::WireIn, zxid, peer.0);
                                        }
                                        let _ = self
                                            .events_tx
                                            .send(TransportEvent::Message { from: peer, msg });
                                    }
                                }
                                Ok(None) => break,
                                // Corrupt stream: the channel is dead.
                                Err(_) => return ReadOutcome::Closed,
                            }
                        }
                    }
                    // A short read means the socket is drained: skip the
                    // syscall that would only return `WouldBlock`. Level-
                    // triggered poll re-reports anything that races in.
                    if n < buf.len() {
                        return ReadOutcome::Open;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return ReadOutcome::Open,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return ReadOutcome::Closed,
            }
        }
        // Budget exhausted: level-triggered poll re-reports the rest.
        ReadOutcome::Open
    }
}

//! Poll-driven reactor: one thread multiplexing every nonblocking
//! socket a daemon owns — its listener, each accepted RPC connection,
//! and each outbound link — over `poll(2)` ([`super::sys`]).
//!
//! This replaces the thread-per-accepted-connection and
//! thread-per-link model: fan-in no longer costs an OS thread (and its
//! stack) per socket, which is what caps a thread-per-connection daemon
//! at a few hundred clients.
//!
//! The reactor is built whole: [`Reactor::spawn`] moves one
//! [`RpcService`], its listener and its [`Links`] into the thread, which
//! owns them until shutdown. The service is reached through `&mut`
//! only from this thread, so nothing it holds needs a lock.
//!
//! Each socket is a small state machine:
//!
//! - **Inbound connections** accumulate reads into a buffer and decode
//!   length-prefixed frames incrementally, dispatching every complete
//!   envelope of a readiness cycle to the [`RpcService`] in one batch
//!   (peer planes answer N entries with one batched ack frame —
//!   [`super::frame::put_acks`]). Replies coalesce into a per-connection
//!   write buffer flushed on write readiness; a connection whose buffer
//!   exceeds [`WRITE_BUF_CAP`] stops being read until the peer drains
//!   it (backpressure instead of unbounded memory).
//! - **Outbound links** run the stable-queue retry contract as a
//!   dial/connect/pump state machine: nonblocking connect with a
//!   deadline, capped exponential redial backoff, full retransmission
//!   of unacknowledged entries on every new connection, and batched
//!   coalesced frame writes from the stable queue.
//!
//! A self-pipe carries the only wake-ups from other threads
//! ([`Waker`]: a background worker reporting back, and shutdown), so
//! the loop blocks in `poll` until a socket, that pipe or its next
//! timer needs it.
//!
//! A readiness event costs as few syscalls as its bytes need. Every
//! socket — and the wake pipe — is read until a *short* read (or the
//! per-cycle cap), never on to the `read` that returns `EAGAIN`:
//! `poll(2)` is level-triggered, so bytes that land after the short read
//! are reported next cycle. Every frame goes straight into its
//! connection's write buffer ([`super::frame::put_frame`]), so a cycle's
//! replies, acks and link entries leave in one `write` per socket.
//!
//! A readiness cycle has three phases. **Dispatch**: every ready
//! connection's envelopes go to [`RpcService::handle_batch`], replies
//! and acks accumulating in its write buffer; a due
//! [`RpcService::tick`] runs after them — its deadline is checked on
//! every cycle, not only when `poll` times out, so a loop that never
//! idles still ticks. **Commit**: the service gets one
//! [`RpcService::commit`] call, where it makes durable whatever the
//! cycle implied. **Write**: only then are the write buffers flushed,
//! and the links the service enqueued on are pumped at the top of the
//! next cycle, before it polls.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use esr_obs::{LinkInstruments, ReactorInstruments};
use esr_storage::stable_queue::{EntryId, MemQueue, StableQueue};

use super::frame::{put_frame, Envelope, KIND_CLIENT, KIND_PEER, MAX_FRAME, NO_ENTRY};
use super::sys::{self, PollFd, POLLERR, POLLHUP, POLLIN, POLLOUT};

use super::conn::{Backoff, Links, Resolver};

/// Write-buffer backpressure threshold: beyond this many buffered
/// bytes the reactor stops reading from (and replying to) a connection
/// until the peer drains what it already owes.
pub const WRITE_BUF_CAP: usize = 256 * 1024;

/// Per-`read(2)` scratch size.
const READ_CHUNK: usize = 64 * 1024;
/// Most bytes pulled off one socket per readiness cycle, for fairness.
const MAX_READ_PER_CYCLE: usize = 1024 * 1024;
/// Most envelopes dispatched per `handle_batch` call, bounding reply
/// amplification between write-buffer cap checks.
const ENV_BATCH: usize = 128;
/// Nonblocking connect deadline.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(500);
/// Stable-queue entries fetched per transmit scan.
const LINK_BATCH: usize = 32;
/// While a link has backlog the reactor wakes at least this often, to
/// retry transmission and keep the queue gauges current.
const BACKLOG_TICK: Duration = Duration::from_millis(100);

/// Wake-pipe byte: another thread has something for the service.
const WAKE: u8 = 1;
/// Wake-pipe byte: the [`Reactor`] handle was dropped.
const SHUTDOWN: u8 = 0;

/// Which plane an accepted connection speaks, learned from its first
/// byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnKind {
    /// Durable peer plane ([`KIND_PEER`]): entry-carrying envelopes
    /// that must be acknowledged.
    Peer,
    /// Client RPC plane ([`KIND_CLIENT`]): request/reply envelopes.
    Client,
}

/// What a reactor serves: its owner's state, moved into the reactor
/// thread at [`Reactor::spawn`] and called only from there.
///
/// Every call is lent the reactor's [`Links`]: what the service
/// enqueues there is pumped before the next `poll`.
pub trait RpcService: Send + 'static {
    /// The interval of [`RpcService::tick`] — a constant of the
    /// service, not a setting.
    const TICK: Duration = Duration::from_secs(1);

    /// Handles one batch of inbound envelopes from a single connection:
    /// `envs` holds every complete envelope decoded in one readiness
    /// cycle (bounded, in arrival order); replies and acknowledgements
    /// are appended to `out` as already-framed bytes, which the reactor
    /// flushes through the connection's coalescing write buffer — after
    /// the cycle's [`RpcService::commit`]. Returning `false` closes the
    /// connection after that flush.
    fn handle_batch(
        &mut self,
        kind: ConnKind,
        envs: Vec<Envelope>,
        out: &mut Vec<u8>,
        links: &mut Links,
    ) -> bool;

    /// Called once per cycle that handled a batch, ticked or was woken,
    /// after every other call of the cycle and before any byte those
    /// calls appended to `out` reaches a socket: whatever the replies
    /// and acks certify must be durable when this returns.
    fn commit(&mut self, _links: &mut Links) {}

    /// Called every [`RpcService::TICK`], in the cycle it falls due.
    fn tick(&mut self, _links: &mut Links) {}

    /// Called in the cycle after a [`Waker::wake`] from another thread.
    fn woken(&mut self, _links: &mut Links) {}
}

/// Wakes a reactor from another thread: one byte on its self-pipe.
#[derive(Debug)]
pub struct Waker(UnixStream);

impl Waker {
    /// Has the reactor call [`RpcService::woken`] in its next cycle.
    pub fn wake(&self) {
        // Nonblocking self-pipe: a full pipe already guarantees a
        // pending wake-up, so WouldBlock is success.
        let _ = (&self.0).write(&[WAKE]);
    }
}

/// A reactor's self-pipe, made before the reactor so that its owner
/// can hand a [`Waker`] to a thread it starts first.
#[derive(Debug)]
pub struct WakePipe {
    tx: UnixStream,
    rx: UnixStream,
}

impl WakePipe {
    /// A fresh nonblocking pipe.
    pub fn new() -> io::Result<Self> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Self { tx, rx })
    }

    /// A waker for the reactor this pipe will be spawned with.
    pub fn waker(&self) -> io::Result<Waker> {
        Ok(Waker(self.tx.try_clone()?))
    }
}

/// The reactor thread. Dropping it shuts the thread down and joins it,
/// closing every socket and dropping the service it owns.
pub struct Reactor {
    shutdown: UnixStream,
    thread: Option<JoinHandle<()>>,
}

impl Reactor {
    /// Spawns the reactor thread: it owns `service`, accepts on
    /// `listener` (switched to nonblocking), drains `links`, and wakes
    /// on `pipe`. `obs` is its metrics bundle.
    pub fn spawn<S: RpcService>(
        pipe: WakePipe,
        listener: TcpListener,
        service: S,
        links: Links,
        obs: ReactorInstruments,
    ) -> io::Result<Self> {
        listener.set_nonblocking(true)?;
        let WakePipe { tx, rx } = pipe;
        let thread = std::thread::Builder::new()
            .name("esr-reactor".into())
            .spawn(move || run(&rx, &listener, service, links, &obs))?;
        Ok(Self {
            shutdown: tx,
            thread: Some(thread),
        })
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        // A full pipe is a loop with wake-ups still to drain: retry
        // until the byte fits (any other error means the loop is gone).
        loop {
            match (&self.shutdown).write(&[SHUTDOWN]) {
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                    ) =>
                {
                    std::thread::yield_now();
                }
                _ => break,
            }
        }
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Bytes coalesced for one socket, flushed on write readiness.
#[derive(Default)]
struct WriteBuf {
    buf: Vec<u8>,
    pos: usize,
}

impl WriteBuf {
    fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Writes as much as the socket accepts; `Ok(true)` when drained.
    fn flush(&mut self, stream: &mut TcpStream) -> io::Result<bool> {
        while self.pos < self.buf.len() {
            match stream.write(&self.buf[self.pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.buf.clear();
        self.pos = 0;
        Ok(true)
    }
}

fn be_u32(b: &[u8]) -> u32 {
    let mut a = [0u8; 4];
    a.copy_from_slice(&b[..4]);
    u32::from_be_bytes(a)
}

fn be_u64(b: &[u8]) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(&b[..8]);
    u64::from_be_bytes(a)
}

/// Inbound bytes with incremental length-prefixed frame decoding.
#[derive(Default)]
struct RecvBuf {
    buf: Vec<u8>,
}

impl RecvBuf {
    /// Reads until a short read (or `max_bytes`); `Ok(false)` on EOF.
    /// A read that did not fill `scratch` emptied the socket, and
    /// `poll(2)` is level-triggered — bytes that land after it are
    /// reported next cycle — so chasing them with one more `read` would
    /// only collect an `EAGAIN`.
    fn fill(&mut self, stream: &mut TcpStream, scratch: &mut [u8], max_bytes: usize) -> io::Result<bool> {
        let mut taken = 0;
        while taken < max_bytes {
            match stream.read(scratch) {
                Ok(0) => return Ok(false),
                Ok(n) => {
                    self.buf.extend_from_slice(&scratch[..n]);
                    taken += n;
                    if n < scratch.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    /// Whether a whole frame is already buffered at the front (a frame
    /// announcing more than `MAX_FRAME` never counts: the next decode
    /// rejects it).
    fn has_complete_frame(&self) -> bool {
        self.buf.len() >= 4 && {
            let len = be_u32(&self.buf) as usize;
            len <= MAX_FRAME && self.buf.len() - 4 >= len
        }
    }

    /// Decodes up to `max` complete envelope frames off the front.
    /// `Err` means a protocol violation (oversized or truncated frame)
    /// and the connection must close.
    fn drain_envelopes(&mut self, out: &mut Vec<Envelope>, max: usize) -> io::Result<()> {
        let mut off = 0;
        while out.len() < max && self.buf.len() - off >= 4 {
            let len = be_u32(&self.buf[off..]) as usize;
            if len > MAX_FRAME {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "announced frame exceeds MAX_FRAME",
                ));
            }
            if self.buf.len() - off - 4 < len {
                break; // incomplete — wait for more bytes
            }
            let frame = &self.buf[off + 4..off + 4 + len];
            if frame.len() < 8 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "frame shorter than its envelope header",
                ));
            }
            out.push(Envelope {
                entry: be_u64(frame),
                payload: frame[8..].to_vec(),
            });
            off += 4 + len;
        }
        if off > 0 {
            self.buf.drain(..off);
        }
        Ok(())
    }
}

/// One accepted connection's state machine.
struct Inbound {
    stream: TcpStream,
    kind: Option<ConnKind>,
    rbuf: RecvBuf,
    wbuf: WriteBuf,
}

enum LinkPhase {
    /// No connection; redial at `retry_at`.
    Down { retry_at: Instant },
    /// Nonblocking connect in flight.
    Connecting { stream: TcpStream, deadline: Instant },
    /// Established: pumping queue entries out, reaping acks in.
    Up {
        stream: TcpStream,
        rbuf: RecvBuf,
        wbuf: WriteBuf,
        /// Highest entry transmitted on *this* connection; resets on
        /// reconnect so unacknowledged entries retransmit.
        sent_high: Option<EntryId>,
    },
}

/// One outbound link's state machine, with the queue it drains.
pub(crate) struct LinkConn {
    /// The queue this link drains.
    pub(crate) queue: MemQueue,
    /// Fresh peer address before every dial.
    resolve: Resolver,
    /// Greeting sent (outside the queue) on every connect.
    hello: Bytes,
    /// Redial backoff shape.
    backoff: Backoff,
    /// Per-link metrics bundle.
    obs: LinkInstruments,
    /// Enqueued on since the last pump: pumped before the next `poll`.
    pub(crate) dirty: bool,
    delay: Duration,
    /// Highest entry ever transmitted on *any* connection: anything at
    /// or below it written again is a retransmit, not a first send.
    sent_ever: Option<EntryId>,
    /// Start of the current non-empty stretch, for the queue-age gauge.
    backlog_since: Option<Instant>,
    phase: LinkPhase,
}

impl LinkConn {
    pub(crate) fn new(
        queue: MemQueue,
        resolve: Resolver,
        hello: Bytes,
        backoff: Backoff,
        obs: LinkInstruments,
    ) -> Self {
        Self {
            queue,
            resolve,
            hello,
            backoff,
            obs,
            dirty: false,
            delay: backoff.initial,
            sent_ever: None,
            backlog_since: None,
            phase: LinkPhase::Down {
                retry_at: Instant::now(),
            },
        }
    }

    /// Retires the acknowledged entries among `ids`; returns how many.
    pub(crate) fn ack(&mut self, ids: &[EntryId]) -> usize {
        if ids.is_empty() {
            return 0;
        }
        let acked = self.queue.ack_batch(ids);
        if acked > 0 {
            self.obs.acks.add(acked as u64);
        }
        acked
    }

    /// Connection lost after being up: redial immediately (the backoff
    /// only grows on dial *failures*).
    fn drop_conn(&mut self) {
        self.phase = LinkPhase::Down {
            retry_at: Instant::now(),
        };
    }

    /// Dial failed (or the peer has no published address): back off.
    fn dial_failed(&mut self, now: Instant) {
        self.phase = LinkPhase::Down {
            retry_at: now + self.delay,
        };
        self.delay = (self.delay * 2).min(self.backoff.max);
    }

    fn try_dial(&mut self, now: Instant) {
        match (self.resolve)() {
            Some(addr) => match sys::connect_nonblocking(&addr) {
                Ok(stream) => {
                    self.phase = LinkPhase::Connecting {
                        stream,
                        deadline: now + CONNECT_TIMEOUT,
                    };
                }
                Err(_) => self.dial_failed(now),
            },
            None => self.dial_failed(now),
        }
    }

    /// Connect handshake finished: queue the kind byte + hello, reset
    /// the per-connection high-water mark so everything unacknowledged
    /// retransmits.
    fn go_up(&mut self, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        let mut wbuf = WriteBuf::default();
        wbuf.buf.push(KIND_PEER);
        let _ = put_frame(&mut wbuf.buf, NO_ENTRY, &self.hello);
        self.delay = self.backoff.initial;
        self.obs.dials.inc();
        self.phase = LinkPhase::Up {
            stream,
            rbuf: RecvBuf::default(),
            wbuf,
            sent_high: None,
        };
    }
}

/// Checks `SO_ERROR` on a connect that reported writability and moves
/// the link up or back down.
fn finish_connect(l: &mut LinkConn, now: Instant) {
    let placeholder = LinkPhase::Down { retry_at: now };
    let LinkPhase::Connecting { stream, .. } = std::mem::replace(&mut l.phase, placeholder) else {
        return;
    };
    match sys::take_socket_error(&stream) {
        Ok(()) => l.go_up(stream),
        Err(_) => l.dial_failed(now),
    }
}

/// Refreshes the link's queue depth/age gauges.
fn refresh_queue_gauge(l: &mut LinkConn, now: Instant) {
    let depth = l.queue.len();
    if depth == 0 {
        l.backlog_since = None;
    } else if l.backlog_since.is_none() {
        l.backlog_since = Some(now);
    }
    let age = l
        .backlog_since
        .map_or(0, |t| now.duration_since(t).as_micros() as u64);
    l.obs.queue_depth.set_u64(depth as u64);
    l.obs.queue_age_micros.set_u64(age);
}

/// Transmits pending queue entries into the link's write buffer
/// (coalesced, oldest first, past the connection's high-water mark) and
/// flushes what the socket accepts.
fn pump_link(l: &mut LinkConn, now: Instant) {
    if let LinkPhase::Up {
        stream,
        wbuf,
        sent_high,
        ..
    } = &mut l.phase
    {
        while wbuf.pending() < WRITE_BUF_CAP {
            let batch = l.queue.pending_after(*sent_high, LINK_BATCH);
            if batch.is_empty() {
                break;
            }
            for (id, payload) in &batch {
                let _ = put_frame(&mut wbuf.buf, id.0, payload);
                if l.sent_ever.is_some_and(|h| id.0 <= h.0) {
                    l.obs.retransmits.inc();
                } else {
                    l.obs.sends.inc();
                    l.sent_ever = Some(*id);
                }
                *sent_high = Some(*id);
            }
        }
        if wbuf.flush(stream).is_err() {
            l.drop_conn();
        }
    }
    refresh_queue_gauge(l, now);
}

/// Reads acknowledgement envelopes off an up link and retires their
/// queue entries. Returns `false` when the connection is gone.
fn reap_link(l: &mut LinkConn, scratch: &mut [u8]) -> bool {
    let LinkPhase::Up { stream, rbuf, .. } = &mut l.phase else {
        return true;
    };
    let alive = rbuf
        .fill(stream, scratch, MAX_READ_PER_CYCLE)
        .unwrap_or_default();
    // Even a dying connection may have delivered complete ack frames.
    let mut envs = Vec::new();
    if rbuf.drain_envelopes(&mut envs, usize::MAX).is_err() {
        return false;
    }
    // Every id this read delivered retires with one queue append.
    let ids: Vec<EntryId> = envs
        .iter()
        .filter_map(Envelope::ack_ids)
        .flatten()
        .map(EntryId)
        .collect();
    l.ack(&ids);
    alive
}

/// Runs link timers (dial retries, connect deadlines) and reports when
/// this link next needs the loop to wake.
fn link_tick(l: &mut LinkConn, now: Instant) -> Option<Instant> {
    if let LinkPhase::Down { retry_at } = l.phase {
        if retry_at <= now {
            l.try_dial(now);
        }
    }
    if let LinkPhase::Connecting { deadline, .. } = l.phase {
        if deadline <= now {
            l.dial_failed(now);
        }
    }
    match &l.phase {
        LinkPhase::Down { retry_at } => Some(*retry_at),
        LinkPhase::Connecting { deadline, .. } => Some(*deadline),
        LinkPhase::Up { .. } => {
            refresh_queue_gauge(l, now);
            (!l.queue.is_empty()).then(|| now + BACKLOG_TICK)
        }
    }
}

/// Reads what an inbound connection's socket holds and learns its
/// plane from the first byte. Returns `false` when the peer hung up or
/// spoke no known plane (envelopes that did arrive are still served).
fn read_inbound(c: &mut Inbound, scratch: &mut [u8]) -> bool {
    let mut alive = true;
    // Skip the fill when a previous cycle already left a large backlog
    // of decodable bytes (a backpressured connection drains first). A
    // backlog that is one still-incomplete frame must keep filling, or
    // a frame larger than the per-cycle cap would never finish arriving.
    if c.rbuf.buf.len() < MAX_READ_PER_CYCLE || !c.rbuf.has_complete_frame() {
        alive = c
            .rbuf
            .fill(&mut c.stream, scratch, MAX_READ_PER_CYCLE)
            .unwrap_or_default();
    }
    if c.kind.is_none() && !c.rbuf.buf.is_empty() {
        c.kind = match c.rbuf.buf.remove(0) {
            KIND_PEER => Some(ConnKind::Peer),
            KIND_CLIENT => Some(ConnKind::Client),
            _ => return false,
        };
    }
    alive
}

/// Decodes and dispatches an inbound connection's buffered envelopes
/// until its write buffer hits the cap. Nothing is flushed here: the
/// replies leave after the cycle's commit. Returns whether the service
/// was handed any batch (and so is owed a commit); clears `alive` when
/// the connection should close once its replies have left.
fn dispatch_inbound<S: RpcService>(
    c: &mut Inbound,
    service: &mut S,
    links: &mut Links,
    alive: &mut bool,
) -> bool {
    let Some(kind) = c.kind else { return false };
    let mut handled = false;
    while c.wbuf.pending() < WRITE_BUF_CAP {
        let mut envs = Vec::new();
        if c.rbuf.drain_envelopes(&mut envs, ENV_BATCH).is_err() {
            *alive = false;
            break;
        }
        if envs.is_empty() {
            break;
        }
        handled = true;
        if !service.handle_batch(kind, envs, &mut c.wbuf.buf, links) {
            *alive = false;
            break;
        }
    }
    handled
}

/// The accepted connections, in reusable slots.
#[derive(Default)]
struct Conns {
    slots: Vec<Option<Inbound>>,
    free: Vec<usize>,
}

impl Conns {
    fn insert(&mut self, conn: Inbound) {
        match self.free.pop() {
            Some(i) => self.slots[i] = Some(conn),
            None => self.slots.push(Some(conn)),
        }
    }

    fn remove(&mut self, i: usize) {
        if self.slots[i].take().is_some() {
            self.free.push(i);
        }
    }
}

/// What one `pollfd` of a cycle belongs to.
#[derive(Clone, Copy)]
enum Owner {
    Wake,
    Listener,
    Conn(usize),
    Link(usize),
}

fn run<S: RpcService>(
    wake_rx: &UnixStream,
    listener: &TcpListener,
    mut service: S,
    mut links: Links,
    obs: &ReactorInstruments,
) {
    let mut conns = Conns::default();
    let mut scratch = vec![0u8; READ_CHUNK];
    let mut pollfds: Vec<PollFd> = Vec::new();
    let mut owners: Vec<Owner> = Vec::new();
    let mut next_tick = Instant::now() + S::TICK;

    loop {
        // 1. Pump every link enqueued on since the last poll, then run
        // the link timers: due redials, expired connects, backlog ticks.
        let now = Instant::now();
        let mut wake_at = next_tick;
        for l in links.conns.iter_mut().flatten() {
            if std::mem::take(&mut l.dirty) {
                pump_link(l, now);
            }
            if let Some(t) = link_tick(l, now) {
                wake_at = wake_at.min(t);
            }
        }

        // 2. Build the descriptor set.
        pollfds.clear();
        owners.clear();
        pollfds.push(PollFd::new(wake_rx.as_raw_fd(), POLLIN));
        owners.push(Owner::Wake);
        pollfds.push(PollFd::new(listener.as_raw_fd(), POLLIN));
        owners.push(Owner::Listener);
        for (i, c) in conns.slots.iter().enumerate() {
            let Some(c) = c else { continue };
            let mut ev = 0;
            if c.wbuf.pending() < WRITE_BUF_CAP {
                ev |= POLLIN;
            }
            if c.wbuf.pending() > 0 {
                ev |= POLLOUT;
            }
            pollfds.push(PollFd::new(c.stream.as_raw_fd(), ev));
            owners.push(Owner::Conn(i));
        }
        for (j, l) in links.conns.iter().enumerate() {
            let Some(l) = l else { continue };
            let (fd, events) = match &l.phase {
                LinkPhase::Down { .. } => continue,
                LinkPhase::Connecting { stream, .. } => (stream.as_raw_fd(), POLLOUT),
                LinkPhase::Up { stream, wbuf, .. } => {
                    let mut ev = POLLIN;
                    if wbuf.pending() > 0 {
                        ev |= POLLOUT;
                    }
                    (stream.as_raw_fd(), ev)
                }
            };
            pollfds.push(PollFd::new(fd, events));
            owners.push(Owner::Link(j));
        }

        // 3. Block for readiness (or the next timer). +1 rounds up so a
        // sub-millisecond remainder can't spin.
        let ms = wake_at.saturating_duration_since(now).as_millis() + 1;
        let timeout_ms = ms.min(i32::MAX as u128) as i32;
        let polled_at = Instant::now();
        let ready = match sys::poll(&mut pollfds, timeout_ms) {
            Ok(n) => n,
            Err(_) => {
                std::thread::sleep(Duration::from_millis(5));
                continue;
            }
        };
        let now = Instant::now();
        obs.poll_micros.record(now.duration_since(polled_at).as_micros() as u64);
        if ready > 0 {
            obs.wakeups.inc();
        }

        // 4. Dispatch readiness. Accepted sockets are registered after
        // the loop so a freed index can't be reused while stale
        // revents still reference it.
        let mut accepted: Vec<TcpStream> = Vec::new();
        // Inbound connections whose envelopes reached the service this
        // cycle, with whether each outlives the flush of what it was
        // answered.
        let mut dispatched: Vec<(usize, bool)> = Vec::new();
        let mut owed = false;
        for (pfd, owner) in pollfds.iter().zip(&owners) {
            if pfd.revents == 0 {
                continue;
            }
            match *owner {
                Owner::Wake => {
                    // Drain the pipe, up to a short read like any socket.
                    let mut pipe = wake_rx;
                    while let Ok(n) = pipe.read(&mut scratch[..64]) {
                        if scratch[..n].contains(&SHUTDOWN) {
                            return;
                        }
                        if n < 64 {
                            break;
                        }
                    }
                    service.woken(&mut links);
                    owed = true;
                }
                Owner::Listener => loop {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let _ = stream.set_nonblocking(true);
                            let _ = stream.set_nodelay(true);
                            accepted.push(stream);
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(_) => break,
                    }
                },
                Owner::Conn(i) => {
                    let Some(c) = conns.slots[i].as_mut() else {
                        continue;
                    };
                    let mut alive = true;
                    if pfd.revents & POLLOUT != 0 && c.wbuf.flush(&mut c.stream).is_err() {
                        alive = false;
                    }
                    // Any event (including a drained write buffer, which
                    // may unblock a backpressured connection's undecoded
                    // backlog) is a chance to read and dispatch — unless
                    // the connection still owes the peer too much.
                    if alive && c.wbuf.pending() < WRITE_BUF_CAP {
                        alive = read_inbound(c, &mut scratch);
                        if dispatch_inbound(c, &mut service, &mut links, &mut alive) {
                            dispatched.push((i, alive));
                            continue;
                        }
                    } else if pfd.revents & (POLLERR | POLLHUP) != 0 {
                        alive = false;
                    }
                    if !alive {
                        conns.remove(i);
                        obs.connections.add(-1);
                    }
                }
                Owner::Link(j) => {
                    let Some(l) = links.conns[j].as_mut() else {
                        continue;
                    };
                    match &l.phase {
                        LinkPhase::Connecting { .. } => {
                            finish_connect(l, now);
                            if matches!(l.phase, LinkPhase::Up { .. }) {
                                pump_link(l, now);
                            }
                        }
                        LinkPhase::Up { .. } => {
                            let mut alive = true;
                            if pfd.revents & POLLOUT != 0 {
                                if let LinkPhase::Up { stream, wbuf, .. } = &mut l.phase {
                                    if wbuf.flush(stream).is_err() {
                                        alive = false;
                                    }
                                }
                            }
                            if alive && pfd.revents & (POLLIN | POLLERR | POLLHUP) != 0 {
                                alive = reap_link(l, &mut scratch);
                            }
                            if alive {
                                pump_link(l, now);
                            } else {
                                l.drop_conn();
                            }
                        }
                        LinkPhase::Down { .. } => {}
                    }
                }
            }
        }

        // The tick falls due on the clock, not on a `poll` timeout.
        if now >= next_tick {
            service.tick(&mut links);
            next_tick = now + S::TICK;
            owed = true;
        }

        // 5. Commit, then write. What the cycle staged becomes durable
        // before any reply or ack it produced reaches a socket. A
        // connection the flush leaves with decodable frames and room in
        // its write buffer is dispatched again at once — no socket
        // event will ever announce that backlog — and its replies wait
        // for the next round's commit.
        owed |= !dispatched.is_empty();
        while owed {
            service.commit(&mut links);
            let mut again = Vec::new();
            for (i, alive) in dispatched.drain(..) {
                let Some(c) = conns.slots[i].as_mut() else {
                    continue;
                };
                if c.wbuf.flush(&mut c.stream).is_err() || !alive {
                    conns.remove(i);
                    obs.connections.add(-1);
                } else if c.wbuf.pending() < WRITE_BUF_CAP && c.rbuf.has_complete_frame() {
                    let mut alive = true;
                    dispatch_inbound(c, &mut service, &mut links, &mut alive);
                    again.push((i, alive));
                }
            }
            owed = !again.is_empty();
            dispatched = again;
        }

        for stream in accepted {
            conns.insert(Inbound {
                stream,
                kind: None,
                rbuf: RecvBuf::default(),
                wbuf: WriteBuf::default(),
            });
            obs.connections.add(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::frame::{put_acks, read_frame, seal, unseal, write_envelope, write_frame};
    use super::*;
    use std::io::Cursor;
    use std::net::{Shutdown, SocketAddr};
    use std::sync::mpsc::{self, Receiver, Sender};

    /// A reactor serving `service` on a fresh loopback listener.
    fn serve<S: RpcService>(service: S) -> (Reactor, SocketAddr) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let pipe = WakePipe::new().unwrap();
        let obs = ReactorInstruments::for_registry(&esr_obs::MetricsRegistry::new());
        let reactor = Reactor::spawn(pipe, listener, service, Links::default(), obs).unwrap();
        (reactor, addr)
    }

    #[test]
    fn write_buf_tracks_pending_and_resets_when_drained() {
        let mut wb = WriteBuf::default();
        assert_eq!(wb.pending(), 0);
        wb.buf.extend_from_slice(b"hello");
        assert_eq!(wb.pending(), 5);
        wb.pos = 3;
        assert_eq!(wb.pending(), 2);
    }

    #[test]
    fn recv_buf_decodes_incrementally_across_partial_arrivals() {
        let mut framed = Vec::new();
        write_frame(&mut framed, &seal(1, b"alpha")).unwrap();
        write_frame(&mut framed, &seal(2, b"beta")).unwrap();

        let mut rb = RecvBuf::default();
        let mut out = Vec::new();

        // First frame plus a split second frame: only one decodes.
        rb.buf.extend_from_slice(&framed[..framed.len() - 3]);
        rb.drain_envelopes(&mut out, usize::MAX).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].entry, 1);
        assert_eq!(out[0].payload, b"alpha");

        // Remainder arrives: the second completes.
        rb.buf.extend_from_slice(&framed[framed.len() - 3..]);
        rb.drain_envelopes(&mut out, usize::MAX).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[1].entry, 2);
        assert_eq!(out[1].payload, b"beta");
        assert!(rb.buf.is_empty(), "fully consumed");
    }

    #[test]
    fn recv_buf_rejects_oversized_and_short_frames() {
        let mut rb = RecvBuf::default();
        rb.buf.extend_from_slice(&u32::MAX.to_be_bytes());
        assert!(rb.drain_envelopes(&mut Vec::new(), usize::MAX).is_err());

        let mut rb = RecvBuf::default();
        // A 3-byte frame cannot hold an 8-byte envelope header.
        rb.buf.extend_from_slice(&3u32.to_be_bytes());
        rb.buf.extend_from_slice(b"abc");
        assert!(rb.drain_envelopes(&mut Vec::new(), usize::MAX).is_err());
    }

    /// Acks every peer envelope and reports the payload sizes it saw.
    struct SizeRecorder(Sender<usize>);

    impl RpcService for SizeRecorder {
        fn handle_batch(
            &mut self,
            _kind: ConnKind,
            envs: Vec<Envelope>,
            out: &mut Vec<u8>,
            _links: &mut Links,
        ) -> bool {
            let ids: Vec<u64> = envs.iter().map(|e| e.entry).collect();
            for env in &envs {
                let _ = self.0.send(env.payload.len());
            }
            put_acks(out, &ids).is_ok()
        }
    }

    #[test]
    fn one_frame_larger_than_the_read_cap_is_delivered_and_acked() {
        // A single 3 MiB peer envelope — three times MAX_READ_PER_CYCLE —
        // such as a long-lived coordinator's StartView. It arrives over
        // several readiness cycles; the reactor must keep reading it.
        const BIG: usize = 3 * 1024 * 1024;
        let (sizes_tx, sizes) = mpsc::channel();
        let (_reactor, addr) = serve(SizeRecorder(sizes_tx));

        let mut peer = TcpStream::connect(addr).unwrap();
        // A wedged reactor stops reading: fail on the timeouts, not hang.
        peer.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        peer.set_write_timeout(Some(Duration::from_secs(10))).unwrap();
        peer.write_all(&[KIND_PEER]).unwrap();
        write_frame(&mut peer, &seal(7, &vec![0xAB; BIG])).unwrap();
        // A small follow-up proves the stream stays framed afterwards.
        write_frame(&mut peer, &seal(8, b"tail")).unwrap();

        let mut acked = Vec::new();
        while acked.len() < 2 {
            let ack = super::super::frame::unseal(
                super::super::frame::read_frame(&mut peer).expect("ack for the large frame"),
            )
            .unwrap();
            acked.extend(ack.ack_ids().expect("an ack envelope"));
        }
        assert_eq!(acked, vec![7, 8]);
        assert_eq!(sizes.try_iter().collect::<Vec<_>>(), vec![BIG, 4]);
    }

    /// Echoes every envelope but `bad`, which it refuses; `commit`
    /// reports in and then blocks until the test lets it go.
    struct Gated {
        entered: Sender<()>,
        release: Receiver<()>,
    }

    impl RpcService for Gated {
        fn handle_batch(
            &mut self,
            _kind: ConnKind,
            envs: Vec<Envelope>,
            out: &mut Vec<u8>,
            _links: &mut Links,
        ) -> bool {
            for env in envs {
                if env.payload == b"bad" {
                    return false;
                }
                let _ = put_frame(out, NO_ENTRY, &env.payload);
            }
            true
        }

        fn commit(&mut self, _links: &mut Links) {
            let _ = self.entered.send(());
            let _ = self.release.recv();
        }
    }

    #[test]
    fn replies_leave_only_after_the_commit_even_when_the_batch_closes_the_connection() {
        use super::super::frame::{read_frame, unseal};
        let (entered_tx, entered) = mpsc::channel();
        let (release, release_rx) = mpsc::channel();
        let (_reactor, addr) = serve(Gated {
            entered: entered_tx,
            release: release_rx,
        });

        // One write, so one readiness batch: a request, then the frame
        // that makes the service hang up.
        let mut client = TcpStream::connect(addr).unwrap();
        let mut bytes = vec![KIND_CLIENT];
        write_frame(&mut bytes, &seal(NO_ENTRY, b"ping")).unwrap();
        write_frame(&mut bytes, &seal(NO_ENTRY, b"bad")).unwrap();
        client.write_all(&bytes).unwrap();

        // The reactor is now inside `commit`: the reply exists, and
        // must not have reached the socket.
        entered.recv_timeout(Duration::from_secs(10)).expect("commit called");
        client.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
        let early = client.read(&mut [0u8; 1]);
        assert!(
            matches!(&early, Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)),
            "a reply overtook the commit: {early:?}"
        );

        // Commit returns: the earlier reply is flushed, then the close.
        drop(release);
        client.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let reply = unseal(read_frame(&mut client).expect("reply after commit")).unwrap();
        assert_eq!(reply.payload, b"ping");
        assert!(read_frame(&mut client).is_err(), "connection closed after the flush");
    }

    #[test]
    fn recv_buf_honours_the_batch_limit() {
        let mut rb = RecvBuf::default();
        for i in 0..10u64 {
            let mut c = Cursor::new(Vec::new());
            write_frame(&mut c, &seal(i, b"x")).unwrap();
            rb.buf.extend_from_slice(c.get_ref());
        }
        let mut out = Vec::new();
        rb.drain_envelopes(&mut out, 4).unwrap();
        assert_eq!(out.len(), 4);
        out.clear();
        rb.drain_envelopes(&mut out, usize::MAX).unwrap();
        assert_eq!(out.len(), 6, "remaining frames decode next call");
    }

    /// Answers every client envelope with its own payload.
    struct Echo;

    impl RpcService for Echo {
        fn handle_batch(
            &mut self,
            _kind: ConnKind,
            envs: Vec<Envelope>,
            out: &mut Vec<u8>,
            _links: &mut Links,
        ) -> bool {
            envs.iter().all(|env| put_frame(out, NO_ENTRY, &env.payload).is_ok())
        }
    }

    /// A reactor serving `service`, and a blocking connection to it that
    /// has announced its plane with `kind`.
    fn dial<S: RpcService>(service: S, kind: u8) -> (Reactor, TcpStream) {
        let (reactor, addr) = serve(service);
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        stream.write_all(&[kind]).unwrap();
        (reactor, stream)
    }

    /// Sends one envelope frame as two segments 50 ms apart: its length
    /// prefix, then its body — so the first readiness cycle reads a
    /// short, incomplete frame.
    fn send_split(stream: &mut TcpStream, entry: u64, payload: &[u8]) {
        let mut frame = Vec::new();
        put_frame(&mut frame, entry, payload).unwrap();
        stream.write_all(&frame[..4]).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        stream.write_all(&frame[4..]).unwrap();
    }

    #[test]
    fn a_request_split_after_its_length_prefix_is_answered() {
        let (_reactor, mut client) = dial(Echo, KIND_CLIENT);
        send_split(&mut client, NO_ENTRY, b"ping");
        let reply = unseal(read_frame(&mut client).expect("reply")).unwrap();
        assert_eq!(reply.payload, b"ping");
    }

    #[test]
    fn a_peer_envelope_split_after_its_length_prefix_is_acked() {
        let (sizes_tx, sizes) = mpsc::channel();
        let (_reactor, mut peer) = dial(SizeRecorder(sizes_tx), KIND_PEER);
        send_split(&mut peer, 7, b"entry");
        let ack = unseal(read_frame(&mut peer).expect("ack")).unwrap();
        assert_eq!(ack.ack_ids().expect("an ack envelope").collect::<Vec<_>>(), vec![7]);
        assert_eq!(sizes.try_iter().collect::<Vec<_>>(), vec![5]);
    }

    #[test]
    fn a_request_followed_by_eof_is_answered_before_the_close() {
        // The request and the FIN can land in one readiness cycle: the
        // short read that takes the request must not lose the EOF behind
        // it, nor the EOF the reply.
        let (_reactor, mut client) = dial(Echo, KIND_CLIENT);
        write_envelope(&mut client, NO_ENTRY, b"last").unwrap();
        client.shutdown(Shutdown::Write).unwrap();
        let reply = unseal(read_frame(&mut client).expect("reply before the close")).unwrap();
        assert_eq!(reply.payload, b"last");
        let closed = read_frame(&mut client).unwrap_err();
        assert_eq!(closed.kind(), io::ErrorKind::UnexpectedEof, "then the close");
    }
}

//! Epoll-driven reactor: one thread multiplexing every nonblocking
//! socket a daemon owns — its listener, each accepted RPC connection,
//! and each outbound link — over one level-triggered `epoll` set
//! ([`super::sys::Epoll`]).
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
//! - **Inbound connections** accumulate reads into a receive buffer and
//!   scan it in place for whole length-prefixed frames
//!   ([`super::frame::scan`]). Every complete envelope of a readiness
//!   cycle is lent to the [`RpcService`] in one batch — borrowed from
//!   the receive buffer, valid for that one
//!   [`RpcService::handle_batch`] call, never copied out — and the bytes
//!   the batch spanned are drained once it returns (peer planes answer
//!   N entries with one batched ack frame —
//!   [`super::frame::put_acks`]). Replies coalesce into a per-connection
//!   write buffer flushed on write readiness; a connection whose buffer
//!   exceeds [`WRITE_BUF_CAP`] stops being read until the peer drains
//!   it (backpressure instead of unbounded memory). Every close is
//!   counted by its cause (`esr_reactor_closed_total{cause}`).
//! - **Outbound links** run the stable-queue retry contract as a
//!   dial/connect/pump state machine: nonblocking connect with a
//!   deadline, capped exponential redial backoff, full retransmission
//!   of unacknowledged entries on every new connection, and coalesced
//!   frame writes straight from the queue. A link entry is the one
//!   `Bytes` its sender encoded once; the pump frames it into the write
//!   buffer by reference, and an acknowledgement retires its ids
//!   straight from the receive buffer.
//!
//! **Interest is registered once.** Each socket joins the epoll set
//! when it comes into being — the wake pipe and the listener at spawn,
//! an accepted connection when it takes its slot, a link's socket when
//! it dials — under a token naming its owner, and leaves it when it is
//! closed. What a socket waits for changes only on a transition (a
//! flush leaves bytes owed or pays them off, a write buffer crosses
//! [`WRITE_BUF_CAP`], a link's connect completes), checked against the
//! mask it is registered with; a request/reply round trip on an
//! established connection makes no `epoll_ctl` call. A cycle visits
//! only the ready events, plus its links (O(peers)) for their pumps and
//! timers.
//!
//! A self-pipe carries the only wake-ups from other threads
//! ([`Waker`]: a background worker reporting back, and shutdown), so
//! the loop blocks in `epoll_wait` until a socket, that pipe or its
//! next timer needs it.
//!
//! A readiness event costs as few syscalls as its bytes need. Every
//! socket — and the wake pipe — is read until a *short* read (or the
//! per-cycle cap), never on to the `read` that returns `EAGAIN`: the
//! epoll set is level-triggered, so bytes that land after the short
//! read are reported next cycle. Every frame goes straight into its
//! connection's write buffer ([`super::frame::put_frame`]), so a cycle's
//! replies, acks and link entries leave in one `write` per socket.
//!
//! A readiness cycle has three phases. **Dispatch**: every ready
//! connection's envelopes go to [`RpcService::handle_batch`], replies
//! and acks accumulating in its write buffer; a due
//! [`RpcService::tick`] runs after them — its deadline is checked on
//! every cycle, not only when the wait times out, so a loop that never
//! idles still ticks. **Commit**: the service gets one
//! [`RpcService::commit`] call, where it makes durable whatever the
//! cycle implied. **Write**: only then are the write buffers flushed,
//! and the links the service enqueued on are pumped at the top of the
//! next cycle, before it waits.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use esr_obs::{LinkInstruments, ReactorInstruments};
use esr_storage::stable_queue::{EntryId, MemQueue, StableQueue};

use super::frame::{
    be_u32, put_frame, scan, Envelopes, KIND_CLIENT, KIND_PEER, MAX_FRAME, NO_ENTRY,
};
use super::sys::{self, Epoll, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT};

use super::conn::{Links, Resolver};

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
/// Redial delay after a link's first failed dial; each further failure
/// doubles it, up to [`REDIAL_MAX`], and a connect resets it.
const REDIAL_INITIAL: Duration = Duration::from_millis(20);
/// Cap for the doubling redial delay.
const REDIAL_MAX: Duration = Duration::from_secs(1);
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
/// enqueues there is pumped before the next wait.
pub trait RpcService: Send + 'static {
    /// The interval of [`RpcService::tick`] — a constant of the
    /// service, not a setting.
    const TICK: Duration = Duration::from_secs(1);

    /// Handles one batch of inbound envelopes from a single connection:
    /// `envs` lends the complete envelopes of one readiness cycle
    /// (bounded, in arrival order) in place in the connection's receive
    /// buffer, for this call only; replies and acknowledgements
    /// are appended to `out` as already-framed bytes, which the reactor
    /// flushes through the connection's coalescing write buffer — after
    /// the cycle's [`RpcService::commit`]. Returning `false` closes the
    /// connection after that flush.
    fn handle_batch(
        &mut self,
        kind: ConnKind,
        envs: Envelopes<'_>,
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
    /// The thread's `epoll_ctl` calls so far, for this module's tests.
    #[cfg(test)]
    ctl_calls: Arc<AtomicU64>,
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
        let ctl_calls = Arc::<AtomicU64>::default();
        let interest = Interest {
            ep: Epoll::new()?,
            ctl_calls: Arc::clone(&ctl_calls),
        };
        interest.add(rx.as_raw_fd(), EPOLLIN, Owner::Wake)?;
        interest.add(listener.as_raw_fd(), EPOLLIN, Owner::Listener)?;
        let thread = std::thread::Builder::new()
            .name("esr-reactor".into())
            .spawn(move || run(&rx, &listener, &interest, service, links, &obs))?;
        Ok(Self {
            shutdown: tx,
            thread: Some(thread),
            #[cfg(test)]
            ctl_calls,
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

    /// Output interest: a socket waits to write while it owes bytes.
    fn out_interest(&self) -> u32 {
        if self.pending() > 0 {
            EPOLLOUT
        } else {
            0
        }
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

/// Inbound bytes, scanned in place for whole length-prefixed frames
/// ([`scan`]).
#[derive(Default)]
struct RecvBuf {
    buf: Vec<u8>,
}

impl RecvBuf {
    /// Reads until a short read (or `max_bytes`); `Ok(false)` on EOF.
    /// A read that did not fill `scratch` emptied the socket, and the
    /// epoll set is level-triggered — bytes that land after it are
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
    /// announcing more than `MAX_FRAME` never counts: the next scan
    /// rejects it).
    fn has_complete_frame(&self) -> bool {
        self.buf.len() >= 4 && {
            let len = be_u32(&self.buf) as usize;
            len <= MAX_FRAME && self.buf.len() - 4 >= len
        }
    }
}

/// One accepted connection's state machine.
struct Inbound {
    stream: TcpStream,
    kind: Option<ConnKind>,
    rbuf: RecvBuf,
    wbuf: WriteBuf,
    /// What the socket is registered to wait for.
    interest: u32,
}

impl Inbound {
    /// What the socket should wait for: input while it owes less than
    /// [`WRITE_BUF_CAP`], output while it owes anything.
    fn wants(&self) -> u32 {
        let input = if self.wbuf.pending() < WRITE_BUF_CAP { EPOLLIN } else { 0 };
        input | self.wbuf.out_interest()
    }
}

/// Why an accepted connection closed: an index into
/// [`ReactorInstruments::closed`], in the order of
/// [`esr_obs::CLOSE_CAUSES`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Close {
    /// The peer hung up.
    Eof,
    /// A read, write or registration failed.
    IoError,
    /// A frame failed the scan (oversized, or too short for its header).
    BadFrame,
    /// The first byte named no plane.
    UnknownPlane,
    /// The service returned `false` from [`RpcService::handle_batch`].
    Refused,
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
        /// What the socket is registered to wait for.
        interest: u32,
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
    /// Per-link metrics bundle.
    obs: LinkInstruments,
    /// Enqueued on since the last pump: pumped before the next wait.
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
        obs: LinkInstruments,
    ) -> Self {
        Self {
            queue,
            resolve,
            hello,
            obs,
            dirty: false,
            delay: REDIAL_INITIAL,
            sent_ever: None,
            backlog_since: None,
            phase: LinkPhase::Down {
                retry_at: Instant::now(),
            },
        }
    }

    /// Retires the acknowledged entries among `ids`; returns how many.
    pub(crate) fn ack(&mut self, ids: &[EntryId]) -> usize {
        retire(&mut self.queue, &self.obs, ids.iter().copied())
    }

    /// Connection lost after being up: redial immediately (the backoff
    /// only grows on dial *failures*).
    fn drop_conn(&mut self, now: Instant) {
        self.phase = LinkPhase::Down { retry_at: now };
    }

    /// Dial failed (or the peer has no published address): back off.
    fn dial_failed(&mut self, now: Instant) {
        self.phase = LinkPhase::Down {
            retry_at: now + self.delay,
        };
        self.delay = (self.delay * 2).min(REDIAL_MAX);
    }

    /// Dials a fresh socket and registers it, as link `j`, to learn
    /// when its connect completes.
    fn try_dial(&mut self, j: usize, interest: &Interest, now: Instant) {
        let dialed = (self.resolve)().and_then(|addr| {
            let stream = sys::connect_nonblocking(&addr).ok()?;
            interest
                .add(stream.as_raw_fd(), EPOLLOUT, Owner::Link(j))
                .ok()?;
            Some(stream)
        });
        match dialed {
            Some(stream) => {
                self.phase = LinkPhase::Connecting {
                    stream,
                    deadline: now + CONNECT_TIMEOUT,
                };
            }
            None => self.dial_failed(now),
        }
    }

    /// Connect handshake finished: queue the kind byte + hello, reset
    /// the per-connection high-water mark so everything unacknowledged
    /// retransmits. The socket is still registered for writability
    /// only; the pump that follows moves it to what it waits for now.
    fn go_up(&mut self, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        let mut wbuf = WriteBuf::default();
        wbuf.buf.push(KIND_PEER);
        let _ = put_frame(&mut wbuf.buf, NO_ENTRY, &self.hello);
        self.delay = REDIAL_INITIAL;
        self.obs.dials.inc();
        self.phase = LinkPhase::Up {
            stream,
            rbuf: RecvBuf::default(),
            wbuf,
            sent_high: None,
            interest: EPOLLOUT,
        };
    }
}

/// Retires the entries among `ids` that `queue` holds, counting them on
/// the link's `obs`; returns how many.
fn retire(
    queue: &mut MemQueue,
    obs: &LinkInstruments,
    ids: impl Iterator<Item = EntryId>,
) -> usize {
    let acked = ids.filter(|id| queue.ack(*id)).count();
    if acked > 0 {
        obs.acks.add(acked as u64);
    }
    acked
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
/// (coalesced, oldest first, past the connection's high-water mark),
/// flushes what the socket accepts, and has link `j`'s socket wait for
/// acks — and for writability while it still owes bytes.
fn pump_link(l: &mut LinkConn, j: usize, interest: &Interest, now: Instant) {
    if let LinkPhase::Up {
        stream,
        wbuf,
        sent_high,
        interest: have,
        ..
    } = &mut l.phase
    {
        for (id, payload) in l.queue.iter_after(*sent_high) {
            if wbuf.pending() >= WRITE_BUF_CAP {
                break;
            }
            let _ = put_frame(&mut wbuf.buf, id.0, payload);
            if l.sent_ever.is_some_and(|h| id.0 <= h.0) {
                l.obs.retransmits.inc();
            } else {
                l.obs.sends.inc();
                l.sent_ever = Some(id);
            }
            *sent_high = Some(id);
        }
        let synced = wbuf.flush(stream).is_ok() && {
            let want = EPOLLIN | wbuf.out_interest();
            interest.update(stream.as_raw_fd(), Owner::Link(j), have, want).is_ok()
        };
        if !synced {
            l.drop_conn(now);
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
    // Even a dying connection may have delivered complete ack frames:
    // every id they carry retires straight from the buffer.
    let Ok((acks, used)) = scan(&rbuf.buf, usize::MAX) else {
        return false;
    };
    let ids = acks.iter().filter_map(|env| env.ack_ids()).flatten();
    retire(&mut l.queue, &l.obs, ids.map(EntryId));
    rbuf.buf.drain(..used);
    alive
}

/// Runs link `j`'s timers (dial retries, connect deadlines) and
/// reports when it next needs the loop to wake.
fn link_tick(l: &mut LinkConn, j: usize, interest: &Interest, now: Instant) -> Option<Instant> {
    if let LinkPhase::Down { retry_at } = l.phase {
        if retry_at <= now {
            l.try_dial(j, interest, now);
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
/// plane from the first byte. Returns why the connection must close, if
/// the peer hung up or spoke no known plane (envelopes that did arrive
/// are still served).
fn read_inbound(c: &mut Inbound, scratch: &mut [u8]) -> Option<Close> {
    let mut close = None;
    // Skip the fill when a previous cycle already left a large backlog
    // of decodable bytes (a backpressured connection drains first). A
    // backlog that is one still-incomplete frame must keep filling, or
    // a frame larger than the per-cycle cap would never finish arriving.
    if c.rbuf.buf.len() < MAX_READ_PER_CYCLE || !c.rbuf.has_complete_frame() {
        close = match c.rbuf.fill(&mut c.stream, scratch, MAX_READ_PER_CYCLE) {
            Ok(true) => None,
            Ok(false) => Some(Close::Eof),
            Err(_) => Some(Close::IoError),
        };
    }
    if c.kind.is_none() && !c.rbuf.buf.is_empty() {
        c.kind = match c.rbuf.buf.remove(0) {
            KIND_PEER => Some(ConnKind::Peer),
            KIND_CLIENT => Some(ConnKind::Client),
            _ => return Some(Close::UnknownPlane),
        };
    }
    close
}

/// Decodes and dispatches an inbound connection's buffered envelopes
/// until its write buffer hits the cap. Nothing is flushed here: the
/// replies leave after the cycle's commit. Returns whether the service
/// was handed any batch (and so is owed a commit); sets `close` when
/// the connection should close once its replies have left — a bad frame
/// or a refusal names the cause, as it came before whatever the read
/// found at the stream's end.
fn dispatch_inbound<S: RpcService>(
    c: &mut Inbound,
    service: &mut S,
    links: &mut Links,
    close: &mut Option<Close>,
) -> bool {
    let Some(kind) = c.kind else { return false };
    let mut handled = false;
    while c.wbuf.pending() < WRITE_BUF_CAP {
        // The batch borrows the receive buffer for the call; the bytes it
        // spanned are drained once the service returns.
        let Ok((envs, used)) = scan(&c.rbuf.buf, ENV_BATCH) else {
            *close = Some(Close::BadFrame);
            break;
        };
        if envs.is_empty() {
            break;
        }
        handled = true;
        let keep = service.handle_batch(kind, envs, &mut c.wbuf.buf, links);
        c.rbuf.buf.drain(..used);
        if !keep {
            *close = Some(Close::Refused);
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
    /// Puts `conn` in a free slot; returns its index.
    fn insert(&mut self, conn: Inbound) -> usize {
        match self.free.pop() {
            Some(i) => {
                self.slots[i] = Some(conn);
                i
            }
            None => {
                self.slots.push(Some(conn));
                self.slots.len() - 1
            }
        }
    }

    /// Closes the connection in slot `i` — its socket leaves the epoll
    /// set with its descriptor — and counts the close under `cause`.
    fn close(&mut self, i: usize, cause: Close, obs: &ReactorInstruments) {
        if self.slots[i].take().is_some() {
            self.free.push(i);
            obs.connections.add(-1);
            obs.closed[cause as usize].inc();
        }
    }

    /// Has the connection in slot `i` wait for what it wants now,
    /// closing it if the set refuses.
    fn sync(&mut self, i: usize, interest: &Interest, obs: &ReactorInstruments) {
        let Some(c) = self.slots[i].as_mut() else { return };
        let want = c.wants();
        if interest
            .update(c.stream.as_raw_fd(), Owner::Conn(i), &mut c.interest, want)
            .is_err()
        {
            self.close(i, Close::IoError, obs);
        }
    }
}

/// Whom a readiness event is for: the token a socket registers with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Owner {
    Wake,
    Listener,
    Conn(usize),
    Link(usize),
}

impl Owner {
    /// The low two bits name the kind of owner, the rest its index.
    fn token(self) -> u64 {
        match self {
            Owner::Wake => 0,
            Owner::Listener => 1,
            Owner::Conn(i) => (i as u64) << 2 | 2,
            Owner::Link(j) => (j as u64) << 2 | 3,
        }
    }

    fn of(token: u64) -> Self {
        let i = (token >> 2) as usize;
        match token & 3 {
            0 => Owner::Wake,
            1 => Owner::Listener,
            2 => Owner::Conn(i),
            _ => Owner::Link(i),
        }
    }
}

/// The reactor's epoll set, and a count of the `epoll_ctl` calls made on
/// it (read by this module's tests; not a metric).
struct Interest {
    ep: Epoll,
    ctl_calls: Arc<AtomicU64>,
}

impl Interest {
    /// Registers a socket that just came into being.
    fn add(&self, fd: RawFd, events: u32, owner: Owner) -> io::Result<()> {
        self.ctl_calls.fetch_add(1, Ordering::Relaxed);
        self.ep.add(fd, events, owner.token())
    }

    /// Re-registers `fd` for `want` when that differs from `have`, what
    /// it is registered for now.
    fn update(&self, fd: RawFd, owner: Owner, have: &mut u32, want: u32) -> io::Result<()> {
        if *have == want {
            return Ok(());
        }
        self.ctl_calls.fetch_add(1, Ordering::Relaxed);
        self.ep.modify(fd, want, owner.token())?;
        *have = want;
        Ok(())
    }
}

fn run<S: RpcService>(
    wake_rx: &UnixStream,
    listener: &TcpListener,
    interest: &Interest,
    mut service: S,
    mut links: Links,
    obs: &ReactorInstruments,
) {
    let mut conns = Conns::default();
    let mut scratch = vec![0u8; READ_CHUNK];
    let mut ready: Vec<EpollEvent> = Vec::new();
    let mut accepted: Vec<TcpStream> = Vec::new();
    // The clock is read once before each wait and once after it; the
    // reading after one wait times the cycle it starts and the link
    // work at the top of the next.
    let mut now = Instant::now();
    let mut next_tick = now + S::TICK;
    // Inbound connections whose envelopes reached the service this
    // cycle, with why each closes once what it was answered is
    // flushed; and those the commit loop dispatches again.
    let mut dispatched: Vec<(usize, Option<Close>)> = Vec::new();
    let mut again: Vec<(usize, Option<Close>)> = Vec::new();

    loop {
        // 1. Pump every link enqueued on since the last wait, then run
        // the link timers: due redials, expired connects, backlog ticks.
        let mut wake_at = next_tick;
        for (j, l) in links.conns.iter_mut().enumerate() {
            let Some(l) = l else { continue };
            if std::mem::take(&mut l.dirty) {
                pump_link(l, j, interest, now);
            }
            if let Some(t) = link_tick(l, j, interest, now) {
                wake_at = wake_at.min(t);
            }
        }

        // 2. Block for readiness (or the next timer), with room for an
        // event from every socket. +1 rounds up so a sub-millisecond
        // remainder can't spin.
        let sockets = 2 + conns.slots.len() + links.conns.len();
        if ready.len() < sockets {
            ready.resize(sockets, EpollEvent::default());
        }
        let waited_at = Instant::now();
        let ms = wake_at.saturating_duration_since(waited_at).as_millis() + 1;
        let timeout_ms = ms.min(i32::MAX as u128) as i32;
        let n = match interest.ep.wait(&mut ready, timeout_ms) {
            Ok(n) => n,
            Err(_) => {
                std::thread::sleep(Duration::from_millis(5));
                now = Instant::now();
                continue;
            }
        };
        now = Instant::now();
        obs.poll_micros.record(now.duration_since(waited_at).as_micros() as u64);
        if n > 0 {
            obs.wakeups.inc();
        }

        // 3. Dispatch the ready events. Accepted sockets take their slots
        // (and join the set) only after the commit, so a slot freed this
        // cycle can't be reused while a stale event still names it.
        let mut owed = false;
        for &EpollEvent { events, token } in &ready[..n] {
            match Owner::of(token) {
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
                    let mut close = None;
                    if events & EPOLLOUT != 0 && c.wbuf.flush(&mut c.stream).is_err() {
                        close = Some(Close::IoError);
                    }
                    // Any event (including a drained write buffer, which
                    // may unblock a backpressured connection's undecoded
                    // backlog) is a chance to read and dispatch — unless
                    // the connection still owes the peer too much.
                    if close.is_none() && c.wbuf.pending() < WRITE_BUF_CAP {
                        close = read_inbound(c, &mut scratch);
                        if dispatch_inbound(c, &mut service, &mut links, &mut close) {
                            dispatched.push((i, close));
                            continue;
                        }
                    } else if events & EPOLLERR != 0 {
                        close = close.or(Some(Close::IoError));
                    } else if events & EPOLLHUP != 0 {
                        close = close.or(Some(Close::Eof));
                    }
                    match close {
                        Some(cause) => conns.close(i, cause, obs),
                        None => conns.sync(i, interest, obs),
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
                                pump_link(l, j, interest, now);
                            }
                        }
                        LinkPhase::Up { .. } => {
                            let mut alive = true;
                            if events & EPOLLOUT != 0 {
                                if let LinkPhase::Up { stream, wbuf, .. } = &mut l.phase {
                                    if wbuf.flush(stream).is_err() {
                                        alive = false;
                                    }
                                }
                            }
                            if alive && events & (EPOLLIN | EPOLLERR | EPOLLHUP) != 0 {
                                alive = reap_link(l, &mut scratch);
                            }
                            if alive {
                                pump_link(l, j, interest, now);
                            } else {
                                l.drop_conn(now);
                            }
                        }
                        LinkPhase::Down { .. } => {}
                    }
                }
            }
        }

        // The tick falls due on the clock, not on a wait's timeout.
        if now >= next_tick {
            service.tick(&mut links);
            next_tick = now + S::TICK;
            owed = true;
        }

        // 4. Commit, then write. What the cycle staged becomes durable
        // before any reply or ack it produced reaches a socket. A
        // connection the flush leaves with decodable frames and room in
        // its write buffer is dispatched again at once — no socket
        // event will ever announce that backlog — and its replies wait
        // for the next round's commit.
        owed |= !dispatched.is_empty();
        while owed {
            service.commit(&mut links);
            for (i, close) in dispatched.drain(..) {
                let Some(c) = conns.slots[i].as_mut() else {
                    continue;
                };
                let flushed = c.wbuf.flush(&mut c.stream);
                if let Some(cause) = close.or(flushed.err().map(|_| Close::IoError)) {
                    conns.close(i, cause, obs);
                } else if c.wbuf.pending() < WRITE_BUF_CAP && c.rbuf.has_complete_frame() {
                    let mut close = None;
                    dispatch_inbound(c, &mut service, &mut links, &mut close);
                    again.push((i, close));
                } else {
                    conns.sync(i, interest, obs);
                }
            }
            owed = !again.is_empty();
            std::mem::swap(&mut dispatched, &mut again);
        }

        for stream in accepted.drain(..) {
            let fd = stream.as_raw_fd();
            let i = conns.insert(Inbound {
                stream,
                kind: None,
                rbuf: RecvBuf::default(),
                wbuf: WriteBuf::default(),
                interest: EPOLLIN,
            });
            obs.connections.add(1);
            if interest.add(fd, EPOLLIN, Owner::Conn(i)).is_err() {
                conns.close(i, Close::IoError, obs);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::frame::{
        put_acks, read_frame, seal, unseal, write_envelope, write_frame, Envelope,
    };
    use super::*;
    use std::io::Cursor;
    use std::net::{Shutdown, SocketAddr};
    use std::sync::mpsc::{self, Receiver, Sender};

    /// A reactor serving `service` on a fresh loopback listener.
    fn serve<S: RpcService>(service: S) -> (Reactor, SocketAddr) {
        let (reactor, addr, _) = serve_observed(service);
        (reactor, addr)
    }

    /// [`serve`], with the reactor's metrics bundle.
    fn serve_observed<S: RpcService>(service: S) -> (Reactor, SocketAddr, ReactorInstruments) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let pipe = WakePipe::new().unwrap();
        let obs = ReactorInstruments::for_registry(&esr_obs::MetricsRegistry::new());
        let reactor = Reactor::spawn(pipe, listener, service, Links::default(), obs.clone()).unwrap();
        (reactor, addr, obs)
    }

    fn wait_until(mut cond: impl FnMut() -> bool) {
        for _ in 0..500 {
            if cond() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("condition not reached within 5s");
    }

    #[test]
    fn owner_tokens_round_trip() {
        for owner in [
            Owner::Wake,
            Owner::Listener,
            Owner::Conn(0),
            Owner::Conn(9_999),
            Owner::Link(0),
            Owner::Link(2),
        ] {
            assert_eq!(Owner::of(owner.token()), owner);
        }
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

    /// The envelopes `scan` lends from `rb` now, as owned
    /// `(entry, payload)` pairs; the bytes they span are then drained.
    fn take(rb: &mut RecvBuf, max: usize) -> io::Result<Vec<(u64, Vec<u8>)>> {
        let (envs, used) = scan(&rb.buf, max)?;
        let got = envs.iter().map(|e| (e.entry, e.payload.to_vec())).collect();
        assert_eq!(envs.iter().len(), envs.len());
        rb.buf.drain(..used);
        Ok(got)
    }

    #[test]
    fn recv_buf_decodes_incrementally_across_partial_arrivals() {
        let mut framed = Vec::new();
        write_frame(&mut framed, &seal(1, b"alpha")).unwrap();
        write_frame(&mut framed, &seal(2, b"beta")).unwrap();

        let mut rb = RecvBuf::default();

        // First frame plus a split second frame: only one is lent.
        rb.buf.extend_from_slice(&framed[..framed.len() - 3]);
        assert_eq!(take(&mut rb, usize::MAX).unwrap(), [(1, b"alpha".to_vec())]);
        let split = &framed[17..framed.len() - 3];
        assert_eq!(rb.buf, split, "the split frame stays");

        // Remainder arrives: the second completes.
        rb.buf.extend_from_slice(&framed[framed.len() - 3..]);
        assert_eq!(take(&mut rb, usize::MAX).unwrap(), [(2, b"beta".to_vec())]);
        assert!(rb.buf.is_empty(), "fully consumed");

        // A length prefix alone lends nothing and consumes nothing.
        rb.buf.extend_from_slice(&framed[..3]);
        assert!(take(&mut rb, usize::MAX).unwrap().is_empty());
        assert_eq!(rb.buf.len(), 3);
    }

    #[test]
    fn recv_buf_rejects_oversized_and_short_frames() {
        let mut rb = RecvBuf::default();
        rb.buf.extend_from_slice(&u32::MAX.to_be_bytes());
        assert!(scan(&rb.buf, usize::MAX).is_err());

        let mut rb = RecvBuf::default();
        // A 3-byte frame cannot hold an 8-byte envelope header.
        rb.buf.extend_from_slice(&3u32.to_be_bytes());
        rb.buf.extend_from_slice(b"abc");
        assert!(scan(&rb.buf, usize::MAX).is_err());

        // Behind a good frame the bad one still fails the whole scan.
        let mut rb = RecvBuf::default();
        put_frame(&mut rb.buf, 1, b"ok").unwrap();
        let oversized = MAX_FRAME as u32 + 1;
        rb.buf.extend_from_slice(&oversized.to_be_bytes());
        assert!(scan(&rb.buf, usize::MAX).is_err());
        // The largest frame allowed only waits for its bytes.
        let mut rb = RecvBuf::default();
        rb.buf.extend_from_slice(&(MAX_FRAME as u32).to_be_bytes());
        assert!(take(&mut rb, usize::MAX).unwrap().is_empty());
    }

    /// Acks every peer envelope and reports the payload sizes it saw.
    struct SizeRecorder(Sender<usize>);

    impl RpcService for SizeRecorder {
        fn handle_batch(
            &mut self,
            _kind: ConnKind,
            envs: Envelopes<'_>,
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
            let frame = read_frame(&mut peer).expect("ack for the large frame");
            let ack = unseal(&frame).unwrap();
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
            envs: Envelopes<'_>,
            out: &mut Vec<u8>,
            _links: &mut Links,
        ) -> bool {
            for env in envs {
                if env.payload == b"bad" {
                    return false;
                }
                let _ = put_frame(out, NO_ENTRY, env.payload);
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
        let frame = read_frame(&mut client).expect("reply after commit");
        let reply = unseal(&frame).unwrap();
        assert_eq!(reply.payload, b"ping");
        assert!(read_frame(&mut client).is_err(), "connection closed after the flush");
    }

    #[test]
    fn recv_buf_honours_the_batch_limit() {
        let mut rb = RecvBuf::default();
        let frames = ENV_BATCH as u64 + 6;
        for i in 0..frames {
            let mut c = Cursor::new(Vec::new());
            write_frame(&mut c, &seal(i, b"x")).unwrap();
            rb.buf.extend_from_slice(c.get_ref());
        }
        let first = take(&mut rb, ENV_BATCH).unwrap();
        assert_eq!(first.len(), ENV_BATCH);
        assert_eq!(first.last().map(|e| e.0), Some(ENV_BATCH as u64 - 1));
        let rest = take(&mut rb, ENV_BATCH).unwrap();
        assert_eq!(rest.len(), 6, "remaining frames are lent next call");
        assert_eq!(rest[0].0, ENV_BATCH as u64);
        assert!(rb.buf.is_empty());
    }

    /// One frame of a generated stream: an envelope, or a batched ack.
    #[derive(Debug, Clone)]
    enum Gen {
        Envelope(u64, Vec<u8>),
        Acks(Vec<u64>),
    }

    fn gen_frame() -> impl proptest::strategy::Strategy<Value = Gen> {
        use proptest::prelude::*;
        prop_oneof![
            (any::<u64>(), proptest::collection::vec(any::<u8>(), 0..40))
                .prop_map(|(entry, payload)| Gen::Envelope(entry, payload)),
            proptest::collection::vec(0u64..1_000, 0..6).prop_map(Gen::Acks),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(200))]

        /// However a stream of envelope and batched-ack frames is split
        /// into arrivals, the envelopes the scanner lends in place, and
        /// their acknowledged ids, are those the blocking reader yields.
        #[test]
        fn scanned_envelopes_match_the_blocking_reader(
            frames in proptest::collection::vec(gen_frame(), 0..24),
            cuts in proptest::collection::vec(0usize..2_000, 0..8),
            max in 1usize..6,
        ) {
            let mut stream = Vec::new();
            for f in &frames {
                match f {
                    Gen::Envelope(entry, payload) => put_frame(&mut stream, *entry, payload).unwrap(),
                    Gen::Acks(ids) => put_acks(&mut stream, ids).unwrap(),
                }
            }
            type Seen = (u64, Vec<u8>, Option<Vec<u64>>);
            let seen = |entry: u64, payload: &[u8]| -> Seen {
                let env = Envelope { entry, payload };
                (entry, payload.to_vec(), env.ack_ids().map(Iterator::collect))
            };
            let mut want: Vec<Seen> = Vec::new();
            let mut r = Cursor::new(&stream);
            while (r.position() as usize) < stream.len() {
                let frame = read_frame(&mut r).unwrap();
                let env = unseal(&frame).unwrap();
                want.push(seen(env.entry, env.payload));
            }

            let mut offsets: Vec<usize> = cuts.iter().map(|c| c % (stream.len() + 1)).collect();
            offsets.push(stream.len());
            offsets.sort_unstable();
            let (mut rb, mut got, mut from) = (RecvBuf::default(), Vec::new(), 0);
            for to in offsets {
                rb.buf.extend_from_slice(&stream[from..to]);
                from = to;
                loop {
                    let (envs, used) = scan(&rb.buf, max).unwrap();
                    if envs.is_empty() {
                        break;
                    }
                    proptest::prop_assert!(envs.len() <= max);
                    got.extend(envs.iter().map(|e| seen(e.entry, e.payload)));
                    rb.buf.drain(..used);
                }
            }
            proptest::prop_assert!(rb.buf.is_empty());
            proptest::prop_assert_eq!(got, want);
        }
    }

    /// Answers every client envelope with its own payload.
    struct Echo;

    impl RpcService for Echo {
        fn handle_batch(
            &mut self,
            _kind: ConnKind,
            envs: Envelopes<'_>,
            out: &mut Vec<u8>,
            _links: &mut Links,
        ) -> bool {
            envs.iter().all(|env| put_frame(out, NO_ENTRY, env.payload).is_ok())
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
        let frame = read_frame(&mut client).expect("reply");
        let reply = unseal(&frame).unwrap();
        assert_eq!(reply.payload, b"ping");
    }

    #[test]
    fn a_peer_envelope_split_after_its_length_prefix_is_acked() {
        let (sizes_tx, sizes) = mpsc::channel();
        let (_reactor, mut peer) = dial(SizeRecorder(sizes_tx), KIND_PEER);
        send_split(&mut peer, 7, b"entry");
        let frame = read_frame(&mut peer).expect("ack");
        let ack = unseal(&frame).unwrap();
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
        let frame = read_frame(&mut client).expect("reply before the close");
        let reply = unseal(&frame).unwrap();
        assert_eq!(reply.payload, b"last");
        let closed = read_frame(&mut client).unwrap_err();
        assert_eq!(closed.kind(), io::ErrorKind::UnexpectedEof, "then the close");
    }

    /// One request and its echoed reply over `client`.
    fn round_trip(client: &mut TcpStream, payload: &[u8]) {
        write_envelope(client, NO_ENTRY, payload).unwrap();
        let frame = read_frame(client).expect("reply");
        assert_eq!(unseal(&frame).unwrap().payload, payload);
    }

    #[test]
    fn round_trips_on_an_established_connection_make_no_epoll_ctl_call() {
        let (reactor, mut client) = dial(Echo, KIND_CLIENT);
        // The first round trip has the connection accepted and added.
        round_trip(&mut client, b"warm");
        let before = reactor.ctl_calls.load(Ordering::Relaxed);
        for i in 0..1_000u32 {
            round_trip(&mut client, &i.to_be_bytes());
        }
        // Any interest change would follow the flush of the cycle that
        // answered: give the last one time to land.
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(reactor.ctl_calls.load(Ordering::Relaxed), before);
    }

    #[test]
    fn a_connection_accepted_after_a_close_is_served() {
        // Each client hangs up and the next connects at once, so the new
        // socket most likely gets the old one's descriptor number and
        // slot — in the same cycle as the close, or the next one.
        let (_reactor, addr, obs) = serve_observed(Echo);
        for round in 0..100u32 {
            let mut client = TcpStream::connect(addr).unwrap();
            client.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            client.write_all(&[KIND_CLIENT]).unwrap();
            round_trip(&mut client, &round.to_be_bytes());
        }
        wait_until(|| obs.closed[Close::Eof as usize].get() == 100);
        assert_eq!(obs.connections.get(), 0);
        let others: u64 = obs.closed.iter().map(|c| c.get()).sum::<u64>() - 100;
        assert_eq!(others, 0, "every close was a hang-up");
    }

    /// Echoes every envelope but `bad`, which it refuses.
    struct Picky;

    impl RpcService for Picky {
        fn handle_batch(
            &mut self,
            _kind: ConnKind,
            envs: Envelopes<'_>,
            out: &mut Vec<u8>,
            _links: &mut Links,
        ) -> bool {
            envs.iter()
                .all(|env| env.payload != b"bad" && put_frame(out, NO_ENTRY, env.payload).is_ok())
        }
    }

    #[test]
    fn every_close_names_its_cause() {
        let (_reactor, addr, obs) = serve_observed(Picky);
        let closed = |cause: Close| obs.closed[cause as usize].get();
        let open = |first: &[u8]| {
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            s.write_all(first).unwrap();
            s
        };
        // Served, then the client hangs up.
        let mut client = open(&[KIND_CLIENT]);
        round_trip(&mut client, b"ok");
        drop(client);
        wait_until(|| closed(Close::Eof) == 1);
        // A first byte that names no plane.
        let mut stray = open(&[0x77]);
        assert!(read_frame(&mut stray).is_err());
        wait_until(|| closed(Close::UnknownPlane) == 1);
        // A frame announcing more than the limit.
        let mut bloated = open(&[KIND_CLIENT]);
        bloated.write_all(&(MAX_FRAME as u32 + 1).to_be_bytes()).unwrap();
        assert!(read_frame(&mut bloated).is_err());
        wait_until(|| closed(Close::BadFrame) == 1);
        // A request the service refuses: what came before it is answered.
        let mut refused = open(&[KIND_CLIENT]);
        let mut bytes = Vec::new();
        put_frame(&mut bytes, NO_ENTRY, b"first").unwrap();
        put_frame(&mut bytes, NO_ENTRY, b"bad").unwrap();
        refused.write_all(&bytes).unwrap();
        assert_eq!(unseal(&read_frame(&mut refused).unwrap()).unwrap().payload, b"first");
        assert!(read_frame(&mut refused).is_err());
        wait_until(|| closed(Close::Refused) == 1);
        assert_eq!(closed(Close::IoError), 0);
        assert_eq!(obs.connections.get(), 0);
    }
}

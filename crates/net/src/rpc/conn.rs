//! Durable outbound links: the "persistently retry message delivery
//! until successful" half of the paper's stable-queue contract (§2.2),
//! over a real TCP connection.
//!
//! A [`Link`] pairs a [`StableQueue`] with a connection state machine
//! that runs on a poll-driven [`Reactor`] ([`super::reactor`]). `send`
//! durably enqueues *before* returning, so a message survives the
//! sender crashing right after; the reactor then drains the queue over
//! TCP, retransmitting every unacknowledged entry each time the
//! connection is (re)established — at-least-once delivery, with the
//! receiver responsible for idempotency. Acknowledgements (envelopes
//! echoing one or more entry ids, [`super::frame::put_acks`]) retire
//! queue entries.
//!
//! Reconnection uses capped exponential backoff and re-resolves the
//! peer address on every attempt, so a daemon that restarts on a new
//! ephemeral port is picked up as soon as it republishes its address.
//!
//! A daemon runs all of its links *and* its RPC plane on one shared
//! reactor via [`Link::attach`] — one I/O thread total, regardless of
//! cluster size or client fan-in.

use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bytes::Bytes;
use esr_obs::LinkInstruments;
use esr_storage::stable_queue::{EntryId, StableQueue};

use super::reactor::{lock_queue, LinkSpec, Reactor, ReactorHandle, SharedQueue};

/// Reconnect backoff shape.
#[derive(Debug, Clone, Copy)]
pub struct Backoff {
    /// Delay after the first failure.
    pub initial: Duration,
    /// Cap for the doubling delay.
    pub max: Duration,
}

impl Default for Backoff {
    fn default() -> Self {
        Self {
            initial: Duration::from_millis(20),
            max: Duration::from_secs(1),
        }
    }
}

/// Re-resolves the peer's current address (daemons republish their
/// listen address on every boot).
pub type Resolver = Box<dyn Fn() -> Option<SocketAddr> + Send>;

/// A durable at-least-once link to one peer.
pub struct Link {
    queue: SharedQueue,
    reactor: ReactorHandle,
    token: u64,
}

impl Link {
    /// Registers a link on `reactor` — the daemon multiplexes every
    /// link and its whole RPC plane on a single reactor thread. `hello`
    /// is sent (outside the durable contract) every time a connection
    /// is established, so the receiver learns who is dialing before any
    /// queued traffic. The reactor ticks `obs` on dials, sends,
    /// retransmits and acks, and keeps its queue depth/age gauges
    /// current (wall-clock age — the reactor lives in real time).
    pub fn attach(
        reactor: &Reactor,
        queue: Box<dyn StableQueue + Send>,
        resolve: Resolver,
        hello: Bytes,
        backoff: Backoff,
        obs: LinkInstruments,
    ) -> Self {
        let queue: SharedQueue = Arc::new(Mutex::new(queue));
        let handle = reactor.handle();
        let token = handle.add_link(LinkSpec {
            queue: Arc::clone(&queue),
            resolve,
            hello,
            backoff,
            obs,
        });
        Self {
            queue,
            reactor: handle,
            token,
        }
    }

    /// Durably enqueues `payload` and nudges the reactor. Returns once
    /// the bytes are in the stable queue — delivery happens (and keeps
    /// being retried) in the background.
    pub fn send(&self, payload: Bytes) -> EntryId {
        self.send_batch(vec![payload])[0]
    }

    /// [`Link::send`] for several payloads at once: one queue append,
    /// one nudge, delivery in the order given.
    pub fn send_batch(&self, payloads: Vec<Bytes>) -> Vec<EntryId> {
        let ids = lock_queue(&self.queue).enqueue_batch(payloads);
        self.reactor.nudge(self.token);
        ids
    }

    /// Entries enqueued but not yet acknowledged by the peer.
    pub fn pending(&self) -> usize {
        lock_queue(&self.queue).len()
    }

    /// Deregisters the link (queued entries stay durable).
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for Link {
    fn drop(&mut self) {
        self.reactor.remove(self.token);
    }
}

#[cfg(test)]
mod tests {
    use super::super::frame::{put_acks, read_frame, unseal, write_envelope, KIND_PEER, NO_ENTRY};
    use super::*;
    use esr_storage::stable_queue::MemQueue;
    use std::net::{Shutdown, TcpListener, TcpStream};

    /// A link to `addr` on `reactor` with a tight redial backoff.
    fn link_to(reactor: &Reactor, addr: SocketAddr, hello: &'static [u8]) -> Link {
        Link::attach(
            reactor,
            Box::new(MemQueue::new()),
            Box::new(move || Some(addr)),
            Bytes::from_static(hello),
            Backoff {
                initial: Duration::from_millis(5),
                max: Duration::from_millis(40),
            },
            LinkInstruments::default(),
        )
    }

    /// Accepts one connection, checks the handshake, and returns the
    /// stream positioned after the hello frame.
    fn accept_peer(listener: &TcpListener) -> (TcpStream, Vec<u8>) {
        let (mut s, _) = listener.accept().unwrap();
        let mut kind = [0u8; 1];
        std::io::Read::read_exact(&mut s, &mut kind).unwrap();
        assert_eq!(kind[0], KIND_PEER);
        let hello = unseal(read_frame(&mut s).unwrap()).unwrap();
        assert_eq!(hello.entry, NO_ENTRY);
        (s, hello.payload)
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
    fn delivers_and_retires_on_ack() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let reactor = Reactor::new().unwrap();
        let link = link_to(&reactor, addr, b"hi");
        link.send(Bytes::from_static(b"alpha"));
        link.send(Bytes::from_static(b"beta"));

        let (mut s, hello) = accept_peer(&listener);
        assert_eq!(hello, b"hi");
        for expect in [b"alpha".as_slice(), b"beta".as_slice()] {
            let env = unseal(read_frame(&mut s).unwrap()).unwrap();
            assert_eq!(env.payload, expect);
            write_envelope(&mut s, env.entry, &[]).unwrap();
        }
        wait_until(|| link.pending() == 0);
        link.shutdown();
    }

    #[test]
    fn retransmits_unacked_entries_after_reconnect() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let reactor = Reactor::new().unwrap();
        let link = link_to(&reactor, addr, b"h");
        link.send(Bytes::from_static(b"one"));
        link.send(Bytes::from_static(b"two"));

        // First incarnation: read both, ack only the first, then die.
        {
            let (mut s, _) = accept_peer(&listener);
            let first = unseal(read_frame(&mut s).unwrap()).unwrap();
            assert_eq!(first.payload, b"one");
            let _second = read_frame(&mut s).unwrap();
            write_envelope(&mut s, first.entry, &[]).unwrap();
            // Give the ack a moment to land before the drop closes us.
            wait_until(|| link.pending() == 1);
            let _ = s.shutdown(Shutdown::Both);
        }

        // Second incarnation: the unacked entry comes back.
        let (mut s, _) = accept_peer(&listener);
        let env = unseal(read_frame(&mut s).unwrap()).unwrap();
        assert_eq!(env.payload, b"two");
        write_envelope(&mut s, env.entry, &[]).unwrap();
        wait_until(|| link.pending() == 0);
        link.shutdown();
    }

    #[test]
    fn survives_peer_absence_until_it_appears() {
        // Reserve an address, then close the listener so the first
        // dials fail; entries queue durably in the meantime.
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap();
        drop(probe);

        let reactor = Reactor::new().unwrap();
        let link = link_to(&reactor, addr, b"h");
        link.send(Bytes::from_static(b"late"));
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(link.pending(), 1);

        let listener = TcpListener::bind(addr).unwrap();
        let (mut s, _) = accept_peer(&listener);
        let env = unseal(read_frame(&mut s).unwrap()).unwrap();
        assert_eq!(env.payload, b"late");
        write_envelope(&mut s, env.entry, &[]).unwrap();
        wait_until(|| link.pending() == 0);
        link.shutdown();
    }

    #[test]
    fn batched_ack_retires_many_entries_at_once() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let reactor = Reactor::new().unwrap();
        let link = link_to(&reactor, addr, b"hi");
        let ids: Vec<u64> = (0..5)
            .map(|i| link.send(Bytes::from(vec![i])).0)
            .collect();

        let (mut s, _) = accept_peer(&listener);
        for _ in 0..5 {
            read_frame(&mut s).unwrap();
        }
        let mut acks = Vec::new();
        put_acks(&mut acks, &ids).unwrap();
        std::io::Write::write_all(&mut s, &acks).unwrap();
        wait_until(|| link.pending() == 0);
        link.shutdown();
    }
}

//! Outbound links: the "persistently retry message delivery until
//! successful" half of the paper's stable-queue contract (§2.2), over a
//! real TCP connection.
//!
//! [`Links`] holds one connection state machine per peer, each owning
//! the in-memory [`MemQueue`] it drains, and is handed whole to an
//! epoll-driven [`Reactor`](super::reactor::Reactor) at spawn. The reactor lends it
//! to its service on every call: [`Links::send_batch`] enqueues and
//! marks the link to be pumped before the reactor next waits. The
//! reactor drains the queue over TCP, retransmitting every
//! unacknowledged entry each time the connection is (re)established —
//! at-least-once delivery, with the receiver responsible for
//! idempotency. Acknowledgements (envelopes echoing one or more entry
//! ids, [`super::frame::put_acks`]) retire queue entries. A crash of
//! the sender empties its queues: what makes them stable is the
//! sender's journal, which `esrd` re-seeds them from at boot.
//!
//! Reconnection uses capped exponential backoff (the reactor's
//! `REDIAL_INITIAL`, doubling to `REDIAL_MAX`) and re-resolves the
//! peer address on every attempt, so a daemon that restarts on a new
//! ephemeral port is picked up as soon as it republishes its address.
//!
//! A daemon runs all of its links *and* its RPC plane on one reactor —
//! one I/O thread total, regardless of cluster size or client fan-in.

use std::net::SocketAddr;

use bytes::Bytes;
use esr_obs::LinkInstruments;
use esr_storage::stable_queue::{EntryId, MemQueue, StableQueue};

use super::reactor::LinkConn;

/// Re-resolves the peer's current address (daemons republish their
/// listen address on every boot).
pub type Resolver = Box<dyn Fn() -> Option<SocketAddr> + Send>;

/// A reactor's at-least-once links, indexed by peer.
#[derive(Default)]
pub struct Links {
    pub(crate) conns: Vec<Option<LinkConn>>,
}

impl Links {
    /// Adds the link to peer `to`, with an empty queue. `hello` is sent
    /// (outside the queue) every time a connection is
    /// established, so the receiver learns who is dialing before any
    /// queued traffic. The reactor ticks `obs` on dials, sends,
    /// retransmits and acks, and keeps its queue depth/age gauges
    /// current (wall-clock age — the reactor lives in real time).
    pub fn attach(
        &mut self,
        to: usize,
        resolve: Resolver,
        hello: Bytes,
        obs: LinkInstruments,
    ) {
        if self.conns.len() <= to {
            self.conns.resize_with(to + 1, || None);
        }
        self.conns[to] = Some(LinkConn::new(MemQueue::new(), resolve, hello, obs));
    }

    /// Enqueues `payloads` on the link to `to`, in order, and marks the
    /// link to be pumped before the reactor next waits; returns the
    /// entry the last one took. Delivery happens (and keeps being
    /// retried) from the reactor. A peer with no link gets nothing.
    pub fn send_batch(
        &mut self,
        to: usize,
        payloads: impl IntoIterator<Item = Bytes>,
    ) -> Option<EntryId> {
        let link = self.conns.get_mut(to)?.as_mut()?;
        link.dirty = true;
        payloads.into_iter().map(|p| link.queue.enqueue(p)).last()
    }

    /// Entries enqueued on every link and not yet acknowledged.
    pub fn pending(&self) -> usize {
        self.conns.iter().flatten().map(|l| l.queue.len()).sum()
    }

    /// Retires the listed entries of the link to `to`, as its peer's
    /// acknowledgements do; returns how many were pending.
    pub fn ack(&mut self, to: usize, ids: &[EntryId]) -> usize {
        match self.conns.get_mut(to) {
            Some(Some(link)) => link.ack(ids),
            _ => 0,
        }
    }

    /// The oldest entry on the link to `to` not yet acknowledged (`None`
    /// when it holds none, or there is no such link).
    pub fn head(&self, to: usize) -> Option<EntryId> {
        let link = self.conns.get(to)?.as_ref()?;
        link.queue.iter_after(None).next().map(|(id, _)| id)
    }
}

#[cfg(test)]
mod tests {
    use super::super::frame::{
        put_acks, read_frame, unseal, write_envelope, Envelopes, KIND_PEER, NO_ENTRY,
    };
    use super::super::reactor::{ConnKind, Reactor, RpcService, WakePipe};
    use super::*;
    use esr_obs::{Counter, MetricsRegistry, ReactorInstruments};
    use std::net::{Shutdown, TcpListener, TcpStream};
    use std::time::Duration;

    /// Serves nothing: the reactors below only drain their link.
    struct Idle;

    impl RpcService for Idle {
        fn handle_batch(
            &mut self,
            _: ConnKind,
            _: Envelopes<'_>,
            _: &mut Vec<u8>,
            _: &mut Links,
        ) -> bool {
            false
        }
    }

    /// A reactor whose one link drains a queue prefilled with `entries`
    /// to `addr`, and that link's ack counter.
    fn link_to(addr: SocketAddr, hello: &'static [u8], entries: Vec<Bytes>) -> (Reactor, Counter) {
        let (reactor, registry) = link_via(Box::new(move || Some(addr)), hello, entries);
        (reactor, registry.counter("esr_link_acks_total", &[("link", "0->1")]))
    }

    /// [`link_to`] a peer `resolve` finds afresh before every dial; the
    /// link's series are in the returned registry.
    fn link_via(
        resolve: Resolver,
        hello: &'static [u8],
        entries: Vec<Bytes>,
    ) -> (Reactor, MetricsRegistry) {
        let registry = MetricsRegistry::new();
        let obs = LinkInstruments::for_link(&registry, "0->1");
        let mut links = Links::default();
        links.attach(
            1,
            resolve,
            Bytes::from_static(hello),
            obs,
        );
        links.send_batch(1, entries);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let pipe = WakePipe::new().unwrap();
        let obs = ReactorInstruments::for_registry(&registry);
        let reactor = Reactor::spawn(pipe, listener, Idle, links, obs).unwrap();
        (reactor, registry)
    }

    fn payloads(items: &[&'static [u8]]) -> Vec<Bytes> {
        items.iter().map(|p| Bytes::from_static(p)).collect()
    }

    /// Accepts one connection, checks the handshake, and returns the
    /// stream positioned after the hello frame.
    fn accept_peer(listener: &TcpListener) -> (TcpStream, Vec<u8>) {
        let (mut s, _) = listener.accept().unwrap();
        let mut kind = [0u8; 1];
        std::io::Read::read_exact(&mut s, &mut kind).unwrap();
        assert_eq!(kind[0], KIND_PEER);
        let frame = read_frame(&mut s).unwrap();
        let hello = unseal(&frame).unwrap();
        assert_eq!(hello.entry, NO_ENTRY);
        (s, hello.payload.to_vec())
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
        let (_reactor, acks) = link_to(addr, b"hi", payloads(&[b"alpha", b"beta"]));

        let (mut s, hello) = accept_peer(&listener);
        assert_eq!(hello, b"hi");
        for expect in [b"alpha".as_slice(), b"beta".as_slice()] {
            let frame = read_frame(&mut s).unwrap();
            let env = unseal(&frame).unwrap();
            assert_eq!(env.payload, expect);
            write_envelope(&mut s, env.entry, &[]).unwrap();
        }
        wait_until(|| acks.get() == 2);
    }

    #[test]
    fn retransmits_unacked_entries_after_reconnect() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (_reactor, acks) = link_to(addr, b"h", payloads(&[b"one", b"two"]));

        // First incarnation: read both, ack only the first, then die.
        {
            let (mut s, _) = accept_peer(&listener);
            let frame = read_frame(&mut s).unwrap();
            let first = unseal(&frame).unwrap();
            assert_eq!(first.payload, b"one");
            let _second = read_frame(&mut s).unwrap();
            write_envelope(&mut s, first.entry, &[]).unwrap();
            // Give the ack a moment to land before the drop closes us.
            wait_until(|| acks.get() == 1);
            let _ = s.shutdown(Shutdown::Both);
        }

        // Second incarnation: the unacked entry comes back.
        let (mut s, _) = accept_peer(&listener);
        let frame = read_frame(&mut s).unwrap();
        let env = unseal(&frame).unwrap();
        assert_eq!(env.payload, b"two");
        write_envelope(&mut s, env.entry, &[]).unwrap();
        wait_until(|| acks.get() == 2);
    }

    #[test]
    fn survives_peer_absence_until_it_appears() {
        // Reserve an address, then close the listener so the first
        // dials fail; the entry stays queued in the meantime.
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap();
        drop(probe);

        let (_reactor, acks) = link_to(addr, b"h", payloads(&[b"late"]));
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(acks.get(), 0);

        let listener = TcpListener::bind(addr).unwrap();
        let (mut s, _) = accept_peer(&listener);
        let frame = read_frame(&mut s).unwrap();
        let env = unseal(&frame).unwrap();
        assert_eq!(env.payload, b"late");
        write_envelope(&mut s, env.entry, &[]).unwrap();
        wait_until(|| acks.get() == 1);
    }

    #[test]
    fn batched_ack_retires_many_entries_at_once() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let entries = (0..5u8).map(|i| Bytes::from(vec![i])).collect();
        let (_reactor, acks) = link_to(addr, b"hi", entries);

        let (mut s, _) = accept_peer(&listener);
        let ids: Vec<u64> = (0..5)
            .map(|_| unseal(&read_frame(&mut s).unwrap()).unwrap().entry)
            .collect();
        let mut frame = Vec::new();
        put_acks(&mut frame, &ids).unwrap();
        std::io::Write::write_all(&mut s, &frame).unwrap();
        wait_until(|| acks.get() == 5);
    }

    #[test]
    fn a_restarted_peer_is_redialed_on_a_fresh_socket_and_acks_the_retransmits() {
        let first = TcpListener::bind("127.0.0.1:0").unwrap();
        let published = std::sync::Arc::new(std::sync::Mutex::new(first.local_addr().unwrap()));
        let resolve = {
            let published = std::sync::Arc::clone(&published);
            Box::new(move || Some(*published.lock().unwrap()))
        };
        let (_reactor, registry) = link_via(resolve, b"h", payloads(&[b"one", b"two"]));
        let metric = |name: &str| registry.counter(name, &[("link", "0->1")]).get();

        // First incarnation: take both entries, ack neither, and die —
        // listener and connection both, as a killed daemon would.
        {
            let (mut s, _) = accept_peer(&first);
            for _ in 0..2 {
                read_frame(&mut s).unwrap();
            }
            drop(first);
        }

        // The peer boots on a new port and publishes it: the link dials a
        // fresh socket (most likely on the old one's descriptor number),
        // retransmits both entries, and their acks retire them.
        let second = TcpListener::bind("127.0.0.1:0").unwrap();
        *published.lock().unwrap() = second.local_addr().unwrap();
        let (mut s, _) = accept_peer(&second);
        for expect in [b"one".as_slice(), b"two".as_slice()] {
            let frame = read_frame(&mut s).unwrap();
            let env = unseal(&frame).unwrap();
            assert_eq!(env.payload, expect);
            write_envelope(&mut s, env.entry, &[]).unwrap();
        }
        wait_until(|| metric("esr_link_acks_total") == 2);
        assert_eq!(metric("esr_link_retransmits_total"), 2);
        assert_eq!(metric("esr_link_dials_total"), 2);
    }
}

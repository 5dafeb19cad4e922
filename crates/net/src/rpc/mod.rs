//! esr-rpc: the real-network transport under the replicated system.
//!
//! Where the rest of this crate *plans* deliveries in virtual time for
//! the simulator, this module moves actual bytes: length-prefixed
//! frames over `std::net::TcpStream` ([`frame`]), an epoll-driven
//! readiness loop multiplexing every socket on one thread ([`reactor`]
//! over the thin [`sys`] FFI), and at-least-once outbound links
//! that drain a stable queue with reconnect + exponential backoff
//! ([`conn`]). Payloads stay opaque here — `esr-replica`'s wire codec
//! defines their contents, and the `esrd` daemon in `esr-runtime` wires
//! both into a running site.

pub mod conn;
pub mod frame;
pub mod reactor;
pub mod sys;

pub use conn::{Links, Resolver};
pub use frame::{
    put_acks, put_frame, read_frame, read_frame_into, scan, unseal, write_envelope, write_frame, Envelope,
    EnvelopeIter, Envelopes, KIND_CLIENT, KIND_PEER, MAX_FRAME, NO_ENTRY,
};
pub use reactor::{ConnKind, Reactor, RpcService, WakePipe, Waker, WRITE_BUF_CAP};

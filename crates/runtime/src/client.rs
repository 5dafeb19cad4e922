//! Client library for talking to a running `esrd` site daemon.
//!
//! [`RpcClient`] speaks the client plane of the wire protocol: one
//! request frame per round trip, carried in [`NO_ENTRY`] envelopes (the
//! client plane is not durable — durability starts once the daemon has
//! journalled a submitted update and answered `SubmitOk`). Both
//! `esrctl` and the multi-process harness ([`crate::proc_cluster`]) are
//! built on it.
//!
//! Connections are cheap loopback sockets; harness code opens a fresh
//! client per request so a daemon restart (new port, republished
//! address file) never wedges a cached connection.
//!
//! A round trip costs one `write` and, typically, one `read`: the
//! request leaves as one contiguous frame
//! ([`esr_net::rpc::write_envelope`]), and replies are read through a
//! [`RECV_BUF`]-byte buffer, so the length prefix and body of a small
//! reply come off the socket together. A reply larger than the buffer
//! is read straight into its payload. The buffer is small because a
//! client is one of thousands a daemon may hold open (`reactor_fanin`
//! keeps 10k), and bytes past one reply stay buffered for the next —
//! the daemon answers in order, one reply per request.

use std::collections::BTreeMap;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

use bytes::Bytes;

use esr_core::ids::{EtId, ObjectId, SiteId};
use esr_core::value::Value;
use esr_net::rpc::{read_frame, unseal, write_envelope, KIND_CLIENT, NO_ENTRY};
use esr_replica::mset::MSet;
use esr_replica::site::QueryOutcome;
use esr_replica::wire::{decode_frame, encode_frame, Frame};

use crate::daemon::resolve_addr;
use crate::spans::{span_records, RawEvent, RawSpan, SPAN_QUERY_ALL};

/// A daemon's health summary, as reported by a `Status` round trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DaemonStatus {
    /// Is the site's protocol state settled (no backlog, nothing at
    /// risk)?
    pub settled: bool,
    /// Entries still pending in the daemon's outbound durable queues.
    pub outbound_pending: u64,
    /// The daemon's boot epoch (increments across restarts).
    pub epoch: u64,
    /// The currently installed view (0 until the first failover).
    pub view: u64,
    /// Does this site hold the coordinator role in its view?
    pub coordinator: bool,
    /// Sequence number of the newest installed checkpoint (0 = none).
    pub ckpt_seq: u64,
    /// Journalled MSets that checkpoint covers.
    pub ckpt_covered: u64,
}

/// Receive-buffer bytes per client: room for any `SubmitOk`, `QueryOk`
/// or `StatusOk` in one `read`.
const RECV_BUF: usize = 4 * 1024;

/// A connected client-plane session with one daemon.
pub struct RpcClient {
    /// The connection, read through the reply buffer; requests are
    /// written to the socket underneath it.
    stream: BufReader<TcpStream>,
}

fn bad_reply(got: &Frame) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("unexpected reply frame: {got:?}"),
    )
}

impl RpcClient {
    /// Connects to a daemon at `addr` and identifies as a client.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let mut stream = TcpStream::connect_timeout(&addr, Duration::from_millis(500))?;
        stream.set_nodelay(true)?;
        stream.write_all(&[KIND_CLIENT])?;
        Ok(Self {
            stream: BufReader::with_capacity(RECV_BUF, stream),
        })
    }

    /// Bounds every later read and write on this connection by
    /// `timeout`: a call that would block past it fails with
    /// `WouldBlock` / `TimedOut` instead of waiting forever on a peer
    /// that accepted but never answers.
    pub(crate) fn set_timeout(&self, timeout: Duration) -> io::Result<()> {
        let stream = self.stream.get_ref();
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))
    }

    /// Resolves site `site`'s published address under `dir` — waiting
    /// up to `timeout` for the daemon to come up — and connects.
    pub fn connect_dir(dir: &Path, site: SiteId, timeout: Duration) -> io::Result<Self> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(addr) = resolve_addr(dir, site) {
                // The address file may be stale (a freshly killed
                // daemon); treat connect failure as "not up yet".
                if let Ok(c) = Self::connect(addr) {
                    return Ok(c);
                }
            }
            if Instant::now() >= deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("site {} not reachable within {timeout:?}", site.raw()),
                ));
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    fn call(&mut self, request: &Frame) -> io::Result<Frame> {
        write_envelope(self.stream.get_mut(), NO_ENTRY, &encode_frame(request))?;
        let env = unseal(read_frame(&mut self.stream)?)?;
        decode_frame(&Bytes::from(env.payload))
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}")))
    }

    /// Submits an update ET. Returns once the daemon has journalled it
    /// and enqueued it to every peer.
    pub fn submit(&mut self, mset: MSet) -> io::Result<EtId> {
        match self.call(&Frame::Submit(mset))? {
            Frame::SubmitOk { et } => Ok(et),
            other => Err(bad_reply(&other)),
        }
    }

    /// Runs a query ET with an epsilon budget of `epsilon_limit`.
    pub fn query(&mut self, read_set: &[ObjectId], epsilon_limit: u64) -> io::Result<QueryOutcome> {
        let request = Frame::Query {
            read_set: read_set.to_vec(),
            epsilon_limit,
        };
        match self.call(&request)? {
            Frame::QueryOk(outcome) => Ok(outcome),
            other => Err(bad_reply(&other)),
        }
    }

    /// The site's full replica snapshot (convergence oracle input).
    pub fn snapshot(&mut self) -> io::Result<BTreeMap<ObjectId, Value>> {
        match self.call(&Frame::Snapshot)? {
            Frame::SnapshotOk { entries } => Ok(entries.into_iter().collect()),
            other => Err(bad_reply(&other)),
        }
    }

    /// The daemon's settledness/queue-depth/epoch summary.
    pub fn status(&mut self) -> io::Result<DaemonStatus> {
        match self.call(&Frame::Status)? {
            Frame::StatusOk {
                settled,
                outbound_pending,
                epoch,
                view,
                coordinator,
                ckpt_seq,
                ckpt_covered,
            } => Ok(DaemonStatus {
                settled,
                outbound_pending,
                epoch,
                view,
                coordinator,
                ckpt_seq,
                ckpt_covered,
            }),
            other => Err(bad_reply(&other)),
        }
    }

    /// Issues a COMPE commit/abort decision for `et` (routed to the
    /// coordinator and broadcast from there).
    pub fn decide(&mut self, et: EtId, commit: bool) -> io::Result<()> {
        match self.call(&Frame::Decision { et, commit })? {
            Frame::DecisionOk { .. } => Ok(()),
            other => Err(bad_reply(&other)),
        }
    }

    /// Scrapes the daemon's metrics registry in Prometheus text format.
    pub fn metrics(&mut self) -> io::Result<String> {
        match self.call(&Frame::Metrics)? {
            Frame::MetricsOk { text } => Ok(text),
            other => Err(bad_reply(&other)),
        }
    }

    /// Dumps the daemon's event log as `et` selects it (see
    /// [`crate::spans::EventLog::query`]): the number of events the
    /// bounded log evicted, plus the retained matching events in order.
    fn events(&mut self, et: u64) -> io::Result<(u64, Vec<RawEvent>)> {
        match self.call(&Frame::EventQuery { et })? {
            Frame::EventOk { dropped, events } => Ok((dropped, events)),
            other => Err(bad_reply(&other)),
        }
    }

    /// Dumps the daemon's whole event log: the number of events the
    /// bounded log evicted, and the retained events in order.
    pub fn trace(&mut self) -> io::Result<(u64, Vec<RawEvent>)> {
        self.events(SPAN_QUERY_ALL)
    }

    /// Dumps the daemon's lifecycle records for one ET (or all of them,
    /// with [`SPAN_QUERY_ALL`]): the number of events the bounded log
    /// evicted, plus the retained matching `(ring_seq, micros, span)`
    /// records in order.
    pub fn spans(&mut self, et: u64) -> io::Result<(u64, Vec<RawSpan>)> {
        let (dropped, events) = self.events(et)?;
        Ok((dropped, span_records(events)))
    }

    /// Asks the daemon to take a checkpoint right now, regardless of its
    /// byte-interval policy. Returns the installed `(seq, covered)`.
    pub fn checkpoint(&mut self) -> io::Result<(u64, u64)> {
        match self.call(&Frame::Checkpoint)? {
            Frame::CheckpointOk { seq, covered } => Ok((seq, covered)),
            other => Err(bad_reply(&other)),
        }
    }

    /// Downloads the daemon's newest installed checkpoint container in
    /// chunks. `Ok(None)` when the daemon has no checkpoint to offer.
    ///
    /// The serving daemon may install a newer checkpoint mid-download;
    /// the container CRC catches the resulting splice, so callers must
    /// validate with `esr_storage::snapshot::decode_container` before
    /// trusting the bytes.
    pub fn fetch_snapshot(&mut self) -> io::Result<Option<Vec<u8>>> {
        let mut out: Vec<u8> = Vec::new();
        loop {
            let want = out.len() as u64;
            match self.call(&Frame::SnapshotRequest { offset: want })? {
                Frame::SnapshotChunk {
                    total_len,
                    offset,
                    bytes,
                } => {
                    if total_len == 0 {
                        return Ok(None);
                    }
                    if offset != want || bytes.is_empty() {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            "bad snapshot chunk (offset mismatch or empty)",
                        ));
                    }
                    out.extend_from_slice(&bytes);
                    if out.len() as u64 >= total_len {
                        return Ok(Some(out));
                    }
                }
                other => return Err(bad_reply(&other)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esr_net::rpc::put_frame;
    use std::io::Read;
    use std::net::TcpListener;
    use std::thread::JoinHandle;

    /// The bytes a daemon sends to answer with `reply`.
    fn framed(reply: &Frame) -> Vec<u8> {
        let mut out = Vec::new();
        put_frame(&mut out, NO_ENTRY, &encode_frame(reply)).unwrap();
        out
    }

    /// A one-connection stand-in for a daemon. For each step of `script`
    /// it reads one request, then writes the step's segments — one
    /// `write_all` each, 20 ms apart. Returns the requests it read.
    fn fake_daemon(script: Vec<Vec<Vec<u8>>>) -> (SocketAddr, JoinHandle<Vec<Frame>>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let daemon = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            s.set_nodelay(true).unwrap();
            let mut kind = [0u8; 1];
            s.read_exact(&mut kind).unwrap();
            assert_eq!(kind[0], KIND_CLIENT);
            let mut requests = Vec::new();
            for segments in script {
                let env = unseal(read_frame(&mut s).unwrap()).unwrap();
                requests.push(decode_frame(&Bytes::from(env.payload)).unwrap());
                for (i, segment) in segments.iter().enumerate() {
                    if i > 0 {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    s.write_all(segment).unwrap();
                }
            }
            requests
        });
        (addr, daemon)
    }

    fn status_ok(epoch: u64) -> Frame {
        Frame::StatusOk {
            settled: true,
            outbound_pending: 3,
            epoch,
            view: 1,
            coordinator: false,
            ckpt_seq: 2,
            ckpt_covered: 5,
        }
    }

    /// A replica image whose `SnapshotOk` is many times [`RECV_BUF`].
    fn big_image() -> Vec<(ObjectId, Value)> {
        (0..200)
            .map(|i| (ObjectId(i), Value::Text(format!("{i:0>200}"))))
            .collect()
    }

    #[test]
    fn a_reply_arriving_in_three_segments_decodes() {
        let reply = framed(&status_ok(7));
        // Half a length prefix, the rest of it plus a little body, the
        // remainder.
        let segments = vec![reply[..2].to_vec(), reply[2..9].to_vec(), reply[9..].to_vec()];
        let (addr, daemon) = fake_daemon(vec![segments]);
        let mut client = RpcClient::connect(addr).unwrap();
        let status = client.status().unwrap();
        assert_eq!((status.epoch, status.outbound_pending, status.ckpt_covered), (7, 3, 5));
        assert_eq!(daemon.join().unwrap(), vec![Frame::Status]);
    }

    #[test]
    fn a_reply_larger_than_the_receive_buffer_decodes() {
        let image = big_image();
        let reply = framed(&Frame::SnapshotOk {
            entries: image.clone(),
        });
        assert!(reply.len() > 8 * RECV_BUF);
        let (addr, daemon) = fake_daemon(vec![vec![reply]]);
        let mut client = RpcClient::connect(addr).unwrap();
        assert_eq!(client.snapshot().unwrap(), image.into_iter().collect());
        daemon.join().unwrap();
    }

    #[test]
    fn back_to_back_calls_read_exactly_their_own_reply() {
        // The daemon answers the first request with its reply *and* the
        // next one in a single write, so the first call's reads pull in
        // bytes that belong to the second: they must wait in the buffer,
        // not leak into (or be lost from) either reply.
        let image = big_image();
        let first = framed(&Frame::SnapshotOk {
            entries: image.clone(),
        });
        let both = [first, framed(&status_ok(9))].concat();
        let (addr, daemon) = fake_daemon(vec![vec![both], vec![], vec![framed(&status_ok(10))]]);
        let mut client = RpcClient::connect(addr).unwrap();
        assert_eq!(client.snapshot().unwrap(), image.into_iter().collect());
        assert_eq!(client.status().unwrap().epoch, 9);
        assert_eq!(client.status().unwrap().epoch, 10);
        assert_eq!(
            daemon.join().unwrap(),
            vec![Frame::Snapshot, Frame::Status, Frame::Status]
        );
    }
}

//! The `esrd` site daemon: one replica-control site behind real
//! sockets.
//!
//! A daemon hosts one [`SiteState`] (any of the five methods), accepts
//! peer and client connections on a loopback TCP listener, and drives
//! outbound [`Links`] — one per peer site — that persistently retry
//! delivery until acknowledged (the paper's §2.2 stable-queue contract,
//! over a real network). A link's queue is in memory; what makes it
//! stable is the journal, the site's one durable file: every MSet the
//! site originates is journalled before it is sent, and a boot re-seeds
//! each link with the originated records its peer had not acknowledged.
//! All of the daemon's I/O — the listener, every accepted connection,
//! and every outbound link — multiplexes onto one poll-driven
//! [`Reactor`] thread; an accepted connection costs a buffer pair, not
//! an OS thread, so client fan-in scales to thousands of concurrent
//! sockets. A peer connection's
//! envelopes are dispatched in readiness-cycle batches and answered
//! with a single batched ack frame. Every accepted update MSet is
//! journalled *before* it is acknowledged, so a `kill -9` never loses
//! an acked update: the next incarnation replays the journal,
//! re-announces its applies, and catches up on everything it missed
//! through the peers' at-least-once queues.
//!
//! ## One owner, one executor
//!
//! The effects are executed by a [`Node`] — the executor the simulator
//! runs too: the commit plan, the links' cursors, the checkpoint chain
//! and restore-or-replay are its, over a [`Host`]. This file is that
//! host, files and the reactor, plus what only a daemon has: the
//! client plane, catch-up from peers, the epoch and address files, and
//! the checkpoint writer thread. A site's durable state is
//! `<dir>/site-<i>.journal` and its snapshot containers; the epoch and
//! address files are discovery.
//!
//! [`Daemon::start`] boots a [`Daemon`] on the calling thread — epoch,
//! catch-up, links, the node's boot, listener — and moves it into
//! the reactor thread, which owns it from then on. The node, the
//! journal and the links are plain values reached through `&mut`: one
//! thread steps and commits, so there is nothing to lock. The one other
//! thread is the checkpoint writer, which takes owned cut payloads over
//! a channel and reports each install back over another, with a wake
//! byte for the reactor.
//!
//! ## Tick commit
//!
//! A reactor cycle is the unit of durability. Stepping the core writes
//! nothing: the journal records and link sends of every step of a
//! cycle are staged ([`crate::commit::Staged`]), and the reactor calls
//! [`RpcService::commit`] once, after the last step and before any
//! reply or ack of the cycle reaches a socket. The commit is one
//! journal append — one write to one file — then the sends, handed to
//! the in-memory links — the order `crate::commit` argues; a send costs
//! no syscall. Boot recovery, which runs before the reactor exists,
//! commits once at the end of boot.
//!
//! ## What a restart re-sends
//!
//! The node keeps a cursor per link: the journal id through which its
//! peer has acknowledged everything it was sent. When one moved, the
//! next commit that appends anything appends a cursor record too, so an
//! idle or query-only cycle still writes nothing. A boot re-sends the
//! originated MSets above each peer's cursor in the newest cursor
//! record — all live ones when truncation retired it — so a stale
//! record costs only redundant sends, which the peers' replicas report
//! as duplicates and journal nothing for. The cursors also bound journal truncation: a checkpoint
//! never retires a record some peer has not acknowledged.
//!
//! ## Topology and the coordinator
//!
//! The coordinator of view `v` is site `v % sites` (view 0 → site 0).
//! Peers send it [`Frame::Applied`] evidence; once every site has
//! applied an ET it broadcasts [`Frame::Complete`] (COMMU/RITU
//! lock-counter release) or advances the VTNC horizon
//! ([`Frame::Vtnc`], RITU-MV) over the links. COMPE decisions are
//! routed toward it the same way. A link retries until its peer
//! acknowledges, so a site that was dead during a broadcast still
//! receives it after restarting — unless the sender crashed first. On
//! every peer (re)handshake the coordinator re-sends a
//! [`Frame::StartView`] snapshot, which carries what its lost
//! broadcasts carried.
//!
//! The coordinator role is **movable** (DESIGN.md §15): the reactor's
//! heartbeat timer ([`RpcService::tick`], every `TICK_INTERVAL`)
//! feeds [`NodeEvent::Tick`]s to the core, the acting coordinator
//! heartbeats with [`Frame::Ping`], and a follower that misses enough
//! pings elects view `v+1` via the StartViewChange / DoViewChange /
//! StartView exchange — all of it pure `NodeCore` logic. An installed
//! view is a journal record, appended before any frame of the new view
//! is sent, so a rebooted site rejoins its last view rather than view
//! 0 — from the newest snapshot when truncation retired the record.
//! `kill -9` of the acting coordinator is therefore survivable: the
//! survivors elect the next site, re-announce their applied ETs, and
//! the merged DoViewChange evidence carries completions/decisions/VTNC
//! across the handoff.
//!
//! ## Discovery
//!
//! Daemons bind an ephemeral loopback port and publish it at
//! `<dir>/site-<i>.addr` (tmp+rename write). Links re-resolve the
//! address file on every dial, so a restarted peer on a new port is
//! found as soon as it republishes. `<dir>/site-<i>.epoch` counts boots
//! and is echoed in the handshake.

use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};

use esr_core::divergence::{EpsilonSpec, InconsistencyCounter};
use esr_core::ids::SiteId;
use esr_net::rpc::{
    put_acks, put_frame, Backoff, ConnKind, Envelopes, Links, Reactor, RpcService, WakePipe, Waker,
    NO_ENTRY,
};
use esr_obs::{
    Counter, Histogram, LinkInstruments, MetricsRegistry, NodeInstruments, ReactorInstruments,
};
use esr_replica::node::{Host, Install, Node, NodeConfig};
use esr_replica::span::{count_query, Event};
use esr_replica::wire::{decode_frame, encode_frame, encode_frame_into, Frame};
use esr_storage::snapshot;

use crate::ckpt::{decode_payload, encode_payload, CkptPayload};
use crate::client::RpcClient;
use crate::ctrl::{NodeEvent, Record};
use crate::recovery::ApplyJournal;
use crate::spans::EventLog;
use crate::state::{RtMethod, SiteState};

/// Everything a daemon needs to come up.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// This site's id (site 0 coordinates view 0).
    pub site: SiteId,
    /// Total number of sites in the cluster.
    pub sites: usize,
    /// The replica control method to run.
    pub method: RtMethod,
    /// The cluster directory: address and epoch files, journals and
    /// snapshots all live here (shared by every site of one cluster).
    pub dir: PathBuf,
    /// Checkpoint policy: cut a snapshot after roughly this many bytes
    /// of journal appends. `None` disables the policy (on-demand
    /// [`Frame::Checkpoint`] still works) *and* the boot-time snapshot
    /// catch-up pull, preserving the pre-checkpoint layout exactly.
    pub ckpt_bytes: Option<u64>,
}

/// A cut on its way to the writer: its sequence number and payload.
type Cut = (u64, Box<CkptPayload>);

/// A running daemon: what [`Daemon::start`] returns. Dropping it shuts
/// the reactor down, which drops the [`Daemon`] it owns — closing the
/// listener, every connection and link, and the checkpoint writer's
/// channel.
pub struct DaemonHandle {
    addr: SocketAddr,
    epoch: u64,
    _reactor: Reactor,
}

impl DaemonHandle {
    /// The loopback address this daemon accepts on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// This incarnation's boot epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

/// One site daemon, booted. [`Daemon::start`] hands it to a reactor
/// thread, which owns it and is the only caller of its methods.
///
/// All protocol logic lives in the pure `NodeCore`, and all of its
/// effects are executed by the [`Node`]: the daemon feeds the node
/// events, hands it its [`Host`] — the files below and the reactor's
/// links — and answers the client plane.
pub struct Daemon {
    cfg: DaemonConfig,
    epoch: u64,
    /// The executor: the core, its staged writes, the checkpoint chain
    /// and the per-site executor series.
    node: Node,
    /// The node's host, but for the links the reactor lends each call.
    files: Files,
    /// Reactor metrics bundle (kept here to tick ack-batch sizes from
    /// the service dispatch).
    robs: ReactorInstruments,
    /// This incarnation's metrics; scraped via [`Frame::Metrics`].
    metrics: MetricsRegistry,
    /// This site's series: the node counts its events into them and
    /// publishes its gauges when a scrape is answered; the query series
    /// tick in the client plane.
    obs: Arc<NodeInstruments>,
    /// Wall-clock latency of the core step that accepts an MSet
    /// (apply and staging; its journal write is the cycle's commit).
    apply_latency: Histogram,
    /// Wall-clock client-plane request handling latency.
    rpc_latency: Histogram,
    /// Peer frames that failed to decode — acked so a poisoned entry is
    /// not retransmitted forever, and dropped
    /// (`esr_peer_frames_rejected_total`).
    peer_frames_rejected: Counter,
    /// The raw container a snapshot download is served from: the newest
    /// valid one when its first chunk was asked for, held until its last
    /// chunk is served.
    serving: Option<Vec<u8>>,
    /// The entry ids a peer batch acknowledges, reused batch to batch.
    acks: Vec<u64>,
}

/// `esrd`'s storage: the journal and snapshot files under the cluster
/// directory, the checkpoint writer's channels, and the event log.
struct Files {
    dir: PathBuf,
    site: SiteId,
    /// The on-disk journal a commit appends the core's journal records
    /// to.
    journal: ApplyJournal,
    /// This incarnation's bounded event log, scraped via
    /// [`Frame::EventQuery`]; its clock is the node's.
    events: EventLog,
    /// Hands numbered cut payloads to the writer thread, so snapshot
    /// encoding + fsync never blocks the apply path.
    cuts: Sender<Cut>,
    /// The writer's reports, one per cut, in cut order.
    installs: Receiver<Install>,
    /// The one buffer every outbound frame — link entry or reply — is
    /// encoded into before it is copied to where it leaves from.
    enc: BytesMut,
}

impl Files {
    /// The node's host for one call: these files and the reactor's
    /// links.
    fn with<'a>(&'a mut self, links: &'a mut Links) -> FileHost<'a> {
        FileHost { files: self, links }
    }
}

/// `esrd`'s [`Host`].
struct FileHost<'a> {
    files: &'a mut Files,
    links: &'a mut Links,
}

impl Host for FileHost<'_> {
    fn append_from(&mut self, records: &mut Vec<Record>) -> u64 {
        let bytes = self.files.journal.append(records);
        records.clear();
        bytes
    }

    fn journal(&self) -> std::io::Result<Vec<(u64, Record)>> {
        self.files.journal.records()
    }

    fn last_id(&self) -> Option<u64> {
        self.files.journal.last_id()
    }

    fn retire_through(&mut self, through: u64) -> u64 {
        self.files.journal.retire_through(through)
    }

    fn journal_size(&self) -> (u64, u64) {
        let journal = &self.files.journal;
        (journal.file_bytes(), journal.live_entries())
    }

    fn snapshots(&self) -> Vec<u64> {
        let listed = snapshot::list(&self.files.dir, &snap_prefix(self.files.site));
        listed.map_or_else(
            |_| Vec::new(),
            |l| l.into_iter().rev().map(|(seq, _)| seq).collect(),
        )
    }

    fn load_snapshot(&self, seq: u64) -> Option<Vec<u8>> {
        snapshot::load(&self.files.dir, &snap_prefix(self.files.site), seq)
    }

    fn cut(&mut self, seq: u64, payload: Box<CkptPayload>) {
        let _ = self.files.cuts.send((seq, payload));
    }

    fn installed(&mut self, wait: bool) -> Option<Install> {
        if wait {
            self.files.installs.recv().ok()
        } else {
            self.files.installs.try_recv().ok()
        }
    }

    /// Encodes each frame once, into the reused buffer, and queues it
    /// as one `Bytes`: a link entry costs one allocation.
    fn send_from(&mut self, runs: &mut [(SiteId, Vec<Frame>)], sent: &mut dyn FnMut(SiteId, u64)) {
        let enc = &mut self.files.enc;
        for (to, frames) in runs {
            let payloads = frames.drain(..).map(|frame| {
                enc.clear();
                encode_frame_into(&frame, enc);
                Bytes::copy_from_slice(enc)
            });
            if let Some(entry) = self.links.send_batch(to.raw() as usize, payloads) {
                sent(*to, entry.0);
            }
        }
    }

    fn head(&self, peer: SiteId) -> Option<u64> {
        self.links.head(peer.raw() as usize).map(|entry| entry.0)
    }

    fn record(&mut self, event: Event) {
        self.files.events.record(event);
    }

    fn now(&self) -> u64 {
        self.files.events.now()
    }
}

/// Heartbeat period: coordinators ping every tick, followers suspect
/// after [`crate::ctrl::SUSPECT_AFTER`] silent ticks (~3s).
const TICK_INTERVAL: Duration = Duration::from_millis(250);

/// Snapshot chunk size served per [`Frame::SnapshotRequest`].
const SNAP_CHUNK: usize = 256 * 1024;

/// How long a wiped site's boot waits on a peer — to come up, and then
/// for each read or write of the snapshot download — before trying the
/// next one.
const CATCH_UP_BUDGET: Duration = Duration::from_millis(300);

/// The snapshot filename prefix for site `site` (containers land at
/// `<dir>/site-<i>.ckpt-<seq>.snap`).
fn snap_prefix(site: SiteId) -> String {
    format!("site-{}", site.raw())
}

/// Pulls the newest snapshot from any reachable peer and installs it
/// locally (wiped-site catch-up). The fetched payload's journal cut
/// refers to the *peer's* journal ids, so it is rebased to `None`
/// before the local install; our own journal is empty, so restore
/// replays nothing on top. Best-effort: an unreachable cluster just
/// means a cold boot — and so does a peer that accepts but never
/// answers (a frozen process whose kernel still completes handshakes
/// into its listen backlog), which every call gives [`CATCH_UP_BUDGET`].
fn catch_up_from_peers(cfg: &DaemonConfig, prefix: &str, events: &mut EventLog) {
    for j in 0..cfg.sites {
        let peer = SiteId(j as u64);
        if peer == cfg.site {
            continue;
        }
        let Ok(mut client) = RpcClient::connect_dir(&cfg.dir, peer, CATCH_UP_BUDGET) else {
            continue;
        };
        if client.set_timeout(CATCH_UP_BUDGET).is_err() {
            continue;
        }
        let Ok(Some(raw)) = client.fetch_snapshot() else {
            continue;
        };
        let Some((peer_seq, payload_bytes)) = snapshot::decode_container(&raw) else {
            continue;
        };
        let Some(mut payload) = decode_payload(payload_bytes) else {
            continue;
        };
        payload.covered_through = None;
        if snapshot::install(&cfg.dir, prefix, peer_seq, &encode_payload(&payload)).is_ok() {
            events.record(Event::CkptCatchUp {
                seq: peer_seq,
                covered: payload.covered(),
                from: peer,
            });
            return;
        }
    }
}

/// The address file published by site `site` under `dir`.
pub fn addr_path(dir: &Path, site: SiteId) -> PathBuf {
    dir.join(format!("site-{}.addr", site.raw()))
}

fn epoch_path(dir: &Path, site: SiteId) -> PathBuf {
    dir.join(format!("site-{}.epoch", site.raw()))
}

fn journal_path(dir: &Path, site: SiteId) -> PathBuf {
    dir.join(format!("site-{}.journal", site.raw()))
}

/// Publishes all at once: write to a tmp file, then rename into place,
/// so a concurrent reader never observes a torn address.
fn publish(path: &Path, contents: &str) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

/// Reads the address a peer most recently published (`None` while the
/// peer is down or not yet up — the link keeps retrying).
pub fn resolve_addr(dir: &Path, site: SiteId) -> Option<SocketAddr> {
    std::fs::read_to_string(addr_path(dir, site))
        .ok()?
        .trim()
        .parse()
        .ok()
}

/// Starts the checkpoint writer, the daemon's one thread besides the
/// reactor: it encodes, installs and retains every numbered cut it is
/// handed, off the apply path, and reports each back in cut order —
/// then wakes the reactor, which applies the report in its next cycle.
/// It exits when the daemon, and with it the sending half, is dropped.
fn spawn_writer(
    dir: PathBuf,
    site: SiteId,
    waker: Waker,
) -> std::io::Result<(Sender<Cut>, Receiver<Install>)> {
    let (cut_tx, cuts) = mpsc::channel::<Cut>();
    let (done_tx, done) = mpsc::channel();
    std::thread::Builder::new()
        .name(format!("esrd-ckpt-{}", site.raw()))
        .spawn(move || {
            let prefix = snap_prefix(site);
            for (seq, payload) in cuts {
                let started = Instant::now();
                let bytes = encode_payload(&payload);
                let report = match snapshot::install(&dir, &prefix, seq, &bytes) {
                    Ok(_) => {
                        // Keep the two newest containers: a corrupt
                        // newest falls back to the one before it.
                        let _ = snapshot::retain(&dir, &prefix, 2);
                        let size = (bytes.len() + snapshot::SNAP_OVERHEAD) as u64;
                        Ok((size, started.elapsed().as_micros() as u64))
                    }
                    Err(e) => Err(format!("install: {e}")),
                };
                if done_tx.send(report).is_err() {
                    break;
                }
                waker.wake();
            }
        })?;
    Ok((cut_tx, done))
}

impl Daemon {
    /// Boots the daemon and starts its reactor: the daemon is booted on
    /// this thread (`Daemon::boot`), then moved into the reactor
    /// thread with its listener and links, and its address published.
    /// The returned handle keeps it running; dropping the handle stops
    /// it.
    pub fn start(cfg: DaemonConfig) -> std::io::Result<DaemonHandle> {
        let pipe = WakePipe::new()?;
        let (daemon, links, listener) = Self::boot(cfg, pipe.waker()?)?;
        let (addr, epoch) = (listener.local_addr()?, daemon.epoch);
        let addr_file = addr_path(&daemon.cfg.dir, daemon.cfg.site);
        let obs = daemon.robs.clone();
        let reactor = Reactor::spawn(pipe, listener, daemon, links, obs)?;
        // Publish last: a resolvable address implies a daemon ready to
        // accept.
        publish(&addr_file, &addr.to_string())?;
        Ok(DaemonHandle {
            addr,
            epoch,
            _reactor: reactor,
        })
    }

    /// Boots a daemon without running it: bumps the epoch, catches up a
    /// wiped site, attaches the links, starts the checkpoint writer
    /// (which reports through `waker`), boots the node over its files —
    /// restore or replay, then a commit of what recovery stepped — and
    /// binds a loopback listener. A node that cannot boot is an error.
    fn boot(cfg: DaemonConfig, waker: Waker) -> std::io::Result<(Self, Links, TcpListener)> {
        assert!(cfg.sites > 0 && (cfg.site.raw() as usize) < cfg.sites);
        std::fs::create_dir_all(&cfg.dir)?;

        // Boot epoch: crashed incarnations are distinguishable.
        let epoch = std::fs::read_to_string(epoch_path(&cfg.dir, cfg.site))
            .ok()
            .and_then(|s| s.trim().parse::<u64>().ok())
            .unwrap_or(0)
            + 1;
        publish(&epoch_path(&cfg.dir, cfg.site), &epoch.to_string())?;

        let mut events = EventLog::start();
        let metrics = MetricsRegistry::new();
        let site_label = cfg.site.raw().to_string();
        let obs = NodeInstruments::for_site(&metrics, cfg.method.name(), cfg.site);
        let journal = ApplyJournal::open(journal_path(&cfg.dir, cfg.site))?;
        let prefix = snap_prefix(cfg.site);

        // Catch-up: a wiped site (no snapshot, empty journal) in a
        // checkpointing cluster pulls a peer's newest snapshot instead
        // of waiting for full retransmission — the peers may already
        // have truncated the covered prefix out of their queues.
        if cfg.ckpt_bytes.is_some()
            && cfg.sites > 1
            && journal.live_entries() == 0
            && snapshot::load_newest(&cfg.dir, &prefix).ok().flatten().is_none()
        {
            catch_up_from_peers(&cfg, &prefix, &mut events);
        }

        // Outbound links, one in-memory queue per peer, all drained by
        // the reactor; the node's boot re-seeds them from the journal.
        // The hello frame carries our id + epoch; the coordinator
        // answers a peer hello with a control snapshot.
        let hello = encode_frame(&Frame::Hello {
            site: cfg.site,
            epoch,
        });
        let mut links = Links::default();
        for j in 0..cfg.sites {
            let to = SiteId(j as u64);
            if to == cfg.site {
                continue;
            }
            let dir = cfg.dir.clone();
            let link_obs = LinkInstruments::for_link(
                &metrics,
                &format!("{}->{}", cfg.site.raw(), to.raw()),
            );
            links.attach(
                j,
                Box::new(move || resolve_addr(&dir, to)),
                hello.clone(),
                Backoff::default(),
                link_obs,
            );
        }

        let (cuts, installs) = spawn_writer(cfg.dir.clone(), cfg.site, waker)?;
        let mut files = Files {
            dir: cfg.dir.clone(),
            site: cfg.site,
            journal,
            events,
            cuts,
            installs,
            enc: BytesMut::new(),
        };
        let node_cfg = NodeConfig {
            site: cfg.site,
            sites: cfg.sites,
            method: cfg.method,
            epoch,
            ckpt_bytes: cfg.ckpt_bytes,
            canary: None,
        };
        let blank = SiteState::new(cfg.method, cfg.site);
        let host = &mut files.with(&mut links);
        let node = Node::boot(host, node_cfg, blank, Arc::clone(&obs))?;

        let listener = TcpListener::bind("127.0.0.1:0")?;
        let site: &[(&str, &str)] = &[("site", &site_label)];
        let daemon = Self {
            epoch,
            node,
            files,
            robs: ReactorInstruments::for_registry(&metrics),
            cfg,
            apply_latency: metrics.histogram("esr_apply_latency_micros", site),
            rpc_latency: metrics.histogram("esr_rpc_latency_micros", site),
            peer_frames_rejected: metrics.counter("esr_peer_frames_rejected_total", site),
            metrics,
            obs,
            serving: None,
            acks: Vec::new(),
        };
        Ok((daemon, links, listener))
    }

    /// Steps the node on `event`, lending it the links.
    fn dispatch(&mut self, links: &mut Links, event: NodeEvent) {
        self.node.dispatch(&mut self.files.with(links), event);
    }

    fn handle_peer_frame(&mut self, frame: Frame, links: &mut Links) {
        let timed = matches!(frame, Frame::MSet(_));
        let started = Instant::now();
        self.dispatch(links, NodeEvent::PeerFrame(frame));
        if timed {
            self.apply_latency
                .record(started.elapsed().as_micros() as u64);
        }
    }

    /// The reply to one client request; `None` for a frame that decodes
    /// but is no well-formed request — a frame that is not a client
    /// request at all, or an MSet of a shape this site's method cannot
    /// take ([`esr_replica::site::ReplicaSite::accepts`]) — which closes
    /// the connection without stepping the core.
    fn handle_client_request(&mut self, request: Frame, links: &mut Links) -> Option<Frame> {
        Some(match request {
            Frame::Submit(mset) => {
                if !self.node.core().state.site().accepts(&mset) {
                    return None;
                }
                // Exactly-once: a retried request (same client id +
                // request seq) is answered with the *original* ET the
                // core's client table holds — byte-identical to the
                // first SubmitOk — even if the retry was re-stamped.
                let started = Instant::now();
                let et = self.node.submit(&mut self.files.with(links), mset);
                self.apply_latency
                    .record(started.elapsed().as_micros() as u64);
                Frame::SubmitOk { et }
            }
            Frame::Query {
                read_set,
                epsilon_limit,
            } => {
                let mut counter =
                    InconsistencyCounter::new(EpsilonSpec::bounded(epsilon_limit));
                let out = self.node.state_mut().query(&read_set, &mut counter);
                count_query(&out, epsilon_limit, &self.obs);
                Frame::QueryOk(out)
            }
            Frame::Snapshot => Frame::SnapshotOk {
                entries: self.node.core().state.snapshot().into_iter().collect(),
            },
            Frame::Status => {
                let (core, chain) = (self.node.core(), self.node.chain());
                Frame::StatusOk {
                    settled: core.state.settled(),
                    // Sends staged earlier in this very cycle are
                    // outbound work like any queue entry (quiesce
                    // relies on it).
                    outbound_pending: (self.node.staged().sends() + links.pending()) as u64,
                    epoch: self.epoch,
                    view: core.view,
                    coordinator: core.coord.is_some(),
                    ckpt_seq: chain.seq,
                    ckpt_covered: chain.covered,
                }
            }
            Frame::Decision { et, commit } => {
                self.dispatch(links, NodeEvent::ClientDecision { et, commit });
                Frame::DecisionOk { et }
            }
            // Replies only after its own cut is installed.
            Frame::Checkpoint => {
                let (seq, covered) = self.node.checkpoint(&mut self.files.with(links));
                Frame::CheckpointOk { seq, covered }
            }
            Frame::SnapshotRequest { offset } => {
                // Serve a raw container (CRC and all) in bounded chunks;
                // the fetcher validates it end-to-end. The newest one is
                // read and checked once, at the first chunk, and every
                // later chunk comes from it: a checkpoint installed, or a
                // container retired, mid-download cannot splice two.
                // `total_len == 0` means "no snapshot yet".
                if offset == 0 || self.serving.is_none() {
                    let prefix = snap_prefix(self.cfg.site);
                    let newest = snapshot::load_newest_raw(&self.cfg.dir, &prefix);
                    self.serving = newest.ok().flatten().map(|(_, raw)| raw);
                }
                match &self.serving {
                    Some(raw) => {
                        let total_len = raw.len() as u64;
                        let start = (offset.min(total_len)) as usize;
                        let end = (start + SNAP_CHUNK).min(raw.len());
                        let bytes = raw[start..end].to_vec();
                        if end == raw.len() {
                            self.serving = None;
                        }
                        Frame::SnapshotChunk {
                            total_len,
                            offset,
                            bytes,
                        }
                    }
                    None => Frame::SnapshotChunk {
                        total_len: 0,
                        offset: 0,
                        bytes: Vec::new(),
                    },
                }
            }
            Frame::Metrics => {
                self.node.publish(&self.files.with(links));
                Frame::MetricsOk {
                    text: self.metrics.render(),
                }
            }
            Frame::EventQuery { et } => {
                let (dropped, events) = self.files.events.query(et);
                Frame::EventOk { dropped, events }
            }
            // A peer frame or a reply is no request.
            _ => return None,
        })
    }
}

/// The daemon's inbound planes, its heartbeat and its checkpoint
/// reports, all on the reactor thread.
impl RpcService for Daemon {
    const TICK: Duration = TICK_INTERVAL;

    fn handle_batch(
        &mut self,
        kind: ConnKind,
        envs: Envelopes<'_>,
        out: &mut Vec<u8>,
        links: &mut Links,
    ) -> bool {
        match kind {
            // Peer plane: durable envelopes in, one batched ack frame
            // out. The reactor sends the ack only after this cycle's
            // commit, so the sender retires an entry only once its
            // effect is crash-durable here.
            ConnKind::Peer => {
                let mut acks = std::mem::take(&mut self.acks);
                acks.clear();
                for env in envs {
                    let entry = env.entry;
                    match decode_frame(env.payload) {
                        // A corrupt frame — undecodable, or an MSet of
                        // a shape this method's `deliver` panics on —
                        // is dropped; acking it anyway prevents an
                        // infinite retransmit of a poisoned entry.
                        Ok(Frame::MSet(m)) if !self.node.core().state.site().accepts(&m) => {
                            self.peer_frames_rejected.inc()
                        }
                        Ok(f) => self.handle_peer_frame(f, links),
                        Err(_) => self.peer_frames_rejected.inc(),
                    }
                    if entry != NO_ENTRY {
                        acks.push(entry);
                    }
                }
                if !acks.is_empty() {
                    self.robs.ack_batch.record(acks.len() as u64);
                    let _ = put_acks(out, &acks);
                }
                self.acks = acks;
                true
            }
            // Client plane: one request frame in, one reply frame out,
            // in order. A malformed request (undecodable, no client
            // request, or a submit its method cannot take) closes the
            // connection, and so
            // does a reply no frame can carry (a `SnapshotOk` past
            // `MAX_FRAME`): skipping it would leave the client blocked
            // on a reply that never comes, closing shows it EOF after
            // the cycle's earlier replies.
            ConnKind::Client => {
                for env in envs {
                    let Ok(request) = decode_frame(env.payload) else {
                        return false;
                    };
                    let started = Instant::now();
                    let Some(reply) = self.handle_client_request(request, links) else {
                        return false;
                    };
                    self.rpc_latency
                        .record(started.elapsed().as_micros() as u64);
                    let enc = &mut self.files.enc;
                    enc.clear();
                    encode_frame_into(&reply, enc);
                    if put_frame(out, NO_ENTRY, enc).is_err() {
                        return false;
                    }
                }
                true
            }
        }
    }

    /// Writes the cycle's staged effects, then cuts a checkpoint if
    /// those writes reached the policy's byte limit ([`Node::commit`]).
    fn commit(&mut self, links: &mut Links) {
        self.node.commit(&mut self.files.with(links));
    }

    /// The heartbeat: the only place wall-clock time enters the
    /// protocol, and it enters as a bare tick count.
    fn tick(&mut self, links: &mut Links) {
        self.dispatch(links, NodeEvent::Tick);
    }

    /// Applies the checkpoint writer's reports.
    fn woken(&mut self, links: &mut Links) {
        self.node.installs(&mut self.files.with(links), false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esr_core::ids::{ClientId, EtId, ObjectId, SeqNo};
    use esr_replica::mset::MSet;
    use esr_core::op::{ObjectOp, Operation};
    use esr_core::value::Value;
    use esr_net::rpc::{read_frame, scan, unseal};
    use esr_storage::stable_queue::{EntryId, FileQueue, StableQueue};

    /// A booted daemon with no reactor: the test is its thread. The
    /// pipe its writer wakes stays open as long as the daemon.
    type Booted = (Daemon, Links, WakePipe);

    fn try_boot(
        dir: PathBuf,
        method: RtMethod,
        site: u64,
        sites: usize,
        ckpt_bytes: Option<u64>,
    ) -> std::io::Result<Booted> {
        let pipe = WakePipe::new().unwrap();
        let cfg = DaemonConfig {
            site: SiteId(site),
            sites,
            method,
            dir,
            ckpt_bytes,
        };
        let (daemon, links, _listener) = Daemon::boot(cfg, pipe.waker().unwrap())?;
        Ok((daemon, links, pipe))
    }

    fn boot_at(
        dir: PathBuf,
        method: RtMethod,
        site: u64,
        sites: usize,
        ckpt_bytes: Option<u64>,
    ) -> Booted {
        try_boot(dir, method, site, sites, ckpt_bytes).unwrap()
    }

    fn fresh_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("esr-daemon-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn boot(
        tag: &str,
        method: RtMethod,
        site: u64,
        sites: usize,
        ckpt_bytes: Option<u64>,
    ) -> Booted {
        boot_at(fresh_dir(tag), method, site, sites, ckpt_bytes)
    }

    fn incr(et: u64, origin: u64) -> MSet {
        MSet::new(
            EtId(et),
            SiteId(origin),
            vec![ObjectOp::new(ObjectId(0), Operation::Incr(1))],
        )
    }

    /// One readiness batch of client requests, handled exactly as the
    /// reactor would — minus the commit, which is the caller's to make.
    /// Returns whether the connection stays open, and the replies.
    fn try_batch(daemon: &mut Daemon, links: &mut Links, requests: &[Frame]) -> (bool, Vec<Frame>) {
        let mut received = Vec::new();
        for f in requests {
            put_frame(&mut received, NO_ENTRY, &encode_frame(f)).unwrap();
        }
        let (envs, _) = scan(&received, usize::MAX).unwrap();
        let mut out = Vec::new();
        let open = daemon.handle_batch(ConnKind::Client, envs, &mut out, links);
        let end = out.len() as u64;
        let mut out = std::io::Cursor::new(out);
        let mut replies = Vec::new();
        while out.position() < end {
            let frame = read_frame(&mut out).unwrap();
            replies.push(decode_frame(unseal(&frame).unwrap().payload).unwrap());
        }
        (open, replies)
    }

    /// A [`try_batch`] every request of which is answered.
    fn batch(daemon: &mut Daemon, links: &mut Links, requests: &[Frame]) -> Vec<Frame> {
        let (open, replies) = try_batch(daemon, links, requests);
        assert!(open);
        assert_eq!(replies.len(), requests.len());
        replies
    }

    fn outbound_pending(reply: &Frame) -> u64 {
        match reply {
            Frame::StatusOk {
                outbound_pending, ..
            } => *outbound_pending,
            other => panic!("expected StatusOk, got {other:?}"),
        }
    }

    /// DESIGN §11's quiesce argument: every consequence of a handled
    /// frame is visible as outbound work before its ack leaves. A
    /// follower with both peers down keeps everything it sends queued,
    /// so the count is exact: two fan-out MSets and one `Applied`.
    #[test]
    fn a_status_in_the_cycle_of_a_submit_counts_its_staged_sends() {
        let (mut daemon, mut links, _pipe) = boot("staged-status", RtMethod::Commu, 1, 3, None);
        let replies = batch(&mut daemon, &mut links, &[Frame::Submit(incr(1, 1)), Frame::Status]);
        assert!(matches!(replies[0], Frame::SubmitOk { et } if et == EtId(1)));
        assert_eq!(outbound_pending(&replies[1]), 3, "staged sends are outbound work");
        daemon.commit(&mut links);
        assert!(daemon.node.staged().is_empty());
        assert_eq!(daemon.files.journal.entries(), 1);
        assert_eq!(outbound_pending(&batch(&mut daemon, &mut links, &[Frame::Status])[0]), 3);
    }

    fn newest_image(daemon: &Daemon) -> CkptPayload {
        let prefix = snap_prefix(daemon.cfg.site);
        let (_, bytes) = snapshot::load_newest(&daemon.cfg.dir, &prefix)
            .unwrap()
            .expect("a snapshot");
        decode_payload(&bytes).unwrap()
    }

    /// Applies the writer's reports until every cut handed to it so far
    /// is accounted for.
    fn settle_ckpt(daemon: &mut Daemon, links: &mut Links) {
        for _ in 0..500 {
            daemon.woken(links);
            let chain = daemon.node.chain();
            if chain.seq == chain.cut {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let chain = daemon.node.chain();
        panic!(
            "the writer left cuts {}..={} unreported",
            chain.seq + 1,
            chain.cut
        );
    }

    /// A cut names the journal's last id, and its image holds every
    /// step so far — so what those steps staged is written first.
    #[test]
    fn a_checkpoint_cut_commits_what_is_staged_before_naming_the_journal_id() {
        // On demand, in the very cycle of the submit it must cover.
        let (mut daemon, mut links, _pipe) = boot("staged-cut", RtMethod::Commu, 0, 1, None);
        let cycle = [Frame::Submit(incr(1, 0)), Frame::Checkpoint];
        let replies = batch(&mut daemon, &mut links, &cycle);
        assert!(matches!(replies[1], Frame::CheckpointOk { seq: 1, covered: 1 }));
        let image = newest_image(&daemon);
        assert_eq!((image.covered(), image.covered_through), (1, Some(0)));

        // By policy: the commit that trips the byte limit cuts once its
        // own record is in the journal.
        let (mut daemon, mut links, _pipe) =
            boot("staged-policy-cut", RtMethod::Commu, 0, 1, Some(1));
        batch(&mut daemon, &mut links, &[Frame::Submit(incr(1, 0))]);
        daemon.commit(&mut links);
        // The writer installs the image off the apply path.
        settle_ckpt(&mut daemon, &mut links);
        let image = newest_image(&daemon);
        assert_eq!((image.covered(), image.covered_through), (1, Some(0)));
    }

    /// The installs and truncations of the event log, in order.
    #[derive(Debug, PartialEq)]
    enum Chain {
        Install { seq: u64, covered: u64 },
        Truncate { through: u64 },
    }

    fn chain_events(daemon: &Daemon) -> Vec<Chain> {
        let (_, events) = daemon.files.events.query(crate::spans::SPAN_QUERY_ALL);
        events
            .into_iter()
            .filter_map(|(_, _, e)| match e {
                Event::CkptInstall { seq, covered } => Some(Chain::Install { seq, covered }),
                Event::CkptTruncate { through, .. } => Some(Chain::Truncate { through }),
                _ => None,
            })
            .collect()
    }

    /// A policy cut still with the writer when an on-demand cut lands in
    /// the next cycle: reports are applied in cut order, the chain only
    /// moves forward, each install retires the journal through the
    /// *previous* install's cut, and a restart boots from the newest
    /// image plus the suffix past it.
    #[test]
    fn checkpoint_completions_keep_the_chain_monotone() {
        let dir = fresh_dir("ckpt-chain");
        let (mut daemon, mut links, _pipe) = boot_at(dir.clone(), RtMethod::Commu, 0, 1, Some(1));
        let mut et = 0;
        for _ in 0..3 {
            // Cycle 1: the commit trips the policy; its cut goes to the
            // writer and the cycle ends without waiting for it.
            et += 1;
            batch(&mut daemon, &mut links, &[Frame::Submit(incr(et, 0))]);
            daemon.commit(&mut links);
            let policy_cut = daemon.node.chain().cut;
            // Cycle 2: another submit, then the on-demand cut.
            et += 1;
            let cycle = [Frame::Submit(incr(et, 0)), Frame::Checkpoint];
            let replies = batch(&mut daemon, &mut links, &cycle);
            daemon.commit(&mut links);
            assert_eq!(daemon.node.chain().cut, policy_cut + 1);
            assert_eq!(
                replies[1],
                Frame::CheckpointOk {
                    seq: policy_cut + 1,
                    covered: et
                },
                "the reply reflects the snapshot its own cut installed"
            );
        }
        // One more policy cut, applied through the wake path.
        et += 1;
        batch(&mut daemon, &mut links, &[Frame::Submit(incr(et, 0))]);
        daemon.commit(&mut links);
        settle_ckpt(&mut daemon, &mut links);

        // On one fresh journal, a cut covering `c` records names id
        // `c - 1`: each truncation must name the install before last.
        let chain = chain_events(&daemon);
        let (mut last_seq, mut last_covered) = (0, 0);
        let mut previous_cut: Option<u64> = None;
        let mut newest_cut: Option<u64> = None;
        for step in &chain {
            match *step {
                Chain::Install { seq, covered } => {
                    assert!(seq > last_seq, "seq went {last_seq} -> {seq}: {chain:?}");
                    assert!(covered >= last_covered, "covered went back: {chain:?}");
                    (last_seq, last_covered) = (seq, covered);
                    previous_cut = newest_cut;
                    newest_cut = Some(covered - 1);
                }
                Chain::Truncate { through } => {
                    assert_eq!(Some(through), previous_cut, "lag-by-one: {chain:?}");
                }
            }
        }
        assert_eq!(
            chain.iter().filter(|c| matches!(c, Chain::Install { .. })).count(),
            7,
            "three policy cuts, three on demand, one more by policy: {chain:?}"
        );
        assert_eq!((last_seq, last_covered), (7, et));
        let retired = previous_cut.expect("two installs") + 1;
        assert_eq!(daemon.files.journal.live_entries(), et - retired);

        // A suffix past the newest image: one more record, by an
        // incarnation with no policy, so no cut.
        drop((daemon, links, _pipe));
        let (mut daemon, mut links, _pipe) = boot_at(dir.clone(), RtMethod::Commu, 0, 1, None);
        batch(&mut daemon, &mut links, &[Frame::Submit(incr(et + 1, 0))]);
        daemon.commit(&mut links);
        drop((daemon, links, _pipe));

        let (daemon, _links, _pipe) = boot_at(dir, RtMethod::Commu, 0, 1, Some(1));
        let (_, events) = daemon.files.events.query(crate::spans::SPAN_QUERY_ALL);
        assert!(
            events.iter().any(|(_, _, e)| matches!(
                e,
                Event::Boot { snapshot: Some((7, covered)), replayed: 1, .. } if *covered == et
            )),
            "boot from the newest image plus one suffix record: {events:?}"
        );
        assert_eq!(
            daemon.node.core().state.snapshot()[&ObjectId(0)],
            Value::Int(et as i64 + 1)
        );
    }

    /// A reply no frame can carry must not be skipped: the client has
    /// no read timeout and would wait for it forever. Two ≈ 9 MiB
    /// values make the snapshot pass `MAX_FRAME` while each submit
    /// still fits.
    #[test]
    fn a_reply_over_max_frame_closes_the_connection_after_the_earlier_replies() {
        let (mut daemon, mut links, _pipe) = boot("oversized-reply", RtMethod::Ordup, 0, 1, None);
        let big = |et: u64| {
            let text = Value::Text("x".repeat(9 << 20));
            let write = ObjectOp::new(ObjectId(et), Operation::Write(text));
            Frame::Submit(MSet::new(EtId(et), SiteId(0), vec![write]).sequenced(SeqNo(et - 1)))
        };
        let (open, replies) =
            try_batch(&mut daemon, &mut links, &[big(1), big(2), Frame::Snapshot]);
        assert!(!open, "the oversized SnapshotOk must close the connection");
        assert!(
            matches!(replies[..], [Frame::SubmitOk { et: EtId(1) }, Frame::SubmitOk { et: EtId(2) }]),
            "{} replies",
            replies.len()
        );
    }

    /// A submit that decodes but has a shape its method's `deliver`
    /// panics on is a malformed request like an undecodable one, and so
    /// is a frame that is no client request at all: the connection
    /// closes, the core is not stepped, and the daemon goes on serving.
    #[test]
    fn a_submit_of_the_wrong_shape_closes_the_connection_and_steps_nothing() {
        let ping = Frame::Ping {
            view: 0,
            from: SiteId(0),
        };
        // ORDUP takes only sequenced MSets, RITU-MV only timestamped
        // writes, and a client sends no peer frame.
        let cases = [
            ("unsequenced", RtMethod::Ordup, Frame::Submit(incr(1, 0))),
            ("untimestamped", RtMethod::RituMv, Frame::Submit(incr(1, 0))),
            ("peer-mset", RtMethod::Commu, Frame::MSet(incr(1, 0))),
            ("ping", RtMethod::Commu, ping),
        ];
        for (tag, method, bad) in cases {
            let (mut daemon, mut links, _pipe) = boot(tag, method, 0, 1, None);
            let (open, replies) = try_batch(&mut daemon, &mut links, &[bad, Frame::Status]);
            assert!(!open, "{tag}: the connection closes");
            assert!(replies.is_empty(), "nothing after the malformed request is answered");
            assert!(daemon.node.staged().is_empty());
            daemon.commit(&mut links);
            assert_eq!(daemon.files.journal.entries(), 0);
            let status = batch(&mut daemon, &mut links, &[Frame::Status]);
            assert_eq!(outbound_pending(&status[0]), 0);
        }
    }

    /// A wiped site's catch-up must not hang on a peer that accepts but
    /// never answers: the kernel completes the handshake into a frozen
    /// process's listen backlog, so the connect succeeds and only the
    /// reply never comes.
    #[test]
    fn catch_up_from_a_peer_that_never_answers_falls_back_to_a_cold_boot() {
        let dir = fresh_dir("frozen");
        std::fs::create_dir_all(&dir).unwrap();
        let frozen = TcpListener::bind("127.0.0.1:0").unwrap(); // never accepts
        publish(&addr_path(&dir, SiteId(1)), &frozen.local_addr().unwrap().to_string()).unwrap();

        let started = Instant::now();
        let (booted_tx, booted) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = booted_tx.send(boot_at(dir, RtMethod::Commu, 0, 2, Some(1 << 20)));
        });
        let (daemon, _links, _pipe) = booted
            .recv_timeout(Duration::from_secs(20))
            .expect("boot still blocked on the frozen peer after 20 s");
        let took = started.elapsed();
        assert!(took < Duration::from_secs(2), "boot took {took:?}");

        let (_, events) = daemon.files.events.query(crate::spans::SPAN_QUERY_ALL);
        assert!(
            !events.iter().any(|(_, _, e)| matches!(e, Event::CkptCatchUp { .. })),
            "nothing was caught up: {events:?}"
        );
        assert!(
            events.iter().any(|(_, _, e)| matches!(
                e,
                Event::Boot {
                    snapshot: None,
                    replayed: 0,
                    ..
                }
            )),
            "a cold boot: {events:?}"
        );
        drop(frozen);
    }

    /// A well-framed journal record that is not an MSet fails the boot,
    /// naming the record, instead of panicking it.
    #[test]
    fn an_undecodable_journal_record_is_a_boot_error() {
        let dir = fresh_dir("undecodable-record");
        std::fs::create_dir_all(&dir).unwrap();
        let mut journal = FileQueue::open(journal_path(&dir, SiteId(0))).unwrap();
        journal.enqueue(Bytes::from_static(b"not an mset"));
        drop(journal);
        let booted = try_boot(dir, RtMethod::Commu, 0, 1, None);
        assert!(
            matches!(&booted, Err(e) if e.kind() == std::io::ErrorKind::InvalidData
                && e.to_string().contains("journal record 0")),
            "boot must fail naming the record"
        );
    }

    /// A download is served from the container its first chunk picked:
    /// a newer checkpoint installed mid-download does not splice in.
    #[test]
    fn a_snapshot_download_is_served_from_the_container_its_first_chunk_picked() {
        let dir = fresh_dir("download");
        let (mut daemon, mut links, _pipe) = boot_at(dir.clone(), RtMethod::Commu, 0, 1, None);
        let first: Vec<u8> = (0..3 * SNAP_CHUNK).map(|i| (i % 251) as u8).collect();
        snapshot::install(&dir, "site-0", 1, &first).unwrap();
        let mut fetched = Vec::new();
        loop {
            let offset = fetched.len() as u64;
            let request = Frame::SnapshotRequest { offset };
            match &batch(&mut daemon, &mut links, &[request])[0] {
                Frame::SnapshotChunk {
                    total_len, bytes, ..
                } => {
                    assert!(!bytes.is_empty(), "chunk at {offset} of {total_len}");
                    fetched.extend_from_slice(bytes);
                    if fetched.len() as u64 >= *total_len {
                        break;
                    }
                }
                other => panic!("expected SnapshotChunk, got {other:?}"),
            }
            if offset == 0 {
                snapshot::install(&dir, "site-0", 2, &[7; 2 * SNAP_CHUNK]).unwrap();
            }
        }
        let container = snapshot::decode_container(&fetched);
        assert!(
            container.is_some_and(|(seq, payload)| seq == 1 && payload == first),
            "the chunks must make up the first container"
        );
    }

    /// Undecodable bytes and a decodable MSet its method cannot take
    /// (ORDUP, no sequencer stamp) go the same way on the peer plane.
    #[test]
    fn a_corrupt_peer_frame_is_acked_dropped_and_counted() {
        let (mut daemon, mut links, _pipe) = boot("rejected", RtMethod::Ordup, 1, 3, None);
        let mut received = Vec::new();
        put_frame(&mut received, 5, &[0xFF; 3]).unwrap();
        put_frame(&mut received, 6, &encode_frame(&Frame::MSet(incr(1, 0)))).unwrap();
        let (envs, _) = scan(&received, usize::MAX).unwrap();
        let mut out = Vec::new();
        assert!(daemon.handle_batch(ConnKind::Peer, envs, &mut out, &mut links));
        let frame = read_frame(&mut std::io::Cursor::new(out)).unwrap();
        let ack = unseal(&frame).unwrap();
        assert_eq!(ack.ack_ids().unwrap().collect::<Vec<_>>(), vec![5, 6]);
        assert!(daemon
            .metrics
            .render()
            .contains("esr_peer_frames_rejected_total{site=\"1\"} 2"));
        assert!(daemon.node.staged().is_empty(), "the core was not stepped");
    }

    /// One COMMU site, the byte policy cutting at every commit: six
    /// submits leave installs 1–6 and one live journal record, the rest
    /// retired lag-by-one.
    fn six_installs(tag: &str) -> PathBuf {
        let dir = fresh_dir(tag);
        let (mut daemon, mut links, _pipe) = boot_at(dir.clone(), RtMethod::Commu, 0, 1, Some(1));
        for et in 1..=6 {
            batch(&mut daemon, &mut links, &[Frame::Submit(incr(et, 0))]);
            daemon.commit(&mut links);
            settle_ckpt(&mut daemon, &mut links);
        }
        assert_eq!(daemon.node.chain().seq, 6);
        assert_eq!(daemon.files.journal.live_entries(), 1);
        dir
    }

    /// A record some peer has not acknowledged is the only copy a
    /// restart could re-send it from, so no checkpoint retires it: with
    /// both peers down, six installs retire nothing of site 0's own
    /// submits; once both peers ack them, the next install does.
    #[test]
    fn truncation_waits_for_every_peer_to_acknowledge() {
        let (mut daemon, mut links, _pipe) = boot("acked-cut", RtMethod::Commu, 0, 3, Some(1));
        for et in 1..=6 {
            batch(&mut daemon, &mut links, &[Frame::Submit(incr(et, 0))]);
            daemon.commit(&mut links);
            settle_ckpt(&mut daemon, &mut links);
        }
        assert_eq!(daemon.node.chain().seq, 6);
        assert_eq!(daemon.files.journal.live_entries(), 6, "every own record stays live");

        // A link numbers its entries from 0: the six fan-out MSets.
        let sent: Vec<EntryId> = (0..6).map(EntryId).collect();
        for peer in [1, 2] {
            assert_eq!(links.ack(peer, &sent), 6);
        }
        batch(&mut daemon, &mut links, &[Frame::Submit(incr(7, 0))]);
        daemon.commit(&mut links);
        settle_ckpt(&mut daemon, &mut links);
        assert_eq!(daemon.node.chain().seq, 7);
        let live = daemon.files.journal.records().unwrap().into_iter();
        let live: Vec<Record> = live.map(|(_, r)| r).collect();
        assert!(
            matches!(&live[..], [Record::MSet(m), Record::Cursors(_)] if m.et == EtId(7)),
            "install 7 retires through install 6's cut, which both peers acked; \
             et7's append also recorded the acknowledgements: {live:?}"
        );
    }

    /// A restart re-sends what the newest cursor record says a peer
    /// lacks: a commit that appends anything records the links' cursors
    /// when one passed an originated MSet, and the next boot seeds the
    /// links with the originated records above them. Neither an
    /// acknowledgement nor the heartbeat writes anything, and no file
    /// but the journal holds the site's durable state.
    #[test]
    fn a_boot_reseeds_each_link_above_its_recorded_cursor() {
        let dir = fresh_dir("reseed");
        let (mut daemon, mut links, _pipe) = boot_at(dir.clone(), RtMethod::Commu, 0, 3, None);
        // Two commits: a record of its own (id 0), then another (id 1)
        // and one from a peer (id 2), which no link re-sends.
        batch(&mut daemon, &mut links, &[Frame::Submit(incr(1, 0))]);
        daemon.commit(&mut links);
        batch(&mut daemon, &mut links, &[Frame::Submit(incr(2, 0))]);
        daemon.dispatch(&mut links, NodeEvent::PeerFrame(Frame::MSet(incr(3, 1))));
        daemon.commit(&mut links);
        assert_eq!(links.ack(1, &[EntryId(0)]), 1, "peer 1 took the first commit");
        daemon.tick(&mut links);
        assert_eq!(daemon.files.journal.entries(), 3, "the heartbeat writes nothing");
        // The next append (id 3) carries the cursors (id 4): peer 2
        // acknowledged nothing, peer 1 the first commit.
        batch(&mut daemon, &mut links, &[Frame::Submit(incr(4, 0))]);
        daemon.commit(&mut links);
        let newest = daemon.files.journal.records().unwrap().pop();
        assert_eq!(newest, Some((4, Record::Cursors(vec![None, Some(0), None]))));
        drop((daemon, links, _pipe));
        let mut files: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        files.sort();
        assert_eq!(files, ["site-0.epoch", "site-0.journal"]);

        let (_daemon, links, _pipe) = boot_at(dir, RtMethod::Commu, 0, 3, None);
        assert_eq!(links.pending(), 2 + 3, "et2 and et4 to peer 1, all three to peer 2");
    }

    /// The site a submit arrives at is its origin, whatever the client
    /// stamped: a submit claiming site 2 is journalled as site 0's, so a
    /// crash that takes its sends after the journal append still leaves
    /// the next boot re-sending it to both peers.
    /// A retry of a submit — the same `(client, seq)`, stamped with
    /// another ET — is answered with the original ET, journals nothing,
    /// and is recorded once as a duplicate.
    #[test]
    fn a_retried_submit_is_answered_with_the_original_et() {
        let (mut daemon, mut links, _pipe) = boot("retried-submit", RtMethod::Commu, 0, 1, None);
        let client = ClientId(7);
        for et in [1, 2] {
            let request = incr(et, 0).from_client(client, 3);
            let replies = batch(&mut daemon, &mut links, &[Frame::Submit(request)]);
            assert!(matches!(replies[0], Frame::SubmitOk { et } if et == EtId(1)), "{replies:?}");
            daemon.commit(&mut links);
        }
        assert_eq!(daemon.files.journal.records().unwrap().len(), 1);
        let (_, events) = daemon.files.events.query(crate::spans::SPAN_QUERY_ALL);
        let duplicates = events.iter().filter(|(_, _, e)| {
            matches!(e, Event::DuplicateSubmit { client: c, seq: 3, et } if *c == client && *et == EtId(1))
        });
        assert_eq!(duplicates.count(), 1);
    }

    #[test]
    fn a_submit_stamped_with_another_origin_is_resent_by_the_site_it_reached() {
        let dir = fresh_dir("foreign-origin");
        let (mut daemon, mut links, _pipe) = boot_at(dir.clone(), RtMethod::Commu, 0, 3, None);
        let replies = batch(&mut daemon, &mut links, &[Frame::Submit(incr(1, 2))]);
        assert!(matches!(replies[0], Frame::SubmitOk { et } if et == EtId(1)));
        daemon.commit(&mut links);
        assert_eq!(links.pending(), 2, "sent to both peers");
        drop((daemon, links, _pipe));

        let (_daemon, links, _pipe) = boot_at(dir, RtMethod::Commu, 0, 3, None);
        assert_eq!(links.pending(), 2, "the boot re-sends it to both peers");
    }

    /// A container whose CRC holds but whose payload does not decode
    /// must not send boot to a replay of a journal truncation already
    /// cut: boot restores the newest image that does, the one before.
    #[test]
    fn an_undecodable_newest_snapshot_boots_from_the_one_before() {
        let dir = six_installs("undecodable-newest");
        snapshot::install(&dir, "site-0", 7, b"not a payload").unwrap();
        let (daemon, _links, _pipe) = boot_at(dir, RtMethod::Commu, 0, 1, Some(1));
        let (_, events) = daemon.files.events.query(crate::spans::SPAN_QUERY_ALL);
        assert!(
            events.iter().any(|(_, _, e)| matches!(
                e,
                Event::Boot {
                    snapshot: Some((6, 6)),
                    replayed: 0,
                    ..
                }
            )),
            "boot from image 6: {events:?}"
        );
        assert_eq!(
            daemon.node.core().state.snapshot()[&ObjectId(0)],
            Value::Int(6)
        );
        assert_eq!(
            daemon.node.chain().cut,
            7,
            "seq 7 is claimed, even unrestored"
        );
    }

    /// With no container that restores, a journal a checkpoint retired
    /// records from cannot be replayed: boot fails instead of serving a
    /// replica missing acknowledged updates.
    #[test]
    fn no_usable_snapshot_over_a_truncated_journal_is_a_boot_error() {
        let dir = six_installs("no-usable-snapshot");
        for seq in [5, 6] {
            snapshot::install(&dir, "site-0", seq, b"not a payload").unwrap();
        }
        let Err(err) = try_boot(dir, RtMethod::Commu, 0, 1, Some(1)) else {
            panic!("boot must fail")
        };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        for seq in [5, 6] {
            let why = format!("snapshot {seq}: undecodable");
            assert!(err.to_string().contains(&why), "{err} does not say {why}");
        }
    }
}

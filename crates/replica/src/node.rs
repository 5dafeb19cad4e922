//! One site's effect executor: the [`NodeCore`] plus everything that
//! performing its effects takes — the commit plan ([`crate::commit`]),
//! the links' acknowledged cursors, the checkpoint chain (cut, install,
//! lag-by-one truncation bounded by those cursors), boot by
//! restore-or-replay and the re-seeding of the links, and the per-site
//! executor series. It is the only code that performs an [`Effect`]:
//! `esrd`, [`crate::cluster::SimCluster`] and the model checker
//! (`crates/check`) each run a [`Node`], and differ only in the
//! [`Host`] they hand it, which is all of the node's I/O:
//!
//! * `esrd`'s host is files and its reactor: the journal file, snapshot
//!   containers installed by a writer thread, the in-memory links, the
//!   event ring and the monotonic clock;
//! * [`MemHost`] is memory: a journal with stable ids, the two newest
//!   snapshot containers, the links' unacknowledged entries, an event
//!   log stamped in virtual time, and an outbox its owner drains after
//!   each step's commit — onto the simulator's virtual-time network, or
//!   onto the model's FIFO queues. Its one fault operation is a torn
//!   commit ([`MemHost::tear`]).
//!
//! A site's durable state is its journal and its snapshots: a view it
//! installed and what its links had acknowledged are journal records
//! too ([`Record::View`], [`Record::Cursors`]).
//!
//! ## Boot
//!
//! [`Node::boot`] restores the newest snapshot that decodes, restores,
//! and is continued by the journal, replaying the journal suffix past
//! its cut, into the newest view recorded — the journal's or the
//! image's, which covers a view record truncation retired. With no such
//! image it replays the whole journal — but only a journal nothing was
//! ever retired from. A journal whose prefix a checkpoint retired, with
//! no usable image left, is a boot error: the rest of it would boot a
//! replica missing acknowledged updates (DESIGN.md §16.3). The links
//! are in-memory and start empty: boot re-seeds each with the live
//! MSets that originated here above that peer's cursor in the newest
//! cursor record — every live one when none is left — and replays
//! every live decision record, before the recovery commit.
//!
//! ## Commit
//!
//! A step writes only the event log and a cut handed to the snapshot
//! writer. Its journal records and sends are staged, and
//! [`Node::commit`] writes them in the plan's order — one journal
//! append, then the sends — once per reactor cycle in `esrd`, once per
//! step in the simulator and the model. An append also carries a cursor
//! record when a link's cursor passed an MSet this site originated since
//! the last one — the only move that changes what a boot re-sends; a
//! commit that appends nothing writes none. Time is read only through
//! [`Host::now`]: the same latency histograms run on a monotonic clock
//! in `esrd` and on virtual time in the simulator.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io;
use std::sync::Arc;

use esr_core::ids::{EtId, SiteId};
use esr_obs::{CkptInstruments, Counter, Gauge, Histogram, MetricsRegistry, SiteInstruments};
use esr_sim::time::VirtualTime;
use esr_storage::snapshot;

use crate::commit::Staged;
use crate::ctrl::{CtrlCanary, Effect, NodeCore, NodeEvent, Record};
use crate::mset::MSet;
use crate::node_ckpt::{decode_payload, encode_payload, CkptPayload};
use crate::span::Event;
use crate::state::{RtMethod, SiteState};
use crate::wire::Frame;

/// All of a node's I/O.
pub trait Host {
    /// Appends one commit's journal records, in order, in one write;
    /// returns the bytes appended.
    fn append(&mut self, records: Vec<Record>) -> u64;
    /// Every live journal record with its id, oldest first; a record
    /// that does not decode is an `InvalidData` error naming its id.
    fn journal(&self) -> io::Result<Vec<(u64, Record)>>;
    /// The id of the newest record ever appended (`None` for a journal
    /// that never held one). Ids count from 0 and are never reused.
    fn last_id(&self) -> Option<u64>;
    /// Retires every record with id `<= through`; returns how many.
    fn retire_through(&mut self, through: u64) -> u64;
    /// What the journal occupies: bytes, and live records.
    fn journal_size(&self) -> (u64, u64);
    /// The snapshot containers on record, newest first — intact or not.
    fn snapshots(&self) -> Vec<u64>;
    /// The payload of container `seq`, if the container is intact.
    fn load_snapshot(&self, seq: u64) -> Option<Vec<u8>>;
    /// Hands cut number `seq` to the snapshot writer, which reports on
    /// every cut, in cut order.
    fn cut(&mut self, seq: u64, payload: Box<CkptPayload>);
    /// The writer's next report: waits for one when `wait`, else `None`
    /// when none is ready.
    fn installed(&mut self, wait: bool) -> Option<Install>;
    /// Enqueues one commit's sends — runs of frames, each on the
    /// in-memory link to its peer, in order — which a link retries until
    /// the peer acknowledges them or this site crashes. Returns, per
    /// peer sent to, the link entry its last frame took.
    fn send(&mut self, sends: Vec<(SiteId, Vec<Frame>)>) -> Vec<(SiteId, u64)>;
    /// The oldest entry on the link to `peer` that the peer has not
    /// acknowledged (`None`: the link holds none). Entries count up.
    fn head(&self, peer: SiteId) -> Option<u64>;
    /// Records one event, stamped now.
    fn record(&mut self, event: Event);
    /// Now, in microseconds: the node's only clock.
    fn now(&self) -> u64;
}

/// What a node boots as, besides its host and its blank replica.
#[derive(Debug, Clone, Copy)]
pub struct NodeConfig {
    /// This site's id.
    pub site: SiteId,
    /// Sites in the cluster.
    pub sites: usize,
    /// The replica control method.
    pub method: RtMethod,
    /// This incarnation's boot epoch.
    pub epoch: u64,
    /// Checkpoint policy: cut after roughly this many bytes of journal
    /// appends (`None`: only on demand).
    pub ckpt_bytes: Option<u64>,
    /// Seeded control-plane defect the core runs with: the model
    /// checker arms one to prove it is caught; `esrd` and the simulator
    /// run `None`.
    pub canary: Option<CtrlCanary>,
}

/// A node's series, registered once per site: every incarnation of the
/// site reports to the same ones, and a boot registers nothing.
#[derive(Debug, Clone)]
pub struct NodeInstruments(Arc<Series>);

/// The series a [`NodeInstruments`] handle shares.
#[derive(Debug)]
struct Series {
    /// The site's replica series, fed from the core's events.
    site: SiteInstruments,
    /// Checkpoint and journal series.
    ckpt: CkptInstruments,
    /// Journal records handed to a boot's replay
    /// (`esr_recovery_replays_total`).
    replays: Counter,
    /// The installed view (`esr_view`).
    view: Gauge,
    /// Whether this site holds the coordinator role (`esr_coordinator`).
    coordinator: Gauge,
    /// Elections taken part in (`esr_elections_total`, counted at the
    /// first StartViewChange sent per election).
    elections: Counter,
    /// First StartViewChange sent to the next view recorded
    /// (`esr_election_latency_micros`).
    election_latency: Histogram,
    /// Journal records plus link frames per non-empty commit
    /// (`esr_commit_records`): the batching a commit achieved.
    commit_records: Histogram,
    /// Latency of a non-empty commit (`esr_commit_latency_micros`).
    commit_latency: Histogram,
}

impl NodeInstruments {
    /// Registers `site`'s series, labelled with `method`, in `metrics`.
    pub fn for_site(metrics: &MetricsRegistry, method: &str, site: SiteId) -> Self {
        let label = site.raw().to_string();
        let l: &[(&str, &str)] = &[("site", &label)];
        Self(Arc::new(Series {
            site: SiteInstruments::for_site(metrics, method, site.raw()),
            ckpt: CkptInstruments::for_site(metrics, site.raw()),
            replays: metrics.counter("esr_recovery_replays_total", l),
            view: metrics.gauge("esr_view", l),
            coordinator: metrics.gauge("esr_coordinator", l),
            elections: metrics.counter("esr_elections_total", l),
            election_latency: metrics.histogram("esr_election_latency_micros", l),
            commit_records: metrics.histogram("esr_commit_records", l),
            commit_latency: metrics.histogram("esr_commit_latency_micros", l),
        }))
    }

    /// The replica series, which the executor's query and scrape paths
    /// feed too.
    pub fn site(&self) -> &SiteInstruments {
        &self.0.site
    }
}

/// What a node knows about its checkpoint chain.
#[derive(Debug, Clone, Copy, Default)]
pub struct CkptState {
    /// Sequence of the newest installed snapshot (0 = none yet).
    pub seq: u64,
    /// Journalled-MSet count that snapshot covers.
    pub covered: u64,
    /// That snapshot's journal id cut (`None` for a catch-up image,
    /// whose ids refer to a peer's journal).
    pub covered_through: Option<u64>,
    /// Sequence handed to the newest cut (`>= seq`; the ones above
    /// `seq` are with the writer or failed).
    pub cut: u64,
}

/// The most commits a [`Cursor`] remembers one by one.
const MAX_MARKS: usize = 1024;

/// What one link has acknowledged, in journal ids: the node keeps one
/// per peer. A commit sends only after its journal append, and boot
/// re-seeds the links before anything else is sent, so once a peer has
/// acknowledged every frame sent it through a commit, it holds every
/// record the journal held then that it was to receive.
#[derive(Debug, Clone, Default)]
struct Cursor {
    acked: Option<u64>,
    /// `(entry, id)`: the link's entries through `entry` were sent with
    /// the journal through `id`.
    marks: VecDeque<(u64, Option<u64>)>,
}

impl Cursor {
    /// A cursor at `acked`, as a boot resumes one.
    fn at(acked: Option<u64>) -> Self {
        Self {
            acked,
            marks: VecDeque::new(),
        }
    }

    /// Notes that a commit's sends on the link ended at entry `entry`,
    /// with the journal through `last_id`. Past [`MAX_MARKS`] marks — a
    /// peer that acknowledges nothing — the note replaces the newest
    /// one: the cursor then moves in coarser steps, never too far.
    fn sent(&mut self, entry: u64, last_id: Option<u64>) {
        if self.marks.len() >= MAX_MARKS {
            self.marks.pop_back();
        }
        self.marks.push_back((entry, last_id));
    }

    /// Advances past what the link has acknowledged — `head` is its
    /// oldest unacknowledged entry, `None` when it holds none, and
    /// `last_id` the journal's newest id — and returns the cursor.
    fn advance(&mut self, head: Option<u64>, last_id: Option<u64>) -> Option<u64> {
        let Some(head) = head else {
            self.marks.clear();
            self.acked = self.acked.max(last_id);
            return self.acked;
        };
        while let Some(&(entry, id)) = self.marks.front() {
            if entry >= head {
                break;
            }
            self.acked = self.acked.max(id);
            self.marks.pop_front();
        }
        self.acked
    }
}

/// The snapshot writer's report on one cut: the container's size and
/// the encode-and-install time in micros, or why it failed.
pub type Install = Result<(u64, u64), String>;

/// One booted site: the pure core and what executing it takes.
#[derive(Debug)]
pub struct Node {
    /// The control-plane state machine.
    core: NodeCore,
    /// Journal records and link sends stepped but not yet written.
    staged: Staged,
    /// The checkpoint chain.
    ckpt: CkptState,
    /// The cuts with the writer, oldest first, each as the chain would
    /// read once it is installed.
    in_flight: VecDeque<CkptState>,
    /// The journal id an install left to retire through that some
    /// peer's acknowledgements still hold back.
    retire_to: Option<u64>,
    /// Each link's cursor, by site (this site's own is unused). They
    /// die with the node: a boot resumes them from the newest cursor
    /// record.
    cursors: Vec<Cursor>,
    /// The cursors the newest cursor record holds, by site.
    recorded: Vec<Option<u64>>,
    /// The journal ids of the live MSets this site originated that some
    /// peer's recorded cursor is still below, oldest first: what a boot
    /// would re-send, and so all a new cursor record can spare it.
    originated: VecDeque<u64>,
    /// Checkpoint policy: cut after roughly this many journal bytes.
    ckpt_bytes: Option<u64>,
    /// Journal bytes appended since the last policy cut.
    ckpt_bytes_since: u64,
    /// Set when a commit reaches the policy's limit; that commit cuts
    /// once its writes are done, so the cut is a consistent prefix.
    ckpt_due: bool,
    /// The site's series.
    obs: Arc<Series>,
    /// When the election in progress started.
    election_started: Option<u64>,
}

impl Node {
    /// Boots a node over `host`: restores the newest usable snapshot
    /// plus the journal suffix past it, or replays a journal nothing
    /// was retired from into `blank`; records the boot; and commits
    /// what recovery stepped — the re-announcement of recovered applies,
    /// which the previous incarnation may have died before sending.
    /// The node reports to `obs`, the site's series. Fails when a
    /// journal record does not decode, or when the journal was
    /// truncated and no snapshot restores.
    pub fn boot(
        host: &mut impl Host,
        cfg: NodeConfig,
        blank: SiteState,
        NodeInstruments(obs): NodeInstruments,
    ) -> io::Result<Self> {
        let journal = host.journal()?;
        // Every record from this id on is live; the ones before it were
        // retired, so only an image covering them can stand in for them.
        let first_live = journal
            .first()
            .map_or(host.last_id().map_or(0, |id| id + 1), |(id, _)| *id);
        let (mut msets, mut decisions, mut view) = (Vec::new(), Vec::new(), 0);
        let mut recorded = vec![None; cfg.sites];
        for (id, record) in journal {
            match record {
                Record::MSet(m) => msets.push((id, m)),
                Record::Decision { et, commit } => decisions.push((et, commit)),
                Record::View(v) => view = v,
                Record::Cursors(acked) => {
                    recorded = (0..cfg.sites)
                        .map(|j| acked.get(j).copied().flatten())
                        .collect();
                }
            }
        }
        // The links start empty: each peer gets back the MSets this site
        // originated above its newest recorded cursor — every live one
        // when truncation retired that record, as every peer had
        // acknowledged whatever was retired.
        let peers = (0..cfg.sites as u64).map(SiteId).filter(|peer| *peer != cfg.site);
        let reseed: Vec<(SiteId, Vec<Frame>)> = peers
            .filter_map(|peer| {
                let resume = recorded[peer.raw() as usize];
                let frames: Vec<Frame> = msets
                    .iter()
                    .filter(|(id, m)| m.origin == cfg.site && resume.is_none_or(|c| *id > c))
                    .map(|(_, m)| Frame::MSet(m.clone()))
                    .collect();
                (!frames.is_empty()).then_some((peer, frames))
            })
            .collect();
        let originated: VecDeque<u64> = msets
            .iter()
            .filter(|(_, m)| m.origin == cfg.site)
            .map(|(id, _)| *id)
            .collect();
        let snapshots = host.snapshots();
        let mut restored = None;
        for &seq in &snapshots {
            // A torn or bit-flipped container is no snapshot at all.
            let Some(bytes) = host.load_snapshot(seq) else {
                continue;
            };
            let detail = match decode_payload(&bytes) {
                None => "undecodable",
                Some(p) if p.covered_through.is_some_and(|cut| cut + 1 < first_live) => {
                    "the journal past its cut was retired"
                }
                Some(p) => {
                    let chain = CkptState {
                        seq,
                        covered: p.covered,
                        covered_through: p.covered_through,
                        cut: seq,
                    };
                    let suffix: Vec<MSet> = msets
                        .iter()
                        .filter(|(id, _)| p.covered_through.is_none_or(|cut| *id > cut))
                        .map(|(_, m)| m.clone())
                        .collect();
                    let replayed = suffix.len() as u64;
                    let started = host.now();
                    let (method, at, canary) = (cfg.method, view.max(p.view), cfg.canary);
                    match NodeCore::restore(method, cfg.site, cfg.sites, canary, at, p, suffix) {
                        Some((core, effects)) => {
                            obs.ckpt.suffix_replay(host.now().saturating_sub(started));
                            restored = Some((core, effects, chain, replayed));
                            break;
                        }
                        None => "method mismatch",
                    }
                }
            };
            host.record(Event::CkptFailed {
                seq,
                detail: format!("{detail}; not restored"),
            });
        }
        let (mut core, mut recovery, mut ckpt, replayed) = match restored {
            Some(restored) => restored,
            None if first_live == 0 => {
                let entries: Vec<MSet> = msets.into_iter().map(|(_, m)| m).collect();
                let replayed = entries.len() as u64;
                let (core, effects) =
                    NodeCore::recover(blank, cfg.method, cfg.site, cfg.sites, cfg.canary, view, entries);
                (core, effects, CkptState::default(), replayed)
            }
            None => {
                let why = format!("journal ids below {first_live} retired, no snapshot restores");
                return Err(io::Error::new(io::ErrorKind::InvalidData, why));
            }
        };
        // Every live decision record, image or not: one passed on just
        // before the crash may not have reached the coordinator.
        recovery.extend(core.replay_decisions(decisions));
        // One account of the boot, whichever branch ran: the records
        // handed to the replay here, the `Replay` spans among the
        // recovery effects counted when they are performed below.
        obs.replays.add(replayed);
        host.record(Event::Boot {
            epoch: cfg.epoch,
            snapshot: (ckpt.seq > 0).then_some((ckpt.seq, ckpt.covered)),
            replayed,
            view: core.view,
        });
        // Never re-issue a sequence number a container already claims,
        // even one that did not restore.
        ckpt.seq = ckpt.seq.max(snapshots.first().copied().unwrap_or(0));
        ckpt.cut = ckpt.seq;
        let (bytes, live) = host.journal_size();
        obs.ckpt.journal(bytes, live);
        obs.view.set(core.view as i64);
        obs.coordinator.set(i64::from(core.coord.is_some()));
        let mut node = Self {
            core,
            staged: Staged::default(),
            ckpt,
            in_flight: VecDeque::new(),
            retire_to: None,
            cursors: recorded.iter().map(|acked| Cursor::at(*acked)).collect(),
            originated,
            recorded,
            ckpt_bytes: cfg.ckpt_bytes,
            ckpt_bytes_since: 0,
            ckpt_due: false,
            obs,
            election_started: None,
        };
        node.forget_recorded();
        node.send(host, reseed);
        node.perform(host, recovery);
        node.commit(host);
        Ok(node)
    }

    /// The control-plane core.
    pub fn core(&self) -> &NodeCore {
        &self.core
    }

    /// The replica, for a query: reading one goes through `&mut`.
    pub fn state_mut(&mut self) -> &mut SiteState {
        &mut self.core.state
    }

    /// What is stepped and not yet committed.
    pub fn staged(&self) -> &Staged {
        &self.staged
    }

    /// The checkpoint chain.
    pub fn chain(&self) -> CkptState {
        self.ckpt
    }

    /// Steps the core on `event` and performs what it returns: events
    /// and cuts at once, in order; journal records and sends are staged
    /// for the commit. A heartbeat also retires what a lagging peer held
    /// an install back from.
    pub fn dispatch(&mut self, host: &mut impl Host, event: NodeEvent) {
        let (tick, view) = (matches!(event, NodeEvent::Tick), self.core.view);
        let effects = self.core.step(event);
        self.perform(host, effects);
        self.obs.coordinator.set(i64::from(self.core.coord.is_some()));
        if self.core.view != view {
            self.obs.view.set(self.core.view as i64);
            if let Some(started) = self.election_started.take() {
                let took = host.now().saturating_sub(started);
                self.obs.election_latency.record(took);
            }
        }
        if tick {
            self.retire(host);
        }
    }

    /// Steps a client submit and returns the ET its client is answered
    /// with: the one the client table holds for the request's
    /// `(client, seq)` — for a retry, the original ET, whatever the
    /// retry was stamped with — else the submit's own.
    pub fn submit(&mut self, host: &mut impl Host, mset: MSet) -> EtId {
        let (request, et) = (mset.client, mset.et);
        self.dispatch(host, NodeEvent::ClientSubmit(mset));
        request
            .and_then(|(client, seq)| self.core.cached_et(client, seq))
            .unwrap_or(et)
    }

    /// Writes everything staged ([`crate::commit`]'s order), then cuts
    /// a checkpoint if those writes reached the policy's byte limit.
    pub fn commit(&mut self, host: &mut impl Host) {
        self.write(host);
        if self.ckpt_due {
            self.cut(host);
        }
    }

    /// An on-demand checkpoint: cuts like the policy does, then waits
    /// for the writer to report on that cut and every cut before it, so
    /// the answer reflects the new snapshot. Returns the chain's
    /// `(seq, covered)`.
    pub fn checkpoint(&mut self, host: &mut impl Host) -> (u64, u64) {
        self.cut(host);
        self.installs(host, true);
        (self.ckpt.seq, self.ckpt.covered)
    }

    /// Applies the snapshot writer's reports on the cuts it holds: all
    /// of them, waiting, when `wait`; else those ready now.
    pub fn installs(&mut self, host: &mut impl Host, wait: bool) {
        while !self.in_flight.is_empty() {
            let Some(report) = host.installed(wait) else {
                return;
            };
            self.apply_install(host, report);
        }
    }

    /// Executes one step's effects: the first StartViewChange of an
    /// election starts its clock; journal records and sends are staged,
    /// the rest performed now, in order.
    fn perform(&mut self, host: &mut impl Host, effects: Vec<Effect>) {
        let starts_election = effects.iter().any(|e| {
            matches!(
                e,
                Effect::Send {
                    frame: Frame::StartViewChange { .. },
                    ..
                }
            )
        });
        if starts_election && self.election_started.is_none() {
            self.election_started = Some(host.now());
            self.obs.elections.inc();
        }
        for effect in self.staged.stage(effects) {
            match effect {
                Effect::Checkpoint(payload) => {
                    self.ckpt.cut += 1;
                    let seq = self.ckpt.cut;
                    let (covered, covered_through) = (payload.covered, payload.covered_through);
                    self.in_flight.push_back(CkptState {
                        seq,
                        covered,
                        covered_through,
                        cut: seq,
                    });
                    host.cut(seq, payload);
                }
                Effect::Event(event) => {
                    event.count(&self.obs.site);
                    host.record(event);
                }
                // Staged above.
                Effect::Record(_) | Effect::Journal(_) | Effect::Send { .. } => {}
            }
        }
    }

    /// Writes everything staged, in the order [`crate::commit`] plans:
    /// the journal records in one append, then every send. An append
    /// ends with a cursor record when it spares a boot a re-send.
    fn write(&mut self, host: &mut impl Host) {
        if self.staged.is_empty() {
            return;
        }
        let started = host.now();
        let written = self.staged.len();
        let (mut records, sends) = self.staged.plan();
        if !records.is_empty() {
            // As the links stand before the append: a cursor taken after
            // it would cover this commit's records, whose sends a crash
            // may still lose.
            let acked = self.acked(host);
            if self.spares_a_resend(&acked) {
                records.push(Record::Cursors(acked.clone()));
                self.recorded = acked;
            }
            let (site, next) = (self.core.site, host.last_id().map_or(0, |id| id + 1));
            let own = records.iter().zip(next..).filter_map(|(record, id)| {
                matches!(record, Record::MSet(m) if m.origin == site).then_some(id)
            });
            self.originated.extend(own);
            self.forget_recorded();
            let bytes = host.append(records);
            let (file, live) = host.journal_size();
            self.obs.ckpt.journal(file, live);
            if let Some(limit) = self.ckpt_bytes {
                self.ckpt_bytes_since += bytes;
                if self.ckpt_bytes_since >= limit {
                    self.ckpt_bytes_since = 0;
                    self.ckpt_due = true;
                }
            }
        }
        self.send(host, sends);
        self.obs.commit_records.record(written as u64);
        self.obs
            .commit_latency
            .record(host.now().saturating_sub(started));
    }

    /// Hands `sends` to the links, and marks each link's cursor with the
    /// entry its last frame took and the journal's last id: once the
    /// peer acknowledges that entry, it holds what the journal held.
    fn send(&mut self, host: &mut impl Host, sends: Vec<(SiteId, Vec<Frame>)>) {
        let last_id = host.last_id();
        for (to, tail) in host.send(sends) {
            self.cursors[to.raw() as usize].sent(tail, last_id);
        }
    }

    /// Whether a cursor record of `acked` would spare a boot a re-send
    /// the newest one would make: some peer's cursor passed an MSet
    /// this site originated. Any other move changes nothing a boot
    /// does, so no record is written for it — at a site that originates
    /// nothing, none ever is.
    fn spares_a_resend(&self, acked: &[Option<u64>]) -> bool {
        self.recorded.iter().zip(acked).any(|(from, to)| {
            let above = self.originated.partition_point(|id| Some(*id) <= *from);
            self.originated.get(above).is_some_and(|id| Some(*id) <= *to)
        })
    }

    /// Drops the originated MSets every peer's recorded cursor covers.
    fn forget_recorded(&mut self) {
        let own = self.core.site.raw() as usize;
        let peers = self.recorded.iter().enumerate().filter(|(j, _)| *j != own);
        let floor = peers.map(|(_, acked)| *acked).min().unwrap_or(Some(u64::MAX));
        while self.originated.front().is_some_and(|id| Some(*id) <= floor) {
            self.originated.pop_front();
        }
    }

    /// Advances each link's cursor past what its peer has acknowledged,
    /// and returns them by site (this site's own is `None`).
    fn acked(&mut self, host: &impl Host) -> Vec<Option<u64>> {
        let (site, last_id) = (self.core.site, host.last_id());
        let links = self.cursors.iter_mut().enumerate();
        links
            .map(|(j, cursor)| {
                let peer = SiteId(j as u64);
                (peer != site)
                    .then(|| cursor.advance(host.head(peer), last_id))
                    .flatten()
            })
            .collect()
    }

    /// Cuts a checkpoint of the core and hands it to the writer. The
    /// image holds every step made so far and names the journal's last
    /// id as its cut, so what those steps staged is written first:
    /// `covered_through` is then the last record the image contains.
    fn cut(&mut self, host: &mut impl Host) {
        self.write(host);
        self.ckpt_due = false;
        let through = host.last_id();
        let effects = self.core.step(NodeEvent::Checkpoint { through });
        self.perform(host, effects);
    }

    /// Applies the writer's report on the oldest cut it holds. An
    /// install becomes the chain's newest snapshot and retires the
    /// journal prefix the *previous* snapshot covered (lag-by-one: the
    /// newest snapshot's own prefix stays live, so a fallback to
    /// snapshot N-1 still finds its suffix) — but no further than every
    /// peer has acknowledged: a record a peer still lacks is the only
    /// copy a restart could re-send. The chain only moves forward: an
    /// install covering less than it changes nothing.
    fn apply_install(&mut self, host: &mut impl Host, report: Install) {
        let Some(cut) = self.in_flight.pop_front() else {
            return;
        };
        let (bytes, micros) = match report {
            Ok(installed) => installed,
            Err(detail) => {
                host.record(Event::CkptFailed {
                    seq: cut.seq,
                    detail,
                });
                return;
            }
        };
        if cut.covered < self.ckpt.covered {
            return;
        }
        self.obs.ckpt.installed(bytes, micros);
        host.record(Event::CkptInstall {
            seq: cut.seq,
            covered: cut.covered,
        });
        self.retire_to = self.ckpt.covered_through.or(self.retire_to);
        self.ckpt = CkptState {
            cut: self.ckpt.cut,
            ..cut
        };
        self.retire(host);
    }

    /// Retires the journal through `retire_to`, no further than every
    /// peer has acknowledged; what a lagging peer holds back is retired
    /// by a later call — the next install, or a heartbeat.
    fn retire(&mut self, host: &mut impl Host) {
        let (own, acked) = (self.core.site.raw() as usize, self.acked(host));
        let mut peers = acked.into_iter().enumerate().filter(|(j, _)| *j != own);
        let through = self
            .retire_to
            .and_then(|cut| peers.try_fold(cut, |through, (_, acked)| Some(through.min(acked?))));
        let Some(through) = through else {
            return;
        };
        if self.retire_to == Some(through) {
            self.retire_to = None;
        }
        let retired = host.retire_through(through);
        if retired > 0 {
            self.obs.ckpt.truncated(retired);
            let (bytes, live) = host.journal_size();
            self.obs.ckpt.journal(bytes, live);
            host.record(Event::CkptTruncate { through, retired });
        }
    }
}

/// Whether a step's next write is kept, spending one of a tear's
/// writes (`tear`: those left, `None` when no tear is armed).
fn keeps(tear: &mut Option<usize>) -> bool {
    let kept = *tear != Some(0);
    if let Some(left) = tear {
        *left = left.saturating_sub(1);
    }
    kept
}

/// One in-memory link: the entry the next frame takes, and the entries
/// sent on it that no arrival has acknowledged yet.
#[derive(Debug, Default)]
struct MemLink {
    next: u64,
    unacked: BTreeSet<u64>,
}

/// One site's I/O, in memory: the simulator's and the model checker's
/// [`Host`]. The journal and the snapshot containers are its durable
/// half, what [`MemHost::crash`] keeps; the rest — the links' entries
/// included — dies with the node. An arrival acknowledges an entry
/// ([`MemHost::ack`]); entries keep counting up across a crash, so an
/// acknowledgement of the previous incarnation's entry matches none.
#[derive(Debug, Default)]
pub struct MemHost {
    /// Live journal records with their ids, oldest first.
    pub(crate) journal: Vec<(u64, Record)>,
    /// The id the next record gets.
    next_id: u64,
    /// Bytes ever appended: a journal file before compaction.
    journal_bytes: u64,
    /// Snapshot containers, oldest first: the two newest are kept, so
    /// a corrupt newest falls back to the one before it.
    pub(crate) snapshots: Vec<(u64, Vec<u8>)>,
    /// Install reports the node has not taken yet.
    installs: VecDeque<Install>,
    /// Every event this incarnation recorded, stamped with the virtual
    /// time of its step.
    events: Vec<(VirtualTime, Event)>,
    /// The links, by peer.
    links: BTreeMap<SiteId, MemLink>,
    /// What the commits since the last [`MemHost::take_sent`] sent, per
    /// link, in plan order, with each frame's link entry.
    outbox: Vec<(SiteId, Vec<(u64, Frame)>)>,
    /// The virtual time of the step being taken.
    now: VirtualTime,
    /// Writes the torn step may still make (`None`: no tear armed).
    tear: Option<usize>,
}

impl MemHost {
    /// Loses what a crash loses: the event log, the links' entries, the
    /// outbox, the writer's unread reports and an armed tear.
    pub fn crash(&mut self) {
        self.events.clear();
        for link in self.links.values_mut() {
            link.unacked.clear();
        }
        self.outbox.clear();
        self.installs.clear();
        self.tear = None;
    }

    /// Tears the next step's commit: of its writes — the records of
    /// its one journal append, then its sends, in the order the node
    /// makes them — it keeps only the first `writes` and loses the rest,
    /// as a crash inside the step would. The owner crashes the host once
    /// the step is taken.
    pub fn tear(&mut self, writes: usize) {
        self.tear = Some(writes);
    }

    /// `to` took entry `entry` of its link from here.
    pub fn ack(&mut self, to: SiteId, entry: u64) {
        if let Some(link) = self.links.get_mut(&to) {
            link.unacked.remove(&entry);
        }
    }

    /// Takes what was sent since the last call, per link in plan order,
    /// each frame with its link entry.
    pub fn take_sent(&mut self) -> Vec<(SiteId, Vec<(u64, Frame)>)> {
        std::mem::take(&mut self.outbox)
    }

    /// Every event this incarnation recorded, with its virtual time.
    pub fn events(&self) -> &[(VirtualTime, Event)] {
        &self.events
    }

    /// Sets the virtual time the next writes and events are stamped
    /// with.
    pub fn set_now(&mut self, now: VirtualTime) {
        self.now = now;
    }
}

impl Host for MemHost {
    fn append(&mut self, records: Vec<Record>) -> u64 {
        // Record framing plus the wire size, per record.
        let size = |r: &Record| match r {
            Record::MSet(m) => m.wire_size(),
            Record::Decision { .. } => 10,
            Record::View(_) => 9,
            // At most: a count, then a flag and an id per site.
            Record::Cursors(acked) => 4 + 9 * acked.len() as u64,
        };
        let mut bytes = 0;
        for r in records {
            if !keeps(&mut self.tear) {
                break;
            }
            bytes += 13 + size(&r);
            self.journal.push((self.next_id, r));
            self.next_id += 1;
        }
        self.journal_bytes += bytes;
        bytes
    }

    fn journal(&self) -> io::Result<Vec<(u64, Record)>> {
        Ok(self.journal.clone())
    }

    fn last_id(&self) -> Option<u64> {
        self.next_id.checked_sub(1)
    }

    fn retire_through(&mut self, through: u64) -> u64 {
        let live = self.journal.len();
        self.journal.retain(|(id, _)| *id > through);
        (live - self.journal.len()) as u64
    }

    fn journal_size(&self) -> (u64, u64) {
        (self.journal_bytes, self.journal.len() as u64)
    }

    fn snapshots(&self) -> Vec<u64> {
        self.snapshots.iter().rev().map(|(seq, _)| *seq).collect()
    }

    fn load_snapshot(&self, seq: u64) -> Option<Vec<u8>> {
        let (_, container) = self.snapshots.iter().find(|(s, _)| *s == seq)?;
        snapshot::decode_container(container).map(|(_, payload)| payload.to_vec())
    }

    fn cut(&mut self, seq: u64, payload: Box<CkptPayload>) {
        let container = snapshot::encode_container(seq, &encode_payload(&payload));
        self.installs.push_back(Ok((container.len() as u64, 0)));
        self.snapshots.push((seq, container));
        if self.snapshots.len() > 2 {
            self.snapshots.remove(0);
        }
    }

    fn installed(&mut self, _wait: bool) -> Option<Install> {
        self.installs.pop_front()
    }

    fn send(&mut self, sends: Vec<(SiteId, Vec<Frame>)>) -> Vec<(SiteId, u64)> {
        let mut tails = Vec::new();
        for (to, frames) in sends {
            let link = self.links.entry(to).or_default();
            let mut sent = Vec::with_capacity(frames.len());
            for frame in frames {
                if !keeps(&mut self.tear) {
                    break;
                }
                sent.push((link.next, frame));
                link.unacked.insert(link.next);
                link.next += 1;
            }
            if let Some((tail, _)) = sent.last() {
                tails.push((to, *tail));
                self.outbox.push((to, sent));
            }
        }
        tails
    }

    fn head(&self, peer: SiteId) -> Option<u64> {
        self.links.get(&peer)?.unacked.first().copied()
    }

    fn record(&mut self, event: Event) {
        self.events.push((self.now, event));
    }

    fn now(&self) -> u64 {
        self.now.as_micros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctrl::Evidence;
    use esr_core::ids::ObjectId;
    use esr_core::op::{ObjectOp, Operation};

    fn incr(et: u64) -> MSet {
        let op = ObjectOp::new(ObjectId(0), Operation::Incr(1));
        MSet::new(EtId(et), SiteId(0), vec![op])
    }

    /// A COMMU-or-`method` node for `site` of `sites`, booted over `host`.
    fn boot(host: &mut MemHost, method: RtMethod, site: u64, sites: usize) -> Node {
        let obs = NodeInstruments::for_site(&MetricsRegistry::new(), method.name(), SiteId(site));
        let cfg = NodeConfig {
            site: SiteId(site),
            sites,
            method,
            epoch: 1,
            ckpt_bytes: None,
            canary: None,
        };
        Node::boot(host, cfg, SiteState::new(method, SiteId(site)), obs).unwrap()
    }

    /// Acknowledges every frame in `sent`, as its peers would.
    fn ack(host: &mut MemHost, sent: Vec<(SiteId, Vec<(u64, Frame)>)>) {
        for (to, frames) in sent {
            for (entry, _) in frames {
                host.ack(to, entry);
            }
        }
    }

    /// The MSets in `sent`, as `(peer, ets)` for each peer sent one.
    fn msets(sent: Vec<(SiteId, Vec<(u64, Frame)>)>) -> Vec<(u64, Vec<u64>)> {
        sent.into_iter()
            .map(|(to, frames)| {
                let ets = frames.into_iter().filter_map(|(_, f)| match f {
                    Frame::MSet(m) => Some(m.et.0),
                    _ => None,
                });
                (to.raw(), ets.collect::<Vec<u64>>())
            })
            .filter(|(_, ets)| !ets.is_empty())
            .collect()
    }

    /// The live journal records of one kind, by id.
    fn live(host: &MemHost, kind: fn(&Record) -> bool) -> Vec<u64> {
        host.journal.iter().filter(|(_, r)| kind(r)).map(|(id, _)| *id).collect()
    }

    /// What `host` holds of the writes a step makes, in the order the
    /// node makes them: journal records, then sends.
    fn writes(host: &mut MemHost) -> Vec<String> {
        let journal = host.journal().unwrap().into_iter();
        let records = journal.map(|(id, r)| format!("record {id} {r:?}"));
        let sent = host.take_sent().into_iter().flat_map(|(to, frames)| {
            frames.into_iter().map(move |(entry, f)| format!("{} entry {entry} {f:?}", to.raw()))
        });
        records.chain(sent).collect()
    }

    /// A step's writes: an append of three records — an MSet, a
    /// decision and a view — then three frames on two links.
    fn a_step(host: &mut MemHost) {
        let decision = Record::Decision {
            et: EtId(1),
            commit: true,
        };
        host.append(vec![Record::MSet(incr(1)), decision, Record::View(1)]);
        let mset = Frame::MSet(incr(1));
        let decision = Frame::Decision {
            et: EtId(1),
            commit: true,
        };
        host.send(vec![
            (SiteId(1), vec![mset.clone(), decision.clone()]),
            (SiteId(2), vec![mset]),
        ]);
    }

    #[test]
    fn a_boot_reseeds_each_peer_with_what_it_originated_above_the_newest_cursor_record() {
        let mut host = MemHost::default();
        let mut theirs = incr(2);
        theirs.origin = SiteId(2);
        let decision = Record::Decision {
            et: EtId(2),
            commit: false,
        };
        host.append(vec![
            Record::MSet(incr(1)),
            Record::Cursors(vec![None, None, Some(9)]),
            Record::MSet(theirs),
            decision,
            Record::Cursors(vec![None, Some(0), None]),
            Record::MSet(incr(3)),
        ]);
        boot(&mut host, RtMethod::Compe, 0, 3);
        let replayed = host.events().iter().find_map(|(_, e)| match e {
            Event::Boot { replayed, .. } => Some(*replayed),
            _ => None,
        });
        assert_eq!(replayed, Some(3), "every live MSet replays");
        let reseed = msets(host.take_sent());
        assert_eq!(reseed, [(1, vec![3]), (2, vec![1, 3])], "own records above each cursor");
    }

    #[test]
    fn a_torn_commit_keeps_exactly_its_first_writes() {
        let mut whole = MemHost::default();
        a_step(&mut whole);
        let all = writes(&mut whole);
        assert_eq!(all.len(), 6);
        for k in 0..=all.len() + 1 {
            let mut host = MemHost::default();
            host.tear(k);
            a_step(&mut host);
            assert_eq!(writes(&mut host), all[..k.min(all.len())], "torn after {k} writes");
            host.crash();
            a_step(&mut host);
            assert_eq!(host.take_sent().len(), 2, "a crash disarms the tear");
        }
    }

    /// A commit's cursor record is taken as the links stand before its
    /// append: acknowledgements of what it sends — or of what a crash
    /// tore off — are never in it, so a boot re-sends its MSets.
    #[test]
    fn a_cursor_record_covers_only_what_was_acknowledged_before_its_append() {
        let (mut host, peer) = (MemHost::default(), SiteId(1));
        let mut node = boot(&mut host, RtMethod::Commu, 0, 2);
        node.submit(&mut host, incr(1));
        node.commit(&mut host);
        let sent = host.take_sent();
        ack(&mut host, sent);
        // et2's append keeps its record and the cursor record; its send
        // is torn off, and the crash takes the node's live cursors.
        host.tear(2);
        node.submit(&mut host, incr(2));
        node.commit(&mut host);
        assert!(host.take_sent().is_empty(), "the send was torn off");
        let records: Vec<Record> = host.journal.iter().map(|(_, r)| r.clone()).collect();
        let acked = Record::Cursors(vec![None, Some(0)]);
        assert_eq!(records, [Record::MSet(incr(1)), Record::MSet(incr(2)), acked]);
        host.crash();
        boot(&mut host, RtMethod::Commu, 0, 2);
        assert_eq!(msets(host.take_sent()), [(peer.raw(), vec![2])], "the boot re-sends et2 only");
    }

    /// A cursor record is written only when it spares a boot a re-send:
    /// a site that relays what others originated records none however
    /// its links' cursors move, and records one once a peer has
    /// acknowledged an MSet of its own.
    #[test]
    fn a_cursor_record_is_written_only_past_an_originated_mset() {
        let (mut host, mut own) = (MemHost::default(), incr(4));
        own.origin = SiteId(1);
        let mut node = boot(&mut host, RtMethod::Commu, 1, 2);
        let cursors = |host: &MemHost| live(host, |r| matches!(r, Record::Cursors(_)));
        for et in 1..=3 {
            node.dispatch(&mut host, NodeEvent::PeerFrame(Frame::MSet(incr(et))));
            node.commit(&mut host);
            let sent = host.take_sent();
            assert!(!sent.is_empty(), "each apply is reported to the coordinator");
            ack(&mut host, sent);
        }
        assert!(cursors(&host).is_empty(), "a relaying site records no cursor");
        node.submit(&mut host, own);
        node.commit(&mut host);
        let sent = host.take_sent();
        ack(&mut host, sent);
        node.dispatch(&mut host, NodeEvent::PeerFrame(Frame::MSet(incr(5))));
        node.commit(&mut host);
        let newest = host.journal.last().map(|(_, r)| r.clone());
        assert_eq!(cursors(&host).len(), 1);
        assert_eq!(newest, Some(Record::Cursors(vec![Some(3), None])));
    }

    /// Lag-by-one truncation may retire a view record: the image that
    /// covers it carries the view, and boot rejoins it from there.
    #[test]
    fn a_view_whose_record_was_retired_boots_from_the_snapshot() {
        let mut host = MemHost::default();
        let mut node = boot(&mut host, RtMethod::Commu, 1, 3);
        let start_view = Frame::StartView {
            view: 3,
            evidence: Box::new(Evidence::default()),
        };
        node.dispatch(&mut host, NodeEvent::PeerFrame(start_view));
        node.commit(&mut host);
        assert_eq!(live(&host, |r| matches!(r, Record::View(3))), [0]);
        node.checkpoint(&mut host);
        let mut theirs = incr(1);
        theirs.origin = SiteId(2);
        node.dispatch(&mut host, NodeEvent::PeerFrame(Frame::MSet(theirs)));
        node.commit(&mut host);
        let sent = host.take_sent();
        ack(&mut host, sent);
        node.checkpoint(&mut host);
        assert!(live(&host, |r| matches!(r, Record::View(_))).is_empty(), "retired");
        host.crash();
        let node = boot(&mut host, RtMethod::Commu, 1, 3);
        assert_eq!(node.core().view, 3, "the image's view");
        assert_eq!(node.chain().seq, 2);
    }

    /// Truncation may retire the newest cursor record, but only through
    /// what every peer had acknowledged: boot then re-sends every live
    /// MSet that originated here, and no peer misses one.
    #[test]
    fn with_the_newest_cursor_record_retired_boot_resends_every_live_originated_mset() {
        let mut host = MemHost::default();
        let mut node = boot(&mut host, RtMethod::Commu, 0, 3);
        let mut took = vec![Vec::new(); 3];
        let commit = |node: &mut Node, host: &mut MemHost, et| {
            node.submit(host, incr(et));
            node.commit(host);
            host.take_sent()
        };
        let mut acked = |host: &mut MemHost, sent: Vec<_>| {
            for (peer, ets) in msets(Vec::clone(&sent)) {
                took[peer as usize].extend(ets);
            }
            ack(host, sent);
        };
        let et1 = commit(&mut node, &mut host, 1);
        acked(&mut host, et1);
        let et2 = commit(&mut node, &mut host, 2);
        assert_eq!(live(&host, |r| matches!(r, Record::Cursors(_))), [2], "et1 acked");
        node.checkpoint(&mut host);
        // et3's append holds no cursor record: nothing more was acked.
        commit(&mut node, &mut host, 3);
        acked(&mut host, et2);
        node.checkpoint(&mut host);
        assert!(live(&host, |r| matches!(r, Record::Cursors(_))).is_empty(), "retired");
        assert_eq!(live(&host, |r| matches!(r, Record::MSet(_))), [3], "et3 was never acked");
        host.crash();
        boot(&mut host, RtMethod::Commu, 0, 3);
        for (peer, ets) in msets(host.take_sent()) {
            took[peer as usize].extend(ets);
        }
        assert_eq!(took, [vec![], vec![1, 2, 3], vec![1, 2, 3]], "every peer has every MSet");
    }

    #[test]
    fn a_cursor_moves_only_past_what_its_link_acknowledged() {
        let mut cursor = Cursor::at(Some(3));
        cursor.sent(0, Some(5));
        cursor.sent(2, Some(9));
        assert_eq!(cursor.advance(Some(0), Some(9)), Some(3), "nothing acked yet");
        assert_eq!(cursor.advance(Some(1), Some(9)), Some(5), "the first commit acked");
        assert_eq!(cursor.advance(Some(2), Some(9)), Some(5), "the second only in part");
        assert_eq!(cursor.advance(None, Some(12)), Some(12), "an empty link is caught up");
    }

    #[test]
    fn a_peer_that_acknowledges_nothing_costs_bounded_marks() {
        let mut cursor = Cursor::default();
        let commits = 10 * MAX_MARKS as u64;
        for entry in 0..commits {
            cursor.sent(entry, Some(entry));
        }
        assert_eq!(cursor.marks.len(), MAX_MARKS);
        let early = MAX_MARKS as u64 - 1;
        assert_eq!(cursor.advance(Some(early), None), Some(early - 1));
        assert_eq!(cursor.advance(Some(commits - 1), None), Some(early - 1), "coarser, never ahead");
        assert_eq!(cursor.advance(Some(commits), None), Some(commits - 1));
    }
}

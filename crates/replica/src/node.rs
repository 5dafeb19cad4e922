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
//!
//! ## Series
//!
//! The node feeds its site's [`NodeInstruments`] by three rules, one
//! per kind: a counter is folded from an event the node records — the
//! core's and its own (boot, install, truncation) alike — through one
//! count-then-record path ([`Event::count`]); a gauge is read from the
//! node when the registry is about to be read ([`Node::publish`]); a
//! histogram is observed where the node times something.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io;
use std::sync::Arc;

use esr_core::ids::{EtId, SiteId};
/// The site's series a node reports to, which [`Node::boot`] takes.
pub use esr_obs::NodeInstruments;
use esr_sim::time::VirtualTime;
use esr_storage::snapshot;

use crate::commit::Staged;
use crate::ctrl::{CtrlCanary, Effect, NodeCore, NodeEvent, Record};
use crate::mset::MSet;
use crate::node_ckpt::{decode_payload, encode_payload, CkptPayload};
use crate::span::{publish_readings, Event};
use crate::state::{RtMethod, SiteState};
use crate::wire::Frame;

/// All of a node's I/O.
///
/// A commit is handed over by reference — [`Host::append_from`] and
/// [`Host::send_from`] drain the node's staged buffers, which it keeps
/// for the next commit. Each has a by-value twin, [`Host::append`] and
/// [`Host::send`], and each pair is defined by the other: a host
/// implements one of the two.
pub trait Host {
    /// Appends one commit's journal records, in order, in one write;
    /// returns the bytes appended. `records` is left empty.
    fn append_from(&mut self, records: &mut Vec<Record>) -> u64 {
        self.append(std::mem::take(records))
    }
    /// [`Host::append_from`] of a list the host may keep.
    fn append(&mut self, mut records: Vec<Record>) -> u64 {
        self.append_from(&mut records)
    }
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
    /// the peer acknowledges them or this site crashes, and tells `sent`,
    /// per run, the peer and the link entry its last frame took. The
    /// runs are left empty.
    fn send_from(&mut self, runs: &mut [(SiteId, Vec<Frame>)], sent: &mut dyn FnMut(SiteId, u64)) {
        let runs = runs
            .iter_mut()
            .map(|(to, frames)| (*to, std::mem::take(frames)));
        for (to, tail) in self.send(runs.collect()) {
            sent(to, tail);
        }
    }
    /// [`Host::send_from`] of runs the host may keep; returns each run's
    /// peer and last entry.
    fn send(&mut self, mut sends: Vec<(SiteId, Vec<Frame>)>) -> Vec<(SiteId, u64)> {
        let mut tails = Vec::new();
        self.send_from(&mut sends, &mut |to, tail| tails.push((to, tail)));
        tails
    }
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
    obs: Arc<NodeInstruments>,
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
        obs: Arc<NodeInstruments>,
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
        let mut reseed: Vec<(SiteId, Vec<Frame>)> = peers
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
        // What the boot records once the node is up: each image that
        // does not restore, then the boot itself. Why each did not is
        // also what a boot that cannot start says.
        let mut noted = Vec::new();
        let mut why_not = String::new();
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
                        covered: p.covered(),
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
                            let took = host.now().saturating_sub(started);
                            obs.suffix_replay_latency.record(took);
                            restored = Some((core, effects, chain, replayed));
                            break;
                        }
                        None => "method mismatch",
                    }
                }
            };
            why_not += &format!("; snapshot {seq}: {detail}");
            let detail = format!("{detail}; not restored");
            noted.push(Event::CkptFailed { seq, detail });
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
                let why =
                    format!("journal ids below {first_live} retired, no snapshot restores{why_not}");
                return Err(io::Error::new(io::ErrorKind::InvalidData, why));
            }
        };
        // Every live decision record, image or not: one passed on just
        // before the crash may not have reached the coordinator.
        recovery.extend(core.replay_decisions(decisions));
        // One account of the boot, whichever branch ran: the records
        // handed to the replay here, the `Replay` spans among the
        // recovery effects counted when they are performed below.
        noted.push(Event::Boot {
            epoch: cfg.epoch,
            snapshot: (ckpt.seq > 0).then_some((ckpt.seq, ckpt.covered)),
            replayed,
            view: core.view,
        });
        // Never re-issue a sequence number a container already claims,
        // even one that did not restore.
        ckpt.seq = ckpt.seq.max(snapshots.first().copied().unwrap_or(0));
        ckpt.cut = ckpt.seq;
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
        for event in noted {
            node.record(host, event);
        }
        node.forget_recorded();
        Self::send(&mut node.cursors, host, &mut reseed);
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

    /// Sets the site's gauges from what the node holds now: the
    /// replica's readings, the installed view, the coordinator role and
    /// the journal's size. The one publisher of those gauges, called
    /// when the registry is about to be read — never on the step or
    /// commit path.
    pub fn publish(&self, host: &impl Host) {
        publish_readings(self.core.state.site().readings(), &self.obs);
        self.obs.view.set_u64(self.core.view);
        self.obs.coordinator.set(i64::from(self.core.coord.is_some()));
        let (bytes, live) = host.journal_size();
        self.obs.journal_bytes.set_u64(bytes);
        self.obs.journal_live.set_u64(live);
    }

    /// Steps the core on `event` and performs what it returns: events
    /// and cuts at once, in order; journal records and sends are staged
    /// for the commit. A heartbeat also retires what a lagging peer held
    /// an install back from.
    pub fn dispatch(&mut self, host: &mut impl Host, event: NodeEvent) {
        let (tick, view) = (matches!(event, NodeEvent::Tick), self.core.view);
        let effects = self.core.step(event);
        self.perform(host, effects);
        if self.core.view != view {
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

    /// Records `event` on `host` once its counters are fed
    /// ([`Event::count`]): the one path of every event the node records,
    /// the core's and its own.
    fn record(&self, host: &mut impl Host, event: Event) {
        event.count(&self.obs);
        host.record(event);
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
        for effect in effects {
            let Some(now) = self.staged.stage(effect) else {
                continue;
            };
            match now {
                Effect::Checkpoint(payload) => {
                    self.ckpt.cut += 1;
                    let seq = self.ckpt.cut;
                    let (covered, covered_through) = (payload.covered(), payload.covered_through);
                    self.in_flight.push_back(CkptState {
                        seq,
                        covered,
                        covered_through,
                        cut: seq,
                    });
                    host.cut(seq, payload);
                }
                Effect::Event(event) => self.record(host, event),
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
        if !self.staged.records().is_empty() {
            // As the links stand before the append: a cursor taken after
            // it would cover this commit's records, whose sends a crash
            // may still lose.
            self.advance_cursors(host);
            if self.spares_a_resend() {
                let acked: Vec<Option<u64>> = self.acked().collect();
                self.recorded.clone_from(&acked);
                self.staged.stage(Effect::Record(Record::Cursors(acked)));
            }
            let (site, next) = (self.core.site, host.last_id().map_or(0, |id| id + 1));
            let records = self.staged.records().iter().zip(next..);
            let own = records.filter_map(|(record, id)| {
                matches!(record, Record::MSet(m) if m.origin == site).then_some(id)
            });
            self.originated.extend(own);
            self.forget_recorded();
            let bytes = host.append_from(self.staged.plan().0);
            if let Some(limit) = self.ckpt_bytes {
                self.ckpt_bytes_since += bytes;
                if self.ckpt_bytes_since >= limit {
                    self.ckpt_bytes_since = 0;
                    self.ckpt_due = true;
                }
            }
        }
        Self::send(&mut self.cursors, host, self.staged.plan().1);
        self.staged.clear();
        self.obs.commit_records.record(written as u64);
        self.obs
            .commit_latency
            .record(host.now().saturating_sub(started));
    }

    /// Hands `runs` to the links, and marks each link's cursor with the
    /// entry its last frame took and the journal's last id: once the
    /// peer acknowledges that entry, it holds what the journal held.
    fn send(cursors: &mut [Cursor], host: &mut impl Host, runs: &mut [(SiteId, Vec<Frame>)]) {
        let last_id = host.last_id();
        host.send_from(runs, &mut |to, tail| {
            cursors[to.raw() as usize].sent(tail, last_id)
        });
    }

    /// Whether a cursor record of the links' cursors now would spare a
    /// boot a re-send the newest one would make: some peer's cursor
    /// passed an MSet this site originated. Any other move changes
    /// nothing a boot does, so no record is written for it — at a site
    /// that originates nothing, none ever is.
    fn spares_a_resend(&self) -> bool {
        self.recorded.iter().zip(self.acked()).any(|(from, to)| {
            let above = self.originated.partition_point(|id| Some(*id) <= *from);
            self.originated.get(above).is_some_and(|id| Some(*id) <= to)
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

    /// Advances each link's cursor past what its peer has acknowledged.
    fn advance_cursors(&mut self, host: &impl Host) {
        let (site, last_id) = (self.core.site, host.last_id());
        for (j, cursor) in self.cursors.iter_mut().enumerate() {
            let peer = SiteId(j as u64);
            if peer != site {
                cursor.advance(host.head(peer), last_id);
            }
        }
    }

    /// The links' cursors by site, as [`Node::advance_cursors`] left
    /// them (this site's own is `None`).
    fn acked(&self) -> impl Iterator<Item = Option<u64>> + '_ {
        let own = self.core.site.raw() as usize;
        let cursors = self.cursors.iter().enumerate();
        cursors.map(move |(j, cursor)| if j == own { None } else { cursor.acked })
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
                let seq = cut.seq;
                self.record(host, Event::CkptFailed { seq, detail });
                return;
            }
        };
        if cut.covered < self.ckpt.covered {
            return;
        }
        self.obs.checkpoint_bytes.set_u64(bytes);
        self.obs.checkpoint_latency.record(micros);
        let (seq, covered) = (cut.seq, cut.covered);
        self.record(host, Event::CkptInstall { seq, covered });
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
        self.advance_cursors(host);
        let own = self.core.site.raw() as usize;
        let through = self.retire_to.and_then(|cut| {
            let mut peers = self.acked().enumerate().filter(|(j, _)| *j != own);
            peers.try_fold(cut, |through, (_, acked)| Some(through.min(acked?)))
        });
        let Some(through) = through else {
            return;
        };
        if self.retire_to == Some(through) {
            self.retire_to = None;
        }
        let retired = host.retire_through(through);
        if retired > 0 {
            self.record(host, Event::CkptTruncate { through, retired });
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
    fn append_from(&mut self, records: &mut Vec<Record>) -> u64 {
        // Record framing plus the wire size, per record.
        let size = |r: &Record| match r {
            Record::MSet(m) => m.wire_size(),
            Record::Decision { .. } => 10,
            Record::View(_) => 9,
            // At most: a count, then a flag and an id per site.
            Record::Cursors(acked) => 4 + 9 * acked.len() as u64,
        };
        let mut bytes = 0;
        for r in records.drain(..) {
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

    fn send_from(&mut self, runs: &mut [(SiteId, Vec<Frame>)], sent: &mut dyn FnMut(SiteId, u64)) {
        for (to, frames) in runs {
            let link = self.links.entry(*to).or_default();
            let mut run = Vec::with_capacity(frames.len());
            for frame in frames.drain(..) {
                if !keeps(&mut self.tear) {
                    break;
                }
                run.push((link.next, frame));
                link.unacked.insert(link.next);
                link.next += 1;
            }
            if let Some((tail, _)) = run.last() {
                sent(*to, *tail);
                self.outbox.push((*to, run));
            }
        }
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
    use crate::ckpt::SiteCkpt;
    use crate::ctrl::Evidence;
    use crate::mset::OrderTag;
    use esr_core::ids::{ObjectId, SeqNo};
    use esr_core::op::{ObjectOp, Operation};
    use esr_obs::MetricsRegistry;

    fn incr(et: u64) -> MSet {
        let op = ObjectOp::new(ObjectId(0), Operation::Incr(1));
        MSet::new(EtId(et), SiteId(0), vec![op])
    }

    /// A COMMU-or-`method` node for `site` of `sites`, booted over `host`.
    fn boot(host: &mut MemHost, method: RtMethod, site: u64, sites: usize) -> Node {
        try_boot(host, method, site, sites).unwrap()
    }

    /// [`boot`], returning its error.
    fn try_boot(host: &mut MemHost, method: RtMethod, site: u64, sites: usize) -> io::Result<Node> {
        let obs = NodeInstruments::for_site(&MetricsRegistry::new(), method.name(), SiteId(site));
        let cfg = NodeConfig {
            site: SiteId(site),
            sites,
            method,
            epoch: 1,
            ckpt_bytes: None,
            canary: None,
        };
        Node::boot(host, cfg, SiteState::new(method, SiteId(site)), obs)
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

    /// An ORDUP image holding back an MSet without a sequence stamp
    /// does not decode: boot records the failure and restores the image
    /// before it, where a restore of the bad one would have panicked.
    #[test]
    fn an_ordup_image_holding_an_unsequenced_mset_falls_back_to_the_one_before() {
        let mut host = MemHost::default();
        let mut node = boot(&mut host, RtMethod::Ordup, 1, 3);
        let from_peer = |et: u64, seq: u64| {
            let mut m = incr(et).sequenced(SeqNo(seq));
            m.origin = SiteId(2);
            NodeEvent::PeerFrame(Frame::MSet(m))
        };
        node.dispatch(&mut host, from_peer(1, 0));
        node.commit(&mut host);
        node.checkpoint(&mut host);
        // Sequence 1 never arrives: ET 3 is held back in the next image.
        node.dispatch(&mut host, from_peer(3, 2));
        node.commit(&mut host);
        node.checkpoint(&mut host);
        let (seq, container) = host.snapshots.pop().expect("two images");
        let (_, bytes) = snapshot::decode_container(&container).expect("container");
        let mut payload = decode_payload(bytes).expect("image");
        let SiteCkpt::Ordup(image) = &mut payload.site else {
            panic!("an ORDUP image")
        };
        image.holdback[0].order = OrderTag::Unordered;
        host.snapshots.push((seq, snapshot::encode_container(seq, &encode_payload(&payload))));
        host.crash();
        let node = boot(&mut host, RtMethod::Ordup, 1, 3);
        let events: Vec<&Event> = host.events().iter().map(|(_, e)| e).collect();
        assert!(events.iter().any(|e| matches!(e, Event::CkptFailed { seq: 2, .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::Boot { snapshot: Some((1, 1)), .. })));
        assert!(node.core().state.site().has_applied(EtId(1)));
        assert_eq!(node.core().state.site().backlog(), 1, "ET 3, from the journal past the older cut");
    }

    /// Over a journal a checkpoint truncated, a boot with no snapshot
    /// that restores fails — and says of each container why it did not.
    #[test]
    fn no_usable_snapshot_over_a_truncated_journal_is_a_boot_error() {
        let mut host = MemHost::default();
        let mut node = boot(&mut host, RtMethod::Commu, 0, 1);
        for et in 1..=3 {
            node.submit(&mut host, incr(et));
            node.commit(&mut host);
            node.checkpoint(&mut host);
        }
        assert!(host.journal.first().is_some_and(|(id, _)| *id > 0), "truncated");
        for (seq, container) in &mut host.snapshots {
            *container = snapshot::encode_container(*seq, b"not a payload");
        }
        let seqs: Vec<u64> = host.snapshots.iter().map(|(seq, _)| *seq).collect();
        assert!(!seqs.is_empty());
        host.crash();
        let Err(err) = try_boot(&mut host, RtMethod::Commu, 0, 1) else {
            panic!("boot must fail")
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        for seq in seqs {
            let why = format!("snapshot {seq}: undecodable");
            assert!(err.to_string().contains(&why), "{err} does not say {why}");
        }
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

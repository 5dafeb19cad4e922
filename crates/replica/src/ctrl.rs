//! The pure control-plane core shared by every executor: the
//! simulator's [`crate::cluster::SimCluster`], the `esrd` daemon of
//! `esr-runtime`, and the `esr-model` checker.
//!
//! Everything a site does to protocol state — journal append +
//! replay, coordinator completion/VTNC/decision tracking, view-change
//! elections, wire-frame handling, boot recovery — is expressed here as
//! side-effect-free transitions: [`NodeCore::step`] consumes one
//! [`NodeEvent`] and returns the ordered list of [`Effect`]s it
//! implies. The daemon executes those effects against the real world
//! (the journal file, at-least-once TCP links, the esr-obs event ring); the
//! simulator executes them against a virtual-time network that drops,
//! duplicates and *reorders*, and an in-memory journal it crashes and
//! restarts sites from; the model checker in `crates/check`
//! executes them against in-memory FIFO queues and explores every
//! interleaving. Because all three run *this* code, the experiments,
//! the daemon and the model cannot drift (DESIGN.md §14). The core
//! lives in `esr-replica` so the simulator can own it; `esr-runtime`
//! re-exports this module under its historical path.
//!
//! ## The coordinator is elected, not fixed
//!
//! The coordinator of view `v` is site `v % sites`; view 0 puts it on
//! site 0, matching the pre-failover deployments. When the coordinator
//! stops answering heartbeats ([`Frame::Ping`] counted by
//! [`NodeEvent::Tick`]s — the core only ever sees tick *counts*, never
//! a clock, so the lint's determinism scope holds), any site starts a
//! Viewstamped-Replication-style change (DESIGN.md §15):
//! `StartViewChange(v+1)` → majority → `DoViewChange` carrying local
//! control evidence to the new coordinator → majority → `StartView`
//! broadcast with merged evidence. An installed view is journalled
//! ([`Record::View`]) *before* any frame of the new view is sent, and
//! every site re-announces its applied ETs to the new coordinator, so
//! completion evidence survives the handoff.
//!
//! ## Each control-plane fact is stored once
//!
//! What a site has *learned* — completion notices, COMPE decisions, the
//! VTNC horizon — lives in one [`Evidence`] ledger per [`NodeCore`].
//! That one value is the idempotency guard for re-broadcast control
//! frames, the coordinator's "already broadcast" guard, the payload of
//! `DoViewChange` / `StartView` (a handoff is a union of ledgers, a
//! `Hello` is answered with the ledger) and the control section of a
//! checkpoint. [`CoordCore`] keeps only what no other site could tell
//! it: apply reports still short of a quorum and the RITU-MV
//! dense-prefix scan. Hold-back is likewise single-owned, by the method
//! state machine: [`crate::site::ReplicaSite::deliver`] *returns* what
//! a delivery did and lists what it applied, in its store's order, and
//! the core emits its events and `Applied` reports from that — it never
//! probes the site or mirrors its queue. What the replica applied is
//! the site's to keep too: the re-announcement to a new coordinator
//! reads it back ([`crate::site::ReplicaSite::applies`]) instead of a
//! copy the core would keep. And so is what is new: the core journals an arriving
//! MSet unless the site reports it as a [`Delivered::Duplicate`], and
//! keeps no set of journalled ETs beside the replica's own guard.
//!
//! ## Effect ordering is part of the contract
//!
//! Effects must be executed in the order returned, except that every
//! send waits for the step's journal records: [`Effect::Record`] is
//! the core's one durable effect ([`Effect::Journal`] its MSet form),
//! the journal a site's one durable log,
//! and its links are in-memory queues a crash empties. An MSet a site
//! originated survives in its journal, which re-seeds the links at
//! boot; a control frame dies with the queue, so each kind is one that
//! recovery re-derives (`Applied` re-announced, completions and VTNC
//! re-certified, view state re-sent on every `Hello`) — except a COMPE
//! decision, which a site journals ([`Record::Decision`]) before it
//! passes the decision on and replays at boot. The daemon acknowledges
//! an inbound envelope only after every effect of its step has been
//! executed — that is the write-ahead discipline that makes a `kill -9`
//! at any point safe: whatever was acked is journalled, whatever wasn't
//! acked will be retransmitted by the peer. The same rule covers a view
//! record: a view is durable before the first send that presumes it.
//! An executor may batch as long as those edges hold: `esrd` stages
//! the journal records and sends of a whole reactor cycle and writes
//! the records in one append, then hands the sends to the links, and
//! acknowledges nothing of the cycle before that
//! (`esr_runtime::commit`, DESIGN.md §13.1).
//!
//! ## One observational effect per protocol point
//!
//! [`Effect::Event`] is the only observational effect, and each
//! protocol point pushes exactly one: the typed
//! [`crate::span::Event`] *is* the record — the apply span the
//! timeline merges is the apply the trace certifier checks. Events
//! carry no protocol meaning: an executor may stamp and keep them (the
//! daemon, the simulator), keep them unstamped (the model) or drop
//! them, and must never derive a reply or a decision from one.
//!
//! ## Seeded defects
//!
//! [`CtrlCanary`] enumerates the control-plane defect classes the
//! model checker must prove it can catch before a clean sweep counts
//! (the PR-2 canary discipline, applied to this layer). Production
//! daemons always run with `canary = None`; the variants exist so the
//! checker can validate its own oracles.

use std::collections::{BTreeMap, BTreeSet, HashSet};

use esr_core::ids::{ClientId, EtId, LamportTs, SeqNo, SiteId, VersionTs};
use crate::mset::MSet;
use crate::node_ckpt::CkptPayload;
use crate::site::{Delivered, Released};
use crate::span::{Event, SpanRec, SpanStage};
use crate::state::{RtMethod, SiteState};
use crate::wire::Frame;

/// One input to a site's control-plane state machine.
#[derive(Debug, Clone)]
pub enum NodeEvent {
    /// A frame delivered on the peer plane (a link).
    PeerFrame(Frame),
    /// A client submitted a fully-stamped update MSet at this site,
    /// which the core makes its origin.
    ClientSubmit(MSet),
    /// A client issued a COMPE commit/abort decision at this site.
    ClientDecision {
        /// The decided ET.
        et: EtId,
        /// `true` = commit, `false` = abort (compensate).
        commit: bool,
    },
    /// One heartbeat interval elapsed. The daemon's reactor timer is the
    /// only clock the protocol ever sees: the coordinator pings on each
    /// tick, a follower counts ticks since the last coordinator ping
    /// and starts a view change after [`SUSPECT_AFTER`] silent ones.
    /// The model checker never schedules `Tick` — it injects
    /// [`NodeEvent::SuspectCoordinator`] directly so elections are
    /// explored without modelling time.
    Tick,
    /// Declare the current coordinator failed and start a view change
    /// (the model checker's time-free stand-in for a run of silent
    /// ticks).
    SuspectCoordinator,
    /// Cut a checkpoint of this node's current state. `through` is the
    /// journal entry-id high-water mark the caller observed just before
    /// the cut (the daemon reads it from the journal file;
    /// the model, which has no entry ids, passes `None`). The cut
    /// itself is pure: it returns an [`Effect::Checkpoint`] carrying
    /// the payload, and the executor decides where it lands.
    Checkpoint {
        /// Journal high-water [`esr_storage::stable_queue::EntryId`]
        /// covered by this cut, or `None` when ids are not meaningful.
        through: Option<u64>,
    },
    /// A Lamport heartbeat from `origin` carrying its clock: raises the
    /// ORDUP-L stability horizon, and the step applies — and traces —
    /// whatever that releases (nothing, for the other methods). A site
    /// uses the beat only once it has reassembled the `sent` MSets the
    /// origin sent before it, in FIFO order: until then an earlier MSet
    /// of the origin may still arrive below the beat's clock. The
    /// simulator beats once per origin at quiescence.
    Heartbeat {
        /// The origin the beat speaks for.
        origin: SiteId,
        /// How many MSets `origin` had sent when it beat: its FIFO count.
        sent: SeqNo,
        /// A clock strictly past every timestamp `origin` issued.
        ts: LamportTs,
    },
}

/// One side effect implied by a step, to be executed in order.
#[derive(Debug, Clone)]
pub enum Effect {
    /// Append this record to the durable write-ahead journal, the
    /// site's one durable effect: a COMPE decision taken on (the step
    /// then passes it on over a link a crash empties, and the boot
    /// after such a crash replays it, [`NodeCore::replay_decisions`])
    /// or an installed view — an accepted MSet arrives as
    /// [`Effect::Journal`]. Written before any `Send` of the same step
    /// (write-ahead) — so no frame of a view can be observed before the
    /// view itself would survive a crash — and the step's inbound
    /// envelope may be acknowledged only after it is durable.
    Record(Record),
    /// Append this accepted MSet to the journal: [`Effect::Record`] of
    /// a [`Record::MSet`], under the name the benchmark's probe compiles
    /// against (`benchmark/README.md`, "Pinned public surface"), whose
    /// executor journals this variant alone.
    Journal(MSet),
    /// Enqueue a frame on the at-least-once link to `to`.
    Send {
        /// Target site.
        to: SiteId,
        /// The frame to deliver.
        frame: Frame,
    },
    /// Persist this checkpoint image (atomic snapshot install in the
    /// daemon, an in-memory register in the model). Boxed: a payload
    /// carries the whole replica image and would otherwise dominate the
    /// size of every `Effect`.
    Checkpoint(Box<CkptPayload>),
    /// Record one typed event: an ET lifecycle hop ([`SpanRec`]) or a
    /// control-plane note. Non-durable and purely observational: the
    /// daemon stamps it with wall-clock micros and appends it to its
    /// bounded event ring, the simulator stamps it with virtual time,
    /// the model checker keeps it as certifier food. Never carries protocol meaning —
    /// dropping every `Event` effect must leave behaviour unchanged.
    Event(Event),
}

/// Seeded control-plane defects for checker self-tests. Production
/// daemons always run `None`; each variant plants one historical bug
/// class the `esr-model` explorer must expose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtrlCanary {
    /// Recovery replays the journal but "forgets" to re-announce the
    /// recovered applies, so completion evidence that died with the
    /// previous incarnation's un-enqueued `Applied` report is lost
    /// forever and the cluster never settles.
    LostCompletionOnRestart,
    /// Recovery re-applies the final journal entry a second time
    /// (bypassing the replica's duplicate guard, as if the replay cursor
    /// double-counted the tail record), silently diverging the replica.
    DoubleReplayedSuffix,
    /// The coordinator certifies a VTNC horizon after the *first*
    /// install report instead of waiting for all `n` sites, publishing
    /// a visibility horizon that uninstalled sites then violate.
    StaleVtncCert,
    /// A replayed/duplicate COMPE commit decision re-applies the
    /// decided update instead of being absorbed idempotently.
    DecisionReplayReapplies,
    /// The coordinator pins each peer's first-seen Hello epoch and
    /// treats any other epoch as a stale reordering, so a restarted
    /// incarnation (epoch+1) never receives the control snapshot it
    /// needs to recover lost completions.
    HelloEpochPinned,
    /// An ex-coordinator keeps its coordinator role when told about a
    /// newer view (`StartView` fails to demote it), leaving two live
    /// coordinators certifying concurrently — the split-brain the
    /// at-most-one-coordinator oracle must expose.
    SplitBrainCoordinator,
    /// The coordinator installing a new view leaves its own applies out
    /// of the new coordinator's count, so completions whose broadcast
    /// died with the old coordinator are never re-driven and the
    /// cluster never settles.
    HandoffDropsCompletions,
    /// A site passes a decision on without journalling it, leaving it
    /// only in the in-memory link queue: a crash before the frame is
    /// delivered loses a decision its client was already told about,
    /// and the decided ET is never resolved.
    VolatileDecision,
}

/// One journal record ([`Effect::Record`]): an MSet the site
/// accepted, a decision it took on, a view it installed, or what its
/// links had acknowledged — the executor's own record, which the core
/// never returns.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// An accepted MSet.
    MSet(MSet),
    /// A COMPE decision.
    Decision {
        /// The decided ET.
        et: EtId,
        /// `true` = commit, `false` = abort.
        commit: bool,
    },
    /// An installed view: boot rejoins the newest one recorded.
    View(u64),
    /// By site, the journal id through which that peer had acknowledged
    /// every record it was sent from here (`None`: not even the first;
    /// this site's own slot is always `None`). Boot re-sends the
    /// originated MSets above the newest one.
    Cursors(Vec<Option<u64>>),
}

/// Which site coordinates view `view` in an `n`-site cluster. View 0
/// maps to site 0, preserving every pre-failover deployment.
pub fn coordinator_of(view: u64, sites: usize) -> SiteId {
    SiteId(view % sites as u64)
}

/// Heartbeat ticks a follower tolerates without a coordinator ping
/// before suspecting it (also the stall budget for an in-progress view
/// change before escalating to the next view). The daemon ticks every
/// ~250ms, so this is ~3s of silence — comfortably above link connect
/// backoff on a loaded CI machine, far below test quiesce budgets.
pub const SUSPECT_AFTER: u32 = 12;

/// An insertion-ordered map keyed by ET: first-seen order for the wire
/// and the checkpoint, constant-time membership for the dedup guards.
#[derive(Debug, Clone, Default, PartialEq)]
struct Seen<V> {
    order: Vec<(EtId, V)>,
    index: HashSet<EtId>,
}

impl<V> Seen<V> {
    /// Records `et -> v` unless `et` is already known; `true` = news.
    fn insert(&mut self, et: EtId, v: V) -> bool {
        let news = self.index.insert(et);
        if news {
            self.order.push((et, v));
        }
        news
    }
}

/// The control-plane ledger: every coordination result a site has
/// learned — completion notices and COMPE decisions in first-seen
/// order, and the furthest VTNC horizon. A [`NodeCore`] owns exactly
/// one; the same value is the payload of `DoViewChange` / `StartView`
/// and the control section of a checkpoint, so each fact is stored once
/// and a coordinator handoff is a union of ledgers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Evidence {
    completed: Seen<()>,
    decisions: Seen<bool>,
    vtnc: Option<VersionTs>,
}

impl Evidence {
    /// Records that `et` completed; `true` when that is news.
    pub fn complete(&mut self, et: EtId) -> bool {
        self.completed.insert(et, ())
    }

    /// Records the decision for `et` (the first outcome seen stands);
    /// `true` when that is news.
    pub fn decide(&mut self, et: EtId, commit: bool) -> bool {
        self.decisions.insert(et, commit)
    }

    /// Raises the VTNC horizon to `ts`; `true` when it advanced.
    pub fn advance_vtnc(&mut self, ts: VersionTs) -> bool {
        let news = self.vtnc.is_none_or(|m| ts > m);
        if news {
            self.vtnc = Some(ts);
        }
        news
    }

    /// Union: absorbs everything `other` knows, keeping this ledger's
    /// first-seen order and appending what is new in `other`'s order.
    /// Idempotent; `true` when anything was news.
    pub fn absorb(&mut self, other: &Evidence) -> bool {
        let mut news = false;
        for et in other.completed() {
            news |= self.complete(et);
        }
        for (et, commit) in other.decisions() {
            news |= self.decide(et, commit);
        }
        if let Some(ts) = other.vtnc {
            news |= self.advance_vtnc(ts);
        }
        news
    }

    /// Completed ETs in first-seen order.
    pub fn completed(&self) -> impl ExactSizeIterator<Item = EtId> + '_ {
        self.completed.order.iter().map(|&(et, ())| et)
    }

    /// COMPE decisions `(et, commit)` in first-seen order.
    pub fn decisions(&self) -> impl ExactSizeIterator<Item = (EtId, bool)> + '_ {
        self.decisions.order.iter().copied()
    }

    /// The furthest VTNC horizon seen.
    pub fn vtnc(&self) -> Option<VersionTs> {
        self.vtnc
    }

    /// Has `et`'s completion been seen?
    pub fn is_completed(&self, et: EtId) -> bool {
        self.completed.index.contains(&et)
    }

    /// Has a decision for `et` been seen?
    pub fn is_decided(&self, et: EtId) -> bool {
        self.decisions.index.contains(&et)
    }
}

/// What only the coordinator of the current view keeps: the apply
/// reports still short of a quorum and the RITU-MV dense-prefix scan.
/// Every *result* — completions, decisions, the certified horizon —
/// lives in the owning node's [`Evidence`] ledger, which the
/// coordinator reads as its dedup guard.
#[derive(Debug)]
pub struct CoordCore {
    n: usize,
    method: RtMethod,
    /// Per-ET apply evidence: which sites reported, and the max
    /// timestamped-write version seen (for VTNC).
    counts: BTreeMap<EtId, (HashSet<SiteId>, Option<VersionTs>)>,
    /// VTNC certification: fully-installed version times awaiting the
    /// dense-prefix scan (the version clock hands out 1, 2, 3, …).
    fully_installed: BTreeMap<u64, VersionTs>,
    /// The version time the scan certifies next: every time below it
    /// is certified.
    next_time: u64,
    /// First Hello epoch seen per site — only consulted by the
    /// [`CtrlCanary::HelloEpochPinned`] defect.
    greeted: BTreeMap<SiteId, u64>,
    canary: Option<CtrlCanary>,
}

impl CoordCore {
    /// A fresh coordinator for an `n`-site cluster.
    pub fn new(n: usize, method: RtMethod, canary: Option<CtrlCanary>) -> Self {
        Self {
            n,
            method,
            counts: BTreeMap::new(),
            fully_installed: BTreeMap::new(),
            next_time: 1,
            greeted: BTreeMap::new(),
            canary,
        }
    }

    /// Absorbs one apply report against the node's `ledger`; returns
    /// the control broadcast it triggers, if any.
    pub fn on_applied(
        &mut self,
        ledger: &Evidence,
        site: SiteId,
        et: EtId,
        version: Option<VersionTs>,
    ) -> Option<Frame> {
        // Late or duplicate reports (redelivery, restart and handoff
        // re-announcements) for a finished ET are dropped here.
        if !self.method.tracks_completion() || ledger.is_completed(et) {
            return None;
        }
        // RITU-MV mints no `Complete`, so the ledger cannot absorb its
        // late reports; their version does. One without a version
        // certifies nothing, and one whose version is certified (by
        // this scan or the ledger's horizon) or fully installed is
        // stale: it counts nothing, but a horizon learned from another
        // coordinator may have closed the gap a fully installed
        // version waits behind, so the scan runs.
        let known = |v: VersionTs| {
            v.time < self.next_time
                || ledger.vtnc().is_some_and(|h| v.time <= h.time)
                || self.fully_installed.contains_key(&v.time)
        };
        if self.method == RtMethod::RituMv && version.is_none_or(known) {
            return self.scan(ledger);
        }
        let e = self.counts.entry(et).or_insert_with(|| (HashSet::new(), None));
        e.0.insert(site);
        e.1 = e.1.max(version);
        // The StaleVtncCert defect certifies off the first report.
        let quorum = if self.canary == Some(CtrlCanary::StaleVtncCert)
            && self.method == RtMethod::RituMv
        {
            1
        } else {
            self.n
        };
        if e.0.len() < quorum {
            return None;
        }
        let version = self.counts.remove(&et).and_then(|(_, v)| v);
        if self.method != RtMethod::RituMv {
            return Some(Frame::Complete { et });
        }
        let installed = version?;
        self.fully_installed.insert(installed.time, installed);
        self.scan(ledger)
    }

    /// The dense-prefix scan: certifies the run of fully installed
    /// versions from `next_time` on. It never runs behind the ledger's
    /// horizon (a handoff's merged evidence, a stale coordinator's
    /// broadcast), so certification never moves backwards.
    fn scan(&mut self, ledger: &Evidence) -> Option<Frame> {
        self.next_time = self.next_time.max(ledger.vtnc().map_or(1, |h| h.time + 1));
        let mut horizon = None;
        while let Some(v) = self.fully_installed.remove(&self.next_time) {
            horizon = Some(v);
            self.next_time += 1;
        }
        horizon.map(|ts| Frame::Vtnc { ts })
    }

    /// Should this Hello be answered with a control snapshot? Always,
    /// except under the [`CtrlCanary::HelloEpochPinned`] defect, which
    /// pins the first epoch seen per site and treats every other epoch
    /// as a stale reordering.
    fn answer_hello(&mut self, site: SiteId, epoch: u64) -> bool {
        if self.canary != Some(CtrlCanary::HelloEpochPinned) {
            return true;
        }
        let pinned = *self.greeted.entry(site).or_insert(epoch);
        pinned == epoch
    }
}

/// The event effect for one lifecycle hop.
fn span(rec: SpanRec) -> Effect {
    Effect::Event(Event::Span(rec))
}

/// A synthetic ET id used by canaries that re-apply an update under a
/// fresh identity (bypassing per-ET idempotency guards), far outside
/// any id a workload would mint.
const CANARY_ET_BIT: u64 = 1 << 60;

/// One site's complete control-plane state machine: the replica state
/// (which decides what is new), the view-change election machine, and (on
/// the current view's coordinator) the coordinator core. All protocol
/// logic of the `esrd` daemon lives here, as pure transitions.
#[derive(Debug)]
pub struct NodeCore {
    /// This site's id.
    pub site: SiteId,
    /// Total number of sites in the cluster.
    pub sites: usize,
    /// The replica control method in force.
    pub method: RtMethod,
    /// The replica state machine.
    pub state: SiteState,
    /// Completion/certification state; `Some` exactly when this site is
    /// `coordinator_of(view, sites)` (the split-brain canary breaks
    /// this invariant on purpose).
    pub coord: Option<CoordCore>,
    /// The currently installed view (durable as a [`Record::View`]).
    pub view: u64,
    /// Every completion, COMPE decision and VTNC horizon this site has
    /// seen — the idempotency guard for redelivered or re-broadcast
    /// control frames, the coordinator's dedup guard, and what
    /// `DoViewChange`, `StartView` and checkpoints carry.
    evidence: Evidence,
    /// Exactly-once client dedup: `(client, request seq) -> et`.
    /// Rebuilt from the journal on recovery, so a retried submit after
    /// a crash or failover returns the original ET instead of applying
    /// twice.
    client_table: BTreeMap<(u64, u64), EtId>,
    /// Ticks since the last ping from the current view's coordinator.
    missed_pings: u32,
    /// The view this site is currently electing (`0` = none pending;
    /// always `> view` when pending).
    vc_target: u64,
    /// Sites (including self) seen to start the pending view change.
    svc_from: BTreeSet<SiteId>,
    /// Peers' `DoViewChange` ledgers collected by the pending view's
    /// coordinator-to-be, keyed by sender.
    dvc: BTreeMap<SiteId, Evidence>,
    /// Whether this site already sent its `DoViewChange` for
    /// `vc_target` — or, as the coordinator-to-be, cast it (its own
    /// ledger is the vote).
    dvc_sent: bool,
    /// Ticks the pending view change has been stalled (escalates to
    /// `vc_target + 1` when the coordinator-to-be is dead too).
    vc_ticks: u32,
    /// This view's coordinator has greeted us from a reboot (`Hello`
    /// epoch past 1): what it broadcast before dying it has forgotten,
    /// and its `Hello` may have overtaken it on the way here, so every
    /// decision learned from now on is echoed back to it.
    coordinator_rebooted: bool,
    /// What the site applied in the delivery or beat under way, in its
    /// store's order: lent to each `deliver` / `heartbeat`, emptied once
    /// traced and kept, so listing applies allocates nothing once it
    /// has grown.
    applies: Vec<Released>,
    /// Journalled MSets stashed for canary re-application (empty unless
    /// a canary that re-applies updates is armed).
    canary_msets: BTreeMap<EtId, MSet>,
    canary: Option<CtrlCanary>,
}

impl NodeCore {
    /// A fresh core around an already-prepared replica state (the
    /// caller attaches metrics first so recovery replays are
    /// observable).
    pub fn fresh(
        state: SiteState,
        method: RtMethod,
        site: SiteId,
        sites: usize,
        canary: Option<CtrlCanary>,
    ) -> Self {
        Self::fresh_at_view(state, method, site, sites, canary, 0)
    }

    /// A fresh core that boots directly into `view` (recovery passes
    /// the durably recorded view here; a cold boot passes 0). The site
    /// assumes the coordinator role exactly when the view maps to it.
    pub fn fresh_at_view(
        state: SiteState,
        method: RtMethod,
        site: SiteId,
        sites: usize,
        canary: Option<CtrlCanary>,
        view: u64,
    ) -> Self {
        let coord = (coordinator_of(view, sites) == site)
            .then(|| CoordCore::new(sites, method, canary));
        Self {
            site,
            sites,
            method,
            state,
            coord,
            view,
            evidence: Evidence::default(),
            client_table: BTreeMap::new(),
            missed_pings: 0,
            vc_target: 0,
            svc_from: BTreeSet::new(),
            dvc: BTreeMap::new(),
            dvc_sent: false,
            vc_ticks: 0,
            coordinator_rebooted: false,
            applies: Vec::new(),
            canary_msets: BTreeMap::new(),
            canary,
        }
    }

    /// Boot-time recovery: [`NodeCore::restore`] from the blank image —
    /// `state`, no client table, no evidence — with the whole
    /// write-ahead journal as its suffix. Returns the core plus the
    /// effects to execute — the same path for the real daemon and the
    /// model's crash transitions.
    pub fn recover(
        state: SiteState,
        method: RtMethod,
        site: SiteId,
        sites: usize,
        canary: Option<CtrlCanary>,
        view: u64,
        journal: Vec<MSet>,
    ) -> (Self, Vec<Effect>) {
        Self::fresh_at_view(state, method, site, sites, canary, view).boot(None, &journal)
    }

    /// Consumes one event, mutates the core, and returns the ordered
    /// effects to execute. This is the daemon's whole protocol brain.
    /// Every transition below pushes onto the one list a step returns.
    pub fn step(&mut self, event: NodeEvent) -> Vec<Effect> {
        let mut fx = Vec::new();
        match event {
            NodeEvent::PeerFrame(frame) => self.on_peer_frame(frame, &mut fx),
            NodeEvent::ClientSubmit(mut mset) => {
                // Exactly-once: a retried submit (same client, same
                // request seq) is answered from the client table — no
                // journal write, no fan-out, no double apply. The
                // daemon replies with the cached ET, byte-identical to
                // the original SubmitOk.
                if let Some((cid, cseq)) = mset.client {
                    if let Some(et) = self.cached_et(cid, cseq) {
                        fx.push(Effect::Event(Event::DuplicateSubmit {
                            client: cid,
                            seq: cseq,
                            et,
                        }));
                        return fx;
                    }
                }
                // The site a submit arrives at is its origin, whatever
                // the client stamped: a boot re-sends exactly the
                // journalled MSets this site originated.
                mset.origin = self.site;
                // Fan the update out to every peer over the links, then
                // absorb it locally (journal + apply + report). The
                // submit span marks the trace root; one enqueue span per
                // peer marks each link hand-off.
                let t0 = mset.t0;
                fx.push(span(
                    SpanRec::new(SpanStage::Submit, mset.et)
                        .with_gseq(mset.gseq())
                        .with_t0(t0),
                ));
                for to in self.peers() {
                    fx.push(span(
                        SpanRec::new(SpanStage::Enqueue, mset.et)
                            .to_peer(to)
                            .with_t0(t0),
                    ));
                    fx.push(Effect::Send {
                        to,
                        frame: Frame::MSet(mset.clone()),
                    });
                }
                self.accept_mset(mset, &mut fx);
            }
            NodeEvent::ClientDecision { et, commit } => self.decide(et, commit, &mut fx),
            NodeEvent::Tick => self.on_tick(&mut fx),
            NodeEvent::SuspectCoordinator => {
                let next = self.view.max(self.vc_target) + 1;
                self.start_view_change(next, &mut fx);
            }
            NodeEvent::Checkpoint { through } => {
                let payload = self.ckpt_payload(through);
                fx.push(Effect::Event(Event::CkptCut {
                    covered: payload.covered(),
                }));
                fx.push(Effect::Checkpoint(Box::new(payload)));
            }
            NodeEvent::Heartbeat { origin, sent, ts } => {
                self.state.site_mut().heartbeat(origin, sent, ts, &mut self.applies);
                self.applied(SpanStage::Apply, None, &mut fx);
            }
        }
        fx
    }

    /// Captures a consistent checkpoint of this node. Must be called
    /// with the core otherwise quiescent (the daemon's reactor thread
    /// cuts between steps; the model steps nodes one at a time), so no
    /// effect is half-applied across the image.
    pub fn ckpt_payload(&self, through: Option<u64>) -> CkptPayload {
        CkptPayload {
            covered_through: through,
            view: self.view,
            client_table: self
                .client_table
                .iter()
                .map(|(&(c, s), &et)| (c, s, et))
                .collect(),
            evidence: self.evidence.clone(),
            site: self.state.to_ckpt(),
        }
    }

    /// Boot-time restore from a checkpoint image plus the journal
    /// *suffix* past its cut — the fast path that makes log truncation
    /// safe. Returns `None` when the image's method disagrees with the
    /// configuration (the daemon then falls back to full replay).
    ///
    /// The suffix may over-approximate: entries at or before the cut
    /// are absorbed by the restored replica's duplicate guard, so a
    /// caller that cannot tell exactly where the cut fell (e.g. a
    /// catch-up image whose entry ids refer to a peer's journal) can
    /// safely replay its whole local journal.
    ///
    /// The suffix is borrowed: the site copies only what it keeps.
    ///
    /// `view` is the view to boot into — the node passes
    /// `max(newest journalled view, payload.view)`, so neither a view
    /// recorded after the cut nor one whose record truncation retired
    /// is lost.
    pub fn restore(
        method: RtMethod,
        site: SiteId,
        sites: usize,
        canary: Option<CtrlCanary>,
        view: u64,
        payload: CkptPayload,
        suffix: &[MSet],
    ) -> Option<(Self, Vec<Effect>)> {
        if payload.method() != method {
            return None;
        }
        let covered = payload.covered();
        let state = SiteState::from_ckpt(site, payload.site);
        let mut core = Self::fresh_at_view(state, method, site, sites, canary, view);
        core.client_table = payload
            .client_table
            .into_iter()
            .map(|(c, s, et)| ((c, s), et))
            .collect();
        core.evidence = payload.evidence;
        Some(core.boot(Some(covered), suffix))
    }

    /// The one boot, from an image already in the core — a restored
    /// one covering `covered` MSets, or the blank one (`None`): replays
    /// the journal `suffix` past it, then re-announces every apply, the
    /// image's in ET order and then the suffix's in replay order (the
    /// previous incarnation may have died before its `Applied` report
    /// was sent, and the coordinator's evidence with it; the
    /// coordinator deduplicates).
    fn boot(mut self, covered: Option<u64>, suffix: &[MSet]) -> (Self, Vec<Effect>) {
        let mut effects: Vec<Effect> = covered
            .map(|covered| Effect::Event(Event::CkptRestore { covered, view: self.view }))
            .into_iter()
            .collect();
        let mut announce = self.state.site().applies();
        // Defect: the replay cursor double-counts the tail record,
        // re-applying it outside the replica's duplicate guard.
        let double = self.canary == Some(CtrlCanary::DoubleReplayedSuffix);
        let doubled = suffix.last().filter(|_| double).cloned();
        for mset in suffix {
            self.replay(mset, &mut effects, &mut announce);
        }
        if let Some(mut dup) = doubled {
            dup.et = EtId(dup.et.0 | CANARY_ET_BIT);
            self.state.deliver(dup);
        }
        // Defect: recovery "forgets" the re-announcement pass.
        if self.canary != Some(CtrlCanary::LostCompletionOnRestart) {
            for (et, version) in announce {
                self.report_applied(et, version, &mut effects);
            }
        }
        (self, effects)
    }

    /// Replays one journal entry at boot: a `Replay` span for each MSet
    /// it applied, its held predecessors included (the journal records
    /// acceptance order, which for ORDUP can run ahead of the sequence),
    /// each also listed in `announce`. An entry the restored image
    /// already covers is absorbed by the replica's duplicate guard.
    fn replay(
        &mut self,
        mset: &MSet,
        effects: &mut Vec<Effect>,
        announce: &mut Vec<(EtId, Option<VersionTs>)>,
    ) {
        if let Some((cid, cseq)) = mset.client {
            self.client_table.insert((cid.raw(), cseq), mset.et);
        }
        if self.canary == Some(CtrlCanary::DecisionReplayReapplies) {
            self.canary_msets.insert(mset.et, mset.clone());
        }
        self.state.site_mut().deliver(mset, &mut self.applies);
        announce.extend(self.applies.iter().map(|r| (r.et, r.version)));
        self.applied(SpanStage::Replay, None, effects);
    }

    /// The cached ET for a client request, if this site has journalled
    /// it (the exactly-once read path the daemon consults before
    /// dispatching a submit).
    pub fn cached_et(&self, client: ClientId, seq: u64) -> Option<EtId> {
        self.client_table.get(&(client.raw(), seq)).copied()
    }

    /// One heartbeat interval. Coordinators ping; followers count
    /// silence and eventually suspect; a stalled election escalates
    /// past a dead coordinator-to-be.
    fn on_tick(&mut self, fx: &mut Vec<Effect>) {
        if self.vc_target > self.view {
            // Election in progress: give it SUSPECT_AFTER ticks, then
            // assume the coordinator-to-be is down as well and move on.
            self.vc_ticks += 1;
            if self.vc_ticks >= SUSPECT_AFTER {
                self.vc_ticks = 0;
                let next = self.vc_target + 1;
                self.start_view_change(next, fx);
            }
            return;
        }
        if self.coord.is_some() {
            fx.extend(self.peers().map(|to| Effect::Send {
                to,
                frame: Frame::Ping {
                    view: self.view,
                    from: self.site,
                },
            }));
            return;
        }
        self.missed_pings += 1;
        if self.missed_pings >= SUSPECT_AFTER {
            self.missed_pings = 0;
            let next = self.view + 1;
            self.start_view_change(next, fx);
        }
    }

    /// Simple majority of the cluster (self-inclusive).
    fn majority(&self) -> usize {
        self.sites / 2 + 1
    }

    /// Begins (or joins) the election of view `target`. Idempotent per
    /// target; a higher target supersedes a pending lower one.
    fn start_view_change(&mut self, target: u64, fx: &mut Vec<Effect>) {
        if target <= self.view {
            return;
        }
        if target > self.vc_target {
            self.vc_target = target;
            self.svc_from.clear();
            self.dvc.clear();
            self.dvc_sent = false;
            self.vc_ticks = 0;
        }
        if self.svc_from.insert(self.site) {
            fx.push(Effect::Event(Event::ViewChangeStart { view: target }));
            for to in self.peers() {
                fx.push(Effect::Send {
                    to,
                    frame: Frame::StartViewChange {
                        view: target,
                        from: self.site,
                    },
                });
            }
        }
        self.maybe_send_dvc(fx);
    }

    /// Once a majority has started the pending view change, ship this
    /// site's control evidence to the new view's coordinator (or file
    /// it directly when that coordinator is us).
    fn maybe_send_dvc(&mut self, fx: &mut Vec<Effect>) {
        if self.dvc_sent
            || self.vc_target <= self.view
            || self.svc_from.len() < self.majority()
        {
            return;
        }
        self.dvc_sent = true;
        let target = self.vc_target;
        let next_coord = coordinator_of(target, self.sites);
        if next_coord == self.site {
            self.maybe_install_view(fx);
        } else {
            fx.push(Effect::Send {
                to: next_coord,
                frame: Frame::DoViewChange {
                    view: target,
                    from: self.site,
                    evidence: Box::new(self.evidence.clone()),
                },
            });
        }
    }

    /// Installs `vc_target` as its coordinator once a majority's
    /// `DoViewChange` votes are in (this site's own included): union
    /// the peers' ledgers into ours, take a fresh [`CoordCore`],
    /// durably record the view, tell everyone, and feed this site's own
    /// applies into the new coordinator.
    fn maybe_install_view(&mut self, fx: &mut Vec<Effect>) {
        let votes = self.dvc.len() + usize::from(self.dvc_sent);
        if self.vc_target <= self.view || votes < self.majority() {
            return;
        }
        let w = self.vc_target;
        let reports = std::mem::take(&mut self.dvc);
        self.view = w;
        self.clear_election();
        self.coord = Some(CoordCore::new(self.sites, self.method, self.canary));
        fx.push(Effect::Record(Record::View(w)));
        fx.push(Effect::Event(Event::ViewInstall {
            view: w,
            coordinator: self.site,
        }));
        // The handoff is a ledger union: any single site's ledger is a
        // prefix-consistent view of the old coordinator's broadcast
        // order, so absorbing the majority's in turn loses nothing, and
        // the ledger's guards make the new coordinator treat all of it
        // as already broadcast.
        for evidence in reports.values() {
            self.absorb_evidence(evidence, fx);
        }
        self.relay(self.start_view(), fx);
        // Count our own applies toward completion in the new view (the
        // peers re-announce theirs on receiving StartView). Defect: the
        // installer leaves them out, so the completions of what it
        // applied before the handoff are never re-driven.
        if self.canary != Some(CtrlCanary::HandoffDropsCompletions) {
            for (et, version) in self.state.site().applies() {
                self.report_applied(et, version, fx);
            }
        }
    }

    /// Resets all pending-election state (on install or supersession).
    fn clear_election(&mut self) {
        self.vc_target = 0;
        self.svc_from.clear();
        self.dvc.clear();
        self.dvc_sent = false;
        self.vc_ticks = 0;
        self.missed_pings = 0;
        self.coordinator_rebooted = false;
    }

    /// Applies snapshot/handoff evidence idempotently (the ledger
    /// absorbs anything this site has already seen).
    fn absorb_evidence(&mut self, evidence: &Evidence, fx: &mut Vec<Effect>) {
        for et in evidence.completed() {
            fx.extend(self.apply_complete(et));
        }
        for (et, commit) in evidence.decisions() {
            fx.extend(self.apply_decision(et, commit));
        }
        if let Some(v) = evidence.vtnc() {
            fx.extend(self.apply_vtnc(v));
        }
    }

    /// This site's view and ledger as a `StartView`: the new
    /// coordinator's announcement, its answer to every peer
    /// (re)handshake, and any site's answer to a stale pinger. A
    /// receiver at a lower view installs it; one at the same view
    /// absorbs the evidence idempotently.
    fn start_view(&self) -> Frame {
        Frame::StartView {
            view: self.view,
            evidence: Box::new(self.evidence.clone()),
        }
    }

    /// Re-announces to `to` — a newly elected or rebooted coordinator —
    /// what it may not know: this site's applies (its guards absorb
    /// what already completed) and the decisions seen here (absorbed
    /// idempotently, then rebroadcast).
    fn reannounce(&self, to: SiteId, fx: &mut Vec<Effect>) {
        if self.method.tracks_completion() {
            for (et, version) in self.state.site().applies() {
                fx.push(Effect::Send {
                    to,
                    frame: Frame::Applied {
                        site: self.site,
                        et,
                        version,
                    },
                });
            }
        }
        for (et, commit) in self.evidence.decisions() {
            fx.push(Effect::Send {
                to,
                frame: Frame::ForwardDecision { et, commit },
            });
        }
    }

    fn on_peer_frame(&mut self, frame: Frame, fx: &mut Vec<Effect>) {
        match frame {
            Frame::Hello { site, epoch } => {
                fx.push(Effect::Event(Event::Hello { site, epoch }));
                if let Some(coord) = &mut self.coord {
                    // Coordinator: answer every peer (re)handshake with
                    // the view snapshot — idempotent replay that covers
                    // a recovering site whose link queues were lost.
                    if coord.answer_hello(site, epoch) {
                        fx.push(Effect::Send {
                            to: site,
                            frame: self.start_view(),
                        });
                    }
                } else if site == coordinator_of(self.view, self.sites) {
                    // Our coordinator rebooted: whatever its journal or
                    // image did not hold died with it.
                    self.coordinator_rebooted |= epoch > 1;
                    self.reannounce(site, fx);
                }
            }
            Frame::MSet(mset) => self.accept_mset(mset, fx),
            Frame::Applied { site, et, version } => self.tally(site, et, version, fx),
            // A control broadcast minted by another coordinator (an
            // older view's catching up with us). If we hold the role
            // and it is news, our followers may have missed the
            // original (a crash can consume it, and the old view's
            // snapshots are now stale), so relay it — receivers dedup.
            Frame::Complete { et } => {
                if let Some(c) = &mut self.coord {
                    c.counts.remove(&et);
                }
                let learned = self.apply_complete(et);
                self.relay_news(learned, Frame::Complete { et }, fx);
            }
            Frame::Vtnc { ts } => {
                let learned = self.apply_vtnc(ts);
                self.relay_news(learned, Frame::Vtnc { ts }, fx);
            }
            Frame::Decision { et, commit } => {
                let learned = self.apply_decision(et, commit);
                let news = learned.is_some();
                self.relay_news(learned, Frame::Decision { et, commit }, fx);
                // News that reached us after the rebooted coordinator's
                // `Hello` was not in our re-announcement, and may be a
                // broadcast of its previous life (links are not FIFO
                // across a reboot): hand it back. A coordinator that
                // knows it absorbs the echo silently.
                if news && self.coord.is_none() && self.coordinator_rebooted {
                    fx.push(Effect::Send {
                        to: coordinator_of(self.view, self.sites),
                        frame: Frame::ForwardDecision { et, commit },
                    });
                }
            }
            Frame::ForwardDecision { et, commit } => {
                if self.coord.is_some() {
                    self.decide(et, commit, fx);
                } else {
                    // Not (or no longer) the coordinator: re-forward
                    // toward the current view's coordinator so a
                    // decision in flight across a failover is never
                    // stranded in a dead site's inbound queue.
                    fx.push(Effect::Send {
                        to: coordinator_of(self.view, self.sites),
                        frame: Frame::ForwardDecision { et, commit },
                    });
                }
            }
            Frame::Ping { view, from } => {
                if view == self.view {
                    if from == coordinator_of(self.view, self.sites) {
                        self.missed_pings = 0;
                    }
                } else if view < self.view {
                    // A stale coordinator is still pinging: answer with
                    // our view's state so it demotes itself without
                    // waiting for the durable StartView to drain.
                    fx.push(Effect::Send {
                        to: from,
                        frame: self.start_view(),
                    });
                }
                // A view ahead of ours: its durable StartView is
                // already on the way.
            }
            Frame::StartViewChange { view, from } => {
                if view <= self.view {
                    return;
                }
                // Join the election (no-op if already in it), then
                // count the sender's vote.
                self.start_view_change(view, fx);
                if view == self.vc_target {
                    self.svc_from.insert(from);
                    self.maybe_send_dvc(fx);
                }
            }
            Frame::DoViewChange {
                view,
                from,
                evidence,
            } => {
                if view <= self.view || coordinator_of(view, self.sites) != self.site {
                    return;
                }
                // A DoViewChange proves a majority started this view
                // change; adopt it even if our own SVC count lags.
                if view > self.vc_target {
                    self.vc_target = view;
                    self.svc_from.clear();
                    self.dvc.clear();
                    self.dvc_sent = false;
                    self.vc_ticks = 0;
                }
                if view == self.vc_target {
                    self.dvc.insert(from, *evidence);
                    self.dvc_sent = true;
                    self.maybe_install_view(fx);
                }
            }
            Frame::StartView { view, evidence } => {
                if view < self.view {
                    return;
                }
                let install = view > self.view;
                if install {
                    self.view = view;
                    self.clear_election();
                    // Defect: the ex-coordinator keeps certifying.
                    if self.canary != Some(CtrlCanary::SplitBrainCoordinator) {
                        self.coord = None;
                    }
                    fx.push(Effect::Record(Record::View(view)));
                    fx.push(Effect::Event(Event::ViewInstall {
                        view,
                        coordinator: coordinator_of(view, self.sites),
                    }));
                }
                self.absorb_evidence(&evidence, fx);
                let coordinator = coordinator_of(view, self.sites);
                if install && coordinator != self.site {
                    // The new coordinator's counts start from the DVC
                    // majority's ledgers, and a minority site may hold
                    // applies or decisions that majority never saw.
                    self.reannounce(coordinator, fx);
                }
            }
            // Client-plane or transport-layer frames have no business
            // on a peer link; ignore them.
            _ => {}
        }
    }

    /// Apply, journal (write-ahead of every send), and report the apply
    /// — the one path every update takes, whether it arrived from a
    /// client (origin) or a peer link (propagation). The replica
    /// decides what is new: whatever it does not report as a
    /// [`Delivered::Duplicate`] is journalled, once. The site is lent
    /// the MSet; the journal record is its one owned copy.
    fn accept_mset(&mut self, mset: MSet, fx: &mut Vec<Effect>) {
        let (et, seq, t0) = (mset.et, mset.gseq(), mset.t0);
        if self.canary == Some(CtrlCanary::DecisionReplayReapplies) {
            self.canary_msets.insert(et, mset.clone());
        }
        let outcome = self.state.site_mut().deliver(&mset, &mut self.applies);
        fx.push(span(SpanRec::new(SpanStage::Deliver, et).with_gseq(seq).with_t0(t0)));
        if outcome != Delivered::Duplicate {
            if let Some((cid, cseq)) = mset.client {
                self.client_table.insert((cid.raw(), cseq), et);
            }
            fx.push(Effect::Journal(mset));
        }
        match outcome {
            // Parked behind an ORDUP sequence gap.
            Delivered::Held => fx.push(span(SpanRec::new(SpanStage::Held, et).with_gseq(seq))),
            // A redelivery: its lifecycle was recorded the first time.
            Delivered::Duplicate => fx.push(Effect::Event(Event::DuplicateDelivery { et })),
            // Applied at its place in the list below; or a COMPE MSet
            // its abort outran, neither held nor applied.
            Delivered::Applied | Delivered::Suppressed => {}
        }
        self.applied(SpanStage::Apply, t0.map(|t0| (et, t0)), fx);
    }

    /// Traces each apply the site just listed, in its store's order — as
    /// an `Apply` span and a report toward the coordinator in a step,
    /// as a `Replay` span at boot, whose re-announcement follows the
    /// whole replay. `arrival` is the delivered MSet's ET and `t0`,
    /// which its span carries.
    fn applied(&mut self, stage: SpanStage, arrival: Option<(EtId, u64)>, fx: &mut Vec<Effect>) {
        let mut applies = std::mem::take(&mut self.applies);
        for r in &applies {
            // A replay span is the durable trace of this site's apply:
            // the in-memory event ring died with the previous
            // incarnation, so post-crash timelines still stitch and the
            // certifier still sees the apply.
            let t0 = arrival.filter(|&(et, _)| et == r.et).map(|(_, t0)| t0);
            fx.push(span(
                SpanRec::new(stage, r.et)
                    .with_version(r.version)
                    .with_gseq(r.seq)
                    .with_t0(t0),
            ));
            if stage == SpanStage::Apply {
                self.report_applied(r.et, r.version, fx);
            }
        }
        applies.clear();
        self.applies = applies;
    }

    /// Routes apply evidence to the current view's coordinator (inline
    /// when we *are* the coordinator, over the link otherwise). The
    /// apply itself is the site's to remember
    /// ([`crate::site::ReplicaSite::applies`]).
    fn report_applied(&mut self, et: EtId, version: Option<VersionTs>, fx: &mut Vec<Effect>) {
        if !self.method.tracks_completion() {
            return;
        }
        if self.coord.is_some() {
            return self.tally(self.site, et, version, fx);
        }
        fx.push(Effect::Send {
            to: coordinator_of(self.view, self.sites),
            frame: Frame::Applied {
                site: self.site,
                et,
                version,
            },
        });
    }

    /// Counts one apply report (a coordinator duty; a no-op elsewhere)
    /// and broadcasts whatever it completes.
    fn tally(&mut self, site: SiteId, et: EtId, version: Option<VersionTs>, fx: &mut Vec<Effect>) {
        let broadcast = self
            .coord
            .as_mut()
            .and_then(|c| c.on_applied(&self.evidence, site, et, version));
        if let Some(frame) = broadcast {
            self.broadcast_control(frame, fx);
        }
    }

    /// A COMPE commit/abort decision taken on here, journalled first
    /// when it implies anything: the frames it leads to travel links a
    /// crash empties, and its client (or forwarding peer) is answered
    /// once the journal holds it.
    fn decide(&mut self, et: EtId, commit: bool, fx: &mut Vec<Effect>) {
        let start = fx.len();
        self.pass_on(et, commit, fx);
        if fx.len() > start && self.canary != Some(CtrlCanary::VolatileDecision) {
            fx.insert(start, Effect::Record(Record::Decision { et, commit }));
        }
    }

    /// Replays journalled decisions at boot, in journal order: each is
    /// passed on again — re-broadcast by a coordinator that no longer
    /// knows it, re-forwarded by any other site — without a second
    /// record. The coordinator absorbs what it already decided.
    pub fn replay_decisions(&mut self, decisions: Vec<(EtId, bool)>) -> Vec<Effect> {
        let mut fx = Vec::new();
        for (et, commit) in decisions {
            self.pass_on(et, commit, &mut fx);
        }
        fx
    }

    /// What a decision implies here. The coordinator records and
    /// broadcasts it, once per ET; any other site forwards it toward
    /// the current view's coordinator (the broadcast will come back
    /// around; a receiver that is no longer the coordinator re-forwards
    /// it).
    fn pass_on(&mut self, et: EtId, commit: bool, fx: &mut Vec<Effect>) {
        if self.coord.is_none() {
            fx.push(Effect::Send {
                to: coordinator_of(self.view, self.sites),
                frame: Frame::ForwardDecision { et, commit },
            });
        } else if !self.evidence.is_decided(et) {
            self.broadcast_control(Frame::Decision { et, commit }, fx);
        }
    }

    /// Applies a control broadcast locally and enqueues it to every
    /// peer (durable, so a currently-dead site receives it on revival).
    fn broadcast_control(&mut self, frame: Frame, fx: &mut Vec<Effect>) {
        // The `*Cert` span marks the certification moment itself —
        // coordinator-only, and only when the broadcast is news (a
        // re-driven log is absorbed silently below, so it gets no
        // second cert span either).
        let (cert, learned) = match frame {
            Frame::Complete { et } => (
                SpanRec::new(SpanStage::CompleteCert, et),
                self.apply_complete(et),
            ),
            Frame::Vtnc { ts } => (SpanRec::vtnc(SpanStage::VtncCert, ts), self.apply_vtnc(ts)),
            Frame::Decision { et, commit } => (
                SpanRec::new(SpanStage::DecisionCert, et).with_commit(commit),
                self.apply_decision(et, commit),
            ),
            _ => return self.relay(frame, fx),
        };
        if let Some(learned) = learned {
            fx.push(span(cert));
            fx.push(learned);
        }
        self.relay(frame, fx);
    }

    /// Applies a completion; its span when it is news.
    fn apply_complete(&mut self, et: EtId) -> Option<Effect> {
        // Re-broadcasts (a recovered or newly-elected coordinator
        // re-driving its log, snapshot replay) are absorbed silently:
        // a duplicate `complete` event would itself be a certifier
        // finding.
        if !self.evidence.complete(et) {
            return None;
        }
        self.state.site_mut().complete(et);
        Some(span(SpanRec::new(SpanStage::Complete, et)))
    }

    /// Applies a VTNC horizon; its span when the horizon advanced.
    fn apply_vtnc(&mut self, ts: VersionTs) -> Option<Effect> {
        // The state-machine horizon is monotone regardless; only an
        // actual advance is traced, so a recovered coordinator
        // re-certifying old horizons can't make a site's trace run
        // backwards.
        self.state.site_mut().advance_vtnc(ts);
        if !self.evidence.advance_vtnc(ts) {
            return None;
        }
        Some(span(SpanRec::vtnc(SpanStage::Vtnc, ts)))
    }

    /// Applies a COMPE decision; its span when it is news.
    fn apply_decision(&mut self, et: EtId, commit: bool) -> Option<Effect> {
        let duplicate = !self.evidence.decide(et, commit);
        if commit {
            self.state.site_mut().commit(et);
        } else {
            self.state.site_mut().abort(et);
        }
        // Defect: a replayed/duplicate commit decision re-applies the
        // decided update under a fresh identity instead of being
        // absorbed idempotently.
        if duplicate
            && commit
            && self.canary == Some(CtrlCanary::DecisionReplayReapplies)
        {
            if let Some(mut dup) = self.canary_msets.get(&et).cloned() {
                dup.et = EtId(dup.et.0 | CANARY_ET_BIT);
                self.state.deliver(dup);
                self.state.site_mut().commit(EtId(et.0 | CANARY_ET_BIT));
            }
        }
        if duplicate {
            return None;
        }
        Some(span(
            SpanRec::new(SpanStage::Decision, et).with_commit(commit),
        ))
    }

    /// Finishes a control broadcast received from another coordinator:
    /// `learned` is what applying it locally produced, and when it was
    /// news and we hold the role, the broadcast is relayed.
    fn relay_news(&self, learned: Option<Effect>, frame: Frame, fx: &mut Vec<Effect>) {
        if let Some(learned) = learned {
            fx.push(learned);
            if self.coord.is_some() {
                self.relay(frame, fx);
            }
        }
    }

    /// Enqueues `frame` to every peer without applying it locally —
    /// the relay path, where the local apply already happened.
    fn relay(&self, frame: Frame, fx: &mut Vec<Effect>) {
        fx.extend(self.peers().map(|to| Effect::Send {
            to,
            frame: frame.clone(),
        }));
    }

    /// Every other site, in id order.
    fn peers(&self) -> impl Iterator<Item = SiteId> + '_ {
        let me = self.site;
        (0..self.sites as u64).map(SiteId).filter(move |s| *s != me)
    }

    /// The control-plane results this site has seen.
    pub fn evidence(&self) -> &Evidence {
        &self.evidence
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mset::OrderTag;
    use esr_core::ids::ObjectId;
    use esr_core::op::{ObjectOp, Operation};

    fn incr(et: u64, origin: u64) -> MSet {
        MSet::new(
            EtId(et),
            SiteId(origin),
            vec![ObjectOp::new(ObjectId(1), Operation::Incr(1))],
        )
    }

    /// Is `e` the event recording `et`'s completion at a site?
    fn is_complete(e: &Effect, et: u64) -> bool {
        matches!(
            e,
            Effect::Event(Event::Span(r))
                if r.stage == SpanStage::Complete && r.et == Some(EtId(et))
        )
    }

    fn sends(effects: &[Effect]) -> Vec<(SiteId, &Frame)> {
        effects
            .iter()
            .filter_map(|e| match e {
                Effect::Send { to, frame } => Some((*to, frame)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn submit_journals_before_reporting() {
        let mut core = NodeCore::fresh(
            SiteState::new(RtMethod::Commu, SiteId(1)),
            RtMethod::Commu,
            SiteId(1),
            3,
            None,
        );
        let effects = core.step(NodeEvent::ClientSubmit(incr(7, 1)));
        let journal_at = effects
            .iter()
            .position(|e| matches!(e, Effect::Journal(_)));
        let applied_at = effects.iter().position(
            |e| matches!(e, Effect::Send { frame: Frame::Applied { .. }, .. }),
        );
        assert!(journal_at.is_some() && applied_at.is_some());
        assert!(journal_at < applied_at, "write-ahead order violated");
        // Fan-out reaches both peers.
        let msets = sends(&effects)
            .iter()
            .filter(|(_, f)| matches!(f, Frame::MSet(_)))
            .count();
        assert_eq!(msets, 2);
    }

    #[test]
    fn ordup_unblock_traces_every_released_apply() {
        // seq=1 arrives first: held. seq=0 then applies AND releases
        // seq=1 — both applies must be traced in sequence order.
        let mut core = NodeCore::fresh(
            SiteState::new(RtMethod::Ordup, SiteId(1)),
            RtMethod::Ordup,
            SiteId(1),
            3,
            None,
        );
        let early = incr(2, 0).sequenced(SeqNo(1));
        let held = core.step(NodeEvent::PeerFrame(Frame::MSet(early)));
        assert!(held.iter().any(|e| matches!(
            e,
            Effect::Event(Event::Span(r)) if r.stage == SpanStage::Held
        )));
        let late = incr(1, 0).sequenced(SeqNo(0));
        let effects = core.step(NodeEvent::PeerFrame(Frame::MSet(late)));
        let applies: Vec<Option<SeqNo>> = effects
            .iter()
            .filter_map(|e| match e {
                Effect::Event(Event::Span(r)) if r.stage == SpanStage::Apply => Some(r.gseq),
                _ => None,
            })
            .collect();
        assert_eq!(
            applies,
            vec![Some(SeqNo(0)), Some(SeqNo(1))],
            "release must trace both applies in sequence order: {effects:?}"
        );
        assert!(core.state.site().has_applied(EtId(1)) && core.state.site().has_applied(EtId(2)));
    }

    #[test]
    fn an_ordup_lamport_heartbeat_applies_and_traces_the_tail_it_releases() {
        // Origin 1's update waits until origin 0 is heard past it; the
        // heartbeat is that word, and the step traces the apply.
        let origins = vec![SiteId(0), SiteId(1)];
        let state = SiteState::ordup_lamport(SiteId(0), origins);
        let mut core = NodeCore::fresh(state, RtMethod::Ordup, SiteId(0), 2, None);
        let stamped = incr(1, 1).lamport(LamportTs::new(1, SiteId(1)), SeqNo(0));
        core.step(NodeEvent::PeerFrame(Frame::MSet(stamped)));
        assert!(
            !core.state.site().has_applied(EtId(1)),
            "no word from origin 0 yet"
        );
        let beat = |t| NodeEvent::Heartbeat {
            origin: SiteId(0),
            sent: SeqNo(0),
            ts: LamportTs::new(t, SiteId(0)),
        };
        let effects = core.step(beat(2));
        assert!(core.state.site().has_applied(EtId(1)));
        assert!(
            matches!(&effects[..], [Effect::Event(Event::Span(r))]
                if r.stage == SpanStage::Apply && r.et == Some(EtId(1))),
            "{effects:?}"
        );
        assert!(core.step(beat(3)).is_empty(), "nothing left to release");
    }

    /// The ETs of `effects`' spans at `stage`, in order.
    fn spanned(effects: &[Effect], stage: SpanStage) -> Vec<EtId> {
        effects
            .iter()
            .filter_map(|e| match e {
                Effect::Event(Event::Span(r)) if r.stage == stage => r.et,
                _ => None,
            })
            .collect()
    }

    /// An ORDUP-L arrival that stabilizes an earlier parked stamp along
    /// with its own is traced after it, as the store applies them — in
    /// the step and in the replay of its journal (the stream of
    /// `ordup.rs`'s `the_newest_pending_beat_is_kept`).
    #[test]
    fn an_ordup_lamport_arrival_is_traced_after_the_stamp_it_releases() {
        let lamport = || SiteState::ordup_lamport(SiteId(2), vec![SiteId(0), SiteId(1)]);
        let mut core = NodeCore::fresh(lamport(), RtMethod::Ordup, SiteId(2), 3, None);
        let lam = |et, origin, counter, fifo| {
            let ts = LamportTs::new(counter, SiteId(origin));
            let m = incr(et, origin).lamport(ts, SeqNo(fifo));
            NodeEvent::PeerFrame(Frame::MSet(m))
        };
        let beat = |origin, sent, counter| NodeEvent::Heartbeat {
            origin: SiteId(origin),
            sent: SeqNo(sent),
            ts: LamportTs::new(counter, SiteId(origin)),
        };
        let steps = [
            lam(9, 1, 3, 0),
            beat(1, 1, 20),
            beat(0, 2, 7),
            beat(0, 1, 4),
            lam(1, 0, 1, 0),
            lam(2, 0, 5, 1),
            lam(3, 1, 6, 1),
        ];
        let mut journal = Vec::new();
        let mut applied = Vec::new();
        for event in steps {
            let effects = core.step(event);
            journal.extend(effects.iter().filter_map(|e| match e {
                Effect::Journal(m) => Some(m.clone()),
                _ => None,
            }));
            applied.push(spanned(&effects, SpanStage::Apply));
        }
        assert_eq!(applied[5], [EtId(9), EtId(2)], "ET 2's step: ts 3, then ts 5");
        assert_eq!(applied.concat(), [EtId(1), EtId(9), EtId(2), EtId(3)]);
        let (_, boot) = NodeCore::recover(lamport(), RtMethod::Ordup, SiteId(2), 3, None, 0, journal);
        // No beat is journalled, so ET 3 (ts 6) stays parked past ts 5.
        assert_eq!(spanned(&boot, SpanStage::Replay), [EtId(1), EtId(9), EtId(2)]);
    }

    #[test]
    fn compe_abort_outrunning_its_mset_leaves_nothing_held() {
        // The decision travels origin -> coordinator -> site, the MSet
        // origin -> site: on a non-coordinator site the abort can land
        // first, and the site then suppresses the MSet for good.
        let mut core = NodeCore::fresh(
            SiteState::new(RtMethod::Compe, SiteId(2)),
            RtMethod::Compe,
            SiteId(2),
            3,
            None,
        );
        core.step(NodeEvent::PeerFrame(Frame::Decision {
            et: EtId(1),
            commit: false,
        }));
        let effects = core.step(NodeEvent::PeerFrame(Frame::MSet(incr(1, 1))));
        assert!(
            !effects.iter().any(|e| matches!(
                e,
                Effect::Event(Event::Span(r))
                    if matches!(r.stage, SpanStage::Held | SpanStage::Apply)
            )),
            "a suppressed MSet is neither held nor applied: {effects:?}"
        );
        assert!(!core.state.site().has_applied(EtId(1)));
        assert_eq!(core.state.site().backlog(), 0, "held forever");
        assert!(core.state.settled());
    }

    /// An ORDUP-L node's cut round-trips through the codec and restores
    /// mid-protocol: the parked MSets still wait for origin 0, and the
    /// beats release them at the restored node as at the live one.
    #[test]
    fn an_ordup_lamport_image_round_trips() {
        let origins: Vec<SiteId> = (0..3).map(SiteId).collect();
        let state = || SiteState::ordup_lamport(SiteId(1), origins.clone());
        let mut core = NodeCore::fresh(state(), RtMethod::Ordup, SiteId(1), 3, None);
        for (et, origin, t) in [(1, 1, 1), (2, 2, 2), (3, 1, 3)] {
            let m = incr(et, origin).lamport(LamportTs::new(t, SiteId(origin)), SeqNo(et / 3));
            core.step(NodeEvent::PeerFrame(Frame::MSet(m)));
        }
        let effects = core.step(NodeEvent::Checkpoint { through: Some(3) });
        let [Effect::Event(Event::CkptCut { covered: 3 }), Effect::Checkpoint(payload)] =
            &effects[..]
        else {
            panic!("an ORDUP-L cut yields an image: {effects:?}");
        };
        let decoded = crate::node_ckpt::decode_payload(&crate::node_ckpt::encode_payload(payload));
        assert_eq!(decoded.as_ref(), Some(&**payload), "the image round-trips");
        let (mut restored, _) =
            NodeCore::restore(RtMethod::Ordup, SiteId(1), 3, None, 0, *payload.clone(), &[])
                .expect("an ORDUP-L image restores an ORDUP node");
        assert_eq!(restored.ckpt_payload(None), core.ckpt_payload(None));
        assert_eq!(restored.state.site().backlog(), 3, "nothing is stable before origin 0 is heard");
        let beat = |origin, sent| NodeEvent::Heartbeat {
            origin: SiteId(origin),
            sent: SeqNo(sent),
            ts: LamportTs::new(9, SiteId(origin)),
        };
        for node in [&mut core, &mut restored] {
            node.step(beat(0, 0));
            assert_eq!(node.state.site().backlog(), 1, "ET 3 at ts 3 waits for origin 2");
            node.step(beat(2, 1));
            assert!(node.state.settled());
        }
        assert_eq!(restored.ckpt_payload(None), core.ckpt_payload(None));
    }

    /// One client-stamped MSet of the shape `method`'s site takes —
    /// `held` stamps ORDUP's one a sequence number past a gap.
    fn stamped(method: RtMethod, held: bool) -> MSet {
        let m = match method {
            RtMethod::Ordup => incr(7, 0).sequenced(SeqNo(u64::from(held))),
            RtMethod::Ritu | RtMethod::RituMv => MSet::new(
                EtId(7),
                SiteId(0),
                vec![ObjectOp::new(
                    ObjectId(1),
                    Operation::TimestampedWrite(VersionTs::new(1, ClientId(0)), 5.into()),
                )],
            ),
            RtMethod::Commu | RtMethod::Compe => incr(7, 0),
        };
        m.from_client(ClientId(9), 3)
    }

    /// Every method journals an MSet on its first arrival — once,
    /// applied, held or suppressed — and never on a redelivery, which
    /// the replica reports as a duplicate; a restored node still
    /// answers the client's retry from its table.
    #[test]
    fn duplicate_delivery_is_absorbed() {
        let abort = || Some(Frame::Decision { et: EtId(7), commit: false });
        let compe = stamped(RtMethod::Compe, false);
        let lamport = incr(7, 0)
            .lamport(LamportTs::new(1, SiteId(0)), SeqNo(0))
            .from_client(ClientId(9), 3);
        // (label, method, MSet, decision before it, decision after its
        // first arrival); a Lamport-stamped MSet goes to an ORDUP-L site.
        type Case = (&'static str, RtMethod, MSet, Option<Frame>, Option<Frame>);
        let mut cases: Vec<Case> = RtMethod::ALL
            .into_iter()
            .map(|m| (m.name(), m, stamped(m, false), None, None))
            .collect();
        cases.extend([
            ("ordup held", RtMethod::Ordup, stamped(RtMethod::Ordup, true), None, None),
            ("ordup-l held", RtMethod::Ordup, lamport, None, None),
            ("compe abort-first", RtMethod::Compe, compe.clone(), abort(), None),
            ("compe abort-after-apply", RtMethod::Compe, compe, None, abort()),
        ]);
        let journals =
            |effects: &[Effect]| effects.iter().filter(|e| matches!(e, Effect::Journal(_))).count();
        for (label, method, m, before, after) in cases {
            let state = match m.order {
                OrderTag::Lamport { .. } => {
                    SiteState::ordup_lamport(SiteId(1), vec![SiteId(0), SiteId(1)])
                }
                _ => SiteState::new(method, SiteId(1)),
            };
            let mut core = NodeCore::fresh(state, method, SiteId(1), 3, None);
            if let Some(decision) = before {
                core.step(NodeEvent::PeerFrame(decision));
            }
            let first = core.step(NodeEvent::PeerFrame(Frame::MSet(m.clone())));
            assert_eq!(journals(&first), 1, "{label}: first arrival: {first:?}");
            if let Some(decision) = after {
                core.step(NodeEvent::PeerFrame(decision));
            }
            let image = core.ckpt_payload(None);
            for _ in 0..2 {
                let again = core.step(NodeEvent::PeerFrame(Frame::MSet(m.clone())));
                assert!(
                    matches!(
                        &again[..],
                        [_, Effect::Event(Event::DuplicateDelivery { et })] if *et == EtId(7)
                    ),
                    "{label}: a redelivery must neither re-journal nor re-announce: {again:?}"
                );
            }
            assert_eq!(core.ckpt_payload(None), image, "{label}: a redelivery changed the image");
            // Boot from the image, replaying the MSet once more, then
            // retry the submit.
            let (mut booted, _) =
                NodeCore::restore(method, SiteId(1), 3, None, 0, image, std::slice::from_ref(&m))
                    .expect("method matches");
            let retry = booted.step(NodeEvent::ClientSubmit(m));
            assert!(
                matches!(
                    &retry[..],
                    [Effect::Event(Event::DuplicateSubmit { et, .. })] if *et == EtId(7)
                ),
                "{label}: the retried submit was not answered from the table: {retry:?}"
            );
        }
    }

    #[test]
    fn coordinator_completes_after_all_sites() {
        let mut core = NodeCore::fresh(
            SiteState::new(RtMethod::Commu, SiteId(0)),
            RtMethod::Commu,
            SiteId(0),
            3,
            None,
        );
        // Local apply counts as site 0's evidence.
        let e0 = core.step(NodeEvent::PeerFrame(Frame::MSet(incr(7, 1))));
        assert!(sends(&e0).is_empty());
        let e1 = core.step(NodeEvent::PeerFrame(Frame::Applied {
            site: SiteId(1),
            et: EtId(7),
            version: None,
        }));
        assert!(sends(&e1).is_empty());
        let e2 = core.step(NodeEvent::PeerFrame(Frame::Applied {
            site: SiteId(2),
            et: EtId(7),
            version: None,
        }));
        let s = sends(&e2);
        assert_eq!(s.len(), 2, "complete broadcast to both peers");
        assert!(s
            .iter()
            .all(|(_, f)| matches!(f, Frame::Complete { et } if *et == EtId(7))));
    }

    /// RITU-MV reports carry their version, which is the coordinator's
    /// guard: a duplicate of a version fully installed or certified
    /// counts nothing — and when a horizon learned from another
    /// coordinator has closed the gap a fully installed version waited
    /// behind, the stale report lets the scan certify it.
    #[test]
    fn a_stale_ritu_mv_report_counts_nothing_but_runs_the_scan() {
        let mut coord = CoordCore::new(3, RtMethod::RituMv, None);
        let mut ledger = Evidence::default();
        let v = |time| Some(VersionTs::new(time, ClientId(0)));
        for site in [0, 1, 2] {
            assert_eq!(coord.on_applied(&ledger, SiteId(site), EtId(2), v(2)), None);
        }
        assert!(coord.counts.is_empty() && coord.fully_installed.contains_key(&2));
        // A redelivered report of a fully installed version is stale.
        assert_eq!(coord.on_applied(&ledger, SiteId(1), EtId(2), v(2)), None);
        assert!(coord.counts.is_empty(), "a stale report was counted");
        // Another coordinator certified time 1; the first late report
        // of it releases time 2.
        ledger.advance_vtnc(VersionTs::new(1, ClientId(0)));
        let released = coord.on_applied(&ledger, SiteId(0), EtId(1), v(1));
        assert_eq!(released, Some(Frame::Vtnc { ts: VersionTs::new(2, ClientId(0)) }));
        assert!(coord.counts.is_empty() && coord.fully_installed.is_empty());
        assert_eq!(coord.on_applied(&ledger, SiteId(2), EtId(9), None), None);
        assert!(coord.counts.is_empty(), "a versionless report was counted");
    }

    #[test]
    fn recovery_reannounces_applies() {
        let (core, effects) = NodeCore::recover(
            SiteState::new(RtMethod::Commu, SiteId(2)),
            RtMethod::Commu,
            SiteId(2),
            3,
            None,
            0,
            vec![incr(1, 0), incr(2, 1)],
        );
        assert!(core.state.site().has_applied(EtId(1)) && core.state.site().has_applied(EtId(2)));
        let announced: Vec<_> = effects
            .iter()
            .filter_map(|e| match e {
                Effect::Send {
                    to,
                    frame: Frame::Applied { et, .. },
                } => Some((*to, *et)),
                _ => None,
            })
            .collect();
        assert_eq!(announced, vec![(SiteId(0), EtId(1)), (SiteId(0), EtId(2))]);
    }

    #[test]
    fn recovery_reannounces_to_the_durable_views_coordinator() {
        let (core, effects) = NodeCore::recover(
            SiteState::new(RtMethod::Commu, SiteId(2)),
            RtMethod::Commu,
            SiteId(2),
            3,
            None,
            1,
            vec![incr(1, 0)],
        );
        assert_eq!(core.view, 1);
        assert!(core.coord.is_none(), "view 1 coordinator is site 1");
        let announced: Vec<_> = effects
            .iter()
            .filter_map(|e| match e {
                Effect::Send {
                    to,
                    frame: Frame::Applied { et, .. },
                } => Some((*to, *et)),
                _ => None,
            })
            .collect();
        assert_eq!(announced, vec![(SiteId(1), EtId(1))]);
    }

    #[test]
    fn lost_completion_canary_suppresses_reannounce() {
        let (_, effects) = NodeCore::recover(
            SiteState::new(RtMethod::Commu, SiteId(2)),
            RtMethod::Commu,
            SiteId(2),
            3,
            Some(CtrlCanary::LostCompletionOnRestart),
            0,
            vec![incr(1, 0)],
        );
        assert!(!effects
            .iter()
            .any(|e| matches!(e, Effect::Send { .. })));
    }

    /// Synchronously drains every `Send` effect into the target core
    /// until the network is quiet, collecting all effects produced.
    fn pump(cores: &mut [NodeCore], initial: Vec<Effect>) -> Vec<Effect> {
        let mut all = Vec::new();
        let mut queue: std::collections::VecDeque<(SiteId, Frame)> =
            std::collections::VecDeque::new();
        let enqueue = |effects: Vec<Effect>,
                       queue: &mut std::collections::VecDeque<(SiteId, Frame)>,
                       all: &mut Vec<Effect>| {
            for e in effects {
                if let Effect::Send { to, frame } = &e {
                    queue.push_back((*to, frame.clone()));
                }
                all.push(e);
            }
        };
        enqueue(initial, &mut queue, &mut all);
        while let Some((to, frame)) = queue.pop_front() {
            let effects = cores[to.raw() as usize].step(NodeEvent::PeerFrame(frame));
            enqueue(effects, &mut queue, &mut all);
        }
        all
    }

    fn cluster3(method: RtMethod) -> Vec<NodeCore> {
        (0..3u64)
            .map(|i| {
                NodeCore::fresh(
                    SiteState::new(method, SiteId(i)),
                    method,
                    SiteId(i),
                    3,
                    None,
                )
            })
            .collect()
    }

    /// ROADMAP 3(d): links are not FIFO across a reboot — `esrd` sends
    /// the `Hello` on reconnect ahead of whatever its link queue holds,
    /// the simulator reorders freely — so a rebooted
    /// coordinator's `Hello` can reach a follower before the `Decision`
    /// it broadcast just before dying. The follower's re-announcement
    /// then misses that decision, and the coordinator, whose copy died
    /// with it, would keep the ET at risk for good.
    #[test]
    fn a_rebooted_coordinator_relearns_the_decision_its_hello_overtook() {
        let mut cores = cluster3(RtMethod::Compe);
        let submit = cores[1].step(NodeEvent::ClientSubmit(incr(1, 1)));
        pump(&mut cores, submit);
        // The client aborts at the origin; the coordinator decides and
        // broadcasts — and the broadcast stays in flight.
        let forward = cores[1].step(NodeEvent::ClientDecision {
            et: EtId(1),
            commit: false,
        });
        let (to, forward) = sends(&forward)[0];
        assert_eq!(to, SiteId(0));
        let decided = cores[0].step(NodeEvent::PeerFrame(forward.clone()));
        let in_flight: Vec<(SiteId, Frame)> = sends(&decided)
            .into_iter()
            .map(|(to, f)| (to, f.clone()))
            .collect();
        assert_eq!(in_flight.len(), 2, "one Decision per follower");
        // The coordinator dies and reboots from its journal: the MSet is
        // back at risk, the decision is gone.
        let (rebooted, boot) = NodeCore::recover(
            SiteState::new(RtMethod::Compe, SiteId(0)),
            RtMethod::Compe,
            SiteId(0),
            3,
            None,
            0,
            vec![incr(1, 1)],
        );
        cores[0] = rebooted;
        assert!(!cores[0].evidence().is_decided(EtId(1)));
        pump(&mut cores, boot);
        // Its Hello overtakes the broadcast at both followers …
        for follower in [1, 2] {
            let hello = Frame::Hello {
                site: SiteId(0),
                epoch: 2,
            };
            let answer = cores[follower].step(NodeEvent::PeerFrame(hello));
            pump(&mut cores, answer);
        }
        assert!(!cores[0].evidence().is_decided(EtId(1)), "nobody knew it yet");
        // … which then lands.
        for (to, frame) in in_flight {
            let learned = cores[to.raw() as usize].step(NodeEvent::PeerFrame(frame));
            pump(&mut cores, learned);
        }
        for core in &cores {
            assert!(core.evidence().is_decided(EtId(1)), "{} never learned it", core.site);
            assert!(core.state.settled(), "{} keeps the ET at risk", core.site);
            assert_eq!(core.state.snapshot(), cores[1].state.snapshot());
        }
    }

    #[test]
    fn suspicion_elects_the_next_site_and_demotes_the_old_coordinator() {
        let mut cores = cluster3(RtMethod::Commu);
        let kick = cores[1].step(NodeEvent::SuspectCoordinator);
        assert!(kick.iter().any(|e| matches!(
            e,
            Effect::Send { frame: Frame::StartViewChange { view: 1, .. }, .. }
        )));
        pump(&mut cores, kick);
        for core in &cores {
            assert_eq!(core.view, 1);
        }
        assert!(cores[0].coord.is_none(), "old coordinator must demote");
        assert!(cores[1].coord.is_some(), "view 1 maps to site 1");
        assert!(cores[2].coord.is_none());
    }

    #[test]
    fn view_is_durable_before_any_send_of_the_new_view() {
        let mut cores = cluster3(RtMethod::Commu);
        let kick = cores[1].step(NodeEvent::SuspectCoordinator);
        let all = pump(&mut cores, kick);
        // Every effect run that contains a view record must place it
        // before the first Send (per-step ordering is preserved by
        // pump's per-step extend).
        let record_at = all
            .iter()
            .position(|e| matches!(e, Effect::Record(Record::View(1))))
            .expect("the installer records view 1");
        let start_view_at = all
            .iter()
            .position(|e| {
                matches!(e, Effect::Send { frame: Frame::StartView { view: 1, .. }, .. })
            })
            .expect("the installer announces view 1");
        assert!(record_at < start_view_at, "the view record must precede StartView");
    }

    #[test]
    fn completions_survive_a_coordinator_handoff() {
        let mut cores = cluster3(RtMethod::Commu);
        let submit = cores[1].step(NodeEvent::ClientSubmit(incr(7, 1)));
        pump(&mut cores, submit);
        for core in &cores {
            assert!(core.evidence().is_completed(EtId(7)), "pre-handoff complete");
        }
        // A false suspicion (everyone alive) hands the role to site 1.
        let kick = cores[2].step(NodeEvent::SuspectCoordinator);
        let during = pump(&mut cores, kick);
        // The handoff re-drives evidence but must not re-trace the
        // completion anywhere.
        assert!(
            !during.iter().any(|e| is_complete(e, 7)),
            "handoff re-traced an already-completed ET: {during:?}"
        );
        // The new coordinator's snapshot carries the old completion,
        // and new submits still complete (evidence tracking moved).
        assert!(cores[1].coord.is_some() && cores[1].evidence().is_completed(EtId(7)));
        let submit = cores[2].step(NodeEvent::ClientSubmit(incr(8, 2)));
        let all = pump(&mut cores, submit);
        assert!(
            all.iter().any(|e| is_complete(e, 8)),
            "post-handoff submit never completed: {all:?}"
        );
    }

    #[test]
    fn pings_reset_suspicion_and_silence_triggers_it() {
        let mut cores = cluster3(RtMethod::Commu);
        // Coordinator ticks emit pings to both peers.
        let pings = cores[0].step(NodeEvent::Tick);
        assert_eq!(
            pings
                .iter()
                .filter(|e| matches!(e, Effect::Send { frame: Frame::Ping { .. }, .. }))
                .count(),
            2
        );
        // A follower fed a ping right before the threshold never
        // suspects; one starved of pings does.
        for _ in 0..SUSPECT_AFTER - 1 {
            assert!(cores[1].step(NodeEvent::Tick).is_empty());
        }
        cores[1].step(NodeEvent::PeerFrame(Frame::Ping {
            view: 0,
            from: SiteId(0),
        }));
        for _ in 0..SUSPECT_AFTER - 1 {
            assert!(cores[1].step(NodeEvent::Tick).is_empty());
        }
        let kicked = cores[1].step(NodeEvent::Tick);
        assert!(kicked.iter().any(|e| matches!(
            e,
            Effect::Send { frame: Frame::StartViewChange { view: 1, .. }, .. }
        )));
    }

    #[test]
    fn client_table_dedups_retried_submits() {
        let mut core = NodeCore::fresh(
            SiteState::new(RtMethod::Commu, SiteId(1)),
            RtMethod::Commu,
            SiteId(1),
            3,
            None,
        );
        let m = incr(7, 1).from_client(ClientId(9), 3);
        let first = core.step(NodeEvent::ClientSubmit(m.clone()));
        assert!(first.iter().any(|e| matches!(e, Effect::Journal(_))));
        let retry = core.step(NodeEvent::ClientSubmit(m));
        assert!(
            !retry.iter().any(|e| matches!(
                e,
                Effect::Journal(_) | Effect::Send { .. }
            )),
            "a retried submit must neither re-journal nor re-fan-out"
        );
        assert_eq!(core.cached_et(ClientId(9), 3), Some(EtId(7)));
        assert_eq!(core.cached_et(ClientId(9), 4), None);
    }

    #[test]
    fn checkpoint_restore_plus_suffix_matches_full_recovery() {
        let journal: Vec<MSet> = (1..=4u64).map(|i| incr(i, i % 3)).collect();
        // Run the first two entries through a live core and cut there.
        let mut live = NodeCore::fresh(
            SiteState::new(RtMethod::Commu, SiteId(2)),
            RtMethod::Commu,
            SiteId(2),
            3,
            None,
        );
        for m in &journal[..2] {
            live.step(NodeEvent::PeerFrame(Frame::MSet(m.clone())));
        }
        let effects = live.step(NodeEvent::Checkpoint { through: Some(2) });
        let payload = effects
            .iter()
            .find_map(|e| match e {
                Effect::Checkpoint(p) => Some((**p).clone()),
                _ => None,
            })
            .expect("cut produces a payload");
        assert_eq!(payload.covered(), 2);
        assert_eq!(payload.covered_through, Some(2));
        // The image survives its wire codec.
        let bytes = crate::node_ckpt::encode_payload(&payload);
        let payload = crate::node_ckpt::decode_payload(&bytes).expect("payload decodes");
        // Restore + suffix ≡ full recovery.
        let (restored, _) = NodeCore::restore(
            RtMethod::Commu,
            SiteId(2),
            3,
            None,
            0,
            payload,
            &journal[2..],
        )
        .expect("method matches");
        let (full, _) = NodeCore::recover(
            SiteState::new(RtMethod::Commu, SiteId(2)),
            RtMethod::Commu,
            SiteId(2),
            3,
            None,
            0,
            journal.clone(),
        );
        assert_eq!(restored.ckpt_payload(None), full.ckpt_payload(None));
        assert_eq!(restored.state.snapshot(), full.state.snapshot());
        // Over-approximated suffix (the whole journal) is absorbed.
        let payload2 = full.ckpt_payload(None);
        let (re2, _) = NodeCore::restore(
            RtMethod::Commu,
            SiteId(2),
            3,
            None,
            0,
            payload2,
            &journal,
        )
        .expect("method matches");
        assert_eq!(re2.ckpt_payload(None), full.ckpt_payload(None));
    }

    /// The `StartView` sent to `to`, if any.
    fn start_view_to(effects: &[Effect], to: SiteId) -> Option<&Evidence> {
        sends(effects).into_iter().find_map(|(t, f)| match f {
            Frame::StartView { evidence, .. } if t == to => Some(&**evidence),
            _ => None,
        })
    }

    #[test]
    fn a_restored_coordinator_answers_hello_with_what_its_image_knows() {
        let mut coordinator = NodeCore::fresh(
            SiteState::new(RtMethod::Commu, SiteId(0)),
            RtMethod::Commu,
            SiteId(0),
            3,
            None,
        );
        for et in 1..=3 {
            coordinator.step(NodeEvent::ClientSubmit(incr(et, 0)));
            for site in [SiteId(1), SiteId(2)] {
                coordinator.step(NodeEvent::PeerFrame(Frame::Applied {
                    site,
                    et: EtId(et),
                    version: None,
                }));
            }
        }
        let payload = coordinator.ckpt_payload(None);
        let known: Vec<EtId> = payload.evidence.completed().collect();
        assert_eq!(known, vec![EtId(1), EtId(2), EtId(3)]);
        let (mut restored, _) =
            NodeCore::restore(RtMethod::Commu, SiteId(0), 3, None, 0, payload, &[])
                .expect("method matches");
        assert!(restored.coord.is_some(), "view 0 maps to site 0");
        let reply = restored.step(NodeEvent::PeerFrame(Frame::Hello {
            site: SiteId(1),
            epoch: 2,
        }));
        let evidence = start_view_to(&reply, SiteId(1)).expect("Hello is answered");
        for et in known {
            assert!(evidence.is_completed(et), "the answer forgot {et}");
        }
    }

    #[test]
    fn a_view_installs_from_three_large_overlapping_ledgers_in_first_seen_order() {
        // Seven sites, so site 1 needs its own vote plus three
        // DoViewChanges to install view 1. Each carries 100 000
        // completions — the size a long-lived coordinator reaches —
        // overlapping the others, each in a different order.
        const N: u64 = 100_000;
        let ledger = |ets: &mut dyn Iterator<Item = u64>| {
            let mut e = Box::<Evidence>::default();
            for et in ets {
                e.complete(EtId(et));
            }
            e
        };
        let reports = [
            (SiteId(0), ledger(&mut (0..N))),
            (SiteId(2), ledger(&mut (N / 2..N / 2 + N).rev())),
            // 7 is coprime to N: a full-cycle stride permutation.
            (SiteId(3), ledger(&mut (0..N).map(|i| N / 4 + (i * 7) % N))),
        ];
        let mut core = NodeCore::fresh(
            SiteState::new(RtMethod::Commu, SiteId(1)),
            RtMethod::Commu,
            SiteId(1),
            7,
            None,
        );
        let mut expected = Vec::new();
        let mut seen = HashSet::new();
        let mut effects = Vec::new();
        for (from, evidence) in reports {
            assert_eq!(core.view, 0, "installed before the majority was in");
            expected.extend(evidence.completed().filter(|et| seen.insert(*et)));
            effects = core.step(NodeEvent::PeerFrame(Frame::DoViewChange {
                view: 1,
                from,
                evidence,
            }));
        }
        assert_eq!(core.view, 1);
        assert_eq!(expected.len() as u64, N / 2 + N);
        let merged: Vec<EtId> = core.evidence().completed().collect();
        assert!(merged == expected, "merged order is not first-seen");
        for to in [0, 2, 3, 4, 5, 6].map(SiteId) {
            let sent = start_view_to(&effects, to).expect("every peer is told");
            assert!(sent == core.evidence(), "StartView to {to} is not the ledger");
        }
    }

    /// A ledger built fact by fact; a decision's outcome is a function
    /// of its ET, as in the protocol (one decision per ET).
    fn ledger_of(facts: &[(u8, u64)]) -> Evidence {
        let mut e = Evidence::default();
        for &(kind, n) in facts {
            match kind % 3 {
                0 => e.complete(EtId(n)),
                1 => e.decide(EtId(n), n % 2 == 0),
                _ => e.advance_vtnc(VersionTs::new(n, ClientId(n % 3))),
            };
        }
        e
    }

    proptest::proptest! {
        #[test]
        fn evidence_absorb_is_an_ordered_idempotent_union(
            a in proptest::collection::vec((0u8..3, 0u64..24), 0..40),
            b in proptest::collection::vec((0u8..3, 0u64..24), 0..40),
        ) {
            let (a, b) = (ledger_of(&a), ledger_of(&b));
            let mut ab = a.clone();
            ab.absorb(&b);
            // Idempotent: nothing absorbed twice is news.
            let once = ab.clone();
            proptest::prop_assert!(!ab.absorb(&b) && !ab.absorb(&a));
            proptest::prop_assert_eq!(&ab, &once);
            // First-seen order as a list: ours, then what was new.
            let expected: Vec<EtId> = a
                .completed()
                .chain(b.completed().filter(|et| !a.is_completed(*et)))
                .collect();
            proptest::prop_assert_eq!(ab.completed().collect::<Vec<_>>(), expected);
            let expected: Vec<(EtId, bool)> = a
                .decisions()
                .chain(b.decisions().filter(|(et, _)| !a.is_decided(*et)))
                .collect();
            proptest::prop_assert_eq!(ab.decisions().collect::<Vec<_>>(), expected);
            // Order-insensitive as a set.
            let mut ba = b.clone();
            ba.absorb(&a);
            proptest::prop_assert_eq!(
                ab.completed().collect::<BTreeSet<_>>(),
                ba.completed().collect::<BTreeSet<_>>()
            );
            proptest::prop_assert_eq!(
                ab.decisions().collect::<BTreeSet<_>>(),
                ba.decisions().collect::<BTreeSet<_>>()
            );
            proptest::prop_assert_eq!(ab.vtnc(), ba.vtnc());
            proptest::prop_assert_eq!(ab.vtnc(), a.vtnc().max(b.vtnc()));
            // Survives both codecs that carry it.
            let frame = Frame::StartView { view: 3, evidence: Box::new(ab.clone()) };
            proptest::prop_assert_eq!(
                crate::wire::decode_frame(&crate::wire::encode_frame(&frame)),
                Ok(frame)
            );
            let mut node = cluster3(RtMethod::Commu).remove(0);
            node.evidence = ab;
            let payload = node.ckpt_payload(None);
            let bytes = crate::node_ckpt::encode_payload(&payload);
            proptest::prop_assert_eq!(crate::node_ckpt::decode_payload(&bytes), Some(payload));
        }
    }

    #[test]
    fn restore_rejects_a_method_mismatch() {
        let core = NodeCore::fresh(
            SiteState::new(RtMethod::Commu, SiteId(0)),
            RtMethod::Commu,
            SiteId(0),
            3,
            None,
        );
        let payload = core.ckpt_payload(None);
        assert!(NodeCore::restore(
            RtMethod::Ordup,
            SiteId(0),
            3,
            None,
            0,
            payload,
            &[],
        )
        .is_none());
    }

    #[test]
    fn client_table_is_rebuilt_from_the_journal() {
        let (core, _) = NodeCore::recover(
            SiteState::new(RtMethod::Commu, SiteId(1)),
            RtMethod::Commu,
            SiteId(1),
            3,
            None,
            0,
            vec![incr(7, 1).from_client(ClientId(9), 3)],
        );
        assert_eq!(core.cached_et(ClientId(9), 3), Some(EtId(7)));
    }
}

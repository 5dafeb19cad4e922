//! `esr-model`: exhaustive model checking of the esrd control plane.
//!
//! The model executes the *same* pure state machine the daemon runs —
//! [`esr_runtime::ctrl::NodeCore`] — against in-memory durable queues,
//! and explores every distinguishable interleaving of message
//! delivery, client activity, duplication, and crash/recovery for a
//! small bounded configuration (3 sites, a handful of updates).
//!
//! ## Fidelity map (model ↔ esrd)
//!
//! | world piece            | real counterpart                          |
//! |------------------------|-------------------------------------------|
//! | `queues[(i,j)]`        | durable FileQueue link i→j (FIFO, at-least-once) |
//! | `ModelNode::journal`   | the site's on-disk [`ApplyJournal`]        |
//! | `Tx::Deliver`          | peer envelope dispatch + batched ack       |
//! | `Tx::Dup`              | an ack-timeout retransmit (head redelivered, order preserved) |
//! | `CrashPoint::*`        | `kill -9` between effect executions        |
//! | crash + recover        | `Daemon::start` boot: epoch bump, journal replay, re-announce, Hello |
//!
//! Crash injection follows the configuration's [`CrashPolicy`]: the
//! standard sweeps probe every durable boundary but never kill a site
//! holding the coordinator role, while the view-change sweeps
//! (`max_suspects > 0`, which enables [`Tx::Suspect`] — the model's
//! time-free stand-in for `SUSPECT_AFTER` missed heartbeats) probe
//! `AfterAck` volatile loss at the non-role-holders, keeping the
//! election × delivery interleaving space exhaustively checkable.
//! Either way, *every* explored terminal state additionally gets a
//! staggered full-cluster crash/recover from the recovery-idempotence
//! oracle — coordinator first, then the followers — so coordinator
//! amnesia is always covered. The durable per-site view
//! (`Effect::RecordView`) is modelled as a register that survives
//! crashes, exactly like `site-<i>.view`.
//!
//! A crash is atomic crash+recover. That is sound for safety because
//! the links are sender-side durable: a site that stays down is
//! indistinguishable from one whose inbound deliveries are delayed —
//! and delivery delay is already explored by the scheduler.
//!
//! [`ApplyJournal`]: esr_runtime::recovery::ApplyJournal

pub mod canary;
pub mod explore;
pub mod oracles;

use std::collections::VecDeque;

use esr_core::ids::{ClientId, EtId, ObjectId, SeqNo, SiteId, VersionTs};
use esr_core::op::{ObjectOp, Operation};
use esr_replica::mset::MSet;
use esr_replica::span::Event;
use esr_replica::wire::Frame;
use esr_runtime::ctrl::{CtrlCanary, Effect, NodeCore, NodeEvent};
use esr_runtime::state::{RtMethod, SiteState};

/// Where the explorer may spend its crash budget. The standard sweeps
/// probe every durable boundary but never kill the (fixed) view-0
/// coordinator; the view-change sweeps let the coordinator role move,
/// so the policy is expressed against the *role*, not site 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPolicy {
    /// May a site currently holding the coordinator role crash
    /// in-schedule? (Independent of this, *every* explored terminal
    /// state gets a staggered full-cluster crash/recover pass from the
    /// recovery-idempotence oracle, coordinator included — so
    /// coordinator amnesia is always covered there.)
    pub role_holders: bool,
    /// Probe only `CrashPoint::AfterAck` (pure volatile loss), skipping
    /// the `Durable(k)` journal-boundary truncations. The
    /// crash-enriched view-change sweeps set this: durable-boundary
    /// crashes are method-plane behaviour already exhausted by the
    /// standard sweeps, while the failover-specific hazards —
    /// completion evidence lost with a consumed frame, elections
    /// interleaving with amnesia — live at `AfterAck`.
    pub afterack_only: bool,
}

/// A bounded model configuration: the cluster shape, the client
/// workload, and the fault budgets the explorer may spend.
#[derive(Debug, Clone)]
pub struct ModelCfg {
    /// Replica control method in force.
    pub method: RtMethod,
    /// Number of sites (site 0 coordinates view 0).
    pub sites: usize,
    /// Update MSets, submitted in index order at `mset.origin`.
    pub workload: Vec<MSet>,
    /// COMPE decisions `(et, commit)`, issued in index order at the
    /// ET's origin site once its submit has executed.
    pub decisions: Vec<(EtId, bool)>,
    /// Max crash/recover injections per execution.
    pub max_crashes: usize,
    /// Max duplicate deliveries per execution.
    pub max_dups: usize,
    /// Max coordinator-suspicion injections per execution (each one
    /// feeds `SuspectCoordinator` to a site, kicking off a view
    /// change).
    pub max_suspects: usize,
    /// Restrict suspicion to one site. `None` lets any non-coordinator
    /// fire, which squares the election interleaving space; the
    /// view-change sweeps pin the suspicion to a *non-candidate*
    /// follower (site 2 for the 0→1 change) so every explored election
    /// also covers the candidate learning of the change via
    /// `StartViewChange` rather than initiating it. Which follower
    /// fires first is the one symmetry the sweep gives up; the
    /// client-table proptests and the process-level failover battery
    /// drive elections from arbitrary (and multiple) sites.
    pub suspect_site: Option<u64>,
    /// Where the crash budget may be spent.
    pub crash_policy: CrashPolicy,
    /// Seeded control-plane defect, `None` for the real protocol.
    pub canary: Option<CtrlCanary>,
}

impl ModelCfg {
    /// The standard bounded configuration for `method`: 3 sites, two
    /// updates from different origins (plus decisions for COMPE), one
    /// crash and one duplication in the budget.
    pub fn standard(method: RtMethod) -> Self {
        let workload = standard_workload(method);
        let decisions = match method {
            RtMethod::Compe => vec![(EtId(1), true), (EtId(2), false)],
            _ => Vec::new(),
        };
        Self {
            method,
            sites: 3,
            workload,
            decisions,
            max_crashes: 1,
            max_dups: 1,
            max_suspects: 0,
            suspect_site: None,
            crash_policy: CrashPolicy {
                role_holders: false,
                afterack_only: false,
            },
            canary: None,
        }
    }

    /// The bounded view-change configuration for `method`: 1 update
    /// racing one suspicion (pinned to follower site 2 — see
    /// [`ModelCfg::suspect_site`]), no duplication, no in-schedule
    /// crash — the failover sweep of DESIGN.md §15. Crashes are left
    /// out of the schedule because elections interleave so richly that
    /// adding them triples an already minutes-long search, while the
    /// crash coverage lives elsewhere: every terminal state gets the
    /// staggered full-cluster recovery pass, the durable-boundary
    /// truncations are the standard sweeps' territory, and the ignored
    /// full tier re-runs this config crash-enriched (one `AfterAck`
    /// volatile loss at a non-role-holder, per the preset
    /// `crash_policy`, which is inert until a caller restores a crash
    /// budget).
    pub fn view_change(method: RtMethod) -> Self {
        let mut cfg = Self::standard(method);
        cfg.workload.truncate(1);
        cfg.decisions.truncate(1);
        cfg.max_crashes = 0;
        cfg.max_dups = 0;
        cfg.max_suspects = 1;
        cfg.suspect_site = Some(2);
        cfg.crash_policy = CrashPolicy {
            role_holders: false,
            afterack_only: true,
        };
        cfg
    }
}

/// Two-update workload: origins 1 and 2, object 1, shaped per method
/// (sequenced for ORDUP, dense timestamped writes for RITU/RITU-MV,
/// exactly-compensatable increments for COMPE).
fn standard_workload(method: RtMethod) -> Vec<MSet> {
    let x = ObjectId(1);
    (0..2u64)
        .map(|i| {
            let et = EtId(i + 1);
            let origin = SiteId(i + 1);
            match method {
                RtMethod::Ordup => {
                    MSet::new(et, origin, vec![ObjectOp::new(x, Operation::Incr(1 + i as i64))])
                        .sequenced(SeqNo(i))
                }
                RtMethod::Commu | RtMethod::Compe => {
                    MSet::new(et, origin, vec![ObjectOp::new(x, Operation::Incr(1 + i as i64))])
                }
                RtMethod::Ritu | RtMethod::RituMv => {
                    let ts = VersionTs::new(i + 1, ClientId(origin.raw()));
                    MSet::new(
                        et,
                        origin,
                        vec![ObjectOp::new(
                            x,
                            Operation::TimestampedWrite(ts, esr_core::value::Value::Int(10 + i as i64)),
                        )],
                    )
                }
            }
        })
        .collect()
}

/// Where a crash interrupts a step's effect execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Crash after the first `k` durable effects (journal appends /
    /// link enqueues) executed, before the inbound envelope was acked:
    /// the frame stays queued and is redelivered to the next
    /// incarnation. `Durable(1)` on an update delivery is exactly the
    /// journal-write boundary (journal durable, `Applied` report lost).
    Durable(u8),
    /// Crash after the full step and its ack: the frame is consumed,
    /// and only volatile state (un-journalled protocol memory) is lost.
    AfterAck,
}

/// One schedulable transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tx {
    /// Submit workload item `idx` at its origin (client plane).
    Submit {
        /// Workload index.
        idx: u8,
        /// Crash injection, if any (`Durable` leaves the submit
        /// pending: an unacked client retries).
        crash: Option<CrashPoint>,
    },
    /// Issue decision `idx` at its ET's origin site (client plane).
    Decide {
        /// Decision index.
        idx: u8,
    },
    /// Deliver the head frame of queue `from → to`.
    Deliver {
        /// Sending site.
        from: u8,
        /// Receiving site.
        to: u8,
        /// Crash injection, if any.
        crash: Option<CrashPoint>,
    },
    /// Deliver a *copy* of the head of `from → to` without retiring it
    /// (an ack-timeout retransmit: the entry is delivered again later,
    /// FIFO order preserved).
    Dup {
        /// Sending site.
        from: u8,
        /// Receiving site.
        to: u8,
    },
    /// Site `site` suspects the current coordinator and starts a view
    /// change (the time-free stand-in for `SUSPECT_AFTER` missed
    /// heartbeat ticks).
    Suspect {
        /// The suspecting site.
        site: u8,
    },
}

impl Tx {
    /// The node whose state this transition mutates.
    pub fn target(&self, cfg: &ModelCfg) -> u8 {
        match *self {
            Tx::Submit { idx, .. } => cfg.workload[idx as usize].origin.raw() as u8,
            Tx::Decide { idx } => decision_site(cfg, idx),
            Tx::Deliver { to, .. } => to,
            Tx::Dup { to, .. } => to,
            Tx::Suspect { site } => site,
        }
    }

    fn is_crash(&self) -> bool {
        matches!(
            self,
            Tx::Submit { crash: Some(_), .. } | Tx::Deliver { crash: Some(_), .. }
        )
    }

    /// Two transitions are independent iff executing them in either
    /// order from the same state yields the same state and neither
    /// disables the other. Transitions targeting different nodes only
    /// touch disjoint state (their node + their node's outbound queue
    /// backs; a deliver additionally *pops* its own inbound head, which
    /// no differently-targeted transition can touch). Shared fault
    /// budgets make any two crash (or dup) transitions dependent, and
    /// the client's in-order counters serialize same-kind client
    /// transitions (only one is enabled at a time anyway).
    pub fn independent(&self, other: &Tx, cfg: &ModelCfg) -> bool {
        if self.is_crash() && other.is_crash() {
            return false;
        }
        if matches!(self, Tx::Dup { .. }) && matches!(other, Tx::Dup { .. }) {
            return false;
        }
        // Suspicions share a budget too.
        if matches!(self, Tx::Suspect { .. }) && matches!(other, Tx::Suspect { .. }) {
            return false;
        }
        self.target(cfg) != other.target(cfg)
    }
}

/// The site a decision lands on (the decided ET's origin — the client
/// talks to its own site; a non-coordinator forwards to site 0).
fn decision_site(cfg: &ModelCfg, idx: u8) -> u8 {
    let (et, _) = cfg.decisions[idx as usize];
    cfg.workload
        .iter()
        .find(|m| m.et == et)
        .map(|m| m.origin.raw() as u8)
        .unwrap_or(0)
}

/// One modelled site: the pure core plus its durable journal and boot
/// epoch.
pub struct ModelNode {
    /// The shared-with-the-daemon protocol state machine.
    pub core: NodeCore,
    /// The durable write-ahead journal (survives crashes).
    pub journal: Vec<MSet>,
    /// Boot count, bumped on every recovery.
    pub epoch: u64,
    /// The durably recorded view — the model's `site-<i>.view` file:
    /// written by `Effect::RecordView`, survives crashes, fed back to
    /// `NodeCore::recover`.
    pub durable_view: u64,
    /// Views this incarnation booted into / installed, in order (the
    /// view-monotonicity oracle's evidence; reset on crash like the
    /// trace).
    pub view_history: Vec<u64>,
    /// This incarnation's events (cleared on crash, like the real
    /// per-process event log) — certifier food, never consulted by a
    /// transition.
    pub trace: Vec<Event>,
    /// The newest checkpoint cut emitted by `Effect::Checkpoint`
    /// (durable: survives crashes, like the daemon's installed
    /// snapshot container). Properties compare restore-from-it +
    /// journal-suffix against a full journal replay.
    pub ckpt: Option<Box<esr_runtime::CkptPayload>>,
}

/// The full modelled cluster state.
pub struct World<'a> {
    cfg: &'a ModelCfg,
    /// Per-site state.
    pub nodes: Vec<ModelNode>,
    /// Durable FIFO links, `queues[from][to]`.
    pub queues: Vec<Vec<VecDeque<Frame>>>,
    next_submit: usize,
    next_decision: usize,
    crashes_left: usize,
    dups_left: usize,
    suspects_left: usize,
}

impl<'a> World<'a> {
    /// The initial world: fresh cores, empty journals, and each site's
    /// boot Hello already queued to the coordinator (links send their
    /// handshake on first connect; Hellos to non-coordinators carry no
    /// protocol effect and are elided).
    pub fn new(cfg: &'a ModelCfg) -> Self {
        let nodes = (0..cfg.sites)
            .map(|i| {
                let site = SiteId(i as u64);
                ModelNode {
                    core: NodeCore::fresh(
                        SiteState::new(cfg.method, site),
                        cfg.method,
                        site,
                        cfg.sites,
                        cfg.canary,
                    ),
                    journal: Vec::new(),
                    epoch: 1,
                    durable_view: 0,
                    view_history: vec![0],
                    trace: Vec::new(),
                    ckpt: None,
                }
            })
            .collect();
        let mut queues: Vec<Vec<VecDeque<Frame>>> = (0..cfg.sites)
            .map(|_| (0..cfg.sites).map(|_| VecDeque::new()).collect())
            .collect();
        for (i, from) in queues.iter_mut().enumerate().skip(1) {
            from[0].push_back(Frame::Hello {
                site: SiteId(i as u64),
                epoch: 1,
            });
        }
        Self {
            cfg,
            nodes,
            queues,
            next_submit: 0,
            next_decision: 0,
            crashes_left: cfg.max_crashes,
            dups_left: cfg.max_dups,
            suspects_left: cfg.max_suspects,
        }
    }

    /// All work delivered and the client done — the state the oracles
    /// judge. (Leftover fault budget does not keep a state live.)
    pub fn is_terminal(&self) -> bool {
        self.next_submit == self.cfg.workload.len()
            && self.next_decision == self.cfg.decisions.len()
            && self.queues.iter().flatten().all(|q| q.is_empty())
    }

    /// The enabled transitions, in a deterministic order. Crash
    /// variants appear only while the crash budget lasts and only for
    /// non-coordinator targets, and are *frame-aware*: a step with a
    /// journal write (submit, update delivery) is crash-probed at
    /// every durable boundary — `Durable(0)` (nothing durable),
    /// `Durable(1)` (first durable effect only; for an update delivery
    /// exactly the journal-write boundary), and `AfterAck` — while a
    /// control-frame delivery, whose step makes no durable writes, is
    /// probed only at `AfterAck` (pure volatile loss; crashing
    /// *before* such a step is indistinguishable from delaying it,
    /// which the scheduler already explores). Duplication is likewise
    /// probed only where redelivery reaches protocol logic: updates
    /// (journal dedup) and decisions (coordinator/peer dedup);
    /// completion-plane frames are re-sent wholesale in every
    /// `StartView` snapshot, which recovery schedules already exercise.
    pub fn enabled(&self) -> Vec<Tx> {
        let mut txs = Vec::new();
        let policy = self.cfg.crash_policy;
        let durable_crash_points: &[CrashPoint] = if policy.afterack_only {
            &[CrashPoint::AfterAck]
        } else {
            &[
                CrashPoint::Durable(0),
                CrashPoint::Durable(1),
                CrashPoint::AfterAck,
            ]
        };
        // The policy is judged against the role *now*: after a view
        // change, the old coordinator becomes crashable and the new
        // one stops being so.
        let crashable =
            |site: u64| policy.role_holders || self.nodes[site as usize].core.coord.is_none();
        if self.next_submit < self.cfg.workload.len() {
            let idx = self.next_submit as u8;
            txs.push(Tx::Submit { idx, crash: None });
            let origin = self.cfg.workload[self.next_submit].origin.raw();
            if self.crashes_left > 0 && crashable(origin) {
                for &cp in durable_crash_points {
                    txs.push(Tx::Submit {
                        idx,
                        crash: Some(cp),
                    });
                }
            }
        }
        if self.next_decision < self.cfg.decisions.len() {
            let (et, _) = self.cfg.decisions[self.next_decision];
            let submitted = self.cfg.workload[..self.next_submit]
                .iter()
                .any(|m| m.et == et);
            if submitted {
                txs.push(Tx::Decide {
                    idx: self.next_decision as u8,
                });
            }
        }
        for from in 0..self.cfg.sites {
            for to in 0..self.cfg.sites {
                let Some(head) = self.queues[from][to].front() else {
                    continue;
                };
                let journals = matches!(head, Frame::MSet(_));
                let (f, t) = (from as u8, to as u8);
                txs.push(Tx::Deliver {
                    from: f,
                    to: t,
                    crash: None,
                });
                if self.crashes_left > 0 && crashable(to as u64) {
                    if journals {
                        for &cp in durable_crash_points {
                            txs.push(Tx::Deliver {
                                from: f,
                                to: t,
                                crash: Some(cp),
                            });
                        }
                    } else {
                        txs.push(Tx::Deliver {
                            from: f,
                            to: t,
                            crash: Some(CrashPoint::AfterAck),
                        });
                    }
                }
                if self.dups_left > 0 && (journals || matches!(head, Frame::Decision { .. })) {
                    txs.push(Tx::Dup { from: f, to: t });
                }
            }
        }
        if self.suspects_left > 0 {
            for (i, node) in self.nodes.iter().enumerate() {
                // A site holding the coordinator role has nothing to
                // suspect; every other (configured) site may fire.
                let pinned_elsewhere = self
                    .cfg
                    .suspect_site
                    .is_some_and(|s| s != i as u64);
                if node.core.coord.is_none() && !pinned_elsewhere {
                    txs.push(Tx::Suspect { site: i as u8 });
                }
            }
        }
        txs
    }

    /// Executes one transition.
    pub fn execute(&mut self, tx: Tx) {
        match tx {
            Tx::Submit { idx, crash } => {
                let mset = self.cfg.workload[idx as usize].clone();
                let site = mset.origin.raw() as usize;
                let effects = self.nodes[site].core.step(NodeEvent::ClientSubmit(mset));
                match crash {
                    None => {
                        self.apply_effects(site, effects, usize::MAX);
                        self.next_submit += 1;
                    }
                    Some(CrashPoint::AfterAck) => {
                        self.apply_effects(site, effects, usize::MAX);
                        self.next_submit += 1;
                        self.crash_recover(site);
                    }
                    Some(CrashPoint::Durable(k)) => {
                        // Unacked submit: the client will retry, so the
                        // workload item stays pending.
                        self.apply_effects(site, effects, k as usize);
                        self.crash_recover(site);
                    }
                }
            }
            Tx::Decide { idx } => {
                let (et, commit) = self.cfg.decisions[idx as usize];
                let site = decision_site(self.cfg, idx) as usize;
                let effects = self.nodes[site]
                    .core
                    .step(NodeEvent::ClientDecision { et, commit });
                self.apply_effects(site, effects, usize::MAX);
                self.next_decision += 1;
            }
            Tx::Deliver { from, to, crash } => {
                let (from, to) = (from as usize, to as usize);
                match crash {
                    None | Some(CrashPoint::AfterAck) => {
                        let Some(frame) = self.queues[from][to].pop_front() else {
                            return;
                        };
                        let effects = self.nodes[to].core.step(NodeEvent::PeerFrame(frame));
                        self.apply_effects(to, effects, usize::MAX);
                        if crash.is_some() {
                            self.crash_recover(to);
                        }
                    }
                    Some(CrashPoint::Durable(k)) => {
                        // Crash mid-step: no ack was written, so the
                        // frame stays queued and the sender retransmits
                        // it to the next incarnation.
                        let Some(frame) = self.queues[from][to].front().cloned() else {
                            return;
                        };
                        let effects = self.nodes[to].core.step(NodeEvent::PeerFrame(frame));
                        self.apply_effects(to, effects, k as usize);
                        self.crash_recover(to);
                    }
                }
            }
            Tx::Dup { from, to } => {
                let (from, to) = (from as usize, to as usize);
                let Some(frame) = self.queues[from][to].front().cloned() else {
                    return;
                };
                let effects = self.nodes[to].core.step(NodeEvent::PeerFrame(frame));
                self.apply_effects(to, effects, usize::MAX);
                self.dups_left -= 1;
            }
            Tx::Suspect { site } => {
                let site = site as usize;
                let effects = self.nodes[site].core.step(NodeEvent::SuspectCoordinator);
                self.apply_effects(site, effects, usize::MAX);
                self.suspects_left -= 1;
            }
        }
        if tx.is_crash() {
            self.crashes_left -= 1;
        }
    }

    /// Executes a step's effects in order, making at most
    /// `durable_budget` durable effects (journal appends + link
    /// enqueues) before stopping — the crash-truncation primitive.
    fn apply_effects(&mut self, site: usize, effects: Vec<Effect>, durable_budget: usize) {
        let mut durable = 0;
        for effect in effects {
            match effect {
                Effect::Journal(mset) => {
                    if durable == durable_budget {
                        return;
                    }
                    self.nodes[site].journal.push(mset);
                    durable += 1;
                }
                Effect::Send { to, frame } => {
                    if durable == durable_budget {
                        return;
                    }
                    self.queues[site][to.raw() as usize].push_back(frame);
                    durable += 1;
                }
                Effect::RecordView(view) => {
                    // The durable view register survives crashes, like
                    // the daemon's atomic `site-<i>.view` write. It is
                    // itself a durable effect for crash truncation —
                    // ordered before the sends of the same step.
                    if durable == durable_budget {
                        return;
                    }
                    self.nodes[site].durable_view = view;
                    self.nodes[site].view_history.push(view);
                    durable += 1;
                }
                Effect::Checkpoint(payload) => {
                    // The model keeps the newest cut in memory; the
                    // snapshot-equivalence property (restore + suffix
                    // ≡ full replay) is checked directly over it.
                    self.nodes[site].ckpt = Some(payload);
                }
                Effect::Event(event) => self.nodes[site].trace.push(event),
            }
        }
    }

    /// Atomic crash + recovery of `site`: volatile state is wiped, the
    /// boot epoch bumps, the journal replays through the daemon's own
    /// pure recovery path (re-announcing recovered applies to the
    /// durable view's coordinator), and the reconnecting link's Hello
    /// goes out — to the coordinator of the site's durable view, or to
    /// every peer when the recovering site *is* that coordinator (each
    /// follower answers a coordinator Hello by re-announcing its
    /// applies, rebuilding the lost in-memory evidence).
    pub fn crash_recover(&mut self, site: usize) {
        let cfg = self.cfg;
        let node = &mut self.nodes[site];
        node.epoch += 1;
        node.trace.clear();
        let view = node.durable_view;
        let (core, effects) = NodeCore::recover(
            SiteState::new(cfg.method, SiteId(site as u64)),
            cfg.method,
            SiteId(site as u64),
            cfg.sites,
            cfg.canary,
            view,
            node.journal.clone(),
        );
        node.core = core;
        node.view_history = vec![view];
        let epoch = node.epoch;
        self.apply_effects(site, effects, usize::MAX);
        let coordinator = esr_runtime::ctrl::coordinator_of(view, cfg.sites);
        let hello = Frame::Hello {
            site: SiteId(site as u64),
            epoch,
        };
        if coordinator.raw() as usize == site {
            for to in 0..cfg.sites {
                if to != site {
                    self.queues[site][to].push_back(hello.clone());
                }
            }
        } else {
            self.queues[site][coordinator.raw() as usize].push_back(hello);
        }
    }

    /// Drains every queue with a deterministic round-robin delivery
    /// until quiescent (no faults injected). Used by the
    /// recovery-idempotence oracle pass. Returns `false` if the
    /// cluster failed to drain within a generous bound (a livelock —
    /// itself a finding).
    pub fn drain(&mut self) -> bool {
        for _ in 0..10_000 {
            let mut delivered = false;
            for from in 0..self.cfg.sites {
                for to in 0..self.cfg.sites {
                    if !self.queues[from][to].is_empty() {
                        self.execute(Tx::Deliver {
                            from: from as u8,
                            to: to as u8,
                            crash: None,
                        });
                        delivered = true;
                    }
                }
            }
            if !delivered {
                return true;
            }
        }
        false
    }
}

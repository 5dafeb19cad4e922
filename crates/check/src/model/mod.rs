//! `esr-model`: exhaustive model checking of the esrd control plane.
//!
//! The model runs the *same* executor the daemon and the simulator run
//! — one [`Node`] per site over the simulator's memory host,
//! [`MemHost`] — with its sends carried by in-memory FIFO link queues,
//! and explores every distinguishable interleaving of message delivery,
//! client activity, duplication, and crash/recovery for a small bounded
//! configuration (3 sites, a handful of updates). What it checks is the
//! core, the commit plan, the cursor rule, the boot rule and the memory
//! host as they run.
//!
//! ## Fidelity map (model ↔ esrd)
//!
//! | world piece            | real counterpart                          |
//! |------------------------|-------------------------------------------|
//! | `ModelNode::node`      | the daemon's [`Node`]: the same boot, step, perform and commit, and the same link cursors — marked at each commit, advanced past the link's oldest unacknowledged entry, recorded in an append that is made anyway, lost with the node |
//! | `ModelNode::host`      | the site's files: `site-<i>.journal` (MSets, decisions, views and cursor records) and the event log |
//! | `queues[(i,j)]`        | in-memory link i→j (FIFO, at-least-once): its MSets survive i's crash in i's journal, its control frames do not |
//! | `Tx::Deliver`          | peer envelope dispatch + commit, then the ack on the sender's link |
//! | `Tx::Dup`              | an ack-timeout retransmit (head redelivered, order preserved) |
//! | `CrashPoint::Durable(k)` | `kill -9` inside a step's commit: [`MemHost::tear`] keeps the first `k` writes of its one append, then its sends |
//! | `CrashPoint::AfterAck` | `kill -9` after a step's commit and its ack |
//! | crash + recover        | [`MemHost::crash`], then `Daemon::start`'s boot: [`Node::boot`] — journal replay into the newest recorded view, links re-seeded above the newest cursor record, decisions passed on, re-announce — and the model's Hello |
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
//! amnesia is always covered.
//!
//! A crash is atomic crash+recover. That is sound for safety because
//! what a crash loses it loses at once: the crashed site's control
//! frames leave its queues at the crash, and a site that stays down is
//! otherwise indistinguishable from one whose inbound deliveries are
//! delayed — and delivery delay is already explored by the scheduler.

pub mod canary;
pub mod explore;
pub mod oracles;

use std::collections::VecDeque;
use std::sync::Arc;

use esr_core::ids::{ClientId, EtId, ObjectId, SeqNo, SiteId, VersionTs};
use esr_core::op::{ObjectOp, Operation};
use esr_replica::mset::MSet;
use esr_replica::node::{MemHost, Node, NodeConfig, NodeInstruments};
use esr_replica::span::Event;
use esr_replica::wire::Frame;
use esr_runtime::ctrl::{CtrlCanary, NodeEvent};
use esr_runtime::state::{RtMethod, SiteState};

/// Where the explorer may spend its crash budget. A site holding the
/// coordinator role never crashes in-schedule — judged against the
/// *role*, not site 0, as the view-change sweeps move it. (*Every*
/// explored terminal state still gets a staggered full-cluster
/// crash/recover pass from the recovery-idempotence oracle,
/// coordinator included — so coordinator amnesia is always covered
/// there.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPolicy {
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
            afterack_only: true,
        };
        cfg
    }
}

/// Two-update workload: origins 1 and 2, object 1, shaped per method
/// (sequenced for ORDUP, dense timestamped writes for RITU/RITU-MV,
/// exactly-compensatable increments for COMPE), each with a client
/// stamp.
fn standard_workload(method: RtMethod) -> Vec<MSet> {
    let x = ObjectId(1);
    (0..2u64)
        .map(|i| {
            let et = EtId(i + 1);
            let origin = SiteId(i + 1);
            let mset = match method {
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
            };
            // Stamped as every client stamps its submits: a retry of
            // one a crash left journalled is answered from the client
            // table, and only the boot's re-seed carries it on.
            mset.from_client(ClientId(0), et.0)
        })
        .collect()
}

/// Where a crash interrupts a step's effect execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Crash inside the step's commit, with its first `k` writes made
    /// — the records of its one journal append, then its sends
    /// ([`MemHost::tear`]) — and before the inbound envelope was acked:
    /// the frame stays queued and is redelivered to the next
    /// incarnation. `Durable(1)` on an update is exactly the
    /// journal-write boundary (journal durable, fan-out and `Applied`
    /// report not sent).
    Durable(u8),
    /// Crash after the full step and its ack: the frame is consumed,
    /// and only volatile state is lost — protocol memory that is not
    /// journalled, and the control frames in the site's link queues.
    AfterAck,
}

impl CrashPoint {
    /// The writes a crash here lets the step make (`None`: all of them,
    /// and the ack).
    fn writes(self) -> Option<usize> {
        match self {
            CrashPoint::Durable(k) => Some(k as usize),
            CrashPoint::AfterAck => None,
        }
    }
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
        /// Is the head a control frame, which a crash of `from` drops?
        control: bool,
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
        /// Is the head a control frame, which a crash of `from` drops?
        control: bool,
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
    /// no differently-targeted transition can touch) — except a crash,
    /// which drops the control frames of its node's outbound queues and
    /// so depends on every delivery of one. A delivery's ack writes the
    /// sender's host too, which this relation ignores: the sender's next
    /// append records it in a cursor record, and its crash forgets it
    /// unrecorded, so two orders of the pair can leave different
    /// journals ([`Tx::independent_of_acks`] is the exact relation;
    /// DESIGN.md §14.2 says what that assumes). Shared fault
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
        // A crash drops the control frames in the crashed site's
        // outbound queues, heads included.
        let drops = |a: &Tx, b: &Tx| a.is_crash() && b.takes_control_from() == Some(a.target(cfg));
        if drops(self, other) || drops(other, self) {
            return false;
        }
        self.target(cfg) != other.target(cfg)
    }

    /// [`Tx::independent`] with every acknowledgement also ordered
    /// against every transition of its sender, whose appends read it
    /// into a cursor record and whose crash forgets it: the exact
    /// relation, which the reduction approximates.
    pub fn independent_of_acks(&self, other: &Tx, cfg: &ModelCfg) -> bool {
        let acks = |a: &Tx, b: &Tx| a.acks_at() == Some(b.target(cfg));
        !acks(self, other) && !acks(other, self) && self.independent(other, cfg)
    }

    /// The sender whose link this transition acknowledges an entry on:
    /// a delivery whose step is committed (a torn one takes no ack).
    fn acks_at(&self) -> Option<u8> {
        match *self {
            Tx::Deliver { from, crash, .. } if crash.and_then(CrashPoint::writes).is_none() => {
                Some(from)
            }
            _ => None,
        }
    }

    /// The site whose outbound control frame this transition takes. (An
    /// MSet head commutes with its sender's crash, which re-seeds it at
    /// the head of the same queue.)
    fn takes_control_from(&self) -> Option<u8> {
        match *self {
            Tx::Deliver {
                from,
                control: true,
                ..
            }
            | Tx::Dup {
                from,
                control: true,
                ..
            } => Some(from),
            _ => None,
        }
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

/// One modelled site: the daemon's executor over a memory host.
pub struct ModelNode {
    /// The executor, with the core it steps.
    pub node: Node,
    /// Its I/O: the durable journal a crash keeps, and this
    /// incarnation's event log — certifier food, never consulted by a
    /// transition.
    pub host: MemHost,
    /// Boot count, bumped on every recovery.
    pub epoch: u64,
}

impl ModelNode {
    /// Views this incarnation booted into and installed, in order (the
    /// view-monotonicity oracle's evidence), read off its event log.
    pub fn view_history(&self) -> Vec<u64> {
        let log = self.host.events().iter();
        log.filter_map(|(_, e)| match e {
            Event::Boot { view, .. } | Event::ViewInstall { view, .. } => Some(*view),
            _ => None,
        })
        .collect()
    }
}

/// Registers one world's node series, once for every world an explorer
/// thread builds: a registration costs more than a state visit.
pub fn instruments(cfg: &ModelCfg) -> Vec<Arc<NodeInstruments>> {
    let metrics = Default::default();
    let name = cfg.method.name();
    (0..cfg.sites as u64)
        .map(|i| NodeInstruments::for_site(&metrics, name, SiteId(i)))
        .collect()
}

/// A frame on a model link, with its entry on the sender's link
/// (`None` for a `Hello`, which no link queue holds).
type Queued = (Option<u64>, Frame);

/// The full modelled cluster state.
pub struct World<'a> {
    cfg: &'a ModelCfg,
    obs: &'a [Arc<NodeInstruments>],
    /// Per-site state.
    pub nodes: Vec<ModelNode>,
    /// FIFO links, `queues[from][to]`.
    pub queues: Vec<Vec<VecDeque<Queued>>>,
    next_submit: usize,
    next_decision: usize,
    crashes_left: usize,
    dups_left: usize,
    suspects_left: usize,
}

impl<'a> World<'a> {
    /// The initial world: every node booted over an empty host, and
    /// each site's boot Hello already queued to the coordinator (links
    /// send their handshake on first connect; Hellos to
    /// non-coordinators carry no protocol effect and are elided). `obs`
    /// holds the sites' series ([`instruments`]).
    pub fn new(cfg: &'a ModelCfg, obs: &'a [Arc<NodeInstruments>]) -> Self {
        let queues = (0..cfg.sites)
            .map(|_| (0..cfg.sites).map(|_| VecDeque::new()).collect())
            .collect();
        let mut world = Self {
            cfg,
            obs,
            nodes: Vec::with_capacity(cfg.sites),
            queues,
            next_submit: 0,
            next_decision: 0,
            crashes_left: cfg.max_crashes,
            dups_left: cfg.max_dups,
            suspects_left: cfg.max_suspects,
        };
        for site in 0..cfg.sites {
            let mut host = MemHost::default();
            let node = world.boot(site, &mut host, 1);
            world.nodes.push(ModelNode {
                node,
                host,
                epoch: 1,
            });
            world.queue_sent(site);
        }
        for (i, from) in world.queues.iter_mut().enumerate().skip(1) {
            from[0].push_back((
                None,
                Frame::Hello {
                    site: SiteId(i as u64),
                    epoch: 1,
                },
            ));
        }
        world
    }

    /// Boots `site`'s node over `host` as incarnation `epoch`. A memory
    /// journal always decodes and the model never retires a record, so
    /// the boot cannot fail.
    fn boot(&self, site: usize, host: &mut MemHost, epoch: u64) -> Node {
        let (cfg, id) = (self.cfg, SiteId(site as u64));
        let node_cfg = NodeConfig {
            site: id,
            sites: cfg.sites,
            method: cfg.method,
            epoch,
            ckpt_bytes: None,
            canary: cfg.canary,
        };
        let blank = SiteState::new(cfg.method, id);
        Node::boot(host, node_cfg, blank, self.obs[site].clone())
            .unwrap_or_else(|e| panic!("site {site}: a memory host failed to boot: {e}"))
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
        let crashable = |site: u64| self.nodes[site as usize].node.core().coord.is_none();
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
                let Some((_, head)) = self.queues[from][to].front() else {
                    continue;
                };
                let journals = matches!(head, Frame::MSet(_));
                let (f, t, control) = (from as u8, to as u8, !journals);
                txs.push(Tx::Deliver {
                    from: f,
                    to: t,
                    control,
                    crash: None,
                });
                if self.crashes_left > 0 && crashable(to as u64) {
                    if journals {
                        for &cp in durable_crash_points {
                            txs.push(Tx::Deliver {
                                from: f,
                                to: t,
                                control,
                                crash: Some(cp),
                            });
                        }
                    } else {
                        txs.push(Tx::Deliver {
                            from: f,
                            to: t,
                            control,
                            crash: Some(CrashPoint::AfterAck),
                        });
                    }
                }
                if self.dups_left > 0 && (journals || matches!(head, Frame::Decision { .. })) {
                    txs.push(Tx::Dup {
                        from: f,
                        to: t,
                        control,
                    });
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
                if node.node.core().coord.is_none() && !pinned_elsewhere {
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
                let tear = crash.and_then(CrashPoint::writes);
                self.step(site, NodeEvent::ClientSubmit(mset), tear);
                // A torn submit was not answered: the client retries,
                // so the workload item stays pending.
                if tear.is_none() {
                    self.next_submit += 1;
                }
                if crash.is_some() {
                    self.crash_recover(site);
                }
            }
            Tx::Decide { idx } => {
                let (et, commit) = self.cfg.decisions[idx as usize];
                let site = decision_site(self.cfg, idx) as usize;
                self.step(site, NodeEvent::ClientDecision { et, commit }, None);
                self.next_decision += 1;
            }
            Tx::Deliver { from, to, crash, .. } => {
                let (from, to) = (from as usize, to as usize);
                match crash.and_then(CrashPoint::writes) {
                    None => {
                        let Some((entry, frame)) = self.queues[from][to].pop_front() else {
                            return;
                        };
                        self.step(to, NodeEvent::PeerFrame(frame), None);
                        if let Some(entry) = entry {
                            self.nodes[from].host.ack(SiteId(to as u64), entry);
                        }
                    }
                    // Crash mid-commit: no ack was written, so the frame
                    // stays queued and the sender retransmits it to the
                    // next incarnation.
                    tear => {
                        let Some((_, frame)) = self.queues[from][to].front().cloned() else {
                            return;
                        };
                        self.step(to, NodeEvent::PeerFrame(frame), tear);
                    }
                }
                if crash.is_some() {
                    self.crash_recover(to);
                }
            }
            Tx::Dup { from, to, .. } => {
                let (from, to) = (from as usize, to as usize);
                let Some((_, frame)) = self.queues[from][to].front().cloned() else {
                    return;
                };
                self.step(to, NodeEvent::PeerFrame(frame), None);
                self.dups_left -= 1;
            }
            Tx::Suspect { site } => {
                self.step(site as usize, NodeEvent::SuspectCoordinator, None);
                self.suspects_left -= 1;
            }
        }
        if tx.is_crash() {
            self.crashes_left -= 1;
        }
    }

    /// Steps `site`'s node on `event` and commits the step — torn after
    /// its first `tear` writes, if set — then queues what it sent.
    fn step(&mut self, site: usize, event: NodeEvent, tear: Option<usize>) {
        let ModelNode { node, host, .. } = &mut self.nodes[site];
        if let Some(writes) = tear {
            host.tear(writes);
        }
        node.dispatch(host, event);
        node.commit(host);
        self.queue_sent(site);
    }

    /// Moves what `site`'s host sent onto the FIFO queues.
    fn queue_sent(&mut self, site: usize) {
        for (to, frames) in self.nodes[site].host.take_sent() {
            let queue = &mut self.queues[site][to.raw() as usize];
            queue.extend(frames.into_iter().map(|(entry, frame)| (Some(entry), frame)));
        }
    }

    /// Atomic crash + recovery of `site`: its host loses what a crash
    /// loses — its link queues included — and the node boots again over
    /// it, as `esrd` does ([`Node::boot`]: the journal replays into the
    /// newest recorded view, each link is re-seeded with the originated
    /// MSets above its newest recorded cursor, the journalled decisions
    /// are passed on again, recovered applies re-announced); then the
    /// reconnecting link's
    /// Hello goes out — to the coordinator of the booted view, or to
    /// every peer when the recovering site *is* that coordinator (each
    /// follower answers a coordinator Hello by re-announcing its
    /// applies, rebuilding the lost in-memory evidence).
    pub fn crash_recover(&mut self, site: usize) {
        for queue in &mut self.queues[site] {
            queue.clear();
        }
        let mut host = std::mem::take(&mut self.nodes[site].host);
        host.crash();
        let epoch = self.nodes[site].epoch + 1;
        let node = self.boot(site, &mut host, epoch);
        let view = node.core().view;
        self.nodes[site] = ModelNode { node, host, epoch };
        self.queue_sent(site);
        let coordinator = esr_runtime::ctrl::coordinator_of(view, self.cfg.sites);
        let hello = Frame::Hello {
            site: SiteId(site as u64),
            epoch,
        };
        if coordinator.raw() as usize == site {
            for to in 0..self.cfg.sites {
                if to != site {
                    self.queues[site][to].push_back((None, hello.clone()));
                }
            }
        } else {
            self.queues[site][coordinator.raw() as usize].push_back((None, hello));
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
                    if let Some((_, head)) = self.queues[from][to].front() {
                        let control = !matches!(head, Frame::MSet(_));
                        self.execute(Tx::Deliver {
                            from: from as u8,
                            to: to as u8,
                            control,
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

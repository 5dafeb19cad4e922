//! Exhaustive crash points inside a tick commit.
//!
//! `journal_crash_points.rs` cuts one file at every byte. Since the
//! daemon writes a whole reactor cycle at once — fan-out sends, then
//! the journal records, then every other send, one append per file
//! (`esr::runtime::commit`) — the crash states worth exploring are the
//! *prefixes of that plan*: each append is a run of whole records, a
//! torn one leaves a whole-record prefix (`queue_recovery.rs`), so a
//! crash anywhere inside the commit leaves the first `k` records of the
//! plan on disk and nothing else.
//!
//! For every method, three [`NodeCore`]s with in-memory journals and
//! link queues; site 0 (the coordinator) handles one cycle mixing a
//! client submit, a peer's MSet and the `Applied` reports about it
//! (COMPE: a client decision instead). The plan comes from the very
//! [`Staged`] the daemon commits through. For each `k` site 0 crashes
//! with `k` records written, recovers through [`NodeCore::recover`],
//! greets its peers, has everything unacked redelivered and the
//! unanswered client requests retried — and the cluster must land
//! exactly where the crash-free run does, with a clean
//! [`esr_check::certify`].
//!
//! The canary is the order itself: written journal-first, the COMMU
//! cycle must diverge — a journalled submit whose fan-out was lost is
//! answered from the client table on retry and never reaches a peer.

use std::collections::{BTreeMap, VecDeque};

use esr::core::{ClientId, EtId, ObjectId, ObjectOp, Operation, SeqNo, SiteId, Value, VersionTs};
use esr::replica::mset::MSet;
use esr::replica::span::Event;
use esr::replica::wire::Frame;
use esr::runtime::commit::{Staged, Write};
use esr::runtime::ctrl::{Effect, NodeCore, NodeEvent};
use esr::runtime::state::{RtMethod, SiteState};
use esr_check::certify::{certify, SiteTrace};

const METHODS: [RtMethod; 5] = [
    RtMethod::Ordup,
    RtMethod::Commu,
    RtMethod::Ritu,
    RtMethod::RituMv,
    RtMethod::Compe,
];

const SITES: usize = 3;

/// Update `i` of the scenario, shaped for `method` and stamped with a
/// client id, as `RpcClient` stamps every submit.
fn update(method: RtMethod, i: u64, origin: u64) -> MSet {
    let et = EtId(i + 1);
    let x = ObjectId(7);
    let ops = match method {
        RtMethod::Ritu | RtMethod::RituMv => {
            let ts = VersionTs::new(i + 1, ClientId(origin));
            vec![ObjectOp::new(x, Operation::TimestampedWrite(ts, Value::Int(i as i64 + 10)))]
        }
        _ => vec![ObjectOp::new(x, Operation::Incr(i as i64 + 1))],
    };
    let mset = MSet::new(et, SiteId(origin), ops).from_client(ClientId(40 + origin), 1);
    match method {
        RtMethod::Ordup => mset.sequenced(SeqNo(i)),
        _ => mset,
    }
}

/// One site: the pure core plus what its daemon would keep on disk
/// (journal, unacknowledged link entries) and in memory (the staging
/// area, the event ring).
struct Site {
    core: NodeCore,
    journal: Vec<MSet>,
    out: Vec<VecDeque<Frame>>,
    staged: Staged,
    events: Vec<Event>,
}

/// One durable record of a commit — the unit a torn write keeps.
enum Record {
    Journal(MSet),
    Link(SiteId, Frame),
}

fn records(plan: Vec<Write>) -> Vec<Record> {
    plan.into_iter()
        .flat_map(|write| match write {
            Write::Journal(msets) => msets.into_iter().map(Record::Journal).collect::<Vec<_>>(),
            Write::Link { to, frames } => {
                frames.into_iter().map(|f| Record::Link(to, f)).collect()
            }
        })
        .collect()
}

/// Phases (1) and (2) of the plan swapped: the journal append moved
/// ahead of the fan-out. The order this PR must not ship.
fn journal_first(mut plan: Vec<Write>) -> Vec<Write> {
    if let Some(at) = plan.iter().position(|w| matches!(w, Write::Journal(_))) {
        let journal = plan.remove(at);
        plan.insert(0, journal);
    }
    plan
}

struct World {
    method: RtMethod,
    sites: Vec<Site>,
}

impl World {
    fn new(method: RtMethod) -> Self {
        let sites = (0..SITES as u64)
            .map(|i| Site {
                core: NodeCore::fresh(
                    SiteState::new(method, SiteId(i)),
                    method,
                    SiteId(i),
                    SITES,
                    None,
                ),
                journal: Vec::new(),
                out: vec![VecDeque::new(); SITES],
                staged: Staged::default(),
                events: Vec::new(),
            })
            .collect();
        Self { method, sites }
    }

    /// The daemon's `perform`: stage what is durable, log the events.
    fn perform(&mut self, site: usize, effects: Vec<Effect>) {
        let s = &mut self.sites[site];
        for effect in s.staged.stage(effects) {
            match effect {
                Effect::Event(event) => s.events.push(event),
                other => panic!("no view change or checkpoint in this scenario: {other:?}"),
            }
        }
    }

    fn step(&mut self, site: usize, event: NodeEvent) {
        let effects = self.sites[site].core.step(event);
        self.perform(site, effects);
    }

    fn write(&mut self, site: usize, record: Record) {
        let s = &mut self.sites[site];
        match record {
            Record::Journal(mset) => s.journal.push(mset),
            Record::Link(to, frame) => s.out[to.raw() as usize].push_back(frame),
        }
    }

    /// A whole commit, in plan order.
    fn commit(&mut self, site: usize) {
        for record in records(self.sites[site].staged.plan()) {
            self.write(site, record);
        }
    }

    /// Delivers the head of link `from → to` as the daemon would: step,
    /// commit, and only then the ack that retires the entry.
    fn deliver(&mut self, from: usize, to: usize) {
        let frame = self.sites[from].out[to][0].clone();
        self.step(to, NodeEvent::PeerFrame(frame));
        self.commit(to);
        self.sites[from].out[to].pop_front();
    }

    /// Round-robin delivery until every link queue is empty.
    fn drain(&mut self) {
        for _ in 0..10_000 {
            let mut delivered = false;
            for from in 0..SITES {
                for to in 0..SITES {
                    if !self.sites[from].out[to].is_empty() {
                        self.deliver(from, to);
                        delivered = true;
                    }
                }
            }
            if !delivered {
                return;
            }
        }
        panic!("{:?}: the cluster never drained", self.method);
    }

    /// `kill -9` and reboot of site 0: memory is gone, the journal
    /// replays, the recovery effects commit at boot, and the links'
    /// reconnects exchange `Hello`s (the coordinator answers each with
    /// its ledger; a follower re-announces to a rebooted coordinator).
    fn crash_and_recover_site_0(&mut self) {
        let journal = self.sites[0].journal.clone();
        let (core, effects) = NodeCore::recover(
            SiteState::new(self.method, SiteId(0)),
            self.method,
            SiteId(0),
            SITES,
            None,
            0,
            journal,
        );
        let s = &mut self.sites[0];
        s.core = core;
        s.staged = Staged::default();
        s.events.clear();
        self.perform(0, effects);
        self.commit(0);
        for peer in 1..SITES {
            let hello = |site: usize, epoch| Frame::Hello {
                site: SiteId(site as u64),
                epoch,
            };
            self.step(peer, NodeEvent::PeerFrame(hello(0, 2)));
            self.commit(peer);
            self.step(0, NodeEvent::PeerFrame(hello(peer, 1)));
            self.commit(0);
        }
    }

    fn snapshots(&self) -> Vec<BTreeMap<ObjectId, Value>> {
        self.sites.iter().map(|s| s.core.state.snapshot()).collect()
    }

    fn traces(&self) -> Vec<SiteTrace> {
        self.sites
            .iter()
            .enumerate()
            .map(|(i, s)| SiteTrace {
                site: i as u64,
                dropped: 0,
                events: s.events.clone(),
            })
            .collect()
    }
}

/// Runs the scenario; `crash_after = Some(k)` kills site 0 with the
/// first `k` records of its cycle's commit written. Returns the final
/// world and the number of records the cycle planned.
fn run(
    method: RtMethod,
    crash_after: Option<usize>,
    order: fn(Vec<Write>) -> Vec<Write>,
) -> (World, usize) {
    let mut w = World::new(method);
    let (a, b) = (update(method, 1, 0), update(method, 0, 1));

    // Before the cycle: site 1 takes a submit; site 2 has it already.
    // Site 0's inbound links now hold the MSet and, for the methods
    // that track completion, both `Applied` reports about it.
    w.step(1, NodeEvent::ClientSubmit(b.clone()));
    w.commit(1);
    while !w.sites[1].out[2].is_empty() {
        w.deliver(1, 2);
    }

    // The cycle: every peer frame waiting, then the client plane — one
    // submit and, for COMPE, the abort of the peer's update. Nothing is
    // acked or answered until the commit returns.
    let requests = |w: &mut World| {
        w.step(0, NodeEvent::ClientSubmit(a.clone()));
        if method == RtMethod::Compe {
            let decision = NodeEvent::ClientDecision {
                et: b.et,
                commit: false,
            };
            w.step(0, decision);
        }
    };
    let inbound: Vec<(usize, Frame)> = (1..SITES)
        .flat_map(|from| w.sites[from].out[0].iter().cloned().map(move |f| (from, f)))
        .collect();
    for (_, frame) in &inbound {
        w.step(0, NodeEvent::PeerFrame(frame.clone()));
    }
    requests(&mut w);
    let plan = records(order(w.sites[0].staged.plan()));
    let planned = plan.len();

    match crash_after {
        None => {
            for record in plan {
                w.write(0, record);
            }
            // The commit returned: acks retire what was delivered.
            for (from, _) in &inbound {
                w.sites[*from].out[0].pop_front();
            }
        }
        Some(k) => {
            for record in plan.into_iter().take(k) {
                w.write(0, record);
            }
            w.crash_and_recover_site_0();
            // Nothing was acked, so the peers redeliver; no reply left,
            // so the clients retry the very requests they stamped.
            w.drain();
            requests(&mut w);
            w.commit(0);
        }
    }
    w.drain();
    if method == RtMethod::Compe {
        // Decide the submit too, so every run can end settled.
        let decision = NodeEvent::ClientDecision {
            et: a.et,
            commit: true,
        };
        w.step(0, decision);
        w.commit(0);
        w.drain();
    }
    (w, planned)
}

#[test]
fn a_crash_after_any_record_prefix_of_a_commit_recovers_to_the_crash_free_state() {
    for method in METHODS {
        let (reference, planned) = run(method, None, std::convert::identity);
        let expect = reference.snapshots();
        assert!(
            expect.iter().all(|s| *s == expect[0] && !s.is_empty()),
            "{method:?}: the crash-free run itself must converge: {expect:?}"
        );
        let findings = certify(method, &reference.traces());
        assert!(findings.is_empty(), "{method:?} crash-free: {findings:#?}");
        // A submit's fan-out and record, a peer's record, and what the
        // method announces: the window is never trivial.
        assert!(planned >= 4, "{method:?}: only {planned} records planned");

        for k in 0..=planned {
            let (world, _) = run(method, Some(k), std::convert::identity);
            assert_eq!(
                world.snapshots(),
                expect,
                "{method:?}: crash after {k}/{planned} records diverged"
            );
            let findings = certify(method, &world.traces());
            assert!(
                findings.is_empty(),
                "{method:?}: crash after {k}/{planned} records: {findings:#?}"
            );
            for (i, s) in world.sites.iter().enumerate() {
                assert!(s.core.state.settled(), "{method:?} k={k}: site {i} unsettled");
            }
        }
    }
}

#[test]
fn journal_first_order_loses_a_submit_whose_fanout_was_torn_off() {
    let method = RtMethod::Commu;
    let (reference, planned) = run(method, None, journal_first);
    let expect = reference.snapshots();
    let diverged: Vec<usize> = (0..=planned)
        .filter(|k| run(method, Some(*k), journal_first).0.snapshots() != expect)
        .collect();
    // With every journal record down and none of the fan-out, the
    // retry is answered from the rebuilt client table and the peers
    // never see the update. The shipped order has no such prefix (the
    // test above), which is why it is the shipped order.
    assert!(
        !diverged.is_empty(),
        "the swapped order survived every prefix; the canary is dead"
    );
    for k in diverged {
        let (world, _) = run(method, Some(k), journal_first);
        let snaps = world.snapshots();
        assert_eq!(snaps[0], expect[0], "k={k}: site 0 journalled the submit");
        assert!(snaps[1..].iter().any(|s| *s != snaps[0]), "k={k}: and a peer lacks it");
    }
}

//! Exhaustive crash points inside a tick commit.
//!
//! `journal_crash_points.rs` cuts the journal at every byte. Since the
//! daemon writes a whole reactor cycle at once — the journal records in
//! one append, then the sends, handed to in-memory link queues that a
//! crash empties (`esr::runtime::commit`) — the crash states worth
//! exploring are the *prefixes of that plan*: the append is a run of
//! whole records, a torn one leaves a whole-record prefix
//! (`queue_recovery.rs`), and a send is either still in the queue the
//! crash empties or already delivered by the reactor.
//!
//! For every method, three of the daemon's [`Node`]s over the
//! simulator's memory host, [`MemHost`], wired by FIFO link queues;
//! site 1, a follower, handles one cycle mixing a peer's MSet, a client
//! submit and, under COMPE, a client decision, and commits it once. An
//! earlier submit of its own that every peer acknowledged has moved its
//! links' cursors, so the cycle's one append ends with a cursor record:
//! its writes are the cycle's records, the cursor record, then the
//! sends. For each `k` site 1 crashes with the first `k` of those
//! writes made ([`MemHost::tear`]) and the sends among them delivered;
//! it recovers as the daemon boots, through [`Node::boot`] — journal
//! replay, its links re-seeded with the MSets it originated above each
//! peer's cursor in the newest cursor record, its journalled decisions
//! passed on again — greets its peers, has everything unacked
//! redelivered and the unanswered client requests retried. The cluster
//! must land exactly where the crash-free run does, settled, with a
//! clean [`esr_check::certify`].
//!
//! The canary is the order itself: with a host that writes the sends
//! ahead of the journal, the coordinator counts an apply that site 1
//! then loses with the crash, and the completion it broadcasts reaches
//! site 1 before the update is redelivered.

use std::collections::{BTreeMap, VecDeque};
use std::io;

use esr::core::{ClientId, EtId, ObjectId, ObjectOp, Operation, SeqNo, SiteId, Value, VersionTs};
use esr::obs::MetricsRegistry;
use esr::replica::ctrl::Record;
use esr::replica::mset::MSet;
use esr::replica::node::{Host, Install, MemHost, Node, NodeConfig, NodeInstruments};
use esr::replica::span::Event;
use esr::replica::wire::Frame;
use esr::runtime::ckpt::CkptPayload;
use esr::runtime::ctrl::NodeEvent;
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

/// The site that crashes: a follower of view 0.
const VICTIM: usize = 1;

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
    let mset = MSet::new(et, SiteId(origin), ops).from_client(ClientId(40 + origin), i);
    match method {
        RtMethod::Ordup => mset.sequenced(SeqNo(i)),
        _ => mset,
    }
}

/// A site's host: the memory host, or — for the canary — the memory
/// host with each commit's journal records written after its sends,
/// the order this module exists to rule out.
#[derive(Default)]
struct TestHost {
    mem: MemHost,
    sends_first: bool,
    /// The records of the commit being written, held for its sends.
    held: Vec<Record>,
}

impl Host for TestHost {
    fn append(&mut self, records: Vec<Record>) -> u64 {
        if self.sends_first {
            self.held = records;
            return 0;
        }
        self.mem.append(records)
    }
    fn send(&mut self, sends: Vec<(SiteId, Vec<Frame>)>) -> Vec<(SiteId, u64)> {
        let tails = self.mem.send(sends);
        let held = std::mem::take(&mut self.held);
        if !held.is_empty() {
            self.mem.append(held);
        }
        tails
    }
    // The rest is the memory host's.
    fn journal(&self) -> io::Result<Vec<(u64, Record)>> { self.mem.journal() }
    fn last_id(&self) -> Option<u64> { self.mem.last_id() }
    fn retire_through(&mut self, through: u64) -> u64 { self.mem.retire_through(through) }
    fn journal_size(&self) -> (u64, u64) { self.mem.journal_size() }
    fn snapshots(&self) -> Vec<u64> { self.mem.snapshots() }
    fn load_snapshot(&self, seq: u64) -> Option<Vec<u8>> { self.mem.load_snapshot(seq) }
    fn cut(&mut self, seq: u64, payload: Box<CkptPayload>) { self.mem.cut(seq, payload) }
    fn installed(&mut self, wait: bool) -> Option<Install> { self.mem.installed(wait) }
    fn head(&self, peer: SiteId) -> Option<u64> { self.mem.head(peer) }
    fn record(&mut self, event: Event) { self.mem.record(event) }
    fn now(&self) -> u64 { self.mem.now() }
}

/// One site: the daemon's executor, its host, and its outbound links —
/// FIFO queues of `(entry, frame)` that a crash empties.
struct Site {
    node: Node,
    host: TestHost,
    out: Vec<VecDeque<(u64, Frame)>>,
}

struct World {
    method: RtMethod,
    obs: Vec<NodeInstruments>,
    sites: Vec<Site>,
}

impl World {
    /// Three booted sites; the victim's host writes its journal after
    /// its sends when `sends_first`.
    fn new(method: RtMethod, sends_first: bool) -> Self {
        let metrics = MetricsRegistry::new();
        let obs: Vec<NodeInstruments> = (0..SITES as u64)
            .map(|i| NodeInstruments::for_site(&metrics, method.name(), SiteId(i)))
            .collect();
        let mut w = Self {
            method,
            obs,
            sites: Vec::new(),
        };
        for i in 0..SITES {
            let mut host = TestHost {
                sends_first: sends_first && i == VICTIM,
                ..TestHost::default()
            };
            let node = w.boot(i, &mut host, 1);
            let out = vec![VecDeque::new(); SITES];
            w.sites.push(Site { node, host, out });
        }
        w
    }

    /// `site`'s node, booted over `host` as incarnation `epoch`.
    fn boot(&self, site: usize, host: &mut TestHost, epoch: u64) -> Node {
        let id = SiteId(site as u64);
        let cfg = NodeConfig {
            site: id,
            sites: SITES,
            method: self.method,
            epoch,
            ckpt_bytes: None,
            canary: None,
        };
        let blank = SiteState::new(self.method, id);
        Node::boot(host, cfg, blank, self.obs[site].clone()).unwrap_or_else(|e| panic!("boot: {e}"))
    }

    fn step(&mut self, site: usize, event: NodeEvent) {
        let s = &mut self.sites[site];
        s.node.dispatch(&mut s.host, event);
    }

    /// Commits what `site` stepped, in plan order, and queues its sends.
    fn commit(&mut self, site: usize) {
        let s = &mut self.sites[site];
        s.node.commit(&mut s.host);
        for (to, frames) in s.host.mem.take_sent() {
            s.out[to.raw() as usize].extend(frames);
        }
    }

    /// Delivers the head of link `from → to` as the daemon would: step,
    /// commit, and only then the ack that retires the entry.
    fn deliver(&mut self, from: usize, to: usize) {
        let frame = self.sites[from].out[to][0].1.clone();
        self.step(to, NodeEvent::PeerFrame(frame));
        self.commit(to);
        self.ack(from, to);
    }

    fn ack(&mut self, from: usize, to: usize) {
        let s = &mut self.sites[from];
        if let Some((entry, _)) = s.out[to].pop_front() {
            s.host.mem.ack(SiteId(to as u64), entry);
        }
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

    /// `kill -9` and reboot of the victim: memory and link queues are
    /// gone; the node boots over what its host kept — the journal
    /// replays, each link is re-seeded with the MSets the victim
    /// originated above its peer's recorded cursor, the journalled decisions are
    /// passed on again, the recovery effects commit at boot — and the
    /// links' reconnects exchange `Hello`s.
    fn crash_and_recover(&mut self) {
        let v = VICTIM;
        let mut host = std::mem::take(&mut self.sites[v].host);
        host.mem.crash();
        let node = self.boot(v, &mut host, 2);
        self.sites[v] = Site {
            node,
            host,
            out: vec![VecDeque::new(); SITES],
        };
        self.commit(v);
        for peer in (0..SITES).filter(|p| *p != v) {
            let hello = |site: usize, epoch| Frame::Hello {
                site: SiteId(site as u64),
                epoch,
            };
            self.step(peer, NodeEvent::PeerFrame(hello(v, 2)));
            self.commit(peer);
            self.step(v, NodeEvent::PeerFrame(hello(peer, 1)));
            self.commit(v);
        }
    }

    fn snapshots(&self) -> Vec<BTreeMap<ObjectId, Value>> {
        self.sites.iter().map(|s| s.node.core().state.snapshot()).collect()
    }

    /// Where this run departs from the crash-free one (`expect`): a
    /// snapshot, a certifier finding, an unsettled site.
    fn faults(&self, expect: &[BTreeMap<ObjectId, Value>]) -> Vec<String> {
        let traces: Vec<SiteTrace> = self
            .sites
            .iter()
            .enumerate()
            .map(|(i, s)| SiteTrace {
                site: i as u64,
                dropped: 0,
                events: s.host.mem.events().iter().map(|(_, e)| e.clone()).collect(),
            })
            .collect();
        let mut faults: Vec<String> = certify(self.method, &traces)
            .iter()
            .map(|f| format!("{f:?}"))
            .collect();
        if self.snapshots() != expect {
            faults.push(format!("snapshots {:?}", self.snapshots()));
        }
        for (i, s) in self.sites.iter().enumerate() {
            if !s.node.core().state.settled() {
                faults.push(format!("site {i} unsettled"));
            }
        }
        faults
    }
}

/// Runs the scenario; `crash_after = Some(k)` kills the victim with the
/// first `k` writes of its cycle's commit made and the sends among them
/// delivered; `sends_first` writes the victim's sends ahead of its
/// journal. Returns the final world and the number of writes the
/// cycle's commit makes: its planned records and frames, and the cursor
/// record.
fn run(method: RtMethod, crash_after: Option<usize>, sends_first: bool) -> (World, usize) {
    let mut w = World::new(method, sends_first);
    let (p, b, a) = (update(method, 0, 1), update(method, 1, 2), update(method, 2, 1));

    // Before the cycle: the victim takes a submit every peer
    // acknowledges, which moves its links' cursors.
    w.step(VICTIM, NodeEvent::ClientSubmit(p.clone()));
    if method == RtMethod::Compe {
        w.step(VICTIM, NodeEvent::ClientDecision { et: p.et, commit: true });
    }
    w.commit(VICTIM);
    w.drain();

    // Then site 2 takes a submit, and the coordinator has it already.
    // The victim's inbound link from site 2 holds it.
    w.step(2, NodeEvent::ClientSubmit(b.clone()));
    w.commit(2);
    while !w.sites[2].out[0].is_empty() {
        w.deliver(2, 0);
    }

    // The cycle: the peer frame waiting, then the client plane — one
    // submit and, for COMPE, the abort of the peer's update. Nothing is
    // acked or answered until the commit returns.
    let requests = |w: &mut World| {
        w.step(VICTIM, NodeEvent::ClientSubmit(a.clone()));
        if method == RtMethod::Compe {
            let decision = NodeEvent::ClientDecision {
                et: b.et,
                commit: false,
            };
            w.step(VICTIM, decision);
        }
    };
    let inbound = w.sites[2].out[VICTIM][0].1.clone();
    w.step(VICTIM, NodeEvent::PeerFrame(inbound));
    requests(&mut w);
    let writes = w.sites[VICTIM].node.staged().len() + 1;

    match crash_after {
        None => {
            w.commit(VICTIM);
            let newest = w.sites[VICTIM].host.mem.journal().unwrap().pop();
            assert!(matches!(newest, Some((_, Record::Cursors(_)))), "{newest:?}");
            // The commit returned: the ack retires what was delivered.
            w.ack(2, VICTIM);
        }
        Some(k) => {
            w.sites[VICTIM].host.mem.tear(k);
            w.commit(VICTIM);
            // A written send is out of the victim before its crash. The
            // victim's links were drained before the cycle, so they hold
            // exactly those.
            for to in 0..SITES {
                while !w.sites[VICTIM].out[to].is_empty() {
                    w.deliver(VICTIM, to);
                }
            }
            w.crash_and_recover();
            // Nothing was acked, so the peer redelivers; no reply left,
            // so the clients retry the very requests they stamped.
            w.drain();
            requests(&mut w);
            w.commit(VICTIM);
        }
    }
    w.drain();
    if method == RtMethod::Compe {
        // Decide the submit too, so every run can end settled.
        let decision = NodeEvent::ClientDecision {
            et: a.et,
            commit: true,
        };
        w.step(VICTIM, decision);
        w.commit(VICTIM);
        w.drain();
    }
    (w, writes)
}

#[test]
fn a_crash_after_any_record_prefix_of_a_commit_recovers_to_the_crash_free_state() {
    for method in METHODS {
        let (reference, writes) = run(method, None, false);
        let expect = reference.snapshots();
        assert!(
            expect.iter().all(|s| *s == expect[0] && !s.is_empty()),
            "{method:?}: the crash-free run itself must converge: {expect:?}"
        );
        let faults = reference.faults(&expect);
        assert!(faults.is_empty(), "{method:?} crash-free: {faults:#?}");
        // Two records, the cursor record, a submit's fan-out, and what
        // the method announces: the window is never trivial.
        assert!(writes >= 5, "{method:?}: only {writes} writes");

        for k in 0..=writes {
            let (world, _) = run(method, Some(k), false);
            let faults = world.faults(&expect);
            assert!(
                faults.is_empty(),
                "{method:?}: crash after {k}/{writes} writes: {faults:#?}"
            );
        }
    }
}

#[test]
fn a_send_ahead_of_its_journal_record_is_caught() {
    let method = RtMethod::Commu;
    let (reference, writes) = run(method, None, true);
    let expect = reference.snapshots();
    assert!(reference.faults(&expect).is_empty(), "the order is fine without a crash");
    // With every send out and no record down, the coordinator completes
    // the peer's update on the strength of an apply the victim lost,
    // and the victim learns of the completion before it applies again.
    let caught: Vec<Vec<String>> = (0..=writes)
        .map(|k| run(method, Some(k), true).0.faults(&expect))
        .filter(|faults| !faults.is_empty())
        .collect();
    assert!(
        !caught.is_empty(),
        "the swapped order survived every prefix; the canary is dead"
    );
    for faults in caught {
        assert!(
            faults.iter().any(|f| f.contains("apply-before-complete")),
            "{faults:#?}"
        );
    }
}

//! Exactly-once client semantics under retries, reordering, and a
//! coordinator failover — property-tested over the pure control core.
//!
//! The client contract (DESIGN.md §15): a client stamps each request
//! once (`MSet::from_client`) and resends the *same* stamped request
//! until it sees a reply. The properties below drive arbitrary
//! interleavings of such retries — duplicated, reordered, landing at
//! different sites, straddling a view change — through a 3-site
//! cluster of the daemon's [`Node`]s over memory hosts, wired by
//! in-memory FIFO links, answering each submit the way the daemon does
//! ([`Node::submit`]). They assert the update applies exactly once
//! everywhere, every retry is answered with the original ET, the
//! cluster settles in the new view, and the client table survives a
//! journal-replay restart at every site.

use std::collections::VecDeque;
use std::sync::Arc;

use esr_core::ids::{ClientId, EtId, ObjectId, SeqNo, SiteId};
use esr_core::op::{ObjectOp, Operation};
use esr_obs::MetricsRegistry;
use esr_replica::mset::MSet;
use esr_replica::node::{MemHost, Node, NodeConfig, NodeInstruments};
use esr_replica::wire::Frame;
use esr_runtime::ctrl::NodeEvent;
use esr_runtime::state::{RtMethod, SiteState};
use proptest::prelude::*;

const SITES: usize = 3;

/// One logical client request: a uniquely stamped MSet the client
/// resends verbatim on every retry.
#[derive(Debug, Clone)]
struct Request {
    mset: MSet,
    client: u64,
    seq: u64,
}

/// A deterministic splittable generator for schedule shuffling and
/// partial-delivery choices (the proptest inputs stay small; the
/// schedule detail is derived from one seed).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

/// The in-memory cluster: nodes over memory hosts, FIFO links of
/// `(entry, frame)`.
struct Net {
    method: RtMethod,
    nodes: Vec<Node>,
    hosts: Vec<MemHost>,
    obs: Vec<Arc<NodeInstruments>>,
    queues: Vec<Vec<VecDeque<(u64, Frame)>>>,
}

/// Boots `site`'s node over `host`.
fn boot(method: RtMethod, site: usize, host: &mut MemHost, obs: &Arc<NodeInstruments>) -> Node {
    let cfg = NodeConfig {
        site: SiteId(site as u64),
        sites: SITES,
        method,
        epoch: 1,
        ckpt_bytes: None,
        canary: None,
    };
    let blank = SiteState::new(method, SiteId(site as u64));
    Node::boot(host, cfg, blank, obs.clone()).unwrap_or_else(|e| panic!("boot: {e}"))
}

impl Net {
    fn new(method: RtMethod) -> Self {
        let metrics = MetricsRegistry::new();
        let obs: Vec<Arc<NodeInstruments>> = (0..SITES as u64)
            .map(|i| NodeInstruments::for_site(&metrics, method.name(), SiteId(i)))
            .collect();
        let mut hosts: Vec<MemHost> = (0..SITES).map(|_| MemHost::default()).collect();
        let nodes = (0..SITES)
            .map(|i| boot(method, i, &mut hosts[i], &obs[i]))
            .collect();
        Net {
            method,
            nodes,
            hosts,
            obs,
            queues: (0..SITES)
                .map(|_| (0..SITES).map(|_| VecDeque::new()).collect())
                .collect(),
        }
    }

    /// Commits what `site` stepped and queues what it sent.
    fn commit(&mut self, site: usize) {
        self.nodes[site].commit(&mut self.hosts[site]);
        for (to, frames) in self.hosts[site].take_sent() {
            self.queues[site][to.raw() as usize].extend(frames);
        }
    }

    fn step(&mut self, site: usize, event: NodeEvent) {
        self.nodes[site].dispatch(&mut self.hosts[site], event);
        self.commit(site);
    }

    /// Delivers up to `budget` queued frames in round-robin order, each
    /// acknowledged on its sender's link once its step is committed.
    fn deliver_some(&mut self, budget: u64) {
        for _ in 0..budget {
            let Some((from, to, (entry, frame))) = (0..SITES)
                .flat_map(|f| (0..SITES).map(move |t| (f, t)))
                .find_map(|(f, t)| self.queues[f][t].pop_front().map(|q| (f, t, q)))
            else {
                return;
            };
            self.step(to, NodeEvent::PeerFrame(frame));
            self.hosts[from].ack(SiteId(to as u64), entry);
        }
    }

    /// Drains every link to quiescence. Panics on livelock.
    fn drain(&mut self) {
        for _ in 0..100_000 {
            let pending = (0..SITES)
                .flat_map(|f| (0..SITES).map(move |t| (f, t)))
                .any(|(f, t)| !self.queues[f][t].is_empty());
            if !pending {
                return;
            }
            self.deliver_some(64);
        }
        panic!("links failed to drain");
    }

    /// The daemon's submit handler: the ET the client sees in
    /// `SubmitOk`.
    fn submit(&mut self, site: usize, request: &Request) -> EtId {
        let et = self.nodes[site].submit(&mut self.hosts[site], request.mset.clone());
        self.commit(site);
        et
    }

    /// `kill -9` and reboot of `site`: its journal replays into its
    /// recorded view.
    fn restart(&mut self, site: usize) {
        self.hosts[site].crash();
        self.nodes[site] = boot(self.method, site, &mut self.hosts[site], &self.obs[site]);
    }
}

/// The workload: `n` requests, each stamped with a distinct client
/// identity, sequence, and ET. ORDUP requests carry dense global
/// sequence numbers in request order, so reordered retries also
/// exercise the hold-and-release path.
fn requests(method: RtMethod, n: usize, amounts: &[i64]) -> Vec<Request> {
    (0..n)
        .map(|r| {
            let et = EtId(1 + r as u64);
            let origin = SiteId((r % SITES) as u64);
            let amount = amounts[r % amounts.len()];
            let op = ObjectOp::new(ObjectId(r as u64 % 2), Operation::Incr(amount));
            let mut mset = MSet::new(et, origin, vec![op]);
            if method == RtMethod::Ordup {
                mset = mset.sequenced(SeqNo(r as u64));
            }
            Request {
                mset: mset.from_client(ClientId(100 + r as u64), r as u64),
                client: 100 + r as u64,
                seq: r as u64,
            }
        })
        .collect()
}

/// Sequential reference: every request applied exactly once, in
/// request order.
fn reference(method: RtMethod, reqs: &[Request]) -> SiteState {
    let mut s = SiteState::new(method, SiteId(999));
    for r in reqs {
        s.deliver(r.mset.clone());
    }
    s
}

/// One schedule: every retry of every request plus one coordinator
/// suspicion, shuffled by `seed`, with partial frame delivery between
/// events. Returns the net and the replies each submit produced.
fn run_schedule(
    method: RtMethod,
    reqs: &[Request],
    retries: usize,
    suspect_site: usize,
    seed: u64,
) -> (Net, Vec<(usize, EtId)>) {
    // Event list: (request index, landing site) per retry, plus the
    // suspicion marked as usize::MAX.
    let mut lcg = Lcg(seed | 1);
    let mut events: Vec<(usize, usize)> = Vec::new();
    for (r, _) in reqs.iter().enumerate() {
        for _ in 0..1 + retries {
            events.push((r, lcg.below(SITES as u64) as usize));
        }
    }
    events.push((usize::MAX, suspect_site));
    for i in (1..events.len()).rev() {
        events.swap(i, lcg.below(i as u64 + 1) as usize);
    }

    let mut net = Net::new(method);
    let mut replies = Vec::new();
    for (r, site) in events {
        if r == usize::MAX {
            net.step(site, NodeEvent::SuspectCoordinator);
        } else {
            let et = net.submit(site, &reqs[r]);
            replies.push((r, et));
        }
        net.deliver_some(lcg.below(6));
    }
    net.drain();
    (net, replies)
}

fn check_schedule(method: RtMethod, n: usize, retries: usize, suspect: usize, seed: u64) {
    let amounts = [3, 5, 7, 11];
    let reqs = requests(method, n, &amounts);
    let (mut net, replies) = run_schedule(method, &reqs, retries, 1 + suspect % 2, seed);

    // Exactly-once: every site converged to the one-application
    // reference, settled, in an installed post-failover view.
    let reference = reference(method, &reqs).snapshot();
    for (i, core) in net.nodes.iter().map(Node::core).enumerate() {
        assert_eq!(
            core.state.snapshot(),
            reference,
            "site {i} diverged from the exactly-once reference (seed {seed})"
        );
        assert!(core.state.settled(), "site {i} unsettled (seed {seed})");
    }
    let views: Vec<u64> = net.nodes.iter().map(|n| n.core().view).collect();
    assert!(
        views.iter().all(|v| *v == views[0] && *v >= 1),
        "views diverged or never advanced: {views:?} (seed {seed})"
    );
    let coordinators = net
        .nodes
        .iter()
        .filter(|n| n.core().coord.is_some())
        .count();
    assert_eq!(coordinators, 1, "expected one coordinator (seed {seed})");

    // Byte-identical replies: every retry of request `r` was answered
    // with the original ET.
    for (r, et) in replies {
        assert_eq!(
            et, reqs[r].mset.et,
            "request {r} answered with a different ET (seed {seed})"
        );
    }

    // The table is fully replicated and journal-durable: after a
    // journal-replay restart at its durable view, every site still
    // answers every request from the cache.
    for i in 0..SITES {
        net.restart(i);
        for r in &reqs {
            assert_eq!(
                net.nodes[i].core().cached_et(ClientId(r.client), r.seq),
                Some(r.mset.et),
                "site {i} lost request (client {}, seq {}) across a restart (seed {seed})",
                r.client,
                r.seq
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn commu_retries_across_failover_apply_exactly_once(
        n in 1usize..4,
        retries in 1usize..3,
        suspect in 0usize..2,
        seed in any::<u64>(),
    ) {
        check_schedule(RtMethod::Commu, n, retries, suspect, seed);
    }

    #[test]
    fn ordup_retries_across_failover_apply_exactly_once(
        n in 1usize..4,
        retries in 1usize..3,
        suspect in 0usize..2,
        seed in any::<u64>(),
    ) {
        check_schedule(RtMethod::Ordup, n, retries, suspect, seed);
    }
}

/// The sharpest single case, pinned as a plain test: a retry that
/// lands at a *different* site after the original propagated, across
/// the view change, must be answered from the replicated client table
/// without re-applying.
#[test]
fn cross_site_retry_after_failover_hits_the_cache() {
    let reqs = requests(RtMethod::Commu, 1, &[5]);
    let mut net = Net::new(RtMethod::Commu);
    let first = net.submit(0, &reqs[0]);
    net.drain();
    net.step(1, NodeEvent::SuspectCoordinator);
    net.drain();
    assert!(net.nodes.iter().all(|n| n.core().view == 1));
    let retried = net.submit(2, &reqs[0]);
    net.drain();
    assert_eq!(first, retried);
    assert_eq!(
        net.nodes[2].core().cached_et(ClientId(reqs[0].client), reqs[0].seq),
        Some(first)
    );
    let reference = reference(RtMethod::Commu, &reqs).snapshot();
    for core in net.nodes.iter().map(Node::core) {
        assert_eq!(core.state.snapshot(), reference);
        assert!(core.state.settled());
    }
}

//! Exactly-once client semantics under retries, reordering, and a
//! coordinator failover — property-tested over the pure control core.
//!
//! The client contract (DESIGN.md §15): a client stamps each request
//! once (`MSet::from_client`) and resends the *same* stamped request
//! until it sees a reply. The properties below drive arbitrary
//! interleavings of such retries — duplicated, reordered, landing at
//! different sites, straddling a view change — through a 3-site
//! cluster of [`NodeCore`]s wired by in-memory FIFO links, emulating
//! the daemon's reply path (answer from the client table when the
//! request is already known). They assert the update applies exactly
//! once everywhere, every retry is answered with the original ET, the
//! cluster settles in the new view, and the client table survives a
//! journal-replay restart at every site.

use std::collections::VecDeque;

use esr_core::ids::{ClientId, EtId, ObjectId, SeqNo, SiteId};
use esr_core::op::{ObjectOp, Operation};
use esr_replica::mset::MSet;
use esr_replica::wire::Frame;
use esr_runtime::ctrl::{Effect, NodeCore, NodeEvent};
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

/// The in-memory cluster: pure cores, per-site journals, FIFO links.
struct Net {
    cores: Vec<NodeCore>,
    journals: Vec<Vec<MSet>>,
    views: Vec<u64>,
    queues: Vec<Vec<VecDeque<Frame>>>,
}

impl Net {
    fn new(method: RtMethod) -> Self {
        let cores = (0..SITES)
            .map(|i| {
                let site = SiteId(i as u64);
                let state = SiteState::new(method, site);
                NodeCore::fresh(state, method, site, SITES, None)
            })
            .collect();
        Net {
            cores,
            journals: vec![Vec::new(); SITES],
            views: vec![0; SITES],
            queues: (0..SITES)
                .map(|_| (0..SITES).map(|_| VecDeque::new()).collect())
                .collect(),
        }
    }

    fn apply(&mut self, site: usize, effects: Vec<Effect>) {
        for e in effects {
            match e {
                Effect::Journal(m) => self.journals[site].push(m),
                Effect::Send { to, frame } => {
                    self.queues[site][to.raw() as usize].push_back(frame)
                }
                Effect::RecordView(v) => self.views[site] = v,
                Effect::Event(_) | Effect::Checkpoint(_) => {}
            }
        }
    }

    fn step(&mut self, site: usize, event: NodeEvent) {
        let effects = self.cores[site].step(event);
        self.apply(site, effects);
    }

    /// Delivers up to `budget` queued frames in round-robin order.
    fn deliver_some(&mut self, budget: u64) {
        for _ in 0..budget {
            let Some((to, frame)) = (0..SITES)
                .flat_map(|f| (0..SITES).map(move |t| (f, t)))
                .find_map(|(f, t)| self.queues[f][t].pop_front().map(|fr| (t, fr)))
            else {
                return;
            };
            self.step(to, NodeEvent::PeerFrame(frame));
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

    /// The daemon's submit handler: answer a known `(client, seq)`
    /// from the client table, otherwise run the submit through the
    /// core. Returns the ET the client would see in `SubmitOk`.
    fn submit(&mut self, site: usize, request: &Request) -> EtId {
        if let Some(et) =
            self.cores[site].cached_et(ClientId(request.client), request.seq)
        {
            return et;
        }
        let et = request.mset.et;
        self.step(site, NodeEvent::ClientSubmit(request.mset.clone()));
        et
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
    for (i, core) in net.cores.iter().enumerate() {
        assert_eq!(
            core.state.snapshot(),
            reference,
            "site {i} diverged from the exactly-once reference (seed {seed})"
        );
        assert!(core.state.settled(), "site {i} unsettled (seed {seed})");
    }
    let views: Vec<u64> = net.cores.iter().map(|c| c.view).collect();
    assert!(
        views.iter().all(|v| *v == views[0] && *v >= 1),
        "views diverged or never advanced: {views:?} (seed {seed})"
    );
    let coordinators = net
        .cores
        .iter()
        .filter(|c| c.coord.is_some())
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
        let state = SiteState::new(method, SiteId(i as u64));
        let (recovered, _) = NodeCore::recover(
            state,
            method,
            SiteId(i as u64),
            SITES,
            None,
            net.views[i],
            net.journals[i].clone(),
        );
        for r in &reqs {
            assert_eq!(
                recovered.cached_et(ClientId(r.client), r.seq),
                Some(r.mset.et),
                "site {i} lost request (client {}, seq {}) across a restart (seed {seed})",
                r.client,
                r.seq
            );
        }
        net.cores[i] = recovered;
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
    assert!(net.cores.iter().all(|c| c.view == 1));
    let retried = net.submit(2, &reqs[0]);
    net.drain();
    assert_eq!(first, retried);
    assert_eq!(
        net.cores[2].cached_et(ClientId(reqs[0].client), reqs[0].seq),
        Some(first)
    );
    let reference = reference(RtMethod::Commu, &reqs).snapshot();
    for core in &net.cores {
        assert_eq!(core.state.snapshot(), reference);
        assert!(core.state.settled());
    }
}

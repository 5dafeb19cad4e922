//! Fault-injection at the extremes: 90% message loss, duplicate storms,
//! repeated partitions, byte-starved links — and, in the second half,
//! the repository's one seeded **crash** harness: a site (follower or
//! coordinator) dies mid-stream and restarts from its journal while the
//! links drop, duplicate, partition and reorder. ESR's promise is
//! convergence *whenever the MSets eventually arrive* — these tests make
//! "eventually" as painful as the substrate allows, and every one of
//! them asserts the same statement (Perrin et al.'s update consistency):
//! whatever the faults, the final state is that of one total order of
//! the acknowledged updates.
//!
//! The simulator executes the model-checked control core, so each
//! scenario also hands its per-site event logs to the trace certifier
//! `esrd` runs answer to: what is checked is what ran.

use std::collections::{BTreeMap, BTreeSet};

use esr::core::{EpsilonSpec, EtId, ObjectId, ObjectOp, Operation, SiteId, Value};
use esr::net::faults::{PartitionSchedule, PartitionWindow};
use esr::net::latency::LatencyModel;
use esr::net::topology::LinkConfig;
use esr::net::transport::NetStats;
use esr::replica::cluster::{ClusterConfig, Method, SimCluster};
use esr::replica::span::{Event, SpanStage};
use esr::sim::time::{Duration, VirtualTime};
use esr_check::certify::{certify, SiteTrace};

fn submit_mixed(cluster: &mut SimCluster, method: Method, n: u64) {
    for i in 0..n {
        cluster.advance_to(VirtualTime::from_millis(i * 3));
        match method {
            Method::RituOverwrite | Method::RituMv => {
                cluster.submit_blind_write(SiteId(i % 3), ObjectId(i % 4), Value::Int(i as i64));
            }
            Method::OrdupSeq | Method::OrdupLamport => {
                let op = if i % 3 == 0 {
                    Operation::MulBy(2)
                } else {
                    Operation::Incr(1 + i as i64)
                };
                cluster.submit_update(SiteId(i % 3), vec![ObjectOp::new(ObjectId(i % 4), op)]);
            }
            _ => {
                cluster.submit_update(
                    SiteId(i % 3),
                    vec![ObjectOp::new(ObjectId(i % 4), Operation::Incr(1 + i as i64))],
                );
            }
        }
    }
}

/// Certifies a finished run's event logs against the method's spec —
/// ORDUP-L included: the simulator records the applies its quiescence
/// heartbeat causes, so the tail is in the dump.
fn assert_certified(cluster: &SimCluster, method: Method, scenario: &str) {
    let traces: Vec<SiteTrace> = cluster
        .site_ids()
        .into_iter()
        .map(|site| SiteTrace::from_dump(site.raw(), 0, cluster.events_of(site)))
        .collect();
    assert!(traces.iter().all(|t| !t.events.is_empty()));
    let findings = certify(method.rt(), &traces);
    assert!(
        findings.is_empty(),
        "{} under {scenario}: {findings:#?}",
        method.name()
    );
}

#[test]
fn ninety_percent_loss_still_converges() {
    for method in Method::ALL {
        let cfg = ClusterConfig::new(method)
            .with_sites(3)
            .with_link(LinkConfig {
                latency: LatencyModel::Constant(Duration::from_millis(2)),
                drop_prob: 0.9,
                duplicate_prob: 0.0,
                bandwidth: None,
            })
            .with_seed(13)
            .with_abort_prob(if method == Method::Compe { 0.2 } else { 0.0 });
        let mut cluster = SimCluster::new(cfg);
        submit_mixed(&mut cluster, method, 20);
        cluster.run_until_quiescent();
        assert!(
            cluster.converged(),
            "{} diverged at 90% loss",
            method.name()
        );
        assert!(
            cluster.net_stats().dropped_attempts > 50,
            "the loss injection must actually bite"
        );
        assert_certified(&cluster, method, "90% loss");
    }
}

#[test]
fn duplicate_storm_is_fully_idempotent() {
    for method in Method::ALL {
        let cfg = ClusterConfig::new(method)
            .with_sites(3)
            .with_link(LinkConfig {
                latency: LatencyModel::Uniform(Duration::from_millis(1), Duration::from_millis(20)),
                drop_prob: 0.0,
                duplicate_prob: 1.0, // every delivery duplicated
                bandwidth: None,
            })
            .with_seed(14)
            .with_abort_prob(if method == Method::Compe { 0.2 } else { 0.0 });
        let mut cluster = SimCluster::new(cfg);
        submit_mixed(&mut cluster, method, 20);
        cluster.run_until_quiescent();
        assert!(cluster.converged(), "{}", method.name());
        assert!(cluster.net_stats().duplicated > 0);
        if method != Method::OrdupLamport && method != Method::Compe {
            assert!(cluster.matches_oracle(), "{}: duplicates double-applied", method.name());
        }
        assert_certified(&cluster, method, "a duplicate storm");
    }
}

#[test]
fn flapping_partitions_heal_to_the_oracle() {
    // Five back-to-back partition windows rotating the victim.
    let mut windows = Vec::new();
    for w in 0..5u64 {
        let victim = SiteId(w % 3);
        let others: BTreeSet<SiteId> = (0..3).map(SiteId).filter(|s| *s != victim).collect();
        windows.push(PartitionWindow::isolate(
            VirtualTime::from_millis(w * 40),
            VirtualTime::from_millis(w * 40 + 35),
            victim,
            others,
        ));
    }
    for method in [Method::OrdupSeq, Method::Commu, Method::RituOverwrite] {
        let cfg = ClusterConfig::new(method)
            .with_sites(3)
            .with_link(LinkConfig::reliable(LatencyModel::Constant(
                Duration::from_millis(2),
            )))
            .with_partitions(PartitionSchedule::new(windows.clone()))
            .with_seed(15);
        let mut cluster = SimCluster::new(cfg);
        submit_mixed(&mut cluster, method, 30);
        cluster.run_until_quiescent();
        assert!(cluster.converged(), "{}", method.name());
        assert!(cluster.matches_oracle(), "{}", method.name());
        assert!(cluster.net_stats().partition_blocked > 0);
        assert_certified(&cluster, method, "flapping partitions");
    }
}

#[test]
fn byte_starved_links_converge_late_but_exactly() {
    // 2 KB/s links: each MSet (~41 bytes) costs ~20ms of transmitter
    // time, so the fan-out queues heavily.
    let link = LinkConfig::reliable(LatencyModel::Constant(Duration::from_millis(1)))
        .with_bandwidth(2_000);
    let cfg = ClusterConfig::new(Method::Commu)
        .with_sites(3)
        .with_link(link)
        .with_seed(16);
    let mut cluster = SimCluster::new(cfg);
    for i in 0..30u64 {
        // All submitted at t=0: worst-case congestion.
        cluster.submit_update(
            SiteId(0),
            vec![ObjectOp::new(ObjectId(0), Operation::Incr(1))],
        );
        let _ = i;
    }
    let t = cluster.run_until_quiescent();
    assert!(cluster.converged());
    assert_eq!(cluster.snapshot_of(SiteId(2))[&ObjectId(0)], Value::Int(30));
    assert!(
        t >= VirtualTime::from_millis(500),
        "30 MSets × ~20ms serialization must stretch the run, got {t}"
    );
}

#[test]
fn strict_queries_survive_all_of_it_together() {
    // Loss + duplication + a partition + starving bandwidth at once; a
    // strict query still ends up serializable and exact.
    let link = LinkConfig {
        latency: LatencyModel::Uniform(Duration::from_millis(1), Duration::from_millis(30)),
        drop_prob: 0.4,
        duplicate_prob: 0.3,
        bandwidth: Some(50_000),
    };
    let partition = PartitionSchedule::new(vec![PartitionWindow::isolate(
        VirtualTime::from_millis(20),
        VirtualTime::from_millis(150),
        SiteId(2),
        [SiteId(0), SiteId(1)],
    )]);
    let cfg = ClusterConfig::new(Method::Commu)
        .with_sites(3)
        .with_link(link)
        .with_partitions(partition)
        .with_seed(17);
    let mut cluster = SimCluster::new(cfg);
    let mut expected = 0i64;
    for i in 0..25u64 {
        cluster.advance_to(VirtualTime::from_millis(i * 4));
        let amount = 1 + (i % 5) as i64;
        expected += amount;
        cluster.submit_update(
            SiteId(i % 2), // submit from the majority side
            vec![ObjectOp::new(ObjectId(0), Operation::Incr(amount))],
        );
    }
    let report = cluster.query_with_retry(SiteId(2), &[ObjectId(0)], EpsilonSpec::STRICT);
    assert_eq!(report.charged, 0);
    assert_eq!(report.values, vec![Value::Int(expected)]);
    cluster.run_until_quiescent();
    assert!(cluster.converged());
}

// ---------------------------------------------------------------------
// Crash × loss × duplication × partition × reordering.
//
// Every scenario below runs three sites over links that drop 25 % of
// the attempts, duplicate 15 % of the deliveries, reorder freely (1–20
// ms uniform latency) and cut site 2 off for slots [4, 16) of the
// stream; one site is crashed after the first half of the updates, the
// second half is submitted while it is down — to it as well — and it
// restarts from its journal. CI sweeps `CHAOS_SEED` over a matrix.
// ---------------------------------------------------------------------

const X: ObjectId = ObjectId(0);
const Y: ObjectId = ObjectId(1);
/// Updates submitted before, and again after, the crash.
const PHASE: u64 = 16;
const FOLLOWER: SiteId = SiteId(1);
const COORDINATOR: SiteId = SiteId(0);

/// When update `k` is submitted: one every 10 ms, so most of phase 1
/// has reached the victim when it dies (links take 1–20 ms, a dropped
/// attempt is retried after 50 ms).
fn slot(k: u64) -> VirtualTime {
    VirtualTime::from_millis(k * 10)
}

/// Seed for the crash scenarios; CI overrides it to sweep a matrix.
fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE)
}

fn chaos_config(method: Method, seed: u64) -> ClusterConfig {
    let partition = PartitionWindow::isolate(
        slot(4),
        slot(16),
        SiteId(2),
        [SiteId(0), SiteId(1)],
    );
    ClusterConfig::new(method)
        .with_sites(3)
        .with_link(LinkConfig {
            latency: LatencyModel::Uniform(Duration::from_millis(1), Duration::from_millis(20)),
            drop_prob: 0.25,
            duplicate_prob: 0.15,
            bandwidth: None,
        })
        .with_partitions(PartitionSchedule::new(vec![partition]))
        .with_seed(seed)
}

/// Submits update `i` of a crash scenario in its slot (ops chosen per
/// method so the serial oracle is well defined). COMPE outcomes stay
/// pending: the scenario decides them.
fn chaos_submit(c: &mut SimCluster, method: Method, i: u64) -> EtId {
    c.advance_to(slot(i));
    let origin = SiteId(i % 3);
    let incrs = vec![
        ObjectOp::new(X, Operation::Incr(i as i64 + 1)),
        ObjectOp::new(Y, Operation::Incr(1)),
    ];
    match method {
        // The sequencer orders updates in submission order, so even
        // non-commutative ops land identically everywhere.
        Method::OrdupSeq if i % 3 == 2 => {
            c.submit_update(origin, vec![ObjectOp::new(X, Operation::MulBy(2))])
        }
        Method::RituOverwrite | Method::RituMv => {
            c.submit_blind_write(origin, X, Value::Int(i as i64))
        }
        Method::Compe => c.submit_update_pending(origin, incrs),
        _ => c.submit_update(origin, incrs),
    }
}

/// COMPE: the client decides every ET of `ets` (numbered from `first`):
/// commit even submissions, abort odd ones.
fn chaos_decide(c: &mut SimCluster, ets: &[EtId], first: u64) {
    for (i, et) in (first..).zip(ets) {
        c.resolve(*et, i % 2 == 0);
    }
}

/// Everything a crash scenario leaves behind that a second run of the
/// same seed must reproduce exactly.
#[derive(Debug, PartialEq)]
struct ChaosRun {
    snapshots: Vec<BTreeMap<ObjectId, Value>>,
    events: Vec<Vec<(u64, u64, Event)>>,
    net: NetStats,
    redelivered: u64,
}

impl ChaosRun {
    fn of(c: &SimCluster) -> Self {
        let sites = c.site_ids();
        Self {
            snapshots: sites.iter().map(|s| c.snapshot_of(*s)).collect(),
            events: sites.iter().map(|s| c.events_of(*s)).collect(),
            net: c.net_stats(),
            redelivered: c.stats().redelivered,
        }
    }

    fn count(&self, site: SiteId, pred: impl Fn(&Event) -> bool) -> usize {
        let log = &self.events[site.raw() as usize];
        log.iter().filter(|(_, _, e)| pred(e)).count()
    }
}

fn is_stage(e: &Event, stage: SpanStage) -> bool {
    matches!(e, Event::Span(r) if r.stage == stage)
}

/// The full crash scenario: phase 1 (decided at once under COMPE, so
/// decisions are in flight at the crash), crash `victim`, phase 2 while
/// it is down, restart, decide the phase-2 COMPE outcomes, quiesce —
/// then the whole judgment: converged, equal to the serial oracle,
/// certified, and every injected fault demonstrably fired. `victim` =
/// site 0 kills the coordinator: completion counts, the VTNC scan and
/// the decision log die with it and come back through the core's
/// `Hello` exchange — including a decision its `Hello` overtook
/// (ROADMAP 3(d)), since nothing here is FIFO.
fn run_crash_scenario(method: Method, seed: u64, victim: SiteId) -> ChaosRun {
    let name = method.name();
    let mut c = SimCluster::new(chaos_config(method, seed));
    let mut ets: Vec<EtId> = (0..PHASE).map(|i| chaos_submit(&mut c, method, i)).collect();
    if method == Method::Compe {
        chaos_decide(&mut c, &ets, 0);
    }
    // A few ms on: the coordinator has broadcast the first decisions,
    // none of which can have arrived everywhere yet.
    c.advance_to(slot(PHASE - 1) + Duration::from_millis(5));
    c.crash(victim);
    ets.extend((PHASE..2 * PHASE).map(|i| chaos_submit(&mut c, method, i)));
    // Stay down long enough for retried attempts to find the site dead
    // too.
    c.advance_to(slot(2 * PHASE + 6));
    c.restart(victim).expect("restart");
    if method == Method::Compe {
        chaos_decide(&mut c, &ets[PHASE as usize..], PHASE);
    }
    c.run_until_quiescent();

    assert!(c.converged(), "{name} seed={seed}: replicas diverged");
    assert!(c.matches_oracle(), "{name} seed={seed}: not the serial oracle's state");
    assert_eq!(c.total_backlog(), 0, "{name} seed={seed}");
    assert_certified(&c, method, &format!("a crash of {victim}, seed {seed}"));
    let out = c.query_with_retry(victim, &[X, Y], EpsilonSpec::STRICT);
    assert_eq!(out.charged, 0, "{name}: the recovered updates are still charged");

    // The faults must actually have fired — a chaos test that silently
    // ran a clean network proves nothing.
    let run = ChaosRun::of(&c);
    assert!(run.net.dropped_attempts > 0, "{name}: no attempt dropped");
    assert!(run.net.duplicated > 0, "{name}: no duplicate planned");
    assert!(run.net.partition_blocked > 0, "{name}: the partition never blocked an attempt");
    assert!(run.redelivered > 0, "{name}: nothing waited for the dead site");
    // The victim came back from its journal, told everyone, and
    // duplicates were absorbed somewhere. (Counters, not the logs: the
    // victim's first log died with it, and an ORDUP journal may hold
    // nothing but MSets still waiting for their predecessor.)
    let metrics = c.metrics().snapshot();
    let replayed = metrics.value("esr_recovery_replays_total", &[("site", &victim.raw().to_string())]);
    assert!(replayed > Some(0), "{name}: the restart replayed nothing");
    for peer in c.site_ids().into_iter().filter(|p| *p != victim) {
        let greeted = |e: &Event| *e == Event::Hello { site: victim, epoch: 2 };
        assert!(run.count(peer, greeted) > 0, "{name}: {peer} never saw the restart Hello");
    }
    let absorbed: i64 = (0..3)
        .filter_map(|s| {
            let labels: &[(&str, &str)] = &[("method", name), ("site", &s.to_string())];
            metrics.value("esr_redelivered_total", labels)
        })
        .sum();
    assert!(absorbed > 0, "{name}: no duplicate was suppressed");
    run
}

/// A follower dies and comes back; the same seed reproduces the run
/// exactly — final states, every site's event log, the network's
/// counters.
fn assert_follower_crash(method: Method) {
    let seed = chaos_seed();
    let run = run_crash_scenario(method, seed, FOLLOWER);
    let again = run_crash_scenario(method, seed, FOLLOWER);
    assert_eq!(run, again, "{} seed={seed}: the run is not reproducible", method.name());
}

#[test]
fn ordup_survives_chaos_with_crash_restart() {
    assert_follower_crash(Method::OrdupSeq);
}

#[test]
fn commu_survives_chaos_with_crash_restart() {
    assert_follower_crash(Method::Commu);
}

#[test]
fn ritu_survives_chaos_with_crash_restart() {
    assert_follower_crash(Method::RituOverwrite);
}

#[test]
fn compe_survives_chaos_with_crash_restart() {
    assert_follower_crash(Method::Compe);
}

/// The **coordinator** dies and comes back: same judgment, same
/// reproducibility, and the same final state as the run that killed a
/// follower instead. (Their event logs and network counters differ:
/// one seeded stream plans every frame's fate, and the victim's
/// recovery traffic shifts it.)
fn assert_coordinator_crash(method: Method) {
    let seed = chaos_seed();
    let run = run_crash_scenario(method, seed, COORDINATOR);
    let again = run_crash_scenario(method, seed, COORDINATOR);
    assert_eq!(run, again, "{} seed={seed}: the run is not reproducible", method.name());
    let follower = run_crash_scenario(method, seed, FOLLOWER);
    assert_eq!(
        run.snapshots,
        follower.snapshots,
        "{} seed={seed}: the final state depends on which site crashed",
        method.name()
    );
}

#[test]
fn commu_survives_coordinator_crash_restart() {
    assert_coordinator_crash(Method::Commu);
}

#[test]
fn ritu_mv_survives_coordinator_crash_restart() {
    assert_coordinator_crash(Method::RituMv);
}

#[test]
fn compe_survives_coordinator_crash_restart() {
    assert_coordinator_crash(Method::Compe);
}

/// ROADMAP 3(d), end to end: the coordinator decides, broadcasts, dies
/// and reboots in the same instant, so on these links its `Hello` and
/// its own pre-crash `Decision`s race to each follower. Whenever the
/// `Hello` wins at both, no re-announcement carries the decision, and
/// only the followers' echo gives it back to the coordinator — whose
/// replica would otherwise keep an aborted update applied.
#[test]
fn a_rebooted_coordinator_relearns_the_decisions_its_hello_overtook() {
    let link = LinkConfig::reliable(LatencyModel::Uniform(
        Duration::from_millis(1),
        Duration::from_millis(20),
    ));
    let mut overtaken = 0;
    for seed in 0..20 {
        let cfg = ClusterConfig::new(Method::Compe)
            .with_sites(3)
            .with_link(link)
            .with_seed(seed);
        let mut c = SimCluster::new(cfg);
        let ets: Vec<EtId> = (0..4).map(|i| chaos_submit(&mut c, Method::Compe, 3 * i)).collect();
        c.run_until_quiescent();
        // Abort them all at the coordinator, their origin; step until
        // it has decided — the broadcasts are in flight, none landed.
        for et in &ets {
            c.resolve(*et, false);
        }
        for _ in &ets {
            c.step();
        }
        c.crash(COORDINATOR);
        c.restart(COORDINATOR).expect("restart");
        c.run_until_quiescent();
        assert!(c.converged(), "seed {seed}: the coordinator kept an aborted update");
        assert!(c.matches_oracle(), "seed {seed}");
        assert_certified(&c, Method::Compe, "a Hello/Decision race");
        // The race went the bad way when a follower saw the Hello
        // before the first decision.
        let log = c.events_of(FOLLOWER);
        let hello = log.iter().position(|(_, _, e)| matches!(e, Event::Hello { .. }));
        let decision = log.iter().position(|(_, _, e)| is_stage(e, SpanStage::Decision));
        overtaken += usize::from(hello < decision);
    }
    assert!(overtaken > 0, "no seed made the Hello overtake a Decision");
}

/// The crash scenarios' stream and links with nobody crashing.
fn run_without_crash(method: Method, seed: u64) -> ChaosRun {
    let mut c = SimCluster::new(chaos_config(method, seed));
    for i in 0..2 * PHASE {
        chaos_submit(&mut c, method, i);
    }
    c.run_until_quiescent();
    assert!(c.converged() && c.matches_oracle(), "{} seed={seed}", method.name());
    assert_certified(&c, method, &format!("lossy links, seed {seed}"));
    ChaosRun::of(&c)
}

#[test]
fn ritu_mv_converges_under_chaos_without_crash() {
    // The coordinator-certified VTNC path under the lossy links alone.
    let run = run_without_crash(Method::RituMv, chaos_seed());
    assert_eq!(run.snapshots[0][&X], Value::Int(2 * PHASE as i64 - 1));
    assert!(run.net.dropped_attempts > 0 && run.net.duplicated > 0);
    assert!(run.net.partition_blocked > 0);
    assert_eq!(run.redelivered, 0);
}

#[test]
fn same_seed_reproduces_the_run_and_another_seed_does_not() {
    let seed = chaos_seed();
    let run = run_without_crash(Method::Commu, seed);
    assert!(run.events.iter().all(|log| !log.is_empty()));
    assert_eq!(run, run_without_crash(Method::Commu, seed), "seed {seed} did not reproduce");
    // The seed actually steers the fates.
    let (a, b) = (run_without_crash(Method::Commu, 11), run_without_crash(Method::Commu, 12));
    assert_eq!(a.snapshots, b.snapshots);
    assert_ne!((a.net, a.events), (b.net, b.events));
}

#[test]
fn crashed_site_recovers_journalled_state_alone() {
    // Quiesce first so nothing is in flight or waiting, then crash and
    // restart: the journal alone must restore everything the site had
    // acknowledged.
    let cfg = ClusterConfig::new(Method::Commu)
        .with_sites(3)
        .with_seed(chaos_seed());
    let mut c = SimCluster::new(cfg);
    for i in 0..PHASE {
        chaos_submit(&mut c, Method::Commu, i);
    }
    c.run_until_quiescent();
    let before = c.snapshot_of(FOLLOWER);
    c.crash(FOLLOWER);
    assert!(c.snapshot_of(FOLLOWER).is_empty(), "a crashed site keeps no state");
    c.restart(FOLLOWER).expect("restart");
    c.run_until_quiescent();
    assert_eq!(c.snapshot_of(FOLLOWER), before, "journal replay lost acknowledged state");
    assert!(c.converged() && c.matches_oracle());
    assert_eq!(c.stats().redelivered, 0, "nothing was in flight");
    let replays = ChaosRun::of(&c).count(FOLLOWER, |e| is_stage(e, SpanStage::Replay));
    assert_eq!(replays as u64, PHASE, "every applied MSet was journalled");
    assert_certified(&c, Method::Commu, "a crash at rest");
}

// ---------------------------------------------------------------------
// The node's own recovery paths, in virtual time: a restart from a
// checkpoint image, and an election. Same links, partition and seed as
// the crash scenarios above.
// ---------------------------------------------------------------------

/// `site`'s boot, from its current incarnation's log.
fn boot_of(run: &ChaosRun, site: SiteId) -> Option<&Event> {
    let log = &run.events[site.raw() as usize];
    log.iter()
        .map(|(_, _, e)| e)
        .find(|e| matches!(e, Event::Boot { .. }))
}

/// The final judgment every scenario here shares: converged, the serial
/// oracle's state, nothing held back, certified.
fn assert_judged(c: &SimCluster, method: Method, scenario: &str) {
    let name = method.name();
    assert!(c.converged(), "{name} after {scenario}: replicas diverged");
    assert!(
        c.matches_oracle(),
        "{name} after {scenario}: not the serial oracle's state"
    );
    assert_eq!(c.total_backlog(), 0, "{name} after {scenario}");
    assert_certified(c, method, scenario);
}

/// The follower cuts a checkpoint halfway through phase 1, crashes at
/// its end, misses phase 2, and boots from the image plus the journal
/// suffix past it.
fn run_restore_scenario(method: Method, seed: u64) -> ChaosRun {
    let name = method.name();
    let mut c = SimCluster::new(chaos_config(method, seed));
    let mut ets: Vec<EtId> = (0..PHASE / 2)
        .map(|i| chaos_submit(&mut c, method, i))
        .collect();
    let (seq, covered) = c.checkpoint(FOLLOWER);
    assert!(
        seq == 1 && covered > 0,
        "{name}: checkpoint ({seq}, {covered})"
    );
    ets.extend((PHASE / 2..PHASE).map(|i| chaos_submit(&mut c, method, i)));
    if method == Method::Compe {
        chaos_decide(&mut c, &ets, 0);
    }
    c.advance_to(slot(PHASE - 1) + Duration::from_millis(5));
    c.crash(FOLLOWER);
    ets.extend((PHASE..2 * PHASE).map(|i| chaos_submit(&mut c, method, i)));
    c.advance_to(slot(2 * PHASE + 6));
    c.restart(FOLLOWER).expect("restart");
    if method == Method::Compe {
        chaos_decide(&mut c, &ets[PHASE as usize..], PHASE);
    }
    c.run_until_quiescent();
    assert_judged(&c, method, &format!("a restore, seed {seed}"));
    let out = c.query_with_retry(FOLLOWER, &[X, Y], EpsilonSpec::STRICT);
    assert_eq!(
        out.charged, 0,
        "{name}: the restored updates are still charged"
    );

    let run = ChaosRun::of(&c);
    let boot = boot_of(&run, FOLLOWER);
    assert!(
        matches!(boot, Some(Event::Boot { snapshot: Some((1, image)), replayed, .. })
            if *image == covered && *replayed > 0),
        "{name} seed={seed}: not a boot from image 1 plus a suffix: {boot:?}"
    );
    run
}

#[test]
fn a_restart_restores_its_checkpoint_under_chaos() {
    let seed = chaos_seed();
    for method in [Method::Commu, Method::RituMv, Method::Compe] {
        let run = run_restore_scenario(method, seed);
        let again = run_restore_scenario(method, seed);
        assert_eq!(
            run,
            again,
            "{} seed={seed}: the run is not reproducible",
            method.name()
        );
    }
}

/// The heartbeat period `esrd` ticks at.
const TICK: Duration = Duration::from_millis(250);

/// The coordinator dies; heartbeats elect a successor; the successor
/// crashes and boots into the view it recorded; the old coordinator
/// rejoins from view 0 and learns the new one.
fn run_election_scenario(method: Method, seed: u64) -> ChaosRun {
    let name = method.name();
    let mut c = SimCluster::new(chaos_config(method, seed));
    let mut ets: Vec<EtId> = (0..PHASE)
        .map(|i| chaos_submit(&mut c, method, i))
        .collect();
    if method == Method::Compe {
        chaos_decide(&mut c, &ets, 0);
    }
    c.advance_to(slot(PHASE));
    c.crash(COORDINATOR);
    let installed = |c: &SimCluster, site: SiteId| {
        let log = c.events_of(site);
        log.iter().rev().find_map(|(_, _, e)| match e {
            Event::ViewInstall { view, .. } => Some(*view),
            _ => None,
        })
    };
    let mut now = slot(PHASE);
    let (elected, view) = loop {
        now += TICK;
        assert!(
            now < VirtualTime::from_millis(60_000),
            "{name} seed={seed}: nobody was elected"
        );
        c.advance_to(now);
        c.tick();
        let new_view = [FOLLOWER, SiteId(2)]
            .into_iter()
            .find_map(|s| Some((s, installed(&c, s)?)));
        if let Some(found) = new_view {
            break found;
        }
    };
    assert!(view >= 1, "{name}: installed view {view}");
    ets.extend((PHASE..2 * PHASE).map(|i| chaos_submit(&mut c, method, i)));
    c.crash(elected);
    c.restart(elected).expect("restart the successor");
    let run = ChaosRun::of(&c);
    let reboot = boot_of(&run, elected);
    assert!(
        matches!(reboot, Some(Event::Boot { view: booted, .. }) if *booted == view),
        "{name} seed={seed}: {elected} did not boot into view {view}: {reboot:?}"
    );
    c.restart(COORDINATOR).expect("restart the old coordinator");
    if method == Method::Compe {
        chaos_decide(&mut c, &ets[PHASE as usize..], PHASE);
    }
    c.run_until_quiescent();
    assert_judged(&c, method, &format!("an election, seed {seed}"));
    ChaosRun::of(&c)
}

#[test]
fn an_election_in_virtual_time_survives_both_restarts() {
    let seed = chaos_seed();
    for method in [Method::Commu, Method::RituMv, Method::Compe] {
        let run = run_election_scenario(method, seed);
        let again = run_election_scenario(method, seed);
        assert_eq!(
            run,
            again,
            "{} seed={seed}: the run is not reproducible",
            method.name()
        );
    }
}

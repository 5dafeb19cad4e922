//! Chaos integration: the thread runtime under a seeded lossy transport
//! with crash/restart recovery.
//!
//! Each scenario routes every frame through the durable fault-injection
//! relays (drops ≈ 25% of update attempts, duplicates ≈ 15% of update
//! deliveries, one partition window isolating a site mid-stream),
//! crashes one site — a follower or the coordinator — in the middle of
//! the run, restarts it, and then requires the full ESR guarantee: at
//! quiescence all replicas are identical, and the final state equals
//! what a fault-free run produces. Every run's per-site trace rings go
//! through the `esr-check` trace certifier, counters must prove the
//! faults actually fired, and the same seed must reproduce
//! byte-identical fault traces and final snapshots.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

use esr::core::{EtId, ObjectId, ObjectOp, Operation, SiteId, Value};
use esr::net::faults::{PartitionSchedule, PartitionWindow};
use esr::replica::span::Event;
use esr::runtime::{render_trace, ChaosStats, Cluster, FaultPlan, RtMethod};
use esr_check::certify::{certify, SiteTrace};

const X: ObjectId = ObjectId(0);
const Y: ObjectId = ObjectId(1);
const N: usize = 3;
const PHASE: u64 = 12; // updates submitted before and after the crash

/// Seed for the scenario runs; CI overrides it to sweep a matrix.
fn seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE)
}

/// A unique private directory for one cluster's queues and journals.
/// Each run needs a fresh one: relay queues persist entry-id counters,
/// so reusing a directory would shift the trace of a second run.
fn fresh_dir(tag: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let k = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "esr-chaos-{}-{tag}-{k}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The fault plan every scenario uses: lossy, duplicating, with site 2
/// cut off from the others for ticks [4, 10) of each link's clock.
fn plan(seed: u64) -> FaultPlan {
    let partition = PartitionWindow::isolate(
        FaultPlan::tick(4),
        FaultPlan::tick(10),
        SiteId(2),
        [SiteId(0), SiteId(1)],
    );
    FaultPlan::new(seed)
        .with_drops(0.25)
        .with_duplicates(0.15)
        .with_partitions(PartitionSchedule::new(vec![partition]))
}

struct RunResult {
    snapshots: Vec<BTreeMap<ObjectId, Value>>,
    trace: String,
    stats: ChaosStats,
    /// Duplicate deliveries suppressed (MSets by the replicas'
    /// idempotency guards, re-sent submits by the cores' client tables)
    /// + MSets journalled, summed over all sites.
    suppressed: u64,
    journaled: u64,
}

/// Dumps every site's trace ring, requires the run to pass the
/// replication-aware trace certifier — the thread runtime is judged
/// against the same spec as every proc-cluster scenario — and returns
/// how many re-sent submits the cores absorbed.
fn certify_run(c: &Cluster, method: RtMethod, seed: u64) -> u64 {
    let traces: Vec<SiteTrace> = (0..N as u64)
        .map(|s| {
            let (dropped, events) = c.trace_of(SiteId(s));
            SiteTrace::from_dump(s, dropped, events)
        })
        .collect();
    let findings = certify(method, &traces);
    assert!(
        findings.is_empty(),
        "{method:?} seed={seed}: trace certification failed:\n{findings:#?}"
    );
    traces
        .iter()
        .flat_map(|t| &t.events)
        .filter(|e| matches!(e, Event::DuplicateSubmit { .. }))
        .count() as u64
}

/// Submits update `i` of a scenario (ops chosen per method so the final
/// state is independent of delivery order — the property chaos may not
/// break).
fn submit(c: &Cluster, method: RtMethod, i: u64) -> EtId {
    let origin = SiteId(i % N as u64);
    match method {
        // The sequencer totally orders updates in submission order, so
        // even non-commutative ops land identically everywhere.
        RtMethod::Ordup => {
            if i % 3 == 2 {
                c.submit_update(origin, vec![ObjectOp::new(X, Operation::MulBy(2))])
            } else {
                c.submit_update(
                    origin,
                    vec![
                        ObjectOp::new(X, Operation::Incr(i as i64 + 1)),
                        ObjectOp::new(Y, Operation::Incr(1)),
                    ],
                )
            }
        }
        RtMethod::Commu | RtMethod::Compe => c.submit_update(
            origin,
            vec![
                ObjectOp::new(X, Operation::Incr(i as i64 + 1)),
                ObjectOp::new(Y, Operation::Incr(1)),
            ],
        ),
        // LWW: the version clock stamps submissions in order, so the
        // highest timestamp (the last submission) wins everywhere.
        RtMethod::Ritu | RtMethod::RituMv => c.submit_blind_write(origin, X, Value::Int(i as i64)),
    }
}

/// COMPE: decides every ET of `ets` (numbered from `first`): commit
/// even submissions, abort odd ones.
fn decide(c: &Cluster, ets: &[EtId], first: u64) {
    for (i, et) in (first..).zip(ets) {
        if i % 2 == 0 {
            c.commit(*et);
        } else {
            c.abort(*et);
        }
    }
}

/// Runs the full chaos scenario: phase 1 of updates (decided at once
/// under COMPE, so decisions are in flight at the crash), crash
/// `victim`, phase 2 while it is down (relays buffer durably and
/// re-send — submits to the dead site included), restart, decide the
/// phase-2 COMPE outcomes, quiesce, certify, and collect everything.
/// `victim` = site 0 kills the coordinator: completion tracking, VTNC
/// certification and the decision log die with it and are rebuilt by
/// the core's Hello exchange.
fn run_scenario(method: RtMethod, seed: u64, tag: &str, victim: SiteId) -> RunResult {
    let dir = fresh_dir(tag);
    let mut c = Cluster::chaos(method, N, plan(seed), &dir);
    let mut ets = Vec::new();
    for i in 0..PHASE {
        ets.push(submit(&c, method, i));
    }
    if method == RtMethod::Compe {
        decide(&c, &ets, 0);
    }
    c.crash(victim);
    for i in PHASE..2 * PHASE {
        ets.push(submit(&c, method, i));
    }
    // Let the ack timeout elapse so the relays demonstrably re-send to
    // the dead site before it comes back (guarantees resends > 0).
    std::thread::sleep(Duration::from_millis(60));
    c.restart(victim);
    if method == RtMethod::Compe {
        // Every global update needs a decision before COMPE can settle.
        decide(&c, &ets[PHASE as usize..], PHASE);
    }
    c.quiesce();
    assert!(c.converged(), "{method:?} seed={seed}: replicas diverged");
    let mut suppressed = certify_run(&c, method, seed);
    let snapshots: Vec<_> = (0..N)
        .map(|i| c.snapshot_of(SiteId(i as u64)))
        .collect();
    let stats = c.chaos_stats();
    let trace = render_trace(&c.fault_trace());
    let mut journaled = 0;
    for i in 0..N {
        let a = c.audit_of(SiteId(i as u64));
        suppressed += a.redelivered;
        journaled += a.journaled;
    }
    c.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    RunResult {
        snapshots,
        trace,
        stats,
        suppressed,
        journaled,
    }
}

/// What a fault-free, single-site execution of the same scenario yields.
fn expected_final(method: RtMethod) -> BTreeMap<ObjectId, Value> {
    let mut x = 0i64;
    let mut y = 0i64;
    match method {
        RtMethod::Ordup => {
            for i in 0..2 * PHASE {
                if i % 3 == 2 {
                    x *= 2;
                } else {
                    x += i as i64 + 1;
                    y += 1;
                }
            }
        }
        RtMethod::Commu => {
            for i in 0..2 * PHASE {
                x += i as i64 + 1;
                y += 1;
            }
        }
        RtMethod::Compe => {
            // Odd submissions abort and are compensated away.
            for i in (0..2 * PHASE).step_by(2) {
                x += i as i64 + 1;
                y += 1;
            }
        }
        RtMethod::Ritu | RtMethod::RituMv => {
            let mut m = BTreeMap::new();
            m.insert(X, Value::Int(2 * PHASE as i64 - 1));
            return m;
        }
    }
    let mut m = BTreeMap::new();
    m.insert(X, Value::Int(x));
    m.insert(Y, Value::Int(y));
    m
}

fn assert_chaos_scenario(method: RtMethod, tag: &str) {
    let seed = seed();
    let r = run_scenario(method, seed, tag, SiteId(1));
    let expected = expected_final(method);
    for (i, snap) in r.snapshots.iter().enumerate() {
        assert_eq!(
            snap, &expected,
            "{method:?} seed={seed}: site {i} final state wrong"
        );
    }
    // The faults must actually have fired — a chaos test that silently
    // ran a clean network proves nothing.
    assert!(r.stats.dropped > 0, "{method:?}: no attempts dropped");
    assert!(r.stats.duplicated > 0, "{method:?}: no duplicates planned");
    assert!(r.stats.retries > 0, "{method:?}: no backoff retries");
    assert!(
        r.stats.partition_blocked > 0,
        "{method:?}: partition window never blocked an attempt"
    );
    assert!(r.stats.resends > 0, "{method:?}: crash never forced a re-send");
    assert_eq!(r.stats.crashes, 1);
    assert_eq!(r.stats.restarts, 1);
    // Every site journalled updates and survived duplicate deliveries.
    assert!(r.journaled >= 2 * PHASE, "{method:?}: journals too thin");
    assert!(r.suppressed > 0, "{method:?}: no duplicate was suppressed");
    // Reproducibility: the same seed yields the same trace and state.
    let again = run_scenario(method, seed, &format!("{tag}2"), SiteId(1));
    assert_eq!(r.trace, again.trace, "{method:?} seed={seed}: trace differs");
    assert_eq!(
        r.snapshots, again.snapshots,
        "{method:?} seed={seed}: snapshots differ across runs"
    );
}

#[test]
fn ordup_survives_chaos_with_crash_restart() {
    assert_chaos_scenario(RtMethod::Ordup, "ordup");
}

#[test]
fn commu_survives_chaos_with_crash_restart() {
    assert_chaos_scenario(RtMethod::Commu, "commu");
}

#[test]
fn ritu_survives_chaos_with_crash_restart() {
    assert_chaos_scenario(RtMethod::Ritu, "ritu");
}

#[test]
fn compe_survives_chaos_with_crash_restart() {
    assert_chaos_scenario(RtMethod::Compe, "compe");
}

/// Crashes and restarts the **coordinator** (site 0) mid-stream: the
/// run must still converge to the fault-free state and certify
/// (`run_scenario` checks both), and — the fault trace being a function
/// of seed and submission order only — plan exactly the fates of the
/// run that killed a follower instead.
fn assert_coordinator_crash(method: RtMethod, tag: &str) {
    let seed = seed();
    let r = run_scenario(method, seed, tag, SiteId(0));
    let expected = expected_final(method);
    for (i, snap) in r.snapshots.iter().enumerate() {
        assert_eq!(
            snap, &expected,
            "{method:?} seed={seed}: site {i} final state wrong after a coordinator crash"
        );
    }
    assert_eq!((r.stats.crashes, r.stats.restarts), (1, 1));
    assert!(r.stats.resends > 0, "{method:?}: crash never forced a re-send");
    let follower = run_scenario(method, seed, &format!("{tag}f"), SiteId(1));
    assert_eq!(
        r.trace, follower.trace,
        "{method:?} seed={seed}: fault trace depends on which site crashed"
    );
    assert_eq!(r.snapshots, follower.snapshots);
}

#[test]
fn commu_survives_coordinator_crash_restart() {
    assert_coordinator_crash(RtMethod::Commu, "commu0");
}

#[test]
fn ritu_mv_survives_coordinator_crash_restart() {
    assert_coordinator_crash(RtMethod::RituMv, "ritumv0");
}

#[test]
fn compe_survives_coordinator_crash_restart() {
    assert_coordinator_crash(RtMethod::Compe, "compe0");
}

#[test]
fn ritu_mv_converges_under_chaos_without_crash() {
    // RITU-MV exercises the coordinator-certified VTNC path; run it
    // under the lossy transport with no crash in the mix.
    let seed = seed();
    let dir = fresh_dir("ritumv");
    let c = Cluster::chaos(RtMethod::RituMv, N, plan(seed), &dir);
    for i in 0..2 * PHASE {
        submit(&c, RtMethod::RituMv, i);
    }
    c.quiesce();
    assert!(c.converged());
    certify_run(&c, RtMethod::RituMv, seed);
    assert_eq!(
        c.snapshot_of(SiteId(0))[&X],
        Value::Int(2 * PHASE as i64 - 1)
    );
    let stats = c.chaos_stats();
    assert!(stats.dropped > 0 && stats.duplicated > 0 && stats.retries > 0);
    drop(c);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn same_seed_reproduces_byte_identical_trace() {
    // Pure transport determinism, no crash in the mix: two clusters fed
    // the identical submission schedule plan the identical fates.
    let seed = seed();
    let mut traces = Vec::new();
    for run in 0..2 {
        let dir = fresh_dir(&format!("repro{run}"));
        let c = Cluster::chaos(RtMethod::Commu, N, plan(seed), &dir);
        for i in 0..2 * PHASE {
            submit(&c, RtMethod::Commu, i);
        }
        c.quiesce();
        assert!(c.converged());
        certify_run(&c, RtMethod::Commu, seed);
        traces.push(render_trace(&c.fault_trace()));
        drop(c);
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(!traces[0].is_empty());
    assert_eq!(traces[0], traces[1], "seed {seed} did not reproduce");
    // The trace names every link of the mesh at least once.
    for from in 0..N {
        for to in 0..N {
            assert!(
                traces[0].contains(&format!("{from}->{to} ")),
                "link {from}->{to} missing from trace"
            );
        }
    }
}

#[test]
fn different_seeds_differ() {
    // Sanity check that the plan seed actually steers the fates (two
    // arbitrary distinct seeds colliding on every link is vanishingly
    // unlikely with 72 planned entries).
    let mut traces = Vec::new();
    for seed in [11, 12] {
        let dir = fresh_dir(&format!("diverge{seed}"));
        let c = Cluster::chaos(RtMethod::Commu, N, plan(seed), &dir);
        for i in 0..2 * PHASE {
            submit(&c, RtMethod::Commu, i);
        }
        c.quiesce();
        traces.push(render_trace(&c.fault_trace()));
        drop(c);
    }
    assert_ne!(traces[0], traces[1]);
}

#[test]
fn crashed_site_recovers_journalled_state_alone() {
    // Even with every in-channel message lost at the crash, the journal
    // alone must restore everything the site had acknowledged.
    let seed = seed();
    let dir = fresh_dir("journal");
    let mut c = Cluster::chaos(RtMethod::Commu, N, FaultPlan::new(seed), &dir);
    for i in 0..PHASE {
        submit(&c, RtMethod::Commu, i);
    }
    c.quiesce();
    let before = c.snapshot_of(SiteId(1));
    let audit = c.audit_of(SiteId(1));
    assert_eq!(audit.journaled, PHASE, "every applied MSet journalled");
    c.crash(SiteId(1));
    c.restart(SiteId(1));
    c.quiesce();
    assert_eq!(
        c.snapshot_of(SiteId(1)),
        before,
        "journal replay lost acknowledged state"
    );
    assert!(c.converged());
    certify_run(&c, RtMethod::Commu, seed);
    c.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

//! Integration stress of live `esrd` clusters under concurrent clients:
//! many submitter threads borrowing one [`ProcCluster`], mixed queries,
//! commit/abort races — real sockets, real journals, real scheduling
//! nondeterminism. Every scenario ends the same way: quiesce, all
//! replicas identical, and the trace certifier clean over the sites'
//! own event-log dumps.

use std::path::PathBuf;
use std::thread;
use std::time::Duration;

use esr::core::{ObjectId, ObjectOp, Operation, SiteId, Value};
use esr::runtime::{ProcCluster, RtMethod};
use esr_check::certify::{certify, SiteTrace};

const X: ObjectId = ObjectId(0);
const QUIESCE: Duration = Duration::from_secs(60);

/// Spawns an `n`-site cluster in a private directory.
fn spawn(method: RtMethod, n: usize, tag: &str) -> (ProcCluster, PathBuf) {
    let dir = std::env::temp_dir().join(format!("esr-stress-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let c = ProcCluster::spawn(env!("CARGO_BIN_EXE_esrd"), &dir, method, n)
        .unwrap_or_else(|e| panic!("{method:?}: spawn failed: {e}"));
    (c, dir)
}

fn incr(object: ObjectId, n: i64) -> Vec<ObjectOp> {
    vec![ObjectOp::new(object, Operation::Incr(n))]
}

/// The common ending: the cluster quiesces, every replica holds the
/// same state, and the sites' own traces certify.
fn settle_and_certify(c: &ProcCluster) {
    let method = c.method();
    c.quiesce_within(QUIESCE)
        .unwrap_or_else(|e| panic!("{method:?}: {e}"));
    assert!(
        c.converged().expect("snapshots"),
        "{method:?}: replicas diverge"
    );
    let traces: Vec<SiteTrace> = (0..c.sites() as u64)
        .map(|s| {
            let (dropped, events) = c.trace_of(SiteId(s)).expect("trace");
            SiteTrace::from_dump(s, dropped, events)
        })
        .collect();
    let findings = certify(method, &traces);
    assert!(
        findings.is_empty(),
        "{method:?}: trace certification failed:\n{findings:#?}"
    );
}

fn finish(mut c: ProcCluster, dir: PathBuf) {
    c.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn commu_heavy_concurrency_converges_to_exact_sum() {
    let (c, dir) = spawn(RtMethod::Commu, 4, "commu-sum");
    let threads = 8u64;
    let per_thread = 100u64;
    thread::scope(|s| {
        for t in 0..threads {
            let c = &c;
            s.spawn(move || {
                for i in 0..per_thread {
                    c.submit_update(SiteId(t % 4), incr(ObjectId(i % 4), 1))
                        .expect("submit");
                }
            });
        }
    });
    settle_and_certify(&c);
    let snap = c.snapshot_of(SiteId(2)).expect("snapshot");
    let total: i64 = snap.values().filter_map(|v| v.as_int()).sum();
    assert_eq!(total, (threads * per_thread) as i64);
    finish(c, dir);
}

#[test]
fn ordup_non_commutative_stream_agrees_across_threads() {
    let (c, dir) = spawn(RtMethod::Ordup, 3, "ordup-order");
    // Two racing submitters issue conflicting families; whatever global
    // order the sequencer picks, all replicas must agree on it.
    thread::scope(|s| {
        s.spawn(|| {
            for _ in 0..50 {
                c.submit_update(SiteId(0), incr(X, 3)).expect("submit");
            }
        });
        s.spawn(|| {
            for _ in 0..20 {
                c.submit_update(SiteId(1), vec![ObjectOp::new(X, Operation::MulBy(2))])
                    .expect("submit");
            }
        });
    });
    settle_and_certify(&c);
    finish(c, dir);
}

#[test]
fn ritu_concurrent_blind_writes_pick_one_winner() {
    let (c, dir) = spawn(RtMethod::Ritu, 3, "ritu-winner");
    thread::scope(|s| {
        for t in 0..6u64 {
            let c = &c;
            s.spawn(move || {
                for i in 0..30u64 {
                    c.submit_blind_write(SiteId(t % 3), X, Value::Int((t * 100 + i) as i64))
                        .expect("submit");
                }
            });
        }
    });
    settle_and_certify(&c);
    // The winner carries the globally newest version — some write from
    // the run, identical on every replica.
    let winner = c.snapshot_of(SiteId(0)).expect("snapshot")[&X].clone();
    let w = winner.as_int().expect("an integer was written");
    assert!(w % 100 < 30 && w / 100 < 6, "{w} was never written");
    finish(c, dir);
}

#[test]
fn compe_concurrent_aborts_leave_only_committed_effects() {
    let (c, dir) = spawn(RtMethod::Compe, 3, "compe-aborts");
    let mut committed_sum = 0i64;
    let mut ets = Vec::new();
    for i in 0..60u64 {
        let amount = 1 + (i % 7) as i64;
        let et = c
            .submit_update(SiteId(i % 3), incr(X, amount))
            .expect("submit");
        ets.push((et, amount, i % 3 == 0));
    }
    // Resolve in a scrambled order: every third update aborts.
    for (et, amount, abort) in ets.iter().rev() {
        if *abort {
            c.abort(*et).expect("abort");
        } else {
            c.commit(*et).expect("commit");
            committed_sum += amount;
        }
    }
    settle_and_certify(&c);
    assert_eq!(
        c.snapshot_of(SiteId(1)).expect("snapshot")[&X],
        Value::Int(committed_sum)
    );
    finish(c, dir);
}

#[test]
fn strict_queries_match_quiescent_state() {
    let (c, dir) = spawn(RtMethod::Commu, 4, "strict");
    for i in 0..40u64 {
        c.submit_update(SiteId(i % 4), incr(X, 2)).expect("submit");
    }
    // Mid-flight, a strict read is admitted only when site 3 knows of
    // nothing in flight: it charges nothing and sees whole updates.
    let mut reader = c.client(SiteId(3)).expect("client");
    for _ in 0..20 {
        let out = reader.query(&[X], 0).expect("query");
        if out.admitted {
            assert_eq!(out.charged, 0);
            let v = out.values[0].as_int().expect("int");
            assert!(v % 2 == 0 && (0..=80).contains(&v), "torn strict read: {v}");
        }
    }
    // At quiescence it must be admitted and equal the replica state.
    settle_and_certify(&c);
    let strict = reader.query(&[X], 0).expect("query");
    assert!(strict.admitted);
    assert_eq!(strict.charged, 0);
    assert_eq!(strict.values[0], Value::Int(80));
    assert_eq!(
        c.snapshot_of(SiteId(3)).expect("snapshot")[&X],
        Value::Int(80)
    );
    finish(c, dir);
}

#[test]
fn bounded_queries_respect_budget_under_load() {
    let (c, dir) = spawn(RtMethod::Commu, 4, "bounded");
    thread::scope(|s| {
        s.spawn(|| {
            for i in 0..200u64 {
                c.submit_update(SiteId(i % 4), incr(X, 1)).expect("submit");
            }
        });
        let mut reader = c.client(SiteId(1)).expect("client");
        for _ in 0..100 {
            let out = reader.query(&[X], 5).expect("query");
            if out.admitted {
                assert!(out.charged <= 5, "budget violated: {}", out.charged);
            }
        }
    });
    settle_and_certify(&c);
    finish(c, dir);
}

#[test]
fn mixed_object_workload_with_multi_op_msets() {
    let (c, dir) = spawn(RtMethod::Commu, 3, "multi-op");
    for i in 0..50u64 {
        c.submit_update(
            SiteId(i % 3),
            vec![
                ObjectOp::new(X, Operation::Decr(1)),
                ObjectOp::new(ObjectId(1), Operation::Incr(1)),
            ],
        )
        .expect("submit");
    }
    settle_and_certify(&c);
    let snap = c.snapshot_of(SiteId(0)).expect("snapshot");
    assert_eq!(snap[&X], Value::Int(-50));
    assert_eq!(snap[&ObjectId(1)], Value::Int(50));
    finish(c, dir);
}

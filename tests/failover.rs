//! Coordinator failover: `SIGKILL` the acting coordinator mid-stream,
//! let the survivors elect a new view, and require the full ESR
//! guarantee anyway.
//!
//! The scenarios extend `proc_cluster.rs` (which kills a *follower*)
//! to the hard case the view-change machinery exists for: site 0
//! starts as the view-0 coordinator, dies without flushing anything,
//! and the survivors must (a) keep accepting the client stream, (b)
//! suspect the silent coordinator after `SUSPECT_AFTER` heartbeat
//! ticks and drive a Viewstamped-Replication-style election, and (c)
//! converge with certified traces once the killed site is revived
//! (completion needs all `n` install reports, so the revived site's
//! re-announcements are part of the handoff story, not an
//! afterthought). The flapping variant kills the *new* coordinator
//! too. `retried_submit_is_answered_once_across_a_failover` is the
//! daemon-level exactly-once check: a client retry lands at a
//! different site, after the failover, and still gets the original ET.

use std::collections::BTreeMap;
use std::time::Duration;

use esr::core::{ObjectId, ObjectOp, Operation, SiteId, Value};
use esr::runtime::{ProcCluster, RtMethod};

mod support;
use support::{certify_cluster, esrd, fresh_dir, submit, wait_for_view, N, X, Y};

const PHASE: u64 = 6; // updates before and after the coordinator dies
const QUIESCE: Duration = Duration::from_secs(90);
fn expected_final(method: RtMethod, updates: u64) -> BTreeMap<ObjectId, Value> {
    let mut x = 0i64;
    let mut y = 0i64;
    match method {
        RtMethod::Ordup => {
            for i in 0..updates {
                if i % 3 == 2 {
                    x *= 2;
                } else {
                    x += i as i64 + 1;
                    y += 1;
                }
            }
        }
        RtMethod::Commu => {
            for i in 0..updates {
                x += i as i64 + 1;
                y += 1;
            }
        }
        RtMethod::Compe => {
            for i in (0..updates).step_by(2) {
                x += i as i64 + 1;
                y += 1;
            }
        }
        RtMethod::Ritu | RtMethod::RituMv => {
            let mut m = BTreeMap::new();
            m.insert(X, Value::Int(updates as i64 - 1));
            return m;
        }
    }
    let mut m = BTreeMap::new();
    m.insert(X, Value::Int(x));
    m.insert(Y, Value::Int(y));
    m
}

/// At quiescence: every site in the same view `>= min_view`, and the
/// coordinator role held by exactly the site that view elects.
fn assert_view_consistent(c: &ProcCluster, method: RtMethod, min_view: u64) {
    let statuses: Vec<_> = (0..N)
        .map(|i| {
            c.status_of(SiteId(i as u64))
                .unwrap_or_else(|e| panic!("{method:?}: status of site {i}: {e}"))
        })
        .collect();
    let view = statuses[0].view;
    assert!(
        view >= min_view,
        "{method:?}: view {view} never advanced past {min_view}"
    );
    for (i, s) in statuses.iter().enumerate() {
        assert_eq!(s.view, view, "{method:?}: site {i} in a different view");
        assert_eq!(
            s.coordinator,
            i as u64 == view % N as u64,
            "{method:?}: site {i} coordinator role wrong for view {view}"
        );
    }
}

/// The core scenario: kill the acting coordinator mid-stream, keep
/// submitting through the survivors, wait for the new view, revive the
/// corpse, and require convergence + certified traces.
fn assert_failover_scenario(method: RtMethod, tag: &str) {
    let dir = fresh_dir(tag);
    let mut c = ProcCluster::spawn(esrd(), &dir, method, N)
        .unwrap_or_else(|e| panic!("{method:?}: spawn failed: {e}"));
    let mut ets = Vec::new();
    for i in 0..PHASE {
        ets.push(submit(&c, method, i, &[0, 1, 2]));
    }
    // SIGKILL the view-0 coordinator with the phase-1 stream still in
    // flight: no flush, no goodbye, its in-memory completion evidence
    // is gone.
    c.kill(SiteId(0));
    for i in PHASE..2 * PHASE {
        ets.push(submit(&c, method, i, &[1, 2]));
    }
    // The survivors' heartbeat counters notice the silence and elect
    // view 1 (coordinator site 1) without any help from us.
    wait_for_view(&c, SiteId(1), 1, "survivor 1");
    wait_for_view(&c, SiteId(2), 1, "survivor 2");
    if method == RtMethod::Compe {
        // Decisions go to a *survivor*, which forwards them to
        // whichever site now holds the coordinator role.
        for (i, et) in ets.iter().enumerate() {
            let via = SiteId(1 + (i as u64 % 2));
            let r = if i % 2 == 0 {
                c.commit_via(via, *et)
            } else {
                c.abort_via(via, *et)
            };
            r.unwrap_or_else(|e| panic!("{method:?}: decision {i} failed: {e}"));
        }
    }
    // Completion needs all n sites' install reports, so the cluster
    // cannot settle while site 0 is dead: revive it. Its journal
    // replay re-announces every apply to the new coordinator.
    c.restart(SiteId(0))
        .unwrap_or_else(|e| panic!("{method:?}: restart failed: {e}"));
    wait_for_view(&c, SiteId(0), 1, "revived ex-coordinator");
    c.quiesce_within(QUIESCE)
        .unwrap_or_else(|e| panic!("{method:?}: {e}"));
    assert!(
        c.converged().unwrap_or_else(|e| panic!("{method:?}: {e}")),
        "{method:?}: replicas diverged after failover"
    );
    let expected = expected_final(method, 2 * PHASE);
    for i in 0..N {
        let snap = c
            .snapshot_of(SiteId(i as u64))
            .unwrap_or_else(|e| panic!("{method:?}: snapshot {i}: {e}"));
        assert_eq!(snap, expected, "{method:?}: site {i} final state wrong");
    }
    assert_view_consistent(&c, method, 1);
    certify_cluster(&c, method);
    c.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ordup_converges_after_coordinator_kill9() {
    assert_failover_scenario(RtMethod::Ordup, "ordup");
}

#[test]
fn commu_converges_after_coordinator_kill9() {
    assert_failover_scenario(RtMethod::Commu, "commu");
}

#[test]
fn ritu_converges_after_coordinator_kill9() {
    assert_failover_scenario(RtMethod::Ritu, "ritu");
}

#[test]
fn ritu_mv_converges_after_coordinator_kill9() {
    assert_failover_scenario(RtMethod::RituMv, "ritu-mv");
}

#[test]
fn compe_converges_after_coordinator_kill9() {
    assert_failover_scenario(RtMethod::Compe, "compe");
}

#[test]
fn flapping_coordinators_still_converge() {
    // Kill the view-0 coordinator, let view 1 install, revive it —
    // then kill the *new* coordinator and do it again. Two handoffs,
    // two revivals, one certified convergence.
    let method = RtMethod::Commu;
    let dir = fresh_dir("flap");
    let mut c = ProcCluster::spawn(esrd(), &dir, method, N).expect("spawn");
    for i in 0..PHASE {
        submit(&c, method, i, &[0, 1, 2]);
    }
    c.kill(SiteId(0));
    for i in PHASE..2 * PHASE {
        submit(&c, method, i, &[1, 2]);
    }
    let v1 = wait_for_view(&c, SiteId(2), 1, "first failover");
    c.restart(SiteId(0)).expect("restart site 0");
    wait_for_view(&c, SiteId(0), v1, "revived site 0");

    // Second flap: the new coordinator dies mid-stream too.
    let second = SiteId(v1 % N as u64);
    c.kill(second);
    let survivors: Vec<u64> = (0..N as u64).filter(|s| *s != second.raw()).collect();
    for i in 2 * PHASE..3 * PHASE {
        submit(&c, method, i, &survivors);
    }
    wait_for_view(&c, SiteId(survivors[0]), v1 + 1, "second failover");
    c.restart(second).expect("restart second coordinator");

    c.quiesce_within(QUIESCE).unwrap_or_else(|e| panic!("{e}"));
    assert!(c.converged().expect("converged"), "replicas diverged");
    let expected = expected_final(method, 3 * PHASE);
    for i in 0..N {
        assert_eq!(
            c.snapshot_of(SiteId(i as u64)).expect("snapshot"),
            expected,
            "site {i} final state wrong after flapping"
        );
    }
    assert_view_consistent(&c, method, v1 + 1);
    certify_cluster(&c, method);
    c.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn retried_submit_is_answered_once_across_a_failover() {
    // Exactly-once at the daemon level: the original submit lands at
    // site 1 and propagates; the client's retry (same client id and
    // request seq, fresh ET stamp) lands at site *2*, after the
    // coordinator failed over — and is answered from the replicated
    // client table with the original ET, applying nothing.
    let method = RtMethod::Commu;
    let dir = fresh_dir("retry");
    let mut c = ProcCluster::spawn(esrd(), &dir, method, N).expect("spawn");
    let ops = || vec![ObjectOp::new(X, Operation::Incr(5))];
    let original = c
        .submit_update_from_client(SiteId(1), ops(), 7, 1)
        .expect("original submit");
    c.quiesce_within(QUIESCE).expect("quiesce before kill");

    c.kill(SiteId(0));
    wait_for_view(&c, SiteId(2), 1, "failover");
    let retried = c
        .submit_update_from_client(SiteId(2), ops(), 7, 1)
        .expect("retried submit");
    assert_eq!(
        retried, original,
        "retry was not answered with the original ET"
    );
    // A second client request must still get a fresh ET (the table
    // keys on (client, seq), not on the client alone).
    let fresh = c
        .submit_update_from_client(SiteId(2), ops(), 7, 2)
        .expect("second request");
    assert_ne!(fresh, original);

    c.restart(SiteId(0)).expect("restart");
    c.quiesce_within(QUIESCE).expect("final quiesce");
    assert!(c.converged().expect("converged"));
    // Exactly once per request: 5 + 5, not 15.
    let snap = c.snapshot_of(SiteId(0)).expect("snapshot");
    assert_eq!(snap.get(&X), Some(&Value::Int(10)), "retry was re-applied");
    certify_cluster(&c, method);
    c.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

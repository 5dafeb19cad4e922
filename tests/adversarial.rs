//! Fault-injection at the extremes: 90% message loss, duplicate storms,
//! repeated partitions, and byte-starved links. ESR's promise is
//! convergence *whenever the MSets eventually arrive* — these tests make
//! "eventually" as painful as the substrate allows.
//!
//! The simulator executes the model-checked control core, so each
//! scenario also hands its per-site event logs to the trace certifier
//! `esrd` runs answer to: what is checked is what ran.

use std::collections::BTreeSet;

use esr::core::{EpsilonSpec, ObjectId, ObjectOp, Operation, SiteId, Value};
use esr::net::faults::{PartitionSchedule, PartitionWindow};
use esr::net::latency::LatencyModel;
use esr::net::topology::LinkConfig;
use esr::replica::cluster::{ClusterConfig, Method, SimCluster};
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

/// Certifies a finished run's event logs against the method's spec.
/// ORDUP-L is skipped: its quiescence heartbeat applies the tail
/// outside the core, so those applies have no event to certify.
fn assert_certified(cluster: &SimCluster, method: Method, scenario: &str) {
    if method == Method::OrdupLamport {
        return;
    }
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

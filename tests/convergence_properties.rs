//! Property-based convergence tests: replicas of every method reach
//! identical state under *arbitrary* delivery permutations and duplicate
//! deliveries, and whole simulated clusters converge for arbitrary seeds.

use proptest::prelude::*;

use esr::core::{ClientId, EtId, ObjectId, ObjectOp, Operation, SeqNo, SiteId, Value, VersionTs};
use esr::replica::cluster::{ClusterConfig, Method, SimCluster};
use esr::replica::commu::CommuSite;
use esr::replica::mset::MSet;
use esr::replica::ordup::OrdupSite;
use esr::replica::ritu::{RituMvSite, RituOverwriteSite};
use esr::replica::site::ReplicaSite;
use esr::net::latency::LatencyModel;
use esr::net::topology::LinkConfig;
use esr::sim::time::Duration;

/// A batch of commutative update MSets (increments over 3 objects).
fn inc_msets(values: &[i64]) -> Vec<MSet> {
    values
        .iter()
        .enumerate()
        .map(|(i, &v)| {
            MSet::new(
                EtId(i as u64 + 1),
                SiteId(0),
                vec![ObjectOp::new(ObjectId(i as u64 % 3), Operation::Incr(v))],
            )
        })
        .collect()
}

/// Sequenced, possibly non-commutative MSets (Inc/Mul) for ORDUP.
fn ordup_msets(spec: &[(bool, i64)]) -> Vec<MSet> {
    spec.iter()
        .enumerate()
        .map(|(i, &(mul, v))| {
            let op = if mul {
                Operation::MulBy(1 + v.unsigned_abs() as i64 % 3)
            } else {
                Operation::Incr(v)
            };
            MSet::new(
                EtId(i as u64 + 1),
                SiteId(0),
                vec![ObjectOp::new(ObjectId(i as u64 % 2), op)],
            )
            .sequenced(SeqNo(i as u64))
        })
        .collect()
}

/// Timestamped blind writes for RITU.
fn tw_msets(values: &[i64]) -> Vec<MSet> {
    values
        .iter()
        .enumerate()
        .map(|(i, &v)| {
            MSet::new(
                EtId(i as u64 + 1),
                SiteId(0),
                vec![ObjectOp::new(
                    ObjectId(i as u64 % 3),
                    Operation::TimestampedWrite(
                        VersionTs::new(i as u64 + 1, ClientId(0)),
                        Value::Int(v),
                    ),
                )],
            )
        })
        .collect()
}

/// Applies `msets` to a fresh site in the order given by `perm`
/// (indices into msets, possibly with repeats = duplicate deliveries).
fn deliver_in_order<S: ReplicaSite>(mut site: S, msets: &[MSet], perm: &[usize]) -> S {
    for &i in perm {
        site.deliver(&msets[i % msets.len()], &mut Vec::new());
    }
    // Every MSet must be delivered at least once for convergence.
    for m in msets {
        site.deliver(m, &mut Vec::new());
    }
    site
}

fn arb_perm(len: usize) -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0..len, 0..len * 2)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// COMMU: any delivery order (with duplicates) converges to the sum.
    #[test]
    fn commu_converges_under_any_order(
        values in prop::collection::vec(-20i64..20, 1..10),
        perm in arb_perm(10),
    ) {
        let msets = inc_msets(&values);
        let a = deliver_in_order(CommuSite::new(SiteId(0)), &msets, &perm);
        let b = deliver_in_order(CommuSite::new(SiteId(1)), &msets, &[]);
        prop_assert_eq!(a.snapshot(), b.snapshot());
    }

    /// ORDUP: arbitrary delivery interleavings of a sequenced
    /// non-commutative stream still apply in sequence order.
    #[test]
    fn ordup_converges_under_any_order(
        spec in prop::collection::vec((any::<bool>(), 1i64..10), 1..10),
        perm in arb_perm(10),
    ) {
        let msets = ordup_msets(&spec);
        let a = deliver_in_order(OrdupSite::new(SiteId(0)), &msets, &perm);
        let b = deliver_in_order(OrdupSite::new(SiteId(1)), &msets, &[]);
        prop_assert_eq!(a.snapshot(), b.snapshot());
        prop_assert_eq!(a.backlog(), 0);
    }

    /// RITU overwrite: last-writer-wins under any order and duplication.
    #[test]
    fn ritu_lww_converges_under_any_order(
        values in prop::collection::vec(-20i64..20, 1..10),
        perm in arb_perm(10),
    ) {
        let msets = tw_msets(&values);
        let a = deliver_in_order(RituOverwriteSite::new(SiteId(0)), &msets, &perm);
        let b = deliver_in_order(RituOverwriteSite::new(SiteId(1)), &msets, &[]);
        prop_assert_eq!(a.snapshot(), b.snapshot());
    }

    /// RITU multiversion: version chains are order-independent.
    #[test]
    fn ritu_mv_converges_under_any_order(
        values in prop::collection::vec(-20i64..20, 1..10),
        perm in arb_perm(10),
    ) {
        let msets = tw_msets(&values);
        let a = deliver_in_order(RituMvSite::new(SiteId(0)), &msets, &perm);
        let b = deliver_in_order(RituMvSite::new(SiteId(1)), &msets, &[]);
        prop_assert_eq!(a.snapshot(), b.snapshot());
    }

    /// Whole-cluster convergence for every method under arbitrary seeds
    /// (seed controls latency jitter, loss, duplication, and COMPE
    /// outcomes).
    #[test]
    fn clusters_converge_for_arbitrary_seeds(seed in 0u64..10_000) {
        for method in Method::ALL {
            let cfg = ClusterConfig::new(method)
                .with_sites(3)
                .with_link(LinkConfig {
                    latency: LatencyModel::Uniform(
                        Duration::from_millis(1),
                        Duration::from_millis(30),
                    ),
                    drop_prob: 0.2,
                    duplicate_prob: 0.1,
                    bandwidth: None,
                })
                .with_seed(seed)
                .with_abort_prob(if method == Method::Compe { 0.3 } else { 0.0 });
            let mut cluster = SimCluster::new(cfg);
            for i in 0..12u64 {
                match method {
                    Method::RituOverwrite | Method::RituMv => {
                        cluster.submit_blind_write(
                            SiteId(i % 3),
                            ObjectId(i % 2),
                            Value::Int(i as i64),
                        );
                    }
                    _ => {
                        cluster.submit_update(
                            SiteId(i % 3),
                            vec![ObjectOp::new(ObjectId(i % 2), Operation::Incr(1 + i as i64))],
                        );
                    }
                }
            }
            cluster.run_until_quiescent();
            prop_assert!(cluster.converged(), "{} diverged at seed {}", method.name(), seed);
            prop_assert_eq!(cluster.total_backlog(), 0);
        }
    }
}

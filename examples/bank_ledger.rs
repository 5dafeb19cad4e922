//! A replicated bank ledger on the simulated cluster (interleaved tellers).
//!
//! ```text
//! cargo run --example bank_ledger
//! ```
//!
//! The scenario the paper's introduction motivates: branches of a bank
//! keep replicas of account balances. Deposits and withdrawals are
//! commutative (`Inc`/`Dec`), so COMMU lets every branch accept them
//! locally and propagate asynchronously — no commit protocol, full
//! autonomy — while an auditor chooses how much inconsistency each
//! balance inquiry may see.

use esr::core::{EpsilonSpec, ObjectId, ObjectOp, Operation, SiteId};
use esr::replica::cluster::{ClusterConfig, Method, SimCluster};
use esr::sim::time::VirtualTime;

const BRANCHES: usize = 4;
const ACCOUNTS: u64 = 8;
const TELLERS: u64 = 8;
const TXNS_PER_TELLER: u64 = 50;
/// Virtual microseconds between two tellers' transactions.
const TELLER_GAP_US: u64 = 100;

fn main() {
    let cfg = ClusterConfig::new(Method::Commu)
        .with_sites(BRANCHES)
        .with_seed(1991);
    let mut cluster = SimCluster::new(cfg);

    // Tellers at every branch hammer the ledger, their transactions
    // interleaved in virtual time: each one moves money between two
    // accounts (a deposit and a withdrawal — both commutative) while
    // the earlier ones are still propagating.
    //
    // Meanwhile the auditor polls a balance after every round with a
    // small inconsistency budget: answers come back immediately
    // whenever the visible in-flight inconsistency fits within 3 units.
    println!("{TELLERS} tellers × {TXNS_PER_TELLER} transfers across {BRANCHES} branches…");
    let (mut admitted, mut rejected) = (0, 0);
    for i in 0..TXNS_PER_TELLER {
        for teller in 0..TELLERS {
            let slot = i * TELLERS + teller;
            cluster.advance_to(VirtualTime::from_micros(slot * TELLER_GAP_US));
            let from = ObjectId((teller + i) % ACCOUNTS);
            let to = ObjectId((teller + i + 1) % ACCOUNTS);
            cluster.submit_update(
                SiteId(teller % BRANCHES as u64),
                vec![
                    ObjectOp::new(from, Operation::Decr(10)),
                    ObjectOp::new(to, Operation::Incr(10)),
                ],
            );
        }
        let out = cluster.try_query(SiteId(0), &[ObjectId(0)], EpsilonSpec::bounded(3));
        if out.admitted {
            admitted += 1;
        } else {
            rejected += 1;
        }
    }
    println!("auditor(eps=3): {admitted} answers served live, {rejected} deferred");

    // Drain the replication streams, then run the strict end-of-day audit.
    cluster.run_until_quiescent();
    assert!(cluster.converged(), "all branches must agree at quiescence");
    assert!(cluster.matches_oracle());

    let accounts: Vec<ObjectId> = (0..ACCOUNTS).map(ObjectId).collect();
    let audit = cluster.try_query(SiteId(0), &accounts, EpsilonSpec::STRICT);
    assert!(audit.admitted, "nothing is in flight at quiescence");
    let total: i64 = audit.values.iter().filter_map(|v| v.as_int()).sum();
    println!("end-of-day strict audit (eps=0):");
    for (a, v) in accounts.iter().zip(&audit.values) {
        println!("  account {a}: {v}");
    }
    println!("  ledger total: {total}");
    assert_eq!(total, 0, "transfers conserve money");
    println!("invariant holds: transfers conserved the total balance");
}

//! COMPE — compensation-based backward replica control (§4).
//!
//! For performance, a site "may start running MSets before the global
//! update is committed". Every applied MSet stays on the recovery log
//! until its commit notice arrives; an abort notice triggers
//! compensation:
//!
//! * the **commutative fast path** applies the compensation MSet
//!   directly when everything logged after the victim commutes with it;
//! * otherwise the **suffix rollback** undoes the log in reverse (via
//!   before-images), skips the victim, and replays the survivors — the
//!   paper's `Inc·Mul·Div·Dec·Mul = Mul` example.
//!
//! Divergence bounding (§4.2): compensations inject inconsistency into
//! queries *after the fact*, so queries are charged conservatively — one
//! unit per **at-risk** (applied but uncommitted) MSet conflicting with
//! the read set, an upper bound on the compensations that could still
//! strike what the query saw.

use std::collections::BTreeMap;

use esr_core::divergence::InconsistencyCounter;
use esr_core::ids::{EtId, ObjectId, SiteId};
use esr_core::value::Value;
use esr_storage::recovery_log::{RecoveryLog, RollbackStrategy};
use esr_storage::store::ObjectStore;

use crate::mset::MSet;
use crate::site::{Delivered, QueryOutcome, Released, ReplicaSite, SiteReadings};

/// A COMPE replica site.
#[derive(Debug)]
pub struct CompeSite {
    store: ObjectStore,
    log: RecoveryLog,
    /// Every ET whose MSet or decision reached this site, with its
    /// disposition — the site's duplicate guard.
    seen: BTreeMap<EtId, Disposition>,
    compensations: u64,
    rollbacks: RollbackTotals,
}

/// Cumulative cost of the rollbacks a site has run (experiment E8's
/// columns), summed over its rollback reports. Not part of the
/// checkpoint image: it counts this incarnation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RollbackTotals {
    /// Compensations taken via the commutative fast path.
    pub fast: u64,
    /// Compensations requiring a suffix rollback.
    pub suffix: u64,
    /// Operations undone across all rollbacks.
    pub ops_undone: u64,
    /// Operations replayed across all rollbacks.
    pub ops_replayed: u64,
}

/// An ET's state at a COMPE site — the site's duplicate guard, kept
/// as is in its checkpoint image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Applied, waiting for the global outcome.
    AtRisk,
    /// Applied and committed.
    Committed,
    /// Aborted after its MSet arrived: compensated, or suppressed on
    /// arrival.
    Aborted,
    /// Commit notice arrived before the MSet: apply it on arrival
    /// without entering the risk window.
    CommitPending,
    /// Abort notice arrived before the MSet: suppress it on arrival.
    AbortPending,
}

impl Disposition {
    /// Has the MSet of an ET in this disposition arrived here?
    pub fn delivered(self) -> bool {
        !matches!(self, Self::CommitPending | Self::AbortPending)
    }
}

impl CompeSite {
    /// A fresh site.
    pub fn new(_site: SiteId) -> Self {
        Self {
            store: ObjectStore::new(),
            log: RecoveryLog::new(),
            seen: BTreeMap::new(),
            compensations: 0,
            rollbacks: RollbackTotals::default(),
        }
    }

    /// Total aborts compensated.
    pub fn compensations(&self) -> u64 {
        self.compensations
    }

    /// What those compensations cost, cumulatively.
    pub fn rollback_totals(&self) -> RollbackTotals {
        self.rollbacks
    }

    /// Number of MSets still at risk of rollback.
    pub fn at_risk(&self) -> usize {
        self.log.at_risk()
    }

    /// Captures the site's full protocol state as a checkpoint image:
    /// store contents (optimistic state included), the recovery log with
    /// its before-images, and every ET's disposition — everything needed
    /// to keep compensating aborts that arrive after a restart.
    pub fn to_ckpt(&self) -> crate::ckpt::CompeCkpt {
        crate::ckpt::CompeCkpt {
            values: self.store.snapshot().into_iter().collect(),
            log: self.log.records().cloned().collect(),
            seen: self.seen.iter().map(|(&et, &d)| (et, d)).collect(),
            compensations: self.compensations,
        }
    }

    /// Rebuilds a site from a checkpoint image, mid-protocol: at-risk
    /// MSets stay compensatable (their before-images survive in the
    /// restored recovery log) and pending-commit races resume where the
    /// cut left them.
    pub fn from_ckpt(_site: SiteId, c: crate::ckpt::CompeCkpt) -> Self {
        Self {
            store: ObjectStore::with_values(c.values),
            log: RecoveryLog::from_records(c.log),
            seen: c.seen.into_iter().collect(),
            compensations: c.compensations,
            rollbacks: RollbackTotals::default(),
        }
    }
}

impl ReplicaSite for CompeSite {
    #[expect(clippy::expect_used, reason = "a rejected apply is replica-state corruption; panicking is the documented contract")]
    fn deliver(&mut self, mset: &MSet, applied: &mut Vec<Released>) -> Delivered {
        match self.seen.get(&mset.et) {
            None => {
                self.log
                    .apply_mset(&mut self.store, mset.et, &mset.ops)
                    .expect("optimistic MSet must apply cleanly");
                self.seen.insert(mset.et, Disposition::AtRisk);
            }
            Some(Disposition::CommitPending) => {
                // Already committed globally: apply without logging.
                for op in &mset.ops {
                    self.store
                        .apply(op)
                        .expect("committed MSet must apply cleanly");
                }
                self.seen.insert(mset.et, Disposition::Committed);
            }
            Some(Disposition::AbortPending) => {
                // The abort arrived first: the MSet never applies, and
                // it is here now, so a redelivery is a duplicate.
                self.seen.insert(mset.et, Disposition::Aborted);
                return Delivered::Suppressed;
            }
            Some(Disposition::AtRisk | Disposition::Committed | Disposition::Aborted) => {
                return Delivered::Duplicate;
            }
        }
        applied.push(Released::of(mset));
        Delivered::Applied
    }

    fn has_applied(&self, et: EtId) -> bool {
        matches!(
            self.seen.get(&et),
            Some(Disposition::AtRisk) | Some(Disposition::Committed)
        )
    }

    fn query(
        &mut self,
        read_set: &[ObjectId],
        counter: &mut InconsistencyCounter,
    ) -> QueryOutcome {
        // One unit per at-risk MSet writing a queried object: the
        // conservative estimate of compensations that may still undo
        // state this query is about to read.
        let charge = self
            .log
            .at_risk_records()
            .filter(|r| {
                r.ops
                    .iter()
                    .any(|a| a.op.op.is_write() && read_set.contains(&a.op.object))
            })
            .count() as u64;
        QueryOutcome::admit(counter, charge, || {
            read_set.iter().map(|&o| self.store.get(o)).collect()
        })
    }

    fn snapshot(&self) -> BTreeMap<ObjectId, Value> {
        self.store.snapshot()
    }

    /// Settled once no applied MSet is still at risk of rollback.
    fn settled(&self) -> bool {
        self.at_risk() == 0
    }

    fn readings(&self) -> SiteReadings {
        SiteReadings {
            at_risk: self.at_risk() as u64,
            compensations: self.compensations,
            ..SiteReadings::default()
        }
    }

    /// The global update committed; its MSet leaves the risk window. A
    /// commit that races ahead of the MSet is remembered so the late
    /// MSet applies directly as committed state.
    fn commit(&mut self, et: EtId) {
        match self.seen.get_mut(&et) {
            Some(d @ Disposition::AtRisk) => {
                *d = Disposition::Committed;
                self.log.commit(et);
            }
            Some(_) => {}
            None => {
                self.seen.insert(et, Disposition::CommitPending);
            }
        }
    }

    /// Compensates the MSet. An abort for an ET never applied here is
    /// recorded as pending, so a late MSet delivery is suppressed; one
    /// for an ET already resolved is ignored.
    #[expect(clippy::expect_used, reason = "an at-risk ET is on the log and its before-images re-apply cleanly; anything else is log corruption")]
    fn abort(&mut self, et: EtId) {
        match self.seen.get(&et) {
            Some(Disposition::AtRisk) => {}
            Some(_) => return,
            None => {
                // Abort raced ahead of the MSet: remember so the MSet is
                // dropped on arrival.
                self.seen.insert(et, Disposition::AbortPending);
                return;
            }
        }
        self.seen.insert(et, Disposition::Aborted);
        let report = self
            .log
            .compensate(&mut self.store, et)
            .expect("at-risk ET must be on the log")
            .expect("compensation ops apply cleanly");
        self.compensations += 1;
        match report.strategy {
            RollbackStrategy::CommutativeCompensation => self.rollbacks.fast += 1,
            RollbackStrategy::SuffixRollback => self.rollbacks.suffix += 1,
        }
        self.rollbacks.ops_undone += report.ops_undone as u64;
        self.rollbacks.ops_replayed += report.ops_replayed as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esr_core::divergence::EpsilonSpec;
    use esr_core::op::{ObjectOp, Operation};

    const X: ObjectId = ObjectId(0);
    const Y: ObjectId = ObjectId(1);

    fn mset(et: u64, ops: Vec<ObjectOp>) -> MSet {
        MSet::new(EtId(et), SiteId(9), ops)
    }
    fn inc(et: u64, obj: ObjectId, n: i64) -> MSet {
        mset(et, vec![ObjectOp::new(obj, Operation::Incr(n))])
    }
    fn mul(et: u64, obj: ObjectId, k: i64) -> MSet {
        mset(et, vec![ObjectOp::new(obj, Operation::MulBy(k))])
    }

    fn unbounded() -> InconsistencyCounter {
        InconsistencyCounter::new(EpsilonSpec::UNBOUNDED)
    }

    #[test]
    fn optimistic_apply_then_commit() {
        let mut s = CompeSite::new(SiteId(0));
        s.deliver(&inc(1, X, 10), &mut Vec::new());
        assert_eq!(s.snapshot()[&X], Value::Int(10), "visible before commit");
        assert_eq!(s.at_risk(), 1);
        s.commit(EtId(1));
        assert_eq!(s.at_risk(), 0);
        assert_eq!(s.snapshot()[&X], Value::Int(10));
    }

    #[test]
    fn abort_with_commutative_fast_path() {
        let mut s = CompeSite::new(SiteId(0));
        s.deliver(&inc(1, X, 10), &mut Vec::new());
        s.deliver(&inc(2, X, 5), &mut Vec::new());
        s.abort(EtId(1));
        assert_eq!(s.rollback_totals().fast, 1, "compensated in place");
        assert_eq!(s.snapshot()[&X], Value::Int(5));
        assert_eq!(s.compensations(), 1);
        assert_eq!(s.at_risk(), 1);
    }

    #[test]
    fn abort_with_suffix_rollback_matches_paper_example() {
        let mut s = CompeSite::new(SiteId(0));
        s.deliver(&inc(1, X, 10), &mut Vec::new());
        s.deliver(&mul(2, X, 2), &mut Vec::new());
        assert_eq!(s.snapshot()[&X], Value::Int(20));
        s.abort(EtId(1));
        assert_eq!(s.rollback_totals().suffix, 1, "Mul does not commute with Inc");
        assert_eq!(s.snapshot()[&X], Value::Int(0), "equals Mul(x,2) alone");
        s.commit(EtId(2));
        assert_eq!(s.at_risk(), 0);
    }

    #[test]
    fn redelivery_storm_is_idempotent_and_counted() {
        let msets = [inc(1, X, 10), mul(2, X, 2), inc(3, X, 7)];
        let mut s = CompeSite::new(SiteId(0));
        let outcomes: Vec<Delivered> = msets
            .iter()
            .chain(msets.iter().rev())
            .map(|m| s.deliver(m, &mut Vec::new()))
            .collect();
        assert_eq!(s.snapshot()[&X], Value::Int(27), "((0+10)*2)+7, each once");
        let count = |d: Delivered| outcomes.iter().filter(|o| **o == d).count();
        assert_eq!((count(Delivered::Applied), count(Delivered::Duplicate)), (3, 3));
        assert_eq!(s.at_risk(), 3, "one log record per ET despite duplicates");
        // Duplicates after commit are still suppressed as such.
        s.commit(EtId(1));
        assert_eq!(s.deliver(&msets[0], &mut Vec::new()), Delivered::Duplicate);
        assert_eq!(s.snapshot()[&X], Value::Int(27));
        // A suppressed late MSet (abort-first) is NOT a redelivery …
        s.abort(EtId(9));
        assert_eq!(s.compensations(), 0);
        assert_eq!(s.deliver(&inc(9, X, 100), &mut Vec::new()), Delivered::Suppressed);
        // … but its next copy is, as is any copy of a compensated ET.
        assert_eq!(s.deliver(&inc(9, X, 100), &mut Vec::new()), Delivered::Duplicate);
        s.abort(EtId(3));
        assert_eq!(s.compensations(), 1);
        assert_eq!(s.deliver(&msets[2], &mut Vec::new()), Delivered::Duplicate);
        assert_eq!(s.snapshot()[&X], Value::Int(20), "ET 3 compensated, once");
    }

    #[test]
    fn double_abort_is_ignored() {
        let mut s = CompeSite::new(SiteId(0));
        s.deliver(&inc(1, X, 10), &mut Vec::new());
        s.abort(EtId(1));
        s.abort(EtId(1));
        assert_eq!(s.compensations(), 1);
    }

    #[test]
    fn abort_before_delivery_suppresses_late_mset() {
        let mut s = CompeSite::new(SiteId(0));
        s.abort(EtId(1));
        s.deliver(&inc(1, X, 10), &mut Vec::new());
        assert_eq!(
            s.snapshot().get(&X),
            None,
            "late MSet for an aborted ET must not apply"
        );
        assert!(!s.has_applied(EtId(1)));
    }

    #[test]
    fn abort_after_commit_is_rejected() {
        let mut s = CompeSite::new(SiteId(0));
        s.deliver(&inc(1, X, 10), &mut Vec::new());
        s.commit(EtId(1));
        s.abort(EtId(1));
        assert_eq!(s.compensations(), 0);
        assert_eq!(s.snapshot()[&X], Value::Int(10));
    }

    #[test]
    fn query_charges_at_risk_conflicts() {
        let mut s = CompeSite::new(SiteId(0));
        s.deliver(&inc(1, X, 10), &mut Vec::new());
        s.deliver(&inc(2, Y, 5), &mut Vec::new());
        s.deliver(&inc(3, X, 1), &mut Vec::new());
        let mut c = unbounded();
        let out = s.query(&[X], &mut c);
        assert_eq!(out.charged, 2, "two at-risk MSets write x");
        s.commit(EtId(1));
        s.commit(EtId(3));
        let mut c2 = InconsistencyCounter::new(EpsilonSpec::STRICT);
        assert!(s.query(&[X], &mut c2).admitted, "committed state is safe");
        assert!(!s.query(&[Y], &mut c2).admitted, "ET2 still at risk on y");
    }

    #[test]
    fn replicas_converge_when_same_outcomes_applied() {
        // Same MSets, different interleaving of aborts/commits → same
        // final state on both replicas.
        let m1 = inc(1, X, 10);
        let m2 = mul(2, X, 2);
        let m3 = inc(3, X, 7);

        let mut a = CompeSite::new(SiteId(0));
        a.deliver(&m1, &mut Vec::new());
        a.deliver(&m2, &mut Vec::new());
        a.deliver(&m3, &mut Vec::new());
        a.abort(EtId(1));
        a.commit(EtId(2));
        a.commit(EtId(3));

        let mut b = CompeSite::new(SiteId(1));
        b.deliver(&m2, &mut Vec::new());
        b.abort(EtId(1)); // abort arrives before the MSet
        b.deliver(&m3, &mut Vec::new());
        b.deliver(&m1, &mut Vec::new());
        b.commit(EtId(3));
        b.commit(EtId(2));

        // NOTE: COMPE guarantees convergence only when update MSets are
        // applied in an agreed order or commute; Mul and Inc conflict, so
        // the two replicas agree only because the surviving history
        // (Mul then Inc) is identical here.
        assert_eq!(a.snapshot()[&X], Value::Int(7), "(0*2)+7");
        assert_eq!(b.snapshot()[&X], Value::Int(7));
    }

    #[test]
    fn strict_query_sees_only_committed_state() {
        let mut s = CompeSite::new(SiteId(0));
        s.deliver(&inc(1, X, 10), &mut Vec::new());
        let mut c = InconsistencyCounter::new(EpsilonSpec::STRICT);
        assert!(!s.query(&[X], &mut c).admitted);
    }
}

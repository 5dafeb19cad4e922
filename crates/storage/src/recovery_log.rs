//! The executed-MSet recovery log for compensation (COMPE, §4).
//!
//! Backward replica control may apply update MSets *before* the global
//! update commits. If the global update later aborts, the site must
//! compensate. The paper's analysis (§4.1):
//!
//! * if every operation after the aborted MSet **commutes** with it, the
//!   compensation MSet can be applied directly (cheap path);
//! * otherwise the log suffix must be rolled back in reverse, the aborted
//!   MSet skipped, and the suffix **replayed** — the `Inc`/`Mul` example:
//!   `Inc(x,10)·Mul(x,2)·Div(x,2)·Dec(x,10)·Mul(x,2) = Mul(x,2)`.
//!
//! The log records a *before-image* for every applied operation, so that
//! operations without algebraic inverses (plain writes, RITU overwrites —
//! "to rollback RITU with overwrite we must also record the value being
//! overwritten") can be undone exactly.
//!
//! **The log is a faithful history.** Suffix rollback restores historical
//! before-images, which is only sound if the log records *every*
//! state-changing action since the oldest at-risk MSet — including
//! compensation MSets applied by the cheap path. Resolution
//! (commit/abort) is therefore status metadata on the records, and only a
//! fully-resolved *prefix* of the log is pruned; dropping records from
//! the middle would silently corrupt later rollbacks.

use std::collections::VecDeque;

use esr_core::error::CoreResult;
use esr_core::fastid::FastIdMap;
use esr_core::ids::EtId;
use esr_core::op::ObjectOp;
use esr_core::value::Value;

use crate::store::ObjectStore;

/// One applied operation with its before-image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppliedOp {
    /// The operation as executed.
    pub op: ObjectOp,
    /// The object's value immediately before execution.
    pub before: Value,
}

/// One executed MSet: the operations of one update ET at this site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// The update ET the MSet belongs to.
    pub et: EtId,
    /// Its operations, in execution order, with before-images.
    pub ops: Vec<AppliedOp>,
    /// A resolved record can no longer be compensated: it is a committed
    /// MSet or a compensation MSet. It stays in the log (for rollback
    /// fidelity) until every record before it is also resolved.
    pub resolved: bool,
}

/// How an abort was compensated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RollbackStrategy {
    /// All subsequent operations commuted: the compensation MSet was
    /// applied directly.
    CommutativeCompensation,
    /// The log suffix was undone in reverse and replayed.
    SuffixRollback,
}

/// Cost accounting for one rollback, reported to the E8 experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RollbackReport {
    /// Which path was taken.
    pub strategy: RollbackStrategy,
    /// Operations executed to undo state (compensations or before-image
    /// restores).
    pub ops_undone: usize,
    /// Operations re-executed during replay (zero on the cheap path).
    pub ops_replayed: usize,
}

/// The recovery log of one site.
///
/// The paper's §4.1 example, end to end:
///
/// ```
/// use esr_core::ids::{EtId, ObjectId};
/// use esr_core::op::{ObjectOp, Operation};
/// use esr_core::value::Value;
/// use esr_storage::recovery_log::{RecoveryLog, RollbackStrategy};
/// use esr_storage::store::ObjectStore;
///
/// let (mut store, mut log, x) = (ObjectStore::new(), RecoveryLog::new(), ObjectId(0));
/// log.apply_mset(&mut store, EtId(1), &[ObjectOp::new(x, Operation::Incr(10))]).unwrap();
/// log.apply_mset(&mut store, EtId(2), &[ObjectOp::new(x, Operation::MulBy(2))]).unwrap();
/// assert_eq!(store.get(x), Value::Int(20));
///
/// // Abort the Inc: Dec alone would give 10, so COMPE must undo the
/// // suffix and replay — Inc·Mul·Div·Dec·Mul = Mul.
/// let report = log.compensate(&mut store, EtId(1)).unwrap().unwrap();
/// assert_eq!(report.strategy, RollbackStrategy::SuffixRollback);
/// assert_eq!(store.get(x), Value::Int(0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct RecoveryLog {
    records: VecDeque<LogRecord>,
    /// Absolute sequence number of `records[0]`. Pruning the resolved
    /// prefix advances it, so entries in `unresolved` stay valid without
    /// rewriting them.
    base: u64,
    /// Absolute sequence numbers of each ET's unresolved records, oldest
    /// first. Lets [`RecoveryLog::commit`] and
    /// [`RecoveryLog::compensate`] locate their target without scanning
    /// the whole window — the scan made a commit storm over a deep log
    /// quadratic.
    unresolved: FastIdMap<EtId, Vec<u64>>,
    /// Count of unresolved records, kept so [`RecoveryLog::at_risk`] is
    /// O(1) on the delivery hot path.
    at_risk_count: usize,
}

impl RecoveryLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds a log from a dumped record window (oldest first), as
    /// produced by iterating [`RecoveryLog::records`] — the checkpoint
    /// restore path. The absolute base restarts at zero (the pruned
    /// prefix is gone, which is exactly what makes the checkpoint
    /// smaller than history); the unresolved index and at-risk count
    /// are rebuilt from the records' resolution flags.
    pub fn from_records(records: Vec<LogRecord>) -> Self {
        let mut log = Self {
            records: records.into(),
            base: 0,
            unresolved: FastIdMap::default(),
            at_risk_count: 0,
        };
        for (i, rec) in log.records.iter().enumerate() {
            if !rec.resolved {
                log.unresolved.entry(rec.et).or_default().push(i as u64);
                log.at_risk_count += 1;
            }
        }
        log
    }

    /// Applies an MSet to `store`, recording before-images. On error the
    /// already-applied prefix is rolled back and nothing is logged.
    pub fn apply_mset(
        &mut self,
        store: &mut ObjectStore,
        et: EtId,
        ops: &[ObjectOp],
    ) -> CoreResult<()> {
        self.apply_internal(store, et, ops, false)
    }

    fn apply_internal(
        &mut self,
        store: &mut ObjectStore,
        et: EtId,
        ops: &[ObjectOp],
        resolved: bool,
    ) -> CoreResult<()> {
        let mut applied = Vec::with_capacity(ops.len());
        for op in ops {
            let before = store.get(op.object);
            match store.apply(op) {
                Ok(_) => applied.push(AppliedOp {
                    op: op.clone(),
                    before,
                }),
                Err(e) => {
                    for a in applied.iter().rev() {
                        store.put(a.op.object, a.before.clone());
                    }
                    return Err(e);
                }
            }
        }
        if !resolved {
            let abs = self.base + self.records.len() as u64;
            self.unresolved.entry(et).or_default().push(abs);
            self.at_risk_count += 1;
        }
        self.records.push_back(LogRecord {
            et,
            ops: applied,
            resolved,
        });
        Ok(())
    }

    /// Drops one unresolved-index entry (the record at absolute position
    /// `abs`) when that record resolves or is drained.
    fn remove_unresolved(&mut self, et: EtId, abs: u64) {
        if let Some(idxs) = self.unresolved.get_mut(&et) {
            let before = idxs.len();
            idxs.retain(|&a| a != abs);
            self.at_risk_count -= before - idxs.len();
            if idxs.is_empty() {
                self.unresolved.remove(&et);
            }
        }
    }

    /// Records currently in the log window (including resolved records
    /// retained for rollback fidelity).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the log window is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of MSets still at risk of rollback.
    pub fn at_risk(&self) -> usize {
        self.at_risk_count
    }

    /// The logged records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &LogRecord> {
        self.records.iter()
    }

    /// The at-risk (unresolved) records, oldest first.
    pub fn at_risk_records(&self) -> impl Iterator<Item = &LogRecord> {
        self.records.iter().filter(|r| !r.resolved)
    }

    /// Drops the fully-resolved prefix — "the COMPE replica control
    /// method must remember the executed MSets until there is no risk of
    /// rollback", and a resolved prefix carries no such risk.
    fn prune(&mut self) {
        while self.records.front().is_some_and(|r| r.resolved) {
            self.records.pop_front();
            self.base += 1;
        }
    }

    /// Marks an ET's MSet as globally committed. Returns `true` if a
    /// record changed state.
    pub fn commit(&mut self, et: EtId) -> bool {
        let Some(idxs) = self.unresolved.remove(&et) else {
            return false;
        };
        let changed = !idxs.is_empty();
        for abs in idxs {
            let i = (abs - self.base) as usize;
            self.records[i].resolved = true;
            self.at_risk_count -= 1;
        }
        self.prune();
        changed
    }

    /// Compensates the at-risk MSet of `et` against `store` and resolves
    /// it.
    ///
    /// Picks the cheap commutative path when every logged operation after
    /// the target commutes with every operation of the target **and** the
    /// target's operations all have exact compensations; otherwise
    /// performs a full suffix rollback via before-images and replays the
    /// survivors.
    ///
    /// Returns `None` when `et` has no at-risk record (e.g. it already
    /// committed).
    pub fn compensate(
        &mut self,
        store: &mut ObjectStore,
        et: EtId,
    ) -> Option<CoreResult<RollbackReport>> {
        let abs = *self.unresolved.get(&et)?.first()?;
        let idx = (abs - self.base) as usize;
        Some(self.compensate_at(store, idx))
    }

    #[expect(clippy::expect_used, reason = "only self-compensatable writes are logged, checked at append time")]
    fn compensate_at(
        &mut self,
        store: &mut ObjectStore,
        idx: usize,
    ) -> CoreResult<RollbackReport> {
        let cheap = {
            let target = &self.records[idx];
            let self_compensatable = target
                .ops
                .iter()
                .all(|a| !a.op.op.is_write() || a.op.op.compensation().is_some());
            let suffix_commutes = self.records.range(idx + 1..).all(|later| {
                later.ops.iter().all(|l| {
                    target
                        .ops
                        .iter()
                        .all(|t| !l.op.conflicts_with(&t.op))
                })
            });
            self_compensatable && suffix_commutes
        };

        if cheap {
            // Apply the compensation MSet at the end of the log, in
            // reverse operation order — and *log it*, so that a later
            // suffix rollback replays it faithfully.
            let et = self.records[idx].et;
            let comp_ops: Vec<ObjectOp> = self.records[idx]
                .ops
                .iter()
                .rev()
                .filter(|a| a.op.op.is_write())
                .map(|a| {
                    ObjectOp::new(
                        a.op.object,
                        a.op
                            .op
                            .compensation()
                            .expect("checked self_compensatable above"),
                    )
                })
                .collect();
            let undone = comp_ops.len();
            self.records[idx].resolved = true;
            self.remove_unresolved(et, self.base + idx as u64);
            self.apply_internal(store, et, &comp_ops, true)?;
            self.prune();
            return Ok(RollbackReport {
                strategy: RollbackStrategy::CommutativeCompensation,
                ops_undone: undone,
                ops_replayed: 0,
            });
        }

        // Full suffix rollback: undo everything from the end down to and
        // including the target, via before-images (sound because the log
        // records every state change since the oldest at-risk record)...
        let mut undone = 0;
        for rec in self.records.range(idx..).rev() {
            for a in rec.ops.iter().rev() {
                if a.op.op.is_write() {
                    store.put(a.op.object, a.before.clone());
                    undone += 1;
                }
            }
        }
        // ...drop the target, then replay the survivors in order,
        // re-recording fresh before-images and preserving their
        // resolution status.
        let cut = self.base + idx as u64;
        let suffix: Vec<LogRecord> = self.records.drain(idx..).collect();
        for (k, rec) in suffix.iter().enumerate() {
            if !rec.resolved {
                self.remove_unresolved(rec.et, cut + k as u64);
            }
        }
        let mut replayed = 0;
        for rec in suffix.into_iter().skip(1) {
            let resolved = rec.resolved;
            let et = rec.et;
            let ops: Vec<ObjectOp> = rec.ops.into_iter().map(|a| a.op).collect();
            replayed += ops.iter().filter(|o| o.op.is_write()).count();
            self.apply_internal(store, et, &ops, resolved)?;
        }
        self.prune();
        Ok(RollbackReport {
            strategy: RollbackStrategy::SuffixRollback,
            ops_undone: undone,
            ops_replayed: replayed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esr_core::ids::ObjectId;
    use esr_core::op::Operation;

    const X: ObjectId = ObjectId(0);
    const Y: ObjectId = ObjectId(1);

    fn op(obj: ObjectId, o: Operation) -> ObjectOp {
        ObjectOp::new(obj, o)
    }

    #[test]
    fn apply_records_before_images() {
        let mut store = ObjectStore::new();
        let mut log = RecoveryLog::new();
        log.apply_mset(&mut store, EtId(1), &[op(X, Operation::Incr(10))])
            .unwrap();
        assert_eq!(store.get(X), Value::Int(10));
        assert_eq!(log.at_risk(), 1);
        let first = log.records().next().unwrap();
        assert_eq!(first.ops[0].before, Value::Int(0));
        assert!(!first.resolved);
    }

    #[test]
    fn failed_apply_rolls_back_prefix_and_logs_nothing() {
        let mut store = ObjectStore::new();
        store.put(Y, Value::from("text"));
        let mut log = RecoveryLog::new();
        let err = log.apply_mset(
            &mut store,
            EtId(1),
            &[op(X, Operation::Incr(5)), op(Y, Operation::Incr(1))],
        );
        assert!(err.is_err());
        assert_eq!(store.get(X), Value::Int(0), "prefix undone");
        assert!(log.is_empty());
    }

    #[test]
    fn commit_resolves_and_prunes() {
        let mut store = ObjectStore::new();
        let mut log = RecoveryLog::new();
        log.apply_mset(&mut store, EtId(1), &[op(X, Operation::Incr(1))])
            .unwrap();
        assert!(log.commit(EtId(1)));
        assert!(!log.commit(EtId(1)), "second commit is a no-op");
        assert!(log.is_empty(), "resolved prefix is pruned");
    }

    #[test]
    fn committed_suffix_is_retained_until_prefix_resolves() {
        let mut store = ObjectStore::new();
        let mut log = RecoveryLog::new();
        log.apply_mset(&mut store, EtId(1), &[op(X, Operation::Incr(1))])
            .unwrap();
        log.apply_mset(&mut store, EtId(2), &[op(X, Operation::MulBy(2))])
            .unwrap();
        log.commit(EtId(2));
        assert_eq!(log.at_risk(), 1);
        assert_eq!(log.len(), 2, "ET2 stays for rollback fidelity");
        log.commit(EtId(1));
        assert!(log.is_empty(), "whole prefix resolved, all pruned");
    }

    #[test]
    fn commutative_compensation_fast_path() {
        let mut store = ObjectStore::new();
        let mut log = RecoveryLog::new();
        log.apply_mset(&mut store, EtId(1), &[op(X, Operation::Incr(10))])
            .unwrap();
        log.apply_mset(&mut store, EtId(2), &[op(X, Operation::Incr(5))])
            .unwrap();
        assert_eq!(store.get(X), Value::Int(15));
        let report = log.compensate(&mut store, EtId(1)).unwrap().unwrap();
        assert_eq!(report.strategy, RollbackStrategy::CommutativeCompensation);
        assert_eq!(report.ops_undone, 1);
        assert_eq!(report.ops_replayed, 0);
        assert_eq!(store.get(X), Value::Int(5), "only ET2's effect remains");
        assert_eq!(log.at_risk(), 1);
    }

    #[test]
    fn paper_inc_mul_example_requires_suffix_rollback() {
        // Inc(x,10) · Mul(x,2), abort the Inc:
        // naive Dec(x,10) would give (0+10)*2-10 = 10, not Mul(x,2) = 0.
        // COMPE must undo the Mul, skip the Inc, replay the Mul.
        let mut store = ObjectStore::new();
        let mut log = RecoveryLog::new();
        log.apply_mset(&mut store, EtId(1), &[op(X, Operation::Incr(10))])
            .unwrap();
        log.apply_mset(&mut store, EtId(2), &[op(X, Operation::MulBy(2))])
            .unwrap();
        assert_eq!(store.get(X), Value::Int(20));
        let report = log.compensate(&mut store, EtId(1)).unwrap().unwrap();
        assert_eq!(report.strategy, RollbackStrategy::SuffixRollback);
        assert_eq!(report.ops_undone, 2);
        assert_eq!(report.ops_replayed, 1);
        assert_eq!(store.get(X), Value::Int(0), "result equals Mul(x,2) alone");
        assert_eq!(log.at_risk(), 1, "the replayed Mul is re-logged at risk");
    }

    #[test]
    fn suffix_rollback_replay_preserves_later_effects() {
        let mut store = ObjectStore::new();
        let mut log = RecoveryLog::new();
        log.apply_mset(&mut store, EtId(1), &[op(X, Operation::Incr(3))])
            .unwrap();
        log.apply_mset(&mut store, EtId(2), &[op(X, Operation::MulBy(2))])
            .unwrap();
        log.apply_mset(&mut store, EtId(3), &[op(X, Operation::Incr(4))])
            .unwrap();
        // state = (0+3)*2+4 = 10. Abort ET1 → should be 0*2+4 = 4.
        let report = log.compensate(&mut store, EtId(1)).unwrap().unwrap();
        assert_eq!(report.strategy, RollbackStrategy::SuffixRollback);
        assert_eq!(store.get(X), Value::Int(4));
        assert_eq!(log.at_risk(), 2);
    }

    #[test]
    fn write_ops_are_undone_via_before_images() {
        let mut store = ObjectStore::new();
        store.put(X, Value::Int(7));
        let mut log = RecoveryLog::new();
        log.apply_mset(
            &mut store,
            EtId(1),
            &[op(X, Operation::Write(Value::Int(100)))],
        )
        .unwrap();
        log.apply_mset(&mut store, EtId(2), &[op(X, Operation::Incr(1))])
            .unwrap();
        // Write has no algebraic compensation → suffix rollback.
        let report = log.compensate(&mut store, EtId(1)).unwrap().unwrap();
        assert_eq!(report.strategy, RollbackStrategy::SuffixRollback);
        assert_eq!(store.get(X), Value::Int(8), "7 restored, then +1 replayed");
    }

    #[test]
    fn compensating_unknown_et_returns_none() {
        let mut store = ObjectStore::new();
        let mut log = RecoveryLog::new();
        assert!(log.compensate(&mut store, EtId(9)).is_none());
        // Committed records can't be compensated either.
        log.apply_mset(&mut store, EtId(1), &[op(X, Operation::Incr(1))])
            .unwrap();
        log.commit(EtId(1));
        assert!(log.compensate(&mut store, EtId(1)).is_none());
    }

    #[test]
    fn disjoint_objects_take_fast_path() {
        // Later MSet touches a different object: no conflict, cheap path.
        let mut store = ObjectStore::new();
        let mut log = RecoveryLog::new();
        log.apply_mset(&mut store, EtId(1), &[op(X, Operation::MulBy(3))])
            .unwrap();
        log.apply_mset(&mut store, EtId(2), &[op(Y, Operation::Incr(5))])
            .unwrap();
        let report = log.compensate(&mut store, EtId(1)).unwrap().unwrap();
        assert_eq!(report.strategy, RollbackStrategy::CommutativeCompensation);
        assert_eq!(store.get(Y), Value::Int(5));
    }

    #[test]
    fn multiple_aborts_compose() {
        let mut store = ObjectStore::new();
        let mut log = RecoveryLog::new();
        for (et, n) in [(1u64, 10i64), (2, 20), (3, 30)] {
            log.apply_mset(&mut store, EtId(et), &[op(X, Operation::Incr(n))])
                .unwrap();
        }
        assert_eq!(store.get(X), Value::Int(60));
        log.compensate(&mut store, EtId(2)).unwrap().unwrap();
        log.compensate(&mut store, EtId(1)).unwrap().unwrap();
        assert_eq!(store.get(X), Value::Int(30), "only ET3 survives");
        assert_eq!(log.at_risk(), 1);
    }

    #[test]
    fn fast_path_compensation_survives_later_suffix_rollback() {
        // The regression behind the faithful-history design: ET1 is
        // compensated via the fast path (its Dec is applied and logged);
        // a later *suffix* rollback of ET2 must not resurrect ET1's
        // effect through stale before-images.
        let mut store = ObjectStore::new();
        let mut log = RecoveryLog::new();
        log.apply_mset(&mut store, EtId(1), &[op(X, Operation::Incr(6))])
            .unwrap();
        log.apply_mset(&mut store, EtId(2), &[op(X, Operation::Incr(7))])
            .unwrap();
        // Fast-path abort of ET1: x = 13 - 6 = 7.
        let r1 = log.compensate(&mut store, EtId(1)).unwrap().unwrap();
        assert_eq!(r1.strategy, RollbackStrategy::CommutativeCompensation);
        assert_eq!(store.get(X), Value::Int(7));
        // Now a Mul lands and ET2 aborts: the suffix rollback walks back
        // through the *logged* Dec(6), keeping history consistent.
        log.apply_mset(&mut store, EtId(3), &[op(X, Operation::MulBy(2))])
            .unwrap();
        assert_eq!(store.get(X), Value::Int(14));
        let r2 = log.compensate(&mut store, EtId(2)).unwrap().unwrap();
        assert_eq!(r2.strategy, RollbackStrategy::SuffixRollback);
        // Surviving history: Inc(6) · Dec(6) · Mul(2) = 0.
        assert_eq!(store.get(X), Value::Int(0));
        log.commit(EtId(3));
        assert_eq!(log.at_risk(), 0);
        assert!(log.is_empty());
    }

    #[test]
    fn randomized_aborts_match_committed_only_oracle() {
        // End-to-end soundness: random Inc/Mul streams with interleaved
        // commits and aborts always end at the committed-only state.
        use esr_sim_free_rng::SmallRng;
        // No external RNG dependency here: a tiny LCG suffices.
        mod esr_sim_free_rng {
            pub struct SmallRng(pub u64);
            impl SmallRng {
                pub fn next(&mut self) -> u64 {
                    self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    self.0 >> 33
                }
            }
        }
        for seed in 0..200u64 {
            let mut rng = SmallRng(seed + 1);
            let n = 4 + (rng.next() % 8) as usize;
            let ops: Vec<Operation> = (0..n)
                .map(|_| {
                    if rng.next() % 100 < 40 {
                        Operation::MulBy(1 + (rng.next() % 3) as i64)
                    } else {
                        Operation::Incr(1 + (rng.next() % 10) as i64)
                    }
                })
                .collect();
            let commits: Vec<bool> = (0..n).map(|_| rng.next() % 100 < 60).collect();

            let mut store = ObjectStore::new();
            let mut log = RecoveryLog::new();
            let mut pending = std::collections::VecDeque::new();
            for (i, o) in ops.iter().enumerate() {
                log.apply_mset(&mut store, EtId(i as u64), &[op(X, o.clone())])
                    .unwrap();
                pending.push_back(i);
                if i >= 2 {
                    let j = pending.pop_front().unwrap();
                    if commits[j] {
                        log.commit(EtId(j as u64));
                    } else {
                        log.compensate(&mut store, EtId(j as u64)).unwrap().unwrap();
                    }
                }
            }
            for j in pending {
                if commits[j] {
                    log.commit(EtId(j as u64));
                } else {
                    log.compensate(&mut store, EtId(j as u64)).unwrap().unwrap();
                }
            }

            let mut oracle = ObjectStore::new();
            for (o, &committed) in ops.iter().zip(commits.iter()) {
                if committed {
                    oracle.apply(&op(X, o.clone())).unwrap();
                }
            }
            assert_eq!(
                store.get(X),
                oracle.get(X),
                "seed {seed}: ops {:?} commits {:?}",
                ops.iter().map(|o| o.to_string()).collect::<Vec<_>>(),
                commits
            );
            assert_eq!(log.at_risk(), 0, "seed {seed}");
        }
    }
}

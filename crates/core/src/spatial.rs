//! Spatial consistency criteria (§5.1).
//!
//! Sheth and Rusinkiewicz's interdependent-data taxonomy divides spatial
//! consistency into three cases: inconsistency is controlled by limiting
//! (1) the number of data items changed asynchronously, (2) the data
//! *value* changed asynchronously, or (3) the number of allowed
//! asynchronous operations. The paper notes "conservative ESR directly
//! models the idea of limiting the number of asynchronous operations …
//! in order to implement the other spatial consistency criteria, replica
//! control methods would need to explicitly include these factors."
//!
//! This module includes those factors: [`DeviationTracker`] generalizes
//! the lock-counter to track, per object, the *magnitude* of pending
//! (in-flight) change alongside the operation and item counts, and
//! [`SpatialSpec`] expresses all three admission criteria. Barbara and
//! Garcia-Molina's Controlled Inconsistency (arithmetic constraints on
//! values) corresponds to [`SpatialSpec::MaxValueDeviation`].

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use crate::ids::{EtId, ObjectId};
use crate::op::Operation;
use crate::value::Value;

/// A spatial admission criterion for one query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpatialSpec {
    /// Limit the number of asynchronous (in-flight) operations whose
    /// effects the query may expose — conservative ESR, the paper's
    /// native criterion.
    MaxOperations(u64),
    /// Limit the total pending *value deviation* over the read set: the
    /// answer may be off by at most this much (in value units).
    MaxValueDeviation(u64),
    /// Limit the number of distinct read-set *items* with any pending
    /// change.
    MaxChangedItems(u64),
}

/// Per-object pending-change bookkeeping for in-flight updates.
#[derive(Debug, Clone, Default)]
struct PendingChange {
    /// In-flight operations touching the object.
    operations: u64,
    /// Total absolute value deviation those operations can cause
    /// (`u64::MAX` when unbounded, e.g. a blind overwrite).
    deviation: u64,
    /// The ETs contributing.
    ets: BTreeSet<EtId>,
}

/// Tracks the spatial footprint of in-flight updates, generalizing the
/// §3.2 lock-counter: `begin` when an update originates, `end` when it
/// has been resolved at every replica.
#[derive(Debug, Clone, Default)]
pub struct DeviationTracker {
    pending: BTreeMap<ObjectId, PendingChange>,
    per_et: BTreeMap<EtId, Vec<(ObjectId, u64)>>,
}

/// The worst-case value deviation one write operation can cause.
///
/// Arithmetic deltas are exact for additive operations; multiplicative
/// and overwriting operations depend on the current value, so they are
/// reported as unbounded (`u64::MAX`) — the conservative answer.
pub fn worst_case_deviation(op: &Operation) -> u64 {
    match op {
        Operation::Read => 0,
        Operation::Incr(n) | Operation::Decr(n) => n.unsigned_abs(),
        Operation::InsertElem(_) | Operation::RemoveElem(_) => 1,
        Operation::MulBy(_) | Operation::DivBy(_) => u64::MAX,
        Operation::Write(_) | Operation::TimestampedWrite(_, _) => u64::MAX,
    }
}

impl DeviationTracker {
    /// Empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an in-flight update: its write operations and targets.
    /// Accepts owned or borrowed operations — callers on the delivery
    /// path hand references and avoid cloning.
    pub fn begin<B: std::borrow::Borrow<Operation>>(
        &mut self,
        et: EtId,
        writes: impl IntoIterator<Item = (ObjectId, B)>,
    ) {
        let mut contributions = Vec::new();
        for (object, op) in writes {
            let op = op.borrow();
            if !op.is_write() {
                continue;
            }
            let dev = worst_case_deviation(op);
            let p = self.pending.entry(object).or_default();
            p.operations += 1;
            p.deviation = p.deviation.saturating_add(dev);
            p.ets.insert(et);
            contributions.push((object, dev));
        }
        self.per_et.entry(et).or_default().extend(contributions);
    }

    /// Releases an update's contributions (resolved everywhere).
    /// Idempotent.
    pub fn end(&mut self, et: EtId) {
        let Some(contributions) = self.per_et.remove(&et) else {
            return;
        };
        for (object, dev) in contributions {
            if let Some(p) = self.pending.get_mut(&object) {
                p.operations -= 1;
                p.deviation = if p.deviation == u64::MAX {
                    // Recompute: an unbounded contributor may have left.
                    u64::MAX
                } else {
                    p.deviation.saturating_sub(dev)
                };
                p.ets.remove(&et);
                if p.operations == 0 {
                    self.pending.remove(&object);
                }
            }
        }
        // Exact recompute for objects that held an unbounded contributor.
        let unbounded_objects: Vec<ObjectId> = self
            .pending
            .iter()
            .filter(|(_, p)| p.deviation == u64::MAX)
            .map(|(o, _)| *o)
            .collect();
        for object in unbounded_objects {
            let total: u64 = self
                .per_et
                .values()
                .flatten()
                .filter(|(o, _)| *o == object)
                .fold(0u64, |acc, (_, d)| acc.saturating_add(*d));
            if let Some(p) = self.pending.get_mut(&object) {
                p.deviation = total;
            }
        }
    }

    /// In-flight operations over a read set (criterion 3).
    pub fn pending_operations(&self, read_set: &[ObjectId]) -> u64 {
        read_set
            .iter()
            .map(|o| self.pending.get(o).map_or(0, |p| p.operations))
            .sum()
    }

    /// Worst-case pending value deviation over a read set (criterion 2).
    pub fn pending_deviation(&self, read_set: &[ObjectId]) -> u64 {
        read_set.iter().fold(0u64, |acc, o| {
            acc.saturating_add(self.pending.get(o).map_or(0, |p| p.deviation))
        })
    }

    /// In-flight update ETs writing each read-set object, summed over
    /// the read set — what the §3.2 lock-counters of those objects
    /// would read (each counts the distinct ETs holding it).
    pub fn pending_ets(&self, read_set: &[ObjectId]) -> u64 {
        read_set
            .iter()
            .map(|o| self.pending.get(o).map_or(0, |p| p.ets.len() as u64))
            .sum()
    }

    /// Number of updates in flight — begun and not yet ended, whether
    /// or not they write anything.
    pub fn in_flight(&self) -> usize {
        self.per_et.len()
    }

    /// Read-set items with any pending change (criterion 1).
    pub fn changed_items(&self, read_set: &[ObjectId]) -> u64 {
        read_set
            .iter()
            .filter(|o| self.pending.contains_key(o))
            .count() as u64
    }

    /// Would a query over `read_set` satisfy `spec` right now?
    pub fn admits(&self, read_set: &[ObjectId], spec: SpatialSpec) -> bool {
        match spec {
            SpatialSpec::MaxOperations(limit) => self.pending_operations(read_set) <= limit,
            SpatialSpec::MaxValueDeviation(limit) => self.pending_deviation(read_set) <= limit,
            SpatialSpec::MaxChangedItems(limit) => self.changed_items(read_set) <= limit,
        }
    }

    /// True when nothing is in flight.
    pub fn quiescent(&self) -> bool {
        self.pending.is_empty()
    }
}

/// The deviation between a query answer and the authoritative values —
/// used by experiments to check that `MaxValueDeviation` really bounds
/// the answer's error for additive workloads.
pub fn answer_deviation(answer: &[Value], truth: &[Value]) -> u64 {
    answer
        .iter()
        .zip(truth)
        .fold(0u64, |acc, (a, t)| acc.saturating_add(a.distance(t)))
}

#[cfg(test)]
mod tests {
    use super::*;

    const X: ObjectId = ObjectId(0);
    const Y: ObjectId = ObjectId(1);

    fn inc(n: i64) -> Operation {
        Operation::Incr(n)
    }

    #[test]
    fn worst_case_deviations() {
        assert_eq!(worst_case_deviation(&Operation::Incr(5)), 5);
        assert_eq!(worst_case_deviation(&Operation::Decr(7)), 7);
        assert_eq!(worst_case_deviation(&Operation::Read), 0);
        assert_eq!(worst_case_deviation(&Operation::InsertElem(1)), 1);
        assert_eq!(worst_case_deviation(&Operation::MulBy(2)), u64::MAX);
        assert_eq!(
            worst_case_deviation(&Operation::Write(Value::Int(1))),
            u64::MAX
        );
    }

    #[test]
    fn begin_end_track_operations_and_deviation() {
        let mut t = DeviationTracker::new();
        t.begin(EtId(1), [(X, inc(5)), (Y, inc(3))]);
        t.begin(EtId(2), [(X, inc(2))]);
        assert_eq!(t.pending_operations(&[X]), 2);
        assert_eq!(t.pending_operations(&[X, Y]), 3);
        assert_eq!(t.pending_deviation(&[X]), 7);
        assert_eq!(t.pending_deviation(&[X, Y]), 10);
        assert_eq!(t.changed_items(&[X, Y]), 2);
        t.end(EtId(1));
        assert_eq!(t.pending_deviation(&[X, Y]), 2);
        assert_eq!(t.changed_items(&[X, Y]), 1);
        t.end(EtId(2));
        assert!(t.quiescent());
    }

    /// The in-flight ETs per object are what the §3.2 lock-counters
    /// count: an ET writing an object twice holds it once, a read holds
    /// nothing, and an update with no write is still in flight.
    #[test]
    fn pending_ets_read_as_the_lock_counters() {
        use crate::divergence::LockCounters;
        let updates = [
            (EtId(1), vec![(X, inc(5)), (X, inc(1)), (Y, Operation::Read)]),
            (EtId(2), vec![(Y, Operation::MulBy(2)), (X, inc(2))]),
            (EtId(3), vec![(Y, Operation::Read)]),
        ];
        let (mut t, mut lc) = (DeviationTracker::new(), LockCounters::new());
        let agree = |t: &DeviationTracker, lc: &LockCounters| {
            for rs in [&[X][..], &[Y], &[X, Y], &[X, X]] {
                assert_eq!(t.pending_ets(rs), lc.inconsistency_of_set(rs.iter().copied()));
            }
            assert_eq!(t.in_flight(), lc.in_flight());
        };
        for (et, ops) in &updates {
            t.begin(*et, ops.iter().map(|(o, op)| (*o, op)));
            let writes = ops.iter().filter(|(_, op)| op.is_write()).map(|(o, _)| *o);
            lc.begin_update(*et, writes);
            agree(&t, &lc);
        }
        assert_eq!((t.pending_ets(&[X, Y]), t.in_flight()), (3, 3));
        for (et, _) in &updates {
            t.end(*et);
            lc.end_update(*et);
            agree(&t, &lc);
        }
    }

    #[test]
    fn end_is_idempotent() {
        let mut t = DeviationTracker::new();
        t.begin(EtId(1), [(X, inc(5))]);
        t.end(EtId(1));
        t.end(EtId(1));
        assert!(t.quiescent());
    }

    #[test]
    fn reads_contribute_nothing() {
        let mut t = DeviationTracker::new();
        t.begin(EtId(1), [(X, Operation::Read)]);
        assert!(t.quiescent());
    }

    #[test]
    fn unbounded_ops_poison_deviation_until_released() {
        let mut t = DeviationTracker::new();
        t.begin(EtId(1), [(X, inc(5))]);
        t.begin(EtId(2), [(X, Operation::MulBy(2))]);
        assert_eq!(t.pending_deviation(&[X]), u64::MAX, "Mul is unbounded");
        assert!(!t.admits(&[X], SpatialSpec::MaxValueDeviation(1_000_000)));
        // Count-based criteria still work.
        assert!(t.admits(&[X], SpatialSpec::MaxOperations(2)));
        t.end(EtId(2));
        assert_eq!(
            t.pending_deviation(&[X]),
            5,
            "exact recompute after the unbounded contributor leaves"
        );
    }

    #[test]
    fn all_three_criteria_admit_and_reject() {
        let mut t = DeviationTracker::new();
        t.begin(EtId(1), [(X, inc(10)), (Y, inc(1))]);
        t.begin(EtId(2), [(X, inc(10))]);

        // Criterion 3: operations.
        assert!(t.admits(&[X], SpatialSpec::MaxOperations(2)));
        assert!(!t.admits(&[X], SpatialSpec::MaxOperations(1)));

        // Criterion 2: value deviation.
        assert!(t.admits(&[X], SpatialSpec::MaxValueDeviation(20)));
        assert!(!t.admits(&[X], SpatialSpec::MaxValueDeviation(19)));

        // Criterion 1: changed items.
        assert!(t.admits(&[X, Y], SpatialSpec::MaxChangedItems(2)));
        assert!(!t.admits(&[X, Y], SpatialSpec::MaxChangedItems(1)));
        assert!(t.admits(&[ObjectId(9)], SpatialSpec::MaxChangedItems(0)));
    }

    #[test]
    fn deviation_bounds_real_answer_error_for_additive_ops() {
        // If the pending deviation over the read set is D, then any
        // answer the replica can give differs from the converged truth
        // by at most D — check concretely.
        let mut t = DeviationTracker::new();
        let pending_ops = [(X, inc(5)), (X, inc(-3i64).clone()), (Y, inc(2))];
        t.begin(EtId(1), [(X, inc(5))]);
        t.begin(EtId(2), [(X, Operation::Incr(-3))]);
        t.begin(EtId(3), [(Y, inc(2))]);
        let bound = t.pending_deviation(&[X, Y]);
        assert_eq!(bound, 10);

        // Stale answer: none applied. Truth: all applied.
        let stale = vec![Value::Int(100), Value::Int(50)];
        let truth = vec![Value::Int(100 + 5 - 3), Value::Int(52)];
        assert!(answer_deviation(&stale, &truth) <= bound);
        // Partially applied answers too.
        let partial = vec![Value::Int(105), Value::Int(50)];
        assert!(answer_deviation(&partial, &truth) <= bound);
        let _ = pending_ops;
    }

    #[test]
    fn answer_deviation_sums_distances() {
        let a = vec![Value::Int(10), Value::Int(0)];
        let b = vec![Value::Int(7), Value::Int(5)];
        assert_eq!(answer_deviation(&a, &b), 8);
        assert_eq!(answer_deviation(&a, &a), 0);
    }
}

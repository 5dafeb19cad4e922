//! COMMU — commutative operations (§3.2).
//!
//! When update MSets commute, the final result is the same under any
//! application order, so MSets are applied immediately on arrival — no
//! hold-back, no sequencer. Delivery order genuinely does not matter
//! ("sorting time: doesn't matter", Table 1).
//!
//! Divergence bounding uses per-object **lock-counters**: an update ET
//! raises the counter of every object it writes for the duration of its
//! (distributed) execution — from the first replica applying its MSet to
//! the completion notice saying every replica has applied it. A query is
//! charged the sum of the counters over its read set: "each lock-counter
//! different from zero means a certain degree of inconsistency added to
//! the query ET."
//!
//! The completion notice is an ordinary asynchronous message broadcast by
//! the origin once all replicas have acknowledged; the cluster driver
//! models it with [`CommuSite::complete`].

use std::collections::BTreeMap;

use esr_core::divergence::{InconsistencyCounter, LockCounters};
use esr_core::fastid::FastIdMap;
use esr_core::ids::{EtId, ObjectId, SiteId, VersionTs};
use esr_core::value::Value;
use esr_storage::store::ObjectStore;

use crate::mset::MSet;
use crate::site::{Delivered, Delivery, QueryOutcome, ReplicaSite};

/// A COMMU replica site.
#[derive(Debug)]
pub struct CommuSite {
    store: ObjectStore,
    counters: LockCounters,
    /// ETs applied at this site, each with its MSet's max version
    /// (duplicate suppression, and the applies the core re-announces).
    applied_ets: FastIdMap<EtId, Option<VersionTs>>,
}

impl CommuSite {
    /// A fresh site.
    pub fn new(_site: SiteId) -> Self {
        Self {
            store: ObjectStore::new(),
            counters: LockCounters::new(),
            applied_ets: FastIdMap::default(),
        }
    }

    /// Every ET applied here with its max version, in ET order.
    pub fn applies(&self) -> Vec<(EtId, Option<VersionTs>)> {
        crate::site::sorted_applies(&self.applied_ets)
    }

    /// Captures the site's full protocol state as a checkpoint image:
    /// store contents, the in-flight updates still holding
    /// lock-counters, and the applied ETs with their versions.
    pub fn to_ckpt(&self) -> crate::ckpt::CommuCkpt {
        crate::ckpt::CommuCkpt {
            values: self.store.snapshot().into_iter().collect(),
            held: self.counters.held_sets(),
            applied_ets: self.applies(),
        }
    }

    /// Rebuilds a site from a checkpoint image, mid-protocol: held
    /// write sets re-raise exactly the lock-counters that were up at
    /// the cut, so queries keep being charged for in-flight updates and
    /// late completion notices land correctly.
    pub fn from_ckpt(_site: SiteId, c: crate::ckpt::CommuCkpt) -> Self {
        let counters = LockCounters::from_held_sets(c.held);
        Self {
            store: ObjectStore::with_values(c.values),
            counters,
            applied_ets: c.applied_ets.into_iter().collect(),
        }
    }

    /// Handles the completion notice for `et`: every replica has applied
    /// its MSet, so the update is no longer in flight and its
    /// lock-counters drop.
    pub fn complete(&mut self, et: EtId) {
        self.counters.end_update(et);
    }

    /// The lock-counter value of one object (visible inconsistency).
    pub fn lock_counter(&self, object: ObjectId) -> u64 {
        self.counters.inconsistency_of(object)
    }

    /// The highest lock-counter value any object has reached here.
    pub fn lock_counter_high_water(&self) -> u64 {
        self.counters.high_water()
    }

    /// True when applying an update over `write_set` would push any
    /// object's lock-counter beyond `limit` — the paper's optional update
    /// throttle ("the update ET trying to write must either wait or
    /// abort").
    pub fn would_exceed(&self, write_set: &[ObjectId], limit: u64) -> bool {
        write_set
            .iter()
            .any(|&o| self.counters.inconsistency_of(o) + 1 > limit)
    }

    /// True when no update is in flight at this site.
    pub fn quiescent(&self) -> bool {
        self.counters.quiescent()
    }
}

impl ReplicaSite for CommuSite {
    #[expect(clippy::expect_used, reason = "a rejected apply is replica-state corruption; panicking is the documented contract")]
    fn deliver(&mut self, mset: MSet) -> Delivery {
        if self.applied_ets.contains_key(&mset.et) {
            return Delivered::Duplicate.into();
        }
        for op in &mset.ops {
            self.store
                .apply(op)
                .expect("commutative MSet must apply cleanly");
        }
        self.counters.begin_update(mset.et, mset.write_set());
        self.applied_ets.insert(mset.et, mset.max_version());
        Delivered::Applied.into()
    }

    fn has_applied(&self, et: EtId) -> bool {
        self.applied_ets.contains_key(&et)
    }

    fn query(
        &mut self,
        read_set: &[ObjectId],
        counter: &mut InconsistencyCounter,
    ) -> QueryOutcome {
        let charge = self.counters.inconsistency_of_set(read_set.iter().copied());
        if !counter.charge(charge).is_admitted() {
            return QueryOutcome::rejected();
        }
        QueryOutcome {
            values: read_set.iter().map(|&o| self.store.get(o)).collect(),
            charged: charge,
            admitted: true,
        }
    }

    fn snapshot(&self) -> BTreeMap<ObjectId, Value> {
        self.store.snapshot()
    }

    fn backlog(&self) -> usize {
        0 // COMMU never holds anything back
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esr_core::divergence::EpsilonSpec;
    use esr_core::op::{ObjectOp, Operation};

    const X: ObjectId = ObjectId(0);
    const Y: ObjectId = ObjectId(1);

    fn inc(et: u64, obj: ObjectId, n: i64) -> MSet {
        MSet::new(EtId(et), SiteId(9), vec![ObjectOp::new(obj, Operation::Incr(n))])
    }

    fn unbounded() -> InconsistencyCounter {
        InconsistencyCounter::new(EpsilonSpec::UNBOUNDED)
    }

    #[test]
    fn applies_immediately_in_any_order() {
        let msets = [inc(1, X, 5), inc(2, X, 7), inc(3, Y, 1)];
        let mut a = CommuSite::new(SiteId(0));
        let mut b = CommuSite::new(SiteId(1));
        for m in &msets {
            a.deliver(m.clone());
        }
        for m in msets.iter().rev() {
            b.deliver(m.clone());
        }
        assert_eq!(a.snapshot(), b.snapshot());
        assert_eq!(a.snapshot()[&X], Value::Int(12));
        assert_eq!(a.backlog(), 0);
        assert_eq!(b.applies(), vec![(EtId(1), None), (EtId(2), None), (EtId(3), None)]);
    }

    #[test]
    fn duplicates_suppressed() {
        let mut s = CommuSite::new(SiteId(0));
        let m = inc(1, X, 5);
        assert_eq!(s.deliver(m.clone()).outcome, Delivered::Applied);
        assert_eq!(s.deliver(m).outcome, Delivered::Duplicate);
        assert_eq!(s.snapshot()[&X], Value::Int(5));
        assert_eq!(s.lock_counter(X), 1, "counter raised once");
    }

    #[test]
    fn redelivery_storm_is_idempotent_and_counted() {
        let msets = [inc(1, X, 5), inc(2, X, 7), inc(3, Y, 1)];
        let mut s = CommuSite::new(SiteId(0));
        let duplicates = msets
            .iter()
            .chain(msets.iter().rev())
            .chain(msets.iter())
            .filter(|m| s.deliver((*m).clone()).outcome == Delivered::Duplicate)
            .count();
        assert_eq!(s.snapshot()[&X], Value::Int(12), "each Incr applied once");
        assert_eq!(duplicates, 6);
        assert!(msets.iter().all(|m| s.has_applied(m.et)));
        assert_eq!(s.lock_counter(X), 2, "counters raised once per ET");
    }

    #[test]
    fn lock_counters_track_in_flight_updates() {
        let mut s = CommuSite::new(SiteId(0));
        s.deliver(inc(1, X, 5));
        s.deliver(inc(2, X, 3));
        assert_eq!(s.lock_counter(X), 2);
        assert!(!s.quiescent());
        s.complete(EtId(1));
        assert_eq!(s.lock_counter(X), 1);
        s.complete(EtId(2));
        assert!(s.quiescent());
        assert_eq!(s.lock_counter(X), 0);
    }

    #[test]
    fn query_charges_lock_counters() {
        let mut s = CommuSite::new(SiteId(0));
        s.deliver(inc(1, X, 5));
        s.deliver(inc(2, Y, 1));
        let mut c = unbounded();
        let out = s.query(&[X, Y], &mut c);
        assert!(out.admitted);
        assert_eq!(out.charged, 2);
        assert_eq!(out.values, vec![Value::Int(5), Value::Int(1)]);
        // After completion, the same query is free.
        s.complete(EtId(1));
        s.complete(EtId(2));
        let mut c2 = InconsistencyCounter::new(EpsilonSpec::STRICT);
        assert!(s.query(&[X, Y], &mut c2).admitted);
    }

    #[test]
    fn strict_query_rejected_while_updates_in_flight() {
        let mut s = CommuSite::new(SiteId(0));
        s.deliver(inc(1, X, 5));
        let mut c = InconsistencyCounter::new(EpsilonSpec::STRICT);
        assert!(!s.query(&[X], &mut c).admitted);
        // Unrelated object unaffected.
        assert!(s.query(&[Y], &mut c).admitted);
    }

    #[test]
    fn bounded_budget_spends_down() {
        let mut s = CommuSite::new(SiteId(0));
        s.deliver(inc(1, X, 1));
        s.deliver(inc(2, X, 1));
        let mut c = InconsistencyCounter::new(EpsilonSpec::bounded(3));
        assert!(s.query(&[X], &mut c).admitted, "charge 2 fits in 3");
        assert_eq!(c.remaining(), 1);
        assert!(!s.query(&[X], &mut c).admitted, "second charge of 2 doesn't");
    }

    #[test]
    fn update_throttle_check() {
        let mut s = CommuSite::new(SiteId(0));
        s.deliver(inc(1, X, 1));
        s.deliver(inc(2, X, 1));
        assert!(s.would_exceed(&[X], 2));
        assert!(!s.would_exceed(&[X], 3));
        assert!(!s.would_exceed(&[Y], 1));
    }
}

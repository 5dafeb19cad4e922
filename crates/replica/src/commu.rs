//! COMMU — commutative operations (§3.2), and the lock-counter site it
//! shares with RITU's overwrite mode.
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
//! the origin once all replicas have acknowledged; the control core
//! hands it to the site as [`ReplicaSite::complete`].
//!
//! RITU's overwrite mode "reduces to COMMU" (§3.3): its timestamped
//! overwrites converge under any delivery order too, so it is the same
//! [`CountedSite`] over a last-writer-wins store
//! ([`crate::ritu::RituOverwriteSite`]). A [`ConvergentStore`] is all
//! the site asks of its store.

use std::collections::BTreeMap;

use esr_core::divergence::{InconsistencyCounter, LockCounters};
use esr_core::error::CoreResult;
use esr_core::fastid::FastIdMap;
use esr_core::ids::{EtId, ObjectId, SiteId, VersionTs};
use esr_core::op::{ObjectOp, Operation};
use esr_core::value::Value;
use esr_storage::store::ObjectStore;

use crate::ckpt::CountedCkpt;
use crate::mset::MSet;
use crate::site::{Delivered, QueryOutcome, Released, ReplicaSite, SiteReadings};

/// A store that every delivery order of the same MSets brings to the
/// same state — all a lock-counter site needs of it.
pub trait ConvergentStore: Default {
    /// One object's checkpoint row.
    type Row;
    /// Can a delivered MSet carry `op`? Any operation, unless the store
    /// narrows it.
    fn takes(_op: &Operation) -> bool {
        true
    }
    /// Applies one operation of a delivered MSet.
    fn apply(&mut self, op: &ObjectOp) -> CoreResult<Value>;
    /// The current value of `object`.
    fn get(&self, object: ObjectId) -> Value;
    /// Every written object's value, in object order.
    fn snapshot(&self) -> BTreeMap<ObjectId, Value>;
    /// The checkpoint rows, in object order.
    fn rows(&self) -> Vec<Self::Row>;
    /// The store those rows describe.
    fn from_rows(rows: Vec<Self::Row>) -> Self;
}

impl ConvergentStore for ObjectStore {
    type Row = (ObjectId, Value);
    fn apply(&mut self, op: &ObjectOp) -> CoreResult<Value> {
        ObjectStore::apply(self, op)
    }
    fn get(&self, object: ObjectId) -> Value {
        ObjectStore::get(self, object)
    }
    fn snapshot(&self) -> BTreeMap<ObjectId, Value> {
        ObjectStore::snapshot(self)
    }
    fn rows(&self) -> Vec<Self::Row> {
        self.snapshot().into_iter().collect()
    }
    fn from_rows(rows: Vec<Self::Row>) -> Self {
        ObjectStore::with_values(rows)
    }
}

/// A lock-counter replica site over a convergent store.
#[derive(Debug)]
pub struct CountedSite<S> {
    pub(crate) store: S,
    counters: LockCounters,
    /// ETs applied at this site, each with its MSet's max version
    /// (duplicate suppression, and the applies the core re-announces).
    applied_ets: FastIdMap<EtId, Option<VersionTs>>,
}

/// A COMMU replica site.
pub type CommuSite = CountedSite<ObjectStore>;

impl<S: ConvergentStore> CountedSite<S> {
    /// A fresh site.
    pub fn new(_site: SiteId) -> Self {
        Self {
            store: S::default(),
            counters: LockCounters::new(),
            applied_ets: FastIdMap::default(),
        }
    }

    /// Captures the site's full protocol state as a checkpoint image:
    /// the store's rows, the in-flight updates still holding
    /// lock-counters, and the applied ETs with their versions.
    pub fn to_ckpt(&self) -> CountedCkpt<S::Row> {
        CountedCkpt {
            values: self.store.rows(),
            held: self.counters.held_sets(),
            applied_ets: self.applies(),
        }
    }

    /// Rebuilds a site from a checkpoint image, mid-protocol: held
    /// write sets re-raise exactly the lock-counters that were up at
    /// the cut, so queries keep being charged for in-flight updates and
    /// late completion notices land correctly.
    pub fn from_ckpt(_site: SiteId, c: CountedCkpt<S::Row>) -> Self {
        Self {
            store: S::from_rows(c.values),
            counters: LockCounters::from_held_sets(c.held),
            applied_ets: c.applied_ets.into_iter().collect(),
        }
    }
}

impl<S: ConvergentStore> ReplicaSite for CountedSite<S> {
    #[expect(clippy::expect_used, reason = "a rejected apply is replica-state corruption; panicking is the documented contract")]
    fn deliver(&mut self, mset: &MSet, applied: &mut Vec<Released>) -> Delivered {
        if self.applied_ets.contains_key(&mset.et) {
            return Delivered::Duplicate;
        }
        for op in &mset.ops {
            self.store
                .apply(op)
                .expect("a convergent store applies every MSet cleanly");
        }
        let writes = mset
            .ops
            .iter()
            .filter(|o| o.op.is_write())
            .map(|o| o.object);
        self.counters.begin_update(mset.et, writes);
        let apply = Released::of(mset);
        self.applied_ets.insert(apply.et, apply.version);
        applied.push(apply);
        Delivered::Applied
    }

    fn accepts(&self, mset: &MSet) -> bool {
        mset.ops.iter().all(|o| S::takes(&o.op))
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
        QueryOutcome::admit(counter, charge, || {
            read_set.iter().map(|&o| self.store.get(o)).collect()
        })
    }

    fn snapshot(&self) -> BTreeMap<ObjectId, Value> {
        self.store.snapshot()
    }

    /// Settled once no update is in flight here.
    fn settled(&self) -> bool {
        self.counters.quiescent()
    }

    fn applies(&self) -> Vec<(EtId, Option<VersionTs>)> {
        crate::site::sorted_applies(&self.applied_ets)
    }

    fn readings(&self) -> SiteReadings {
        SiteReadings {
            lock_counter_high_water: self.counters.high_water(),
            ..SiteReadings::default()
        }
    }

    /// Every replica has applied `et`'s MSet, so the update is no longer
    /// in flight and its lock-counters drop.
    fn complete(&mut self, et: EtId) {
        self.counters.end_update(et);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esr_core::divergence::EpsilonSpec;
    use esr_core::ids::ClientId;
    use esr_storage::store::LwwStore;

    const X: ObjectId = ObjectId(0);
    const Y: ObjectId = ObjectId(1);

    /// What each lock-counter test needs to know about a store.
    trait Fixture: ConvergentStore + std::fmt::Debug {
        /// ET `et`'s update MSet: adds `n` to `obj` (COMMU) or writes
        /// `n` to it at version `et` (RITU).
        fn update(et: u64, obj: ObjectId, n: i64) -> MSet;
        /// The value left by two updates writing `a` then `b`, in ET
        /// order.
        fn merged(a: i64, b: i64) -> i64;
    }

    impl Fixture for ObjectStore {
        fn update(et: u64, obj: ObjectId, n: i64) -> MSet {
            MSet::new(
                EtId(et),
                SiteId(9),
                vec![ObjectOp::new(obj, Operation::Incr(n))],
            )
        }
        fn merged(a: i64, b: i64) -> i64 {
            a + b
        }
    }

    impl Fixture for LwwStore {
        fn update(et: u64, obj: ObjectId, n: i64) -> MSet {
            let write = Operation::TimestampedWrite(VersionTs::new(et, ClientId(0)), Value::Int(n));
            MSet::new(EtId(et), SiteId(9), vec![ObjectOp::new(obj, write)])
        }
        fn merged(_: i64, b: i64) -> i64 {
            b
        }
    }

    /// Runs each named test over COMMU's store and RITU's.
    macro_rules! over_both_stores {
        ($($test:ident),+ $(,)?) => {
            mod commu {
                $(#[test]
                fn $test() {
                    super::$test::<super::ObjectStore>();
                })+
            }
            mod ritu {
                $(#[test]
                fn $test() {
                    super::$test::<super::LwwStore>();
                })+
            }
        };
    }

    over_both_stores!(
        applies_immediately_in_any_order,
        duplicates_suppressed,
        redelivery_storm_is_idempotent_and_counted,
        lock_counters_track_in_flight_updates,
        query_charges_lock_counters,
        strict_query_rejected_while_updates_in_flight,
        bounded_budget_spends_down,
        image_restores_values_and_counters,
    );

    fn unbounded() -> InconsistencyCounter {
        InconsistencyCounter::new(EpsilonSpec::UNBOUNDED)
    }

    fn applies_immediately_in_any_order<S: Fixture>() {
        let msets = [S::update(1, X, 5), S::update(2, X, 7), S::update(3, Y, 1)];
        let mut a = CountedSite::<S>::new(SiteId(0));
        let mut b = CountedSite::<S>::new(SiteId(1));
        for m in &msets {
            a.deliver(m, &mut Vec::new());
        }
        for m in msets.iter().rev() {
            b.deliver(m, &mut Vec::new());
        }
        assert_eq!(a.snapshot(), b.snapshot());
        assert_eq!(a.snapshot()[&X], Value::Int(S::merged(5, 7)));
        assert_eq!(a.backlog(), 0);
        let applies: Vec<_> = msets.iter().map(|m| (m.et, m.max_version())).collect();
        assert_eq!(b.applies(), applies);
    }

    fn duplicates_suppressed<S: Fixture>() {
        let mut s = CountedSite::<S>::new(SiteId(0));
        let m = S::update(1, X, 5);
        assert_eq!(s.deliver(&m, &mut Vec::new()), Delivered::Applied);
        assert_eq!(s.deliver(&m, &mut Vec::new()), Delivered::Duplicate);
        assert_eq!(s.snapshot()[&X], Value::Int(5));
        assert_eq!(s.counters.inconsistency_of(X), 1, "counter raised once");
    }

    fn redelivery_storm_is_idempotent_and_counted<S: Fixture>() {
        let msets = [S::update(1, X, 5), S::update(2, X, 7), S::update(3, Y, 1)];
        let mut s = CountedSite::<S>::new(SiteId(0));
        let duplicates = msets
            .iter()
            .chain(msets.iter().rev())
            .chain(msets.iter())
            .filter(|m| s.deliver(m, &mut Vec::new()) == Delivered::Duplicate)
            .count();
        assert_eq!(
            s.snapshot()[&X],
            Value::Int(S::merged(5, 7)),
            "each update applied once"
        );
        assert_eq!(duplicates, 6);
        assert!(msets.iter().all(|m| s.has_applied(m.et)));
        assert_eq!(
            s.counters.inconsistency_of(X),
            2,
            "counters raised once per ET"
        );
    }

    fn lock_counters_track_in_flight_updates<S: Fixture>() {
        let mut s = CountedSite::<S>::new(SiteId(0));
        s.deliver(&S::update(1, X, 5), &mut Vec::new());
        s.deliver(&S::update(2, X, 3), &mut Vec::new());
        assert_eq!(s.counters.inconsistency_of(X), 2);
        assert!(!s.settled());
        s.complete(EtId(1));
        assert_eq!(s.counters.inconsistency_of(X), 1);
        s.complete(EtId(2));
        assert!(s.settled());
        assert_eq!(s.counters.inconsistency_of(X), 0);
        assert_eq!(s.readings().lock_counter_high_water, 2);
    }

    fn query_charges_lock_counters<S: Fixture>() {
        let mut s = CountedSite::<S>::new(SiteId(0));
        s.deliver(&S::update(1, X, 5), &mut Vec::new());
        s.deliver(&S::update(2, Y, 1), &mut Vec::new());
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

    fn strict_query_rejected_while_updates_in_flight<S: Fixture>() {
        let mut s = CountedSite::<S>::new(SiteId(0));
        s.deliver(&S::update(1, X, 5), &mut Vec::new());
        let mut c = InconsistencyCounter::new(EpsilonSpec::STRICT);
        assert_eq!(s.query(&[X], &mut c), QueryOutcome::rejected());
        assert_eq!(c.imported(), 0, "a rejected query charges nothing");
        // Unrelated object unaffected.
        assert!(s.query(&[Y], &mut c).admitted);
    }

    fn bounded_budget_spends_down<S: Fixture>() {
        let mut s = CountedSite::<S>::new(SiteId(0));
        s.deliver(&S::update(1, X, 1), &mut Vec::new());
        s.deliver(&S::update(2, X, 1), &mut Vec::new());
        let mut c = InconsistencyCounter::new(EpsilonSpec::bounded(3));
        assert!(s.query(&[X], &mut c).admitted, "charge 2 fits in 3");
        assert_eq!(c.remaining(), 1);
        assert!(!s.query(&[X], &mut c).admitted, "second charge of 2 doesn't");
    }

    /// A site rebuilt from its image mid-protocol reads the same values,
    /// charges the same counters and lets a late completion land.
    fn image_restores_values_and_counters<S: Fixture>() {
        let mut s = CountedSite::<S>::new(SiteId(0));
        s.deliver(&S::update(1, X, 5), &mut Vec::new());
        s.deliver(&S::update(2, Y, 1), &mut Vec::new());
        s.complete(EtId(2));
        let mut r = CountedSite::<S>::from_ckpt(SiteId(0), s.to_ckpt());
        assert_eq!(r.snapshot(), s.snapshot());
        assert_eq!(r.applies(), s.applies());
        let out = r.query(&[X, Y], &mut unbounded());
        assert_eq!(out, s.query(&[X, Y], &mut unbounded()));
        assert_eq!(out.charged, 1, "ET1's counter survives the image");
        r.complete(EtId(1));
        assert!(r.settled());
    }
}

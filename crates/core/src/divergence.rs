//! Divergence control primitives (§2.2, §3).
//!
//! Replica control bounds the inconsistency a query ET can see with an
//! *inconsistency counter*: each time the query is found to overlap a
//! conflicting update ET the counter is incremented, and once it reaches
//! the query's epsilon specification the query may only proceed
//! synchronously (in the global order / below the VTNC / after quiesce).
//!
//! COMMU additionally uses per-object *lock-counters* (§3.2): an update ET
//! increments the counter of every object it writes for the duration of
//! its execution; a non-zero counter tells queries how much inconsistency
//! a read of that object would import.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::ids::{EtId, ObjectId};

/// A per-query inconsistency budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EpsilonSpec {
    /// Maximum number of conflicting concurrent update ETs this query may
    /// import. `0` = strict SR; `u64::MAX` = unbounded.
    pub limit: u64,
}

impl EpsilonSpec {
    /// No inconsistency allowed: the query must be serializable.
    pub const STRICT: EpsilonSpec = EpsilonSpec { limit: 0 };
    /// Unbounded inconsistency (overlap still bounds the error).
    pub const UNBOUNDED: EpsilonSpec = EpsilonSpec { limit: u64::MAX };

    /// A budget of exactly `limit` units.
    pub const fn bounded(limit: u64) -> Self {
        Self { limit }
    }

    /// True when the spec demands strict serializability.
    pub fn is_strict(&self) -> bool {
        self.limit == 0
    }
}

impl Default for EpsilonSpec {
    fn default() -> Self {
        Self::UNBOUNDED
    }
}

/// Outcome of asking to import inconsistency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The charge fit in the budget and has been recorded.
    Admitted,
    /// The charge would exceed the budget; it was **not** recorded. The
    /// caller must fall back to a synchronous path (wait for global
    /// order, read below VTNC, or quiesce).
    Rejected,
}

impl Admission {
    /// True for [`Admission::Admitted`].
    pub fn is_admitted(self) -> bool {
        self == Admission::Admitted
    }
}

/// The inconsistency counter attached to one query ET.
///
/// ```
/// use esr_core::divergence::{Admission, EpsilonSpec, InconsistencyCounter};
///
/// let mut counter = InconsistencyCounter::new(EpsilonSpec::bounded(2));
/// assert!(counter.charge(2).is_admitted());
/// assert_eq!(counter.charge(1), Admission::Rejected); // budget spent
/// assert_eq!(counter.imported(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InconsistencyCounter {
    spec: EpsilonSpec,
    imported: u64,
}

impl InconsistencyCounter {
    /// A fresh counter with the given budget.
    pub fn new(spec: EpsilonSpec) -> Self {
        Self { spec, imported: 0 }
    }

    /// The budget.
    pub fn spec(&self) -> EpsilonSpec {
        self.spec
    }

    /// How much inconsistency has been imported so far.
    pub fn imported(&self) -> u64 {
        self.imported
    }

    /// How much budget remains.
    pub fn remaining(&self) -> u64 {
        self.spec.limit.saturating_sub(self.imported)
    }

    /// Would a charge of `amount` fit?
    pub fn can_import(&self, amount: u64) -> bool {
        amount <= self.remaining()
    }

    /// Attempts to import `amount` units of inconsistency. On rejection
    /// the counter is unchanged.
    pub fn charge(&mut self, amount: u64) -> Admission {
        if self.can_import(amount) {
            self.imported += amount;
            Admission::Admitted
        } else {
            Admission::Rejected
        }
    }
}

/// Per-object lock-counters (§3.2).
///
/// `begin_update` raises the counter of every object in the update's
/// write set; `end_update` lowers them. A query consults
/// [`LockCounters::inconsistency_of`] before reading: the current counter
/// value is the number of in-flight updates whose intermediate state the
/// read might expose.
///
/// Saga support (§4.2): keep every step's `begin_update` registration in
/// place until the whole saga ends — queries then carry a conservative
/// upper bound of the total potential (compensatable) inconsistency. The
/// `SagaCoordinator` in `esr-replica` drives exactly this discipline.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LockCounters {
    counters: BTreeMap<ObjectId, u64>,
    /// Objects currently held per in-flight update, so `end_update` can
    /// release exactly what was taken.
    held: BTreeMap<EtId, Vec<ObjectId>>,
    /// The highest value any counter has reached in this table's
    /// lifetime.
    high_water: u64,
}

impl LockCounters {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds a table from a [`LockCounters::held_sets`] dump (the
    /// checkpoint-restore constructor): the held table is the dump, the
    /// counters are the sums over it, and the high-water mark restarts
    /// at the highest of them.
    pub fn from_held_sets(held: impl IntoIterator<Item = (EtId, Vec<ObjectId>)>) -> Self {
        let held: BTreeMap<EtId, Vec<ObjectId>> = held.into_iter().collect();
        let mut counters = BTreeMap::new();
        for o in held.values().flatten() {
            *counters.entry(*o).or_insert(0) += 1;
        }
        Self {
            high_water: counters.values().copied().max().unwrap_or(0),
            counters,
            held,
        }
    }

    /// Raises the counter of every object in `write_set` once on behalf
    /// of update ET `et` — an object the set names twice is one write
    /// — (a second call for the same ET extends its held set — a saga
    /// step adding objects), keeping the running high-water mark
    /// ([`LockCounters::high_water`]) — free here because every raised
    /// counter passes through this loop anyway. The set is sorted and
    /// deduplicated in place at the end of the held list it joins, so
    /// no temporary set is built.
    pub fn begin_update(&mut self, et: EtId, write_set: impl IntoIterator<Item = ObjectId>) {
        let held = self.held.entry(et).or_default();
        let from = held.len();
        held.extend(write_set);
        held[from..].sort_unstable();
        let mut kept = from;
        for i in from..held.len() {
            if kept == from || held[i] != held[kept - 1] {
                held[kept] = held[i];
                kept += 1;
            }
        }
        held.truncate(kept);
        for &o in &held[from..] {
            let c = self.counters.entry(o).or_insert(0);
            *c += 1;
            self.high_water = self.high_water.max(*c);
        }
    }

    /// The highest value any object's counter has reached so far (the
    /// paper's Table 2 bound on what one read can import).
    pub fn high_water(&self) -> u64 {
        self.high_water
    }

    /// Lowers the counters raised by `et`. Idempotent: a second call for
    /// the same ET is a no-op.
    pub fn end_update(&mut self, et: EtId) {
        let Some(objs) = self.held.remove(&et) else {
            return;
        };
        for o in objs {
            if let Some(c) = self.counters.get_mut(&o) {
                *c = c.saturating_sub(1);
                if *c == 0 {
                    self.counters.remove(&o);
                }
            }
        }
    }

    /// The current counter of one object — the inconsistency a read of it
    /// would import right now.
    pub fn inconsistency_of(&self, object: ObjectId) -> u64 {
        self.counters.get(&object).copied().unwrap_or(0)
    }

    /// Sum of counters over a read set — the inconsistency a whole query
    /// would import.
    pub fn inconsistency_of_set(&self, read_set: impl IntoIterator<Item = ObjectId>) -> u64 {
        read_set
            .into_iter()
            .map(|o| self.inconsistency_of(o))
            .sum()
    }

    /// Number of updates currently holding counters.
    pub fn in_flight(&self) -> usize {
        self.held.len()
    }

    /// The held write-sets, per in-flight update, in deterministic ET
    /// order — the checkpoint image. [`LockCounters::from_held_sets`]
    /// rebuilds both the held table and the counters from it (counters
    /// are pure sums over the held sets).
    pub fn held_sets(&self) -> Vec<(EtId, Vec<ObjectId>)> {
        self.held
            .iter()
            .map(|(et, objs)| (*et, objs.clone()))
            .collect()
    }

    /// True when no update is in flight (all counters zero).
    pub fn quiescent(&self) -> bool {
        self.counters.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_constructors() {
        assert!(EpsilonSpec::STRICT.is_strict());
        assert!(!EpsilonSpec::UNBOUNDED.is_strict());
        assert_eq!(EpsilonSpec::bounded(5).limit, 5);
        assert_eq!(EpsilonSpec::default(), EpsilonSpec::UNBOUNDED);
    }

    #[test]
    fn counter_charges_until_limit() {
        let mut c = InconsistencyCounter::new(EpsilonSpec::bounded(3));
        assert_eq!(c.remaining(), 3);
        assert!(c.charge(1).is_admitted());
        assert!(c.charge(2).is_admitted());
        assert_eq!(c.imported(), 3);
        assert_eq!(c.remaining(), 0);
        assert_eq!(c.charge(1), Admission::Rejected);
        assert_eq!(c.imported(), 3, "rejected charge not recorded");
    }

    #[test]
    fn strict_counter_rejects_everything() {
        let mut c = InconsistencyCounter::new(EpsilonSpec::STRICT);
        assert_eq!(c.charge(1), Admission::Rejected);
        assert!(c.charge(0).is_admitted(), "zero charge always fits");
    }

    #[test]
    fn unbounded_counter_never_rejects() {
        let mut c = InconsistencyCounter::new(EpsilonSpec::UNBOUNDED);
        assert!(c.charge(u64::MAX / 2).is_admitted());
        assert!(c.charge(u64::MAX / 2).is_admitted());
        assert!(c.can_import(1));
    }

    #[test]
    fn lock_counters_raise_and_lower() {
        let mut lc = LockCounters::new();
        assert!(lc.quiescent());
        lc.begin_update(EtId(1), [ObjectId(0), ObjectId(1)]);
        lc.begin_update(EtId(2), [ObjectId(0)]);
        assert_eq!(lc.inconsistency_of(ObjectId(0)), 2);
        assert_eq!(lc.inconsistency_of(ObjectId(1)), 1);
        assert_eq!(lc.inconsistency_of(ObjectId(9)), 0);
        assert_eq!(lc.in_flight(), 2);
        assert!(!lc.quiescent());

        lc.end_update(EtId(1));
        assert_eq!(lc.inconsistency_of(ObjectId(0)), 1);
        assert_eq!(lc.inconsistency_of(ObjectId(1)), 0);
        lc.end_update(EtId(2));
        assert!(lc.quiescent());
    }

    #[test]
    fn end_update_is_idempotent() {
        let mut lc = LockCounters::new();
        lc.begin_update(EtId(1), [ObjectId(0)]);
        lc.end_update(EtId(1));
        lc.end_update(EtId(1));
        assert_eq!(lc.inconsistency_of(ObjectId(0)), 0);
        assert!(lc.quiescent());
    }

    #[test]
    fn set_inconsistency_sums() {
        let mut lc = LockCounters::new();
        lc.begin_update(EtId(1), [ObjectId(0), ObjectId(1)]);
        lc.begin_update(EtId(2), [ObjectId(1)]);
        let total = lc.inconsistency_of_set([ObjectId(0), ObjectId(1), ObjectId(2)]);
        assert_eq!(total, 3);
    }

    #[test]
    fn same_et_can_accumulate_objects() {
        // A saga step adds more objects under the same ET id.
        let mut lc = LockCounters::new();
        lc.begin_update(EtId(1), [ObjectId(0)]);
        lc.begin_update(EtId(1), [ObjectId(1)]);
        assert_eq!(lc.inconsistency_of(ObjectId(0)), 1);
        assert_eq!(lc.inconsistency_of(ObjectId(1)), 1);
        lc.end_update(EtId(1));
        assert!(lc.quiescent());
    }

    #[test]
    fn begin_update_keeps_high_water_and_extends_a_held_set() {
        let mut lc = LockCounters::new();
        lc.begin_update(EtId(3), []);
        assert_eq!(lc.high_water(), 0, "empty write set raises nothing");
        lc.begin_update(EtId(1), [ObjectId(0), ObjectId(1)]);
        assert_eq!(lc.high_water(), 1);
        lc.begin_update(EtId(2), [ObjectId(1), ObjectId(2)]);
        assert_eq!(lc.high_water(), 2, "shared object");
        // A second registration for ET 1 extends what it holds.
        lc.begin_update(EtId(1), [ObjectId(2)]);
        assert_eq!(lc.high_water(), 2);
        assert_eq!(
            lc.held_sets()[0],
            (EtId(1), vec![ObjectId(0), ObjectId(1), ObjectId(2)])
        );
        assert_eq!(lc.in_flight(), 3);
        // The dump rebuilds the same table: held sets and counters.
        assert_eq!(LockCounters::from_held_sets(lc.held_sets()), lc);
        lc.end_update(EtId(1));
        assert_eq!(lc.inconsistency_of(ObjectId(2)), 1, "ET 2 still holds it");
        lc.end_update(EtId(2));
        lc.end_update(EtId(3));
        assert!(lc.quiescent());
        assert_eq!(lc.high_water(), 2, "the mark outlives the updates");
    }
}

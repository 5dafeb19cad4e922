//! The single-version object store used by each site.
//!
//! Two flavors live here:
//!
//! * [`ObjectStore`] — a plain value-per-object store; operations are
//!   applied as state transformers in the order given.
//! * [`LwwStore`] — the same, plus per-object version metadata for RITU's
//!   overwrite mode (§3.3): a timestamped write is applied only when its
//!   version is newer than the stored one ("an RITU update trying to
//!   overwrite a newer version is ignored"), so replicas converge under
//!   any delivery order.

use std::collections::hash_map::Entry;
use std::collections::BTreeMap;

use esr_core::fastid::FastIdMap;
use esr_core::ids::{ObjectId, VersionTs};
use esr_core::op::{ObjectOp, Operation};
use esr_core::value::Value;
use esr_core::CoreResult;

/// Deterministically ordered copy of an object-keyed hash map — where
/// a store's hash order ends: everything user-visible or compared
/// across replicas (snapshots, dumps) goes through here, never the
/// apply path.
pub(crate) fn to_btree<V, U>(
    map: &FastIdMap<ObjectId, V>,
    mut f: impl FnMut(&V) -> U,
) -> BTreeMap<ObjectId, U> {
    map.iter().map(|(k, v)| (*k, f(v))).collect()
}

/// A plain object store: one current value per object. Missing objects
/// read as [`Value::ZERO`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObjectStore {
    values: FastIdMap<ObjectId, Value>,
}

impl ObjectStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// A store preloaded with initial values.
    pub fn with_values(values: impl IntoIterator<Item = (ObjectId, Value)>) -> Self {
        Self {
            values: values.into_iter().collect(),
        }
    }

    /// Reads the current value of `object` (zero if never written).
    pub fn get(&self, object: ObjectId) -> Value {
        self.values.get(&object).cloned().unwrap_or_default()
    }

    /// Applies one bound operation. Reads leave the store unchanged and
    /// return the value observed; writes install the transformed value
    /// and return it.
    pub fn apply(&mut self, op: &ObjectOp) -> CoreResult<Value> {
        let current = self.get(op.object);
        let next = op.apply(&current)?;
        if op.op.is_write() {
            self.values.insert(op.object, next.clone());
        }
        Ok(next)
    }

    /// Overwrites an object directly (used by recovery to restore
    /// before-images).
    pub fn put(&mut self, object: ObjectId, value: Value) {
        self.values.insert(object, value);
    }

    /// A snapshot of all explicitly written objects, in deterministic
    /// object order.
    pub fn snapshot(&self) -> BTreeMap<ObjectId, Value> {
        to_btree(&self.values, Value::clone)
    }

    /// Number of objects holding an explicit value.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// A last-writer-wins store for RITU overwrite mode: each object carries
/// the version of the write that produced its current value.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LwwStore {
    values: FastIdMap<ObjectId, (VersionTs, Value)>,
}

/// What [`LwwStore::apply_timestamped`] did with a write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LwwOutcome {
    /// The write carried a newer version and was installed.
    Applied,
    /// The write carried an older (or equal) version and was ignored.
    Ignored,
}

impl LwwStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads the current value (zero if never written).
    pub fn get(&self, object: ObjectId) -> Value {
        self.values
            .get(&object)
            .map(|(_, v)| v.clone())
            .unwrap_or_default()
    }

    /// The version of the current value ([`VersionTs::MIN`] if never
    /// written).
    pub fn version(&self, object: ObjectId) -> VersionTs {
        self.values
            .get(&object)
            .map(|(ts, _)| *ts)
            .unwrap_or(VersionTs::MIN)
    }

    /// Applies a timestamped write with last-writer-wins arbitration.
    pub fn apply_timestamped(
        &mut self,
        object: ObjectId,
        ts: VersionTs,
        value: Value,
    ) -> LwwOutcome {
        match self.values.entry(object) {
            Entry::Occupied(mut slot) => {
                if ts > slot.get().0 {
                    slot.insert((ts, value));
                    LwwOutcome::Applied
                } else {
                    LwwOutcome::Ignored
                }
            }
            Entry::Vacant(slot) => {
                slot.insert((ts, value));
                LwwOutcome::Applied
            }
        }
    }

    /// Applies any operation: timestamped writes go through LWW
    /// arbitration; everything else transforms the current value and
    /// keeps the stored version.
    pub fn apply(&mut self, op: &ObjectOp) -> CoreResult<Value> {
        match &op.op {
            Operation::TimestampedWrite(ts, v) => {
                self.apply_timestamped(op.object, *ts, v.clone());
                Ok(self.get(op.object))
            }
            Operation::Read => Ok(self.get(op.object)),
            other => {
                let current = self.get(op.object);
                let next = other.apply(op.object, &current)?;
                let ts = self.version(op.object);
                self.values.insert(op.object, (ts, next.clone()));
                Ok(next)
            }
        }
    }

    /// Snapshot of values only (versions stripped), in deterministic
    /// object order, for convergence comparison between replicas.
    pub fn snapshot(&self) -> BTreeMap<ObjectId, Value> {
        to_btree(&self.values, |(_, v)| v.clone())
    }

    /// Full versioned dump in deterministic object order — the
    /// checkpoint image. Rebuilding a store by replaying the dump
    /// through [`LwwStore::apply_timestamped`] restores both values and
    /// arbitration state.
    pub fn versioned_dump(&self) -> Vec<(ObjectId, VersionTs, Value)> {
        to_btree(&self.values, Clone::clone)
            .into_iter()
            .map(|(object, (ts, value))| (object, ts, value))
            .collect()
    }

    /// Number of objects with an explicit value.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esr_core::ids::ClientId;

    const X: ObjectId = ObjectId(0);
    const Y: ObjectId = ObjectId(1);

    fn vts(t: u64) -> VersionTs {
        VersionTs::new(t, ClientId(0))
    }

    #[test]
    fn missing_objects_read_zero() {
        let s = ObjectStore::new();
        assert_eq!(s.get(X), Value::ZERO);
        assert!(s.is_empty());
    }

    #[test]
    fn apply_write_installs_value() {
        let mut s = ObjectStore::new();
        let v = s
            .apply(&ObjectOp::new(X, Operation::Write(Value::Int(5))))
            .unwrap();
        assert_eq!(v, Value::Int(5));
        assert_eq!(s.get(X), Value::Int(5));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn apply_read_does_not_mutate() {
        let mut s = ObjectStore::with_values([(X, Value::Int(9))]);
        let v = s.apply(&ObjectOp::new(X, Operation::Read)).unwrap();
        assert_eq!(v, Value::Int(9));
        assert_eq!(s.len(), 1);
        // Reading an absent object also leaves it absent.
        s.apply(&ObjectOp::new(Y, Operation::Read)).unwrap();
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn apply_incr_chain() {
        let mut s = ObjectStore::new();
        s.apply(&ObjectOp::new(X, Operation::Incr(10))).unwrap();
        s.apply(&ObjectOp::new(X, Operation::MulBy(3))).unwrap();
        assert_eq!(s.get(X), Value::Int(30));
    }

    #[test]
    fn apply_propagates_errors() {
        let mut s = ObjectStore::with_values([(X, Value::from("text"))]);
        assert!(s.apply(&ObjectOp::new(X, Operation::Incr(1))).is_err());
        // Failed op leaves the store unchanged.
        assert_eq!(s.get(X), Value::from("text"));
    }

    #[test]
    fn snapshot_reflects_state() {
        let mut s = ObjectStore::new();
        s.put(X, Value::Int(1));
        s.put(Y, Value::Int(2));
        let snap = s.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[&Y], Value::Int(2));
    }

    #[test]
    fn lww_applies_newer_ignores_older() {
        let mut s = LwwStore::new();
        assert_eq!(
            s.apply_timestamped(X, vts(10), Value::Int(1)),
            LwwOutcome::Applied
        );
        assert_eq!(
            s.apply_timestamped(X, vts(5), Value::Int(2)),
            LwwOutcome::Ignored
        );
        assert_eq!(s.get(X), Value::Int(1));
        assert_eq!(
            s.apply_timestamped(X, vts(20), Value::Int(3)),
            LwwOutcome::Applied
        );
        assert_eq!(s.get(X), Value::Int(3));
        assert_eq!(s.version(X), vts(20));
    }

    #[test]
    fn lww_equal_version_is_ignored() {
        let mut s = LwwStore::new();
        s.apply_timestamped(X, vts(10), Value::Int(1));
        assert_eq!(
            s.apply_timestamped(X, vts(10), Value::Int(99)),
            LwwOutcome::Ignored,
            "duplicate delivery must be idempotent"
        );
        assert_eq!(s.get(X), Value::Int(1));
    }

    #[test]
    fn lww_convergence_under_any_order() {
        // The RITU property: same set of writes, any order, same state.
        let writes = [
            (vts(3), Value::Int(30)),
            (vts(1), Value::Int(10)),
            (vts(2), Value::Int(20)),
        ];
        let mut forward = LwwStore::new();
        for (ts, v) in writes.iter() {
            forward.apply_timestamped(X, *ts, v.clone());
        }
        let mut reverse = LwwStore::new();
        for (ts, v) in writes.iter().rev() {
            reverse.apply_timestamped(X, *ts, v.clone());
        }
        assert_eq!(forward.snapshot(), reverse.snapshot());
        assert_eq!(forward.get(X), Value::Int(30));
    }

    #[test]
    fn lww_apply_dispatches_by_operation() {
        let mut s = LwwStore::new();
        s.apply(&ObjectOp::new(
            X,
            Operation::TimestampedWrite(vts(1), Value::Int(5)),
        ))
        .unwrap();
        assert_eq!(s.get(X), Value::Int(5));
        // Non-timestamped ops transform in place.
        s.apply(&ObjectOp::new(X, Operation::Incr(3))).unwrap();
        assert_eq!(s.get(X), Value::Int(8));
        // Read returns current value.
        let v = s.apply(&ObjectOp::new(X, Operation::Read)).unwrap();
        assert_eq!(v, Value::Int(8));
        assert!(!s.is_empty());
    }
}

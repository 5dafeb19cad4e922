//! The operation algebra.
//!
//! Epsilon-transactions are sequences of operations on objects. The paper
//! deliberately goes beyond plain Read/Write: COMMU exploits *commutative*
//! operations (`Inc`, `Dec`, set insert/remove), RITU exploits
//! *read-independent* (blind) timestamped writes, and COMPE exploits
//! operations with defined *compensations* (`Inc`/`Dec`, `Mul`/`Div` — the
//! paper's §4.1 example).
//!
//! This module defines the [`Operation`] type together with the three
//! semantic predicates the replica control methods rely on:
//!
//! * [`Operation::commutes_with`] — the commutativity relation (COMMU),
//! * [`Operation::is_read_independent`] — blind writes (RITU),
//! * [`Operation::compensation`] — exact inverses (COMPE).

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::error::{CoreError, CoreResult};
use crate::ids::{ObjectId, VersionTs};
use crate::value::Value;

/// One operation of an epsilon-transaction, applied to a single object.
///
/// ```
/// use esr_core::op::Operation;
///
/// // COMMU's foundation: increments commute, families don't mix.
/// assert!(Operation::Incr(5).commutes_with(&Operation::Decr(3)));
/// assert!(!Operation::Incr(10).commutes_with(&Operation::MulBy(2)));
///
/// // COMPE's foundation: additive operations carry exact inverses.
/// assert_eq!(Operation::Incr(5).compensation(), Some(Operation::Decr(5)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Operation {
    /// Read the current value of the object.
    Read,
    /// Overwrite the object with a new value (a classic write; blind but
    /// not commutative).
    Write(Value),
    /// Add `n` to an integer object. Commutes with `Incr`/`Decr`.
    Incr(i64),
    /// Subtract `n` from an integer object. Commutes with `Incr`/`Decr`.
    Decr(i64),
    /// Multiply an integer object by `k`. Commutes with `MulBy`/`DivBy`.
    MulBy(i64),
    /// Integer-divide an integer object by `k` (truncating). Commutes with
    /// `MulBy`/`DivBy` only in the exact (non-truncating) cases; we treat
    /// it as commutative within the multiplicative family, matching the
    /// paper's `Mul`/`Div` example, and exercise exactness in tests.
    DivBy(i64),
    /// Insert an element into a set object. Commutes with any insert or
    /// remove of a *different* element and with re-insertion of the same
    /// element (idempotent).
    InsertElem(i64),
    /// Remove an element from a set object.
    RemoveElem(i64),
    /// A read-independent timestamped write (RITU): overwrite the object
    /// iff `ts` is newer than the version currently stored. Commutes with
    /// other timestamped writes because last-writer-wins makes the
    /// application order irrelevant.
    TimestampedWrite(VersionTs, Value),
}

impl Operation {
    /// Does this operation modify the object?
    pub fn is_write(&self) -> bool {
        !matches!(self, Operation::Read)
    }

    /// Is this operation *read-independent* ("blind" — §3.3): its effect
    /// does not depend on the value it overwrites?
    pub fn is_read_independent(&self) -> bool {
        matches!(
            self,
            Operation::Write(_) | Operation::TimestampedWrite(_, _)
        )
    }

    /// The commutativity relation between two operations *on the same
    /// object*. Operations on different objects always commute; callers
    /// must only consult this for same-object pairs.
    ///
    /// Reads commute with reads. Additive operations (`Incr`, `Decr`)
    /// commute among themselves, multiplicative (`MulBy`, `DivBy`) among
    /// themselves; the two families do not mix (the paper's
    /// `Inc·Mul ≠ Mul·Inc` example). Set operations commute unless they
    /// touch the same element with opposite effect. Timestamped writes
    /// commute with each other (LWW) but not with anything that reads.
    pub fn commutes_with(&self, other: &Operation) -> bool {
        use Operation::*;
        match (self, other) {
            (Read, Read) => true,
            // A read never commutes with any write on the same object.
            (Read, w) | (w, Read) => !w.is_write(),
            // Additive family.
            (Incr(_) | Decr(_), Incr(_) | Decr(_)) => true,
            // Multiplicative family.
            (MulBy(_) | DivBy(_), MulBy(_) | DivBy(_)) => true,
            // Set operations.
            // Inserts commute with inserts (idempotent on the same element,
            // independent on different elements); likewise removes.
            (InsertElem(_), InsertElem(_)) | (RemoveElem(_), RemoveElem(_)) => true,
            (InsertElem(a), RemoveElem(b)) | (RemoveElem(a), InsertElem(b)) => a != b,
            // Timestamped (LWW) writes commute with each other.
            (TimestampedWrite(_, _), TimestampedWrite(_, _)) => true,
            // Everything else conflicts.
            _ => false,
        }
    }

    /// The exact inverse of this operation, if one exists independent of
    /// the state it was applied to (§4.1).
    ///
    /// * `Incr(n)` ↔ `Decr(n)`, `MulBy(k)` → `DivBy(k)` (exact because the
    ///   multiplication preceded it).
    /// * `DivBy` has **no** exact compensation: integer division loses
    ///   information, so COMPE must fall back to before-images.
    /// * `Write`, `TimestampedWrite`, and set operations are compensated
    ///   via before-images recorded in the recovery log, not here.
    pub fn compensation(&self) -> Option<Operation> {
        match self {
            Operation::Incr(n) => Some(Operation::Decr(*n)),
            Operation::Decr(n) => Some(Operation::Incr(*n)),
            Operation::MulBy(k) => Some(Operation::DivBy(*k)),
            _ => None,
        }
    }

    /// Applies the operation to a value, producing the new value.
    ///
    /// `Read` leaves the value unchanged. `object` is used only for error
    /// reporting. Arithmetic is checked: overflow and division by zero are
    /// reported as errors rather than wrapping, because a replica that
    /// silently wraps can never re-converge with one that didn't.
    pub fn apply(&self, object: ObjectId, value: &Value) -> CoreResult<Value> {
        let type_err = |expected: &'static str| CoreError::TypeMismatch {
            object,
            expected,
            found: value.type_name(),
        };
        match self {
            Operation::Read => Ok(value.clone()),
            Operation::Write(v) => Ok(v.clone()),
            // Plain `apply` ignores the timestamp: version arbitration is
            // the storage layer's job (it knows the stored version).
            Operation::TimestampedWrite(_, v) => Ok(v.clone()),
            Operation::Incr(n) => match value {
                Value::Int(i) => i
                    .checked_add(*n)
                    .map(Value::Int)
                    .ok_or_else(|| CoreError::ArithmeticOverflow {
                        object,
                        op: self.to_string(),
                    }),
                _ => Err(type_err("int")),
            },
            Operation::Decr(n) => match value {
                Value::Int(i) => i
                    .checked_sub(*n)
                    .map(Value::Int)
                    .ok_or_else(|| CoreError::ArithmeticOverflow {
                        object,
                        op: self.to_string(),
                    }),
                _ => Err(type_err("int")),
            },
            Operation::MulBy(k) => match value {
                Value::Int(i) => i
                    .checked_mul(*k)
                    .map(Value::Int)
                    .ok_or_else(|| CoreError::ArithmeticOverflow {
                        object,
                        op: self.to_string(),
                    }),
                _ => Err(type_err("int")),
            },
            Operation::DivBy(k) => match value {
                Value::Int(i) => {
                    if *k == 0 {
                        Err(CoreError::DivisionByZero { object })
                    } else {
                        i.checked_div(*k)
                            .map(Value::Int)
                            .ok_or_else(|| CoreError::ArithmeticOverflow {
                                object,
                                op: self.to_string(),
                            })
                    }
                }
                _ => Err(type_err("int")),
            },
            Operation::InsertElem(e) => match value {
                Value::Set(s) => {
                    let mut s = s.clone();
                    s.insert(*e);
                    Ok(Value::Set(s))
                }
                _ => Err(type_err("set")),
            },
            Operation::RemoveElem(e) => match value {
                Value::Set(s) => {
                    let mut s = s.clone();
                    s.remove(e);
                    Ok(Value::Set(s))
                }
                _ => Err(type_err("set")),
            },
        }
    }
}

impl fmt::Display for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operation::Read => write!(f, "R"),
            Operation::Write(v) => write!(f, "W({v})"),
            Operation::Incr(n) => write!(f, "Inc({n})"),
            Operation::Decr(n) => write!(f, "Dec({n})"),
            Operation::MulBy(k) => write!(f, "Mul({k})"),
            Operation::DivBy(k) => write!(f, "Div({k})"),
            Operation::InsertElem(e) => write!(f, "Ins({e})"),
            Operation::RemoveElem(e) => write!(f, "Rem({e})"),
            Operation::TimestampedWrite(ts, v) => write!(f, "TW({ts},{v})"),
        }
    }
}

/// An operation bound to the object it targets — the unit stored in ET
/// programs, histories, and MSets.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ObjectOp {
    /// Target object.
    pub object: ObjectId,
    /// The operation to perform on it.
    pub op: Operation,
}

impl ObjectOp {
    /// Binds an operation to an object.
    pub fn new(object: ObjectId, op: Operation) -> Self {
        Self { object, op }
    }

    /// Two bound operations *conflict* when they touch the same object
    /// and do not commute. This is the dependency relation used by the
    /// serializability checkers.
    pub fn conflicts_with(&self, other: &ObjectOp) -> bool {
        self.object == other.object && !self.op.commutes_with(&other.op)
    }

    /// Applies this operation to the given value of its object.
    pub fn apply(&self, value: &Value) -> CoreResult<Value> {
        self.op.apply(self.object, value)
    }
}

impl fmt::Display for ObjectOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.op, self.object)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ClientId;

    const X: ObjectId = ObjectId(0);

    #[test]
    fn read_is_not_a_write() {
        assert!(!Operation::Read.is_write());
        assert!(Operation::Write(Value::ZERO).is_write());
        assert!(Operation::Incr(1).is_write());
    }

    #[test]
    fn blind_writes_are_read_independent() {
        assert!(Operation::Write(Value::ZERO).is_read_independent());
        assert!(
            Operation::TimestampedWrite(VersionTs::new(1, ClientId::new(0)), Value::ZERO)
                .is_read_independent()
        );
        assert!(!Operation::Incr(1).is_read_independent());
        assert!(!Operation::Read.is_read_independent());
    }

    #[test]
    fn additive_family_commutes() {
        assert!(Operation::Incr(3).commutes_with(&Operation::Incr(5)));
        assert!(Operation::Incr(3).commutes_with(&Operation::Decr(5)));
        assert!(Operation::Decr(3).commutes_with(&Operation::Decr(5)));
    }

    #[test]
    fn multiplicative_family_commutes() {
        assert!(Operation::MulBy(2).commutes_with(&Operation::MulBy(3)));
        assert!(Operation::MulBy(2).commutes_with(&Operation::DivBy(3)));
    }

    #[test]
    fn families_do_not_mix() {
        // The paper's §4.1 example: Inc(10)·Mul(2) ≠ Mul(2)·Inc(10).
        assert!(!Operation::Incr(10).commutes_with(&Operation::MulBy(2)));
        assert!(!Operation::DivBy(2).commutes_with(&Operation::Decr(1)));
    }

    #[test]
    fn reads_conflict_with_writes() {
        assert!(Operation::Read.commutes_with(&Operation::Read));
        assert!(!Operation::Read.commutes_with(&Operation::Incr(1)));
        assert!(!Operation::Write(Value::ZERO).commutes_with(&Operation::Read));
        assert!(!Operation::Read.commutes_with(&Operation::TimestampedWrite(
            VersionTs::new(1, ClientId::new(0)),
            Value::ZERO
        )));
    }

    #[test]
    fn plain_writes_do_not_commute() {
        assert!(!Operation::Write(Value::Int(1)).commutes_with(&Operation::Write(Value::Int(2))));
        assert!(!Operation::Write(Value::Int(1)).commutes_with(&Operation::Incr(1)));
    }

    #[test]
    fn timestamped_writes_commute_with_each_other() {
        let a = Operation::TimestampedWrite(VersionTs::new(1, ClientId::new(0)), Value::Int(1));
        let b = Operation::TimestampedWrite(VersionTs::new(2, ClientId::new(0)), Value::Int(2));
        assert!(a.commutes_with(&b));
        assert!(!a.commutes_with(&Operation::Write(Value::Int(3))));
    }

    #[test]
    fn set_ops_commute_unless_opposed_on_same_element() {
        assert!(Operation::InsertElem(1).commutes_with(&Operation::InsertElem(2)));
        assert!(Operation::InsertElem(1).commutes_with(&Operation::InsertElem(1)));
        assert!(Operation::RemoveElem(1).commutes_with(&Operation::RemoveElem(1)));
        assert!(Operation::InsertElem(1).commutes_with(&Operation::RemoveElem(2)));
        assert!(!Operation::InsertElem(1).commutes_with(&Operation::RemoveElem(1)));
    }

    #[test]
    fn commutativity_is_symmetric_on_samples() {
        let ops = [
            Operation::Read,
            Operation::Write(Value::Int(1)),
            Operation::Incr(2),
            Operation::Decr(3),
            Operation::MulBy(2),
            Operation::DivBy(2),
            Operation::InsertElem(1),
            Operation::RemoveElem(1),
            Operation::TimestampedWrite(VersionTs::new(1, ClientId::new(0)), Value::Int(9)),
        ];
        for a in &ops {
            for b in &ops {
                assert_eq!(
                    a.commutes_with(b),
                    b.commutes_with(a),
                    "asymmetry between {a} and {b}"
                );
            }
        }
    }

    #[test]
    fn compensation_inverts_additive_ops() {
        assert_eq!(Operation::Incr(5).compensation(), Some(Operation::Decr(5)));
        assert_eq!(Operation::Decr(5).compensation(), Some(Operation::Incr(5)));
        assert_eq!(Operation::MulBy(4).compensation(), Some(Operation::DivBy(4)));
        assert_eq!(Operation::DivBy(4).compensation(), None);
        assert_eq!(Operation::Write(Value::ZERO).compensation(), None);
    }

    #[test]
    fn compensation_round_trips_on_value() {
        let v = Value::Int(7);
        for op in [Operation::Incr(10), Operation::Decr(3), Operation::MulBy(6)] {
            let applied = op.apply(X, &v).unwrap();
            let comp = op.compensation().unwrap();
            assert_eq!(comp.apply(X, &applied).unwrap(), v, "op {op}");
        }
    }

    #[test]
    fn apply_arithmetic() {
        assert_eq!(
            Operation::Incr(5).apply(X, &Value::Int(1)).unwrap(),
            Value::Int(6)
        );
        assert_eq!(
            Operation::Decr(5).apply(X, &Value::Int(1)).unwrap(),
            Value::Int(-4)
        );
        assert_eq!(
            Operation::MulBy(3).apply(X, &Value::Int(4)).unwrap(),
            Value::Int(12)
        );
        assert_eq!(
            Operation::DivBy(3).apply(X, &Value::Int(12)).unwrap(),
            Value::Int(4)
        );
    }

    #[test]
    fn apply_checks_overflow_and_div_zero() {
        assert!(matches!(
            Operation::Incr(1).apply(X, &Value::Int(i64::MAX)),
            Err(CoreError::ArithmeticOverflow { .. })
        ));
        assert!(matches!(
            Operation::MulBy(2).apply(X, &Value::Int(i64::MAX / 2 + 1)),
            Err(CoreError::ArithmeticOverflow { .. })
        ));
        assert!(matches!(
            Operation::DivBy(0).apply(X, &Value::Int(1)),
            Err(CoreError::DivisionByZero { .. })
        ));
        // i64::MIN / -1 overflows.
        assert!(matches!(
            Operation::DivBy(-1).apply(X, &Value::Int(i64::MIN)),
            Err(CoreError::ArithmeticOverflow { .. })
        ));
    }

    #[test]
    fn apply_checks_types() {
        assert!(matches!(
            Operation::Incr(1).apply(X, &Value::from("s")),
            Err(CoreError::TypeMismatch { .. })
        ));
        assert!(matches!(
            Operation::InsertElem(1).apply(X, &Value::Int(0)),
            Err(CoreError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn apply_set_ops() {
        let s = Value::Set([1].into_iter().collect());
        let s2 = Operation::InsertElem(2).apply(X, &s).unwrap();
        assert_eq!(s2.as_set().unwrap().len(), 2);
        let s3 = Operation::RemoveElem(1).apply(X, &s2).unwrap();
        assert_eq!(s3, Value::Set([2].into_iter().collect()));
        // Removing an absent element is a no-op.
        let s4 = Operation::RemoveElem(99).apply(X, &s3).unwrap();
        assert_eq!(s4, s3);
    }

    #[test]
    fn read_apply_is_identity() {
        let v = Value::Int(42);
        assert_eq!(Operation::Read.apply(X, &v).unwrap(), v);
    }

    #[test]
    fn object_op_conflicts() {
        let y = ObjectId(1);
        let a = ObjectOp::new(X, Operation::Incr(1));
        let b = ObjectOp::new(X, Operation::MulBy(2));
        let c = ObjectOp::new(y, Operation::MulBy(2));
        assert!(a.conflicts_with(&b));
        assert!(!a.conflicts_with(&c), "different objects never conflict");
        let d = ObjectOp::new(X, Operation::Incr(5));
        assert!(!a.conflicts_with(&d), "commuting ops don't conflict");
    }

    #[test]
    fn display_format() {
        assert_eq!(
            ObjectOp::new(X, Operation::Incr(10)).to_string(),
            "Inc(10)[x0]"
        );
        assert_eq!(Operation::Read.to_string(), "R");
    }

    #[test]
    fn commutative_application_order_is_irrelevant() {
        // The defining COMMU property, checked concretely.
        let v = Value::Int(100);
        let a = Operation::Incr(7);
        let b = Operation::Decr(3);
        let ab = b.apply(X, &a.apply(X, &v).unwrap()).unwrap();
        let ba = a.apply(X, &b.apply(X, &v).unwrap()).unwrap();
        assert_eq!(ab, ba);

        let m = Operation::MulBy(2);
        let n = Operation::MulBy(5);
        let mn = n.apply(X, &m.apply(X, &v).unwrap()).unwrap();
        let nm = m.apply(X, &n.apply(X, &v).unwrap()).unwrap();
        assert_eq!(mn, nm);
    }

    #[test]
    fn non_commutative_application_order_matters() {
        // Inc(10)·Mul(2) applied to 0: (0+10)*2 = 20 vs 0*2+10 = 10.
        let v = Value::Int(0);
        let inc = Operation::Incr(10);
        let mul = Operation::MulBy(2);
        let im = mul.apply(X, &inc.apply(X, &v).unwrap()).unwrap();
        let mi = inc.apply(X, &mul.apply(X, &v).unwrap()).unwrap();
        assert_ne!(im, mi);
    }
}

//! Message sets (MSets).
//!
//! "At each site, an ET is represented by a *message set* or MSet. …
//! An update MSet is a set of replica maintenance operations which
//! propagates updates to object replicas" (§2.2). One update ET produces
//! one MSet, delivered asynchronously to every replica site; each method
//! attaches its own ordering information.

use std::fmt;

use serde::{Deserialize, Serialize};

use esr_core::ids::{ClientId, EtId, LamportTs, ObjectId, SeqNo, SiteId, VersionTs};
use esr_core::op::{ObjectOp, Operation};

/// Ordering information carried by an MSet, specific to the replica
/// control method in force.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OrderTag {
    /// No ordering constraint (COMMU, RITU — operations carry their own
    /// semantics).
    Unordered,
    /// A dense global sequence number from the ORDUP sequencer.
    Sequenced(SeqNo),
    /// A Lamport timestamp for distributed ORDUP ordering, plus a dense
    /// per-origin FIFO number so receivers can reconstruct each origin's
    /// send order over a reordering network.
    Lamport {
        /// Global (totally ordered) timestamp.
        ts: LamportTs,
        /// Dense per-origin sequence number, starting at 0.
        fifo: SeqNo,
    },
}

impl fmt::Display for OrderTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OrderTag::Unordered => write!(f, "-"),
            OrderTag::Sequenced(s) => write!(f, "{s}"),
            OrderTag::Lamport { ts, fifo } => write!(f, "{ts}/{fifo}"),
        }
    }
}

/// One update ET's replica-maintenance operations, as shipped to a site.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MSet {
    /// The update ET this MSet belongs to.
    pub et: EtId,
    /// The site where the update originated.
    pub origin: SiteId,
    /// The operations to apply.
    pub ops: Vec<ObjectOp>,
    /// Method-specific ordering information.
    pub order: OrderTag,
    /// The submitting client's identity and request sequence number,
    /// when the client wants exactly-once semantics: sites record
    /// `(client, seq) -> et` in their client tables so a retried submit
    /// (after a timeout or a coordinator failover) gets the cached
    /// reply instead of a double apply.
    #[serde(default)]
    pub client: Option<(ClientId, u64)>,
    /// Trace context: the client-submit wall stamp (UNIX micros),
    /// minted where the update was born and carried to every site so
    /// the tracing plane can charge client queueing delay against a
    /// single epoch. Purely observational — no protocol logic reads it.
    #[serde(default)]
    pub t0: Option<u64>,
}

impl MSet {
    /// Builds an unordered MSet.
    pub fn new(et: EtId, origin: SiteId, ops: Vec<ObjectOp>) -> Self {
        Self {
            et,
            origin,
            ops,
            order: OrderTag::Unordered,
            client: None,
            t0: None,
        }
    }

    /// Attaches the trace context: the client's submit wall stamp in
    /// UNIX micros (enables cross-site latency attribution).
    pub fn traced(mut self, t0: u64) -> Self {
        self.t0 = Some(t0);
        self
    }

    /// Attaches the submitting client's identity and request sequence
    /// number (enables exactly-once dedup at every site).
    pub fn from_client(mut self, client: ClientId, seq: u64) -> Self {
        self.client = Some((client, seq));
        self
    }

    /// Attaches a sequence number.
    pub fn sequenced(mut self, seq: SeqNo) -> Self {
        self.order = OrderTag::Sequenced(seq);
        self
    }

    /// Attaches a Lamport timestamp and per-origin FIFO number.
    pub fn lamport(mut self, ts: LamportTs, fifo: SeqNo) -> Self {
        self.order = OrderTag::Lamport { ts, fifo };
        self
    }

    /// The ORDUP global sequence number, if this MSet carries one.
    pub fn gseq(&self) -> Option<SeqNo> {
        match self.order {
            OrderTag::Sequenced(s) => Some(s),
            _ => None,
        }
    }

    /// The max timestamped-write version in this MSet (the VTNC install
    /// evidence an `Applied` report carries).
    pub fn max_version(&self) -> Option<VersionTs> {
        self.ops
            .iter()
            .filter_map(|o| match &o.op {
                Operation::TimestampedWrite(ts, _) => Some(*ts),
                _ => None,
            })
            .max()
    }

    /// Does this MSet write any object in `objects`?
    pub fn touches(&self, objects: &[ObjectId]) -> bool {
        self.ops
            .iter()
            .any(|o| o.op.is_write() && objects.contains(&o.object))
    }

    /// Approximate wire size in bytes, used by bandwidth-limited links
    /// to charge serialization delay: a fixed header plus a per-operation
    /// cost (timestamped writes carry a version and a value).
    pub fn wire_size(&self) -> u64 {
        use esr_core::op::Operation;
        let per_op: u64 = self
            .ops
            .iter()
            .map(|o| match &o.op {
                Operation::Read => 9,
                Operation::Incr(_) | Operation::Decr(_) | Operation::MulBy(_)
                | Operation::DivBy(_) | Operation::InsertElem(_) | Operation::RemoveElem(_) => 17,
                Operation::Write(v) => 9 + value_size(v),
                Operation::TimestampedWrite(_, v) => 25 + value_size(v),
            })
            .sum();
        24 + per_op
    }

    /// Do all writes of this MSet commute with all writes of `other`
    /// (same-object pairs only)?
    pub fn commutes_with(&self, other: &MSet) -> bool {
        self.ops.iter().filter(|a| a.op.is_write()).all(|a| {
            other
                .ops
                .iter()
                .filter(|b| b.op.is_write() && b.object == a.object)
                .all(|b| a.op.commutes_with(&b.op))
        })
    }
}

fn value_size(v: &esr_core::value::Value) -> u64 {
    use esr_core::value::Value;
    match v {
        Value::Int(_) => 8,
        Value::Text(s) => 4 + s.len() as u64,
        Value::Set(s) => 4 + 8 * s.len() as u64,
    }
}

impl fmt::Display for MSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MSet[{} from {} @{}:", self.et, self.origin, self.order)?;
        for op in &self.ops {
            write!(f, " {op}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esr_core::op::Operation;
    use esr_core::value::Value;

    fn mset(ops: Vec<ObjectOp>) -> MSet {
        MSet::new(EtId(1), SiteId(0), ops)
    }

    #[test]
    fn order_tags() {
        let m = mset(vec![]).sequenced(SeqNo(5));
        assert_eq!(m.order, OrderTag::Sequenced(SeqNo(5)));
        let m = mset(vec![]).lamport(LamportTs::new(3, SiteId(1)), SeqNo(0));
        assert!(matches!(m.order, OrderTag::Lamport { .. }));
        assert_eq!(mset(vec![]).order, OrderTag::Unordered);
    }

    #[test]
    fn touches_checks_writes_only() {
        let m = mset(vec![
            ObjectOp::new(ObjectId(0), Operation::Read),
            ObjectOp::new(ObjectId(1), Operation::Incr(1)),
        ]);
        assert!(m.touches(&[ObjectId(1), ObjectId(9)]));
        assert!(!m.touches(&[ObjectId(0)]), "a read is not a touch");
        assert!(!m.touches(&[]));
    }

    #[test]
    fn commutes_with_pairs() {
        let a = mset(vec![ObjectOp::new(ObjectId(0), Operation::Incr(1))]);
        let b = mset(vec![ObjectOp::new(ObjectId(0), Operation::Incr(9))]);
        let c = mset(vec![ObjectOp::new(ObjectId(0), Operation::MulBy(2))]);
        let d = mset(vec![ObjectOp::new(ObjectId(7), Operation::MulBy(2))]);
        assert!(a.commutes_with(&b));
        assert!(!a.commutes_with(&c));
        assert!(a.commutes_with(&d), "different objects commute");
    }

    #[test]
    fn wire_size_scales_with_ops() {
        let small = mset(vec![ObjectOp::new(ObjectId(0), Operation::Incr(1))]);
        let big = mset(vec![
            ObjectOp::new(ObjectId(0), Operation::Incr(1)),
            ObjectOp::new(ObjectId(1), Operation::Write(Value::from("hello world"))),
        ]);
        assert!(big.wire_size() > small.wire_size());
        assert_eq!(small.wire_size(), 24 + 17);
        assert_eq!(mset(vec![]).wire_size(), 24);
    }

    #[test]
    fn display_includes_ops() {
        let m = mset(vec![ObjectOp::new(ObjectId(0), Operation::Incr(5))]).sequenced(SeqNo(2));
        let s = m.to_string();
        assert!(s.contains("Inc(5)[x0]"));
        assert!(s.contains("#2"));
    }
}

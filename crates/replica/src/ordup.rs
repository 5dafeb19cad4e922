//! ORDUP — ordered updates (§3.1).
//!
//! Replicas of the same object are updated *asynchronously but in the
//! same order*, making the update ETs SR; queries are processed in any
//! order because they may see inconsistent results.
//!
//! Two ordering mechanisms, matching the paper:
//!
//! * [`OrdupSite`] — a **centralized sequencer** stamps each update MSet
//!   with a dense global sequence number; each site "simply waits for the
//!   next MSet in the execution sequence to show up before running other
//!   MSets" (a hold-back queue keyed by sequence number).
//! * [`OrdupLamportSite`] — **Lamport-style global timestamps** for true
//!   distributed control; the site reconstructs each origin's FIFO order
//!   and applies MSets in timestamp order once they are *stable* (a
//!   message with a higher timestamp has been seen from every origin, so
//!   no smaller timestamp can still arrive).
//!
//! Divergence bounding: a query is charged one unit per held-back MSet
//! that writes an object in its read set — those are exactly the
//! overlapping update ETs the query would expose. With a sequencer, a
//! strict (epsilon = 0) query takes a *global order token* and is served
//! only when the site has applied every update sequenced before it
//! ("the query ET is allowed to proceed only when it is running in the
//! global order"). [`OrdupSite::gap_to`] counts the sequenced updates
//! the site still lacks; the simulator charges a token-holding query
//! that count, so a strict one is admitted only once the gap is zero.

use std::collections::BTreeMap;

use esr_core::divergence::InconsistencyCounter;
use esr_core::fastid::FastIdSet;
use esr_core::ids::{LamportTs, ObjectId, SeqNo, SiteId};
use esr_core::value::Value;
use esr_storage::store::ObjectStore;

use crate::mset::{MSet, OrderTag};
use crate::site::{Delivered, Delivery, QueryOutcome, Released, ReplicaSite};

/// ORDUP site using sequencer-assigned global order.
#[derive(Debug)]
pub struct OrdupSite {
    store: ObjectStore,
    /// The next sequence number this site will apply.
    next_seq: SeqNo,
    /// Delivered MSets waiting for their predecessors.
    holdback: BTreeMap<SeqNo, MSet>,
    /// ETs whose MSets have been applied.
    applied_ets: FastIdSet<esr_core::ids::EtId>,
}

impl OrdupSite {
    /// A fresh site.
    pub fn new(_site: SiteId) -> Self {
        Self {
            store: ObjectStore::new(),
            next_seq: SeqNo::ZERO,
            holdback: BTreeMap::new(),
            applied_ets: FastIdSet::default(),
        }
    }

    /// Captures the site's full protocol state as a checkpoint image:
    /// store contents, the hold-back queue, the next expected sequence
    /// number, and the duplicate-suppression set.
    pub fn to_ckpt(&self) -> crate::ckpt::OrdupCkpt {
        let mut applied_ets: Vec<esr_core::ids::EtId> =
            self.applied_ets.iter().copied().collect();
        applied_ets.sort_unstable();
        crate::ckpt::OrdupCkpt {
            values: self.store.snapshot().into_iter().collect(),
            next_seq: self.next_seq,
            holdback: self.holdback.values().cloned().collect(),
            applied_ets,
        }
    }

    /// Rebuilds a site from a checkpoint image, mid-protocol: the
    /// hold-back queue resumes waiting for exactly the same next
    /// sequence number, and redelivered duplicates of already-applied
    /// ETs keep being suppressed.
    ///
    /// # Panics
    ///
    /// If a held-back MSet in the image is not `Sequenced` — the codec
    /// rejects such an image ([`crate::ckpt::OrdupCkpt`]'s decoder), so
    /// only a hand-built one gets here.
    pub fn from_ckpt(_site: SiteId, c: crate::ckpt::OrdupCkpt) -> Self {
        let mut holdback = BTreeMap::new();
        for m in c.holdback {
            let OrderTag::Sequenced(seq) = m.order else {
                panic!("ORDUP checkpoint holds non-sequenced MSet {m}");
            };
            holdback.insert(seq, m);
        }
        Self {
            store: ObjectStore::with_values(c.values),
            next_seq: c.next_seq,
            holdback,
            applied_ets: c.applied_ets.into_iter().collect(),
        }
    }

    /// How many globally sequenced updates this site has **not** yet
    /// applied, given the sequencer's current counter (`horizon` = the
    /// next sequence number the sequencer would hand out). This is the
    /// conservative charge a query holding a global order token pays:
    /// every sequenced-but-unapplied update might conflict.
    pub fn gap_to(&self, horizon: SeqNo) -> u64 {
        horizon.raw().saturating_sub(self.next_seq.raw())
    }

    /// Applies `mset` assuming it carries exactly `next_seq` — the dense
    /// in-order hot path, which never touches the hold-back map.
    #[expect(clippy::expect_used, reason = "a rejected apply is replica-state corruption; panicking is the documented contract")]
    fn apply_next(&mut self, mset: MSet) {
        for op in &mset.ops {
            self.store
                .apply(op)
                .expect("update MSet must apply cleanly at every replica");
        }
        self.applied_ets.insert(mset.et);
        self.next_seq = self.next_seq.next();
    }

    /// Applies the run of parked successors the last in-order apply
    /// unblocked, handing each to `released` first.
    fn drain(&mut self, mut released: impl FnMut(&MSet)) {
        while let Some(mset) = self.holdback.remove(&self.next_seq) {
            released(&mset);
            self.apply_next(mset);
        }
    }
}

/// A query's charge at either ORDUP site: every held-back MSet writing a
/// queried object is an overlapping update whose effect the read would
/// order inconsistently.
fn held_back_charge<'a>(held: impl Iterator<Item = &'a MSet>, read_set: &[ObjectId]) -> u64 {
    held.filter(|m| m.touches(read_set)).count() as u64
}

impl ReplicaSite for OrdupSite {
    fn deliver(&mut self, mset: MSet) -> Delivery {
        let OrderTag::Sequenced(seq) = mset.order else {
            panic!("ORDUP sequencer site received non-sequenced MSet {mset}");
        };
        let mut released = Vec::new();
        let outcome = if seq < self.next_seq {
            Delivered::Duplicate // of an already-applied MSet
        } else if seq == self.next_seq {
            self.apply_next(mset);
            if !self.holdback.is_empty() {
                // This was a gap-filler: successors may unblock.
                self.drain(|m| released.push(Released::of(m)));
            }
            Delivered::Applied
        } else if self.holdback.insert(seq, mset).is_some() {
            // Same seq = same MSet (the sequencer never reuses a number),
            // so replacing the held-back copy with its duplicate is a no-op.
            Delivered::Duplicate
        } else {
            Delivered::Held
        };
        Delivery { outcome, released }
    }

    fn accepts(&self, mset: &MSet) -> bool {
        matches!(mset.order, OrderTag::Sequenced(_))
    }

    fn has_applied(&self, et: esr_core::ids::EtId) -> bool {
        self.applied_ets.contains(&et)
    }

    fn query(
        &mut self,
        read_set: &[ObjectId],
        counter: &mut InconsistencyCounter,
    ) -> QueryOutcome {
        let charge = held_back_charge(self.holdback.values(), read_set);
        QueryOutcome::admit(counter, charge, || {
            read_set.iter().map(|&o| self.store.get(o)).collect()
        })
    }

    fn snapshot(&self) -> BTreeMap<ObjectId, Value> {
        self.store.snapshot()
    }

    fn backlog(&self) -> usize {
        self.holdback.len()
    }
}

/// ORDUP site using distributed Lamport-timestamp ordering.
#[derive(Debug)]
pub struct OrdupLamportSite {
    store: ObjectStore,
    /// All origins that may send updates (needed for stability).
    origins: Vec<SiteId>,
    /// Per-origin FIFO reassembly: next expected fifo number and
    /// out-of-order buffer.
    fifo_next: BTreeMap<SiteId, SeqNo>,
    fifo_buffer: BTreeMap<(SiteId, SeqNo), MSet>,
    /// Highest timestamp seen from each origin (after FIFO reassembly).
    last_seen: BTreeMap<SiteId, LamportTs>,
    /// Timestamp-ordered hold-back of reassembled MSets.
    holdback: BTreeMap<LamportTs, MSet>,
    applied_ets: FastIdSet<esr_core::ids::EtId>,
}

impl OrdupLamportSite {
    /// A fresh site that expects updates from `origins`.
    pub fn new(_site: SiteId, origins: Vec<SiteId>) -> Self {
        Self {
            store: ObjectStore::new(),
            origins,
            fifo_next: BTreeMap::new(),
            fifo_buffer: BTreeMap::new(),
            last_seen: BTreeMap::new(),
            holdback: BTreeMap::new(),
            applied_ets: FastIdSet::default(),
        }
    }

    /// FIFO-reassembles one delivered MSet into the timestamp hold-back
    /// without draining — the front half of [`ReplicaSite::deliver`].
    /// Returns `false` for a duplicate, which is dropped.
    fn ingest(&mut self, mset: MSet) -> bool {
        let OrderTag::Lamport { fifo, .. } = mset.order else {
            panic!("ORDUP-Lamport site received non-Lamport MSet {mset}");
        };
        let origin = mset.origin;
        let mut cursor = *self.fifo_next.entry(origin).or_insert(SeqNo::ZERO);
        if fifo < cursor || self.fifo_buffer.contains_key(&(origin, fifo)) {
            return false; // duplicate of a reassembled or buffered MSet
        }
        self.fifo_buffer.insert((origin, fifo), mset);
        // Reassemble this origin's FIFO order.
        while let Some(m) = self.fifo_buffer.remove(&(origin, cursor)) {
            let OrderTag::Lamport { ts: mts, .. } = m.order else {
                unreachable!("buffered MSets are Lamport-tagged");
            };
            cursor = cursor.next();
            let seen = self.last_seen.entry(origin).or_insert(mts);
            if mts > *seen {
                *seen = mts;
            }
            self.holdback.insert(mts, m);
        }
        self.fifo_next.insert(origin, cursor);
        true
    }

    fn stable_horizon(&self) -> Option<LamportTs> {
        // A timestamp is stable when every origin has been seen at or
        // past it. If any origin has never been heard from, nothing is
        // stable yet.
        self.origins
            .iter()
            .map(|o| self.last_seen.get(o).copied())
            .min()
            .flatten()
    }

    #[expect(clippy::expect_used, reason = "a rejected apply is replica-state corruption; panicking is the documented contract")]
    fn drain_stable(&mut self, mut released: impl FnMut(&MSet)) {
        let Some(horizon) = self.stable_horizon() else {
            return;
        };
        while let Some(entry) = self.holdback.first_entry() {
            if *entry.key() > horizon {
                break;
            }
            let mset = entry.remove();
            released(&mset);
            for op in &mset.ops {
                self.store
                    .apply(op)
                    .expect("update MSet must apply cleanly at every replica");
            }
            self.applied_ets.insert(mset.et);
        }
    }
}

impl ReplicaSite for OrdupLamportSite {
    fn deliver(&mut self, mset: MSet) -> Delivery {
        let et = mset.et;
        let mut released = Vec::new();
        let outcome = if self.ingest(mset) {
            // Stability may release the new arrival along with (or
            // instead of) its timestamp predecessors.
            self.drain_stable(|m| released.push(Released::of(m)));
            match released.iter().position(|r| r.et == et) {
                Some(own) => {
                    released.remove(own);
                    Delivered::Applied
                }
                None => Delivered::Held,
            }
        } else {
            Delivered::Duplicate
        };
        Delivery { outcome, released }
    }

    fn accepts(&self, mset: &MSet) -> bool {
        matches!(mset.order, OrderTag::Lamport { .. })
    }

    fn has_applied(&self, et: esr_core::ids::EtId) -> bool {
        self.applied_ets.contains(&et)
    }

    fn query(
        &mut self,
        read_set: &[ObjectId],
        counter: &mut InconsistencyCounter,
    ) -> QueryOutcome {
        let charge = held_back_charge(self.holdback.values(), read_set);
        QueryOutcome::admit(counter, charge, || {
            read_set.iter().map(|&o| self.store.get(o)).collect()
        })
    }

    fn snapshot(&self) -> BTreeMap<ObjectId, Value> {
        self.store.snapshot()
    }

    fn backlog(&self) -> usize {
        self.holdback.len() + self.fifo_buffer.len()
    }

    /// Records a heartbeat from `origin` carrying its current clock:
    /// raises the stability horizon so held-back MSets can apply even
    /// when `origin` has gone quiet. The simulator beats at quiescence,
    /// as a `NodeEvent::Heartbeat` step.
    fn heartbeat(&mut self, origin: SiteId, ts: LamportTs) -> Vec<Released> {
        let e = self.last_seen.entry(origin).or_insert(ts);
        if ts > *e {
            *e = ts;
        }
        let mut released = Vec::new();
        self.drain_stable(|m| released.push(Released::of(m)));
        released
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esr_core::divergence::EpsilonSpec;
    use esr_core::ids::EtId;
    use esr_core::op::{ObjectOp, Operation};

    const X: ObjectId = ObjectId(0);

    fn mset_seq(et: u64, seq: u64, ops: Vec<ObjectOp>) -> MSet {
        MSet::new(EtId(et), SiteId(9), ops).sequenced(SeqNo(seq))
    }

    fn unbounded() -> InconsistencyCounter {
        InconsistencyCounter::new(EpsilonSpec::UNBOUNDED)
    }

    #[test]
    fn applies_in_sequence_order_despite_reordered_delivery() {
        let mut s = OrdupSite::new(SiteId(0));
        // Deliver #1 (Mul) before #0 (Inc): must still apply Inc first.
        s.deliver(mset_seq(2, 1, vec![ObjectOp::new(X, Operation::MulBy(2))]));
        assert_eq!(s.backlog(), 1, "held back waiting for #0");
        assert_eq!(s.snapshot().get(&X), None, "nothing applied yet");
        s.deliver(mset_seq(1, 0, vec![ObjectOp::new(X, Operation::Incr(10))]));
        assert_eq!(s.backlog(), 0);
        assert_eq!(s.snapshot()[&X], Value::Int(20), "(0+10)*2");
        assert!(s.has_applied(EtId(1)) && s.has_applied(EtId(2)));
        let next = s.deliver(mset_seq(3, 2, vec![ObjectOp::new(X, Operation::Incr(1))]));
        assert_eq!(next.outcome, Delivered::Applied, "#2 is next in line");
    }

    #[test]
    fn duplicate_delivery_is_idempotent() {
        let mut s = OrdupSite::new(SiteId(0));
        let m = mset_seq(1, 0, vec![ObjectOp::new(X, Operation::Incr(5))]);
        s.deliver(m.clone());
        s.deliver(m.clone());
        assert_eq!(s.snapshot()[&X], Value::Int(5));
        // Duplicate of a held-back MSet too.
        let h = mset_seq(2, 2, vec![ObjectOp::new(X, Operation::Incr(1))]);
        s.deliver(h.clone());
        s.deliver(h);
        assert_eq!(s.backlog(), 1);
    }

    #[test]
    fn redelivery_storm_is_idempotent_and_counted() {
        let msets = [
            mset_seq(1, 0, vec![ObjectOp::new(X, Operation::Incr(10))]),
            mset_seq(2, 1, vec![ObjectOp::new(X, Operation::MulBy(3))]),
            mset_seq(3, 2, vec![ObjectOp::new(X, Operation::Decr(5))]),
        ];
        let mut clean = OrdupSite::new(SiteId(0));
        for m in &msets {
            clean.deliver(m.clone());
        }
        // Stormed replica: every MSet three times, interleaved both ways.
        let mut stormed = OrdupSite::new(SiteId(1));
        let outcomes: Vec<Delivered> = msets
            .iter()
            .chain(msets.iter().rev())
            .chain(msets.iter())
            .map(|m| stormed.deliver(m.clone()).outcome)
            .collect();
        assert_eq!(stormed.snapshot(), clean.snapshot());
        let count = |d: Delivered| outcomes.iter().filter(|o| **o == d).count();
        assert_eq!(count(Delivered::Applied), 3, "each MSet applied exactly once");
        assert_eq!(count(Delivered::Duplicate), 6, "six duplicates suppressed");
    }

    #[test]
    fn query_charges_per_conflicting_heldback_mset() {
        let mut s = OrdupSite::new(SiteId(0));
        s.deliver(mset_seq(1, 1, vec![ObjectOp::new(X, Operation::Incr(1))]));
        s.deliver(mset_seq(2, 2, vec![ObjectOp::new(X, Operation::Incr(2))]));
        s.deliver(mset_seq(3, 3, vec![ObjectOp::new(ObjectId(5), Operation::Incr(3))]));
        let mut c = unbounded();
        let out = s.query(&[X], &mut c);
        assert!(out.admitted);
        assert_eq!(out.charged, 2, "two held-back MSets write x");
        assert_eq!(c.imported(), 2);
        assert_eq!(out.values, vec![Value::Int(0)], "seq 0 never arrived");
    }

    #[test]
    fn strict_query_rejected_while_behind() {
        let mut s = OrdupSite::new(SiteId(0));
        s.deliver(mset_seq(1, 1, vec![ObjectOp::new(X, Operation::Incr(1))]));
        let mut c = InconsistencyCounter::new(EpsilonSpec::STRICT);
        let out = s.query(&[X], &mut c);
        assert!(!out.admitted);
        assert_eq!(c.imported(), 0, "rejected query charges nothing");
        // A strict query on an unrelated object is fine.
        let out = s.query(&[ObjectId(7)], &mut c);
        assert!(out.admitted);
    }

    #[test]
    fn two_replicas_converge_under_opposite_delivery_orders() {
        let msets = vec![
            mset_seq(1, 0, vec![ObjectOp::new(X, Operation::Incr(10))]),
            mset_seq(2, 1, vec![ObjectOp::new(X, Operation::MulBy(3))]),
            mset_seq(3, 2, vec![ObjectOp::new(X, Operation::Decr(5))]),
        ];
        let mut a = OrdupSite::new(SiteId(0));
        let mut b = OrdupSite::new(SiteId(1));
        for m in &msets {
            a.deliver(m.clone());
        }
        for m in msets.iter().rev() {
            b.deliver(m.clone());
        }
        assert_eq!(a.snapshot(), b.snapshot());
        assert_eq!(a.snapshot()[&X], Value::Int(25), "(0+10)*3-5");
    }

    // ---- Lamport variant ----

    fn lam(et: u64, origin: u64, counter: u64, fifo: u64, ops: Vec<ObjectOp>) -> MSet {
        MSet::new(EtId(et), SiteId(origin), ops)
            .lamport(LamportTs::new(counter, SiteId(origin)), SeqNo(fifo))
    }

    #[test]
    fn lamport_applies_in_timestamp_order() {
        let origins = vec![SiteId(0), SiteId(1)];
        let mut s = OrdupLamportSite::new(SiteId(2), origins);
        // Origin 1 sends ts=2 first; origin 0's ts=1 is still missing, so
        // nothing may apply yet (ts=2 isn't stable).
        let first = s.deliver(lam(2, 1, 2, 0, vec![ObjectOp::new(X, Operation::MulBy(2))]));
        assert_eq!(first.outcome, Delivered::Held);
        // Origin 0's ts=1 arrives: horizon = min(1, 2) = 1, so ts=1
        // applies but ts=2 still waits (origin 0 might send ts=2 later).
        let second = s.deliver(lam(1, 0, 1, 0, vec![ObjectOp::new(X, Operation::Incr(10))]));
        assert_eq!(second.outcome, Delivered::Applied);
        assert!(second.released.is_empty() && !s.has_applied(EtId(2)));
        assert_eq!(s.snapshot()[&X], Value::Int(10));
        // A heartbeat from origin 0 past ts=2 stabilizes the Mul.
        let released = s.heartbeat(SiteId(0), LamportTs::new(5, SiteId(0)));
        assert_eq!(released.iter().map(|r| r.et).collect::<Vec<_>>(), [EtId(2)]);
        assert_eq!(s.snapshot()[&X], Value::Int(20));
    }

    #[test]
    fn lamport_fifo_reassembly_handles_reordering() {
        let mut s = OrdupLamportSite::new(SiteId(2), vec![SiteId(0)]);
        // fifo #1 arrives before fifo #0: buffered.
        let early = s.deliver(lam(2, 0, 2, 1, vec![ObjectOp::new(X, Operation::MulBy(2))]));
        assert_eq!(early.outcome, Delivered::Held);
        assert_eq!(s.backlog(), 1);
        s.deliver(lam(1, 0, 1, 0, vec![ObjectOp::new(X, Operation::Incr(10))]));
        // Both reassembled; horizon = ts 2, both stable.
        assert!(s.has_applied(EtId(1)) && s.has_applied(EtId(2)));
        assert_eq!(s.snapshot()[&X], Value::Int(20));
    }

    #[test]
    fn lamport_duplicate_fifo_is_ignored() {
        let mut s = OrdupLamportSite::new(SiteId(2), vec![SiteId(0)]);
        let m = lam(1, 0, 1, 0, vec![ObjectOp::new(X, Operation::Incr(5))]);
        assert_eq!(s.deliver(m.clone()).outcome, Delivered::Applied);
        assert_eq!(s.deliver(m).outcome, Delivered::Duplicate);
        assert_eq!(s.snapshot()[&X], Value::Int(5));
    }

    #[test]
    fn lamport_replicas_converge_any_order() {
        let msets = [
            lam(1, 0, 1, 0, vec![ObjectOp::new(X, Operation::Incr(10))]),
            lam(2, 1, 1, 0, vec![ObjectOp::new(X, Operation::MulBy(2))]),
            lam(3, 0, 3, 1, vec![ObjectOp::new(X, Operation::Decr(4))]),
        ];
        let origins = vec![SiteId(0), SiteId(1)];
        let run = |order: Vec<usize>| {
            let mut s = OrdupLamportSite::new(SiteId(2), origins.clone());
            for i in order {
                s.deliver(msets[i].clone());
            }
            // Final heartbeats flush the tail.
            s.heartbeat(SiteId(0), LamportTs::new(100, SiteId(0)));
            s.heartbeat(SiteId(1), LamportTs::new(100, SiteId(1)));
            s.snapshot()
        };
        let a = run(vec![0, 1, 2]);
        let b = run(vec![2, 1, 0]);
        let c = run(vec![1, 2, 0]);
        assert_eq!(a, b);
        assert_eq!(b, c);
        // ts order: Inc(10)@1.0, Mul(2)@1.1, Dec(4)@3.0 → (0+10)*2-4 = 16.
        assert_eq!(a[&X], Value::Int(16));
    }

    #[test]
    fn lamport_redelivery_storm_is_idempotent_and_counted() {
        let msets = [
            lam(1, 0, 1, 0, vec![ObjectOp::new(X, Operation::Incr(10))]),
            lam(2, 1, 1, 0, vec![ObjectOp::new(X, Operation::MulBy(2))]),
            lam(3, 0, 3, 1, vec![ObjectOp::new(X, Operation::Decr(4))]),
        ];
        let origins = vec![SiteId(0), SiteId(1)];
        let mut s = OrdupLamportSite::new(SiteId(2), origins);
        let duplicates = msets
            .iter()
            .chain(msets.iter().rev())
            .filter(|m| s.deliver((*m).clone()).outcome == Delivered::Duplicate)
            .count();
        s.heartbeat(SiteId(0), LamportTs::new(100, SiteId(0)));
        s.heartbeat(SiteId(1), LamportTs::new(100, SiteId(1)));
        assert!(msets.iter().all(|m| s.has_applied(m.et)));
        assert_eq!(duplicates, 3, "the reversed pass was all duplicates");
        assert_eq!(s.snapshot()[&X], Value::Int(16), "(0+10)*2-4");
    }

    #[test]
    fn lamport_query_charges_holdback() {
        let mut s = OrdupLamportSite::new(SiteId(2), vec![SiteId(0), SiteId(1)]);
        s.deliver(lam(1, 0, 5, 0, vec![ObjectOp::new(X, Operation::Incr(1))]));
        // Not stable (origin 1 silent): held back.
        let mut c = unbounded();
        let out = s.query(&[X], &mut c);
        assert_eq!(out.charged, 1);
        assert_eq!(out.values, vec![Value::Int(0)]);
    }
}

//! ORDUP — ordered updates (§3.1).
//!
//! Replicas of the same object are updated *asynchronously but in the
//! same order*, making the update ETs SR; queries are processed in any
//! order because they may see inconsistent results.
//!
//! One site, [`OrderedSite`], holds the store, the MSets parked until
//! their turn and the applied-ET guard, and has the one deliver, drain,
//! query and image code. It is the one site that keeps an MSet it is
//! lent: a parked MSet is copied into the hold-back, an in-order one is
//! applied in place. Its order key is the only part that differs
//! between the paper's two ordering mechanisms:
//!
//! * [`OrdupSite`], keyed by [`SeqNo`] — a **centralized sequencer**
//!   stamps each update MSet with a dense global sequence number; each
//!   site "simply waits for the next MSet in the execution sequence to
//!   show up before running other MSets". An MSet is stable when it is
//!   next.
//! * [`OrdupLamportSite`], keyed by [`LamportTs`] — **Lamport-style
//!   global timestamps** for true distributed control; the site
//!   reassembles each origin's FIFO order ([`Stream`]) and applies MSets
//!   in timestamp order once they are *stable*: at or below the newest
//!   stamp seen from every origin, so no smaller timestamp can still
//!   arrive. A heartbeat speaks for its origin only once the site has
//!   reassembled every MSet the origin sent before it (the beat's `sent`
//!   count); until then the site keeps the newest such beat per origin.
//!   A beat that outran an earlier MSet of its origin would otherwise let
//!   later stamps of other origins apply ahead of that MSet.
//!
//! Divergence bounding: a query is charged one unit per parked MSet
//! that writes an object in its read set — those are exactly the
//! overlapping update ETs the query would expose, and the same MSets
//! [`ReplicaSite::backlog`] counts. With a sequencer, a strict (epsilon
//! = 0) query takes a *global order token* and is served only when the
//! site has applied every update sequenced before it ("the query ET is
//! allowed to proceed only when it is running in the global order").
//! [`OrdupSite::gap_to`] counts the sequenced updates the site still
//! lacks; the simulator charges a token-holding query that count, so a
//! strict one is admitted only once the gap is zero.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Bound;

use esr_core::divergence::InconsistencyCounter;
use esr_core::fastid::FastIdSet;
use esr_core::ids::{EtId, LamportTs, ObjectId, SeqNo, SiteId};
use esr_core::value::Value;
use esr_storage::store::ObjectStore;

use crate::ckpt::OrderedCkpt;
use crate::mset::{MSet, OrderTag};
use crate::site::{Delivered, QueryOutcome, Released, ReplicaSite};

/// An ORDUP order key — what a parked MSet waits under, in apply order —
/// with what a site tracks to tell when the next key may apply.
pub trait Order: Ord + Copy + fmt::Debug {
    /// Where a site's order stands; its checkpoint image keeps it whole.
    type Position: Clone + fmt::Debug + PartialEq;
    /// The key `mset` carries, if it is tagged for this order.
    fn key(mset: &MSet) -> Option<Self>;
    /// Takes note of an arrival, before it is applied or parked beside
    /// `parked`. `false`: the site has already taken `mset` in order —
    /// applied it, or parked it behind its key — so this is a duplicate.
    fn arrive(pos: &mut Self::Position, mset: &MSet, parked: &BTreeMap<Self, MSet>) -> bool;
    /// May the MSet at `key` apply, once every parked key below it has?
    fn stable(pos: &Self::Position, key: Self) -> bool;
    /// Moves past the key just applied.
    fn applied(_pos: &mut Self::Position, _key: Self) {}
    /// Takes note of a heartbeat from `origin` at `ts`, sent after its
    /// first `sent` MSets.
    fn beat(_pos: &mut Self::Position, _origin: SiteId, _sent: SeqNo, _ts: LamportTs) {}
}

/// The sequencer's order: the position is the next sequence number the
/// site will apply.
impl Order for SeqNo {
    type Position = SeqNo;
    fn key(mset: &MSet) -> Option<Self> {
        mset.gseq()
    }
    fn arrive(next: &mut SeqNo, mset: &MSet, _: &BTreeMap<Self, MSet>) -> bool {
        mset.gseq() >= Some(*next)
    }
    fn stable(next: &SeqNo, key: SeqNo) -> bool {
        key == *next
    }
    fn applied(next: &mut SeqNo, _key: SeqNo) {
        *next = next.next();
    }
}

/// One origin's FIFO stream at an ORDUP-L site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stream {
    /// The origin.
    pub origin: SiteId,
    /// How many of its MSets the site has reassembled: the FIFO number
    /// it expects next.
    pub next: SeqNo,
    /// The newest stamp known to cover the origin — its last reassembled
    /// MSet's, or a beat's — below which none of its MSets can still
    /// arrive; `None` before any word from it.
    pub seen: Option<LamportTs>,
    /// The newest beat still waiting for the origin's earlier MSets: how
    /// many it was sent after, and its stamp.
    pub beat: Option<(SeqNo, LamportTs)>,
}

impl Stream {
    fn of(origin: SiteId) -> Self {
        Self {
            origin,
            next: SeqNo::ZERO,
            seen: None,
            beat: None,
        }
    }

    /// Raises `seen` to `ts`, stamped after the origin's first `sent`
    /// MSets, once those are reassembled; until then keeps the newest
    /// such stamp pending.
    fn cover(&mut self, sent: SeqNo, ts: LamportTs) {
        if sent <= self.next {
            self.seen = self.seen.max(Some(ts));
        } else if self.beat.is_none_or(|(_, pending)| pending < ts) {
            self.beat = Some((sent, ts));
        }
    }

    /// Reassembles the origin's next MSet, stamped `ts`.
    fn take(&mut self, ts: LamportTs) {
        self.next = self.next.next();
        self.cover(self.next, ts);
        if let Some((sent, beat)) = self.beat.take() {
            self.cover(sent, beat);
        }
    }
}

/// The stream of `origin`, opened on its first word if the site was not
/// built hearing it.
fn stream(streams: &mut Vec<Stream>, origin: SiteId) -> &mut Stream {
    let at = streams.iter().position(|s| s.origin == origin);
    let at = at.unwrap_or_else(|| {
        streams.push(Stream::of(origin));
        streams.len() - 1
    });
    &mut streams[at]
}

/// Lamport order: the position is every origin's FIFO stream.
impl Order for LamportTs {
    type Position = Vec<Stream>;
    fn key(mset: &MSet) -> Option<Self> {
        match mset.order {
            OrderTag::Lamport { ts, .. } => Some(ts),
            _ => None,
        }
    }
    fn arrive(streams: &mut Vec<Stream>, mset: &MSet, parked: &BTreeMap<Self, MSet>) -> bool {
        let OrderTag::Lamport { ts, fifo } = mset.order else {
            return true;
        };
        let s = stream(streams, mset.origin);
        if fifo != s.next {
            // Reassembled already, or past a gap until it fills.
            return fifo > s.next;
        }
        s.take(ts);
        // An origin stamps its MSets in FIFO order, so those of its
        // successors that arrived early follow this one among the
        // parked stamps, in order.
        let later = parked.range((Bound::Excluded(ts), Bound::Unbounded));
        for (&ts, m) in later.filter(|(_, m)| m.origin == mset.origin) {
            match m.order {
                OrderTag::Lamport { fifo, .. } if fifo == s.next => s.take(ts),
                _ => break,
            }
        }
        true
    }
    fn stable(streams: &Vec<Stream>, key: LamportTs) -> bool {
        // Nothing is stable while some origin has not been heard from.
        let horizon = streams.iter().map(|s| s.seen).min().flatten();
        horizon.is_some_and(|horizon| key <= horizon)
    }
    fn beat(streams: &mut Vec<Stream>, origin: SiteId, sent: SeqNo, ts: LamportTs) {
        stream(streams, origin).cover(sent, ts);
    }
}

/// An ORDUP replica site over order key `O`.
#[derive(Debug)]
pub struct OrderedSite<O: Order> {
    store: ObjectStore,
    /// Where the order stands.
    order: O::Position,
    /// Delivered MSets waiting for their turn, by key.
    parked: BTreeMap<O, MSet>,
    /// ETs whose MSets have been applied.
    applied_ets: FastIdSet<EtId>,
}

/// ORDUP site using sequencer-assigned global order.
pub type OrdupSite = OrderedSite<SeqNo>;

/// ORDUP site using distributed Lamport-timestamp ordering.
pub type OrdupLamportSite = OrderedSite<LamportTs>;

impl OrdupSite {
    /// A fresh site.
    pub fn new(_site: SiteId) -> Self {
        Self::with_order(SeqNo::ZERO)
    }

    /// How many globally sequenced updates this site has **not** yet
    /// applied, given the sequencer's current counter (`horizon` = the
    /// next sequence number the sequencer would hand out). This is the
    /// conservative charge a query holding a global order token pays:
    /// every sequenced-but-unapplied update might conflict.
    pub fn gap_to(&self, horizon: SeqNo) -> u64 {
        horizon.raw().saturating_sub(self.order.raw())
    }
}

impl OrdupLamportSite {
    /// A fresh site that expects updates from `origins`.
    pub fn new(_site: SiteId, origins: Vec<SiteId>) -> Self {
        Self::with_order(origins.into_iter().map(Stream::of).collect())
    }
}

impl<O: Order> OrderedSite<O> {
    fn with_order(order: O::Position) -> Self {
        Self {
            store: ObjectStore::new(),
            order,
            parked: BTreeMap::new(),
            applied_ets: FastIdSet::default(),
        }
    }

    /// Captures the site's full protocol state as a checkpoint image:
    /// store contents, the order's position, the parked MSets, and the
    /// duplicate-suppression set.
    pub fn to_ckpt(&self) -> OrderedCkpt<O> {
        let mut applied_ets: Vec<EtId> = self.applied_ets.iter().copied().collect();
        applied_ets.sort_unstable();
        OrderedCkpt {
            values: self.store.snapshot().into_iter().collect(),
            order: self.order.clone(),
            holdback: self.parked.values().cloned().collect(),
            applied_ets,
        }
    }

    /// Rebuilds a site from a checkpoint image, mid-protocol: the parked
    /// MSets resume waiting for exactly the same turn, and redelivered
    /// duplicates of already-applied ETs keep being suppressed.
    ///
    /// # Panics
    ///
    /// If a parked MSet in the image is not tagged for `O` — the codec
    /// rejects such an image ([`OrderedCkpt`]'s decoder), so only a
    /// hand-built one gets here.
    pub fn from_ckpt(_site: SiteId, c: OrderedCkpt<O>) -> Self {
        let parked = c.holdback.into_iter().map(|m| match O::key(&m) {
            Some(key) => (key, m),
            None => panic!("ORDUP checkpoint holds MSet {m} without its order tag"),
        });
        Self {
            store: ObjectStore::with_values(c.values),
            order: c.order,
            parked: parked.collect(),
            applied_ets: c.applied_ets.into_iter().collect(),
        }
    }

    /// Applies `mset`, the MSet at `key`, and lists it in `applied`.
    #[expect(clippy::expect_used, reason = "a rejected apply is replica-state corruption; panicking is the documented contract")]
    fn apply(&mut self, key: O, mset: &MSet, applied: &mut Vec<Released>) {
        for op in &mset.ops {
            self.store
                .apply(op)
                .expect("update MSet must apply cleanly at every replica");
        }
        self.applied_ets.insert(mset.et);
        O::applied(&mut self.order, key);
        applied.push(Released::of(mset));
    }

    /// Applies the run of parked MSets that are now stable, in key
    /// order.
    fn drain(&mut self, applied: &mut Vec<Released>) {
        while let Some(entry) = self.parked.first_entry() {
            if !O::stable(&self.order, *entry.key()) {
                break;
            }
            let (key, mset) = entry.remove_entry();
            self.apply(key, &mset, applied);
        }
    }
}

impl<O: Order> ReplicaSite for OrderedSite<O> {
    fn deliver(&mut self, mset: &MSet, applied: &mut Vec<Released>) -> Delivered {
        let Some(key) = O::key(mset) else {
            panic!("ORDUP site received MSet {mset} without its order tag");
        };
        if !O::arrive(&mut self.order, mset, &self.parked) {
            return Delivered::Duplicate;
        }
        let first = self.parked.keys().next();
        if first.is_none_or(|&k| key < k) && O::stable(&self.order, key) {
            // Next in line: the in-order path parks, and copies, nothing.
            self.apply(key, mset, applied);
        } else {
            match self.parked.entry(key) {
                // The one copy a site keeps: the MSet it parks.
                Entry::Vacant(slot) => {
                    slot.insert(mset.clone());
                }
                // One key is one MSet: this is its duplicate.
                Entry::Occupied(_) => return Delivered::Duplicate,
            }
        }
        self.drain(applied);
        // A Lamport arrival can stabilize an earlier parked stamp along
        // with its own: then it applied in this drain, after that stamp.
        if self.parked.contains_key(&key) {
            Delivered::Held
        } else {
            Delivered::Applied
        }
    }

    fn accepts(&self, mset: &MSet) -> bool {
        O::key(mset).is_some()
    }

    fn has_applied(&self, et: EtId) -> bool {
        self.applied_ets.contains(&et)
    }

    fn query(
        &mut self,
        read_set: &[ObjectId],
        counter: &mut InconsistencyCounter,
    ) -> QueryOutcome {
        // Every parked MSet writing a queried object is an overlapping
        // update whose effect the read would order inconsistently.
        let charge = self.parked.values().filter(|m| m.touches(read_set)).count() as u64;
        QueryOutcome::admit(counter, charge, || {
            read_set.iter().map(|&o| self.store.get(o)).collect()
        })
    }

    fn snapshot(&self) -> BTreeMap<ObjectId, Value> {
        self.store.snapshot()
    }

    fn backlog(&self) -> usize {
        self.parked.len()
    }

    /// Records a heartbeat from `origin` carrying its clock, sent after
    /// its first `sent` MSets: once the site has reassembled those, the
    /// beat raises the stability horizon, so parked MSets can apply even
    /// when `origin` has gone quiet. The simulator beats at quiescence,
    /// as a `NodeEvent::Heartbeat` step.
    fn heartbeat(
        &mut self,
        origin: SiteId,
        sent: SeqNo,
        ts: LamportTs,
        applied: &mut Vec<Released>,
    ) {
        O::beat(&mut self.order, origin, sent, ts);
        self.drain(applied);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esr_core::divergence::EpsilonSpec;
    use esr_core::op::{ObjectOp, Operation};

    const X: ObjectId = ObjectId(0);

    /// What each ordering test needs to know about an order.
    trait Fixture: Order {
        /// A fresh site (ORDUP-L: hearing one origin, site 9).
        fn site() -> OrderedSite<Self>;
        /// ET `et`'s MSet, `i`-th in the order: sequence number `i`, or
        /// origin 9's `i`-th MSet, stamped `i + 1`.
        fn nth(et: u64, i: u64, ops: Vec<ObjectOp>) -> MSet;
    }

    impl Fixture for SeqNo {
        fn site() -> OrderedSite<Self> {
            OrdupSite::new(SiteId(0))
        }
        fn nth(et: u64, i: u64, ops: Vec<ObjectOp>) -> MSet {
            MSet::new(EtId(et), SiteId(9), ops).sequenced(SeqNo(i))
        }
    }

    impl Fixture for LamportTs {
        fn site() -> OrderedSite<Self> {
            OrdupLamportSite::new(SiteId(0), vec![SiteId(9)])
        }
        fn nth(et: u64, i: u64, ops: Vec<ObjectOp>) -> MSet {
            lam(et, 9, i + 1, i, ops)
        }
    }

    /// Runs each named test over the sequencer's order and Lamport's.
    macro_rules! over_both_orders {
        ($($test:ident),+ $(,)?) => {
            mod seq {
                $(#[test]
                fn $test() {
                    super::$test::<super::SeqNo>();
                })+
            }
            mod lamport {
                $(#[test]
                fn $test() {
                    super::$test::<super::LamportTs>();
                })+
            }
        };
    }

    over_both_orders!(
        applies_in_order_despite_reordered_delivery,
        duplicate_delivery_is_idempotent,
        redelivery_storm_is_idempotent_and_counted,
        query_charges_per_conflicting_parked_mset,
        strict_query_rejected_while_behind,
        two_replicas_converge_under_opposite_delivery_orders,
        image_restores_the_parked_msets_and_the_order,
    );

    fn incr(n: i64) -> Vec<ObjectOp> {
        vec![ObjectOp::new(X, Operation::Incr(n))]
    }

    fn mul(n: i64) -> Vec<ObjectOp> {
        vec![ObjectOp::new(X, Operation::MulBy(n))]
    }

    fn unbounded() -> InconsistencyCounter {
        InconsistencyCounter::new(EpsilonSpec::UNBOUNDED)
    }

    /// Delivers `m` to `s`: what became of it, and the ETs the delivery
    /// applied, in apply order.
    fn deliver<O: Order>(s: &mut OrderedSite<O>, m: &MSet) -> (Delivered, Vec<EtId>) {
        let mut applied = Vec::new();
        let outcome = s.deliver(m, &mut applied);
        (outcome, applied.iter().map(|r| r.et).collect())
    }

    fn applies_in_order_despite_reordered_delivery<O: Fixture>() {
        let mut s = O::site();
        // Deliver #1 (Mul) before #0 (Inc): must still apply Inc first.
        deliver(&mut s, &O::nth(2, 1, mul(2)));
        assert_eq!(s.backlog(), 1, "parked waiting for #0");
        assert_eq!(s.snapshot().get(&X), None, "nothing applied yet");
        deliver(&mut s, &O::nth(1, 0, incr(10)));
        assert_eq!(s.backlog(), 0);
        assert_eq!(s.snapshot()[&X], Value::Int(20), "(0+10)*2");
        assert!(s.has_applied(EtId(1)) && s.has_applied(EtId(2)));
        let next = deliver(&mut s, &O::nth(3, 2, incr(1)));
        assert_eq!(next.0, Delivered::Applied, "#2 is next in line");
    }

    fn duplicate_delivery_is_idempotent<O: Fixture>() {
        let mut s = O::site();
        let m = O::nth(1, 0, incr(5));
        deliver(&mut s, &m);
        assert_eq!(deliver(&mut s, &m).0, Delivered::Duplicate);
        assert_eq!(s.snapshot()[&X], Value::Int(5));
        // Duplicate of a parked MSet too.
        let h = O::nth(2, 2, incr(1));
        assert_eq!(deliver(&mut s, &h).0, Delivered::Held);
        assert_eq!(deliver(&mut s, &h).0, Delivered::Duplicate);
        assert_eq!(s.backlog(), 1);
    }

    fn redelivery_storm_is_idempotent_and_counted<O: Fixture>() {
        let msets = [
            O::nth(1, 0, incr(10)),
            O::nth(2, 1, mul(3)),
            O::nth(3, 2, incr(-5)),
        ];
        let mut clean = O::site();
        for m in &msets {
            deliver(&mut clean, m);
        }
        // Stormed replica: every MSet three times, interleaved both ways.
        let mut stormed = O::site();
        let outcomes: Vec<Delivered> = msets
            .iter()
            .chain(msets.iter().rev())
            .chain(msets.iter())
            .map(|m| deliver(&mut stormed, m).0)
            .collect();
        assert_eq!(stormed.snapshot(), clean.snapshot());
        let count = |d: Delivered| outcomes.iter().filter(|o| **o == d).count();
        assert_eq!(count(Delivered::Applied), 3, "each MSet applied exactly once");
        assert_eq!(count(Delivered::Duplicate), 6, "six duplicates suppressed");
    }

    fn query_charges_per_conflicting_parked_mset<O: Fixture>() {
        let mut s = O::site();
        deliver(&mut s, &O::nth(1, 1, incr(1)));
        deliver(&mut s, &O::nth(2, 2, incr(2)));
        deliver(&mut s, &O::nth(3, 3, vec![ObjectOp::new(ObjectId(5), Operation::Incr(3))]));
        let mut c = unbounded();
        let out = s.query(&[X], &mut c);
        assert!(out.admitted);
        assert_eq!(out.charged, 2, "two parked MSets write x");
        assert_eq!(c.imported(), 2);
        assert_eq!(out.values, vec![Value::Int(0)], "#0 never arrived");
        assert_eq!(s.backlog(), 3, "the backlog is what a query may count");
    }

    fn strict_query_rejected_while_behind<O: Fixture>() {
        let mut s = O::site();
        deliver(&mut s, &O::nth(1, 1, incr(1)));
        let mut c = InconsistencyCounter::new(EpsilonSpec::STRICT);
        let out = s.query(&[X], &mut c);
        assert!(!out.admitted);
        assert_eq!(c.imported(), 0, "rejected query charges nothing");
        // A strict query on an unrelated object is fine.
        let out = s.query(&[ObjectId(7)], &mut c);
        assert!(out.admitted);
    }

    fn two_replicas_converge_under_opposite_delivery_orders<O: Fixture>() {
        let msets = vec![
            O::nth(1, 0, incr(10)),
            O::nth(2, 1, mul(3)),
            O::nth(3, 2, incr(-5)),
        ];
        let mut a = O::site();
        let mut b = O::site();
        for m in &msets {
            deliver(&mut a, m);
        }
        for m in msets.iter().rev() {
            deliver(&mut b, m);
        }
        assert_eq!(a.snapshot(), b.snapshot());
        assert_eq!(a.snapshot()[&X], Value::Int(25), "(0+10)*3-5");
    }

    /// A site rebuilt from its image mid-protocol dumps the same image,
    /// absorbs a redelivery, and applies the gap-filler and its parked
    /// successor as the original does.
    fn image_restores_the_parked_msets_and_the_order<O: Fixture>() {
        let mut s = O::site();
        deliver(&mut s, &O::nth(1, 0, incr(10)));
        deliver(&mut s, &O::nth(3, 2, mul(2)));
        let mut r = OrderedSite::<O>::from_ckpt(SiteId(0), s.to_ckpt());
        assert_eq!(r.to_ckpt(), s.to_ckpt());
        assert_eq!(deliver(&mut r, &O::nth(1, 0, incr(10))).0, Delivered::Duplicate);
        for site in [&mut s, &mut r] {
            let filler = deliver(site, &O::nth(2, 1, incr(1)));
            assert_eq!(filler.0, Delivered::Applied);
            assert_eq!(filler.1, [EtId(2), EtId(3)]);
        }
        assert_eq!(r.to_ckpt(), s.to_ckpt());
        assert_eq!(r.snapshot()[&X], Value::Int(22), "(0+10+1)*2");
    }

    // ---- Lamport order over several origins ----

    fn lam(et: u64, origin: u64, counter: u64, fifo: u64, ops: Vec<ObjectOp>) -> MSet {
        MSet::new(EtId(et), SiteId(origin), ops)
            .lamport(LamportTs::new(counter, SiteId(origin)), SeqNo(fifo))
    }

    fn two_origins() -> OrdupLamportSite {
        OrdupLamportSite::new(SiteId(2), vec![SiteId(0), SiteId(1)])
    }

    fn beat(s: &mut OrdupLamportSite, origin: u64, sent: u64, counter: u64) -> Vec<EtId> {
        let ts = LamportTs::new(counter, SiteId(origin));
        let mut applied = Vec::new();
        s.heartbeat(SiteId(origin), SeqNo(sent), ts, &mut applied);
        applied.iter().map(|r| r.et).collect()
    }

    #[test]
    fn lamport_applies_in_timestamp_order() {
        let mut s = two_origins();
        // Origin 1 sends ts=2 first; origin 0's ts=1 is still missing, so
        // nothing may apply yet (ts=2 isn't stable).
        let first = deliver(&mut s, &lam(2, 1, 2, 0, mul(2)));
        assert_eq!(first.0, Delivered::Held);
        // Origin 0's ts=1 arrives: horizon = min(1, 2) = 1, so ts=1
        // applies but ts=2 still waits (origin 0 might send ts=2 later).
        let second = deliver(&mut s, &lam(1, 0, 1, 0, incr(10)));
        assert_eq!(second.0, Delivered::Applied);
        assert!(second.1 == [EtId(1)] && !s.has_applied(EtId(2)));
        assert_eq!(s.snapshot()[&X], Value::Int(10));
        // A heartbeat from origin 0 past ts=2 stabilizes the Mul.
        assert_eq!(beat(&mut s, 0, 1, 5), [EtId(2)]);
        assert_eq!(s.snapshot()[&X], Value::Int(20));
    }

    /// A beat sent after origin 0's first MSet says nothing until that
    /// MSet has arrived: a site that hears the beat first still applies
    /// ts=1 before origin 1's ts=2, like a site that saw ts=1 first.
    #[test]
    fn a_beat_waits_for_the_msets_its_origin_sent_before_it() {
        let mut a = two_origins();
        deliver(&mut a, &lam(1, 0, 1, 0, incr(10)));
        deliver(&mut a, &lam(2, 1, 2, 0, mul(2)));
        assert_eq!(beat(&mut a, 0, 1, 5), [EtId(2)]);
        let mut b = two_origins();
        deliver(&mut b, &lam(2, 1, 2, 0, mul(2)));
        assert!(beat(&mut b, 0, 1, 5).is_empty(), "origin 0's ts=1 is still in flight");
        assert_eq!(b.snapshot().get(&X), None);
        let late = deliver(&mut b, &lam(1, 0, 1, 0, incr(10)));
        assert_eq!(late.0, Delivered::Applied);
        assert_eq!(late.1, [EtId(1), EtId(2)]);
        assert_eq!(b.snapshot(), a.snapshot());
        assert_eq!(b.snapshot()[&X], Value::Int(20), "(0+10)*2");
    }

    /// Of two pending beats the newer is kept, and it speaks once its
    /// own count has been reassembled.
    #[test]
    fn the_newest_pending_beat_is_kept() {
        let mut s = two_origins();
        deliver(&mut s, &lam(9, 1, 3, 0, incr(1)));
        assert!(beat(&mut s, 1, 1, 20).is_empty(), "origin 0 unheard");
        assert!(beat(&mut s, 0, 2, 7).is_empty());
        assert!(beat(&mut s, 0, 1, 4).is_empty(), "an older beat replaces nothing");
        deliver(&mut s, &lam(1, 0, 1, 0, incr(10)));
        assert!(!s.has_applied(EtId(9)), "the kept beat needs two MSets");
        let second = deliver(&mut s, &lam(2, 0, 5, 1, mul(2)));
        assert_eq!(second.0, Delivered::Applied);
        assert_eq!(second.1, [EtId(9), EtId(2)], "ts 3 applies before ts 5");
        // Origin 0 is now covered to ts=7, past its own ts=5.
        let third = deliver(&mut s, &lam(3, 1, 6, 1, incr(1)));
        assert_eq!(third.0, Delivered::Applied);
        assert_eq!(s.snapshot()[&X], Value::Int(23), "(0+10+1)*2+1");
    }

    #[test]
    fn lamport_fifo_reassembly_handles_reordering() {
        let mut s = OrdupLamportSite::new(SiteId(2), vec![SiteId(0)]);
        // fifo #1 arrives before fifo #0: parked.
        let early = deliver(&mut s, &lam(2, 0, 2, 1, mul(2)));
        assert_eq!(early.0, Delivered::Held);
        assert_eq!(s.backlog(), 1);
        deliver(&mut s, &lam(1, 0, 1, 0, incr(10)));
        // Both reassembled; horizon = ts 2, both stable.
        assert!(s.has_applied(EtId(1)) && s.has_applied(EtId(2)));
        assert_eq!(s.snapshot()[&X], Value::Int(20));
    }

    #[test]
    fn lamport_replicas_converge_any_order() {
        let msets = [
            lam(1, 0, 1, 0, incr(10)),
            lam(2, 1, 1, 0, mul(2)),
            lam(3, 0, 3, 1, incr(-4)),
        ];
        let run = |order: Vec<usize>| {
            let mut s = two_origins();
            for i in order {
                deliver(&mut s, &msets[i]);
            }
            // Final heartbeats flush the tail.
            beat(&mut s, 0, 2, 100);
            beat(&mut s, 1, 1, 100);
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
            lam(1, 0, 1, 0, incr(10)),
            lam(2, 1, 1, 0, mul(2)),
            lam(3, 0, 3, 1, incr(-4)),
        ];
        let mut s = two_origins();
        let duplicates = msets
            .iter()
            .chain(msets.iter().rev())
            .filter(|m| deliver(&mut s, m).0 == Delivered::Duplicate)
            .count();
        beat(&mut s, 0, 2, 100);
        beat(&mut s, 1, 1, 100);
        assert!(msets.iter().all(|m| s.has_applied(m.et)));
        assert_eq!(duplicates, 3, "the reversed pass was all duplicates");
        assert_eq!(s.snapshot()[&X], Value::Int(16), "(0+10)*2-4");
    }

    #[test]
    fn lamport_query_charges_parked_msets() {
        let mut s = two_origins();
        deliver(&mut s, &lam(1, 0, 5, 0, incr(1)));
        // Not stable (origin 1 silent): parked.
        let out = s.query(&[X], &mut unbounded());
        assert_eq!(out.charged, 1);
        assert_eq!(out.values, vec![Value::Int(0)]);
    }
}

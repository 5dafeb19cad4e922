//! What `deliver` reports is what `deliver` did.
//!
//! A site is the only owner of its hold-back state, and the control
//! core acts on what a site reports — the [`Delivered`] outcome and the
//! list of MSets the delivery applied, in its store's order — emitting
//! its apply / held / duplicate events and its `Applied` reports from
//! that and never probing the site. So for every replica control method
//! the properties below drive one site through a randomized stream
//! (shuffles, ~25 % duplicates, sequence gaps while the shuffle lasts,
//! COMPE decisions racing ahead of their MSets) and check every report
//! against the `has_applied` / `backlog` deltas an observer probing the
//! site around the call would see. For both ORDUP orders the list must
//! also run in ascending order key — a heartbeat's too — since that is
//! the order the store applies in.
//!
//! A site is also the only duplicate guard an MSet meets: the core
//! journals whatever the site does not report as a `Duplicate`. So
//! for every method, once an MSet has been delivered, each later copy
//! must be reported as one and change nothing — COMPE's included,
//! whether its decision came before or after it.
//!
//! The completion-tracking sites (COMMU, RITU, RITU-MV) also *list*
//! what they applied — the core re-announces that list to a new
//! coordinator and keeps no copy — so for them the list is checked
//! after every delivery too: exactly the applied ETs, in ET order,
//! each with its MSet's max version.

use esr_core::ids::{ClientId, EtId, LamportTs, ObjectId, SeqNo, SiteId, VersionTs};
use esr_core::op::{ObjectOp, Operation};
use esr_core::value::Value;
use esr_replica::commu::CommuSite;
use esr_replica::compe::CompeSite;
use esr_replica::mset::MSet;
use esr_replica::ordup::{OrdupLamportSite, OrdupSite};
use esr_replica::ritu::{RituMvSite, RituOverwriteSite};
use esr_replica::ordup::Order;
use esr_replica::site::{Delivered, Released, ReplicaSite};
use proptest::prelude::*;
use std::collections::HashSet;

/// Deterministic generator for stream shaping (splitmix64).
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }

    /// In-place Fisher–Yates shuffle.
    fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i as u64 + 1) as usize);
        }
    }

    /// Appends duplicates of ~25% of the stream's elements at random
    /// positions — redelivery is normal under at-least-once transport
    /// and must be reported as such.
    fn sprinkle_duplicates(&mut self, stream: &mut Vec<MSet>) {
        for _ in 0..stream.len() / 4 {
            let src = self.below(stream.len() as u64) as usize;
            let dup = stream[src].clone();
            let at = self.below(stream.len() as u64 + 1) as usize;
            stream.insert(at, dup);
        }
    }

    /// A mixed op on an integer-valued object: additive and
    /// multiplicative families plus blind overwrites and reads.
    fn int_op(&mut self) -> Operation {
        match self.below(5) {
            0 => Operation::Incr(self.below(9) as i64 - 4),
            1 => Operation::Decr(self.below(5) as i64),
            2 => Operation::MulBy(1 + self.below(3) as i64),
            3 => Operation::Write(Value::Int(self.below(100) as i64)),
            _ => Operation::Read,
        }
    }

    fn int_mset(&mut self, et: u64, objects: u64) -> MSet {
        let ops = (0..1 + self.below(4))
            .map(|_| ObjectOp::new(ObjectId(self.below(objects)), self.int_op()))
            .collect();
        MSet::new(EtId(et), SiteId(9), ops)
    }

    fn tw_mset(&mut self, et: u64, objects: u64) -> MSet {
        let ops = (0..1 + self.below(4))
            .map(|_| {
                ObjectOp::new(
                    ObjectId(self.below(objects)),
                    Operation::TimestampedWrite(
                        VersionTs::new(self.below(40), ClientId(self.below(3))),
                        Value::Int(et as i64),
                    ),
                )
            })
            .collect();
        MSet::new(EtId(et), SiteId(9), ops)
    }
}

/// What one delivery reported: the outcome, and the MSets it applied.
type Report = (Delivered, Vec<Released>);

/// Delivers `m` and checks the report against the observable deltas:
/// the ETs that flipped to applied are exactly the listed ones, the
/// delivered one among them iff `Applied`; the backlog moved by one
/// parked MSet minus the listed parked ones; and a duplicate or
/// suppressed delivery changed nothing.
fn deliver_checked<S: ReplicaSite>(
    site: &mut S,
    m: &MSet,
    all_ets: &[EtId],
) -> Result<Report, proptest::test_runner::TestCaseError> {
    let applied_before: Vec<EtId> =
        all_ets.iter().copied().filter(|et| site.has_applied(*et)).collect();
    let backlog_before = site.backlog();
    let mut applied = Vec::new();
    let d = site.deliver(m, &mut applied);
    let mut newly: Vec<EtId> = all_ets
        .iter()
        .copied()
        .filter(|et| site.has_applied(*et) && !applied_before.contains(et))
        .collect();
    let mut reported: Vec<EtId> = applied.iter().map(|r| r.et).collect();
    prop_assert_eq!(
        reported.contains(&m.et),
        d == Delivered::Applied,
        "{:?} {:?} for {}",
        d,
        applied,
        m
    );
    newly.sort_unstable();
    newly.dedup();
    reported.sort_unstable();
    prop_assert_eq!(&newly, &reported, "{:?} for {}", d, m);
    let parked = usize::from(d == Delivered::Held);
    let released = applied.len() - usize::from(d == Delivered::Applied);
    prop_assert_eq!(
        site.backlog() + released,
        backlog_before + parked,
        "{:?} for {}",
        d,
        m
    );
    if matches!(d, Delivered::Duplicate | Delivered::Suppressed) {
        prop_assert!(applied.is_empty(), "{:?} for {}", d, m);
    }
    Ok((d, applied))
}

/// Checks that `applied` runs in ascending `O` key, each ET's key read
/// off its MSet in `stream`.
fn in_key_order<O: Order>(
    applied: &[Released],
    stream: &[MSet],
) -> Result<(), proptest::test_runner::TestCaseError> {
    let key = |r: &Released| stream.iter().find(|m| m.et == r.et).and_then(O::key);
    let keys: Vec<Option<O>> = applied.iter().map(key).collect();
    prop_assert!(keys.windows(2).all(|w| w[0] < w[1]), "applied out of order: {:?}", keys);
    Ok(())
}

/// [`deliver_checked`] over a whole stream.
fn check_stream<S: ReplicaSite>(
    mut site: S,
    stream: &[MSet],
) -> Result<(), proptest::test_runner::TestCaseError> {
    let all_ets: Vec<EtId> = stream.iter().map(|m| m.et).collect();
    for m in stream {
        deliver_checked(&mut site, m, &all_ets)?;
    }
    Ok(())
}

/// [`check_stream`] for an ORDUP site over order `O`, also checking
/// that each delivery lists its applies in ascending key; then, when
/// `origins` are given (ORDUP-L), a beat from each past every stamp,
/// whose applies must run in ascending key too and leave nothing parked.
fn check_ordered_stream<O: Order, S: ReplicaSite>(
    mut site: S,
    stream: &[MSet],
    origins: &[SiteId],
) -> Result<(), proptest::test_runner::TestCaseError> {
    let all_ets: Vec<EtId> = stream.iter().map(|m| m.et).collect();
    for m in stream {
        let (_, applied) = deliver_checked(&mut site, m, &all_ets)?;
        in_key_order::<O>(&applied, stream)?;
    }
    let mut applied = Vec::new();
    for &origin in origins {
        let sent: HashSet<EtId> =
            stream.iter().filter(|m| m.origin == origin).map(|m| m.et).collect();
        let ts = LamportTs::new(u64::MAX, origin);
        site.heartbeat(origin, SeqNo(sent.len() as u64), ts, &mut applied);
    }
    in_key_order::<O>(&applied, stream)?;
    prop_assert_eq!(site.backlog(), 0, "beats past every stamp release everything");
    Ok(())
}

/// Delivers `m`; if an MSet of its ET was delivered before, checks that
/// the site reports a duplicate and that `state` — everything the site
/// shows — did not move.
fn deliver_again_checked<S: ReplicaSite>(
    site: &mut S,
    m: &MSet,
    delivered: &mut HashSet<EtId>,
    state: &impl Fn(&S) -> String,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let mut applied = Vec::new();
    if delivered.insert(m.et) {
        site.deliver(m, &mut applied);
        return Ok(());
    }
    let before = state(site);
    let d = site.deliver(m, &mut applied);
    prop_assert_eq!((d, applied), (Delivered::Duplicate, vec![]), "again: {}", m);
    prop_assert_eq!(state(site), before, "a redelivery of {} changed the site", m);
    Ok(())
}

/// [`deliver_again_checked`] over a whole stream.
fn check_redeliveries<S: ReplicaSite>(
    mut site: S,
    stream: &[MSet],
    state: impl Fn(&S) -> String,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let mut delivered = HashSet::new();
    for m in stream {
        deliver_again_checked(&mut site, m, &mut delivered, &state)?;
    }
    Ok(())
}

/// What a completion-tracking site lists as applied.
type Applies = Vec<(EtId, Option<VersionTs>)>;

/// Delivers `stream` to `site`, checking each report as
/// [`check_stream`] does and, after every delivery, that `applies`
/// lists exactly the ETs `has_applied` reports, in ET order, each with
/// its MSet's `max_version()`.
fn check_listed_applies<S: ReplicaSite>(
    mut site: S,
    stream: &[MSet],
    applies: fn(&S) -> Applies,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let all_ets: Vec<EtId> = stream.iter().map(|m| m.et).collect();
    for m in stream {
        deliver_checked(&mut site, m, &all_ets)?;
        let mut expected: Applies = stream
            .iter()
            .filter(|m| site.has_applied(m.et))
            .map(|m| (m.et, m.max_version()))
            .collect();
        expected.sort_unstable_by_key(|&(et, _)| et);
        expected.dedup();
        prop_assert_eq!(applies(&site), expected, "after {}", m);
    }
    Ok(())
}

const OBJECTS: u64 = 8;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ordup_delivery_report(seed in 0u64..u64::MAX, n in 1usize..40) {
        let mut g = Gen(seed);
        let mut stream: Vec<MSet> = (0..n as u64)
            .map(|i| g.int_mset(i, OBJECTS).sequenced(SeqNo(i)))
            .collect();
        g.shuffle(&mut stream);
        g.sprinkle_duplicates(&mut stream);
        check_ordered_stream::<SeqNo, _>(OrdupSite::new(SiteId(0)), &stream, &[])?;
    }

    #[test]
    fn ordup_lamport_delivery_report(seed in 0u64..u64::MAX, n in 1usize..20) {
        let mut g = Gen(seed);
        let origins = [SiteId(0), SiteId(1)];
        // Each origin emits a FIFO run with strictly increasing Lamport
        // timestamps; interleaving across origins is then shuffled.
        let mut stream: Vec<MSet> = Vec::new();
        for (o, &origin) in origins.iter().enumerate() {
            for f in 0..n as u64 {
                let et = (o as u64) * 10_000 + f;
                let ts = LamportTs::new(1 + f * 2 + g.below(2), origin);
                let mut m = g.int_mset(et, OBJECTS);
                m.origin = origin;
                stream.push(m.lamport(ts, SeqNo(f)));
            }
        }
        g.shuffle(&mut stream);
        g.sprinkle_duplicates(&mut stream);
        let site = OrdupLamportSite::new(SiteId(7), origins.to_vec());
        check_ordered_stream::<LamportTs, _>(site, &stream, &origins)?;
    }

    #[test]
    fn commu_delivery_report(seed in 0u64..u64::MAX, n in 1usize..40) {
        let mut g = Gen(seed);
        let mut stream: Vec<MSet> = (0..n as u64).map(|i| g.int_mset(i, OBJECTS)).collect();
        g.shuffle(&mut stream);
        g.sprinkle_duplicates(&mut stream);
        check_stream(CommuSite::new(SiteId(0)), &stream)?;
    }

    #[test]
    fn ritu_lww_delivery_report(seed in 0u64..u64::MAX, n in 1usize..40) {
        let mut g = Gen(seed);
        let mut stream: Vec<MSet> = (0..n as u64).map(|i| g.tw_mset(i, OBJECTS)).collect();
        g.shuffle(&mut stream);
        g.sprinkle_duplicates(&mut stream);
        check_stream(RituOverwriteSite::new(SiteId(0)), &stream)?;
    }

    #[test]
    fn ritu_mv_delivery_report(seed in 0u64..u64::MAX, n in 1usize..40) {
        let mut g = Gen(seed);
        let mut stream: Vec<MSet> = (0..n as u64).map(|i| g.tw_mset(i, OBJECTS)).collect();
        g.shuffle(&mut stream);
        g.sprinkle_duplicates(&mut stream);
        check_stream(RituMvSite::new(SiteId(0)), &stream)?;
    }

    #[test]
    fn listed_applies_are_the_applied_ets(seed in 0u64..u64::MAX, n in 1usize..40) {
        let mut g = Gen(seed);
        let mut incrs: Vec<MSet> = (0..n as u64).map(|i| g.int_mset(i, OBJECTS)).collect();
        let mut writes: Vec<MSet> = (0..n as u64).map(|i| g.tw_mset(i, OBJECTS)).collect();
        for stream in [&mut incrs, &mut writes] {
            g.shuffle(stream);
            g.sprinkle_duplicates(stream);
        }
        check_listed_applies(CommuSite::new(SiteId(0)), &incrs, CommuSite::applies)?;
        check_listed_applies(RituOverwriteSite::new(SiteId(0)), &writes, RituOverwriteSite::applies)?;
        check_listed_applies(RituMvSite::new(SiteId(0)), &writes, RituMvSite::applies)?;
    }

    /// Every method reports each later copy of a delivered MSet as a
    /// duplicate and leaves its state alone: over shuffled streams
    /// with ~25 % duplicates, and for COMPE with commit and abort
    /// decisions landing before and after their MSets.
    #[test]
    fn every_redelivery_is_a_duplicate(seed in 0u64..u64::MAX, n in 1usize..30) {
        let mut g = Gen(seed);
        let stream = |g: &mut Gen, mset: &dyn Fn(&mut Gen, u64) -> MSet| {
            let mut s: Vec<MSet> = (0..n as u64).map(|i| mset(g, i)).collect();
            g.shuffle(&mut s);
            g.sprinkle_duplicates(&mut s);
            s
        };
        let seq = stream(&mut g, &|g, i| g.int_mset(i, OBJECTS).sequenced(SeqNo(i)));
        check_redeliveries(OrdupSite::new(SiteId(0)), &seq, |s| format!("{:?}", s.to_ckpt()))?;
        let origins = [SiteId(0), SiteId(1)];
        let lamport = stream(&mut g, &|g, i| {
            let origin = origins[(i % 2) as usize];
            let mut m = g.int_mset(i, OBJECTS);
            m.origin = origin;
            m.lamport(LamportTs::new(1 + i, origin), SeqNo(i / 2))
        });
        check_redeliveries(OrdupLamportSite::new(SiteId(7), origins.to_vec()), &lamport, |s| {
            format!("{:?}", s.to_ckpt())
        })?;
        let incrs = stream(&mut g, &|g, i| g.int_mset(i, OBJECTS));
        check_redeliveries(CommuSite::new(SiteId(0)), &incrs, |s| format!("{:?}", s.to_ckpt()))?;
        let writes = stream(&mut g, &|g, i| g.tw_mset(i, OBJECTS));
        check_redeliveries(RituOverwriteSite::new(SiteId(0)), &writes, |s| {
            format!("{:?}", s.to_ckpt())
        })?;
        check_redeliveries(RituMvSite::new(SiteId(0)), &writes, |s| format!("{:?}", s.to_ckpt()))?;
        // COMPE: each ET's decision, if it gets one, lands at a random
        // point of the stream — before its MSet or after it.
        let mut decisions: Vec<(usize, EtId, bool)> = Vec::new();
        for i in 0..n as u64 {
            if g.below(4) != 0 {
                let at = g.below(incrs.len() as u64) as usize;
                decisions.push((at, EtId(i), g.below(2) == 0));
            }
        }
        let mut site = CompeSite::new(SiteId(0));
        let mut delivered = HashSet::new();
        let state = |s: &CompeSite| format!("{:?}", s.to_ckpt());
        for (i, m) in incrs.iter().enumerate() {
            for &(_, et, commit) in decisions.iter().filter(|&&(at, _, _)| at == i) {
                if commit {
                    site.commit(et);
                } else {
                    site.abort(et);
                }
            }
            deliver_again_checked(&mut site, m, &mut delivered, &state)?;
        }
    }

    #[test]
    fn compe_delivery_report(seed in 0u64..u64::MAX, n in 1usize..30) {
        let mut g = Gen(seed);
        let mut stream: Vec<MSet> = (0..n as u64).map(|i| g.int_mset(i, OBJECTS)).collect();
        g.shuffle(&mut stream);
        g.sprinkle_duplicates(&mut stream);
        let all_ets: Vec<EtId> = (0..n as u64).map(EtId).collect();
        let mut site = CompeSite::new(SiteId(0));
        // Some commit notices race ahead of their MSets: those apply
        // directly as committed state. Some aborts do too: those MSets
        // are suppressed for good, never applied on redelivery.
        let mut aborted_early = Vec::new();
        for i in 0..n as u64 {
            match g.below(10) {
                0 | 1 => site.commit(EtId(i)),
                2 => {
                    site.abort(EtId(i));
                    aborted_early.push(EtId(i));
                }
                _ => {}
            }
        }
        let mut delivered = HashSet::new();
        for m in &stream {
            let (d, _) = deliver_checked(&mut site, m, &all_ets)?;
            let first = delivered.insert(m.et);
            prop_assert_eq!(
                d == Delivered::Suppressed,
                first && aborted_early.contains(&m.et)
            );
        }
        // Resolve every ET: nothing stays at risk.
        for i in 0..n as u64 {
            if g.below(3) == 0 {
                site.abort(EtId(i));
            } else {
                site.commit(EtId(i));
            }
        }
        prop_assert_eq!(site.at_risk(), 0);
    }
}

//! The method-dispatched site state machine shared by every executor.
//!
//! [`SiteState`] wraps one of the replica-control site implementations
//! behind a uniform surface; the control core
//! ([`crate::ctrl::NodeCore`]) owns one and is the only code that
//! drives it, whichever executor — the simulator
//! ([`crate::cluster::SimCluster`]), the networked daemon of
//! `esr-runtime`, the model checker — runs the core.

use std::collections::BTreeMap;

use esr_core::divergence::InconsistencyCounter;
use esr_core::ids::{EtId, LamportTs, ObjectId, SiteId, VersionTs};
use esr_core::op::Operation;
use esr_core::value::Value;

use crate::ckpt::SiteCkpt;
use crate::commu::CommuSite;
use crate::compe::CompeSite;
use crate::mset::{MSet, OrderTag};
use crate::ordup::{OrdupLamportSite, OrdupSite};
use crate::ritu::{RituMvSite, RituOverwriteSite};
use crate::site::{Delivery, QueryOutcome, Released, ReplicaSite, SiteReadings};

/// Replica control methods available in the runtimes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RtMethod {
    /// ORDUP with an atomic global sequencer.
    Ordup,
    /// Commutative operations.
    Commu,
    /// RITU last-writer-wins overwrite.
    Ritu,
    /// RITU multiversion with VTNC visibility: the coordinator site
    /// acts as the certifier, advancing the horizon once a version is
    /// installed at every replica.
    RituMv,
    /// Compensation-based backward control (commit/abort driven by the
    /// client).
    Compe,
}

impl RtMethod {
    /// All five methods, for parameterized tests and harnesses.
    pub const ALL: [RtMethod; 5] = [
        RtMethod::Ordup,
        RtMethod::Commu,
        RtMethod::Ritu,
        RtMethod::RituMv,
        RtMethod::Compe,
    ];

    /// The lowercase CLI name (`esrd --method <name>`).
    pub fn name(self) -> &'static str {
        match self {
            RtMethod::Ordup => "ordup",
            RtMethod::Commu => "commu",
            RtMethod::Ritu => "ritu",
            RtMethod::RituMv => "ritu-mv",
            RtMethod::Compe => "compe",
        }
    }

    /// Parses a CLI name produced by [`RtMethod::name`].
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|m| m.name() == s)
    }

    /// Does this method use the completion/certification control plane
    /// (per-ET applies tracked, completion or VTNC broadcasts issued)?
    pub fn tracks_completion(self) -> bool {
        matches!(self, RtMethod::Commu | RtMethod::Ritu | RtMethod::RituMv)
    }
}

/// One site's protocol state machine, dispatching over the method.
#[derive(Debug)]
pub enum SiteState {
    /// ORDUP site.
    Ordup(OrdupSite),
    /// ORDUP site ordering by Lamport timestamps instead of a sequencer
    /// — the simulator's distributed variant. It rides
    /// [`RtMethod::Ordup`] through the core (same hold-back contract,
    /// no completion plane) and has no checkpoint image.
    OrdupLamport(OrdupLamportSite),
    /// COMMU site.
    Commu(CommuSite),
    /// RITU last-writer-wins site.
    Ritu(RituOverwriteSite),
    /// RITU multiversion site.
    RituMv(RituMvSite),
    /// COMPE site.
    Compe(CompeSite),
}

impl SiteState {
    /// A fresh site running `method`.
    pub fn new(method: RtMethod, id: SiteId) -> Self {
        match method {
            RtMethod::Ordup => SiteState::Ordup(OrdupSite::new(id)),
            RtMethod::Commu => SiteState::Commu(CommuSite::new(id)),
            RtMethod::Ritu => SiteState::Ritu(RituOverwriteSite::new(id)),
            RtMethod::RituMv => SiteState::RituMv(RituMvSite::new(id)),
            RtMethod::Compe => SiteState::Compe(CompeSite::new(id)),
        }
    }

    /// A fresh ORDUP site ordering the updates of `origins` by Lamport
    /// timestamp.
    pub fn ordup_lamport(id: SiteId, origins: Vec<SiteId>) -> Self {
        SiteState::OrdupLamport(OrdupLamportSite::new(id, origins))
    }

    /// Dumps the method state machine into a checkpoint image (`None`
    /// for the Lamport site, which has none).
    pub fn to_ckpt(&self) -> Option<SiteCkpt> {
        Some(match self {
            SiteState::Ordup(s) => SiteCkpt::Ordup(s.to_ckpt()),
            SiteState::OrdupLamport(_) => return None,
            SiteState::Commu(s) => SiteCkpt::Commu(s.to_ckpt()),
            SiteState::Ritu(s) => SiteCkpt::Ritu(s.to_ckpt()),
            SiteState::RituMv(s) => SiteCkpt::RituMv(s.to_ckpt()),
            SiteState::Compe(s) => SiteCkpt::Compe(s.to_ckpt()),
        })
    }

    /// Rebuilds a site from a checkpoint image. The variant fixes the
    /// method.
    pub fn from_ckpt(id: SiteId, c: SiteCkpt) -> Self {
        match c {
            SiteCkpt::Ordup(c) => SiteState::Ordup(OrdupSite::from_ckpt(id, c)),
            SiteCkpt::Commu(c) => SiteState::Commu(CommuSite::from_ckpt(id, c)),
            SiteCkpt::Ritu(c) => SiteState::Ritu(RituOverwriteSite::from_ckpt(id, c)),
            SiteCkpt::RituMv(c) => SiteState::RituMv(RituMvSite::from_ckpt(id, c)),
            SiteCkpt::Compe(c) => SiteState::Compe(CompeSite::from_ckpt(id, c)),
        }
    }

    /// Delivers one MSet (idempotent under redelivery) and reports what
    /// the site did with it — the only way an MSet reaches a store.
    pub fn deliver(&mut self, mset: MSet) -> Delivery {
        match self {
            SiteState::Ordup(s) => s.deliver(mset),
            SiteState::OrdupLamport(s) => s.deliver(mset),
            SiteState::Commu(s) => s.deliver(mset),
            SiteState::Ritu(s) => s.deliver(mset),
            SiteState::RituMv(s) => s.deliver(mset),
            SiteState::Compe(s) => s.deliver(mset),
        }
    }

    /// Does `mset` have the shape this method's [`SiteState::deliver`]
    /// takes? ORDUP needs a sequencer stamp, ORDUP-L a Lamport stamp,
    /// RITU / RITU-MV carry only timestamped writes (and reads);
    /// `deliver` panics on anything else. An MSet from outside the
    /// program — a client `Submit`, a peer frame — is checked with this
    /// where it enters, before the core is stepped.
    pub fn accepts(&self, mset: &MSet) -> bool {
        match self {
            SiteState::Ordup(_) => matches!(mset.order, OrderTag::Sequenced(_)),
            SiteState::OrdupLamport(_) => matches!(mset.order, OrderTag::Lamport { .. }),
            SiteState::Ritu(_) | SiteState::RituMv(_) => mset
                .ops
                .iter()
                .all(|o| matches!(o.op, Operation::TimestampedWrite(..) | Operation::Read)),
            SiteState::Commu(_) | SiteState::Compe(_) => true,
        }
    }

    /// An ORDUP-L heartbeat from `origin` at `ts` (a no-op for the
    /// other methods): returns the parked MSets it released, in apply
    /// order.
    pub fn heartbeat(&mut self, origin: SiteId, ts: LamportTs) -> Vec<Released> {
        match self {
            SiteState::OrdupLamport(s) => s.heartbeat(origin, ts),
            _ => Vec::new(),
        }
    }

    /// `deliver` per MSet, in order. Exists only because esrbench's
    /// probe (`benchmark/src/probe.rs`, a pinned surface) calls it to
    /// fill `replica.site.deliver_batch_ns`; it leaves with that metric.
    pub fn deliver_batch(&mut self, msets: Vec<MSet>) {
        for m in msets {
            self.deliver(m);
        }
    }

    /// Runs a query ET against the local replica under `c`'s budget.
    pub fn query(&mut self, rs: &[ObjectId], c: &mut InconsistencyCounter) -> QueryOutcome {
        match self {
            SiteState::Ordup(s) => s.query(rs, c),
            SiteState::OrdupLamport(s) => s.query(rs, c),
            SiteState::Commu(s) => s.query(rs, c),
            SiteState::Ritu(s) => s.query(rs, c),
            SiteState::RituMv(s) => s.query(rs, c),
            SiteState::Compe(s) => s.query(rs, c),
        }
    }

    /// The full replica snapshot.
    pub fn snapshot(&self) -> BTreeMap<ObjectId, Value> {
        match self {
            SiteState::Ordup(s) => s.snapshot(),
            SiteState::OrdupLamport(s) => s.snapshot(),
            SiteState::Commu(s) => s.snapshot(),
            SiteState::Ritu(s) => s.snapshot(),
            SiteState::RituMv(s) => s.snapshot(),
            SiteState::Compe(s) => s.snapshot(),
        }
    }

    /// MSets delivered but not yet applied (hold-back queues).
    pub fn backlog(&self) -> usize {
        match self {
            SiteState::Ordup(s) => s.backlog(),
            SiteState::OrdupLamport(s) => s.backlog(),
            SiteState::Commu(s) => s.backlog(),
            SiteState::Ritu(s) => s.backlog(),
            SiteState::RituMv(s) => s.backlog(),
            SiteState::Compe(s) => s.backlog(),
        }
    }

    /// Is this site settled (nothing held back, nothing at risk, no
    /// update still holding a lock-counter)?
    pub fn settled(&self) -> bool {
        match self {
            SiteState::Commu(s) => s.quiescent(),
            SiteState::Ritu(s) => s.quiescent(),
            SiteState::Compe(s) => s.at_risk() == 0,
            _ => self.backlog() == 0,
        }
    }

    /// Has this site applied `et`?
    pub fn has_applied(&self, et: EtId) -> bool {
        match self {
            SiteState::Ordup(s) => s.has_applied(et),
            SiteState::OrdupLamport(s) => s.has_applied(et),
            SiteState::Commu(s) => s.has_applied(et),
            SiteState::Ritu(s) => s.has_applied(et),
            SiteState::RituMv(s) => s.has_applied(et),
            SiteState::Compe(s) => s.has_applied(et),
        }
    }

    /// What the replica applied, in ET order, each ET with its MSet's
    /// max version — kept by the completion-tracking methods
    /// ([`RtMethod::tracks_completion`]), empty for the others. The
    /// control core re-announces these to a new coordinator; it keeps
    /// no copy of its own.
    pub fn applies(&self) -> Vec<(EtId, Option<VersionTs>)> {
        match self {
            SiteState::Commu(s) => s.applies(),
            SiteState::Ritu(s) => s.applies(),
            SiteState::RituMv(s) => s.applies(),
            _ => Vec::new(),
        }
    }

    /// What this site holds that a scrape publishes as gauges — the one
    /// place an executor reads them from.
    pub fn readings(&self) -> SiteReadings {
        let mut r = SiteReadings {
            backlog: self.backlog() as u64,
            ..SiteReadings::default()
        };
        match self {
            SiteState::Ordup(_) | SiteState::OrdupLamport(_) => {}
            SiteState::Commu(s) => r.lock_counter_high_water = s.lock_counter_high_water(),
            SiteState::Ritu(s) => r.lock_counter_high_water = s.lock_counter_high_water(),
            SiteState::RituMv(s) => {
                r.vtnc_time = s.vtnc().time;
                r.vtnc_lag = s.vtnc_lag();
            }
            SiteState::Compe(s) => {
                r.at_risk = s.at_risk() as u64;
                r.compensations = s.compensations();
            }
        }
        r
    }

    /// Completion notice: every site has applied `et` (releases the
    /// COMMU/RITU lock-counters; a no-op for the other methods).
    pub fn complete(&mut self, et: EtId) {
        match self {
            SiteState::Commu(s) => s.complete(et),
            SiteState::Ritu(s) => s.complete(et),
            _ => {}
        }
    }

    /// VTNC certificate: advances the RITU-MV visibility horizon (a
    /// no-op for the other methods; monotone, so replays are harmless).
    pub fn advance_vtnc(&mut self, ts: VersionTs) {
        if let SiteState::RituMv(s) = self {
            s.advance_vtnc(ts);
        }
    }

    /// COMPE commit decision (no-op for the other methods).
    pub fn commit(&mut self, et: EtId) {
        if let SiteState::Compe(s) = self {
            s.commit(et);
        }
    }

    /// COMPE abort decision (no-op for the other methods).
    pub fn abort(&mut self, et: EtId) {
        if let SiteState::Compe(s) = self {
            let _ = s.abort(et);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esr_core::ids::{ClientId, LamportTs, SeqNo};
    use esr_core::op::ObjectOp;

    /// Whatever [`SiteState::accepts`] lets through, `deliver` takes
    /// without panicking on its shape — for every method, over every
    /// order tag crossed with a plain and a timestamped write.
    #[test]
    fn accepts_admits_exactly_the_shapes_deliver_takes() {
        let origins = vec![SiteId(0), SiteId(1)];
        let sites = || {
            let mut all: Vec<SiteState> =
                RtMethod::ALL.iter().map(|&m| SiteState::new(m, SiteId(0))).collect();
            all.push(SiteState::ordup_lamport(SiteId(0), origins.clone()));
            all
        };
        let ops = [
            Operation::Incr(1),
            Operation::TimestampedWrite(VersionTs::new(1, ClientId(0)), Value::Int(1)),
        ];
        let tags: [fn(MSet) -> MSet; 3] = [
            |m| m,
            |m| m.sequenced(SeqNo(0)),
            |m| m.lamport(LamportTs::new(1, SiteId(1)), SeqNo(0)),
        ];
        let mut accepted = 0;
        for op in &ops {
            for tag in tags {
                let write = ObjectOp::new(ObjectId(0), op.clone());
                let read = ObjectOp::new(ObjectId(1), Operation::Read);
                let mset = tag(MSet::new(EtId(1), SiteId(1), vec![write, read]));
                for mut site in sites() {
                    if site.accepts(&mset) {
                        site.deliver(mset.clone());
                        accepted += 1;
                    }
                }
            }
        }
        // COMMU and COMPE take all six; ORDUP and ORDUP-L their tag
        // (two ops each); RITU and RITU-MV the timestamped write under
        // any tag.
        assert_eq!(accepted, 2 * 6 + 2 * 2 + 2 * 3);
    }

    /// A lock-counter site is settled only once every update it applied
    /// has completed — for RITU as for COMMU, so a lost RITU completion
    /// shows at quiescence.
    #[test]
    fn lock_counter_sites_settle_on_completion() {
        let write = Operation::TimestampedWrite(VersionTs::new(1, ClientId(0)), Value::Int(1));
        let mset = MSet::new(EtId(1), SiteId(1), vec![ObjectOp::new(ObjectId(0), write)]);
        for method in [RtMethod::Commu, RtMethod::Ritu] {
            let mut site = SiteState::new(method, SiteId(0));
            assert!(site.settled(), "{method:?} fresh");
            site.deliver(mset.clone());
            assert!(
                !site.settled(),
                "{method:?} with ET1 applied but not completed"
            );
            site.complete(EtId(1));
            assert!(site.settled(), "{method:?} after ET1's completion");
        }
    }
}

//! The method-dispatched site state machine shared by every executor.
//!
//! [`SiteState`] holds one of the replica-control site implementations;
//! what a site does is its [`ReplicaSite`] impl, reached through the
//! enum's `site()` / `site_mut()`. The enum itself only
//! builds a site, dumps and restores its checkpoint image, and forwards
//! the few calls esrbench's probe makes on it. The control core
//! ([`crate::ctrl::NodeCore`]) owns one and is the only code that
//! drives it, whichever executor — the simulator
//! ([`crate::cluster::SimCluster`]), the networked daemon of
//! `esr-runtime`, the model checker — runs the core.

use std::collections::BTreeMap;

use esr_core::divergence::InconsistencyCounter;
use esr_core::ids::{ObjectId, SiteId};
use esr_core::value::Value;

use crate::ckpt::SiteCkpt;
use crate::commu::CommuSite;
use crate::compe::CompeSite;
use crate::mset::MSet;
use crate::ordup::{OrdupLamportSite, OrdupSite};
use crate::ritu::{RituMvSite, RituOverwriteSite};
use crate::site::{Delivered, QueryOutcome, ReplicaSite};

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
    /// no completion plane).
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

    /// Dumps the method state machine into a checkpoint image.
    pub fn to_ckpt(&self) -> SiteCkpt {
        match self {
            SiteState::Ordup(s) => SiteCkpt::Ordup(s.to_ckpt()),
            SiteState::OrdupLamport(s) => SiteCkpt::OrdupLamport(s.to_ckpt()),
            SiteState::Commu(s) => SiteCkpt::Commu(s.to_ckpt()),
            SiteState::Ritu(s) => SiteCkpt::Ritu(s.to_ckpt()),
            SiteState::RituMv(s) => SiteCkpt::RituMv(s.to_ckpt()),
            SiteState::Compe(s) => SiteCkpt::Compe(s.to_ckpt()),
        }
    }

    /// Rebuilds a site from a checkpoint image. The variant fixes the
    /// method.
    pub fn from_ckpt(id: SiteId, c: SiteCkpt) -> Self {
        match c {
            SiteCkpt::Ordup(c) => SiteState::Ordup(OrdupSite::from_ckpt(id, c)),
            SiteCkpt::OrdupLamport(c) => {
                SiteState::OrdupLamport(OrdupLamportSite::from_ckpt(id, c))
            }
            SiteCkpt::Commu(c) => SiteState::Commu(CommuSite::from_ckpt(id, c)),
            SiteCkpt::Ritu(c) => SiteState::Ritu(RituOverwriteSite::from_ckpt(id, c)),
            SiteCkpt::RituMv(c) => SiteState::RituMv(RituMvSite::from_ckpt(id, c)),
            SiteCkpt::Compe(c) => SiteState::Compe(CompeSite::from_ckpt(id, c)),
        }
    }

    /// The method's site.
    pub fn site(&self) -> &dyn ReplicaSite {
        match self {
            SiteState::Ordup(s) => s,
            SiteState::OrdupLamport(s) => s,
            SiteState::Commu(s) => s,
            SiteState::Ritu(s) => s,
            SiteState::RituMv(s) => s,
            SiteState::Compe(s) => s,
        }
    }

    /// The method's site, to drive.
    pub fn site_mut(&mut self) -> &mut dyn ReplicaSite {
        match self {
            SiteState::Ordup(s) => s,
            SiteState::OrdupLamport(s) => s,
            SiteState::Commu(s) => s,
            SiteState::Ritu(s) => s,
            SiteState::RituMv(s) => s,
            SiteState::Compe(s) => s,
        }
    }

    // Forwarders for the calls esrbench's probe
    // (`benchmark/src/probe.rs`) makes without importing `ReplicaSite`.

    /// [`ReplicaSite::deliver`]: the only way an MSet reaches a store,
    /// for a caller that keeps no list of what it applied. It takes the
    /// MSet by value only because the probe's call is pinned; the site
    /// is lent it.
    pub fn deliver(&mut self, mset: MSet) -> Delivered {
        self.site_mut().deliver(&mset, &mut Vec::new())
    }

    /// `deliver` per MSet, in order. Exists only because esrbench's
    /// probe calls it to fill `replica.site.deliver_batch_ns`; it leaves
    /// with that metric.
    pub fn deliver_batch(&mut self, msets: Vec<MSet>) {
        let (site, mut applied) = (self.site_mut(), Vec::new());
        for m in &msets {
            applied.clear();
            site.deliver(m, &mut applied);
        }
    }

    /// [`ReplicaSite::query`].
    pub fn query(&mut self, rs: &[ObjectId], c: &mut InconsistencyCounter) -> QueryOutcome {
        self.site_mut().query(rs, c)
    }

    /// [`ReplicaSite::snapshot`].
    pub fn snapshot(&self) -> BTreeMap<ObjectId, Value> {
        self.site().snapshot()
    }

    /// [`ReplicaSite::settled`].
    pub fn settled(&self) -> bool {
        self.site().settled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esr_core::ids::{ClientId, EtId, LamportTs, SeqNo, VersionTs};
    use esr_core::op::{ObjectOp, Operation};

    /// A fresh site of every method, ORDUP-L (origins 0 and 1) last.
    fn sites() -> Vec<SiteState> {
        let mut all: Vec<SiteState> = RtMethod::ALL
            .iter()
            .map(|&m| SiteState::new(m, SiteId(0)))
            .collect();
        let origins = vec![SiteId(0), SiteId(1)];
        all.push(SiteState::ordup_lamport(SiteId(0), origins));
        all
    }

    /// Whatever [`ReplicaSite::accepts`] lets through, `deliver` takes
    /// without panicking on its shape — for every method, over every
    /// order tag crossed with a plain and a timestamped write.
    #[test]
    fn accepts_admits_exactly_the_shapes_deliver_takes() {
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
                    if site.site().accepts(&mset) {
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
            site.site_mut().complete(EtId(1));
            assert!(site.settled(), "{method:?} after ET1's completion");
        }
    }

    /// A control input the method does not own leaves its site as it
    /// was — snapshot, readings, settledness and applies — with an
    /// update in hand (parked, at risk, above the VTNC or holding a
    /// lock-counter): the trait's default hooks change nothing.
    #[test]
    fn control_inputs_a_method_does_not_own_change_nothing() {
        type Input = fn(&mut dyn ReplicaSite);
        let inputs: [(&str, Input); 5] = [
            ("complete", |s| s.complete(EtId(1))),
            ("advance_vtnc", |s| {
                s.advance_vtnc(VersionTs::new(9, ClientId(0)))
            }),
            ("commit", |s| s.commit(EtId(1))),
            ("abort", |s| s.abort(EtId(1))),
            ("heartbeat", |s| {
                s.heartbeat(SiteId(0), SeqNo(0), LamportTs::new(9, SiteId(0)), &mut Vec::new());
            }),
        ];
        let owns = |site: &SiteState, input: &str| match site {
            SiteState::Ordup(_) => false,
            SiteState::OrdupLamport(_) => input == "heartbeat",
            SiteState::Commu(_) | SiteState::Ritu(_) => input == "complete",
            SiteState::RituMv(_) => input == "advance_vtnc",
            SiteState::Compe(_) => input == "commit" || input == "abort",
        };
        let write = Operation::TimestampedWrite(VersionTs::new(1, ClientId(0)), Value::Int(1));
        let update = MSet::new(EtId(1), SiteId(1), vec![ObjectOp::new(ObjectId(0), write)]);
        // Untagged, then ORDUP's and ORDUP-L's: each sequenced or
        // stamped past what the site can apply yet.
        let shapes = [
            update.clone(),
            update.clone().sequenced(SeqNo(1)),
            update.lamport(LamportTs::new(1, SiteId(1)), SeqNo(0)),
        ];
        let mut skipped = 0;
        for (name, input) in inputs {
            for mut site in sites() {
                let mset = shapes.iter().find(|m| site.site().accepts(m));
                site.deliver(mset.cloned().expect("every site takes one shape"));
                if owns(&site, name) {
                    skipped += 1;
                    continue;
                }
                let seen = |s: &SiteState| {
                    let site = s.site();
                    (
                        site.snapshot(),
                        site.readings(),
                        site.settled(),
                        site.applies(),
                    )
                };
                let before = seen(&site);
                input(site.site_mut());
                assert_eq!(seen(&site), before, "{name} changed {site:?}");
            }
        }
        assert_eq!(skipped, 6, "each owned input is one site's");
    }
}

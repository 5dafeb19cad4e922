//! The per-site replica control interface.
//!
//! Each replica control method implements [`ReplicaSite`], the one list
//! of what a site does: how it handles a delivered MSet ("MSet
//! processing"), how it serves query ETs, what it does with each control
//! input — a completion notice, a VTNC certificate, a COMPE decision, an
//! ORDUP-L heartbeat — and when it considers itself caught up. A hook a
//! method does not own has a no-op or neutral default, so each impl lists
//! only its method's rules. The control core ([`crate::ctrl::NodeCore`])
//! drives the site: it owns delivery timing ("MSet delivery") and hands
//! the site each control input as it is decided.
//!
//! A site is *lent* each MSet it is delivered: the accepted MSet's one
//! owned copy is the core's journal record ([`crate::ctrl::Effect::Journal`]),
//! and a site copies only what it keeps — ORDUP's parked MSets; every
//! other method applies the MSet in place and keeps none of it.
//!
//! A site is the only owner of its hold-back state, so it *reports*
//! what a delivery did ([`Delivered`]) and lists every MSet it applied
//! ([`Released`]), in the order its store applied them, instead of being
//! probed for it: the control core ([`crate::ctrl::NodeCore`]) emits its
//! apply / held / duplicate events and its `Applied` reports from that
//! report and keeps no shadow of the hold-back queue.

use std::collections::BTreeMap;

use esr_core::divergence::InconsistencyCounter;
use esr_core::fastid::FastIdMap;
use esr_core::ids::{EtId, LamportTs, ObjectId, SeqNo, SiteId, VersionTs};
use esr_core::value::Value;

use crate::mset::MSet;

/// The result of serving a query ET at one site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryOutcome {
    /// Values read, in read-set order. Empty when the query was not
    /// admitted.
    pub values: Vec<Value>,
    /// Inconsistency units charged to the query's counter.
    pub charged: u64,
    /// `false` when the query's epsilon budget could not absorb the
    /// charge: nothing was read or charged, and the caller must fall
    /// back to a synchronous path (wait and retry).
    pub admitted: bool,
}

impl QueryOutcome {
    /// A rejected query: budget exhausted, nothing read.
    pub fn rejected() -> Self {
        Self {
            values: Vec::new(),
            charged: 0,
            admitted: false,
        }
    }

    /// The one admission rule of a query that prices itself before it
    /// reads: charges `charge` to `counter` and, if the budget absorbs
    /// it, reads; otherwise nothing is read or charged.
    pub fn admit(
        counter: &mut InconsistencyCounter,
        charge: u64,
        read: impl FnOnce() -> Vec<Value>,
    ) -> Self {
        if !counter.charge(charge).is_admitted() {
            return Self::rejected();
        }
        Self {
            values: read(),
            charged: charge,
            admitted: true,
        }
    }
}

/// What a site did with the MSet it was just handed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivered {
    /// Applied to the store (optimistically, under COMPE), at its place
    /// in the delivery's list of applies.
    Applied,
    /// Parked behind an ordering gap (ORDUP hold-back).
    Held,
    /// A redelivery of an MSet already applied or parked here; absorbed.
    Duplicate,
    /// Dropped for good: its COMPE abort arrived first.
    Suppressed,
}

/// One MSet a site applied, with what the control core needs to trace
/// and report the apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Released {
    /// The applied update ET.
    pub et: EtId,
    /// Its ORDUP global sequence number, if it carries one.
    pub seq: Option<SeqNo>,
    /// Its max timestamped-write version.
    pub version: Option<VersionTs>,
}

impl Released {
    /// The apply record of `mset`.
    pub fn of(mset: &MSet) -> Self {
        Self {
            et: mset.et,
            seq: mset.gseq(),
            version: mset.max_version(),
        }
    }
}

/// A completion-tracking site's applies, each ET with its MSet's max
/// version, in ET order — the one record of what the replica applied,
/// which the control core re-announces and the checkpoint image keeps.
pub(crate) fn sorted_applies(
    applied: &FastIdMap<EtId, Option<VersionTs>>,
) -> Vec<(EtId, Option<VersionTs>)> {
    let mut applies: Vec<_> = applied.iter().map(|(&et, &v)| (et, v)).collect();
    applies.sort_unstable_by_key(|&(et, _)| et);
    applies
}

/// The quantities a site holds that an executor publishes as gauges
/// when its registry is read — what is pending, what compensation has
/// cost, how high the lock-counters went, where visibility stands.
/// All zero for a method the field does not apply to.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SiteReadings {
    /// Delivered-but-unapplied MSets ([`ReplicaSite::backlog`]).
    pub backlog: u64,
    /// COMPE: applied-but-undecided MSets.
    pub at_risk: u64,
    /// COMPE: aborts compensated so far.
    pub compensations: u64,
    /// COMMU / RITU overwrite: the highest per-object lock-counter seen.
    pub lock_counter_high_water: u64,
    /// RITU-MV: the certified VTNC horizon.
    pub vtnc_time: u64,
    /// RITU-MV: newest locally installed version time minus the horizon.
    pub vtnc_lag: u64,
}

/// One site's replica control state machine.
pub trait ReplicaSite {
    /// Handles one delivered update MSet. The site may apply it
    /// immediately, hold it back for ordering, or apply it optimistically
    /// pending commit. Duplicate deliveries must be idempotent. The
    /// return value says which of those happened to `mset`; every MSet
    /// the delivery applied — `mset` itself, parked ones it released —
    /// is appended to `applied` in the order the store applied them.
    ///
    /// This is the method's one apply rule: every executor (esrd, the
    /// simulator, the model) reaches a store only through it, one MSet
    /// at a time. The MSet is lent: a site that keeps it (a parked
    /// ORDUP MSet) copies it, any other reads it in place.
    fn deliver(&mut self, mset: &MSet, applied: &mut Vec<Released>) -> Delivered;

    /// Does `mset` have the shape [`ReplicaSite::deliver`] takes?
    /// `deliver` panics on anything else, so an MSet from outside the
    /// program — a client `Submit`, a peer frame — is checked with this
    /// where it enters, before the core is stepped.
    fn accepts(&self, _mset: &MSet) -> bool {
        true
    }

    /// Serves a query ET over `read_set`, charging imported inconsistency
    /// to `counter`. A site that cannot serve the query within the
    /// remaining budget returns [`QueryOutcome::rejected`] without
    /// charging.
    fn query(&mut self, read_set: &[ObjectId], counter: &mut InconsistencyCounter)
        -> QueryOutcome;

    /// Has the MSet of `et` been fully applied to this replica's store?
    /// (Held-back and suppressed MSets answer `false`.)
    fn has_applied(&self, et: EtId) -> bool;

    /// The values this replica would expose if queried for everything —
    /// used for convergence checks between replicas at quiescence.
    fn snapshot(&self) -> BTreeMap<ObjectId, Value>;

    /// Number of delivered-but-unapplied MSets held at this site (ORDUP
    /// hold-back; COMPE at-risk entries do **not** count — they are
    /// applied).
    fn backlog(&self) -> usize {
        0
    }

    /// Is this site settled: nothing held back, nothing at risk, no
    /// update still holding a lock-counter?
    fn settled(&self) -> bool {
        self.backlog() == 0
    }

    /// What the replica applied, in ET order, each ET with its MSet's
    /// max version — kept by the completion-tracking methods, empty for
    /// the others. The control core re-announces these to a new
    /// coordinator; it keeps no copy of its own.
    fn applies(&self) -> Vec<(EtId, Option<VersionTs>)> {
        Vec::new()
    }

    /// What this site holds that a scrape publishes as gauges — the one
    /// place an executor reads them from.
    fn readings(&self) -> SiteReadings {
        SiteReadings {
            backlog: self.backlog() as u64,
            ..SiteReadings::default()
        }
    }

    /// Completion notice: every site has applied `et`.
    fn complete(&mut self, _et: EtId) {}

    /// VTNC certificate: every version at or below `ts` is installed at
    /// every replica. Monotone, so a replay is harmless.
    fn advance_vtnc(&mut self, _ts: VersionTs) {}

    /// COMPE commit decision for `et`.
    fn commit(&mut self, _et: EtId) {}

    /// COMPE abort decision for `et`.
    fn abort(&mut self, _et: EtId) {}

    /// An ORDUP-L heartbeat from `origin` at `ts`, sent after its first
    /// `sent` MSets: appends the parked MSets it released to `applied`,
    /// in apply order.
    fn heartbeat(
        &mut self,
        _origin: SiteId,
        _sent: SeqNo,
        _ts: LamportTs,
        _applied: &mut Vec<Released>,
    ) {
    }
}

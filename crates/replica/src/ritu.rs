//! RITU — read-independent timestamped updates (§3.3).
//!
//! RITU updates are *blind* (no R/W dependency): timestamped overwrites.
//! They commute with respect to themselves and with reads, so delivery
//! needs no ordering; access ordering is postponed to read time.
//!
//! * [`RituOverwriteSite`] — single-version overwrite mode: the newest
//!   timestamp wins, older updates are ignored; "there is no divergence
//!   since by definition all the reads request the latest version — RITU
//!   reduces to COMMU", so it *is* COMMU's lock-counter site
//!   ([`CountedSite`]) over a last-writer-wins store; this module adds
//!   only that store's [`ConvergentStore`] impl and the version read.
//! * [`RituMvSite`] — multiversion mode over the pruned version store with
//!   VTNC visibility: reads at or below the VTNC are SR; a query may read
//!   a newer version, paying one inconsistency unit per such read, and a
//!   query whose budget is exhausted falls back to the stable VTNC
//!   version instead of being rejected.

use std::collections::BTreeMap;

use esr_core::divergence::InconsistencyCounter;
use esr_core::error::CoreResult;
use esr_core::fastid::FastIdMap;
use esr_core::ids::{EtId, ObjectId, SiteId, VersionTs};
use esr_core::op::{ObjectOp, Operation};
use esr_core::value::Value;
use esr_storage::mvstore::MvStore;
use esr_storage::store::LwwStore;

use crate::commu::{ConvergentStore, CountedSite};
use crate::mset::MSet;
use crate::site::{Delivered, QueryOutcome, Released, ReplicaSite, SiteReadings};

/// RITU in overwrite (last-writer-wins) mode.
pub type RituOverwriteSite = CountedSite<LwwStore>;

/// A RITU MSet carries only blind timestamped writes (and reads).
fn timestamped(op: &Operation) -> bool {
    matches!(op, Operation::TimestampedWrite(..) | Operation::Read)
}

/// A checkpoint row keeps each object's winning version, so a restored
/// site keeps arbitrating: an older write redelivered after the restart
/// still loses.
impl ConvergentStore for LwwStore {
    type Row = (ObjectId, VersionTs, Value);
    fn takes(op: &Operation) -> bool {
        timestamped(op)
    }
    fn apply(&mut self, op: &ObjectOp) -> CoreResult<Value> {
        LwwStore::apply(self, op)
    }
    fn get(&self, object: ObjectId) -> Value {
        LwwStore::get(self, object)
    }
    fn snapshot(&self) -> BTreeMap<ObjectId, Value> {
        LwwStore::snapshot(self)
    }
    fn rows(&self) -> Vec<Self::Row> {
        self.versioned_dump()
    }
    fn from_rows(rows: Vec<Self::Row>) -> Self {
        let mut store = LwwStore::new();
        for (object, ts, value) in rows {
            let _ = store.apply_timestamped(object, ts, value);
        }
        store
    }
}

impl RituOverwriteSite {
    /// The stored version of an object.
    pub fn version(&self, object: ObjectId) -> VersionTs {
        self.store.version(object)
    }
}

/// RITU in multiversion mode with VTNC visibility control.
#[derive(Debug)]
pub struct RituMvSite {
    store: MvStore,
    /// ETs applied here with their MSets' max versions.
    applied_ets: FastIdMap<EtId, Option<VersionTs>>,
    /// Largest version time installed locally (for the lag reading).
    newest_installed: u64,
}

impl RituMvSite {
    /// A fresh site.
    pub fn new(_site: SiteId) -> Self {
        Self {
            store: MvStore::new(),
            applied_ets: FastIdMap::default(),
            newest_installed: 0,
        }
    }

    /// Captures the site's full protocol state as a checkpoint image:
    /// every version a read can reach at the VTNC, the VTNC visibility
    /// horizon, and the applied ETs with their versions.
    pub fn to_ckpt(&self) -> crate::ckpt::RituMvCkpt {
        crate::ckpt::RituMvCkpt {
            versions: self.store.dump(),
            vtnc: self.store.vtnc(),
            newest_installed: self.newest_installed,
            applied_ets: self.applies(),
        }
    }

    /// Rebuilds a site from a checkpoint image, mid-protocol: the
    /// reachable versions and VTNC resume exactly where the cut left
    /// them, so post-restore queries see the same stable horizon.
    pub fn from_ckpt(_site: SiteId, c: crate::ckpt::RituMvCkpt) -> Self {
        let mut store = MvStore::new();
        for (object, ts, value) in c.versions {
            store.install(object, ts, value);
        }
        store.advance_vtnc(c.vtnc);
        Self {
            store,
            applied_ets: c.applied_ets.into_iter().collect(),
            newest_installed: c.newest_installed,
        }
    }

    /// Number of versions held for an object.
    pub fn version_count(&self, object: ObjectId) -> usize {
        self.store.version_count(object)
    }
}

impl ReplicaSite for RituMvSite {
    fn deliver(&mut self, mset: &MSet, applied: &mut Vec<Released>) -> Delivered {
        if self.applied_ets.contains_key(&mset.et) {
            return Delivered::Duplicate;
        }
        for op in &mset.ops {
            match &op.op {
                Operation::TimestampedWrite(ts, v) => {
                    self.store.install(op.object, *ts, v.clone());
                    self.newest_installed = self.newest_installed.max(ts.time);
                }
                Operation::Read => {}
                other => panic!("RITU-MV MSet carries non-timestamped write {other}"),
            }
        }
        let apply = Released::of(mset);
        self.applied_ets.insert(apply.et, apply.version);
        applied.push(apply);
        Delivered::Applied
    }

    fn accepts(&self, mset: &MSet) -> bool {
        mset.ops.iter().all(|o| timestamped(&o.op))
    }

    fn has_applied(&self, et: EtId) -> bool {
        self.applied_ets.contains_key(&et)
    }

    fn query(
        &mut self,
        read_set: &[ObjectId],
        counter: &mut InconsistencyCounter,
    ) -> QueryOutcome {
        // Per object: prefer the freshest version; if it lies above the
        // VTNC, reading it costs one unit. When the budget can't absorb
        // the unit, fall back to the stable VTNC version (SR, maybe
        // stale). A multiversion query is therefore never rejected.
        let mut values = Vec::with_capacity(read_set.len());
        let mut charged = 0;
        for &object in read_set {
            let latest = self.store.read_latest(object);
            if latest.above_vtnc {
                if counter.charge(1).is_admitted() {
                    charged += 1;
                    values.push(latest.value);
                } else {
                    values.push(self.store.read_at_vtnc(object).value);
                }
            } else {
                values.push(latest.value);
            }
        }
        QueryOutcome {
            values,
            charged,
            admitted: true,
        }
    }

    fn snapshot(&self) -> BTreeMap<ObjectId, Value> {
        self.store.snapshot_latest()
    }

    fn applies(&self) -> Vec<(EtId, Option<VersionTs>)> {
        crate::site::sorted_applies(&self.applied_ets)
    }

    /// The certified horizon, and how far it trails the newest version
    /// installed here, in version-clock ticks (0 once it catches up).
    fn readings(&self) -> SiteReadings {
        let vtnc = self.store.vtnc().time;
        SiteReadings {
            vtnc_time: vtnc,
            vtnc_lag: self.newest_installed.saturating_sub(vtnc),
            ..SiteReadings::default()
        }
    }

    /// The certification service has determined that every version at
    /// or below `to` is installed at every replica and no smaller
    /// version can ever be created.
    fn advance_vtnc(&mut self, to: VersionTs) {
        self.store.advance_vtnc(to);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esr_core::divergence::EpsilonSpec;
    use esr_core::ids::ClientId;
    use esr_core::op::ObjectOp;

    const X: ObjectId = ObjectId(0);
    const Y: ObjectId = ObjectId(1);

    fn vts(t: u64) -> VersionTs {
        VersionTs::new(t, ClientId(0))
    }

    fn tw(et: u64, obj: ObjectId, t: u64, v: i64) -> MSet {
        MSet::new(
            EtId(et),
            SiteId(9),
            vec![ObjectOp::new(
                obj,
                Operation::TimestampedWrite(vts(t), Value::Int(v)),
            )],
        )
    }

    fn unbounded() -> InconsistencyCounter {
        InconsistencyCounter::new(EpsilonSpec::UNBOUNDED)
    }

    #[test]
    fn overwrite_converges_any_order() {
        let msets = [tw(1, X, 1, 10), tw(2, X, 3, 30), tw(3, X, 2, 20)];
        let mut a = RituOverwriteSite::new(SiteId(0));
        let mut b = RituOverwriteSite::new(SiteId(1));
        for m in &msets {
            a.deliver(m, &mut Vec::new());
        }
        for m in msets.iter().rev() {
            b.deliver(m, &mut Vec::new());
        }
        assert_eq!(a.snapshot(), b.snapshot());
        assert_eq!(a.snapshot()[&X], Value::Int(30), "newest timestamp wins");
        assert_eq!(a.version(X), vts(3));
    }

    #[test]
    fn mv_redelivery_storm_is_idempotent_and_counted() {
        let msets = [tw(1, X, 2, 20), tw(2, X, 1, 10), tw(3, Y, 1, 5)];
        let mut s = RituMvSite::new(SiteId(0));
        let duplicates = msets
            .iter()
            .chain(msets.iter())
            .chain(msets.iter())
            .filter(|m| s.deliver(m, &mut Vec::new()) == Delivered::Duplicate)
            .count();
        assert_eq!(duplicates, 6);
        assert!(msets.iter().all(|m| s.has_applied(m.et)));
        assert_eq!(s.version_count(X), 2, "no duplicate versions installed");
        assert_eq!(s.snapshot()[&X], Value::Int(20));
    }

    #[test]
    fn mv_installs_versions_and_reads_latest() {
        let mut s = RituMvSite::new(SiteId(0));
        s.deliver(&tw(1, X, 1, 10), &mut Vec::new());
        s.deliver(&tw(2, X, 2, 20), &mut Vec::new());
        assert_eq!(s.version_count(X), 2);
        let mut c = unbounded();
        let out = s.query(&[X], &mut c);
        assert_eq!(out.values, vec![Value::Int(20)]);
        assert_eq!(out.charged, 1, "one read above the VTNC costs one unit");
    }

    #[test]
    fn mv_charges_only_reads_above_vtnc() {
        let mut s = RituMvSite::new(SiteId(0));
        s.deliver(&tw(1, X, 1, 10), &mut Vec::new());
        s.advance_vtnc(vts(1));
        let mut c = unbounded();
        let out = s.query(&[X], &mut c);
        assert_eq!(out.charged, 0, "version 1 is stable");
        assert_eq!(out.values, vec![Value::Int(10)]);

        s.deliver(&tw(2, X, 5, 50), &mut Vec::new());
        let out = s.query(&[X], &mut c);
        assert_eq!(out.charged, 1, "version 5 is above the VTNC");
        assert_eq!(out.values, vec![Value::Int(50)]);
    }

    #[test]
    fn mv_exhausted_budget_falls_back_to_vtnc_version() {
        let mut s = RituMvSite::new(SiteId(0));
        s.deliver(&tw(1, X, 1, 10), &mut Vec::new());
        s.advance_vtnc(vts(1));
        s.deliver(&tw(2, X, 5, 50), &mut Vec::new());
        let mut c = InconsistencyCounter::new(EpsilonSpec::STRICT);
        let out = s.query(&[X], &mut c);
        assert!(out.admitted, "multiversion queries never reject");
        assert_eq!(out.charged, 0);
        assert_eq!(out.values, vec![Value::Int(10)], "stable version served");
    }

    #[test]
    fn mv_budget_splits_across_read_set() {
        let mut s = RituMvSite::new(SiteId(0));
        s.deliver(&tw(1, X, 5, 50), &mut Vec::new());
        s.deliver(&tw(2, Y, 6, 60), &mut Vec::new());
        let mut c = InconsistencyCounter::new(EpsilonSpec::bounded(1));
        let out = s.query(&[X, Y], &mut c);
        assert_eq!(out.charged, 1);
        assert_eq!(
            out.values,
            vec![Value::Int(50), Value::ZERO],
            "fresh read of x consumed the budget; y fell back to (empty) stable state"
        );
    }

    #[test]
    fn mv_converges_any_order() {
        let msets = [tw(1, X, 2, 20), tw(2, X, 1, 10), tw(3, Y, 1, 5)];
        let mut a = RituMvSite::new(SiteId(0));
        let mut b = RituMvSite::new(SiteId(1));
        for m in &msets {
            a.deliver(m, &mut Vec::new());
        }
        for m in msets.iter().rev() {
            b.deliver(m, &mut Vec::new());
        }
        assert_eq!(a.snapshot(), b.snapshot());
        assert_eq!(a.snapshot()[&X], Value::Int(20));
    }

    /// The site's checkpoint image in its wire encoding.
    fn mv_image(s: &RituMvSite) -> bytes::Bytes {
        crate::ckpt::encode_site_ckpt(&crate::ckpt::SiteCkpt::RituMv(s.to_ckpt()))
    }

    /// A site rebuilt from `s`'s image answers every query like `s`,
    /// under every budget, and dumps the same bytes.
    fn assert_image_restores(s: &mut RituMvSite) {
        let mut restored = RituMvSite::from_ckpt(SiteId(0), s.to_ckpt());
        assert_eq!(mv_image(&restored), mv_image(s));
        for spec in [
            EpsilonSpec::STRICT,
            EpsilonSpec::bounded(1),
            EpsilonSpec::UNBOUNDED,
        ] {
            for read_set in [&[X][..], &[Y], &[X, Y], &[Y, X]] {
                let mut a = InconsistencyCounter::new(spec);
                let mut b = InconsistencyCounter::new(spec);
                assert_eq!(s.query(read_set, &mut a), restored.query(read_set, &mut b));
            }
        }
        assert_eq!(s.snapshot(), restored.snapshot());
    }

    fn image_times(s: &RituMvSite, object: ObjectId) -> Vec<u64> {
        s.to_ckpt()
            .versions
            .iter()
            .filter(|(o, _, _)| *o == object)
            .map(|(_, t, _)| t.time)
            .collect()
    }

    #[test]
    fn mv_image_restores_every_read_and_redumps_identically() {
        let mut s = RituMvSite::new(SiteId(0));
        let writes = [(X, 3), (X, 1), (Y, 2), (X, 5), (X, 4), (Y, 6), (X, 8)];
        for (et, &(object, t)) in writes.iter().enumerate() {
            s.deliver(&tw(et as u64 + 1, object, t, t as i64 * 10), &mut Vec::new());
        }
        assert_image_restores(&mut s);
        assert_eq!(image_times(&s, X), [1, 3, 4, 5, 8], "nothing stable yet");

        // A VTNC advance with no later install: X's chain still holds
        // versions 1 and 3, but neither the image nor a read reaches them.
        s.advance_vtnc(vts(4));
        assert_eq!(s.version_count(X), 5);
        assert_eq!(image_times(&s, X), [4, 5, 8]);
        assert_image_restores(&mut s);

        s.deliver(&tw(8, X, 9, 90), &mut Vec::new());
        assert_eq!(s.version_count(X), 4, "the install pruned 1 and 3");
        assert_image_restores(&mut s);

        s.advance_vtnc(vts(100));
        assert_eq!(image_times(&s, X), [9]);
        assert_eq!(image_times(&s, Y), [6]);
        assert_image_restores(&mut s);
    }

    #[test]
    fn mv_vtnc_is_monotonic_via_site() {
        let mut s = RituMvSite::new(SiteId(0));
        s.advance_vtnc(vts(5));
        s.advance_vtnc(vts(2));
        assert_eq!(s.readings().vtnc_time, 5);
    }
}

//! The multiversion store with VTNC visibility (§3.3).
//!
//! RITU's multiversion mode appends an immutable version per timestamped
//! update. Queries are synchronized with the *visible transaction number
//! counter* (VTNC) of the Modular Synchronization Method: versions at or
//! below the VTNC are stable — no smaller version can be created by any
//! active or future transaction — so reads at the VTNC are serializable.
//! A query may read a version **newer** than the VTNC, but each such read
//! charges one unit to its inconsistency counter.

use std::collections::BTreeMap;

use esr_core::fastid::FastIdMap;
use esr_core::ids::{ObjectId, VersionTs};
use esr_core::value::Value;

use crate::store::to_btree;

/// A read served by the multiversion store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionedRead {
    /// The version that served the read ([`VersionTs::MIN`] when the
    /// object has no version at all and the zero value was returned).
    pub version: VersionTs,
    /// The value read.
    pub value: Value,
    /// `true` when the version is newer than the VTNC — the caller must
    /// charge one unit of inconsistency.
    pub above_vtnc: bool,
}

/// Append-only multiversion store for one site.
///
/// ```
/// use esr_core::ids::{ClientId, ObjectId, VersionTs};
/// use esr_core::value::Value;
/// use esr_storage::mvstore::MvStore;
///
/// let mut store = MvStore::new();
/// let x = ObjectId(0);
/// store.install(x, VersionTs::new(1, ClientId(0)), Value::Int(10));
/// store.install(x, VersionTs::new(2, ClientId(0)), Value::Int(20));
/// store.advance_vtnc(VersionTs::new(1, ClientId(0)));
///
/// // Stable (SR) read vs fresh (charged) read:
/// assert_eq!(store.read_at_vtnc(x).value, Value::Int(10));
/// let fresh = store.read_latest(x);
/// assert_eq!(fresh.value, Value::Int(20));
/// assert!(fresh.above_vtnc);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MvStore {
    /// Per-object version chains, ordered by version timestamp. The
    /// outer map is hashed (hot on the apply path); each chain stays a
    /// `BTreeMap` because reads range-scan it by version.
    chains: FastIdMap<ObjectId, BTreeMap<VersionTs, Value>>,
    /// Visibility horizon: versions `<= vtnc` are stable.
    vtnc: VersionTs,
}

impl Default for MvStore {
    fn default() -> Self {
        Self {
            chains: FastIdMap::default(),
            vtnc: VersionTs::MIN,
        }
    }
}

impl MvStore {
    /// An empty store with the VTNC at the minimum version.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current VTNC.
    pub fn vtnc(&self) -> VersionTs {
        self.vtnc
    }

    /// Advances the VTNC (monotonic: attempts to move it backwards are
    /// ignored).
    pub fn advance_vtnc(&mut self, to: VersionTs) {
        if to > self.vtnc {
            self.vtnc = to;
        }
    }

    /// Installs a version. Duplicate timestamps are ignored (idempotent
    /// redelivery), matching RITU MSet processing.
    pub fn install(&mut self, object: ObjectId, ts: VersionTs, value: Value) {
        self.chains
            .entry(object)
            .or_default()
            .entry(ts)
            .or_insert(value);
    }

    /// A strictly serializable read: the newest version at or below the
    /// VTNC (zero if none).
    pub fn read_at_vtnc(&self, object: ObjectId) -> VersionedRead {
        let vtnc = self.vtnc;
        self.read_at(object, vtnc)
    }

    /// The newest version at or below an arbitrary horizon.
    pub fn read_at(&self, object: ObjectId, horizon: VersionTs) -> VersionedRead {
        let found = self
            .chains
            .get(&object)
            .and_then(|c| c.range(..=horizon).next_back())
            .map(|(ts, v)| (*ts, v.clone()));
        match found {
            Some((version, value)) => VersionedRead {
                version,
                value,
                above_vtnc: version > self.vtnc,
            },
            None => VersionedRead {
                version: VersionTs::MIN,
                value: Value::ZERO,
                above_vtnc: false,
            },
        }
    }

    /// The newest version regardless of the VTNC. `above_vtnc` tells the
    /// caller whether the read must be charged to the query's
    /// inconsistency counter.
    pub fn read_latest(&self, object: ObjectId) -> VersionedRead {
        let found = self
            .chains
            .get(&object)
            .and_then(|c| c.iter().next_back())
            .map(|(ts, v)| (*ts, v.clone()));
        match found {
            Some((version, value)) => VersionedRead {
                version,
                value,
                above_vtnc: version > self.vtnc,
            },
            None => VersionedRead {
                version: VersionTs::MIN,
                value: Value::ZERO,
                above_vtnc: false,
            },
        }
    }

    /// Number of versions held for `object`.
    pub fn version_count(&self, object: ObjectId) -> usize {
        self.chains.get(&object).map_or(0, |c| c.len())
    }

    /// All versions of `object`, oldest first.
    pub fn versions(&self, object: ObjectId) -> Vec<(VersionTs, Value)> {
        self.chains
            .get(&object)
            .map(|c| c.iter().map(|(t, v)| (*t, v.clone())).collect())
            .unwrap_or_default()
    }

    /// Garbage-collects versions strictly older than the newest version
    /// at or below `horizon` for every object (the newest stable version
    /// must survive to serve reads). Returns versions removed.
    pub fn prune_below(&mut self, horizon: VersionTs) -> usize {
        let mut removed = 0;
        for chain in self.chains.values_mut() {
            let Some((&keep, _)) = chain.range(..=horizon).next_back() else {
                continue;
            };
            let stale: Vec<VersionTs> = chain.range(..keep).map(|(t, _)| *t).collect();
            for t in stale {
                chain.remove(&t);
                removed += 1;
            }
        }
        removed
    }

    /// Full dump of every version chain in deterministic
    /// `(object, version)` order — the checkpoint image. Replaying the
    /// dump through [`MvStore::install`] (plus
    /// [`MvStore::advance_vtnc`] to the dumped horizon) rebuilds an
    /// identical store.
    pub fn dump(&self) -> Vec<(ObjectId, VersionTs, Value)> {
        let mut out: Vec<(ObjectId, VersionTs, Value)> = self
            .chains
            .iter()
            .flat_map(|(o, c)| c.iter().map(|(t, v)| (*o, *t, v.clone())))
            .collect();
        out.sort_unstable_by_key(|e| (e.0, e.1));
        out
    }

    /// Latest-value snapshot (for replica convergence comparison).
    pub fn snapshot_latest(&self) -> BTreeMap<ObjectId, Value> {
        // A chain is never empty: `install` creates it with its first
        // version, and pruning keeps the newest stable one.
        to_btree(&self.chains, |c| {
            c.values().next_back().cloned().unwrap_or_default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esr_core::ids::ClientId;

    const X: ObjectId = ObjectId(0);

    fn vts(t: u64) -> VersionTs {
        VersionTs::new(t, ClientId(0))
    }

    #[test]
    fn empty_reads_zero() {
        let s = MvStore::new();
        let r = s.read_at_vtnc(X);
        assert_eq!(r.value, Value::ZERO);
        assert_eq!(r.version, VersionTs::MIN);
        assert!(!r.above_vtnc);
    }

    #[test]
    fn install_and_read_at_vtnc() {
        let mut s = MvStore::new();
        s.install(X, vts(1), Value::Int(10));
        s.install(X, vts(3), Value::Int(30));
        s.advance_vtnc(vts(2));
        let r = s.read_at_vtnc(X);
        assert_eq!(r.value, Value::Int(10), "version 3 is above the VTNC");
        assert_eq!(r.version, vts(1));
        assert!(!r.above_vtnc);
    }

    #[test]
    fn read_latest_flags_above_vtnc() {
        let mut s = MvStore::new();
        s.install(X, vts(1), Value::Int(10));
        s.install(X, vts(3), Value::Int(30));
        s.advance_vtnc(vts(2));
        let r = s.read_latest(X);
        assert_eq!(r.value, Value::Int(30));
        assert!(r.above_vtnc, "reading past the VTNC must be charged");
        s.advance_vtnc(vts(3));
        assert!(!s.read_latest(X).above_vtnc);
    }

    #[test]
    fn vtnc_is_monotonic() {
        let mut s = MvStore::new();
        s.advance_vtnc(vts(5));
        s.advance_vtnc(vts(3));
        assert_eq!(s.vtnc(), vts(5));
    }

    #[test]
    fn duplicate_install_is_idempotent() {
        let mut s = MvStore::new();
        s.install(X, vts(1), Value::Int(10));
        s.install(X, vts(1), Value::Int(99));
        assert_eq!(s.read_latest(X).value, Value::Int(10));
        assert_eq!(s.version_count(X), 1);
    }

    #[test]
    fn out_of_order_install_converges() {
        let mut a = MvStore::new();
        let mut b = MvStore::new();
        let writes = [(vts(2), 20i64), (vts(1), 10), (vts(3), 30)];
        for (t, v) in writes {
            a.install(X, t, Value::Int(v));
        }
        for (t, v) in writes.iter().rev() {
            b.install(X, *t, Value::Int(*v));
        }
        assert_eq!(a.snapshot_latest(), b.snapshot_latest());
        assert_eq!(a.versions(X), b.versions(X));
    }

    #[test]
    fn read_at_arbitrary_horizon() {
        let mut s = MvStore::new();
        for t in 1..=5 {
            s.install(X, vts(t), Value::Int(t as i64 * 10));
        }
        assert_eq!(s.read_at(X, vts(3)).value, Value::Int(30));
        assert_eq!(s.read_at(X, vts(99)).value, Value::Int(50));
        assert_eq!(s.read_at(X, VersionTs::MIN).value, Value::ZERO);
    }

    #[test]
    fn prune_keeps_newest_stable_version() {
        let mut s = MvStore::new();
        for t in 1..=5 {
            s.install(X, vts(t), Value::Int(t as i64));
        }
        let removed = s.prune_below(vts(3));
        assert_eq!(removed, 2, "versions 1 and 2 pruned; 3 survives");
        assert_eq!(s.read_at(X, vts(3)).value, Value::Int(3));
        assert_eq!(s.version_count(X), 3);
    }

    #[test]
    fn prune_with_no_stable_version_is_noop() {
        let mut s = MvStore::new();
        s.install(X, vts(10), Value::Int(1));
        assert_eq!(s.prune_below(vts(5)), 0);
        assert_eq!(s.version_count(X), 1);
    }
}

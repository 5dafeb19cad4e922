//! The multiversion store with VTNC visibility (§3.3).
//!
//! RITU's multiversion mode installs an immutable version per timestamped
//! update. Queries are synchronized with the *visible transaction number
//! counter* (VTNC) of the Modular Synchronization Method: versions at or
//! below the VTNC are stable — no smaller version can be created by any
//! active or future transaction — so reads at the VTNC are serializable.
//! A query may read a version **newer** than the VTNC, but each such read
//! charges one unit to its inconsistency counter.
//!
//! A read sees either an object's newest version or its newest stable
//! one, so a version older than the newest stable version can never be
//! read again. The store keeps only what a read can reach: each install
//! drops the rest of its own chain, so a chain holds its newest stable
//! version plus the versions above the VTNC of its last install.

use std::collections::hash_map::Entry;
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

/// Multiversion store for one site.
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
#[derive(Debug, Clone)]
pub struct MvStore {
    /// Per-object version chains. The map is hashed (hot on the apply
    /// path); a chain sits in its entry unless it outgrows two versions.
    chains: FastIdMap<ObjectId, Chain>,
    /// Visibility horizon: versions `<= vtnc` are stable.
    vtnc: VersionTs,
}

type Version = (VersionTs, Value);

/// What an inline slot past a chain's length holds.
const VACANT: Version = (VersionTs::MIN, Value::ZERO);

/// One object's versions, oldest first, never empty. In steady state a
/// chain is {newest stable version, one newer version}, so it lives in
/// the map entry and an install allocates nothing; a third version
/// spills it to the heap until pruning brings it back to two.
#[derive(Debug, Clone)]
enum Chain {
    /// `slots[..len]` are the versions (`len` is 1 or 2), the rest
    /// [`VACANT`].
    Inline { len: u8, slots: [Version; 2] },
    /// Three or more versions.
    Spilled(Vec<Version>),
}

/// The pruning rule: where the versions a read can reach at `vtnc`
/// start — at the newest stable version, or at the first version when
/// none is stable yet.
fn reachable_from(versions: &[Version], vtnc: VersionTs) -> usize {
    versions
        .partition_point(|(t, _)| *t <= vtnc)
        .saturating_sub(1)
}

impl Chain {
    fn new(version: Version) -> Self {
        Chain::Inline {
            len: 1,
            slots: [version, VACANT],
        }
    }

    fn versions(&self) -> &[Version] {
        match self {
            Chain::Inline { len, slots } => &slots[..usize::from(*len)],
            Chain::Spilled(v) => v,
        }
    }

    /// The versions a read can reach at `vtnc`.
    fn reachable(&self, vtnc: VersionTs) -> &[Version] {
        let versions = self.versions();
        &versions[reachable_from(versions, vtnc)..]
    }

    /// Puts `(ts, value)` in order and drops every version no read can
    /// reach at `vtnc`, so the chain is left exactly its reachable
    /// versions. The new version is not kept when its timestamp is
    /// already here (idempotent redelivery) or a newer stable version is.
    fn install(&mut self, ts: VersionTs, value: Value, vtnc: VersionTs) {
        let versions = self.versions();
        let from = reachable_from(versions, vtnc);
        // `drop` versions leave the front; the new one, if kept, goes
        // in at `at` of the chain as it was.
        let (drop, keep_at) = match versions.binary_search_by_key(&ts, |(t, _)| *t) {
            // Above the VTNC: kept, beside the newest stable version.
            Err(at) if ts > vtnc => (from, Some(at)),
            // The new newest stable version: every older one goes.
            Err(at) if !matches!(versions.get(at), Some((t, _)) if *t <= vtnc) => (at, Some(at)),
            // A redelivery, or below a newer stable version.
            _ => (from, None),
        };
        match self {
            Chain::Inline { len, slots } => {
                let n = usize::from(*len) - drop;
                slots.rotate_left(drop);
                for slot in &mut slots[n..] {
                    *slot = VACANT;
                }
                let Some(at) = keep_at else {
                    *len = n as u8;
                    return;
                };
                let at = at - drop;
                if n == 2 {
                    let mut spilled = Vec::with_capacity(4);
                    spilled.extend(slots.iter_mut().map(|s| std::mem::replace(s, VACANT)));
                    spilled.insert(at, (ts, value));
                    *self = Chain::Spilled(spilled);
                    return;
                }
                slots[n] = (ts, value);
                slots[at..=n].rotate_right(1);
                *len = n as u8 + 1;
            }
            Chain::Spilled(v) => {
                v.drain(..drop);
                if let Some(at) = keep_at {
                    v.insert(at - drop, (ts, value));
                }
                if v.len() <= 2 {
                    let len = v.len() as u8;
                    let mut slots = [VACANT, VACANT];
                    for (slot, version) in slots.iter_mut().zip(v.drain(..)) {
                        *slot = version;
                    }
                    *self = Chain::Inline { len, slots };
                }
            }
        }
    }
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
    /// ignored). O(1): a chain sheds what the new horizon made
    /// unreachable at its next install, and [`MvStore::dump`] never
    /// emits it.
    pub fn advance_vtnc(&mut self, to: VersionTs) {
        if to > self.vtnc {
            self.vtnc = to;
        }
    }

    /// Installs a version and prunes its chain to what a read can
    /// reach. Duplicate timestamps are ignored (idempotent redelivery),
    /// matching RITU MSet processing; a version older than the chain's
    /// newest stable one is dropped, since no read could return it.
    pub fn install(&mut self, object: ObjectId, ts: VersionTs, value: Value) {
        match self.chains.entry(object) {
            Entry::Occupied(e) => e.into_mut().install(ts, value, self.vtnc),
            Entry::Vacant(e) => {
                e.insert(Chain::new((ts, value)));
            }
        }
    }

    /// A strictly serializable read: the newest version at or below the
    /// VTNC (zero if none).
    pub fn read_at_vtnc(&self, object: ObjectId) -> VersionedRead {
        let found = self.chains.get(&object).and_then(|c| {
            let versions = c.versions();
            let stable = versions.partition_point(|(t, _)| *t <= self.vtnc);
            stable.checked_sub(1).map(|i| &versions[i])
        });
        self.served(found)
    }

    /// The newest version regardless of the VTNC. `above_vtnc` tells the
    /// caller whether the read must be charged to the query's
    /// inconsistency counter.
    pub fn read_latest(&self, object: ObjectId) -> VersionedRead {
        self.served(self.chains.get(&object).and_then(|c| c.versions().last()))
    }

    fn served(&self, found: Option<&Version>) -> VersionedRead {
        match found {
            Some((version, value)) => VersionedRead {
                version: *version,
                value: value.clone(),
                above_vtnc: *version > self.vtnc,
            },
            None => VersionedRead {
                version: VersionTs::MIN,
                value: Value::ZERO,
                above_vtnc: false,
            },
        }
    }

    /// Number of versions held for `object`: what a read could reach
    /// at the VTNC of the object's last install.
    pub fn version_count(&self, object: ObjectId) -> usize {
        self.chains.get(&object).map_or(0, |c| c.versions().len())
    }

    /// The checkpoint image: every version a read can reach at the
    /// current VTNC, in `(object, version)` order. A chain that still
    /// holds a version the VTNC has since made unreachable dumps like
    /// one that was pruned, so the image depends only on what was
    /// installed and on the VTNC. Replaying it through
    /// [`MvStore::install`] plus [`MvStore::advance_vtnc`] to the
    /// dumped horizon rebuilds a store that answers every read alike.
    pub fn dump(&self) -> Vec<(ObjectId, VersionTs, Value)> {
        let mut out: Vec<(ObjectId, VersionTs, Value)> = self
            .chains
            .iter()
            .flat_map(|(o, c)| {
                c.reachable(self.vtnc)
                    .iter()
                    .map(|(t, v)| (*o, *t, v.clone()))
            })
            .collect();
        out.sort_unstable_by_key(|e| (e.0, e.1));
        out
    }

    /// Latest-value snapshot (for replica convergence comparison).
    pub fn snapshot_latest(&self) -> BTreeMap<ObjectId, Value> {
        to_btree(&self.chains, |c| {
            c.versions()
                .last()
                .map(|(_, v)| v.clone())
                .unwrap_or_default()
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

    fn times(s: &MvStore) -> Vec<u64> {
        s.dump().iter().map(|(_, t, _)| t.time).collect()
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
        assert_eq!(a.dump(), b.dump());
    }

    #[test]
    fn install_keeps_the_newest_stable_version_and_everything_above() {
        let mut s = MvStore::new();
        for t in 1..=5 {
            s.install(X, vts(t), Value::Int(t as i64));
        }
        assert_eq!(s.version_count(X), 5, "nothing is stable yet");
        s.advance_vtnc(vts(3));
        assert_eq!(times(&s), [3, 4, 5], "the image is pruned at once");
        assert_eq!(s.version_count(X), 5, "the chain at its next install");
        s.install(X, vts(6), Value::Int(6));
        assert_eq!(s.version_count(X), 4);
        assert_eq!(s.read_at_vtnc(X).value, Value::Int(3));
        s.advance_vtnc(vts(9));
        s.install(X, vts(7), Value::Int(7));
        assert_eq!(times(&s), [7]);
        assert_eq!(s.version_count(X), 1, "back inline after the spill");
    }

    #[test]
    fn a_version_below_the_newest_stable_one_is_dropped() {
        let mut s = MvStore::new();
        s.install(X, vts(4), Value::Int(4));
        s.advance_vtnc(vts(5));
        s.install(X, vts(2), Value::Int(2));
        assert_eq!(times(&s), [4]);
        s.install(X, vts(5), Value::Int(5));
        assert_eq!(times(&s), [5], "a newer stable version replaces 4");
        assert_eq!(s.read_at_vtnc(X).value, Value::Int(5));
    }

    #[test]
    fn no_stable_version_prunes_nothing() {
        let mut s = MvStore::new();
        s.install(X, vts(10), Value::Int(1));
        s.advance_vtnc(vts(5));
        s.install(X, vts(12), Value::Int(2));
        assert_eq!(s.version_count(X), 2);
        assert_eq!(s.read_at_vtnc(X).value, Value::ZERO);
    }
}

//! A cheap hasher for id-keyed internal maps.
//!
//! The repo's identifier types ([`crate::ids`]) are plain `u64`
//! counters, so SipHash's per-call cost on the hot apply and metrics
//! paths is pure overhead. [`FastIdHasher`] mixes a fixed-width integer
//! with one Fibonacci multiply plus an xorshift — enough to spread
//! dense counters over hash buckets. Not DoS-resistant: it keys the
//! stores, the sites' duplicate-suppression sets and the metric label
//! caches by ids the deployment's own clients and sites mint (a closed
//! cluster, DESIGN §11); a map keyed by bytes from outside that
//! boundary keeps SipHash.
//!
//! It lives here, below the storage layer, so that `esr-obs` can
//! share it with the stores and the replica sites.

/// A multiply-xorshift hasher for id-keyed internal maps. Ids are plain
/// counters (already uniform after a Fibonacci multiply), so one
/// multiply plus a shift mixes them fine.
#[derive(Debug, Default, Clone, Copy)]
pub struct FastIdHasher(u64);

impl std::hash::Hasher for FastIdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Fallback for non-integer keys (FNV-1a); id types hit the
        // fixed-width paths below.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        let mut h = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 29;
        self.0 = h;
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }
}

/// `BuildHasher` for [`FastIdHasher`].
pub type FastIdBuildHasher = std::hash::BuildHasherDefault<FastIdHasher>;

/// A `HashMap` keyed by an id type, using [`FastIdHasher`].
pub type FastIdMap<K, V> = std::collections::HashMap<K, V, FastIdBuildHasher>;

/// A `HashSet` keyed by an id type, using [`FastIdHasher`].
pub type FastIdSet<K> = std::collections::HashSet<K, FastIdBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ObjectId;

    #[test]
    fn fast_id_map_round_trips() {
        let mut m: FastIdMap<ObjectId, u64> = FastIdMap::default();
        for i in 0..1000u64 {
            m.insert(ObjectId(i), i);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&ObjectId(123)), Some(&123));
        let mut s: FastIdSet<ObjectId> = FastIdSet::default();
        assert!(s.insert(ObjectId(1)));
        assert!(!s.insert(ObjectId(1)));
    }

    #[test]
    fn byte_fallback_distinguishes_strings() {
        use std::hash::{Hash, Hasher};
        let hash = |s: &str| {
            let mut h = FastIdHasher::default();
            s.hash(&mut h);
            h.finish()
        };
        assert_ne!(hash("esr_msets_applied_total"), hash("esr_backlog"));
    }
}

//! The pruned multiversion store against a reference that keeps every
//! version ever installed.
//!
//! Random sequences of installs — in order and out of order, with
//! duplicate timestamps, over a few objects — interleaved with monotone
//! VTNC advances. After every step each object's two reads
//! (`read_latest`, `read_at_vtnc`) must equal the reference's, the
//! store must hold exactly what a read could reach at the VTNC of the
//! object's last install, and its image (`dump`) must be exactly what a
//! read can reach now and rebuild a store that reads alike.

use std::collections::BTreeMap;

use esr_core::ids::{ClientId, ObjectId, VersionTs};
use esr_core::value::Value;
use esr_storage::mvstore::{MvStore, VersionedRead};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

const OBJECTS: u64 = 3;

/// Every version ever installed, and the VTNC.
struct Reference {
    chains: BTreeMap<ObjectId, BTreeMap<VersionTs, Value>>,
    vtnc: VersionTs,
}

impl Reference {
    fn new() -> Self {
        Self {
            chains: BTreeMap::new(),
            vtnc: VersionTs::MIN,
        }
    }

    fn install(&mut self, object: ObjectId, ts: VersionTs, value: Value) {
        self.chains
            .entry(object)
            .or_default()
            .entry(ts)
            .or_insert(value);
    }

    fn read(&self, found: Option<(&VersionTs, &Value)>) -> VersionedRead {
        match found {
            Some((t, v)) => VersionedRead {
                version: *t,
                value: v.clone(),
                above_vtnc: *t > self.vtnc,
            },
            None => VersionedRead {
                version: VersionTs::MIN,
                value: Value::ZERO,
                above_vtnc: false,
            },
        }
    }

    fn read_latest(&self, object: ObjectId) -> VersionedRead {
        self.read(self.chains.get(&object).and_then(|c| c.iter().next_back()))
    }

    fn read_at_vtnc(&self, object: ObjectId) -> VersionedRead {
        self.read(
            self.chains
                .get(&object)
                .and_then(|c| c.range(..=self.vtnc).next_back()),
        )
    }

    /// The versions of `object` a read can reach at `horizon`: the
    /// newest one at or below it, and every one above it.
    fn reachable(&self, object: ObjectId, horizon: VersionTs) -> Vec<(VersionTs, Value)> {
        let Some(chain) = self.chains.get(&object) else {
            return Vec::new();
        };
        let stable = chain.range(..=horizon).next_back();
        stable
            .into_iter()
            .chain(chain.range(horizon..).filter(|(t, _)| **t > horizon))
            .map(|(t, v)| (*t, v.clone()))
            .collect()
    }
}

fn check(
    store: &MvStore,
    reference: &Reference,
    pruned_at: &[VersionTs],
) -> Result<(), TestCaseError> {
    let mut image = Vec::new();
    for o in 0..OBJECTS {
        let object = ObjectId(o);
        prop_assert_eq!(store.read_latest(object), reference.read_latest(object));
        prop_assert_eq!(store.read_at_vtnc(object), reference.read_at_vtnc(object));
        prop_assert_eq!(
            store.version_count(object),
            reference.reachable(object, pruned_at[o as usize]).len(),
            "object {} holds more or less than its last install could reach",
            o
        );
        image.extend(
            reference
                .reachable(object, reference.vtnc)
                .into_iter()
                .map(|(t, v)| (object, t, v)),
        );
    }
    let dump = store.dump();
    prop_assert_eq!(&dump, &image);
    let mut restored = MvStore::new();
    for (object, ts, value) in dump {
        restored.install(object, ts, value);
    }
    restored.advance_vtnc(store.vtnc());
    for o in 0..OBJECTS {
        let object = ObjectId(o);
        prop_assert_eq!(restored.read_latest(object), store.read_latest(object));
        prop_assert_eq!(restored.read_at_vtnc(object), store.read_at_vtnc(object));
    }
    prop_assert_eq!(restored.dump(), store.dump());
    prop_assert_eq!(restored.snapshot_latest(), store.snapshot_latest());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Each step is `(kind, object, offset, client, value)`: kind 0 advances
    /// the VTNC by `offset % 4` ticks, any other kind installs a version
    /// `offset` ticks past four below the VTNC — so below it, at it and
    /// above it, with repeats.
    #[test]
    fn pruned_store_reads_like_a_full_history(
        steps in prop::collection::vec((0u8..4, 0u64..OBJECTS, 0u64..12, 0u64..2, -50i64..50), 1..120)
    ) {
        let mut store = MvStore::new();
        let mut reference = Reference::new();
        let mut pruned_at = vec![VersionTs::MIN; OBJECTS as usize];
        for (kind, o, offset, client, value) in steps {
            let now = reference.vtnc.time;
            if kind == 0 {
                let to = VersionTs::new(now + offset % 4, ClientId(client));
                store.advance_vtnc(to);
                reference.vtnc = reference.vtnc.max(to);
            } else {
                let ts = VersionTs::new((now + offset).saturating_sub(4), ClientId(client));
                store.install(ObjectId(o), ts, Value::Int(value));
                reference.install(ObjectId(o), ts, Value::Int(value));
                pruned_at[o as usize] = reference.vtnc;
                // Right after an install the chain is its newest stable
                // version plus the versions above the VTNC.
                let above = reference.chains[&ObjectId(o)]
                    .range(reference.vtnc..)
                    .filter(|(t, _)| **t > reference.vtnc)
                    .count();
                prop_assert!(store.version_count(ObjectId(o)) <= 1 + above);
            }
            check(&store, &reference, &pruned_at)?;
        }
    }
}

//! The correctness oracle: what the replicas must hold, computed from
//! the operations the cluster acknowledged, and the check against what
//! they do hold.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use esr_core::ids::ObjectId;
use esr_core::value::Value;
use esr_runtime::RtMethod;

use crate::plan::Kind;

/// One client's record of acknowledged updates, in the form its
/// method's final state is computed from.
#[derive(Debug)]
pub struct Ledger {
    method: RtMethod,
    /// COMMU, COMPE: per-object sum of the deltas that survive.
    sums: HashMap<u32, i64>,
    /// ORDUP: `(global sequence, kind, object, value)`.
    ordered: Vec<(u64, Kind, u32, i64)>,
    /// RITU-MV: per object the newest `(version time, value)`.
    newest: HashMap<u32, (u64, i64)>,
}

impl Ledger {
    pub fn new(method: RtMethod) -> Self {
        Self {
            method,
            sums: HashMap::new(),
            ordered: Vec::new(),
            newest: HashMap::new(),
        }
    }

    /// Records one acknowledged update ET. `stamp` is its ORDUP
    /// sequence number or RITU version time (unused otherwise).
    pub fn ack(&mut self, kind: Kind, keys: &[u32], vals: &[i64], stamp: u64) {
        for (&key, &val) in keys.iter().zip(vals) {
            match (self.method, kind) {
                (_, Kind::Query | Kind::IncrAbort) => {}
                (RtMethod::Ordup, _) => self.ordered.push((stamp, kind, key, val)),
                (RtMethod::RituMv | RtMethod::Ritu, _) => {
                    let slot = self.newest.entry(key).or_insert((0, 0));
                    if stamp > slot.0 {
                        *slot = (stamp, val);
                    }
                }
                (RtMethod::Commu | RtMethod::Compe, _) => {
                    *self.sums.entry(key).or_insert(0) += val;
                }
            }
        }
    }

    /// Folds another client's ledger into this one.
    pub fn merge(&mut self, other: Ledger) {
        for (key, val) in other.sums {
            *self.sums.entry(key).or_insert(0) += val;
        }
        self.ordered.extend(other.ordered);
        for (key, theirs) in other.newest {
            let slot = self.newest.entry(key).or_insert((0, 0));
            if theirs.0 > slot.0 {
                *slot = theirs;
            }
        }
    }

    /// The state every replica must hold once the cluster is quiet:
    /// COMMU the per-object sum, ORDUP a replay in sequence order,
    /// RITU-MV the highest-timestamp value, COMPE committed deltas
    /// only. Zero-valued objects are left out, as in
    /// [`crate::cluster::Cluster::snapshots`].
    pub fn expected(mut self) -> BTreeMap<ObjectId, Value> {
        let mut state: HashMap<u32, i64> = self.sums;
        self.ordered.sort_unstable_by_key(|&(seq, ..)| seq);
        for (_, kind, key, val) in self.ordered {
            let slot = state.entry(key).or_insert(0);
            if kind == Kind::Write {
                *slot = val;
            } else {
                *slot += val;
            }
        }
        state.extend(self.newest.into_iter().map(|(k, (_, v))| (k, v)));
        state
            .into_iter()
            .filter(|&(_, v)| v != 0)
            .map(|(k, v)| (ObjectId(u64::from(k)), Value::Int(v)))
            .collect()
    }
}

/// Compares the three replica snapshots with each other and with the
/// expected state. Returns one line per violation (empty = pass).
pub fn check(
    snapshots: &[BTreeMap<ObjectId, Value>],
    expected: &BTreeMap<ObjectId, Value>,
    when: &str,
) -> Vec<String> {
    let mut failures = Vec::new();
    for (site, snap) in snapshots.iter().enumerate() {
        if snap == expected {
            continue;
        }
        let differing: BTreeSet<&ObjectId> = snap
            .keys()
            .chain(expected.keys())
            .filter(|k| snap.get(k) != expected.get(k))
            .collect();
        let example = differing.first().map_or(String::new(), |k| {
            format!("{k} = {:?}, expected {:?}", snap.get(k), expected.get(k))
        });
        let differing = differing.len();
        failures.push(format!(
            "oracle ({when}): site {site} differs from the acknowledged state on \
             {differing} objects, e.g. {example}"
        ));
    }
    failures
}

/// Shifts one object of the expected state — what `--self-test` feeds
/// the oracle to prove it can fire.
pub fn perturb(expected: &mut BTreeMap<ObjectId, Value>) {
    match expected.values_mut().next() {
        Some(Value::Int(v)) => *v += 1,
        _ => {
            expected.insert(ObjectId(u64::MAX), Value::Int(1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int(pairs: &[(u64, i64)]) -> BTreeMap<ObjectId, Value> {
        pairs
            .iter()
            .map(|&(k, v)| (ObjectId(k), Value::Int(v)))
            .collect()
    }

    #[test]
    fn commu_sums_and_compe_drops_aborts() {
        let mut a = Ledger::new(RtMethod::Commu);
        a.ack(Kind::Incr, &[1], &[5], 0);
        let mut b = Ledger::new(RtMethod::Commu);
        b.ack(Kind::Incr, &[1], &[2], 0);
        b.ack(Kind::Incr, &[9], &[1], 0);
        a.merge(b);
        assert_eq!(a.expected(), int(&[(1, 7), (9, 1)]));

        let mut c = Ledger::new(RtMethod::Compe);
        c.ack(Kind::IncrCommit, &[1], &[5], 0);
        c.ack(Kind::IncrAbort, &[1], &[3], 0);
        c.ack(Kind::IncrAbort, &[2], &[3], 0);
        assert_eq!(c.expected(), int(&[(1, 5)]));
    }

    #[test]
    fn ordup_replays_in_sequence_order_across_clients() {
        let mut a = Ledger::new(RtMethod::Ordup);
        a.ack(Kind::Incr, &[1], &[5], 2);
        a.ack(Kind::Write, &[1], &[3], 0);
        let mut b = Ledger::new(RtMethod::Ordup);
        b.ack(Kind::Incr, &[1], &[1], 1);
        b.ack(Kind::Write, &[2], &[8], 3);
        a.merge(b);
        // seq 0: x1 = 3; seq 1: +1; seq 2: +5; seq 3: x2 = 8.
        assert_eq!(a.expected(), int(&[(1, 9), (2, 8)]));
    }

    #[test]
    fn ritu_keeps_the_highest_timestamp() {
        let mut a = Ledger::new(RtMethod::RituMv);
        a.ack(Kind::Blind, &[1, 2], &[5, 6], 4);
        a.ack(Kind::Blind, &[1], &[7], 2);
        let mut b = Ledger::new(RtMethod::RituMv);
        b.ack(Kind::Blind, &[2], &[9], 5);
        a.merge(b);
        assert_eq!(a.expected(), int(&[(1, 5), (2, 9)]));
    }

    #[test]
    fn oracle_fires_on_a_perturbed_state_and_on_divergence() {
        let good = int(&[(1, 7), (2, 1)]);
        let snaps = vec![good.clone(), good.clone(), good.clone()];
        assert!(check(&snaps, &good, "t").is_empty());

        let mut bad = good.clone();
        perturb(&mut bad);
        let failures = check(&snaps, &bad, "t");
        assert_eq!(failures.len(), 3, "{failures:?}");

        let mut diverged = snaps.clone();
        diverged[2].remove(&ObjectId(2));
        let failures = check(&diverged, &good, "t");
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("site 2"), "{failures:?}");

        let mut empty = BTreeMap::new();
        perturb(&mut empty);
        assert_eq!(empty.len(), 1);
    }
}
